"""Regenerate pins.json: the census verdicts, pinned once from the
brute-force oracle (`oracle_iso_survey`), which enumerates every
isomorphism between two carriers and post-filters it.

For each census pair the file keeps the class count, a fingerprint of
each class representative (a changed representative invalidates its
pins), the catalog name of each carrier, and for every ordered class
pair (i, j), at index i * classes + j, a string of four 0/1 verdicts:
plain, upper, lower, g1g2.

Run from the repository root: python3 bench/make_pins.py
"""

import json
import os
import sys
from collections import Counter

import workloads

sys.path.insert(0, os.path.join(os.path.dirname(workloads.BENCH_DIR), "src"))

import centext as cx  # noqa: E402

# the central extensions of K4 by Z2, up to isomorphism of the carrier:
# Z2 x K4 once, Z2 x Z4 and D4 three times each, Q8 once
Z2_K4_CARRIERS = {"Z2xZ2xZ2": 1, "Z2xZ4": 3, "D4": 3, "Q8": 1}


def pin_pair(pair):
    g1, g2 = (cx.get_group(name) for name in pair.split(":"))
    reps = cx.compute_cocycle_space(g1, g2).class_representatives
    exts = [cx.build_extension(r) for r in reps]
    verdicts = []
    for src in exts:
        for tgt in exts:
            oracle = cx.oracle_iso_survey(src, tgt)
            verdicts.append("".join(
                "1" if oracle[k] else "0"
                for k in ("plain", "upper", "lower", "g1g2")))
    return {"classes": len(exts),
            "representatives": [workloads.table_digest(r.table)
                                for r in reps],
            "carriers": [cx.identify_group(e.group) for e in exts],
            "verdicts": verdicts}


def main():
    pins = {"command": "python3 bench/make_pins.py", "pairs": {}}
    for pair in workloads.CENSUS_PAIRS + (workloads.CENSUS_SAMPLED_PAIR,):
        pins["pairs"][pair] = pin_pair(pair)
        print(pair, pins["pairs"][pair]["classes"], "classes", flush=True)
    if Counter(pins["pairs"]["Z2:K4"]["carriers"]) != Z2_K4_CARRIERS:
        raise SystemExit("the Z2:K4 carriers contradict the known census")
    with open(workloads.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
