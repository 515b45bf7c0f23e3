"""The three workloads: their inputs, and the per-pass plans the parent
process hands to a child interpreter.  Nothing here imports centext;
the seed is applied here, so a child only executes a plan."""

import hashlib
import json
import os
import random

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(BENCH_DIR, "pins.json")

# cold compute_cocycle_space, one child interpreter per op
COHOMOLOGY_PAIRS = (
    ("Z2", "K4"), ("Z4", "K4"), ("K4", "K4"), ("Z3", "K4"), ("Z2", "S3"),
    ("Z3", "S3"), ("Z2", "D4"), ("Z4", "D4"), ("K4", "D4"), ("Z2", "Q8"),
    ("Z4", "Q8"), ("Z2", "Z2xZ2xZ2"), ("Z2", "D5"), ("Z2", "Z6"),
    ("Z2", "Z8"), ("Z4", "Z4"), ("Z2", "A4"))

# reach: pairs that did not finish, or were refused, when this was
# written.  At that time each rung either was refused at once or needed
# more than 40 s, so no rung sat within 3x of the budget.
LADDER = (("Z2", "Z2xZ4"), ("Z5", "D5"), ("Z3", "A4"), ("Z2", "S4"),
          ("Z2", "A5"), ("Z2", "SL25"))
RUNG_BUDGET_S = 1.0

# A run makes max(2, round(--seconds / PASS_S)) passes over its ops; each
# op's time is its median over them.
PASS_S = {"cohomology": 30.0, "census": 6.5, "verify": 4.0}

# census: every ordered class pair of these, one op per decider
CENSUS_PAIRS = ("Z2:K4", "Z4:K4", "Z2:D4", "Z2:Q8", "Z2:S3", "Z3:Z3")
# plus a seeded sample of the 64^2 class pairs of this one
CENSUS_SAMPLED_PAIR = "Z2:Z2xZ2xZ2"
CENSUS_SAMPLE = 10
CENSUS_KINDS = ("cohomologous", "upper", "lower", "g1g2", "plain")

# the CLI gate, in process through centext.cli.main
VERIFY_PAIRS = ("Z2:Z2", "Z2:Z4", "Z2:K4", "Z3:Z3", "Z2:D4", "Z2:Q8",
                "Z4:K4", "Z2:S3", "Z3:S3")
VERIFY_COHOMOLOGY = (("Z2", "Z2xZ2xZ2"), ("Z4", "Z4"), ("Z2", "Z6"))
VERIFY_EXTEND = ("Z2", "K4")
VERIFY_ISO_PAIRS = (("Z2:K4", 1, 2), ("Z2:K4", 2, 3), ("Z2:K4", 1, 7),
                    ("Z3:Z3", 0, 1), ("Z3:Z3", 1, 2))
ISO_MODES = ("plain", "upper", "lower", "g1g2")

# smoke-test sizes (--tiny)
TINY_COHOMOLOGY = (("Z2", "K4"), ("Z2", "S3"))
TINY_LADDER = (("Z2", "K4"), ("Z2", "A5"))
TINY_CENSUS_PAIRS = ("Z2:S3", "Z3:Z3")
TINY_CENSUS_SAMPLE = 1
TINY_VERIFY_PAIRS = ("Z2:Z2", "Z3:Z3")


def load_pins(path=PINS_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def census_sample(seed, pins, tiny):
    """The class pairs of one run: all of the small pairs, plus the
    seeded sample of the large one.  The sample is stratified by pinned
    verdicts, so every seed draws the same mix of cheap and costly
    pairs and only which pairs of each kind changes."""
    rng = random.Random(seed)
    chosen = []
    for pair in (TINY_CENSUS_PAIRS if tiny else CENSUS_PAIRS):
        n = pins["pairs"][pair]["classes"]
        chosen += [(pair, i, j) for i in range(n) for j in range(n)]
    pinned = pins["pairs"][CENSUS_SAMPLED_PAIR]
    n = pinned["classes"]
    strata = {}
    for k, verdicts in enumerate(pinned["verdicts"]):
        strata.setdefault(verdicts, []).append(k)
    size = TINY_CENSUS_SAMPLE if tiny else CENSUS_SAMPLE
    for _, members in sorted(strata.items()):
        for k in rng.sample(members, round(size * len(members) / n ** 2)):
            chosen.append((CENSUS_SAMPLED_PAIR, *divmod(k, n)))
    return chosen


def census_plan(rng, class_pairs):
    ops = [[kind, pair, i, j] for pair, i, j in class_pairs
           for kind in CENSUS_KINDS]
    rng.shuffle(ops)
    return ops


def verify_plan(tiny):
    """The CLI gate in a fixed order, whatever the seed.  The ops share
    the library's caches within a child, so their order decides which op
    pays to fill them; a seeded order made the median op time of a run
    move by 10% from seed to seed.  Every verify comes first, so the
    class-file ops find the cocycle spaces of their pairs built, as
    they would after a user's `verify`."""
    if tiny:
        ops = [["verify", p] for p in TINY_VERIFY_PAIRS]
        ops += [["cohomology", "Z4", "Z4"], ["extend", "Z2", "K4", 1]]
        ops += [["iso", m, "Z3:Z3", 1, 2] for m in ISO_MODES]
    else:
        ops = [["verify", p] for p in VERIFY_PAIRS]
        ops.append(["verify-slow", "Z2:Z2"])
        ops += [["cohomology", a, b] for a, b in VERIFY_COHOMOLOGY]
        ops += [["extend", *VERIFY_EXTEND, k] for k in range(8)]
        ops += [["iso", m, pair, i, j] for pair, i, j in VERIFY_ISO_PAIRS
                for m in ISO_MODES]
    return ops


def table_digest(table):
    """Short fingerprint of a cocycle table, to tie pins to the class
    representatives they were computed for."""
    text = json.dumps([list(row) for row in table])
    return hashlib.sha256(text.encode()).hexdigest()[:16]
