"""One cold interpreter: set up, run one plan of ops, report.

Reads a JSON job on stdin.  Prints one line {"ready": wall clock, ...}
just before the first timed op, then one line {"result": ...} with a
record [op, seconds, outcome, detail, scale] per op, the peak RSS, and
the spans when the job is traced.  Outcomes: ok, wrong, refused
(SizeLimitExceeded or CLI exit code 3) and raised.  Only the op itself
is timed; checking its answer is not.  The child runs a gauge.Gauge
from its start: `seconds` leaves out the time its readings took, and
`scale` turns seconds into seconds at the reference speed.  Spans are
timed on a clock that stops while the gauge reads, and are not scaled.
"""

import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time

import expected
import gauge
import workloads

SRC_DIR = os.path.join(os.path.dirname(workloads.BENCH_DIR), "src")


def import_centext():
    sys.path.insert(0, SRC_DIR)
    import centext
    import centext.cli
    if not os.path.abspath(centext.__file__).startswith(SRC_DIR + os.sep):
        raise SystemExit(f"centext imported from {centext.__file__}, "
                         f"not from {SRC_DIR}")
    return centext


def load_groups(cx):
    """Set-up every workload pays: the catalog, plus SL(2,5)."""
    groups = {name: cx.get_group(name) for name in cx.catalog_names()}
    groups["SL25"] = cx.special_linear_2_5()
    return groups


def timed(cx, meter, call):
    """(seconds, result, outcome, window) of one call; outcome None when
    it returned.  Seconds leave out the readings of the gauge `meter`;
    window is the call's [start, end] on the perf_counter clock."""
    stolen = meter.stolen
    start = time.perf_counter()
    try:
        result, outcome = call(), None
    except cx.SizeLimitExceeded as exc:
        result, outcome = str(exc), "refused"
    except Exception as exc:  # a raising op is recorded, not fatal
        result, outcome = repr(exc), "raised"
    end = time.perf_counter()
    return end - start - (meter.stolen - stolen), result, outcome, \
        [start, end]


# ---------------------------------------------------------------------------
# cohomology: one cold compute_cocycle_space


def cohomology_setup(cx, groups, job):
    return None


def cohomology_ops(cx, groups, state, job, tracer, meter):
    records = []
    for index, (a, b) in enumerate(job["ops"]):
        if tracer:
            tracer.op = index
        seconds, space, outcome, window = timed(
            cx, meter, lambda: cx.compute_cocycle_space(groups[a], groups[b]))
        detail = space
        if outcome is None:
            got = tuple(space.h2_invariant_factors)
            ok = got == expected.h2_invariant_factors(a, b) and \
                len(space.class_representatives) == expected.h2_order(a, b)
            outcome, detail = ("ok" if ok else "wrong"), list(got)
        records.append([[a, b], seconds, outcome, detail, window])
    return records


# ---------------------------------------------------------------------------
# census: the deciders over ordered class pairs


CENSUS_CALLS = {
    "cohomologous": lambda cx, s, t: cx.are_cohomologous(s.cocycle,
                                                         t.cocycle),
    "upper": lambda cx, s, t: cx.upper_isomorphic(s, t),
    "lower": lambda cx, s, t: cx.lower_isomorphic(s, t),
    "g1g2": lambda cx, s, t: cx.g1g2_isomorphic(s, t),
    "plain": lambda cx, s, t: cx.brute_force_isomorphism(s.group, t.group),
}
# position of each decider's verdict in a pinned verdict string
PIN_COLUMN = {"plain": 0, "upper": 1, "lower": 2, "g1g2": 3}


def pair_groups(groups, pair):
    a, b = pair.split(":")
    return groups[a], groups[b]


def census_setup(cx, groups, job):
    """Cocycle spaces, carriers and pins for every pair in the plan."""
    pins = workloads.load_pins()["pairs"]
    carriers = {}
    for pair in sorted({op[1] for op in job["ops"]} | set(job["pairs"])):
        space = cx.compute_cocycle_space(*pair_groups(groups, pair))
        reps = space.class_representatives
        if [workloads.table_digest(r.table) for r in reps] != \
                pins[pair]["representatives"]:
            raise SystemExit(f"pins for {pair} do not match its class "
                             f"representatives; regenerate them with "
                             f"{workloads.load_pins()['command']}")
        carriers[pair] = [cx.build_extension(r) for r in reps]
    return carriers, pins


def census_ops(cx, groups, state, job, tracer, meter):
    carriers, pins = state
    records = []
    for index, (kind, pair, i, j) in enumerate(job["ops"]):
        src, tgt = carriers[pair][i], carriers[pair][j]
        if kind == "cohomologous":
            want = i == j
        else:
            verdicts = pins[pair]["verdicts"][i * len(carriers[pair]) + j]
            want = verdicts[PIN_COLUMN[kind]] == "1"
        if tracer:
            tracer.op = index
        seconds, got, outcome, window = timed(
            cx, meter, lambda: CENSUS_CALLS[kind](cx, src, tgt))
        detail = got
        if outcome is None:
            outcome, detail = "ok", None
            if (got is not None) != want:
                outcome = "wrong"
                detail = f"{pair} {i}->{j}: got {got is not None}, pin {want}"
        records.append([[kind, pair, i, j], seconds, outcome, detail,
                        window])
    return records


# ---------------------------------------------------------------------------
# verify: the CLI, in process


def verify_setup(cx, groups, job):
    """Class files for the iso ops, in a directory of this run."""
    work = os.path.join(workloads.BENCH_DIR, "out", f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    files = {}
    for op in job["ops"]:
        if op[0] != "iso":
            continue
        pair = op[2]
        a, b = pair.split(":")
        for k in op[3:5]:
            path = os.path.join(work, f"{a}-{b}-{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"g1": a, "g2": b, "class_index": k}, fh)
            files[pair, k] = path
    return work, files, workloads.load_pins()["pairs"]


def verify_argv(op, files):
    kind = op[0]
    if kind == "verify":
        return ["verify", op[1], "--max-order", "24"]
    if kind == "verify-slow":
        return ["verify", op[1], "--slow"]
    if kind == "cohomology":
        return ["cohomology", op[1], op[2]]
    if kind == "extend":
        return ["extend", op[1], op[2], "--class-index", str(op[3])]
    mode, pair, i, j = op[1:]
    return ["iso", mode, files[pair, i], files[pair, j]]


def verify_check(op, code, payload, pins):
    """None when the CLI answered correctly, else what was wrong."""
    kind = op[0]
    if kind in ("verify", "verify-slow"):
        a, b = op[1].split(":")
        problems = []
        if code != 0 or payload["discrepancy_count"] != 0:
            problems.append(f"exit {code}, "
                            f"{payload['discrepancy_count']} discrepancies")
        if payload["checked_class_pairs"] != expected.h2_order(a, b) ** 2:
            problems.append(f"{payload['checked_class_pairs']} class pairs")
        if kind == "verify-slow":
            slow = payload.get("slow_checks", {})
            if slow.get("all_passed") is not True or \
                    slow.get("double_cover_order") != 120:
                problems.append(f"slow checks {slow}")
        return "; ".join(problems) or None
    if kind == "cohomology":
        want = list(expected.h2_invariant_factors(op[1], op[2]))
        if code == 0 and payload["h2_invariant_factors"] == want:
            return None
        return f"exit {code}, factors {payload['h2_invariant_factors']}"
    if kind == "extend":
        pair, k = f"{op[1]}:{op[2]}", op[3]
        want = pins[pair]["carriers"][k]
        if code == 0 and payload["identified_as"] == want:
            return None
        return f"exit {code}, carrier {payload['identified_as']}"
    mode, pair, i, j = op[1:]
    n = pins[pair]["classes"]
    want = pins[pair]["verdicts"][i * n + j][PIN_COLUMN[mode]] == "1"
    if code == (0 if want else 1) and payload["verdict"] is want:
        return None
    return f"exit {code}, verdict {payload['verdict']}, pin {want}"


def verify_ops(cx, groups, state, job, tracer, meter):
    work, files, pins = state
    records = []
    try:
        for index, op in enumerate(job["ops"]):
            argv = verify_argv(op, files)
            out, err = io.StringIO(), io.StringIO()
            if tracer:
                tracer.op = index
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                seconds, code, outcome, window = timed(
                    cx, meter, lambda: cx.cli.main(argv))
            detail = code if outcome else None
            if outcome is None:
                if code == 3:
                    outcome, detail = "refused", err.getvalue().strip()
                elif code not in (0, 1):
                    outcome, detail = "raised", err.getvalue().strip()
                else:
                    detail = verify_check(op, code, json.loads(out.getvalue()),
                                          pins)
                    outcome = "wrong" if detail else "ok"
            records.append([op, seconds, outcome, detail, window])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return records


WORKLOADS = {
    "cohomology": (cohomology_setup, cohomology_ops),
    "census": (census_setup, census_ops),
    "verify": (verify_setup, verify_ops),
}


def main():
    job = json.load(sys.stdin)
    meter = gauge.Gauge()
    meter.start()
    cx = import_centext()
    tracer = None
    if job["trace"]:
        from tracing import Tracer
        tracer = Tracer(clock=lambda: time.perf_counter() - meter.stolen)
        tracer.install()
    setup, run = WORKLOADS[job["workload"]]
    groups = load_groups(cx)
    state = setup(cx, groups, job)
    print(json.dumps({"ready": time.time(), "stolen": meter.stolen,
                      "scale": meter.scale(0.0, time.perf_counter())}),
          flush=True)
    records = run(cx, groups, state, job, tracer, meter)
    meter.stop()
    for record in records:
        record[4] = meter.scale(*record[4])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"result": {
        "ops": records, "rss_mb": rss_mb,
        "spans": tracer.spans if tracer else None}}), flush=True)


if __name__ == "__main__":
    main()
