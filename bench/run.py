"""The centext benchmark: one workload per run, closed loop.

    python3 bench/run.py --workload {cohomology,census,verify}
                         --seed N --seconds S --trace {0,1} [--tiny]

One client in one process on one thread sends the next op when the
previous one returns.  Every op runs in a fresh child interpreter
(bench/child.py): `cohomology` starts one per op, since the library
caches cocycle spaces and groups compare by table; `census` and `verify`
start one per pass over their op list.  --seconds sets the number of
passes (workloads.PASS_S), and each op's time is its median over them.
Times are scaled to a reference host speed by a gauge that runs in each
child (gauge.py); the unscaled figures are in the run record.
The seed picks the census sample and the order of the census and
cohomology ops; verify runs the CLI gate in a fixed order.

Every answer is checked against a value that does not come from the
code under test (see expected.py and pins.json).  The last line of
stdout is {"correct", "attempted", "failed", "metrics"}; before it comes
the run record.  The exit code is 0 only when every op answered
correctly.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 each pass runs untraced and then traced, and the metrics are
the per-layer ones, with the spans saved under bench/out/.
"""

import argparse
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
import workloads

ROOT = os.path.dirname(workloads.BENCH_DIR)
OUT_DIR = os.path.join(workloads.BENCH_DIR, "out")
CHILD = os.path.join(workloads.BENCH_DIR, "child.py")

RUN_LIMIT_S = 170.0     # a run that would pass this is stopped and fails
SETUP_SAMPLES = 5       # interpreter set-ups per census or verify run

E2E_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_s": "s",
             "op_p90_s": "s", "peak_rss_mb": "MB"}
DECIDER_P50 = {"decider.are_cohomologous.p50_s": "cohomologous",
               "decider.upper_isomorphic.p50_s": "upper",
               "decider.lower_isomorphic.p50_s": "lower"}
LAYER_UNITS = dict(tracing.LAYER_METRICS,
                   **{name: "s" for name in DECIDER_P50},
                   **{"ladder.reach_solved": "rungs",
                      "trace.overhead_ratio": "ratio"})
FAILED_OUTCOMES = ("wrong", "raised", "refused", "over_budget")


class RunFailed(Exception):
    """The run cannot produce a result."""


class Child:
    """One finished child interpreter."""

    def __init__(self, spawned, ready, result, outcome):
        self.setup_s = self.setup_raw_s = None
        if ready is not None:
            self.setup_raw_s = ready["ready"] - spawned - ready["stolen"]
            self.setup_s = self.setup_raw_s * ready["scale"]
        self.result = result
        self.outcome = outcome          # "done" or "over_budget"


def run_child(job, deadline, budget=None):
    """Run child.py on one job.  With a budget, the child is killed when
    it has not answered `budget` seconds after it became ready."""
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT_DIR) as err:
        spawned = time.time()
        proc = subprocess.Popen([sys.executable, CHILD], cwd=ROOT,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=err, bufsize=0)
        try:
            proc.stdin.write(json.dumps(job).encode())
            proc.stdin.close()
            lines, timed_out = _read_until_eof(proc, deadline, budget)
            if timed_out:
                proc.kill()
            proc.wait()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        stderr = err.read().decode(errors="replace").strip()
    ready = json.loads(lines[0]) if lines else None
    if timed_out == "budget":
        return Child(spawned, ready, None, "over_budget")
    if timed_out or proc.returncode != 0 or len(lines) != 2:
        what = "ran past the run limit" if timed_out else \
            f"exited {proc.returncode}"
        raise RunFailed(f"{job['workload']} child {what}: {stderr[-2000:]}")
    return Child(spawned, ready, json.loads(lines[1])["result"], "done")


def _read_until_eof(proc, deadline, budget):
    """The child's stdout lines, and None, "budget" or "deadline"."""
    fd = proc.stdout.fileno()
    chunks, ready_at = [], None
    while True:
        limit, why = deadline, "deadline"
        if ready_at is not None and budget is not None \
                and ready_at + budget < deadline:
            limit, why = ready_at + budget, "budget"
        wait = limit - time.monotonic()
        if wait <= 0:
            return b"".join(chunks).decode().splitlines(), why
        if not select.select([fd], [], [], wait)[0]:
            continue
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return b"".join(chunks).decode().splitlines(), None
        chunks.append(chunk)
        if ready_at is None and b"\n" in chunk:
            ready_at = time.monotonic()


class Tally:
    """What one run measured."""

    def __init__(self):
        self.ops = []           # [op, seconds, outcome, detail, scale]
        self.traced_ops = []
        self.setups = []        # scaled seconds
        self.raw_setups = []
        self.rss_mb = 0.0
        self.spans = []
        self.passes = 0
        self.traced_children = 0
        self.ladder = None

    def add_setup(self, child):
        if child.setup_s is not None:
            self.setups.append(child.setup_s)
            self.raw_setups.append(child.setup_raw_s)

    def add(self, child, traced=False):
        self.add_setup(child)
        if child.result is None:
            return
        self.rss_mb = max(self.rss_mb, child.result["rss_mb"])
        (self.traced_ops if traced else self.ops).extend(
            child.result["ops"])
        if traced:
            # op ids become "<traced child>:<op index or setup>"
            base = len(self.spans)
            for name, start, end, parent, op, obs in child.result["spans"]:
                self.spans.append([name, start, end,
                                   parent + base if parent >= 0 else -1,
                                   f"{self.traced_children}:{op}", obs])
            self.traced_children += 1


def job(workload, ops, trace, **extra):
    return dict(workload=workload, ops=ops, trace=trace, **extra)


def run_cohomology(args, rng, deadline, tally):
    pairs = workloads.TINY_COHOMOLOGY if args.tiny \
        else workloads.COHOMOLOGY_PAIRS
    for _ in range(passes(args)):
        cohomology_pass(args, rng, pairs, deadline, tally)
    if args.trace:
        # reach is a per-layer metric; untraced runs skip the ladder's
        # seconds of over-budget rungs
        ladder = workloads.TINY_LADDER if args.tiny else workloads.LADDER
        tally.ladder = run_ladder(ladder, workloads.RUNG_BUDGET_S, deadline,
                                  tally)


def cohomology_pass(args, rng, pairs, deadline, tally):
    """Each pair in its own cold child, in a seeded order."""
    pairs = list(pairs)
    rng.shuffle(pairs)
    for pair in pairs:
        tally.add(run_child(job("cohomology", [pair], False), deadline))
        if args.trace:
            tally.add(run_child(job("cohomology", [pair], True), deadline),
                      traced=True)
    tally.passes += 1


def run_ladder(rungs, budget, deadline, tally=None):
    """Outcome of each rung: solved, over_budget, refused, raised or
    wrong.  Only solved rungs count towards reach."""
    outcomes = {}
    for pair in rungs:
        child = run_child(job("cohomology", [pair], False), deadline,
                          budget=budget)
        if tally is not None:
            tally.add_setup(child)
        if child.outcome == "over_budget":
            outcomes[":".join(pair)] = "over_budget"
            continue
        outcome = child.result["ops"][0][2]
        outcomes[":".join(pair)] = "solved" if outcome == "ok" else outcome
    return {"budget_s": budget, "rungs": len(rungs),
            "solved": sum(o == "solved" for o in outcomes.values()),
            "failed": sum(o != "solved" for o in outcomes.values()),
            "outcomes": outcomes}


def run_passes(args, deadline, tally, make_job):
    """Census and verify: one child per pass, then set-up-only children
    until there are SETUP_SAMPLES set-up times."""
    for _ in range(passes(args)):
        plan = make_job()
        tally.add(run_child(plan, deadline))
        if args.trace:
            plan["trace"] = True
            tally.add(run_child(plan, deadline), traced=True)
        tally.passes += 1
    if not args.trace:
        for _ in range(SETUP_SAMPLES - tally.passes):
            probe = make_job()
            probe["ops"] = []
            tally.add(run_child(probe, deadline))


def passes(args):
    """How many passes over the ops --seconds buys; a traced run makes
    one, untraced and then traced."""
    if args.trace:
        return 1
    return max(2, round(args.seconds / workloads.PASS_S[args.workload]))


def run_census(args, rng, deadline, tally):
    pins = workloads.load_pins()
    class_pairs = workloads.census_sample(args.seed, pins, args.tiny)
    pairs = list(workloads.TINY_CENSUS_PAIRS if args.tiny
                 else workloads.CENSUS_PAIRS)
    pairs.append(workloads.CENSUS_SAMPLED_PAIR)
    run_passes(args, deadline, tally, lambda: job(
        "census", workloads.census_plan(rng, class_pairs), False,
        pairs=pairs))


def run_verify(args, rng, deadline, tally):
    run_passes(args, deadline, tally, lambda: job(
        "verify", workloads.verify_plan(args.tiny), False))


RUNNERS = {"cohomology": run_cohomology, "census": run_census,
           "verify": run_verify}


def quantile(values, q):
    """Linear-interpolated quantile of the sample (q in [0, 1])."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def op_times(records, scaled=True):
    """{op: its median time over the passes}, scaled to the reference
    speed unless scaled is False."""
    times = {}
    for op, seconds, _, _, scale in records:
        if scaled:
            seconds *= scale
        times.setdefault(json.dumps(op), []).append(seconds)
    return {op: statistics.median(ts) for op, ts in times.items()}


def end_to_end(tally, scaled=True):
    """{name: (value, samples)} for the end-to-end metrics.  Samples
    counts the op executions behind each op's median time."""
    seconds = list(op_times(tally.ops, scaled).values())
    setups = tally.setups if scaled else tally.raw_setups
    runs = len(tally.ops)
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "ops_per_s": (len(seconds) / sum(seconds), runs),
        "op_p50_s": (quantile(seconds, 0.5), runs),
        "op_p90_s": (quantile(seconds, 0.9), runs),
        "peak_rss_mb": (tally.rss_mb, tally.passes),
    }


def per_layer(tally):
    """{name: (value, samples)} for the per-layer metrics."""
    out = {name: (value, len(tally.spans)) for name, value
           in tracing.layer_metrics(tally.spans).items()}
    for name, kind in DECIDER_P50.items():
        seconds = [op[1] * op[4] for op in tally.ops if op[0][0] == kind]
        out[name] = (quantile(seconds, 0.5) if seconds else 0.0,
                     len(seconds))
    ladder = tally.ladder or {"solved": 0, "rungs": 0}
    out["ladder.reach_solved"] = (ladder["solved"], ladder["rungs"])
    untraced = sum(op[1] * op[4] for op in tally.ops)
    traced = sum(op[1] * op[4] for op in tally.traced_ops)
    out["trace.overhead_ratio"] = (traced / untraced - 1 if untraced else 0.0,
                                   len(tally.traced_ops))
    return out


def commit():
    """The checkout's git commit, read from its own .git, or None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.split()[-1:] == [ref]:
                    return line.split()[0]
    except OSError:
        return None
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=RUNNERS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes, for the self-tests")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "centext")):
        print(f"error: no centext sources under {ROOT}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    tally = Tally()
    try:
        RUNNERS[args.workload](args, random.Random(args.seed), deadline,
                               tally)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    checked = tally.ops + tally.traced_ops
    counts = {o: sum(op[2] == o for op in checked)
              for o in ("ok",) + FAILED_OUTCOMES}
    failed = len(checked) - counts["ok"]
    ladder_wrong = tally.ladder is not None and \
        "wrong" in tally.ladder["outcomes"].values()
    correct = failed == 0 and not ladder_wrong
    if args.trace:
        measured, units = per_layer(tally), LAYER_UNITS
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_file = os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        tracing.write_spans(spans_file, tally.spans)
    else:
        measured, units, spans_file = end_to_end(tally), E2E_UNITS, None

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "commit": commit(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
        "passes": tally.passes,
        "metrics": {name: {"value": value, "unit": units[name],
                           "samples": samples}
                    for name, (value, samples) in measured.items()},
        "unscaled": None if args.trace else {
            name: value
            for name, (value, _) in end_to_end(tally, False).items()},
        "ops": dict(counts, attempted=len(checked), failed=failed,
                    failed_ops_ratio=failed / len(checked)),
        "failures": [op for op in checked if op[2] != "ok"][:20],
        "ladder": tally.ladder, "spans_file": spans_file,
    }
    print(json.dumps({"record": record}, indent=1))
    print(json.dumps({
        "correct": correct, "attempted": len(checked), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in measured.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
