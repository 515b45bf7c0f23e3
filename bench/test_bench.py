"""Self-tests for the benchmark, not for centext.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import expected
import gauge
import run
import tracing
import workloads

ROOT = run.ROOT
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    DECLARED = json.load(_fh)


def bench(root, *args):
    """Run the benchmark command from `root`; (exit code, stdout lines)."""
    proc = subprocess.run(DECLARED["command"] + list(args), cwd=root,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def copy_checkout(dest, with_sources=True):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    ignore = shutil.ignore_patterns("out", "__pycache__", ".pytest_cache")
    for path in DECLARED["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(dest, path),
                        ignore=ignore)
    if with_sources:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                        ignore=ignore)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in DECLARED["workloads"]])
def test_tiny_run_emits_every_named_metric(workload, trace):
    code, lines = bench(ROOT, "--workload", workload, "--seed", "3",
                        "--seconds", "1", "--trace", str(trace), "--tiny")
    assert code == 0, lines[-3:]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    record = json.loads("\n".join(lines[:-1]))["record"]
    for key in ("commit", "python", "nproc", "platform", "seed", "workload"):
        assert key in record
    if not trace:
        assert all(m["samples"] >= 1 for m in record["metrics"].values())


def test_corrupted_pin_fails_the_run(tmp_path):
    copy_checkout(tmp_path)
    pins_path = tmp_path / "bench" / "pins.json"
    pins = json.loads(pins_path.read_text())
    pair = workloads.TINY_CENSUS_PAIRS[0]
    first = pins["pairs"][pair]["verdicts"][0]
    pins["pairs"][pair]["verdicts"][0] = \
        ("0" if first[0] == "1" else "1") + first[1:]
    pins_path.write_text(json.dumps(pins))
    code, lines = bench(tmp_path, "--workload", "census", "--seed", "3",
                        "--seconds", "1", "--trace", "0", "--tiny")
    assert code != 0
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_over_budget_rung_counts_as_failed_not_solved():
    ladder = run.run_ladder([("Z2", "S4")], budget=0.0,
                            deadline=time.monotonic() + 120)
    assert ladder["outcomes"] == {"Z2:S4": "over_budget"}
    assert ladder["solved"] == 0 and ladder["failed"] == 1


def test_refuses_to_run_without_the_sources(tmp_path):
    copy_checkout(tmp_path, with_sources=False)
    code, lines = bench(tmp_path, "--workload", "verify", "--seed", "1",
                        "--seconds", "1", "--trace", "0")
    assert code != 0 and lines == []


@pytest.mark.parametrize("g1, g2, factors", [
    ("Z2", "D4", (2, 2, 2)), ("Z2", "Q8", (2, 2)),
    ("Z2", "Z2xZ2xZ2", (2,) * 6), ("Z2", "A4", (2,)),
    ("K4", "D4", (2,) * 6), ("Z2", "Z2xZ4", (2, 2, 2)),
    ("Z2", "S4", (2, 2)), ("Z2", "A5", (2,)), ("Z2", "SL25", ()),
    ("Z4", "Z4", (4,)), ("Z3", "S3", ()), ("Z3", "A4", (3,)),
])
def test_universal_coefficients(g1, g2, factors):
    assert expected.h2_invariant_factors(g1, g2) == factors


def test_invariant_factor_chain():
    assert expected.invariant_factors([4, 2]) == (2, 4)
    assert expected.invariant_factors([2, 3]) == (6,)
    assert expected.invariant_factors([]) == ()


def test_gauge_scales_by_the_readings_around_an_op():
    g = gauge.Gauge()
    g.times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    g.readings = [9.0, 1.0, 2.0, 2.0, 4.0, 9.0]
    ref = gauge.REFERENCE_S
    # a short op between two readings gets their median
    assert g.scale(1.2, 1.4) == pytest.approx(ref / 1.5)
    # a long op gets the readings during it and one on either side
    assert g.scale(1.5, 3.5) == pytest.approx(ref / 2.0)
    # an op before the first reading gets the first one
    assert g.scale(-0.5, -0.2) == pytest.approx(ref / 9.0)


def test_gauge_takes_its_readings_out_of_the_op():
    g = gauge.Gauge()
    g.start()
    try:
        deadline = time.perf_counter() + 4 * gauge.PERIOD_S
        while time.perf_counter() < deadline:
            pass
    finally:
        g.stop()
    assert len(g.readings) >= 4
    assert g.stolen == pytest.approx(sum(g.readings))


def test_self_time_subtracts_direct_children():
    spans = [["cocycles.compute_cocycle_space", 0.0, 10.0, -1, 0, None],
             ["intlinalg.solve_linear_mod", 1.0, 4.0, 0, 0, [9, 1]],
             ["intlinalg.smith_normal_form", 2.0, 3.0, 1, 0, None],
             ["intlinalg.solve_linear_mod", 5.0, 6.0, 0, 0, [7, 1]],
             ["groups.enumerate_automorphisms", 6.0, 8.0, 0, 0, [4, 5]],
             ["groups.enumerate_isomorphisms", 6.5, 7.5, 4, 0, 4]]
    m = tracing.layer_metrics(spans)
    assert m["cocycles.compute_cocycle_space.self_s"] == 4.0
    assert m["intlinalg.solve_linear_mod.self_s"] == 3.0
    assert m["intlinalg.solve_linear_mod.calls"] == 2
    assert m["intlinalg.solve_linear_mod.rows_max"] == 9
    assert m["intlinalg.solve_linear_mod.repeat_ratio"] == 0.5
    assert m["groups.map_search.calls"] == 1
    assert m["groups.map_search.self_s"] == 2.0
    assert m["groups.map_search.maps"] == 4
    assert m["groups.enumerate_automorphisms.calls"] == 1


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
