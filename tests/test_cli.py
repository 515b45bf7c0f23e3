import hashlib
import json
import subprocess
import sys

import pytest

from centext.catalog import get_group
from centext.cli import main
from centext.cocycles import compute_cocycle_space


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out else None
    return code, payload, captured.err


def write_ext(tmp_path, name, g1, g2, **fields):
    path = tmp_path / name
    path.write_text(json.dumps({"g1": g1, "g2": g2, **fields}))
    return str(path)


class TestCohomology:
    def test_order_two_pair(self, capsys):
        code, payload, _ = run_cli(["cohomology", "Z2", "Z2"], capsys)
        assert code == 0
        assert payload["h2_order"] == 2
        assert payload["h2_invariant_factors"] == [2]
        assert payload["class_count"] == 2
        assert payload["class_representatives"][0] == [[0, 0], [0, 0]]

    def test_coprime_pair_is_trivial(self, capsys):
        code, payload, _ = run_cli(["cohomology", "Z2", "Z3"], capsys)
        assert code == 0
        assert payload["h2_order"] == 1
        assert payload["class_count"] == 1

    def test_point_kernel_is_trivial(self, capsys):
        code, payload, _ = run_cli(["cohomology", "Z1", "S3"], capsys)
        assert code == 0
        assert payload["h2_order"] == 1

    def test_group_from_json_file(self, tmp_path, capsys):
        gfile = tmp_path / "k4.json"
        gfile.write_text(json.dumps(get_group("K4").to_dict()))
        code, from_file, _ = run_cli(["cohomology", "Z2", str(gfile)], capsys)
        assert code == 0
        code, from_name, _ = run_cli(["cohomology", "Z2", "K4"], capsys)
        assert from_file["h2_order"] == from_name["h2_order"] == 8

    def test_deterministic_output_bytes(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["cohomology", "Z3", "Z3", "--output", str(out1)]) == 0
        assert main(["cohomology", "Z3", "Z3", "--output", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_size_limit_exit(self, capsys):
        code, payload, err = run_cli(["cohomology", "Z2", "A5"], capsys)
        assert code == 3 and payload is None
        assert "error" in err

    def test_unknown_group_exit(self, capsys):
        code, _, err = run_cli(["cohomology", "Z2", "NoSuchGroup"], capsys)
        assert code == 2
        assert "NoSuchGroup" in err


class TestExtend:
    def test_class_index_builds_the_cyclic_carrier(self, capsys):
        code, payload, err = run_cli(
            ["extend", "Z2", "Z2", "--class-index", "1"], capsys)
        assert code == 0
        assert payload["identified_as"] == "Z4"
        assert "Z4" in err
        assert payload["group"]["order"] == 4

    def test_trivial_class_is_the_direct_product(self, capsys):
        code, payload, _ = run_cli(
            ["extend", "Z2", "Z2", "--class-index", "0"], capsys)
        assert code == 0
        assert payload["identified_as"] == "K4"

    def test_quaternion_class_over_the_klein_pair(self, capsys):
        code, payload, _ = run_cli(
            ["extend", "Z2", "K4", "--class-index", "7"], capsys)
        assert code == 0
        assert payload["identified_as"] == "Q8"

    def test_cocycle_file_forms(self, tmp_path, capsys):
        wrapped = tmp_path / "c1.json"
        wrapped.write_text(json.dumps({"table": [[0, 0], [0, 1]]}))
        code, payload, _ = run_cli(
            ["extend", "Z2", "Z2", str(wrapped)], capsys)
        assert code == 0 and payload["identified_as"] == "Z4"
        bare = tmp_path / "c2.json"
        bare.write_text(json.dumps([[0, 0], [0, 1]]))
        code, payload, _ = run_cli(["extend", "Z2", "Z2", str(bare)], capsys)
        assert code == 0 and payload["identified_as"] == "Z4"

    def test_requires_exactly_one_cocycle_source(self, tmp_path, capsys):
        code, _, err = run_cli(["extend", "Z2", "Z2"], capsys)
        assert code == 2 and "exactly one" in err
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps([[0, 0], [0, 1]]))
        code, _, _ = run_cli(
            ["extend", "Z2", "Z2", str(cfile), "--class-index", "0"], capsys)
        assert code == 2

    def test_class_index_range_checked(self, capsys):
        code, _, err = run_cli(
            ["extend", "Z2", "Z2", "--class-index", "9"], capsys)
        assert code == 2 and "out of range" in err

    def test_invalid_cocycle_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([[0, 0], [0, 7]]))
        code, _, _ = run_cli(["extend", "Z2", "Z2", str(bad)], capsys)
        assert code == 2


@pytest.fixture()
def ext_files(tmp_path):
    return {
        "k4": write_ext(tmp_path, "k4.json", "Z2", "Z2", class_index=0),
        "z4": write_ext(tmp_path, "z4.json", "Z2", "Z2", class_index=1),
        "d4a": write_ext(tmp_path, "d4a.json", "Z2", "K4", class_index=2),
        "d4b": write_ext(tmp_path, "d4b.json", "Z2", "K4", class_index=3),
        "za": write_ext(tmp_path, "za.json", "Z2", "K4", class_index=1),
        "zb": write_ext(tmp_path, "zb.json", "Z2", "K4", class_index=5),
        "s30": write_ext(tmp_path, "s30.json", "Z2", "S3", class_index=0),
        "s31": write_ext(tmp_path, "s31.json", "Z2", "S3", class_index=1),
    }


class TestIso:
    def test_plain_self_isomorphism(self, ext_files, capsys):
        code, payload, _ = run_cli(
            ["iso", "plain", ext_files["z4"], ext_files["z4"]], capsys)
        assert code == 0
        assert payload["verdict"] is True
        assert payload["certificate"]["kind"] == "plain"

    def test_lower_rejects_twisted_versus_direct(self, ext_files, capsys):
        code, payload, _ = run_cli(
            ["iso", "lower", ext_files["z4"], ext_files["k4"]], capsys)
        assert code == 1
        assert payload["verdict"] is False

    def test_upper_between_distinct_classes(self, ext_files, capsys):
        code, payload, _ = run_cli(
            ["iso", "upper", ext_files["d4a"], ext_files["d4b"]], capsys)
        assert code == 0
        assert payload["certificate"]["kind"] == "upper"

    def test_upper_and_lower_on_the_strict_pair(self, ext_files, capsys):
        code, _, _ = run_cli(
            ["iso", "upper", ext_files["za"], ext_files["zb"]], capsys)
        assert code == 0
        code, payload, _ = run_cli(
            ["iso", "lower", ext_files["za"], ext_files["zb"]], capsys)
        assert code == 1
        assert payload["verdict"] is False

    def test_g1_certificate_on_the_swap(self, ext_files, capsys):
        code, payload, _ = run_cli(
            ["iso", "g1", ext_files["k4"], ext_files["k4"]], capsys)
        assert code == 0
        assert payload["certificate"]["kind"] == "g1"
        assert payload["certificate"]["delta"] == [0, 1]

    def test_g1_raw_certificate_when_hypothesis_unverified(self, tmp_path,
                                                           capsys):
        path = write_ext(tmp_path, "z3.json", "Z3", "Z3", class_index=0)
        code, payload, _ = run_cli(["iso", "g1", path, path], capsys)
        assert code == 0
        assert payload["certificate"]["kind"] == "g1"
        assert "phi" in payload["certificate"]
        assert any("hypothesis" in n for n in payload["notes"])

    def test_g2_equal_order_and_injectivity_obstruction(self, ext_files,
                                                        capsys):
        code, payload, _ = run_cli(
            ["iso", "g2", ext_files["k4"], ext_files["k4"]], capsys)
        assert code == 0 and payload["certificate"]["kind"] == "g2"
        code, payload, _ = run_cli(
            ["iso", "g2", ext_files["d4a"], ext_files["d4a"]], capsys)
        assert code == 1

    def test_g1g2_decision(self, ext_files, capsys):
        code, payload, _ = run_cli(
            ["iso", "g1g2", ext_files["k4"], ext_files["k4"]], capsys)
        assert code == 0 and payload["certificate"]["kind"] == "g1g2"
        code, _, _ = run_cli(
            ["iso", "g1g2", ext_files["k4"], ext_files["z4"]], capsys)
        assert code == 1

    def test_undecidable_lower_exits_four(self, ext_files, capsys):
        argv = ["iso", "lower", ext_files["s30"], ext_files["s31"],
                "--max-order", "8"]
        code, _, err = run_cli(argv, capsys)
        assert code == 4
        assert "assume-sim-trivial" in err
        code, payload, _ = run_cli(argv + ["--assume-sim-trivial"], capsys)
        assert code == 1
        assert payload["assumed_sim_trivial"] is True
        assert any("asserted" in n for n in payload["notes"])

    def test_unverified_lower_falls_back_to_exhaustive_search(self,
                                                              ext_files,
                                                              capsys):
        code, payload, _ = run_cli(
            ["iso", "lower", ext_files["s30"], ext_files["s31"]], capsys)
        assert code == 1
        assert any("exhaustive" in n for n in payload["notes"])

    def test_mismatched_pairs_exit_two(self, ext_files, capsys):
        code, _, err = run_cli(
            ["iso", "upper", ext_files["k4"], ext_files["s30"]], capsys)
        assert code == 2 and "error" in err

    def test_extension_file_with_explicit_table(self, tmp_path, ext_files,
                                                capsys):
        space = compute_cocycle_space(get_group("Z2"), get_group("K4"))
        table = [list(r) for r in space.class_representatives[2].table]
        path = write_ext(tmp_path, "explicit.json", "Z2", "K4",
                         cocycle_table=table)
        code, payload, _ = run_cli(
            ["iso", "upper", path, ext_files["d4a"]], capsys)
        assert code == 0 and payload["verdict"] is True

    def test_malformed_extension_files(self, tmp_path, capsys):
        missing = tmp_path / "m.json"
        missing.write_text(json.dumps({"g1": "Z2"}))
        code, _, _ = run_cli(
            ["iso", "plain", str(missing), str(missing)], capsys)
        assert code == 2
        neither = tmp_path / "n.json"
        neither.write_text(json.dumps({"g1": "Z2", "g2": "Z2"}))
        code, _, _ = run_cli(
            ["iso", "plain", str(neither), str(neither)], capsys)
        assert code == 2


class TestVerify:
    def test_default_catalog_clean(self, capsys):
        code = main(["verify"])
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert code == 0
        assert payload["checked_class_pairs"] == 81
        assert payload["discrepancy_count"] == 0
        assert payload["skipped_pairs"] == []
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "bc5129a6350c5a991cacd7b7e4808508d2c571c7427f67dd7036c43d9c741071")

    def test_unverified_hypothesis_failures_are_observations(self, capsys):
        code, payload, _ = run_cli(
            ["verify", "Z2:D4", "--max-order", "24"], capsys)
        assert code == 0
        assert payload["discrepancy_count"] == 0
        observed = [(o["check"], o["detail"]["error"])
                    for o in payload["logged_observations"]]
        assert observed == [("g1_necessary_failed",
                             "section component is not an endomorphism")] * 64

    def test_zero_bound_is_an_empty_run(self, capsys):
        code, payload, _ = run_cli(["verify", "--max-order", "0"], capsys)
        assert code == 0
        assert payload["checked_class_pairs"] == 0
        assert len(payload["skipped_pairs"]) == 4

    def test_single_pair_selection(self, capsys):
        code, payload, _ = run_cli(["verify", "Z2:K4"], capsys)
        assert code == 0
        assert payload["checked_class_pairs"] == 64

    def test_bad_pair_spec(self, capsys):
        code, _, err = run_cli(["verify", "Z2xK4"], capsys)
        assert code == 2 and "G1:G2" in err

    def test_slow_tier_passes(self, capsys):
        code, payload, _ = run_cli(
            ["verify", "Z2:Z2", "--slow"], capsys)
        assert code == 0
        slow = payload["slow_checks"]
        assert slow["all_passed"] is True
        assert slow["double_cover_order"] == 120
        assert slow["classes_distinct"] is True
        assert slow["carrier_profiles_differ"] is True


class TestCatalog:
    def test_list_is_sorted_and_complete(self, capsys):
        code, payload, _ = run_cli(["catalog", "list"], capsys)
        assert code == 0
        rows = payload["groups"]
        names = [r["name"] for r in rows]
        assert len(names) == len(set(names))
        orders = [r["order"] for r in rows]
        assert orders == sorted(orders)
        a5 = next(r for r in rows if r["name"] == "A5")
        assert a5["order"] == 60 and a5["abelian"] is False

    def test_show_group_and_alias(self, capsys):
        code, payload, _ = run_cli(["catalog", "show", "K4"], capsys)
        assert code == 0
        assert payload["table"] == [list(r) for r in get_group("K4").table]
        code, alias, _ = run_cli(["catalog", "show", "Z2xZ2"], capsys)
        assert code == 0 and alias["table"] == payload["table"]
        assert alias["center_order"] == 4

    def test_show_unknown_group(self, capsys):
        code, _, err = run_cli(["catalog", "show", "M11"], capsys)
        assert code == 2 and "M11" in err


class TestEntryPoint:
    def test_module_help_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "centext", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "cohomology" in proc.stdout

    def test_module_requires_a_subcommand(self):
        proc = subprocess.run(
            [sys.executable, "-m", "centext"],
            capture_output=True, text=True)
        assert proc.returncode == 2
