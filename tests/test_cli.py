import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from centext import cli, cocycles, intlinalg, isotest
from centext.catalog import get_group
from centext.cli import ISO_MODES, _emit, main
from centext.cocycles import compute_cocycle_space
from centext.errors import InternalInconsistency
from centext.intlinalg import IntMatrix, smith_normal_form


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out else None
    return code, payload, captured.err


def write_ext(tmp_path, name, g1, g2, **fields):
    path = tmp_path / name
    path.write_text(json.dumps({"g1": g1, "g2": g2, **fields}))
    return str(path)


def write_named_k4(tmp_path):
    """K4's table in a group file under another name, which a cached
    space over the catalog K4 does not carry."""
    path = tmp_path / "my-k4.json"
    path.write_text(json.dumps({**get_group("K4").to_dict(),
                                "name": "my-k4"}))
    return str(path)


# sha256 of the cohomology stdout, pinned before CocycleSpace lost its
# own to_dict and the Z^2 and B^2 generator tables; "my-k4" is
# write_named_k4's file
COHOMOLOGY_DIGESTS = {
    ("Z2", "K4"): "d356e21d9d9c29ab65bc33cffae56da180d2338e86297913508ef40651b86d74",
    ("K4", "D4"): "229aaba0fbc235254412e8d35200c86232ca54a942f8dad5fbe9906efc418540",
    ("Z6", "S3"): "a2df2327775f9e351976be01bbfcf4ac9eb45df19c789c48d8374a1a3d5a741e",
    ("Z2", "A5"): "7aa2ff5c7c0e89c917dd9e61a7ebadaea6b53a861c466da085984045e7335462",
    ("Z2", "my-k4"): "fa47f807e96fc6cbc1b4538413e794887c5efdadfa40358dd69d025eb8148d42",
}


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

    @pytest.mark.parametrize("g1, g2", list(COHOMOLOGY_DIGESTS))
    def test_output_bytes_pinned(self, g1, g2, tmp_path, capsys):
        spec = write_named_k4(tmp_path) if g2 == "my-k4" else g2
        assert main(["cohomology", g1, spec]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            COHOMOLOGY_DIGESTS[g1, g2])

    def test_order_60_simple_quotient(self, capsys):
        code, payload, _ = run_cli(["cohomology", "Z2", "A5"], capsys)
        assert code == 0
        assert payload["h2_invariant_factors"] == [2]

    def test_unknown_group_exit(self, capsys):
        code, _, err = run_cli(["cohomology", "Z2", "NoSuchGroup"], capsys)
        assert code == 2
        assert "NoSuchGroup" in err

    def test_unknown_group_message_is_printed_as_is(self, capsys):
        # a KeyError's message, not the repr str() gives it
        code, _, err = run_cli(["cohomology", "Z2", "Z9"], capsys)
        assert code == 2
        assert err == ("error: 'Z9' is neither a catalog name nor an "
                       "existing file\n")

    def test_group_file_without_table_names_key_and_file(self, tmp_path,
                                                          capsys):
        gfile = tmp_path / "g.json"
        gfile.write_text(json.dumps({"name": "x"}))
        code, payload, err = run_cli(["cohomology", "Z2", str(gfile)], capsys)
        assert code == 2 and payload is None
        assert err == f"error: {gfile}: missing 'table'\n"

    def test_group_file_that_is_a_list_says_so(self, tmp_path, capsys):
        gfile = tmp_path / "g.json"
        gfile.write_text(json.dumps([[0, 1], [1, 0]]))
        code, payload, err = run_cli(["cohomology", "Z2", str(gfile)], capsys)
        assert code == 2 and payload is None
        assert err == (f"error: {gfile}: a group must be a JSON object "
                       "with a 'table'\n")

    def test_group_file_with_a_name_that_is_not_a_string(self, tmp_path,
                                                         capsys):
        gfile = tmp_path / "g.json"
        gfile.write_text(json.dumps({"table": [[0, 1], [1, 0]],
                                     "name": ["x"]}))
        code, payload, err = run_cli(["cohomology", "Z2", str(gfile)], capsys)
        assert code == 2 and payload is None
        assert err == (f"error: {gfile}: 'name' must be a string, "
                       "not ['x']\n")

    @pytest.mark.parametrize("order, message", [
        (5, "'order' is 5 but the table has 2 rows"),
        (1, "'order' is 1 but the table has 2 rows"),
        ("2", "'order' must be an integer, not '2'"),
        (2.0, "'order' must be an integer, not 2.0"),
        (True, "'order' must be an integer, not True"),
        (None, "'order' must be an integer, not None"),
    ])
    def test_group_file_order_must_count_the_rows(self, order, message,
                                                  tmp_path, capsys):
        gfile = tmp_path / "g.json"
        gfile.write_text(json.dumps({"order": order,
                                     "table": [[0, 1], [1, 0]]}))
        code, payload, err = run_cli(["cohomology", "Z2", str(gfile)], capsys)
        assert code == 2 and payload is None
        assert err == f"error: {gfile}: {message}\n"
        gfile.write_text(json.dumps({"order": 2, "table": [[0, 1], [1, 0]]}))
        code, payload, _ = run_cli(["cohomology", "Z2", str(gfile)], capsys)
        assert code == 0 and payload["g2"]["order"] == 2


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

    def test_carrier_outside_the_catalog(self, capsys):
        # no catalog group has order 16
        code, payload, err = run_cli(
            ["extend", "Z2", "D4", "--class-index", "1"], capsys)
        assert code == 0 and payload["group"]["order"] == 16
        assert payload["identified_as"] is None
        assert err == "classification: (not in the catalog)\n"

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

    @pytest.mark.parametrize("table", [7, [[0, 0], 7]])
    def test_non_list_cocycle_file_exits_two(self, table, tmp_path, capsys):
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps(table))
        code, payload, err = run_cli(
            ["extend", "Z2", "Z2", str(cfile)], capsys)
        assert code == 2 and payload is None
        assert "list of rows" in err

    def test_cocycle_object_without_table_names_key_and_file(self, tmp_path,
                                                             capsys):
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps({"rows": [[0, 0], [0, 1]]}))
        code, payload, err = run_cli(
            ["extend", "Z2", "Z2", str(cfile)], capsys)
        assert code == 2 and payload is None
        assert err == f"error: {cfile}: missing 'table'\n"

    def test_invalid_cocycle_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([[0, 0], [0, 7]]))
        code, _, _ = run_cli(["extend", "Z2", "Z2", str(bad)], capsys)
        assert code == 2

    def test_unnormalized_cocycle_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([[0, 1], [0, 0]]))
        code, payload, err = run_cli(["extend", "Z2", "Z2", str(bad)], capsys)
        assert code == 2 and payload is None
        assert err == "error: cocycle not normalized at index 1\n"


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
        "d40": write_ext(tmp_path, "d40.json", "Z2", "D4", class_index=0),
        "d41": write_ext(tmp_path, "d41.json", "Z2", "D4", class_index=1),
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

    def test_g1_raw_certificate_when_hypothesis_unverified(self, ext_files,
                                                           capsys):
        # over D4 the hypothesis fails and a component condition fails
        # with it; the isomorphism found stands as the raw map
        code, payload, _ = run_cli(
            ["iso", "g1", ext_files["d41"], ext_files["d41"]], capsys)
        assert code == 0
        assert payload["verdict"] is True
        assert payload["certificate"]["kind"] == "g1"
        assert "phi" in payload["certificate"]
        assert payload["notes"] == [
            "certificate left as the raw map: section component is not an "
            "endomorphism; the quotient hypothesis fails here"]

    def test_g1_structured_certificate_when_conditions_verify(self, tmp_path,
                                                              capsys):
        # the Z3 quotient fails the hypothesis, but the conditions hold
        path = write_ext(tmp_path, "z3.json", "Z3", "Z3", class_index=0)
        code, payload, _ = run_cli(["iso", "g1", path, path], capsys)
        assert code == 0
        assert payload["certificate"]["kind"] == "g1"
        assert payload["certificate"]["delta"] == [0, 1, 2]
        assert "phi" not in payload["certificate"]
        assert payload["notes"] == []
        assert "assumed_sim_trivial" not in payload

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
        # the D4 quotient has a nontrivial center, so the hypothesis
        # fails, and the order-16 carriers exceed the search bound
        argv = ["iso", "lower", ext_files["d40"], ext_files["d41"],
                "--max-order", "8"]
        code, payload, err = run_cli(argv, capsys)
        assert code == 4 and payload is None
        assert "exhaustive search exceeds the size limits" in err
        assert "assume" not in err

    def test_plain_search_past_the_bound_exits_three(self, ext_files,
                                                     capsys):
        # only the lower kind turns an exhausted search into exit 4
        argv = ["iso", "plain", ext_files["d40"], ext_files["d41"],
                "--max-order", "8"]
        code, payload, err = run_cli(argv, capsys)
        assert code == 3 and payload is None
        assert err == "error: group order 16 exceeds search bound\n"

    def test_extension_file_that_is_no_object_exits_two(self, tmp_path,
                                                        capsys):
        path = tmp_path / "list.json"
        path.write_text(json.dumps(["Z2", "Z2"]))
        code, payload, err = run_cli(["iso", "plain", str(path), str(path)],
                                     capsys)
        assert code == 2 and payload is None
        assert err == f"error: {path}: extension file must be a JSON object\n"

    def test_unverified_lower_falls_back_to_exhaustive_search(self,
                                                              ext_files,
                                                              capsys):
        code, payload, _ = run_cli(
            ["iso", "lower", ext_files["d40"], ext_files["d41"]], capsys)
        assert code == 1
        assert payload["notes"] == ["negative settled by exhaustive search"]

    def test_centerless_quotient_settles_lower_without_search(
            self, ext_files, capsys):
        code, payload, _ = run_cli(
            ["iso", "lower", ext_files["s30"], ext_files["s31"],
             "--max-order", "8"], capsys)
        assert code == 1
        assert any("verified" in n for n in payload["notes"])

    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_bound_below_one_is_invalid_input(self, ext_files, bound,
                                              capsys):
        # exit 2, not the size-limit verdict 3 that a real bound gives
        code, payload, err = run_cli(
            ["iso", "upper", ext_files["d4a"], ext_files["d4b"],
             "--max-order", bound], capsys)
        assert code == 2 and payload is None
        assert err == ("error: max_order must be an int of at least 1, "
                       f"not {bound}\n")

    def test_mismatched_pairs_exit_two(self, ext_files, capsys):
        code, _, err = run_cli(
            ["iso", "upper", ext_files["k4"], ext_files["s30"]], capsys)
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("mode", ["g1", "g2"])
    @pytest.mark.parametrize("source, target", [
        (("Z2", "K4", 1), ("Z2", "Z4", 1)),   # no carrier map of the kind
        (("Z2", "K4", 1), ("Z2", "Z4", 0)),   # a g1 map exists
        (("Z2", "K4", 0), ("K4", "Z2", 0)),   # a g2 map exists
    ])
    def test_g1_g2_check_the_group_pair_before_searching(
            self, mode, source, target, tmp_path, capsys):
        paths = [write_ext(tmp_path, f"{g1}{g2}{k}.json", g1, g2,
                           class_index=k) for g1, g2, k in (source, target)]
        code, payload, err = run_cli(["iso", mode, *paths], capsys)
        assert (code, payload) == (2, None)
        assert err == "error: extensions sit over different group pairs\n"
        # a carrier isomorphism needs no common pair
        code, payload, err = run_cli(["iso", "plain", *paths], capsys)
        assert code in (0, 1) and err == ""

    def test_extension_file_with_explicit_table(self, tmp_path, ext_files,
                                                capsys):
        space = compute_cocycle_space(get_group("Z2"), get_group("K4"))
        table = [list(r) for r in space.class_representatives[2].table]
        path = write_ext(tmp_path, "explicit.json", "Z2", "K4",
                         cocycle_table=table)
        code, payload, _ = run_cli(
            ["iso", "upper", path, ext_files["d4a"]], capsys)
        assert code == 0 and payload["verdict"] is True

    def test_inline_group_without_table_names_key_and_file(self, tmp_path,
                                                            capsys):
        path = write_ext(tmp_path, "e.json", {"name": "x"}, "Z2",
                         class_index=0)
        code, payload, err = run_cli(["iso", "plain", path, path], capsys)
        assert code == 2 and payload is None
        assert err == f"error: {path}: g1: missing 'table'\n"

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

    def test_non_integer_cocycle_entry_exits_two(self, tmp_path, capsys):
        # truncating 1.7 would give 1, a valid Z2:Z2 cocycle
        path = write_ext(tmp_path, "e.json", "Z2", "Z2",
                         cocycle_table=[[0, 0], [0, 1.7]])
        code, _, err = run_cli(["iso", "plain", path, path], capsys)
        assert code == 2 and "not an integer" in err

    @pytest.mark.parametrize("table", [5, [[0, 0], 5], "ab"])
    def test_non_list_cocycle_table_exits_two(self, table, tmp_path, capsys):
        path = write_ext(tmp_path, "e.json", "Z2", "Z2", cocycle_table=table)
        code, payload, err = run_cli(["iso", "plain", path, path], capsys)
        assert code == 2 and payload is None
        assert "list of rows" in err

    def test_non_list_group_table_exits_two(self, tmp_path, capsys):
        gfile = tmp_path / "g.json"
        for table in (5, [[0, 1], 1]):
            gfile.write_text(json.dumps({"table": table}))
            code, payload, err = run_cli(
                ["cohomology", "Z2", str(gfile)], capsys)
            assert code == 2 and payload is None
            assert "list of rows" in err

    def test_non_integer_class_index_exits_two(self, tmp_path, capsys):
        for index in (1.7, True, "1"):
            path = write_ext(tmp_path, "e.json", "Z2", "Z2",
                             class_index=index)
            code, _, err = run_cli(["iso", "plain", path, path], capsys)
            assert code == 2 and "not an integer" in err

    def test_every_mode_on_every_class_pair_pinned(self, tmp_path, capsys):
        # covers the lower fallback to exhaustive search and the g1 raw
        # map (D4), the lower negative settled by the hypothesis (S3) and
        # the g2 equal-order path (Z3:Z3)
        modes = ("plain", "upper", "lower", "g1", "g2", "g1g2")
        assert ISO_MODES == modes
        digest = hashlib.sha256()
        runs = 0
        for a, b in (("Z2", "K4"), ("Z2", "D4"), ("Z3", "Z3"), ("Z2", "S3")):
            n = len(compute_cocycle_space(
                get_group(a), get_group(b)).class_representatives)
            paths = [write_ext(tmp_path, f"{a}{b}{k}.json", a, b,
                               class_index=k) for k in range(n)]
            for p in paths:
                for q in paths:
                    for mode in modes:
                        code = main(["iso", mode, p, q])
                        assert code in (0, 1)
                        digest.update(capsys.readouterr().out.encode())
                        runs += 1
        assert runs == 846
        assert digest.hexdigest() == (
            "f498cfcdff514f0abdb557a3c38263c629be95f61e6d9ff02d24b4e6320a0075")

    @pytest.mark.parametrize("spec", [0, 2, True, 1.5, ["x"]])
    def test_non_string_group_spec_exits_two(self, spec, tmp_path, capsys):
        # an int reaching open() would be taken as a file descriptor
        for fields in ({"g1": spec, "g2": "Z2"}, {"g1": "Z2", "g2": spec}):
            path = tmp_path / "e.json"
            path.write_text(json.dumps({**fields, "class_index": 0}))
            code, payload, err = run_cli(
                ["iso", "plain", str(path), str(path)], capsys)
            assert code == 2 and payload is None
            assert "neither a name, a path nor an object" in err


class TestVerify:
    def test_default_catalog_clean(self, capsys):
        code = main(["verify"])
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert code == 0
        assert payload["checked_class_pairs"] == 165
        assert payload["discrepancy_count"] == 0
        assert payload["skipped_pairs"] == []
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "8cbd5360d06dffa964759fc52566e05dcbaa4f71e015a2dd4a3e051a4d64d90e")

    # the two verify runs of the benchmark's verify workload that the
    # other digests here leave out, pinned before the lower extractor
    # compared its rebuilt map with the isomorphism and condition 4 was
    # screened on generator columns
    @pytest.mark.parametrize("argv, digest", [
        (["Z4:K4", "Z3:S3", "--max-order", "24"],
         "301164f9f110da74bc3ad2ce915bc00b50a3509163028c9f1bac13e3caa5112c"),
        (["Z2:Z2", "--slow"],
         "6154fa9effe947164e3bd6a27cbb10f883381ae610ccbd144aa0b31476741ef1"),
    ], ids=["Z4:K4,Z3:S3", "slow"])
    def test_workload_reports_pinned(self, argv, digest, capsys):
        code = main(["verify", *argv])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_abelian_quotient_sweep_pinned(self, capsys):
        code = main(["verify", "Z2:Z2", "Z2:Z4", "Z2:K4", "Z3:Z3"])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["checked_class_pairs"] == 81
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "2dc610f69a063dc33314a73a6397536ab499e6d02e9f5960ecee2b96d6f2807f")

    def test_a_discrepancy_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(isotest, "upper_isomorphic", lambda *args: None)
        code, payload, _ = run_cli(["verify", "Z2:K4"], capsys)
        assert code == 1
        assert payload["discrepancy_count"] == 28

    def test_unverified_hypothesis_failures_are_observations(self, capsys):
        code, payload, _ = run_cli(
            ["verify", "Z2:D4", "--max-order", "24"], capsys)
        assert code == 0
        assert payload["discrepancy_count"] == 0
        observed = [(o["check"], o["detail"]["error"])
                    for o in payload["logged_observations"]]
        assert observed == [("g1_necessary_failed",
                             "section component is not an endomorphism")] * 64

    def test_centerless_quotients_are_decided(self, capsys):
        code, payload, _ = run_cli(
            ["verify", "Z2:S3", "Z3:S3", "--max-order", "18"], capsys)
        assert code == 0
        assert payload["discrepancy_count"] == 0
        assert [p["sim_trivial"] for p in payload["pairs"]] == [True, True]
        assert payload["skipped_pairs"] == []

    def test_zero_bound_is_an_empty_run(self, capsys):
        code, payload, _ = run_cli(["verify", "--max-order", "0"], capsys)
        assert code == 0
        assert payload["checked_class_pairs"] == 0
        assert len(payload["skipped_pairs"]) == 7

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

    def test_report_bytes_are_json_dumps(self, capsys):
        code = main(["verify", "Z2:K4", "Z2:D4", "--max-order", "24"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2,
                                 sort_keys=True) + "\n"


# strings with non-ASCII, quote, backslash and control characters
JSON_TEXT = st.text(alphabet=st.sampled_from(
    ["a", "Z", " ", '"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f",
     "\u00e9", "\u2028", "\u4e2d", "\U0001f600"])) | st.text()
JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.integers(-10 ** 40, 10 ** 40) | JSON_TEXT
                | st.lists(st.integers(), min_size=1))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner) | st.dictionaries(JSON_TEXT, inner),
    max_leaves=40)


class TestWriter:
    @settings(max_examples=400, deadline=None)
    @given(payload=JSON_VALUES)
    def test_writes_the_bytes_of_json_dumps(self, payload):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            _emit(payload, None)
        assert out.getvalue() == json.dumps(payload, indent=2,
                                            sort_keys=True) + "\n"

    @pytest.mark.parametrize("payload", [
        {"t": (1, 2), "f": 1.5, "n": float("nan"), "k": {2: "x", 1: [True]}},
        [(), {}, [], (None, -0.0)],
    ])
    def test_other_values_take_json_dumps(self, payload, tmp_path):
        path = tmp_path / "out.json"
        _emit(payload, str(path))
        assert path.read_text(encoding="utf-8") == json.dumps(
            payload, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("payload", [
        [], {}, [[]], [{}], {"a": []}, {"a": {}},
        {"a": [[], {}, {"b": []}], "c": {"d": {}, "e": [{}, []]},
         "f": "", "g": 0, "h": None, "i": False},
        [[[], [{}]], {"j": [[]]}],
    ])
    def test_nested_empties(self, payload):
        assert cli._json_text(payload) == json.dumps(payload, indent=2,
                                                     sort_keys=True)

    def test_the_verify_reports(self, monkeypatch):
        # the payloads of verify on the nine pairs, as main builds them
        payloads = []
        monkeypatch.setattr(cli, "_emit",
                            lambda payload, output: payloads.append(payload))
        for pair in ("Z2:Z2", "Z2:Z4", "Z2:K4", "Z3:Z3", "Z2:D4", "Z2:Q8",
                     "Z4:K4", "Z2:S3", "Z3:S3"):
            assert main(["verify", pair]) == 0
        assert len(payloads) == 9
        for payload in payloads:
            assert cli._json_text(payload) == json.dumps(
                payload, indent=2, sort_keys=True)


def wrong_product(a, b):
    """A stand-in for intlinalg.mat_mul whose products are all wrong."""
    return IntMatrix.from_rows([[7]])


# Z2xZ4 with the labels 5 and 7 swapped: a table no cached presentation
# is over, whose relations from the greedy generators 1 (of order 4) and
# 4 (of order 2) take the form diag(4, 2), not a divisibility chain, so
# that its Smith form runs the loop and the self-check
RELABELED_Z2XZ4 = [[0, 1, 2, 3, 4, 5, 6, 7], [1, 2, 3, 0, 7, 4, 5, 6],
                   [2, 3, 0, 1, 6, 7, 4, 5], [3, 0, 1, 2, 5, 6, 7, 4],
                   [4, 7, 6, 5, 0, 3, 2, 1], [5, 4, 7, 6, 3, 2, 1, 0],
                   [6, 5, 4, 7, 2, 1, 0, 3], [7, 6, 5, 4, 1, 0, 3, 2]]

INTERNAL_UNDER_O = f"""
import json, sys, tempfile
from centext import intlinalg
from centext.cli import main
from centext.errors import InternalInconsistency
from centext.intlinalg import IntMatrix, smith_normal_form
intlinalg.mat_mul = lambda a, b: IntMatrix.from_rows([[7]])
try:
    smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    sys.exit("no error")
except InternalInconsistency:
    pass
with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
    json.dump({{"table": {RELABELED_Z2XZ4}}}, fh)
sys.exit(main(["cohomology", fh.name, "Z2"]))
"""


class TestInternalInconsistency:
    def test_a_failed_self_check_raises_the_typed_error(self, monkeypatch):
        monkeypatch.setattr(intlinalg, "mat_mul", wrong_product)
        with pytest.raises(InternalInconsistency,
                           match="u \\* a \\* v does not recompose to s"):
            smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))

    def test_main_exits_5(self, monkeypatch, tmp_path, capsys):
        gfile = tmp_path / "z2xz4.json"
        gfile.write_text(json.dumps({"table": RELABELED_Z2XZ4}))
        monkeypatch.setattr(intlinalg, "mat_mul", wrong_product)
        code, payload, err = run_cli(["cohomology", str(gfile), "Z2"], capsys)
        assert (code, payload) == (5, None)
        assert err == "error: internal: u * a * v does not recompose to s\n"

    def test_asserts_stripped(self):
        # the self-checks are raises, not assert statements
        proc = subprocess.run([sys.executable, "-O", "-c", INTERNAL_UNDER_O],
                              capture_output=True, text=True)
        assert proc.returncode == 5, proc.stderr
        assert proc.stderr == (
            "error: internal: u * a * v does not recompose to s\n")


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

    def test_show_unknown_group_message_is_printed_as_is(self, capsys):
        code, _, err = run_cli(["catalog", "show", "Z9"], capsys)
        assert code == 2
        assert err == "error: unknown catalog group 'Z9'\n"


def private_imports(source):
    """module.name for each name with a leading underscore that a
    from-import of a centext module brings into source."""
    tree = ast.parse(source)
    return [f"{node.module}.{alias.name}" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").startswith("centext"))
            for alias in node.names if alias.name.startswith("_")]


def decision_imports(source):
    """Each name a from-import of a centext module brings into source
    that decides or extracts an isomorphism kind, or tests what a
    verdict rests on: any name holding "_isomorphic" or ending in
    "necessary", sim_is_trivial and trivial_components; isotest.decide
    holds that policy."""
    tree = ast.parse(source)
    return [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").startswith("centext"))
            for alias in node.names
            if "_isomorphic" in alias.name
            or alias.name.endswith("necessary")
            or alias.name in ("sim_is_trivial", "trivial_components")]


# the dense Smith path of intlinalg, which cocycles leaves to IntLattice
DENSE_ALGEBRA = ("smith_normal_form", "IntMatrix", "mat_mul", "SNFResult")


def dense_algebra_imports(source):
    """Each name of DENSE_ALGEBRA that a from-import of a centext module
    brings into source."""
    tree = ast.parse(source)
    return [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").startswith("centext"))
            for alias in node.names if alias.name in DENSE_ALGEBRA]


def nonstandard_imports(source):
    """The modules named by each absolute import in source whose
    top-level package is not in the standard library."""
    tree = ast.parse(source)
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and not node.level]
    return [name for name in names
            if name.split(".")[0] not in sys.stdlib_module_names]


class TestImports:
    def test_import_loads_no_dataclasses(self):
        # in a fresh interpreter: pytest itself loads both modules
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, centext, centext.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_cli_imports_no_private_name(self):
        with open(cli.__file__, encoding="utf-8") as fh:
            assert private_imports(fh.read()) == []

    def test_cli_imports_no_decider(self):
        with open(cli.__file__, encoding="utf-8") as fh:
            assert decision_imports(fh.read()) == []
        assert cli.decide is isotest.decide

    def test_a_decider_import_is_found(self):
        source = ("from .cocycles import Cocycle2, sim_is_trivial\n"
                  "from .extensions import trivial_components\n"
                  "from .isotest import (decide, necessary,\n"
                  "    g2_isomorphic_equal_order, upper_isomorphic,\n"
                  "    lower_necessary)\n"
                  "from centext.isotest import g1g2_isomorphic\n"
                  "from json import lower_necessary\n")
        assert decision_imports(source) == [
            "sim_is_trivial", "trivial_components", "necessary",
            "g2_isomorphic_equal_order", "upper_isomorphic",
            "lower_necessary", "g1g2_isomorphic"]

    def test_cocycles_imports_no_dense_algebra(self):
        with open(cocycles.__file__, encoding="utf-8") as fh:
            assert dense_algebra_imports(fh.read()) == []

    def test_a_dense_algebra_import_is_found(self):
        source = ("from .intlinalg import (IntLattice, IntMatrix,\n"
                  "    smith_normal_form as snf, xgcd)\n"
                  "from centext.intlinalg import mat_mul, SNFResult\n"
                  "from json import IntMatrix\n")
        assert dense_algebra_imports(source) == [
            "IntMatrix", "smith_normal_form", "mat_mul", "SNFResult"]

    def test_src_imports_only_the_standard_library(self):
        package = os.path.dirname(cli.__file__)
        for name in sorted(os.listdir(package)):
            if name.endswith(".py"):
                path = os.path.join(package, name)
                with open(path, encoding="utf-8") as fh:
                    assert nonstandard_imports(fh.read()) == [], name

    def test_a_nonstandard_import_is_found(self):
        source = ("from __future__ import annotations\n"
                  "import json, numpy as np\n"
                  "from collections import deque\n"
                  "from scipy.linalg import lu\n"
                  "from . import groups\n"
                  "from .errors import NotAbelian\n")
        assert nonstandard_imports(source) == ["numpy", "scipy.linalg"]

    def test_a_private_import_is_found(self):
        source = ("from .catalog import get_group\n"
                  "from .extensions import (\n"
                  "    _trivial_components,\n"
                  "    build_extension,\n"
                  ")\n"
                  "from centext.groups import _MapSearch\n")
        assert private_imports(source) == ["extensions._trivial_components",
                                           "centext.groups._MapSearch"]


class TestParser:
    @pytest.mark.parametrize("argv", [
        ["cohomology", "Z2", "D4", "--max-order", "1"],
        ["extend", "Z2", "K4", "--class-index", "7", "--max-order", "1"],
        ["iso", "lower", "a.json", "b.json", "--assume-sim-trivial"],
    ])
    def test_retired_options_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_one_process_gives_the_bytes_of_separate_runs(self, ext_files,
                                                          tmp_path, capsys):
        # main keeps one parser per process, so an argparse error between
        # two calls must leave nothing behind; and a space cached over
        # the catalog K4 must not lend its group names to a K4 file
        argvs = [["iso", "upper", ext_files["d4a"], ext_files["d4b"]],
                 ["iso", "sideways", ext_files["d4a"], ext_files["d4b"]],
                 ["cohomology", "Z2", "K4"],
                 ["extend", "Z2", "K4", "--class-index", "1"],
                 ["extend", "Z2", write_named_k4(tmp_path),
                  "--class-index", "1"]]
        codes = []
        for argv in argvs:
            alone = subprocess.run([sys.executable, "-m", "centext", *argv],
                                   capture_output=True, text=True)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            assert (code, out, err) == (alone.returncode, alone.stdout,
                                        alone.stderr)
            codes.append(code)
        assert codes == [0, 2, 0, 0, 0]


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
