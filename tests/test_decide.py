"""isotest.decide, the one decision entry point: the verdicts of the
policy it took over from the CLI, what its negatives rest on, and the
quotient hypothesis decided once per group."""

import json
import sys
from functools import lru_cache

import pytest

from centext import cocycles, groups, isotest
from centext.catalog import get_group
from centext.cli import ISO_MODES, main
from centext.cocycles import compute_cocycle_space, sim_is_trivial
from centext.errors import GroupMismatch, HypothesisNotVerified
from centext.extensions import build_extension
from centext.groups import DEFAULT_LIMITS, GroupMap, SearchLimits
from centext.isotest import IsoCertificate, Verdict, decide, verify_theorems
from oracles import decide_iso_in_the_cli

# the pairs of the CLI's pinned every-mode digest, and K4:Z2, whose one
# g2 positive is read off the carrier search (necessary)
PAIRS = (("Z2", "K4"), ("Z3", "Z3"), ("Z2", "S3"), ("Z2", "D4"),
         ("K4", "Z2"))


@lru_cache(maxsize=None)
def extensions(a, b):
    """One carrier per class of H^2(b, a), in class order."""
    space = compute_cocycle_space(get_group(a), get_group(b))
    return tuple(build_extension(rep) for rep in space.class_representatives)


def class_pairs(a, b):
    exts = extensions(a, b)
    return [(i, j, src, tgt) for i, src in enumerate(exts)
            for j, tgt in enumerate(exts)]


def outcome(call, *args):
    """call(*args), or the type of the error it raised."""
    try:
        return call(*args)
    except Exception as exc:
        return type(exc)


def as_printed(verdict):
    """What the CLI prints of a Verdict: the verdict, the certificate
    dict, the notes."""
    if not isinstance(verdict, Verdict):
        return verdict
    cert = verdict.certificate
    if isinstance(cert, GroupMap):
        cert = {"kind": verdict.kind, "phi": list(cert.images)}
    elif cert is not None:
        cert = cert.to_dict()
    return verdict.holds, cert, list(verdict.notes)


class TestTheCliPolicy:
    @pytest.mark.parametrize("limits", [DEFAULT_LIMITS,
                                        SearchLimits(max_order=8)],
                             ids=("default", "order8"))
    @pytest.mark.parametrize("a, b", PAIRS,
                             ids=[f"{a}:{b}" for a, b in PAIRS])
    def test_every_mode_on_every_class_pair(self, a, b, limits):
        # verdict, certificate dict, notes, or the error type; the order-8
        # bound refuses the carrier searches past order 8
        kinds = set()
        for i, j, src, tgt in class_pairs(a, b):
            for mode in ISO_MODES:
                got = outcome(decide, mode, src, tgt, limits)
                want = outcome(decide_iso_in_the_cli, mode, src, tgt, limits)
                assert as_printed(got) == want, (i, j, mode)
                kinds.add(got if isinstance(got, type) else type(got))
                if isinstance(got, Verdict):
                    assert got.kind == mode
                    assert type(got.notes) is tuple
                    assert isinstance(got.certificate,
                                      (IsoCertificate, GroupMap, type(None)))
        # errors exactly where the carriers pass the bound
        order = get_group(a).order * get_group(b).order
        assert Verdict in kinds
        assert (kinds != {Verdict}) == (order > limits.max_order)

    def test_the_raw_map_and_its_note(self):
        # the g1 map of a Z2:D4 class with the hypothesis failing
        e = extensions("Z2", "D4")[1]
        verdict = decide("g1", e, e)
        assert verdict.holds and type(verdict.certificate) is GroupMap
        assert verdict.rests_on is None
        assert verdict.notes == (
            "certificate left as the raw map: section component is not an "
            "endomorphism; the quotient hypothesis fails here",)

    @pytest.mark.parametrize("mode", [m for m in ISO_MODES if m != "plain"])
    def test_every_structured_mode_checks_the_group_pair(self, mode):
        # order-8 carriers over different pairs; plain compares them
        src = extensions("Z2", "K4")[0]
        tgt = extensions("Z2", "Z4")[0]
        for call in (decide, decide_iso_in_the_cli):
            with pytest.raises(GroupMismatch):
                call(mode, src, tgt, DEFAULT_LIMITS)
        assert as_printed(decide("plain", src, tgt)) == \
            decide_iso_in_the_cli("plain", src, tgt, DEFAULT_LIMITS)


class TestRestsOn:
    @pytest.mark.parametrize("a, b", [("Z2", "Z2"), ("Z2", "S3")])
    def test_the_component_search_settles_lower_where_sim_holds(self, a, b):
        assert sim_is_trivial(get_group(b))
        settled = 0
        for i, j, src, tgt in class_pairs(a, b):
            for mode in ISO_MODES:
                verdict = decide(mode, src, tgt)
                negative = mode == "lower" and not verdict.holds
                assert verdict.rests_on == (
                    "sim_is_trivial" if negative else None), (i, j, mode)
                if negative:
                    assert isotest.lower_isomorphic(src, tgt) is None
                    settled += 1
        assert settled

    @pytest.mark.parametrize("a, b, bound", [("Z2", "K4", 4),
                                             ("Z2", "D4", 8)])
    def test_exhaustive_search_settles_lower_where_sim_fails(self, a, b,
                                                             bound):
        # below the carrier order, each negative raises instead
        assert not sim_is_trivial(get_group(b))
        small = SearchLimits(max_order=bound)
        negatives = 0
        for i, j, src, tgt in class_pairs(a, b):
            for mode in ISO_MODES:
                assert decide(mode, src, tgt).rests_on is None
            verdict = decide("lower", src, tgt)
            if verdict.holds:
                assert decide("lower", src, tgt, small) == verdict
                continue
            negatives += 1
            assert verdict.notes == ("negative settled by exhaustive search",)
            with pytest.raises(HypothesisNotVerified):
                decide("lower", src, tgt, small)
        assert negatives

    def test_the_cli_exits_4_below_the_carrier_order(self, tmp_path,
                                                     capsys):
        # classes 1 and 5 of Z2:K4: upper isomorphic, lower not
        paths = []
        for k in (1, 5):
            path = tmp_path / f"z2k4_{k}.json"
            path.write_text(json.dumps({"g1": "Z2", "g2": "K4",
                                        "class_index": k}))
            paths.append(str(path))
        assert main(["iso", "lower", *paths]) == 1
        capsys.readouterr()
        assert main(["iso", "lower", *paths, "--max-order", "4"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert "exhaustive search exceeds the size limits" in err


def test_verify_scans_the_quotient_center_once(monkeypatch):
    # the necessity statements ask sim_is_trivial on every failed
    # condition: 64 failing g1 maps on Z2:D4
    d4 = get_group("D4")
    scanned = []

    def counting(g):
        scanned.append(g)
        return center(g)
    center = groups.center
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("centext"):
            for name, value in list(vars(module).items()):
                if value is center:
                    monkeypatch.setattr(module, name, counting)
    assert cocycles.center is counting
    sim_is_trivial.cache_clear()
    report = verify_theorems([("Z2", "D4")], max_order=24)
    assert report["discrepancies"] == []
    assert scanned.count(d4) == 1
