"""The earlier upper and lower searches, kept as oracles for the fast
ones: every certificate, witness included, must be the one the slow
search returns."""

import itertools
import json
import os
import random

import pytest

from centext.catalog import catalog_names, get_group
from centext.cocycles import (
    are_cohomologous,
    cocycle_inv,
    cocycle_mul,
    compute_cocycle_space,
    pullback,
    pushforward,
    trivial_cocycle,
)
from centext.extensions import build_extension
from centext.groups import (
    direct_product,
    enumerate_automorphisms,
    enumerate_homs,
)
from centext.isotest import (
    IsoCertificate,
    _lower_problem,
    lower_isomorphic,
    upper_isomorphic,
)

PINS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                         "pins.json")


def triple_search_lower(src, tgt):
    """The earlier lower_isomorphic: every component triple (sigma, rho,
    delta) in Aut(G1) x Aut(G2) x Hom(G1, G2), sigma-major, against the
    converse conditions."""
    g1, g2 = src.g1, src.g2
    homs21 = enumerate_homs(g1, g2)
    autos2 = enumerate_automorphisms(g2)
    for sigma in enumerate_automorphisms(g1):
        for rho in autos2:
            for delta in homs21:
                cert = IsoCertificate(kind="lower", source=src, target=tgt,
                                      sigma=sigma, rho=rho, delta=delta)
                if _lower_problem(cert) is None:
                    cert.materialize()
                    return cert
    return None


def table_search_upper(src, tgt):
    """The earlier upper_isomorphic: for each (sigma, rho), sigma-major,
    the cocycle (sigma . e1) * inverse(e2 . (rho x rho)) built as a
    table and tested by are_cohomologous against the trivial one."""
    g1, g2 = src.g1, src.g2
    triv = trivial_cocycle(g1, g2)
    inv2 = cocycle_inv(tgt.cocycle)
    autos2 = enumerate_automorphisms(g2)
    for sigma in enumerate_automorphisms(g1):
        pushed = pushforward(sigma, src.cocycle)
        for rho in autos2:
            w = are_cohomologous(triv, cocycle_mul(pushed,
                                                   pullback(inv2, rho)))
            if w is not None:
                cert = IsoCertificate(kind="upper", source=src, target=tgt,
                                      sigma=sigma, rho=rho, t_witness=w)
                cert.materialize()
                return cert
    return None


def as_dict(cert):
    return None if cert is None else cert.to_dict()


def class_extensions(pair):
    name1, name2 = pair
    g1 = (direct_product(get_group("Z2"), get_group("Z6"))
          if name1 == "Z2xZ6" else get_group(name1))
    space = compute_cocycle_space(g1, get_group(name2))
    return [build_extension(rep) for rep in space.class_representatives]


# every catalog pair with nontrivial abelian kernel and carrier order at
# most 16; the two with 64 classes are sampled
ORACLE_PAIRS = [
    (a, b) for a in catalog_names() for b in catalog_names()
    if get_group(a).is_abelian
    and 1 < get_group(a).order
    and 1 < get_group(b).order
    and get_group(a).order * get_group(b).order <= 16]
SAMPLED = {("Z2", "Z2xZ2xZ2"): 80, ("K4", "K4"): 60}
# invariant factors (2, 6), one class for d = 2 and three for d = 6
SEARCH_PAIRS = ORACLE_PAIRS + [("Z2xZ6", "Z3")]


def oracle_class_pairs(pair):
    exts = class_extensions(pair)
    ordered = list(itertools.product(exts, repeat=2))
    if pair in SAMPLED:
        ordered = random.Random(":".join(pair)).sample(ordered, SAMPLED[pair])
    return ordered


def test_oracle_pairs_cover_the_small_catalog():
    assert len(ORACLE_PAIRS) == 33
    # |Aut(G1)| = 2, so the sigma-major order is tested
    for pair in (("Z4", "K4"), ("Z3", "Z3")):
        assert pair in ORACLE_PAIRS
        assert len(enumerate_automorphisms(get_group(pair[0]))) == 2


@pytest.mark.parametrize("pair", SEARCH_PAIRS, ids=":".join)
def test_lower_certificates_equal_the_triple_search(pair):
    hits = 0
    for src, tgt in oracle_class_pairs(pair):
        expected = as_dict(triple_search_lower(src, tgt))
        assert as_dict(lower_isomorphic(src, tgt)) == expected
        hits += expected is not None
    assert hits


@pytest.mark.parametrize("pair", SEARCH_PAIRS, ids=":".join)
def test_upper_certificates_equal_the_table_search(pair):
    hits = 0
    for src, tgt in oracle_class_pairs(pair):
        expected = as_dict(table_search_upper(src, tgt))
        assert as_dict(upper_isomorphic(src, tgt)) == expected
        hits += expected is not None
    assert hits


def sweep_against_the_census_pins(decide, column):
    """decide on all 64^2 class pairs of Z2:Z2xZ2xZ2, against one column
    of the pinned verdict strings, which read plain, upper, lower,
    g1g2."""
    with open(PINS_PATH, encoding="utf-8") as fh:
        pinned = json.load(fh)["pairs"]["Z2:Z2xZ2xZ2"]
    exts = class_extensions(("Z2", "Z2xZ2xZ2"))
    assert len(exts) == pinned["classes"] == 64
    got = ["1" if decide(src, tgt) is not None else "0"
           for src, tgt in itertools.product(exts, repeat=2)]
    assert got == [v[column] for v in pinned["verdicts"]]


def test_lower_sweep_matches_the_census_pins():
    sweep_against_the_census_pins(lower_isomorphic, 2)


def test_upper_sweep_matches_the_census_pins():
    sweep_against_the_census_pins(upper_isomorphic, 1)
