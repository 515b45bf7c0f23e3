"""H^2 as K / U by Hopf's formula, and the class keys read mod U, against
the earlier path kept in oracles.py, which eliminated B^2 in generator
columns: the factors, orders and representatives of every space, the
key-equality relation under pushes, pulls and coboundary shifts, and
spaces and keys built with no coboundary lattice at all."""

import random

import pytest

from centext import cocycles
from centext.catalog import get_group
from centext.cocycles import (
    Cocycle2,
    _class_key,
    _keyed,
    _solve_coordinate,
    apply_coboundary,
    compute_cocycle_space,
)
from centext.groups import GroupMap, enumerate_automorphisms
from centext.intlinalg import abelian_invariants
from oracles import class_key_mod_b2, solve_coordinate_by_b2, space_by_b2
from test_decider_memos import LABEL_PAIRS as PAIRS


def test_pairs_take_the_larger_quotients():
    # every catalog pair with abelian kernel and at most 64 classes
    assert {("Z2", "A5"), ("Z2", "S4"), ("Z3", "A4")} <= set(PAIRS)


@pytest.mark.parametrize("pair", PAIRS, ids=":".join)
def test_space_matches_the_b2_path(pair):
    g1, g2 = map(get_group, pair)
    for d in abelian_invariants(g1).invariant_factors:
        new, old = _solve_coordinate(g2, d), solve_coordinate_by_b2(g2, d)
        assert (new.z_order, new.b_order, new.factors) == (
            old.z_order, old.b_order, old.factors)
    assert compute_cocycle_space(g1, g2) == space_by_b2(g1, g2)


def sampled(maps, rng, k=3):
    """The identity first, then up to k - 1 more, seeded."""
    return maps[:1] + rng.sample(maps[1:], min(k - 1, len(maps) - 1))


def same_partition(new, old):
    """Whether equal keys in new are exactly equal keys in old."""
    return len(set(new)) == len(set(old)) == len(set(zip(new, old)))


@pytest.mark.parametrize("pair", PAIRS, ids=":".join)
def test_key_equality_matches_the_b2_keys(pair):
    # the class representatives and two seeded coboundary shifts of each,
    # pushed by sampled automorphisms of g1 and pulled by those of g2
    g1, g2 = map(get_group, pair)
    rng = random.Random(":".join(pair))
    tables = []
    for rep in compute_cocycle_space(g1, g2).class_representatives:
        tables.append(rep.table)
        for _ in range(2):
            t = GroupMap(dom=g2, cod=g1, images=(0, *(
                rng.randrange(g1.order) for _ in range(g2.order - 1))))
            tables.append(apply_coboundary(t, rep).table)
    (push, pull), (old_push, old_pull) = _class_key(g1, g2), \
        class_key_mod_b2(g1, g2)
    new, old = [], []
    for sigma in sampled(enumerate_automorphisms(g1), rng):
        new += [push(t, sigma.images) for t in tables]
        old += [old_push(t, sigma.images) for t in tables]
    for rho in sampled(enumerate_automorphisms(g2), rng):
        new += [pull(t, rho.images) for t in tables]
        old += [old_pull(t, rho.images) for t in tables]
    assert same_partition(new, old)
    # shifts share the key of their class, and classes differ
    count = len(compute_cocycle_space(g1, g2).class_representatives)
    assert len(set(new[:len(tables)])) == count


@pytest.mark.parametrize("pair", [p for p in PAIRS if p[0] != "Z1"
                                  and get_group(p[1]).order > 2][::7],
                         ids=":".join)
def test_keys_of_shifted_tables_that_are_no_cocycles_agree(pair):
    # f(B^2) = U: a coboundary shift keeps the key of any table, so
    # unequal keys prove that two tables are not cohomologous
    g1, g2 = map(get_group, pair)
    rng = random.Random(":".join(pair))
    n1, n2 = g1.order, g2.order
    for _ in range(5):
        table = ((0,) * n2,) + tuple(
            (0, *(rng.randrange(n1) for _ in range(n2 - 1)))
            for _ in range(n2 - 1))
        e = Cocycle2(g1=g1, g2=g2, table=table)
        t = GroupMap(dom=g2, cod=g1,
                     images=(0, *(rng.randrange(n1) for _ in range(n2 - 1))))
        assert _keyed(e) == _keyed(apply_coboundary(t, e))


CACHED = ("compute_cocycle_space", "_solve_coordinate", "_class_key",
          "_free_homs", "_coboundary_pivots")


def test_spaces_and_keys_need_no_coboundary_lattice(monkeypatch):
    def refused(g2, d):
        raise RuntimeError("the coboundary lattice was built")
    for name in CACHED:
        getattr(cocycles, name).cache_clear()
    monkeypatch.setattr(cocycles, "_coboundary_lattice", refused)
    try:
        for pair in PAIRS:
            g1, g2 = map(get_group, pair)
            rho = enumerate_automorphisms(g2)[-1].images
            for rep in compute_cocycle_space(g1, g2).class_representatives:
                fresh = Cocycle2(g1=g1, g2=g2, table=rep.table)
                _keyed(fresh)
                _keyed(fresh, rho, pull=True)
        # the witnesses still read it
        with pytest.raises(RuntimeError, match="coboundary lattice"):
            cocycles._hom_pivots.__wrapped__(get_group("K4"), 2)
    finally:
        for name in CACHED:
            getattr(cocycles, name).cache_clear()


@pytest.mark.parametrize("pair", [("Z2", "K4"), ("Z4", "D4"), ("Z2", "A4")],
                         ids=":".join)
def test_a_wrong_free_hom_image_raises(pair, monkeypatch):
    # U replaced by every vector over the chords, so not inside K: then
    # |H^2| |U| no longer matches |K|
    g1, g2 = map(get_group, pair)
    d = abelian_invariants(g1).invariant_factors[-1]
    steps, ends, _ = cocycles._free_homs(g2, d)
    whole = cocycles.IntLattice(len(ends), d,
                                [{j: 1} for j in range(len(ends))])
    cocycles._solve_coordinate.cache_clear()
    monkeypatch.setattr(cocycles, "_free_homs",
                        lambda g, e: (steps, ends, whole))
    try:
        with pytest.raises(cocycles.InternalInconsistency,
                           match="disagrees with"):
            cocycles._solve_coordinate(g2, d)
    finally:
        cocycles._solve_coordinate.cache_clear()
