"""The class keys memoized on each cocycle (cocycles._keyed): the key
exit of are_cohomologous against the earlier full reduction, kept in
oracles.py, every memoized push and pull key against a fresh _class_key,
and the bounds on what the memo and the module caches hold."""

import gc
import itertools
import random
import weakref

import pytest

from centext.catalog import catalog_names, get_group
from centext.cocycles import (
    Cocycle2,
    _class_key,
    _keyed,
    apply_coboundary,
    are_cohomologous,
    compute_cocycle_space,
    pullback,
    trivial_cocycle,
)
from centext.errors import GroupMismatch, NotAbelian
from centext.extensions import build_extension
from centext.groups import GroupMap, enumerate_automorphisms
from centext.isotest import _orbit_label, lower_isomorphic, upper_isomorphic
from oracles import are_cohomologous_by_reduction

# every catalog pair with abelian kernel and carrier order at most 16,
# trivial factors included
KEY_PAIRS = [(a, b) for a in catalog_names() for b in catalog_names()
             if get_group(a).is_abelian
             and get_group(a).order * get_group(b).order <= 16]


def representatives(pair):
    return compute_cocycle_space(*map(get_group, pair)).class_representatives


def fresh(e):
    """A copy of e with an empty memo."""
    return Cocycle2(g1=e.g1, g2=e.g2, table=e.table)


def outcome(decide, e1, e2):
    """The witness's image array or None, else the type of the error."""
    try:
        w = decide(e1, e2)
    except (ValueError, RuntimeError) as exc:
        return type(exc)
    return None if w is None else w.t.images


def test_key_pairs_cover_the_small_catalog():
    assert len(KEY_PAIRS) == 59
    assert ("Z2", "Z2xZ2xZ2") in KEY_PAIRS and ("Z1", "Z1") in KEY_PAIRS


@pytest.mark.parametrize("pair", KEY_PAIRS, ids=":".join)
def test_are_cohomologous_matches_the_full_reduction(pair):
    # on every ordered class pair, through memos filled or empty
    reps = representatives(pair)
    for a, b in itertools.product(reps, repeat=2):
        expected = are_cohomologous_by_reduction(a, b)
        expected = None if expected is None else expected.t.images
        assert outcome(are_cohomologous, a, b) == expected
        assert outcome(are_cohomologous, fresh(a), fresh(b)) == expected
        assert (expected is not None) == (a is b)


@pytest.mark.parametrize("pair", [p for p in KEY_PAIRS if p[0] != "Z1"
                                  and get_group(p[1]).order > 2],
                         ids=":".join)
def test_are_cohomologous_matches_the_full_reduction_off_cocycles(pair):
    # seeded normalized tables that are not cocycles: random ones, and
    # class representatives and their coboundary images changed off the
    # generator columns, so that their keys agree and the x0 check of
    # the positive path decides
    g1, g2 = map(get_group, pair)
    n1, n2 = g1.order, g2.order
    rng = random.Random(":".join(pair))
    off_columns = [(h, g) for h in range(1, n2) for g in range(1, n2)
                   if g not in g2.generators]
    reps = representatives(pair)
    tables = []
    for _ in range(12):
        tables.append([[0] * n2] + [[0] + [rng.randrange(n1)
                                          for _ in range(n2 - 1)]
                                   for _ in range(n2 - 1)])
        base = rng.choice(reps)
        t = GroupMap(dom=g2, cod=g1,
                     images=(0, *(rng.randrange(n1) for _ in range(n2 - 1))))
        for e in (base, apply_coboundary(t, base)):
            table = [list(row) for row in e.table]
            h, g = rng.choice(off_columns)
            table[h][g] = (table[h][g] + 1 + rng.randrange(n1 - 1)) % n1
            tables.append(table)
    cocycles = [Cocycle2(g1=g1, g2=g2, table=tuple(map(tuple, t)))
                for t in tables]
    decided_by_x0 = 0
    for a, b in itertools.product(cocycles + list(reps), cocycles):
        expected = outcome(are_cohomologous_by_reduction, a, b)
        assert outcome(are_cohomologous, a, b) == expected
        decided_by_x0 += expected is None and _keyed(a) == _keyed(b)
    assert decided_by_x0


def test_are_cohomologous_raises_the_same_errors():
    s3, z2, k4 = get_group("S3"), get_group("Z2"), get_group("K4")
    cases = [(trivial_cocycle(s3, z2), trivial_cocycle(s3, z2)),
             (trivial_cocycle(z2, z2), trivial_cocycle(z2, k4)),
             (trivial_cocycle(z2, k4), trivial_cocycle(k4, k4))]
    got = [outcome(are_cohomologous, a, b) for a, b in cases]
    assert got == [outcome(are_cohomologous_by_reduction, a, b)
                   for a, b in cases] == [NotAbelian, GroupMismatch,
                                          GroupMismatch]


@pytest.mark.parametrize("pair", KEY_PAIRS, ids=":".join)
def test_memoized_keys_match_fresh_class_keys(pair):
    g1, g2 = map(get_group, pair)
    push, pull = _class_key(g1, g2)
    sigmas, rhos = enumerate_automorphisms(g1), enumerate_automorphisms(g2)
    for rep in representatives(pair):
        for e in (rep, fresh(rep)):
            for _ in range(2):   # the second read comes from the memo
                assert _keyed(e) == push(e.table, tuple(range(g1.order)))
                for sigma in sigmas:
                    assert _keyed(e, sigma.images) == \
                        push(e.table, sigma.images)
            # a pulled key is the key of the pullback, and it is not
            # memoized: the pair search keeps only its hash
            for rho in rhos:
                assert pull(e.table, rho.images) == \
                    _keyed(pullback(e, rho))
            assert len(e._keys) <= 1 + len(sigmas)


def test_the_memo_dies_with_its_cocycle():
    rep = representatives(("Z2", "K4"))[3]
    e = fresh(rep)
    ref = weakref.ref(e)
    assert _keyed(e) == _keyed(rep) and e._keys
    del e
    gc.collect()
    assert ref() is None


def test_memo_and_cache_bounds_on_the_large_census_pair():
    g1, g2 = get_group("Z2"), get_group("Z2xZ2xZ2")
    reps = compute_cocycle_space(g1, g2).class_representatives
    exts = [build_extension(rep) for rep in reps]
    for src, tgt in itertools.product(exts, repeat=2):
        upper_isomorphic(src, tgt)
        lower_isomorphic(src, tgt)
    # one key per pushing sigma; the pulled keys of the targets are
    # not kept
    bound = 1 + len(enumerate_automorphisms(g1))
    assert bound == 1 + 1
    sizes = [len(rep._keys) for rep in reps]
    assert max(sizes) <= bound and min(sizes) >= 1
    # fresh cohomologous tables leave the module caches as they were
    caches = (_class_key, _orbit_label)
    before = [f.cache_info().currsize for f in caches]
    rng = random.Random(1000)
    for _ in range(1000):
        rep = rng.choice(reps)
        t = GroupMap(dom=g2, cod=g1,
                     images=(0, *(rng.randrange(2) for _ in range(7))))
        assert are_cohomologous(rep, apply_coboundary(t, rep)) is not None
    assert [f.cache_info().currsize for f in caches] == before
