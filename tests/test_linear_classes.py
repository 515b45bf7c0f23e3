"""Class representatives where every B^2 pivot is a unit: the box
residues are walked once each and their sums are the lex-least tables
(cocycles.compute_cocycle_space).  Checked against the per-class walk
over the unreduced box points kept in oracles.py, on every catalog pair
with abelian kernel and at most 5,000 classes and on larger quotients;
the walk counts that select the path; and the walked residues, zero at
every pivot slot.  The space builds its tables without Cocycle2's scans,
so each is also passed through the checked constructor and is_cocycle."""

import functools

import pytest

from centext import cocycles
from centext.catalog import (
    catalog_names,
    get_group,
    projective_special_linear_2_7,
    symmetric_group,
)
from centext.cocycles import (
    Cocycle2,
    _box_points,
    _coboundary_pivots,
    _least_values,
    compute_cocycle_space,
    is_cocycle,
)
from centext.groups import cyclic_group, direct_product
from centext.intlinalg import abelian_invariants
from oracles import representatives_by_lists, representatives_by_walks
from test_decider_memos import h2_order

# every catalog pair with abelian kernel and at most 5,000 classes
PAIRS = [(a, b) for a in catalog_names() for b in catalog_names()
         if get_group(a).is_abelian
         and h2_order(get_group(a), get_group(b)) <= 5000]

LARGER = {
    "Z2:Z2^4": lambda: functools.reduce(direct_product, [cyclic_group(2)] * 4),
    "Z2:A5": lambda: get_group("A5"),
    "Z2:S5": lambda: symmetric_group(5),
    "Z2:PSL27": projective_special_linear_2_7,
}


def fresh_tables(g1, g2):
    """The representatives' tables of a space built past the cache."""
    space = compute_cocycle_space.__wrapped__(g1, g2)
    return [rep.table for rep in space.class_representatives]


def assert_checked(g1, g2, tables):
    """Every table passes the checked constructor and is_cocycle."""
    for t in tables:
        assert Cocycle2(g1=g1, g2=g2, table=t).table == t
        assert is_cocycle(g1, g2, t) == (True, None)


def test_pairs_reach_the_largest_catalog_spaces():
    # 4,096 classes each, from unit pivots and from a pivot 2
    assert {("K4", "Z2xZ2xZ2"), ("Z2xZ4", "Z2xZ2xZ2")} <= set(PAIRS)


@pytest.mark.parametrize("pair", PAIRS, ids=":".join)
def test_representatives_match_the_per_class_walk(pair):
    g1, g2 = map(get_group, pair)
    tables = fresh_tables(g1, g2)
    assert tables == representatives_by_walks(g1, g2)
    assert_checked(g1, g2, tables)


@pytest.mark.parametrize("name", LARGER)
def test_larger_quotients_match_the_per_class_walk(name):
    g1, g2 = get_group("Z2"), LARGER[name]()
    tables = fresh_tables(g1, g2)
    assert tables == representatives_by_walks(g1, g2)
    assert_checked(g1, g2, tables)


def counted_walks(monkeypatch):
    """Count the calls of cocycles._least_values, each passed on."""
    calls = []

    def counted(walk, vecs):
        calls.append(len(vecs))
        return _least_values(walk, vecs)
    monkeypatch.setattr(cocycles, "_least_values", counted)
    return calls


@pytest.mark.parametrize("kernel,quotient,classes,walks", [
    ("K4", "D4", 64, 6), ("Z2", "Z2xZ2xZ2", 64, 6), ("Z4", "D4", 8, 8)])
def test_unit_pivots_walk_the_residues_alone(kernel, quotient, classes,
                                             walks, monkeypatch):
    # K4:D4 and Z2:Z2xZ2xZ2 take their 64 classes from 6 residues, every
    # pivot 1; Z4:D4 has a pivot 2, so each of its 8 classes is walked
    g1, g2 = get_group(kernel), get_group(quotient)
    d = abelian_invariants(g1).invariant_factors[-1]
    units = {gi for gi, _ in _coboundary_pivots(g2, d).values()} == {1}
    assert units == (walks < classes)
    calls = counted_walks(monkeypatch)
    assert len(fresh_tables(g1, g2)) == classes
    assert len(calls) == walks


@pytest.mark.parametrize("kernel,quotient,residues,reads", [
    ("K4", "D4", 6, 0), ("K4", "S4", 4, 4), ("Z2xZ2xZ2", "S4", 6, 6)])
def test_each_residue_reads_its_own_factor_only(kernel, quotient, residues,
                                                reads, monkeypatch):
    # each residue is walked with zeros in the other factors, whose maps
    # stay 0, so it reads the pair slots of its own factor, and none
    # where its map stays 0 too: K4:D4's six residues are least already,
    # and those of K4:S4 and Z2xZ2xZ2:S4 move.  Reading every factor
    # would take 12, 8 and 18 reads
    g1, g2 = get_group(kernel), get_group(quotient)
    factors = abelian_invariants(g1).invariant_factors
    assert sum(len(cocycles._solve_coordinate(g2, d).box)
               for d in factors) == residues
    calls = counted_walks(monkeypatch)
    counted, read = [], cocycles._PairSlots.read

    def counted_read(slots, v, t, d):
        counted.append(d)
        return read(slots, v, t, d)
    monkeypatch.setattr(cocycles._PairSlots, "read", counted_read)
    assert fresh_tables(g1, g2) == representatives_by_lists(g1, g2)
    assert (len(calls), len(counted)) == (residues, reads)


def test_walked_residues_vanish_at_the_pivot_slots(monkeypatch):
    # the boxes compute_cocycle_space passes to _box_points on Z2:Z2^4
    g1, g2 = get_group("Z2"), LARGER["Z2:Z2^4"]()
    boxes = []

    def recorded(g, d, box):
        boxes.append(box)
        return _box_points(g, d, box)
    monkeypatch.setattr(cocycles, "_box_points", recorded)
    assert len(fresh_tables(g1, g2)) == 1024
    pivots = _coboundary_pivots(g2, 2)
    assert {gi for gi, _ in pivots.values()} == {1}
    [box] = boxes
    assert [p for p, _ in box] == [2] * 10
    for _, res in box:
        assert any(res) and not any(res[i] for i in pivots)
