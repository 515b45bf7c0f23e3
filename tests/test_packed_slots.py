"""Pair-slot vectors held compactly (cocycles._slots) and box points
packed into one int each (cocycles._Packing), against the list-valued
path kept in oracles.py: the same tables in the same order on the
catalog pairs and at the digit-width edges, the same residues, the
pivots' maps in the same form, and the packed sums of _box_points
digit by digit, at the largest digits."""

import functools
import random
from array import array

import pytest

from centext.catalog import catalog_names, get_group
from centext.cocycles import (
    _Packing,
    _box_points,
    _coboundary_pivots,
    _slots,
    _solve_coordinate,
    compute_cocycle_space,
)
from centext.groups import cyclic_group, direct_product
from centext.intlinalg import abelian_invariants
from oracles import box_by_lists, box_points_by_lists, representatives_by_lists

KERNELS = ("Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "K4", "Z2xZ4",
           "Z2xZ2xZ2")
# every catalog quotient but S4 and A5 over each kernel, and S4 over two
PAIRS = [(a, b) for b in catalog_names() if b not in ("S4", "A5")
         for a in KERNELS] + [("Z2", "S4"), ("Z3", "S4")]

# (kernel, quotient, classes): element codes past 255, digit sums past
# 255, d = 256, and d past 256, where vectors are arrays; each takes
# two-byte digits
EDGES = {
    "Z2^9:Z2": (lambda: functools.reduce(direct_product,
                                         [cyclic_group(2)] * 9), "Z2", 512),
    "Z130:Z2": (lambda: cyclic_group(130), "Z2", 2),
    "Z256:Z4": (lambda: cyclic_group(256), "Z4", 4),
    "Z300:Z6": (lambda: cyclic_group(300), "Z6", 6),
}


def fresh_tables(g1, g2):
    """The representatives' tables of a space built past the cache."""
    space = compute_cocycle_space.__wrapped__(g1, g2)
    return [rep.table for rep in space.class_representatives]


def test_pairs_cover_the_catalog():
    assert len(PAIRS) == 162


@pytest.mark.parametrize("pair", PAIRS, ids=":".join)
def test_tables_match_the_list_path(pair):
    g1, g2 = map(get_group, pair)
    assert fresh_tables(g1, g2) == representatives_by_lists(g1, g2)


@pytest.mark.parametrize("name", EDGES)
def test_digit_width_edges_match_the_list_path(name):
    kernel, quotient, classes = EDGES[name]
    g1, g2 = kernel(), get_group(quotient)
    tables = fresh_tables(g1, g2)
    assert tables == representatives_by_lists(g1, g2)
    assert len(tables) == classes
    factors = abelian_invariants(g1).invariant_factors
    assert _Packing(g1, g2.order, factors, None).w == 2


@pytest.mark.parametrize("d", [2, 3, 4, 6, 130, 256, 300])
@pytest.mark.parametrize("quotient", ["Z2", "Z6", "K4", "S3", "D4", "Q8",
                                      "A4", "S4", "A5"])
def test_residues_match_the_list_path(quotient, d):
    g2 = get_group(quotient)
    # the box leaves out each residue of pivot 1, which adds nothing
    box = _solve_coordinate.__wrapped__(g2, d).box
    assert [(p, tuple(res)) for p, res in box] == [
        (p, res) for p, res in box_by_lists(g2, d) if p > 1]
    # the residues and the pivots' maps take one byte a slot up to 256
    kind = bytearray if d <= 256 else array
    assert all(isinstance(res, kind) for _, res in box)
    assert all(isinstance(tau, kind)
               for _, tau in _coboundary_pivots(g2, d).values())


@pytest.mark.parametrize("d", [2, 3, 127, 128, 129, 255, 256, 257, 300])
def test_packed_sums_match_the_list_sums(d):
    # random residues and one of all d - 1, so that every digit sum
    # reaches 2d - 2; the order of g1 is d, so the width holds 2d - 2
    rng = random.Random(d)
    nslots = 49
    box = [(3, [d - 1] * nslots)] + [
        (rng.randrange(1, 4), [rng.randrange(d) for _ in range(nslots)])
        for _ in range(3)]
    packing = _Packing(cyclic_group(d), 8, (d,), None)
    assert packing.w == (1 if d <= 128 else 2)
    slots = [(p, _slots(d, res)) for p, res in box]
    got = [list(packing.unpack(p)) for p in _box_points(packing, d, slots)]
    assert got == list(box_points_by_lists(d, box, nslots))
