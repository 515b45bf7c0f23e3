"""H^2 as K / U by Hopf's formula, and the class keys read mod U, against
the earlier path kept in oracles.py, which eliminated B^2 in generator
columns: the factors, orders and representatives of every space, the
key-equality relation under pushes, pulls and coboundary shifts, the
one lattice of the rows [u_j | e_j] against U and Hom(G2, Z/d), a
residue equal to an earlier one kept once (Z2:D5), the factors of H^2
read off the pivots of every pivot-only quotient lattice, spaces
and keys built with no pivots of Hom at the points, witnesses built
with no coboundary lattice, and every witness equal to the one the
coboundary lattice gave."""

import itertools
import math
import random

import pytest

from centext import cocycles, intlinalg
from centext.catalog import catalog_names, get_group
from centext.cocycles import (
    Cocycle2,
    _class_key,
    _column_values,
    _keyed,
    _solve_coordinate,
    _witness,
    apply_coboundary,
    are_cohomologous,
    compute_cocycle_space,
)
from centext.groups import (
    GroupMap,
    cyclic_group,
    enumerate_automorphisms,
    enumerate_homs,
)
from centext.intlinalg import (
    IntLattice,
    IntMatrix,
    abelian_invariants,
    smith_normal_form,
)
import oracles
from oracles import (
    class_key_mod_b2,
    solve_coordinate_by_b2,
    space_by_b2,
    table_from_values,
    unreduced_box_points,
    witness_by_b2,
)
from test_decider_memos import LABEL_PAIRS as PAIRS, h2_order
from test_intlinalg import dense_lattice, diagonal_lattice, smith_chain


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


def free_hom_rows(g2):
    """Per generator s_j, the restriction u_j of the free hom with s_j ->
    1, the others -> 0, to the Schreier generators t_y s t_ys^-1 of the
    chords of _hopf_system's tree: w_j(t_y) + [s = s_j] - w_j(t_ys), w_j
    counting s_j in the tree word, summed down the tree here."""
    tree, chords, _ = cocycles._hopf_system(g2)
    k, gens = len(g2.generators), g2.generators
    rows = []
    for j in range(k):
        w = [0] * g2.order
        for y, i, ys in tree:
            w[ys] = w[y] + (i == j)
        rows.append([w[c // k + 1] + (c % k == j)
                     - w[g2.table[c // k + 1][gens[c % k]]] for c in chords])
    return rows


@pytest.mark.parametrize("name", catalog_names())
def test_one_lattice_holds_u_and_hom(name):
    # the chord part of the [u_j | e_j] lattice is U: each u_j reduces to
    # zero there, and each of its rows with pivot at a chord lies in the
    # span of the u_j; its tail's index is d^k / |Hom(G2, Z/d)| = |U|
    g2 = get_group(name)
    rows, k = free_hom_rows(g2), len(g2.generators)
    for d in (2, 3, 4, 6):
        _, ends, free = cocycles._free_homs(g2, d)
        m = len(ends)
        assert free.ncols == m + k
        units = [[int(i == j) for i in range(k)] for j in range(k)]
        assert all(not any(free.reduce(u + [0] * k)[:m]) for u in rows)
        assert all(not any(free.reduce(u + e)) for u, e in zip(rows, units))
        u_lattice = IntLattice(m, d, rows)
        assert all(not any(u_lattice.reduce(free.dense_row(p)[:m]))
                   for p in free.pivot_rows if p < m)
        homs = len(enumerate_homs(g2, cyclic_group(d)))
        assert free.tail(m).index_in_ambient() * homs == d ** k
        assert free.tail(m).index_in_ambient() == d ** m // (
            u_lattice.index_in_ambient())
        # |U|, as _solve_coordinate reads it: the pivots at the e_j
        assert math.prod(map(free.pivot, range(m, m + k))) == (
            free.tail(m).index_in_ambient())


def test_a_repeated_residue_is_kept_once(monkeypatch):
    # on Z2:D5 both of K's generators reduce to one residue mod U; kept
    # once, its relations are (2), a chain read without smith_normal_form,
    # and the box holds that residue with pivot 2.  The tables are the
    # earlier path's, whose box kept both, the first with pivot 1
    g1, g2 = get_group("Z2"), get_group("D5")
    _, chords, equations = cocycles._hopf_system(g2)
    m, free = len(chords), cocycles._free_homs(g2, 2)[2]
    kernel = IntLattice(m, 2, equations).kernel()
    residues = [free.reduce(z + [0] * (free.ncols - m))[:m] for z in kernel]
    assert len(residues) == 2 and residues[0] == residues[1]
    assert any(residues[0])

    def refused(a):
        raise RuntimeError("smith_normal_form ran")
    monkeypatch.setattr(intlinalg, "smith_normal_form", refused)
    coord = _solve_coordinate.__wrapped__(g2, 2)
    assert coord.factors == (2,)
    assert [pivot for pivot, _ in coord.box] == [2]
    assert [p for p, _ in oracles.box_by_lists(g2, 2)] == [1, 2]
    space = compute_cocycle_space.__wrapped__(g1, g2)
    assert [r.table for r in space.class_representatives] == (
        oracles.representatives_by_lists(g1, g2))


def smith_factors(lat):
    """The factors above 1 of Z^n / lat by the Smith loop."""
    return tuple(x for x in smith_normal_form(IntMatrix.from_rows(
        lat.hnf_rows())).s.diagonal if x > 1)


# the catalog quotients of order <= 24 and the moduli of their H^2 builds
SMALL_QUOTIENTS = [name for name in catalog_names()
                   if get_group(name).order <= 24]
MODULI = (2, 3, 4, 5, 6, 8, 9, 12)


def test_catalog_quotients_are_read_off_their_pivots(monkeypatch):
    # every quotient lattice of these builds is pivot-only, so its
    # factors are merged pivots with no Smith loop, those of the loop and
    # of the earlier B^2 path; five are no chain in column order
    calls, lattices = [], {}
    read = IntLattice.invariant_factors

    def counted(a):
        calls.append(a)
        return smith_normal_form(a)

    def recorded(lat):
        lattices[name, d] = lat
        return read(lat)
    monkeypatch.setattr(intlinalg, "smith_normal_form", counted)
    monkeypatch.setattr(IntLattice, "invariant_factors", recorded)
    for name in SMALL_QUOTIENTS:
        for d in MODULI:
            got = _solve_coordinate.__wrapped__(get_group(name), d).factors
            assert got == solve_coordinate_by_b2(get_group(name), d).factors
    assert not calls and len(lattices) == 136
    assert all(len(r) == 1 for lat in lattices.values()
               for r in lat.pivot_rows.values())
    assert all(read(lat) == smith_factors(lat)
               for lat in lattices.values())
    assert {key for key, lat in lattices.items()
            if smith_chain(lat) is None} == {
        ("Z2xZ4", 4), ("Z2xZ4", 8), ("Z2xZ4", 12), ("A4", 6), ("A4", 12)}


def pivot_only_lattice(rng):
    """A lattice of 1 to 5 columns mod one of 12, 36 and 60 whose stored
    rows are p_j u e_j, u a unit, for pivots p_j drawn from the divisors
    in any order, the modulus (a free column) among them."""
    m = rng.choice([12, 36, 60])
    divisors = [x for x in range(1, m + 1) if m % x == 0]
    units = [x for x in range(1, m) if math.gcd(x, m) == 1]
    pivots = [rng.choice(divisors) for _ in range(rng.randrange(1, 6))]
    return IntLattice(len(pivots), m, [{j: p * rng.choice(units)}
                                       for j, p in enumerate(pivots) if p < m])


@pytest.mark.parametrize("seed", range(20))
def test_quotient_factors_equal_the_smith_loop(seed):
    # chains, with free columns, pivot-only lattices in any order and
    # lattices with entries off their pivots, which run the loop
    rng = random.Random(seed)
    for _ in range(10):
        for lat in (diagonal_lattice(rng, True)[0],
                    diagonal_lattice(rng, False)[0],
                    pivot_only_lattice(rng), dense_lattice(rng)):
            assert lat.invariant_factors() == smith_factors(lat)


def test_the_seeds_reach_every_shape():
    # permuted chains, coprime pivots, a free column before the last one,
    # and lattices with an entry off its pivot
    shapes = set()
    for seed in range(20):
        rng = random.Random(seed)
        for _ in range(10):
            diagonal_lattice(rng, True), diagonal_lattice(rng, False)
            lat = pivot_only_lattice(rng)
            pivots = [*map(lat.pivot, range(lat.ncols))]
            chain = all(b % a == 0 for a, b in zip(pivots, pivots[1:]))
            if not chain and all(b % a == 0 for a, b in itertools.pairwise(
                    sorted(pivots))):
                shapes.add("permuted chain")
            if any(1 < a < b and math.gcd(a, b) == 1
                   for a, b in itertools.permutations(pivots, 2)):
                shapes.add("coprime")
            if lat.modulus in pivots[:-1] and min(pivots) < lat.modulus:
                shapes.add("free column")
            if any(len(r) > 1 for r in dense_lattice(rng).pivot_rows.values()):
                shapes.add("off the pivots")
    assert shapes == {"permuted chain", "coprime", "free column",
                      "off the pivots"}


CACHED = ("compute_cocycle_space", "_solve_coordinate", "_class_key",
          "_free_homs", "_coboundary_pivots", "_witness_walk")


def test_spaces_and_keys_need_no_coboundary_lattice(monkeypatch):
    # spaces and keys never build Hom's pivots at the points, and
    # witnesses never build the coboundary lattice that oracles.py keeps
    def refused(name):
        def build(g2, d):
            raise RuntimeError(f"{name} was built")
        return build
    for name in CACHED:
        getattr(cocycles, name).cache_clear()
    oracles.coboundary_lattice.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(cocycles, "_witness_walk", refused("the walk"))
            for pair in PAIRS:
                g1, g2 = map(get_group, pair)
                rho = enumerate_automorphisms(g2)[-1].images
                for rep in compute_cocycle_space(
                        g1, g2).class_representatives:
                    fresh = Cocycle2(g1=g1, g2=g2, table=rep.table)
                    _keyed(fresh)
                    _class_key(g1, g2)[1](fresh.table, rho)
            with pytest.raises(RuntimeError, match="the walk"):
                are_cohomologous(*[shifted(("Z2", "K4"))] * 2)
        monkeypatch.setattr(oracles, "coboundary_lattice",
                            refused("the lattice"))
        for pair in PAIRS:
            e = shifted(pair)
            assert are_cohomologous(e, shifted(pair, e)) is not None
        with pytest.raises(RuntimeError, match="the lattice"):
            oracles.witness_by_b2(*map(get_group, ("Z2", "K4")), (0,), (1,))
    finally:
        for name in CACHED:
            getattr(cocycles, name).cache_clear()


def shifted(pair, e=None):
    """The last class representative of the pair, or e, shifted by a
    seeded normalized map."""
    g1, g2 = map(get_group, pair)
    if e is None:
        e = compute_cocycle_space(g1, g2).class_representatives[-1]
    rng = random.Random(":".join(pair))
    t = GroupMap(dom=g2, cod=g1, images=(0, *(
        rng.randrange(g1.order) for _ in range(g2.order - 1))))
    return apply_coboundary(t, e)


@pytest.mark.parametrize("pair", [("Z2", "K4"), ("Z4", "D4"), ("Z2", "A4")],
                         ids=":".join)
def test_a_wrong_free_hom_image_raises(pair, monkeypatch):
    # the lattice of the [u_j | e_j] replaced by the whole space: U is
    # then every vector over the chords, so not inside K, and the tail's
    # index claims |U| = 1, so |H^2| |U| no longer matches |K|
    g1, g2 = map(get_group, pair)
    d = abelian_invariants(g1).invariant_factors[-1]
    steps, ends, free = cocycles._free_homs(g2, d)
    whole = IntLattice(free.ncols, d, [{j: 1} for j in range(free.ncols)])
    cocycles._solve_coordinate.cache_clear()
    monkeypatch.setattr(cocycles, "_free_homs",
                        lambda g, e: (steps, ends, whole))
    try:
        with pytest.raises(cocycles.InternalInconsistency,
                           match="disagrees with"):
            cocycles._solve_coordinate(g2, d)
    finally:
        cocycles._solve_coordinate.cache_clear()


# every catalog pair with abelian kernel
WITNESS_PAIRS = [(a, b) for a in catalog_names() for b in catalog_names()
                 if get_group(a).is_abelian]


def witness_cases(pair, rng):
    """Seeded (e1, e2) tables over the pair: up to four class
    representatives, each against its shift by a normalized map in both
    directions, the shift against a copy changed at one slot (no cocycle)
    in both directions, and the distinct representatives in order."""
    g1, g2 = map(get_group, pair)
    pres = abelian_invariants(g1)
    if h2_order(g1, g2) <= 64:
        reps = compute_cocycle_space(g1, g2).class_representatives
        reps = [rep.table for rep in rng.sample(reps, min(len(reps), 4))]
    else:   # one member of each of four seeded classes, not the least
        reps = [table_from_values(g2.order, map(pres.element_of, zip(*(
            rng.choice(unreduced_box_points(g2, d))
            for d in pres.invariant_factors)))) for _ in range(4)]
    cases = list(itertools.permutations(reps, 2))
    for rep in reps:
        t = GroupMap(dom=g2, cod=g1, images=(0, *(
            rng.randrange(g1.order) for _ in range(g2.order - 1))))
        shift = apply_coboundary(t, Cocycle2(g1=g1, g2=g2, table=rep)).table
        cases += [(rep, shift), (shift, rep)]
        if g1.order > 1 and g2.order > 1:
            broken = [list(row) for row in shift]
            h, g = (rng.randrange(1, g2.order) for _ in range(2))
            broken[h][g] = (broken[h][g] + 1) % g1.order
            broken = tuple(map(tuple, broken))
            cases += [(shift, broken), (broken, shift)]
    return cases


@pytest.mark.parametrize("pair", WITNESS_PAIRS, ids=":".join)
def test_witnesses_match_the_coboundary_lattice(pair):
    # the witness solved on Hopf's free homs against the one the
    # coboundary lattice gave, at the columns and on the tables
    g1, g2 = map(get_group, pair)
    values = _column_values(g1, g2)
    outcomes = set()
    for a, b in witness_cases(pair, random.Random(":".join(pair))):
        for tables in (None, (a, b)):
            args = (g1, g2, values(a), values(b), tables)
            got, want = _witness(*args), witness_by_b2(*args)
            assert (got and got.t.images) == (want and want.t.images)
            outcomes.add(got is None)
    # shifts come back; past order 2 a table changed at one slot is no
    # cocycle, so it has no witness on the tables
    assert False in outcomes
    assert True in outcomes or g1.order == 1 or g2.order <= 2
