"""Integer linear algebra: SNF, lattices, congruence solving, invariant
factors.  Frozen values were derived by hand elimination or exhaustive
enumeration at tiny sizes."""

import hashlib
import itertools
import json
import math
import random
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from centext import cocycles, intlinalg
from centext.catalog import catalog_names, get_group
from centext.errors import DimensionMismatch, NotAbelian
from centext.groups import cyclic_group, direct_product
from centext.intlinalg import (
    IntLattice,
    IntMatrix,
    abelian_invariants,
    mat_mul,
    mat_vec,
    smith_normal_form,
    solve_linear_mod,
    xgcd,
)
from oracles import (
    abelian_invariants_by_search,
    dense_echelon,
    determinant,
    identity_matrix,
    smith_normal_form_by_three_matrices,
)

small_ints = st.integers(min_value=-30, max_value=30)

# the pairs of the cohomology benchmark
COHOMOLOGY_PAIRS = (
    ("Z2", "K4"), ("Z4", "K4"), ("K4", "K4"), ("Z3", "K4"), ("Z2", "S3"),
    ("Z3", "S3"), ("Z2", "D4"), ("Z4", "D4"), ("K4", "D4"), ("Z2", "Q8"),
    ("Z4", "Q8"), ("Z2", "Z2xZ2xZ2"), ("Z2", "D5"), ("Z2", "Z6"),
    ("Z2", "Z8"), ("Z4", "Z4"), ("Z2", "A4"))


def random_matrix(draw, max_dim=4):
    r = draw(st.integers(min_value=1, max_value=max_dim))
    c = draw(st.integers(min_value=1, max_value=max_dim))
    data = [[draw(small_ints) for _ in range(c)] for _ in range(r)]
    return IntMatrix.from_rows(data)


matrices = st.composite(random_matrix)()


@st.composite
def sparse_rows(draw):
    """1 x 0 up to 6 x 6, each entry 0 or drawn from -60..60."""
    r = draw(st.integers(min_value=1, max_value=6))
    c = draw(st.integers(min_value=0, max_value=6))
    entry = st.one_of(st.just(0), st.integers(min_value=-60, max_value=60))
    return [[draw(entry) for _ in range(c)] for _ in range(r)]


class TestXgcd:
    @given(small_ints, small_ints)
    def test_bezout(self, a, b):
        g, s, t = xgcd(a, b)
        assert g == math.gcd(a, b)
        assert s * a + t * b == g


class TestDeterminant:
    def test_known(self):
        assert determinant(IntMatrix.from_rows([[2, 4], [6, 8]])) == -8
        assert determinant(identity_matrix(3)) == 1
        assert determinant(IntMatrix.from_rows([[0, 0], [0, 0]])) == 0

    @given(st.lists(st.lists(small_ints, min_size=3, max_size=3),
                    min_size=3, max_size=3))
    def test_matches_permutation_expansion(self, rows):
        a = IntMatrix.from_rows(rows)
        expected = 0
        for perm in itertools.permutations(range(3)):
            sign = 1
            for i in range(3):
                for j in range(i + 1, 3):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = sign
            for i in range(3):
                term *= rows[i][perm[i]]
            expected += term
        assert determinant(a) == expected


class TestSmithNormalForm:
    def test_zero(self):
        res = smith_normal_form(IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]]))
        assert res.s.data == ((0, 0, 0), (0, 0, 0))
        assert res.u.data == identity_matrix(2).data
        assert res.v.data == identity_matrix(3).data

    @pytest.mark.parametrize("rows,cols", [(0, 3), (0, 1), (2, 0), (3, 0),
                                           (0, 0)])
    def test_empty_shapes(self, rows, cols):
        a = IntMatrix(rows=rows, cols=cols, data=((),) * rows)
        t = a.transpose()
        assert (t.rows, t.cols) == (cols, rows) and t.transpose() == a
        res = smith_normal_form(a)
        assert [(m.rows, m.cols) for m in (res.s, res.u, res.v)] == [
            (rows, cols), (rows, rows), (cols, cols)]
        assert mat_mul(mat_mul(res.u, a), res.v) == res.s

    def test_product_through_an_empty_inner_dimension(self):
        a = IntMatrix(rows=2, cols=0, data=((), ()))
        b = IntMatrix(rows=0, cols=3, data=())
        assert mat_mul(a, b) == IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]])
        assert mat_mul(b.transpose(), a.transpose()) == IntMatrix.from_rows(
            [[0, 0], [0, 0], [0, 0]])

    def test_already_diagonal(self):
        res = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 4]]))
        assert res.s.diagonal == (2, 4)

    def test_hand_elimination(self):
        res = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
        assert res.s.diagonal == (2, 4)

    @given(matrices)
    @settings(max_examples=150, deadline=None)
    def test_snf_contract(self, a):
        res = smith_normal_form(a)
        assert mat_mul(mat_mul(res.u, a), res.v).data == res.s.data
        assert abs(determinant(res.u)) == 1
        assert abs(determinant(res.v)) == 1
        assert all(v == 0 for i, row in enumerate(res.s.data)
                   for j, v in enumerate(row) if i != j)
        diag = [d for d in res.s.diagonal if d != 0]
        assert all(d > 0 for d in diag)
        for x, y in zip(diag, diag[1:]):
            assert y % x == 0
        # zero diagonal entries trail the nonzero ones
        seen_zero = False
        for d in res.s.diagonal:
            if d == 0:
                seen_zero = True
            elif seen_zero:
                pytest.fail("nonzero after zero on the diagonal")

    @given(sparse_rows())
    @example([[]])
    @example([[0] * 6] * 6)
    @example([[0, 4, -6, 0, 9, 0]])
    @example([[0], [4], [-6], [0], [9], [0]])
    # inputs already in Smith form, which run the loop like any other:
    # chains with trailing zeros, rectangular and 1 x 1
    @example([[2, 0, 0], [0, 6, 0], [0, 0, 0]])
    @example([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    @example([[1, 0, 0], [0, 3, 0]])
    @example([[2, 0], [0, 4], [0, 0]])
    @example([[5]])
    @example([[0]])
    @example([[1]])
    # near misses: a chain out of order, a zero before a nonzero entry, a
    # negative entry, one entry off the diagonal
    @example([[4, 0], [0, 2]])
    @example([[0, 0], [0, 2]])
    @example([[-2, 0], [0, 4]])
    @example([[2, 0], [0, -4]])
    @example([[2, 2], [0, 4]])
    @example([[2, 0], [0, 4], [6, 0]])
    @settings(max_examples=300, deadline=None)
    def test_same_transforms_as_three_matrices(self, rows):
        # the working-matrix reduction makes the operations of the
        # earlier one, and the pinned coordinates of abelian_invariants
        # are read off v; an input in Smith form takes (a, I, I)
        a = IntMatrix.from_rows(rows)
        res = smith_normal_form(a)
        ref = smith_normal_form_by_three_matrices(a)
        assert (res.s.data, res.u.data, res.v.data) == \
            (ref.s.data, ref.u.data, ref.v.data)

    @pytest.mark.parametrize("rows,loop", [
        ([[2, 0, 0], [0, 6, 0], [0, 0, 0]], False),
        ([[1, 0, 0], [0, 3, 0]], False), ([[2, 0], [0, 4], [0, 0]], False),
        ([[5]], False), ([[0]], False),
        ([[4, 0], [0, 2]], True), ([[0, 0], [0, 2]], True),
        ([[2, 0], [0, 3]], True), ([[2, 2], [0, 4]], True),
        ([[2, 1], [0, 4]], True)])
    def test_only_a_smith_form_skips_the_check(self, rows, loop, monkeypatch):
        # the rows' lattice mod 24 reads its Smith form off its pivots
        # where they are a pivot-only chain, as the library's callers do;
        # every other lattice runs the loop and its self-check: pivots out
        # of order, a free column before a stored pivot, pivots that do
        # not divide, and an entry off the pivot
        products = []

        def counted(a, b):
            products.append((a, b))
            return mat_mul(a, b)
        monkeypatch.setattr(intlinalg, "mat_mul", counted)
        lat = IntLattice(len(rows[0]), 24, rows)
        hnf = IntMatrix.from_rows(lat.hnf_rows())
        if (diag := smith_chain(lat)) is None:
            diag = smith_normal_form(hnf).s.diagonal
        assert len(products) == 2 * loop
        if not loop:
            assert hnf.data == tuple(
                tuple(x if i == j else 0 for j in range(hnf.cols))
                for i, x in enumerate(diag))
        assert diag == smith_normal_form(hnf).s.diagonal

    def test_every_input_runs_the_check(self, monkeypatch):
        # smith_normal_form keeps no shortcut: an input in Smith form
        # runs the loop and its two products too
        products = []

        def counted(a, b):
            products.append((a, b))
            return mat_mul(a, b)
        monkeypatch.setattr(intlinalg, "mat_mul", counted)
        for rows in ([[2, 0, 0], [0, 6, 0], [0, 0, 0]], [[5]], [[0]]):
            res = smith_normal_form(IntMatrix.from_rows(rows))
            assert res.s.data == tuple(map(tuple, rows))
        assert len(products) == 6

    def test_a_cold_build_never_enters_the_loop(self, monkeypatch):
        # on every pair of the cohomology benchmark G1's relations and
        # each factor's H^2 relations are pivot-only chains, so no cold
        # build calls smith_normal_form, and no product is formed
        def refused(*args):
            raise RuntimeError("the Smith loop ran")
        monkeypatch.setattr(intlinalg, "smith_normal_form", refused)
        monkeypatch.setattr(intlinalg, "mat_mul", refused)
        spaces = []
        try:
            for a, b in COHOMOLOGY_PAIRS:
                abelian_invariants.cache_clear()
                cocycles._solve_coordinate.cache_clear()
                spaces.append(cocycles.compute_cocycle_space.__wrapped__(
                    get_group(a), get_group(b)))
        finally:
            abelian_invariants.cache_clear()
            cocycles._solve_coordinate.cache_clear()
        assert len(spaces) == 17
        assert spaces[COHOMOLOGY_PAIRS.index(("Z2", "Z2xZ2xZ2"))
                      ].h2_invariant_factors == (2,) * 6


def diagonal_lattice(rng, chain):
    """A lattice of 1 to 5 columns mod one of 4, 8, 12, 36 and 60 whose
    stored rows are pivot-only, and its pivots: rows p_j u e_j, u a unit,
    shuffled with multiples of them, for pivots p_j that are a
    divisibility chain, the modulus (a free column) allowed at its end,
    or, where chain is false, at least two pivots that are none."""
    m = rng.choice([4, 8, 12, 36, 60])
    n = rng.randrange(1 if chain else 2, 6)
    divisors = [x for x in range(1, m + 1) if m % x == 0]
    units = [x for x in range(1, m) if math.gcd(x, m) == 1]
    while True:
        pivots = [rng.choice(divisors)]
        for _ in range(n - 1):
            pivots.append(rng.choice(
                [x for x in divisors if not chain or x % pivots[-1] == 0]))
        if chain == all(y % x == 0 for x, y in zip(pivots, pivots[1:])):
            break
    rows = [{j: p * rng.choice(units)} for j, p in enumerate(pivots)
            if p < m]
    rows += [{j: p * rng.randrange(m)} for j, p in enumerate(pivots)
             if rng.random() < 0.3]
    rng.shuffle(rows)
    return IntLattice(n, m, rows), tuple(pivots)


def dense_lattice(rng):
    """A lattice of 1 to 5 columns mod one of 4, 8, 12, 36 and 60 spanned
    by up to n + 1 rows of random entries, some stored rows then holding
    entries off their pivots."""
    m, n = rng.choice([4, 8, 12, 36, 60]), rng.randrange(1, 6)
    return IntLattice(n, m, [[rng.randrange(-m, m) for _ in range(n)]
                             for _ in range(rng.randrange(n + 2))])


def smith_chain(lat):
    """The diagonal abelian_invariants reads with identity transforms:
    lat._diagonal() where it is a divisibility chain, else None."""
    diag = lat._diagonal()
    if diag is None or any(y % x for x, y in zip(diag, diag[1:])):
        return None
    return diag


def checked_read(lat):
    """smith_chain(lat), checked against smith_normal_form on the
    lattice's hnf_rows: where it reads, the loop's diagonal, with identity
    transforms."""
    read = smith_chain(lat)
    if read is not None:
        snf = smith_normal_form(IntMatrix.from_rows(lat.hnf_rows()))
        assert read == snf.s.diagonal
        assert snf.u.data == snf.v.data == identity_matrix(lat.ncols).data
    return read


# the composite groups of the CI's presentation pin, with Z2xZ2xZ2 and
# Z1, and whether their relations run the Smith loop
BOTH_SIDES = {
    "Z2xZ4": (lambda: get_group("Z2xZ4"), True),
    "Z2xZ6": (lambda: direct_product(cyclic_group(2), cyclic_group(6)), True),
    "Z6xZ2": (lambda: direct_product(cyclic_group(6), cyclic_group(2)), False),
    "Z4xZ4": (lambda: direct_product(cyclic_group(4), cyclic_group(4)), False),
    "Z12": (lambda: cyclic_group(12), False),
    "Z2xZ2xZ4": (lambda: reduce(direct_product, map(cyclic_group, (2, 2, 4))),
                 True),
    "Z2xZ2xZ2": (lambda: get_group("Z2xZ2xZ2"), False),
    "Z1": (lambda: get_group("Z1"), False),
}


class TestSmithChain:
    """smith_chain, IntLattice._diagonal where it is a divisibility chain:
    the Smith diagonal of a lattice whose stored rows are a pivot-only
    chain, else None, never another answer than smith_normal_form's."""

    @pytest.mark.parametrize("seed", range(20))
    def test_the_read_is_the_loop_or_declines(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            lat, pivots = diagonal_lattice(rng, True)
            assert checked_read(lat) == pivots
            lat, _ = diagonal_lattice(rng, False)
            assert checked_read(lat) is None
            checked_read(dense_lattice(rng))

    def test_dense_lattices_reach_both_answers(self):
        # the seeds of the test above, and the free columns of its chains
        reads, free = set(), False
        for seed in range(20):
            rng = random.Random(seed)
            for _ in range(10):
                lat, pivots = diagonal_lattice(rng, True)
                free |= pivots[-1] == lat.modulus
                diagonal_lattice(rng, False)
                reads.add(smith_chain(dense_lattice(rng)) is None)
        assert reads == {True, False} and free

    @pytest.mark.parametrize("rows,modulus,read", [
        ([[4, 0], [0, 2]], 8, None),          # diag(4, 2)
        ([[0, 0], [0, 2]], 4, None),          # a free column first
        ([[2, 0], [0, 0]], 4, (2, 4)),        # a free column last
        ([[-2, 0], [0, 4]], 8, (2, 4)),       # a pivot's sign is a unit
        ([[2, 0], [0, 4], [6, 0]], 8, (2, 4)),
        ([[2, 2], [0, 4]], 8, None),          # an entry off the pivot
        ([], 6, (6, 6, 6)), ([[1, 0, 0]], 1, (1, 1, 1))])
    def test_near_misses(self, rows, modulus, read):
        ncols = len(rows[0]) if rows else 3
        assert checked_read(IntLattice(ncols, modulus, rows)) == read

    @pytest.mark.parametrize("rows,modulus,diagonal", [
        ([[4, 0], [0, 2]], 8, (4, 2)),        # no chain, still diagonal
        ([[0, 0], [0, 2]], 4, (4, 2)),        # a free column first
        ([[2, 0], [0, 3]], 6, (2, 3)),        # coprime pivots
        ([[2, 2], [0, 4]], 8, None),          # an entry off the pivot
        ([[1, 1]], 2, None), ([], 6, (6, 6, 6)),
        ([[0, 0, 0]], 1, (1, 1, 1))])
    def test_the_diagonal_read(self, rows, modulus, diagonal):
        # _diagonal reads any pivot-only lattice in column order, and
        # invariant_factors merges it into the Smith loop's factors
        lat = IntLattice(len(rows[0]) if rows else 3, modulus, rows)
        assert lat._diagonal() == diagonal
        assert lat.invariant_factors() == tuple(x for x in smith_normal_form(
            IntMatrix.from_rows(lat.hnf_rows())).s.diagonal if x > 1)

    @pytest.mark.parametrize("name", BOTH_SIDES)
    def test_abelian_invariants_on_both_sides(self, name, monkeypatch):
        # the relation lattices, read or sent to the loop, give the
        # factors and coordinates of the exponent-vector search
        calls = []

        def counted(a):
            calls.append(a)
            return smith_normal_form(a)
        monkeypatch.setattr(intlinalg, "smith_normal_form", counted)
        make, loop = BOTH_SIDES[name]
        g = make()
        pres = abelian_invariants.__wrapped__(g)
        assert len(calls) == loop
        search = abelian_invariants_by_search(g)
        assert (pres.invariant_factors, pres.coords) == (
            search.invariant_factors, search.coords)


class TestIntLattice:
    def test_index(self):
        lat = IntLattice(2, 4)
        lat.add([2, 0])
        lat.add([0, 2])
        assert lat.index_in_ambient() == 4
        lat.add([1, 1])
        assert lat.index_in_ambient() == 2

    def test_contains(self):
        lat = IntLattice(3, 60)
        lat.add([1, 2, 3])
        lat.add([0, 4, 2])
        assert lat.reduce([1, 6, 5]) == [0, 0, 0]
        assert lat.reduce([0, 2, 1]) != [0, 0, 0]

    def test_rank_deficient_index_zero(self):
        # rows that leave a column unspanned: that column keeps the
        # implicit pivot row modulus * e_j, so the index stays finite
        lat = IntLattice(2, 9)
        lat.add([3, 6])
        assert lat.pivot(0) == 3
        assert lat.pivot(1) == 9
        assert lat.index_in_ambient() == 27

    def test_hnf_normalization(self):
        lat = IntLattice(2, 6)
        lat.add([2, 7])
        lat.add([0, 3])
        rows = lat.hnf_rows()
        assert rows == [[2, 1], [0, 3]]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_index_and_membership_match_brute_force(self, data):
        n = data.draw(st.integers(min_value=1, max_value=3))
        m = data.draw(st.integers(min_value=1, max_value=6))
        rows = data.draw(st.lists(
            st.lists(st.integers(min_value=-7, max_value=7),
                     min_size=n, max_size=n), max_size=4))
        lat = IntLattice(n, m)
        for row in rows:
            lat.add(row)
        # the span of the rows in (Z/m)^n, by closure under addition
        span = {(0,) * n}
        frontier = [(0,) * n]
        while frontier:
            x = frontier.pop()
            for row in rows:
                y = tuple((a + b) % m for a, b in zip(x, row))
                if y not in span:
                    span.add(y)
                    frontier.append(y)
        assert lat.index_in_ambient() == m ** n // len(span)
        residues = set()
        for vec in itertools.product(range(m), repeat=n):
            res = lat.reduce(vec)
            assert all(0 <= x < lat.pivot(j) for j, x in enumerate(res))
            assert (not any(res)) == (vec in span)
            assert tuple((a - b) % m for a, b in zip(vec, res)) in span
            residues.add(tuple(res))
        assert len(residues) == lat.index_in_ambient()

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_add_matches_the_dense_elimination(self, data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        m = data.draw(st.integers(min_value=1, max_value=36))
        rows = data.draw(st.lists(
            st.lists(st.integers(min_value=-40, max_value=40),
                     min_size=n, max_size=n), max_size=8))
        grew, expected = dense_echelon(rows, n, m)
        for form in (list, lambda row: dict(enumerate(row))):
            lat = IntLattice(n, m)
            assert [lat.add(form(row)) for row in rows] == grew
            assert {p: lat.dense_row(p) for p in lat.pivot_rows} == expected

    def test_add_rejects_a_row_of_the_wrong_shape(self):
        lat = IntLattice(3, 4)
        with pytest.raises(DimensionMismatch):
            lat.add([1, 2])
        with pytest.raises(DimensionMismatch):
            lat.add({3: 1})
        # entries that vanish mod the modulus are still out of range
        with pytest.raises(DimensionMismatch):
            lat.add({5: 4})
        with pytest.raises(DimensionMismatch):
            lat.add({-1: 8})

    def test_express_in_hnf(self):
        lat = IntLattice(3, 30)
        for vec in ([2, 1, 0], [0, 3, 1], [0, 0, 5]):
            lat.add(vec)
        hnf = lat.hnf_rows()
        combo = [2 * a - b + 3 * c for a, b, c in zip(*hnf)]
        coeffs = _express_in_triangular(hnf, combo)
        assert coeffs is not None
        rebuilt = [0, 0, 0]
        for q, row in zip(coeffs, hnf):
            rebuilt = [r + q * x for r, x in zip(rebuilt, row)]
        assert rebuilt == combo
        assert _express_in_triangular(hnf, [1, 0, 0]) is None


def _express_in_triangular(rows, vec):
    """Coefficients writing vec in the triangular basis rows (row j has
    its pivot in column j), or None when vec is outside their span."""
    v = list(vec)
    coeffs = []
    for j, row in enumerate(rows):
        if v[j] % row[j]:
            return None
        q = v[j] // row[j]
        coeffs.append(q)
        v = [a - q * b for a, b in zip(v, row)]
    return coeffs


class TestSolveLinearMod:
    def test_identity_system(self):
        a = identity_matrix(2)
        res = solve_linear_mod(a, [4, 6], [3, 5])
        assert res.modulus == 12
        assert res.particular is not None
        x = res.particular
        assert x[0] % 4 == 3 and x[1] % 6 == 5

    def test_parity_obstruction(self):
        res = solve_linear_mod(IntMatrix.from_rows([[2]]), [4], [1])
        assert res.particular is None

    def test_even_case(self):
        res = solve_linear_mod(IntMatrix.from_rows([[2]]), [4], [2])
        assert res.particular == (1,)
        assert res.kernel == ((2,),)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_linear_mod(identity_matrix(2), [2], [0, 0])

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_exhaustive(self, data):
        nvars = data.draw(st.integers(min_value=1, max_value=3))
        nrows = data.draw(st.integers(min_value=1, max_value=3))
        moduli = [data.draw(st.sampled_from([2, 3, 4, 6])) for _ in range(nrows)]
        a = IntMatrix.from_rows(
            [[data.draw(st.integers(min_value=-4, max_value=4))
              for _ in range(nvars)] for _ in range(nrows)])
        b = [data.draw(st.integers(min_value=-4, max_value=4))
             for _ in range(nrows)]
        res = solve_linear_mod(a, moduli, b)
        bigm = res.modulus
        assert bigm == math.lcm(*moduli)

        def satisfies(x, rhs):
            vals = mat_vec(a, x)
            return all((v - r) % m == 0 for v, r, m in zip(vals, rhs, moduli))

        brute = {x for x in itertools.product(range(bigm), repeat=nvars)
                 if satisfies(x, b)}
        if res.particular is None:
            assert brute == set()
        else:
            assert satisfies(res.particular, b)
            # particular + kernel lattice reproduces every brute solution
            span = set()
            frontier = {tuple(v % bigm for v in res.particular)}
            while frontier:
                x = frontier.pop()
                if x in span:
                    continue
                span.add(x)
                for k in res.kernel:
                    frontier.add(tuple((xi + ki) % bigm for xi, ki in zip(x, k)))
            assert span == brute
        for k in res.kernel:
            assert satisfies(k, [0] * nrows)


def _product(*orders):
    return reduce(direct_product, [cyclic_group(n) for n in orders])


PINNED_GROUPS = {
    **{name: get_group(name) for name in (
        "Z1", "Z2", "Z6", "Z8", "K4", "Z2xZ4", "Z2xZ2xZ2")},
    "Z3xZ9": _product(3, 9), "Z9xZ3": _product(9, 3),
    "Z6xZ6": _product(6, 6), "Z5xZ10": _product(5, 10),
    "Z2xZ4xZ8": _product(2, 4, 8), "Z2^4": _product(2, 2, 2, 2),
    "Z4xZ2xZ2": _product(4, 2, 2), "Z4xZ6": _product(4, 6),
    "Z3xZ6": _product(3, 6),
}
# abelian groups beyond the catalog, by the orders of their cyclic factors
ABELIAN_PRODUCTS = {
    "Z4xZ4": (4, 4), "Z2xZ6": (2, 6), "Z3xZ3": (3, 3), "Z2xZ4xZ8": (2, 4, 8),
    "Z6xZ10": (6, 10), "Z9xZ3": (9, 3), "Z2^4": (2, 2, 2, 2), "Z12": (12,),
    "Z30": (30,),
}

# invariant factors in the trailing comments
COORDINATE_DIGESTS = {
    "Z1": "cf1cbb66a638b4860a516671fb74850e6ccf787fe6c4c8d29e9c04efe880bd05",  # ()
    "Z2": "9c731319e6f8d3c3e5b97bcf0eb502cf8f79bcd332c8da9fe2d1f69ebb19a9ae",  # (2,)
    "Z6": "c8c5f0a9bc98515509e7f98a140801ffd32a77ca71abd91c901819ad4a40e39f",  # (6,)
    "Z8": "6a0434e488e3d3641d3c32bf41477e11f2f0ad6c6c37968155b16b26b34fc0a9",  # (8,)
    "K4": "1f55bca65515d45abd5dd92a41224df72220a02977d3993cf116a5063ff3bd93",  # (2, 2)
    "Z2xZ4": "bdf67eb10cc2f2d6380958eb3dbb23b4e68ef46ac3c76127a09cf02f32d6f293",  # (2, 4)
    "Z2xZ2xZ2": "ce9b307f805a1bfaed192af5285a836dba5ad378d1b9de7d56788beacd1ca3d3",  # (2, 2, 2)
    "Z3xZ9": "9151b8637d695e3594394fca009bc1dd67143e0085f17247d1e9ac5dffc74a55",  # (3, 9)
    "Z9xZ3": "bbfa34df453409588e9d9c3044fed1cef5ca5fe6888819c93835f6a2f8e7a918",  # (3, 9)
    "Z6xZ6": "36fc0eeb5079c19a5a05c11ab6d4ca30686c48050d09c1b3eaed7ec4cd2573ed",  # (6, 6)
    "Z5xZ10": "9e5465bae4c84359ff598f3103a9bbaeee207ddd11bfd78bfcec13019d881642",  # (5, 10)
    "Z2xZ4xZ8": "41f85b8f7ae5552c11f6bf7c72e05df499ee4d422a0c11551bbe3ff49ca916dc",  # (2, 4, 8)
    "Z2^4": "70ff0f54c4d56bf29c4177297a2ee618a9a86f827396b961e0b441a2d3e4feef",  # (2, 2, 2, 2)
    "Z4xZ2xZ2": "f201a26c604669b5a740fa00027265de925fd72e228a04fd73a6f2cea2aeb291",  # (2, 2, 4)
    "Z4xZ6": "e9cef75c8a0297f563362b01851e8467d93a50f1aa0445663b99ce0c88967185",  # (2, 12)
    "Z3xZ6": "dc1a1e78aa2052379fd3adcfea44e2170fa8ad4b27bc009a0d83806a6c376145",  # (3, 6)
}


class TestAbelianInvariants:
    def test_cyclic(self):
        assert abelian_invariants(get_group("Z6")).invariant_factors == (6,)
        assert abelian_invariants(get_group("Z8")).invariant_factors == (8,)

    def test_klein(self):
        assert abelian_invariants(get_group("K4")).invariant_factors == (2, 2)

    def test_z2xz4(self):
        assert abelian_invariants(get_group("Z2xZ4")).invariant_factors == (2, 4)

    def test_elementary_eight(self):
        pres = abelian_invariants(get_group("Z2xZ2xZ2"))
        assert pres.invariant_factors == (2, 2, 2)

    def test_trivial(self):
        assert abelian_invariants(get_group("Z1")).invariant_factors == ()

    def test_rejects_nonabelian(self):
        with pytest.raises(NotAbelian):
            abelian_invariants(get_group("S3"))

    def test_round_trip_all_elements(self):
        for name in ("Z1", "Z2", "Z6", "K4", "Z2xZ4", "Z2xZ2xZ2", "Z8"):
            pres = abelian_invariants(get_group(name))
            g = pres.group
            for x in range(g.order):
                coords = pres.coords[x]
                assert len(coords) == len(pres.invariant_factors)
                assert pres.element_of(coords) == x

    def test_coords_are_homomorphic(self):
        pres = abelian_invariants(get_group("Z2xZ4"))
        g = pres.group
        for x in range(g.order):
            for y in range(g.order):
                cx, cy = pres.coords[x], pres.coords[y]
                s = tuple((a + b) % d for a, b, d
                          in zip(cx, cy, pres.invariant_factors))
                assert pres.element_of(s) == g.table[x][y]

    def test_presentation_maps_verified(self):
        pres = abelian_invariants(direct_product(cyclic_group(3),
                                                 cyclic_group(6)))
        assert pres.invariant_factors == (3, 6)
        assert set(pres.coords) == set(itertools.product(range(3), range(6)))

    @pytest.mark.parametrize("name", [
        name for name in catalog_names() if get_group(name).is_abelian
    ] + list(ABELIAN_PRODUCTS))
    def test_walk_relations_match_the_search(self, name):
        # the relations read off the recorded Cayley walk give the
        # factors and coordinates of the exponent-vector search they
        # replaced
        g = (_product(*ABELIAN_PRODUCTS[name]) if name in ABELIAN_PRODUCTS
             else get_group(name))
        walk, search = abelian_invariants(g), abelian_invariants_by_search(g)
        assert walk.invariant_factors == search.invariant_factors
        assert walk.coords == search.coords

    @pytest.mark.parametrize("name", sorted(COORDINATE_DIGESTS))
    def test_coordinates_pinned(self, name):
        """sha256 of the coordinate tuples of every element.  Every Z^2
        generator table and class pin is written in these coordinates,
        so they must not move; the digests predate reading them off the
        Smith column transform."""
        coords = list(abelian_invariants(PINNED_GROUPS[name]).coords)
        digest = hashlib.sha256(json.dumps(coords).encode()).hexdigest()
        assert digest == COORDINATE_DIGESTS[name]
