"""Cayley-table core: validation, structure queries, map enumeration.

Expected values were frozen from independent computations: naive
enumeration over all image arrays for the hom/aut counts, direct table
scans for centers and centralizers, commutator closures by hand for the
derived subgroups.
"""

import functools
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from centext import catalog
from centext.catalog import (
    _BUILDERS,
    _perm_compose,
    alternating_group,
    catalog_names,
    dihedral_group,
    get_group,
    projective_special_linear_2_7,
    special_linear_2_5,
    symmetric_group,
)
from centext.cocycles import compute_cocycle_space
from centext.errors import (
    DimensionMismatch,
    NoIdentityAtZero,
    NonAssociative,
    NotLatinSquare,
    NotNormalized,
    SizeLimitExceeded,
)
from centext.extensions import build_extension
from centext.groups import (
    DEFAULT_LIMITS,
    FiniteGroup,
    GroupMap,
    SearchLimits,
    brute_force_isomorphism,
    center,
    conjugacy_classes,
    cyclic_group,
    direct_product,
    enumerate_automorphisms,
    enumerate_homs,
    enumerate_isomorphisms,
    group_from_elements,
    is_purely_nonabelian,
    is_simple,
    normal_subgroups,
    subgroup_closure,
    trivial_map,
    validate_group,
)
from centext.groups import (
    _MapSearch,
    _automorphism_generators,
    _automorphisms,
    _cayley_walk,
)
from oracles import (
    CayleyClosureSearch,
    automorphism_generators_by_closure,
    centralizer,
    compose_maps,
    conjugacy_classes_by_sort,
    cyclic_group_by_table,
    derived_subgroup,
    direct_product_by_table,
    greedy_by_pair_closure,
    greedy_sequence,
    group_from_elements_by_products,
    group_map_error,
    identity_map,
    is_purely_nonabelian_by_commutation,
    normal_subgroups_by_class_unions,
    pair_closure,
)

# order-5 loop: Latin with identity row/column but (1*1)*2 != 1*(1*2)
NONASSOC5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def validate_by_full_scan(table):
    """Reference for validate_group: the same checks, with associativity
    tested on every triple in row-major order."""
    n = len(table)
    if n == 0:
        raise ValueError("empty table")
    for a, row in enumerate(table):
        if len(row) != n:
            raise ValueError(f"row {a} has length {len(row)}, expected {n}")
        for b, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"entry [{a}][{b}] = {v!r} is not an integer")
            if not 0 <= v < n:
                raise ValueError(f"entry [{a}][{b}] = {v!r} out of range")
    for b in range(n):
        if table[0][b] != b:
            raise NoIdentityAtZero(f"0*{b} = {table[0][b]}, expected {b}")
    for a in range(n):
        if table[a][0] != a:
            raise NoIdentityAtZero(f"{a}*0 = {table[a][0]}, expected {a}")
    for a in range(n):
        seen = {}
        for b, v in enumerate(table[a]):
            if v in seen:
                raise NotLatinSquare(
                    f"row {a} repeats {v} at columns {seen[v]} and {b}")
            seen[v] = b
    for b in range(n):
        seen = {}
        for a in range(n):
            v = table[a][b]
            if v in seen:
                raise NotLatinSquare(
                    f"column {b} repeats {v} at rows {seen[v]} and {a}")
            seen[v] = a
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    raise NonAssociative(
                        f"({a}*{b})*{c} = {table[ab][c]} but "
                        f"{a}*({b}*{c}) = {table[a][table[b][c]]}")


def outcome(check, *args):
    """The error type and message a check raises, or None."""
    try:
        check(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def is_homomorphism_by_full_scan(m):
    t, s, im = m.dom.table, m.cod.table, m.images
    return all(im[t[a][b]] == s[im[a]][im[b]]
               for a in range(m.dom.order) for b in range(m.dom.order))


class PairClosureSearch(CayleyClosureSearch):
    """Reference for _MapSearch: after each choice, close the partial
    image under the products of every pair of known elements."""

    def _close(self, x, v, images, known, used, trail):
        self.nodes += 1
        images[x] = v
        known.append(x)
        trail.append(x)
        if self.injective:
            used[v] = True
        queue = [x]
        while queue:
            a = queue.pop()
            for b in list(known):
                for p, q in ((a, b), (b, a)):
                    r = self.dom.table[p][q]
                    w = self.cod.table[images[p]][images[q]]
                    if images[r] == -1:
                        if self.injective and used[w]:
                            return False
                        self.nodes += 1
                        images[r] = w
                        known.append(r)
                        trail.append(r)
                        if self.injective:
                            used[w] = True
                        queue.append(r)
                    elif images[r] != w:
                        return False
        return True


def search_images(search_class, dom, cod, injective):
    """Image arrays in the order the search emits them."""
    return [m.images for m in
            search_class(dom, cod, injective, DEFAULT_LIMITS).run()]


def search_run(search_class, dom, cod, injective, limits=DEFAULT_LIMITS):
    """The image arrays a search emits, in order, then how it ended: its
    node count, or the limit and need of the SizeLimitExceeded raised."""
    search = search_class(dom, cod, injective, limits)
    images = []
    try:
        for m in search.run():
            images.append(m.images)
    except SizeLimitExceeded as e:
        return images, ("exceeded", e.limit, e.needed)
    return images, ("finished", search.nodes)


def replayed_images(dom, cod, injective, limits=DEFAULT_LIMITS):
    """_MapSearch's image arrays, once its maps, their order and its node
    count are found equal to those of the core that walks the Cayley
    graph afresh at every node."""
    got = search_run(_MapSearch, dom, cod, injective, limits)
    assert got == search_run(CayleyClosureSearch, dom, cod, injective, limits)
    return got[0]


SMALL = [name for name in catalog_names() if get_group(name).order <= 12]


def class_carriers(pair, indexes=None):
    """The carrier groups of the H^2 classes of a catalog pair (g1, g2),
    all of them or those at the given class indexes."""
    g1, g2 = (get_group(name) for name in pair)
    reps = compute_cocycle_space(g1, g2).class_representatives
    if indexes is not None:
        reps = [reps[i] for i in indexes]
    return [build_extension(rep).group for rep in reps]


def relabelled_table(g, perm):
    """g's table with element x renamed perm[x]."""
    out = [[0] * g.order for _ in range(g.order)]
    for a in range(g.order):
        for b in range(g.order):
            out[perm[a]][perm[b]] = perm[g.table[a][b]]
    return out


@st.composite
def tables_with_foreign_entries(draw):
    """A relabelled small catalog table with one to three entries
    replaced: by the same value as a float or (for 0 and 1) a bool, which
    only the type check rejects, or by any bool, float, negative int or
    int past the order."""
    g = get_group(draw(st.sampled_from(SMALL)))
    n = g.order
    table = relabelled_table(
        g, [0] + draw(st.permutations(range(1, n))))
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        v = table[a][b]
        same = [float(v)] + ([bool(v)] if v in (0, 1) else [])
        table[a][b] = draw(st.one_of(
            st.sampled_from(same), st.booleans(), st.floats(),
            st.integers(-2 * n, -1), st.integers(n, 2 * n)))
    return table


def intercalates(table):
    """Rows a < b and columns c < d whose four entries form a 2x2 Latin
    subsquare; swapping within it keeps the table Latin."""
    n = len(table)
    where = [{v: c for c, v in enumerate(row)} for row in table]
    out = []
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(n):
                d = where[a][table[b][c]]
                if d > c and table[b][d] == table[a][c]:
                    out.append((a, b, c, d))
    return out


def random_loop(n, rng):
    """A Latin square of order n with identity 0, filled cell by cell in
    row-major order, each cell trying its free values in a seeded random
    order and backtracking when none is left."""
    table = [list(range(n))] + [[a] + [-1] * (n - 1) for a in range(1, n)]
    cells = [(a, b) for a in range(1, n) for b in range(1, n)]

    def fill(i):
        if i == len(cells):
            return True
        a, b = cells[i]
        used = set(table[a][:b]) | {table[r][b] for r in range(a)}
        free = [v for v in range(n) if v not in used]
        rng.shuffle(free)
        for v in free:
            table[a][b] = v
            if fill(i + 1):
                return True
        table[a][b] = -1
        return False

    fill(0)
    return table


def naive_maps(h, k):
    """Every normalized set map h -> k, as image tuples."""
    for rest in itertools.product(range(k.order), repeat=h.order - 1):
        yield (0,) + rest


class TestValidateGroup:
    def test_trivial(self):
        g = validate_group([[0]])
        assert g.order == 1

    def test_cyclic4(self):
        table = [[(a + b) % 4 for b in range(4)] for a in range(4)]
        g = validate_group(table)
        assert g.order == 4 and g.is_abelian

    def test_latin_violation(self):
        table = [[(a + b) % 4 for b in range(4)] for a in range(4)]
        table[1][1] = 1
        with pytest.raises(NotLatinSquare):
            validate_group(table)

    @pytest.mark.parametrize("table, message", [
        ([[0, 1, 2], [1, 1, 0], [2, 0, 1]],
         "row 1 repeats 1 at columns 0 and 1"),
        # every row a permutation, so only the column scan can name it
        ([[0, 1, 2], [1, 2, 0], [2, 1, 0]],
         "column 1 repeats 1 at rows 0 and 2"),
    ], ids=["row", "column"])
    def test_latin_violation_is_named(self, table, message):
        assert outcome(validate_group, table) == (NotLatinSquare, message)

    def test_identity_violation(self):
        table = [[(a + b) % 4 for b in range(4)] for a in range(4)]
        table[0][2] = 3
        with pytest.raises(NoIdentityAtZero):
            validate_group(table)

    def test_nonassociative_loop(self):
        with pytest.raises(NonAssociative):
            validate_group(NONASSOC5)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            validate_group([[0, 1], [1, 7]])

    def test_ragged(self):
        with pytest.raises(ValueError):
            validate_group([[0, 1], [1]])

    def test_catalog_tables_accepted(self):
        for name in ("Z4", "K4", "S3", "D4", "Q8", "A4"):
            g = get_group(name)
            assert validate_group([list(r) for r in g.table]).order == g.order

    def test_bool_entries_rejected(self):
        with pytest.raises(ValueError, match="not an integer"):
            validate_group([[0, True], [True, 0]])
        with pytest.raises(ValueError, match="not an integer"):
            validate_group([[0, 1], [1, 0.0]])

    def test_nonassociative_witness_is_the_first_triple(self):
        with pytest.raises(NonAssociative) as exc:
            validate_group(NONASSOC5)
        assert outcome(validate_by_full_scan, NONASSOC5) == (
            NonAssociative, str(exc.value))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_relabelled_and_swapped_tables_match_the_full_scan(self, data):
        g = get_group(data.draw(st.sampled_from(SMALL)))
        perm = [0] + data.draw(st.permutations(range(1, g.order)))
        table = relabelled_table(g, perm)
        for _ in range(data.draw(st.integers(0, 2))):
            found = intercalates(table)
            if not found:
                break
            a, b, c, d = data.draw(st.sampled_from(found))
            table[a][c], table[a][d] = table[a][d], table[a][c]
            table[b][c], table[b][d] = table[b][d], table[b][c]
        assert outcome(validate_group, table) == \
            outcome(validate_by_full_scan, table)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, n), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    def test_random_tables_match_the_full_scan(self, table):
        assert outcome(validate_group, table) == \
            outcome(validate_by_full_scan, table)

    @settings(max_examples=200, deadline=None)
    @given(tables_with_foreign_entries())
    def test_foreign_entries_match_the_full_scan(self, table):
        assert outcome(validate_group, table) == \
            outcome(validate_by_full_scan, table)

    def test_int_subclass_entries_pass_the_entry_scan(self):
        # the type screen admits int only; an int subclass other than
        # bool falls back to the entry scan, which accepts it as before
        class Index(int):
            pass
        g = get_group("S3")
        table = [[Index(v) for v in row] for row in g.table]
        assert validate_group(table).table == g.table

    def test_light_test_over_the_right_greedy_on_random_loops(self):
        # in a loop, right multiplication alone can reach less than the
        # closure in both orders, so the two greedy sequences can differ;
        # Light's test over the right greedy must still decide as the
        # full scan does, on such a loop and on a non-associative one
        # where the sequences agree
        rng = random.Random(5081)
        differs = agrees = None
        for _ in range(300):
            table = random_loop(rng.randint(5, 8), rng)
            assert outcome(validate_group, table) == \
                outcome(validate_by_full_scan, table)
            loop = FiniteGroup(order=len(table),
                               table=tuple(map(tuple, table)))
            if loop.generators != greedy_by_pair_closure(loop):
                differs = differs or table
            elif outcome(validate_by_full_scan, table) is not None:
                agrees = agrees or table
        assert differs is not None and agrees is not None
        for table in (differs, agrees):
            assert outcome(validate_group, table)[0] is NonAssociative

    def test_single_entry_mutations_rejected(self):
        # flipping any one entry must trip the identity check (row/col 0)
        # or the Latin check; associativity is never reached
        for name in ("Z4", "S3"):
            g = get_group(name)
            n = g.order
            for a in range(n):
                for b in range(n):
                    bad = (g.table[a][b] + 1) % n
                    mut = [list(r) for r in g.table]
                    mut[a][b] = bad
                    expected = NoIdentityAtZero if (a == 0 or b == 0) \
                        else NotLatinSquare
                    with pytest.raises(expected):
                        validate_group(mut)


S3_ELEMENTS = sorted(itertools.permutations(range(3)))

# sha256 of repr(alternating_group(7).table), as built from the n^2
# products before the tables were read from generator columns
A7_TABLE_SHA256 = \
    "bc9a7c6ec8cb1a71fb5a2cac1985bdb00401c9fd1b6c2ba44050deb623f2e578"

# the builders of the named catalog and the groups outside it, uncached
BUILDS = {
    **_BUILDERS,
    "SL25": special_linear_2_5.__wrapped__,
    "S5": lambda: symmetric_group(5),
    "A6": lambda: alternating_group(6),
    "S6": lambda: symmetric_group(6),
    "PSL27": projective_special_linear_2_7.__wrapped__,
}


class TestGroupFromElements:
    """Tables read through the generator columns are those of the n^2
    products, and the errors are theirs."""

    @pytest.mark.parametrize("name", list(BUILDS))
    def test_tables_equal_the_products(self, name, monkeypatch):
        g = BUILDS[name]()
        monkeypatch.setattr(catalog, "group_from_elements",
                            group_from_elements_by_products)
        ref = BUILDS[name]()
        assert (g.order, g.table, g.name) == (ref.order, ref.table, ref.name)

    def test_a7_table_is_pinned(self):
        g = alternating_group(7)
        assert g.order == 2520
        assert hashlib.sha256(repr(g.table).encode()).hexdigest() == \
            A7_TABLE_SHA256

    @pytest.mark.parametrize("factors", [
        ("D4", "Z2"), ("S3", "S3"), ("Q8", "Z2"), ("A4", "Z3"), ("A5", "Z2"),
        ("Z2",) * 5], ids="x".join)
    def test_direct_products_equal_the_table_builder(self, factors):
        gs = [get_group(f) for f in factors]
        got, ref = (build(functools.reduce(build, gs[:-1]), gs[-1],
                          name="x".join(factors))
                    for build in (direct_product, direct_product_by_table))
        assert (got.order, got.table, got.name, got.generators) == \
            (ref.order, ref.table, ref.name, ref.generators)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_cyclic_groups_equal_the_table_builder(self, n):
        for name in (None, "C"):
            got, ref = cyclic_group(n, name), cyclic_group_by_table(n, name)
            assert (got.order, got.table, got.name) == \
                (ref.order, ref.table, ref.name)

    @pytest.mark.parametrize("elems,error", [
        (S3_ELEMENTS + [S3_ELEMENTS[3]], (ValueError, "duplicate elements")),
        (S3_ELEMENTS[:3] + S3_ELEMENTS[4:],
         (ValueError, "elements not closed under op")),
        ([(0, 1, 2), (1, 2, 0)], (ValueError, "elements not closed under op")),
        (S3_ELEMENTS[1:] + S3_ELEMENTS[:1],
         (NoIdentityAtZero, "0*0 = 5, expected 0")),
        ([], (ValueError, "empty table")),
    ], ids=["duplicate", "not-closed", "not-closed-3-cycle", "no-identity",
            "empty"])
    def test_errors_are_those_of_the_products(self, elems, error):
        got = outcome(group_from_elements, elems, _perm_compose)
        assert got == outcome(group_from_elements_by_products, elems,
                              _perm_compose)
        assert got == error

    @pytest.mark.parametrize("k", range(2, 6))
    def test_other_rotations_of_s3_lack_the_identity(self, k):
        elems = S3_ELEMENTS[k:] + S3_ELEMENTS[:k]
        got = outcome(group_from_elements, elems, _perm_compose)
        assert got[0] is NoIdentityAtZero
        assert got == outcome(group_from_elements_by_products, elems,
                              _perm_compose)


class TestStructure:
    def test_center_abelian(self):
        g = get_group("Z6")
        assert center(g) == tuple(range(6))

    def test_center_q8(self):
        assert center(get_group("Q8")) == (0, 4)

    def test_center_s3(self):
        assert center(get_group("S3")) == (0,)

    def test_derived_abelian(self):
        assert derived_subgroup(get_group("Z8")) == (0,)

    def test_derived_s3(self):
        # the two 3-cycles sit at indices 3, 4 in the sorted-permutation table
        assert derived_subgroup(get_group("S3")) == (0, 3, 4)

    def test_derived_q8(self):
        assert derived_subgroup(get_group("Q8")) == (0, 4)

    def test_derived_a4(self):
        assert derived_subgroup(get_group("A4")) == (0, 3, 8, 11)

    def test_centralizer_identity(self):
        g = get_group("S3")
        assert centralizer(g, {0}) == tuple(range(6))

    def test_centralizer_whole_group_is_center(self):
        g = get_group("D4")
        assert centralizer(g, range(8)) == center(g)

    def test_centralizer_transposition(self):
        g = get_group("S3")
        assert centralizer(g, {2}) == (0, 2)

    def test_conjugacy_classes_s3(self):
        assert conjugacy_classes(get_group("S3")) == [(0,), (1, 2, 5), (3, 4)]

    def test_normal_subgroups_s3(self):
        assert normal_subgroups(get_group("S3")) == [
            (0,), (0, 3, 4), (0, 1, 2, 3, 4, 5)]

    def test_subgroup_closure(self):
        g = get_group("S3")
        assert subgroup_closure(g, [3]) == {0, 3, 4}

    def test_element_orders_q8(self):
        assert get_group("Q8").element_orders == (1, 4, 4, 4, 2, 4, 4, 4)

    def test_order_profile(self):
        assert get_group("Z4").order_profile == (1, 2, 4, 4)
        assert get_group("K4").order_profile == (1, 2, 2, 2)


class TestSimpleAndPurelyNonabelian:
    def test_simple(self):
        assert is_simple(get_group("Z5"))
        assert is_simple(get_group("Z2"))
        assert not is_simple(get_group("Z1"))
        assert not is_simple(get_group("Z6"))
        assert not is_simple(get_group("S3"))
        assert not is_simple(get_group("A4"))
        assert is_simple(get_group("A5"))

    def test_psl27_is_simple_of_order_168(self):
        g = projective_special_linear_2_7()
        assert g.order == 168 and g.name == "PSL27"
        assert is_simple(g)

    def test_purely_nonabelian(self):
        assert is_purely_nonabelian(get_group("Q8"))
        assert is_purely_nonabelian(get_group("S3"))
        assert is_purely_nonabelian(get_group("D4"))
        assert is_purely_nonabelian(get_group("A5"))
        assert not is_purely_nonabelian(get_group("Z6"))
        z2s3 = direct_product(get_group("Z2"), get_group("S3"))
        assert not is_purely_nonabelian(z2s3)
        # D6 = S3 x Z2; the center Z2 of D8 has no complement
        assert [is_purely_nonabelian(structure_group(name)) for name in (
            "A7", "D8", "S3xS3", "D6", "A4xZ2")] == [True] * 3 + [False] * 2


def _power(g, k):
    out = g
    for _ in range(k - 1):
        out = direct_product(out, g)
    return out


# beyond the catalog, where the union scan takes at most a fifth of a
# second
EXTRA_GROUPS = {
    "SL25": special_linear_2_5,
    "S5": lambda: symmetric_group(5),
    "A6": lambda: alternating_group(6),
    "Z2^4": lambda: _power(cyclic_group(2), 4),
    "Z2xZ8": lambda: direct_product(cyclic_group(2), cyclic_group(8)),
    "D4xZ2": lambda: direct_product(get_group("D4"), cyclic_group(2)),
    "Q8xZ2": lambda: direct_product(get_group("Q8"), cyclic_group(2)),
    "S3xS3": lambda: _power(get_group("S3"), 2),
}


def _group(name):
    return EXTRA_GROUPS[name]() if name in EXTRA_GROUPS else get_group(name)


class TestWalkClosureOracles:
    """subgroup_closure is the Cayley walk's closure under right
    multiplication, and normal_subgroups the joins of the classes'
    normal closures; the pair closure and the scan over unions of
    classes they replaced must agree with them."""

    @pytest.mark.parametrize("name", catalog_names() + ["SL25"])
    def test_walk_closure_is_the_pair_closure(self, name):
        g = _group(name)
        rng = random.Random(2513)
        subsets = conjugacy_classes(g) + [(x,) for x in range(g.order)]
        subsets += [rng.sample(range(g.order), min(g.order, k))
                    for k in (1, 2, 2, 3, 3, 4) for _ in range(4)]
        for gens in subsets:
            assert subgroup_closure(g, gens) == pair_closure(g, gens), gens

    @pytest.mark.parametrize("name", catalog_names() + list(EXTRA_GROUPS))
    def test_normal_subgroups_match_the_class_unions(self, name):
        g = _group(name)
        assert normal_subgroups(g) == normal_subgroups_by_class_unions(g)

    def test_elementary_abelian_of_rank_five(self):
        # every subgroup of Z2^5 is normal: 1 + 31 + 155 + 155 + 31 + 1,
        # the Gaussian binomials over GF(2); the union scan would try
        # 2^31 unions
        subs = normal_subgroups(_power(cyclic_group(2), 5))
        assert len(subs) == 374
        assert [sum(len(s) == 2 ** k for s in subs) for k in range(6)] == \
            [1, 31, 155, 155, 31, 1]


# the catalog and fifteen groups beyond it, with and without abelian
# direct factors
STRUCTURE_GROUPS = {
    **{name: functools.partial(get_group, name) for name in catalog_names()},
    "S5": lambda: symmetric_group(5),
    "A6": lambda: alternating_group(6),
    "S6": lambda: symmetric_group(6),
    "A7": lambda: alternating_group(7),
    "PSL27": projective_special_linear_2_7,
    "SL25": special_linear_2_5,
    "D6": lambda: dihedral_group(6),
    "D8": lambda: dihedral_group(8),
    "Z2^5": lambda: _power(cyclic_group(2), 5),
    "D4xZ2": lambda: direct_product(get_group("D4"), cyclic_group(2)),
    "Q8xZ2": lambda: direct_product(get_group("Q8"), cyclic_group(2)),
    "S3xZ2": lambda: direct_product(get_group("S3"), cyclic_group(2)),
    "S3xZ3": lambda: direct_product(get_group("S3"), cyclic_group(3)),
    "A4xZ2": lambda: direct_product(get_group("A4"), cyclic_group(2)),
    "S3xS3": lambda: _power(get_group("S3"), 2),
}


@functools.lru_cache(maxsize=None)
def structure_group(name):
    return STRUCTURE_GROUPS[name]()


class TestStructureOracles:
    """The class scan and the center test against the sort and the
    commutation scans they replaced."""

    @pytest.mark.parametrize("name", list(STRUCTURE_GROUPS))
    def test_classes_come_sorted_by_least_member(self, name):
        g = structure_group(name)
        assert conjugacy_classes(g) == conjugacy_classes_by_sort(g)

    @pytest.mark.parametrize("name", list(STRUCTURE_GROUPS))
    def test_purely_nonabelian_from_the_center(self, name):
        g = structure_group(name)
        assert is_purely_nonabelian(g) == \
            is_purely_nonabelian_by_commutation(g)


class TestWalkCallback:
    """_cayley_walk's on_adjoin runs on each adjoined element before the
    walk reads a product with it: rows that the callback fills one
    column at a time walk as the table does."""

    @staticmethod
    def filled_walk(table, adjoin):
        # a read of a column before its callback raises KeyError
        rows, calls = [{} for _ in table], []

        def fill(x):
            assert all(x not in row for row in rows)
            calls.append(x)
            for row, full in zip(rows, table):
                row[x] = full[x]
        return _cayley_walk(rows, adjoin, True, fill), calls

    @pytest.mark.parametrize("name", catalog_names() + ["SL25"])
    def test_filled_rows_walk_as_the_table(self, name):
        g = _group(name)
        got, calls = self.filled_walk(g.table, range(g.order))
        assert got == _cayley_walk(g.table, range(g.order), True)
        assert calls == list(got[0]) == list(greedy_sequence(g))

    @pytest.mark.parametrize("name", catalog_names())
    def test_callback_sees_each_adjoined_element_once(self, name):
        # adjoin lists with repeats and reached elements, as
        # subgroup_closure passes them
        g = get_group(name)
        rng = random.Random(4127)
        for gens in conjugacy_classes(g) + [
                rng.choices(range(g.order), k=k) for k in (1, 3, 6)]:
            got, calls = self.filled_walk(g.table, gens)
            assert got == _cayley_walk(g.table, gens, True)
            assert calls == list(got[0])
            assert frozenset(got[2]) == subgroup_closure(g, gens)

    def test_automorphism_walk_adjoins_the_picks(self, monkeypatch):
        # the walk runs over the automorphisms, identity first and then
        # from the end of the enumeration, and returns what it adjoined
        g = get_group("S4")
        auts = [a.images for a in _automorphisms(g, DEFAULT_LIMITS)]
        seen = []

        def walk(tab, adjoin, record, on_adjoin):
            out = _cayley_walk(tab, adjoin, record, on_adjoin)
            seen.append((len(tab), out[0], len(out[2])))
            return out
        monkeypatch.setattr("centext.groups._cayley_walk", walk)
        gens = _automorphism_generators.__wrapped__(g, DEFAULT_LIMITS)
        (n, adjoined, reached), = seen
        order = auts[:1] + auts[:0:-1]
        assert n == reached == len(auts) == 24
        assert gens == tuple(order[x] for x in adjoined)


class TestGroupMap:
    def test_normalization_enforced(self):
        g = get_group("Z2")
        with pytest.raises(NotNormalized):
            GroupMap(dom=g, cod=g, images=(1, 0))

    def test_length_checked(self):
        g = get_group("Z2")
        with pytest.raises(DimensionMismatch):
            GroupMap(dom=g, cod=g, images=(0,))

    def test_identity_and_trivial(self):
        g = get_group("S3")
        assert identity_map(g).is_homomorphism()
        assert trivial_map(g, get_group("Z4")).is_homomorphism()

    def test_inverse_needs_a_bijection(self):
        g = get_group("Z2")
        with pytest.raises(ValueError, match="^map is not bijective$"):
            GroupMap(dom=g, cod=g, images=(0, 0)).inverse()

    def test_cyclic_group_needs_a_positive_order(self):
        with pytest.raises(ValueError, match="^order must be positive$"):
            cyclic_group(0)

    def test_compose_and_inverse(self):
        g = get_group("K4")
        for m in enumerate_automorphisms(g):
            assert compose_maps(m, m.inverse()).images == identity_map(g).images

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_is_homomorphism_matches_the_full_scan(self, data):
        dom = get_group(data.draw(st.sampled_from(SMALL)))
        cod = get_group(data.draw(st.sampled_from(SMALL)))
        homs = enumerate_homs(dom, cod)
        images = list(data.draw(st.sampled_from(homs)).images)
        if dom.order > 1 and data.draw(st.booleans()):
            x = data.draw(st.integers(1, dom.order - 1))
            images[x] = data.draw(st.integers(0, cod.order - 1))
        m = GroupMap(dom=dom, cod=cod, images=tuple(images))
        assert m.is_homomorphism() == is_homomorphism_by_full_scan(m)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_random_images_match_the_full_scan(self, data):
        dom = get_group(data.draw(st.sampled_from(SMALL)))
        cod = get_group(data.draw(st.sampled_from(SMALL)))
        rest = data.draw(st.lists(st.integers(0, cod.order - 1),
                                  min_size=dom.order - 1,
                                  max_size=dom.order - 1))
        m = GroupMap(dom=dom, cod=cod, images=(0, *rest))
        assert m.is_homomorphism() == is_homomorphism_by_full_scan(m)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_checks_match_the_loops(self, data):
        # the image range is screened at C speed and scanned only on a
        # failure: the error must be the loops' in type and message
        dom = get_group(data.draw(st.sampled_from(SMALL)))
        cod = get_group(data.draw(st.sampled_from(SMALL)))
        length = data.draw(st.sampled_from(
            (dom.order, dom.order, dom.order - 1, dom.order + 1)))
        images = tuple(data.draw(st.lists(
            st.sampled_from((0, 0, 1, cod.order - 1, cod.order, -1, 7)),
            min_size=length, max_size=length)))
        expected = group_map_error(dom, cod, images)
        if expected is None:
            assert GroupMap(dom=dom, cod=cod, images=images).images == images
            return
        with pytest.raises(expected[0]) as err:
            GroupMap(dom=dom, cod=cod, images=images)
        assert type(err.value) is expected[0]
        assert str(err.value) == expected[1]


class TestEnumeration:
    def test_hom_counts(self):
        z2, z3, z4 = get_group("Z2"), get_group("Z3"), get_group("Z4")
        assert len(enumerate_homs(z2, z2)) == 2
        assert len(enumerate_homs(z4, z2)) == 2
        assert len(enumerate_homs(get_group("S3"), z3)) == 1

    def test_hom_exhaustive_small(self):
        pairs = [("Z2", "Z4"), ("Z4", "Z4"), ("K4", "Z4"),
                 ("Z3", "Z3"), ("Z4", "K4"), ("K4", "K4")]
        for hn, kn in pairs:
            h, k = get_group(hn), get_group(kn)
            naive = {im for im in naive_maps(h, k)
                     if GroupMap(dom=h, cod=k, images=im).is_homomorphism()}
            got = [m.images for m in enumerate_homs(h, k)]
            assert set(got) == naive
            assert got == sorted(got)

    def test_aut_counts(self):
        assert len(enumerate_automorphisms(get_group("Z2"))) == 1
        assert len(enumerate_automorphisms(get_group("Z4"))) == 2
        assert len(enumerate_automorphisms(get_group("K4"))) == 6
        assert len(enumerate_automorphisms(get_group("S3"))) == 6
        assert len(enumerate_automorphisms(get_group("Q8"))) == 24
        assert len(enumerate_automorphisms(get_group("D4"))) == 8

    def test_iso_counts(self):
        assert len(enumerate_isomorphisms(get_group("Z2"), get_group("Z2"))) == 1
        assert len(enumerate_isomorphisms(get_group("K4"), get_group("K4"))) == 6
        assert enumerate_isomorphisms(get_group("Z4"), get_group("K4")) == []

    def test_listed_maps_are_homomorphisms(self):
        s3, z4 = get_group("S3"), get_group("Z4")
        for m in enumerate_homs(s3, s3):
            assert m.is_homomorphism()
        for m in enumerate_isomorphisms(z4, cyclic_group(4)):
            assert m.is_homomorphism() and m.is_bijective()

    def test_characteristic_subgroups_fixed(self):
        for name in ("S3", "D4", "Q8", "A4"):
            g = get_group(name)
            zc = set(center(g))
            dc = set(derived_subgroup(g))
            for m in enumerate_automorphisms(g):
                assert {m(x) for x in zc} == zc
                assert {m(x) for x in dc} == dc


class TestPairClosureOracle:
    """The search replays the closure steps of the domain's Cayley walk:
    it emits the maps of the core that walks the graph afresh at every
    node, in the same order, with the same node count (replayed_images),
    and so the maps of the pair closure; sorted, these are the
    enumerators' lists."""

    @pytest.mark.parametrize("name", catalog_names())
    def test_self_maps_of_every_catalog_group(self, name):
        g = get_group(name)
        for injective in (True, False):
            if not injective and g.order > 24:
                continue
            want = search_images(PairClosureSearch, g, g, injective)
            assert replayed_images(g, g, injective) == want
        assert [m.images for m in enumerate_automorphisms(g)] == \
            sorted(search_images(PairClosureSearch, g, g, True))

    def test_homs_and_isomorphisms_between_small_groups(self):
        names = [n for n in SMALL if get_group(n).order <= 8]
        for a in names:
            for b in names:
                h, k = get_group(a), get_group(b)
                homs = search_images(PairClosureSearch, h, k, False)
                assert replayed_images(h, k, False) == homs
                assert [m.images for m in enumerate_homs(h, k)] == \
                    sorted(homs)
                raw_isos = replayed_images(h, k, True)
                isos = enumerate_isomorphisms(h, k)
                if isos:
                    assert [m.images for m in isos] == sorted(raw_isos) \
                        == sorted(search_images(PairClosureSearch, h, k, True))

    def test_raw_search_output_is_sorted(self):
        # the enumerators return the maps in search order, unsorted
        names = [n for n in catalog_names() if get_group(n).order <= 24]
        searches = 0
        for a, b in itertools.product(names, repeat=2):
            h, k = get_group(a), get_group(b)
            for injective in (False, True)[:1 + (h.order == k.order)]:
                images = search_images(_MapSearch, h, k, injective)
                assert images == sorted(images)
                searches += 1
        assert searches == 330

    def test_homs_into_a5(self):
        a5 = get_group("A5")
        for name in ("Z2", "K4", "S3", "D5", "A4"):
            h = get_group(name)
            assert replayed_images(h, a5, False) == \
                search_images(PairClosureSearch, h, a5, False)

    def test_automorphisms_of_sl25(self):
        g = special_linear_2_5()
        want = search_images(PairClosureSearch, g, g, True)
        assert replayed_images(g, g, True) == want
        assert [m.images for m in enumerate_automorphisms(g)] == sorted(want)

    @pytest.mark.parametrize("pair", [("Z2", "Q8"), ("Z4", "K4")])
    def test_maps_between_carriers(self, pair):
        carriers = class_carriers(pair)
        for h, k in itertools.product(carriers, repeat=2):
            for injective in (True, False):
                replayed_images(h, k, injective)

    def test_isomorphisms_between_z2_z2xz2xz2_carriers(self):
        # each carrier to itself and to the next one: 64 classes, so
        # the 4,096 ordered pairs would take seconds
        carriers = class_carriers(("Z2", "Z2xZ2xZ2"))
        assert len(carriers) == 64
        for i, h in enumerate(carriers):
            for k in (h, carriers[(i + 1) % 64]):
                replayed_images(h, k, True)

    @pytest.mark.parametrize("budget", [1, 2, 3, 5, 10, 100, 1000])
    def test_node_budget_parity(self, budget):
        # both cores emit the same prefix of maps, then both exceed the
        # budget at the same node, or both finish
        e1, e4 = class_carriers(("Z2", "D4"), (1, 4))
        searches = [(get_group("S3"), get_group("S3"), True),
                    (get_group("Q8"), get_group("Q8"), True),
                    (get_group("K4"), get_group("A4"), False),
                    (e1, e4, True)]
        limits = SearchLimits(max_search_nodes=budget)
        for dom, cod, injective in searches:
            replayed_images(dom, cod, injective, limits)

    def test_exhausted_automorphism_search_node_counts(self):
        # the counts of the core that walked the graph at every node
        for g, nodes in ((get_group("A5"), 27_100),
                         (special_linear_2_5(), 23_970),
                         (symmetric_group(5), 75_865)):
            search = _MapSearch(g, g, True, DEFAULT_LIMITS)
            assert sum(1 for _ in search.run()) == 120
            assert search.nodes == nodes

    def test_a_finished_search_stays_within_its_node_budget(self):
        # the budget is checked after each choice's forced images, so
        # Aut(A5), 27,100 nodes, needs a budget of exactly that many
        a5 = get_group("A5")
        with pytest.raises(SizeLimitExceeded) as err:
            list(_MapSearch(a5, a5, True,
                            SearchLimits(max_search_nodes=27_099)).run())
        assert err.value.limit == 27_099 and err.value.needed > 27_099
        search = _MapSearch(a5, a5, True,
                            SearchLimits(max_search_nodes=27_100))
        assert sum(1 for _ in search.run()) == 120
        assert search.nodes == 27_100

    def test_automorphism_lists_are_fresh(self):
        g = get_group("Q8")
        first = enumerate_automorphisms(g)
        first.clear()
        again = enumerate_automorphisms(g)
        assert len(again) == 24 and again is not enumerate_automorphisms(g)

    @pytest.mark.parametrize("name", catalog_names())
    def test_automorphism_generators_generate_aut(self, name):
        g = get_group(name)
        auts = {m.images for m in enumerate_automorphisms(g)}
        gens = _automorphism_generators(g, DEFAULT_LIMITS)
        # each greedy pick at least doubles the group generated so far
        assert 2 ** len(gens) <= len(auts)
        group = {tuple(range(g.order))}
        while True:
            grown = group | {tuple(a[i] for i in b)
                             for a in group for b in gens}
            if grown == group:
                break
            group = grown
        assert group == auts

    # the greedy picks, read from the end of the enumeration, for the
    # catalog groups and Z2^4
    PICKS = {"Z1": 0, "Z2": 0, "Z3": 1, "Z4": 1, "Z5": 2, "Z6": 1, "Z7": 2,
             "Z8": 2, "K4": 2, "Z2xZ4": 2, "Z2xZ2xZ2": 2, "S3": 2, "D4": 2,
             "Q8": 2, "D5": 2, "A4": 3, "S4": 3, "A5": 3, "Z2^4": 3}

    def test_automorphism_generator_counts_are_pinned(self):
        z2 = get_group("Z2")
        groups = {name: get_group(name) for name in catalog_names()}
        groups["Z2^4"] = functools.reduce(direct_product, [z2] * 4)
        assert {name: len(_automorphism_generators(g, DEFAULT_LIMITS))
                for name, g in groups.items()} == self.PICKS

    @pytest.mark.parametrize("name", catalog_names() + ["Z2^4"])
    def test_automorphism_generators_equal_the_closure_picks(self, name):
        g = (_power(cyclic_group(2), 4) if name == "Z2^4"
             else get_group(name))
        assert _automorphism_generators(g, DEFAULT_LIMITS) == \
            automorphism_generators_by_closure(g, DEFAULT_LIMITS)


class TestOracle:
    def test_self_iso_is_identity(self):
        g = get_group("S3")
        assert brute_force_isomorphism(g, g).images == tuple(range(6))

    def test_profile_reject(self):
        assert brute_force_isomorphism(get_group("Z4"), get_group("K4")) is None

    def test_agrees_with_enumeration(self):
        pairs = [("Z4", "Z4"), ("Z4", "K4"), ("S3", "S3"),
                 ("D4", "Q8"), ("Z6", "S3")]
        for a, b in pairs:
            g, h = get_group(a), get_group(b)
            found = brute_force_isomorphism(g, h)
            listed = enumerate_isomorphisms(g, h)
            assert (found is not None) == bool(listed)
            if listed:
                assert found.images == listed[0].images

    def test_constraint_postfilter(self):
        g = get_group("K4")
        m = brute_force_isomorphism(g, g, constraint=lambda f: f(1) == 2)
        assert m is not None and m(1) == 2
        none = brute_force_isomorphism(g, g, constraint=lambda f: False)
        assert none is None

    def test_isomorphic_but_distinct_tables(self):
        d3 = get_group("S3")
        # dihedral presentation of the same group
        from centext.catalog import dihedral_group
        assert brute_force_isomorphism(dihedral_group(3), d3) is not None

    def test_order_bound(self):
        tight = SearchLimits(max_order=4)
        with pytest.raises(SizeLimitExceeded):
            brute_force_isomorphism(get_group("Q8"), get_group("D4"),
                                    limits=tight)

    def test_node_budget(self):
        tiny = SearchLimits(max_search_nodes=2)
        with pytest.raises(SizeLimitExceeded):
            enumerate_automorphisms(get_group("S3"), limits=tiny)


class TestGeneratingSequence:
    def test_cyclic(self):
        assert get_group("Z4").generators == (1,)

    def test_k4(self):
        assert get_group("K4").generators == (1, 2)

    def test_generates(self):
        for name in ("S3", "D4", "Q8", "A4"):
            g = get_group(name)
            assert len(subgroup_closure(g, g.generators)) == g.order

    def test_a_pair_where_one_starts_at_1(self):
        # (1, y) for the least y that generates with 1, found here with
        # no skipped y; every other group keeps the greedy sequence
        pairs = [get_group("S4"), get_group("A5"), symmetric_group(5),
                 alternating_group(6), symmetric_group(6),
                 projective_special_linear_2_7(), special_linear_2_5()]
        for g in pairs:
            y = next(y for y in range(2, g.order)
                     if len(subgroup_closure(g, (1, y))) == g.order)
            assert g.generators == (1, y), g
        assert [len(greedy_sequence(g)) for g in pairs] == \
            [3, 3, 4, 4, 5, 2, 2]
        for name in set(catalog_names()) - {"S4", "A5"}:
            g = get_group(name)
            assert g.generators == greedy_sequence(g), name
        assert get_group("Z2xZ2xZ2").generators == (1, 2, 4)

    def test_closure_steps_wait_for_the_first_search(self):
        # validation and carrier builds walk for the generators only
        g = validate_group([list(row) for row in get_group("A4").table])
        carrier = class_carriers(("Z2", "Q8"), (1,))[0]
        for group in (g, carrier):
            assert group.generators
            assert "_closure_layers" not in vars(group)
            enumerate_homs(group, group)
            assert [x for x, _, _ in group._closure_layers] == \
                list(group.generators)


class TestSerialization:
    def test_round_trip(self):
        from centext.groups import FiniteGroup
        g = get_group("D4")
        d = g.to_dict()
        g2 = FiniteGroup.from_dict(d)
        assert g2.table == g.table and g2.name == g.name
        assert g2.to_dict() == d

    @pytest.mark.parametrize("order", [5, 1, 0, -2, "2", 2.0, True, None])
    def test_order_must_be_the_number_of_rows(self, order):
        from centext.groups import FiniteGroup
        with pytest.raises(ValueError, match="'order' "):
            FiniteGroup.from_dict({"order": order, "table": [[0, 1], [1, 0]]})
        for d in ({"order": 2, "table": [[0, 1], [1, 0]]},
                  {"table": [[0, 1], [1, 0]]}):
            assert FiniteGroup.from_dict(d).order == 2

    @pytest.mark.parametrize("name", [["x"], 3, True, {"n": 1}])
    def test_name_must_be_a_string_or_null(self, name):
        from centext.groups import FiniteGroup
        with pytest.raises(ValueError, match="'name' must be a string"):
            FiniteGroup.from_dict({"table": [[0]], "name": name})
        unnamed = FiniteGroup.from_dict({"table": [[0]], "name": None})
        assert unnamed.name is None

    def test_equal_groups_from_distinct_tables_hash_equal(self):
        # the hash is computed once per group, from (order, table) alone
        from centext.groups import FiniteGroup
        for name in ("Z1", "K4", "D4", "A4"):
            g = get_group(name)
            copy = FiniteGroup(order=g.order, name=f"copy of {name}",
                               table=tuple(tuple(row) for row in g.table))
            assert copy.table is not g.table
            assert copy == g and hash(copy) == hash(g) == hash(g)
            assert hash(g) == hash((g.order, g.table))
            assert len({g, copy}) == 1
        assert get_group("Z4") != get_group("K4")
