"""Cayley-table core: validation, structure queries, map enumeration.

Expected values were frozen from independent computations: naive
enumeration over all image arrays for the hom/aut counts, direct table
scans for centers and centralizers, commutator closures by hand for the
derived subgroups.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from centext.catalog import catalog_names, get_group, special_linear_2_5
from centext.errors import (
    DimensionMismatch,
    NoIdentityAtZero,
    NonAssociative,
    NotLatinSquare,
    NotNormalized,
    SizeLimitExceeded,
)
from centext.groups import (
    DEFAULT_LIMITS,
    GroupMap,
    SearchLimits,
    Subgroup,
    brute_force_isomorphism,
    center,
    compose_maps,
    conjugacy_classes,
    cyclic_group,
    direct_product,
    enumerate_automorphisms,
    enumerate_homs,
    enumerate_isomorphisms,
    identity_map,
    is_purely_nonabelian,
    is_simple,
    normal_subgroups,
    subgroup_closure,
    trivial_map,
    validate_group,
)
from centext.groups import _MapSearch, _automorphism_generators
from oracles import centralizer, derived_subgroup, group_map_error

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


class PairClosureSearch(_MapSearch):
    """Reference for _MapSearch: after each choice, close the partial
    image under the products of every pair of known elements."""

    def _define(self, x, v, images, known, used, trail):
        self.nodes += 1
        if self.nodes > self.limits.max_search_nodes:
            raise SizeLimitExceeded("map search exceeded node budget")
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


SMALL = [name for name in catalog_names() if get_group(name).order <= 12]


def relabelled_table(g, perm):
    """g's table with element x renamed perm[x]."""
    out = [[0] * g.order for _ in range(g.order)]
    for a in range(g.order):
        for b in range(g.order):
            out[perm[a]][perm[b]] = perm[g.table[a][b]]
    return out


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


class TestStructure:
    def test_center_abelian(self):
        g = get_group("Z6")
        assert center(g).members == tuple(range(6))

    def test_center_q8(self):
        assert center(get_group("Q8")).members == (0, 4)

    def test_center_s3(self):
        assert center(get_group("S3")).members == (0,)

    def test_derived_abelian(self):
        assert derived_subgroup(get_group("Z8")).members == (0,)

    def test_derived_s3(self):
        # the two 3-cycles sit at indices 3, 4 in the sorted-permutation table
        assert derived_subgroup(get_group("S3")).members == (0, 3, 4)

    def test_derived_q8(self):
        assert derived_subgroup(get_group("Q8")).members == (0, 4)

    def test_derived_a4(self):
        assert derived_subgroup(get_group("A4")).members == (0, 3, 8, 11)

    def test_centralizer_identity(self):
        g = get_group("S3")
        assert centralizer(g, {0}).members == tuple(range(6))

    def test_centralizer_whole_group_is_center(self):
        g = get_group("D4")
        assert centralizer(g, range(8)).members == center(g).members

    def test_centralizer_transposition(self):
        g = get_group("S3")
        assert centralizer(g, {2}).members == (0, 2)

    def test_conjugacy_classes_s3(self):
        assert conjugacy_classes(get_group("S3")) == [(0,), (1, 2, 5), (3, 4)]

    def test_normal_subgroups_s3(self):
        subs = [s.members for s in normal_subgroups(get_group("S3"))]
        assert subs == [(0,), (0, 3, 4), (0, 1, 2, 3, 4, 5)]

    def test_subgroup_closure(self):
        g = get_group("S3")
        assert subgroup_closure(g, [3]) == {0, 3, 4}

    def test_element_orders_q8(self):
        assert get_group("Q8").element_orders == (1, 4, 4, 4, 2, 4, 4, 4)

    def test_order_profile(self):
        assert get_group("Z4").order_profile == (1, 2, 4, 4)
        assert get_group("K4").order_profile == (1, 2, 2, 2)

    def test_subgroup_equality_by_members(self):
        g1, g2 = get_group("Z4"), cyclic_group(4)
        assert Subgroup(g1, (0, 2)) == Subgroup(g2, (0, 2))


class TestSimpleAndPurelyNonabelian:
    def test_simple(self):
        assert is_simple(get_group("Z5"))
        assert is_simple(get_group("Z2"))
        assert not is_simple(get_group("Z1"))
        assert not is_simple(get_group("Z6"))
        assert not is_simple(get_group("S3"))
        assert not is_simple(get_group("A4"))
        assert is_simple(get_group("A5"))

    def test_purely_nonabelian(self):
        assert is_purely_nonabelian(get_group("Q8"))
        assert is_purely_nonabelian(get_group("S3"))
        assert is_purely_nonabelian(get_group("D4"))
        assert is_purely_nonabelian(get_group("A5"))
        assert not is_purely_nonabelian(get_group("Z6"))
        z2s3 = direct_product(get_group("Z2"), get_group("S3"))
        assert not is_purely_nonabelian(z2s3)


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

    def test_kernel_image(self):
        z4, z2 = get_group("Z4"), get_group("Z2")
        proj = GroupMap(dom=z4, cod=z2, images=(0, 1, 0, 1))
        assert proj.is_homomorphism()
        assert proj.kernel() == {0, 2}
        assert proj.image_set() == {0, 1}


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
            zc = set(center(g).members)
            dc = set(derived_subgroup(g).members)
            for m in enumerate_automorphisms(g):
                assert {m(x) for x in zc} == zc
                assert {m(x) for x in dc} == dc


class TestPairClosureOracle:
    """The Cayley-graph search emits the maps of the pair closure, in
    the same order; sorted, these are the enumerators' lists."""

    @pytest.mark.parametrize("name", catalog_names())
    def test_self_maps_of_every_catalog_group(self, name):
        g = get_group(name)
        for injective in (True, False):
            if not injective and g.order > 24:
                continue
            want = search_images(PairClosureSearch, g, g, injective)
            assert search_images(_MapSearch, g, g, injective) == want
        assert [m.images for m in enumerate_automorphisms(g)] == \
            sorted(search_images(PairClosureSearch, g, g, True))

    def test_homs_and_isomorphisms_between_small_groups(self):
        names = [n for n in SMALL if get_group(n).order <= 8]
        for a in names:
            for b in names:
                h, k = get_group(a), get_group(b)
                homs = search_images(PairClosureSearch, h, k, False)
                assert search_images(_MapSearch, h, k, False) == homs
                assert [m.images for m in enumerate_homs(h, k)] == \
                    sorted(homs)
                isos = enumerate_isomorphisms(h, k)
                if isos:
                    assert [m.images for m in isos] == sorted(
                        search_images(PairClosureSearch, h, k, True))

    def test_homs_into_a5(self):
        a5 = get_group("A5")
        for name in ("Z2", "K4", "S3", "D5", "A4"):
            h = get_group(name)
            assert search_images(_MapSearch, h, a5, False) == \
                search_images(PairClosureSearch, h, a5, False)

    def test_automorphisms_of_sl25(self):
        g = special_linear_2_5()
        want = search_images(PairClosureSearch, g, g, True)
        assert search_images(_MapSearch, g, g, True) == want
        assert [m.images for m in enumerate_automorphisms(g)] == sorted(want)

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


class TestSerialization:
    def test_round_trip(self):
        from centext.groups import FiniteGroup
        g = get_group("D4")
        d = g.to_dict()
        g2 = FiniteGroup.from_dict(d)
        assert g2.table == g.table and g2.name == g.name
        assert g2.to_dict() == d

    @pytest.mark.parametrize("name", [["x"], 3, True, {"n": 1}])
    def test_name_must_be_a_string_or_null(self, name):
        from centext.groups import FiniteGroup
        with pytest.raises(ValueError, match="'name' must be a string"):
            FiniteGroup.from_dict({"table": [[0]], "name": name})
        unnamed = FiniteGroup.from_dict({"table": [[0]], "name": None})
        assert unnamed.name is None
