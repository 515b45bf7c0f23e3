import hashlib
import itertools
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from centext.catalog import (
    alternating_group,
    catalog_names,
    get_group,
    special_linear_2_5,
    symmetric_group,
)
from centext.cocycles import (
    CocycleSpace,
    Cocycle2,
    apply_coboundary,
    are_cohomologous,
    coboundary_from,
    cocycle_inv,
    cocycle_mul,
    compute_cocycle_space,
    is_cocycle,
    is_epsilon_endomorphism,
    is_symmetric,
    make_cocycle,
    pullback,
    pushforward,
    sim_is_trivial,
    trivial_cocycle,
)
import centext
from centext import cocycles
from centext.cocycles import (
    _coboundary_pivots,
    _expand,
    _generator_columns,
    _hopf_system,
    _least_in_coset,
    _merge_invariant_factors,
    _row_space,
    _solve_coordinate,
    _unit_coboundary,
)
from centext.errors import (
    ConditionsFailed,
    DimensionMismatch,
    GroupMismatch,
    NotAbelian,
    NotAbelianCoefficients,
    NotNormalized,
    PreconditionViolated,
)
from centext.extensions import (
    build_extension,
    central_quotient_data,
    is_homomorphism_direct,
)
from centext.groups import (
    FiniteGroup,
    GroupMap,
    brute_force_isomorphism,
    center,
    cyclic_group,
    direct_product,
    enumerate_automorphisms,
    enumerate_homs,
    enumerate_isomorphisms,
)
from centext.intlinalg import (
    IntLattice,
    IntMatrix,
    abelian_invariants,
    smith_normal_form,
    solve_linear_mod,
)
from oracles import (
    cocycle2_error,
    cocycle_columns,
    cocycle_compose_checks,
    dense_row_space,
    expand_forms,
    least_in_coset_by_slot,
    pair_slot_b2,
    pair_slot_representatives,
)


def brute_space(g1, g2):
    """Independent oracle: enumerate every table, keep the cocycles,
    enumerate every normalized map's coboundary, and canonicalize each
    cocycle to the lex-least member of its coset."""
    n1, n2 = g1.order, g2.order
    pairs = [(h, g) for h in range(1, n2) for g in range(1, n2)]
    assert n1 ** len(pairs) <= 2 ** 20

    def full_table(vals):
        tab = [[0] * n2 for _ in range(n2)]
        for (h, g), v in zip(pairs, vals):
            tab[h][g] = v
        return tuple(tuple(r) for r in tab)

    cocycles = []
    for vals in itertools.product(range(n1), repeat=len(pairs)):
        tab = full_table(vals)
        ok, _ = is_cocycle(g1, g2, tab)
        if ok:
            cocycles.append(tab)

    coboundaries = set()
    for images in itertools.product(range(n1), repeat=n2 - 1):
        delta = GroupMap(dom=g2, cod=g1, images=(0,) + images)
        coboundaries.add(coboundary_from(delta).table)

    def add_tables(t1, t2):
        return tuple(tuple(g1.table[a][b] for a, b in zip(r1, r2))
                     for r1, r2 in zip(t1, t2))

    classes = {min(add_tables(c, b) for b in coboundaries) for c in cocycles}
    return cocycles, coboundaries, classes


# Z2xZ6 has the invariant factors (2, 6): over Z3 the d = 2 factor has
# one class and the d = 6 factor three
QUICK_PAIRS = [("Z2", "Z2"), ("Z2", "Z3"), ("Z2", "Z4"),
               ("Z3", "Z3"), ("Z2", "K4"), ("Z2xZ6", "Z3")]


class TestCocycleBasics:
    def test_trivial_is_cocycle(self):
        g1, g2 = get_group("Z4"), get_group("S3")
        e = trivial_cocycle(g1, g2)
        ok, witness = is_cocycle(g1, g2, e.table)
        assert ok and witness is None
        assert e.is_trivial()
        assert is_symmetric(e)

    def test_dimension_mismatch(self):
        g1, g2 = get_group("Z2"), get_group("Z3")
        with pytest.raises(DimensionMismatch):
            is_cocycle(g1, g2, ((0, 0), (0, 1)))
        with pytest.raises(DimensionMismatch):
            Cocycle2(g1=g1, g2=g2, table=((0, 0), (0, 1)))

    def test_entries_outside_coefficient_range(self):
        g1, g2 = get_group("Z2"), get_group("Z2")
        with pytest.raises(DimensionMismatch):
            is_cocycle(g1, g2, ((0, 0), (0, 7)))

    def test_normalization_witness(self):
        g1, g2 = get_group("Z2"), get_group("Z2")
        ok, witness = is_cocycle(g1, g2, ((0, 1), (0, 0)))
        assert not ok and witness == ("normalization", 1)
        with pytest.raises(NotNormalized):
            Cocycle2(g1=g1, g2=g2, table=((0, 1), (0, 0)))

    def test_identity_witness(self):
        g1, g2 = get_group("Z2"), get_group("Z3")
        # value at (1,1) only: fails e(1,1)+e(2,2) = e(1,1)+e(1,2)
        tab = ((0, 0, 0), (0, 1, 0), (0, 0, 0))
        ok, witness = is_cocycle(g1, g2, tab)
        assert not ok
        assert witness[0] == "identity"
        h, g, k = witness[1]
        mul = g1.table
        hg, gk = g2.table[h][g], g2.table[g][k]
        assert mul[tab[h][g]][tab[hg][k]] != mul[tab[g][k]][tab[h][gk]]

    def test_make_cocycle_rejects(self):
        g1, g2 = get_group("Z2"), get_group("Z3")
        with pytest.raises(ValueError):
            make_cocycle(g1, g2, ((0, 0, 0), (0, 1, 0), (0, 0, 0)))

    def test_make_cocycle_rejects_non_integers(self):
        # truncating 1.7 would give 1, a valid Z2:Z2 cocycle
        g = get_group("Z2")
        for bad in (1.7, True, "1"):
            with pytest.raises(ValueError, match="not an integer"):
                make_cocycle(g, g, [[0, 0], [0, bad]])

    def test_value_range_checked(self):
        g1, g2 = get_group("Z2"), get_group("Z2")
        with pytest.raises(ValueError):
            Cocycle2(g1=g1, g2=g2, table=((0, 0), (0, 5)))

    @pytest.mark.parametrize("table,message", [
        (((0, 0, 0), (0, 1)), "cocycle table must be g2.order square"),
        (((0, 0, 1), (0, 5, -1), (0, 2, 0)), "cocycle value 5 outside g1"),
        (((0, 0, 0), (0, -1, 0), (0, 0, 7)), "cocycle value -1 outside g1"),
        (((0, 0, 0), (0, 1, 0), (1, 0, 0)),
         "cocycle not normalized at (2,0)/(0,2)"),
        (((0, 0, 1), (1, 0, 0), (0, 0, 0)),
         "cocycle not normalized at (1,0)/(0,1)"),
    ])
    def test_check_messages_name_the_first_offender(self, table, message):
        g1, g2 = get_group("Z4"), get_group("Z3")
        kind, expected = cocycle2_error(g1, g2, table)
        assert expected == message
        with pytest.raises(kind) as err:
            Cocycle2(g1=g1, g2=g2, table=table)
        assert type(err.value) is kind and str(err.value) == message

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.lists(st.lists(
        st.sampled_from((0, 0, 0, 1, 2, -1, 3)), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    def test_checks_match_the_loops(self, rows):
        g1, g2 = get_group("Z3"), cyclic_group(len(rows))
        table = tuple(map(tuple, rows))
        expected = cocycle2_error(g1, g2, table)
        if expected is None:
            assert Cocycle2(g1=g1, g2=g2, table=table).table == table
            return
        with pytest.raises(expected[0]) as err:
            Cocycle2(g1=g1, g2=g2, table=table)
        assert type(err.value) is expected[0]
        assert str(err.value) == expected[1]

    def test_mul_inv_group_structure(self):
        g1, g2 = get_group("Z2"), get_group("K4")
        cocycles, _, _ = brute_space(g1, g2)
        sample = [Cocycle2(g1=g1, g2=g2, table=t) for t in cocycles[:6]]
        for a in sample:
            for b in sample:
                prod = cocycle_mul(a, b)
                assert is_cocycle(g1, g2, prod.table)[0]
            assert cocycle_mul(a, cocycle_inv(a)).is_trivial()


def is_cocycle_by_full_scan(g1, g2, table):
    """Reference for is_cocycle: the identity on every triple."""
    n2 = g2.order
    for y in range(n2):
        if table[y][0] != 0 or table[0][y] != 0:
            return False, ("normalization", y)
    mul = g1.table
    for h in range(1, n2):
        for g in range(1, n2):
            hg = g2.table[h][g]
            for k in range(1, n2):
                gk = g2.table[g][k]
                if mul[table[h][g]][table[hg][k]] != \
                        mul[table[g][k]][table[h][gk]]:
                    return False, ("identity", (h, g, k))
    return True, None


def is_homomorphism_direct_by_full_scan(source, target, phi):
    """Reference for is_homomorphism_direct: both families on every
    kernel and section factor."""
    g1, g2 = source.g1, source.g2
    e1, n2 = source.cocycle.table, g2.order
    mul_t = target.group.table
    for x in range(g1.order):
        for y in range(n2):
            left = phi(x * n2 + y)
            for xp in range(g1.order):
                if mul_t[left][phi(xp * n2)] != \
                        phi(g1.table[x][xp] * n2 + y):
                    return False, ("kernel_factor", (x, y, xp))
            for yp in range(n2):
                if mul_t[left][phi(yp)] != phi(
                        g1.table[x][e1[y][yp]] * n2 + g2.table[y][yp]):
                    return False, ("section_factor", (x, y, yp))
    return True, None


GENERATOR_CHECK_PAIRS = [("Z2", "Z2"), ("Z2", "K4"), ("Z4", "K4"),
                         ("Z2", "D4"), ("Z2", "Q8"), ("Z3", "S3"),
                         ("Z2", "Z2xZ2xZ2"), ("Z3", "Z3")]


def perturbed(table, data, n1):
    """table with one entry set to a drawn value, or unchanged."""
    tab = [list(r) for r in table]
    if data.draw(st.booleans()):
        n2 = len(tab)
        h = data.draw(st.integers(0, n2 - 1))
        g = data.draw(st.integers(0, n2 - 1))
        tab[h][g] = data.draw(st.integers(0, n1 - 1))
    return tuple(tuple(r) for r in tab)


class TestGeneratorChecks:
    """is_cocycle and is_homomorphism_direct test generators only and
    rescan on failure; answers and witnesses equal the full scans."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_perturbed_cocycles_match_the_full_scan(self, data):
        g1, g2 = (get_group(n) for n in
                  data.draw(st.sampled_from(GENERATOR_CHECK_PAIRS)))
        space = compute_cocycle_space(g1, g2)
        base = data.draw(st.sampled_from(space.class_representatives
                                         + space.z2_generators))
        table = perturbed(base.table, data, g1.order)
        assert is_cocycle(g1, g2, table) == \
            is_cocycle_by_full_scan(g1, g2, table)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_nonabelian_values_match_the_full_scan(self, data):
        # values pushed into a non-abelian group: they commute until a
        # perturbation brings in one that does not
        g1 = get_group(data.draw(st.sampled_from(["Z2", "Z3"])))
        g2 = get_group(data.draw(st.sampled_from(["K4", "S3", "Z2xZ4"])))
        target = get_group(data.draw(st.sampled_from(["S3", "D4", "Q8"])))
        rep = data.draw(st.sampled_from(
            compute_cocycle_space(g1, g2).class_representatives))
        delta = data.draw(st.sampled_from(enumerate_homs(g1, target)))
        table = perturbed(pushforward(delta, rep).table, data, target.order)
        assert is_cocycle(target, g2, table) == \
            is_cocycle_by_full_scan(target, g2, table)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_perturbed_carrier_maps_match_the_full_scan(self, data):
        g1, g2 = (get_group(n) for n in
                  data.draw(st.sampled_from(GENERATOR_CHECK_PAIRS)))
        reps = compute_cocycle_space(g1, g2).class_representatives
        src = build_extension(data.draw(st.sampled_from(reps)))
        tgt = build_extension(data.draw(st.sampled_from(reps)))
        maps = enumerate_isomorphisms(src.group, tgt.group) or \
            [GroupMap(dom=src.group, cod=tgt.group,
                      images=(0,) * src.group.order)]
        images = list(data.draw(st.sampled_from(maps)).images)
        if data.draw(st.booleans()):
            x = data.draw(st.integers(1, len(images) - 1))
            images[x] = data.draw(st.integers(0, tgt.group.order - 1))
        phi = GroupMap(dom=src.group, cod=tgt.group, images=tuple(images))
        assert is_homomorphism_direct(src, tgt, phi) == \
            is_homomorphism_direct_by_full_scan(src, tgt, phi)


class TestCoboundaries:
    def test_indicator_coboundary_table(self):
        g1, g2 = get_group("Z2"), get_group("K4")
        delta = GroupMap(dom=g2, cod=g1, images=(0, 1, 0, 0))
        psi = coboundary_from(delta)
        assert psi.table == ((0, 0, 0, 0), (0, 0, 1, 1),
                             (0, 1, 0, 1), (0, 1, 1, 0))
        assert is_cocycle(g1, g2, psi.table)[0]

    def test_coboundary_requires_normalized(self):
        g1, g2 = get_group("Z2"), get_group("Z2")
        with pytest.raises(NotNormalized):
            GroupMap(dom=g2, cod=g1, images=(1, 0))

    def test_hom_coboundary_is_trivial(self):
        g1, g2 = get_group("Z2"), get_group("Z4")
        # reduction mod 2 is a homomorphism Z4 -> Z2
        delta = GroupMap(dom=g2, cod=g1, images=(0, 1, 0, 1))
        assert delta.is_homomorphism()
        assert coboundary_from(delta).is_trivial()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_coboundary_is_cocycle_and_cohomologous_to_trivial(
            self, data):
        name1, name2 = data.draw(st.sampled_from(
            [("Z2", "Z4"), ("Z3", "Z3"), ("Z4", "K4"), ("Z2", "S3")]))
        g1, g2 = get_group(name1), get_group(name2)
        images = (0,) + tuple(
            data.draw(st.integers(0, g1.order - 1))
            for _ in range(g2.order - 1))
        delta = GroupMap(dom=g2, cod=g1, images=images)
        psi = coboundary_from(delta)
        assert is_cocycle(g1, g2, psi.table)[0]
        witness = are_cohomologous(trivial_cocycle(g1, g2), psi)
        assert witness is not None
        assert apply_coboundary(witness.t, trivial_cocycle(g1, g2)).table \
            == psi.table


class TestAreCohomologous:
    def test_group_mismatch(self):
        a = trivial_cocycle(get_group("Z2"), get_group("Z2"))
        b = trivial_cocycle(get_group("Z2"), get_group("Z3"))
        with pytest.raises(GroupMismatch):
            are_cohomologous(a, b)

    def test_nonabelian_coefficients_rejected(self):
        e = trivial_cocycle(get_group("S3"), get_group("Z2"))
        with pytest.raises(NotAbelian, match="abelian coefficients"):
            are_cohomologous(e, e)

    def test_nontrivial_class_detected(self):
        g1 = g2 = get_group("Z2")
        e = Cocycle2(g1=g1, g2=g2, table=((0, 0), (0, 1)))
        assert are_cohomologous(trivial_cocycle(g1, g2), e) is None

    def test_exhaustive_partition_matches(self):
        g1, g2 = get_group("Z2"), get_group("Z3")
        cocycles, coboundaries, _ = brute_space(g1, g2)

        def add_tables(t1, t2):
            return tuple(tuple(g1.table[a][b] for a, b in zip(r1, r2))
                         for r1, r2 in zip(t1, t2))

        for t1 in cocycles:
            for t2 in cocycles:
                related = t2 in {add_tables(t1, b) for b in coboundaries}
                e1 = Cocycle2(g1=g1, g2=g2, table=t1)
                e2 = Cocycle2(g1=g1, g2=g2, table=t2)
                witness = are_cohomologous(e1, e2)
                assert (witness is not None) == related

    def test_trivial_coefficient_group(self):
        g1, g2 = get_group("Z1"), get_group("S3")
        w = are_cohomologous(trivial_cocycle(g1, g2),
                             trivial_cocycle(g1, g2))
        assert w is not None and w.t.is_trivial()

    @pytest.mark.parametrize("quotient", ["Z3", "K4", "D4"])
    def test_a_wrong_coset_pass_fails_the_witness_check(self, quotient,
                                                        monkeypatch):
        # the pass's map with t(1) moved differs from a witness by a map
        # nonzero at one point only, never a homomorphism past order 2
        g1, g2 = get_group("Z2"), get_group(quotient)
        e1 = compute_cocycle_space(g1, g2).class_representatives[-1]
        t = GroupMap(dom=g2, cod=g1, images=(0, 1) + (0,) * (g2.order - 2))
        e2 = apply_coboundary(t, e1)
        assert are_cohomologous(e1, e2) is not None

        def moved(lattices, vecs, element_of):
            images = _least_in_coset(lattices, vecs, element_of)
            return [1 - images[0], *images[1:]]
        monkeypatch.setattr(cocycles, "_least_in_coset", moved)
        with pytest.raises(ConditionsFailed,
                           match="not a coboundary witness"):
            are_cohomologous(e1, e2)

    def test_the_witness_check_stands_under_optimization(self):
        script = "\n".join([
            "import sys",
            "from centext import ConditionsFailed, cocycles, get_group",
            "assert False",
            "e = cocycles.trivial_cocycle(get_group('Z2'), get_group('Z3'))",
            "cocycles._least_in_coset = lambda *args: [1, 0]",
            "try:",
            "    cocycles.are_cohomologous(e, e)",
            "except ConditionsFailed:",
            "    sys.exit(0)",
            "sys.exit(1)",
        ])
        src_dir = os.path.dirname(os.path.dirname(centext.__file__))
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              env={**os.environ, "PYTHONPATH": src_dir},
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestComputeSpace:
    @pytest.mark.parametrize("n1,n2", [(2, 2), (2, 3), (2, 4), (3, 3),
                                       (2, 6), (3, 6), (4, 6), (6, 6)])
    def test_cyclic_class_count_is_gcd(self, n1, n2):
        space = compute_cocycle_space(get_group(f"Z{n1}"),
                                      get_group(f"Z{n2}"))
        assert space.h2_order == math.gcd(n1, n2)
        assert len(space.class_representatives) == space.h2_order

    @pytest.mark.parametrize("name1,name2", QUICK_PAIRS)
    def test_exhaustive_agreement(self, name1, name2):
        g1 = (direct_product(get_group("Z2"), get_group("Z6"))
              if name1 == "Z2xZ6" else get_group(name1))
        g2 = get_group(name2)
        cocycles, coboundaries, classes = brute_space(g1, g2)
        space = compute_cocycle_space(g1, g2)
        assert space.z2_order == len(cocycles)
        assert space.b2_order == len(coboundaries)
        assert space.h2_order == len(classes)
        assert {c.table for c in space.class_representatives} == classes

    def test_klein_coefficients_frozen_counts(self):
        space = compute_cocycle_space(get_group("Z2"), get_group("K4"))
        assert space.z2_order == 16
        assert space.b2_order == 2
        assert space.h2_order == 8
        assert space.h2_invariant_factors == (2, 2, 2)

    def test_z4_coefficients_on_klein(self):
        space = compute_cocycle_space(get_group("Z4"), get_group("K4"))
        assert space.h2_order == 8
        assert space.h2_invariant_factors == (2, 2, 2)

    def test_klein_coefficients_on_z4(self):
        space = compute_cocycle_space(get_group("K4"), get_group("Z4"))
        assert space.h2_order == 4
        assert space.h2_invariant_factors == (2, 2)

    def test_z4_on_z4(self):
        space = compute_cocycle_space(get_group("Z4"), get_group("Z4"))
        assert space.h2_order == 4
        assert space.h2_invariant_factors == (4,)

    def test_trivial_sides(self):
        s1 = compute_cocycle_space(get_group("Z1"), get_group("S3"))
        assert s1.h2_order == 1 and s1.z2_order == 1
        s2 = compute_cocycle_space(get_group("Z6"), get_group("Z1"))
        assert s2.h2_order == 1
        assert len(s2.class_representatives) == 1

    def test_representatives_start_trivial_and_are_lex_minimal(self):
        g1, g2 = get_group("Z2"), get_group("K4")
        space = compute_cocycle_space(g1, g2)
        assert space.class_representatives[0].is_trivial()
        tables = [c.table for c in space.class_representatives]
        assert tables == sorted(tables)

    def test_representatives_pairwise_non_cohomologous(self):
        space = compute_cocycle_space(get_group("Z2"), get_group("K4"))
        reps = space.class_representatives
        for i, a in enumerate(reps):
            for b in reps[i + 1:]:
                assert are_cohomologous(a, b) is None

    def test_generators_satisfy_identity(self):
        space = compute_cocycle_space(get_group("Z4"), get_group("K4"))
        for c in space.z2_generators + space.b2_generators:
            assert is_cocycle(space.g1, space.g2, c.table)[0]

    def test_nonabelian_coefficients_rejected(self):
        with pytest.raises(NotAbelianCoefficients):
            compute_cocycle_space(get_group("S3"), get_group("Z2"))

    def test_space_is_cached(self):
        a = compute_cocycle_space(get_group("Z2"), get_group("K4"))
        b = compute_cocycle_space(get_group("Z2"), get_group("K4"))
        assert a is b


@pytest.mark.slow
class TestExhaustiveLarger:
    @pytest.mark.parametrize("name1,name2", [("Z4", "Z4"), ("K4", "K4")])
    def test_exhaustive_agreement(self, name1, name2):
        g1, g2 = get_group(name1), get_group(name2)
        cocycles, coboundaries, classes = brute_space(g1, g2)
        space = compute_cocycle_space(g1, g2)
        assert space.z2_order == len(cocycles)
        assert space.b2_order == len(coboundaries)
        assert space.h2_order == len(classes)
        assert {c.table for c in space.class_representatives} == classes

    def test_klein_square_frozen_counts(self):
        space = compute_cocycle_space(get_group("K4"), get_group("K4"))
        assert space.z2_order == 256
        assert space.b2_order == 4
        assert space.h2_order == 64
        assert space.h2_invariant_factors == (2,) * 6


def span_mod(gens, d, n):
    """Every vector of (Z/d)^n in the span of gens."""
    span = {(0,) * n}
    for g in gens:
        g = tuple(x % d for x in g)
        if g in span:
            continue
        multiples = [(0,) * n]
        while True:
            y = tuple((a + b) % d for a, b in zip(multiples[-1], g))
            if y == multiples[0]:
                break
            multiples.append(y)
        span = {tuple((a + b) % d for a, b in zip(x, m))
                for x in span for m in multiples}
    return span


def old_path_space(g1, g2):
    """The earlier cohomology path, as an oracle: per invariant factor d
    of g1, Z^2 from solve_linear_mod on the cocycle identity over every
    triple and B^2 by enumerating the span of the unit coboundaries;
    then each class's lex-least member by enumerating B^2 on it (the
    cosets come from sweeping Z^2 in order, where the earlier path took
    them from a Smith form).  Returns the Z^2, B^2 and H^2 orders and
    the representatives as pair-slot tuples."""
    n2 = g2.order
    pairs = [(h, g) for h in range(1, n2) for g in range(1, n2)]
    index = {p: i for i, p in enumerate(pairs)}
    rows = []
    for h, g, k in itertools.product(range(1, n2), repeat=3):
        row = [0] * len(pairs)
        hg, gk = g2.table[h][g], g2.table[g][k]
        for pair, sign in (((h, g), 1), ((hg, k), 1), ((g, k), -1),
                           ((h, gk), -1)):
            if 0 not in pair:
                row[index[pair]] += sign
        rows.append(row)
    amat = IntMatrix.from_rows(rows)
    # the coboundary of the map sending w to 1 and everything else to 0
    b_gens = [[(g == w) - (g2.table[h][g] == w) + (h == w) for h, g in pairs]
              for w in range(1, n2)]
    pres = abelian_invariants(g1)
    z_per, b_per = [], []
    for d in pres.invariant_factors:
        res = solve_linear_mod(amat, [d] * amat.rows, [0] * amat.rows)
        z_per.append(span_mod(res.kernel, d, len(pairs)))
        b_per.append(span_mod(b_gens, d, len(pairs)))
    element = {c: pres.element_of(c) for c in itertools.product(
        *(range(d) for d in pres.invariant_factors))}

    def tables(per):
        return {tuple(element[t] for t in zip(*vecs))
                for vecs in itertools.product(*per)}

    z2, b2 = tables(z_per), tables(b_per)
    mul = g1.table
    seen, reps = set(), []
    for z in sorted(z2):
        if z in seen:
            continue
        reps.append(z)
        seen |= {tuple(mul[x][y] for x, y in zip(z, b)) for b in b2}
    return len(z2), len(b2), len(reps), reps


def relabelled(g, perm):
    """g with each element x renamed perm[x]."""
    table = [[0] * g.order for _ in range(g.order)]
    for x in range(g.order):
        for y in range(g.order):
            table[perm[x]][perm[y]] = perm[g.table[x][y]]
    return FiniteGroup(order=g.order, table=tuple(map(tuple, table)))


# Z2xZ4* is Z2xZ4 relabelled so that the element index is monotone in
# no invariant-factor coordinate
OLD_PATH_PAIRS = [("Z2", "D4"), ("Z3", "S3"), ("Z4", "Q8"), ("Z8", "Z4"),
                  ("Z6", "S3"), ("K4", "S3"), ("Z2xZ2xZ2", "K4"),
                  ("Z2xZ4", "K4"), ("Z2xZ4*", "K4")]

# sha256 of the are_cohomologous witnesses between each representative
# and its product with each of the first three B^2 generators, each the
# lex-least map in its coset of Hom(g2, g1); the witnesses reach
# certificate bytes
WITNESS_DIGESTS = {
    ("Z4", "K4"): "e089ed50585f65149a6b7b11d2cc5c24de7f51a58ca2c9c495d0b3c0e4ed702a",
    ("Z4", "Z4"): "a85a2c5e26d156923f80ba6eb05246d39d01f0d568471fbcba25a3621ac377df",
    ("K4", "K4"): "d278b4779b053c6382b178320b3f9997216e6b8cc6849ef63ffa6773331e6229",
    ("Z6", "S3"): "d5b376220657cbe6af1b32912cb65c75cef2f9643a3bccd03e6a4be2cb6a0a7e",
    ("Z4", "D4"): "5fa95e81698b021464fb83f4ca8cec18340d196ade4a9653c6c7577198fc9a05",
    ("Z2xZ4", "Z4"): "34adc7b48d0f0078ba9ecf22cf0bfbe99c04002c879bdb235445575c6d6faf86",
    ("Z8", "Z4"): "550084f2ba15da415a2804980bb7e475c99dc115dc567d1e68f2ddafa7b8d982",
    ("Z2", "D4"): "40fc16eae1cc6606defc251b7c09966c1f8efd8921fab7bd758b24217527fcbc",
}


class TestModularPath:
    @pytest.mark.parametrize("name1,name2", OLD_PATH_PAIRS)
    def test_matches_the_old_path(self, name1, name2):
        g1 = (relabelled(get_group("Z2xZ4"), (0, 5, 3, 6, 1, 7, 2, 4))
              if name1 == "Z2xZ4*" else get_group(name1))
        g2 = get_group(name2)
        z2, b2, h2, reps = old_path_space(g1, g2)
        space = compute_cocycle_space(g1, g2)
        assert (space.z2_order, space.b2_order, space.h2_order) == (z2, b2, h2)
        n2 = g2.order
        assert [tuple(c.table[h][g] for h in range(1, n2)
                      for g in range(1, n2))
                for c in space.class_representatives] == reps

    @pytest.mark.parametrize("name1,name2",
                             [("Z2", "A4"), ("Z2", "D5"), ("Z6", "S3")])
    def test_z2_generators_are_cocycles(self, name1, name2):
        space = compute_cocycle_space(get_group(name1), get_group(name2))
        assert space.z2_generators
        for c in space.z2_generators:
            assert is_cocycle(space.g1, space.g2, c.table)[0]

    @pytest.mark.parametrize("pair", sorted(WITNESS_DIGESTS), ids=":".join)
    def test_cohomology_witnesses_pinned(self, pair):
        space = compute_cocycle_space(*map(get_group, pair))
        rows = []
        for i, rep in enumerate(space.class_representatives):
            for j, b in enumerate(space.b2_generators[:3]):
                w = are_cohomologous(rep, cocycle_mul(rep, b))
                rows.append([i, j, list(w.t.images)])
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == WITNESS_DIGESTS[pair]

    # H^2(G, A) = Hom(M(G), A) + Ext(G^ab, A), with the Schur
    # multipliers M(S4) = M(A4) = Z2, M(D5) = 0, M(Z2xZ4) = Z2
    @pytest.mark.parametrize("name1,name2,factors", [
        ("Z2", "S4", (2, 2)),        # Hom(Z2, Z2) + Ext(Z2, Z2)
        ("Z3", "A4", (3,)),          # Hom(Z2, Z3) = 0, Ext(Z3, Z3)
        ("Z5", "D5", ()),            # Ext(Z2, Z5) = 0
        ("Z2", "Z2xZ4", (2, 2, 2)),  # Hom(Z2, Z2) + Ext(Z2xZ4, Z2)
    ])
    def test_reach(self, name1, name2, factors):
        space = compute_cocycle_space(get_group(name1), get_group(name2))
        assert space.h2_invariant_factors == factors
        assert space.z2_order == space.b2_order * space.h2_order


def pair_slot_cocycles(g2, d):
    """The earlier Z^2 solve, as an oracle: one unknown per nonidentity
    pair slot (h, g), the identity at every (h, g, k) with g in
    g2.generators, and the kernel mod d read off the echelon form of
    [A^T | I], where the rows whose A part vanishes carry it."""
    n2 = g2.order
    npairs = (n2 - 1) ** 2
    columns = [{} for _ in range(npairs)]
    neq = 0
    for h in range(1, n2):
        for g in g2.generators:
            hg = g2.table[h][g]
            for k in range(1, n2):
                gk = g2.table[g][k]
                for (x, y), sign in (((h, g), 1), ((hg, k), 1),
                                     ((g, k), -1), ((h, gk), -1)):
                    if x and y:
                        col = columns[(x - 1) * (n2 - 1) + y - 1]
                        col[neq] = col.get(neq, 0) + sign
                neq += 1
    system = IntLattice(neq + npairs, d)
    for j, col in enumerate(columns):
        row = [0] * (neq + npairs)
        for eq, coeff in col.items():
            row[eq] = coeff
        row[neq + j] = 1
        system.add(row)
    return system.tail(neq)


def coboundary_matrix(g2):
    """The earlier coboundary map t -> psi_t on normalized maps: one row
    per nonidentity pair (h, g), one column per nonidentity point w, so
    column w is the coboundary of the unit map at w."""
    n2 = g2.order
    return IntMatrix.from_rows(
        [[(g == w) - (g2.table[h][g] == w) + (h == w) for w in range(1, n2)]
         for h in range(1, n2) for g in range(1, n2)])


def contains(lattice, other):
    return all(not any(lattice.reduce(other.dense_row(p)))
               for p in other.pivot_rows)


SMALL_QUOTIENTS = [name for name in catalog_names()
                   if get_group(name).order <= 12]


class TestPairSlotOracle:
    @pytest.mark.parametrize("name", SMALL_QUOTIENTS)
    def test_same_cocycle_lattice(self, name):
        g2 = get_group(name)
        npairs = (g2.order - 1) ** 2
        for d in (2, 3, 4, 6):
            expected = pair_slot_cocycles(g2, d)
            coord = _solve_coordinate(g2, d)
            got = IntLattice(npairs, d, _expand(g2, d, coord.z_columns))
            assert got.index_in_ambient() == expected.index_in_ambient()
            assert contains(got, expected) and contains(expected, got)
            assert coord.z_order * expected.index_in_ambient() == d ** npairs
            # B^2 over the pair slots, spanned by the columns of the
            # coboundary matrix, against B^2 in generator columns
            b2 = IntLattice(npairs, d)
            for vec in coboundary_matrix(g2).transpose().data:
                b2.add(vec)
            assert coord.b_order * b2.index_in_ambient() == d ** npairs


def solve_linear_mod_witness(e1, e2):
    """The earlier are_cohomologous, as the solvability reference: per
    invariant factor d of g1, a fresh solve_linear_mod of the coboundary
    system against e2 - e1.  The images of one witness t, or None."""
    g1, g2 = e1.g1, e1.g2
    n2 = g2.order
    pres = abelian_invariants(g1)
    pairs = [(h, g) for h in range(1, n2) for g in range(1, n2)]
    diff = {(h, g): g1.table[e2.table[h][g]][g1.inverses[e1.table[h][g]]]
            for h, g in pairs}
    a = coboundary_matrix(g2)
    t_coords = [[0] * len(pres.invariant_factors) for _ in range(n2)]
    for ci, d in enumerate(pres.invariant_factors):
        b = [pres.coords[diff[p]][ci] for p in pairs]
        res = solve_linear_mod(a, [d] * len(pairs), b)
        if res.particular is None:
            return None
        for y in range(1, n2):
            t_coords[y][ci] = res.particular[y - 1] % d
    return tuple(pres.element_of(tuple(c)) for c in t_coords)


def assert_least_witness(e1, e2, homs):
    """are_cohomologous(e1, e2) is None exactly when the reference finds
    no witness, and otherwise its t is the least image array among the
    witnesses t_ref * h, h running over homs = Hom(g2, g1)."""
    w = are_cohomologous(e1, e2)
    ref = solve_linear_mod_witness(e1, e2)
    if ref is None:
        assert w is None
        return w
    mul = e1.g1.table
    assert w.t.images == min(tuple(mul[x][y] for x, y in zip(ref, h.images))
                             for h in homs)
    return w


# d = 4 and d = 6 factors, and coefficients with two invariant factors
WITNESS_ORACLE_PAIRS = [("Z2", "K4"), ("Z4", "K4"), ("Z2", "D4"),
                        ("Z2", "Q8"), ("Z3", "Z3"), ("Z4", "D4"),
                        ("Z6", "S3"), ("K4", "S3"), ("Z2xZ4", "K4")]


class TestWitnessOracle:
    @pytest.mark.parametrize("pair", WITNESS_ORACLE_PAIRS, ids=":".join)
    def test_class_pairs_and_coboundary_shifts(self, pair):
        g1, g2 = map(get_group, pair)
        space = compute_cocycle_space(g1, g2)
        homs = enumerate_homs(g2, g1)
        reps = space.class_representatives
        for e1, e2 in itertools.product(reps, repeat=2):
            w = assert_least_witness(e1, e2, homs)
            assert (w is not None) == (e1 is e2)
        for rep in reps:
            for b in space.b2_generators:
                assert assert_least_witness(rep, cocycle_mul(rep, b), homs)

    @pytest.mark.parametrize("pair", [("Z4", "K4"), ("Z2", "D4")],
                             ids=":".join)
    def test_upper_differences(self, pair):
        # the cocycles upper_isomorphic tests against the trivial one
        g1, g2 = map(get_group, pair)
        reps = compute_cocycle_space(g1, g2).class_representatives
        triv = trivial_cocycle(g1, g2)
        homs = enumerate_homs(g2, g1)
        autos2 = enumerate_automorphisms(g2)
        hits = 0
        for e1, e2 in itertools.islice(itertools.product(reps, repeat=2), 8):
            inv2 = cocycle_inv(e2)
            for sigma in enumerate_automorphisms(g1):
                pushed = pushforward(sigma, e1)
                for rho in autos2:
                    w = assert_least_witness(
                        triv, cocycle_mul(pushed, pullback(inv2, rho)), homs)
                    hits += w is not None
        assert hits

    def test_order_120_pair(self):
        big = special_linear_2_5()
        kernel, quotient, eps, _ = central_quotient_data(
            big, sorted(center(big).members))
        a5, z2 = get_group("A5"), get_group("Z2")
        transported = pushforward(
            brute_force_isomorphism(kernel, z2),
            pullback(eps, brute_force_isomorphism(a5, quotient)))
        assert assert_least_witness(trivial_cocycle(z2, a5), transported,
                                    enumerate_homs(a5, z2)) is None


# (quotient, d) pairs for the oracles of the sparse elimination and of
# the pivot-slot coset pass
ORACLE_CASES = ([(name, d) for name in SMALL_QUOTIENTS for d in (2, 3, 4, 6)]
                + [("S4", 2)])


def checked_coset_pass(monkeypatch):
    """Route cocycles._least_in_coset through a check against the
    slot-by-slot pass; returns the list of checked calls."""
    calls = []

    def checked(lattices, vecs, element_of):
        got = _least_in_coset(lattices, vecs, element_of)
        assert got == least_in_coset_by_slot(lattices, vecs, element_of,
                                             len(vecs[0]))
        calls.append(got)
        return got
    monkeypatch.setattr(cocycles, "_least_in_coset", checked)
    return calls


class TestSparseOracles:
    @pytest.mark.parametrize("name,d", ORACLE_CASES)
    def test_row_space_matches_the_dense_elimination(self, name, d):
        _, chords, equations = _hopf_system(get_group(name))
        nunknowns = len(chords)
        kept, columns = _row_space(equations, nunknowns, d)
        dense_kept, dense_columns = dense_row_space(
            ([eq.get(u, 0) for u in range(nunknowns)] for eq in equations),
            nunknowns, d)
        assert kept == dense_kept
        assert {p: columns.dense_row(p)
                for p in columns.pivot_rows} == dense_columns
        assert columns.ncols == len(dense_kept) + nunknowns

    @pytest.mark.parametrize("name,d", ORACLE_CASES)
    def test_coset_pass_matches_slot_by_slot(self, name, d):
        g1, g2 = get_group(f"Z{d}"), get_group(name)
        # a fresh space, past the cache, so every class runs the pass
        space = compute_cocycle_space.__wrapped__(g1, g2)
        assert [c.table for c in space.class_representatives] == (
            pair_slot_representatives(g1, g2))

    # several invariant factors, where one min runs across the factors,
    # and the trivial coefficient group
    @pytest.mark.parametrize("pair", [
        *itertools.product(("K4", "Z2xZ4", "Z2xZ2xZ2"), ("D4", "Q8", "A4")),
        ("Z1", "Z1"), ("Z1", "Z2"), ("Z1", "D4"), ("K4", "Z1"),
        ("K4", "Z2"), ("Z2xZ4", "Z2")], ids=":".join)
    def test_coset_pass_matches_slot_by_slot_across_factors(self, pair):
        g1, g2 = map(get_group, pair)
        space = compute_cocycle_space.__wrapped__(g1, g2)
        assert [c.table for c in space.class_representatives] == (
            pair_slot_representatives(g1, g2))

    @pytest.mark.parametrize("name,d", ORACLE_CASES)
    def test_pivots_match_the_pair_slot_lattice(self, name, d):
        g2 = get_group(name)
        n2 = g2.order
        slots = [(h, g) for h in range(1, n2) for g in range(1, n2)]
        pivots = _coboundary_pivots(g2, d)
        lattice = pair_slot_b2(g2, d)
        assert sorted(pivots) == sorted(lattice.pivot_rows)
        for i, (gi, tau) in pivots.items():
            assert gi == lattice.pivot(i)
            assert tau[0] == 0
            psi = [(tau[h] + tau[g] - tau[g2.table[h][g]]) % d
                   for h, g in slots[:i + 1]]
            assert psi == [0] * i + [gi]
        assert math.prod(d // gi for gi, _ in pivots.values()) == (
            _solve_coordinate(g2, d).b_order)

    @pytest.mark.parametrize("pair", WITNESS_ORACLE_PAIRS, ids=":".join)
    def test_witness_pass_matches_slot_by_slot(self, pair, monkeypatch):
        calls = checked_coset_pass(monkeypatch)
        space = compute_cocycle_space.__wrapped__(*map(get_group, pair))
        reps = space.class_representatives
        for e1, e2 in itertools.product(reps, repeat=2):
            are_cohomologous(e1, e2)
        for rep in reps:
            for b in space.b2_generators:
                assert are_cohomologous(rep, cocycle_mul(rep, b))
        assert len(calls) > len(reps)


# every catalog quotient of order <= 24, and A5
HOPF_QUOTIENTS = [name for name in catalog_names()
                  if get_group(name).order <= 24] + ["A5"]


class TestCocycleSystemOracle:
    """Hopf's system against the earlier one: the cocycle identity in
    generator columns, one equation per (x, non-tree edge)."""

    @pytest.mark.parametrize("name", HOPF_QUOTIENTS)
    def test_same_cocycle_lattice_in_columns(self, name):
        g2 = get_group(name)
        forms, nunknowns, equations = cocycle_columns(g2)
        assert nunknowns == len(_generator_columns(g2))
        for d in (2, 3, 4, 6):
            kept, columns = _row_space(equations, nunknowns, d)
            expected = columns.tail(len(kept))
            z_columns = _solve_coordinate(g2, d).z_columns
            got = IntLattice(nunknowns, d, z_columns)
            assert got.index_in_ambient() == expected.index_in_ambient()
            assert contains(got, expected) and contains(expected, got)
            # the numeric tree walk writes each row out as the forms do
            assert list(_expand(g2, d, z_columns)) == [
                expand_forms(forms, vec, d) for vec in z_columns]

    @pytest.mark.parametrize("name", HOPF_QUOTIENTS)
    def test_system_size(self, name):
        g2 = get_group(name)
        n2, k = g2.order, len(g2.generators)
        tree, chords, equations = _hopf_system(g2)
        assert len(tree) == n2 - 1
        assert len(chords) == len(set(chords)) == max(n2 * (k - 1) + 1, 0)
        assert len(equations) <= k * len(chords)
        # the chord columns and the tree columns split the columns
        tree_columns = {(y - 1) * k + i for y, i, _ in tree if y}
        assert tree_columns.isdisjoint(chords)
        assert len(tree_columns) + len(chords) == k * (n2 - 1)

    def test_a5_system_size(self):
        _, chords, equations = _hopf_system(get_group("A5"))
        assert (len(chords), len(equations),
                sum(map(len, equations))) == (121, 358, 1150)


class TestUnitCoboundaryOracle:
    @pytest.mark.parametrize("name", HOPF_QUOTIENTS)
    def test_rows_match_the_slot_scan(self, name):
        g2 = get_group(name)
        n2 = g2.order
        pair_columns = coboundary_matrix(g2).transpose().data
        generator_slots = _generator_columns(g2)
        for w in range(1, n2):
            row = _unit_coboundary(g2, w, range(1, n2))
            assert [row.get(i, 0) for i in range((n2 - 1) ** 2)] == list(
                pair_columns[w - 1])
            assert _unit_coboundary(g2, w, g2.generators) == {
                i: v for i, (h, g) in enumerate(generator_slots)
                if (v := (g == w) - (g2.table[h][g] == w) + (h == w))}


class TestTextbookValues:
    """H^2(G, Z2) = Hom(H_1(G), Z2) + Ext(M(G), Z2) by the universal
    coefficient theorem, over quotients out of the earlier reach."""

    @pytest.mark.parametrize("g2,factors", [
        # H_1 = 0 and M = 0
        (special_linear_2_5, ()),
        # H_1 = Z2 and M = Z2
        (lambda: symmetric_group(5), (2, 2)),
        # H_1 = 0 and M = Z6
        (lambda: alternating_group(6), (2,)),
    ], ids=["SL25", "S5", "A6"])
    def test_h2_with_z2_coefficients(self, g2, factors):
        space = compute_cocycle_space(get_group("Z2"), g2())
        assert space.h2_invariant_factors == factors
        assert len(space.class_representatives) == 2 ** len(factors)
        assert space.z2_order == space.b2_order * space.h2_order

    def test_a6_with_z3_coefficients(self):
        # Hom(H_1, Z3) = 0 and Ext(Z6, Z3) = Z3
        space = compute_cocycle_space(get_group("Z3"), alternating_group(6))
        assert space.h2_invariant_factors == (3,)
        assert len(space.class_representatives) == 3
        assert space.z2_order == space.b2_order * space.h2_order


def sim_trivial_by_scan(g2):
    """Independent oracle for sim_is_trivial: search every normalized
    t: g2 -> g2 for a coboundary that is nontrivial, central-valued and
    a cocycle over g2 itself."""
    n = g2.order
    mul, inv = g2.table, g2.inverses
    central = {z for z in range(n)
               if all(mul[z][x] == mul[x][z] for x in range(n))}
    for images in itertools.product(range(n), repeat=n - 1):
        t = (0,) + images
        tab = tuple(tuple(mul[mul[t[g]][inv[t[mul[h][g]]]]][t[h]]
                          for g in range(n)) for h in range(n))
        if all(v == 0 for row in tab for v in row):
            continue
        if all(v in central for row in tab for v in row) and is_cocycle(
                g2, g2, tab)[0]:
            return False
    return True


class TestSimTriviality:
    def test_small_abelian(self):
        assert sim_is_trivial(get_group("Z1"))
        assert sim_is_trivial(get_group("Z2"))
        assert not sim_is_trivial(get_group("Z3"))
        assert not sim_is_trivial(get_group("Z4"))
        assert not sim_is_trivial(get_group("K4"))

    def test_kernel_side_matches_the_coboundary_count(self):
        # for abelian g, B^2(g, g) = 1 exactly when sim_is_trivial(g)
        for name in ("Z1", "Z2", "Z3", "Z4", "Z5", "K4"):
            g = get_group(name)
            assert sim_is_trivial(g) == (
                compute_cocycle_space(g, g).b2_order == 1), name

    def test_closed_form_matches_exhaustive_scan(self):
        groups = [g for g in map(get_group, catalog_names()) if g.order <= 8]
        assert len(groups) == 14
        for g in groups:
            assert sim_is_trivial(g) == sim_trivial_by_scan(g), g.name
        assert sim_is_trivial(get_group("S3"))
        assert not sim_is_trivial(get_group("D4"))


class TestEpsilonEndomorphism:
    def test_trivial_cocycle_accepts_any_map(self):
        g1 = get_group("Z4")
        e = trivial_cocycle(g1, get_group("Z2"))
        swap = GroupMap(dom=g1, cod=g1, images=(0, 2, 1, 3))
        assert not swap.is_homomorphism()
        assert is_epsilon_endomorphism(swap, e)

    def test_collapse_fails_on_nontrivial_values(self):
        g1, g2 = get_group("Z4"), get_group("Z2")
        e = Cocycle2(g1=g1, g2=g2, table=((0, 0), (0, 1)))
        collapse = GroupMap(dom=g1, cod=g1, images=(0, 1, 0, 1))
        assert not is_epsilon_endomorphism(collapse, e)
        ident = GroupMap(dom=g1, cod=g1, images=(0, 1, 2, 3))
        assert is_epsilon_endomorphism(ident, e)

    def test_homomorphisms_always_pass(self):
        g1, g2 = get_group("Z4"), get_group("Z4")
        rep = compute_cocycle_space(g1, g2).class_representatives[-1]
        doubling = GroupMap(dom=g1, cod=g1, images=(0, 2, 0, 2))
        assert doubling.is_homomorphism()
        assert is_epsilon_endomorphism(doubling, rep)

    def test_wrong_domain(self):
        e = trivial_cocycle(get_group("Z4"), get_group("Z2"))
        chi = GroupMap(dom=get_group("Z2"), cod=get_group("Z2"),
                       images=(0, 1))
        with pytest.raises(GroupMismatch):
            is_epsilon_endomorphism(chi, e)


class TestComposeChecks:
    def test_outputs_are_cocycles(self):
        g1, g2 = get_group("Z2"), get_group("K4")
        rep = compute_cocycle_space(g1, g2).class_representatives[-1]
        sigma = GroupMap(dom=g1, cod=g1, images=(0, 1))
        delta = GroupMap(dom=g1, cod=g2, images=(0, 1))
        assert delta.is_homomorphism()
        s_e, d_e, e_dd = cocycle_compose_checks(sigma, delta, rep)
        assert s_e.g1 == g1 and s_e.g2 == g2
        assert d_e.g1 == g2 and d_e.g2 == g2
        assert e_dd.g1 == g1 and e_dd.g2 == g1
        for out in (s_e, d_e, e_dd):
            assert is_cocycle(out.g1, out.g2, out.table)[0]

    def test_bad_sigma_rejected(self):
        g1, g2 = get_group("Z4"), get_group("Z4")
        rep = compute_cocycle_space(g1, g2).class_representatives[-1]
        assert not rep.is_trivial()
        collapse = GroupMap(dom=g1, cod=g1, images=(0, 1, 0, 1))
        delta = GroupMap(dom=g1, cod=g2, images=(0, 1, 2, 3))
        with pytest.raises(PreconditionViolated):
            cocycle_compose_checks(collapse, delta, rep)

    def test_bad_delta_rejected(self):
        g1, g2 = get_group("Z4"), get_group("K4")
        rep = trivial_cocycle(g1, g2)
        sigma = GroupMap(dom=g1, cod=g1, images=(0, 1, 2, 3))
        bad = GroupMap(dom=g1, cod=g2, images=(0, 1, 2, 1))
        assert not bad.is_homomorphism()
        with pytest.raises(PreconditionViolated):
            cocycle_compose_checks(sigma, bad, rep)


class TestMergeFactors:
    def test_merge(self):
        assert _merge_invariant_factors([]) == ()
        assert _merge_invariant_factors([2, 2, 2]) == (2, 2, 2)
        assert _merge_invariant_factors([2, 3]) == (6,)
        assert _merge_invariant_factors([2, 2, 3]) == (2, 6)
        assert _merge_invariant_factors([4, 6]) == (2, 12)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(2, 12), max_size=5))
    def test_merge_preserves_product_and_chains(self, factors):
        merged = _merge_invariant_factors(factors)
        assert math.prod(merged) == math.prod(factors)
        for a, b in zip(merged, merged[1:]):
            assert b % a == 0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 60), max_size=6))
    def test_merge_matches_the_smith_form(self, factors):
        diag = smith_normal_form(IntMatrix.from_rows(
            [[f * (i == j) for j in range(len(factors))]
             for i, f in enumerate(factors)])).s.diagonal
        assert _merge_invariant_factors(factors) == tuple(
            x for x in diag if x > 1)


# sha256 of json.dumps(space.to_dict(), sort_keys=True), pinned since
# Z^2 is solved through Hopf's formula: z2_generators is then written
# from the pivot rows of Z^2 in generator columns, built from B^2's rows
# and then the placed kernel rows
SPACE_DIGESTS = {
    ("Z2", "K4"): "f13171a74f7bcec237e52e27eb75760ccafa7a4dd9800a13c2613ddd99d05424",
    ("K4", "D4"): "77ff6e9a1af87399fb8b3881df0b6621c3538782398c5efaa1f4189bff8b365f",
    ("Z2", "A4"): "4b1d199457e554403f7591e186bf626d24d1124f6a73c17ebbd9267f57540ec1",
    ("Z6", "S3"): "3b4352e7525a9fb057f5778ddb1123698b1516fae6e9750db427f7b88f2889a2",
    ("Z2xZ4", "K4"): "e90a3dfdad0eae11d7430bdd3434c44b3d328d442ebd049614c7a74485687cae",
}

# the same digest with the z2_generators key removed, pinned before Z^2
# was solved through Hopf's formula: only the Z^2 basis may move
SPACE_DIGESTS_WITHOUT_Z2 = {
    ("Z2", "K4"): "06d8ed3586ac7813be75535f114007ce2e67881805674aa8dbf29dc75c3ece27",
    ("K4", "D4"): "8bf25352619e8c016635c1824d0bbcd57b7a28fd0e70c0cf2a62015280f36511",
    ("Z2", "A4"): "77a6ead1fe296d7efd997752b520bc2c7e815fb30761a0f9008801e5221eda93",
    ("Z6", "S3"): "a4615965f88231b4ea47953b3a559492aa0148be6863f11fa69a1d3e9d4ae95f",
    ("Z2xZ4", "K4"): "0595ebb5fa9ab5234f4cdb5e3becde9595cbd165f8282eba49678ee080d9a80c",
}


class TestSerialization:
    def test_cocycle_roundtrip_dict(self):
        g1, g2 = get_group("Z2"), get_group("K4")
        rep = compute_cocycle_space(g1, g2).class_representatives[3]
        d = rep.to_dict()
        rebuilt = make_cocycle(FiniteGroup.from_dict(d["g1"]),
                               FiniteGroup.from_dict(d["g2"]), d["table"])
        assert rebuilt.table == rep.table

    @pytest.mark.parametrize("pair", sorted(SPACE_DIGESTS), ids=":".join)
    def test_space_dict_pinned(self, pair):
        space = compute_cocycle_space.__wrapped__(*map(get_group, pair))
        digest = hashlib.sha256(json.dumps(space.to_dict(), sort_keys=True)
                                .encode()).hexdigest()
        assert digest == SPACE_DIGESTS[pair]

    @pytest.mark.parametrize("pair", sorted(SPACE_DIGESTS_WITHOUT_Z2),
                             ids=":".join)
    def test_space_dict_pinned_without_z2(self, pair):
        space = compute_cocycle_space.__wrapped__(*map(get_group, pair))
        d = space.to_dict()
        del d["z2_generators"]
        digest = hashlib.sha256(json.dumps(d, sort_keys=True)
                                .encode()).hexdigest()
        assert digest == SPACE_DIGESTS_WITHOUT_Z2[pair]

    def test_generator_tables_built_on_first_access(self):
        space = compute_cocycle_space.__wrapped__(get_group("Z2"),
                                                  get_group("D4"))
        assert "z2_generators" not in vars(space)
        assert "b2_generators" not in vars(space)
        assert space.z2_generators
        assert "z2_generators" in vars(space)
        assert "b2_generators" not in vars(space)
        assert space.b2_generators
        assert "b2_generators" in vars(space)

    def test_space_dict_fields(self):
        space = compute_cocycle_space(get_group("Z2"), get_group("Z4"))
        d = space.to_dict()
        assert d["z2_order"] == space.z2_order
        assert d["h2_invariant_factors"] == [2]
        assert len(d["class_representatives"]) == 2
