import random
from collections import Counter
from functools import lru_cache, partial, reduce

import pytest
from hypothesis import given, settings, strategies as st

from centext.catalog import (
    alternating_group,
    catalog_names,
    get_group,
    identify_group,
    projective_special_linear_2_7,
    special_linear_2_5,
    symmetric_group,
)
from centext.cocycles import (
    Cocycle2,
    apply_coboundary,
    compute_cocycle_space,
    coboundary_from,
    is_cocycle,
    sim_is_trivial,
    trivial_cocycle,
)
from centext.errors import (
    GroupMismatch,
    NotAbelianCoefficients,
)
from centext.extensions import (
    HomMatrix,
    build_extension,
    central_quotient_data,
    decompose_hom,
    equivalence_isomorphism,
    hom_condition_failures,
    is_homomorphism_direct,
    reconstruct_hom,
)
from centext.groups import (
    GroupMap,
    brute_force_isomorphism,
    center,
    direct_product,
    enumerate_homs,
    is_simple,
    normal_subgroups,
    trivial_map,
)
from centext.intlinalg import abelian_invariants
from oracles import (
    build_extension_by_validation,
    carrier_commute_failure,
    central_quotient_data_by_tables,
    greedy_by_pair_closure,
    greedy_sequence,
    preserves_kernel_setwise,
    preserves_section_setwise,
)


def reps_for(name1, name2):
    space = compute_cocycle_space(get_group(name1), get_group(name2))
    return space.class_representatives


class TestBuildExtension:
    def test_z2_by_z2_gives_klein_and_z4(self):
        triv, nontriv = reps_for("Z2", "Z2")
        e0 = build_extension(triv)
        e1 = build_extension(nontriv)
        assert identify_group(e0.group) == "K4"
        assert identify_group(e1.group) == "Z4"

    def test_z2_by_z4_gives_z2xz4_and_z8(self):
        invs = sorted(
            abelian_invariants(build_extension(rep).group).invariant_factors
            for rep in reps_for("Z2", "Z4"))
        assert invs == [(2, 4), (8,)]

    def test_z3_by_z3(self):
        invs = sorted(
            abelian_invariants(build_extension(rep).group).invariant_factors
            for rep in reps_for("Z3", "Z3"))
        assert invs == [(3, 3), (9,), (9,)]

    def test_z2_by_klein_type_census(self):
        names = sorted(identify_group(build_extension(rep).group)
                       for rep in reps_for("Z2", "K4"))
        assert names == ["D4", "D4", "D4", "Q8",
                         "Z2xZ2xZ2", "Z2xZ4", "Z2xZ4", "Z2xZ4"]

    def test_z2_by_s3_split_and_dicyclic(self):
        reps = reps_for("Z2", "S3")
        assert len(reps) == 2
        counts = sorted(
            build_extension(rep).group.order_profile.count(2)
            for rep in reps)
        assert counts == [1, 7]

    def test_kernel_is_central(self):
        for rep in reps_for("Z2", "S3"):
            ext = build_extension(rep)
            zi = set(center(ext.group))
            n2 = ext.g2.order
            assert {x * n2 for x in range(ext.g1.order)} <= zi

    def test_quotient_multiplies_like_g2(self):
        for rep in reps_for("Z4", "K4")[:4]:
            ext = build_extension(rep)
            n2 = ext.g2.order
            tbl = ext.group.table
            for i in range(ext.group.order):
                for j in range(ext.group.order):
                    assert tbl[i][j] % n2 == ext.g2.table[i % n2][j % n2]

    def test_nonabelian_coefficients_rejected(self):
        s3 = get_group("S3")
        with pytest.raises(NotAbelianCoefficients):
            build_extension(trivial_cocycle(s3, get_group("Z2")))

    def test_bad_table_rejected(self):
        g = get_group("Z2")
        bad = Cocycle2(g1=get_group("Z3"), g2=get_group("Z3"),
                       table=((0, 0, 0), (0, 1, 0), (0, 0, 0)))
        with pytest.raises(ValueError):
            build_extension(bad)
        del g

    def test_abelian_iff_symmetric_over_abelian_quotient(self):
        for rep in reps_for("Z2", "K4"):
            assert build_extension(rep).group.is_abelian \
                == (tuple(zip(*rep.table)) == rep.table)


@lru_cache(maxsize=None)
def oracle_cocycles():
    """Every class representative of every catalog pair whose carriers
    have order at most 24, and of Z2:A5, each followed by three seeded
    coboundary shifts of it."""
    names = catalog_names()
    pairs = [(get_group(a), get_group(b)) for a in names for b in names
             if get_group(a).is_abelian
             and get_group(a).order * get_group(b).order <= 24]
    pairs.append((get_group("Z2"), get_group("A5")))
    rng = random.Random(2207)
    out = []
    for g1, g2 in pairs:
        for rep in compute_cocycle_space(g1, g2).class_representatives:
            out.append(rep)
            for _ in range(3):
                t = GroupMap(dom=g2, cod=g1, images=(0, *(
                    rng.randrange(g1.order) for _ in range(g2.order - 1))))
                out.append(apply_coboundary(t, rep))
    return tuple(out)


class TestCarrierOracle:
    """build_extension proves its carriers instead of validating them;
    the earlier path, which validates every table and checks the kernel
    copy's centrality, must build the same tables and pass its checks."""

    def test_same_tables_and_the_checks_pass(self):
        cocycles = oracle_cocycles()
        assert len(cocycles) == 4 * (293 + 2)
        # most shifts move the table, so they are cases of their own
        moved = sum(cocycles[i + k] != cocycles[i]
                    for i in range(0, len(cocycles), 4) for k in (1, 2, 3))
        assert moved > len(cocycles) // 2
        for e in cocycles:
            ext = build_extension(e)
            ref = build_extension_by_validation(e)
            assert ext.group.table == ref.group.table
            assert ext.group.order == ref.group.order
            assert ext.group.name is None

    def test_same_greedy_sequences(self):
        groups = [get_group(name) for name in catalog_names()]
        groups += [special_linear_2_5(), alternating_group(6),
                   symmetric_group(5)]
        groups += [build_extension(e).group for e in oracle_cocycles()]
        for g in groups:
            assert greedy_sequence(g) == greedy_by_pair_closure(g), g


class TestEquivalence:
    def test_coboundary_shift_gives_kernel_fixing_isomorphism(self):
        rep = reps_for("Z2", "K4")[5]
        t = GroupMap(dom=get_group("K4"), cod=get_group("Z2"),
                     images=(0, 1, 0, 0))
        shifted = apply_coboundary(t, rep)
        assert shifted.table != rep.table
        src = build_extension(shifted)
        tgt = build_extension(rep)
        phi = equivalence_isomorphism(src, tgt)
        assert phi is not None
        n2 = 4
        for x in range(2):
            assert phi(x * n2) == x * n2
        for i in range(src.group.order):
            assert phi(i) % n2 == i % n2

    def test_non_cohomologous_gives_none(self):
        reps = reps_for("Z2", "K4")
        src, tgt = build_extension(reps[0]), build_extension(reps[1])
        assert equivalence_isomorphism(src, tgt) is None

    def test_mismatched_pairs_rejected(self):
        a = build_extension(reps_for("Z2", "Z2")[0])
        b = build_extension(reps_for("Z2", "Z3")[0])
        with pytest.raises(GroupMismatch):
            equivalence_isomorphism(a, b)


class TestMatrixDecomposition:
    def test_roundtrip_on_all_homs(self):
        reps = reps_for("Z2", "Z4")
        exts = [build_extension(r) for r in reps]
        seen = 0
        for src in exts:
            for tgt in exts:
                for phi in enumerate_homs(src.group, tgt.group):
                    m = decompose_hom(src, tgt, phi)
                    assert reconstruct_hom(m).images == phi.images
                    seen += 1
        assert seen > 4

    def test_direct_test_matches_raw_on_all_homs(self):
        reps = reps_for("Z2", "K4")
        src = build_extension(reps[0])
        tgt = build_extension(reps[1])
        for phi in enumerate_homs(src.group, tgt.group):
            ok, witness = is_homomorphism_direct(src, tgt, phi)
            assert ok and witness is None

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_direct_test_matches_raw_on_random_maps(self, data):
        reps = reps_for("Z2", "Z2")
        src = build_extension(reps[data.draw(st.integers(0, 1))])
        tgt = build_extension(reps[data.draw(st.integers(0, 1))])
        n = src.group.order
        images = (0,) + tuple(
            data.draw(st.integers(0, n - 1)) for _ in range(n - 1))
        phi = GroupMap(dom=src.group, cod=tgt.group, images=images)
        ok, _ = is_homomorphism_direct(src, tgt, phi)
        assert ok == phi.is_homomorphism()

    def test_component_domains_enforced(self):
        reps = reps_for("Z2", "K4")
        src = build_extension(reps[0])
        tgt = build_extension(reps[1])
        good = decompose_hom(src, tgt,
                             enumerate_homs(src.group, tgt.group)[0])
        with pytest.raises(GroupMismatch):
            HomMatrix(source=src, target=tgt, phi11=good.phi11,
                      phi12=good.phi11, phi21=good.phi21, phi22=good.phi22)

    def test_decompose_rejects_foreign_map(self):
        reps = reps_for("Z2", "Z2")
        src = build_extension(reps[0])
        tgt = build_extension(reps[1])
        phi = GroupMap(dom=src.group, cod=src.group,
                       images=tuple(range(4)))
        with pytest.raises(GroupMismatch):
            decompose_hom(src, tgt, phi)

    def test_direct_check_rejects_foreign_map(self):
        src, tgt = (build_extension(r) for r in reps_for("Z2", "Z2"))
        phi = GroupMap(dom=src.group, cod=src.group, images=tuple(range(4)))
        with pytest.raises(GroupMismatch, match="between the two carriers"):
            is_homomorphism_direct(src, tgt, phi)


def all_matrices(src, tgt):
    import itertools
    g1, g2 = src.g1, src.g2
    n1, n2 = g1.order, g2.order

    def normalized_maps(dom, cod):
        for tail in itertools.product(range(cod.order),
                                      repeat=dom.order - 1):
            yield GroupMap(dom=dom, cod=cod, images=(0,) + tail)

    for p11 in normalized_maps(g1, g1):
        for p12 in normalized_maps(g2, g1):
            for p21 in normalized_maps(g1, g2):
                for p22 in normalized_maps(g2, g2):
                    yield HomMatrix(source=src, target=tgt, phi11=p11,
                                    phi12=p12, phi21=p21, phi22=p22)


class TestHomConditions:
    def test_conditions_match_direct_test_exhaustively(self):
        reps = reps_for("Z2", "Z2")
        exts = [build_extension(r) for r in reps]
        checked = 0
        for src in exts:
            for tgt in exts:
                for m in all_matrices(src, tgt):
                    holds = next(hom_condition_failures(m), None) is None
                    phi = reconstruct_hom(m)
                    ok, _ = is_homomorphism_direct(src, tgt, phi)
                    assert holds == ok
                    checked += 1
        assert checked == 4 * 16

    def test_reports_without_a_hypothesis_gate(self):
        # the Z3 quotient fails the hypothesis; the check reports anyway,
        # and held conditions give a homomorphism for any quotient
        reps = reps_for("Z2", "Z3")
        src = build_extension(reps[0])
        m = decompose_hom(src, src, GroupMap(
            dom=src.group, cod=src.group, images=tuple(range(6))))
        assert not sim_is_trivial(src.g2)
        assert next(hom_condition_failures(m), None) is None
        assert is_homomorphism_direct(src, src, reconstruct_hom(m))[0]

    @pytest.mark.parametrize("pair", [("Z2", "K4"), ("Z2", "D4")],
                             ids=":".join)
    def test_condition_2_equals_the_carrier_table_read(self, pair):
        # over K4 only the cocycle part of the pair formula can fail;
        # over D4 the quotient part can too
        rng = random.Random(":".join(pair))
        g1, g2 = (get_group(n) for n in pair)
        failures = 0
        for tgt in (build_extension(r) for r in reps_for(*pair)):
            for _ in range(100):
                rho, delta = (GroupMap(dom=dom, cod=g2, images=(0, *(
                    rng.randrange(g2.order) for _ in range(dom.order - 1))))
                    for dom in (g2, g1))
                m = HomMatrix(source=tgt, target=tgt,
                              phi11=trivial_map(g1, g1),
                              phi12=trivial_map(g2, g1),
                              phi21=delta, phi22=rho)
                got = next((w for c, _, w in hom_condition_failures(m)
                            if c == 2), None)
                assert got == carrier_commute_failure(m)
                failures += got is not None
        assert failures

    def test_mismatched_pair_rejected(self):
        a = build_extension(reps_for("Z2", "Z2")[0])
        b = build_extension(reps_for("Z2", "Z3")[0])
        z2, z3 = get_group("Z2"), get_group("Z3")
        mixed = HomMatrix(
            source=a, target=b,
            phi11=GroupMap(dom=z2, cod=z2, images=(0, 1)),
            phi12=GroupMap(dom=z2, cod=z2, images=(0, 0)),
            phi21=GroupMap(dom=z2, cod=z3, images=(0, 0)),
            phi22=GroupMap(dom=z2, cod=z3, images=(0, 0)))
        with pytest.raises(GroupMismatch):
            next(hom_condition_failures(mixed))

    def test_report_carries_coboundary_tables(self):
        reps = reps_for("Z2", "Z2")
        src = build_extension(reps[1])
        ident = GroupMap(dom=src.group, cod=src.group,
                         images=tuple(range(4)))
        m = decompose_hom(src, src, ident)
        assert coboundary_from(m.phi12).is_trivial()
        assert coboundary_from(m.phi11).g2 == src.g1
        assert next(hom_condition_failures(m), None) is None


class TestSetwisePredicates:
    def test_kernel_and_section_predicates(self):
        reps = reps_for("Z2", "K4")
        src = build_extension(reps[0])
        ident = GroupMap(dom=src.group, cod=src.group,
                         images=tuple(range(8)))
        assert preserves_kernel_setwise(src, src, ident)
        assert preserves_section_setwise(src, src, ident)
        swap = GroupMap(dom=src.group, cod=src.group,
                        images=(0, 4, 2, 6, 1, 5, 3, 7))
        if swap.is_bijective():
            assert not preserves_kernel_setwise(src, src, swap)


# the groups whose central subgroups central_quotient_data is compared
# on: the catalog, two simple groups, the double cover SL(2,5), S5, and
# three groups of order 16 with a center of order 4 or 16
QUOTIENT_GROUPS = {
    **{name: partial(get_group, name) for name in catalog_names()},
    "SL25": special_linear_2_5,
    "PSL27": projective_special_linear_2_7,
    "A6": partial(alternating_group, 6),
    "S5": partial(symmetric_group, 5),
    "D4xZ2": lambda: direct_product(get_group("D4"), get_group("Z2")),
    "Q8xZ2": lambda: direct_product(get_group("Q8"), get_group("Z2")),
    "Z2^4": lambda: reduce(direct_product, [get_group("Z2")] * 4),
}


def central_subgroups(g):
    z = set(center(g))
    return [m for m in normal_subgroups(g) if z.issuperset(m)]


def invalid_member_sets(g):
    """Member sets that name no central subgroup: two without the
    identity; the pairs {0, x}, 0 < x < 9, the identity with the
    generators, and the normal subgroups, less the central subgroups
    among them; and four lists with a member that is not an element
    index."""
    n, central = g.order, set(central_subgroups(g))
    sets = [[], list(range(1, n)), [0, *g.generators],
            *([0, x] for x in range(1, min(n, 9))),
            *map(list, normal_subgroups(g))]
    return [m for m in sets if tuple(sorted(set(m))) not in central] + [
        [0, n], [0, -1], [0, True], [0, 1.0]]


class TestCentralQuotientData:
    @pytest.mark.parametrize("name", QUOTIENT_GROUPS)
    def test_equals_the_hand_built_tables(self, name):
        # the 140 cases: each group with each subgroup of its center
        g = QUOTIENT_GROUPS[name]()
        for members in central_subgroups(g):
            got = central_quotient_data(g, members)
            want = central_quotient_data_by_tables(g, members)
            assert got[0].table == want[0].table
            assert got[1].table == want[1].table
            assert got[2].table == want[2].table
            assert got[3] == want[3]

    @pytest.mark.parametrize("name", QUOTIENT_GROUPS)
    def test_the_promised_map_is_an_isomorphism(self, name):
        # (x, y) -> members[x] * section_reps[y], from the rebuilt carrier
        # onto the input group
        g = QUOTIENT_GROUPS[name]()
        for members in central_subgroups(g):
            _, _, eps, reps = central_quotient_data(g, members)
            phi = GroupMap(dom=build_extension(eps).group, cod=g,
                           images=tuple(g.table[z][r] for z in members
                                        for r in reps))
            assert phi.is_homomorphism() and phi.is_bijective()

    def test_invalid_member_sets_raise_as_the_hand_built_tables_do(self):
        # the same error type, and the same message but for closure, which
        # group_from_elements reports
        seen = Counter()
        for make in QUOTIENT_GROUPS.values():
            g = make()
            for members in invalid_member_sets(g):
                with pytest.raises(ValueError) as want:
                    central_quotient_data_by_tables(g, members)
                with pytest.raises(ValueError) as got:
                    central_quotient_data(g, members)
                assert type(got.value) is type(want.value)
                message = str(want.value)
                if message == "members are not closed under the product":
                    message = "elements not closed under op"
                assert str(got.value) == message
                seen[next(k for k in ("identity", "closed", "central",
                                      "index") if k in message)] += 1
        assert len(seen) == 4, seen

    def test_roundtrip_recovers_the_build_inputs(self):
        rep = reps_for("Z2", "K4")[2]
        ext = build_extension(rep)
        kernel, quotient, eps, sec = central_quotient_data(
            ext.group, (0, 4))
        # min-element coset reps coincide with the canonical section
        assert sec == tuple(range(4))
        assert kernel.table == get_group("Z2").table
        assert quotient.table == get_group("K4").table
        assert eps.table == rep.table

    def test_double_cover_of_the_simple_order_60_group(self):
        big = special_linear_2_5()
        kernel, quotient, eps, _ = central_quotient_data(
            big, center(big))
        assert kernel.order == 2
        assert quotient.order == 60
        assert is_simple(quotient) and not quotient.is_abelian
        ok, _ = is_cocycle(kernel, quotient, eps.table)
        assert ok
        assert not eps.is_trivial()
        rebuilt = build_extension(eps)
        assert brute_force_isomorphism(rebuilt.group, big) is not None

    def test_rejects_bad_member_sets(self):
        d4 = get_group("D4")
        with pytest.raises(ValueError):
            central_quotient_data(d4, [4])
        reflection = next(i for i in range(1, 8)
                          if d4.table[i][i] == 0 and i != 4)
        with pytest.raises(ValueError):
            central_quotient_data(d4, [0, reflection])
        q8 = get_group("Q8")
        four = next(i for i in range(1, 8) if q8.table[i][i] != 0)
        with pytest.raises(ValueError):
            central_quotient_data(q8, [0, four])

    @pytest.mark.parametrize("members", [[0, 7], [0, 2.0], [0, True]])
    def test_rejects_members_that_are_not_element_indices(self, members):
        with pytest.raises(ValueError, match=repr(members[1])):
            central_quotient_data(get_group("K4"), members)
