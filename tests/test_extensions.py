import pytest
from hypothesis import given, settings, strategies as st

from centext.catalog import get_group, identify_group, special_linear_2_5
from centext.cocycles import (
    Cocycle2,
    apply_coboundary,
    compute_cocycle_space,
    is_cocycle,
    is_symmetric,
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
    check_hom_conditions,
    decompose_hom,
    equivalence_isomorphism,
    is_homomorphism_direct,
    reconstruct_hom,
)
from centext.groups import (
    GroupMap,
    brute_force_isomorphism,
    center,
    enumerate_homs,
    is_simple,
)
from centext.intlinalg import abelian_invariants
from oracles import preserves_kernel_setwise, preserves_section_setwise


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
            zi = set(center(ext.group).members)
            assert set(ext.kernel_indices) <= zi

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
                == is_symmetric(rep)

    def test_pair_index_roundtrip(self):
        ext = build_extension(reps_for("Z2", "S3")[1])
        for i in range(ext.group.order):
            x, y = ext.pair_of_index(i)
            assert ext.index_of_pair(x, y) == i
        assert ext.embed_kernel(1) == ext.index_of_pair(1, 0)
        assert ext.kernel_subgroup().members == (0, 6)


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
            assert phi(src.embed_kernel(x)) == tgt.embed_kernel(x)
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
                    report = check_hom_conditions(m)
                    phi = reconstruct_hom(m)
                    ok, _ = is_homomorphism_direct(src, tgt, phi)
                    assert report.all_hold == ok
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
        report = check_hom_conditions(m)
        assert report.all_hold
        assert is_homomorphism_direct(src, src, reconstruct_hom(m))[0]

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
            check_hom_conditions(mixed)

    def test_report_carries_coboundary_tables(self):
        reps = reps_for("Z2", "Z2")
        src = build_extension(reps[1])
        ident = GroupMap(dom=src.group, cod=src.group,
                         images=tuple(range(4)))
        report = check_hom_conditions(decompose_hom(src, src, ident))
        assert report.psi_phi12.is_trivial()
        assert report.psi_phi11.g2 == src.g1
        assert report.all_hold


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


class TestCentralQuotientData:
    def test_roundtrip_recovers_the_build_inputs(self):
        rep = reps_for("Z2", "K4")[2]
        ext = build_extension(rep)
        kernel, quotient, eps, sec = central_quotient_data(
            ext.group, ext.kernel_indices)
        # min-element coset reps coincide with the canonical section
        assert sec == tuple(range(4))
        assert kernel.table == get_group("Z2").table
        assert quotient.table == get_group("K4").table
        assert eps.table == rep.table

    def test_double_cover_of_the_simple_order_60_group(self):
        big = special_linear_2_5()
        kernel, quotient, eps, _ = central_quotient_data(
            big, sorted(center(big).members))
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
