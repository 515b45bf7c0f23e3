import ast
import itertools
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

import centext
from centext import isotest

from centext.catalog import get_group, identify_group
from centext.cocycles import (
    _class_key,
    apply_coboundary,
    are_cohomologous,
    coboundary_from,
    compute_cocycle_space,
    make_cocycle,
    sim_is_trivial,
    trivial_cocycle,
)
from centext.errors import (
    ConditionsFailed,
    GroupMismatch,
    HypothesisNotVerified,
    NotG1Iso,
    NotG2Iso,
    NotLowerIso,
    PreconditionViolated,
    SizeLimitExceeded,
)
from centext.extensions import (
    TRIVIAL_COMPONENTS,
    HomMatrix,
    build_extension,
    decompose_hom,
    equivalence_isomorphism,
    is_homomorphism_direct,
    reconstruct_hom,
    trivial_components,
)
from centext.groups import (
    GroupMap,
    enumerate_automorphisms,
    enumerate_homs,
    enumerate_isomorphisms,
    trivial_map,
)
from centext.isotest import (
    CERTIFICATE_KINDS,
    DEFAULT_VERIFY_PAIRS,
    IsoCertificate,
    build_purely_nonabelian_iso,
    g1_isomorphic_necessary,
    g1g2_isomorphic,
    g2_isomorphic_equal_order,
    g2_isomorphic_necessary,
    lower_isomorphic,
    lower_necessary,
    lower_sufficient,
    oracle_iso_survey,
    simple_quotient_check,
    upper_isomorphic,
    verify_theorems,
)
from oracles import (
    g1g2_isomorphic_by_loop,
    g2_isomorphic_equal_order_by_loop,
    has_kind_by_components,
    identity_map,
    preserves_kernel_setwise,
    preserves_section_setwise,
    replace,
)


def class_extensions(n1, n2):
    space = compute_cocycle_space(get_group(n1), get_group(n2))
    return [build_extension(rep) for rep in space.class_representatives]


def carrier_map(src, tgt, fn):
    n2s, n2t = src.g2.order, tgt.g2.order
    images = tuple(x * n2t + y for x, y in (fn(*divmod(i, n2s))
                                            for i in range(src.group.order)))
    return GroupMap(dom=src.group, cod=tgt.group, images=images)


@pytest.fixture(scope="module")
def z2k4():
    return class_extensions("Z2", "K4")


@pytest.fixture(scope="module")
def z2z2():
    return class_extensions("Z2", "Z2")


@pytest.fixture(scope="module")
def z3z3():
    return class_extensions("Z3", "Z3")


class TestCertificate:
    def test_unknown_kind_rejected(self, z2z2):
        with pytest.raises(ValueError):
            IsoCertificate(kind="sideways", source=z2z2[0], target=z2z2[0])

    def test_upper_certificate_dict_and_components(self, z2k4):
        cert = upper_isomorphic(z2k4[2], z2k4[3])
        assert cert is not None and cert.kind == "upper"
        d = cert.to_dict()
        assert d["kind"] == "upper"
        assert d["g1"] == 2 and d["g2"] == 4
        assert d["sigma"] is not None and d["rho"] is not None
        assert d["t"] is not None and d["delta"] is None
        m = cert.components()
        assert m.phi21.is_trivial()
        phi = cert.materialize()
        assert preserves_kernel_setwise(z2k4[2], z2k4[3], phi)

    def test_a_homomorphism_that_is_not_bijective_is_rejected(self, z2k4):
        # on the direct product, a trivial sigma gives (x, y) -> (1, y)
        direct, g1 = z2k4[0], z2k4[0].g1
        assert direct.cocycle.is_trivial()
        cert = IsoCertificate(kind="upper", source=direct, target=direct,
                              sigma=trivial_map(g1, g1),
                              rho=identity_map(direct.g2))
        assert is_homomorphism_direct(direct, direct,
                                      reconstruct_hom(cert.components()))[0]
        with pytest.raises(ConditionsFailed, match="not bijective"):
            cert.materialize()

    def test_bogus_certificate_rejected_under_optimization(self):
        # identity components between distinct classes, with no coboundary
        # witness: the assembled map is no homomorphism.  The check must
        # stand under -O, which the script's "assert False" line confirms
        # is in effect.
        script = "\n".join([
            "import sys",
            "from centext import (ConditionsFailed, GroupMap, IsoCertificate,",
            "                     build_extension, compute_cocycle_space,",
            "                     get_group)",
            "assert False",
            "z2, k4 = get_group('Z2'), get_group('K4')",
            "reps = compute_cocycle_space(z2, k4).class_representatives",
            "cert = IsoCertificate(kind='upper',",
            "                      source=build_extension(reps[0]),",
            "                      target=build_extension(reps[7]),",
            "                      sigma=GroupMap(dom=z2, cod=z2,",
            "                                     images=(0, 1)),",
            "                      rho=GroupMap(dom=k4, cod=k4,",
            "                                   images=(0, 1, 2, 3)))",
            "try:",
            "    cert.materialize()",
            "except ConditionsFailed:",
            "    sys.exit(0)",
            "sys.exit(1)",
        ])
        src_dir = os.path.dirname(os.path.dirname(centext.__file__))
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              env={**os.environ, "PYTHONPATH": src_dir},
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


def test_no_assert_statement_in_the_package():
    # python -O strips assert statements, so no check may be one
    pkg_dir = os.path.dirname(centext.__file__)
    found = []
    for name in sorted(os.listdir(pkg_dir)):
        if name.endswith(".py"):
            with open(os.path.join(pkg_dir, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []


class TestUpperIsomorphic:
    def test_matches_oracle_on_every_class_pair(self, z2z2, z3z3, z2k4):
        for exts in (z2z2, z3z3, z2k4):
            for a in exts:
                for b in exts:
                    found = upper_isomorphic(a, b)
                    assert (found is not None) == oracle_iso_survey(a, b)["upper"]

    def test_distinct_classes_same_carrier_can_be_upper_isomorphic(self, z3z3):
        # the two order-9 cyclic carriers: distinct classes, linked by the
        # kernel automorphism
        assert are_cohomologous(z3z3[1].cocycle, z3z3[2].cocycle) is None
        cert = upper_isomorphic(z3z3[1], z3z3[2])
        assert cert is not None
        ident = tuple(range(3))
        assert cert.sigma.images != ident or cert.rho.images != ident

    def test_carrier_types_separate_classes(self, z2k4):
        assert upper_isomorphic(z2k4[2], z2k4[7]) is None
        assert upper_isomorphic(z2k4[0], z2k4[1]) is None

    def test_mismatched_group_pairs_rejected(self, z2z2):
        other = class_extensions("Z2", "Z4")[0]
        with pytest.raises(GroupMismatch):
            upper_isomorphic(z2z2[0], other)

    def test_direct_product_reachable_only_from_the_trivial_class(self, z2k4):
        triv = trivial_cocycle(get_group("Z2"), get_group("K4"))
        direct = build_extension(triv)
        for k, e in enumerate(z2k4):
            expected = are_cohomologous(triv, e.cocycle) is not None
            assert (upper_isomorphic(e, direct) is not None) == expected
            assert (upper_isomorphic(direct, e) is not None) == expected
            assert expected == (k == 0)

    def test_a_search_miss_within_one_orbit_raises(self, z3z3, monkeypatch):
        # classes 1 and 2 share an orbit, so the search must hit
        monkeypatch.setattr(isotest, "_automorphism_pair_search",
                            lambda *args: None)
        with pytest.raises(ConditionsFailed, match="one orbit"):
            upper_isomorphic(z3z3[1], z3z3[2])

    def test_a_search_miss_raises_under_optimization(self):
        script = "\n".join([
            "import sys",
            "from centext import ConditionsFailed, isotest",
            "from centext.catalog import get_group",
            "from centext.cocycles import compute_cocycle_space",
            "from centext.extensions import build_extension",
            "assert False",
            "reps = compute_cocycle_space(get_group('Z3'), get_group('Z3'))"
            ".class_representatives",
            "isotest._automorphism_pair_search = lambda *args: None",
            "try:",
            "    isotest.upper_isomorphic(build_extension(reps[1]),",
            "                             build_extension(reps[2]))",
            "except ConditionsFailed:",
            "    sys.exit(0)",
            "sys.exit(1)",
        ])
        src_dir = os.path.dirname(os.path.dirname(centext.__file__))
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              env={**os.environ, "PYTHONPATH": src_dir},
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("pair", [("Z2", "Z1"), ("Z1", "K4"),
                                      ("Z1", "Z1")], ids=":".join)
    def test_a_trivial_factor_gives_one_orbit(self, pair):
        # the class keys are empty tuples, so every cocycle shares one label
        g1, g2 = map(get_group, pair)
        assert _class_key(g1, g2)[0](
            trivial_cocycle(g1, g2).table, tuple(range(g1.order))) == ()
        [e] = class_extensions(*pair)
        assert upper_isomorphic(e, e) is not None
        assert lower_isomorphic(e, e) is not None

    def test_upper_to_direct_certificate_lands_on_the_direct_product(self, z2z2):
        z2 = get_group("Z2")
        cert = upper_isomorphic(z2z2[0],
                                build_extension(trivial_cocycle(z2, z2)))
        assert cert is not None
        assert cert.target.cocycle.is_trivial()
        assert cert.rho.images == tuple(range(2))


class TestLowerNecessarySufficient:
    def test_roundtrip_on_a_verified_quotient(self, z2z2):
        e = z2z2[1]
        phi = identity_map(e.group)
        cert = lower_necessary(e, e, phi)
        assert cert.kind == "lower"
        assert cert.rho.images == tuple(range(2))
        assert lower_sufficient(cert).images == phi.images

    def test_hypothesis_gate_on_an_unverified_quotient(self, z3z3):
        z3 = get_group("Z3")
        e1 = z3z3[1]
        doubled = make_cocycle(z3, z3, tuple(
            tuple((2 * v) % 3 for v in row) for row in e1.cocycle.table))
        e2 = build_extension(doubled)
        phi = carrier_map(e1, e2, lambda x, y: ((2 * x) % 3, y))
        ok, _ = is_homomorphism_direct(e1, e2, phi)
        assert ok and phi.is_bijective()
        # the hypothesis fails, but no condition does, so nothing raises
        assert not sim_is_trivial(z3)
        cert = lower_necessary(e1, e2, phi)
        assert cert.sigma.images == (0, 2, 1)
        assert cert.delta.is_trivial()
        assert lower_sufficient(cert).images == phi.images

    def test_hypothesis_gate_fires_on_a_lower_isomorphism(self):
        # the lower statement needs the quotient hypothesis: over D4 (where
        # it fails) a section-preserving automorphism of a coboundary's
        # carrier has a section component that is no endomorphism, while
        # the triple search still finds a certificate for the pair
        d4, z2 = get_group("D4"), get_group("Z2")
        e = build_extension(coboundary_from(
            GroupMap(dom=d4, cod=z2, images=(0, 1, 0, 0, 0, 1, 0, 0))))
        phi = GroupMap(dom=e.group, cod=e.group, images=(
            0, 1, 2, 7, 4, 5, 6, 3, 12, 13, 14, 11, 8, 9, 10, 15))
        assert phi.is_bijective() and phi.is_homomorphism()
        assert preserves_section_setwise(e, e, phi)
        assert not sim_is_trivial(d4)
        with pytest.raises(HypothesisNotVerified,
                           match="section component is not an endomorphism"):
            lower_necessary(e, e, phi)
        cert = lower_isomorphic(e, e)
        assert cert is not None and cert.kind == "lower"
        cert.materialize()

    def test_rejects_non_isomorphisms_and_section_movers(self, z2z2):
        e = z2z2[0]
        with pytest.raises(NotLowerIso):
            lower_necessary(e, e, trivial_map(e.group, e.group))
        swap = carrier_map(e, e, lambda x, y: (y, x))
        assert swap.is_bijective()
        with pytest.raises(NotLowerIso):
            lower_necessary(e, e, swap)

    def test_sufficient_rejects_wrong_kind_and_missing_fields(self, z2k4):
        cert = upper_isomorphic(z2k4[2], z2k4[3])
        with pytest.raises(PreconditionViolated):
            lower_sufficient(cert)
        partial = IsoCertificate(kind="lower", source=z2k4[0],
                                 target=z2k4[0],
                                 sigma=identity_map(get_group("Z2")))
        with pytest.raises(PreconditionViolated):
            lower_sufficient(partial)

    def test_sufficient_names_the_failed_condition(self, z2k4):
        z2, k4 = get_group("Z2"), get_group("K4")
        e = z2k4[0]
        cert = IsoCertificate(kind="lower", source=e, target=e,
                              sigma=identity_map(z2),
                              rho=trivial_map(k4, k4),
                              delta=trivial_map(z2, k4))
        with pytest.raises(ConditionsFailed, match="rho_not_automorphism"):
            lower_sufficient(cert)

    def test_lower_to_direct_iff_the_cocycle_is_trivial(self, z2k4):
        verdicts = [e.cocycle.is_trivial() for e in z2k4]
        assert verdicts == [True] + [False] * 7
        for e, v in zip(z2k4, verdicts):
            assert v == oracle_iso_survey(e, z2k4[0])["lower"]

    def test_direct_to_lower_hits_only_vanishing_tables(self, z2k4):
        direct = build_extension(
            trivial_cocycle(get_group("Z2"), get_group("K4")))
        assert lower_isomorphic(direct, z2k4[0]) is not None
        for e in z2k4[1:]:
            assert lower_isomorphic(direct, e) is None


class TestLowerIsomorphic:
    def test_matches_oracle_for_order_two_kernels(self, z2z2, z2k4):
        for exts in (z2z2, z2k4):
            for a in exts:
                for b in exts:
                    cert = lower_isomorphic(a, b)
                    assert (cert is not None) == oracle_iso_survey(a, b)["lower"]

    def test_certificate_is_section_preserving(self, z2k4):
        cert = lower_isomorphic(z2k4[2], z2k4[3])
        assert cert is not None
        phi = cert.materialize()
        assert preserves_section_setwise(z2k4[2], z2k4[3], phi)

    def test_isomorphic_pair_without_section_preserving_map(self, z2k4):
        # classes 1 and 5 share the carrier type but no lower isomorphism
        assert identify_group(z2k4[1].group) == identify_group(z2k4[5].group)
        assert lower_isomorphic(z2k4[1], z2k4[5]) is None
        survey = oracle_iso_survey(z2k4[1], z2k4[5])
        assert survey["plain"] and survey["upper"] and not survey["lower"]


class TestSimpleQuotientCheck:
    def test_rejects_abelian_and_non_simple_quotients(self, z2k4):
        with pytest.raises(PreconditionViolated):
            simple_quotient_check(z2k4[0], z2k4[0])
        z2, s3 = get_group("Z2"), get_group("S3")
        e = build_extension(trivial_cocycle(z2, s3))
        with pytest.raises(PreconditionViolated):
            simple_quotient_check(e, e)


class TestPurelyNonabelianBuilder:
    def test_identity_tuple_gives_the_identity(self):
        z2, q8 = get_group("Z2"), get_group("Q8")
        e = class_extensions("Z2", "Q8")[1]
        phi = build_purely_nonabelian_iso(
            identity_map(z2), trivial_map(q8, z2), trivial_map(z2, q8),
            identity_map(q8), e, e)
        assert phi.images == tuple(range(16))

    def test_every_section_to_kernel_hom_gives_a_distinct_isomorphism(self):
        z2, q8 = get_group("Z2"), get_group("Q8")
        e = build_extension(trivial_cocycle(z2, q8))
        seen = set()
        for eta in enumerate_homs(q8, z2):
            phi = build_purely_nonabelian_iso(
                identity_map(z2), eta, trivial_map(z2, q8),
                identity_map(q8), e, e)
            seen.add(phi.images)
        assert len(seen) == 4

    def test_exact_transport_automorphism_pairs(self):
        z2, q8 = get_group("Z2"), get_group("Q8")
        e = class_extensions("Z2", "Q8")[1]
        t = e.cocycle.table
        hits = 0
        for rho in enumerate_automorphisms(q8):
            if all(t[rho.images[y]][rho.images[yp]] == t[y][yp]
                   for y in range(8) for yp in range(8)):
                phi = build_purely_nonabelian_iso(
                    identity_map(z2), trivial_map(q8, z2),
                    trivial_map(z2, q8), rho, e, e)
                assert phi.is_bijective()
                hits += 1
        assert hits >= 1

    def test_central_delta_gives_a_nonobvious_isomorphism(self):
        z2, q8 = get_group("Z2"), get_group("Q8")
        e = build_extension(trivial_cocycle(z2, q8))
        delta = GroupMap(dom=z2, cod=q8, images=(0, 4))
        for eta in enumerate_homs(q8, z2):
            phi = build_purely_nonabelian_iso(
                identity_map(z2), eta, delta, identity_map(q8), e, e)
            assert phi.images != tuple(range(16))

    def test_rejects_each_violated_requirement(self):
        z2, q8 = get_group("Z2"), get_group("Q8")
        ext_q8 = class_extensions("Z2", "Q8")
        e0 = build_extension(trivial_cocycle(z2, q8))
        e1 = ext_q8[1]
        ident1, ident2 = identity_map(z2), identity_map(q8)
        eta0, delta0 = trivial_map(q8, z2), trivial_map(z2, q8)

        k4 = class_extensions("Z2", "K4")[0]
        with pytest.raises(PreconditionViolated, match="purely non-abelian"):
            build_purely_nonabelian_iso(
                ident1, trivial_map(get_group("K4"), z2),
                trivial_map(z2, get_group("K4")),
                identity_map(get_group("K4")), k4, k4)
        with pytest.raises(PreconditionViolated, match="sigma"):
            build_purely_nonabelian_iso(trivial_map(z2, z2), eta0, delta0,
                                        ident2, e0, e0)
        bad_eta = GroupMap(dom=q8, cod=z2, images=(0, 1, 1, 1, 1, 1, 1, 1))
        with pytest.raises(PreconditionViolated, match="eta"):
            build_purely_nonabelian_iso(ident1, bad_eta, delta0,
                                        ident2, e0, e0)
        bad_delta = GroupMap(dom=z2, cod=q8, images=(0, 1))
        with pytest.raises(PreconditionViolated, match="delta is not"):
            build_purely_nonabelian_iso(ident1, eta0, bad_delta,
                                        ident2, e0, e0)
        with pytest.raises(PreconditionViolated, match="rho"):
            build_purely_nonabelian_iso(ident1, eta0, delta0,
                                        trivial_map(q8, q8), e0, e0)

        central = GroupMap(dom=z2, cod=q8, images=(0, 4))
        d4_exts = class_extensions("Z2", "D4")
        d4 = get_group("D4")
        e_d4_triv = build_extension(trivial_cocycle(z2, d4))
        with pytest.raises(PreconditionViolated,
                           match="does not vanish on the delta image"):
            build_purely_nonabelian_iso(
                ident1, trivial_map(d4, z2), GroupMap(dom=z2, cod=d4,
                                                      images=(0, 4)),
                identity_map(d4), e_d4_triv, d4_exts[2])
        with pytest.raises(PreconditionViolated, match="kill the source"):
            build_purely_nonabelian_iso(ident1, eta0, central,
                                        ident2, e1, e0)
        s3 = get_group("S3")
        e_s3 = build_extension(trivial_cocycle(z2, s3))
        transposition = GroupMap(dom=z2, cod=s3, images=(0, 1))
        assert transposition.is_homomorphism()
        with pytest.raises(PreconditionViolated, match="commute"):
            build_purely_nonabelian_iso(
                ident1, trivial_map(s3, z2), transposition,
                identity_map(s3), e_s3, e_s3)
        with pytest.raises(PreconditionViolated, match="transport"):
            build_purely_nonabelian_iso(ident1, eta0, delta0,
                                        ident2, e1, e0)

    def test_non_injective_configuration_is_rejected_but_materializes(self):
        # all four components the identity on an exponent-two pair: the
        # assembled map is a homomorphism that kills the diagonal, so the
        # builder must refuse the abelian quotient outright
        k4 = get_group("K4")
        e = build_extension(trivial_cocycle(k4, k4))
        ident = identity_map(k4)
        with pytest.raises(PreconditionViolated, match="purely non-abelian"):
            build_purely_nonabelian_iso(ident, ident, ident, ident, e, e)
        m = HomMatrix(source=e, target=e, phi11=ident, phi12=ident,
                      phi21=ident, phi22=ident)
        phi = reconstruct_hom(m)
        ok, _ = is_homomorphism_direct(e, e, phi)
        assert ok
        assert not phi.is_bijective()
        for x in range(4):
            assert phi.images[x * 4 + x] == 0

    def test_inversion_configuration_on_order_four_cyclic_pair(self):
        z4 = get_group("Z4")
        e = build_extension(trivial_cocycle(z4, z4))
        ident = identity_map(z4)
        inv = GroupMap(dom=z4, cod=z4, images=(0, 3, 2, 1))
        m = HomMatrix(source=e, target=e, phi11=ident, phi12=inv,
                      phi21=inv, phi22=ident)
        phi = reconstruct_hom(m)
        ok, _ = is_homomorphism_direct(e, e, phi)
        assert ok
        assert not phi.is_bijective()
        for x in range(4):
            assert phi.images[x * 4 + x] == 0


class TestG2Isomorphic:
    def test_necessary_certificate_on_a_projection_swap(self):
        z4, z2 = get_group("Z4"), get_group("Z2")
        e1 = build_extension(make_cocycle(z4, z2, ((0, 0), (0, 2))))
        e2 = build_extension(trivial_cocycle(z4, z2))
        phi = GroupMap(dom=e1.group, cod=e2.group,
                       images=(0, 2, 3, 5, 4, 6, 7, 1))
        ok, _ = is_homomorphism_direct(e1, e2, phi)
        assert ok and phi.is_bijective()
        cert = g2_isomorphic_necessary(e1, e2, phi)
        assert cert.kind == "g2"
        assert cert.delta.images == (0, 1, 0, 1)
        assert len(set(cert.eta.images)) == 2
        assert cert.materialize().images == phi.images

    def test_rejects_nontrivial_section_component_and_non_isos(self, z2z2):
        e = z2z2[0]
        with pytest.raises(NotG2Iso):
            g2_isomorphic_necessary(e, e, identity_map(e.group))
        with pytest.raises(NotG2Iso):
            g2_isomorphic_necessary(e, e, trivial_map(e.group, e.group))

    def test_nonabelian_quotients_never_admit_one(self):
        z2, s3 = get_group("Z2"), get_group("S3")
        e = build_extension(trivial_cocycle(z2, s3))
        for phi in enumerate_isomorphisms(e.group, e.group):
            assert not decompose_hom(e, e, phi).phi22.is_trivial()

    def test_equal_order_decision_matches_oracle(self, z2z2, z3z3):
        for exts in (z2z2, z3z3):
            for a in exts:
                for b in exts:
                    cert = g2_isomorphic_equal_order(a, b)
                    assert (cert is not None) == oracle_iso_survey(a, b)["g2"]

    def test_equal_order_requires_abelian_factors_of_equal_size(self, z2k4):
        with pytest.raises(PreconditionViolated):
            g2_isomorphic_equal_order(z2k4[0], z2k4[0])

    def test_equal_order_needs_a_trivial_source_class(self, z2z2):
        assert g2_isomorphic_equal_order(z2z2[1], z2z2[1]) is None
        assert g2_isomorphic_equal_order(z2z2[1], z2z2[0]) is None

    def test_equal_order_accepts_a_coboundary_target(self):
        z4 = get_group("Z4")
        t = GroupMap(dom=z4, cod=z4, images=(0, 1, 0, 0))
        shifted = apply_coboundary(t, trivial_cocycle(z4, z4))
        assert not shifted.is_trivial()
        e1 = build_extension(trivial_cocycle(z4, z4))
        e2 = build_extension(shifted)
        cert = g2_isomorphic_equal_order(e1, e2)
        assert cert is not None
        assert cert.t_witness is not None
        cert.materialize()


class TestG1Isomorphic:
    def test_coordinate_swap_certificate(self, z2z2):
        e = z2z2[0]
        swap = carrier_map(e, e, lambda x, y: (y, x))
        cert = g1_isomorphic_necessary(e, e, swap)
        assert cert.kind == "g1"
        assert cert.delta.images == (0, 1)
        assert cert.eta.images == (0, 1)
        assert cert.rho.is_trivial()
        assert cert.materialize().images == swap.images

    def test_hypothesis_gate_on_an_unverified_quotient(self, z3z3):
        # the hypothesis fails over Z3; the conditions hold on the swap,
        # so the certificate comes back
        e = z3z3[0]
        assert not sim_is_trivial(e.g2)
        swap = carrier_map(e, e, lambda x, y: (y, x))
        cert = g1_isomorphic_necessary(e, e, swap)
        assert cert.kind == "g1"
        assert cert.materialize().images == swap.images

    def test_failed_condition_raises_a_typed_error(self):
        # over D4 the quotient hypothesis fails, and the component check
        # reaches a rho that is no endomorphism: the statement is not
        # falsified, so the error names the hypothesis
        e = class_extensions("Z2", "D4")[1]
        phi = next(phi for phi in enumerate_isomorphisms(e.group, e.group)
                   if decompose_hom(e, e, phi).phi11.is_trivial())
        with pytest.raises(HypothesisNotVerified,
                           match="section component is not an endomorphism"):
            g1_isomorphic_necessary(e, e, phi)

    def test_rejects_nontrivial_kernel_component_and_non_isos(self, z2z2):
        e = z2z2[0]
        with pytest.raises(NotG1Iso):
            g1_isomorphic_necessary(e, e, identity_map(e.group))
        with pytest.raises(NotG1Iso):
            g1_isomorphic_necessary(e, e, trivial_map(e.group, e.group))

    def test_nontrivial_source_class_blocks_the_kind(self, z2k4):
        for i in (0, 1, 2):
            for j in (0, 1, 2):
                expected = (i, j) == (0, 0)
                assert oracle_iso_survey(z2k4[i], z2k4[j])["g1"] == expected


class TestG1G2Isomorphic:
    def test_swap_on_a_direct_product(self, z2z2):
        cert = g1g2_isomorphic(z2z2[0], z2z2[0])
        assert cert is not None and cert.kind == "g1g2"
        phi = cert.materialize()
        m = decompose_hom(z2z2[0], z2z2[0], phi)
        assert m.phi11.is_trivial() and m.phi22.is_trivial()

    def test_matches_oracle_on_small_pairs(self, z2z2, z3z3):
        for exts in (z2z2, z3z3):
            for a in exts:
                for b in exts:
                    cert = g1g2_isomorphic(a, b)
                    assert (cert is not None) == oracle_iso_survey(a, b)["g1g2"]

    def test_requires_exact_vanishing_not_class_triviality(self):
        z4 = get_group("Z4")
        t = GroupMap(dom=z4, cod=z4, images=(0, 1, 0, 0))
        shifted = apply_coboundary(t, trivial_cocycle(z4, z4))
        e1 = build_extension(trivial_cocycle(z4, z4))
        e2 = build_extension(shifted)
        assert g1g2_isomorphic(e1, e2) is None
        assert not oracle_iso_survey(e1, e2)["g1g2"]
        assert oracle_iso_survey(e1, e2)["plain"]

    def test_unequal_factor_orders_are_absent(self, z2k4):
        assert g1g2_isomorphic(z2k4[0], z2k4[0]) is None


def decider_outcome(decide, a, b):
    """The certificate's dict, None, or the type of the precondition
    error."""
    try:
        cert = decide(a, b)
    except PreconditionViolated as exc:
        return type(exc)
    return None if cert is None else cert.to_dict()


EQUAL_ORDER_DECIDERS = ((g2_isomorphic_equal_order,
                         g2_isomorphic_equal_order_by_loop),
                        (g1g2_isomorphic, g1g2_isomorphic_by_loop))


def equal_order_positives(exts):
    """The g2 and g1g2 positives over every ordered pair of exts, once
    each decider is found to give the certificate of the loop over every
    isomorphism of the factor groups."""
    positives = [0, 0]
    for a, b in itertools.product(exts, repeat=2):
        for i, (decide, loop) in enumerate(EQUAL_ORDER_DECIDERS):
            got = decider_outcome(decide, a, b)
            assert got == decider_outcome(loop, a, b)
            positives[i] += isinstance(got, dict)
    return positives


class TestEqualOrderDecidersMatchTheLoops:
    @pytest.mark.parametrize("pair", [
        ("Z2", "Z2"), ("Z3", "Z3"), ("Z4", "Z4"), ("K4", "K4"),
        ("Z4", "K4"), ("K4", "Z4"), ("Z5", "Z5"), ("Z6", "Z6"),
        ("Z6", "S3")], ids=":".join)
    def test_every_class_pair(self, pair):
        exts = class_extensions(*pair)
        # one positive each, from the trivial class to itself, wherever
        # the factor groups are isomorphic
        want = [0, 0] if pair in (("Z4", "K4"), ("K4", "Z4"),
                                  ("Z6", "S3")) else [1, 1]
        assert equal_order_positives(exts) == want

    @pytest.mark.parametrize("pair", [("K4", "K4"), ("Z4", "Z4")],
                             ids=":".join)
    def test_every_pair_of_shifted_representatives(self, pair):
        # each representative and three seeded coboundary shifts of it:
        # a shifted trivial class is a g2 target but not a g1g2 one
        g1, g2 = get_group(pair[0]), get_group(pair[1])
        rng = random.Random(24)
        cocycles = [
            c for rep in compute_cocycle_space(g1, g2).class_representatives
            for c in (rep, *(apply_coboundary(GroupMap(
                dom=g2, cod=g1, images=(0, *(rng.randrange(g1.order)
                                             for _ in range(g2.order - 1)))),
                rep) for _ in range(3)))]
        exts = [build_extension(c) for c in cocycles]
        assert equal_order_positives(exts) == [4, 1]


class TestOracleSurvey:
    def test_frozen_self_pair_profiles(self, z2z2):
        s0 = oracle_iso_survey(z2z2[0], z2z2[0])
        assert s0["isomorphism_count"] == 6
        assert all(s0[k] for k in
                   ("plain", "upper", "lower", "g1", "g2", "g1g2"))
        s1 = oracle_iso_survey(z2z2[1], z2z2[1])
        assert s1["isomorphism_count"] == 2
        assert s1["plain"] and s1["upper"] and s1["lower"]
        assert not (s1["g1"] or s1["g2"] or s1["g1g2"])


class TestKinds:
    def test_kind_tables_keep_their_order(self):
        assert tuple(TRIVIAL_COMPONENTS) == (
            "plain", "upper", "lower", "g1", "g2", "g1g2",
            "purely_nonabelian")
        assert CERTIFICATE_KINDS == (
            "upper", "lower", "g1", "g2", "g1g2", "purely_nonabelian")

    def test_kind_checks_agree_with_the_setwise_definitions(self):
        assert ("Z2", "S3") in DEFAULT_VERIFY_PAIRS
        seen = Counter()
        for n1, n2 in DEFAULT_VERIFY_PAIRS + (("Z3", "S3"),):
            exts = class_extensions(n1, n2)
            for a, b in itertools.product(exts, repeat=2):
                for phi in enumerate_isomorphisms(a.group, b.group):
                    m = decompose_hom(a, b, phi)
                    trivial = trivial_components(a, b, phi.images)
                    upper = preserves_kernel_setwise(a, b, phi)
                    lower = preserves_section_setwise(a, b, phi)
                    assert has_kind_by_components(m, "upper") == upper
                    assert has_kind_by_components(m, "lower") == lower
                    assert ("phi21" in trivial) == upper
                    assert ("phi12" in trivial) == lower
                    seen[upper, lower] += 1
        # every combination of the two occurs
        assert len(seen) == 4
        assert sum(seen.values()) == 1296

    def test_components_force_the_kind_trivial(self, z2z2):
        cert = g2_isomorphic_equal_order(z2z2[0], z2z2[0])
        assert cert is not None and cert.rho is None
        stray = replace(cert, rho=identity_map(z2z2[0].g2))
        assert stray.components() == cert.components()
        assert has_kind_by_components(stray.components(), "g2")
        assert stray.materialize() == cert.materialize()
        assert "phi22" in trivial_components(
            stray.source, stray.target, stray.materialize().images)


class TestOneCarrierIsoCheck:
    # the extractors and equivalence_isomorphism ask one check
    # (extensions._carrier_iso_failure) whether phi is a carrier
    # isomorphism of a kind; each input fails one fact: a bijection that
    # is no homomorphism, the trivial map, an isomorphism of another kind
    @staticmethod
    def failing_maps(e, kind):
        bijection = GroupMap(dom=e.group, cod=e.group,
                             images=(0, 3, 2, 1, 4, 5, 6, 7, 8))
        assert bijection.is_bijective() and not bijection.is_homomorphism()
        swap = carrier_map(e, e, lambda x, y: (y, x))
        other = swap if kind in ("upper", "lower") else identity_map(e.group)
        return bijection, trivial_map(e.group, e.group), other

    @pytest.mark.parametrize("extract, error, kind", [
        (lower_necessary, NotLowerIso, "lower"),
        (g1_isomorphic_necessary, NotG1Iso, "g1"),
        (g2_isomorphic_necessary, NotG2Iso, "g2")],
        ids=("lower", "g1", "g2"))
    def test_extractors_name_the_failed_fact(self, z3z3, extract, error,
                                             kind):
        e = z3z3[0]
        messages = ("certificate does not materialize: "
                    "('kernel_factor', (0, 1, 2))",
                    "certificate map is not bijective",
                    f"certificate map is not of kind {kind!r}")
        for phi, message in zip(self.failing_maps(e, kind), messages):
            with pytest.raises(ValueError) as info:
                extract(e, e, phi)
            assert type(info.value) is error
            assert str(info.value) == message

    def test_equivalence_isomorphism_keeps_its_message(self, z3z3,
                                                       monkeypatch):
        # the witness map of e to itself, replaced by each failing map
        e = z3z3[0]
        assert equivalence_isomorphism(e, e) == identity_map(e.group)
        for phi in self.failing_maps(e, "upper"):
            monkeypatch.setattr("centext.extensions.reconstruct_hom",
                                lambda m, phi=phi: phi)
            with pytest.raises(ValueError) as info:
                equivalence_isomorphism(e, e)
            assert type(info.value) is ConditionsFailed
            assert str(info.value) == \
                "the coboundary witness does not give an isomorphism"


class TestVerifyTheorems:
    @staticmethod
    def fail_on(kind, monkeypatch):
        # the one extraction path, made to fail on the kind alone
        necessary = isotest._necessary

        def fail(k, *args):
            if k == kind:
                raise ConditionsFailed("forced failure")
            return necessary(k, *args)
        monkeypatch.setattr(isotest, "_necessary", fail)

    def test_g2_extractor_failures_are_flagged(self, monkeypatch):
        # verify_theorems runs the extraction path on the component
        # matrix it already has
        self.fail_on("g2", monkeypatch)
        report = verify_theorems(pairs=[("Z2", "Z2")])
        flagged = [d for d in report["discrepancies"]
                   if d["check"] == "g2_necessary_failed"]
        assert flagged
        assert all(d["detail"] == {"error": "forced failure"}
                   for d in flagged)
        assert not any(o["check"] == "g2_necessary_failed"
                       for o in report["logged_observations"])

    @pytest.mark.parametrize("kind, count", [("lower", 3), ("g1", 2)],
                             ids=("lower", "g1"))
    def test_extractor_failures_are_flagged(self, kind, count, monkeypatch):
        self.fail_on(kind, monkeypatch)
        report = verify_theorems(pairs=[("Z2", "Z2")])
        assert [(d["check"], d["detail"]) for d in report["discrepancies"]] \
            == [(f"{kind}_necessary_failed", {"error": "forced failure"})] \
            * count
        assert report["logged_observations"] == []

    # each decider stubbed to find nothing; the oracle still finds the
    # isomorphisms, so every miss is flagged where the statement needs no
    # hypothesis, and logged where the quotient leaves it unproved
    @pytest.mark.parametrize("decider, pair, flagged, logged", [
        ("upper_isomorphic", ("Z2", "K4"),
         {"upper_criterion_vs_oracle": 20, "equivalent_but_not_upper": 8},
         {}),
        ("lower_isomorphic", ("Z2", "S3"),
         {"lower_oracle_without_certificate": 2}, {}),
        # K4's centre is not trivial
        ("lower_isomorphic", ("Z2", "K4"),
         {}, {"lower_oracle_without_certificate": 16}),
        ("are_cohomologous", ("Z2", "K4"),
         {"class_representatives_not_distinct": 8}, {}),
        ("g1g2_isomorphic", ("Z3", "Z3"), {"g1g2_criterion_vs_oracle": 1},
         {}),
        ("g2_isomorphic_equal_order", ("Z3", "Z3"),
         {"g2_criterion_vs_oracle": 1}, {}),
    ], ids=("upper", "lower-S3", "lower-K4", "cohomologous", "g1g2", "g2"))
    def test_a_decider_that_finds_nothing_is_flagged(self, decider, pair,
                                                     flagged, logged,
                                                     monkeypatch):
        monkeypatch.setattr(isotest, decider, lambda *args: None)
        report = verify_theorems(pairs=[pair])
        assert Counter(d["check"] for d in report["discrepancies"]) == flagged
        assert Counter(o["check"] for o in report["logged_observations"]) \
            == logged

    def test_an_upper_claim_without_isomorphism_is_flagged(self,
                                                           monkeypatch):
        # every pair claimed upper isomorphic, by a real certificate of
        # the source to itself
        claim = isotest.upper_isomorphic
        monkeypatch.setattr(isotest, "upper_isomorphic",
                            lambda src, tgt, limits: claim(src, src, limits))
        report = verify_theorems(pairs=[("Z2", "K4")])
        assert Counter(d["check"] for d in report["discrepancies"]) == {
            "upper_criterion_vs_oracle": 44,
            "upper_without_any_isomorphism": 44}

    def test_a_wrong_lower_oracle_is_flagged(self, monkeypatch):
        # the oracle's lower verdict negated: each lower statement on a
        # centreless quotient disagrees with it
        survey = isotest._survey

        def negated(isos):
            verdicts = survey(isos)
            return {**verdicts, "lower": not verdicts["lower"]}
        monkeypatch.setattr(isotest, "_survey", negated)
        report = verify_theorems(pairs=[("Z2", "S3")])
        assert Counter(d["check"] for d in report["discrepancies"]) == {
            "lower_to_direct_vs_oracle": 2,
            "direct_to_lower_vs_oracle": 2,
            "lower_certificate_vs_oracle": 2,
            "lower_oracle_without_certificate": 2}
        assert report["logged_observations"] == []

    def test_default_catalog_is_clean(self):
        report = verify_theorems()
        assert report["checked_class_pairs"] == 165
        assert report["discrepancies"] == []
        assert len(report["pairs"]) == 7
        # only the D4 quotient, whose center is not trivial, leaves
        # hypothesis-dependent failures as observations
        assert {tuple(o["pair"]) for o in report["logged_observations"]} \
            == {("Z2", "D4")}

    def test_size_gate(self):
        with pytest.raises(SizeLimitExceeded):
            verify_theorems(pairs=[("Z2", "K4")], max_order=4)

    def test_single_tiny_pair(self):
        report = verify_theorems(pairs=[("Z1", "Z2")])
        assert report["checked_class_pairs"] == 1
        assert report["discrepancies"] == []
