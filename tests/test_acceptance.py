"""Acceptance sweep: ten end-to-end checks, each against an independent
oracle and pinned to a runtime budget.  One test per check, so the
verbose run shows one pass/fail line for each."""

import itertools
import math
import random
import time
from collections import Counter

import pytest

from centext.catalog import get_group, identify_group, special_linear_2_5
from centext.cocycles import (
    apply_coboundary,
    are_cohomologous,
    compute_cocycle_space,
    make_cocycle,
    trivial_cocycle,
)
from centext.errors import ConditionsFailed, PreconditionViolated
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
    SearchLimits,
    brute_force_isomorphism,
    center,
    cyclic_group,
    enumerate_automorphisms,
    enumerate_homs,
    enumerate_isomorphisms,
    is_purely_nonabelian,
    trivial_map,
)
from centext.isotest import (
    IsoCertificate,
    build_purely_nonabelian_iso,
    g1_isomorphic_necessary,
    g1g2_isomorphic,
    g2_isomorphic_equal_order,
    g2_isomorphic_necessary,
    lower_isomorphic,
    lower_necessary,
    lower_sufficient,
    simple_quotient_check,
    upper_isomorphic,
)
from oracles import identity_map, preserves_kernel_setwise

BIG = SearchLimits(max_order=256, max_search_nodes=50_000_000)


def _finish(tag, t0, budget, detail):
    took = time.monotonic() - t0
    assert took < budget, f"{tag} blew its {budget:.0f}s budget: {took:.1f}s"
    print(f"{tag}: PASS in {took:.1f}s (budget {budget:.0f}s) - {detail}")


def _class_extensions(name1, name2):
    space = compute_cocycle_space(get_group(name1), get_group(name2))
    return [build_extension(rep) for rep in space.class_representatives]


# ---------------------------------------------------------------------------
# oracles (kept free of the code paths they check)


def _exhaustive_cocycle_counts(n, m):
    """Count cocycles and distinct coboundaries over (Z_m, Z_n) by raw
    enumeration of normalized tables; no linear algebra involved."""
    add = [[(a + b) % m for b in range(m)] for a in range(m)]
    mulq = [[(a + b) % n for b in range(n)] for a in range(n)]
    idx = {}
    for h in range(1, n):
        for g in range(1, n):
            idx[(h, g)] = len(idx)
    triples = []
    for h in range(1, n):
        for g in range(1, n):
            hg = mulq[h][g]
            for k in range(1, n):
                gk = mulq[g][k]
                # -1 encodes a cell fixed to zero by normalization
                triples.append((idx[(h, g)], idx.get((hg, k), -1),
                                idx[(g, k)], idx.get((h, gk), -1)))
    z2 = 0
    for vec in itertools.product(range(m), repeat=len(idx)):
        v = vec + (0,)
        if all(add[v[a]][v[b]] == add[v[c]][v[d]] for a, b, c, d in triples):
            z2 += 1
    seen = set()
    for tvec in itertools.product(range(m), repeat=n - 1):
        t = (0,) + tvec
        seen.add(tuple(tuple((t[g] - t[mulq[h][g]] + t[h]) % m
                             for g in range(n)) for h in range(n)))
    return z2, len(seen)


def _raw_is_hom(mul_s, mul_t, images):
    n = len(images)
    for i in range(n):
        fi = images[i]
        row = mul_s[i]
        for j in range(n):
            if images[row[j]] != mul_t[fi][images[j]]:
                return False
    return True


def _raw_is_split(src, mul_t, images):
    # phi(x, y) must equal phi(x, 1) phi(1, y)
    n2 = src.g2.order
    for i, v in enumerate(images):
        x, y = divmod(i, n2)
        if v != mul_t[images[x * n2]][images[y]]:
            return False
    return True


def _constrained_survey(a, b, limits=BIG):
    """One enumeration pass per carrier pair: which isomorphisms have a
    trivial kernel diagonal, a trivial section diagonal, or both."""
    n2s, n2t = a.g2.order, b.g2.order
    sec = range(n2s)
    ker = [x * n2s for x in range(a.g1.order)]
    out = {"g1": None, "g2": None, "g1g2": None, "count": 0}
    for phi in enumerate_isomorphisms(a.group, b.group, limits):
        out["count"] += 1
        s22 = all(phi(i) % n2t == 0 for i in sec)
        s11 = all(phi(i) < n2t for i in ker)
        if s11 and out["g1"] is None:
            out["g1"] = phi
        if s22 and out["g2"] is None:
            out["g2"] = phi
        if s11 and s22 and out["g1g2"] is None:
            out["g1g2"] = phi
    return out


def _oracle_section_preserving(a, b, limits=BIG):
    want = set(range(b.g2.order))
    return [phi for phi in enumerate_isomorphisms(a.group, b.group, limits)
            if {phi(i) for i in range(a.g2.order)} == want]


# ---------------------------------------------------------------------------
# the ten checks


def test_01_cyclic_cohomology_matches_gcd_and_raw_counts():
    t0 = time.monotonic()
    recounted = 0
    for n in range(2, 7):
        for m in range(2, 7):
            space = compute_cocycle_space(cyclic_group(m), cyclic_group(n))
            assert space.h2_order == math.gcd(n, m), (n, m)
            if (n - 1) ** 2 * math.log2(m) <= 20 + 1e-9:
                z2, b2 = _exhaustive_cocycle_counts(n, m)
                assert z2 == space.z2_order, (n, m)
                assert b2 == space.b2_order, (n, m)
                assert z2 // b2 == space.h2_order, (n, m)
                recounted += 1
    assert recounted == 14
    _finish("acceptance 1", t0, 10.0,
            f"25 cyclic pairs, {recounted} recounted exhaustively")


def test_02_order_eight_census_is_the_expected_multiset():
    t0 = time.monotonic()
    exts = _class_extensions("Z2", "K4")
    assert len(exts) == 8
    names = [identify_group(e.group) for e in exts]
    assert Counter(names) == Counter(
        {"Z2xZ2xZ2": 1, "Z2xZ4": 3, "D4": 3, "Q8": 1})
    # distinct classes, isomorphic carriers
    twins = [(i, j) for i, j in itertools.combinations(range(8), 2)
             if names[i] == names[j]]
    assert twins
    for i, j in twins:
        assert are_cohomologous(exts[i].cocycle, exts[j].cocycle) is None
        assert brute_force_isomorphism(exts[i].group,
                                       exts[j].group) is not None
    _finish("acceptance 2", t0, 5.0,
            f"census {sorted(Counter(names).items())}, "
            f"{len(twins)} non-cohomologous isomorphic pairs")


def test_03_homomorphism_test_agrees_with_component_conditions():
    # quotient fixed to Z2, the verified coboundary-trivial case; the
    # full normalized map space is exhausted up to 2^18 maps and seeded
    # sampling (1e5 maps per pair) plus targeted tiers cover the rest
    t0 = time.monotonic()
    rng = random.Random(20260817)
    pair_names = [("Z2", "Z2"), ("Z3", "Z2"), ("Z4", "Z2"), ("K4", "Z2")]
    total = counterexamples = 0

    def examine(src, tgt, images):
        nonlocal total, counterexamples
        total += 1
        raw_hom = _raw_is_hom(src.group.table, tgt.group.table, images)
        split = _raw_is_split(src, tgt.group.table, images)
        if not raw_hom and not split:
            return
        phi = GroupMap(dom=src.group, cod=tgt.group, images=tuple(images))
        lib_hom, _ = is_homomorphism_direct(src, tgt, phi)
        failure = next(hom_condition_failures(decompose_hom(src, tgt, phi)),
                       None)
        if lib_hom != raw_hom or raw_hom != (split and failure is None):
            counterexamples += 1

    for n1, n2 in pair_names:
        exts = _class_extensions(n1, n2)
        for src, tgt in itertools.product(exts, repeat=2):
            n = src.group.order
            if n ** (n - 1) <= 2 ** 18:
                for vec in itertools.product(range(n), repeat=n - 1):
                    examine(src, tgt, (0,) + vec)
                continue
            # split maps, all of them
            g1o, g2o = src.g1.order, src.g2.order
            for m11 in itertools.product(range(g1o), repeat=g1o - 1):
                for m12 in itertools.product(range(g1o), repeat=g2o - 1):
                    for m21 in itertools.product(range(g2o), repeat=g1o - 1):
                        for m22 in itertools.product(range(g2o),
                                                     repeat=g2o - 1):
                            m = HomMatrix(
                                source=src, target=tgt,
                                phi11=GroupMap(dom=src.g1, cod=tgt.g1,
                                               images=(0,) + m11),
                                phi12=GroupMap(dom=src.g2, cod=tgt.g1,
                                               images=(0,) + m12),
                                phi21=GroupMap(dom=src.g1, cod=tgt.g2,
                                               images=(0,) + m21),
                                phi22=GroupMap(dom=src.g2, cod=tgt.g2,
                                               images=(0,) + m22))
                            examine(src, tgt, reconstruct_hom(m).images)
            # every homomorphism, with one-cell corruptions of each
            homs = enumerate_homs(src.group, tgt.group)
            for h in homs:
                examine(src, tgt, h.images)
                for _ in range(10):
                    k = rng.randrange(1, n)
                    mut = list(h.images)
                    mut[k] = rng.randrange(n)
                    examine(src, tgt, tuple(mut))
            # seeded bulk sampling
            for _ in range(100_000):
                examine(src, tgt,
                        (0,) + tuple(rng.randrange(n) for _ in range(n - 1)))

    assert counterexamples == 0
    assert total > 2_000_000
    _finish("acceptance 3", t0, 60.0,
            f"{total} maps examined, {counterexamples} counterexamples")


def test_04_kernel_preserving_criterion_matches_oracle():
    t0 = time.monotonic()
    checked = positives = 0
    for n1, n2 in [("Z2", "Z2"), ("Z2", "Z4"), ("Z2", "K4"), ("Z3", "Z3")]:
        exts = _class_extensions(n1, n2)
        for a, b in itertools.product(exts, repeat=2):
            kernel = range(0, a.group.order, a.g2.order)
            oracle = any(
                {phi(i) for i in kernel} == set(kernel)
                for phi in enumerate_isomorphisms(a.group, b.group))
            cert = upper_isomorphic(a, b)
            assert (cert is not None) == oracle, (n1, n2)
            if cert is not None:
                phi = cert.materialize()
                ok, _ = is_homomorphism_direct(a, b, phi)
                assert ok and phi.is_bijective()
                assert preserves_kernel_setwise(a, b, phi)
                positives += 1
            checked += 1
    assert checked == 81
    _finish("acceptance 4", t0, 30.0,
            f"{checked} class pairs, {positives} kernel-preserving")


def test_05_section_preserving_isos_biject_with_certificates():
    t0 = time.monotonic()
    checked = iso_total = 0
    for n1, n2 in [("Z2", "Z2"), ("Z2", "Z4"), ("Z2", "K4"), ("Z3", "Z3")]:
        exts = _class_extensions(n1, n2)
        g1, g2 = exts[0].g1, exts[0].g2
        auts1 = enumerate_automorphisms(g1)
        auts2 = enumerate_automorphisms(g2)
        homs21 = enumerate_homs(g1, g2)
        for a, b in itertools.product(exts, repeat=2):
            found = _oracle_section_preserving(a, b)
            for phi in found:
                cert = lower_necessary(a, b, phi)
                assert cert.materialize().images == phi.images
            materialized = []
            for sigma in auts1:
                for rho in auts2:
                    for delta in homs21:
                        cert = IsoCertificate(
                            kind="lower", source=a, target=b,
                            sigma=sigma, rho=rho, delta=delta)
                        try:
                            phi = lower_sufficient(cert)
                        except ConditionsFailed:
                            continue
                        ok, _ = is_homomorphism_direct(a, b, phi)
                        assert ok and phi.is_bijective()
                        materialized.append(phi.images)
            assert sorted(materialized) == sorted(p.images for p in found)
            assert (lower_isomorphic(a, b) is not None) == bool(found)
            checked += 1
            iso_total += len(found)
    assert checked == 81
    _finish("acceptance 5", t0, 30.0,
            f"{checked} class pairs, {iso_total} section-preserving "
            f"isomorphisms matched one-to-one with certificates")


def test_06_direct_product_reduction_iff_trivial_cocycle():
    t0 = time.monotonic()
    kernels = ["Z1", "Z2", "Z3", "Z4", "K4"]
    quotients = ["Z1", "Z2", "Z3", "Z4", "K4", "S3", "D4", "Q8"]
    classes = pairs = 0
    for n1 in kernels:
        g1 = get_group(n1)
        for n2 in quotients:
            g2 = get_group(n2)
            if g1.order * g2.order > 16:
                continue
            direct = build_extension(trivial_cocycle(g1, g2))
            space = compute_cocycle_space(g1, g2)
            for rep in space.class_representatives:
                e = build_extension(rep)
                assert rep.is_trivial() == bool(
                    _oracle_section_preserving(e, direct))
                classes += 1
            pairs += 1
    assert classes >= 30
    _finish("acceptance 6", t0, 30.0,
            f"{classes} classes over {pairs} group pairs")


@pytest.mark.slow
def test_07_simple_quotient_tier_on_the_double_cover():
    t0 = time.monotonic()
    z2, a5 = get_group("Z2"), get_group("A5")
    sl = special_linear_2_5()
    zc = center(sl)
    assert len(zc) == 2

    kernel, quotient, eps, _ = central_quotient_data(sl, zc)
    psi = brute_force_isomorphism(quotient, a5, limits=BIG)
    chi = brute_force_isomorphism(kernel, z2, limits=BIG)
    assert psi is not None and chi is not None
    pinv = psi.inverse()
    table = [[chi(eps.table[pinv(y)][pinv(yp)]) for yp in range(60)]
             for y in range(60)]
    e_non = make_cocycle(z2, a5, table)
    e_triv = trivial_cocycle(z2, a5)

    assert are_cohomologous(e_triv, e_non) is None
    space = compute_cocycle_space(z2, a5)
    assert space.h2_invariant_factors == (2,)
    assert are_cohomologous(space.class_representatives[1], e_non)
    e0, e1 = build_extension(e_triv), build_extension(e_non)
    assert e0.group.order_profile != e1.group.order_profile
    assert brute_force_isomorphism(e0.group, e1.group, limits=BIG) is None
    assert brute_force_isomorphism(e1.group, sl, limits=BIG) is not None

    shift = GroupMap(dom=a5, cod=z2, images=(0, 1) + (0,) * 58)
    counts = []
    for e in (e0, e1):
        other = build_extension(apply_coboundary(shift, e.cocycle))
        report = simple_quotient_check(e, other, BIG)
        assert report["isomorphic"]
        assert report["all_kernel_preserving"]
        assert report["isomorphism_count"] == 120
        counts.append(report["isomorphism_count"])
    cross = simple_quotient_check(e0, e1, BIG)
    assert not cross["isomorphic"] and cross["isomorphism_count"] == 0
    _finish("acceptance 7", t0, 600.0,
            f"two order-120 classes, {counts} kernel-preserving "
            f"isomorphisms each, carriers non-isomorphic")


def test_08_component_builder_on_purely_nonabelian_quotients():
    t0 = time.monotonic()
    rng = random.Random(20260817)
    quotients = [get_group(n) for n in ("Q8", "S3", "D4")]
    kernels = [get_group(n) for n in ("Z2", "Z3", "Z4", "K4")]
    auts = {g.name: enumerate_automorphisms(g) for g in quotients + kernels}
    central_delta = {}
    for g1 in kernels:
        for g2 in quotients:
            zmem = set(center(g2))
            central_delta[(g1.name, g2.name)] = [
                h for h in enumerate_homs(g1, g2)
                if set(h.images) <= zmem and any(h.images)]
    built = with_delta = 0
    for i in range(100):
        g2 = quotients[i % 3]
        g1 = kernels[i % 4]
        assert is_purely_nonabelian(g2)
        space = compute_cocycle_space(g1, g2)
        sigma = rng.choice(auts[g1.name])
        rho = rng.choice(auts[g2.name])
        eta = rng.choice(enumerate_homs(g2, g1))
        candidates = central_delta[(g1.name, g2.name)]
        if i % 5 in (2, 4) and candidates:
            # nontrivial central delta needs cocycles that vanish exactly
            j = 0
            delta = rng.choice(candidates)
            with_delta += 1
        else:
            j = rng.randrange(space.h2_order)
            delta = trivial_map(g1, g2)
        rep = space.class_representatives[j]
        rinv = rho.inverse()
        e2 = make_cocycle(g1, g2, [
            [sigma(rep.table[rinv(y)][rinv(yp)]) for yp in range(g2.order)]
            for y in range(g2.order)])
        src, tgt = build_extension(rep), build_extension(e2)
        phi = build_purely_nonabelian_iso(sigma, eta, delta, rho, src, tgt)
        assert _raw_is_hom(src.group.table, tgt.group.table, phi.images)
        assert phi.is_bijective()
        built += 1
    assert built == 100 and with_delta >= 10

    # the collapse configuration: all-identity components over an abelian
    # quotient give a homomorphism that kills the diagonal
    k4 = get_group("K4")
    e = build_extension(trivial_cocycle(k4, k4))
    ident = identity_map(k4)
    m = HomMatrix(source=e, target=e, phi11=ident, phi12=ident,
                  phi21=ident, phi22=ident)
    phi = reconstruct_hom(m)
    ok, _ = is_homomorphism_direct(e, e, phi)
    assert ok and not phi.is_bijective()
    assert all(phi(x * 4 + x) == 0 for x in range(4))
    with pytest.raises(PreconditionViolated):
        build_purely_nonabelian_iso(ident, ident, ident, ident, e, e)
    _finish("acceptance 8", t0, 60.0,
            f"{built} random component tuples ({with_delta} with a "
            f"nontrivial central delta), collapse case reproduced")


def test_09_diagonal_trivial_criteria_match_constrained_oracle():
    t0 = time.monotonic()
    pair_names = [("Z1", "Z1"), ("Z2", "Z2"), ("Z3", "Z3"), ("Z4", "Z4"),
                  ("Z4", "K4"), ("K4", "Z4"), ("K4", "K4")]
    checked = pos22 = pos11 = posboth = 0
    for n1, n2 in pair_names:
        exts = _class_extensions(n1, n2)
        for a, b in itertools.product(exts, repeat=2):
            survey = _constrained_survey(a, b)
            cert22 = g2_isomorphic_equal_order(a, b, BIG)
            assert (cert22 is not None) == (survey["g2"] is not None), \
                (n1, n2)
            both = g1g2_isomorphic(a, b, BIG)
            assert (both is not None) == (survey["g1g2"] is not None), \
                (n1, n2)
            if survey["g2"] is not None:
                cert = g2_isomorphic_necessary(a, b, survey["g2"])
                assert cert.materialize().images == survey["g2"].images
                pos22 += 1
            if survey["g1"] is not None:
                cert = g1_isomorphic_necessary(a, b, survey["g1"])
                assert cert.materialize().images == survey["g1"].images
                pos11 += 1
            posboth += survey["g1g2"] is not None
            checked += 1
    assert checked == 1 + 4 + 9 + 16 + 64 + 16 + 4096
    _finish("acceptance 9", t0, 60.0,
            f"{checked} class pairs; positives: {pos22} section-diagonal, "
            f"{pos11} kernel-diagonal, {posboth} both")


def test_10_strictness_chain_over_the_klein_quotient():
    t0 = time.monotonic()
    exts = _class_extensions("Z2", "K4")

    # (a) cohomologous: equivalent, hence kernel-preserving isomorphic
    tmap = GroupMap(dom=get_group("K4"), cod=get_group("Z2"),
                    images=(0, 1, 0, 0))
    shifted = build_extension(apply_coboundary(tmap, exts[2].cocycle))
    assert shifted.cocycle.table != exts[2].cocycle.table
    assert are_cohomologous(exts[2].cocycle, shifted.cocycle) is not None
    assert equivalence_isomorphism(exts[2], shifted) is not None
    assert upper_isomorphic(exts[2], shifted) is not None

    # (b) non-cohomologous yet isomorphic
    assert are_cohomologous(exts[2].cocycle, exts[3].cocycle) is None
    assert brute_force_isomorphism(exts[2].group, exts[3].group) is not None

    # (c) isomorphic, kernel-preserving even, but never section-preserving
    assert brute_force_isomorphism(exts[1].group, exts[5].group) is not None
    assert upper_isomorphic(exts[1], exts[5]) is not None
    assert _oracle_section_preserving(exts[1], exts[5]) == []
    assert lower_isomorphic(exts[1], exts[5]) is None
    _finish("acceptance 10", t0, 10.0,
            "chain witnesses: coboundary shift, classes (2,3), "
            "classes (1,5)")
