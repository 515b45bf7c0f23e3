"""The earlier upper and lower searches, kept as oracles for the fast
ones: every certificate, witness included, must be the one the slow
search returns.  The certificate checks meet their earlier forms here
too, over every carrier isomorphism of the small catalog pairs."""

import itertools
import json
import os
import random

import pytest

from centext import isotest
from centext.catalog import catalog_names, get_group
from centext.cocycles import (
    _coboundary_lattice,
    _generator_columns,
    _hom_lattice,
    are_cohomologous,
    cocycle_inv,
    cocycle_mul,
    compute_cocycle_space,
    pullback,
    pushforward,
    trivial_cocycle,
)
from centext.errors import ConditionsFailed
from centext.extensions import (
    TRIVIAL_COMPONENTS,
    _component_images,
    _direct_failure,
    build_extension,
    decompose_hom,
)
from centext.groups import (
    GroupMap,
    direct_product,
    enumerate_automorphisms,
    enumerate_homs,
    enumerate_isomorphisms,
)
from centext.intlinalg import abelian_invariants
from centext.isotest import (
    CERTIFICATE_KINDS,
    IsoCertificate,
    _lower_problem,
    _survey,
    lower_isomorphic,
    upper_isomorphic,
)
from oracles import components_by_calls, direct_failure_by_calls

PINS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                         "pins.json")


def triple_search_lower(src, tgt):
    """The earlier lower_isomorphic: every component triple (sigma, rho,
    delta) in Aut(G1) x Aut(G2) x Hom(G1, G2), sigma-major, against the
    converse conditions."""
    g1, g2 = src.g1, src.g2
    homs21 = enumerate_homs(g1, g2)
    autos2 = enumerate_automorphisms(g2)
    for sigma in enumerate_automorphisms(g1):
        for rho in autos2:
            for delta in homs21:
                cert = IsoCertificate(kind="lower", source=src, target=tgt,
                                      sigma=sigma, rho=rho, delta=delta)
                if _lower_problem(cert) is None:
                    cert.materialize()
                    return cert
    return None


def table_search_upper(src, tgt):
    """The earlier upper_isomorphic: for each (sigma, rho), sigma-major,
    the cocycle (sigma . e1) * inverse(e2 . (rho x rho)) built as a
    table and tested by are_cohomologous against the trivial one."""
    g1, g2 = src.g1, src.g2
    triv = trivial_cocycle(g1, g2)
    inv2 = cocycle_inv(tgt.cocycle)
    autos2 = enumerate_automorphisms(g2)
    for sigma in enumerate_automorphisms(g1):
        pushed = pushforward(sigma, src.cocycle)
        for rho in autos2:
            w = are_cohomologous(triv, cocycle_mul(pushed,
                                                   pullback(inv2, rho)))
            if w is not None:
                cert = IsoCertificate(kind="upper", source=src, target=tgt,
                                      sigma=sigma, rho=rho, t_witness=w)
                cert.materialize()
                return cert
    return None


def as_dict(cert):
    return None if cert is None else cert.to_dict()


def class_extensions(pair):
    name1, name2 = pair
    g1 = (direct_product(get_group("Z2"), get_group("Z6"))
          if name1 == "Z2xZ6" else get_group(name1))
    space = compute_cocycle_space(g1, get_group(name2))
    return [build_extension(rep) for rep in space.class_representatives]


# every catalog pair with nontrivial abelian kernel and carrier order at
# most 16; the two with 64 classes are sampled
ORACLE_PAIRS = [
    (a, b) for a in catalog_names() for b in catalog_names()
    if get_group(a).is_abelian
    and 1 < get_group(a).order
    and 1 < get_group(b).order
    and get_group(a).order * get_group(b).order <= 16]
SAMPLED = {("Z2", "Z2xZ2xZ2"): 80, ("K4", "K4"): 60}
# invariant factors (2, 6), one class for d = 2 and three for d = 6
SEARCH_PAIRS = ORACLE_PAIRS + [("Z2xZ6", "Z3")]


def oracle_class_pairs(pair):
    exts = class_extensions(pair)
    ordered = list(itertools.product(exts, repeat=2))
    if pair in SAMPLED:
        ordered = random.Random(":".join(pair)).sample(ordered, SAMPLED[pair])
    return ordered


def test_oracle_pairs_cover_the_small_catalog():
    assert len(ORACLE_PAIRS) == 33
    # |Aut(G1)| = 2, so the sigma-major order is tested
    for pair in (("Z4", "K4"), ("Z3", "Z3")):
        assert pair in ORACLE_PAIRS
        assert len(enumerate_automorphisms(get_group(pair[0]))) == 2


@pytest.mark.parametrize("pair", SEARCH_PAIRS, ids=":".join)
def test_lower_certificates_equal_the_triple_search(pair):
    hits = 0
    for src, tgt in oracle_class_pairs(pair):
        expected = as_dict(triple_search_lower(src, tgt))
        assert as_dict(lower_isomorphic(src, tgt)) == expected
        hits += expected is not None
    assert hits


@pytest.mark.parametrize("pair", SEARCH_PAIRS, ids=":".join)
def test_upper_certificates_equal_the_table_search(pair):
    hits = 0
    for src, tgt in oracle_class_pairs(pair):
        expected = as_dict(table_search_upper(src, tgt))
        assert as_dict(upper_isomorphic(src, tgt)) == expected
        hits += expected is not None
    assert hits


def sweep_against_the_census_pins(decide, column):
    """decide on all 64^2 class pairs of Z2:Z2xZ2xZ2, against one column
    of the pinned verdict strings, which read plain, upper, lower,
    g1g2."""
    with open(PINS_PATH, encoding="utf-8") as fh:
        pinned = json.load(fh)["pairs"]["Z2:Z2xZ2xZ2"]
    exts = class_extensions(("Z2", "Z2xZ2xZ2"))
    assert len(exts) == pinned["classes"] == 64
    got = ["1" if decide(src, tgt) is not None else "0"
           for src, tgt in itertools.product(exts, repeat=2)]
    assert got == [v[column] for v in pinned["verdicts"]]


def test_lower_sweep_matches_the_census_pins():
    sweep_against_the_census_pins(lower_isomorphic, 2)


def test_upper_sweep_matches_the_census_pins():
    sweep_against_the_census_pins(upper_isomorphic, 1)


def carrier_isomorphisms(pair):
    """(src, tgt, phi) for every carrier isomorphism of the pair's
    sampled class pairs."""
    for src, tgt in oracle_class_pairs(pair):
        for phi in enumerate_isomorphisms(src.group, tgt.group):
            yield src, tgt, phi


def mutated(phi, rng):
    """phi with the images of two nonidentity points swapped, still a
    normalized bijection; phi itself when the carrier has order 2."""
    images = list(phi.images)
    if len(images) > 2:
        a, b = rng.sample(range(1, len(images)), 2)
        images[a], images[b] = images[b], images[a]
    return GroupMap(dom=phi.dom, cod=phi.cod, images=tuple(images))


@pytest.mark.parametrize("pair", ORACLE_PAIRS, ids=":".join)
def test_direct_check_equals_the_call_loop(pair):
    # an isomorphism passes, which is the loop's verdict too; a mutated
    # map gets the loop's verdict and first failing triple, on the
    # generator factors and on all of them
    rng, failures = random.Random(":".join(pair)), 0
    for src, tgt, phi in carrier_isomorphisms(pair):
        gens = (src.g1.generators, src.g2.generators)
        assert _direct_failure(src, tgt, phi, *gens) is None
        psi = mutated(phi, rng)
        for kernel, section in (gens, (range(src.g1.order),
                                       range(src.g2.order))):
            got = _direct_failure(src, tgt, psi, kernel, section)
            assert got == direct_failure_by_calls(src, tgt, psi, kernel,
                                                  section)
            failures += got is not None
    assert failures


@pytest.mark.parametrize("pair", ORACLE_PAIRS, ids=":".join)
def test_kind_reads_equal_decompose_hom(pair):
    # materialize reads the forced components off the image array, and
    # the survey one set of trivial components per matrix
    for src, tgt in oracle_class_pairs(pair):
        isos = [(phi, decompose_hom(src, tgt, phi))
                for phi in enumerate_isomorphisms(src.group, tgt.group)]
        for phi, m in isos:
            parts = _component_images(src, tgt, phi.images)
            assert parts == components_by_calls(src, tgt, phi) == {
                c: getattr(m, c).images
                for c in ("phi11", "phi12", "phi21", "phi22")}
            for kind, forced in TRIVIAL_COMPONENTS.items():
                assert (not any(any(parts[c]) for c in forced)) == \
                    m.has_kind(kind)
        expected = {kind: any(m.has_kind(kind) for _, m in isos)
                    for kind in TRIVIAL_COMPONENTS
                    if kind != "purely_nonabelian"}
        assert _survey(isos) == {**expected, "isomorphism_count": len(isos)}


@pytest.mark.parametrize("pair", ORACLE_PAIRS, ids=":".join)
def test_materialize_checks_the_kind(pair, monkeypatch):
    # a certificate whose map is a given isomorphism materializes
    # exactly when decompose_hom's matrix has the certificate's kind
    current, seen = [], set()
    monkeypatch.setattr(isotest, "reconstruct_hom", lambda m: current[0])
    for src, tgt in oracle_class_pairs(pair):
        for phi in enumerate_isomorphisms(src.group, tgt.group)[:12]:
            m = decompose_hom(src, tgt, phi)
            current[:] = [phi]
            for kind in CERTIFICATE_KINDS:
                cert = IsoCertificate(kind=kind, source=src, target=tgt)
                try:
                    holds = cert.materialize() is phi
                except ConditionsFailed as exc:
                    assert str(exc) == \
                        f"certificate map is not of kind {kind!r}"
                    holds = False
                assert holds == m.has_kind(kind)
                seen.add(holds)
    assert seen == {True, False}


@pytest.mark.parametrize("pair", ORACLE_PAIRS, ids=":".join)
def test_hom_lattice_is_the_coboundary_tail(pair):
    g1, g2 = get_group(pair[0]), get_group(pair[1])
    k = len(_generator_columns(g2))
    for d in abelian_invariants(g1).invariant_factors:
        cached, tail = _hom_lattice(g2, d), _coboundary_lattice(g2, d).tail(k)
        assert _hom_lattice(g2, d) is cached
        assert (cached.ncols, cached.modulus, cached.pivot_rows) == \
            (tail.ncols, tail.modulus, tail.pivot_rows)
