"""The earlier upper and lower searches, kept as oracles for the fast
ones: every certificate, witness included, must be the one the slow
search returns.  The certificate checks meet their earlier forms here
too, over every carrier isomorphism of the small catalog pairs."""

import itertools
import json
import math
import os
import random

import pytest

from centext import isotest
from centext.catalog import catalog_names, get_group
from centext.cocycles import (
    _generator_columns,
    _witness_walk,
    are_cohomologous,
    cocycle_inv,
    cocycle_mul,
    compute_cocycle_space,
    pullback,
    pushforward,
    trivial_cocycle,
)
from centext.errors import (
    ConditionsFailed,
    GroupMismatch,
    HypothesisNotVerified,
)
from centext.extensions import (
    TRIVIAL_COMPONENTS,
    _arrays,
    _component_images,
    _direct_failure,
    build_extension,
    decompose_hom,
    trivial_components,
)
from centext.groups import (
    DEFAULT_LIMITS,
    GroupMap,
    _MapSearch,
    cyclic_group,
    direct_product,
    enumerate_automorphisms,
    enumerate_homs,
    enumerate_isomorphisms,
)
from centext.intlinalg import IntLattice, abelian_invariants
from centext.isotest import (
    CERTIFICATE_KINDS,
    IsoCertificate,
    _necessary,
    _shaped_isomorphisms,
    _survey,
    g1g2_isomorphic,
    g2_isomorphic_equal_order,
    lower_isomorphic,
    upper_isomorphic,
)
from oracles import (
    coboundary_lattice,
    components_by_calls,
    direct_failure_by_calls,
    has_kind_by_components,
    materialize_by_components,
    replace,
)

PINS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                         "pins.json")


def triple_search_lower(src, tgt):
    """The earlier lower_isomorphic: every component triple (sigma, rho,
    delta) in Aut(G1) x Aut(G2) x Hom(G1, G2), sigma-major, against the
    converse conditions, read by the lower necessity path with one facts
    dict for the pair."""
    g1, g2 = src.g1, src.g2
    facts = {}
    homs21 = enumerate_homs(g1, g2)
    autos2 = enumerate_automorphisms(g2)
    for sigma in enumerate_automorphisms(g1):
        for rho in autos2:
            for delta in homs21:
                cert = IsoCertificate(kind="lower", source=src, target=tgt,
                                      sigma=sigma, rho=rho, delta=delta)
                try:
                    _necessary("lower", src, tgt,
                               _arrays(cert.components()), facts)
                except (ConditionsFailed, HypothesisNotVerified):
                    continue
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


COMPONENTS = ("phi11", "phi12", "phi21", "phi22")


@pytest.mark.parametrize("pair", ORACLE_PAIRS, ids=":".join)
def test_kind_reads_equal_decompose_hom(pair):
    # trivial_components, the one read of a map's kind, agrees with the
    # component-wise has_kind reference, and the survey keeps one set
    # of trivial components per isomorphism
    for src, tgt in oracle_class_pairs(pair):
        isos = [(phi, decompose_hom(src, tgt, phi))
                for phi in enumerate_isomorphisms(src.group, tgt.group)]
        for phi, m in isos:
            parts = _component_images(src, tgt, phi.images)
            assert parts == components_by_calls(src, tgt, phi) == {
                c: getattr(m, c).images for c in COMPONENTS}
            trivial = trivial_components(src, tgt, phi.images)
            for kind, forced in TRIVIAL_COMPONENTS.items():
                assert (not any(any(parts[c]) for c in forced)) == \
                    trivial.issuperset(forced) == \
                    has_kind_by_components(m, kind)
        shaped = _shaped_isomorphisms(src, tgt, DEFAULT_LIMITS)
        assert shaped == [(phi, frozenset(c for c in COMPONENTS
                                          if getattr(m, c).is_trivial()))
                          for phi, m in isos]
        expected = {kind: any(has_kind_by_components(m, kind)
                              for _, m in isos)
                    for kind in TRIVIAL_COMPONENTS
                    if kind != "purely_nonabelian"}
        assert _survey(shaped) == {**expected,
                                   "isomorphism_count": len(isos)}


@pytest.mark.parametrize("pair", ORACLE_PAIRS, ids=":".join)
def test_materialize_checks_the_kind(pair, monkeypatch):
    # a certificate whose map is a given isomorphism materializes
    # exactly when decompose_hom's matrix has the certificate's kind,
    # by the component-wise has_kind reference
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
                assert holds == has_kind_by_components(m, kind)
                seen.add(holds)
    assert seen == {True, False}


@pytest.mark.parametrize("pair", ORACLE_PAIRS, ids=":".join)
def test_hom_lattice_is_the_coboundary_tail(pair):
    g1, g2 = get_group(pair[0]), get_group(pair[1])
    k = len(_generator_columns(g2))
    walk = _witness_walk(g1, g2)
    assert _witness_walk(g1, g2) is walk
    for d, cached in zip(abelian_invariants(g1).invariant_factors, walk[3]):
        # Hom from the tail of the [u_j | e_j] lattice, against the tail
        # of the coboundary lattice: the rows depend on the basis, the
        # pivots and the span do not
        tail = coboundary_lattice(g2, d).tail(k)
        assert sorted(cached) == sorted(tail.pivot_rows)
        rows = IntLattice(g2.order - 1, d)
        for i, (gi, tau) in cached.items():
            # tau is a homomorphism, zero before point i + 1 and gi there
            assert gi == tail.pivot(i)
            assert tau[:i + 2] == [0] * (i + 1) + [gi]
            assert all((tau[x] + tau[y] - tau[g2.table[x][y]]) % d == 0
                       for x in range(g2.order) for y in range(g2.order))
            rows.add(tau[1:])
        assert all(not any(rows.reduce(tail.dense_row(p)))
                   for p in tail.pivot_rows)
        assert all(not any(tail.reduce(tau[1:])) for _, tau in cached.values())
        # the pivots span Hom(g2, Z/d)
        assert math.prod(d // gi for gi, _ in cached.values()) == len(
            enumerate_homs(g2, cyclic_group(d)))


def decider_certificates(src, tgt):
    """The certificates the deciders emit on one class pair."""
    g1, g2 = src.g1, src.g2
    deciders = [upper_isomorphic, lower_isomorphic, g1g2_isomorphic]
    if g1.is_abelian and g2.is_abelian and g1.order == g2.order:
        deciders.append(g2_isomorphic_equal_order)
    return [c for c in (d(src, tgt) for d in deciders) if c is not None]


def materialized(materialize, cert):
    """materialize(cert), or the type and message of what it raised."""
    try:
        return materialize(cert)
    except Exception as exc:
        return type(exc), str(exc)


def certificate_mutations(cert, rng):
    """cert under every kind; then, for each component map it holds,
    the map with one image changed, at a seeded point other than the
    identity, twice, and the map with the wrong codomain."""
    yield from (replace(cert, kind=k) for k in CERTIFICATE_KINDS)
    fields = {f: getattr(cert, f) for f in ("sigma", "rho", "delta", "eta")}
    if cert.t_witness is not None:
        fields["t_witness"] = cert.t_witness.t
    for field, m in fields.items():
        if m is None:
            continue

        def put(images, cod=m.cod):
            new = GroupMap(dom=m.dom, cod=cod, images=tuple(images))
            if field == "t_witness":
                new = replace(cert.t_witness, t=new)
            return replace(cert, **{field: new})
        for _ in range(2):
            images = list(m.images)
            x = rng.randrange(1, len(images))
            images[x] = rng.choice([v for v in range(m.cod.order)
                                    if v != images[x]])
            yield put(images)
        yield put((0,) * m.dom.order, cod=cert.target.group)


@pytest.mark.parametrize("pair", ORACLE_PAIRS, ids=":".join)
def test_materialize_equals_materialize_by_components(pair):
    # every certificate the deciders emit, and its mutations, give the
    # earlier materialize's map or its error type and message
    rng, seen = random.Random(":".join(pair)), set()
    for src, tgt in oracle_class_pairs(pair):
        for cert in decider_certificates(src, tgt):
            for c in [cert, *certificate_mutations(cert, rng)]:
                got = materialized(IsoCertificate.materialize, c)
                assert got == materialized(materialize_by_components, c)
                if isinstance(got, GroupMap):
                    assert got == GroupMap(dom=got.dom, cod=got.cod,
                                           images=got.images)
                seen.add(got[0] if isinstance(got, tuple) else GroupMap)
    assert seen == {GroupMap, ConditionsFailed, GroupMismatch}


def emitted_equal_checked(maps):
    """Each map the search emitted equals the one GroupMap's checking
    constructor builds from its fields, with a tuple of ints as images;
    returns how many there were."""
    count = 0
    for m in maps:
        assert type(m) is GroupMap and type(m.images) is tuple
        assert all(type(v) is int for v in m.images)
        assert m == GroupMap(dom=m.dom, cod=m.cod, images=m.images)
        count += 1
    return count


@pytest.mark.parametrize("name", [n for n in catalog_names()
                                  if get_group(n).order <= 24])
def test_emitted_automorphisms_equal_checked_maps(name):
    g = get_group(name)
    assert emitted_equal_checked(
        _MapSearch(g, g, True, DEFAULT_LIMITS).run()) == len(
            enumerate_automorphisms(g))


@pytest.mark.parametrize("pair", ORACLE_PAIRS, ids=":".join)
def test_emitted_carrier_isomorphisms_equal_checked_maps(pair):
    # and so do the components decompose_hom reads off each of them
    isos = list(carrier_isomorphisms(pair))
    assert emitted_equal_checked(phi for _, _, phi in isos) == len(isos)
    assert emitted_equal_checked(
        getattr(decompose_hom(src, tgt, phi), c)
        for src, tgt, phi in isos for c in COMPONENTS) == 4 * len(isos)
