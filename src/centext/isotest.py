"""Certificate-producing decision procedures for structured isomorphisms
between central extensions over a fixed group pair.

Kinds covered: kernel-preserving ("upper"), section-preserving ("lower"),
the families with one trivial diagonal component ("g1", "g2", "g1g2"),
and the builder for purely non-abelian quotients.  A kind is the set of
components it forces trivial, extensions.TRIVIAL_COMPONENTS, which every
test of a kind reads: HomMatrix.has_kind, the survey's one set of trivial
components per matrix, and materialize, which reads the forced ones off
the image array.  The upper and lower searches key each automorphism once
by its cocycle's generator columns, then look each sigma up among the
rho, only for classes in one orbit of Aut(G1) x Aut(G2) acting on H^2
by c -> sigma . c . (rho x rho): upper isomorphism is being in one
orbit, and a lower one puts both classes in one.  The generators of
the two groups permute the finite set H^2, so the classes they reach
from c, one orbit label per pair, are its whole orbit.  Every positive
answer carries component maps that materialize, through the carrier
product formula, into a map the direct checks verify to be a bijective
homomorphism of the certificate's kind.  A harness cross-validates each
criterion against brute-force isomorphism search on a small catalog.
"""

from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    ConditionsFailed,
    GroupMismatch,
    HypothesisNotVerified,
    NotG1Iso,
    NotG2Iso,
    NotLowerIso,
    PreconditionViolated,
    SizeLimitExceeded,
)
from .groups import (
    DEFAULT_LIMITS,
    GroupMap,
    SearchLimits,
    _automorphism_generators,
    enumerate_automorphisms,
    enumerate_isomorphisms,
    is_purely_nonabelian,
    is_simple,
    trivial_map,
)
from .cocycles import (
    CoboundaryWitness,
    _class_key,
    _column_values,
    are_cohomologous,
    cocycle_inv,
    compute_cocycle_space,
    pullback,
    pushforward,
    sim_is_trivial,
    trivial_cocycle,
)
from .extensions import (
    TRIVIAL_COMPONENTS,
    ExtensionGroup,
    HomMatrix,
    _component_groups,
    _component_images,
    build_extension,
    decompose_hom,
    hom_condition_failures,
    is_homomorphism_direct,
    reconstruct_hom,
)

__all__ = [
    "IsoCertificate",
    "upper_isomorphic",
    "lower_necessary",
    "lower_sufficient",
    "lower_isomorphic",
    "simple_quotient_check",
    "build_purely_nonabelian_iso",
    "g2_isomorphic_necessary",
    "g2_isomorphic_equal_order",
    "g1_isomorphic_necessary",
    "g1g2_isomorphic",
    "oracle_iso_survey",
    "verify_theorems",
    "CERTIFICATE_KINDS",
    "DEFAULT_VERIFY_PAIRS",
]

CERTIFICATE_KINDS = tuple(k for k in TRIVIAL_COMPONENTS if k != "plain")

# the catalog pairs verify_theorems sweeps when given none
DEFAULT_VERIFY_PAIRS = (("Z2", "Z2"), ("Z2", "Z4"), ("Z2", "K4"),
                        ("Z3", "Z3"), ("Z2", "S3"), ("Z2", "D4"),
                        ("Z2", "Q8"))


def _extension_pair(e1, e2):
    """The extensions, built from cocycles where given those, checked
    to sit over one group pair."""
    src, tgt = (e if isinstance(e, ExtensionGroup) else build_extension(e)
                for e in (e1, e2))
    if src.g1 != tgt.g1 or src.g2 != tgt.g2:
        raise GroupMismatch("extensions sit over different group pairs")
    return src, tgt


def _first_failure(m: HomMatrix) -> str | None:
    """The reason of the first component condition failing on m."""
    return next((reason for _, reason, _ in hom_condition_failures(m)),
                None)


def _falsified(g2) -> type:
    """The error for a failed condition of a necessity statement that
    rests on the quotient hypothesis: ConditionsFailed when
    sim_is_trivial(g2) holds, since the failure falsifies the
    statement, else HypothesisNotVerified."""
    return ConditionsFailed if sim_is_trivial(g2) else HypothesisNotVerified


def _carrier_iso_of_kind(e1, e2, phi: GroupMap, kind: str, error: type):
    """The two extensions and phi's component matrix, when phi is a
    carrier isomorphism of the given kind; else raise error."""
    src, tgt = _extension_pair(e1, e2)
    ok, _ = is_homomorphism_direct(src, tgt, phi)
    if not (ok and phi.is_bijective()):
        raise error("phi is not an isomorphism of the carriers")
    m = decompose_hom(src, tgt, phi)
    if not m.has_kind(kind):
        raise error(f"phi is not of kind {kind!r}: "
                    f"{' and '.join(TRIVIAL_COMPONENTS[kind])} not trivial")
    return src, tgt, m


def _require(m: HomMatrix, *own, error=ConditionsFailed):
    """Raise error naming the first failing component condition on m,
    else the first of the (holds, reason) pairs in own that does not
    hold."""
    reason = _first_failure(m) or next(
        (reason for holds, reason in own if not holds), None)
    if reason is not None:
        raise error(reason)


@dataclass(frozen=True)
class IsoCertificate:
    """Component maps witnessing one structured isomorphism kind.

    sigma acts on the kernel group, rho on the section group, delta maps
    kernel to section, eta section to kernel, and t_witness records the
    coboundary map behind a membership test.  materialize() rebuilds the
    carrier map from the components and verifies it is an isomorphism of
    the claimed kind before returning it.
    """

    kind: str
    source: ExtensionGroup
    target: ExtensionGroup
    sigma: GroupMap | None = None
    rho: GroupMap | None = None
    delta: GroupMap | None = None
    eta: GroupMap | None = None
    t_witness: CoboundaryWitness | None = None

    def __post_init__(self):
        if self.kind not in CERTIFICATE_KINDS:
            raise ValueError(f"unknown certificate kind {self.kind!r}")

    def components(self) -> HomMatrix:
        """The four component maps: sigma, eta (else the coboundary map
        of t_witness), delta and rho.  A component the kind forces
        trivial, or one left unset, is the trivial map, built only then."""
        src, tgt = self.source, self.target
        t = self.t_witness.t if self.t_witness is not None else None
        parts = {"phi11": self.sigma, "phi21": self.delta, "phi22": self.rho,
                 "phi12": t if self.eta is None else self.eta}
        forced = TRIVIAL_COMPONENTS[self.kind]
        return HomMatrix(source=src, target=tgt, **{
            c: trivial_map(dom, cod) if parts[c] is None or c in forced
            else parts[c]
            for c, (dom, cod) in _component_groups(src, tgt).items()})

    def materialize(self) -> GroupMap:
        """The carrier map; raises ConditionsFailed unless the direct
        checks find a bijective homomorphism whose components, read off
        its image array, are trivial where TRIVIAL_COMPONENTS says the
        certificate's kind forces them."""
        src, tgt = self.source, self.target
        phi = reconstruct_hom(self.components())
        ok, witness = is_homomorphism_direct(src, tgt, phi)
        if not ok:
            raise ConditionsFailed(
                f"certificate does not materialize: {witness}")
        if not phi.is_bijective():
            raise ConditionsFailed("certificate map is not bijective")
        parts = _component_images(src, tgt, phi.images)
        if any(any(parts[c]) for c in TRIVIAL_COMPONENTS[self.kind]):
            raise ConditionsFailed(
                f"certificate map is not of kind {self.kind!r}")
        return phi

    def to_dict(self) -> dict:
        def images(m):
            return None if m is None else list(m.images)
        return {
            "kind": self.kind,
            "g1": self.source.g1.order,
            "g2": self.source.g2.order,
            "sigma": images(self.sigma),
            "rho": images(self.rho),
            "delta": images(self.delta),
            "eta": images(self.eta),
            "t": None if self.t_witness is None else list(
                self.t_witness.t.images),
        }


# ---------------------------------------------------------------------------
# kernel-preserving ("upper") isomorphisms


def _automorphism_pair_search(keys_of, src, tgt, limits):
    """The first (sigma, rho), sigma-major in enumeration order, with
    push(e1, sigma) == pull(e2, rho), (push, pull) = keys_of(g1, g2), or
    None.  Each rho is keyed once, in order and only as far as some sigma
    needs, keeping the first rho per key, so each lookup finds the first
    matching rho: |Aut(G1)| + |Aut(G2)| keys at most."""
    push, pull = keys_of(src.g1, src.g2)
    t1, t2 = src.cocycle.table, tgt.cocycle.table
    rhos = iter(enumerate_automorphisms(src.g2, limits))
    first = {}
    for sigma in enumerate_automorphisms(src.g1, limits):
        want = push(t1, sigma.images)
        while want not in first and (rho := next(rhos, None)) is not None:
            first.setdefault(pull(t2, rho.images), rho)
        if want in first:
            return sigma, first[want]
    return None


@lru_cache(maxsize=None)
def _orbit_label(g1, g2, limits):
    """label(table): the orbit of the table's class under Aut(G1) x
    Aut(G2), named by the class key of the first table met in it.  The
    labels fill one orbit at a time, breadth-first from that table: push
    it by each generator of Aut(G1), pull it by each of Aut(G2), key
    each image, and enqueue the keys not seen.  At most |H^2| are held."""
    key = _class_key(g1, g2)[0]
    identity = tuple(range(g1.order))
    sigmas, rhos = (_automorphism_generators(g, limits) for g in (g1, g2))
    labels = {}

    def label(table):
        start = key(table, identity)
        if start not in labels:
            labels[start], queue = start, [table]
            for t in queue:
                images = [tuple(tuple(s[v] for v in row) for row in t)
                          for s in sigmas]
                images += [tuple(tuple(t[a][b] for b in r) for a in r)
                           for r in rhos]
                for u in images:
                    if (k := key(u, identity)) not in labels:
                        labels[k] = start
                        queue.append(u)
        return labels[start]
    return label


def upper_isomorphic(e1, e2, limits: SearchLimits = DEFAULT_LIMITS):
    """Search for a kernel-preserving isomorphism between the two
    extensions.

    The criterion: some automorphisms sigma of the kernel group and rho
    of the section group put sigma . e1 and e2 . (rho x rho) in one
    class of H^2, so both classes lie in one Aut(G1) x Aut(G2) orbit,
    and _orbit_label settles the negatives with no search.  Within one
    orbit the first pair, sigma-major in enumeration order, comes from
    _automorphism_pair_search keyed by cocycles._class_key, whose keys
    are equal exactly for cohomologous cocycles; so it must hit, and a
    miss raises ConditionsFailed.  are_cohomologous gives the hit its
    checked witness.
    """
    src, tgt = _extension_pair(e1, e2)
    label = _orbit_label(src.g1, src.g2, limits)
    if label(src.cocycle.table) != label(tgt.cocycle.table):
        return None
    hit = _automorphism_pair_search(_class_key, src, tgt, limits)
    if hit is None:
        raise ConditionsFailed("no automorphism pair within one orbit")
    sigma, rho = hit
    w = are_cohomologous(pullback(tgt.cocycle, rho),
                         pushforward(sigma, src.cocycle))
    cert = IsoCertificate(kind="upper", source=src, target=tgt, sigma=sigma,
                          rho=rho, t_witness=w)
    cert.materialize()
    return cert


# ---------------------------------------------------------------------------
# section-preserving ("lower") isomorphisms


def _lower_problem(cert: IsoCertificate) -> str | None:
    """The first violated requirement of a section-preserving
    certificate: sigma and rho bijective, then the component
    conditions."""
    if cert.sigma is None or cert.rho is None or cert.delta is None:
        raise PreconditionViolated(
            "certificate is missing a component map")
    if not cert.rho.is_bijective():
        return "rho_not_automorphism"
    if not cert.sigma.is_bijective():
        return "sigma_not_automorphism"
    return _first_failure(cert.components())


def lower_necessary(e1, e2, phi: GroupMap) -> IsoCertificate:
    """Extract and verify the certificate that must exist behind any
    section-preserving isomorphism, a statement that rests on the
    quotient coboundary-triviality hypothesis.

    Raises NotLowerIso when phi is not a section-preserving isomorphism.
    A failed condition after that raises ConditionsFailed when
    sim_is_trivial holds for the quotient, since it would falsify the
    statement, and HypothesisNotVerified with the same message when the
    hypothesis fails.
    """
    return _lower_necessary(
        *_carrier_iso_of_kind(e1, e2, phi, "lower", NotLowerIso))


def _lower_necessary(src, tgt, m: HomMatrix) -> IsoCertificate:
    cert = IsoCertificate(kind="lower", source=src, target=tgt,
                          sigma=m.phi11, rho=m.phi22, delta=m.phi21)
    problem = _lower_problem(cert)
    if problem is not None:
        raise _falsified(src.g2)(problem)
    return cert


def lower_sufficient(cert: IsoCertificate) -> GroupMap:
    """Materialize a section-preserving isomorphism from certificate
    fields satisfying the finite converse conditions.

    Raises ConditionsFailed naming the first violated requirement."""
    if cert.kind != "lower":
        raise PreconditionViolated("certificate kind must be 'lower'")
    problem = _lower_problem(cert)
    if problem is not None:
        raise ConditionsFailed(problem)
    return cert.materialize()


def lower_isomorphic(e1, e2, limits: SearchLimits = DEFAULT_LIMITS):
    """Structured search for a section-preserving isomorphism: the first
    automorphism pair (sigma, rho), sigma-major in enumeration order,
    with sigma . e1 = e2 . (rho x rho), certified with the trivial delta.

    That is the first hit of the search over all triples (sigma, rho,
    delta), delta in Hom(G1, G2) in lexicographic order, against the
    converse conditions with eta trivial, which then split.  On delta
    alone: delta(G1) is central, as it centralizes rho(G2) = G2; delta
    kills e1's values; e2 vanishes on delta(G1)^2, as sigma's coboundary
    is zero; delta(G1) commutes with the section copy in the target
    carrier.  On (sigma, rho) alone: the transport equation, as eta's
    coboundary is zero.  The trivial delta passes the former and is the
    least element of enumerate_homs, so Hom(G1, G2) is not searched.
    _automorphism_pair_search keys each side by cocycles._column_values:
    a cocycle is fixed by its generator columns, so equal columns mean
    equal tables.

    A hit is correct for any quotient, since the converse direction holds
    and the assembled map is bijective when sigma and rho are.  An
    exhausted search settles the negative only under the quotient
    coboundary-triviality hypothesis, on which completeness rests.  A
    transport puts both classes in one Aut(G1) x Aut(G2) orbit, so
    where _orbit_label tells them apart None comes back at once.
    """
    src, tgt = _extension_pair(e1, e2)
    label = _orbit_label(src.g1, src.g2, limits)
    if label(src.cocycle.table) != label(tgt.cocycle.table):
        return None
    hit = _automorphism_pair_search(_column_values, src, tgt, limits)
    if hit is None:
        return None
    cert = IsoCertificate(kind="lower", source=src, target=tgt, sigma=hit[0],
                          rho=hit[1], delta=trivial_map(src.g1, src.g2))
    cert.materialize()
    return cert


# ---------------------------------------------------------------------------
# structural consequences for special quotients


def simple_quotient_check(e1, e2, limits: SearchLimits = DEFAULT_LIMITS):
    """For a simple non-abelian quotient, every isomorphism between the
    carriers must map the kernel copy onto the kernel copy.  Enumerates
    all of them, checks the claim on each (ConditionsFailed if one moves
    the kernel copy), and reports counts."""
    src, tgt = _extension_pair(e1, e2)
    g2 = src.g2
    if g2.is_abelian or not is_simple(g2):
        raise PreconditionViolated("quotient must be simple non-abelian")
    isos = _decomposed_isomorphisms(src, tgt, limits)
    if not all(m.has_kind("upper") for _, m in isos):
        raise ConditionsFailed(
            "isomorphism moved the kernel copy despite a simple quotient")
    return {
        "isomorphism_count": len(isos),
        "kernel_preserving_count": len(isos),
        "all_kernel_preserving": True,
        "isomorphic": bool(isos),
    }


def build_purely_nonabelian_iso(sigma: GroupMap, eta: GroupMap,
                                delta: GroupMap, rho: GroupMap, e1, e2
                                ) -> GroupMap:
    """Assemble an isomorphism from the four component maps when the
    quotient is purely non-abelian.

    Requires sigma and rho to be automorphisms, eta and delta
    homomorphisms, and the four component conditions; for such inputs
    they say that the section and delta images commute inside the
    target carrier, both cocycles die under delta, and sigma transports
    the source cocycle onto the pulled-back target cocycle.  The first
    failure raises PreconditionViolated.  Bijectivity of the assembled
    map is then checked, not searched for."""
    src, tgt = _extension_pair(e1, e2)
    g1, g2 = src.g1, src.g2
    if not is_purely_nonabelian(g2):
        raise PreconditionViolated("quotient is not purely non-abelian")
    if not (sigma.dom == g1 and sigma.cod == g1
            and sigma.is_homomorphism() and sigma.is_bijective()):
        raise PreconditionViolated("sigma is not a kernel automorphism")
    if not (eta.dom == g2 and eta.cod == g1 and eta.is_homomorphism()):
        raise PreconditionViolated("eta is not a section-to-kernel "
                                   "homomorphism")
    if not (delta.dom == g1 and delta.cod == g2 and delta.is_homomorphism()):
        raise PreconditionViolated("delta is not a kernel-to-section "
                                   "homomorphism")
    if not (rho.dom == g2 and rho.cod == g2
            and rho.is_homomorphism() and rho.is_bijective()):
        raise PreconditionViolated("rho is not a section automorphism")

    cert = IsoCertificate(kind="purely_nonabelian", source=src, target=tgt,
                          sigma=sigma, eta=eta, delta=delta, rho=rho)
    reason = _first_failure(cert.components())
    if reason is not None:
        raise PreconditionViolated(reason)
    return cert.materialize()


# ---------------------------------------------------------------------------
# one trivial diagonal component


def g2_isomorphic_necessary(e1, e2, phi: GroupMap) -> IsoCertificate:
    """Extract and verify the certificate behind an isomorphism whose
    section-to-section component is trivial.

    No quotient hypothesis is needed here: with that component trivial,
    the splitting step that otherwise requires coboundary-triviality is
    immediate.  Verification failures raise ConditionsFailed."""
    return _g2_necessary(*_carrier_iso_of_kind(e1, e2, phi, "g2", NotG2Iso))


def _g2_necessary(src, tgt, m: HomMatrix) -> IsoCertificate:
    n2 = src.g2.order
    _require(m, (len(set(m.phi12.images)) == n2, "eta is not injective"),
             (set(m.phi21.images) == set(range(n2)),
              "delta is not surjective"))
    return IsoCertificate(kind="g2", source=src, target=tgt, sigma=m.phi11,
                          eta=m.phi12, delta=m.phi21)


def g2_isomorphic_equal_order(e1, e2, limits: SearchLimits = DEFAULT_LIMITS):
    """Decision for equal-order abelian factor groups: the source
    cocycle must vanish and some isomorphism delta between the factors
    must pull the inverted target cocycle back to a coboundary.  The
    certificate materializes to (sigma(x) + delta'(y), delta(x))."""
    src, tgt = _extension_pair(e1, e2)
    g1, g2 = src.g1, src.g2
    if not (g1.is_abelian and g2.is_abelian and g1.order == g2.order):
        raise PreconditionViolated(
            "equal-order abelian factor groups required")
    if not src.cocycle.is_trivial():
        return None
    triv11 = trivial_cocycle(g1, g1)
    inv2 = cocycle_inv(tgt.cocycle)
    for delta in enumerate_isomorphisms(g1, g2, limits):
        w = are_cohomologous(triv11, pullback(inv2, delta))
        if w is not None:
            cert = IsoCertificate(kind="g2", source=src, target=tgt,
                                  sigma=w.t, eta=delta.inverse(),
                                  delta=delta, t_witness=w)
            cert.materialize()
            return cert
    return None


def g1_isomorphic_necessary(e1, e2, phi: GroupMap) -> IsoCertificate:
    """Extract and verify the certificate behind an isomorphism whose
    kernel-to-kernel component is trivial: the source cocycle vanishes,
    the target cocycle dies on the delta image, and the pulled-back
    inverse target cocycle is eta's coboundary.  The statement rests on
    the quotient coboundary-triviality hypothesis, so a failed condition
    raises ConditionsFailed when sim_is_trivial holds for the quotient
    and HypothesisNotVerified with the same message when it fails."""
    return _g1_necessary(*_carrier_iso_of_kind(e1, e2, phi, "g1", NotG1Iso))


def _g1_necessary(src, tgt, m: HomMatrix) -> IsoCertificate:
    n1 = src.g1.order
    _require(m, (len(set(m.phi21.images)) == n1, "delta is not injective"),
             (set(m.phi12.images) == set(range(n1)), "eta is not surjective"),
             (src.cocycle.is_trivial(), "source cocycle did not vanish"),
             error=_falsified(src.g2))
    return IsoCertificate(kind="g1", source=src, target=tgt, rho=m.phi22,
                          eta=m.phi12, delta=m.phi21)


def g1g2_isomorphic(e1, e2, limits: SearchLimits = DEFAULT_LIMITS):
    """Decision for both diagonal components trivial: the source cocycle
    vanishes and some isomorphism delta between the factor groups kills
    the target cocycle exactly.  Materializes (delta'(y), delta(x))."""
    src, tgt = _extension_pair(e1, e2)
    g1, g2 = src.g1, src.g2
    if g1.order != g2.order or not src.cocycle.is_trivial():
        return None
    t2 = tgt.cocycle.table
    for delta in enumerate_isomorphisms(g1, g2, limits):
        if all(t2[delta.images[x]][delta.images[xp]] == 0
               for x in range(g1.order) for xp in range(g1.order)):
            cert = IsoCertificate(kind="g1g2", source=src, target=tgt,
                                  eta=delta.inverse(), delta=delta)
            cert.materialize()
            return cert
    return None


# ---------------------------------------------------------------------------
# brute-force survey and the cross-validation harness


def oracle_iso_survey(src: ExtensionGroup, tgt: ExtensionGroup,
                      limits: SearchLimits = DEFAULT_LIMITS) -> dict:
    """Ground truth by exhaustive search: which structured kinds of
    isomorphism exist between the two carriers.  Constraints are applied
    as post-filters on fully enumerated isomorphisms."""
    return _survey(_decomposed_isomorphisms(src, tgt, limits))


def _decomposed_isomorphisms(src, tgt, limits):
    """Every carrier isomorphism, with its component matrix."""
    return [(phi, decompose_hom(src, tgt, phi))
            for phi in enumerate_isomorphisms(src.group, tgt.group, limits)]


def _survey(isos) -> dict:
    shapes = {m.trivial_components() for _, m in isos}
    verdicts = {kind: any(s.issuperset(forced) for s in shapes)
                for kind, forced in TRIVIAL_COMPONENTS.items()
                if kind != "purely_nonabelian"}
    verdicts["isomorphism_count"] = len(isos)
    return verdicts


def verify_theorems(pairs=None, max_order: int = 16,
                    limits: SearchLimits = DEFAULT_LIMITS) -> dict:
    """Cross-validate every structured criterion against brute-force
    search, over all ordered pairs of cohomology class representatives
    for each catalog pair.

    Statements proved without the quotient coboundary-triviality
    hypothesis are flagged as discrepancies when violated; the
    hypothesis-dependent ones are flagged where sim_is_trivial says the
    hypothesis holds, and logged as observations elsewhere.  For the
    necessity extractors this is read off the error: ConditionsFailed
    is flagged, HypothesisNotVerified logged.  The report is
    machine-readable and the discrepancy list must come back empty.
    """
    from .catalog import get_group
    if pairs is None:
        pairs = DEFAULT_VERIFY_PAIRS
    norm = [[get_group(g) if isinstance(g, str) else g for g in pair]
            for pair in pairs]

    report = {"pairs": [], "discrepancies": [], "logged_observations": [],
              "checked_class_pairs": 0}

    def observe(record, name, detail, into="logged_observations"):
        report[into].append({"pair": record["pair"],
                             "classes": record["classes"],
                             "check": name, "detail": detail})

    def flag(record, name, detail):
        observe(record, name, detail, "discrepancies")
        record["discrepancies"].append(name)

    # the necessity extractors, each run on every isomorphism of its kind
    extractors = (("lower", lambda s, t, m: _lower_necessary(
                      s, t, m).materialize()),
                  ("g2", _g2_necessary),
                  ("g1", _g1_necessary))

    for g1, g2 in norm:
        order = g1.order * g2.order
        if order > max_order:
            raise SizeLimitExceeded(
                f"carrier order {order} above the verification bound",
                limit=max_order, needed=order)
        space = compute_cocycle_space(g1, g2)
        exts = [build_extension(rep) for rep in space.class_representatives]
        sim_ok = sim_is_trivial(g2)
        settle = flag if sim_ok else observe
        pair_entry = {"g1": g1.name or f"order{g1.order}",
                      "g2": g2.name or f"order{g2.order}",
                      "class_count": len(exts),
                      "sim_trivial": sim_ok,
                      "records": []}
        # the deciders that need no hypothesis, each checked against the
        # oracle, as (kind, criterion name, decider); g2's decider needs
        # equal-order abelian factor groups
        deciders = [("upper", "upper", upper_isomorphic),
                    ("g1g2", "g1g2", g1g2_isomorphic)]
        if g1.is_abelian and g2.is_abelian and g1.order == g2.order:
            deciders.insert(1, ("g2", "g2_equal_order",
                                g2_isomorphic_equal_order))

        for i, src in enumerate(exts):
            for j, tgt in enumerate(exts):
                report["checked_class_pairs"] += 1
                record = {"pair": [pair_entry["g1"], pair_entry["g2"]],
                          "classes": [i, j],
                          "oracle": None, "criteria": {},
                          "certificates": {}, "discrepancies": []}
                # every isomorphism, decomposed once, for the oracle and
                # the extractors
                isos = _decomposed_isomorphisms(src, tgt, limits)
                oracle = _survey(isos)
                record["oracle"] = oracle

                wit = are_cohomologous(tgt.cocycle, src.cocycle)
                equivalent = wit is not None
                record["criteria"]["equivalent"] = equivalent
                if equivalent != (i == j):
                    flag(record, "class_representatives_not_distinct",
                         {"i": i, "j": j})

                for kind, criterion, decide in deciders:
                    cert = decide(src, tgt, limits)
                    record["criteria"][criterion] = cert is not None
                    if cert is not None:
                        record["certificates"][kind] = cert.to_dict()
                    if (cert is not None) != oracle[kind]:
                        flag(record, f"{kind}_criterion_vs_oracle",
                             {"criterion": cert is not None,
                              "oracle": oracle[kind]})
                upper = record["criteria"]["upper"]
                if equivalent and not upper:
                    flag(record, "equivalent_but_not_upper", {})
                if upper and not oracle["plain"]:
                    flag(record, "upper_without_any_isomorphism", {})

                # section-preserving side
                # representative 0 is the trivial class, and lower
                # isomorphism is symmetric; a class is lower isomorphic
                # to the direct product exactly when its cocycle is
                # trivial, since such a map forces the cocycle into the
                # kernel of an injective component
                for end, other, check in (
                        (j, src, "lower_to_direct_vs_oracle"),
                        (i, tgt, "direct_to_lower_vs_oracle")):
                    if end != 0:
                        continue
                    claim = other.cocycle.is_trivial()
                    if claim != oracle["lower"]:
                        flag(record, check, {"criterion": claim,
                                             "oracle": oracle["lower"]})
                lower_cert = lower_isomorphic(src, tgt, limits)
                record["criteria"]["lower"] = lower_cert is not None
                if lower_cert is not None:
                    record["certificates"]["lower"] = lower_cert.to_dict()
                    if not oracle["lower"]:
                        flag(record, "lower_certificate_vs_oracle", {})
                elif oracle["lower"]:
                    # completeness of the search needs the hypothesis
                    settle(record, "lower_oracle_without_certificate",
                           {} if sim_ok else {"sim_trivial": False})

                # ConditionsFailed falsifies a statement, while
                # HypothesisNotVerified marks one the quotient leaves
                # unproved
                for kind, extract in extractors:
                    for _, m in isos:
                        if not m.has_kind(kind):
                            continue
                        try:
                            extract(src, tgt, m)
                        except ConditionsFailed as exc:
                            flag(record, f"{kind}_necessary_failed",
                                 {"error": str(exc)})
                        except HypothesisNotVerified as exc:
                            observe(record, f"{kind}_necessary_failed",
                                    {"error": str(exc)})

                pair_entry["records"].append(record)
        report["pairs"].append(pair_entry)

    report["discrepancy_count"] = len(report["discrepancies"])
    return report
