"""Certificate-producing decision procedures for structured isomorphisms
between central extensions over a fixed group pair.

Kinds covered: kernel-preserving ("upper"), section-preserving ("lower"),
the families with one trivial diagonal component ("g1", "g2", "g1g2"),
and the builder for purely non-abelian quotients.  Every positive answer
carries component maps that materialize, through the carrier product
formula, into a map the direct checks verify.  A harness cross-validates
each criterion against brute-force isomorphism search on a small catalog.
"""

from dataclasses import dataclass

from .errors import (
    ConditionsFailed,
    GroupMismatch,
    NonAbelianUnsupported,
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
    enumerate_automorphisms,
    enumerate_homs,
    enumerate_isomorphisms,
    is_purely_nonabelian,
    is_simple,
    trivial_map,
)
from .cocycles import (
    CoboundaryWitness,
    are_cohomologous,
    cocycle_inv,
    cocycle_mul,
    compute_cocycle_space,
    pullback,
    pushforward,
    sim_is_trivial,
    trivial_cocycle,
)
from .extensions import (
    ExtensionGroup,
    HomMatrix,
    _require_sim_trivial,
    build_extension,
    decompose_hom,
    hom_condition_failures,
    is_homomorphism_direct,
    preserves_kernel_setwise,
    preserves_section_setwise,
    reconstruct_hom,
)

__all__ = [
    "IsoCertificate",
    "upper_isomorphic",
    "lower_necessary",
    "lower_sufficient",
    "lower_isomorphic",
    "lower_to_direct",
    "lower_b2trivial",
    "simple_quotient_check",
    "build_purely_nonabelian_iso",
    "g2_isomorphic_necessary",
    "g2_isomorphic_equal_order",
    "g1_isomorphic_necessary",
    "g1g2_isomorphic",
    "oracle_iso_survey",
    "verify_theorems",
    "CERTIFICATE_KINDS",
]

CERTIFICATE_KINDS = ("upper", "lower", "g1", "g2", "g1g2",
                     "purely_nonabelian")


def _as_extension(e) -> ExtensionGroup:
    if isinstance(e, ExtensionGroup):
        return e
    return build_extension(e)


def _same_pair(a: ExtensionGroup, b: ExtensionGroup):
    if a.g1 != b.g1 or a.g2 != b.g2:
        raise GroupMismatch("extensions sit over different group pairs")


def _first_failure(m: HomMatrix) -> str | None:
    """The reason of the first component condition failing on m."""
    return next((reason for _, reason, _ in hom_condition_failures(m)),
                None)


def _require(m: HomMatrix, *own):
    """Raise ConditionsFailed naming the first failing component
    condition on m, else the first of the (holds, reason) pairs in own
    that does not hold."""
    reason = _first_failure(m) or next(
        (reason for holds, reason in own if not holds), None)
    if reason is not None:
        raise ConditionsFailed(reason)


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
        src, tgt = self.source, self.target
        triv11 = trivial_map(src.g1, tgt.g1)
        triv12 = trivial_map(src.g2, tgt.g1)
        triv21 = trivial_map(src.g1, tgt.g2)
        triv22 = trivial_map(src.g2, tgt.g2)
        if self.kind == "upper":
            phi12 = self.t_witness.t if self.t_witness is not None else triv12
            parts = (self.sigma, phi12, triv21, self.rho)
        elif self.kind == "lower":
            parts = (self.sigma, triv12, self.delta or triv21, self.rho)
        elif self.kind == "g2":
            parts = (self.sigma, self.eta, self.delta, triv22)
        elif self.kind == "g1":
            parts = (triv11, self.eta, self.delta, self.rho)
        elif self.kind == "g1g2":
            parts = (triv11, self.eta, self.delta, triv22)
        else:
            parts = (self.sigma, self.eta or triv12, self.delta or triv21,
                     self.rho)
        return HomMatrix(source=src, target=tgt, phi11=parts[0],
                         phi12=parts[1], phi21=parts[2], phi22=parts[3])

    def materialize(self) -> GroupMap:
        """The carrier map; raises ConditionsFailed unless it is an
        isomorphism of the certificate's kind."""
        src, tgt = self.source, self.target
        phi = reconstruct_hom(self.components())
        ok, witness = is_homomorphism_direct(src, tgt, phi)
        if not ok:
            raise ConditionsFailed(
                f"certificate does not materialize: {witness}")
        if not phi.is_bijective():
            raise ConditionsFailed("certificate map is not bijective")
        if self.kind == "upper" and not preserves_kernel_setwise(
                src, tgt, phi):
            raise ConditionsFailed("certificate map moves the kernel copy")
        if self.kind == "lower" and not preserves_section_setwise(
                src, tgt, phi):
            raise ConditionsFailed("certificate map moves the section copy")
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


def upper_isomorphic(e1, e2, limits: SearchLimits = DEFAULT_LIMITS):
    """Search for a kernel-preserving isomorphism between the two
    extensions.

    The criterion: some pair of automorphisms (sigma of the kernel
    group, rho of the section group) makes
    (sigma . e1) * inverse(e2 . (rho x rho)) a coboundary.  The search
    runs sigma-major in enumeration order and returns the first hit.
    """
    src, tgt = _as_extension(e1), _as_extension(e2)
    _same_pair(src, tgt)
    g1, g2 = src.g1, src.g2
    triv = trivial_cocycle(g1, g2)
    inv2 = cocycle_inv(tgt.cocycle)
    for sigma in enumerate_automorphisms(g1, limits):
        pushed = pushforward(sigma, src.cocycle)
        for rho in enumerate_automorphisms(g2, limits):
            w = are_cohomologous(triv, cocycle_mul(pushed,
                                                   pullback(inv2, rho)))
            if w is not None:
                cert = IsoCertificate(kind="upper", source=src, target=tgt,
                                      sigma=sigma, rho=rho, t_witness=w)
                cert.materialize()
                return cert
    return None


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


def lower_necessary(e1, e2, phi: GroupMap, assume_sim_trivial: bool = False,
                    limits: SearchLimits = DEFAULT_LIMITS) -> IsoCertificate:
    """Extract and verify the certificate that must exist behind any
    section-preserving isomorphism (quotient coboundary-triviality
    hypothesis required).

    Raises NotLowerIso when phi is not a section-preserving isomorphism;
    a verification failure after that raises ConditionsFailed, since it
    would falsify the statement being implemented.
    """
    src, tgt = _as_extension(e1), _as_extension(e2)
    _same_pair(src, tgt)
    ok, _ = is_homomorphism_direct(src, tgt, phi)
    if not (ok and phi.is_bijective()):
        raise NotLowerIso("phi is not an isomorphism of the carriers")
    if not preserves_section_setwise(src, tgt, phi):
        raise NotLowerIso("phi does not map the section copy onto itself")
    _require_sim_trivial(src.g2, assume_sim_trivial, limits)
    m = decompose_hom(src, tgt, phi)
    if not m.phi12.is_trivial():
        raise ConditionsFailed("section-preserving map leaked a component")
    cert = IsoCertificate(kind="lower", source=src, target=tgt,
                          sigma=m.phi11, rho=m.phi22, delta=m.phi21)
    problem = _lower_problem(cert)
    if problem is not None:
        raise ConditionsFailed(problem)
    return cert


def lower_sufficient(cert: IsoCertificate,
                     limits: SearchLimits = DEFAULT_LIMITS) -> GroupMap:
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
    """Structured search for a section-preserving isomorphism: try every
    component triple (sigma, rho, delta) against the converse
    conditions, sigma-major in enumeration order.

    A hit is unconditionally correct, since the converse direction holds
    for any quotient and the assembled map is bijective whenever sigma
    and rho are.  An exhausted search settles the negative only when the
    quotient coboundary-triviality hypothesis holds; completeness of the
    component decomposition rests on it.
    """
    src, tgt = _as_extension(e1), _as_extension(e2)
    _same_pair(src, tgt)
    g1, g2 = src.g1, src.g2
    homs21 = enumerate_homs(g1, g2, limits)
    for sigma in enumerate_automorphisms(g1, limits):
        for rho in enumerate_automorphisms(g2, limits):
            for delta in homs21:
                cert = IsoCertificate(kind="lower", source=src, target=tgt,
                                      sigma=sigma, rho=rho, delta=delta)
                if _lower_problem(cert) is None:
                    cert.materialize()
                    return cert
    return None


def lower_to_direct(e) -> bool:
    """Whether the extension is section-preservingly isomorphic to the
    untwisted product: exactly when the cocycle is trivial.  Any such
    isomorphism forces the cocycle into the kernel of an injective
    component, so nothing short of triviality survives; the property
    tests confirm this against constrained brute-force search."""
    cocycle = e.cocycle if isinstance(e, ExtensionGroup) else e
    return cocycle.is_trivial()


def lower_b2trivial(e1, e2, limits: SearchLimits = DEFAULT_LIMITS):
    """Section-preserving comparison when the kernel group has no
    nontrivial self-coboundaries: search automorphism pairs for an exact
    transport equation e2 . (rho x rho) = sigma . e1 and certify the
    map (sigma(x), rho(y))."""
    src, tgt = _as_extension(e1), _as_extension(e2)
    _same_pair(src, tgt)
    g1, g2 = src.g1, src.g2
    space = compute_cocycle_space(g1, g1, limits)
    if space.b2_order != 1:
        raise PreconditionViolated(
            "kernel group has nontrivial self-coboundaries")
    t1, t2 = src.cocycle.table, tgt.cocycle.table
    for sigma in enumerate_automorphisms(g1, limits):
        for rho in enumerate_automorphisms(g2, limits):
            if all(t2[rho.images[y]][rho.images[yp]]
                   == sigma.images[t1[y][yp]]
                   for y in range(g2.order) for yp in range(g2.order)):
                cert = IsoCertificate(kind="lower", source=src, target=tgt,
                                      sigma=sigma, rho=rho,
                                      delta=trivial_map(g1, g2))
                cert.materialize()
                return cert
    return None


# ---------------------------------------------------------------------------
# structural consequences for special quotients


def simple_quotient_check(e1, e2, limits: SearchLimits = DEFAULT_LIMITS):
    """For a simple non-abelian quotient, every isomorphism between the
    carriers must map the kernel copy onto the kernel copy.  Enumerates
    all of them, checks the claim on each (ConditionsFailed if one moves
    the kernel copy), and reports counts."""
    src, tgt = _as_extension(e1), _as_extension(e2)
    _same_pair(src, tgt)
    g2 = src.g2
    if g2.is_abelian or not is_simple(g2):
        raise PreconditionViolated("quotient must be simple non-abelian")
    isos = enumerate_isomorphisms(src.group, tgt.group, limits)
    if not all(preserves_kernel_setwise(src, tgt, phi) for phi in isos):
        raise ConditionsFailed(
            "isomorphism moved the kernel copy despite a simple quotient")
    return {
        "isomorphism_count": len(isos),
        "kernel_preserving_count": len(isos),
        "all_kernel_preserving": True,
        "isomorphic": bool(isos),
    }


def build_purely_nonabelian_iso(sigma: GroupMap, eta: GroupMap,
                                delta: GroupMap, rho: GroupMap, e1, e2,
                                limits: SearchLimits = DEFAULT_LIMITS
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
    src, tgt = _as_extension(e1), _as_extension(e2)
    _same_pair(src, tgt)
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


def g2_isomorphic_necessary(e1, e2, phi: GroupMap,
                            limits: SearchLimits = DEFAULT_LIMITS
                            ) -> IsoCertificate:
    """Extract and verify the certificate behind an isomorphism whose
    section-to-section component is trivial.

    No quotient hypothesis is needed here: with that component trivial,
    the splitting step that otherwise requires coboundary-triviality is
    immediate.  Verification failures raise ConditionsFailed."""
    src, tgt = _as_extension(e1), _as_extension(e2)
    _same_pair(src, tgt)
    ok, _ = is_homomorphism_direct(src, tgt, phi)
    if not (ok and phi.is_bijective()):
        raise NotG2Iso("phi is not an isomorphism of the carriers")
    m = decompose_hom(src, tgt, phi)
    if not m.phi22.is_trivial():
        raise NotG2Iso("phi has a nontrivial section-to-section component")
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
    src, tgt = _as_extension(e1), _as_extension(e2)
    _same_pair(src, tgt)
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


def g1_isomorphic_necessary(e1, e2, phi: GroupMap,
                            assume_sim_trivial: bool = False,
                            limits: SearchLimits = DEFAULT_LIMITS
                            ) -> IsoCertificate:
    """Extract and verify the certificate behind an isomorphism whose
    kernel-to-kernel component is trivial (quotient coboundary-
    triviality hypothesis required): the source cocycle vanishes, the
    target cocycle dies on the delta image, and the pulled-back inverse
    target cocycle is eta's coboundary.  Verification failures raise
    ConditionsFailed."""
    src, tgt = _as_extension(e1), _as_extension(e2)
    _same_pair(src, tgt)
    ok, _ = is_homomorphism_direct(src, tgt, phi)
    if not (ok and phi.is_bijective()):
        raise NotG1Iso("phi is not an isomorphism of the carriers")
    m = decompose_hom(src, tgt, phi)
    if not m.phi11.is_trivial():
        raise NotG1Iso("phi has a nontrivial kernel-to-kernel component")
    _require_sim_trivial(src.g2, assume_sim_trivial, limits)
    n1 = src.g1.order
    _require(m, (len(set(m.phi21.images)) == n1, "delta is not injective"),
             (set(m.phi12.images) == set(range(n1)), "eta is not surjective"),
             (src.cocycle.is_trivial(), "source cocycle did not vanish"))
    return IsoCertificate(kind="g1", source=src, target=tgt, rho=m.phi22,
                          eta=m.phi12, delta=m.phi21)


def g1g2_isomorphic(e1, e2, limits: SearchLimits = DEFAULT_LIMITS):
    """Decision for both diagonal components trivial: the source cocycle
    vanishes and some isomorphism delta between the factor groups kills
    the target cocycle exactly.  Materializes (delta'(y), delta(x))."""
    src, tgt = _as_extension(e1), _as_extension(e2)
    _same_pair(src, tgt)
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
    verdicts = {"plain": False, "upper": False, "lower": False,
                "g1": False, "g2": False, "g1g2": False}
    count = 0
    for phi in enumerate_isomorphisms(src.group, tgt.group, limits):
        count += 1
        verdicts["plain"] = True
        if preserves_kernel_setwise(src, tgt, phi):
            verdicts["upper"] = True
        if preserves_section_setwise(src, tgt, phi):
            verdicts["lower"] = True
        m = decompose_hom(src, tgt, phi)
        if m.phi11.is_trivial():
            verdicts["g1"] = True
        if m.phi22.is_trivial():
            verdicts["g2"] = True
        if m.phi11.is_trivial() and m.phi22.is_trivial():
            verdicts["g1g2"] = True
    verdicts["isomorphism_count"] = count
    return verdicts


def _iter_constrained(src, tgt, predicate, limits):
    for phi in enumerate_isomorphisms(src.group, tgt.group, limits):
        if predicate(src, tgt, phi):
            yield phi


def verify_theorems(pairs=None, max_order: int = 16,
                    limits: SearchLimits = DEFAULT_LIMITS) -> dict:
    """Cross-validate every structured criterion against brute-force
    search, over all ordered pairs of cohomology class representatives
    for each catalog pair.

    Statements proved without the quotient coboundary-triviality
    hypothesis are flagged as discrepancies when violated; the
    hypothesis-dependent ones are flagged only where the hypothesis is
    verified, and logged as observations elsewhere.  The report is
    machine-readable and the discrepancy list must come back empty.
    """
    from .catalog import get_group
    if pairs is None:
        pairs = (("Z2", "Z2"), ("Z2", "Z4"), ("Z2", "K4"), ("Z3", "Z3"))
    norm = []
    for a, b in pairs:
        g1 = get_group(a) if isinstance(a, str) else a
        g2 = get_group(b) if isinstance(b, str) else b
        norm.append((g1, g2))

    report = {"pairs": [], "discrepancies": [], "logged_observations": [],
              "checked_class_pairs": 0}

    def flag(record, name, detail):
        entry = {"pair": record["pair"], "classes": record["classes"],
                 "check": name, "detail": detail}
        report["discrepancies"].append(entry)
        record["discrepancies"].append(name)

    def observe(record, name, detail):
        report["logged_observations"].append(
            {"pair": record["pair"], "classes": record["classes"],
             "check": name, "detail": detail})

    for g1, g2 in norm:
        order = g1.order * g2.order
        if order > max_order:
            raise SizeLimitExceeded(
                f"carrier order {order} above the verification bound",
                limit=max_order, needed=order)
        space = compute_cocycle_space(g1, g2, limits)
        exts = [build_extension(rep) for rep in space.class_representatives]
        try:
            sim_ok = sim_is_trivial(g2, limits)
        except (NonAbelianUnsupported, SizeLimitExceeded):
            sim_ok = None
        b2_kernel_trivial = compute_cocycle_space(g1, g1, limits).b2_order == 1
        pair_entry = {"g1": g1.name or f"order{g1.order}",
                      "g2": g2.name or f"order{g2.order}",
                      "class_count": len(exts),
                      "sim_trivial": sim_ok,
                      "kernel_b2_trivial": b2_kernel_trivial,
                      "records": []}
        equal_order_abelian = (g1.is_abelian and g2.is_abelian
                               and g1.order == g2.order)

        for i, src in enumerate(exts):
            for j, tgt in enumerate(exts):
                report["checked_class_pairs"] += 1
                record = {"pair": [pair_entry["g1"], pair_entry["g2"]],
                          "classes": [i, j],
                          "oracle": None, "criteria": {},
                          "certificates": {}, "discrepancies": []}
                oracle = oracle_iso_survey(src, tgt, limits)
                record["oracle"] = oracle

                wit = are_cohomologous(tgt.cocycle, src.cocycle)
                equivalent = wit is not None
                record["criteria"]["equivalent"] = equivalent
                if equivalent != (i == j):
                    flag(record, "class_representatives_not_distinct",
                         {"i": i, "j": j})

                upper_cert = upper_isomorphic(src, tgt, limits)
                record["criteria"]["upper"] = upper_cert is not None
                if upper_cert is not None:
                    record["certificates"]["upper"] = upper_cert.to_dict()
                if (upper_cert is not None) != oracle["upper"]:
                    flag(record, "upper_criterion_vs_oracle",
                         {"criterion": upper_cert is not None,
                          "oracle": oracle["upper"]})
                if equivalent and upper_cert is None:
                    flag(record, "equivalent_but_not_upper", {})
                if upper_cert is not None and not oracle["plain"]:
                    flag(record, "upper_without_any_isomorphism", {})

                # section-preserving side
                # representative 0 is the trivial class, and lower
                # isomorphism is symmetric
                for end, other, check in (
                        (j, src, "lower_to_direct_vs_oracle"),
                        (i, tgt, "direct_to_lower_vs_oracle")):
                    if end != 0:
                        continue
                    claim = lower_to_direct(other)
                    if claim != oracle["lower"]:
                        flag(record, check, {"criterion": claim,
                                             "oracle": oracle["lower"]})
                if b2_kernel_trivial:
                    lower_cert = lower_b2trivial(src, tgt, limits)
                    record["criteria"]["lower_b2trivial"] = (
                        lower_cert is not None)
                    if lower_cert is not None:
                        record["certificates"]["lower"] = (
                            lower_cert.to_dict())
                        if not oracle["lower"]:
                            flag(record, "lower_certificate_vs_oracle", {})
                    elif oracle["lower"]:
                        # completeness of the search needs the hypothesis
                        if sim_ok:
                            flag(record, "lower_oracle_without_certificate",
                                 {})
                        else:
                            observe(record,
                                    "lower_oracle_without_certificate",
                                    {"sim_trivial": sim_ok})

                triple_cert = lower_isomorphic(src, tgt, limits)
                record["criteria"]["lower_triple_search"] = (
                    triple_cert is not None)
                if triple_cert is not None and not oracle["lower"]:
                    flag(record, "lower_triple_vs_oracle", {})
                elif triple_cert is None and oracle["lower"]:
                    if sim_ok:
                        flag(record, "lower_oracle_without_triple", {})
                    else:
                        observe(record, "lower_oracle_without_triple",
                                {"sim_trivial": sim_ok})

                for phi in _iter_constrained(src, tgt,
                                             preserves_section_setwise,
                                             limits):
                    try:
                        lc = lower_necessary(src, tgt, phi,
                                             assume_sim_trivial=not sim_ok,
                                             limits=limits)
                        lower_sufficient(lc, limits)
                    except ConditionsFailed as exc:
                        if sim_ok:
                            flag(record, "lower_necessary_failed",
                                 {"error": str(exc)})
                        else:
                            observe(record, "lower_necessary_failed",
                                    {"error": str(exc)})

                # trivial diagonal components
                if equal_order_abelian:
                    g2cert = g2_isomorphic_equal_order(src, tgt, limits)
                    record["criteria"]["g2_equal_order"] = (
                        g2cert is not None)
                    if g2cert is not None:
                        record["certificates"]["g2"] = g2cert.to_dict()
                    if (g2cert is not None) != oracle["g2"]:
                        flag(record, "g2_criterion_vs_oracle",
                             {"criterion": g2cert is not None,
                              "oracle": oracle["g2"]})

                g1g2cert = g1g2_isomorphic(src, tgt, limits)
                record["criteria"]["g1g2"] = g1g2cert is not None
                if g1g2cert is not None:
                    record["certificates"]["g1g2"] = g1g2cert.to_dict()
                if (g1g2cert is not None) != oracle["g1g2"]:
                    flag(record, "g1g2_criterion_vs_oracle",
                         {"criterion": g1g2cert is not None,
                          "oracle": oracle["g1g2"]})

                def phi22_trivial(s, t, phi):
                    return decompose_hom(s, t, phi).phi22.is_trivial()

                for phi in _iter_constrained(src, tgt, phi22_trivial,
                                             limits):
                    try:
                        g2_isomorphic_necessary(src, tgt, phi, limits)
                    except ConditionsFailed as exc:
                        # stated without the hypothesis; log, do not flag
                        observe(record, "g2_necessary_failed",
                                {"error": str(exc)})

                def phi11_trivial(s, t, phi):
                    return decompose_hom(s, t, phi).phi11.is_trivial()

                for phi in _iter_constrained(src, tgt, phi11_trivial,
                                             limits):
                    try:
                        g1_isomorphic_necessary(
                            src, tgt, phi, assume_sim_trivial=not sim_ok,
                            limits=limits)
                    except ConditionsFailed as exc:
                        if sim_ok:
                            flag(record, "g1_necessary_failed",
                                 {"error": str(exc)})
                        else:
                            observe(record, "g1_necessary_failed",
                                    {"error": str(exc)})

                pair_entry["records"].append(record)
        report["pairs"].append(pair_entry)

    report["discrepancy_count"] = len(report["discrepancies"])
    return report
