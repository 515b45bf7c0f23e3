"""Certificate-producing decision procedures for structured isomorphisms
between central extensions over a fixed group pair.

Kinds covered: kernel-preserving ("upper"), section-preserving ("lower"),
the families with one trivial diagonal component ("g1", "g2", "g1g2"),
and the builder for purely non-abelian quotients.  A kind is the set of
components it forces trivial, extensions.TRIVIAL_COMPONENTS, and one
reader, extensions.trivial_components, tests it off the carrier image
array: for the survey, and in the one carrier-isomorphism check
(extensions._carrier_iso_failure) that materialize and necessary
share.  The lower, g1 and g2 necessity statements are read
by one path, _necessary, on the image arrays of a map's components,
driven by a per-kind table of requirements (_NECESSITY); each fact of a
statement is decided once per facts dict, which serves one carrier pair,
and the map the arrays rebuild is compared with the known map.  The
upper and lower searches key each
automorphism once by its cocycle's generator columns, then look each
sigma up among the rho, only for classes in one orbit of Aut(G1) x
Aut(G2) acting on H^2 by c -> sigma . c . (rho x rho): upper
isomorphism is being in one orbit, and a lower one puts both classes
in one.  The generators of the two groups permute the finite set
H^2, so the classes they reach from c, one orbit label per pair, are
its whole orbit.  Labels, searches and
upper's witness t with sigma . e1 = psi_t * e2 . (rho x rho) read the
generator columns only; for t both sides are normalized cocycles (the
carriers' cocycles passed is_cocycle, sigma and rho are automorphisms),
fixed by their columns (cocycles._expand).  A cocycle's _memo keeps its
carrier and, as a target, per (kind, limits) the count of rho a search
keyed and its rho listed by the hash of their keys.  Every positive
answer carries component maps that materialize, through the carrier
product formula on their image arrays (extensions.reconstruct_hom),
into one image array that the direct checks verify to be a bijective
homomorphism of the certificate's kind.  decide turns the deciders into
one verdict per kind, with the hypothesis a negative rests on.  A
harness cross-validates each criterion against brute-force isomorphism
search on a small catalog.
"""

from functools import lru_cache
from itertools import chain

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
    Record,
    SearchLimits,
    _automorphism_generators,
    _automorphisms,
    brute_force_isomorphism,
    enumerate_isomorphisms,
    is_purely_nonabelian,
    is_simple,
    trivial_map,
)
from .cocycles import (
    CoboundaryWitness,
    _class_key,
    _column_values,
    _keyed,
    _witness,
    are_cohomologous,
    cocycle_inv,
    compute_cocycle_space,
    pullback,
    sim_is_trivial,
    trivial_cocycle,
)
from .extensions import (
    TRIVIAL_COMPONENTS,
    ExtensionGroup,
    HomMatrix,
    _arrays,
    _carrier_iso_failure,
    _component_groups,
    _component_images,
    _condition_failures,
    _fact,
    _product_images,
    build_extension,
    hom_condition_failures,
    reconstruct_hom,
    trivial_components,
)

__all__ = [
    "IsoCertificate",
    "Verdict",
    "decide",
    "necessary",
    "upper_isomorphic",
    "lower_sufficient",
    "lower_isomorphic",
    "simple_quotient_check",
    "build_purely_nonabelian_iso",
    "g2_isomorphic_equal_order",
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


def _carrier(e) -> ExtensionGroup:
    """e, or the carrier of the cocycle e, built once (its _memo)."""
    return e if isinstance(e, ExtensionGroup) else e._memo.get(
        "carrier") or e._memo.setdefault("carrier", build_extension(e))


def _extension_pair(e1, e2):
    """_carrier of e1 and e2, checked to sit over one group pair."""
    src, tgt = _carrier(e1), _carrier(e2)
    if (src.g1, src.g2) != (tgt.g1, tgt.g2):   # identical groups: no __eq__
        raise GroupMismatch("extensions sit over different group pairs")
    return src, tgt


def _accepted(kind, kinds) -> None:
    """ValueError, naming kinds, unless kind is one of them."""
    if kind not in kinds:
        raise ValueError(f"kind {kind!r} is not one of {', '.join(kinds)}")


def _falsified(g2) -> type:
    """The error for a failed condition of a necessity statement that
    rests on the quotient hypothesis: ConditionsFailed when
    sim_is_trivial(g2) holds, since the failure falsifies the
    statement, else HypothesisNotVerified."""
    return ConditionsFailed if sim_is_trivial(g2) else HypothesisNotVerified


class IsoCertificate(Record):
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
        """The carrier map, reconstruct_hom of components(); raises
        ConditionsFailed naming the first failing fact unless it is a
        carrier isomorphism of the certificate's kind
        (extensions._carrier_iso_failure)."""
        phi = reconstruct_hom(self.components())
        failure = _carrier_iso_failure(self.source, self.target, phi,
                                       self.kind)
        if failure is not None:
            raise ConditionsFailed(failure)
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
# necessity statements: the lower, g1 and g2 kinds


def _injective(src, images) -> bool:
    """Whether the image array repeats no image (a test of _NECESSITY)."""
    return len(set(images)) == len(images)


# per kind: the error for a map not of the kind; the error for a failed
# requirement, given the quotient (_falsified where the statement rests
# on the quotient hypothesis); whether the kind's own requirements are
# read before the component conditions; and those requirements in the
# order read, as (reason, the component read or None, test(src, its
# image array)).  sigma and rho map a group into itself, so injective
# is bijective there.
_NECESSITY = {
    "lower": (NotLowerIso, _falsified, True, (
        ("rho_not_automorphism", "phi22", _injective),
        ("sigma_not_automorphism", "phi11", _injective))),
    "g1": (NotG1Iso, _falsified, False, (
        ("delta is not injective", "phi21", _injective),
        ("eta is not surjective", "phi12",
         lambda src, a: set(a) == set(range(src.g1.order))),
        ("source cocycle did not vanish", None,
         lambda src, a: src.cocycle.is_trivial()))),
    "g2": (NotG2Iso, lambda g2: ConditionsFailed, False, (
        ("eta is not injective", "phi12", _injective),
        ("delta is not surjective", "phi21",
         lambda src, a: set(a) == set(range(src.g2.order))))),
}


def _necessary(kind, src, tgt, parts: dict, facts: dict,
               phi: GroupMap | None = None) -> None:
    """None once every requirement of _NECESSITY[kind] and every
    component condition (extensions._condition_failures) holds on parts,
    the component image arrays, by name, of a carrier map of the kind;
    else the kind's error naming the first that fails.  A requirement
    reads one array or none, and like the conditions' facts it is
    decided once per facts dict, which serves one (src, tgt) pair
    (extensions._fact).

    Where phi, the map parts were read from, is given, the map they
    rebuild (extensions._product_images) is compared with phi's image
    array.  When they are equal, no fact that _carrier_iso_failure tests
    can fail: phi is a carrier isomorphism of the kind, checked by the
    caller or emitted by the map search (which checks every step as a
    homomorphism, and is injective between groups of equal order) and
    filtered by its trivial components.  When they differ, the
    certificate (_certificate) runs materialize() in full; the
    components TRIVIAL_COMPONENTS[kind] forces are trivial on a map of
    the kind, so its components() has the arrays parts."""
    _, falsified, own_first, own = _NECESSITY[kind]
    conditions = (reason for _, reason, _ in
                  _condition_failures(src, tgt, parts, facts))
    unmet = (reason for reason, c, test in own if not _fact(
        facts, (reason, parts.get(c)), lambda: test(src, parts.get(c))))
    reason = next(chain(unmet, conditions) if own_first
                  else chain(conditions, unmet), None)
    if reason is not None:
        raise falsified(src.g2)(reason)
    if phi is not None and _product_images(tgt, parts) != phi.images:
        _certificate(kind, src, tgt, parts).materialize()


def _certificate(kind, src, tgt, parts: dict) -> IsoCertificate:
    """The certificate of the kind carrying the components that
    TRIVIAL_COMPONENTS[kind] leaves free, with the image arrays parts;
    built without GroupMap's scan, as decompose_hom builds them."""
    groups = _component_groups(src, tgt)
    return IsoCertificate(kind=kind, source=src, target=tgt, **{
        field: GroupMap._unchecked(dom=groups[c][0], cod=groups[c][1],
                                   images=parts[c])
        for c, field in (("phi11", "sigma"), ("phi12", "eta"),
                         ("phi21", "delta"), ("phi22", "rho"))
        if c not in TRIVIAL_COMPONENTS[kind]})


def necessary(kind, e1, e2, phi: GroupMap) -> IsoCertificate:
    """The certificate of kind "lower", "g1" or "g2" (any other raises
    ValueError first) that must exist behind phi, a carrier isomorphism
    of that kind, read off phi's component arrays and verified.

    Raises the kind's error (NotLowerIso, NotG1Iso, NotG2Iso) with
    _carrier_iso_failure's message when phi is not a carrier isomorphism
    of the kind.  A failed requirement or component condition after that
    (_necessary) raises ConditionsFailed where it falsifies the
    statement, and HypothesisNotVerified with the same message where
    the statement rests on the quotient coboundary-triviality hypothesis
    and sim_is_trivial fails for the quotient: the lower and g1
    statements rest on it; the g2 one does not, as with the
    section-to-section component trivial the splitting step that
    otherwise needs it is immediate."""
    _accepted(kind, tuple(_NECESSITY))
    src, tgt = _extension_pair(e1, e2)
    failure = _carrier_iso_failure(src, tgt, phi, kind)
    if failure is not None:
        raise _NECESSITY[kind][0](failure)
    parts = _component_images(src, tgt, phi.images)
    _necessary(kind, src, tgt, parts, {}, phi)
    return _certificate(kind, src, tgt, parts)


# ---------------------------------------------------------------------------
# kernel-preserving ("upper") isomorphisms


def _automorphism_pair_search(kind, push, pull, e1, e2, limits):
    """The first (sigma, rho), sigma-major in enumeration order, with
    push(e1, sigma) == pull(e2, rho) for the image arrays of automorphisms
    of g1 and g2, or None.  Each rho is keyed once per target e2, whose
    _memo keeps the count keyed and {hash(key): [rho, ...]} per (kind,
    limits), in order and only as far as some sigma needs: one int per
    rho, not its key.  A lookup re-keys the rho listed under the hash of
    the wanted key, in order, and takes the first whose key is equal, so
    it finds the first matching rho: |Aut(G2)| keys per target in all,
    plus one per hit."""
    rhos = _automorphisms(e2.g2, limits)
    index = (state := e2._memo.setdefault((kind, limits), [0, {}]))[1]
    for sigma in _automorphisms(e1.g1, limits):
        want = push(e1, sigma.images)
        hit = next((rho for rho in index.get(hash(want), ())
                    if pull(e2, rho.images) == want), None)
        while hit is None and state[0] < len(rhos):
            rho = rhos[state[0]]
            state[0] += 1
            key = pull(e2, rho.images)
            index.setdefault(hash(key), []).append(rho)
            hit = rho if key == want else None
        if hit is not None:
            return sigma, hit
    return None


@lru_cache(maxsize=None)
def _orbit_label(g1, g2, limits):
    """label(cocycle): the orbit of its class under Aut(G1) x Aut(G2),
    named by the least class key in it, so that no label depends on the
    order of the queries; the cocycle's own key is memoized on it
    (cocycles._keyed).  The labels fill one orbit at a time,
    breadth-first from the first cocycle e asked about in it, over pairs
    (sigma, rho) for sigma . e . (rho x rho): a generator a of Aut(G1)
    moves one to (a sigma, rho), r of Aut(G2) to (sigma, rho r); the
    pairs whose keys are new are enqueued.  At most |H^2| keys are
    held."""
    push = _class_key(g1, g2)[0]
    sigmas, rhos = (_automorphism_generators(g, limits) for g in (g1, g2))
    labels = {}

    def label(cocycle):
        start = _keyed(cocycle)
        if start not in labels:
            orbit, queue = {start}, [(range(g1.order), range(g2.order))]
            for sigma, rho in queue:
                pairs = [(tuple([a[v] for v in sigma]), rho) for a in sigmas]
                pairs += [(sigma, tuple([rho[v] for v in r])) for r in rhos]
                for pair in pairs:
                    if (k := push(cocycle.table, *pair)) not in orbit:
                        orbit.add(k)
                        queue.append(pair)
            labels.update(dict.fromkeys(orbit, min(orbit)))
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
    miss raises ConditionsFailed, as does a hit with no witness at the
    generator columns (the column witness of the module docstring).
    Pushed keys are memoized (_keyed); the pulled ones are not kept.
    """
    src, tgt = _extension_pair(e1, e2)
    g1, g2 = src.g1, src.g2
    label = _orbit_label(g1, g2, limits)
    if label(src.cocycle) != label(tgt.cocycle):
        return None
    pull = _class_key(g1, g2)[1]
    hit = _automorphism_pair_search("upper", _keyed,
                                    lambda e, r: pull(e.table, r),
                                    src.cocycle, tgt.cocycle, limits)
    if hit is None:
        raise ConditionsFailed("no automorphism pair within one orbit")
    sigma, rho = hit
    values = _column_values(g1, g2)
    w = _witness(g1, g2, values(tgt.cocycle.table, rho=rho.images),
                 values(src.cocycle.table, sigma.images))
    if w is None:
        raise ConditionsFailed("the keyed pair has no coboundary witness")
    cert = IsoCertificate(kind="upper", source=src, target=tgt, sigma=sigma,
                          rho=rho, t_witness=w)
    cert.materialize()
    return cert


# ---------------------------------------------------------------------------
# section-preserving ("lower") isomorphisms


def lower_sufficient(cert: IsoCertificate) -> GroupMap:
    """Materialize a section-preserving isomorphism from certificate
    fields satisfying the finite converse conditions.

    Raises ConditionsFailed naming the first violated requirement."""
    if cert.kind != "lower":
        raise PreconditionViolated("certificate kind must be 'lower'")
    if cert.sigma is None or cert.rho is None or cert.delta is None:
        raise PreconditionViolated("certificate is missing a component map")
    try:
        _necessary("lower", cert.source, cert.target,
                   _arrays(cert.components()), {})
    except HypothesisNotVerified as exc:
        raise ConditionsFailed(str(exc)) from None
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
    if label(src.cocycle) != label(tgt.cocycle):
        return None
    values = _column_values(src.g1, src.g2)
    hit = _automorphism_pair_search("lower", lambda e, s: values(e.table, s),
                                    lambda e, r: values(e.table, rho=r),
                                    src.cocycle, tgt.cocycle, limits)
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
    isos = _shaped_isomorphisms(src, tgt, limits)
    if not all(s.issuperset(TRIVIAL_COMPONENTS["upper"]) for _, s in isos):
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
    reason = next((reason for _, reason, _ in
                   hom_condition_failures(cert.components())), None)
    if reason is not None:
        raise PreconditionViolated(reason)
    return cert.materialize()


# ---------------------------------------------------------------------------
# one trivial diagonal component


def g2_isomorphic_equal_order(e1, e2, limits: SearchLimits = DEFAULT_LIMITS):
    """Decision for equal-order abelian factor groups: the source
    cocycle must vanish and some isomorphism delta between the factors
    must pull the inverted target cocycle back to a coboundary.  The
    certificate materializes to (sigma(x) + delta'(y), delta(x)).

    Every delta gives the same verdict, so only brute_force_isomorphism's
    is tried: for a homomorphism delta, psi_s . (delta x delta) =
    psi_(s . delta), so if the inverted target cocycle is psi_s its
    pullback is psi_(s . delta), and if its pullback through a bijective
    delta is psi_t, it is psi_(t . delta^-1).  A loop over every delta
    stops at the first one too, so the certificate is the loop's.
    """
    src, tgt = _extension_pair(e1, e2)
    g1, g2 = src.g1, src.g2
    if not (g1.is_abelian and g2.is_abelian and g1.order == g2.order):
        raise PreconditionViolated(
            "equal-order abelian factor groups required")
    if not src.cocycle.is_trivial():
        return None
    delta = brute_force_isomorphism(g1, g2, limits=limits)
    if delta is None:
        return None
    w = are_cohomologous(trivial_cocycle(g1, g1),
                         pullback(cocycle_inv(tgt.cocycle), delta))
    if w is None:
        return None
    cert = IsoCertificate(kind="g2", source=src, target=tgt, sigma=w.t,
                          eta=delta.inverse(), delta=delta, t_witness=w)
    cert.materialize()
    return cert


def g1g2_isomorphic(e1, e2, limits: SearchLimits = DEFAULT_LIMITS):
    """Decision for both diagonal components trivial: the source cocycle
    vanishes and some isomorphism delta between the factor groups kills
    the target cocycle exactly.  Materializes (delta'(y), delta(x)).

    For a bijective delta, e2 . (delta x delta) takes every value of e2,
    so it vanishes exactly when e2 does, whatever delta is: only
    brute_force_isomorphism's delta is built, the first a loop over
    every delta would try, so the certificate is the loop's.
    """
    src, tgt = _extension_pair(e1, e2)
    g1, g2 = src.g1, src.g2
    if (g1.order != g2.order or not src.cocycle.is_trivial()
            or not tgt.cocycle.is_trivial()):
        return None
    delta = brute_force_isomorphism(g1, g2, limits=limits)
    if delta is None:
        return None
    cert = IsoCertificate(kind="g1g2", source=src, target=tgt,
                          eta=delta.inverse(), delta=delta)
    cert.materialize()
    return cert


# ---------------------------------------------------------------------------
# one decision entry point


def _deciders(g1, g2) -> dict:
    """kind -> (its criterion in verify_theorems' records, the structured
    decider that answers it) over the group pair, in the order
    verify_theorems records them: upper; g2, only over abelian factor
    groups of equal order; g1g2; lower.  Read from the module's names
    on each call, so a decider rebound by name (bench/tracing.py's
    wrappers, a test's monkeypatch) is the one called."""
    return {"upper": ("upper", upper_isomorphic),
            **({"g2": ("g2_equal_order", g2_isomorphic_equal_order)}
               if g1.is_abelian and g2.is_abelian and g1.order == g2.order
               else {}),
            "g1g2": ("g1g2", g1g2_isomorphic),
            "lower": ("lower", lower_isomorphic)}


class Verdict(Record):
    """decide's answer for one kind: whether it holds; the certificate
    of a positive, an IsoCertificate or else the raw carrier GroupMap;
    the hypothesis a negative rests on, "sim_is_trivial" for a lower
    negative the component search settled because the quotient passes
    sim_is_trivial, else None; and notes on how it was reached."""

    kind: str
    holds: bool
    certificate: IsoCertificate | GroupMap | None = None
    rests_on: str | None = None
    notes: tuple[str, ...] = ()


def decide(kind, e1, e2, limits: SearchLimits = DEFAULT_LIMITS) -> Verdict:
    """Whether e1 and e2, extensions or their cocycles (_carrier), are
    isomorphic in the kind, one of TRIVIAL_COMPONENTS but
    purely_nonabelian, else ValueError before a carrier is built.

    Every kind but plain compares two extensions over one group pair,
    so a mismatched pair raises GroupMismatch before any search; a
    carrier isomorphism needs no common pair.  The structured decider of
    the kind (_deciders) answers where there is one.  Other kinds, and a
    lower negative that sim_is_trivial cannot settle, take the first
    carrier isomorphism of the kind from the exhaustive search (lower
    raises HypothesisNotVerified past the limits); g1 and g2 extract
    their certificate from it (necessary), else keep the raw map with a
    note when the failed condition rests on the quotient hypothesis."""
    _accepted(kind, tuple(k for k in TRIVIAL_COMPONENTS
                          if k != "purely_nonabelian"))
    src, tgt = (_extension_pair(e1, e2) if kind != "plain"
                else (_carrier(e1), _carrier(e2)))
    if (entry := _deciders(src.g1, src.g2).get(kind)) is not None:
        cert = entry[1](src, tgt, limits)
        if cert is not None or kind != "lower":
            return Verdict(kind=kind, holds=cert is not None,
                           certificate=cert)
        if sim_is_trivial(src.g2):
            return Verdict(kind=kind, holds=False, rests_on="sim_is_trivial",
                           notes=("negative settled by the component search; "
                                  "the quotient hypothesis is verified",))

    forced = TRIVIAL_COMPONENTS[kind]
    try:
        phi = brute_force_isomorphism(
            src.group, tgt.group, limits=limits,
            constraint=lambda phi: trivial_components(
                src, tgt, phi.images).issuperset(forced))
    except SizeLimitExceeded as exc:
        if kind != "lower":
            raise
        raise HypothesisNotVerified(
            "the component search found nothing, its completeness "
            "needs the quotient hypothesis, which fails for this "
            "quotient, and exhaustive search exceeds the size "
            "limits") from exc
    notes = () if kind != "lower" else (
        "negative settled by exhaustive search" if phi is None
        else "found by exhaustive search although the component search "
        "came up empty; the quotient hypothesis fails for this pair",)
    if phi is None:
        return Verdict(kind=kind, holds=False, notes=notes)
    if kind in ("g1", "g2"):
        try:
            return Verdict(kind=kind, holds=True,
                           certificate=necessary(kind, src, tgt, phi),
                           notes=notes)
        except HypothesisNotVerified as exc:
            notes += (f"certificate left as the raw map: {exc}; the "
                      "quotient hypothesis fails here",)
    return Verdict(kind=kind, holds=True, certificate=phi, notes=notes)


# ---------------------------------------------------------------------------
# brute-force survey and the cross-validation harness


def oracle_iso_survey(src: ExtensionGroup, tgt: ExtensionGroup,
                      limits: SearchLimits = DEFAULT_LIMITS) -> dict:
    """Ground truth by exhaustive search: which structured kinds of
    isomorphism exist between the two carriers.  Constraints are applied
    as post-filters on fully enumerated isomorphisms."""
    return _survey(_shaped_isomorphisms(src, tgt, limits))


def _shaped_isomorphisms(src, tgt, limits):
    """Every carrier isomorphism, with the set of its trivial components
    (extensions.trivial_components)."""
    return [(phi, trivial_components(src, tgt, phi.images))
            for phi in enumerate_isomorphisms(src.group, tgt.group, limits)]


def _survey(isos) -> dict:
    shapes = {s for _, s in isos}
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
    necessity statements this is read off the error: ConditionsFailed
    is flagged, HypothesisNotVerified logged.  Each isomorphism of the
    lower, g2 or g1 kind goes through the one extraction path,
    _necessary, with its component image arrays, sliced once, and the
    isomorphism itself, so the map they rebuild is compared with the
    isomorphism and a certificate is built and materialized in full only
    where they differ.  Every fact of the statements (the conditions'
    facts, extensions._condition_failures, and each kind's requirements)
    is decided once per class pair, in one dict kept for that (source,
    target) pair and then dropped: a fact reads the pair's tables and at
    most three of the arrays, and is keyed by the arrays it reads, so a
    lookup is what the same code computes on equal arrays of the same
    pair.  Only the comparison, and materialize() on a mismatch, run per
    isomorphism.  The report is machine-readable and the discrepancy
    list must come back empty.
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
        # oracle, and lower's, whose negatives rest on the hypothesis
        deciders = _deciders(g1, g2)
        lower = deciders.pop("lower")[1]

        for i, src in enumerate(exts):
            for j, tgt in enumerate(exts):
                report["checked_class_pairs"] += 1
                record = {"pair": [pair_entry["g1"], pair_entry["g2"]],
                          "classes": [i, j],
                          "oracle": None, "criteria": {},
                          "certificates": {}, "discrepancies": []}
                # every isomorphism with its trivial components, for the
                # oracle and the extractors, its component arrays sliced
                # once if one needs them, and the facts of the necessity
                # statements, decided once for this pair
                isos = _shaped_isomorphisms(src, tgt, limits)
                oracle = _survey(isos)
                parts, facts = {}, {}
                record["oracle"] = oracle

                wit = are_cohomologous(tgt.cocycle, src.cocycle)
                equivalent = wit is not None
                record["criteria"]["equivalent"] = equivalent
                if equivalent != (i == j):
                    flag(record, "class_representatives_not_distinct",
                         {"i": i, "j": j})

                for kind, (criterion, decider) in deciders.items():
                    cert = decider(src, tgt, limits)
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
                lower_cert = lower(src, tgt, limits)
                record["criteria"]["lower"] = lower_cert is not None
                if lower_cert is not None:
                    record["certificates"]["lower"] = lower_cert.to_dict()
                    if not oracle["lower"]:
                        flag(record, "lower_certificate_vs_oracle", {})
                elif oracle["lower"]:
                    # completeness of the search needs the hypothesis
                    settle(record, "lower_oracle_without_certificate",
                           {} if sim_ok else {"sim_trivial": False})

                # each necessity statement on every isomorphism of its
                # kind: ConditionsFailed falsifies a statement, while
                # HypothesisNotVerified marks one the quotient leaves
                # unproved
                for kind in ("lower", "g2", "g1"):
                    for k, (phi, shape) in enumerate(isos):
                        if not shape.issuperset(TRIVIAL_COMPONENTS[kind]):
                            continue
                        if k not in parts:
                            parts[k] = _component_images(src, tgt,
                                                         phi.images)
                        try:
                            _necessary(kind, src, tgt, parts[k], facts, phi)
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
