"""Central extension carriers built from cocycle tables, and the
matrix decomposition of maps between two such carriers.

Elements of a carrier are pairs (x, y) with x in g1 and y in g2,
flattened to the index x * |g2| + y, so (x, y) = divmod(i, |g2|): the
kernel copy (x, 1) sits at the multiples x * |g2| and the section copy
(1, y) at the indices 0 .. |g2| - 1.  Every reader here writes the
layout as that arithmetic.  The product twists the g1 part:
(x, y)(x', y') = (x x' e(y, y'), y y').  The copy of g1 along y = 0 is
central by construction and the quotient by it multiplies like g2.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .cocycles import (
    Cocycle2,
    _epsilon_endomorphic,
    are_cohomologous,
    is_epsilon_endomorphism,
)
from .errors import (
    ConditionsFailed,
    GroupMismatch,
    NotAbelianCoefficients,
)
from .groups import (
    FiniteGroup,
    GroupMap,
    Record,
    _homomorphic,
    group_from_elements,
    trivial_map,
)

__all__ = [
    "ExtensionGroup", "build_extension",
    "HomMatrix", "TRIVIAL_COMPONENTS", "decompose_hom", "reconstruct_hom",
    "trivial_components", "is_homomorphism_direct", "hom_condition_failures",
    "equivalence_isomorphism", "is_epsilon_endomorphism",
    "central_quotient_data",
]


class ExtensionGroup(Record):
    """A carrier group together with the data it was built from."""

    g1: FiniteGroup
    g2: FiniteGroup
    cocycle: Cocycle2
    group: FiniteGroup

    def to_dict(self) -> dict:
        return {"g1": self.g1.to_dict(), "g2": self.g2.to_dict(),
                "cocycle_table": [list(r) for r in self.cocycle.table],
                "group": self.group.to_dict()}


def build_extension(e: Cocycle2) -> ExtensionGroup:
    """Carrier of the twisted product for the cocycle e, unnamed.

    Once g1 is abelian and e passes is_cocycle (run once per e, as
    e._identity), the table is a group with a central kernel copy, given
    that g1 and g2 are groups (the FiniteGroup contract); so it is
    wrapped without validate_group.
    Writing g1 additively, (x, y)(x', y') = (x + x' + e(y, y'), y y'):
      * (0, 1), index 0, is the identity, as e(1, y) = e(y, 1) = 0;
      * associativity is the cocycle identity, which is_cocycle decides
        in full, by Light's argument, since g1 is abelian (the _expand
        proof): ((x, h)(x', g))(x'', k) and (x, h)((x', g)(x'', k))
        have the g1 parts x + x' + x'' + e(h, g) + e(hg, k) and
        x + x' + x'' + e(g, k) + e(h, gk);
      * the inverse of (x, y) is (-x - e(y, y^-1), y^-1), a right
        inverse, and in an associative monoid with right inverses
        those are two-sided;
      * (a, 1)(x, y) = (a + x, y) = (x, y)(a, 1), by normalization and
        because g1 is abelian, so the kernel copy is central.
    A row is the concatenation, over x' in g1, of the block of entries
    (x x' + e(y, y'), y y') for y' in g2; that block depends on x x' and
    y only, so each is built once.
    """
    g1, g2 = e.g1, e.g2
    if not g1.is_abelian:
        raise NotAbelianCoefficients(
            "extension carriers here take abelian coefficients")
    ok, witness = e._identity
    if not ok:
        raise ValueError(f"not a cocycle, first failure {witness}")
    n1, n2 = g1.order, g2.order
    # blocks[w][y][y'] is the index of (w + e(y, y'), y y')
    blocks = [[tuple([t1w[ev] * n2 + z for ev, z in zip(e_row, row2)])
               for e_row, row2 in zip(e.table, g2.table)]
              for t1w in g1.table]
    table = tuple(
        tuple(itertools.chain.from_iterable([blocks[w][y] for w in row1]))
        for row1 in g1.table for y in range(n2))
    group = FiniteGroup(order=n1 * n2, table=table)
    return ExtensionGroup(g1=g1, g2=g2, cocycle=e, group=group)


def equivalence_isomorphism(source: ExtensionGroup,
                            target: ExtensionGroup) -> GroupMap | None:
    """If the two cocycles differ by a coboundary, the isomorphism
    (x, y) -> (x t(y), y), reconstruct_hom of sigma = id, eta = the
    witness t, delta trivial and rho = id; it fixes the kernel copy
    pointwise and induces the identity on the quotient.  None when the
    cocycles are not cohomologous (GroupMismatch when they lie over
    different group pairs)."""
    witness = are_cohomologous(target.cocycle, source.cocycle)
    if witness is None:
        return None
    g1, g2 = source.g1, source.g2
    phi = reconstruct_hom(HomMatrix(
        source=source, target=target,
        phi11=GroupMap(dom=g1, cod=g1, images=tuple(range(g1.order))),
        phi12=witness.t, phi21=trivial_map(g1, g2),
        phi22=GroupMap(dom=g2, cod=g2, images=tuple(range(g2.order)))))
    if _carrier_iso_failure(source, target, phi, "upper") is not None:
        raise ConditionsFailed(
            "the coboundary witness does not give an isomorphism")
    return phi


def central_quotient_data(group: FiniteGroup, members):
    """Read extension data back out of a concrete group: given a central
    subgroup (by element indices), return the subgroup as an abstract
    group, the quotient, and the cocycle of the minimal-representative
    section, as (kernel, quotient, cocycle, section_reps).

    The section picks the least element of each coset, so the identity
    coset is represented by the identity and the cocycle is normalized.
    Rebuilding the twisted product from the returned data yields a group
    isomorphic to the input via (x, y) -> members[x] * section_reps[y].

    group_from_elements builds and validates the kernel and the quotient
    (on section_reps, a*b read as the representative of its coset), and
    raises ValueError("elements not closed under op") for members that
    are not closed, before any member is checked to be central.
    """
    members = list(members)
    for z in members:
        if type(z) is not int or not 0 <= z < group.order:
            raise ValueError(f"member {z!r} is not an element index of "
                             f"a group of order {group.order}")
    members = sorted(set(members))
    if not members or members[0] != 0:
        raise ValueError("central subgroup must contain the identity")
    kernel = group_from_elements(members, lambda a, b: group.table[a][b])
    for z in members:
        if any(group.table[z][x] != group.table[x][z]
               for x in range(group.order)):
            raise ValueError(f"element {z} is not central")
    z_index = {z: i for i, z in enumerate(members)}

    coset_of = [-1] * group.order
    reps = []
    for g in range(group.order):
        if coset_of[g] >= 0:
            continue
        idx = len(reps)
        reps.append(g)
        for z in members:
            coset_of[group.table[z][g]] = idx
    quotient = group_from_elements(
        reps, lambda a, b: reps[coset_of[group.table[a][b]]])

    inv = group.inverses
    table = []
    for i in range(quotient.order):
        row = []
        for j in range(quotient.order):
            prod = group.table[reps[i]][reps[j]]
            row.append(z_index[group.table[prod][inv[reps[coset_of[prod]]]]])
        table.append(tuple(row))
    cocycle = Cocycle2(g1=kernel, g2=quotient, table=tuple(table))
    return kernel, quotient, cocycle, tuple(reps)


# ---------------------------------------------------------------------------
# matrix components of a map between carriers

# The components each kind of isomorphism forces trivial.  As phi(x, 1) =
# (phi11(x), phi21(x)) and phi(1, y) = (phi12(y), phi22(y)), a bijective
# phi between carriers over one pair maps the kernel copy onto itself
# exactly when phi21 is trivial ("upper"), and the section copy onto
# itself exactly when phi12 is; the G1 and G2 families have a trivial
# diagonal component.
TRIVIAL_COMPONENTS = {
    "plain": (),
    "upper": ("phi21",),
    "lower": ("phi12",),
    "g1": ("phi11",),
    "g2": ("phi22",),
    "g1g2": ("phi11", "phi22"),
    "purely_nonabelian": (),
}


class HomMatrix(Record):
    """The four component maps of phi: phi(x, y) =
    (phi11(x) phi12(y) e2(phi21(x), phi22(y)), phi21(x) phi22(y))."""

    source: ExtensionGroup
    target: ExtensionGroup
    phi11: GroupMap
    phi12: GroupMap
    phi21: GroupMap
    phi22: GroupMap

    def __post_init__(self):
        for c, (dom, cod) in _component_groups(self.source,
                                              self.target).items():
            m = getattr(self, c)
            if (m.dom is not dom and m.dom != dom
                    or m.cod is not cod and m.cod != cod):
                raise GroupMismatch("component map has wrong domain/codomain")


def _component_groups(source: ExtensionGroup, target: ExtensionGroup) -> dict:
    """Each component's (domain, codomain), by name."""
    return {"phi11": (source.g1, target.g1), "phi12": (source.g2, target.g1),
            "phi21": (source.g1, target.g2), "phi22": (source.g2, target.g2)}


def _component_images(source: ExtensionGroup, target: ExtensionGroup,
                     images) -> dict:
    """The image arrays of phi11, phi12, phi21 and phi22, read off the
    image array of a carrier map phi: phi(x, 1) = (phi11(x), phi21(x))
    and phi(1, y) = (phi12(y), phi22(y))."""
    n2s, n2t = source.g2.order, target.g2.order
    kernel, section = images[::n2s], images[:n2s]
    return {"phi11": tuple([v // n2t for v in kernel]),
            "phi12": tuple([v // n2t for v in section]),
            "phi21": tuple([v % n2t for v in kernel]),
            "phi22": tuple([v % n2t for v in section])}


def decompose_hom(source: ExtensionGroup, target: ExtensionGroup,
                  phi: GroupMap) -> HomMatrix:
    """Read the four components off phi by restricting to the kernel
    copy and the section.  They are built without GroupMap's scan: phi
    is a GroupMap between the carriers, so each component has an image
    per element of its domain, the quotient and remainder of an image
    of phi by |target.g2| lie in target.g1 and target.g2, and each
    component sends 0 to the part of phi(0) = 0 it reads."""
    if phi.dom != source.group or phi.cod != target.group:
        raise GroupMismatch("phi does not map between the two carriers")
    parts = _component_images(source, target, phi.images)
    return HomMatrix(source=source, target=target, **{
        c: GroupMap._unchecked(dom=dom, cod=cod, images=parts[c])
        for c, (dom, cod) in _component_groups(source, target).items()})


# the component names, in the order of HomMatrix's fields
_COMPONENTS = ("phi11", "phi12", "phi21", "phi22")

# the frozenset of the trivial components, by the four flags of
# trivial_components
_TRIVIAL_SETS = {flags: frozenset(itertools.compress(_COMPONENTS, flags))
                 for flags in itertools.product((False, True), repeat=4)}


@lru_cache(maxsize=None)
def _kernel_copy(order: int, n2: int) -> frozenset:
    """The indices x * n2 of the kernel copy of a carrier of this order
    over a quotient of order n2."""
    return frozenset(range(0, order, n2))


def trivial_components(source: ExtensionGroup, target: ExtensionGroup,
                       images) -> frozenset:
    """The names of the components of the carrier map with this image
    array that are trivial, with no component map built, each read off
    one slice of the array at C speed.  As phi(x, 1) = (phi11(x),
    phi21(x)) and phi(1, y) = (phi12(y), phi22(y)), phi11 (phi12) is
    trivial when every image of the kernel copy (section) is some (1,
    y), an index below |target.g2|, and phi21 (phi22) when every one is
    some (x, 1), a multiple of |target.g2|.  The one read of a kind: a
    bijective phi is of kind K when the set holds
    TRIVIAL_COMPONENTS[K]."""
    n2s, n2t = source.g2.order, target.g2.order
    kernel, section = images[::n2s], images[:n2s]
    copy = _kernel_copy(target.group.order, n2t)
    return _TRIVIAL_SETS[max(kernel) < n2t, max(section) < n2t,
                         copy.issuperset(kernel), copy.issuperset(section)]


def _arrays(m: HomMatrix) -> dict:
    """The image arrays of m's components, by name."""
    return {c: getattr(m, c).images for c in _COMPONENTS}


def reconstruct_hom(m: HomMatrix) -> GroupMap:
    """The map defined by the component formula, _product_images of m's
    component arrays.

    HomMatrix has checked that the components are normalized maps
    between the right groups, so the result is built without GroupMap's
    scan: it has one image a * |target.g2| + b per source element, with
    a an entry of target.g1's table and b one of target.g2's, so it lies
    in range; and phi(1, 1) = (e2(1, 1), 1) = (1, 1), index 0, as the
    components and the cocycle are normalized."""
    return GroupMap._unchecked(dom=m.source.group, cod=m.target.group,
                               images=_product_images(m.target, _arrays(m)))


def _product_images(target: ExtensionGroup, parts: dict) -> tuple:
    """The image array of the carrier map whose components have the image
    arrays parts, by name: for sigma, eta, delta and rho, phi(x, y) =
    (sigma(x) eta(y) e2(delta(x), rho(y)), delta(x) rho(y)), computed row
    by row over the arrays."""
    t1, t2 = target.g1.table, target.g2.table
    e2, n2t = target.cocycle.table, target.g2.order
    eta, rho = parts["phi12"], parts["phi22"]
    images = []
    for s, d in zip(parts["phi11"], parts["phi21"]):
        row1, e2d, row2 = t1[s], e2[d], t2[d]
        images += [t1[row1[v]][e2d[r]] * n2t + row2[r]
                   for v, r in zip(eta, rho)]
    return tuple(images)


def is_homomorphism_direct(source: ExtensionGroup, target: ExtensionGroup,
                           phi: GroupMap):
    """Check the two product-compatibility families that together are
    equivalent to phi being a homomorphism:

      phi(x,y) phi(x',1) = phi(x x', y)
      phi(x,y) phi(1,y') = phi(x e1(y,y'), y y')

    Returns (ok, witness) with the first failing triple.

    Both families read phi(a t) = phi(a) phi(t) for every a, with t =
    (x', 1) or (1, y').  The t that pass for every a are closed under
    the product, as in GroupMap.is_homomorphism, and include the
    identity; (x', 1) for x' in g1.generators and (1, y') for y' in
    g2.generators generate the carrier.  So the families
    are tested on those x' and y' only, and the scan over all of them
    runs only after a failure, to name the first failing triple.
    """
    if phi.dom != source.group or phi.cod != target.group:
        raise GroupMismatch("phi does not map between the two carriers")
    g1, g2 = source.g1, source.g2
    if _direct_failure(source, target, phi, g1.generators,
                       g2.generators) is None:
        return True, None
    bad = _direct_failure(source, target, phi, range(g1.order),
                          range(g2.order))
    return (True, None) if bad is None else (False, bad)


def _direct_failure(source, target, phi, kernel_factors, section_factors):
    mul1, mul2 = source.g1.table, source.g2.table
    e1, n2 = source.cocycle.table, source.g2.order
    mul_t, im = target.group.table, phi.images
    for x, row1 in enumerate(mul1):
        for y in range(n2):
            left, ey, row2 = mul_t[im[x * n2 + y]], e1[y], mul2[y]
            for xp in kernel_factors:
                if left[im[xp * n2]] != im[row1[xp] * n2 + y]:
                    return "kernel_factor", (x, y, xp)
            for yp in section_factors:
                if left[im[yp]] != im[row1[ey[yp]] * n2 + row2[yp]]:
                    return "section_factor", (x, y, yp)
    return None


def _carrier_iso_failure(source, target, phi, kind) -> str | None:
    """None when phi, the map of a certificate of the kind, is a carrier
    isomorphism of that kind, else the first failing fact, tested in
    order: the direct homomorphism check, bijectivity, and the
    components TRIVIAL_COMPONENTS[kind] forces trivial, read by
    trivial_components."""
    ok, witness = is_homomorphism_direct(source, target, phi)
    if not ok:
        return f"certificate does not materialize: {witness}"
    if not phi.is_bijective():
        return "certificate map is not bijective"
    if not trivial_components(source, target, phi.images).issuperset(
            TRIVIAL_COMPONENTS[kind]):
        return f"certificate map is not of kind {kind!r}"
    return None


def hom_condition_failures(m: HomMatrix):
    """The four component conditions on m, writing sigma, eta, delta,
    rho for phi11, phi12, phi21, phi22:
      1. delta is a homomorphism into the centralizer of the rho image,
         rho is an endomorphism of g2, and sigma respects products by
         source-cocycle values;
      2. the rho and delta images commute inside the target carrier;
      3. delta kills the source cocycle values, and the inverted target
         cocycle pulled back through delta is sigma's coboundary;
      4. sigma.e1 minus e2.(rho x rho) is eta's coboundary.
    When all four hold, the reconstructed map is a homomorphism between
    the two carriers, for any quotient.  A failed condition rules a
    homomorphism out only under the quotient coboundary-triviality
    hypothesis (sim_is_trivial of the quotient), which is not decided
    here.

    Yields (condition, reason, witness) once for each failing condition,
    in the order 1, 3, 2, 4, so all four hold exactly when nothing is
    yielded.  Evaluation is lazy, so a caller that stops at the first
    failure pays for nothing after it.  The first read raises
    GroupMismatch unless both carriers sit over one group pair.  The
    conditions are stated once, on m's component arrays, in
    _condition_failures, here with a table of facts of its own.

    Condition 4 is screened on the generator columns.  Once condition 1
    has held, sigma.e1 is a normalized cocycle into the abelian g1, as
    sigma is an epsilon-endomorphism (sigma(a + b) = sigma(a) + sigma(b)
    for cocycle values b carries the cocycle identity over); so is
    e2.(rho x rho), as rho is an endomorphism, and so is eta's
    coboundary.  Their difference is then a normalized cocycle, and a
    cocycle is fixed by its values at (x, s) for s in g2.generators
    (cocycles._expand), so it vanishes when those k(|g2| - 1) slots do.
    The row-major scan over all pair slots runs only when the screen
    fails or condition 1 did, to name the first failing pair.
    """
    return _condition_failures(m.source, m.target, _arrays(m), {})


def _fact(facts: dict, key: tuple, decide):
    """facts[key], first set to decide() where absent.  A key names one
    fact and lists the image arrays it reads, and a facts dict serves
    one (source, target) pair, whose tables are the fact's only other
    input; so a lookup is what decide() computes afresh."""
    try:
        return facts[key]
    except KeyError:
        facts[key] = value = decide()
        return value


def _condition_failures(src, tgt, parts: dict, facts: dict):
    """hom_condition_failures for the components with image arrays parts,
    by name, between the carriers src and tgt, each fact decided once per
    facts dict, which serves one (src, tgt) pair (_fact).  The facts and
    the arrays they read: in condition 1, delta is a homomorphism
    (delta), rho an endomorphism (rho), sigma an epsilon-endomorphism of
    e1 (sigma), delta(G1) centralizes rho(G2) (delta, rho); in condition
    3, delta kills e1's values (delta), e2 on delta(G1)^2 is sigma's
    coboundary (sigma, delta); condition 2 (delta, rho); condition 4's
    screen and scan (sigma, eta, rho).  A witness is the first failing
    point of its fact's scan, so it is stored with the fact."""
    if src.g1 != tgt.g1 or src.g2 != tgt.g2:
        raise GroupMismatch("both carriers must sit over the same pair")
    g1, g2 = src.g1, src.g2
    n1, n2 = g1.order, g2.order
    e1, e2 = src.cocycle.table, tgt.cocycle.table
    mul1, mul2, inv1 = g1.table, g2.table, g1.inverses
    sigma, eta, delta, rho = map(parts.__getitem__, _COMPONENTS)

    def uncentralized():
        im22 = sorted(set(rho))
        return next(((x, u) for x in range(1, n1) for u in im22
                     if mul2[delta[x]][u] != mul2[u][delta[x]]), None)

    condition_1 = False
    if not _fact(facts, ("hom", delta),
                 lambda: _homomorphic(g1, g2, delta)):
        yield (1, "delta is not a homomorphism",
               ("phi21_not_homomorphism", None))
    elif not _fact(facts, ("endo", rho), lambda: _homomorphic(g2, g2, rho)):
        yield (1, "section component is not an endomorphism",
               ("phi22_not_endomorphism", None))
    elif not _fact(facts, ("epsilon", sigma),
                   lambda: _epsilon_endomorphic(sigma, src.cocycle)):
        yield (1, "kernel component is not compatible with cocycle-value "
                  "products", ("phi11_not_cocycle_endomorphism", None))
    elif (bad := _fact(facts, ("centralizes", delta, rho),
                       uncentralized)) is not None:
        yield (1, "delta image does not commute with the rho image",
               ("phi21_not_centralizing", bad))
    else:
        condition_1 = True

    bad = _fact(facts, ("kills", delta), lambda: next(
        ((y, yp) for y in range(1, n2) for yp in range(1, n2)
         if delta[e1[y][yp]] != 0), None))
    if bad is not None:
        yield (3, "delta does not kill the source cocycle values",
               ("value_survives", bad))
    # sigma's coboundary at (x, x') is sigma(x') - sigma(x x') + sigma(x)
    # (cocycles._coboundary_table's formula)
    elif (bad := _fact(facts, ("coboundary", sigma, delta), lambda: next(
            ((x, xp) for x in range(n1) for xp in range(n1)
             if inv1[e2[delta[x]][delta[xp]]] != mul1[mul1[sigma[xp]][
                 inv1[sigma[mul1[x][xp]]]]][sigma[x]]), None))) is not None:
        yield (3, "target cocycle times sigma's coboundary does not "
                  "vanish on the delta image", ("coboundary_mismatch", bad))

    # in the target carrier (1, a)(1, b) = (e2(a, b), ab)
    bad = _fact(facts, ("commutes", delta, rho), lambda: next(
        ((y, x) for y in range(1, n2) for x in range(1, n1)
         if e2[rho[y]][delta[x]] != e2[delta[x]][rho[y]]
         or mul2[rho[y]][delta[x]] != mul2[delta[x]][rho[y]]), None))
    if bad is not None:
        yield (2, "delta image does not commute with the section copy in "
                  "the target carrier", bad)

    # eta's coboundary at (y, y') is eta(y') - eta(y y') + eta(y), read
    # only at the slots compared
    def transports(y, yp):
        return (mul1[sigma[e1[y][yp]]][inv1[e2[rho[y]][rho[yp]]]]
                == mul1[mul1[eta[yp]][inv1[eta[mul2[y][yp]]]]][eta[y]])

    if condition_1 and _fact(facts, ("screen", sigma, eta, rho), lambda: all(
            transports(y, s) for s in g2.generators for y in range(1, n2))):
        return
    bad = _fact(facts, ("transports", sigma, eta, rho), lambda: next(
        ((y, yp) for y in range(n2) for yp in range(n2)
         if not transports(y, yp)), None))
    if bad is not None:
        yield (4, "sigma does not transport the source cocycle onto the "
                  "pulled-back target cocycle times eta's coboundary", bad)
