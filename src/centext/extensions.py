"""Central extension carriers built from cocycle tables, and the
matrix decomposition of maps between two such carriers.

Elements of a carrier are pairs (x, y) with x in g1 and y in g2,
flattened to the index x * |g2| + y.  The product twists the g1 part:
(x, y)(x', y') = (x x' e(y, y'), y y').  The copy of g1 along y = 0 is
central by construction and the quotient by it multiplies like g2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cocycles import (
    Cocycle2,
    _coboundary_table,
    are_cohomologous,
    coboundary_from,
    is_cocycle,
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
    Subgroup,
    subgroup_closure,
    validate_group,
)

__all__ = [
    "ExtensionGroup", "build_extension",
    "HomMatrix", "TRIVIAL_COMPONENTS", "decompose_hom", "reconstruct_hom",
    "is_homomorphism_direct", "HomConditionReport", "check_hom_conditions",
    "hom_condition_failures",
    "equivalence_isomorphism", "is_epsilon_endomorphism",
    "central_quotient_data",
]


@dataclass(frozen=True)
class ExtensionGroup:
    """A carrier group together with the data it was built from."""

    g1: FiniteGroup
    g2: FiniteGroup
    cocycle: Cocycle2
    group: FiniteGroup

    def index_of_pair(self, x: int, y: int) -> int:
        return x * self.g2.order + y

    def pair_of_index(self, i: int) -> tuple[int, int]:
        return divmod(i, self.g2.order)

    def embed_kernel(self, x: int) -> int:
        return x * self.g2.order

    @property
    def kernel_indices(self) -> tuple[int, ...]:
        n2 = self.g2.order
        return tuple(x * n2 for x in range(self.g1.order))

    @property
    def section_indices(self) -> tuple[int, ...]:
        return tuple(range(self.g2.order))

    def kernel_subgroup(self) -> Subgroup:
        return Subgroup(parent=self.group, members=self.kernel_indices)

    def to_dict(self) -> dict:
        return {"g1": self.g1.to_dict(), "g2": self.g2.to_dict(),
                "cocycle_table": [list(r) for r in self.cocycle.table],
                "group": self.group.to_dict()}


def build_extension(e: Cocycle2, name: str | None = None) -> ExtensionGroup:
    """Carrier of the twisted product for the cocycle e.

    The table is validated in full, and centrality of the embedded
    coefficient copy is checked constructively.
    """
    g1, g2 = e.g1, e.g2
    if not g1.is_abelian:
        raise NotAbelianCoefficients(
            "extension carriers here take abelian coefficients")
    ok, witness = is_cocycle(g1, g2, e.table)
    if not ok:
        raise ValueError(f"not a cocycle, first failure {witness}")
    n1, n2 = g1.order, g2.order
    n = n1 * n2
    table = []
    for i in range(n):
        x, y = divmod(i, n2)
        row = []
        for j in range(n):
            xp, yp = divmod(j, n2)
            z1 = g1.table[g1.table[x][xp]][e.table[y][yp]]
            z2 = g2.table[y][yp]
            row.append(z1 * n2 + z2)
        table.append(row)
    group = validate_group(table, name=name)
    ext = ExtensionGroup(g1=g1, g2=g2, cocycle=e, group=group)
    for x in range(n1):
        k = ext.embed_kernel(x)
        for j in range(n):
            if group.table[k][j] != group.table[j][k]:
                raise AssertionError(
                    "embedded coefficient copy failed to be central")
    return ext


def equivalence_isomorphism(source: ExtensionGroup,
                            target: ExtensionGroup) -> GroupMap | None:
    """If the two cocycles differ by a coboundary, the isomorphism
    (x, y) -> (x t(y), y); it fixes the kernel copy pointwise and
    induces the identity on the quotient.  None when the cocycles are
    not cohomologous."""
    if source.g1 != target.g1 or source.g2 != target.g2:
        raise GroupMismatch("extensions over different group pairs")
    witness = are_cohomologous(target.cocycle, source.cocycle)
    if witness is None:
        return None
    t = witness.t
    g1, g2 = source.g1, source.g2
    n2 = g2.order
    images = []
    for i in range(source.group.order):
        x, y = divmod(i, n2)
        images.append(g1.table[x][t.images[y]] * n2 + y)
    phi = GroupMap(dom=source.group, cod=target.group, images=tuple(images))
    if not (phi.is_homomorphism() and phi.is_bijective()):
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
    """
    members = list(members)
    for z in members:
        if type(z) is not int or not 0 <= z < group.order:
            raise ValueError(f"member {z!r} is not an element index of "
                             f"a group of order {group.order}")
    members = sorted(set(members))
    if not members or members[0] != 0:
        raise ValueError("central subgroup must contain the identity")
    mset = frozenset(members)
    if subgroup_closure(group, members) != mset:
        raise ValueError("members are not closed under the product")
    for z in members:
        if any(group.table[z][x] != group.table[x][z]
               for x in range(group.order)):
            raise ValueError(f"element {z} is not central")
    z_index = {z: i for i, z in enumerate(members)}
    kernel = FiniteGroup(
        order=len(members),
        table=tuple(tuple(z_index[group.table[a][b]] for b in members)
                    for a in members),
        name=None)

    coset_of = [-1] * group.order
    reps = []
    for g in range(group.order):
        if coset_of[g] >= 0:
            continue
        idx = len(reps)
        reps.append(g)
        for z in members:
            coset_of[group.table[z][g]] = idx
    quotient = validate_group(
        [[coset_of[group.table[reps[i]][reps[j]]] for j in range(len(reps))]
         for i in range(len(reps))])

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


@dataclass(frozen=True)
class HomMatrix:
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

    def trivial_components(self) -> frozenset:
        """The names of the components that are trivial maps."""
        return frozenset(c for c in _component_groups(self.source, self.target)
                         if getattr(self, c).is_trivial())

    def has_kind(self, kind: str) -> bool:
        """Whether every component TRIVIAL_COMPONENTS lists for kind is
        trivial; for a bijective map, whether it is of that kind."""
        return self.trivial_components().issuperset(TRIVIAL_COMPONENTS[kind])


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
    copy and the section."""
    if phi.dom != source.group or phi.cod != target.group:
        raise GroupMismatch("phi does not map between the two carriers")
    parts = _component_images(source, target, phi.images)
    return HomMatrix(source=source, target=target, **{
        c: GroupMap(dom=dom, cod=cod, images=parts[c])
        for c, (dom, cod) in _component_groups(source, target).items()})


def reconstruct_hom(m: HomMatrix) -> GroupMap:
    """The map defined by the component formula."""
    src, tgt = m.source, m.target
    g1t, g2t = tgt.g1, tgt.g2
    e2 = tgt.cocycle.table
    n2s, n2t = src.g2.order, g2t.order
    images = []
    for i in range(src.group.order):
        x, y = divmod(i, n2s)
        b1, b2 = m.phi21.images[x], m.phi22.images[y]
        a = g1t.table[g1t.table[m.phi11.images[x]][m.phi12.images[y]]][
            e2[b1][b2]]
        images.append(a * n2t + g2t.table[b1][b2])
    return GroupMap(dom=src.group, cod=tgt.group, images=tuple(images))


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


@dataclass(frozen=True)
class HomConditionReport:
    """Outcome of the four component conditions, with first-failure
    witnesses and the two derived coboundary tables.

    The four conditions, in order:
      1. phi21 is a homomorphism into the centralizer of the phi22
         image, phi22 is an endomorphism of g2, and phi11 respects
         products by source-cocycle values;
      2. the section images of phi22 and phi21 commute inside the
         target carrier;
      3. phi21 kills the source cocycle values, and the inverted target
         cocycle pulled back through phi21 is the coboundary of phi11;
      4. phi11.e1 minus e2.(phi22 x phi22) is the coboundary of phi12.
    """

    component_morphisms: bool
    morphism_witness: object
    images_commute_in_carrier: bool
    commute_witness: object
    kernel_coboundary_equation: bool
    kernel_witness: object
    section_coboundary_equation: bool
    section_witness: object
    psi_phi11: Cocycle2
    psi_phi12: Cocycle2

    @property
    def conditions(self) -> tuple[bool, bool, bool, bool]:
        return (self.component_morphisms, self.images_commute_in_carrier,
                self.kernel_coboundary_equation,
                self.section_coboundary_equation)

    @property
    def all_hold(self) -> bool:
        return all(self.conditions)


def hom_condition_failures(m: HomMatrix):
    """Evaluate the four conditions of HomConditionReport on m, whose
    carriers sit over one group pair, writing sigma, eta, delta, rho
    for phi11, phi12, phi21, phi22.

    Yields (condition, reason, witness) once for each failing condition,
    in the order 1, 3, 2, 4; the witness has the shape of the matching
    report field.  Evaluation is lazy, so a caller that stops at the
    first failure pays for nothing after it.
    """
    src, tgt = m.source, m.target
    g1, g2 = src.g1, src.g2
    n1, n2 = g1.order, g2.order
    e1, e2 = src.cocycle.table, tgt.cocycle.table
    inv1 = g1.inverses
    sigma, delta, rho = m.phi11.images, m.phi21.images, m.phi22.images

    if not m.phi21.is_homomorphism():
        yield (1, "delta is not a homomorphism",
               ("phi21_not_homomorphism", None))
    elif not m.phi22.is_homomorphism():
        yield (1, "section component is not an endomorphism",
               ("phi22_not_endomorphism", None))
    elif not is_epsilon_endomorphism(m.phi11, src.cocycle):
        yield (1, "kernel component is not compatible with cocycle-value "
                  "products", ("phi11_not_cocycle_endomorphism", None))
    else:
        im22 = sorted(set(rho))
        bad = next(((x, u) for x in range(1, n1) for u in im22
                    if g2.table[delta[x]][u] != g2.table[u][delta[x]]),
                   None)
        if bad is not None:
            yield (1, "delta image does not commute with the rho image",
                   ("phi21_not_centralizing", bad))

    bad = next(((y, yp) for y in range(1, n2) for yp in range(1, n2)
                if delta[e1[y][yp]] != 0), None)
    if bad is not None:
        yield (3, "delta does not kill the source cocycle values",
               ("value_survives", bad))
    else:
        psi11 = _coboundary_table(m.phi11)
        bad = next(((x, xp) for x in range(n1) for xp in range(n1)
                    if inv1[e2[delta[x]][delta[xp]]] != psi11[x][xp]), None)
        if bad is not None:
            yield (3, "target cocycle times sigma's coboundary does not "
                      "vanish on the delta image",
                   ("coboundary_mismatch", bad))

    mul_t, pair = tgt.group.table, tgt.index_of_pair
    bad = next(((y, x) for y in range(1, n2) for x in range(1, n1)
                if mul_t[pair(0, rho[y])][pair(0, delta[x])]
                != mul_t[pair(0, delta[x])][pair(0, rho[y])]), None)
    if bad is not None:
        yield (2, "delta image does not commute with the section copy in "
                  "the target carrier", bad)

    psi12 = _coboundary_table(m.phi12)
    bad = next(((y, yp) for y in range(n2) for yp in range(n2)
                if g1.table[sigma[e1[y][yp]]][inv1[e2[rho[y]][rho[yp]]]]
                != psi12[y][yp]), None)
    if bad is not None:
        yield (4, "sigma does not transport the source cocycle onto the "
                  "pulled-back target cocycle times eta's coboundary", bad)


def check_hom_conditions(m: HomMatrix) -> HomConditionReport:
    """Evaluate the four conditions on a component matrix, and report.

    When all four hold, the reconstructed map is a homomorphism between
    the two carriers, for any quotient.  A failed condition rules a
    homomorphism out only under the quotient coboundary-triviality
    hypothesis (sim_is_trivial of the quotient); the report does not
    decide it."""
    src, tgt = m.source, m.target
    if src.g1 != tgt.g1 or src.g2 != tgt.g2:
        raise GroupMismatch("both carriers must sit over the same pair")
    found = {c: witness for c, _, witness in hom_condition_failures(m)}
    return HomConditionReport(
        component_morphisms=1 not in found, morphism_witness=found.get(1),
        images_commute_in_carrier=2 not in found, commute_witness=found.get(2),
        kernel_coboundary_equation=3 not in found, kernel_witness=found.get(3),
        section_coboundary_equation=4 not in found,
        section_witness=found.get(4),
        psi_phi11=coboundary_from(m.phi11), psi_phi12=coboundary_from(m.phi12))
