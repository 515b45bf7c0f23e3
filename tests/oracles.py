"""Reference implementations that the library no longer carries: helpers
with no caller outside the tests, and the slower paths that faster ones
in src/ replaced, kept here so that the tests can check the two agree.

This module is not collected as tests, so its assert statements would
not be rewritten by pytest and python -O would strip them: its checks
raise instead.
"""

import itertools
import math
from collections import Counter
from functools import lru_cache

from centext.cocycles import (
    CoboundaryWitness,
    Cocycle2,
    CocycleSpace,
    _class_key,
    _coboundary_pivots,
    _coboundary_table,
    _column_values,
    _element_values,
    _free_homs,
    _generator_columns,
    _hopf_system,
    _least_values,
    _same_groups,
    _solve_coordinate,
    _walk,
    are_cohomologous,
    cocycle_inv,
    is_cocycle,
    is_epsilon_endomorphism,
    pullback,
    pushforward,
    sim_is_trivial,
    trivial_cocycle,
)
from centext.errors import (
    ConditionsFailed,
    DimensionMismatch,
    GroupMismatch,
    HypothesisNotVerified,
    InternalInconsistency,
    NotAbelian,
    NotAbelianCoefficients,
    NotG1Iso,
    NotG2Iso,
    NotLowerIso,
    NotNormalized,
    PreconditionViolated,
    SizeLimitExceeded,
)
from centext.extensions import (
    TRIVIAL_COMPONENTS,
    ExtensionGroup,
    HomMatrix,
    _component_images,
    hom_condition_failures,
    is_homomorphism_direct,
    reconstruct_hom,
    trivial_components,
)
from centext.groups import (
    DEFAULT_LIMITS,
    FiniteGroup,
    GroupMap,
    Record,
    SearchLimits,
    _automorphism_generators,
    brute_force_isomorphism,
    conjugacy_classes,
    enumerate_automorphisms,
    enumerate_isomorphisms,
    normal_subgroups,
    subgroup_closure,
    trivial_map,
    validate_group,
)
from centext.intlinalg import (
    AbelianPresentation,
    IntLattice,
    IntMatrix,
    SNFResult,
    _merge_invariant_factors,
    abelian_invariants,
    mat_mul,
    smith_normal_form,
    xgcd,
)
from centext.isotest import (
    IsoCertificate,
    _extension_pair,
    g1g2_isomorphic,
    g2_isomorphic_equal_order,
    lower_isomorphic,
    necessary,
    upper_isomorphic,
)


def group_from_elements_by_products(elems, op,
                                   name: str | None = None) -> FiniteGroup:
    """groups.group_from_elements by op and a dict lookup on each of the
    n^2 products, with no use of associativity."""
    index = {e: i for i, e in enumerate(elems)}
    if len(index) != len(elems):
        raise ValueError("duplicate elements")
    table = []
    for a in elems:
        row = []
        for b in elems:
            c = op(a, b)
            if c not in index:
                raise ValueError("elements not closed under op")
            row.append(index[c])
        table.append(row)
    return validate_group(table, name=name)


def cyclic_group_by_table(n: int, name: str | None = None) -> FiniteGroup:
    """The earlier groups.cyclic_group: the addition table mod n, wrapped
    without validate_group."""
    if n < 1:
        raise ValueError("order must be positive")
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return FiniteGroup(order=n, table=table, name=name or f"Z{n}")


def direct_product_by_table(g: FiniteGroup, h: FiniteGroup,
                            name: str | None = None) -> FiniteGroup:
    """The earlier groups.direct_product: every product of pairs, indexed
    first-factor major, (a,b) -> a*|h|+b, wrapped without validate_group."""
    n, m = g.order, h.order
    table = []
    for a in range(n):
        for b in range(m):
            row = []
            for c in range(n):
                for d in range(m):
                    row.append(g.table[a][c] * m + h.table[b][d])
            table.append(tuple(row))
    return FiniteGroup(order=n * m, table=tuple(table), name=name)


def identity_matrix(n: int) -> IntMatrix:
    """The earlier IntMatrix.identity: the n x n identity matrix."""
    return IntMatrix(rows=n, cols=n, data=tuple(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def to_lists(a: IntMatrix):
    """The earlier IntMatrix.to_lists: the rows of a as fresh lists."""
    return [list(row) for row in a.data]


def determinant(a: IntMatrix) -> int:
    """Bareiss fraction-free elimination; exact over Z."""
    if a.rows != a.cols:
        raise DimensionMismatch("determinant of non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = to_lists(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def smith_normal_form_by_three_matrices(a: IntMatrix) -> SNFResult:
    """intlinalg.smith_normal_form with s, u and v kept as three
    matrices, each row operation applied to s and u and each column
    operation to s and v.  Diagonalize by unimodular row and column
    operations.

    Pivot choice is the smallest nonzero absolute value, ties broken
    row-major, so the reduction (and therefore every downstream fixture)
    is deterministic.  The recomposition u*a*v == s is checked before
    returning.
    """
    nr, nc = a.rows, a.cols
    s = to_lists(a)
    u = to_lists(identity_matrix(nr))
    v = to_lists(identity_matrix(nc))

    def row_swap(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in s:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def row_combine(i, j, p, q, x, y):
        # rows (i,j) <- (p*ri + q*rj, x*ri + y*rj); p*y - q*x must be +-1
        s[i], s[j] = ([p * a_ + q * b_ for a_, b_ in zip(s[i], s[j])],
                      [x * a_ + y * b_ for a_, b_ in zip(s[i], s[j])])
        u[i], u[j] = ([p * a_ + q * b_ for a_, b_ in zip(u[i], u[j])],
                      [x * a_ + y * b_ for a_, b_ in zip(u[i], u[j])])

    def col_combine(i, j, p, q, x, y):
        for r in s:
            ci, cj = r[i], r[j]
            r[i], r[j] = p * ci + q * cj, x * ci + y * cj
        for r in v:
            ci, cj = r[i], r[j]
            r[i], r[j] = p * ci + q * cj, x * ci + y * cj

    def row_addmul(i, j, q):
        # row i += q * row j
        s[i] = [a_ + q * b_ for a_, b_ in zip(s[i], s[j])]
        u[i] = [a_ + q * b_ for a_, b_ in zip(u[i], u[j])]

    def col_addmul(j, i, q):
        # col j += q * col i
        for r in s:
            r[j] += q * r[i]
        for r in v:
            r[j] += q * r[i]

    def row_negate(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(nr, nc):
        piv = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                val = abs(s[i][j])
                if val != 0 and (best is None or val < best):
                    best = val
                    piv = (i, j)
        if piv is None:
            break
        row_swap(t, piv[0])
        col_swap(t, piv[1])

        while True:
            # exact divisions use shears that leave the pivot row/column
            # alone; inexact ones use a gcd combine, which strictly
            # shrinks the pivot, so this loop terminates
            dirty = False
            for i in range(t + 1, nr):
                if s[i][t] != 0:
                    if s[i][t] % s[t][t] == 0:
                        row_addmul(i, t, -(s[i][t] // s[t][t]))
                    else:
                        g, p, q = xgcd(s[t][t], s[i][t])
                        row_combine(t, i, p, q, -(s[i][t] // g), s[t][t] // g)
                        dirty = True
            for j in range(t + 1, nc):
                if s[t][j] != 0:
                    if s[t][j] % s[t][t] == 0:
                        col_addmul(j, t, -(s[t][j] // s[t][t]))
                    else:
                        g, p, q = xgcd(s[t][t], s[t][j])
                        col_combine(t, j, p, q, -(s[t][j] // g), s[t][t] // g)
                        dirty = True
            if not dirty:
                # make the pivot divide the rest of the submatrix
                stuck = None
                for i in range(t + 1, nr):
                    for j in range(t + 1, nc):
                        if s[i][j] % s[t][t] != 0:
                            stuck = i
                            break
                    if stuck is not None:
                        break
                if stuck is None:
                    break
                row_combine(t, stuck, 1, 1, 0, 1)
        t += 1

    for i in range(min(nr, nc)):
        if s[i][i] < 0:
            row_negate(i)

    res = SNFResult(s=IntMatrix.from_rows(s), u=IntMatrix.from_rows(u),
                    v=IntMatrix.from_rows(v))
    if mat_mul(mat_mul(res.u, a), res.v).data != res.s.data:
        raise InternalInconsistency("u * a * v does not recompose to s")
    return res


def centralizer(g: FiniteGroup, s) -> tuple[int, ...]:
    s = sorted(set(s))
    for x in s:
        if not 0 <= x < g.order:
            raise ValueError(f"element {x} out of range")
    return tuple(c for c in range(g.order)
                 if all(g.table[c][x] == g.table[x][c] for x in s))


def pair_closure(g: FiniteGroup, gens) -> frozenset:
    """The earlier groups.subgroup_closure: the smallest set holding 0
    and gens that is closed under the product in both orders, O(|H|^2)
    products.  On a loop it can reach more than the walk's closure under
    right multiplication, which is why greedy_by_pair_closure needs it."""
    members = {0}
    frontier = [0]
    pending = [x for x in gens if x not in members]
    for x in pending:
        members.add(x)
        frontier.append(x)
    while frontier:
        x = frontier.pop()
        for y in tuple(members):
            for z in (g.table[x][y], g.table[y][x]):
                if z not in members:
                    members.add(z)
                    frontier.append(z)
    return frozenset(members)


def normal_subgroups_by_class_unions(g: FiniteGroup) -> list[tuple[int, ...]]:
    """The earlier groups.normal_subgroups: every union of conjugacy
    classes that is closed under the product, 2^(c - 1) unions of the c
    classes, sorted by size and then members."""
    classes = conjugacy_classes(g)
    nontrivial = classes[1:]
    out = []
    for r in range(len(nontrivial) + 1):
        for pick in itertools.combinations(nontrivial, r):
            members = {0}
            for cls in pick:
                members.update(cls)
            closed = True
            for a in members:
                for b in members:
                    if g.table[a][b] not in members:
                        closed = False
                        break
                if not closed:
                    break
            if closed:
                out.append(tuple(sorted(members)))
    out.sort(key=lambda s: (len(s), s))
    return out


def conjugacy_classes_by_sort(g: FiniteGroup) -> list[tuple[int, ...]]:
    """The earlier groups.conjugacy_classes: each class from its least
    unseen member, then sorted by least member."""
    seen = [False] * g.order
    classes = []
    for a in range(g.order):
        if seen[a]:
            continue
        orbit = {g.conj(x, a) for x in range(g.order)}
        for y in orbit:
            seen[y] = True
        classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda c: c[0])
    return classes


def is_purely_nonabelian_by_commutation(g: FiniteGroup) -> bool:
    """The earlier groups.is_purely_nonabelian: pairs of normal subgroups
    scanned for trivial intersection, full product and elementwise
    commutation."""
    if g.is_abelian:
        return False
    subs = normal_subgroups(g)
    for a in subs:
        if len(a) in (1, g.order) or not all(
                g.table[x][y] == g.table[y][x] for x in a for y in a):
            continue
        for b in subs:
            if len(a) * len(b) == g.order and set(a) & set(b) == {0} and all(
                    g.table[x][y] == g.table[y][x] for x in a for y in b):
                return False
    return True


def coboundary_from_checked(delta: GroupMap) -> Cocycle2:
    """The earlier cocycles.coboundary_from, which also checked that
    delta sends the identity to the identity."""
    if not delta.cod.is_abelian:
        raise NotAbelian("coboundaries are built over abelian coefficients")
    if delta.images[0] != 0:
        raise NotNormalized("delta must send the identity to the identity")
    return Cocycle2(g1=delta.cod, g2=delta.dom,
                    table=_coboundary_table(delta))


def abelian_invariants_by_search(g: FiniteGroup) -> AbelianPresentation:
    """The earlier intlinalg.abelian_invariants: exponent vectors from a
    search of its own over the generators, then one relation per element
    and generator, before the same Smith form and coordinates."""
    if not g.is_abelian:
        raise NotAbelian("invariant factors require an abelian group")
    gens = g.generators
    k = len(gens)
    # exponent vector for each element, found by breadth-first products
    vecs = {0: tuple([0] * k)}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        vx = vecs[x]
        for j, gen in enumerate(gens):
            y = g.table[x][gen]
            if y not in vecs:
                vy = list(vx)
                vy[j] += 1
                vecs[y] = tuple(vy)
                frontier.append(y)

    rel = IntLattice(k, g.order)
    for x, vx in vecs.items():
        for j, gen in enumerate(gens):
            y = g.table[x][gen]
            vy = vecs[y]
            diff = [a + (1 if i == j else 0) - b
                    for i, (a, b) in enumerate(zip(vx, vy))]
            rel.add(diff)
    if rel.index_in_ambient() != g.order:
        raise AssertionError("relation lattice index differs from |g|")

    snf = smith_normal_form(IntMatrix.from_rows(rel.hnf_rows()))
    vt = snf.v.transpose().data
    cols = [(vt[i], d) for i, d in enumerate(snf.s.diagonal) if d > 1]
    factors = tuple(d for _, d in cols)
    coords = tuple(
        tuple(sum(a * b for a, b in zip(vecs[x], col)) % d for col, d in cols)
        for x in range(g.order))

    if len(set(coords)) != g.order or any(
            coords[g.table[x][gen]] != tuple(
                (a + b) % d for a, b, d in zip(cx, coords[gen], factors))
            for gen in gens for x, cx in enumerate(coords)):
        raise AssertionError("coordinate map is not an isomorphism")
    return AbelianPresentation(group=g, invariant_factors=factors,
                               coords=coords)


def preserves_kernel_setwise(source: ExtensionGroup, target: ExtensionGroup,
                             phi: GroupMap) -> bool:
    """Whether phi maps the kernel copy onto the kernel copy, by sets."""
    want = set(range(0, target.group.order, target.g2.order))
    return {phi(i) for i in range(0, source.group.order,
                                  source.g2.order)} == want


def preserves_section_setwise(source: ExtensionGroup, target: ExtensionGroup,
                              phi: GroupMap) -> bool:
    """Whether phi maps the section copy onto the section copy, by sets."""
    want = set(range(target.g2.order))
    return {phi(i) for i in range(source.g2.order)} == want


def trivial_components_by_layout(source: ExtensionGroup,
                                 target: ExtensionGroup, images) -> frozenset:
    """The earlier extensions.trivial_components, read off the carrier
    layout: phi11 (phi12) is trivial when every image of the kernel copy
    (section) is some (1, y), an index below |target.g2|, and phi21
    (phi22) when every one is some (x, 1), a multiple of |target.g2|,
    since phi(x, 1) = (phi11(x), phi21(x)) and phi(1, y) = (phi12(y),
    phi22(y))."""
    n2s, n2t = source.g2.order, target.g2.order
    kernel, section = images[::n2s], images[:n2s]
    pairs_x1 = frozenset(range(0, target.group.order, n2t))
    trivial = set()
    if max(kernel) < n2t:
        trivial.add("phi11")
    if max(section) < n2t:
        trivial.add("phi12")
    if pairs_x1.issuperset(kernel):
        trivial.add("phi21")
    if pairs_x1.issuperset(section):
        trivial.add("phi22")
    return frozenset(trivial)


def trivial_components_by_arrays(source: ExtensionGroup,
                                 target: ExtensionGroup, images) -> frozenset:
    """The earlier extensions.trivial_components: the components whose
    image arrays from _component_images are all zero."""
    return frozenset(c for c, im in _component_images(
        source, target, images).items() if not any(im))


def build_extension_by_validation(e: Cocycle2) -> ExtensionGroup:
    """The earlier carrier path of build_extension: the table entry by
    entry from the pair formula, then validate_group on it, then the
    centrality of the kernel copy checked element by element."""
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
    group = validate_group(table)
    ext = ExtensionGroup(g1=g1, g2=g2, cocycle=e, group=group)
    for x in range(n1):
        k = x * n2
        for j in range(n):
            if group.table[k][j] != group.table[j][k]:
                raise ConditionsFailed(
                    "embedded coefficient copy failed to be central")
    return ext


def central_quotient_data_by_tables(group: FiniteGroup, members):
    """The earlier extensions.central_quotient_data: closure checked by
    subgroup_closure, the kernel table read through z_index and not
    validated, and validate_group over the hand-built coset table.

    Read extension data back out of a concrete group: given a central
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


def greedy_sequence(g: FiniteGroup) -> tuple[int, ...]:
    """The greedy generating sequence the map search reads: the elements
    adjoined by the layers of g._closure_layers.  FiniteGroup.generators
    is a generating pair instead wherever one starts at 1."""
    return tuple(x for x, _, _ in g._closure_layers)


def greedy_by_pair_closure(g: FiniteGroup) -> tuple[int, ...]:
    """The earlier FiniteGroup.generators: adjoin the least element
    outside the closure of the sequence so far, each closure taken
    afresh under the product in both orders."""
    gens, generated = [], {0}
    for x in range(g.order):
        if x not in generated:
            gens.append(x)
            generated = pair_closure(g, gens)
    return tuple(gens)


class CayleyClosureSearch:
    """The earlier groups._MapSearch, which walked the Cayley graph
    afresh at every node instead of replaying the closure steps recorded
    once per domain.

    Images of a greedy generating sequence are chosen in ascending order.
    The images live on the subgroup H generated by the generators
    assigned so far.  A choice f(g) = v sets or checks f(x*s) = f(x)*f(s)
    along the Cayley graph: for x in H and s = g, and for each newly
    reached x and every assigned s (with injectivity on each new image,
    for isomorphism searches); the old edges were checked at earlier
    layers.  By induction on word length, f(x*w) = f(x)*f(w) then holds
    on the new subgroup, so a choice is accepted exactly when the
    partial map extends to a homomorphism (injective, if asked) of it,
    which is when closing the images under every pair of known elements
    finds no conflict.  So the maps emitted, their order and the pruning
    are those of that pair closure, and every map emitted is a verified
    homomorphism.  They come out in lex order of image arrays: two maps
    first differ in the image of some generator g, taken from ascending
    candidates; before it they agree on the subgroup the earlier
    generators generate, which holds every element below g, as the
    greedy sequence adjoins the least element outside it.
    """

    def __init__(self, dom, cod, injective, limits):
        self.dom = dom
        self.cod = cod
        self.injective = injective
        self.limits = limits
        self.gens = greedy_sequence(dom)
        self.assigned = []
        self.nodes = 0

    def _candidates(self, gen):
        d = self.dom.element_orders[gen]
        for k in range(self.cod.order):
            o = self.cod.element_orders[k]
            if self.injective:
                if o == d:
                    yield k
            elif d % o == 0:
                yield k

    def run(self):
        images = [-1] * self.dom.order
        images[0] = 0
        known = [0]
        used = [False] * self.cod.order
        used[0] = True
        yield from self._assign(0, images, known, used)

    def _assign(self, layer, images, known, used):
        if layer == len(self.gens):
            yield GroupMap(dom=self.dom, cod=self.cod, images=tuple(images))
            return
        gen = self.gens[layer]
        if images[gen] != -1:
            # already forced by closure of earlier generators
            yield from self._assign(layer + 1, images, known, used)
            return
        self.assigned.append(gen)
        for k in self._candidates(gen):
            if self.injective and used[k]:
                continue
            trail = []
            if self._define(gen, k, images, known, used, trail):
                yield from self._assign(layer + 1, images, known, used)
            self._undo(images, known, used, trail)
        self.assigned.pop()

    def _define(self, x, v, images, known, used, trail):
        """Whether the choice f(x) = v closes without conflict; the node
        budget is checked once, after the images the choice forces,
        whether it passed or failed."""
        passed = self._close(x, v, images, known, used, trail)
        if self.nodes > self.limits.max_search_nodes:
            raise SizeLimitExceeded(
                "map search exceeded node budget",
                limit=self.limits.max_search_nodes, needed=self.nodes)
        return passed

    def _close(self, x, v, images, known, used, trail):
        self.nodes += 1
        images[x] = v
        old = len(known)
        known.append(x)
        trail.append(x)
        if self.injective:
            used[v] = True
        dt, ct = self.dom.table, self.cod.table
        gens, only_x = self.assigned, (x,)
        # known[:old] is H; known grows by the elements newly reached
        i = 0
        while i < len(known):
            a = known[i]
            row, fa = dt[a], ct[images[a]]
            for s in (gens if i >= old else only_x):
                r = row[s]
                w = fa[images[s]]
                if images[r] == -1:
                    if self.injective and used[w]:
                        return False
                    self.nodes += 1
                    images[r] = w
                    known.append(r)
                    trail.append(r)
                    if self.injective:
                        used[w] = True
                elif images[r] != w:
                    return False
            i += 1
        return True

    def _undo(self, images, known, used, trail):
        for x in reversed(trail):
            if self.injective:
                used[images[x]] = False
            images[x] = -1
            known.pop()


def derived_subgroup(g: FiniteGroup) -> tuple[int, ...]:
    n = g.order
    comms = set()
    for a in range(n):
        for b in range(n):
            ab = g.table[a][b]
            ba = g.table[b][a]
            comms.add(g.table[ab][g.inverses[ba]])
    return tuple(sorted(pair_closure(g, comms)))


def cocycle_compose_checks(sigma: GroupMap, delta: GroupMap, e: Cocycle2):
    """Build sigma.e, delta.e and e.(delta x delta), verifying the
    composition hypotheses and that each output is again a cocycle.

    sigma must be an epsilon-endomorphism of g1 for e; delta a
    homomorphism g1 -> g2.  Returns the three cocycles in that order.
    """
    g1, g2 = e.g1, e.g2
    if sigma.dom != g1 or sigma.cod != g1:
        raise PreconditionViolated("sigma must be a self-map of g1")
    if not is_epsilon_endomorphism(sigma, e):
        raise PreconditionViolated("sigma is not an epsilon-endomorphism")
    if delta.dom != g1 or delta.cod != g2:
        raise PreconditionViolated("delta must map g1 into g2")
    if not delta.is_homomorphism():
        raise PreconditionViolated("delta is not a homomorphism")

    sigma_e = pushforward(sigma, e)
    delta_e = pushforward(delta, e)
    e_dd = pullback(e, delta)
    for out, label in ((sigma_e, "sigma.e"), (delta_e, "delta.e"),
                       (e_dd, "e.(delta x delta)")):
        ok, witness = is_cocycle(out.g1, out.g2, out.table)
        if not ok:
            raise ConditionsFailed(
                f"{label} failed the cocycle identity at {witness}")
    return sigma_e, delta_e, e_dd


def dense_echelon(rows, ncols, m):
    """The earlier IntLattice.add on dense rows, fed in order: whether
    each row grew the lattice, and the pivot rows {column: dense row}."""
    pivot_rows, grew = {}, []
    for vec in rows:
        v = [x % m for x in vec]
        grew.append(False)
        # either step clears v[p] and changes v only from p on
        for p in range(ncols):
            if not v[p]:
                continue
            r = pivot_rows.get(p, [m * (j == p) for j in range(ncols)])
            a, b = r[p], v[p]
            if b % a == 0:
                q = b // a
                v[p:] = [(x - q * y) % m for x, y in zip(v[p:], r[p:])]
                continue
            g, s, t = xgcd(a, b)
            pivot_rows[p] = r[:p] + [(s * x + t * y) % m
                                     for x, y in zip(r[p:], v[p:])]
            v[p:] = [((a // g) * y - (b // g) * x) % m
                     for x, y in zip(r[p:], v[p:])]
            grew[-1] = True
    return grew, pivot_rows


def transposed_kernel(equations, ncols, d):
    """The earlier read of Hopf's kernel (now IntLattice.kernel), a
    second elimination for R's kernel K mod d: the indexes S of the
    sparse rows R, {unknown: coefficient} dicts, that grew R's row
    lattice, added in order, and the echelon form of the rows [R_S e_w |
    e_w], one per column w.  R_S spans R's row lattice, so it has R's
    kernel, which is the form's tail(len(S)), a Howell basis of K."""
    rows = IntLattice(ncols, d)
    kept = tuple(i for i, eq in enumerate(equations) if rows.add(eq))
    transposed = [{len(kept) + w: 1} for w in range(ncols)]
    for j, i in enumerate(kept):
        for u, c in equations[i].items():
            transposed[u][j] = c
    return kept, IntLattice(len(kept) + ncols, d, transposed)


def dense_row_space(rows, ncols, d):
    """transposed_kernel on dense rows: the indexes S of the rows that
    grew the row lattice, and the pivot rows of the echelon form of the
    rows [R_S e_w | e_w]."""
    rows = list(rows)
    grew, _ = dense_echelon(rows, ncols, d)
    kept = [row for row, g in zip(rows, grew) if g]
    _, columns = dense_echelon(
        ([row[w] for row in kept] + [int(j == w) for j in range(ncols)]
         for w in range(ncols)), len(kept) + ncols, d)
    return tuple(i for i, g in enumerate(grew) if g), columns


def least_in_coset(lattices, vecs, element_of):
    """The earlier cocycles._least_in_coset: element indices, slot by
    slot, of the lex-least member of the coset of vecs mod the lattices,
    one coordinate vector and one IntLattice per invariant factor.  In a
    Howell basis the members that agree before slot i differ there by
    the multiples of the pivot, the freedom left lying in the rows below;
    so each pivot slot, in order, takes its least admissible element
    index, fixed by adding that multiple of row i, and the other slots
    are forced.  A row at slot i changes only slots from i on, so each
    slot is read once at the end."""
    vecs = [list(v) for v in vecs]
    for i in sorted(set().union(*(lat.pivot_rows for lat in lattices))):
        best = min(itertools.product(*(
            range(v[i] % lat.pivot(i), lat.modulus, lat.pivot(i))
            for lat, v in zip(lattices, vecs))), key=element_of)
        for lat, v, x in zip(lattices, vecs, best):
            if x != v[i]:
                q = (x - v[i]) // lat.pivot(i)
                for j, r in lat.pivot_rows[i].items():
                    v[j] = (v[j] + q * r) % lat.modulus
    return [element_of(c) for c in zip(*vecs)]


def least_in_coset_by_slot(lattices, vecs, element_of, nslots):
    """The pass before least_in_coset, which visits every slot: the
    least admissible element index at each, fixed by adding a multiple
    of the pivot row there, if any."""
    vecs = [list(v) for v in vecs]
    values = []
    for i in range(nslots):
        if not any(i in lat.pivot_rows for lat in lattices):
            values.append(element_of([v[i] for v in vecs]))
            continue
        best = min(itertools.product(*(
            range(v[i] % lat.pivot(i), lat.modulus, lat.pivot(i))
            for lat, v in zip(lattices, vecs))), key=element_of)
        for lat, v, x in zip(lattices, vecs, best):
            if x != v[i]:
                q = (x - v[i]) // lat.pivot(i)
                row = lat.dense_row(i)
                v[i:] = [(a + q * r) % lat.modulus
                         for a, r in zip(v[i:], row[i:])]
        values.append(element_of(best))
    return values


def unit_coboundary(g2: FiniteGroup, w: int, lasts):
    """The earlier cocycles._unit_coboundary:
    psi_w(h, g) = [g = w] - [hg = w] + [h = w], the coboundary of the map
    sending w to 1 and the rest to 0, as a sparse row {slot index:
    value}: the three sets meet only at (w, w), where psi_w is 2 (hg = w
    forces h, g != w).  The slots (h, g), h != 1 and g = lasts[j], sit at
    (h - 1) len(lasts) + j: the pair slots for lasts = range(1, n), the
    generator columns for g2.generators."""
    m, n2 = len(lasts), g2.order
    row = dict.fromkeys(range((w - 1) * m, w * m), 1)
    for j, g in enumerate(lasts):
        if g == w:
            row.update(dict.fromkeys(range(j, (n2 - 1) * m, m), 1))
            row[(w - 1) * m + j] = 2
        else:
            row[(g2.table[w][g2.inverses[g]] - 1) * m + j] = -1
    return row


@lru_cache(maxsize=None)
def coboundary_lattice(g2: FiniteGroup, d: int) -> IntLattice:
    """The earlier cocycles._coboundary_lattice, the coboundaries mod d in
    generator columns: the echelon form of one row [psi_w | e_w] per
    unit map w != 1, with the head psi_w at the generator columns and
    the tail e_w over the nonidentity points.  Its vectors are [psi_c |
    c] up to multiples of d, so its rows with their pivot in the columns
    span B^2 in columns, and by Howell's property its tail spans the c
    with psi_c zero on the columns, hence everywhere: Hom(g2, Z/d)."""
    n2, k, gens = g2.order, len(_generator_columns(g2)), g2.generators
    return IntLattice(k + n2 - 1, d, ({**unit_coboundary(g2, w, gens),
                                      k + w - 1: 1} for w in range(1, n2)))


@lru_cache(maxsize=None)
def hom_pivots_by_b2(g2: FiniteGroup, d: int):
    """The earlier cocycles._hom_pivots: the pivots {x - 1: (g, tau)} of
    Hom(g2, Z/d), the tail of coboundary_lattice(g2, d) in Howell form:
    tau is the homomorphism of the pivot row at point x, as a list over
    g2, zero before x and g at x."""
    hom = coboundary_lattice(g2, d).tail(len(_generator_columns(g2)))
    return {i: (hom.pivot(i), [0, *hom.dense_row(i)]) for i in hom.pivot_rows}


def witness_by_b2(g1: FiniteGroup, g2: FiniteGroup, v1, v2, tables=None):
    """The earlier cocycles._witness, on the coboundary lattice: per factor
    d, [b | 0], b = v2 - v1 at the generator columns, reduced against
    coboundary_lattice(g2, d) leaves [b - psi_c | -c], and x0 = -tail
    has psi_x0 = b at the columns when the head vanishes.  The lex-least
    member of x0 + Hom (hom_pivots_by_b2), checked as psi_t * e1 = e2 on
    the tables when given, else at the columns; None when x0 fails."""
    if tables is None and v1 == v2:
        return CoboundaryWitness(t=trivial_map(g2, g1))
    n2, mul, inv, mul2 = g2.order, g1.table, g1.inverses, g2.table
    pres, columns = abelian_invariants(g1), _generator_columns(g2)
    walk = _walk(pres, n2, [(x, 0, 0) for x in range(1, n2)],
                 [hom_pivots_by_b2(g2, d) for d in pres.invariant_factors])
    b = [pres.coords[mul[y][inv[x]]] for x, y in zip(v1, v2)]
    solutions = [[-y % d for y in coboundary_lattice(g2, d).reduce(
        [c[ci] for c in b] + [0] * (n2 - 1))[len(columns):]]
        for ci, d in enumerate(pres.invariant_factors)]

    def fails(im):
        if tables is None:
            return any(mul[mul[mul[im[s]][inv[im[mul2[x][s]]]]][im[x]]][a] != c
                       for (x, s), a, c in zip(columns, v1, v2))
        return any(mul[mul[mul[im[g]][inv[im[hg]]]][th]][a] != c
                   for row, r1, r2, th in zip(mul2, *tables, im)
                   for g, hg, a, c in zip(range(n2), row, r1, r2))
    im = (0, *_element_values(walk, _least_values(walk, solutions)))
    if fails(im):
        if fails((0, *map(pres.element_of, zip(*solutions)))):
            return None
        raise ConditionsFailed("the solved map is not a coboundary witness")
    return CoboundaryWitness(t=GroupMap(dom=g2, cod=g1, images=im))


def coboundary_pivots_by_rows(g2: FiniteGroup, d: int):
    """The earlier cocycles._coboundary_pivots: the same pivots of B^2 mod
    d, sought in every row h of the pair slots up to the last pivot
    instead of only in the rows of g2's greedy sequence."""
    n2, mul, target = g2.order, g2.table, _solve_coordinate(g2, d).b_order
    kernel = [[int(v == w) for v in range(n2)] for w in range(1, n2)]
    pivots, index = {}, 1
    for i, (h, g) in enumerate(itertools.product(range(1, n2), repeat=2)):
        if index == target:
            break
        values = [(t[h] + t[g] - t[mul[h][g]]) % d for t in kernel]
        tau, gi = [0] * n2, d
        for t, a in zip(kernel, values):
            if a % gi:
                gi, x, y = xgcd(gi, a)
                tau = [(x * u + y * v) % d for u, v in zip(tau, t)]
        if gi < d:
            pivots[i], index = (gi, tau), index * (d // gi)
            fresh = [[(u - a // gi * v) % d for u, v in zip(t, tau)]
                     for t, a in zip(kernel, values) if a]
            kernel = [t for t, a in zip(kernel, values) if not a] + [
                t for t in fresh + [[d // gi * v % d for v in tau]] if any(t)]
    if index != target:
        raise InternalInconsistency("the pivots fall short of |B^2|")
    return pivots


def hopf_equations_by_counter(g2: FiniteGroup):
    """The equations of cocycles._hopf_system, each row summed as two
    Counters, the second subtracted, as the earlier _hopf_system did."""
    tree, columns, _ = _hopf_system(g2)
    gens, mul, k = g2.generators, g2.table, len(g2.generators)
    chords = [(c // k + 1, c % k) for c in columns]
    r = {edge: (u,) for u, edge in enumerate(chords)}
    rows = []
    for x in gens:
        rewrite = [()] * g2.order
        for y, i, ys in tree:
            rewrite[ys] = rewrite[y] + r.get((mul[x][y], i), ())
        for y, i in chords:
            row = Counter(rewrite[y] + r.get((mul[x][y], i), ()))
            row.subtract(rewrite[mul[y][gens[i]]] + r[y, i])
            if row := {u: c for u, c in row.items() if c}:
                rows.append(row)
    return rows


def pair_slot_b2(g2: FiniteGroup, d: int) -> IntLattice:
    """B^2 mod d over the nonidentity pair slots (h, g), row-major: the
    lattice of the unit coboundaries, as the earlier
    cocycles.compute_cocycle_space built it for every call."""
    n2 = g2.order
    return IntLattice((n2 - 1) ** 2, d, (unit_coboundary(g2, w, range(1, n2))
                                         for w in range(1, n2)))


def pair_slot_representatives(g1: FiniteGroup, g2: FiniteGroup):
    """The earlier class representatives, sorted: per class, one member
    per invariant factor of g1 from unreduced_box_points, moved to
    the lex-least table of its coset of B^2 over the pair slots by the
    slot-by-slot pass."""
    pres = abelian_invariants(g1)
    factors = pres.invariant_factors
    b2 = [pair_slot_b2(g2, d) for d in factors]
    nslots = (g2.order - 1) ** 2
    return sorted(
        table_from_values(g2.order, least_in_coset_by_slot(
            b2, vecs, pres.element_of, nslots))
        for vecs in itertools.product(*(unreduced_box_points(g2, d)
                                        for d in factors)))


def unreduced_box_points(g2: FiniteGroup, d: int):
    """One member of each H^2 class of _solve_coordinate(g2, d) over the
    pair slots, as lists, sum c_i res_i over the coordinate's own
    residues, the last fastest."""
    return list(box_points_by_lists(d, _solve_coordinate(g2, d).box,
                                    (g2.order - 1) ** 2))


def expand_by_lists(g2: FiniteGroup, d: int, vecs):
    """The earlier cocycles._expand: per vector of values mod d at the
    generator columns, the tuple of values mod d at the pair slots,
    row-major, of the cocycle it fixes, each column written down the
    tree of _hopf_system as a list over g2 and the columns transposed."""
    n2, k = g2.order, len(g2.generators)
    by_column = list(zip(*g2.table))
    for vec in vecs:
        gen_columns = [[0, *vec[i::k]] for i in range(k)]
        cols = [[0] * n2] * n2   # column 1; the tree replaces the rest
        for y, i, ys in _hopf_system(g2)[0]:
            e_s = gen_columns[i]
            cols[ys] = [(a + e_s[xy] - e_s[y]) % d
                        for a, xy in zip(cols[y], by_column[y])]
        yield tuple(itertools.chain(*zip(*cols[1:])))[n2 - 1:]


def table_from_values(n2, values):
    """The earlier cocycles._table_from_values: the normalized n2 x n2
    table with values at the pair slots."""
    it = iter(values)
    return ((0,) * n2,) + tuple((0, *itertools.islice(it, n2 - 1))
                                for _ in range(1, n2))


def box_by_lists(g2: FiniteGroup, d: int):
    """The earlier box of cocycles._solve_coordinate, in lists: each
    relation's pivot with its residue, K's generators (IntLattice.kernel)
    reduced mod U and placed at the chord columns, written out by
    expand_by_lists."""
    ncols = len(_generator_columns(g2))
    _, chords, equations = _hopf_system(g2)
    m, free = len(chords), _free_homs(g2, d)[2]
    kernel = IntLattice(m, d, equations).kernel()
    zeros = [0] * (free.ncols - m)
    residues = [res for z in kernel if any(
        res := free.reduce(z + zeros)[:m])]
    k = len(residues)
    rel = IntLattice(m + k, d, ({j: x for j, x in r.items() if j < m}
                                for r in free.pivot_rows.values()))
    for i, res in enumerate(residues):
        rel.add(res + [int(j == i) for j in range(k)])
    placed = []
    for res in residues:
        vec = [0] * ncols
        for c, x in zip(chords, res):
            vec[c] = x
        placed.append(vec)
    return tuple(zip(map(rel.tail(m).pivot, range(k)),
                     expand_by_lists(g2, d, placed)))


def box_points_by_lists(d: int, box, nslots: int):
    """The earlier cocycles._box_points: the box points sum c_i res_i, 0
    <= c_i < pivot_i, the last fastest, each a list over the pair
    slots."""
    def points(vec, i):
        if i == len(box):
            yield vec
            return
        pivot, res = box[i]
        for c in range(pivot):
            yield from points([(x + c * y) % d for x, y in zip(vec, res)]
                              if c else vec, i + 1)
    return points([0] * nslots, 0)


def representatives_by_lists(g1: FiniteGroup, g2: FiniteGroup):
    """The tables of the earlier cocycles.compute_cocycle_space, in its
    order, from list-valued vectors over the pair slots: the boxes of
    box_by_lists, the residues walked once each where every B^2 pivot is
    1 at slots shared by the factors (coboundary_pivots_by_rows), else
    each box point walked, then _element_values and table_from_values."""
    pres = abelian_invariants(g1)
    factors = pres.invariant_factors
    n2 = g2.order
    boxes = [box_by_lists(g2, d) for d in factors]
    if math.prod(p for box in boxes for p, _ in box) == 1:
        return [trivial_cocycle(g1, g2).table]
    slots = [(h, g, hg) for h in range(1, n2)
             for g, hg in enumerate(g2.table[h]) if g]
    pivots = [coboundary_pivots_by_rows(g2, d) for d in factors]
    walk = _walk(pres, n2, slots, pivots)
    linear = all(p.keys() == pivots[0].keys() and all(
        gi == 1 for gi, _ in p.values()) for p in pivots)
    if linear:
        zero = [0] * len(slots)
        boxes = [[(p, _least_values(walk, [
            res if j == f else zero for j in range(len(factors))])[f])
            for p, res in box] for f, box in enumerate(boxes)]
    return sorted(
        table_from_values(n2, _element_values(
            walk, vecs if linear else _least_values(walk, vecs)))
        for vecs in itertools.product(*(
            box_points_by_lists(d, box, len(slots))
            for d, box in zip(factors, boxes))))


def representatives_by_walks(g1: FiniteGroup, g2: FiniteGroup):
    """The earlier class representatives of cocycles.compute_cocycle_space,
    sorted: one _least_values walk over the pivots of B^2 per class, from
    its unreduced box point, with every slot's triple held in a list."""
    pres = abelian_invariants(g1)
    factors = pres.invariant_factors
    n2 = g2.order
    slots = [(h, g, hg) for h in range(1, n2)
             for g, hg in enumerate(g2.table[h]) if g]
    walk = _walk(pres, n2, slots, [_coboundary_pivots(g2, d)
                                   for d in factors])
    return sorted(table_from_values(n2, _element_values(
                      walk, _least_values(walk, vecs)))
                  for vecs in itertools.product(*(
                      unreduced_box_points(g2, d) for d in factors)))


def group_map_error(dom: FiniteGroup, cod: FiniteGroup, images):
    """The earlier GroupMap.__post_init__ checks, loops only: the
    (exception type, message) the first offender raises, or None."""
    if len(images) != dom.order:
        return DimensionMismatch, (f"image array has length {len(images)}, "
                                   f"domain has order {dom.order}")
    for v in images:
        if not 0 <= v < cod.order:
            return ValueError, f"image {v} out of range"
    if images[0] != 0:
        return NotNormalized, "map must send 0 to 0"
    return None


def components_by_calls(source: ExtensionGroup, target: ExtensionGroup,
                        phi: GroupMap) -> dict:
    """The earlier decompose_hom's read, one phi(...) call and one divmod
    per point: the image arrays of phi11, phi12, phi21 and phi22."""
    n2t = target.g2.order
    n2s = source.g2.order
    k_images = [divmod(phi(x * n2s), n2t) for x in range(source.g1.order)]
    s_images = [divmod(phi(y), n2t) for y in range(source.g2.order)]
    return {"phi11": tuple(a for a, _ in k_images),
            "phi12": tuple(a for a, _ in s_images),
            "phi21": tuple(b for _, b in k_images),
            "phi22": tuple(b for _, b in s_images)}


def direct_failure_by_calls(source: ExtensionGroup, target: ExtensionGroup,
                            phi: GroupMap, kernel_factors, section_factors):
    """The earlier extensions._direct_failure, one phi(...) call per
    product: the first (family, (x, y, factor)) where phi(a t) = phi(a)
    phi(t) fails, t = (factor, 1) or (1, factor), or None."""
    g1, g2 = source.g1, source.g2
    e1 = source.cocycle.table
    n2 = g2.order
    mul_t = target.group.table
    for x in range(g1.order):
        for y in range(n2):
            left = phi(x * n2 + y)
            for xp in kernel_factors:
                got = mul_t[left][phi(xp * n2)]
                if got != phi(g1.table[x][xp] * n2 + y):
                    return "kernel_factor", (x, y, xp)
            for yp in section_factors:
                got = mul_t[left][phi(yp)]
                want = phi(g1.table[x][e1[y][yp]] * n2 + g2.table[y][yp])
                if got != want:
                    return "section_factor", (x, y, yp)
    return None


def cocycle2_error(g1: FiniteGroup, g2: FiniteGroup, table):
    """The earlier Cocycle2.__post_init__ checks, loops only: the
    (exception type, message) the first offender raises, or None."""
    n2 = g2.order
    if len(table) != n2 or any(len(r) != n2 for r in table):
        return DimensionMismatch, "cocycle table must be g2.order square"
    for row in table:
        for v in row:
            if not 0 <= v < g1.order:
                return ValueError, f"cocycle value {v} outside g1"
    for y in range(n2):
        if table[y][0] != 0 or table[0][y] != 0:
            return NotNormalized, f"cocycle not normalized at ({y},0)/(0,{y})"
    return None


@lru_cache(maxsize=None)
def cocycle_columns(g2: FiniteGroup):
    """The earlier cocycles._cocycle_columns: the cocycle identity over
    g2 in generator columns.  A normalized cocycle is fixed by its k(n-1)
    values u(x, s_i) = e(x, s_i), x != 1 and s_i in g2.generators, at
    index (x - 1) k + i.  Returns the linear form {unknown: coefficient}
    of each nonidentity pair slot (h, g), in row-major order, the number
    of unknowns, and the equations among them as sparse rows.

    A breadth-first tree of the right Cayley graph reaches each y != 1
    by edges y -> ys.  Along a tree edge (y, s) the identity at
    (x, y, s), e(x, ys) = e(x, y) + e(xy, s) - e(y, s), writes column ys
    through column y and the generator column s; column 1 is zero, and
    so is every form at x = 1.  Each other edge (y, s) gives that
    identity as one equation per x != 1.  So the solutions are exactly
    the normalized tables that satisfy the identity for every last
    argument in g2.generators: by Light's argument (cocycles._expand),
    all the cocycles.
    """
    n2, gens, mul = g2.order, g2.generators, g2.table
    k = len(gens)
    cols = [None] * n2
    cols[0] = [{}] * n2
    for i, s in enumerate(gens):
        cols[s] = [{}] + [{(x - 1) * k + i: 1} for x in range(1, n2)]
    rows = []
    queue = list(gens)
    for y in queue:
        col_y = cols[y]
        for s in gens:
            col_s = cols[s]
            form = [combine((1, col_y[x]), (1, col_s[mul[x][y]]),
                            (-1, col_s[y])) for x in range(n2)]
            ys = mul[y][s]
            if cols[ys] is None:
                cols[ys] = form
                queue.append(ys)
                continue
            for x in range(1, n2):
                row = combine((1, form[x]), (-1, cols[ys][x]))
                if row:
                    rows.append(row)
    forms = [cols[g][h] for h in range(1, n2) for g in range(1, n2)]
    return forms, k * (n2 - 1), rows


def combine(*terms):
    """The sparse linear form sum(sign * form) over (sign, form) terms."""
    out = {}
    for sign, form in terms:
        for u, v in form.items():
            out[u] = out.get(u, 0) + sign * v
    return {u: v for u, v in out.items() if v}


def expand_forms(forms, vec, d):
    """The earlier cocycles._expand: the values mod d at the pair slots
    of the cocycle with the values vec at the generator columns, through
    the forms of cocycle_columns."""
    return tuple(sum(c * vec[u] for u, c in form.items()) % d
                 for form in forms)


def are_cohomologous_by_reduction(e1: Cocycle2, e2: Cocycle2):
    """The earlier are_cohomologous, with no class-key exit: per factor,
    e2 - e1 reduced against the whole coboundary lattice, None when the
    head is left nonzero or x0 fails a pair, else the lex-least witness,
    checked on the raw tables."""
    _same_groups(e1, e2)
    g1, g2 = e1.g1, e1.g2
    if not g1.is_abelian:
        raise NotAbelian("cohomologous test needs abelian coefficients")
    n2 = g2.order
    if n2 == 1 or g1.order == 1:
        if e1.table == e2.table:
            return CoboundaryWitness(t=GroupMap(dom=g2, cod=g1,
                                                images=(0,) * n2))
        return None
    mul, inv = g1.table, g1.inverses
    pres = abelian_invariants(g1)
    coords = pres.coords
    diff = [[coords[mul[v2][inv[v1]]] for v1, v2 in zip(r1, r2)]
            for r1, r2 in zip(e1.table, e2.table)]
    columns = _generator_columns(g2)
    solutions = []
    for ci, d in enumerate(pres.invariant_factors):
        red = coboundary_lattice(g2, d).reduce(
            [diff[x][s][ci] for x, s in columns] + [0] * (n2 - 1))
        if any(red[:len(columns)]):
            return None
        x0 = [0] + [-y % d for y in red[len(columns):]]
        if any((x0[g] - x0[hg] + x0[h] - diff[h][g][ci]) % d
               for h in range(1, n2) for g, hg in enumerate(g2.table[h])):
            return None
        solutions.append(x0[1:])
    images = least_in_coset([coboundary_lattice(g2, d).tail(len(columns))
                             for d in pres.invariant_factors],
                            solutions, pres.element_of)
    t = GroupMap(dom=g2, cod=g1, images=(0, *images))
    im = t.images
    if any(mul[mul[mul[im[g]][inv[im[hg]]]][th]][v1] != v2
           for row, r1, r2, th in zip(g2.table, e1.table, e2.table, im)
           for g, hg, v1, v2 in zip(range(n2), row, r1, r2)):
        raise ConditionsFailed("the solved map is not a coboundary witness")
    return CoboundaryWitness(t=t)


def replace(record, **changes):
    """record with the given fields changed, rebuilt through its
    constructor, so that __post_init__ checks the result, as
    dataclasses.replace did for the records before they left
    dataclasses."""
    return type(record)(**{**{f: getattr(record, f)
                              for f in record._fields}, **changes})


def identity_map(g: FiniteGroup) -> GroupMap:
    return GroupMap(dom=g, cod=g, images=tuple(range(g.order)))


def compose_maps(outer: GroupMap, inner: GroupMap) -> GroupMap:
    """outer after inner."""
    if inner.cod is not outer.dom and inner.cod != outer.dom:
        raise GroupMismatch("codomain of inner must match domain of outer")
    return GroupMap(dom=inner.dom, cod=outer.cod,
                    images=tuple(outer.images[v] for v in inner.images))


def lattice_head(lattice: IntLattice, k: int) -> IntLattice:
    """The earlier IntLattice.head: the projection onto the columns
    before k, the rows with pivot column < k cut to those columns, still
    a Howell basis."""
    out = IntLattice(k, lattice.modulus)
    out.pivot_rows = {p: {j: x for j, x in r.items() if j < k}
                      for p, r in lattice.pivot_rows.items() if p < k}
    return out


class B2Coordinate(Record):
    """The earlier cocycles._Coordinate: Z^2 and the H^2 classes of one
    invariant factor d of g1 over g2, with z_columns, Z^2's pivot rows
    in generator columns."""

    z_columns: tuple[tuple[int, ...], ...]
    z_order: int
    b_order: int
    factors: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def solve_coordinate_by_b2(g2: FiniteGroup, d: int) -> B2Coordinate:
    """The earlier cocycles._solve_coordinate: Z^2 in generator columns
    as one lattice, B^2's head rows (coboundary_lattice) then Hopf's
    kernel placed at the chord columns; H^2 = Z^2 / B^2 from the
    relations among the Z^2 rows mod B^2, and the class box over their
    residues."""
    ncols = len(_generator_columns(g2))
    _, chords, equations = _hopf_system(g2)
    kept, columns = transposed_kernel(equations, len(chords), d)
    kernel = columns.tail(len(kept))
    b = lattice_head(coboundary_lattice(g2, d), ncols)
    z2 = IntLattice(ncols, d, [b.pivot_rows[p] for p in sorted(b.pivot_rows)]
                    + [{chords[u]: c for u, c in kernel.pivot_rows[p].items()}
                       for p in sorted(kernel.pivot_rows)])
    z = [z2.dense_row(p) for p in sorted(z2.pivot_rows)]
    z_order = d ** ncols // z2.index_in_ambient()
    b_order = d ** ncols // b.index_in_ambient()
    residues = [res for res in map(b.reduce, z) if any(res)]
    k = len(residues)
    rel = IntLattice(ncols + k, d, b.pivot_rows.values())
    for i, res in enumerate(residues):
        rel.add(res + [int(j == i) for j in range(k)])
    quot = rel.tail(ncols)
    if quot.index_in_ambient() != z_order // b_order:
        raise InternalInconsistency("|H^2| disagrees with |Z^2| / |B^2|")
    diag = smith_normal_form(IntMatrix.from_rows(quot.hnf_rows())).s.diagonal
    classes = [[0] * (g2.order - 1) ** 2]
    for j, res in enumerate(expand_by_lists(g2, d, residues)):
        classes = [[(x + c * y) % d for x, y in zip(vec, res)] if c else vec
                   for vec in classes for c in range(quot.pivot(j))]
    return B2Coordinate(z_columns=tuple(map(tuple, z)),
                        z_order=z_order, b_order=b_order,
                        factors=tuple(x for x in diag if x > 1),
                        classes=tuple(map(tuple, classes)))


def space_by_b2(g1: FiniteGroup, g2: FiniteGroup) -> CocycleSpace:
    """The earlier cocycles.compute_cocycle_space, on the coordinates of
    solve_coordinate_by_b2: its factors and orders, and the lex-least
    table of each class."""
    pres = abelian_invariants(g1)
    coords = [solve_coordinate_by_b2(g2, d) for d in pres.invariant_factors]
    n2 = g2.order
    slots = [(h, g, hg) for h in range(1, n2)
             for g, hg in enumerate(g2.table[h]) if g]
    walk = _walk(pres, n2, slots, [_coboundary_pivots(g2, d)
                                   for d in pres.invariant_factors])
    tables = sorted(table_from_values(n2, _element_values(
                        walk, _least_values(walk, vecs)))
                    for vecs in itertools.product(*(c.classes
                                                    for c in coords)))
    return CocycleSpace(g1=g1, g2=g2,
                        h2_invariant_factors=_merge_invariant_factors(
                            [f for c in coords for f in c.factors]),
                        class_representatives=tuple(
                            Cocycle2(g1=g1, g2=g2, table=t) for t in tables),
                        z2_order=math.prod(c.z_order for c in coords),
                        b2_order=math.prod(c.b_order for c in coords))


@lru_cache(maxsize=None)
def class_key_mod_b2(g1: FiniteGroup, g2: FiniteGroup):
    """The earlier cocycles._class_key: push(table, sigma, rho), the
    values of _column_values reduced, per invariant factor, against the
    Howell basis of B^2 in columns, one per coset, and pull(table, rho)
    = push(table, identity, rho).  Two tables share a key exactly when
    their columns differ by B^2 in columns."""
    coords = abelian_invariants(g1).coords
    values = _column_values(g1, g2)
    heads = [lattice_head(coboundary_lattice(g2, d),
                          len(_generator_columns(g2)))
             for d in abelian_invariants(g1).invariant_factors]

    def push(table, sigma, rho=tuple(range(g2.order))):
        vecs = zip(*[coords[v] for v in values(table, sigma, rho)])
        return tuple(tuple(h.reduce(vec)) for h, vec in zip(heads, vecs))
    return push, lambda table, rho: push(table, range(g1.order), rho)


def z2_generators(space: CocycleSpace) -> tuple[Cocycle2, ...]:
    """The earlier CocycleSpace.z2_generators: each Z^2 row of each
    coordinate, in that coordinate, written out from the lattice that
    solve_coordinate_by_b2 builds."""
    return _coordinate_tables(space.g1, space.g2, lambda d: expand_by_lists(
        space.g2, d, solve_coordinate_by_b2(space.g2, d).z_columns))


def b2_generators(space: CocycleSpace) -> tuple[Cocycle2, ...]:
    """The earlier CocycleSpace.b2_generators: the coboundary of each map
    sending one point w to a coordinate unit and the rest to 0."""
    n2 = space.g2.order
    units = [unit_coboundary(space.g2, w, range(1, n2))
             for w in range(1, n2)]
    return _coordinate_tables(space.g1, space.g2, lambda d: (
        [psi.get(i, 0) % d for i in range((n2 - 1) ** 2)]
        for psi in units))


def _coordinate_tables(g1: FiniteGroup, g2: FiniteGroup, values_of):
    """Per coordinate ci of g1, of factor d, and per values in
    values_of(d), the table with the values, each in [0, d), at the pair
    slots in coordinate ci and 0 in the others; first occurrences kept
    and trivial tables dropped."""
    pres = abelian_invariants(g1)
    factors = pres.invariant_factors
    elements = [[pres.element_of([v * (i == ci)
                                  for i in range(len(factors))])
                 for v in range(d)] for ci, d in enumerate(factors)]
    tables = (table_from_values(g2.order, map(elements[ci].__getitem__,
                                               values))
              for ci, d in enumerate(factors) for values in values_of(d))
    return tuple(Cocycle2(g1=g1, g2=g2, table=t)
                 for t in dict.fromkeys(tables) if any(map(any, t)))


def carrier_commute_failure(m):
    """The earlier condition 2 of hom_condition_failures, read off the
    target carrier's table: the first (y, x), y and x not the identity,
    where (1, rho(y)) and (1, delta(x)) do not commute there, or None."""
    tgt = m.target
    mul_t, rho, delta = tgt.group.table, m.phi22.images, m.phi21.images
    return next(((y, x) for y in range(1, tgt.g2.order)
                 for x in range(1, tgt.g1.order)
                 if mul_t[rho[y]][delta[x]] != mul_t[delta[x]][rho[y]]),
                None)


def g2_isomorphic_equal_order_by_loop(e1, e2,
                                      limits: SearchLimits = DEFAULT_LIMITS):
    """The earlier isotest.g2_isomorphic_equal_order, which tried every
    isomorphism delta between the factor groups in turn."""
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


def g1g2_isomorphic_by_loop(e1, e2, limits: SearchLimits = DEFAULT_LIMITS):
    """The earlier isotest.g1g2_isomorphic, which tried every isomorphism
    delta between the factor groups in turn."""
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


def reconstruct_by_divmod(m: HomMatrix) -> GroupMap:
    """The earlier extensions.reconstruct_hom: the component formula at
    each carrier element (x, y) = divmod(i, |g2|), built through
    GroupMap's checking constructor."""
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


def materialize_by_components(cert: IsoCertificate) -> GroupMap:
    """The earlier IsoCertificate.materialize: the component matrix,
    checked by HomMatrix, then reconstruct_by_divmod, the direct checks,
    and the kind read off every component's image array."""
    src, tgt = cert.source, cert.target
    phi = reconstruct_by_divmod(cert.components())
    ok, witness = is_homomorphism_direct(src, tgt, phi)
    if not ok:
        raise ConditionsFailed(
            f"certificate does not materialize: {witness}")
    if not phi.is_bijective():
        raise ConditionsFailed("certificate map is not bijective")
    parts = _component_images(src, tgt, phi.images)
    if any(any(parts[c]) for c in TRIVIAL_COMPONENTS[cert.kind]):
        raise ConditionsFailed(
            f"certificate map is not of kind {cert.kind!r}")
    return phi


def has_kind_by_components(m: HomMatrix, kind: str) -> bool:
    """The earlier HomMatrix.has_kind: whether every component
    TRIVIAL_COMPONENTS lists for kind is trivial, read off the component
    maps of m; for a bijective map, whether it is of that kind."""
    return all(getattr(m, c).is_trivial() for c in TRIVIAL_COMPONENTS[kind])


def hom_condition_failures_by_scan(m: HomMatrix):
    """The earlier extensions.hom_condition_failures, which compared
    condition 4 at all |g2|^2 pair slots against eta's full coboundary
    table, whatever condition 1 gave."""
    src, tgt = m.source, m.target
    if src.g1 != tgt.g1 or src.g2 != tgt.g2:
        raise GroupMismatch("both carriers must sit over the same pair")
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

    mul2 = g2.table
    bad = next(((y, x) for y in range(1, n2) for x in range(1, n1)
                if e2[rho[y]][delta[x]] != e2[delta[x]][rho[y]]
                or mul2[rho[y]][delta[x]] != mul2[delta[x]][rho[y]]), None)
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


def lower_necessary_by_materialize(src: ExtensionGroup, tgt: ExtensionGroup,
                                   m: HomMatrix) -> IsoCertificate:
    """The earlier lower extractor of isotest.verify_theorems: the
    certificate read off m, its components() built afresh and checked by
    hom_condition_failures_by_scan after sigma and rho are found
    bijective, then materialize() in full.  A failed requirement raises
    ConditionsFailed when the quotient passes sim_is_trivial, else
    HypothesisNotVerified."""
    cert = IsoCertificate(kind="lower", source=src, target=tgt,
                          sigma=m.phi11, rho=m.phi22, delta=m.phi21)
    if not cert.rho.is_bijective():
        problem = "rho_not_automorphism"
    elif not cert.sigma.is_bijective():
        problem = "sigma_not_automorphism"
    else:
        problem = next((reason for _, reason, _ in
                        hom_condition_failures_by_scan(cert.components())),
                       None)
    if problem is not None:
        raise (ConditionsFailed if sim_is_trivial(src.g2)
               else HypothesisNotVerified)(problem)
    cert.materialize()
    return cert


def require_by_scan(m: HomMatrix, *own, error=ConditionsFailed):
    """The earlier isotest._require, the conditions read by
    hom_condition_failures_by_scan: raise error naming the first failing
    component condition on m, else the first of the (holds, reason)
    pairs in own that does not hold."""
    reason = next((reason for _, reason, _ in
                   hom_condition_failures_by_scan(m)), None) or next(
        (reason for holds, reason in own if not holds), None)
    if reason is not None:
        raise error(reason)


def g2_necessary_by_require(src: ExtensionGroup, tgt: ExtensionGroup,
                            m: HomMatrix) -> IsoCertificate:
    """The earlier g2 extractor of isotest.verify_theorems, which never
    compared its certificate with the map m was read from: after the
    component conditions, eta injective and delta surjective, each
    failure raising ConditionsFailed."""
    n2 = src.g2.order
    require_by_scan(m, (len(set(m.phi12.images)) == n2,
                        "eta is not injective"),
                    (set(m.phi21.images) == set(range(n2)),
                     "delta is not surjective"))
    return IsoCertificate(kind="g2", source=src, target=tgt, sigma=m.phi11,
                          eta=m.phi12, delta=m.phi21)


def g1_necessary_by_require(src: ExtensionGroup, tgt: ExtensionGroup,
                            m: HomMatrix) -> IsoCertificate:
    """The earlier g1 extractor of isotest.verify_theorems, which never
    compared its certificate with the map m was read from: after the
    component conditions, delta injective, eta surjective and the source
    cocycle trivial, a failure raising ConditionsFailed when the
    quotient passes sim_is_trivial, else HypothesisNotVerified."""
    n1 = src.g1.order
    require_by_scan(m, (len(set(m.phi21.images)) == n1,
                        "delta is not injective"),
                    (set(m.phi12.images) == set(range(n1)),
                     "eta is not surjective"),
                    (src.cocycle.is_trivial(),
                     "source cocycle did not vanish"),
                    error=(ConditionsFailed if sim_is_trivial(src.g2)
                           else HypothesisNotVerified))
    return IsoCertificate(kind="g1", source=src, target=tgt, rho=m.phi22,
                          eta=m.phi12, delta=m.phi21)


def _falsified_by_quotient(g2) -> type:
    return ConditionsFailed if sim_is_trivial(g2) else HypothesisNotVerified


# the earlier isotest._NECESSITY: per kind, the error for a map not of
# the kind, the error for a failed requirement given the quotient,
# whether the kind's own requirements come first, and those
# requirements on the component matrix m as (holds, reason) pairs
NECESSITY_PER_MAP = {
    "lower": (NotLowerIso, _falsified_by_quotient, True, lambda m: (
        (m.phi22.is_bijective(), "rho_not_automorphism"),
        (m.phi11.is_bijective(), "sigma_not_automorphism"))),
    "g1": (NotG1Iso, _falsified_by_quotient, False, lambda m: (
        (len(set(m.phi21.images)) == m.source.g1.order,
         "delta is not injective"),
        (set(m.phi12.images) == set(range(m.source.g1.order)),
         "eta is not surjective"),
        (m.source.cocycle.is_trivial(), "source cocycle did not vanish"))),
    "g2": (NotG2Iso, lambda g2: ConditionsFailed, False, lambda m: (
        (len(set(m.phi12.images)) == m.source.g2.order,
         "eta is not injective"),
        (set(m.phi21.images) == set(range(m.source.g2.order)),
         "delta is not surjective"))),
}


def necessary_per_map(kind, src: ExtensionGroup, tgt: ExtensionGroup,
                      m: HomMatrix, phi: GroupMap | None = None
                      ) -> IsoCertificate:
    """The earlier isotest._necessary, which decided every requirement
    and every component condition afresh on each component matrix m
    (hom_condition_failures) and built its certificate from m: the
    kind's error naming the first failure, else the certificate, whose
    rebuilt map is compared with phi where given and materialized in
    full where they differ."""
    _, falsified, own_first, own = NECESSITY_PER_MAP[kind]
    conditions = (reason for _, reason, _ in hom_condition_failures(m))
    unmet = (reason for holds, reason in own(m) if not holds)
    reason = next(itertools.chain(unmet, conditions) if own_first
                  else itertools.chain(conditions, unmet), None)
    if reason is not None:
        raise falsified(src.g2)(reason)
    cert = IsoCertificate(kind=kind, source=src, target=tgt, **{
        field: getattr(m, c) for c, field in (
            ("phi11", "sigma"), ("phi12", "eta"), ("phi21", "delta"),
            ("phi22", "rho")) if c not in TRIVIAL_COMPONENTS[kind]})
    if phi is not None and reconstruct_hom(m).images != phi.images:
        cert.materialize()
    return cert


def automorphism_generators_by_closure(g: FiniteGroup,
                                      limits: SearchLimits = DEFAULT_LIMITS):
    """The earlier groups._automorphism_generators, with its own closure
    walk: each automorphism, in reverse enumeration order, outside the
    group the earlier picks generate is picked, and the closure grows
    from the new coset Ha, each new element composed with every pick."""
    gens, closure = [], {tuple(range(g.order))}
    for a in reversed(enumerate_automorphisms(g, limits)):
        if a.images not in closure:
            gens.append(a.images)
            queue = [tuple([x[i] for i in a.images]) for x in closure]
            closure.update(queue)
            for x in queue:
                new = {tuple([x[i] for i in s]) for s in gens} - closure
                closure |= new
                queue += new
    return tuple(gens)


def automorphism_pair_search_afresh(push, pull, e1, e2,
                                    limits: SearchLimits = DEFAULT_LIMITS):
    """The earlier isotest._automorphism_pair_search, which kept nothing
    between calls: the first (sigma, rho), sigma-major in enumeration
    order, with push(e1, sigma) == pull(e2, rho), each rho keyed at most
    once per call, in order and only as far as some sigma needs."""
    rhos = iter(enumerate_automorphisms(e2.g2, limits))
    first = {}
    for sigma in enumerate_automorphisms(e1.g1, limits):
        want = push(e1, sigma.images)
        while want not in first and (rho := next(rhos, None)) is not None:
            first.setdefault(pull(e2, rho.images), rho)
        if want in first:
            return sigma, first[want]
    return None


@lru_cache(maxsize=None)
def orbit_label_by_tables(g1: FiniteGroup, g2: FiniteGroup,
                          limits: SearchLimits = DEFAULT_LIMITS):
    """The earlier isotest._orbit_label: breadth-first over the n^2 image
    tables, each generator of Aut(G1) pushing a table and each of Aut(G2)
    pulling it, every table keyed by _class_key, each orbit named by the
    least key in it."""
    key = _class_key(g1, g2)[0]
    identity = tuple(range(g1.order))
    sigmas, rhos = (_automorphism_generators(g, limits) for g in (g1, g2))
    labels = {}

    def label(cocycle):
        start = key(cocycle.table, identity)
        if start not in labels:
            orbit, queue = {start}, [cocycle.table]
            for t in queue:
                images = [tuple(tuple(s[v] for v in row) for row in t)
                          for s in sigmas]
                images += [tuple(tuple(t[a][b] for b in r) for a in r)
                           for r in rhos]
                for u in images:
                    if (k := key(u, identity)) not in orbit:
                        orbit.add(k)
                        queue.append(u)
            labels.update(dict.fromkeys(orbit, min(orbit)))
        return labels[start]
    return label


def upper_isomorphic_by_tables(e1, e2, limits: SearchLimits = DEFAULT_LIMITS):
    """The earlier isotest.upper_isomorphic: the table-walk labels, a pair
    search that keeps nothing between calls, and the witness of sigma .
    e1 = psi_t * e2 . (rho x rho) solved and checked on the n^2 pushed
    and pulled tables (are_cohomologous_by_reduction)."""
    src, tgt = _extension_pair(e1, e2)
    g1, g2 = src.g1, src.g2
    label = orbit_label_by_tables(g1, g2, limits)
    if label(src.cocycle) != label(tgt.cocycle):
        return None
    push, pull = _class_key(g1, g2)
    hit = automorphism_pair_search_afresh(
        lambda e, sigma: push(e.table, sigma),
        lambda e, rho: pull(e.table, rho), src.cocycle, tgt.cocycle, limits)
    if hit is None:
        raise ConditionsFailed("no automorphism pair within one orbit")
    sigma, rho = hit
    t1, t2, im = src.cocycle.table, tgt.cocycle.table, rho.images
    pulled = Cocycle2(g1=g1, g2=g2, table=tuple(
        tuple(t2[y][x] for x in im) for y in im))
    pushed = Cocycle2(g1=g1, g2=g2, table=tuple(
        tuple(sigma.images[v] for v in row) for row in t1))
    w = are_cohomologous_by_reduction(pulled, pushed)
    if w is None:
        raise ConditionsFailed("the keyed pair has no coboundary witness")
    cert = IsoCertificate(kind="upper", source=src, target=tgt, sigma=sigma,
                          rho=rho, t_witness=w)
    cert.materialize()
    return cert


def decide_iso_in_the_cli(mode, e1, e2, limits):
    """The earlier cli._decide_iso, the policy isotest.decide took over,
    with its g1 and g2 extractors called as necessary(kind, ...).

    Verdict, certificate dict or None, notes.

    Every mode but plain compares two extensions over one group pair,
    so a mismatched pair raises GroupMismatch before any search; a
    carrier isomorphism needs no common pair.  A structured decider
    answers upper, lower, g1g2, and g2 over abelian factor groups of
    equal order.  Other modes, and a lower
    negative that sim_is_trivial cannot settle, take the first carrier
    isomorphism of the mode's kind from the exhaustive search (lower
    raises HypothesisNotVerified past the limits); g1 and g2 extract
    their certificate from it, else keep the raw map with a note when
    the failed condition rests on the quotient hypothesis."""
    notes = []
    g1, g2 = e1.g1, e1.g2
    if mode != "plain" and (g1 != e2.g1 or g2 != e2.g2):
        raise GroupMismatch("extensions sit over different group pairs")
    decide = {"upper": upper_isomorphic, "lower": lower_isomorphic,
              "g1g2": g1g2_isomorphic}.get(mode)
    if (mode == "g2" and g1.is_abelian and g2.is_abelian
            and g1.order == g2.order):
        decide = g2_isomorphic_equal_order
    if decide is not None:
        cert = decide(e1, e2, limits)
        if cert is not None or mode != "lower":
            return cert is not None, cert.to_dict() if cert else None, notes
        if sim_is_trivial(g2):
            notes.append("negative settled by the component search; the "
                         "quotient hypothesis is verified")
            return False, None, notes

    forced = TRIVIAL_COMPONENTS[mode]
    try:
        phi = brute_force_isomorphism(
            e1.group, e2.group, limits=limits,
            constraint=lambda phi: trivial_components(
                e1, e2, phi.images).issuperset(forced))
    except SizeLimitExceeded as exc:
        if mode != "lower":
            raise
        raise HypothesisNotVerified(
            "the component search found nothing, its completeness "
            "needs the quotient hypothesis, which fails for this "
            "quotient, and exhaustive search exceeds the size "
            "limits") from exc
    if mode == "lower":
        notes.append("negative settled by exhaustive search" if phi is None
                     else "found by exhaustive search although the "
                     "component search came up empty; the quotient "
                     "hypothesis fails for this pair")
    if phi is None:
        return False, None, notes
    extract = {"g1": lambda *args: necessary("g1", *args),
               "g2": lambda *args: necessary("g2", *args)}.get(mode)
    if extract is not None:
        try:
            return True, extract(e1, e2, phi).to_dict(), notes
        except HypothesisNotVerified as exc:
            notes.append(f"certificate left as the raw map: {exc}; the "
                         "quotient hypothesis fails here")
    return True, {"kind": mode, "phi": list(phi.images)}, notes
