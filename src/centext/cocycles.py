"""Normalized 2-cocycles with trivial action, coboundaries, and the
second cohomology group.

A cocycle over (g1, g2) is stored as a g2.order x g2.order table of
g1-element indices.  The coefficient group g1 must be abelian for the
space computations (the general table type also carries the
g2-coefficient cocycles used by composition lemmas, where no group
structure on the value set is needed beyond the identity check).

Everything linear runs mod each invariant factor d of g1, in the
k(n-1) generator columns e(x, s), x != 1 and s among the k generators
of a quotient of order n, which fix a cocycle (the _expand proof).  One
lattice per (g2, d), _coboundary_lattice, holds the unit coboundaries
with their coefficients: its head is B^2 in columns, whose Howell basis
reduces a cocycle to a canonical key of its class, and its tail is
Hom(g2, Z/d).  Z^2 is B^2 plus the solutions of Hopf's formula, one
sparse equation per (generator, Schreier generator), eliminated in
IntLattice, which keeps sparse pivot rows.  H^2 is a small Smith normal
form of the relations among the Z^2 rows mod B^2.  are_cohomologous
reduces e2 - e1 once per factor and reads a witness off the tail.  The
lex-least witnesses and representatives come from one greedy pass over
the pivot slots of Hom, or of B^2 over the pair slots, found in the n - 1
values of a map (_coboundary_pivots).  Pair slots appear only in tables
written out, the Z^2 and B^2 generators on first access.  The identity
system, the dense elimination, the pair-slot B^2 lattice and the
slot-by-slot pass they replaced are test oracles in tests/oracles.py.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import (
    ConditionsFailed,
    DimensionMismatch,
    GroupMismatch,
    NotAbelian,
    NotAbelianCoefficients,
    NotNormalized,
)
from .groups import FiniteGroup, GroupMap, center
from .intlinalg import (
    IntLattice,
    IntMatrix,
    abelian_invariants,
    smith_normal_form,
    xgcd,
)


@dataclass(frozen=True)
class Cocycle2:
    """A normalized 2-cocycle table epsilon(y, y') in g1, for y, y' in g2.

    The constructor checks shape and normalization only; the full
    cocycle identity is the job of is_cocycle, which untrusted inputs
    must pass through (the computed spaces construct tables that are
    solutions by construction).
    """

    g1: FiniteGroup
    g2: FiniteGroup
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n1, n2, table = self.g1.order, self.g2.order, self.table
        if len(table) != n2 or any(len(r) != n2 for r in table):
            raise DimensionMismatch("cocycle table must be g2.order square")
        # screened at C speed; the scans name the first offender
        if min(map(min, table)) < 0 or max(map(max, table)) >= n1:
            v = next(v for row in table for v in row if not 0 <= v < n1)
            raise ValueError(f"cocycle value {v} outside g1")
        if any(table[0]) or any(r[0] for r in table):
            y = next(y for y in range(n2) if table[y][0] or table[0][y])
            raise NotNormalized(f"cocycle not normalized at ({y},0)/(0,{y})")

    def is_trivial(self) -> bool:
        return all(v == 0 for row in self.table for v in row)

    def to_dict(self) -> dict:
        return {"g1": self.g1.to_dict(), "g2": self.g2.to_dict(),
                "table": [list(r) for r in self.table]}


def trivial_cocycle(g1: FiniteGroup, g2: FiniteGroup) -> Cocycle2:
    return Cocycle2(g1=g1, g2=g2, table=tuple((0,) * g2.order
                                              for _ in range(g2.order)))


def is_cocycle(g1: FiniteGroup, g2: FiniteGroup, table):
    """Check normalization plus the identity
    e(h,g)*e(hg,k) = e(g,k)*e(h,gk); returns (ok, witness) where the
    witness names the first failure: ("normalization", y) or
    ("identity", (h, g, k)).

    When the values commute pairwise (always, for abelian g1) they lie
    in an abelian subgroup of g1, and Light's argument (the _expand
    proof) shows that the identity for every last argument k follows
    from the identity for k in g2.generators; so only those are tested.
    Only when one fails, or when two values do not commute, does the
    scan over all triples run, which names the first failing triple in
    row-major order.
    """
    n2 = g2.order
    if len(table) != n2 or any(len(r) != n2 for r in table):
        raise DimensionMismatch("cocycle table must be g2.order square")
    n1 = g1.order
    for row in table:
        for v in row:
            if not 0 <= v < n1:
                raise DimensionMismatch(
                    f"cocycle entry {v} outside the coefficient range")
    for y in range(n2):
        if table[y][0] != 0 or table[0][y] != 0:
            return False, ("normalization", y)
    mul = g1.table
    values = () if g1.is_abelian else {v for row in table for v in row}
    if (all(mul[a][b] == mul[b][a] for a in values for b in values)
            and _identity_failure(mul, g2, table, g2.generators) is None):
        return True, None
    bad = _identity_failure(mul, g2, table, range(1, n2))
    return (True, None) if bad is None else (False, ("identity", bad))


def _identity_failure(mul, g2, table, lasts):
    """The first (h, g, k), k among lasts, where the identity fails."""
    n2 = g2.order
    for h in range(1, n2):
        for g in range(1, n2):
            hg = g2.table[h][g]
            for k in lasts:
                gk = g2.table[g][k]
                lhs = mul[table[h][g]][table[hg][k]]
                rhs = mul[table[g][k]][table[h][gk]]
                if lhs != rhs:
                    return h, g, k
    return None


def make_cocycle(g1: FiniteGroup, g2: FiniteGroup, table) -> Cocycle2:
    """Validate an untrusted table, a list of rows of int (not bool)
    entries, and wrap it; nothing is coerced."""
    if not isinstance(table, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in table):
        raise ValueError("a cocycle table must be a list of rows")
    tab = tuple(tuple(row) for row in table)
    for y, row in enumerate(tab):
        for yp, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(
                    f"cocycle entry [{y}][{yp}] = {v!r} is not an integer")
    ok, witness = is_cocycle(g1, g2, tab)
    if not ok:
        kind, where = witness
        if kind == "normalization":
            raise NotNormalized(f"cocycle not normalized at index {where}")
        raise ValueError(f"cocycle identity fails at (h,g,k) = {where}")
    return Cocycle2(g1=g1, g2=g2, table=tab)


def cocycle_mul(a: Cocycle2, b: Cocycle2) -> Cocycle2:
    """Pointwise product; needs abelian coefficients for the result to
    stay a cocycle."""
    _same_groups(a, b)
    if not a.g1.is_abelian:
        raise NotAbelian("pointwise product needs abelian coefficients")
    mul = a.g1.table
    return Cocycle2(g1=a.g1, g2=a.g2, table=tuple(
        tuple(mul[x][y] for x, y in zip(ra, rb))
        for ra, rb in zip(a.table, b.table)))


def cocycle_inv(a: Cocycle2) -> Cocycle2:
    if not a.g1.is_abelian:
        raise NotAbelian("pointwise inverse needs abelian coefficients")
    inv = a.g1.inverses
    return Cocycle2(g1=a.g1, g2=a.g2,
                    table=tuple(tuple(inv[v] for v in row)
                                for row in a.table))


def _same_groups(a: Cocycle2, b: Cocycle2):
    if a.g1 != b.g1 or a.g2 != b.g2:
        raise GroupMismatch("cocycles live over different group pairs")


def coboundary_from(delta: GroupMap) -> Cocycle2:
    """The coboundary psi(h,g) = delta(g) * delta(hg)^-1 * delta(h) of a
    normalized set map delta: g2 -> g1 (g1 abelian)."""
    g2, g1 = delta.dom, delta.cod
    if not g1.is_abelian:
        raise NotAbelian("coboundaries are built over abelian coefficients")
    if delta.images[0] != 0:
        raise NotNormalized("delta must send the identity to the identity")
    return Cocycle2(g1=g1, g2=g2, table=_coboundary_table(delta))


def _coboundary_table(delta: GroupMap) -> tuple[tuple[int, ...], ...]:
    """The bare table of coboundary_from(delta), without its checks or
    the Cocycle2 wrapper, for callers that only read its entries."""
    g2, g1 = delta.dom, delta.cod
    mul, inv, images = g1.table, g1.inverses, delta.images
    return tuple(
        tuple(mul[mul[images[g]][inv[images[g2.table[h][g]]]]][images[h]]
              for g in range(g2.order))
        for h in range(g2.order))


@dataclass(frozen=True)
class CoboundaryWitness:
    """The map t with e2 = (coboundary of t) * e1."""

    t: GroupMap


def are_cohomologous(e1: Cocycle2, e2: Cocycle2):
    """The lex-least witness t with e2 = psi_t * e1, or None.

    psi_t(h, g) = t(g) - t(hg) + t(h) is linear in t, so per invariant
    factor d of g1 the question is whether the coordinate b of e2 - e1
    is psi_x for some x mod d.  Reducing [b | 0], b at the generator
    columns, against _coboundary_lattice(g2, d) takes off some
    [psi_c | c] and leaves [b - psi_c | -c]: the head vanishes exactly
    when b lies in B^2 in columns, and then x0 = -tail has psi_x0 = b
    there, hence everywhere, as both are cocycles; every pair is still
    checked, since Cocycle2 does not check the identity.  The witnesses
    form x0 + Hom(g2, Z/d), the tail in Howell form (_hom_lattice), so
    _least_in_coset reads off the one least image array (t(1), ...,
    t(n-1)) in element indices, whichever x0 was found.  psi_t * e1 = e2
    is checked on the raw tables before the map is returned.
    """
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
        red = _coboundary_lattice(g2, d).reduce(
            [diff[x][s][ci] for x, s in columns] + [0] * (n2 - 1))
        if any(red[:len(columns)]):
            return None
        x0 = [0] + [-y % d for y in red[len(columns):]]
        # b at pair (h, g) must be x0(g) - x0(hg) + x0(h)
        if any((x0[g] - x0[hg] + x0[h] - diff[h][g][ci]) % d
               for h in range(1, n2) for g, hg in enumerate(g2.table[h])):
            return None
        solutions.append(x0[1:])
    images = _least_in_coset([_hom_lattice(g2, d)
                              for d in pres.invariant_factors],
                             solutions, pres.element_of)
    t = GroupMap(dom=g2, cod=g1, images=(0, *images))
    im = t.images
    if any(mul[mul[mul[im[g]][inv[im[hg]]]][th]][v1] != v2
           for row, r1, r2, th in zip(g2.table, e1.table, e2.table, im)
           for g, hg, v1, v2 in zip(range(n2), row, r1, r2)):
        raise ConditionsFailed("the solved map is not a coboundary witness")
    return CoboundaryWitness(t=t)


@lru_cache(maxsize=None)
def _generator_columns(g2: FiniteGroup):
    """The pairs (x, s), x != 1 and s in g2.generators, x-major: the
    k(n-1) generator columns, which fix a cocycle (_expand)."""
    return tuple((x, s) for x in range(1, g2.order) for s in g2.generators)


def _unit_coboundary(g2: FiniteGroup, w: int, lasts):
    """psi_w(h, g) = [g = w] - [hg = w] + [h = w], the coboundary of the
    map sending w to 1 and the rest to 0, as a sparse row {slot index:
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
def _coboundary_lattice(g2: FiniteGroup, d: int) -> IntLattice:
    """The coboundaries mod d in generator columns: the echelon form of
    one row [psi_w | e_w] per unit map w != 1, with the head psi_w at
    the generator columns and the tail e_w over the nonidentity points.
    Its vectors are [psi_c | c] up to multiples of d, so its head
    (IntLattice.head) is B^2 in columns, which is B^2 as a cocycle is
    fixed by its generator columns; and by Howell's property its tail
    spans the c with psi_c zero on the columns, hence everywhere:
    Hom(g2, Z/d).
    """
    n2, k, gens = g2.order, len(_generator_columns(g2)), g2.generators
    return IntLattice(k + n2 - 1, d, ({**_unit_coboundary(g2, w, gens),
                                      k + w - 1: 1} for w in range(1, n2)))


@lru_cache(maxsize=None)
def _hom_lattice(g2: FiniteGroup, d: int) -> IntLattice:
    """Hom(g2, Z/d), the tail of _coboundary_lattice(g2, d), cut once."""
    return _coboundary_lattice(g2, d).tail(len(_generator_columns(g2)))


def _column_values(g1: FiniteGroup, g2: FiniteGroup):
    """push(table, sigma), the values of sigma . e at the generator
    columns, and pull(table, rho), those of e . (rho x rho), for image
    arrays sigma, rho: equal keys mean equal cocycles."""
    columns = _generator_columns(g2)

    def push(table, sigma):
        return tuple([sigma[table[x][s]] for x, s in columns])

    def pull(table, rho):
        return tuple([table[rho[x]][rho[s]] for x, s in columns])
    return push, pull


@lru_cache(maxsize=None)
def _class_key(g1: FiniteGroup, g2: FiniteGroup):
    """The keys of _column_values reduced, per invariant factor, against
    the Howell basis of B^2 in columns, one per coset: two cocycles
    share a key exactly when they are cohomologous.  Built once per
    pair."""
    pres = abelian_invariants(g1)
    coords = pres.coords
    push, pull = _column_values(g1, g2)
    heads = [_coboundary_lattice(g2, d).head(len(_generator_columns(g2)))
             for d in pres.invariant_factors]

    def reduce(values):
        vecs = zip(*[coords[v] for v in values])
        return tuple(tuple(h.reduce(vec)) for h, vec in zip(heads, vecs))
    return (lambda table, sigma: reduce(push(table, sigma)),
            lambda table, rho: reduce(pull(table, rho)))


def _row_space(equations, ncols, d):
    """Eliminate the sparse rows R mod d, the {unknown: coefficient}
    equations of _hopf_system: the indexes S of the rows that grew
    R's row lattice, added in order, and the echelon form of the rows
    [R_S e_w | e_w], one per column w.  R_S spans R's row lattice, so it
    has R's kernel mod d, which is columns.tail(len(S)).  A chain of
    submodules of (Z/d)^ncols has at most ncols * Omega(d) steps (prime
    factors with multiplicity), so no row is wider than
    (1 + Omega(d)) * ncols.  Both eliminations feed IntLattice sparse
    rows."""
    rows = IntLattice(ncols, d)
    kept = tuple(i for i, eq in enumerate(equations) if rows.add(eq))
    transposed = [{len(kept) + w: 1} for w in range(ncols)]
    for j, i in enumerate(kept):
        for u, c in equations[i].items():
            transposed[u][j] = c
    return kept, IntLattice(len(kept) + ncols, d, transposed)


def apply_coboundary(t: GroupMap, e: Cocycle2) -> Cocycle2:
    """psi_t * e, the cohomologous cocycle with witness t."""
    psi = coboundary_from(t)
    return cocycle_mul(psi, e)


def is_symmetric(e: Cocycle2) -> bool:
    n2 = e.g2.order
    return all(e.table[y][yp] == e.table[yp][y]
               for y in range(n2) for yp in range(y + 1, n2))


def is_epsilon_endomorphism(chi: GroupMap, e: Cocycle2) -> bool:
    """chi(x * e(y,y')) == chi(x) * chi(e(y,y')) for all x, y, y'.

    chi is a set map g1 -> g1; ordinary endomorphisms pass trivially.
    """
    g1 = e.g1
    if chi.dom != g1 or chi.cod != g1:
        raise GroupMismatch("chi must be a self-map of the coefficient group")
    values = {v for row in e.table for v in row}
    mul = g1.table
    im = chi.images
    return all(im[mul[x][v]] == mul[im[x]][im[v]]
               for x in range(g1.order) for v in values)


def pushforward(chi: GroupMap, e: Cocycle2) -> Cocycle2:
    """chi . e: the table values move to chi's codomain."""
    return Cocycle2(g1=chi.cod, g2=e.g2, table=tuple(
        tuple(map(chi.images.__getitem__, row)) for row in e.table))


def pullback(e: Cocycle2, rho: GroupMap) -> Cocycle2:
    """e . (rho x rho): both point arguments routed through rho."""
    im = rho.images
    return Cocycle2(g1=e.g1, g2=rho.dom, table=tuple(
        tuple(map(e.table[y].__getitem__, im)) for y in im))


# ---------------------------------------------------------------------------
# the cocycle space


@dataclass(frozen=True)
class CocycleSpace:
    """Z^2, B^2 and H^2 over a fixed pair (g1, g2).

    class_representatives holds one cocycle per H^2 class, ordered with
    the trivial class first; each representative is the
    lexicographically least table in its coset.  z2_generators and
    b2_generators are written out on first access.
    """

    g1: FiniteGroup
    g2: FiniteGroup
    h2_invariant_factors: tuple[int, ...]
    class_representatives: tuple[Cocycle2, ...]
    z2_order: int
    b2_order: int

    @cached_property
    def z2_generators(self) -> tuple[Cocycle2, ...]:
        """Each Z^2 row of each coordinate, in that coordinate."""
        return _coordinate_tables(self.g1, self.g2, lambda d: _expand(
            self.g2, d, _solve_coordinate(self.g2, d).z_columns))

    @cached_property
    def b2_generators(self) -> tuple[Cocycle2, ...]:
        """The coboundary of each map sending one point w to a
        coordinate unit and the rest to 0."""
        n2 = self.g2.order
        units = [_unit_coboundary(self.g2, w, range(1, n2))
                 for w in range(1, n2)]
        return _coordinate_tables(self.g1, self.g2, lambda d: (
            [psi.get(i, 0) % d for i in range((n2 - 1) ** 2)]
            for psi in units))

    @property
    def h2_order(self) -> int:
        return math.prod(self.h2_invariant_factors)

    def to_dict(self) -> dict:
        return {
            "g1": self.g1.to_dict(),
            "g2": self.g2.to_dict(),
            "z2_order": self.z2_order,
            "b2_order": self.b2_order,
            "h2_order": self.h2_order,
            "h2_invariant_factors": list(self.h2_invariant_factors),
            "z2_generators": [[list(r) for r in c.table]
                              for c in self.z2_generators],
            "b2_generators": [[list(r) for r in c.table]
                              for c in self.b2_generators],
            "class_representatives": [[list(r) for r in c.table]
                                      for c in self.class_representatives],
        }


@lru_cache(maxsize=None)
def _hopf_system(g2: FiniteGroup):
    """Hopf's formula H^2(g2, A) = Hom(R, A)^F / Hom(F, A), A trivial,
    F free on the k generators and R the kernel of F -> g2 (Brown,
    Cohomology of Groups, GTM 87).  Returns the breadth-first tree of
    the right Cayley graph from 1, edges (y, i, ys) for s =
    g2.generators[i] in the order found; the generator column
    (y - 1) k + i of each chord, an edge (y, i) off the tree; and the
    equations.  With t_y the tree word to y, the chords give the
    Schreier generators r_{y,s} = t_y s t_{ys}^-1, a free basis of R
    (Reidemeister-Schreier): n(k - 1) + 1 unknowns f(r_{y,s}).  A row
    states f(x r x^-1) = f(r) for a generator x and a chord, rewriting
    x r_{y,s} x^-1 from the coset x as P(x, y) + r(xy, s) - P(x, ys) -
    r(y, s) (Holt, Eick & O'Brien, Handbook of Computational Group
    Theory): r(c, s) is the unknown of the edge (c, s), 0 on the tree,
    and P(x, c) those met along t_c from x.  An invariant f gives the
    cocycle e(g, h) = f(t_g t_h t_{gh}^-1), and each class has one; as
    t_s = s and t_y s = t_{ys} on the tree, its column e(y, s) is
    f(r_{y,s}) on a chord and 0 on a tree edge: Z^2 in columns is B^2
    plus the kernel at the chord columns."""
    gens, mul = g2.generators, g2.table
    reached = [True] + [False] * (g2.order - 1)
    tree, chords, queue = [], [], [0]
    for y in queue:
        for i, s in enumerate(gens):
            if reached[ys := mul[y][s]]:
                chords.append((y, i))
            else:
                reached[ys] = True
                tree.append((y, i, ys))
                queue.append(ys)
    r = {edge: (u,) for u, edge in enumerate(chords)}   # () on the tree
    rows = []
    for x in gens:
        # P(x, .) as tuples: a tree word meets no edge twice
        rewrite = [()] * g2.order
        for y, i, ys in tree:
            rewrite[ys] = rewrite[y] + r.get((mul[x][y], i), ())
        for y, i in chords:
            row = Counter(rewrite[y] + r.get((mul[x][y], i), ()))
            row.subtract(rewrite[mul[y][gens[i]]] + r[y, i])
            if row := {u: c for u, c in row.items() if c}:
                rows.append(row)
    return tuple(tree), tuple((y - 1) * len(gens) + i for y, i in chords), rows


@dataclass(frozen=True)
class _Coordinate:
    """Z^2 and the H^2 classes of one invariant factor d of g1 over g2:
    z_columns, Z^2's pivot rows in generator columns (_expand writes a
    row out over the pair slots), and one member of each class over the
    pair slots."""

    z_columns: tuple[tuple[int, ...], ...]
    z_order: int
    b_order: int
    factors: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]


def _expand(g2: FiniteGroup, d: int, vecs):
    """Per vector of values mod d at the generator columns, the values
    mod d at the pair slots (h, g), row-major, of the cocycle it fixes:
    down each tree edge (y, s) of _hopf_system, the identity at (x, y, s)
    gives column ys as e(x, ys) = e(x, y) + e(xy, s) - e(y, s), and
    column 1 is zero.  Such a table is a cocycle once the identity holds
    for the last arguments in g2.generators (Light's argument): on
    g1 x g2 put (a, h)(b, k) = (a + b + e(h, k), hk), associative exactly
    when e is a cocycle.  The z with (xy)z = x(yz) for all x, y are
    closed under the product, as (xy)(z z') = ((xy)z)z' = (x(yz))z' =
    x((yz)z') = x(y(z z')); they include every (a, 1) by normalization
    and every (0, s) by the identity at the generators, and these
    generate g1 x g2.  Only commuting values are needed, so this holds
    in the abelian subgroup of g1 that they generate."""
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


@lru_cache(maxsize=None)
def _solve_coordinate(g2: FiniteGroup, d: int) -> _Coordinate:
    # Z^2 in columns: B^2, then Hopf's kernel placed at the chord columns
    ncols = len(_generator_columns(g2))
    _, chords, equations = _hopf_system(g2)
    kept, columns = _row_space(equations, len(chords), d)
    kernel, b = columns.tail(len(kept)), _coboundary_lattice(g2, d).head(ncols)
    z2 = IntLattice(ncols, d, [b.pivot_rows[p] for p in sorted(b.pivot_rows)]
                    + [{chords[u]: c for u, c in kernel.pivot_rows[p].items()}
                       for p in sorted(kernel.pivot_rows)])
    z = [z2.dense_row(p) for p in sorted(z2.pivot_rows)]
    z_order = d ** ncols // z2.index_in_ambient()
    b_order = d ** ncols // b.index_in_ambient()

    # H^2 = Z^2 / B^2 is generated by the residues of the Z^2 rows mod
    # B^2; its relations are the vectors c with sum c_i res_i in B^2
    residues = [res for res in map(b.reduce, z) if any(res)]
    k = len(residues)
    rel = IntLattice(ncols + k, d, b.pivot_rows.values())
    for i, res in enumerate(residues):
        rel.add(res + [int(j == i) for j in range(k)])
    quot = rel.tail(ncols)
    if quot.index_in_ambient() != z_order // b_order:
        raise AssertionError("|H^2| disagrees with |Z^2| / |B^2|")
    diag = smith_normal_form(IntMatrix.from_rows(quot.hnf_rows())).s.diagonal

    # the box of the relation lattice's pivots, one residue at a time
    classes = [[0] * (g2.order - 1) ** 2]
    for j, res in enumerate(_expand(g2, d, residues)):
        classes = [[(x + c * y) % d for x, y in zip(vec, res)] if c else vec
                   for vec in classes for c in range(quot.pivot(j))]
    return _Coordinate(z_columns=tuple(map(tuple, z)),
                       z_order=z_order, b_order=b_order,
                       factors=tuple(x for x in diag if x > 1),
                       classes=tuple(map(tuple, classes)))


def _least_in_coset(lattices, vecs, element_of):
    """Element indices, slot by slot, of the lex-least member of the
    coset of vecs mod the lattices, one coordinate vector and one
    IntLattice per invariant factor.  In a Howell basis the members that
    agree before slot i differ there by the multiples of the pivot, the
    freedom left lying in the rows below; so each pivot slot, in order,
    takes its least admissible element index, fixed by adding that
    multiple of row i, and the other slots are forced.  A row at slot i
    changes only slots from i on, so each slot is read once at the end."""
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


@lru_cache(maxsize=None)
def _coboundary_pivots(g2: FiniteGroup, d: int):
    """The pivots {slot i: (g_i, tau_i)} of B^2 mod d over the pair slots
    (h, g), h, g != 1, row-major, found in the n - 1 values of a map t:
    K_i, the t (lists over g2, t(1) = 0) with psi_t(h, g) = t(h) + t(g) -
    t(hg) zero before slot i, is kept as a generating set, K_0 by the
    unit maps.  The value L_i at slot i maps K_i onto the ideal <g_i>
    that d and L_i of the generators span, by Howell's property the
    pair-slot pivot at i.  If g_i < d, an xgcd combination tau_i has L_i
    = g_i, and K_{i+1} = ker L_i is spanned by (d / g_i) tau_i and each
    kappa - q tau_i, L_i(kappa) = q g_i, as sum c_j kappa_j in it is sum
    c_j (kappa_j - q_j tau_i) + (sum c_j q_j) tau_i, g_i sum c_j q_j = 0
    mod d.  So |K_i| / |K_{i+1}| = d / g_i, whose product is |K_0| / |K_i|
    = |B^2| / |psi(K_i)|: it reaches |B^2| just when K_i = Hom(g2, Z/d),
    where psi vanishes, so no later slot has a pivot."""
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
        raise AssertionError("the pivots fall short of |B^2|")
    return pivots


def _least_tables(g2: FiniteGroup, pres, classes):
    """Each class's lex-least table, sorted, from a member vecs[f] over the
    pair slots per factor f: _least_in_coset's greedy over the pivots of
    _coboundary_pivots, in one map t per factor.  Members agreeing with
    vecs + psi_t before slot i take cur + <g_i> there; the least index
    (0 if admissible) is fixed by t += q tau_i, keeping earlier slots."""
    factors, n2 = pres.invariant_factors, g2.order
    pivots = [_coboundary_pivots(g2, d) for d in factors]
    element = lru_cache(maxsize=None)(pres.element_of)
    codes = [element(c) for c in itertools.product(*map(range, factors))]
    slots = [(h, g, hg) for h in range(1, n2)
             for g, hg in enumerate(g2.table[h]) if g]
    tables = []
    for vecs in classes:
        maps = [[0] * n2 for _ in factors]
        for i in sorted(set().union(*pivots)):
            h, g, hg = slots[i]
            cur = [(v[i] + t[h] + t[g] - t[hg]) % d
                   for v, t, d in zip(vecs, maps, factors)]
            steps = [p[i][0] if i in p else d for p, d in zip(pivots, factors)]
            starts = [c % s for c, s in zip(cur, steps)]
            best = min(itertools.product(*map(range, starts, factors, steps)),
                       key=element) if any(starts) else (0,) * len(factors)
            for t, p, c, x, d in zip(maps, pivots, cur, best, factors):
                if x != c:
                    q = (x - c) // p[i][0]
                    t[:] = [(u + q * v) % d for u, v in zip(t, p[i][1])]
        code = [0] * len(slots)
        for v, t, d in zip(vecs, maps, factors):
            code = [c * d + (x + t[h] + t[g] - t[hg]) % d
                    for c, x, (h, g, hg) in zip(code, v, slots)]
        tables.append(_table_from_values(n2, map(codes.__getitem__, code)))
    return sorted(tables)


def _table_from_values(n2, values):
    """The normalized n2 x n2 table with values at the pair slots."""
    it = iter(values)
    return ((0,) * n2,) + tuple((0, *itertools.islice(it, n2 - 1))
                                for _ in range(1, n2))


@lru_cache(maxsize=None)
def compute_cocycle_space(g1: FiniteGroup, g2: FiniteGroup) -> CocycleSpace:
    """Z^2, B^2, H^2 and each class's lex-least table (_least_tables),
    via lattices mod each invariant factor of g1."""
    if not g1.is_abelian:
        raise NotAbelianCoefficients(
            "cohomology here takes abelian coefficients")
    pres = abelian_invariants(g1)
    coords = [_solve_coordinate(g2, d) for d in pres.invariant_factors]

    # the lex-least table per class; one class is B^2 itself
    classes = list(itertools.product(*(c.classes for c in coords)))
    rep_tables = _least_tables(g2, pres, classes) if len(classes) > 1 else [
        trivial_cocycle(g1, g2).table]
    if rep_tables[0] != trivial_cocycle(g1, g2).table:
        raise AssertionError("the trivial class is not listed first")
    return CocycleSpace(g1=g1, g2=g2,
                        h2_invariant_factors=_merge_invariant_factors(
                            [f for c in coords for f in c.factors]),
                        class_representatives=tuple(
                            Cocycle2(g1=g1, g2=g2, table=t)
                            for t in rep_tables),
                        z2_order=math.prod(c.z_order for c in coords),
                        b2_order=math.prod(c.b_order for c in coords))


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
    tables = (_table_from_values(g2.order, map(elements[ci].__getitem__,
                                               values))
              for ci, d in enumerate(factors) for values in values_of(d))
    return tuple(Cocycle2(g1=g1, g2=g2, table=t)
                 for t in dict.fromkeys(tables) if any(map(any, t)))


def _merge_invariant_factors(factors) -> tuple[int, ...]:
    """The invariant factors of the sum of the Z/f: as Z/a + Z/b = Z/gcd +
    Z/lcm, (f_i, f_j) -> (gcd, lcm), i < j, leaves f_i dividing each f_j."""
    f = list(factors)
    for i, j in itertools.combinations(range(len(f)), 2):
        f[i], f[j] = math.gcd(f[i], f[j]), math.lcm(f[i], f[j])
    return tuple(x for x in f if x > 1)


def sim_is_trivial(g2: FiniteGroup) -> bool:
    """Whether g2 has no nontrivial self-coboundary: no normalized map
    t: g2 -> g2 whose coboundary psi_t(h, g) = t(g) t(hg)^-1 t(h) is a
    nontrivial central-valued cocycle.  This holds exactly when
    g2.order <= 2 or the center of g2 is trivial.

    If the center is trivial, every central-valued table is trivial.  If
    z != 1 is central, pick w != 1 and let t(w) = z, t = 1 elsewhere:
    psi_t takes central values, so it satisfies the cocycle identity,
    and psi_t(w, g) = z for any g outside {1, w}, which exists once
    g2.order >= 3.  Over an order-2 group {1, a} the only nontrivial t
    has t(a) = a, and psi_t(a, a) = a^2 = 1.
    """
    return g2.order <= 2 or len(center(g2).members) == 1
