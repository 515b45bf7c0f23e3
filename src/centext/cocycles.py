"""Normalized 2-cocycles with trivial action, coboundaries, and the
second cohomology group.

A cocycle over (g1, g2) is stored as a g2.order x g2.order table of
g1-element indices.  The coefficient group g1 must be abelian for the
space computations (the general table type also carries the
g2-coefficient cocycles used by composition lemmas, where no group
structure on the value set is needed beyond the identity check).

Everything linear runs mod each invariant factor d of g1, in the
k(n-1) generator columns e(x, s), x != 1 and s among the k generators
of a quotient of order n, which fix a cocycle (the _cocycle_columns
proof).  Z^2 is the kernel of the cocycle identity there, eliminated
from its sparse equations in IntLattice, which keeps sparse pivot
rows.  One lattice per (g2, d), _coboundary_lattice, holds the unit
coboundaries with their coefficients: its head is B^2 in columns, whose
Howell basis reduces a cocycle to a canonical key of its class, and its
tail is Hom(g2, Z/d).  H^2 is a small Smith normal form of the
relations among the Z^2 rows mod that head.  are_cohomologous reduces
e2 - e1 once per factor and reads a witness off the tail.  Pair slots
(h, g) appear only in written-out tables: the lex-least representatives
and witnesses come from one greedy pass over the pivot slots of Hom, or
of B^2 over the pair slots, and the Z^2 and B^2 generator tables are
written out on first access.  The dense elimination and the
slot-by-slot pass that these replaced are kept as test oracles in
tests/oracles.py.
"""

from __future__ import annotations

import itertools
import math
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
        n2 = self.g2.order
        if len(self.table) != n2 or any(len(r) != n2 for r in self.table):
            raise DimensionMismatch("cocycle table must be g2.order square")
        for row in self.table:
            for v in row:
                if not 0 <= v < self.g1.order:
                    raise ValueError(f"cocycle value {v} outside g1")
        for y in range(n2):
            if self.table[y][0] != 0 or self.table[0][y] != 0:
                raise NotNormalized(
                    f"cocycle not normalized at ({y},0)/(0,{y})")

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
    in an abelian subgroup of g1, and the _cocycle_columns proof shows
    that the identity for every last argument k follows from the
    identity for k in g2.generators; so only those are tested.
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
    form x0 + Hom(g2, Z/d), Hom being the tail in Howell form, so
    _least_in_coset reads off the one least image array (t(1), ...,
    t(n-1)) in element indices, whichever x0 was found.  The map is
    checked against e1 and e2 before it is returned.
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
    solutions, kernels = [], []
    for ci, d in enumerate(pres.invariant_factors):
        lattice = _coboundary_lattice(g2, d)
        red = lattice.reduce([diff[x][s][ci] for x, s in columns]
                             + [0] * (n2 - 1))
        if any(red[:len(columns)]):
            return None
        x0 = [0] + [-y % d for y in red[len(columns):]]
        # b at pair (h, g) must be x0(g) - x0(hg) + x0(h)
        if any((x0[g] - x0[hg] + x0[h] - diff[h][g][ci]) % d
               for h in range(1, n2) for g, hg in enumerate(g2.table[h])):
            return None
        solutions.append(x0[1:])
        kernels.append(lattice.tail(len(columns)))
    images = _least_in_coset(kernels, solutions, pres.element_of)
    t = GroupMap(dom=g2, cod=g1, images=(0,) + tuple(images))
    if apply_coboundary(t, e1).table != e2.table:
        raise ConditionsFailed("the solved map is not a coboundary witness")
    return CoboundaryWitness(t=t)


@lru_cache(maxsize=None)
def _generator_columns(g2: FiniteGroup):
    """The pairs (x, s), x != 1 and s in g2.generators, x-major: the
    k(n-1) generator columns, in the order of _cocycle_columns."""
    return tuple((x, s) for x in range(1, g2.order) for s in g2.generators)


def _unit_coboundary(g2: FiniteGroup, w: int, slots):
    """psi_w(h, g) = [g = w] - [hg = w] + [h = w] over the slots (h, g),
    as a sparse row {slot index: value}: the coboundary of the map
    sending w to 1 and the rest to 0."""
    return {i: v for i, (h, g) in enumerate(slots)
            if (v := (g == w) - (g2.table[h][g] == w) + (h == w))}


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
    n2, columns = g2.order, _generator_columns(g2)
    k = len(columns)
    return IntLattice(k + n2 - 1, d, ({**_unit_coboundary(g2, w, columns),
                                      k + w - 1: 1} for w in range(1, n2)))


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
    equations of _cocycle_columns: the indexes S of the rows that grew
    R's row lattice, added in order, and the echelon form of the rows
    [R_S e_w | e_w], one per column w.  R_S spans R's row lattice, so it
    has R's kernel mod d, which is columns.tail(len(S)).  A chain of
    submodules of (Z/d)^ncols has at most ncols * Omega(d) steps (prime
    factors with multiplicity), so no row is wider than
    (1 + Omega(d)) * ncols.  Both eliminations feed IntLattice sparse
    rows; the dense elimination is kept in the tests as an oracle."""
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
        tuple(chi.images[v] for v in row) for row in e.table))


def pullback(e: Cocycle2, rho: GroupMap) -> Cocycle2:
    """e . (rho x rho): both point arguments routed through rho."""
    im, n = rho.images, rho.dom.order
    return Cocycle2(g1=e.g1, g2=rho.dom, table=tuple(
        tuple(e.table[im[y]][im[yp]] for yp in range(n)) for y in range(n)))


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
        forms = _cocycle_columns(self.g2)[0]
        return _coordinate_tables(self.g1, self.g2, (
            (ci, _expand(forms, vec, d))
            for ci, d in enumerate(abelian_invariants(self.g1)
                                   .invariant_factors)
            for vec in _solve_coordinate(self.g2, d).z_columns))

    @cached_property
    def b2_generators(self) -> tuple[Cocycle2, ...]:
        """The coboundary of each map sending one point w to a
        coordinate unit and the rest to 0."""
        n2, slots = self.g2.order, _pair_slots(self.g2)
        return _coordinate_tables(self.g1, self.g2, (
            (ci, [psi.get(i, 0) % d for i in range(len(slots))])
            for ci, d in enumerate(abelian_invariants(self.g1)
                                   .invariant_factors)
            for psi in (_unit_coboundary(self.g2, w, slots)
                        for w in range(1, n2))))

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
def _cocycle_columns(g2: FiniteGroup):
    """The cocycle identity over g2 in generator columns.  A normalized
    cocycle is fixed by its k(n-1) values u(x, s_i) = e(x, s_i), x != 1
    and s_i in g2.generators, at index (x - 1) k + i.  Returns the
    linear form {unknown: coefficient} of each nonidentity pair slot
    (h, g), in row-major order, the number of unknowns, and the
    equations among them as sparse rows.

    A breadth-first tree of the right Cayley graph reaches each y != 1
    by edges y -> ys.  Along a tree edge (y, s) the identity at
    (x, y, s), e(x, ys) = e(x, y) + e(xy, s) - e(y, s), writes column ys
    through column y and the generator column s; column 1 is zero, and
    so is every form at x = 1.  Each other edge (y, s) gives that
    identity as one equation per x != 1.  So the solutions are exactly
    the normalized tables that satisfy the identity for every last
    argument in g2.generators, and by Light's argument on the last
    factor these are all the cocycles.  On g1 x g2 put (a, h)(b, k) =
    (a + b + e(h, k), hk), associative exactly when e is a cocycle.
    The z with (xy)z = x(yz) for all x, y are closed under the product:
    (xy)(z z') = ((xy)z)z' = (x(yz))z' = x((yz)z') = x(y(z z')), each
    step one of the two hypotheses.  Normalization makes every (a, 1)
    such a z, the equations every (0, s) with s a generator, and their
    products give all of g1 x g2 as g2 is finite.  This needs only
    that the values commute, so it holds in the abelian subgroup of g1
    that they generate.
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
            form = [_combine((1, col_y[x]), (1, col_s[mul[x][y]]),
                             (-1, col_s[y])) for x in range(n2)]
            ys = mul[y][s]
            if cols[ys] is None:
                cols[ys] = form
                queue.append(ys)
                continue
            for x in range(1, n2):
                row = _combine((1, form[x]), (-1, cols[ys][x]))
                if row:
                    rows.append(row)
    forms = [cols[g][h] for h in range(1, n2) for g in range(1, n2)]
    return forms, k * (n2 - 1), rows


def _combine(*terms):
    """The sparse linear form sum(sign * form) over (sign, form) terms."""
    out = {}
    for sign, form in terms:
        for u, v in form.items():
            out[u] = out.get(u, 0) + sign * v
    return {u: v for u, v in out.items() if v}


@dataclass(frozen=True)
class _Coordinate:
    """Z^2 and the H^2 classes of one invariant factor d of g1 over g2:
    z_columns spans Z^2 in generator columns (_expand writes a row out
    over the pair slots), and classes holds one member of each class
    over the pair slots."""

    z_columns: tuple[tuple[int, ...], ...]
    z_order: int
    b_order: int
    factors: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]


def _expand(forms, vec, d):
    """The values mod d at the pair slots of the cocycle with the values
    vec at the generator columns, through the forms of _cocycle_columns."""
    return tuple(sum(c * vec[u] for u, c in form.items()) % d
                 for form in forms)


@lru_cache(maxsize=None)
def _solve_coordinate(g2: FiniteGroup, d: int) -> _Coordinate:
    forms, nunknowns, equations = _cocycle_columns(g2)
    # in generator columns Z^2 is the kernel of the equations and B^2 the
    # head of the coboundary lattice; the forms expand them to pair slots
    kept, columns = _row_space(equations, nunknowns, d)
    kernel = columns.tail(len(kept))
    z = [kernel.dense_row(p) for p in sorted(kernel.pivot_rows)]
    b = _coboundary_lattice(g2, d).head(nunknowns)
    z_order = d ** nunknowns // kernel.index_in_ambient()
    b_order = d ** nunknowns // b.index_in_ambient()

    # H^2 = Z^2 / B^2 is generated by the residues of the Z^2 rows mod
    # B^2; its relations are the vectors c with sum c_i res_i in B^2
    residues = [res for res in map(b.reduce, z) if any(res)]
    k = len(residues)
    rel = IntLattice(nunknowns + k, d, b.pivot_rows.values())
    for i, res in enumerate(residues):
        rel.add(res + [int(j == i) for j in range(k)])
    quot = rel.tail(nunknowns)
    if quot.index_in_ambient() != z_order // b_order:
        raise AssertionError("|H^2| disagrees with |Z^2| / |B^2|")
    diag = smith_normal_form(IntMatrix.from_rows(quot.hnf_rows())).s.diagonal

    # one vector per class: the box of the relation lattice's pivots
    residues = [_expand(forms, res, d) for res in residues]
    classes = []
    for coeffs in itertools.product(*(range(quot.pivot(j)) for j in range(k))):
        vec = [0] * len(forms)
        for c, res in zip(coeffs, residues):
            vec = [(x + c * y) % d for x, y in zip(vec, res)]
        classes.append(tuple(vec))
    return _Coordinate(z_columns=tuple(map(tuple, z)),
                       z_order=z_order, b_order=b_order,
                       factors=tuple(x for x in diag if x > 1),
                       classes=tuple(classes))


def _least_in_coset(lattices, vecs, element_of):
    """Element indices, slot by slot, of the lex-least member of the
    coset of vecs mod the lattices: one coordinate vector and one
    IntLattice per invariant factor, mod that lattice's modulus.

    In a Howell basis, the coset members that agree on the slots before
    i differ at slot i by exactly the multiples of the lattice's pivot
    there, and the freedom left lies in the rows below i; so each slot
    takes its least element index among those admissible coordinate
    tuples, fixed by adding that multiple of row i.  A slot where no
    lattice stores a row has one admissible tuple, so only the pivot
    slots are visited, in increasing order; a row at slot i changes
    only slots from i on, so every slot is then read once from the
    final vectors.  The slot-by-slot pass is kept in the tests as an
    oracle."""
    element = lru_cache(maxsize=None)(element_of)
    vecs = [list(v) for v in vecs]
    for i in sorted(set().union(*(lat.pivot_rows for lat in lattices))):
        best = min(itertools.product(*(
            range(v[i] % lat.pivot(i), lat.modulus, lat.pivot(i))
            for lat, v in zip(lattices, vecs))), key=element)
        for lat, v, x in zip(lattices, vecs, best):
            if x != v[i]:
                q = (x - v[i]) // lat.pivot(i)
                for j, r in lat.pivot_rows[i].items():
                    v[j] = (v[j] + q * r) % lat.modulus
    return [element(c) for c in zip(*vecs)]


def _table_from_values(n2, values):
    """The normalized n2 x n2 table with values at the pair slots."""
    it = iter(values)
    return tuple(tuple(next(it) if h and g else 0 for g in range(n2))
                 for h in range(n2))


@lru_cache(maxsize=None)
def compute_cocycle_space(g1: FiniteGroup, g2: FiniteGroup) -> CocycleSpace:
    """Z^2, B^2, H^2 with class representatives, via lattices mod each
    invariant factor of g1."""
    if not g1.is_abelian:
        raise NotAbelianCoefficients(
            "cohomology here takes abelian coefficients")
    n2 = g2.order
    pres = abelian_invariants(g1)
    coords = [_solve_coordinate(g2, d) for d in pres.invariant_factors]

    # per class the lex-least table in its coset of B^2 over the pair
    # slots, spanned by the unit coboundaries; one class is B^2 itself
    classes = list(itertools.product(*(c.classes for c in coords)))
    rep_tables = [trivial_cocycle(g1, g2).table]
    if len(classes) > 1:
        slots = _pair_slots(g2)
        units = [_unit_coboundary(g2, w, slots) for w in range(1, n2)]
        b2 = [IntLattice(len(slots), d, units)
              for d in pres.invariant_factors]
        rep_tables = sorted(
            _table_from_values(n2, _least_in_coset(b2, vecs, pres.element_of))
            for vecs in classes)
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


def _pair_slots(g2: FiniteGroup):
    """The nonidentity pair slots (h, g), row-major."""
    return list(itertools.product(range(1, g2.order), repeat=2))


def _coordinate_tables(g1: FiniteGroup, g2: FiniteGroup, rows):
    """Per (ci, values) in rows, the table with the values, each in
    [0, d), at the pair slots in coordinate ci of g1 (of factor d) and 0
    in the others; first occurrences kept and trivial tables dropped."""
    pres = abelian_invariants(g1)
    factors = pres.invariant_factors
    elements = [[pres.element_of([v * (i == ci)
                                  for i in range(len(factors))])
                 for v in range(d)] for ci, d in enumerate(factors)]
    tables = (_table_from_values(g2.order, map(elements[ci].__getitem__,
                                               values))
              for ci, values in rows)
    return tuple(Cocycle2(g1=g1, g2=g2, table=t)
                 for t in dict.fromkeys(tables) if any(map(any, t)))


def _merge_invariant_factors(factors) -> tuple[int, ...]:
    """Recombine a multiset of cyclic orders into a divisibility chain:
    the invariant factors of the diagonal matrix they form."""
    diag = smith_normal_form(IntMatrix.from_rows(
        [[f * (i == j) for j in range(len(factors))]
         for i, f in enumerate(factors)])).s.diagonal
    return tuple(x for x in diag if x > 1)


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
