"""Normalized 2-cocycles with trivial action, coboundaries, and the
second cohomology group.

A cocycle over (g1, g2) is stored as a g2.order x g2.order table of
g1-element indices.  The coefficient group g1 must be abelian for the
space computations (the general table type also carries the
g2-coefficient cocycles used by composition lemmas, where no group
structure on the value set is needed beyond the identity check).

Everything linear runs mod each invariant factor d of g1, in the
k(n-1) generator columns e(x, s), x != 1 and s among the k generators
of a quotient of order n, which fix a cocycle (the _expand proof).
Hopf's formula gives H^2 = K / U with no further elimination: K, the
kernel of one sparse equation per (generator, Schreier generator),
eliminated once in an IntLattice and read off its rows
(IntLattice.kernel), and U, one row u_j per generator (_hopf_system,
_solve_coordinate), held with Hom(g2, Z/d) in one lattice of the rows
[u_j | e_j] (_free_homs); H^2's factors are those of its relations'
lattice (IntLattice.invariant_factors).  A class key (_class_key) maps
column values to the Schreier generators mod U; the map sends B^2 onto
U, so keys agree exactly on cohomologous cocycles, and unequal keys
prove any two tables not cohomologous.
are_cohomologous compares the keys memoized on both cocycles (_keyed),
then reads a witness t off the same reduction (_reduced, _witness),
checked at the columns alone when e1 and e2 are cocycles, as
psi_t * e1 and e2 are then normalized cocycles, fixed by their columns.
A Cocycle2 memoizes its pushed class keys by images (_keys),
is_cocycle's (ok, witness), run at most once (_identity, kept from
make_cocycle, read by build_extension), and isotest's carrier and
search states as a target (_memo).  One greedy, _least_values, picks
the values of the lex-least witnesses and representatives, over the
pivots of Hom at the points or of B^2 at the pair slots, found in the
n - 1 values of a map and only in the rows of g2's greedy sequence
(_coboundary_pivots).  Where every B^2 pivot is 1 the greedy is
linear, so it walks each residue of H^2's box once and the sums of the
walked residues are the representatives; elsewhere it walks each class
(compute_cocycle_space).  Pair slots appear only in tables written out,
read by index off g2's table (_PairSlots).  A vector over the pair
slots takes one byte a slot (_slots), as do the pivots' maps; a box
point is one int with a digit per slot, summed digit-wise in one add
(_box_points), and every table is cut from such an int (_Packing).
_element_values makes the witnesses' values elements.  The identity
system, the dense elimination, the transposed elimination for K, the
pair-slot B^2 lattice, the coset passes they replaced, the per-class
walk, the Z^2 and B^2 generator tables, the solver, keys and witnesses
that eliminated B^2 in generator columns, and the list-valued
pair-slot vectors are test oracles in tests/oracles.py.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from functools import cached_property, lru_cache

from .errors import (
    ConditionsFailed,
    DimensionMismatch,
    GroupMismatch,
    InternalInconsistency,
    NotAbelian,
    NotAbelianCoefficients,
    NotNormalized,
)
from .groups import (
    FiniteGroup,
    GroupMap,
    Record,
    _cayley_walk,
    center,
    trivial_map,
)
from .intlinalg import (
    IntLattice,
    _merge_invariant_factors,
    abelian_invariants,
    xgcd,
)


class Cocycle2(Record):
    """A normalized 2-cocycle table epsilon(y, y') in g1, for y, y' in g2.

    The constructor checks shape, range and normalization; the full
    cocycle identity is the job of is_cocycle, which untrusted inputs
    must pass through.  compute_cocycle_space and make_cocycle, whose
    docstrings prove those checks, skip them (Record._unchecked).
    """

    g1: FiniteGroup
    g2: FiniteGroup
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n2, table = self.g2.order, self.table
        _check_shape(self.g1, self.g2, table)
        if any(table[0]) or any(r[0] for r in table):
            y = next(y for y in range(n2) if table[y][0] or table[0][y])
            raise NotNormalized(f"cocycle not normalized at ({y},0)/(0,{y})")

    _keys = cached_property(lambda self: {})
    _memo = cached_property(lambda self: {})
    _identity = cached_property(lambda s: is_cocycle(s.g1, s.g2, s.table))

    def is_trivial(self) -> bool:
        return all(v == 0 for row in self.table for v in row)

    def to_dict(self) -> dict:
        return {"g1": self.g1.to_dict(), "g2": self.g2.to_dict(),
                "table": [list(r) for r in self.table]}


def trivial_cocycle(g1: FiniteGroup, g2: FiniteGroup) -> Cocycle2:
    return Cocycle2(g1=g1, g2=g2, table=tuple((0,) * g2.order
                                              for _ in range(g2.order)))


def _check_shape(g1: FiniteGroup, g2: FiniteGroup, table):
    """DimensionMismatch unless table is g2.order square, ValueError for a
    value outside range(g1.order): screened at C speed, the scan names
    the first offender."""
    n1, n2 = g1.order, g2.order
    if len(table) != n2 or any(len(r) != n2 for r in table):
        raise DimensionMismatch("cocycle table must be g2.order square")
    if min(map(min, table)) < 0 or max(map(max, table)) >= n1:
        v = next(v for row in table for v in row if not 0 <= v < n1)
        raise ValueError(f"cocycle value {v} outside g1")


def is_cocycle(g1: FiniteGroup, g2: FiniteGroup, table):
    """Check normalization plus the identity
    e(h,g)*e(hg,k) = e(g,k)*e(h,gk); returns (ok, witness) where the
    witness names the first failure: ("normalization", y) or
    ("identity", (h, g, k)).

    When the values commute pairwise (always, for abelian g1) they lie
    in an abelian subgroup of g1, and Light's argument (the _expand
    proof) shows that the identity for every last argument k follows
    from the identity for k in g2.generators; so only those are tested,
    and none on the zero table, where both sides are 0.  Only when one
    fails, or when two values do not commute, does the scan over all
    triples run, which names the first failing triple in row-major
    order.  A table of the wrong shape or range raises as Cocycle2 does
    (_check_shape).
    """
    _check_shape(g1, g2, table)
    n2 = g2.order
    for y in range(n2):
        if table[y][0] != 0 or table[0][y] != 0:
            return False, ("normalization", y)
    if not any(map(any, table)):
        return True, None   # both sides read mul[0][0] = 0
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
    entries, and wrap it; nothing is coerced.  A table that passed
    is_cocycle is g2.order square, in range(g1.order) and normalized, so
    it skips Cocycle2's scans (Record._unchecked)."""
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
    e = Cocycle2._unchecked(g1=g1, g2=g2, table=tab)
    e.__dict__["_identity"] = ok, witness   # build_extension reads it
    return e


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


class CoboundaryWitness(Record):
    """The map t with e2 = (coboundary of t) * e1."""

    t: GroupMap


def are_cohomologous(e1: Cocycle2, e2: Cocycle2):
    """The lex-least witness t with e2 = psi_t * e1, or None.

    psi_t(h, g) = t(g) - t(hg) + t(h) is linear in t, so per invariant
    factor d of g1 the question is whether the coordinate b of e2 - e1
    is psi_x for some x mod d.  The class keys, memoized on each
    cocycle (_keyed), come first: a key is f(e) mod U for a linear f
    with f(B^2) = U (_class_key), so tables with unequal keys are not
    cohomologous, cocycles or not, and None comes at once.  On cocycles
    equal keys mean cohomologous; on tables that are no cocycles they
    prove nothing, and the witness check decides.  _witness then walks
    once to the least witness and checks it, at the columns if both
    inputs are known cocycles (_identity), else on the tables.
    """
    _same_groups(e1, e2)
    if not e1.g1.is_abelian:
        raise NotAbelian("cohomologous test needs abelian coefficients")
    if _keyed(e1) != _keyed(e2):
        return None
    values = _column_values(e1.g1, e1.g2)
    known = all(e.__dict__.get("_identity", (False,))[0] for e in (e1, e2))
    return _witness(e1.g1, e1.g2, values(e1.table), values(e2.table),
                    None if known else (e1.table, e2.table))


def _witness(g1: FiniteGroup, g2: FiniteGroup, v1, v2, tables=None):
    """are_cohomologous from v1, v2, the values of e1, e2 at the generator
    columns, g1 abelian, for callers that have matched the class keys.
    At the columns alone, v1 = v2 makes the witnesses Hom, least at 0.
    Per factor d, b = v2 - v1 at the columns, tree-normalized as in the
    key, leaves b - psi_t with chord values z, and [z - sum a_j u_j |
    -a] (_reduced), whose chord part vanishes exactly when z lies in U,
    that is when b lies in B^2 in columns (_class_key), always for
    cocycles with equal keys.  Then z is the restriction to R of phi: F
    -> Z/d, phi(s_j) = a_j, and tau(y) = phi(t_y) (_hom_values) has
    psi_tau(y, s) = phi(t_y s t_ys^-1): z at the chords, 0 at the tree
    columns; so x0 = t + tau has psi_x0 = b at every column.  The
    witnesses form x0 + Hom(g2, Z/d), so one walk of _least_values over the
    pivots of Hom gives the least (t(1), ..., t(n-1)) whichever x0 was
    found, both made elements by _element_values, the map built unchecked,
    and one scan checks psi_t * e1 = e2, on the tables when given, else at
    the columns.  Only a failed scan rescans, with x0: as t - x0 lies in
    Hom, psi_t = psi_x0 unless the walk broke, so a passing x0 raises
    ConditionsFailed.  A failing x0 means no witness: a witness w has
    psi_w = b at the columns, so b lies in B^2 there, psi_(w - x0)
    vanishes there, w - x0 is a homomorphism and x0 a witness too; so
    tables scanned in full that are no cocycles give None."""
    if tables is None and v1 == v2:
        return CoboundaryWitness(t=trivial_map(g2, g1))
    n2, mul, inv, mul2 = g2.order, g1.table, g1.inverses, g2.table
    walk = _witness_walk(g1, g2)
    pres, columns = walk[0], _generator_columns(g2)
    b = [pres.coords[mul[y][inv[x]]] for x, y in zip(v1, v2)]
    solutions = []
    for ci, d in enumerate(pres.invariant_factors):
        t, _, a = _reduced(n2, _free_homs(g2, d), [c[ci] for c in b])
        solutions.append([(x - y) % d
                          for x, y in zip(t, _hom_values(g2, a))][1:])

    def fails(im):
        if tables is None:
            return any(mul[mul[mul[im[s]][inv[im[mul2[x][s]]]]][im[x]]][a] != c
                       for (x, s), a, c in zip(columns, v1, v2))
        return any(mul[mul[mul[im[g]][inv[im[hg]]]][th]][a] != c
                   for row, r1, r2, th in zip(mul2, *tables, im)
                   for g, hg, a, c in zip(range(n2), row, r1, r2))
    im = (0, *_element_values(walk, _least_values(walk, solutions)))
    if fails(im):
        if fails((0, *_element_values(walk, solutions))):
            return None
        raise ConditionsFailed("the solved map is not a coboundary witness")
    return CoboundaryWitness(t=GroupMap._unchecked(dom=g2, cod=g1, images=im))


@lru_cache(maxsize=None)
def _generator_columns(g2: FiniteGroup):
    """The pairs (x, s), x != 1 and s in g2.generators, x-major: the
    k(n-1) generator columns, which fix a cocycle (_expand)."""
    return tuple((x, s) for x in range(1, g2.order) for s in g2.generators)


@lru_cache(maxsize=None)
def _column_values(g1: FiniteGroup, g2: FiniteGroup):
    """values(table, sigma, rho), the values of sigma . e . (rho x rho)
    at the generator columns for image arrays sigma of g1 and rho of g2,
    each the identity when left out: equal values mean equal cocycles."""
    columns = _generator_columns(g2)

    def values(table, sigma=tuple(range(g1.order)),
               rho=tuple(range(g2.order))):
        return tuple([sigma[table[rho[x]][rho[s]]] for x, s in columns])
    return values


@lru_cache(maxsize=None)
def _class_key(g1: FiniteGroup, g2: FiniteGroup):
    """push(table, sigma, rho), the class key of the values of
    _column_values, and pull(table, rho) = push(table, identity, rho).
    Per invariant factor d of g1, the column values x are tree-normalized
    along _hopf_system's tree: t = 0 on the generators and t(ys) = t(y) -
    x(y, s) down each tree edge, so that x - psi_t vanishes at the tree
    columns; its chord values x(y, s) - t(y) + t(ys), reduced mod U
    (_reduced), one per coset, make the key, all factors in one flat
    tuple, () when there are no chords.  This map f is linear, and f(B^2)
    = U: a coboundary psi_tau that vanishes at the tree columns has
    tau(ys) = tau(y) + tau(s) down the tree, so tau(y) = phi(t_y) for the
    hom phi: F -> Z/d with phi(s) = tau(s), and at a chord psi_tau(y, s)
    = phi(t_y s t_ys^-1), the restriction of phi; the cocycle that Hopf's
    formula makes of phi's restriction is psi of y -> phi(t_y).  So
    cohomologous tables share a key, whether cocycles or not; and a
    cocycle e with f(e) in U is e - psi_t minus such a coboundary, a
    cocycle vanishing at every column, hence 0 (_expand): two cocycles
    share a key exactly when they are cohomologous.  Built once per
    pair."""
    coords = abelian_invariants(g1).coords
    values = _column_values(g1, g2)
    frees = [_free_homs(g2, d)
             for d in abelian_invariants(g1).invariant_factors]

    def push(table, sigma, rho=tuple(range(g2.order))):
        key = []
        for free, x in zip(frees, zip(*[
                coords[v] for v in values(table, sigma, rho)])):
            key += _reduced(g2.order, free, x)[1]
        return tuple(key)
    return push, lambda table, rho: push(table, range(g1.order), rho)


def _reduced(n2: int, free, x):
    """(t, z', -a) for column values x and free = _free_homs(g2, d): t
    is _class_key's tree normalization of x, and [z' | -a] is [z | 0],
    z the chord values of x - psi_t, reduced against free's lattice: so
    z' = z - sum a_j u_j, z's representative mod U (Howell)."""
    steps, ends, lattice = free
    t = [0] * n2
    for y, c, ys in steps:
        t[ys] = t[y] - x[c]
    r = lattice.reduce([x[c] - t[y] + t[ys] for c, y, ys in ends]
                       + [0] * (lattice.ncols - len(ends)))
    return t, r[:len(ends)], r[len(ends):]


def _keyed(e: Cocycle2, images=None):
    """The class key (_class_key) of e, or of sigma . e for images =
    sigma; memoized on e."""
    if (key := e._keys.get(images)) is None:
        key = e._keys[images] = _class_key(e.g1, e.g2)[0](
            e.table, range(e.g1.order) if images is None else images)
    return key


def apply_coboundary(t: GroupMap, e: Cocycle2) -> Cocycle2:
    """psi_t * e, the cohomologous cocycle with witness t."""
    psi = coboundary_from(t)
    return cocycle_mul(psi, e)


def is_epsilon_endomorphism(chi: GroupMap, e: Cocycle2) -> bool:
    """chi(x * e(y,y')) == chi(x) * chi(e(y,y')) for all x, y, y'.

    chi is a set map g1 -> g1; ordinary endomorphisms pass trivially.
    """
    if chi.dom != e.g1 or chi.cod != e.g1:
        raise GroupMismatch("chi must be a self-map of the coefficient group")
    return _epsilon_endomorphic(chi.images, e)


def _epsilon_endomorphic(im, e: Cocycle2) -> bool:
    """is_epsilon_endomorphism on the image array im of a self-map of
    e.g1."""
    values = {v for row in e.table for v in row}
    mul = e.g1.table
    return all(im[mul[x][v]] == mul[im[x]][im[v]]
               for x in range(e.g1.order) for v in values)


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


class CocycleSpace(Record):
    """Z^2, B^2 and H^2 over a fixed pair (g1, g2).

    class_representatives holds one cocycle per H^2 class, ordered with
    the trivial class first; each representative is the
    lexicographically least table in its coset.
    """

    g1: FiniteGroup
    g2: FiniteGroup
    h2_invariant_factors: tuple[int, ...]
    class_representatives: tuple[Cocycle2, ...]
    z2_order: int
    b2_order: int

    @property
    def h2_order(self) -> int:
        return math.prod(self.h2_invariant_factors)


@lru_cache(maxsize=None)
def _hopf_system(g2: FiniteGroup):
    """Hopf's formula H^2(g2, A) = Hom(R, A)^F / Hom(F, A), A trivial,
    F free on the k generators and R the kernel of F -> g2 (Brown,
    Cohomology of Groups, GTM 87).  Returns a spanning tree of the right
    Cayley graph from 1, edges (y, i, ys) for s = g2.generators[i], each
    y reached before its edge; the generator column (y - 1) k + i of
    each chord, an edge (y, i) off the tree; and the equations.  With
    t_y the tree word to y, the chords give the Schreier generators
    r_{y,s} = t_y s t_{ys}^-1, a free basis of R (Reidemeister-
    Schreier): n(k - 1) + 1 unknowns f(r_{y,s}).  A row states
    f(x r x^-1) = f(r) for a generator x and a chord, rewriting
    x r_{y,s} x^-1 from the coset x as P(x, y) + r(xy, s) - P(x, ys) -
    r(y, s) (Holt, Eick & O'Brien, Handbook of Computational Group
    Theory): r(c, s) is the unknown of the edge (c, s), 0 on the tree,
    and P(x, c) those met along t_c from x.  An invariant f gives the
    cocycle e(g, h) = f(t_g t_h t_{gh}^-1), and each class has one; as
    t_s = s and t_y s = t_{ys} on the tree, its column e(y, s) is
    f(r_{y,s}) on a chord and 0 on a tree edge: Z^2 in columns is B^2
    plus the kernel at the chord columns, and H^2 = K / U, U the
    restrictions of Hom(F, Z/d) (_free_homs).  The tree is that of
    _cayley_walk over the generators, each adjoined at 1 in turn: its
    first products s = 1 s and its tree steps, with its check steps as
    the chords, in walk order."""
    gens, mul = g2.generators, g2.table
    index = {s: i for i, s in enumerate(gens)}
    tree, chords = [], []
    for i, (x, steps, _) in enumerate(_cayley_walk(mul, gens, True)[1]):
        tree.append((0, i, x))
        for ys, y, s, new in steps:
            if new:
                tree.append((y, index[s], ys))
            else:
                chords.append((y, index[s]))
    r = {edge: (u,) for u, edge in enumerate(chords)}   # () on the tree
    rows = []
    for x in gens:
        # P(x, .) as tuples: a tree word meets no edge twice
        rewrite = [()] * g2.order
        for y, i, ys in tree:
            rewrite[ys] = rewrite[y] + r.get((mul[x][y], i), ())
        for y, i in chords:
            row = {}
            for u in rewrite[y] + r.get((mul[x][y], i), ()):
                row[u] = row.get(u, 0) + 1
            for u in rewrite[mul[y][gens[i]]] + r[y, i]:
                row[u] = row.get(u, 0) - 1
            if row := {u: c for u, c in row.items() if c}:
                rows.append(row)
    return tuple(tree), tuple((y - 1) * len(gens) + i for y, i in chords), rows


@lru_cache(maxsize=None)
def _free_homs(g2: FiniteGroup, d: int):
    """_hopf_system's tree as steps, its edges (y, column, ys) off the
    root in order, and ends, the chords (column, y, ys); and the lattice
    mod d of the rows [u_j | e_j] over the chords, then the generators.
    The hom phi with phi(s_j) = a_j takes r_{y,s} = t_y s t_{ys}^-1 to
    sum_j a_j (w_j(t_y) + [s = s_j] - w_j(t_{ys})), w_j counting s_j in
    a tree word (_hom_values at the unit e_j); u_j is that bracket at
    each chord, so the u_j span U.  The lattice holds the [sum a_j u_j |
    a], so by Howell's property its rows with pivot at a chord, cut to
    the chords, are a Howell basis of U, and its tail is the a with sum
    a_j u_j = 0, Hom(g2, Z/d), of index |U|."""
    tree, chords, _ = _hopf_system(g2)
    k, mul, gens = len(g2.generators), g2.table, g2.generators
    ends = [(c, c // k + 1, mul[c // k + 1][gens[c % k]]) for c in chords]
    words = [_hom_values(g2, [int(i == j) for i in range(k)])
             for j in range(k)]
    m = len(ends)
    return ([(y, (y - 1) * k + i, ys) for y, i, ys in tree if y], ends,
            IntLattice(m + k, d, ({m + j: 1, **{
                u: x for u, (c, y, ys) in enumerate(ends)
                if (x := w[y] + (c % k == j) - w[ys])}}
                for j, w in enumerate(words))))


def _hom_values(g2: FiniteGroup, a):
    """phi(t_y) = sum_j a_j w_j(t_y) at each y of g2, for the hom phi: F ->
    Z with phi(s_j) = a_j, summed down _hopf_system's tree."""
    tau = [0] * g2.order
    for y, i, ys in _hopf_system(g2)[0]:
        tau[ys] = tau[y] + a[i]
    return tau


class _Coordinate(Record):
    """The orders of Z^2 and B^2 and the H^2 classes of one invariant
    factor d of g1 over g2: the factors, and the box (_box_points), each
    relation's pivot with its residue over the pair slots (_slots).  A
    residue is one member of its class, not the least:
    compute_cocycle_space walks it to the least where B^2's pivots are
    units, outside this cached record, since _coboundary_pivots reads
    b_order from it."""

    z_order: int
    b_order: int
    factors: tuple[int, ...]
    box: tuple[tuple[int, bytearray | array], ...]


def _slots(d: int, values):
    """The ints values, each in [0, d), held compactly: a bytearray where d
    <= 256, else an array of C unsigned longs.  Every vector over the
    pair slots (h, g), h, g != 1, row-major, takes this form, and so does
    each tau_i of _coboundary_pivots; all are indexed, sliced and zipped
    as lists are."""
    return bytearray(values) if d <= 256 else array("L", values)


def _expand(g2: FiniteGroup, d: int, vecs):
    """Per vector of values mod d at the generator columns, the values
    mod d at the pair slots (h, g), row-major (_slots), of the cocycle it
    fixes: down each tree edge (y, s) of _hopf_system, the identity at
    (x, y, s) gives column ys as e(x, ys) = e(x, y) + e(xy, s) - e(y, s),
    and column 1 is zero.  Row 1 is zero by normalization, so a column
    is its values at x != 1, written into its strided slice of the
    row-major slots and read back from there as the tree leaves it: no
    other copy of the table is held.  Such a table is a cocycle once the
    identity holds for the last arguments in g2.generators (Light's
    argument): on
    g1 x g2 put (a, h)(b, k) = (a + b + e(h, k), hk), associative exactly
    when e is a cocycle.  The z with (xy)z = x(yz) for all x, y are
    closed under the product, as (xy)(z z') = ((xy)z)z' = (x(yz))z' =
    x((yz)z') = x(y(z z')); they include every (a, 1) by normalization
    and every (0, s) by the identity at the generators, and these
    generate g1 x g2.  Only commuting values are needed, so this holds
    in the abelian subgroup of g1 that they generate."""
    k, m = len(g2.generators), g2.order - 1
    by_column = [col[1:] for col in zip(*g2.table)]
    zeros = _slots(d, [0] * m)   # column 1
    for vec in vecs:
        gen_columns = [[0, *vec[i::k]] for i in range(k)]
        out = _slots(d, [0]) * (m * m)
        for y, i, ys in _hopf_system(g2)[0]:
            e_s = gen_columns[i]
            c = e_s[y]
            out[ys - 1::m] = _slots(d, [
                (a + e_s[xy] - c) % d
                for a, xy in zip(out[y - 1::m] if y else zeros, by_column[y])])
        yield out


@lru_cache(maxsize=None)
def _solve_coordinate(g2: FiniteGroup, d: int) -> _Coordinate:
    """H^2 = K / U by Hopf's formula, K the invariant f of _hopf_system,
    read off the one elimination of its rows (IntLattice.kernel), and U
    from _free_homs(g2, d); no further elimination.  Its relations are
    the c with sum c_i res_i in U, res_i the distinct nonzero residues of
    K's generators mod U, which generate H^2, and their lattice's
    invariant factors are H^2's (IntLattice.invariant_factors, merged
    pivots where its rows are pivot-only).  |U| = d^k / |Hom(g2, Z/d)|,
    the product of _free_homs' pivots at the e_j, as Hom(g2, Z/d) is the
    kernel of restricting Hom(F, Z/d) to R, the lattice's tail; so |B^2|
    = d^(n-1) / |Hom(g2, Z/d)| = d^(n-1) |U| / d^k, and |Z^2| = |B^2|
    |H^2|; |H^2| |U| = |K| is checked.  A class
    is a box point of the relations' pivots, sum c_i res_i (_box_points),
    each res_i placed at the chord columns with 0 on the tree columns
    (the cocycle _hopf_system makes of it) and written out by _expand; a
    residue of pivot 1 takes c_i = 0 only, so it is left out of the box."""
    ncols, n2 = len(_generator_columns(g2)), g2.order
    _, chords, equations = _hopf_system(g2)
    m, free = len(chords), _free_homs(g2, d)[2]
    rows = IntLattice(m, d, equations)
    kernel, k_order = rows.kernel(), rows.index_in_ambient()
    u_order = math.prod(map(free.pivot, range(m, free.ncols)))
    b_order = d ** (n2 - 1) * u_order // d ** len(g2.generators)

    # H^2 = K / U is generated by the residues of K's generators mod U;
    # its relations are the c with sum c_i res_i in U (free's rows, cut)
    zeros = [0] * (free.ncols - m)
    residues = [*dict.fromkeys(res for z in kernel if any(
        res := tuple(free.reduce(z + zeros)[:m])))]
    k = len(residues)
    rel = IntLattice(m + k, d, ({j: x for j, x in r.items() if j < m}
                                for r in free.pivot_rows.values()))
    for i, res in enumerate(residues):
        rel.add([*res, *(int(j == i) for j in range(k))])
    quot = rel.tail(m)
    if quot.index_in_ambient() * u_order != k_order:
        raise InternalInconsistency("|H^2| |U| disagrees with |K|")

    pivots, placed = [], []
    for i, res in enumerate(residues):
        if (pivot := quot.pivot(i)) > 1:
            vec = [0] * ncols
            for c, x in zip(chords, res):
                vec[c] = x
            pivots.append(pivot)
            placed.append(vec)
    return _Coordinate(z_order=b_order * quot.index_in_ambient(),
                       b_order=b_order,
                       factors=quot.invariant_factors(),
                       box=tuple(zip(pivots, _expand(g2, d, placed))))


# the array item sizes, each with a typecode of that size
_TYPECODES = {array(t).itemsize: t for t in "QLIHB"}


class _Packing:
    """Vectors over the pair slots packed into one int each, one w-byte
    digit per slot, read as the bytes of an array of w-byte items in
    slot order, in the machine's byte order: w is the least array item
    size that holds 2d - 2 for every invariant factor d of g1, and |g1|
    - 1.  Every class table is cut from such an int (table), and the box
    points are formed in it (_box_points), so that a slot costs w bytes,
    not a list entry and its int."""

    def __init__(self, g1: FiniteGroup, n2: int, factors, codes):
        self.w = w = min(size for size in _TYPECODES if 256 ** size > max(
            2 * factors[-1] - 2, g1.order - 1))
        self.typecode, self.factors = _TYPECODES[w], factors
        self.nslots = (n2 - 1) ** 2
        self.cuts = [slice(i, i + n2 - 1) for i in range(0, self.nslots,
                                                          n2 - 1)]
        self.codes = range(g1.order) if codes is None else codes
        if w == 1:
            self.codes = bytes(self.codes).ljust(256, b"\0")
        self.zero_row, self.rows = (0,) * n2, _Rows()

    def pack(self, vec) -> int:
        """vec (_slots, or unpack's) as one int; iter() keeps array() from
        reading a bytearray's raw bytes as items."""
        return int.from_bytes(vec if self.w == 1 else array(
            self.typecode, iter(vec)), sys.byteorder)

    def unpack(self, point):
        """point's digits, bytes where w = 1, else an array read from
        them."""
        flat = point.to_bytes(self.nslots * self.w, sys.byteorder)
        return flat if self.w == 1 else array(self.typecode, flat)

    def table(self, points):
        """The normalized table with the packed values points, one per
        invariant factor, at the pair slots: code = code d + point, factor
        by factor, is each slot's mixed-radix code (_element_values), as
        every digit stays below |g1| <= 256^w and none carries; the codes
        become element indices (bytes.translate where w = 1), and each row
        after the zero row is a zero and the next n2 - 1 of them, one tuple
        per distinct row (rows)."""
        code = points[0]
        for point, d in zip(points[1:], self.factors[1:]):
            code = code * d + point
        flat = self.unpack(code)
        flat = flat.translate(self.codes) if self.w == 1 else tuple(
            map(self.codes.__getitem__, flat))
        return (self.zero_row, *map(self.rows.__getitem__,
                                    map(flat.__getitem__, self.cuts)))


class _Rows(dict):
    """A table row, (0, *values), by its values: one tuple per distinct
    row, shared by the tables."""

    def __missing__(self, values):
        row = self[values] = (0, *values)
        return row


def _box_points(packing: _Packing, d: int, box):
    """One member of each H^2 class of _solve_coordinate(g2, d) over the
    pair slots, packed (_Packing), the box points sum c_i res_i, 0 <= c_i
    < pivot_i, the last fastest, each yielded as it is formed: over box,
    pairs (pivot_i, res_i), such as the coordinate's own box.
    compute_cocycle_space passes residues moved within their classes, as
    any members give one point of each class.  Each step adds res_i mod
    d in every digit at once, and no digit carries into its neighbour:
    with digits in [0, d), a sum digit lies in [0, 2d - 2], below B =
    256^w by the choice of w, which also gives d <= H = B / 2.  Adding H
    - d to every digit (lift) puts each in [H - d, H + d - 2], inside [0,
    B), so its top bit (high) is set exactly where the sum digit is at
    least d; d times those bits, shifted to the digits' units, is
    subtracted, which leaves every digit in [0, d) and borrows from
    none."""
    shift, ones = 8 * packing.w - 1, packing.pack(b"\1" * packing.nslots)
    high, lift = ones << shift, ones * ((1 << shift) - d)
    box = [(pivot, packing.pack(res)) for pivot, res in box]

    def points(vec, i):
        if i == len(box):
            yield vec
            return
        pivot, res = box[i]
        for c in range(pivot):
            if c:
                vec += res
                vec -= (((vec + lift) & high) >> shift) * d
            yield from points(vec, i + 1)
    return points(0, 0)


@lru_cache(maxsize=None)
def _coboundary_pivots(g2: FiniteGroup, d: int):
    """The pivots {slot i: (g_i, tau_i)} of B^2 mod d over the pair slots
    (h, g), h, g != 1, row-major, each tau_i held as _slots over g2,
    found in the n - 1 values of a map t:
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
    where psi vanishes, so no later slot has a pivot.  Only the rows h of
    g2's greedy sequence (_cayley_walk over range(n)) can hold one.  Fix
    t in K_i at the start of row h, so psi_t is zero on every row before
    h.  The x with t(xg) = t(x) + t(g) for all g are closed under
    products, as t(xyg) = t(x) + t(y) + t(g) and g = 1 gives t(xy) =
    t(x) + t(y); in a finite group they form a subgroup, holding every
    element before h and so H = <1, ..., h - 1>.  The t with psi_t zero
    before h are thus additive on H, so a row h inside H has psi_t zero
    throughout: it has no pivot and leaves K unchanged.  Every h that the
    greedy sequence skips is inside H, as the sequence adjoins the least
    element not yet reached."""
    n2, mul, target = g2.order, g2.table, _solve_coordinate(g2, d).b_order
    kernel = [[int(v == w) for v in range(n2)] for w in range(1, n2)]
    pivots, index = {}, 1
    rows = _cayley_walk(mul, range(n2), False)[0]
    for h, g in itertools.product(rows, range(1, n2)):
        if index == target:
            break
        i = (h - 1) * (n2 - 1) + g - 1
        values = [(t[h] + t[g] - t[mul[h][g]]) % d for t in kernel]
        tau, gi = [0] * n2, d
        for t, a in zip(kernel, values):
            if a % gi:
                gi, x, y = xgcd(gi, a)
                tau = [(x * u + y * v) % d for u, v in zip(tau, t)]
        if gi < d:
            pivots[i], index = (gi, _slots(d, tau)), index * (d // gi)
            fresh = [[(u - a // gi * v) % d for u, v in zip(t, tau)]
                     for t, a in zip(kernel, values) if a]
            kernel = [t for t, a in zip(kernel, values) if not a] + [
                t for t in fresh + [[d // gi * v % d for v in tau]] if any(t)]
    if index != target:
        raise InternalInconsistency("the pivots fall short of |B^2|")
    return pivots


def _walk(pres, n2: int, slots, pivots):
    """_least_values' fixed inputs: these four, each pivot slot in order
    with its triple, the element index of each mixed-radix code over the
    factors (None when each code is its own index), and read(v, t, d),
    the values v + t(h) + t(g) - t(hg) mod d at the slots.  slots is a
    list of the triples (h, g, hg), read into a list, or _PairSlots,
    which keeps none and reads into _slots."""
    codes = [*map(pres.element_of,
                  itertools.product(*map(range, pres.invariant_factors)))]
    return (pres, n2, slots, pivots,
            [(i, slots[i]) for i in sorted(set().union(*pivots))],
            None if codes == [*range(len(codes))] else codes,
            slots.read if isinstance(slots, _PairSlots) else (
                lambda v, t, d: [(x + t[h] + t[g] - t[hg]) % d
                                 for x, (h, g, hg) in zip(v, slots)]))


class _PairSlots:
    """The pair slots (h, g, hg), h, g != 1, row-major, read by index off
    g2's table: (n - 1)^2 triples are never held."""

    def __init__(self, mul):
        self.mul = mul

    def __getitem__(self, i):
        h, g = divmod(i, len(self.mul) - 1)
        return h + 1, g + 1, self.mul[h + 1][g + 1]

    def read(self, v, t, d):
        # zip takes from v last, so a row's end takes nothing from it
        ts, v = t[1:], iter(v)
        return _slots(d, [(th + tg - t[hg] + x) % d
                          for th, row in zip(ts, self.mul[1:])
                          for tg, hg, x in zip(ts, row[1:], v)])


@lru_cache(maxsize=None)
def _witness_walk(g1: FiniteGroup, g2: FiniteGroup):
    """The witness walk: the points x as slots (x, 1, 1), and per factor
    d the pivots {x - 1: (g, tau)} of Hom(g2, Z/d): the tail of
    _free_homs, the phi(s_j), mapped to the points (_hom_values) and
    echeloned, tau zero before x and g at x."""
    pres, pivots = abelian_invariants(g1), []
    for d in pres.invariant_factors:
        _, ends, free = _free_homs(g2, d)
        tail = free.tail(len(ends))
        homs = IntLattice(g2.order - 1, d, (
            _hom_values(g2, tail.dense_row(p))[1:] for p in tail.pivot_rows))
        pivots.append({i: (homs.pivot(i), [0, *homs.dense_row(i)])
                       for i in homs.pivot_rows})
    return _walk(pres, g2.order, [(x, 0, 0) for x in range(1, g2.order)],
                 pivots)


def _least_values(walk, vecs):
    """The values, one list per factor, of the lex-least member of a coset of
    maps read at slots (h, g, hg) as v + t(h) + t(g) - t(hg) (walk, from
    _walk), by element index: per factor d of pres, vecs[f] gives the
    values v and pivots[f] the pivots {slot i: (g_i, tau_i)} of the
    lattice of the t, each tau_i zero before slot i and g_i there (a pair
    slot of B^2, from _coboundary_pivots, or a point x of Hom, from
    _witness_walk, read as (x, 1, 1)).  In a Howell basis the members that
    agree before slot i take cur + <g_i> there, the freedom left lying in
    the tau below; so each pivot slot, in order, takes its least
    admissible element index (0 if admissible), fixed by t += q tau_i,
    which keeps earlier slots, and the other slots are forced.  One map t
    per factor is kept; the walk keeps the pivot slots' triples, and each
    slot is read once at the end (the walk's read), except in a factor
    whose map stays 0: v + psi_0 = v is its own least member, handed back
    unread.  With every g_i = 1 the walk is linear in vecs, and a residue
    walked with zeros in the other factors reads its own factor only
    (compute_cocycle_space)."""
    pres, n2, _, pivots, order, _, read = walk
    factors = pres.invariant_factors
    maps = [[0] * n2 for _ in factors]
    for i, (h, g, hg) in order:
        cur = [(v[i] + t[h] + t[g] - t[hg]) % d
               for v, t, d in zip(vecs, maps, factors)]
        steps = [p[i][0] if i in p else d for p, d in zip(pivots, factors)]
        starts = [c % s for c, s in zip(cur, steps)]
        best = min(itertools.product(*map(range, starts, factors, steps)),
                   key=pres.element_of) if any(starts) else (0,) * len(factors)
        for t, p, c, x, d in zip(maps, pivots, cur, best, factors):
            if x != c:
                q = (x - c) // p[i][0]
                t[:] = [(u + q * v) % d for u, v in zip(t, p[i][1])]
    return [read(v, t, d) if any(t) else v
            for v, t, d in zip(vecs, maps, factors)]


def _element_values(walk, vecs):
    """Element indices at the slots of vecs, _least_values' lists of
    values in [0, d), one per factor, by the walk's mixed-radix codes:
    the witnesses' images (_Packing.table writes the tables' own)."""
    codes = walk[5]
    code = vecs[0] if vecs else [0] * len(walk[2])
    for v, d in zip(vecs[1:], walk[0].invariant_factors[1:]):
        code = [c * d + x for c, x in zip(code, v)]
    return code if codes is None else [codes[c] for c in code]


@lru_cache(maxsize=None)
def compute_cocycle_space(g1: FiniteGroup, g2: FiniteGroup) -> CocycleSpace:
    """Z^2, B^2, H^2 and each class's lex-least table, via Hopf's formula
    mod each invariant factor of g1 (_solve_coordinate).  The space is
    cached over the first equal pair it was called with, and it carries
    those groups, whose names may differ from the caller's
    (FiniteGroup.name is not compared).

    A class's lex-least table is _least_values over the pivots of B^2
    (_coboundary_pivots) from any member, such as its box point sum c_i
    res_i (_box_points).  Where every pivot of every factor is 1, at one
    set of slots shared by the factors, that walk is linear in the
    point: at each pivot slot i every step is 1, so every start is 0 and
    best is 0 in each factor, reached by t += -cur tau_i, where cur =
    v(i) + psi_t(i) mod d is linear in v and in the t built so far.  So
    each factor's final t, and the least member v + psi_t, are linear in
    that factor's v alone, and the least member of sum c_i res_i is sum
    c_i r_i, r_i = res_i + psi_(t_i) the least member of res_i's class:
    each residue is walked once, and _box_points over the r_i gives each
    class's least member directly.  Elsewhere the walk is not linear:
    with g_i > 1 best turns on cur mod g_i, and at a slot that is a pivot
    of some factors only, on the other factors' forced values through
    the element order; there each box point is walked, unpacked and
    packed again.  Only the later factors' points are held, each packed
    into one int (_Packing), and one writer cuts every table from its
    points (_Packing.table), where equal rows are one tuple.  The tables
    skip Cocycle2's scans (Record._unchecked): each slot value is an
    element index of g1 (the walk's codes), and the (n2 - 1)^2 of them
    fill the rows after a zero row, each led by a zero."""
    if not g1.is_abelian:
        raise NotAbelianCoefficients(
            "cohomology here takes abelian coefficients")
    pres = abelian_invariants(g1)
    factors = pres.invariant_factors
    coords = [_solve_coordinate(g2, d) for d in factors]
    n2 = g2.order
    zero = ((0,) * n2,) * n2
    rep_tables = [zero]
    boxes = [c.box for c in coords]
    if math.prod(p for box in boxes for p, _ in box) > 1:
        pivots = [_coboundary_pivots(g2, d) for d in factors]
        walk = _walk(pres, n2, _PairSlots(g2.table), pivots)
        packing = _Packing(g1, n2, factors, walk[5])
        linear = all(p.keys() == pivots[0].keys() and all(
            gi == 1 for gi, _ in p.values()) for p in pivots)
        if linear:
            zeros = bytes((n2 - 1) ** 2)
            boxes = [[(p, _least_values(walk, [
                res if j == f else zeros for j in range(len(factors))])[f])
                for p, res in box] for f, box in enumerate(boxes)]

        def walked(points):
            return [*map(packing.pack, _least_values(
                walk, [*map(packing.unpack, points)]))]
        first, *later = map(_box_points, [packing] * len(factors), factors,
                            boxes)
        later = [*map(list, later)]
        rep_tables = sorted(map(packing.table, (
            points if linear else walked(points) for point in first
            for points in itertools.product([point], *later))))
    if rep_tables[0] != zero:
        raise InternalInconsistency("the trivial class is not listed first")
    return CocycleSpace(g1=g1, g2=g2,
                        h2_invariant_factors=_merge_invariant_factors(
                            [f for c in coords for f in c.factors]),
                        class_representatives=tuple(
                            Cocycle2._unchecked(g1=g1, g2=g2, table=t)
                            for t in rep_tables),
                        z2_order=math.prod(c.z_order for c in coords),
                        b2_order=math.prod(c.b_order for c in coords))


@lru_cache(maxsize=None)
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
    has t(a) = a, and psi_t(a, a) = a^2 = 1.  Decided once per group,
    as the necessity statements ask it on every failed condition.
    """
    return g2.order <= 2 or len(center(g2)) == 1
