"""Exact integer linear algebra for finite abelian groups.

Smith normal form with tracked unimodular row and column transforms,
an echelon lattice accumulator modulo an integer (Howell form) with
sparse rows, linear congruence systems with per-row moduli, and
invariant-factor coordinates of abelian Cayley tables.  Everything
runs over unbounded Python integers; no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import DimensionMismatch, NotAbelian
from .groups import FiniteGroup


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a,b) >= 0 and s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, stored as a tuple of row tuples."""

    rows: int
    cols: int
    data: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.data) != self.rows:
            raise DimensionMismatch("row count mismatch")
        for row in self.data:
            if len(row) != self.cols:
                raise DimensionMismatch("ragged matrix")

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        data = tuple(tuple(int(v) for v in row) for row in rows)
        ncols = len(data[0]) if data else 0
        return IntMatrix(rows=len(data), cols=ncols, data=data)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(rows=n, cols=n, data=tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def zeros(r: int, c: int) -> "IntMatrix":
        return IntMatrix(rows=r, cols=c, data=tuple((0,) * c for _ in range(r)))

    def to_lists(self):
        return [list(row) for row in self.data]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(rows=self.cols, cols=self.rows,
                         data=tuple(zip(*self.data)) if self.data else ())

    @cached_property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.data[i][i] for i in range(min(self.rows, self.cols)))

    def is_diagonal(self) -> bool:
        return all(v == 0
                   for i, row in enumerate(self.data)
                   for j, v in enumerate(row) if i != j)


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    bt = b.transpose().data
    data = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
                 for row in a.data)
    return IntMatrix(rows=a.rows, cols=b.cols, data=data)


def mat_vec(a: IntMatrix, x) -> list[int]:
    if a.cols != len(x):
        raise DimensionMismatch("vector length mismatch")
    return [sum(v * xi for v, xi in zip(row, x)) for row in a.data]


@dataclass(frozen=True)
class SNFResult:
    """u * a * v = s with u, v unimodular and s diagonal with a
    divisibility chain."""

    s: IntMatrix
    u: IntMatrix
    v: IntMatrix


def smith_normal_form(a: IntMatrix) -> SNFResult:
    """Diagonalize by unimodular row and column operations.

    Pivot choice is the smallest nonzero absolute value, ties broken
    row-major, so the reduction (and therefore every downstream fixture)
    is deterministic.  The recomposition u*a*v == s is checked before
    returning.
    """
    nr, nc = a.rows, a.cols
    s = a.to_lists()
    u = IntMatrix.identity(nr).to_lists()
    v = IntMatrix.identity(nc).to_lists()

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
        raise AssertionError("u * a * v does not recompose to s")
    return res


# ---------------------------------------------------------------------------
# lattices modulo an integer


class IntLattice:
    """The sublattice of Z^n spanned by the added rows together with
    modulus * Z^n, kept as one echelon row per pivot column.

    A stored row is sparse, a dict {column: entry} of its nonzero
    entries, each reduced into [0, modulus); every stored pivot is a
    proper divisor of the modulus; a column without a stored row has the
    implicit pivot row modulus * e_j.  Together these rows form a
    triangular basis of the lattice, so (Howell's property) the rows
    with pivot column >= k span exactly the lattice vectors that vanish
    before column k, and reduce() returns a canonical coset
    representative.
    """

    def __init__(self, ncols: int, modulus: int, rows=()):
        if modulus <= 0:
            raise ValueError("the modulus must be positive")
        self.ncols = ncols
        self.modulus = modulus
        self.pivot_rows: dict[int, dict[int, int]] = {}
        for row in rows:
            self.add(row)

    def add(self, row) -> bool:
        """Insert row, a sequence of ncols entries or a sparse dict
        {column: entry}; True iff the lattice grew."""
        if isinstance(row, dict):
            items = row.items()
        elif len(row) == self.ncols:
            items = enumerate(row)
        else:
            raise DimensionMismatch("vector length mismatch")
        m = self.modulus
        v = {j: x % m for j, x in items if x % m}
        if any(not 0 <= j < self.ncols for j in v):
            raise DimensionMismatch("column outside the lattice")
        grew = False
        while v:
            p = min(v)
            r = self.pivot_rows.get(p, {p: m})
            a, b = r[p], v[p]
            if b % a == 0:
                q = b // a
                for j, y in r.items():
                    if x := (v.get(j, 0) - q * y) % m:
                        v[j] = x
                    else:
                        v.pop(j, None)
                continue
            g, s, t = xgcd(a, b)
            # (r, v) <- (s*r + t*v, (a/g)*v - (b/g)*r): unimodular, and the
            # new v vanishes at p; rows to the right keep modulus * e_j
            # in their span, so reducing mod m loses nothing
            both = r.keys() | v.keys()
            self.pivot_rows[p] = {j: x for j in both if (
                x := (s * r.get(j, 0) + t * v.get(j, 0)) % m)}
            v = {j: x for j in both if (
                x := (a // g * v.get(j, 0) - b // g * r.get(j, 0)) % m)}
            grew = True
        return grew

    def tail(self, k: int) -> "IntLattice":
        """The lattice vectors that vanish before column k, cut down to
        the columns from k on: by Howell's property, the rows with
        pivot column >= k."""
        out = IntLattice(self.ncols - k, self.modulus)
        out.pivot_rows = {p - k: {j - k: x for j, x in r.items()}
                          for p, r in self.pivot_rows.items() if p >= k}
        return out

    def head(self, k: int) -> "IntLattice":
        """The projection onto the columns before k: the rows with pivot
        column < k, cut to those columns, still a Howell basis."""
        out = IntLattice(k, self.modulus)
        out.pivot_rows = {p: {j: x for j, x in r.items() if j < k}
                          for p, r in self.pivot_rows.items() if p < k}
        return out

    def pivot(self, j: int) -> int:
        """The pivot of column j: its stored row's, else the modulus."""
        r = self.pivot_rows.get(j)
        return self.modulus if r is None else r[j]

    def reduce(self, vec) -> list[int]:
        """The canonical representative of vec's coset: entry j lands in
        [0, pivot(j)), eliminating left to right."""
        m = self.modulus
        v = [x % m for x in vec]
        for j in sorted(self.pivot_rows):
            r = self.pivot_rows[j]
            if v[j] >= r[j]:
                q = v[j] // r[j]
                for i, y in r.items():
                    v[i] = (v[i] - q * y) % m
        return v

    def dense_row(self, j: int) -> list[int]:
        """The pivot row of column j written out, modulus * e_j where
        nothing is stored."""
        r = self.pivot_rows.get(j, {j: self.modulus})
        return [r.get(i, 0) for i in range(self.ncols)]

    def hnf_rows(self) -> list[list[int]]:
        """The triangular basis, one row per column (modulus * e_j where
        nothing is stored), reduced right to left: from the last column
        back, each entry above a pivot is brought into [0, pivot) by
        subtracting that pivot's row.  Later steps change entries
        already reduced, so an entry right of a row's pivot can leave
        [0, pivot) and be negative."""
        rows = [self.dense_row(j) for j in range(self.ncols)]
        for k in range(self.ncols - 1, -1, -1):
            for i in range(k):
                q = rows[i][k] // rows[k][k]
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[k])]
        return rows

    def index_in_ambient(self) -> int:
        """[Z^n : L], the product of the pivots."""
        out = self.modulus ** (self.ncols - len(self.pivot_rows))
        for p, r in self.pivot_rows.items():
            out *= r[p]
        return out


# ---------------------------------------------------------------------------
# linear congruence systems


@dataclass(frozen=True)
class ModSolveResult:
    """Solution of A x = b componentwise mod per-row moduli.

    modulus is the lcm M of the row moduli; solutions are meaningful
    mod M and the kernel lattice always contains M*Z^cols.  particular
    is None when the system is inconsistent.  kernel is a triangular
    basis of the homogeneous solution lattice, one row per column as
    IntLattice.hnf_rows gives it: pivots divide M, but entries right of
    a pivot can lie outside [0, pivot) and be negative.
    """

    modulus: int
    particular: tuple[int, ...] | None
    kernel: tuple[tuple[int, ...], ...]


def solve_linear_mod(a: IntMatrix, moduli, b) -> ModSolveResult:
    """Solve A x = b with row i taken mod moduli[i].

    The rows are rescaled to a common modulus M and pre-reduced in an
    IntLattice mod M, so the system shrinks to at most cols+1
    independent congruences, and the reduced square system is finished
    by Smith normal form.

    The library does not call this: cocycles.are_cohomologous decides
    solvability by reduction against a lattice built once per quotient.
    It stays as an independent reference: the tests check that
    solvability, and Z^2, against it, and the benchmark still traces it
    as a layer of its own.
    """
    if len(moduli) != a.rows or len(b) != a.rows:
        raise DimensionMismatch("moduli and rhs must match row count")
    for m in moduli:
        if m <= 0:
            raise ValueError("moduli must be positive")
    bigm = 1
    for m in moduli:
        g, _, _ = xgcd(bigm, m)
        bigm = bigm // g * m

    c = a.cols
    lat = IntLattice(c + 1, bigm)
    for i in range(a.rows):
        scale = bigm // moduli[i]
        lat.add([scale * x for x in a.data[i]] + [scale * b[i]])

    hnf = lat.hnf_rows()
    consistent = lat.pivot(c) == bigm

    bmat = IntMatrix.from_rows([row[:c] for row in hnf[:c]])
    rhs = [row[c] for row in hnf[:c]]
    snf = smith_normal_form(bmat)
    diag = snf.s.diagonal

    kernel_lat = IntLattice(c, bigm)
    vt = snf.v.transpose().data
    for j in range(c):
        g, _, _ = xgcd(diag[j], bigm)
        scale = bigm // g
        kernel_lat.add([scale * x for x in vt[j]])
    kernel = tuple(tuple(row) for row in kernel_lat.hnf_rows())

    particular = None
    if consistent:
        cvec = mat_vec(snf.u, rhs)
        z = [0] * c
        ok = True
        for j in range(c):
            g, _, _ = xgcd(diag[j], bigm)
            if cvec[j] % g != 0:
                ok = False
                break
            mj = bigm // g
            z[j] = (cvec[j] // g) * pow(diag[j] // g, -1, mj) % mj if mj > 1 else 0
        if ok:
            x = mat_vec(snf.v, z)
            particular = tuple(v % bigm for v in x)

    return ModSolveResult(modulus=bigm, particular=particular, kernel=kernel)


# ---------------------------------------------------------------------------
# abelian structure


@dataclass(frozen=True)
class AbelianPresentation:
    """Invariant-factor coordinates for an abelian Cayley table: coords[x]
    is the coordinate tuple of element x, one entry in [0, d) per
    invariant factor d, and x -> coords[x] is an isomorphism onto the
    direct sum of the Z/d."""

    group: FiniteGroup
    invariant_factors: tuple[int, ...]
    coords: tuple[tuple[int, ...], ...]

    @cached_property
    def _elements(self) -> dict[tuple[int, ...], int]:
        return {c: x for x, c in enumerate(self.coords)}

    def element_of(self, coords) -> int:
        """The element with these coordinates, each taken mod its factor."""
        x = self._elements.get(tuple(coords))
        if x is not None:
            return x
        if len(coords) != len(self.invariant_factors):
            raise DimensionMismatch("coordinate count mismatch")
        return self._elements[tuple(
            c % d for c, d in zip(coords, self.invariant_factors))]


@lru_cache(maxsize=None)
def abelian_invariants(g: FiniteGroup) -> AbelianPresentation:
    """Invariant factors d_1 | d_2 | ... and the coordinates of each
    element, via the Smith form of a generator relation lattice.

    Let e_x be an exponent vector of x over the k generators, r a
    matrix whose rows span the relation lattice R (the e whose product
    of generator powers is the identity), and u * r * v = s.  Then
    coords[x]_i = (e_x . v)_i mod s_ii, over the i with s_ii > 1.  This
    is well defined: r . v = u^-1 . s, so column i of r . v is divisible
    by s_ii, and e . v vanishes mod the diagonal for every e in R.  It
    is injective: if e . v = w . s, then e = w . s . v^-1 = (w . u) . r
    lies in R.  It is onto, as v is unimodular.  So it is a group
    isomorphism onto the direct sum of the Z/s_ii, which is checked
    anyway: the coordinates are distinct, and coords[x * t] = coords[x]
    + coords[t] for every x and generator t, which suffices by the
    argument of GroupMap.is_homomorphism.

    Memoized per group (groups compare by table), so the cohomology
    space and the coboundary test of one coefficient group share one
    presentation."""
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
