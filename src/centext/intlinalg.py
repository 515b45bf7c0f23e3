"""Exact integer linear algebra for finite abelian groups.

Smith normal form with its unimodular row and column transforms, read
off as blocks of one working matrix [[A, I], [I, 0]], an echelon
lattice accumulator modulo an integer (Howell form) with sparse rows,
its kernel read off its rows and its Smith form off its pivots where
they are diagonal, linear congruence systems with per-row moduli, and
invariant-factor coordinates of abelian Cayley tables.  Everything runs
over unbounded Python integers; no floating point anywhere.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache

from .errors import DimensionMismatch, InternalInconsistency, NotAbelian
from .groups import FiniteGroup, Record


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


class IntMatrix(Record):
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

    def transpose(self) -> "IntMatrix":
        return IntMatrix(rows=self.cols, cols=self.rows,
                         data=tuple(zip(*self.data)) or ((),) * self.cols)

    @cached_property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.data[i][i] for i in range(min(self.rows, self.cols)))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The product, built unchecked (Record._unchecked): a.rows rows of
    b.cols sums each."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    bt = [*zip(*b.data)] or [()] * b.cols
    data = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
                 for row in a.data)
    return IntMatrix._unchecked(rows=a.rows, cols=b.cols, data=data)


def mat_vec(a: IntMatrix, x) -> list[int]:
    if a.cols != len(x):
        raise DimensionMismatch("vector length mismatch")
    return [sum(v * xi for v, xi in zip(row, x)) for row in a.data]


class SNFResult(Record):
    """u * a * v = s with u, v unimodular and s diagonal with a
    divisibility chain."""

    s: IntMatrix
    u: IntMatrix
    v: IntMatrix


def smith_normal_form(a: IntMatrix) -> SNFResult:
    """Diagonalize by unimodular row and column operations.

    For an r x c input every operation runs on one working matrix
    W = [[a, I_r], [I_c, 0]], the zero block not stored: a row operation
    acts on whole top rows, changing a and u together, and a column
    operation on the first c entries of every row, changing a and v
    together.  At the end s, u and v are read off as the top left, top
    right and bottom left blocks of W.

    Pivot choice is the smallest nonzero absolute value, ties broken
    row-major, so the reduction (and therefore every downstream fixture)
    is deterministic.  The recomposition u*a*v == s is checked before
    returning, on every input.  The library calls this only where a
    lattice's Smith form is not read off its diagonal (IntLattice._diagonal).
    """
    nr, nc = a.rows, a.cols
    w = [list(row) + [int(i == j) for j in range(nr)]
         for i, row in enumerate(a.data)]
    w += [[int(i == j) for j in range(nc)] for i in range(nc)]

    def row_combine(i, j, p, q, x, y):
        # top rows (i,j) <- (p*ri + q*rj, x*ri + y*rj); p*y - q*x = +-1
        w[i], w[j] = ([p * a_ + q * b_ for a_, b_ in zip(w[i], w[j])],
                      [x * a_ + y * b_ for a_, b_ in zip(w[i], w[j])])

    def col_combine(i, j, p, q, x, y):
        # columns (i,j) <- (p*ci + q*cj, x*ci + y*cj); p*y - q*x = +-1
        for r in w:
            r[i], r[j] = p * r[i] + q * r[j], x * r[i] + y * r[j]

    t = 0
    while t < min(nr, nc):
        piv = best = None
        for i in range(t, nr):
            for j in range(t, nc):
                val = abs(w[i][j])
                if val != 0 and (best is None or val < best):
                    best = val
                    piv = (i, j)
        if piv is None:
            break
        pi, pj = piv
        w[t], w[pi] = w[pi], w[t]
        for r in w:
            r[t], r[pj] = r[pj], r[t]

        while True:
            # exact divisions use shears (combines that leave the pivot
            # row/column alone); inexact ones use a gcd combine, which
            # strictly shrinks the pivot, so this loop terminates
            dirty = False
            for i in range(t + 1, nr):
                if w[i][t] != 0:
                    if w[i][t] % w[t][t] == 0:
                        row_combine(i, t, 1, -(w[i][t] // w[t][t]), 0, 1)
                    else:
                        g, p, q = xgcd(w[t][t], w[i][t])
                        row_combine(t, i, p, q, -(w[i][t] // g), w[t][t] // g)
                        dirty = True
            for j in range(t + 1, nc):
                if w[t][j] != 0:
                    if w[t][j] % w[t][t] == 0:
                        col_combine(t, j, 1, 0, -(w[t][j] // w[t][t]), 1)
                    else:
                        g, p, q = xgcd(w[t][t], w[t][j])
                        col_combine(t, j, p, q, -(w[t][j] // g), w[t][t] // g)
                        dirty = True
            if not dirty:
                # make the pivot divide the rest of the submatrix
                stuck = None
                for i in range(t + 1, nr):
                    for j in range(t + 1, nc):
                        if w[i][j] % w[t][t] != 0:
                            stuck = i
                            break
                    if stuck is not None:
                        break
                if stuck is None:
                    break
                row_combine(t, stuck, 1, 1, 0, 1)
        t += 1

    for i in range(min(nr, nc)):
        if w[i][i] < 0:
            w[i] = [-x for x in w[i]]

    # u and v are blocks of W, whose entries are ints by construction
    res = SNFResult(s=IntMatrix(rows=nr, cols=nc,
                                data=tuple(tuple(row[:nc]) for row in w[:nr])),
                    u=IntMatrix._unchecked(rows=nr, cols=nr, data=tuple(
                        tuple(row[nc:]) for row in w[:nr])),
                    v=IntMatrix._unchecked(rows=nc, cols=nc,
                                           data=tuple(map(tuple, w[nr:]))))
    if mat_mul(mat_mul(res.u, a), res.v).data != res.s.data:
        raise InternalInconsistency("u * a * v does not recompose to s")
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
            if row and (min(row) < 0 or max(row) >= self.ncols):
                raise DimensionMismatch("column outside the lattice")
            items = row.items()
        elif len(row) == self.ncols:
            items = enumerate(row)
        else:
            raise DimensionMismatch("vector length mismatch")
        m = self.modulus
        v = {j: y for j, x in items if (y := x % m)}
        grew = False
        while v:
            p = min(v)
            r = self.pivot_rows.get(p)
            if r is None:
                # column p holds only m*e_p, so the combine below, with
                # a = m and g = gcd(m, v_p) = s*m + t*v_p, stores t*v and
                # leaves (m/g)*v, which vanishes at p, and entirely if g = 1
                g, _, t = xgcd(m, v[p])
                self.pivot_rows[p] = {j: y for j, x in v.items()
                                      if (y := t * x % m)}
                v = {j: y for j, x in v.items()
                     if (y := m // g * x % m)} if g > 1 else {}
                grew = True
                continue
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

    def _diagonal(self) -> tuple[int, ...] | None:
        """The pivots in column order, the modulus at a free column, where
        every stored row is its pivot alone; else None.  Such rows are the
        diagonal matrix a of the pivots, as hnf_rows finds nothing above a
        pivot to reduce.  Where they form a divisibility chain,
        smith_normal_form's loop returns (a, I, I), and a caller reads
        both transforms as the identity: at every step its
        smallest-absolute-value, row-major rule picks (t, t), as p_t
        divides every later pivot, so none is smaller, and (t, t) comes
        first; row and column t are zero off it and p_t divides the rest,
        so the swaps are trivial, no combine is made and no sign changes."""
        if all(len(r) == 1 for r in self.pivot_rows.values()):
            return tuple(map(self.pivot, range(self.ncols)))
        return None

    def kernel(self) -> list[list[int]]:
        """Generators of the kernel K of the lattice mod d = modulus, the
        z with r . z = 0 mod d for every r in it, read off the stored rows
        by back-substitution.  With h_j the stored row of column j, g_j =
        h_j[j] and p_c = pivot(c), K is the z with h_j . z = 0 mod d for
        every j.  Each column c with p_c > 1 gives one generator z, in
        column order: z_c = d / p_c, zeros at every later column, and,
        from column c - 1 down to the first, z_j = 0 at a free column and,
        at a stored row, the least solution of g_j z_j = -sum_(l > j) h_jl
        z_l mod d.  Every step is solvable: (d / g_j) h_j vanishes up to
        column j, so by Howell's property it lies in the span of the later
        rows and d Z^ncols, all zero on z, which gives (d / g_j) sum_(l >
        j) h_jl z_l = 0 mod d: g_j divides the right-hand side.  So z lies
        in K, as h_c . z = p_c d / p_c at a stored row c and the later
        rows see only zeros.  The vectors generate K: a member of K zero
        after column c has g_c z_c = h_c . z = 0 at a stored row, so z_c
        is a multiple of d / p_c, as at a free column; that multiple of
        c's generator clears column c and keeps the later zeros, so
        clearing a member from the right, column by column, uses only
        these generators.  The same step gives the order: the members of K
        zero after column c take p_c values there, so |K| = prod p_c =
        d^(#free columns) prod g_j, index_in_ambient."""
        d = self.modulus
        stored = sorted(self.pivot_rows, reverse=True)
        kernel = []
        for c in range(self.ncols):
            if (p := self.pivot(c)) == 1:
                continue
            z = [0] * self.ncols
            z[c] = d // p
            for j in itertools.dropwhile(c.__le__, stored):
                # z_j is still 0, so the sum runs over l > j
                h = self.pivot_rows[j]
                r = -sum(x * z[l] for l, x in h.items()) % d
                if r % h[j]:
                    raise InternalInconsistency("a back-substitution step fails")
                z[j] = r // h[j]
            kernel.append(z)
        return kernel

    def invariant_factors(self) -> tuple[int, ...]:
        """The invariant factors above 1 of Z^n / L, the diagonal of the
        Smith form of hnf_rows() without its 1s.  Where every stored row
        is its pivot alone, in any column order, they are
        _merge_invariant_factors of the pivots p_i (_diagonal), read with
        no Smith loop: hnf_rows is then diag(p), and diag(a, b) has the
        Smith form diag(gcd(a, b), lcm(a, b)), as the gcd of its entries
        is gcd(a, b) and its determinant ab.  Each merge step is that
        change on two coordinates, the others fixed, so it keeps the Smith
        form, and the merged diagonal is a divisibility chain (the merge's
        docstring), its own Smith form.  Every other lattice runs
        smith_normal_form."""
        if (diag := self._diagonal()) is not None:
            return _merge_invariant_factors(diag)
        return tuple(x for x in smith_normal_form(IntMatrix.from_rows(
            self.hnf_rows())).s.diagonal if x > 1)

    def index_in_ambient(self) -> int:
        """[Z^n : L], the product of the pivots."""
        return math.prod(map(self.pivot, range(self.ncols)))


def _merge_invariant_factors(factors) -> tuple[int, ...]:
    """The invariant factors of the sum of the Z/f: as Z/a + Z/b = Z/gcd +
    Z/lcm, (f_i, f_j) -> (gcd, lcm), i < j, leaves f_i dividing each f_j,
    and the later steps replace two multiples of f_i by their gcd and
    lcm, multiples of f_i again; so the result is a divisibility chain."""
    f = list(factors)
    for i, j in itertools.combinations(range(len(f)), 2):
        f[i], f[j] = math.gcd(f[i], f[j]), math.lcm(f[i], f[j])
    return tuple(x for x in f if x > 1)


# ---------------------------------------------------------------------------
# linear congruence systems


class ModSolveResult(Record):
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


class AbelianPresentation(Record):
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
        """The element with these coordinates, each in [0, d)."""
        return self._elements[tuple(coords)]


@lru_cache(maxsize=None)
def abelian_invariants(g: FiniteGroup) -> AbelianPresentation:
    """Invariant factors d_1 | d_2 | ... and the coordinates of each
    element, via the Smith form of a generator relation lattice.

    Let e_x be an exponent vector of x over the k elements of the
    greedy sequence (not FiniteGroup.generators, which may be a pair;
    the coordinates are pinned to these), r a matrix whose rows span
    the relation lattice R (the e whose product of generator powers is
    the identity), and u * r * v = s.  Both come from the recorded
    Cayley walk (FiniteGroup._closure_layers): a generator has its unit
    vector, a tree step r = a*s sets e_r = e_a + e_s, and a check step
    adds the row e_a + e_s - e_r.  The walk takes
    each a*s with a != 1 once, and a tree step's row would be zero, so
    the rows span R (the index check below confirms it).  Then
    coords[x]_i = (e_x . v)_i mod s_ii, over the i with s_ii > 1.  This
    is well defined: r . v = u^-1 . s, so column i of r . v is divisible
    by s_ii, and e . v vanishes mod the diagonal for every e in R.  It
    is injective: if e . v = w . s, then e = w . s . v^-1 = (w . u) . r
    lies in R.  It is onto, as v is unimodular.  So it is a group
    isomorphism onto the direct sum of the Z/s_ii, which is checked
    anyway: the coordinates are distinct, and coords[x * t] = coords[x]
    + coords[t] for every x and generator t, which suffices by the
    argument of GroupMap.is_homomorphism.  Where R's lattice is
    diagonal (IntLattice._diagonal) and its pivots a divisibility chain
    in column order, v is the identity and coords[x]_i is e_x mod s_ii;
    every other lattice runs smith_normal_form on its hnf_rows.

    Memoized per group (groups compare by table), so the cohomology
    space and the coboundary test of one coefficient group share one
    presentation."""
    if not g.is_abelian:
        raise NotAbelian("invariant factors require an abelian group")
    layers = g._closure_layers
    gens = tuple(x for x, _, _ in layers)
    k = len(gens)
    column = {x: j for j, x in enumerate(gens)}
    vecs = {0: (0,) * k}
    rel = IntLattice(k, g.order)
    for x, steps, _ in layers:
        vecs[x] = tuple(int(j == column[x]) for j in range(k))
        for r, a, s, tree in steps:
            va = list(vecs[a])
            va[column[s]] += 1
            if tree:
                vecs[r] = tuple(va)
            else:
                rel.add([u - v for u, v in zip(va, vecs[r])])
    if rel.index_in_ambient() != g.order:
        raise InternalInconsistency("relation lattice index differs from |g|")

    diag = rel._diagonal()
    if diag is None or any(y % x for x, y in zip(diag, diag[1:])):
        snf = smith_normal_form(IntMatrix.from_rows(rel.hnf_rows()))
        diag, vt = snf.s.diagonal, snf.v.transpose().data
        vecs = {x: [sum(a * b for a, b in zip(e, col)) for col in vt]
                for x, e in vecs.items()}   # e_x . v
    cols = [(i, d) for i, d in enumerate(diag) if d > 1]
    factors = tuple(d for _, d in cols)
    coords = tuple(tuple(vecs[x][i] % d for i, d in cols)
                   for x in range(g.order))

    if len(set(coords)) != g.order or any(
            coords[g.table[x][gen]] != tuple(
                (a + b) % d for a, b, d in zip(cx, coords[gen], factors))
            for gen in gens for x, cx in enumerate(coords)):
        raise InternalInconsistency("coordinate map is not an isomorphism")
    return AbelianPresentation(group=g, invariant_factors=factors,
                               coords=coords)
