"""Reference implementations that the library no longer carries: helpers
with no caller outside the tests, and the slower paths that faster ones
in src/ replaced, kept here so that the tests can check the two agree.

This module is not collected as tests, so its assert statements would
not be rewritten by pytest and python -O would strip them: its checks
raise instead.
"""

import itertools
from functools import lru_cache

from centext.cocycles import (
    Cocycle2,
    _solve_coordinate,
    _table_from_values,
    _unit_coboundary,
    is_cocycle,
    is_epsilon_endomorphism,
    pullback,
    pushforward,
)
from centext.errors import (
    ConditionsFailed,
    DimensionMismatch,
    NotNormalized,
    PreconditionViolated,
)
from centext.extensions import ExtensionGroup
from centext.groups import FiniteGroup, GroupMap, Subgroup, subgroup_closure
from centext.intlinalg import IntLattice, IntMatrix, abelian_invariants, xgcd


def determinant(a: IntMatrix) -> int:
    """Bareiss fraction-free elimination; exact over Z."""
    if a.rows != a.cols:
        raise DimensionMismatch("determinant of non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = a.to_lists()
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


def centralizer(g: FiniteGroup, s) -> Subgroup:
    s = sorted(set(s))
    for x in s:
        if not 0 <= x < g.order:
            raise ValueError(f"element {x} out of range")
    members = [c for c in range(g.order)
               if all(g.table[c][x] == g.table[x][c] for x in s)]
    return Subgroup(parent=g, members=tuple(members))


def preserves_kernel_setwise(source: ExtensionGroup, target: ExtensionGroup,
                             phi: GroupMap) -> bool:
    """Whether phi maps the kernel copy onto the kernel copy, by sets."""
    want = set(target.kernel_indices)
    return {phi(i) for i in source.kernel_indices} == want


def preserves_section_setwise(source: ExtensionGroup, target: ExtensionGroup,
                              phi: GroupMap) -> bool:
    """Whether phi maps the section copy onto the section copy, by sets."""
    want = set(target.section_indices)
    return {phi(i) for i in source.section_indices} == want


def derived_subgroup(g: FiniteGroup) -> Subgroup:
    n = g.order
    comms = set()
    for a in range(n):
        for b in range(n):
            ab = g.table[a][b]
            ba = g.table[b][a]
            comms.add(g.table[ab][g.inverses[ba]])
    members = subgroup_closure(g, comms)
    return Subgroup(parent=g, members=tuple(sorted(members)))


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


def dense_row_space(rows, ncols, d):
    """The earlier cocycles._row_space, on dense rows: the indexes S of
    the rows that grew the row lattice, and the pivot rows of the echelon
    form of the rows [R_S e_w | e_w]."""
    rows = list(rows)
    grew, _ = dense_echelon(rows, ncols, d)
    kept = [row for row, g in zip(rows, grew) if g]
    _, columns = dense_echelon(
        ([row[w] for row in kept] + [int(j == w) for j in range(ncols)]
         for w in range(ncols)), len(kept) + ncols, d)
    return tuple(i for i, g in enumerate(grew) if g), columns


def least_in_coset_by_slot(lattices, vecs, element_of, nslots):
    """The earlier cocycles._least_in_coset, which visits every slot:
    the least admissible element index at each, fixed by adding a
    multiple of the pivot row there, if any."""
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


def pair_slot_b2(g2: FiniteGroup, d: int) -> IntLattice:
    """B^2 mod d over the nonidentity pair slots (h, g), row-major: the
    lattice of the unit coboundaries, as the earlier
    cocycles.compute_cocycle_space built it for every call."""
    n2 = g2.order
    return IntLattice((n2 - 1) ** 2, d, (_unit_coboundary(g2, w, range(1, n2))
                                         for w in range(1, n2)))


def pair_slot_representatives(g1: FiniteGroup, g2: FiniteGroup):
    """The earlier class representatives, sorted: per class, one member
    per invariant factor of g1 from cocycles._solve_coordinate, moved to
    the lex-least table of its coset of B^2 over the pair slots by the
    slot-by-slot pass."""
    pres = abelian_invariants(g1)
    factors = pres.invariant_factors
    b2 = [pair_slot_b2(g2, d) for d in factors]
    nslots = (g2.order - 1) ** 2
    return sorted(
        _table_from_values(g2.order, least_in_coset_by_slot(
            b2, vecs, pres.element_of, nslots))
        for vecs in itertools.product(*(_solve_coordinate(g2, d).classes
                                        for d in factors)))


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
    k_images = [divmod(phi(source.embed_kernel(x)), n2t)
                for x in range(source.g1.order)]
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
