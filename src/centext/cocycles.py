"""Normalized 2-cocycles with trivial action, coboundaries, and the
second cohomology group.

A cocycle over (g1, g2) is stored as a g2.order x g2.order table of
g1-element indices.  The coefficient group g1 must be abelian for the
space computations (the general table type also carries the
g2-coefficient cocycles used by composition lemmas, where no group
structure on the value set is needed beyond the identity check).

The space computation never enumerates candidate tables: it splits g1
into invariant-factor coordinates and solves one integer congruence
system per coordinate, so Z^2, B^2 and H^2 come out of lattice indices
and one Smith normal form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    DimensionMismatch,
    GroupMismatch,
    NotAbelian,
    NotAbelianCoefficients,
    NotNormalized,
    NonAbelianUnsupported,
    SizeLimitExceeded,
)
from .groups import (
    DEFAULT_LIMITS,
    FiniteGroup,
    GroupMap,
    SearchLimits,
)
from .intlinalg import (
    IntLattice,
    IntMatrix,
    abelian_invariants,
    express_in_hnf,
    smith_normal_form,
    solve_linear_mod,
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

    def value(self, y: int, yp: int) -> int:
        return self.table[y][yp]

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
    ("identity", (h, g, k))."""
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
    for h in range(1, n2):
        for g in range(1, n2):
            hg = g2.table[h][g]
            for k in range(1, n2):
                gk = g2.table[g][k]
                lhs = mul[table[h][g]][table[hg][k]]
                rhs = mul[table[g][k]][table[h][gk]]
                if lhs != rhs:
                    return False, ("identity", (h, g, k))
    return True, None


def make_cocycle(g1: FiniteGroup, g2: FiniteGroup, table) -> Cocycle2:
    """Validate an untrusted table and wrap it."""
    tab = tuple(tuple(int(v) for v in row) for row in table)
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
    mul, inv = g1.table, g1.inverses
    n2 = g2.order
    table = []
    for h in range(n2):
        row = []
        for g in range(n2):
            hg = g2.table[h][g]
            row.append(mul[mul[delta.images[g]][inv[delta.images[hg]]]]
                       [delta.images[h]])
        table.append(tuple(row))
    return Cocycle2(g1=g1, g2=g2, table=tuple(table))


@dataclass(frozen=True)
class CoboundaryWitness:
    """The map t with e2 = (coboundary of t) * e1."""

    t: GroupMap


def are_cohomologous(e1: Cocycle2, e2: Cocycle2):
    """A witness t with e2 = psi_t * e1, or None.

    Solved as a linear congruence system for the values of t at the
    nonidentity points of g2, one invariant-factor coordinate of g1 at
    a time."""
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
    pres = abelian_invariants(g1)
    diff = [[g1.table[e2.table[h][g]][g1.inverses[e1.table[h][g]]]
             for g in range(n2)] for h in range(n2)]
    # psi_t(h,g) = t(g) - t(hg) + t(h) must equal diff, coordinatewise
    rows = []
    pairs = [(h, g) for h in range(1, n2) for g in range(1, n2)]
    for h, g in pairs:
        row = [0] * (n2 - 1)
        hg = g2.table[h][g]
        row[g - 1] += 1
        row[h - 1] += 1
        if hg != 0:
            row[hg - 1] -= 1
        rows.append(row)
    a = IntMatrix.from_rows(rows)

    t_coords = [[0] * len(pres.invariant_factors) for _ in range(n2)]
    for ci, d in enumerate(pres.invariant_factors):
        b = [pres.coords_of(diff[h][g])[ci] for h, g in pairs]
        res = solve_linear_mod(a, [d] * len(pairs), b)
        if res.particular is None:
            return None
        for y in range(1, n2):
            t_coords[y][ci] = res.particular[y - 1] % d
    images = tuple(pres.element_of(tuple(c)) for c in t_coords)
    t = GroupMap(dom=g2, cod=g1, images=images)
    assert apply_coboundary(t, e1).table == e2.table
    return CoboundaryWitness(t=t)


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


def cocycle_compose_checks(sigma: GroupMap, delta: GroupMap, e: Cocycle2):
    """Build sigma.e, delta.e and e.(delta x delta), verifying the
    composition hypotheses and that each output is again a cocycle.

    sigma must be an epsilon-endomorphism of g1 for e; delta a
    homomorphism g1 -> g2.  Returns the three cocycles in that order.
    """
    from .errors import PreconditionViolated
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
        assert ok, f"{label} failed the cocycle identity at {witness}"
    return sigma_e, delta_e, e_dd


# ---------------------------------------------------------------------------
# the cocycle space


@dataclass(frozen=True)
class CocycleSpace:
    """Z^2, B^2 and H^2 over a fixed pair (g1, g2).

    class_representatives holds one cocycle per H^2 class, ordered with
    the trivial class first; each representative is the
    lexicographically least table in its coset.
    """

    g1: FiniteGroup
    g2: FiniteGroup
    z2_generators: tuple[Cocycle2, ...]
    b2_generators: tuple[Cocycle2, ...]
    h2_invariant_factors: tuple[int, ...]
    class_representatives: tuple[Cocycle2, ...]
    z2_order: int
    b2_order: int

    @property
    def h2_order(self) -> int:
        out = 1
        for f in self.h2_invariant_factors:
            out *= f
        return out

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
def _constraint_matrix(g2: FiniteGroup):
    """Integer coefficient matrix of the cocycle identity over the
    nonidentity pairs of g2 (triples touching the identity are vacuous)."""
    n2 = g2.order
    pairs = [(h, g) for h in range(1, n2) for g in range(1, n2)]
    index = {p: i for i, p in enumerate(pairs)}
    rows = []
    for h in range(1, n2):
        for g in range(1, n2):
            hg = g2.table[h][g]
            for k in range(1, n2):
                gk = g2.table[g][k]
                coeff = {}
                for pair, sign in (((h, g), 1), ((hg, k), 1),
                                   ((g, k), -1), ((h, gk), -1)):
                    if 0 in pair:
                        continue
                    coeff[pair] = coeff.get(pair, 0) + sign
                row = [0] * len(pairs)
                for pair, cval in coeff.items():
                    row[index[pair]] = cval
                rows.append(row)
    return pairs, IntMatrix.from_rows(rows)


def _coboundary_generators(g2: FiniteGroup, pairs):
    """Image of the unit delta-map at each nonidentity point under the
    coboundary map, as integer vectors over the pair coordinates."""
    n2 = g2.order
    out = []
    for w in range(1, n2):
        vec = [0] * len(pairs)
        for i, (h, g) in enumerate(pairs):
            hg = g2.table[h][g]
            val = (1 if g == w else 0) - (1 if hg == w else 0) \
                + (1 if h == w else 0)
            vec[i] = val
        out.append(vec)
    return out


def _lattice_from_rows(ncols, rows):
    lat = IntLattice(ncols)
    for r in rows:
        lat.add(r)
    return lat


@lru_cache(maxsize=None)
def compute_cocycle_space(g1: FiniteGroup, g2: FiniteGroup,
                          limits: SearchLimits = DEFAULT_LIMITS) -> CocycleSpace:
    """Z^2, B^2, H^2 with class representatives, via one congruence
    solve per invariant factor of g1."""
    if not g1.is_abelian:
        raise NotAbelianCoefficients(
            "cohomology here takes abelian coefficients")
    if g1.order == 1 or g2.order == 1:
        triv = trivial_cocycle(g1, g2)
        return CocycleSpace(g1=g1, g2=g2, z2_generators=(), b2_generators=(),
                            h2_invariant_factors=(),
                            class_representatives=(triv,),
                            z2_order=1, b2_order=1)

    n2 = g2.order
    npairs = (n2 - 1) ** 2
    if npairs > limits.max_cocycle_unknowns:
        raise SizeLimitExceeded(
            f"cocycle system has {npairs} unknowns per coordinate",
            limit=limits.max_cocycle_unknowns, needed=npairs)

    pres = abelian_invariants(g1)
    pairs, amat = _constraint_matrix(g2)
    cob_gens = _coboundary_generators(g2, pairs)

    per_coord = []
    solved = {}
    for d in pres.invariant_factors:
        if d in solved:
            per_coord.append(solved[d])
            continue
        res = solve_linear_mod(amat, [d] * amat.rows, [0] * amat.rows)
        z_rows = [list(r) for r in res.kernel]
        z_lat = _lattice_from_rows(npairs, z_rows)
        z_count = d ** npairs // z_lat.index_in_ambient()

        b_lat = IntLattice(npairs)
        for vec in cob_gens:
            b_lat.add(vec)
        for i in range(npairs):
            unit = [0] * npairs
            unit[i] = d
            b_lat.add(unit)
        b_count = d ** npairs // b_lat.index_in_ambient()

        z_hnf = z_lat.hnf_rows()
        b_hnf = b_lat.hnf_rows()
        xrows = []
        for row in b_hnf:
            coeffs = express_in_hnf(z_hnf, row)
            assert coeffs is not None, "coboundary outside the cocycle lattice"
            xrows.append(coeffs)
        snf = smith_normal_form(IntMatrix.from_rows(xrows))
        diag = snf.s.diagonal
        assert all(x > 0 for x in diag)
        factors = tuple(x for x in diag if x > 1)
        h_count = 1
        for x in diag:
            h_count *= x
        assert h_count == z_count // b_count

        # coset representatives of the quotient: digit tuples m against
        # the SNF diagonal, pulled back through v_inv and the Z^2 basis
        reps = []
        for m in itertools.product(*(range(x) for x in diag)):
            coeff = [0] * len(diag)
            for i, mi in enumerate(m):
                if mi == 0:
                    continue
                for j in range(len(diag)):
                    coeff[j] += mi * snf.v_inv.data[i][j]
            vec = [0] * npairs
            for cj, zrow in zip(coeff, z_hnf):
                if cj:
                    vec = [a + cj * b for a, b in zip(vec, zrow)]
            reps.append(tuple(v % d for v in vec))

        # every element of B^2 mod d, for lex-minimizing coset members
        b_elems = {(0,) * npairs}
        frontier = [(0,) * npairs]
        while frontier:
            cur = frontier.pop()
            for genvec in cob_gens:
                nxt = tuple((a + b) % d for a, b in zip(cur, genvec))
                if nxt not in b_elems:
                    b_elems.add(nxt)
                    frontier.append(nxt)
        assert len(b_elems) == b_count

        entry = {
            "d": d, "z_count": z_count, "b_count": b_count,
            "factors": factors, "reps": reps, "b_elems": sorted(b_elems),
            "z_hnf": z_hnf,
        }
        solved[d] = entry
        per_coord.append(entry)

    def table_from_coordvecs(vecs):
        tab = [[0] * n2 for _ in range(n2)]
        for i, (h, g) in enumerate(pairs):
            coords = tuple(vec[i] for vec in vecs)
            tab[h][g] = pres.element_of(coords)
        return tuple(tuple(r) for r in tab)

    z2_order = 1
    b2_order = 1
    for pc in per_coord:
        z2_order *= pc["z_count"]
        b2_order *= pc["b_count"]

    # combined invariant factors: merge the per-coordinate chains
    all_factors = []
    for pc in per_coord:
        all_factors.extend(pc["factors"])
    h2_factors = _merge_invariant_factors(all_factors)

    # one representative per combined class, lex-least table in its coset
    rep_tables = []
    for choice in itertools.product(*(range(len(pc["reps"]))
                                      for pc in per_coord)):
        base = [pc["reps"][ci] for pc, ci in zip(per_coord, choice)]
        best = None
        for shift in itertools.product(*(pc["b_elems"] for pc in per_coord)):
            vecs = [tuple((a + s) % pc["d"] for a, s in zip(vec, sh))
                    for pc, vec, sh in zip(per_coord, base, shift)]
            tab = table_from_coordvecs(vecs)
            if best is None or tab < best:
                best = tab
        rep_tables.append(best)
    rep_tables.sort()
    assert rep_tables[0] == trivial_cocycle(g1, g2).table
    class_reps = tuple(Cocycle2(g1=g1, g2=g2, table=t) for t in rep_tables)

    z2_gens = []
    seen = set()
    for ci, pc in enumerate(per_coord):
        for row in pc["z_hnf"]:
            vecs = [(0,) * npairs] * len(per_coord)
            vecs[ci] = tuple(v % pc["d"] for v in row)
            tab = table_from_coordvecs(vecs)
            if any(v != 0 for r in tab for v in r) and tab not in seen:
                seen.add(tab)
                z2_gens.append(Cocycle2(g1=g1, g2=g2, table=tab))

    b2_gens = []
    seen = set()
    for ci, pc in enumerate(per_coord):
        for w in range(1, n2):
            # delta sending w to the ci-th coordinate unit, 0 elsewhere
            unit = [0] * len(per_coord)
            unit[ci] = 1
            images = [0] * n2
            images[w] = pres.element_of(tuple(unit))
            delta = GroupMap(dom=g2, cod=g1, images=tuple(images))
            psi = coboundary_from(delta)
            if not psi.is_trivial() and psi.table not in seen:
                seen.add(psi.table)
                b2_gens.append(psi)

    return CocycleSpace(g1=g1, g2=g2, z2_generators=tuple(z2_gens),
                        b2_generators=tuple(b2_gens),
                        h2_invariant_factors=h2_factors,
                        class_representatives=class_reps,
                        z2_order=z2_order, b2_order=b2_order)


def _merge_invariant_factors(factors) -> tuple[int, ...]:
    """Recombine a multiset of cyclic orders into a divisibility chain."""
    ppowers = {}
    for f in factors:
        n = f
        p = 2
        while p * p <= n:
            e = 0
            while n % p == 0:
                e += 1
                n //= p
            if e:
                ppowers.setdefault(p, []).append(e)
            p += 1
        if n > 1:
            ppowers.setdefault(n, []).append(1)
    if not ppowers:
        return ()
    height = max(len(v) for v in ppowers.values())
    chain = [1] * height
    for p, exps in ppowers.items():
        exps = sorted(exps, reverse=True)
        for i, e in enumerate(exps):
            chain[i] *= p ** e
    chain.reverse()
    return tuple(c for c in chain if c > 1)


def sim_is_trivial(g2: FiniteGroup,
                   limits: SearchLimits = DEFAULT_LIMITS) -> bool:
    """Whether only the trivial cocycle in Z^2(g2, g2) is cohomologous
    to the trivial one.  For abelian g2 this is exactly B^2(g2,g2) = 1.

    For non-abelian g2 there is no equational shortcut; an exhaustive
    scan over normalized self-maps is allowed only up to order 5 (no
    non-abelian group exists there, so in practice this branch refuses).
    """
    if g2.order == 1:
        return True
    if g2.is_abelian:
        space = compute_cocycle_space(g2, g2, limits)
        return space.b2_order == 1
    if g2.order > 5:
        raise NonAbelianUnsupported(
            "coboundary-triviality is only decidable here for abelian "
            "carriers (or orders <= 5)")
    n = g2.order
    mul, inv = g2.table, g2.inverses
    zcenter = {z for z in range(n)
               if all(mul[z][x] == mul[x][z] for x in range(n))}
    for images in itertools.product(range(n), repeat=n - 1):
        t = (0,) + images
        tab = tuple(tuple(mul[mul[t[g]][inv[t[mul[h][g]]]]][t[h]]
                          for g in range(n)) for h in range(n))
        if all(v == 0 for row in tab for v in row):
            continue
        if not all(v in zcenter for row in tab for v in row):
            continue
        ok, _ = is_cocycle(g2, g2, tab)
        if ok:
            return False
    return True
