"""Finite groups as Cayley tables.

Conventions used throughout the package:
  * elements of a group of order n are the indices 0..n-1,
  * index 0 is always the identity,
  * maps between groups are stored as full image arrays and are
    normalized (they send 0 to 0).

Tables and maps are checked along generators.  Each group carries one
greedy generating sequence (FiniteGroup.generators), and a property of
all products x*y is tested on the products x*s with s a generator only,
with the proof that this suffices in the docstring of each check:
validate_group (Light's associativity test), GroupMap.is_homomorphism,
and the homomorphism enumeration, which extends partial images along
the Cayley graph of the generators chosen so far.  A full scan runs only
after a generator check has failed, to name the first witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import itemgetter

from .errors import (
    DimensionMismatch,
    GroupMismatch,
    NoIdentityAtZero,
    NonAssociative,
    NotLatinSquare,
    NotNormalized,
    SizeLimitExceeded,
)


@dataclass(frozen=True)
class SearchLimits:
    """Budgets for the backtracking searches.

    max_order caps the carrier size accepted by the oracle searches,
    max_search_nodes caps image assignments during backtracking: one per
    generator image tried and one per image that choice forces along
    the Cayley graph of the generators.  Cohomology takes no budget.
    """

    max_order: int = 128
    max_search_nodes: int = 2_000_000


DEFAULT_LIMITS = SearchLimits()


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its multiplication table.

    table[a][b] is the index of a*b.  The four structural axioms are
    checked by validate_group, not by the constructor, so internal code
    that builds tables it has already proven correct can skip the scan.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    name: str | None = field(default=None, compare=False)

    def conj(self, a: int, b: int) -> int:
        """a*b*a^-1."""
        return self.table[self.table[a][b]][self.inverses[a]]

    @cached_property
    def inverses(self) -> tuple[int, ...]:
        out = [0] * self.order
        for a in range(self.order):
            out[a] = self.table[a].index(0)
        return tuple(out)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """The greedy generating sequence: repeatedly adjoin the least
        element outside the closure of the sequence so far.  The closure
        is taken under the product in both orders, so it assumes no
        associativity (validate_group relies on that); for a group it is
        the subgroup generated."""
        gens, generated = [], {0}
        for x in range(self.order):
            if x not in generated:
                gens.append(x)
                generated = subgroup_closure(self, gens)
        return tuple(gens)

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        out = [1] * self.order
        for a in range(self.order):
            k, x = 1, a
            while x != 0:
                x = self.table[x][a]
                k += 1
            out[a] = k
        return tuple(out)

    @cached_property
    def is_abelian(self) -> bool:
        n = self.order
        return all(
            self.table[a][b] == self.table[b][a]
            for a in range(n) for b in range(a + 1, n)
        )

    @cached_property
    def order_profile(self) -> tuple[int, ...]:
        """Sorted element orders; a cheap isomorphism invariant."""
        return tuple(sorted(self.element_orders))

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inverses[a], -k)
        x = 0
        for _ in range(k):
            x = self.table[x][a]
        return x

    def to_dict(self) -> dict:
        d = {"order": self.order, "table": [list(row) for row in self.table]}
        if self.name is not None:
            d["name"] = self.name
        return d

    @staticmethod
    def from_dict(d: dict) -> "FiniteGroup":
        if not isinstance(d, dict):
            raise ValueError("a group must be a JSON object with a 'table'")
        if "table" not in d:
            raise ValueError("missing 'table'")
        name = d.get("name")
        if name is not None and not isinstance(name, str):
            raise ValueError(f"'name' must be a string, not {name!r}")
        return validate_group(d["table"], name=name)

    def __repr__(self):
        label = self.name if self.name is not None else f"order {self.order}"
        return f"FiniteGroup({label})"


def validate_group(table, name: str | None = None) -> FiniteGroup:
    """Check the four Cayley-table axioms and wrap the table.

    Raises, in this order of precedence, ValueError for malformed input
    (including rows that are not lists, and entries that are not int or
    are bool), NoIdentityAtZero, NotLatinSquare, NonAssociative.  Each
    error message carries the first witness found (row-major scan order).

    Associativity is decided by Light's test (Clifford & Preston, The
    Algebraic Theory of Semigroups I, 1961, section 1.2).  The middles m
    with (xm)y = x(my) for all x, y are closed under the product: for two
    of them, (x(m m'))y = ((xm)m')y = (xm)(m'y) = x(m(m'y)) =
    x((m m')y).  The identity is such a middle, so once every element of
    a set S is one, so is everything the products of S reach.  S is
    FiniteGroup.generators, whose closure assumes no associativity; so
    n * |S| row comparisons replace the n^3 triples.  Only when a generator fails
    does the row-major scan run, to name the first failing triple.
    """
    if not isinstance(table, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in table):
        raise ValueError("a group table must be a list of rows")
    n = len(table)
    if n == 0:
        raise ValueError("empty table")
    rows = []
    for a, row in enumerate(table):
        row = tuple(row)
        if len(row) != n:
            raise ValueError(f"row {a} has length {len(row)}, expected {n}")
        for b, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"entry [{a}][{b}] = {v!r} is not an integer")
            if not 0 <= v < n:
                raise ValueError(f"entry [{a}][{b}] = {v!r} out of range")
        rows.append(row)
    tab = tuple(rows)

    for b in range(n):
        if tab[0][b] != b:
            raise NoIdentityAtZero(f"0*{b} = {tab[0][b]}, expected {b}")
    for a in range(n):
        if tab[a][0] != a:
            raise NoIdentityAtZero(f"{a}*0 = {tab[a][0]}, expected {a}")

    for a in range(n):
        if len(set(tab[a])) != n:
            seen = {}
            for b, v in enumerate(tab[a]):
                if v in seen:
                    raise NotLatinSquare(
                        f"row {a} repeats {v} at columns {seen[v]} and {b}")
                seen[v] = b
    for b in range(n):
        col = [tab[a][b] for a in range(n)]
        if len(set(col)) != n:
            seen = {}
            for a, v in enumerate(col):
                if v in seen:
                    raise NotLatinSquare(
                        f"column {b} repeats {v} at rows {seen[v]} and {a}")
                seen[v] = a

    group = FiniteGroup(order=n, table=tab, name=name)
    for s in group.generators:
        # x*(s*y) for every y at once: row x read in the order of row s
        through_s = itemgetter(*tab[s])
        if any(tab[row[s]] != through_s(row) for row in tab):
            _raise_first_nonassociative(tab)
    return group


def _raise_first_nonassociative(tab):
    n = len(tab)
    for a in range(n):
        for b in range(n):
            ab = tab[a][b]
            for c in range(n):
                if tab[ab][c] != tab[a][tab[b][c]]:
                    raise NonAssociative(
                        f"({a}*{b})*{c} = {tab[ab][c]} but "
                        f"{a}*({b}*{c}) = {tab[a][tab[b][c]]}")
    raise AssertionError("a generator failed Light's test but no triple did")


def cyclic_group(n: int, name: str | None = None) -> FiniteGroup:
    if n < 1:
        raise ValueError("order must be positive")
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return FiniteGroup(order=n, table=table, name=name or f"Z{n}")


def direct_product(g: FiniteGroup, h: FiniteGroup,
                   name: str | None = None) -> FiniteGroup:
    """Direct product with pairs indexed first-factor major: (a,b) -> a*|h|+b."""
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


def group_from_elements(elems, op, name: str | None = None) -> FiniteGroup:
    """Build a validated group from concrete elements under op.

    elems[0] must be the identity; elements must be hashable.
    """
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


# ---------------------------------------------------------------------------
# subgroups and structural queries


@dataclass(frozen=True)
class Subgroup:
    """A subgroup as a sorted member tuple.  Equality ignores the parent."""

    parent: FiniteGroup = field(compare=False)
    members: tuple[int, ...]

    def __post_init__(self):
        if not self.members or self.members[0] != 0:
            raise ValueError("subgroup must contain the identity")

    def __contains__(self, a: int) -> bool:
        return a in self._member_set

    def __len__(self):
        return len(self.members)

    @cached_property
    def _member_set(self) -> frozenset:
        return frozenset(self.members)

    def is_trivial(self) -> bool:
        return len(self.members) == 1

    def is_whole(self) -> bool:
        return len(self.members) == self.parent.order


def subgroup_closure(g: FiniteGroup, gens) -> frozenset:
    """Smallest subgroup of g containing gens."""
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


def center(g: FiniteGroup) -> Subgroup:
    n = g.order
    members = [z for z in range(n)
               if all(g.table[z][x] == g.table[x][z] for x in range(n))]
    return Subgroup(parent=g, members=tuple(members))


def conjugacy_classes(g: FiniteGroup) -> list[tuple[int, ...]]:
    """Classes sorted by least member; the identity class comes first."""
    n = g.order
    seen = [False] * n
    classes = []
    for a in range(n):
        if seen[a]:
            continue
        orbit = {g.conj(x, a) for x in range(n)}
        for y in orbit:
            seen[y] = True
        classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda c: c[0])
    return classes


def normal_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """All normal subgroups, via unions of conjugacy classes closed under
    the product.  Exponential in the class count; fine at catalog scale
    for the non-abelian carriers this package targets."""
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
                out.append(Subgroup(parent=g, members=tuple(sorted(members))))
    out.sort(key=lambda s: (len(s.members), s.members))
    return out


def is_simple(g: FiniteGroup) -> bool:
    """No proper nontrivial normal subgroup.  The trivial group is not
    simple by convention."""
    if g.order == 1:
        return False
    for cls in conjugacy_classes(g)[1:]:
        closure = subgroup_closure(g, cls)
        if len(closure) < g.order:
            return False
    return True


def is_purely_nonabelian(g: FiniteGroup) -> bool:
    """True iff g is non-abelian and admits no internal direct
    decomposition with a nontrivial abelian factor.

    Abelian groups return False by convention.  Decided by scanning pairs
    of normal subgroups for trivial intersection, full product and
    elementwise commutation.
    """
    if g.is_abelian:
        return False
    subs = normal_subgroups(g)
    for a_sub in subs:
        if a_sub.is_trivial() or a_sub.is_whole():
            continue
        amem = a_sub.members
        if not all(g.table[x][y] == g.table[y][x]
                   for x in amem for y in amem):
            continue
        for b_sub in subs:
            if len(amem) * len(b_sub.members) != g.order:
                continue
            if a_sub._member_set & b_sub._member_set != {0}:
                continue
            if all(g.table[x][y] == g.table[y][x]
                   for x in amem for y in b_sub.members):
                return False
    return True


# ---------------------------------------------------------------------------
# maps between groups


@dataclass(frozen=True)
class GroupMap:
    """A normalized set map between groups, stored as its image array.

    Normalized means images[0] == 0; every map this package handles
    (homomorphisms as well as the section and witness maps of the
    extension machinery) satisfies that.
    """

    dom: FiniteGroup
    cod: FiniteGroup
    images: tuple[int, ...]

    def __post_init__(self):
        if len(self.images) != self.dom.order:
            raise DimensionMismatch(
                f"image array has length {len(self.images)}, "
                f"domain has order {self.dom.order}")
        # screened at C speed; the scan names the first offender
        if min(self.images) < 0 or max(self.images) >= self.cod.order:
            v = next(v for v in self.images if not 0 <= v < self.cod.order)
            raise ValueError(f"image {v} out of range")
        if self.images[0] != 0:
            raise NotNormalized("map must send 0 to 0")

    def __call__(self, a: int) -> int:
        return self.images[a]

    def is_homomorphism(self) -> bool:
        return self._is_homomorphism

    @cached_property
    def _is_homomorphism(self) -> bool:
        """f(a*s) = f(a)*f(s) for every a and every generator s of the
        domain.  The s that pass for every a are closed under the
        product: f(a(st)) = f((as)t) = f(as)f(t) = f(a)f(s)f(t) =
        f(a)f(st).  They include the identity, as f is normalized, so
        they are the whole domain and f is a homomorphism.  The map is
        immutable, so one check answers every later call."""
        t, s = self.dom.table, self.cod.table
        im = self.images
        return all(im[row[g]] == s[im[a]][im[g]]
                   for g in self.dom.generators for a, row in enumerate(t))

    def is_bijective(self) -> bool:
        return (self.dom.order == self.cod.order
                and len(set(self.images)) == self.dom.order)

    def is_trivial(self) -> bool:
        return all(v == 0 for v in self.images)

    def image_set(self) -> frozenset:
        return frozenset(self.images)

    def kernel(self) -> frozenset:
        return frozenset(a for a, v in enumerate(self.images) if v == 0)

    def inverse(self) -> "GroupMap":
        if not self.is_bijective():
            raise ValueError("map is not bijective")
        inv = [0] * self.cod.order
        for a, v in enumerate(self.images):
            inv[v] = a
        return GroupMap(dom=self.cod, cod=self.dom, images=tuple(inv))

    def to_dict(self) -> dict:
        return {"images": list(self.images)}


def identity_map(g: FiniteGroup) -> GroupMap:
    return GroupMap(dom=g, cod=g, images=tuple(range(g.order)))


def trivial_map(dom: FiniteGroup, cod: FiniteGroup) -> GroupMap:
    return GroupMap(dom=dom, cod=cod, images=(0,) * dom.order)


def compose_maps(outer: GroupMap, inner: GroupMap) -> GroupMap:
    """outer after inner."""
    if inner.cod is not outer.dom and inner.cod != outer.dom:
        raise GroupMismatch("codomain of inner must match domain of outer")
    return GroupMap(dom=inner.dom, cod=outer.cod,
                    images=tuple(outer.images[v] for v in inner.images))


# ---------------------------------------------------------------------------
# backtracking searches


class _MapSearch:
    """Backtracking core shared by the hom/iso enumerators.

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
    homomorphism.
    """

    def __init__(self, dom, cod, injective, limits):
        self.dom = dom
        self.cod = cod
        self.injective = injective
        self.limits = limits
        self.gens = dom.generators
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
        self.nodes += 1
        if self.nodes > self.limits.max_search_nodes:
            raise SizeLimitExceeded(
                "map search exceeded node budget",
                limit=self.limits.max_search_nodes, needed=self.nodes)
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


def _check_order(g: FiniteGroup, limits: SearchLimits):
    if g.order > limits.max_order:
        raise SizeLimitExceeded(
            f"group order {g.order} exceeds search bound",
            limit=limits.max_order, needed=g.order)


def enumerate_homs(h: FiniteGroup, k: FiniteGroup,
                   limits: SearchLimits = DEFAULT_LIMITS) -> list[GroupMap]:
    """All homomorphisms h -> k, sorted lexicographically by image array."""
    _check_order(h, limits)
    _check_order(k, limits)
    found = list(_MapSearch(h, k, injective=False, limits=limits).run())
    found.sort(key=lambda m: m.images)
    return found


def enumerate_isomorphisms(g: FiniteGroup, h: FiniteGroup,
                           limits: SearchLimits = DEFAULT_LIMITS) -> list[GroupMap]:
    """All isomorphisms g -> h, sorted lexicographically by image array.
    Empty when the groups are not isomorphic."""
    _check_order(g, limits)
    _check_order(h, limits)
    if g.order != h.order or g.order_profile != h.order_profile:
        return []
    if g.is_abelian != h.is_abelian:
        return []
    found = list(_MapSearch(g, h, injective=True, limits=limits).run())
    found.sort(key=lambda m: m.images)
    return found


def enumerate_automorphisms(g: FiniteGroup,
                            limits: SearchLimits = DEFAULT_LIMITS) -> list[GroupMap]:
    """enumerate_isomorphisms(g, g), searched once per group and limits;
    every call returns a fresh list."""
    return list(_automorphisms(g, limits))


@lru_cache(maxsize=None)
def _automorphisms(g: FiniteGroup, limits: SearchLimits) -> tuple[GroupMap, ...]:
    return tuple(enumerate_isomorphisms(g, g, limits=limits))


@lru_cache(maxsize=None)
def _automorphism_generators(g: FiniteGroup, limits: SearchLimits):
    """Image arrays generating Aut(g), greedy in enumeration order: each
    automorphism outside the group the earlier picks generate is picked,
    and at least doubles it, so there are at most log2 |Aut(g)| picks."""
    gens, closure = [], {tuple(range(g.order))}
    for a in _automorphisms(g, limits):
        if a.images not in closure:
            gens.append(a.images)
            queue = list(closure)
            for x in queue:
                new = {tuple([x[i] for i in s]) for s in gens} - closure
                closure |= new
                queue += new
    return tuple(gens)


def brute_force_isomorphism(g: FiniteGroup, h: FiniteGroup,
                            constraint=None,
                            limits: SearchLimits = DEFAULT_LIMITS):
    """First isomorphism g -> h (lexicographically least image array)
    passing the optional constraint predicate, or None.

    The constraint is a post-filter on complete isomorphisms, not a
    search-space pruning, so the oracle stays trustworthy.
    """
    _check_order(g, limits)
    _check_order(h, limits)
    if g.order != h.order or g.order_profile != h.order_profile:
        return None
    if g.is_abelian != h.is_abelian:
        return None
    for m in _MapSearch(g, h, injective=True, limits=limits).run():
        if constraint is None or constraint(m):
            return m
    return None
