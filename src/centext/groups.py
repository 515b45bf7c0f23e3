"""Finite groups as Cayley tables.

Conventions used throughout the package:
  * elements of a group of order n are the indices 0..n-1,
  * index 0 is always the identity,
  * maps between groups are stored as full image arrays and are
    normalized (they send 0 to 0).  GroupMap's constructor checks the
    length, range and normalization of the array; the maps the search
    emits skip that scan (Record._unchecked), as the search proves
    all three.

Tables and maps are checked along generators.  Each group carries a
short generating sequence (FiniteGroup.generators): a pair (1, y) where
one generates and the greedy sequence is longer, as for every finite
simple group, else the greedy sequence, each found by walking the right
Cayley graph.  A property of all products x*y is tested on the products
x*s with s a generator only, with the proof that this suffices in the
docstring of each check: validate_group (Light's associativity test),
GroupMap.is_homomorphism, and in other modules is_cocycle,
is_homomorphism_direct, condition 4 of hom_condition_failures, and
Hopf's system and the generator columns behind H^2.  Each needs only a
set whose left-nested products reach every element, and the fewer
elements, the fewer products: A5 to A7 take 2, not 3 to 5.  The
homomorphism enumeration and abelian_invariants read the greedy
sequence instead, through the steps of its walk (_closure_layers): the
enumeration extends partial images along the Cayley graph of the
generators chosen so far by replaying those steps, and emits its maps
in lex order because the greedy sequence adjoins the least element not
yet reached.  A full scan runs only after a generator check has failed,
to name the first witness.  Every group the package builds passes
validate_group but an extension carrier, which build_extension's
docstring proves a group.  The same walk (_cayley_walk) tables
group_from_elements from op at the generator columns, which builds
cyclic_group, direct_product, the catalog's groups and the kernel and
quotient of extensions.central_quotient_data; it also picks the
generators of Aut(g) (_automorphism_generators), closes subgroups
(subgroup_closure), and its recorded steps give the relations of
intlinalg.abelian_invariants.  subgroup_closure returns a frozenset;
center, conjugacy_classes and normal_subgroups ascending tuples.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from operator import attrgetter, itemgetter

from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    NoIdentityAtZero,
    NonAssociative,
    NotLatinSquare,
    NotNormalized,
    SizeLimitExceeded,
)


class Record:
    """A frozen value object whose fields are the class's annotations.

    It is built by keyword only, and a field with a value in the class
    body defaults to it.  __init__ fills __dict__ key by key in field
    order (_fill, which _unchecked shares) and then calls the class's
    __post_init__, if it has one, so a check there sees every field.
    Filled in one order, the records of a class share its key table,
    where dict.update would copy one into each.  Assignment and
    deletion raise AttributeError; cached_property writes to __dict__
    directly, so it still works.  Records of one class are equal when
    their fields are, unless the class defines its own __eq__, and hash
    as the tuple of them, computed once (_hash).  Importing dataclasses
    would cost every process start more than this class does.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        own = vars(cls)
        cls._fields = fields = tuple(cls.__annotations__)
        get = attrgetter(*fields)
        key = get if len(fields) > 1 else lambda r: (get(r),)
        cls._key = staticmethod(key)
        # closures, so the calls on every record read no class attribute
        n = len(fields)
        defaults = {f: own[f] for f in fields if f in own}
        post = getattr(cls, "__post_init__", None)

        def fill(r, values):
            attrs = r.__dict__
            for name in fields:
                attrs[name] = values[name]
            return r

        def __init__(self, **values):
            if len(values) != n:
                values = {**defaults, **values}
            try:
                fill(self, values)
            except KeyError:
                raise self._misfit(values) from None
            if len(values) != n:
                raise self._misfit(values)
            if post is not None:
                post(self)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        cls.__init__ = __init__
        cls._fill = staticmethod(fill)
        if "__eq__" not in own:
            cls.__eq__ = __eq__
        # None also when the body defines __eq__ but no __hash__
        if own.get("__hash__") is None:
            cls.__hash__ = Record.__hash__

    @classmethod
    def _unchecked(cls, **values):
        """Every field, by name, with no __init__ or __post_init__: only
        for callers whose docstring proves what __post_init__ checks.  A
        missing field raises KeyError here, not AttributeError later."""
        return cls._fill(object.__new__(cls), values)

    def _misfit(self, values) -> TypeError:
        return TypeError(f"{type(self).__name__} has the fields "
                         f"{self._fields}, not {tuple(values)}")

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return type(self).__qualname__ + "(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields) + ")"


class SearchLimits(Record):
    """Budgets for the backtracking searches.

    max_order caps the order of both groups of every map search (hom,
    isomorphism and automorphism enumeration, brute_force_isomorphism,
    hence identify_group and the Aut(G1) and Aut(G2) of the deciders);
    max_search_nodes caps image assignments during backtracking: one per
    generator image tried and one per image that choice forces along
    the Cayley graph of the generators.  The count is checked once per
    choice, after the images it forces, so a search that finishes
    visited at most max_search_nodes nodes.  Cohomology takes no budget.
    Both are ints of at least 1, bool excluded, else ValueError: a
    bound below 1 would refuse even the trivial group, so it is invalid
    input rather than a budget.
    """

    max_order: int = 128
    max_search_nodes: int = 2_000_000

    def __post_init__(self):
        for name in self._fields:
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be an int of at least 1, "
                                 f"not {value!r}")


DEFAULT_LIMITS = SearchLimits()


class FiniteGroup(Record):
    """A finite group given by its multiplication table.

    table[a][b] is the index of a*b.  The four structural axioms are
    checked by validate_group, not by the constructor, which only
    build_extension calls directly, for a carrier it proves a group.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    name: str | None = None

    def __eq__(self, other):   # order and table; the name is not compared
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.order, self.table) == (other.order, other.table)

    @cached_property
    def _hash(self) -> int:   # Record.__hash__ returns it; no name
        return hash((self.order, self.table))

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
        """A short generating sequence: the greedy one, which repeatedly
        adjoins the least element not yet reached, when it has at most
        two elements; else (1, y) for the least y whose walk from (1, y)
        reaches every element, or the greedy one when no y does.  What a
        walk reaches is the closure of {0} under right multiplication by
        the sequence, that is the left-nested products ((s1 s2) s3)...
        of its elements; it needs no associativity (validate_group
        relies on that), and in a group it is the subgroup generated.
        Each walk is _cayley_walk's, O(n k) products for k elements; a y
        that a proper <1, y'> walked before reached is skipped, as <1, y>
        lies inside it.  Every finite simple group is 2-generated, each
        element in some generating pair (Guralnick & Kantor, J. Algebra
        234, 2000), so A5 to A7 take 2 elements, not 3 to 5."""
        tab, n = self.table, self.order
        greedy = _cayley_walk(tab, range(n), False)[0]
        if len(greedy) <= 2:
            return greedy
        inside = [False] * n
        for y in range(2, n):
            if not inside[y]:
                reached = _cayley_walk(tab, (1, y), False)[2]
                if len(reached) == n:
                    return 1, y
                for x in reached:
                    inside[x] = True
        return greedy

    @cached_property
    def _closure_layers(self) -> tuple:
        """The closure steps of _cayley_walk over range(n), one layer per
        element of the greedy sequence (which generators is not when a
        pair replaces it), recorded on the group's first map search (see
        _MapSearch) or abelian presentation
        (intlinalg.abelian_invariants)."""
        return _cayley_walk(self.table, range(self.order), True)[1]

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
        group = validate_group(d["table"], name=name)
        order = d.get("order", group.order)
        if not isinstance(order, int) or isinstance(order, bool):
            raise ValueError(f"'order' must be an integer, not {order!r}")
        if order != group.order:
            raise ValueError(f"'order' is {order} but the table has "
                             f"{group.order} rows")
        return group

    def __repr__(self):
        label = self.name if self.name is not None else f"order {self.order}"
        return f"FiniteGroup({label})"


def _cayley_walk(tab, adjoin, record: bool, on_adjoin=None):
    """Walk the right Cayley graph of the table tab from 0, adjoining in
    turn each element of adjoin not yet reached.  Returns the adjoined
    elements (over range(n), the greedy generating sequence), the closure
    steps of each one's layer if record, and the reached elements.

    The walk grows the reached set incrementally: when x is adjoined,
    every member is multiplied by x, and each newly reached element by
    every generator so far, so each element meets each generator once.
    x itself is the product 0*x and is reached first.  Every later
    product r = a*s is a step (r, a, s, tree): a tree step when it
    reaches r for the first time, a check step when r was reached
    before.  A layer is (x, steps, reached), reached being x and then
    the tree steps' elements in walk order.  The walk reads tab[a][s]
    only for adjoined s, so tab may be rows that on_adjoin(x), run as x
    is adjoined and before any product with x is read, fills at column x:
    from op in group_from_elements, by composition in
    _automorphism_generators.  Table walks pass no on_adjoin.
    """
    n = len(tab)
    gens, reached, seen = [], [0], [True] + [False] * (n - 1)
    layers = []
    for x in adjoin:
        if seen[x]:
            continue
        gens.append(x)
        if on_adjoin is not None:
            on_adjoin(x)
        old, only_x = len(reached), (x,)
        seen[x] = True
        reached.append(x)
        steps = []
        # reached[:old] is closed under the earlier generators
        i = 1
        while i < len(reached):
            a = reached[i]
            row = tab[a]
            for s in (gens if i >= old else only_x):
                r = row[s]
                if not seen[r]:
                    seen[r] = True
                    reached.append(r)
                    if record:
                        steps.append((r, a, s, True))
                elif record:
                    steps.append((r, a, s, False))
            i += 1
        if record:
            layers.append((x, tuple(steps), tuple(reached[old:])))
    return tuple(gens), tuple(layers), reached


def validate_group(table, name: str | None = None) -> FiniteGroup:
    """Check the four Cayley-table axioms and wrap the table.

    Raises, in this order of precedence, ValueError for malformed input
    (including rows that are not lists, and entries that are not int or
    are bool), NoIdentityAtZero, NotLatinSquare, NonAssociative.  Each
    error message carries the first witness found (row-major scan order).

    The first three axioms are screened with C-level passes over whole
    rows: every row has n entries, each of type int exactly
    (set(map(type, row)) <= {int}, which rejects bool), min and max in
    range, row 0 and column 0 the identity, and len(set(row)) == n.  A
    screen that passes proves its axiom; only a failed one runs the
    entry-by-entry scan, which names the first offender (an int subclass
    other than bool fails the type screen but passes the scan).  The
    columns are screened the same way only when Light's test fails, just
    before the associativity scan: identity at 0, Latin rows and
    associativity make a monoid in which every x has a right inverse (0
    is in row x), so a group, and a group's columns are Latin.

    Associativity is decided by Light's test (Clifford & Preston, The
    Algebraic Theory of Semigroups I, 1961, section 1.2).  The middles m
    with (xm)y = x(my) for all x, y are closed under the product: for two
    of them, (x(m m'))y = ((xm)m')y = (xm)(m'y) = x(m(m'y)) =
    x((m m')y).  The identity 0 is such a middle, so once every element
    of a set S is one, so is every left-nested product ((s1 s2) s3)...
    of elements of S.  S is FiniteGroup.generators, and every element is
    such a product of generators: the walk that chose S reached them
    all, by right multiplication alone, so with no use of associativity
    (for a pair, the walk from (1, y); for the greedy sequence, it
    adjoins the least element that no such product reaches).  Skipping
    a y that an earlier walk reached only decides which pair is taken,
    and a pair is taken only once its own walk reaches every element,
    so a table that is no group is still caught.  So n * |S| row
    comparisons, n * 2 for the simple groups, replace the n^3 triples.
    Only when a generator fails does the row-major scan run, to name
    the first failing triple.
    """
    if not isinstance(table, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in table):
        raise ValueError("a group table must be a list of rows")
    n = len(table)
    if n == 0:
        raise ValueError("empty table")
    tab = tuple(map(tuple, table))
    if not (all(len(row) == n and set(map(type, row)) <= {int}
                for row in tab)
            and 0 <= min(map(min, tab)) and max(map(max, tab)) < n):
        _check_entries(tab)

    identity = tuple(range(n))
    if tab[0] != identity or tuple(map(itemgetter(0), tab)) != identity:
        _check_identity(tab)

    if not all(len(set(row)) == n for row in tab):
        _check_latin(tab)

    group = FiniteGroup(order=n, table=tab, name=name)
    for s in group.generators:
        # x*(s*y) for every y at once: row x read in the order of row s
        through_s = itemgetter(*tab[s])
        if any(tab[row[s]] != through_s(row) for row in tab):
            if not all(len(set(col)) == n for col in zip(*tab)):
                _check_latin(tab)
            _raise_first_nonassociative(tab)
    return group


def _check_entries(tab):
    n = len(tab)
    for a, row in enumerate(tab):
        if len(row) != n:
            raise ValueError(f"row {a} has length {len(row)}, expected {n}")
        for b, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"entry [{a}][{b}] = {v!r} is not an integer")
            if not 0 <= v < n:
                raise ValueError(f"entry [{a}][{b}] = {v!r} out of range")


def _check_identity(tab):
    for b, v in enumerate(tab[0]):
        if v != b:
            raise NoIdentityAtZero(f"0*{b} = {v}, expected {b}")
    for a, row in enumerate(tab):
        if row[0] != a:
            raise NoIdentityAtZero(f"{a}*0 = {row[0]}, expected {a}")


def _check_latin(tab):
    for line, across, lines in (("row", "columns", tab),
                                ("column", "rows", zip(*tab))):
        for a, entries in enumerate(lines):
            seen = {}
            for b, v in enumerate(entries):
                if v in seen:
                    raise NotLatinSquare(f"{line} {a} repeats {v} at "
                                         f"{across} {seen[v]} and {b}")
                seen[v] = b


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
    raise InternalInconsistency(
        "a generator failed Light's test but no triple did")


def cyclic_group(n: int, name: str | None = None) -> FiniteGroup:
    if n < 1:
        raise ValueError("order must be positive")
    return group_from_elements(range(n), lambda a, b: (a + b) % n,
                               name=name or f"Z{n}")


def direct_product(g: FiniteGroup, h: FiniteGroup,
                   name: str | None = None) -> FiniteGroup:
    """Direct product with pairs indexed first-factor major: (a,b) -> a*|h|+b."""
    gt, ht = g.table, h.table
    return group_from_elements(
        tuple(itertools.product(range(g.order), range(h.order))),
        lambda x, y: (gt[x[0]][y[0]], ht[x[1]][y[1]]), name=name)


def group_from_elements(elems, op, name: str | None = None) -> FiniteGroup:
    """Build a validated group from concrete elements under op.

    elems is a sequence whose first element must be the identity; its
    elements must be hashable, and op must be associative.  op runs only
    for the columns x -> x*s of 0 and of the greedy generators s, filled
    in as _cayley_walk adjoins s: n * (k + 1) calls for k generators.
    Every other b is first reached by a tree step b = p*s, p reached
    before it; a*b = (a*p)*s by associativity, so column b is column s
    read through column p: n reads, no call of op.  Closure is checked on
    the columns op computes, from which every other column is read.

    The table is that of the n^2 products, so validate_group raises for
    it as for those (NoIdentityAtZero when elems[0] is not the
    identity); ValueError is raised for duplicate elements and for a
    product outside the set.
    """
    index = {e: i for i, e in enumerate(elems)}
    if len(index) != len(elems):
        raise ValueError("duplicate elements")
    n = len(elems)
    if n == 0:
        return validate_group((), name=name)   # raises: empty table
    cols, rows = [None] * n, [{} for _ in range(n)]

    def column(s):
        cols[s] = col = [index.get(op(a, elems[s])) for a in elems]
        if None in col:
            raise ValueError("elements not closed under op")
        for row, b in zip(rows, col):
            row[s] = b

    column(0)
    for _, steps, _ in _cayley_walk(rows, range(n), True, column)[1]:
        for b, p, s, tree in steps:
            if tree:
                cols[b] = itemgetter(*cols[p])(cols[s])
    return validate_group(tuple(zip(*cols)), name=name)


# ---------------------------------------------------------------------------
# subgroups and structural queries


def subgroup_closure(g: FiniteGroup, gens) -> frozenset:
    """Smallest subgroup of g containing gens: what _cayley_walk reaches
    adjoining only gens, the closure of {0} under right multiplication
    by gens, which in a finite group is the subgroup they generate.  Each
    adjoined element at least doubles it: O(|H| log |H|) products."""
    return frozenset(_cayley_walk(g.table, gens, False)[2])


def center(g: FiniteGroup) -> tuple[int, ...]:
    """The members of the center, ascending."""
    n = g.order
    return tuple(z for z in range(n)
                 if all(g.table[z][x] == g.table[x][z] for x in range(n)))


def conjugacy_classes(g: FiniteGroup) -> list[tuple[int, ...]]:
    """Classes sorted by least member; the identity class comes first.
    The scan emits them so: a member below a would have marked a seen."""
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
    return classes


def normal_subgroups(g: FiniteGroup) -> list[tuple[int, ...]]:
    """All normal subgroups as ascending member tuples, by size and then
    members.  A normal subgroup is the union of the classes in it, hence
    the join (the subgroup generated) of their normal closures.  Joining
    each subgroup found so far with each class's normal closure in turn
    thus builds them all, with no scan of the 2^(c - 1) class unions."""
    subs = {frozenset((0,))}
    for cls in conjugacy_classes(g)[1:]:
        closure = subgroup_closure(g, cls)
        subs |= {subgroup_closure(g, m | closure) for m in subs
                 if not closure <= m}
    return sorted((tuple(sorted(m)) for m in subs),
                  key=lambda m: (len(m), m))


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

    Abelian groups return False by convention.  An abelian factor A of
    g = A x B commutes with A and with B, so with g: it lies in the
    center.  Conversely a central A != 1 and a normal B meeting A in 1,
    with |A||B| = |g|, give g = A x B, A abelian.  So the pairs of normal
    subgroups are scanned for a central A != 1 and such a B.
    """
    if g.is_abelian:
        return False
    subs, z = normal_subgroups(g), set(center(g))
    return not any(len(a) * len(b) == g.order and set(a) & set(b) == {0}
                   for a in subs if len(a) > 1 and z.issuperset(a)
                   for b in subs)


# ---------------------------------------------------------------------------
# maps between groups


class GroupMap(Record):
    """A normalized set map between groups, stored as its image array.

    Normalized means images[0] == 0; every map this package handles
    (homomorphisms as well as the section and witness maps of the
    extension machinery) satisfies that.
    """

    dom: FiniteGroup
    cod: FiniteGroup
    images: tuple[int, ...]

    def __post_init__(self):
        images, n = self.images, self.cod.order
        if len(images) != self.dom.order:
            raise DimensionMismatch(
                f"image array has length {len(images)}, "
                f"domain has order {self.dom.order}")
        # screened at C speed; the scan names the first offender
        if min(images) < 0 or max(images) >= n:
            v = next(v for v in images if not 0 <= v < n)
            raise ValueError(f"image {v} out of range")
        if images[0] != 0:
            raise NotNormalized("map must send 0 to 0")

    def __call__(self, a: int) -> int:
        return self.images[a]

    def is_homomorphism(self) -> bool:
        return self._is_homomorphism

    @cached_property
    def _is_homomorphism(self) -> bool:
        """_homomorphic on the image array.  The map is immutable, so one
        check answers every later call."""
        return _homomorphic(self.dom, self.cod, self.images)

    def is_bijective(self) -> bool:
        return (self.dom.order == self.cod.order
                and len(set(self.images)) == self.dom.order)

    def is_trivial(self) -> bool:
        return all(v == 0 for v in self.images)

    def inverse(self) -> "GroupMap":
        if not self.is_bijective():
            raise ValueError("map is not bijective")
        inv = [0] * self.cod.order
        for a, v in enumerate(self.images):
            inv[v] = a
        return GroupMap(dom=self.cod, cod=self.dom, images=tuple(inv))


def _homomorphic(dom: FiniteGroup, cod: FiniteGroup, im) -> bool:
    """Whether the normalized map dom -> cod with image array im is a
    homomorphism: f(a*s) = f(a)*f(s) for every a and every generator s
    of the domain.  The s that pass for every a are closed under the
    product: f(a(st)) = f((as)t) = f(as)f(t) = f(a)f(s)f(t) = f(a)f(st).
    They include the identity, as f is normalized, so they are the whole
    domain and f is a homomorphism."""
    s = cod.table
    return all(im[row[g]] == s[im[a]][im[g]]
               for g in dom.generators for a, row in enumerate(dom.table))


@lru_cache(maxsize=None)
def trivial_map(dom: FiniteGroup, cod: FiniteGroup) -> GroupMap:
    return GroupMap(dom=dom, cod=cod, images=(0,) * dom.order)


# ---------------------------------------------------------------------------
# backtracking searches


class _MapSearch:
    """Backtracking core shared by the hom/iso enumerators.

    Images of the greedy generating sequence are chosen in ascending
    order.  The images live on the subgroup H generated by the
    generators assigned so far.  A choice f(x) = v sets or checks
    f(a*s) = f(a)*f(s) along the Cayley graph: for a in H and s = x,
    and for each newly reached a and every assigned s (with injectivity
    on each new image, for isomorphism searches); the old edges were
    checked at earlier layers.  By induction on word length,
    f(a*w) = f(a)*f(w) then holds on the new subgroup, so a choice is
    accepted exactly when the partial map extends to a homomorphism
    (injective, if asked) of it, which is when closing the images under
    every pair of known elements finds no conflict.  So every map
    emitted is a verified homomorphism, and a well-formed map, which
    Record._unchecked builds without GroupMap's scan: images[0] = 0 is
    fixed, every image is a candidate (an index of cod) or an entry of
    cod's table, and a map is emitted after the last layer, by which
    time the walk of the domain has reached, and so set, every element.

    These products are the steps of the domain's _cayley_walk, recorded
    once per group (FiniteGroup._closure_layers) and replayed here: a
    tree step (r, a, s) sets f(r) = f(a)*f(s), after testing that the
    image is unused in an injective search, and a check step compares
    f(r) with it.  The steps depend on the domain alone.  Before layer
    l the elements with an image are exactly those the walk reached in
    its first l layers: true for {0}, and the choice f(x) = v adds x,
    which the walk reaches first as 0*x (a step that always passes,
    f(0*x) = f(0)f(x), so the replay omits it), and each tree step adds
    its r.  So within the layer, r has an image at a step exactly when
    the walk reached r before it: the images assigned decide only
    whether a step passes, never which products are taken, in which
    order, or whether a step sets or compares; a failing step ends the
    choice.  Replaying therefore accepts the same choices as closing
    the graph afresh at each node, and counts the same nodes: one per
    choice and one per tree step taken.  The count is checked against
    max_search_nodes once per choice, after its steps, so a search that
    finishes visited at most max_search_nodes nodes.  The steps taken
    before a failing one set a prefix of the layer's reached elements,
    which the undo resets.

    The maps come out in lex order of image arrays: two maps first
    differ in the image of some generator x, taken from ascending
    candidates; before it they agree on the subgroup the earlier
    generators generate, which holds every element below x, as the
    greedy sequence adjoins the least element outside it.
    """

    def __init__(self, dom, cod, injective, limits):
        self.dom = dom
        self.cod = cod
        self.injective = injective
        self.limits = limits
        self.layers = dom._closure_layers
        self.candidates = [self._candidates(x) for x, _, _ in self.layers]
        self.nodes = 0

    def _candidates(self, gen):
        d = self.dom.element_orders[gen]
        return [k for k, o in enumerate(self.cod.element_orders)
                if (o == d if self.injective else d % o == 0)]

    def run(self):
        images = [-1] * self.dom.order
        images[0] = 0
        used = [False] * self.cod.order
        used[0] = True
        yield from self._assign(0, images, used)

    def _assign(self, layer, images, used):
        if layer == len(self.layers):
            yield GroupMap._unchecked(dom=self.dom, cod=self.cod,
                                      images=tuple(images))
            return
        x, steps, reached = self.layers[layer]
        ct, injective = self.cod.table, self.injective
        budget = self.limits.max_search_nodes
        for v in self.candidates[layer]:
            if injective and used[v]:
                continue
            images[x] = v
            used[v] = injective   # only an injective search marks images
            taken, passed = 0, True
            for r, a, s, tree in steps:
                w = ct[images[a]][images[s]]
                if tree:
                    if injective and used[w]:
                        passed = False
                        break
                    images[r] = w
                    used[w] = injective
                    taken += 1
                elif images[r] != w:
                    passed = False
                    break
            self.nodes += 1 + taken
            if self.nodes > budget:
                raise SizeLimitExceeded(
                    "map search exceeded node budget",
                    limit=budget, needed=self.nodes)
            if passed:
                yield from self._assign(layer + 1, images, used)
            for r in reached[:taken + 1]:
                used[images[r]] = False
                images[r] = -1


def _maps(dom: FiniteGroup, cod: FiniteGroup, injective: bool,
          limits: SearchLimits):
    """_MapSearch(dom, cod, injective, limits).run(), in lex order, once
    both orders pass limits.max_order; for isomorphisms, nothing when
    the orders, the element-order profiles or commutativity differ."""
    for g in (dom, cod):
        if g.order > limits.max_order:
            raise SizeLimitExceeded(
                f"group order {g.order} exceeds search bound",
                limit=limits.max_order, needed=g.order)
    if injective and (dom.order != cod.order
                      or dom.order_profile != cod.order_profile
                      or dom.is_abelian != cod.is_abelian):
        return
    yield from _MapSearch(dom, cod, injective, limits).run()


def enumerate_homs(h: FiniteGroup, k: FiniteGroup,
                   limits: SearchLimits = DEFAULT_LIMITS) -> list[GroupMap]:
    """All homomorphisms h -> k, sorted lexicographically by image array."""
    return list(_maps(h, k, False, limits))


def enumerate_isomorphisms(g: FiniteGroup, h: FiniteGroup,
                           limits: SearchLimits = DEFAULT_LIMITS) -> list[GroupMap]:
    """All isomorphisms g -> h, sorted lexicographically by image array.
    Empty when the groups are not isomorphic."""
    return list(_maps(g, h, True, limits))


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
    """Image arrays generating Aut(g): the greedy picks of _cayley_walk
    over the automorphisms, the identity first and the rest in reverse
    enumeration order, x*s = x . s (s applied first) filled in for every
    x as s is adjoined.  Each pick at least doubles the group generated, so
    there are at most log2 |Aut(g)|.  The lexicographic enumeration opens
    with maps in small stabilizers, so from its end the picks are fewer
    (2, not 6, on A6)."""
    auts = _automorphisms(g, limits)
    elems = [a.images for a in auts[:1] + auts[:0:-1]]
    index, rows = {x: i for i, x in enumerate(elems)}, [{} for _ in elems]

    def compose(s):
        after = itemgetter(*elems[s])   # a tuple: a second automorphism
        for row, x in zip(rows, elems):   # needs order >= 3
            row[s] = index[after(x)]
    gens = _cayley_walk(rows, range(len(elems)), False, compose)[0]
    return tuple(elems[s] for s in gens)


def brute_force_isomorphism(g: FiniteGroup, h: FiniteGroup,
                            constraint=None,
                            limits: SearchLimits = DEFAULT_LIMITS):
    """First isomorphism g -> h (lexicographically least image array)
    passing the optional constraint predicate, or None.

    The constraint is a post-filter on complete isomorphisms, not a
    search-space pruning, so the oracle stays trustworthy.
    """
    return next((m for m in _maps(g, h, True, limits)
                 if constraint is None or constraint(m)), None)
