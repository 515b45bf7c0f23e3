"""Built-in small groups, addressable by name.

Tables are built on first request and cached.  Element 0 is the identity
in every entry; constructions are deterministic so serialized fixtures
stay stable across runs.

Every group is built by groups.group_from_elements, the cyclic groups
and direct products through cyclic_group and direct_product; it calls op
only for the columns of the greedy generators and reads every other
column through them, which needs an associative op, as each of these
is.  Every table still passes validate_group.  Two groups sit outside
the named catalog, so that `centext catalog list` keeps its entries:
SL(2,5), order 120, and PSL(2,7), order 168, a second simple group
between A5 and A6.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .groups import (
    FiniteGroup,
    brute_force_isomorphism,
    cyclic_group,
    direct_product,
    group_from_elements,
)


def _perm_compose(p, q):
    # the composite p o q: apply q first, then p
    return tuple(p[x] for x in q)


def symmetric_group(n: int, name: str | None = None) -> FiniteGroup:
    elems = sorted(itertools.permutations(range(n)))
    return group_from_elements(elems, _perm_compose, name=name or f"S{n}")


def alternating_group(n: int, name: str | None = None) -> FiniteGroup:
    def parity(p):
        inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p))
                  if p[i] > p[j])
        return inv % 2
    elems = sorted(p for p in itertools.permutations(range(n))
                   if parity(p) == 0)
    return group_from_elements(elems, _perm_compose, name=name or f"A{n}")


def dihedral_group(n: int, name: str | None = None) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n; elements are
    (rotation, flip) pairs with (0,0) the identity."""
    def op(a, b):
        r1, s1 = a
        r2, s2 = b
        r = (r1 - r2) % n if s1 else (r1 + r2) % n
        return (r, s1 ^ s2)
    elems = [(r, s) for r in range(n) for s in (0, 1)]
    elems.sort()
    return group_from_elements(elems, op, name=name or f"D{n}")


_UNIT_MUL = {
    # quaternion units 0=1, 1=i, 2=j, 3=k; value = (sign flip, unit)
    (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
    (1, 0): (0, 1), (2, 0): (0, 2), (3, 0): (0, 3),
    (1, 1): (1, 0), (2, 2): (1, 0), (3, 3): (1, 0),
    (1, 2): (0, 3), (2, 1): (1, 3),
    (2, 3): (0, 1), (3, 2): (1, 1),
    (3, 1): (0, 2), (1, 3): (1, 2),
}


def quaternion_group(name: str = "Q8") -> FiniteGroup:
    def op(a, b):
        s1, u1 = a
        s2, u2 = b
        flip, u = _UNIT_MUL[(u1, u2)]
        return ((s1 + s2 + flip) % 2, u)
    elems = [(s, u) for s in (0, 1) for u in range(4)]
    return group_from_elements(elems, op, name=name)


def _mat_mul(p: int):
    """The product of 2x2 matrices (a, b, c, d) over the integers mod p."""
    def op(m, n):
        a, b, c, d = m
        e, f, g, h = n
        return ((a * e + b * g) % p, (a * f + b * h) % p,
                (c * e + d * g) % p, (c * f + d * h) % p)
    return op


@lru_cache(maxsize=None)
def special_linear_2_5(name: str = "SL25") -> FiniteGroup:
    """2x2 matrices of determinant 1 over the field with 5 elements,
    order 120; the identity matrix comes first.  Built once per name,
    as get_group builds each catalog group once."""
    elems = []
    for a, b, c, d in itertools.product(range(5), repeat=4):
        if (a * d - b * c) % 5 == 1:
            elems.append((a, b, c, d))
    elems.sort(key=lambda m: m != (1, 0, 0, 1))
    return group_from_elements(elems, _mat_mul(5), name=name)


@lru_cache(maxsize=None)
def projective_special_linear_2_7(name: str = "PSL27") -> FiniteGroup:
    """SL(2,7) modulo its center {I, -I}: order 168, simple, with Schur
    multiplier Z2 and H_1 = 0 (ATLAS).  Each element is the pair {M, -M}
    of determinant-1 matrices over the field with 7 elements, stored as
    the lesser of the two 4-tuples (a, b, c, d); the identity comes
    first, then the rest in ascending order.  The product is that of
    matrices, stored the same way, so it is associative.  Built once per
    name, like special_linear_2_5."""
    def least(m):
        return min(m, tuple(-v % 7 for v in m))
    elems = sorted({least(m) for m in itertools.product(range(7), repeat=4)
                    if (m[0] * m[3] - m[1] * m[2]) % 7 == 1},
                   key=lambda m: (m != (1, 0, 0, 1), m))
    mul = _mat_mul(7)
    return group_from_elements(elems, lambda m, n: least(mul(m, n)),
                               name=name)


_BUILDERS = {
    "Z1": lambda: cyclic_group(1, "Z1"),
    "Z2": lambda: cyclic_group(2, "Z2"),
    "Z3": lambda: cyclic_group(3, "Z3"),
    "Z4": lambda: cyclic_group(4, "Z4"),
    "Z5": lambda: cyclic_group(5, "Z5"),
    "Z6": lambda: cyclic_group(6, "Z6"),
    "Z7": lambda: cyclic_group(7, "Z7"),
    "Z8": lambda: cyclic_group(8, "Z8"),
    "K4": lambda: direct_product(cyclic_group(2), cyclic_group(2), name="K4"),
    "Z2xZ4": lambda: direct_product(cyclic_group(2), cyclic_group(4),
                                    name="Z2xZ4"),
    "Z2xZ2xZ2": lambda: direct_product(
        direct_product(cyclic_group(2), cyclic_group(2)), cyclic_group(2),
        name="Z2xZ2xZ2"),
    "S3": lambda: symmetric_group(3),
    "D4": lambda: dihedral_group(4),
    "Q8": lambda: quaternion_group(),
    "D5": lambda: dihedral_group(5),
    "A4": lambda: alternating_group(4),
    "S4": lambda: symmetric_group(4),
    "A5": lambda: alternating_group(5),
}

_ALIASES = {"Z2xZ2": "K4"}


def catalog_names() -> list[str]:
    return list(_BUILDERS)


@lru_cache(maxsize=None)
def get_group(name: str) -> FiniteGroup:
    key = _ALIASES.get(name, name)
    if key not in _BUILDERS:
        raise KeyError(f"unknown catalog group {name!r}")
    return _BUILDERS[key]()


def identify_group(g: FiniteGroup) -> str | None:
    """Catalog name of g's isomorphism type, or None when no entry of
    the same order matches."""
    for name in catalog_names():
        cand = get_group(name)
        if cand.order != g.order:
            continue
        if brute_force_isomorphism(g, cand) is not None:
            return name
    return None
