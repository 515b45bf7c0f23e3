"""The frozen value records (groups.Record): construction, defaults,
immutability, equality and hash, and the checks each record runs on
itself, over every record class of the package."""

import ast
import re
import sys
from pathlib import Path

import pytest

import centext
from centext.cocycles import (
    CoboundaryWitness,
    Cocycle2,
    CocycleSpace,
    _Coordinate,
    compute_cocycle_space,
)
from centext.errors import DimensionMismatch, NotNormalized
from centext.extensions import ExtensionGroup, HomMatrix, build_extension
from centext.groups import (
    DEFAULT_LIMITS,
    FiniteGroup,
    GroupMap,
    SearchLimits,
    trivial_map,
)
from centext.intlinalg import (
    AbelianPresentation,
    IntMatrix,
    ModSolveResult,
    SNFResult,
)
from centext.isotest import IsoCertificate

Z2_TABLE = ((0, 1), (1, 0))
Z2 = FiniteGroup(order=2, table=Z2_TABLE, name="Z2")
Z4 = FiniteGroup(order=4, table=tuple(
    tuple((a + b) % 4 for b in range(4)) for a in range(4)), name="Z4")
K4 = FiniteGroup(order=4, table=tuple(
    tuple(a ^ b for b in range(4)) for a in range(4)), name="K4")
IDENTITY = GroupMap(dom=Z2, cod=Z2, images=(0, 1))
TWIST = Cocycle2(g1=Z2, g2=Z2, table=((0, 0), (0, 1)))
CARRIER = build_extension(TWIST)
SPACE = compute_cocycle_space(Z2, Z2)


def record_cases():
    """(class, the fields of one record in declaration order, a field
    and a value that give an unequal record); the FiniteGroup change is
    the uncompared name."""
    m1 = IntMatrix(rows=1, cols=1, data=((1,),))
    m2 = IntMatrix(rows=1, cols=1, data=((2,),))
    return [
        (SearchLimits, {"max_order": 24, "max_search_nodes": 1000},
         ("max_order", 25)),
        (FiniteGroup, {"order": 2, "table": Z2_TABLE, "name": "Z2"},
         ("name", "C2")),
        (GroupMap, {"dom": Z2, "cod": Z2, "images": (0, 1)},
         ("images", (0, 0))),
        (IntMatrix, {"rows": 1, "cols": 2, "data": ((1, 2),)},
         ("data", ((1, 3),))),
        (SNFResult, {"s": m2, "u": m1, "v": m1}, ("s", m1)),
        (ModSolveResult, {"modulus": 2, "particular": (1,),
                          "kernel": ((2,),)}, ("particular", None)),
        (AbelianPresentation, {"group": Z2, "invariant_factors": (2,),
                               "coords": ((0,), (1,))},
         ("coords", ((1,), (0,)))),
        (Cocycle2, {"g1": Z2, "g2": Z2, "table": ((0, 0), (0, 1))},
         ("table", ((0, 0), (0, 0)))),
        (CoboundaryWitness, {"t": IDENTITY}, ("t", trivial_map(Z2, Z2))),
        (CocycleSpace, {"g1": Z2, "g2": Z2, "h2_invariant_factors": (2,),
                        "class_representatives":
                            SPACE.class_representatives,
                        "z2_order": 2, "b2_order": 1},
         ("b2_order", 2)),
        (_Coordinate, {"z_order": 2, "b_order": 1, "factors": (2,),
                       "box": ((2, (1,)),)},
         ("factors", ())),
        (ExtensionGroup, {"g1": Z2, "g2": Z2, "cocycle": TWIST,
                          "group": CARRIER.group},
         ("group", K4)),   # the twisted carrier is Z4
        (HomMatrix, {"source": CARRIER, "target": CARRIER,
                     "phi11": IDENTITY, "phi12": trivial_map(Z2, Z2),
                     "phi21": trivial_map(Z2, Z2), "phi22": IDENTITY},
         ("phi12", IDENTITY)),
        (IsoCertificate, {"kind": "upper", "source": CARRIER,
                          "target": CARRIER, "sigma": IDENTITY,
                          "rho": IDENTITY, "delta": None, "eta": None,
                          "t_witness": None},
         ("kind", "lower")),
    ]


DEFAULTS = {
    SearchLimits: {"max_order": 128, "max_search_nodes": 2_000_000},
    FiniteGroup: {"name": None},
    IsoCertificate: {"sigma": None, "rho": None, "delta": None,
                     "eta": None, "t_witness": None},
}


CASES = record_cases()


@pytest.mark.parametrize("cls, fields, change", CASES,
                         ids=[cls.__name__ for cls, _, _ in CASES])
def test_record_semantics(cls, fields, change):
    record = cls(**fields)
    # by keyword only
    assert vars(record) == fields
    values = list(fields.values())
    with pytest.raises(TypeError):
        cls(*values)
    if cls is not FiniteGroup:   # which has its own
        assert repr(record) == cls.__qualname__ + "(" + ", ".join(
            f"{k}={v!r}" for k, v in fields.items()) + ")"

    # defaults, and a field without one
    defaults = DEFAULTS.get(cls, {})
    given = {k: v for k, v in fields.items() if k not in defaults}
    assert vars(cls(**given)) == {**fields, **defaults}
    required = [k for k in fields if k not in defaults]
    if required:
        with pytest.raises(TypeError, match=f"has the fields"):
            cls(**{k: v for k, v in fields.items() if k != required[-1]})
    with pytest.raises(TypeError, match="'colour'"):
        cls(**fields, colour=1)
    renamed = {**dict(list(fields.items())[1:]), "colour": values[0]}
    with pytest.raises(TypeError, match=re.escape(
            f"{cls.__name__} has the fields {cls._fields}, not "
            f"{tuple(renamed)}")):
        cls(**renamed)

    # frozen
    first = next(iter(fields))
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(record, first, values[0])
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(record, first)
    with pytest.raises(AttributeError):
        record.colour = 1
    assert vars(record) == fields

    # equality and hash over the compared fields of one class only
    twin = cls(**fields)
    assert twin is not record and twin == record
    assert hash(twin) == hash(record)
    assert not twin != record
    other = cls(**{**fields, change[0]: change[1]})
    if cls is FiniteGroup:
        assert other == record and hash(other) == hash(record)
    else:
        assert other != record
    assert record != tuple(values) and record != object()


class TestRecordChecks:
    def test_post_init_still_checks(self):
        with pytest.raises(ValueError, match="image 2 out of range"):
            GroupMap(dom=Z2, cod=Z2, images=(0, 2))
        with pytest.raises(NotNormalized):
            GroupMap(dom=Z2, cod=Z2, images=(1, 0))
        with pytest.raises(NotNormalized):
            Cocycle2(g1=Z2, g2=Z2, table=((0, 1), (0, 0)))
        with pytest.raises(DimensionMismatch):
            IntMatrix(rows=2, cols=1, data=((1,),))
        with pytest.raises(ValueError, match="unknown certificate kind"):
            IsoCertificate(kind="sideways", source=CARRIER, target=CARRIER)
        # a bound below 1 refuses even the trivial group
        for field, value in [("max_order", 0), ("max_order", -3),
                             ("max_search_nodes", 0), ("max_order", True),
                             ("max_search_nodes", 2.0),
                             ("max_order", "24")]:
            with pytest.raises(ValueError, match=(
                    f"{field} must be an int of at least 1, not "
                    f"{value!r}")):
                SearchLimits(**{field: value})
        assert SearchLimits(max_order=1, max_search_nodes=1) == \
            SearchLimits(max_search_nodes=1, max_order=1)

    def test_cached_properties_on_frozen_records(self):
        g = FiniteGroup(order=4, table=Z4.table)
        assert "inverses" not in vars(g)
        assert g.inverses == (0, 3, 2, 1)
        assert vars(g)["inverses"] is g.inverses
        e = Cocycle2(g1=Z2, g2=Z2, table=TWIST.table)
        assert e._keys is e._keys and e._keys == {}

    def test_unchecked_map_is_the_checked_one(self):
        # Record._unchecked, on a map and on a cocycle, whose memos work
        for cls, values in [(GroupMap, dict(dom=Z2, cod=Z2, images=(0, 1))),
                            (Cocycle2, dict(g1=Z2, g2=Z2, table=TWIST.table))]:
            fast, checked = cls._unchecked(**values), cls(**values)
            assert type(fast) is cls and vars(fast) == vars(checked)
            assert fast == checked and hash(fast) == hash(checked)
        fast = Cocycle2._unchecked(g1=Z2, g2=Z2, table=TWIST.table)
        assert fast._keys is fast._keys == {}
        assert fast._memo is fast._memo == {}
        assert fast._identity == (True, None)

    def test_unchecked_refuses_a_missing_field(self):
        with pytest.raises(KeyError, match="images"):
            GroupMap._unchecked(dom=Z2, cod=Z2)

    def test_hash_is_that_of_the_field_tuple(self):
        # as under dataclasses, so no set or dict order moves
        assert hash(DEFAULT_LIMITS) == hash((128, 2_000_000))
        assert hash(IDENTITY) == hash((Z2, Z2, (0, 1)))
        assert hash(CoboundaryWitness(t=IDENTITY)) == hash((IDENTITY,))
        assert hash(Z2) == hash((2, Z2_TABLE))

    def test_finite_group_equality(self):
        assert Z2 == Z2 and not Z2 != Z2
        copy = FiniteGroup(order=2, table=tuple(map(tuple, Z2_TABLE)))
        assert copy == Z2 and not copy != Z2
        assert Z2 != Z4 and Z2 != IDENTITY
        assert repr(Z2) == "FiniteGroup(Z2)"


@pytest.mark.parametrize("cls, fields, change", CASES,
                         ids=[cls.__name__ for cls, _, _ in CASES])
def test_checked_and_unchecked_share_one_layout(cls, fields, change):
    # both fill __dict__ key by key in field order, so both share the
    # class's key table, which dict.update would copy into each record
    checked, fast = cls(**fields), cls._unchecked(**fields)
    assert list(vars(checked)) == list(vars(fast)) == list(cls._fields)
    assert sys.getsizeof(vars(checked)) == sys.getsizeof(vars(fast))


class _Calls(ast.NodeVisitor):
    """(callee, enclosing module.class.function) of each call of the
    given callees."""

    def __init__(self, module, callees):
        self.scope, self.callees, self.found = [module], callees, []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        callee = ast.unparse(node.func)
        if callee in self.callees:
            self.found.append((callee, ".".join(self.scope)))
        self.generic_visit(node)


def test_one_construction_path_per_value():
    # every table is wrapped by validate_group, but a carrier's, which
    # build_extension's docstring proves a group; every record that
    # skips its checks is made by Record._unchecked
    found = []
    for path in sorted(Path(centext.__file__).parent.glob("*.py")):
        calls = _Calls(path.stem, {"FiniteGroup", "object.__new__"})
        calls.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += calls.found
    assert sorted(found) == [
        ("FiniteGroup", "extensions.build_extension"),
        ("FiniteGroup", "groups.validate_group"),
        ("object.__new__", "groups.Record._unchecked"),
    ]
