"""The library's value classes: construction by position, keyword and
default, equality and hashing on their fields, the Name(field=value, ...)
repr, refusal of assignment and deletion, and copy and pickle round
trips.  Importing the CLI loads none of the stdlib's introspection
modules."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import shifted_tableaux
from shifted_tableaux.core import (Entry, ShiftedSkewShape, ShiftedTableau, StrictPartition,
                                   parse_tableau)
from shifted_tableaux.engine import (Counterexample, GeneratorSymbol, OrbitGraph,
                                     PresetResult, RelationSchema, Verdict, _Kind)
from shifted_tableaux.enumeration import TableauFamily, enumerate_tableaux
from shifted_tableaux.jdt import SlideRecord
from shifted_tableaux.switching import PerforatedFilling, PerforatedPair, TraceStep

SHAPE = ShiftedSkewShape((3, 1), (1,))
T = parse_tableau(". 1 2 / 2", 2)
U = parse_tableau("1 1 2' / 2", 2)
FILLING = PerforatedFilling(1, (((1, 1), False), ((1, 2), True)))
VERDICT = Verdict(False, 3, Counterexample(T, (("i", 1),), T, U), "failed")
FAMILY = enumerate_tableaux(SHAPE, 2)


# class, its field values in order (each picklable), the number of
# fields with no default, the defaults of the rest, and the repr
CASES = [
    (StrictPartition, ((3, 1),), 0, ((),), "StrictPartition(parts=(3, 1))"),
    (ShiftedSkewShape, ((3, 1), (1,)), 0, ((), ()),
     "ShiftedSkewShape(outer=(3, 1), inner=(1,))"),
    (TableauFamily, (SHAPE, 2, FAMILY.layouts), 3, (),
     f"TableauFamily(shape={SHAPE!r}, n=2, layouts={FAMILY.layouts!r})"),
    (SlideRecord, ((((1, 2), (2, 3)),),), 0, ((),),
     "SlideRecord(slides=(((1, 2), (2, 3)),))"),
    (PerforatedFilling, (1, (((1, 1), False), ((1, 2), True))), 2, (),
     "PerforatedFilling(letter=1, cells=(((1, 1), False), ((1, 2), True)))"),
    (PerforatedPair, (FILLING, PerforatedFilling(2, (((2, 2), False),))), 2, (),
     f"PerforatedPair(a={FILLING!r}, b=PerforatedFilling(letter=2, "
     "cells=(((2, 2), False),)))"),
    (TraceStep, ("S1", (((1, 1), Entry(1)),), ()), 3, (),
     "TraceStep(rule='S1', moving=(((1, 1), Entry(value=1, primed=False)),), fixed=())"),
    (_Kind, ("t", 1, abs, len, divmod, max, min, "evacs"), 4, (None, None, None, None),
     "_Kind(token='t', indices=1, valid=<built-in function abs>, "
     "act=<built-in function len>, band=<built-in function divmod>, "
     "core=<built-in function max>, factors=<built-in function min>, skew='evacs')"),
    (GeneratorSymbol, ("qij", 1, 3), 1, (0, 0), "GeneratorSymbol(kind='qij', i=1, j=3)"),
    (RelationSchema, ("t{i}t{i}", "e", "i > 1", "square", True), 1,
     ("e", "True", "", False),
     "RelationSchema(left='t{i}t{i}', right='e', constraint='i > 1', name='square', "
     "straight_only=True)"),
    (Counterexample, (T, (("i", 1),), T, U, SHAPE), 4, (None,),
     f"Counterexample(tableau={T!r}, substitution=(('i', 1),), left_result={T!r}, "
     f"right_result={U!r}, shape={SHAPE!r})"),
    (Verdict, (False, 3, VERDICT.counterexample, "failed"), 2, (None, ""),
     f"Verdict(holds=False, instances_checked=3, "
     f"counterexample={VERDICT.counterexample!r}, note='failed')"),
    (OrbitGraph, ((T, U), ((0, "t1", 1), (1, "t1", 0))), 2, (),
     f"OrbitGraph(nodes=({T!r}, {U!r}), edges=((0, 't1', 1), (1, 't1', 0)))"),
    (PresetResult, ("label", False, VERDICT), 3, (),
     f"PresetResult(label='label', ok=False, verdict={VERDICT!r})"),
]
FIELDS = {
    StrictPartition: ("parts",),
    ShiftedSkewShape: ("outer", "inner"),
    TableauFamily: ("shape", "n", "layouts"),
    SlideRecord: ("slides",),
    PerforatedFilling: ("letter", "cells"),
    PerforatedPair: ("a", "b"),
    TraceStep: ("rule", "moving", "fixed"),
    _Kind: ("token", "indices", "valid", "act", "band", "core", "factors", "skew"),
    GeneratorSymbol: ("kind", "i", "j"),
    RelationSchema: ("left", "right", "constraint", "name", "straight_only"),
    Counterexample: ("tableau", "substitution", "left_result", "right_result", "shape"),
    Verdict: ("holds", "instances_checked", "counterexample", "note"),
    OrbitGraph: ("nodes", "edges"),
    PresetResult: ("label", "ok", "verdict"),
}
# for each class, field values that differ from its case's in one field
OTHER = {
    StrictPartition: ((3, 2),),
    ShiftedSkewShape: ((3, 1), ()),
    TableauFamily: (SHAPE, 3, FAMILY.layouts),
    SlideRecord: ((),),
    PerforatedFilling: (2, (((1, 1), False), ((1, 2), True))),
    PerforatedPair: (FILLING, FILLING),
    TraceStep: ("S2", (((1, 1), Entry(1)),), ()),
    _Kind: ("t", 1, abs, len, divmod, max, min, None),
    GeneratorSymbol: ("qij", 1, 4),
    RelationSchema: ("t{i}t{i}", "e", "i > 1", "square", False),
    Counterexample: (T, (("i", 1),), T, U, None),
    Verdict: (False, 4, VERDICT.counterexample, "failed"),
    OrbitGraph: ((T, U), ((0, "t1", 1),)),
    PresetResult: ("label", True, VERDICT),
}
IDS = [case[0].__name__ for case in CASES]


def fields_of(obj):
    return tuple(getattr(obj, name) for name in FIELDS[type(obj)])


@pytest.mark.parametrize("cls, values, required, defaults, text", CASES, ids=IDS)
class TestValueClasses:
    def test_construction(self, cls, values, required, defaults, text):
        names = FIELDS[cls]
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(names, values)))
        assert fields_of(by_position) == fields_of(by_keyword) == values
        assert fields_of(cls(*values[:required])) == values[:required] + defaults

    def test_equality_and_hash(self, cls, values, required, defaults, text):
        a, b = cls(*values), cls(*values)
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash(values)
        assert {a: 1}[b] == 1

    def test_unequal_fields(self, cls, values, required, defaults, text):
        assert cls(*values) != cls(*OTHER[cls])
        assert not cls(*values) == cls(*OTHER[cls])

    def test_never_equal_to_another_class(self, cls, values, required, defaults, text):
        obj = cls(*values)
        assert obj != values and values != obj
        for other_cls, other_values, *_ in CASES:
            if other_cls is not cls:
                assert obj != other_cls(*other_values)
        sub = type("Sub", (cls,), {})
        assert obj != sub(*values) and sub(*values) != obj

    def test_repr(self, cls, values, required, defaults, text):
        assert repr(cls(*values)) == text

    def test_frozen(self, cls, values, required, defaults, text):
        obj = cls(*values)
        for name in (*FIELDS[cls], "other"):
            with pytest.raises(AttributeError):
                setattr(obj, name, 1)
        for name in FIELDS[cls]:
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert fields_of(obj) == values

    def test_copy_and_pickle(self, cls, values, required, defaults, text):
        obj = cls(*values)
        copies = [copy.copy(obj), copy.deepcopy(obj)]
        copies += [pickle.loads(pickle.dumps(obj, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for c in copies:
            assert type(c) is cls and c == obj and hash(c) == hash(obj)
            assert repr(c) == text


class TestShiftedTableau:
    """ShiftedTableau compares on its key, n and cell set, and writes its
    own repr."""

    def test_construction(self):
        assert ShiftedTableau(SHAPE, T.key, 2) == ShiftedTableau(shape=SHAPE, key=T.key, n=2) == T
        empty = ShiftedTableau(ShiftedSkewShape())
        assert (empty.key, empty.n) == ((), 0)
        with pytest.raises(ValueError, match="exceeds alphabet bound n=0"):
            ShiftedTableau(ShiftedSkewShape((1,)), (2,))

    def test_equality_and_hash(self):
        same_cells = ShiftedTableau(ShiftedSkewShape((2,), (2,)), (), 1)
        other_pair = ShiftedTableau(ShiftedSkewShape((1,), (1,)), (), 1)
        assert same_cells == other_pair and hash(same_cells) == hash(other_pair)
        assert hash(T) == hash((T.key, T.n, T.shape.cells))
        assert T != ShiftedTableau(SHAPE, T.key, 3)
        assert T != (SHAPE, T.key, 2) and T != FAMILY

    def test_repr(self):
        assert repr(T) == "ShiftedTableau('. 1 2 / 2', n=2)"

    def test_frozen(self):
        t = ShiftedTableau(SHAPE, T.key, 2)
        for name in ("shape", "key", "n", "other"):
            with pytest.raises(AttributeError):
                setattr(t, name, 1)
        for name in ("shape", "key", "n"):
            with pytest.raises(AttributeError):
                delattr(t, name)
        assert (t.shape, t.key, t.n) == (SHAPE, T.key, 2)

    def test_copy_and_pickle(self):
        t = ShiftedTableau(SHAPE, T.key, 2)
        t.entry_map  # a cached view does not change what a copy equals
        copies = [copy.copy(t), copy.deepcopy(t)]
        copies += [pickle.loads(pickle.dumps(t, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for c in copies:
            assert type(c) is ShiftedTableau and c == t and hash(c) == hash(t)
            assert c.entry_map == t.entry_map


class TestTableauFamily:
    def test_tables_are_not_compared_or_shown(self):
        a, b = enumerate_tableaux(SHAPE, 2), enumerate_tableaux(SHAPE, 2)
        a.tables["x"] = (0,)
        assert a == b and hash(a) == hash(b) == hash((SHAPE, 2, a.layouts))
        assert "tables" not in repr(a)
        assert b.tables == {} and a.tables is not b.tables

    def test_tables_are_its_own(self):
        assert TableauFamily(SHAPE, 2, FAMILY.layouts).tables == {}
        with pytest.raises(TypeError):
            TableauFamily(SHAPE, 2, FAMILY.layouts, {})


def test_post_init_checks_run_in_the_constructor():
    with pytest.raises(ValueError, match=r"parts not strictly decreasing: \(1, 2\)"):
        StrictPartition((1, 2))
    with pytest.raises(ValueError, match=r"inner \(2,\) not contained in outer \(1,\)"):
        ShiftedSkewShape((1,), (2,))
    with pytest.raises(ValueError, match="unknown generator kind 'x'"):
        GeneratorSymbol("x")
    assert StrictPartition([3, 1]).parts == (3, 1)
    assert ShiftedSkewShape([3, 1], [1, 0]) == ShiftedSkewShape((3, 1), (1,))


def test_cli_import_loads_no_introspection_modules():
    """A fresh interpreter that imports the CLI and builds its parser has
    not loaded dataclasses, inspect, dis or tokenize."""
    code = ("import sys\n"
            "from shifted_tableaux import cli\n"
            "cli.build_parser()\n"
            "print(sorted({'dataclasses', 'inspect', 'dis', 'tokenize'} & set(sys.modules)))\n")
    src = os.path.dirname(os.path.dirname(shifted_tableaux.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"
