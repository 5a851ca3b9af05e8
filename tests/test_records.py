"""The value contract of lttop's immutable records.

Each record compares and hashes field-wise, returns NotImplemented against
other classes, prints as ``Name(field=value, ...)``, keeps its defaults and
validation, and refuses assignment.  The two morphism classes also order
field-wise.
"""

import copy
import pickle

import pytest

from lttop.closure import ClassifyReport, FactorizationReport
from lttop.fincat import NamedMorphism, SimplexMorphism, build_index_category, face
from lttop.fuzzy import FuzzySet, FuzzySubset, QClosureOperator, QClosureViolation
from lttop.lattice import LawViolation, Nucleus, chain
from lttop.omega import classifying_object
from lttop.presheaf import PresheafMorphism, Subpresheaf, yoneda
from lttop.topology import LTTopology, TopologyViolation

GRAPH = build_index_category("graph")
Y0, Y1 = yoneda(GRAPH, 0), yoneda(GRAPH, 1)
OMEGA = classifying_object(GRAPH)
CHAIN3 = chain(3)
FUZZY = FuzzySet(CHAIN3, ("a", "b"), (1, 2))
NUCLEUS = Nucleus(CHAIN3, (1, 1, 2))


# (class, its fields in constructor order, three argument tuples: the first
# two equal, the third different in a compared field)
CASES = {
    "SimplexMorphism": (SimplexMorphism, ("source", "target", "values"),
                        [(0, 1, (1,)), (0, 1, (1,)), (0, 1, (0,))]),
    "NamedMorphism": (NamedMorphism, ("source", "target", "name"),
                      [("V", "E", "s"), ("V", "E", "s"), ("V", "E", "t")]),
    "LawViolation": (LawViolation, ("law", "witness"),
                     [("bounds", ()), ("bounds", ()), ("increasing", (0,))]),
    "Nucleus": (Nucleus, ("algebra", "mapping"),
                [(CHAIN3, (1, 1, 2)), (CHAIN3, (1, 1, 2)), (CHAIN3, (0, 1, 2))]),
    "Subpresheaf": (Subpresheaf, ("presheaf", "bits"),
                    [(Y1, 3), (Y1, 3), (Y1, 7)]),
    "PresheafMorphism": (PresheafMorphism, ("source", "target", "components"),
                         [(Y0, Y1, ((0,), ())), (Y0, Y1, ((0,), ())), (Y0, Y1, ((1,), ()))]),
    "TopologyViolation": (TopologyViolation, ("kind", "level", "witness"),
                          [("meet", 1, (0, 2)), ("meet", 1, (0, 2)), ("meet", 0, (0, 2))]),
    "ClassifyReport": (ClassifyReport, ("separated", "complete", "witnesses"),
                       [(True, False, ()), (True, False, ()), (True, True, ())]),
    "FactorizationReport": (FactorizationReport,
                            ("separated", "complete", "separated_witness", "complete_witness"),
                            [(True, False, None, (1,)), (True, False, None, (1,)),
                             (True, False, None, (2,))]),
    "FuzzySet": (FuzzySet, ("algebra", "elements", "membership"),
                 [(CHAIN3, ("a", "b"), (1, 2)), (CHAIN3, ("a", "b"), (1, 2)),
                  (CHAIN3, ("a", "b"), (0, 2))]),
    "FuzzySubset": (FuzzySubset, ("ambient", "members"),
                    [(FUZZY, ((0, 1),)), (FUZZY, ((0, 1),)), (FUZZY, ((0, 0),))]),
    "QClosureOperator": (QClosureOperator, ("kind", "nucleus"),
                         [("nucleus", NUCLEUS), ("nucleus", NUCLEUS), ("trivial", None)]),
    "QClosureViolation": (QClosureViolation, ("axiom", "context"),
                          [("idempotent", (1,)), ("idempotent", (1,)), ("monotone", (1,))]),
    "LTTopology": (LTTopology, ("omega", "levels", "tag"),
                   [(OMEGA, ((0, 1), (0, 1, 2, 3)), "00"),
                    (OMEGA, ((0, 1), (0, 1, 2, 3)), "00"),
                    (OMEGA, ((1, 1), (3, 3, 3, 3)), "11")]),
}


def build(name, index):
    cls, _, args = CASES[name]
    return cls(*args[index])


@pytest.mark.parametrize("name", sorted(CASES))
def test_equality_and_hash_are_field_wise(name):
    cls, fields, args = CASES[name]
    a, b, c = (cls(*arg) for arg in args)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert a != c and not a == c
    assert len({a, b, c}) == 2
    if cls is LTTopology:
        # levels is its one compared field
        assert hash(a) == hash(a.levels)
    else:
        # the hash of the field tuple, so set and dict orders are those of
        # the tuples themselves
        assert hash(a) == hash(args[0])


@pytest.mark.parametrize("name", sorted(CASES))
def test_other_classes_are_not_implemented(name):
    record = build(name, 0)
    other = build("LawViolation" if name != "LawViolation" else "NamedMorphism", 0)
    assert record.__eq__(other) is NotImplemented
    assert record.__eq__(CASES[name][2][0]) is NotImplemented  # the bare field tuple
    assert record != other and record != CASES[name][2][0]


@pytest.mark.parametrize("name", sorted(CASES))
def test_repr_is_the_dataclass_format(name):
    cls, fields, args = CASES[name]
    record = cls(*args[0])
    inner = ", ".join(f"{f}={v!r}" for f, v in zip(fields, args[0]))
    assert repr(record) == f"{cls.__qualname__}({inner})"


@pytest.mark.parametrize("name", sorted(CASES))
def test_fields_are_read_only(name):
    cls, fields, args = CASES[name]
    record = cls(*args[0])
    for field, value in zip(fields, args[0]):
        assert getattr(record, field) is value
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", sorted(CASES))
def test_keyword_construction_and_copies(name):
    cls, fields, args = CASES[name]
    record = cls(**dict(zip(fields, args[0])))
    assert record == cls(*args[0])
    duplicate = copy.copy(record)
    assert duplicate == record and type(duplicate) is cls
    with pytest.raises(TypeError):
        cls(*args[0], "one too many")


@pytest.mark.parametrize("cls", [SimplexMorphism, NamedMorphism])
def test_morphisms_pickle(cls):
    record = build(cls.__name__, 0)
    assert pickle.loads(pickle.dumps(record)) == record


def test_defaults():
    assert QClosureOperator("trivial").nucleus is None
    assert QClosureOperator.trivial() == QClosureOperator("trivial", None)
    j = LTTopology(OMEGA, ((0, 1), (0, 1, 2, 3)))
    assert j.tag is None
    assert repr(j) == f"LTTopology(omega={OMEGA!r}, levels=((0, 1), (0, 1, 2, 3)), tag=None)"
    for name in ("SimplexMorphism", "Subpresheaf", "FuzzySet"):
        cls, fields, args = CASES[name]
        with pytest.raises(TypeError):
            cls(*args[0][:-1])


def test_topologies_compare_levels_only():
    a = build("LTTopology", 0)
    other_tag = LTTopology(OMEGA, a.levels, "something else")
    other_omega = LTTopology(classifying_object(build_index_category("set")), a.levels)
    assert a == other_tag == other_omega
    assert hash(a) == hash(other_tag)


def test_morphisms_order_field_wise():
    morphisms = [m for pair in ((1, 2), (0, 2), (0, 1), (1, 1)) for m in GRAPH.hom(*pair)]
    morphisms += [SimplexMorphism(1, 2, (0, 2)), SimplexMorphism(0, 2, (1,)), face(1, 0)]
    assert sorted(morphisms) == sorted(
        morphisms, key=lambda m: (m.source, m.target, m.values)
    )
    a, b = SimplexMorphism(0, 1, (0,)), SimplexMorphism(0, 1, (1,))
    assert a < b and a <= b and b > a and b >= a and a <= a and a >= a
    assert not (b < a) and not (a > b)
    names = [NamedMorphism("V", "E", "t"), NamedMorphism("E", "E", "id"),
             NamedMorphism("V", "E", "s")]
    assert [str(m) for m in sorted(names)] == ["id", "s", "t"]
    for op in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(a, op)(names[0]) is NotImplemented
        assert getattr(a, op)((0, 1, (1,))) is NotImplemented
    with pytest.raises(TypeError):
        sorted([a, names[0]])


@pytest.mark.parametrize("name", ["LawViolation", "Subpresheaf", "LTTopology", "QClosureOperator"])
def test_other_records_do_not_order(name):
    a, b = build(name, 0), build(name, 2)
    with pytest.raises(TypeError):
        a < b  # noqa: B015


def test_validation_is_kept():
    with pytest.raises(ValueError, match="expected 2 values"):
        SimplexMorphism(1, 1, (0,))
    with pytest.raises(ValueError, match="out of range"):
        SimplexMorphism(0, 1, (2,))
    with pytest.raises(ValueError, match="not monotone"):
        SimplexMorphism(1, 1, (1, 0))
    with pytest.raises(ValueError, match="one membership value per element"):
        FuzzySet(CHAIN3, ("a", "b"), (1,))
    with pytest.raises(ValueError, match="below the ambient"):
        FuzzySubset(FUZZY, ((0, 2),))
