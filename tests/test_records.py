"""Value semantics of the eight record types: equality, hashing, repr,
immutability, keyword construction, defaults, pickle and copy."""

import copy
import pickle

import pytest

from isopath import (
    Cover,
    FormulaResult,
    HammingSpec,
    InvalidSpecError,
    PartiteSpec,
    PathPool,
    PathVerdict,
    SolveResult,
    VerifyReport,
)

P01 = (0, 1)
C01 = Cover(paths=(P01,))

# (record, an equal record built differently, records that differ, repr,
#  one field name)
RECORDS = [
    (
        Cover(paths=(P01,), note="n"),
        Cover([["0", 1.0]], "n"),
        [
            Cover((P01,), note=""),
            Cover(((1, 0),), note="n"),
        ],
        "Cover(paths=((0, 1),), note='n')",
        "paths",
    ),
    (
        PathVerdict(simple=True, walk=True, isometric=False),
        PathVerdict(True, True, False),
        [PathVerdict(True, True, True), PathVerdict(False, True, False)],
        "PathVerdict(simple=True, walk=True, isometric=False)",
        "isometric",
    ),
    (
        VerifyReport(
            valid=False,
            path_verdicts=(PathVerdict(True, True, True),),
            uncovered=(2,),
            size=1,
            overlap=0,
            normal_form=True,
        ),
        VerifyReport(False, (PathVerdict(True, True, True),), (2,), 1, 0, True),
        [
            VerifyReport(False, (PathVerdict(True, True, True),), (2,), 1, 0),
            VerifyReport(True, (PathVerdict(True, True, True),), (2,), 1, 0, True),
            VerifyReport(False, (PathVerdict(True, True, True),), (), 1, 0, True),
        ],
        "VerifyReport(valid=False, path_verdicts=(PathVerdict(simple=True, walk=True, "
        "isometric=True),), uncovered=(2,), size=1, overlap=0, normal_form=True)",
        "valid",
    ),
    (
        PartiteSpec(sizes=(1, 3, 2)),
        PartiteSpec([2, "3", 1]),
        [PartiteSpec((3, 3, 1)), PartiteSpec((3, 2))],
        "PartiteSpec(sizes=(3, 2, 1))",
        "sizes",
    ),
    (
        HammingSpec(factors=(2, 3)),
        HammingSpec(["2", 3]),
        [HammingSpec((3, 2)), HammingSpec((2, 3, 4))],
        "HammingSpec(factors=(2, 3))",
        "factors",
    ),
    (
        FormulaResult(value=2, case_tag="BALANCED"),
        FormulaResult(2, "BALANCED"),
        [FormulaResult(3, "BALANCED"), FormulaResult(2, "MANY_ODD")],
        "FormulaResult(value=2, case_tag='BALANCED')",
        "value",
    ),
    (
        PathPool(paths=((0,), P01), masks=(1, 3), max_path_vertices=2),
        PathPool(((0,), (0, 1)), (1, 3), 2),
        [PathPool((P01,), (3,), 2), PathPool(((0,), P01), (1, 3), 3)],
        "PathPool(paths=((0,), (0, 1)), masks=(1, 3), max_path_vertices=2)",
        "masks",
    ),
    (
        SolveResult(optimum=C01, size=1, nodes_explored=5, proof_of_optimality=True),
        SolveResult(Cover([[0, 1]]), 1, 5, True),
        [SolveResult(C01, 1, 6, True), SolveResult(C01, 1, 5, False)],
        "SolveResult(optimum=Cover(paths=((0, 1),), note=''), size=1, "
        "nodes_explored=5, proof_of_optimality=True)",
        "size",
    ),
]

IDS = [type(record).__name__ for record, *_ in RECORDS]


@pytest.mark.parametrize("record, equal, others, text, field", RECORDS, ids=IDS)
def test_equality_and_hash(record, equal, others, text, field):
    assert record == equal
    assert not record != equal
    assert hash(record) == hash(equal)
    for other in others:
        assert record != other
        assert not record == other
    # a record equals only a record of the same type
    assert record != (getattr(record, field),)


@pytest.mark.parametrize("record, equal, others, text, field", RECORDS, ids=IDS)
def test_repr(record, equal, others, text, field):
    assert repr(record) == text
    assert repr(equal) == text


@pytest.mark.parametrize("record, equal, others, text, field", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record, equal, others, text, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) == before
    assert record == equal


@pytest.mark.parametrize("record, equal, others, text, field", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trip(record, equal, others, text, field):
    for clone in (
        pickle.loads(pickle.dumps(record)),
        pickle.loads(pickle.dumps(record, protocol=0)),
        copy.copy(record),
        copy.deepcopy(record),
    ):
        assert type(clone) is type(record)
        assert clone == record
        assert hash(clone) == hash(record)
        assert repr(clone) == text


def test_defaults():
    cover = Cover((P01,))
    assert cover.note == ""
    report = VerifyReport(valid=True, path_verdicts=(), uncovered=(), size=0, overlap=0)
    assert report.normal_form is None
    spec = PartiteSpec(sizes=(2, 3))
    assert spec.sizes == (3, 2)


def test_construction_keeps_its_checks():
    assert Cover([("3", 4.0)]).paths == ((3, 4),)
    with pytest.raises(ValueError):
        Cover([()])
    assert Cover([P01]).paths == (P01,)
    with pytest.raises(InvalidSpecError):
        PartiteSpec(())
    with pytest.raises(InvalidSpecError):
        PartiteSpec((2, 0))
    with pytest.raises(InvalidSpecError):
        HammingSpec(())
    with pytest.raises(InvalidSpecError):
        HammingSpec((2, 2, 2, 2))
    with pytest.raises(InvalidSpecError):
        HammingSpec((2, 1))


# positional arguments each record type requires; the rest have defaults
REQUIRED = {
    "Cover": 1,
    "PathVerdict": 3,
    "VerifyReport": 5,
    "PartiteSpec": 1,
    "HammingSpec": 1,
    "FormulaResult": 2,
    "PathPool": 3,
    "SolveResult": 4,
}


@pytest.mark.parametrize("record, equal, others, text, field", RECORDS, ids=IDS)
def test_constructors_keep_their_arity(record, equal, others, text, field):
    # a missing or an extra positional argument is a TypeError, never a
    # record with a slot left unset or a value dropped
    cls = type(record)
    values = record._values()
    assert cls(*values) == record
    for k in range(REQUIRED[cls.__name__]):
        with pytest.raises(TypeError):
            cls(*values[:k])
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, extra=None)
