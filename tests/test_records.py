"""Value semantics of the nine record types: equality, hashing, repr,
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
    Path,
    PathPool,
    PathVerdict,
    SolveResult,
    VerifyReport,
)

P01 = Path(vertices=(0, 1))
C01 = Cover(paths=(P01,))

# (record, an equal record built differently, records that differ, repr,
#  one field name)
RECORDS = [
    (
        Path(vertices=(0, 1)),
        Path(["0", 1.0]),
        [Path((1, 0)), Path((0, 1, 2))],
        "Path(vertices=(0, 1))",
        "vertices",
    ),
    (
        Cover(paths=(P01,), provenance="exact-solver", note="n"),
        Cover([Path((0, 1))], "exact-solver", "n"),
        [
            Cover((P01,), provenance="file", note="n"),
            Cover((P01,), provenance="exact-solver", note=""),
            Cover((Path((1, 0)),), provenance="exact-solver", note="n"),
        ],
        "Cover(paths=(Path(vertices=(0, 1)),), provenance='exact-solver', note='n')",
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
        PartiteSpec([3, 2, 1], input_sizes=["1", "3", "2"]),
        [PartiteSpec((3, 2, 1)), PartiteSpec((3, 3, 1), (1, 3, 3))],
        "PartiteSpec(sizes=(3, 2, 1), input_sizes=(1, 3, 2))",
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
        FormulaResult(value=2, case_tag="BALANCED", inputs=(2, 2, 2)),
        FormulaResult(2, "BALANCED", (2, 2, 2)),
        [FormulaResult(3, "BALANCED", (2, 2, 2)), FormulaResult(2, "MANY_ODD", (2, 2, 2))],
        "FormulaResult(value=2, case_tag='BALANCED', inputs=(2, 2, 2))",
        "value",
    ),
    (
        PathPool(paths=(Path((0,)), P01), masks=(1, 3), max_path_vertices=2),
        PathPool((Path((0,)), Path((0, 1))), (1, 3), 2),
        [PathPool((P01,), (3,), 2), PathPool((Path((0,)), P01), (1, 3), 3)],
        "PathPool(paths=(Path(vertices=(0,)), Path(vertices=(0, 1))), masks=(1, 3), "
        "max_path_vertices=2)",
        "masks",
    ),
    (
        SolveResult(optimum=C01, size=1, nodes_explored=5, proof_of_optimality=True),
        SolveResult(Cover((Path((0, 1)),)), 1, 5, True),
        [SolveResult(C01, 1, 6, True), SolveResult(C01, 1, 5, False)],
        "SolveResult(optimum=Cover(paths=(Path(vertices=(0, 1)),), provenance='file', "
        "note=''), size=1, nodes_explored=5, proof_of_optimality=True)",
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
    assert (cover.provenance, cover.note) == ("file", "")
    report = VerifyReport(valid=True, path_verdicts=(), uncovered=(), size=0, overlap=0)
    assert report.normal_form is None
    spec = PartiteSpec(sizes=(2, 3))
    assert (spec.sizes, spec.input_sizes) == ((3, 2), (2, 3))


def test_construction_keeps_its_checks():
    assert Path(("3", 4.0)).vertices == (3, 4)
    with pytest.raises(ValueError):
        Path(())
    assert Cover([P01]).paths == (P01,)
    with pytest.raises(ValueError):
        Cover((P01,), provenance="guess")
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
