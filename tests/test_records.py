"""The package's nine immutable records keep what frozen dataclasses gave
them: construction by position and keyword with defaults, the dataclass
`repr` and `__match_args__`, equality and hash over the fields for the same
class only, no assignment, and `pickle` and `copy` round trips."""

import copy
import pickle
from fractions import Fraction

import pytest

from qcycle.families import ClassificationRow, ClassificationVerdict, Fixture, NonRootFamilyInput
from qcycle.solution import BraidReport
from qcycle.standard import StandardCycleBundle, StandardCycleParams, build_standard_cycle
from qcycle.tensor import CheckResult, MorphismReport, QCycleStructure, SuiteReport, counit_action

P = counit_action(2)
PARAMS = StandardCycleParams.from_tail(3, 1, ["1/2"])
BUNDLE = build_standard_cycle(PARAMS)
VIOLATION = (1, 0, 1, 2, 3, Fraction(1, 2), Fraction(0))

# (class, field values in order, repr)
RECORDS = [
    (QCycleStructure, (P, P), "QCycleStructure(p=CoeffTensor(n=2), d=CoeffTensor(n=2))"),
    (MorphismReport, (False, (0, 0, 0, 0, Fraction(0), Fraction(1))),
     "MorphismReport(ok=False, violation=(0, 0, 0, 0, Fraction(0, 1), Fraction(1, 1)))"),
    (CheckResult, ("b", False, "x"), "CheckResult(name='b', ok=False, detail='x')"),
    (SuiteReport, ((CheckResult("a", True),),),
     "SuiteReport(checks=(CheckResult(name='a', ok=True, detail=None),))"),
    (BraidReport, (False, True, True, (VIOLATION,)),
     "BraidReport(family1_ok=False, family2_ok=True, family3_ok=True, "
     "violations=((1, 0, 1, 2, 3, Fraction(1, 2), Fraction(0, 1)),))"),
    (StandardCycleParams, (3, 1, {1: 1, 2: "1/2"}),
     "StandardCycleParams(n=3, degree=1, coeffs=((1, Fraction(1, 1)), (2, Fraction(1, 2))))"),
    (StandardCycleBundle, tuple(getattr(BUNDLE, f) for f in StandardCycleBundle.__match_args__),
     "StandardCycleBundle(params=StandardCycleParams(n=3, degree=1, coeffs=((1, Fraction(1, 1)), "
     "(2, Fraction(1, 2)))), order=3, row=Series1(['1', '1', '1/2']), "
     "column=Series1(['0', '1', '1/2']), table=Series2(order=3), table_flip=Series2(order=3), "
     "tensor=CoeffTensor(n=3))"),
    (ClassificationVerdict, (ClassificationRow.P11_NONZERO, "complete", "n"),
     "ClassificationVerdict(row=<ClassificationRow.P11_NONZERO: 'p11_nonzero'>, "
     "status='complete', notes='n')"),
    (NonRootFamilyInput, (3, [2, "1/3"], "3/2"),
     "NonRootFamilyInput(n=3, lambdas=(Fraction(2, 1), Fraction(1, 3)), mu=Fraction(3, 2))"),
    (Fixture, ("f", {"a": Fraction(1)}, QCycleStructure(P, P)),
     "Fixture(name='f', parameters={'a': Fraction(1, 1)}, "
     "structure=QCycleStructure(p=CoeffTensor(n=2), d=CoeffTensor(n=2)))"),
]

FIELDS = {
    QCycleStructure: ("p", "d"),
    MorphismReport: ("ok", "violation"),
    CheckResult: ("name", "ok", "detail"),
    SuiteReport: ("checks",),
    BraidReport: ("family1_ok", "family2_ok", "family3_ok", "violations"),
    StandardCycleParams: ("n", "degree", "coeffs"),
    StandardCycleBundle: ("params", "order", "row", "column", "table", "table_flip", "tensor"),
    ClassificationVerdict: ("row", "status", "notes"),
    NonRootFamilyInput: ("n", "lambdas", "mu"),
    Fixture: ("name", "parameters", "structure"),
}

# Records with a tensor or series field: such a value (`series._Stored`)
# neither pickles nor deep-copies, on its own or in a record.
HOLDS_STORED = {QCycleStructure, StandardCycleBundle, Fixture}


EACH_RECORD = pytest.mark.parametrize("cls, values, text", RECORDS,
                                     ids=[cls.__name__ for cls, _, _ in RECORDS])


@EACH_RECORD
def test_construction_by_position_and_keyword(cls, values, text):
    assert cls.__match_args__ == FIELDS[cls]
    record = cls(*values)
    assert cls(**dict(zip(FIELDS[cls], values))) == record
    assert repr(record) == text
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values[:-1], unknown=None)


def test_defaults():
    assert CheckResult("a", True).detail is None
    assert CheckResult(name="a", ok=True) == CheckResult("a", True, None)
    assert SuiteReport().checks == ()
    assert BraidReport(True, True, True).violations == ()
    assert MorphismReport(True).violation is None
    assert repr(MorphismReport(True)) == "MorphismReport(ok=True, violation=None)"
    with pytest.raises(TypeError):
        CheckResult("a")


@EACH_RECORD
def test_equality_and_hash(cls, values, text):
    record, again = cls(*values), cls(*values)
    assert record is not again and record == again and not record != again
    if cls is Fixture:    # a dict field makes the record unhashable, as in a dataclass
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(again)
    assert record != tuple(getattr(record, f) for f in FIELDS[cls])

    class Sub(cls):
        pass

    assert Sub.__match_args__ == FIELDS[cls]
    sub = Sub(*values)
    assert sub != record and record != sub
    assert repr(sub) == text.replace(cls.__name__, Sub.__qualname__, 1)


def test_unequal_fields_make_unequal_records():
    assert CheckResult("a", True) != CheckResult("a", False)
    assert SuiteReport() != SuiteReport((CheckResult("a", True),))
    assert StandardCycleParams.from_tail(3, 1, ["1/3"]) != PARAMS


@EACH_RECORD
def test_assignment_and_deletion_raise(cls, values, text):
    record = cls(*values)
    for name in (FIELDS[cls][0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, FIELDS[cls][0])
    assert record == cls(*values)


@EACH_RECORD
def test_copies_give_back_an_equal_record(cls, values, text):
    record = cls(*values)
    shallow = copy.copy(record)
    assert shallow == record and shallow is not record
    if cls not in HOLDS_STORED:
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.deepcopy(record) == record
        assert repr(pickle.loads(pickle.dumps(record))) == text


def test_match_statement_reads_fields_in_order():
    match CheckResult("a", False, "why"):
        case CheckResult(name, ok, detail):
            assert (name, ok, detail) == ("a", False, "why")
        case _:
            pytest.fail("no match")


def test_structure_rejects_tensors_of_different_n():
    with pytest.raises(ValueError, match="same dimension"):
        QCycleStructure(P, counit_action(3))
    with pytest.raises(ValueError, match="same dimension"):
        QCycleStructure(p=counit_action(3), d=P)
