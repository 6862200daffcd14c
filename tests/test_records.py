"""The contract every record class of the package keeps: immutable, equal
only to a record of its own class with equal fields, hashed alike when
equal, always true, with a repr that names the class and its fields, and
checked as it is built, with the same messages whatever implements it."""

import pytest

from plausible.algebra import (
    AlgebraFormatError,
    AlgebraReport,
    DerivedLawsReport,
    FinitePlausibilityAlgebra,
    check_algebra,
)
from plausible.proofs import (
    MP,
    RE,
    RN,
    AxiomInstance,
    CheckResult,
    Premise,
    Proof,
    ProofFormatError,
    ProofLine,
    RNabla,
    SystemId,
)
from plausible.search import ModelClass, SearchBounds, SearchOutcome, Verdict
from plausible.semantics import (
    BoundsExceededError,
    ConditionReport,
    KripkeModel,
    ModelFormatError,
    NeighborhoodModel,
    RelationProperties,
    UniversalModel,
)
from plausible.syntax import parse, parse_schema

P0 = parse("p0")
CONSTRAINED = ModelClass.CONSTRAINED_NEIGHBORHOOD

# One builder per record; each call builds a new object.  Where classes
# share fields, their records hold the same values, so only the class tells
# them apart.
BUILDERS = {
    "Premise": lambda: Premise(),
    "AxiomInstance": lambda: AxiomInstance("PL1"),
    "AxiomInstance bound": lambda: AxiomInstance("PL1", ((0, parse("p0")),)),
    "MP": lambda: MP(1, 2),
    "RE": lambda: RE(3),
    "RNabla": lambda: RNabla(3),
    "RN": lambda: RN(3),
    "ProofLine": lambda: ProofLine(parse("p0"), Premise()),
    "Proof": lambda: Proof(SystemId.LPC, (P0,), (ProofLine(P0, Premise()),), P0),
    "CheckResult": lambda: CheckResult(True),
    "CheckResult rejected": lambda: CheckResult(False, 2, "no rule applies", (True, False)),
    "Schema": lambda: parse_schema("A -> A"),
    "NeighborhoodModel": lambda: NeighborhoodModel(1, ((1,),), ((0, 1),)),
    "KripkeModel": lambda: KripkeModel(1, (1,), ((0, 1),)),
    "UniversalModel": lambda: UniversalModel(1, ((0, 1),)),
    "ConditionReport": lambda: ConditionReport(),
    "ConditionReport failing": lambda: ConditionReport(None, None, (0, 1), 0),
    "RelationProperties": lambda: RelationProperties(True, True, False, True, True),
    "SearchBounds": lambda: SearchBounds(CONSTRAINED, 2, (0,)),
    "SearchOutcome": lambda: SearchOutcome(Verdict.EXHAUSTED_VALID, 4),
    "FinitePlausibilityAlgebra": lambda: FinitePlausibilityAlgebra(1, (0, 1)),
    "AlgebraReport": lambda: AlgebraReport(),
    "AlgebraReport failing": lambda: AlgebraReport(None, None, 0, 0),
    "DerivedLawsReport": lambda: DerivedLawsReport(),
}
NAMES = list(BUILDERS)


def fields(record) -> tuple:
    return type(record).__match_args__


def values(record) -> tuple:
    return tuple(getattr(record, name) for name in fields(record))


def test_every_record_class_is_covered():
    assert len({type(build()) for build in BUILDERS.values()}) == 20


@pytest.mark.parametrize("name", NAMES)
def test_equal_records_hash_alike(name):
    a, b = BUILDERS[name](), BUILDERS[name]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) and {a: name}[b] == name


@pytest.mark.parametrize("name", NAMES)
def test_equal_only_to_its_own_class(name):
    record = BUILDERS[name]()
    for other in NAMES:
        if other != name:
            assert record != BUILDERS[other](), other
            assert not record == BUILDERS[other](), other
    assert record != values(record) and values(record) != record
    assert not record == values(record)
    assert record != () and record != [] and record is not None


def test_same_fields_other_class():
    assert RE(3) != RN(3) and RN(3) != RNabla(3) and RNabla(3) != RE(3)
    assert Premise() != ConditionReport() and ConditionReport() != Premise()
    assert len({RE(3), RN(3), RNabla(3), RE(3)}) == 3


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_set(name):
    record = BUILDERS[name]()
    for field in fields(record):
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
        assert getattr(record, field) is before


@pytest.mark.parametrize("name", NAMES)
def test_always_true(name):
    assert bool(BUILDERS[name]()) is True


@pytest.mark.parametrize("name", NAMES)
def test_repr_names_the_class_and_its_fields(name):
    record = BUILDERS[name]()
    shown = ", ".join(f"{field}={getattr(record, field)!r}" for field in fields(record))
    assert repr(record) == f"{type(record).__name__}({shown})"


def test_algebra_report_is_computed_once_when_asked(axiom_checks):
    a = FinitePlausibilityAlgebra(1, (0, 1))
    assert axiom_checks == []
    assert check_algebra(a) is check_algebra(a)
    assert axiom_checks == [a]


def test_construction_normalizes():
    assert SearchBounds(CONSTRAINED, 2, (2, 0, 2)).atoms == (0, 2)
    m = NeighborhoodModel(2, ((3, 1, 3), ()), ((1, 2), (0, 1), (1, 2)))
    assert m.families == ((1, 3), ()) and m.valuation == ((0, 1), (1, 2))
    assert m == NeighborhoodModel(2, ((1, 3), ()), ((0, 1), (1, 2)))
    assert KripkeModel(1, (1,), ((3, 1), (0, 0))).valuation == ((0, 0), (3, 1))
    assert UniversalModel(1, [(0, 1)]).valuation == ((0, 1),)


def _line(text):
    return ProofLine(parse(text), Premise())


@pytest.mark.parametrize("build, error, message", [
    (lambda: SearchBounds(CONSTRAINED, 0), BoundsExceededError, "max_worlds must be at least 1"),
    (lambda: SearchBounds(CONSTRAINED, -1, (-1,)), BoundsExceededError, "max_worlds must be at least 1"),
    (lambda: SearchBounds(CONSTRAINED, 5), BoundsExceededError, "constrained enumeration is capped at 4 worlds"),
    (lambda: SearchBounds(ModelClass.RAW_NEIGHBORHOOD, 3, (-1,)), BoundsExceededError,
     "raw enumeration is capped at 2 worlds"),
    (lambda: SearchBounds(CONSTRAINED, 2, (3, -1)), ValueError, "atom indices must be non-negative"),
    (lambda: Proof(SystemId.LPC, (), (), P0), ProofFormatError, "a proof needs at least one line"),
    (lambda: Proof(SystemId.LPC, (), (_line("p1"),), P0), ProofFormatError,
     "last line does not prove the claimed conclusion"),
    (lambda: NeighborhoodModel(0, ()), ModelFormatError, "a model needs at least one world"),
    (lambda: NeighborhoodModel(0, ((1,),), ((-1, 0),)), ModelFormatError, "a model needs at least one world"),
    (lambda: NeighborhoodModel(1, ((),), ((-1, 0),)), ModelFormatError, "negative atom index -1"),
    (lambda: NeighborhoodModel(1, (), ((0, 2),)), ModelFormatError, "valuation of p0 exceeds the world universe"),
    (lambda: NeighborhoodModel(2, ((),)), ModelFormatError, "one neighborhood family per world is required"),
    (lambda: NeighborhoodModel(1, ((2,),)), ModelFormatError, "neighborhood outside the world universe"),
    (lambda: NeighborhoodModel(1, ((-1, 1),)), ModelFormatError, "neighborhood outside the world universe"),
    (lambda: KripkeModel(0, (1,)), ModelFormatError, "a model needs at least one world"),
    (lambda: KripkeModel(1, (1,), ((2, 4),)), ModelFormatError, "valuation of p2 exceeds the world universe"),
    (lambda: KripkeModel(2, (1,)), ModelFormatError, "one accessibility row per world is required"),
    (lambda: KripkeModel(1, (2,)), ModelFormatError, "accessibility row outside the world universe"),
    (lambda: KripkeModel(1, (-1,)), ModelFormatError, "accessibility row outside the world universe"),
    (lambda: UniversalModel(0), ModelFormatError, "a model needs at least one world"),
    (lambda: UniversalModel(2, ((1, 3), (0, 4))), ModelFormatError, "valuation of p0 exceeds the world universe"),
    (lambda: UniversalModel(1, ((-2, 1),)), ModelFormatError, "negative atom index -2"),
    (lambda: FinitePlausibilityAlgebra(0, ()), AlgebraFormatError, "base_size must be between 1 and 9"),
    (lambda: FinitePlausibilityAlgebra(10, ()), AlgebraFormatError, "base_size must be between 1 and 9"),
    (lambda: FinitePlausibilityAlgebra(1, (0,)), AlgebraFormatError, "sharp must list 2 images, got 1"),
    (lambda: FinitePlausibilityAlgebra(1, (0, 2)), AlgebraFormatError, "sharp(1) = 2 is outside the carrier"),
    (lambda: FinitePlausibilityAlgebra(1, (-1, 5)), AlgebraFormatError, "sharp(0) = -1 is outside the carrier"),
])
def test_validation_messages(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message
