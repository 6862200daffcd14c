import importlib.util
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import all_sharp_maps, chunk_log2, formulas, load_fixture
from plausible import _kernel_py
from plausible.algebra import (
    MAX_ASSIGNMENTS,
    MAX_BASE,
    AlgebraFormatError,
    FinitePlausibilityAlgebra,
    InvalidAlgebraError,
    agreement_report,
    alg_eval,
    alg_validates,
    check_algebra,
    check_derived_laws,
    iter_sharp_maps,
    iter_valid_algebras,
    plausible_elements,
)
from plausible.semantics import BoundsExceededError, KripkeModel
from plausible.syntax import (
    BOTTOM,
    TOP,
    And,
    Atom,
    Bottom,
    Dialect,
    DialectError,
    Iff,
    Implies,
    Nabla,
    Not,
    Or,
    Top,
    atoms_of,
    parse,
    translate,
)


def algebra(base, sharp):
    return FinitePlausibilityAlgebra(base, tuple(sharp))


IDENTITY_K1 = algebra(1, [0, 1])
ZERO_K1 = algebra(1, [0, 0])
# unit maps to unit, everything else collapses to zero
UNIT_ONLY_K2 = algebra(2, [0, 0, 0, 3])
IDENTITY_K2 = algebra(2, [0, 1, 2, 3])
VALID_K_LE_2 = [a for k in (1, 2) for a in all_sharp_maps(k) if check_algebra(a).all_hold]
VALID_K3 = list(iter_valid_algebras(3))
EXPERIMENTS = Path(__file__).parent.parent / "experiments"


def load_regenerate():
    spec = importlib.util.spec_from_file_location("regenerate", EXPERIMENTS / "regenerate.py")
    regenerate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regenerate)
    return regenerate


class TestCheckAlgebra:
    def test_identity_valid(self):
        assert check_algebra(IDENTITY_K1).all_hold

    def test_constant_zero_fails_a4(self):
        report = check_algebra(ZERO_K1)
        assert report.a4_witness == 0
        assert report.a1_witness is None and report.a2_witness is None and report.a3_witness is None

    def test_unit_only_k2_valid(self):
        assert check_algebra(UNIT_ONLY_K2).all_hold

    def test_a3_witness(self):
        report = check_algebra(algebra(1, [1, 1]))
        assert report.a3_witness == 0

    def test_witnesses_revalidate(self):
        for a in all_sharp_maps(2):
            report = check_algebra(a)
            s = a.sharp
            if report.a1_witness:
                x, y = report.a1_witness
                assert s[x] & s[y] & ~s[x & y]
            if report.a2_witness:
                x, y = report.a2_witness
                assert s[x] & ~s[x | y]
            if report.a3_witness is not None:
                x = report.a3_witness
                assert s[x] & ~x
            if report.a4_witness is not None:
                assert s[a.unit] != a.unit


class TestPlausibleElements:
    def test_identity_all_nonzero(self):
        assert plausible_elements(IDENTITY_K2) == {1, 2, 3}

    def test_unit_only(self):
        assert plausible_elements(UNIT_ONLY_K2) == {3}

    def test_zero_never_plausible(self):
        for a in iter_valid_algebras(2):
            assert 0 not in plausible_elements(a)
            assert a.sharp[0] == 0  # forced by a3

    @pytest.mark.parametrize(
        "base, sharp, failed",
        [
            (1, (0, 0), "a4"),
            (1, (1, 1), "a3"),
            (2, (0, 1, 1, 0), "a1, a2, a3, a4"),
        ],
    )
    def test_invalid_algebra_rejected(self, base, sharp, failed):
        with pytest.raises(InvalidAlgebraError, match=f"^algebra violates {failed}$"):
            plausible_elements(algebra(base, sharp))


class TestDerivedLaws:
    def test_all_valid_algebras_k_le_2(self):
        for k in (1, 2):
            for a in iter_valid_algebras(k):
                report = check_derived_laws(a)
                assert report.all_hold

    def test_monotonicity_for_identity(self):
        report = check_derived_laws(IDENTITY_K2)
        assert report.ii_witness is None

    def test_unit_only_sixteen_pairs(self):
        assert check_derived_laws(UNIT_ONLY_K2).i_witness is None

    def test_invalid_algebra_rejected(self):
        with pytest.raises(InvalidAlgebraError):
            check_derived_laws(ZERO_K1)


class TestEvaluation:
    def test_ax3_always_unit(self):
        f = parse("nabla p0 -> p0")
        for a in iter_valid_algebras(2):
            for x in range(a.carrier_size):
                assert alg_eval(a, {0: x}, f) == a.unit

    def test_ax2_unit_by_a4(self):
        f = parse("nabla(p0 | ~p0)")
        for a in iter_valid_algebras(2):
            for x in range(a.carrier_size):
                assert alg_eval(a, {0: x}, f) == a.unit

    def test_not_nabla_bottom(self):
        f = parse("~nabla false")
        assert alg_eval(IDENTITY_K2, {0: 2}, f) == IDENTITY_K2.unit

    def test_box_rejected(self):
        with pytest.raises(DialectError):
            alg_eval(IDENTITY_K1, {}, parse("[]p0"))

    def test_validates_axioms(self):
        formulas = [
            parse("nabla p0 & nabla p1 -> nabla(p0 & p1)"),
            parse("nabla(p0 | ~p0)"),
            parse("nabla p0 -> p0"),
        ]
        for k in (1, 2):
            for a in iter_valid_algebras(k):
                for f in formulas:
                    assert alg_validates(a, f)

    def test_refutes_nontheorem(self):
        assert not alg_validates(UNIT_ONLY_K2, parse("p0 -> nabla p0"))

    @given(formulas(atoms=(0, 1, 2), modal=("nabla",)), st.data())
    def test_agrees_with_sharp_table_walk(self, f, data):
        for a in VALID_K_LE_2:
            assignment = data.draw(
                st.dictionaries(st.sampled_from([0, 1, 2]), st.integers(0, a.unit))
            )
            assert alg_eval(a, assignment, f) == sharp_walk(a, assignment, f)


def sharp_walk(a, assignment, f):
    """Element of ``f`` computed straight from the sharp table."""
    match f:
        case Atom(i):
            return assignment.get(i, 0)
        case Top():
            return a.unit
        case Bottom():
            return 0
        case Not(x):
            return a.unit ^ sharp_walk(a, assignment, x)
        case And(l, r):
            return sharp_walk(a, assignment, l) & sharp_walk(a, assignment, r)
        case Or(l, r):
            return sharp_walk(a, assignment, l) | sharp_walk(a, assignment, r)
        case Implies(l, r):
            return (a.unit ^ sharp_walk(a, assignment, l)) | sharp_walk(a, assignment, r)
        case Iff(l, r):
            return a.unit ^ sharp_walk(a, assignment, l) ^ sharp_walk(a, assignment, r)
        case Nabla(x):
            return a.sharp[sharp_walk(a, assignment, x)]


def validates_by_assignment(a, f):
    """The reference for ``alg_validates``: ``alg_eval`` (``truth_mask`` on
    the algebra's neighborhood model) under every assignment in turn."""
    atoms = sorted(atoms_of(f))
    return all(
        alg_eval(a, dict(zip(atoms, values)), f) == a.unit
        for values in product(range(a.carrier_size), repeat=len(atoms))
    )


class TestKernelValidation:
    """``alg_validates`` runs on the search kernel; the assignment loop
    above is its reference."""

    @pytest.mark.parametrize("text", load_regenerate().AGREEMENT_FORMULAS)
    def test_agrees_on_every_valid_algebra_to_base_3(self, text):
        f = parse(text)
        for a in VALID_K_LE_2 + VALID_K3:
            assert alg_validates(a, f) == validates_by_assignment(a, f), a

    @settings(max_examples=60, deadline=None)
    @given(
        formulas(atoms=(0, 2, 5), modal=("nabla",)),
        st.sampled_from(VALID_K3),
        st.sampled_from([_kernel_py.CHUNK_LOG2, 1]),
    )
    @example(TOP, VALID_K3[0], 1)
    @example(BOTTOM, VALID_K3[0], 1)
    @example(Nabla(BOTTOM), VALID_K3[-1], _kernel_py.CHUNK_LOG2)
    @example(Not(Nabla(BOTTOM)), VALID_K3[-1], _kernel_py.CHUNK_LOG2)
    @example(Implies(Nabla(TOP), Nabla(Atom(5))), VALID_K3[-1], 1)
    @example(Implies(Atom(5), Not(Atom(0))), VALID_K3[0], 1)  # refuted only past chunk 0
    def test_agrees_on_random_formulas(self, f, base_3, log2):
        # log2 = 1 cuts every base 2 or 3 search into one chunk per value
        # of each atom but the last
        with chunk_log2(log2):
            for a in VALID_K_LE_2 + [base_3]:
                assert alg_validates(a, f) == validates_by_assignment(a, f), a

    @pytest.mark.parametrize("log2", [1, 2, 6, _kernel_py.CHUNK_LOG2])
    @pytest.mark.parametrize("text", [
        "nabla p0 -> p0",
        "nabla p0 -> nabla nabla p0",
        "p0 -> nabla ~nabla ~p0",
        "nabla(nabla p0 -> p0)",
        "p0 -> nabla p0",
    ])
    def test_one_scan_over_frames_in_several_groups(self, text, log2):
        # With one atom, a base-3 frame has 8 valuations, so 2**6 lanes hold
        # 8 frames side by side and the 64 valid base-3 algebras span 8
        # groups.  The algebras refuting the formula go last, so that a
        # refutation lies in the last group.
        from plausible import algebra as alg

        f = parse(text)
        program = alg._compile(translate(f, Dialect.NABLA, Dialect.BOX), [0])
        validating = [a for a in VALID_K3 if validates_by_assignment(a, f)]
        refuting = [a for a in VALID_K3 if a not in validating]
        assert len(VALID_K3) == 64
        with chunk_log2(log2):
            assert alg._all_validate(validating, 1, program)
            if refuting:
                assert not alg._all_validate(validating + refuting[-1:], 1, program)

    def test_cores_rebuild_the_operator(self):
        # the kernel reads each algebra as the constrained structure of its
        # cores: their Kripke box must be the algebra's #
        from plausible import algebra as alg

        for a in VALID_K_LE_2 + VALID_K3:
            frame = KripkeModel(a.base_size, alg._cores(a))
            assert tuple(frame.box(x) for x in range(a.carrier_size)) == a.sharp, a

    def test_refutation_in_the_last_chunk(self):
        # p0 and p1 are the atoms constant across each chunk; with # sending
        # all but the unit to zero, only p0 = p1 = unit, the last chunk,
        # falsifies the formula
        others = Or(Atom(2), Atom(3))
        for i in range(4, 8):
            others = Or(others, Atom(i))
        f = Not(And(And(Nabla(Atom(0)), Nabla(Atom(1))), Or(others, TOP)))
        assert UNIT_ONLY_K2.carrier_size ** 8 == MAX_ASSIGNMENTS
        assert not alg_validates(UNIT_ONLY_K2, f)
        assert alg_eval(UNIT_ONLY_K2, {0: 3, 1: 3}, f) == 0
        assert alg_eval(UNIT_ONLY_K2, {0: 3, 1: 2}, f) == UNIT_ONLY_K2.unit

    def test_checks_come_before_evaluation(self, monkeypatch):
        def evaluated(*args):
            raise AssertionError("the kernel evaluated a formula")

        monkeypatch.setattr(_kernel_py, "eval_program", evaluated)
        with pytest.raises(InvalidAlgebraError):
            alg_validates(ZERO_K1, parse("nabla p0 -> p0"))
        past_cap = parse("nabla(p0 & p1 & p2 & p3 & p4 & p5 & p6 & p7 & p8) -> nabla p0")
        with pytest.raises(BoundsExceededError):
            alg_validates(IDENTITY_K2, past_cap)


class TestAssignmentBound:
    def test_at_and_past_the_bound(self):
        # IDENTITY_K2 has 4 elements: 8 atoms give exactly MAX_ASSIGNMENTS
        assert 4 ** 8 == MAX_ASSIGNMENTS
        at_bound = And(Nabla(Atom(0)), Nabla(Atom(1)))
        for i in range(2, 8):
            at_bound = And(at_bound, Nabla(Atom(i)))
        assert alg_validates(IDENTITY_K2, at_bound) is False  # refuted by p_i = 0
        assert alg_validates(IDENTITY_K2, Implies(Nabla(at_bound), Nabla(Atom(0)))) is True
        with pytest.raises(BoundsExceededError):
            alg_validates(IDENTITY_K2, And(at_bound, Nabla(Atom(8))))


class TestGeneration:
    def test_counts_at_k2(self):
        candidates = list(all_sharp_maps(2))
        assert len(candidates) == 256
        valid = [a for a in candidates if check_algebra(a).all_hold]
        # a3 forces sharp(0)=0, a4 forces sharp(3)=3; sharp(1) and sharp(2)
        # may each keep or drop their point, and a1/a2 then always hold
        assert len(valid) == 4
        assert {a.sharp for a in valid} == {
            (0, 0, 0, 3),
            (0, 1, 0, 3),
            (0, 0, 2, 3),
            (0, 1, 2, 3),
        }

    def test_counts_at_k1(self):
        valid = list(iter_valid_algebras(1))
        assert len(valid) == 1
        assert valid[0].sharp == (0, 1)

    @pytest.mark.parametrize("k", [1, 2])
    def test_reflexive_frames_equal_brute_force(self, k):
        brute = [a for a in all_sharp_maps(k) if check_algebra(a).all_hold]
        assert list(iter_valid_algebras(k)) == brute

    @pytest.mark.parametrize("k, count", [(1, 1), (2, 4), (3, 64)])
    def test_reflexive_candidates(self, k, count):
        candidates = list(iter_sharp_maps(k))
        assert len(candidates) == count
        # the box of a reflexive frame: #X <= X, #0 = 0, #1 = 1
        for a in candidates:
            assert a.sharp[0] == 0 and a.sharp[-1] == a.unit
            assert all(s & ~x == 0 for x, s in enumerate(a.sharp))

    def test_reflexive_frames_equal_a3_pruned_search_at_k3(self):
        # a3 (#x <= x) leaves each image a subset of its argument: 2^12 tables
        subsets = [[y for y in range(8) if y & x == y] for x in range(8)]
        pruned = {
            sharp for sharp in product(*subsets)
            if check_algebra(FinitePlausibilityAlgebra(3, sharp)).all_hold
        }
        generated = [a.sharp for a in iter_valid_algebras(3)]
        assert len(generated) == 64
        assert generated == sorted(pruned)


class TestSerialization:
    def test_round_trip(self):
        data = IDENTITY_K2.to_data()
        assert FinitePlausibilityAlgebra.from_data(data) == IDENTITY_K2

    def test_fixture_files(self):
        a = FinitePlausibilityAlgebra.from_data(load_fixture("algebras", "identity_k2.json"))
        assert check_algebra(a).all_hold
        z = FinitePlausibilityAlgebra.from_data(load_fixture("algebras", "zero_k1.json"))
        assert check_algebra(z).a4_witness is not None

    def test_base_bound(self):
        size = 1 << MAX_BASE
        assert FinitePlausibilityAlgebra(MAX_BASE, tuple(range(size))).carrier_size == size
        with pytest.raises(AlgebraFormatError):
            FinitePlausibilityAlgebra(MAX_BASE + 1, tuple(range(2 * size)))

    def test_bad_data(self):
        with pytest.raises(AlgebraFormatError):
            FinitePlausibilityAlgebra.from_data({"base": 2, "sharp": [0, 1]})
        with pytest.raises(AlgebraFormatError):
            FinitePlausibilityAlgebra.from_data({"base": 1, "sharp": [0, 9]})
        with pytest.raises(AlgebraFormatError):
            FinitePlausibilityAlgebra.from_data({"base": 1, "sharp": [False, True]})
        with pytest.raises(AlgebraFormatError, match="unexpected algebra keys: extra"):
            FinitePlausibilityAlgebra.from_data({"base": 1, "sharp": [0, 1], "extra": 7})


class TestAgreement:
    def test_report_on_theorems_and_nontheorems(self):
        formulas = [
            parse("nabla p0 -> p0"),
            parse("nabla(p0 | ~p0)"),
            parse("p0 -> nabla p0"),
            parse("nabla p0 -> nabla(p0 | p1)"),
        ]
        report = agreement_report(formulas, max_base=2, max_worlds=2)
        assert report["algebras"] == 5
        by_formula = {row["formula"]: row for row in report["formulas"]}
        assert by_formula["nabla p0 -> p0"]["algebra_valid"]
        assert by_formula["nabla p0 -> p0"]["constrained_exhausted_valid"]
        assert not by_formula["p0 -> nabla p0"]["algebra_valid"]
        assert not by_formula["p0 -> nabla p0"]["constrained_exhausted_valid"]
        assert report["agreements"] + report["disagreements"] == len(formulas)

    @pytest.mark.parametrize("max_base", [1, 2, 3])
    def test_one_scan_per_base_agrees_with_each_algebra(self, monkeypatch, max_base):
        from plausible import algebra as alg

        texts = load_regenerate().AGREEMENT_FORMULAS
        compiled, original = [], alg._compile
        monkeypatch.setattr(alg, "_compile", lambda boxed, atoms: compiled.append(boxed) or original(boxed, atoms))
        report = agreement_report([parse(text) for text in texts], max_base=max_base, max_worlds=1)
        assert len(compiled) == len(texts)  # once per formula, not per algebra
        algebras = [a for k in range(1, max_base + 1) for a in iter_valid_algebras(k)]
        assert report["algebras"] == len(algebras)
        for text, row in zip(texts, report["formulas"]):
            assert row["algebra_valid"] == all(alg_validates(a, parse(text)) for a in algebras), text

    def test_experiments_check_each_algebra_once(self, monkeypatch, tmp_path, capsys, axiom_checks):
        regenerate = load_regenerate()
        monkeypatch.setattr(regenerate, "HERE", tmp_path)
        regenerate.main()
        # the 1 + 4 reflexive candidates at base 1 and 2, each checked once
        assert len(axiom_checks) == 5
        for name in ("k_experiment.json", "algebra_agreement.json"):
            assert (tmp_path / name).read_bytes() == (EXPERIMENTS / name).read_bytes()
