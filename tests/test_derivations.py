import pytest
from hypothesis import given, settings

from conftest import formulas, load_fixture
from record_translations import REDERIVED
from plausible import derivations
from plausible.derivations import (
    DerivationError,
    ProofBuilder,
    TranslationError,
    box_excluded_middle,
    box_monotonicity,
    contrapose,
    double_negation_elim,
    double_negation_intro,
    excluded_middle,
    hs,
    identity,
    iff_intro,
    nabla_h,
    nabla_top,
    reductio,
    translate_proof,
)
from plausible.proofs import (
    MP,
    AxiomInstance,
    Premise,
    Proof,
    ProofLine,
    SystemId,
    check_proof,
    proof_from_data,
)
from plausible.syntax import Dialect, Implies, Not, Or, parse, translate


def build_and_check(system, construct):
    b = ProofBuilder(system)
    idx = construct(b)
    proof = b.build(idx)
    result = check_proof(proof)
    assert result.accepted, f"line {result.failing_line}: {result.reason}"
    return proof


class TestLemmas:
    def test_identity(self):
        proof = build_and_check(SystemId.LPC, lambda b: identity(b, parse("p0 & p1")))
        assert proof.conclusion == parse("p0 & p1 -> (p0 & p1)")

    def test_hypothetical_syllogism(self):
        def construct(b):
            i = b.axiom("PL5", {0: parse("p0"), 1: parse("p1")})  # p0 & p1 -> p0
            j = b.axiom("PL7", {0: parse("p0"), 1: parse("p2")})  # p0 -> p0 | p2
            return hs(b, i, j)

        proof = build_and_check(SystemId.LPC, construct)
        assert proof.conclusion == parse("p0 & p1 -> p0 | p2")

    @given(formulas(modal=(), max_leaves=5))
    @settings(max_examples=25, deadline=None)
    def test_double_negation_both_ways(self, f):
        proof = build_and_check(SystemId.LPC, lambda b: double_negation_elim(b, f))
        assert proof.conclusion == Implies(Not(Not(f)), f)
        proof = build_and_check(SystemId.LPC, lambda b: double_negation_intro(b, f))
        assert proof.conclusion == Implies(f, Not(Not(f)))

    def test_contrapose(self):
        def construct(b):
            i = b.axiom("PL5", {0: parse("p0"), 1: parse("p1")})
            return contrapose(b, i)

        proof = build_and_check(SystemId.LPC, construct)
        assert proof.conclusion == parse("~p0 -> ~(p0 & p1)")

    def test_reductio(self):
        def construct(b):
            x = parse("p0 & ~p0")
            pos = b.axiom("PL5", {0: parse("p0"), 1: parse("~p0")})  # x -> p0
            neg = b.axiom("PL6", {0: parse("p0"), 1: parse("~p0")})  # x -> ~p0
            return reductio(b, pos, neg)

        proof = build_and_check(SystemId.LPC, construct)
        assert proof.conclusion == parse("~(p0 & ~p0)")

    @given(formulas(modal=(), max_leaves=5))
    @settings(max_examples=25, deadline=None)
    def test_excluded_middle(self, f):
        proof = build_and_check(SystemId.LPC, lambda b: excluded_middle(b, f))
        assert proof.conclusion == Or(f, Not(f))

    def test_box_excluded_middle(self):
        proof = build_and_check(SystemId.LPBOX, lambda b: box_excluded_middle(b, parse("p0")))
        assert proof.conclusion == parse("[](p0 | ~p0)")

    def test_box_monotonicity(self):
        def construct(b):
            i = b.axiom("PL5", {0: parse("p0"), 1: parse("p1")})
            return box_monotonicity(b, i)

        proof = build_and_check(SystemId.LPBOX, construct)
        assert proof.conclusion == parse("[](p0 & p1) -> []p0")

    def test_nabla_top(self):
        proof = build_and_check(SystemId.LNABLA, nabla_top)
        assert proof.conclusion == parse("nabla true")

    def test_nabla_h(self):
        proof = build_and_check(
            SystemId.LNABLA, lambda b: nabla_h(b, parse("p0"), parse("p1"))
        )
        assert proof.conclusion == parse("nabla p0 | nabla p1 -> nabla(p0 | p1)")

    def test_box_k_is_a_theorem(self):
        from plausible.derivations import box_k
        from plausible.search import ModelClass, SearchBounds, Verdict, find_countermodel

        proof = build_and_check(SystemId.LPBOX, lambda b: box_k(b, parse("p0"), parse("p1")))
        assert proof.conclusion == parse("[](p0 -> p1) -> ([]p0 -> []p1)")
        # and the semantic side agrees on the constrained class
        out = find_countermodel(
            proof.conclusion, SearchBounds(ModelClass.CONSTRAINED_NEIGHBORHOOD, 3, (0, 1))
        )
        assert out.verdict is Verdict.EXHAUSTED_VALID

    def test_exportation(self):
        from plausible.derivations import exportation

        def construct(b):
            i = b.axiom("PL5", {0: parse("p0"), 1: parse("p1")})  # (p0 & p1) -> p0
            return exportation(b, i)

        proof = build_and_check(SystemId.LPC, construct)
        assert proof.conclusion == parse("p0 -> (p1 -> p0)")

    def test_theorem_reuse_caps_growth(self):
        b = ProofBuilder(SystemId.LPC)
        excluded_middle(b, parse("p0"))
        before = len(b)
        excluded_middle(b, parse("p0"))
        assert len(b) == before


def re_in_s5(b):
    i = identity(b, parse("p0"))
    return b.re(iff_intro(b, i, i))


# Rule uses the builder once refused, or let through, by rule checks of its
# own; check_proof, run by build(), now judges each of them.
REJECTED_BUILDS = [
    ("re_in_s5", SystemId.S5, (), re_in_s5, 9, "rule RE is not part of S5"),
    (
        "lpbox_pl1_nabla", SystemId.LPBOX, (),
        lambda b: b.axiom("PL1", {0: parse("nabla p0"), 1: parse("p1")}),
        1, "formula outside the BoxSystem dialect",
    ),
    (
        "lpbox_ax2", SystemId.LPBOX, (), lambda b: b.axiom("Ax2", {0: parse("p0")}),
        1, "formula outside the BoxSystem dialect",
    ),
    (
        "re_on_premise", SystemId.LPBOX, (parse("p0 <-> p1"),),
        lambda b: b.re(b.premise(parse("p0 <-> p1"))),
        2, "RE applied to premise-dependent line 1",
    ),
    (
        "undeclared_premise", SystemId.LPC, (), lambda b: b.premise(parse("p0")),
        1, "formula is not among the premises",
    ),
    (
        "mismatched_mp", SystemId.LPC, (),
        lambda b: b.mp(b.axiom("PL13"), b.axiom("PL14", {0: parse("p0")})),
        3, "line 2 is not (true) -> (p0)",
    ),
]


class TestBuilder:
    @pytest.mark.parametrize(
        "system, premises, construct, line, reason",
        [case[1:] for case in REJECTED_BUILDS],
        ids=[case[0] for case in REJECTED_BUILDS],
    )
    def test_build_rejects_with_the_checkers_verdict(self, system, premises, construct, line, reason):
        b = ProofBuilder(system, premises)
        idx = construct(b)
        with pytest.raises(DerivationError) as exc:
            b.build(idx)
        assert str(exc.value) == f"built proof fails at line {line}: {reason}"

    def test_repeated_axiom_returns_its_first_line(self):
        b = ProofBuilder(SystemId.LPC)
        b.axiom("PL13")
        binding = {0: parse("p0"), 1: parse("nabla p1")}
        first = b.axiom("PL1", binding)
        assert b.axiom("PL1", dict(binding)) == first == 2
        assert b.axiom("PL13") == 1
        assert len(b) == 2

    def test_rn_in_s5(self):
        b = ProofBuilder(SystemId.S5)
        proof = b.build(b.rn(b.axiom("PL13")))
        assert proof.conclusion == parse("[]true")
        assert check_proof(proof).accepted

    @pytest.mark.parametrize("i", [0, -1, 4])
    def test_formula_index_outside_the_lines(self, i):
        b = ProofBuilder(SystemId.LPC)
        b.mp(b.axiom("PL13"), b.axiom("PL1", {0: parse("true"), 1: parse("p0")}))
        assert len(b) == 3 and b.formula(1) == parse("true")
        with pytest.raises(DerivationError):
            b.formula(i)

    def test_empty_builder_does_not_build(self):
        with pytest.raises(DerivationError):
            ProofBuilder(SystemId.LPC).build()

    @pytest.mark.parametrize("rule, refs", [("mp", (1, 1)), ("re", (1,)), ("rnabla", (1,))])
    def test_rule_needs_its_operand_shape(self, rule, refs):
        b = ProofBuilder(SystemId.LPC)
        b.axiom("PL13")
        with pytest.raises(DerivationError) as exc:
            getattr(b, rule)(*refs)
        assert str(exc.value) == {
            "mp": "MP needs an Implies at line 1",
            "re": "RE needs an Iff at line 1",
            "rnabla": "RNabla needs an Implies at line 1",
        }[rule]


def one_liner(system, schema, formula):
    f = parse(formula)
    return Proof(system, (), (ProofLine(f, AxiomInstance(schema)),), f)


class TestTranslateProof:
    def test_ax3_to_t_one_liner(self):
        proof = one_liner(SystemId.LNABLA, "Ax3", "nabla p0 -> p0")
        out = translate_proof(proof)
        assert out.system is SystemId.LPBOX
        assert len(out.lines) == 1
        assert out.lines[0].justification == AxiomInstance("T", ((0, parse("p0")),))
        assert out.conclusion == parse("[]p0 -> p0")

    def test_ax1_to_c(self):
        proof = one_liner(
            SystemId.LNABLA, "Ax1", "nabla p0 & nabla p1 -> nabla(p0 & p1)"
        )
        out = translate_proof(proof)
        assert out.conclusion == parse("[]p0 & []p1 -> [](p0 & p1)")
        assert len(out.lines) == 1

    def test_n_to_nabla_bridge(self):
        proof = one_liner(SystemId.LPBOX, "N", "[]true")
        out = translate_proof(proof)
        assert out.system is SystemId.LNABLA
        assert out.conclusion == parse("nabla true")
        assert check_proof(out).accepted
        assert len(out.lines) > 1

    def test_ax2_to_box_bridge(self):
        proof = one_liner(SystemId.LNABLA, "Ax2", "nabla(p0 | ~p0)")
        out = translate_proof(proof)
        assert out.conclusion == parse("[](p0 | ~p0)")
        assert check_proof(out).accepted

    def test_h_to_nabla_bridge(self):
        proof = one_liner(SystemId.LPBOX, "H", "[]p0 | []p1 -> [](p0 | p1)")
        out = translate_proof(proof)
        assert out.conclusion == parse("nabla p0 | nabla p1 -> nabla(p0 | p1)")
        assert check_proof(out).accepted

    def test_classical_lines_unchanged(self):
        b = ProofBuilder(SystemId.LNABLA)
        idx = identity(b, parse("p0"))
        proof = b.build(idx)
        out = translate_proof(proof)
        assert [line.formula for line in out.lines] == [line.formula for line in proof.lines]

    def test_premised_proof_translates(self):
        proof = proof_from_data(load_fixture("proofs", "hequiv_forward.json"))
        out = translate_proof(proof)
        assert out.system is SystemId.LPBOX
        assert out.premises == (
            parse("[]p0 -> [](p0 | p1)"),
            parse("[]p1 -> [](p0 | p1)"),
        )
        assert out.conclusion == parse("[]p0 | []p1 -> [](p0 | p1)")
        assert check_proof(out).accepted

    def test_rnabla_becomes_monotonicity(self):
        b = ProofBuilder(SystemId.LNABLA)
        i = b.axiom("PL5", {0: parse("p0"), 1: parse("p1")})
        idx = b.rnabla(i)
        proof = b.build(idx)
        out = translate_proof(proof)
        assert out.conclusion == parse("[](p0 & p1) -> []p0")
        assert check_proof(out).accepted

    def test_round_trip_preserves_conclusion(self):
        for name in (
            "lnabla_ax1.json",
            "lnabla_ax2.json",
            "lnabla_ax3.json",
            "hequiv_forward.json",
            "hequiv_backward.json",
        ):
            proof = proof_from_data(load_fixture("proofs", name))
            back = translate_proof(translate_proof(proof))
            assert back.system is proof.system
            assert back.conclusion == proof.conclusion

    def test_conclusion_hit_before_the_last_line_is_rederived(self):
        proof = proof_from_data(REDERIVED[1])
        out = translate_proof(proof)
        goal = parse("[](p0 | ~p0)")
        last = out.lines[-1]
        assert len(out.lines) == 156 and out.conclusion == goal
        assert isinstance(last.justification, MP) and last.formula == goal
        assert out.lines[last.justification.antecedent - 1].formula == goal
        assert out.lines[last.justification.implication - 1].formula == Implies(goal, goal)
        assert translate_proof(out).conclusion == proof.conclusion

    def test_bridge_check_compares_every_mp_line(self, monkeypatch):
        # An MP line's expected formula comes from its implication's
        # consequent; the builder's line is still compared with it.
        def wrong_mp(b, antecedent, implication):
            return b._append(b.formula(implication).left, MP(antecedent, implication), False)

        monkeypatch.setattr(ProofBuilder, "mp", wrong_mp)
        premises = (parse("p0"), parse("p0 -> nabla p1"))
        lines = (ProofLine(premises[0], Premise()), ProofLine(premises[1], Premise()),
                 ProofLine(parse("nabla p1"), MP(1, 2)))
        proof = Proof(SystemId.LNABLA, premises, lines, parse("nabla p1"))
        with pytest.raises(DerivationError, match=r"^line 3: bridge produced p0, expected \[\]p1$"):
            translate_proof(proof)

    def test_rejected_input_refused(self):
        proof = proof_from_data(load_fixture("proofs", "broken_rnabla_premise.json"))
        with pytest.raises(TranslationError):
            translate_proof(proof)

    def test_missing_bridge_is_a_defect(self, monkeypatch):
        # every axiom of an accepted LNabla proof has a bridge; without one,
        # the translator is at fault, not its input
        monkeypatch.setitem(derivations._AXIOM_MAP, SystemId.LNABLA, {})
        proof = proof_from_data(load_fixture("proofs", "lnabla_ax1.json"))
        with pytest.raises(DerivationError, match=r"^line \d+: no bridge for axiom Ax1 "):
            translate_proof(proof)

    def test_s5_not_translatable(self):
        proof = proof_from_data(load_fixture("proofs", "s5_mp_chain.json"))
        with pytest.raises(TranslationError):
            translate_proof(proof)

    def test_translated_formulas_match_formula_translation(self):
        for name in ("lnabla_ax1.json", "lnabla_ax2.json", "hequiv_backward.json"):
            proof = proof_from_data(load_fixture("proofs", name))
            out = translate_proof(proof)
            assert out.conclusion == translate(proof.conclusion, Dialect.NABLA, Dialect.BOX)
