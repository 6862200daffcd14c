import pytest

from conftest import load_fixture
from plausible.proofs import (
    SCHEMAS,
    SYSTEM_AXIOMS,
    AxiomInstance,
    Proof,
    ProofFormatError,
    ProofLine,
    RE,
    SystemId,
    check_proof,
    is_axiom_instance,
    list_axiom_schemas,
    proof_from_data,
    proof_to_data,
)
from plausible.syntax import parse, render_schema

# (fixture, accepted, failing line)
CORPUS = [
    ("lpbox_c.json", True, None),
    ("lpbox_h.json", True, None),
    ("lpbox_t.json", True, None),
    ("lpbox_n.json", True, None),
    ("lnabla_ax1.json", True, None),
    ("lnabla_ax2.json", True, None),
    ("lnabla_ax3.json", True, None),
    ("s5_mp_chain.json", True, None),
    ("s5_rn_ntop.json", True, None),
    ("hequiv_forward.json", True, None),
    ("hequiv_backward.json", True, None),
    ("broken_rnabla_premise.json", False, 2),
    ("broken_axiom_binding.json", False, 1),
    ("broken_mp_shape.json", False, 2),
]


def load_proof(name):
    return proof_from_data(load_fixture("proofs", name))


# Every named schema, rendered; render is injective, so equal renderings
# mean equal patterns.
SCHEMA_TEXTS = {
    "PL1": "A -> B -> A",
    "PL2": "(A -> B -> C) -> (A -> B) -> A -> C",
    "PL3": "(~B -> ~A) -> A -> B",
    "PL4": "A -> B -> A & B",
    "PL5": "A & B -> A",
    "PL6": "A & B -> B",
    "PL7": "A -> A | B",
    "PL8": "B -> A | B",
    "PL9": "(A -> C) -> (B -> C) -> A | B -> C",
    "PL10": "(A -> B) -> (B -> A) -> (A <-> B)",
    "PL11": "(A <-> B) -> A -> B",
    "PL12": "(A <-> B) -> B -> A",
    "PL13": "true",
    "PL14": "false -> A",
    "T": "[]A -> A",
    "5": "<>A -> []<>A",
    "K": "[](A -> B) -> []A -> []B",
    "DfDia": "<>A <-> ~[]~A",
    "C": "[]A & []B -> [](A & B)",
    "H": "[]A | []B -> [](A | B)",
    "N": "[]true",
    "Ax1": "nabla A & nabla B -> nabla(A & B)",
    "Ax2": "nabla(A | ~A)",
    "Ax3": "nabla A -> A",
    "TDia": "A -> <>A",
    "D": "[]A -> <>A",
    "B": "A -> []<>A",
    "BDia": "<>[]A -> A",
    "5Dia": "<>[]A -> []A",
    "4": "[]A -> [][]A",
    "4Dia": "<><>A -> <>A",
    "DfBox": "[]A <-> ~<>~A",
    "M": "[](A & B) -> []A & []B",
}


class TestAxiomTables:
    def test_schema_table(self):
        assert {name: render_schema(s) for name, s in SCHEMAS.items()} == SCHEMA_TEXTS

    def test_lpbox_axioms(self):
        names = [name for name, _ in list_axiom_schemas(SystemId.LPBOX)]
        assert names[:14] == [f"PL{i}" for i in range(1, 15)]
        assert names[14:] == ["C", "H", "T", "N"]

    def test_lnabla_axioms(self):
        names = [name for name, _ in list_axiom_schemas(SystemId.LNABLA)]
        assert names[14:] == ["Ax1", "Ax2", "Ax3"]

    def test_s5_axioms(self):
        names = [name for name, _ in list_axiom_schemas(SystemId.S5)]
        assert names[14:] == ["T", "5", "K", "DfDia"]

    def test_lpc_base_in_every_system(self):
        for system in SystemId:
            names = set(SYSTEM_AXIOMS[system])
            assert {f"PL{i}" for i in range(1, 15)} <= names


class TestIsAxiomInstance:
    def test_n_instance(self):
        assert is_axiom_instance(SystemId.LPBOX, parse("[]true")) == ("N", {})

    def test_ax2_instance(self):
        name, binding = is_axiom_instance(SystemId.LNABLA, parse("nabla(p2 | ~p2)"))
        assert name == "Ax2" and binding == {0: parse("p2")}

    def test_dialect_violation_gives_absent(self):
        assert is_axiom_instance(SystemId.LPC, parse("[]p0 -> p0")) is None

    def test_first_match_in_documented_order(self):
        # an implication weakening instance matches PL1 before any modal axiom
        f = parse("[]p0 -> (p1 -> []p0)")
        assert is_axiom_instance(SystemId.LPBOX, f)[0] == "PL1"


class TestCheckProof:
    @pytest.mark.parametrize("name,accepted,line", CORPUS)
    def test_fixture_corpus(self, name, accepted, line):
        result = check_proof(load_proof(name))
        assert result.accepted is accepted
        if not accepted:
            assert result.failing_line == line

    def test_t_one_liner(self):
        proof = Proof(
            SystemId.LPBOX,
            (),
            (ProofLine(parse("[]p0 -> p0"), AxiomInstance("T")),),
            parse("[]p0 -> p0"),
        )
        assert check_proof(proof).accepted

    def test_rnabla_on_premise_rejected(self):
        proof = load_proof("broken_rnabla_premise.json")
        result = check_proof(proof)
        assert not result.accepted
        assert result.failing_line == 2
        assert "premise-dependent" in result.reason

    def test_s5_mp_chain(self):
        assert check_proof(load_proof("s5_mp_chain.json")).accepted

    def test_premise_order_independent(self):
        proof = load_proof("hequiv_forward.json")
        flipped = Proof(proof.system, tuple(reversed(proof.premises)), proof.lines, proof.conclusion)
        assert check_proof(proof).accepted and check_proof(flipped).accepted

    def test_premise_free_flags(self):
        result = check_proof(load_proof("s5_mp_chain.json"))
        assert result.premise_free == (True, False, False)

    def test_dialect_violation_rejected(self):
        proof = Proof(
            SystemId.LPBOX,
            (),
            (ProofLine(parse("nabla p0 -> p0"), AxiomInstance("Ax3")),),
            parse("nabla p0 -> p0"),
        )
        result = check_proof(proof)
        assert not result.accepted and result.failing_line == 1
        assert "dialect" in result.reason

    def test_rule_not_in_system_rejected(self):
        proof = Proof(
            SystemId.LNABLA,
            (),
            (
                ProofLine(parse("p0 <-> p0"), AxiomInstance("PL13")),
            ),
            parse("p0 <-> p0"),
        )
        result = check_proof(proof)
        assert not result.accepted and result.failing_line == 1

    def test_re_in_s5_gated_by_flag(self):
        from plausible.derivations import ProofBuilder, identity, iff_intro

        b = ProofBuilder(SystemId.S5)
        i = identity(b, parse("p0"))
        both = iff_intro(b, i, i)
        b.re(both)
        proof = b.build()
        result = check_proof(proof)
        assert not result.accepted and "RE" in result.reason
        assert check_proof(proof, s5_re=True).accepted

    def test_dangling_reference_is_format_error(self):
        data = load_fixture("proofs", "s5_mp_chain.json")
        data["lines"][2]["refs"] = [2, 9]
        with pytest.raises(ProofFormatError):
            check_proof(proof_from_data(data))

    def test_unknown_schema_is_format_error(self):
        data = load_fixture("proofs", "lpbox_t.json")
        data["lines"][0]["schema"] = "T9"
        with pytest.raises(ProofFormatError):
            check_proof(proof_from_data(data))

    def test_conclusion_mismatch_is_format_error(self):
        data = load_fixture("proofs", "lpbox_t.json")
        data["conclusion"] = "p0"
        with pytest.raises(ProofFormatError):
            proof_from_data(data)


class TestSerialization:
    @pytest.mark.parametrize("name,accepted,line", CORPUS)
    def test_round_trip(self, name, accepted, line):
        proof = load_proof(name)
        again = proof_from_data(proof_to_data(proof))
        assert check_proof(again).accepted is accepted

    @pytest.mark.parametrize(
        "path, message",
        [
            (("lines", 2, "formula"), 'line 3: "formula": expected a formula, found \'end\' (at column 8)'),
            (("premises", 0), "premise 1: expected a formula, found 'end' (at column 8)"),
            (("conclusion",), '"conclusion": expected a formula, found \'end\' (at column 8)'),
        ],
    )
    def test_malformed_formula_names_its_field(self, path, message):
        data = load_fixture("proofs", "s5_mp_chain.json")
        *parents, last = path
        target = data
        for key in parents:
            target = target[key]
        target[last] = "[]true &"
        with pytest.raises(ProofFormatError) as exc:
            proof_from_data(data)
        assert str(exc.value) == message

    def test_unknown_rule(self):
        data = load_fixture("proofs", "lpbox_t.json")
        data["lines"][0]["rule"] = "gen"
        with pytest.raises(ProofFormatError):
            proof_from_data(data)


class TestSoundnessHooks:
    def test_premise_free_lpbox_conclusions_valid_on_constrained(self):
        from plausible.search import ModelClass, SearchBounds, Verdict, find_countermodel
        from plausible.syntax import atoms_of

        for name, accepted, _ in CORPUS:
            proof = load_proof(name)
            if not accepted or proof.system is not SystemId.LPBOX or proof.premises:
                continue
            bounds = SearchBounds(
                ModelClass.CONSTRAINED_NEIGHBORHOOD, 3, tuple(atoms_of(proof.conclusion))
            )
            outcome = find_countermodel(proof.conclusion, bounds)
            assert outcome.verdict is Verdict.EXHAUSTED_VALID, name

    def test_premise_free_s5_conclusions_valid_on_equivalence_frames(self):
        from plausible.search import ModelClass, SearchBounds, Verdict, find_countermodel
        from plausible.syntax import atoms_of

        for name, accepted, _ in CORPUS:
            proof = load_proof(name)
            if not accepted or proof.system is not SystemId.S5 or proof.premises:
                continue
            bounds = SearchBounds(
                ModelClass.KRIPKE_EQUIVALENCE, 3, tuple(atoms_of(proof.conclusion))
            )
            outcome = find_countermodel(proof.conclusion, bounds)
            assert outcome.verdict is Verdict.EXHAUSTED_VALID, name
