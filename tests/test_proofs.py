import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, formulas, load_fixture, oracle
from plausible import proofs as proofs_module
from plausible.cli import main
from plausible.derivations import ProofBuilder, box_k
from plausible.proofs import (
    _RULE_AVAILABLE,
    MP,
    RE,
    RN,
    SCHEMAS,
    SYSTEM_AXIOMS,
    SYSTEM_DIALECT,
    AxiomInstance,
    Premise,
    Proof,
    ProofFormatError,
    ProofLine,
    RNabla,
    SystemId,
    check_proof,
    is_axiom_instance,
    list_axiom_schemas,
    proof_from_data,
    proof_to_data,
)
from plausible.syntax import (
    And,
    Atom,
    Box,
    Iff,
    Nabla,
    fits_dialect,
    match_schema,
    modal_operators,
    parse,
    render_schema,
)
from record_translations import outputs, proofs

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

    @settings(max_examples=40, deadline=None)
    @given(formulas(modal=("box",), max_leaves=5), formulas(modal=("box",), max_leaves=5), st.data())
    def test_first_failure_kept_when_lines_share_operands(self, x, y, data):
        # Builder lines share subformula objects, so the out-of-dialect line
        # reaches nodes that earlier, accepted lines already passed.
        b = ProofBuilder(SystemId.LPBOX)
        lines = list(b.build(box_k(b, x, y)).lines)
        k = data.draw(st.integers(0, len(lines) - 2))
        shared = data.draw(st.sampled_from(lines[:k + 1])).formula
        lines[k] = ProofLine(And(lines[k].formula, Nabla(shared)), lines[k].justification)
        broken = Proof(SystemId.LPBOX, (), tuple(lines), lines[-1].formula)
        result = check_proof(broken)
        assert (result.failing_line, result.reason) == (k + 1, "formula outside the BoxSystem dialect")
        assert check_proof(proof_from_data(proof_to_data(broken))) == result

    def test_mp_with_the_implication_reversed_rejected(self, tmp_path, capsys):
        # p1 and p0 -> p1 do not give p0 (affirming the consequent): MP must
        # find A -> B on its implication line, not B -> A
        proof = Proof(
            SystemId.LPC,
            (parse("p1"), parse("p0 -> p1")),
            (
                ProofLine(parse("p1"), Premise()),
                ProofLine(parse("p0 -> p1"), Premise()),
                ProofLine(parse("p0"), MP(1, 2)),
            ),
            parse("p0"),
        )
        result = check_proof(proof)
        assert (result.accepted, result.failing_line) == (False, 3)
        assert result.reason == "line 2 is not (p1) -> (p0)"
        path = tmp_path / "affirming_the_consequent.json"
        path.write_text(json.dumps(proof_to_data(proof)))
        assert main(["checkproof", str(path)]) == 1
        assert json.loads(capsys.readouterr().out)["line"] == 3

    def test_rnabla_with_the_implication_reversed_rejected(self):
        # p0 & p1 -> p0 gives nabla(p0 & p1) -> nabla p0, never
        # nabla p0 -> nabla(p0 & p1), which fails where p1 does
        proof = Proof(
            SystemId.LNABLA,
            (),
            (
                ProofLine(parse("p0 & p1 -> p0"), AxiomInstance("PL5")),
                ProofLine(parse("nabla p0 -> nabla(p0 & p1)"), RNabla(1)),
            ),
            parse("nabla p0 -> nabla(p0 & p1)"),
        )
        result = check_proof(proof)
        assert (result.accepted, result.failing_line) == (False, 2)
        assert result.reason == "RNabla expects line 1 to be A -> B and this line nabla A -> nabla B"

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

        # The builder refuses RE in S5 at build(), so the RE line is appended here.
        b = ProofBuilder(SystemId.S5)
        i = identity(b, parse("p0"))
        both = iff_intro(b, i, i)
        lines = b.build().lines
        src = lines[both - 1].formula
        re_line = ProofLine(Iff(Box(src.left), Box(src.right)), RE(both))
        proof = Proof(SystemId.S5, (), lines + (re_line,), re_line.formula)
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

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("comment",), "x", "proof file: unknown key 'comment'"),
            (("lines", 0, "binding"), {"A": "<>p0"}, "line 1: unknown key 'binding'"),
            (("lines", 2, "note"), "", "line 3: unknown key 'note'"),
            (("lines", 0, "refs"), [], 'line 1: axiom lines take no "refs"'),
            (("lines", 1, "refs"), [1], 'line 2: premise lines take no "refs"'),
            (("lines", 1, "schema"), "5", 'line 2: only axiom lines name a "schema"'),
            (("lines", 2, "schema"), "5", 'line 3: only axiom lines name a "schema"'),
        ],
    )
    def test_keys_outside_the_format_rejected(self, path, value, message):
        data = load_fixture("proofs", "s5_mp_chain.json")
        *parents, last = path
        target = data
        for key in parents:
            target = target[key]
        target[last] = value
        with pytest.raises(ProofFormatError) as exc:
            proof_from_data(data)
        assert str(exc.value) == message


class TestGoldenOutputs:
    """``fixtures/translations.json`` holds the ``checkproof`` and
    ``translate`` results, byte for byte, on every LNabla and LPBox fixture
    and on seeded derivations (written by ``tests/record_translations.py``);
    the CLI must reproduce them."""

    TABLE = json.loads((FIXTURES / "translations.json").read_text(encoding="utf-8"))

    def test_table_holds_the_seeded_proofs(self):
        assert [(case["name"], case["proof"]) for case in self.TABLE] == proofs()
        seeded = [case for case in self.TABLE
                  if case["name"].startswith("seeded_") and not case["name"].endswith("_broken")]
        assert len(seeded) >= 40 and all(len(case["runs"]) == 3 for case in seeded)

    def test_outputs_byte_for_byte(self, tmp_path):
        for case in self.TABLE:
            assert outputs(case["proof"], tmp_path) == case["runs"], case["name"]


def accepted_proofs() -> list[tuple[str, Proof]]:
    """Every accepted proof of the fixtures and of the translation table,
    parsed, so no two lines share a node object."""
    named = [(name, load_proof(name)) for name, accepted, _ in CORPUS if accepted]
    named += [(case["name"], proof_from_data(case["proof"])) for case in TestGoldenOutputs.TABLE
              if case["runs"][0][1] == 0]
    return named


class TestDialectByRule:
    """``check_proof`` walks for the dialect only what a line's rule brings
    in; these are the facts that vouch for the rest of the line."""

    # The modal operators each inference rule adds to what it takes from
    # earlier lines; premise lines are walked, and axiom lines in part.
    RULE_ADDS = {MP: set(), RE: {Box}, RN: {Box}, RNabla: {Nabla}}

    def test_schemas_lie_in_their_systems_dialect(self):
        for system in SystemId:
            for name in SYSTEM_AXIOMS[system]:
                assert fits_dialect(SCHEMAS[name].pattern, SYSTEM_DIALECT[system]), (system, name)

    @pytest.mark.parametrize("s5_re", [False, True])
    def test_rules_add_only_operators_of_the_dialect(self, s5_re):
        for system in SystemId:
            rules = _RULE_AVAILABLE[system] + ((RE,) if s5_re and system is SystemId.S5 else ())
            for rule in set(rules) - {Premise, AxiomInstance}:
                for op in self.RULE_ADDS[rule]:
                    assert fits_dialect(op(Atom(0)), SYSTEM_DIALECT[system]), (system, rule)

    def test_rule_lines_add_only_their_rules_operator(self):
        seen = set()
        for name, proof in accepted_proofs():
            for line in proof.lines:
                rule = type(line.justification)
                seen.add(rule)
                if rule in self.RULE_ADDS:
                    taken = set().union(*(modal_operators(proof.lines[ref - 1].formula)
                                          for ref in line.references()))
                    added = modal_operators(line.formula) - taken
                    assert added <= self.RULE_ADDS[rule], (name, line)
        assert seen == {Premise, AxiomInstance, MP, RE, RN, RNabla}

    def test_walks_only_premises_and_axiom_bindings(self, monkeypatch):
        calls = []
        fits = proofs_module.fits_dialect

        def recorded(f, dialect, memo=None):
            calls.append(f)
            return fits(f, dialect, memo)

        monkeypatch.setattr(proofs_module, "fits_dialect", recorded)
        seen = set()
        for name, proof in accepted_proofs():
            calls.clear()
            assert check_proof(proof).accepted, name
            expected = []
            for line in proof.lines:
                j = line.justification
                seen.add(type(j))
                if isinstance(j, Premise):
                    expected.append(line.formula)
                elif isinstance(j, AxiomInstance):
                    expected += match_schema(SCHEMAS[j.schema_id], line.formula).values()
            assert [id(f) for f in calls] == [id(f) for f in expected], name
        assert seen == {Premise, AxiomInstance, MP, RE, RN, RNabla}


def _swap_modal(text: str) -> str:
    return text.replace("[]", "\0").replace("nabla", "[]").replace("\0", "nabla ")


def mutant(data: dict, rng: random.Random) -> dict:
    """``data`` with one line changed: its formula swapped for another
    line's, its boxes and nablas swapped, ``nabla p0`` or ``[]p0`` conjoined
    to it, or, on an MP line, its refs reversed.  The conclusion follows
    the last line."""
    lines = [dict(line) for line in data["lines"]]
    line = rng.choice(lines)
    kinds = ["swap", "modal", "nabla", "box"] + (["refs"] if line["rule"] == "mp" else [])
    kind = rng.choice(kinds)
    if kind == "swap":
        line["formula"] = rng.choice(data["lines"])["formula"]
    elif kind == "modal":
        line["formula"] = _swap_modal(line["formula"])
    elif kind == "refs":
        line["refs"] = line["refs"][::-1]
    else:
        line["formula"] = f"({line['formula']}) & {'nabla ' if kind == 'nabla' else '[]'}p0"
    return dict(data, lines=lines, conclusion=lines[-1]["formula"])


class TestAgainstOracle:
    """``check_proof`` gives ``perfbench/oracle.py``'s verdict, first failing
    line included, on seeded one-line mutants of every fixture proof and of
    every proof in the translation table."""

    SEED = 20261018
    MUTANTS = 600

    @pytest.mark.parametrize("s5_re", [False, True])
    def test_mutants_get_the_oracles_verdict(self, s5_re):
        sources = [load_fixture("proofs", path.name) for path in sorted((FIXTURES / "proofs").glob("*.json"))]
        sources += [case["proof"] for case in TestGoldenOutputs.TABLE]
        rng = random.Random(self.SEED)
        rejected = 0
        for _ in range(self.MUTANTS // 2):
            data = mutant(rng.choice(sources), rng)
            result = check_proof(proof_from_data(data), s5_re=s5_re)
            assert (result.accepted, result.failing_line) == oracle.check_proof(data, s5_re), data
            if not result.accepted:
                rejected += 1
                assert len(result.premise_free) == result.failing_line - 1
        assert rejected > self.MUTANTS // 4


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

    def test_every_line_of_the_translation_table_is_sound(self):
        """Every line the checker accepts, in every proof of the translation
        table and every translation in it, holds in every (c)(h)(t)(n)
        model, an LNabla line through the nabla-to-box translation.  A
        rejected proof's lines before the rejected one count too.  A
        premise-free line of at most 3 atoms is valid on constrained/3; a
        line that depends on premises is their global consequence at 2
        worlds, the premises being those on the accepted premise lines."""
        from plausible.search import ModelClass, SearchBounds, Verdict, check_global_consequence
        from plausible.syntax import Dialect, atoms_of, translate

        proofs = []
        for case in TestGoldenOutputs.TABLE:
            proofs.append(proof_from_data(case["proof"]))
            if case["runs"][0][1] == 0:
                proofs.append(proof_from_data(json.loads(case["runs"][1][2])))
        free, dependent = set(), set()
        for proof in proofs:
            nabla = proof.system is SystemId.LNABLA
            box = (lambda f: translate(f, Dialect.NABLA, Dialect.BOX)) if nabla else (lambda f: f)
            result = check_proof(proof)
            accepted = proof.lines[:len(proof.lines) if result.accepted else result.failing_line - 1]
            assert len(result.premise_free) == len(accepted)
            premises = tuple(box(line.formula) for line in accepted if isinstance(line.justification, Premise))
            for line, premise_free in zip(accepted, result.premise_free):
                f = box(line.formula)
                if not premise_free:
                    dependent.add((premises, f))
                elif len(atoms_of(f)) <= 3:
                    free.add(f)
        assert (len(proofs), len(free), len(dependent)) == (152, 2879, 12)
        queries = [((), f, 3) for f in free] + [(gamma, f, 2) for gamma, f in dependent]
        for gamma, f, worlds in queries:
            atoms = set(atoms_of(f)).union(*map(atoms_of, gamma))
            bounds = SearchBounds(ModelClass.CONSTRAINED_NEIGHBORHOOD, worlds, tuple(atoms))
            assert check_global_consequence(gamma, f, bounds).verdict is Verdict.EXHAUSTED_VALID, (gamma, f)
