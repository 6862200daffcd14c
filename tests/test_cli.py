import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import plausible
import record_cli
from conftest import FIXTURES
from plausible import _kernel_py, cli, search
from plausible.algebra import MAX_BASE, AlgebraFormatError, InvalidAlgebraError
from plausible.cli import build_parser, main
from plausible.derivations import TranslationError
from plausible.proofs import ProofFormatError, proof_from_data, proof_to_data
from plausible.search import MAX_SAMPLES, BoundsExceededError, SearchInternalError
from plausible.semantics import (
    MAX_CONDITION_WORLDS,
    MAX_MODEL_WORLDS,
    ModelFormatError,
    NeighborhoodModel,
    WorldRangeError,
    model_from_data,
)
from plausible.syntax import (
    DialectError,
    Formula,
    FormulaSyntaxError,
    InputError,
    UnboundMetavariableError,
    parse,
)

MODELS = FIXTURES / "models"
PROOFS = FIXTURES / "proofs"
ALGEBRAS = FIXTURES / "algebras"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out else None, err


class TestFmt:
    def test_canonical_rendering(self, capsys):
        code, data, _ = run_json(capsys, "fmt", "p0->[]p0")
        assert code == 0
        assert data == {"formula": "p0 -> []p0", "dialect": "BoxSystem"}

    def test_redundant_parens_dropped(self, capsys):
        code, data, _ = run_json(capsys, "fmt", "((p0))")
        assert code == 0 and data["formula"] == "p0"

    def test_mixed_dialect_is_input_error(self, capsys):
        code, out, err = run(capsys, "fmt", "nabla p0 & <>p1")
        assert code == 2 and out == "" and "error" in err

    def test_syntax_error(self, capsys):
        code, out, err = run(capsys, "fmt", "p0 ->")
        assert code == 2 and "column" in err

    def test_atom_index_too_long_for_int(self, capsys):
        code, out, err = run(capsys, "fmt", "p" + "1" * 5000)
        assert code == 2 and out == ""
        assert err == "error: atom index of 5000 digits is too long (at column 0)\n"

    def test_pretty(self, capsys):
        code, out, _ = run(capsys, "fmt", "--pretty", "nabla(p0|~p0)")
        assert code == 0
        assert out.splitlines() == ["nabla(p0 | ~p0)", "dialect: NablaSystem"]

    @pytest.mark.parametrize("text", ["~" * 3000 + "p0", "(" * 3000 + "p0" + ")" * 3000])
    def test_deep_nesting_is_input_error(self, capsys, text):
        code, out, err = run(capsys, "fmt", text)
        assert code == 2 and out == ""
        assert "nests deeper" in err and "column 100" in err

    @pytest.mark.parametrize("op", ["&", "->"])
    def test_deep_binary_chain_is_input_error(self, capsys, op):
        code, out, err = run(capsys, "fmt", f" {op} ".join(["p0"] * 3000))
        assert code == 2 and out == ""
        assert "nests deeper" in err

    def test_deepest_accepted_formula_runs(self, capsys):
        # every parser-heavy level the bounds allow, then a full search
        text = "(" * 100 + "p0 -> " * 200 + "p0" + ")" * 100
        code, out, _ = run(capsys, "fmt", text)
        assert code == 0
        code, _, _ = run(capsys, "valid", text, "--class", "constrained", "--max-worlds", "2")
        assert code == 0


class TestEval:
    def test_countermodel_fixture_false(self, capsys):
        code, data, _ = run_json(
            capsys, "eval", str(MODELS / "nm_counter.json"), "0", "p0 -> []p0"
        )
        assert code == 1 and data["value"] is False

    def test_true_constant(self, capsys):
        code, data, _ = run_json(capsys, "eval", str(MODELS / "nm_counter.json"), "1", "true")
        assert code == 0 and data["value"] is True

    def test_kripke_t_instance_every_world(self, capsys):
        for world in ("0", "1"):
            code, data, _ = run_json(
                capsys, "eval", str(MODELS / "km_full.json"), world, "[]p0 -> p0"
            )
            assert code == 0 and data["value"] is True

    def test_class_mismatch(self, capsys):
        code, _, err = run(
            capsys, "eval", str(MODELS / "km_full.json"), "0", "p0", "--class", "nm"
        )
        assert code == 2

    def test_world_out_of_range(self, capsys):
        code, _, err = run(capsys, "eval", str(MODELS / "um2.json"), "7", "p0")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "eval", "no_such_model.json", "0", "p0")
        assert code == 2

    @pytest.mark.parametrize(
        "data",
        [
            {"worlds": 2, "V": {"p0": ["a"]}},
            {"worlds": 2, "V": {"p0": "01"}},
            {"worlds": 2, "S": {"0": [1]}},
            {"worlds": 2, "R": [[0, 1.0]]},
            {"worlds": 2, "V": {"p0": [True]}},
        ],
    )
    def test_non_integer_worlds_rejected(self, capsys, tmp_path, data):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, "eval", str(path), "0", "p0")
        assert code == 2 and out == "" and "array of integers" in err

    @pytest.mark.parametrize(
        "data",
        [
            {"worlds": 2, "V": {"p0": [0], "p00": [1]}},
            {"worlds": 2, "S": {"7": [[0]]}},
            {"worlds": 2, "V": {}, "colour": "red"},
            {"worlds": 2, "S": {}, "R": []},
        ],
    )
    def test_malformed_model_file(self, capsys, tmp_path, data):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, "eval", str(path), "0", "p0")
        assert code == 2 and out == "" and err.startswith("error: ")
        with pytest.raises(ModelFormatError):
            model_from_data(data)

    @pytest.mark.parametrize("key", ["p٣", "p²"], ids=["arabic_indic_three", "superscript_two"])
    def test_atom_name_digits_are_ascii(self, capsys, tmp_path, key):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"worlds": 1, "V": {key: [0]}}), encoding="utf-8")
        code, out, err = run(capsys, "eval", str(path), "0", "p3")
        assert code == 2 and out == "" and f"bad atom name {key!r}" in err

    def test_atom_name_too_long_for_int(self, capsys, tmp_path):
        # worded as TestFmt.test_atom_index_too_long_for_int's lexer error
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"worlds": 1, "V": {"p" + "9" * 5000: [0]}}), encoding="utf-8")
        code, out, err = run(capsys, "eval", str(path), "0", "p3")
        assert code == 2 and out == ""
        assert err == "error: bad atom name: atom index of 5000 digits is too long\n"

    @pytest.mark.parametrize("structure", [{"S": {}}, {"R": []}, {}])
    def test_world_count_bound(self, capsys, tmp_path, structure):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"worlds": MAX_MODEL_WORLDS, **structure}), encoding="utf-8")
        code, data, _ = run_json(capsys, "eval", str(path), str(MAX_MODEL_WORLDS - 1), "p0 | ~p0")
        assert code == 0 and data["value"] is True
        path.write_text(json.dumps({"worlds": MAX_MODEL_WORLDS + 1, **structure}), encoding="utf-8")
        code, out, err = run(capsys, "eval", str(path), "0", "p0 | ~p0")
        assert code == 2 and out == "" and f"at most {MAX_MODEL_WORLDS} worlds" in err

    def test_boolean_world_count_rejected(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"worlds": True, "V": {}}), encoding="utf-8")
        code, out, err = run(capsys, "eval", str(path), "0", "p0")
        assert code == 2 and out == "" and '"worlds"' in err


class TestValid:
    def test_t_exhausted(self, capsys):
        code, data, _ = run_json(
            capsys, "valid", "[]p0 -> p0", "--class", "constrained", "--max-worlds", "3"
        )
        assert code == 0
        assert data["verdict"] == "ExhaustedValid"

    def test_countermodel_and_determinism(self, capsys):
        args = ("valid", "p0 -> []p0", "--class", "constrained", "--max-worlds", "2")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 1
        assert out1 == out2
        data = json.loads(out1)
        assert data["countermodel"] == {
            "worlds": 2,
            "S": {"0": [[0, 1]], "1": [[0, 1]]},
            "V": {"p0": [0]},
        }
        assert data["world"] == 0

    def test_five_on_equivalence_frames(self, capsys):
        code, data, _ = run_json(
            capsys, "valid", "<>p0 -> []<>p0", "--class", "kripke-equiv", "--max-worlds", "3"
        )
        assert code == 0 and data["verdict"] == "ExhaustedValid"

    def test_universal_ten_worlds_stops_at_the_world_bound(self, capsys):
        # no modal subformula: one world holds the first countermodel if
        # there is one, and the rest of the count is its closed form
        code, data, _ = run_json(
            capsys, "valid", "p0|~p0|p1|p2|p3|p4|p5|p6|p7|p8|p9", "--class", "universal", "--max-worlds", "10"
        )
        assert code == 0 and data["verdict"] == "ExhaustedValid"
        assert data["models_checked"] == 1_268_889_750_375_080_065_623_288_448_000

    def test_sample_requires_seed(self, capsys):
        code, _, err = run(
            capsys, "valid", "p0", "--class", "constrained", "--max-worlds", "2", "--sample", "10"
        )
        assert code == 2 and "--seed" in err

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_sample_below_one_is_input_error(self, capsys, samples):
        code, out, err = run(
            capsys, "valid", "p0", "--class", "raw", "--max-worlds", "2",
            "--sample", samples, "--seed", "1",
        )
        assert code == 2 and out == "" and "at least 1" in err

    def test_samples_past_the_bound_are_input_error(self, capsys):
        code, out, err = run(
            capsys, "valid", "[]p0 -> p0", "--class", "constrained", "--max-worlds", "2",
            "--sample", str(MAX_SAMPLES + 1), "--seed", "1",
        )
        assert code == 2 and out == "" and f"capped at {MAX_SAMPLES}" in err

    def test_single_sample(self, capsys):
        code, data, _ = run_json(
            capsys, "valid", "p0", "--class", "raw", "--max-worlds", "2", "--sample", "1", "--seed", "1"
        )
        assert code == 1 and data["models_checked"] == 1

    @pytest.mark.parametrize("atoms, expected", [
        ("0,1", [0, 1]), (" 1, 2 ", [1, 2]), ("007", [7]), ("", []), (" ", []),
    ])
    def test_atoms_flag(self, capsys, atoms, expected):
        code, data, _ = run_json(
            capsys,
            "valid", "[]true", "--class", "constrained", "--max-worlds", "2", "--atoms", atoms,
        )
        assert code == 0 and data["bounds"]["atoms"] == expected

    # int() reads all of these, or raises a message of its own
    @pytest.mark.parametrize("atoms, item", [
        ("1_0", "1_0"), ("٣", "٣"), ("+3", "+3"), ("-1", "-1"), ("1,,2", ""), ("0,", ""),
        ("x", "x"), ("1.5", "1.5"), ("p0", "p0"),
    ])
    def test_atoms_flag_takes_ascii_digits_only(self, capsys, atoms, item):
        code, out, err = run(
            capsys, "valid", "[]true", "--class", "constrained", "--max-worlds", "1", "--atoms", atoms,
        )
        assert (code, out, err) == (2, "", f"error: bad --atoms item {item!r}: expected an atom index\n")

    def test_atoms_flag_index_too_long(self, capsys):
        code, out, err = run(
            capsys, "valid", "[]true", "--class", "constrained", "--max-worlds", "1", "--atoms", "1," + "9" * 5000,
        )
        assert (code, out, err) == (2, "", "error: bad --atoms item: atom index of 5000 digits is too long\n")

    def test_bounds_exceeded(self, capsys):
        code, _, err = run(capsys, "valid", "p0", "--class", "raw", "--max-worlds", "3")
        assert code == 2

    def test_class_dialect_named(self, capsys):
        code, out, err = run(capsys, "valid", "<>p0", "--class", "raw", "--max-worlds", "1")
        assert code == 2 and out == ""
        assert err == "error: Diamond not allowed in dialect BoxSystem: <>p0\n"

    def test_kernel_defect_is_internal_error(self, capsys, monkeypatch):
        # p0 holds at the returned world, so re-validation rejects the model
        bogus = (True, 1, 1, (1,), (1,), 0)
        monkeypatch.setattr(_kernel_py, "run_search", lambda *args: bogus)
        code, out, err = run(capsys, "valid", "p0", "--class", "constrained", "--max-worlds", "1")
        assert code == 3 and out == ""
        assert err.startswith("internal error: ")

    def test_sampling_defect_is_internal_error(self, capsys, monkeypatch):
        # the sampled model breaks (t) and falsifies a theorem of the class
        broken = NeighborhoodModel(1, ((0, 1),), ((0, 0),))
        monkeypatch.setattr(search, "_model_from_struct", lambda *args: broken)
        code, out, err = run(
            capsys, "valid", "[]p0 -> p0", "--class", "constrained", "--max-worlds", "1",
            "--sample", "1", "--seed", "1",
        )
        assert code == 3 and out == ""
        assert err.startswith("internal error: ")


class TestConsequence:
    def test_gamma_entails(self, capsys):
        code, data, _ = run_json(
            capsys,
            "consequence", "[]p0", "--gamma", "p0", "--class", "constrained", "--max-worlds", "2",
        )
        assert code == 0
        assert data["gamma"] == ["p0"] and data["verdict"] == "ExhaustedValid"

    def test_counterexample(self, capsys):
        code, data, _ = run_json(
            capsys,
            "consequence", "p0", "--gamma", "p0 | p1", "--class", "constrained", "--max-worlds", "2",
        )
        assert code == 1 and data["verdict"] == "CountermodelFound"


class TestCheckproof:
    def test_accepted_one_liner(self, capsys):
        code, data, _ = run_json(capsys, "checkproof", str(PROOFS / "lpbox_t.json"))
        assert code == 0 and data["accepted"] is True

    def test_rejected_with_line(self, capsys):
        code, data, _ = run_json(capsys, "checkproof", str(PROOFS / "broken_rnabla_premise.json"))
        assert code == 1
        assert data["accepted"] is False and data["line"] == 2

    @pytest.mark.parametrize(
        "path, value",
        [
            (("lines", 0, "formula"), 5),
            (("conclusion",), ["[]<>p0"]),
            (("premises",), {"<>p0": 1}),
            (("premises",), [1]),
            (("lines", 2, "refs"), [True, 2]),
        ],
    )
    def test_malformed_proof_file(self, tmp_path, capsys, path, value):
        bad = json.loads((PROOFS / "s5_mp_chain.json").read_text())
        *parents, last = path
        target = bad
        for key in parents:
            target = target[key]
        target[last] = value
        file = tmp_path / "bad.json"
        file.write_text(json.dumps(bad))
        code, out, err = run(capsys, "checkproof", str(file))
        assert code == 2 and out == "" and err.startswith("error: ")
        with pytest.raises(ProofFormatError):
            proof_from_data(bad)

    @pytest.mark.parametrize("argv", [["checkproof"], ["translate", "--to", "box"]])
    def test_malformed_formula_names_its_line(self, tmp_path, capsys, argv):
        bad = json.loads((PROOFS / "hequiv_forward.json").read_text())
        bad["lines"][2]["formula"] = "[]true &"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        command, *options = argv
        code, out, err = run(capsys, command, str(path), *options)
        assert code == 2 and out == ""
        assert err == 'error: line 3: "formula": expected a formula, found \'end\' (at column 8)\n'

    def test_dangling_reference_is_input_error(self, tmp_path, capsys):
        bad = json.loads((PROOFS / "s5_mp_chain.json").read_text())
        bad["lines"][2]["refs"] = [2, 9]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _, err = run(capsys, "checkproof", str(path))
        assert code == 2


    def test_keys_outside_the_format_are_input_errors(self, tmp_path, capsys):
        bad = json.loads((PROOFS / "lpbox_t.json").read_text())
        bad["comment"] = "checked by hand"
        bad["lines"][0].update(binding={"A": "p0"}, refs=[7])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, err = run(capsys, "checkproof", str(path))
        assert code == 2 and out == ""
        assert err == "error: proof file: unknown key 'comment'\n"
        del bad["comment"]
        path.write_text(json.dumps(bad))
        code, out, err = run(capsys, "checkproof", str(path))
        assert code == 2 and err == "error: line 1: unknown key 'binding'\n"


class TestTranslate:
    def test_formula_to_box(self, capsys):
        code, data, _ = run_json(
            capsys, "translate", "nabla p0 & nabla p1 -> nabla(p0 & p1)", "--to", "box"
        )
        assert code == 0
        assert data["formula"] == "[]p0 & []p1 -> [](p0 & p1)"

    def test_round_trip_identity(self, capsys):
        code1, data1, _ = run_json(capsys, "translate", "nabla p0 -> p0", "--to", "box")
        code2, data2, _ = run_json(capsys, "translate", data1["formula"], "--to", "nabla")
        assert code1 == code2 == 0
        assert data2["formula"] == "nabla p0 -> p0"

    def test_mixed_dialect_input_error(self, capsys):
        code, _, err = run(capsys, "translate", "nabla p0 & []p1", "--to", "box")
        assert code == 2

    def test_formula_longer_than_a_file_name(self, capsys):
        text = " & ".join(["nabla p0"] * 30)
        assert len(text.encode()) > 255
        code, data, _ = run_json(capsys, "translate", text, "--to", "box")
        assert code == 0 and data["formula"] == " & ".join(["[]p0"] * 30)

    def test_formula_with_a_nul_is_not_a_file_name(self, capsys):
        code, out, err = run(capsys, "translate", "nabla p0\0", "--to", "box")
        assert (code, out, err) == (2, "", "error: unexpected character '\\x00' (at column 8)\n")

    def test_proof_file(self, capsys):
        from plausible.proofs import check_proof, proof_from_data

        code, data, _ = run_json(capsys, "translate", str(PROOFS / "lnabla_ax3.json"), "--to", "box")
        assert code == 0
        assert data["system"] == "LPBox"
        assert data["conclusion"] == "[]p0 -> p0"
        assert check_proof(proof_from_data(data)).accepted

    def test_proof_wrong_direction(self, capsys, monkeypatch):
        # decided from the proof's system, before anything is translated
        def refuse(proof):
            raise AssertionError("translate_proof called")

        monkeypatch.setattr("plausible.cli.translate_proof", refuse)
        for name, to in (("lnabla_ax3.json", "nabla"), ("lpbox_t.json", "box")):
            code, out, err = run(capsys, "translate", str(PROOFS / name), "--to", to)
            assert (code, out, err) == (2, "", f"error: proof translates away from --to {to}\n")

    def test_wrong_bridge_is_internal_error(self, capsys, monkeypatch):
        # A bridge that concludes the wrong formula is a defect, not an input error.
        monkeypatch.setattr("plausible.derivations.nabla_top", lambda b: b.axiom("PL13"))
        code, out, err = run(capsys, "translate", str(PROOFS / "lpbox_n.json"), "--to", "nabla")
        assert code == 3 and out == ""
        assert err.startswith(
            "internal error: DerivationError: line 1: bridge produced true, expected nabla true"
        )


class TestSupplement:
    def test_adds_supersets_and_reports(self, capsys, tmp_path):
        out_file = tmp_path / "sup.json"
        code, data, _ = run_json(
            capsys, "supplement", str(MODELS / "nm_supplement.json"), "--out", str(out_file)
        )
        assert code == 0
        assert data["model"]["S"]["0"] == [[0], [0, 1]]
        assert data["conditions_before"]["h"] is False
        assert data["conditions_after"]["h"] is True
        assert json.loads(out_file.read_text()) == data["model"]

    def test_closed_model_unchanged(self, capsys):
        code, data, _ = run_json(capsys, "supplement", str(MODELS / "nm_counter.json"))
        assert code == 0
        assert data["model"]["S"] == {"0": [[0, 1]], "1": [[0, 1]]}

    def test_output_round_trips_through_model_format(self, capsys):
        from plausible.semantics import NeighborhoodModel, model_from_data

        _, data, _ = run_json(capsys, "supplement", str(MODELS / "nm_supplement.json"))
        model = model_from_data(data["model"])
        assert isinstance(model, NeighborhoodModel)
        assert model.to_data() == data["model"]

    def test_kripke_model_rejected(self, capsys):
        code, _, err = run(capsys, "supplement", str(MODELS / "km_full.json"))
        assert code == 2

    def test_world_bound(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"worlds": MAX_CONDITION_WORLDS + 1, "S": {}}))
        code, out, err = run(capsys, "supplement", str(path))
        assert code == 2 and out == "" and f"at most {MAX_CONDITION_WORLDS} worlds" in err


class TestAlgebra:
    def test_identity_k2(self, capsys):
        code, data, _ = run_json(capsys, "algebra", str(ALGEBRAS / "identity_k2.json"))
        assert code == 0
        assert all(data["axioms"][key] for key in ("a1", "a2", "a3", "a4"))
        assert data["plausible"] == [1, 2, 3]

    def test_zero_sharp_a4_witness(self, capsys):
        code, data, _ = run_json(capsys, "algebra", str(ALGEBRAS / "zero_k1.json"))
        assert code == 1
        assert data["axioms"]["a4"] is False
        assert data["axioms"]["failures"]["a4"] == {"sharp_unit": 0}

    def test_formula_validation(self, capsys):
        code, data, _ = run_json(
            capsys, "algebra", str(ALGEBRAS / "identity_k2.json"), "--formula", "nabla p0 -> p0"
        )
        assert code == 0 and data["validates"] is True

    def test_formula_refuted(self, capsys):
        code, data, _ = run_json(
            capsys, "algebra", str(ALGEBRAS / "identity_k2.json"), "--formula", "nabla p0"
        )
        assert code == 1 and data["validates"] is False

    def test_box_formula_is_input_error(self, capsys):
        code, out, err = run(
            capsys, "algebra", str(ALGEBRAS / "identity_k2.json"), "--formula", "[]p0 -> p0"
        )
        assert code == 2 and out == "" and "Box" in err

    @pytest.mark.parametrize("formula,message", [
        ("[]p0", "error: Box not allowed in dialect NablaSystem: []p0\n"),
        ("p0 -> (", "error: expected a formula, found 'end' (at column 7)\n"),
    ], ids=["box", "syntax"])
    def test_formula_read_before_the_axioms(self, capsys, axiom_checks, formula, message):
        # an input error even on an algebra that fails its axioms
        code, out, err = run(capsys, "algebra", str(ALGEBRAS / "zero_k1.json"), "--formula", formula)
        assert (code, out, err) == (2, "", message)
        assert axiom_checks == []

    def test_axioms_checked_once(self, capsys, axiom_checks):
        code, data, _ = run_json(
            capsys, "algebra", str(ALGEBRAS / "identity_k2.json"), "--formula", "nabla p0 -> p0"
        )
        assert code == 0 and data["validates"] is True
        assert len(axiom_checks) == 1

    def test_base_bound(self, capsys, tmp_path):
        size = 1 << (MAX_BASE + 1)
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps({"base": MAX_BASE + 1, "sharp": list(range(size))}))
        code, out, err = run(capsys, "algebra", str(path))
        assert code == 2 and out == "" and f"between 1 and {MAX_BASE}" in err

    def test_assignment_bound(self, capsys):
        # 4 elements, 9 atoms: 4^9 = 2^18 assignments
        formula = " & ".join(f"nabla p{i}" for i in range(9))
        code, out, err = run(capsys, "algebra", str(ALGEBRAS / "identity_k2.json"), "--formula", formula)
        assert code == 2 and out == "" and "assignments exceed" in err

    def test_boolean_entries_rejected(self, capsys, tmp_path):
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps({"base": True, "sharp": [False, True]}), encoding="utf-8")
        code, out, err = run(capsys, "algebra", str(path))
        assert code == 2 and out == "" and '"base"' in err

    def test_unknown_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps({"base": 1, "sharp": [0, 1], "extra": 7}), encoding="utf-8")
        code, out, err = run(capsys, "algebra", str(path))
        assert code == 2 and out == "" and "unexpected algebra keys: extra" in err


class TestExperimentK:
    def test_report_written_and_stable(self, capsys, tmp_path):
        out_file = tmp_path / "k.json"
        code1, out1, _ = run(capsys, "experiment-k", "--max-worlds", "2", "--out", str(out_file))
        saved = out_file.read_text()
        code2, out2, _ = run(capsys, "experiment-k", "--max-worlds", "2")
        assert out1 == out2 == saved
        data = json.loads(out1)
        assert data["models_checked"] == 68
        assert data["class"] == "constrained"


def test_deeply_nested_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, "eval", str(path), "0", "p0")
    assert code == 2 and out == ""
    assert "nests too deeply" in err


@pytest.mark.parametrize(
    "data,message",
    [
        (b"\xff\xfe{", "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"),
        (b'{"worlds": ' + b"9" * 5000, "error: Exceeds the limit (4300 digits)"),
        (b'{"worlds": 1', "error: Expecting ',' delimiter: line 1 column 13 (char 12)\n"),
    ],
    ids=["not-utf-8", "long-integer", "truncated"],
)
def test_undecodable_json_is_input_error(capsys, tmp_path, data, message):
    path = tmp_path / "model.json"
    path.write_bytes(data)
    code, out, err = run(capsys, "eval", str(path), "0", "p0")
    assert code == 2 and out == ""
    # the digit limit's message ends differently across Python versions
    assert err == message if message.endswith("\n") else err.startswith(message)


@pytest.mark.parametrize(
    "argv,text,key",
    [
        (["eval", "FILE", "1", "p0"], '{"worlds": 1, "worlds": 2, "V": {"p0": [1]}}', "worlds"),
        (["eval", "FILE", "0", "p0"], '{"worlds": 1, "V": {"p0": [], "p0": [0]}}', "p0"),
        (
            ["checkproof", "FILE"],
            '{"system": "LPC", "lines": [{"formula": "true", "rule": "axiom", "schema": "PL13",'
            ' "rule": "premise"}], "conclusion": "true"}',
            "rule",
        ),
        (["algebra", "FILE"], '{"base": 2, "sharp": [0, 1], "base": 1}', "base"),
    ],
)
def test_repeated_json_key_is_input_error(capsys, tmp_path, argv, text, key):
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, *(str(path) if a == "FILE" else a for a in argv))
    assert code == 2 and out == "" and f"repeated key {key!r}" in err


def test_uncaught_exception_is_internal_error(capsys, monkeypatch):
    def boom(text):
        raise RuntimeError("boom")

    monkeypatch.setattr("plausible.cli.parse", boom)
    code, out, err = run(capsys, "fmt", "p0")
    assert code == 3 and out == ""
    assert err.startswith("internal error: RuntimeError: boom")


def test_value_error_from_a_defect_is_internal_error(capsys, monkeypatch):
    def defect(*args):
        raise ValueError("defect inside the kernel")

    monkeypatch.setattr(_kernel_py, "run_search", defect)
    code, out, err = run(capsys, "valid", "p0", "--class", "constrained", "--max-worlds", "1")
    assert code == 3 and out == ""
    assert err.startswith("internal error: ValueError: defect inside the kernel")


INPUT_ERRORS = [
    FormulaSyntaxError,
    DialectError,
    UnboundMetavariableError,
    ModelFormatError,
    WorldRangeError,
    ProofFormatError,
    TranslationError,
    AlgebraFormatError,
    InvalidAlgebraError,
    BoundsExceededError,
]


@pytest.mark.parametrize("cls", INPUT_ERRORS, ids=lambda cls: cls.__name__)
def test_input_errors_are_value_errors(cls):
    assert issubclass(cls, ValueError)


@pytest.mark.parametrize("cls", INPUT_ERRORS, ids=lambda cls: cls.__name__)
def test_refused_input_is_an_input_error(cls):
    # no plaus input reaches schema instantiation: an unbound metavariable
    # there is a defect
    assert issubclass(cls, InputError) is (cls is not UnboundMetavariableError)


def test_search_defect_is_not_an_input_error():
    assert not issubclass(SearchInternalError, ValueError)


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["valid", "p0"])  # missing required flags
    assert exc.value.code == 2


# One argv for each subcommand; file arguments name committed fixtures.
EVERY_SUBCOMMAND = [
    ("fmt", "p0 -> []p0"),
    ("eval", str(MODELS / "nm_counter.json"), "0", "p0 -> []p0"),
    ("valid", "p0 -> []p0", "--class", "constrained", "--max-worlds", "2"),
    ("consequence", "[]p0", "--gamma", "p0", "--class", "constrained", "--max-worlds", "2"),
    ("checkproof", str(PROOFS / "lpbox_t.json")),
    ("translate", str(PROOFS / "lnabla_ax3.json"), "--to", "box"),
    ("supplement", str(MODELS / "nm_supplement.json")),
    ("algebra", str(ALGEBRAS / "identity_k2.json"), "--formula", "nabla p0 -> p0"),
    ("experiment-k", "--max-worlds", "2"),
]


class TestSharedParser:
    """Every ``main`` call in a process parses a subcommand's argv with the
    same parser, that subcommand's own."""

    def test_built_once_per_process(self, capsys):
        names = [argv[0] for argv in EVERY_SUBCOMMAND]
        for argv in EVERY_SUBCOMMAND * 2:
            run(capsys, *argv)
        for name in names:
            assert cli._subcommand_parser(name) is cli._subcommand_parser(name)
        assert cli._subcommand_parser.cache_info().misses == len(set(names)) == 9
        assert build_parser() is build_parser()
        assert build_parser.cache_info().misses == 1

    @pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=lambda argv: argv[0])
    def test_same_argv_same_result(self, capsys, argv):
        assert run(capsys, *argv) == run(capsys, *argv)

    def test_gamma_not_carried_over(self, capsys):
        args = ("consequence", "[]p0", "--class", "constrained", "--max-worlds", "2")
        code, data, _ = run_json(capsys, *args, "--gamma", "p0")
        assert code == 0 and data["gamma"] == ["p0"]
        code, data, _ = run_json(capsys, *args)
        assert code == 1 and data["gamma"] == []

    def test_out_not_carried_over(self, capsys, tmp_path):
        args = ("valid", "p0 -> []p0", "--class", "constrained", "--max-worlds", "2")
        out_file = tmp_path / "report.json"
        run(capsys, *args, "--out", str(out_file))
        out_file.write_text("untouched")
        run(capsys, *args)
        assert out_file.read_text() == "untouched"

    def test_sample_not_carried_over(self, capsys):
        args = ("valid", "[]p0 -> p0", "--class", "constrained", "--max-worlds", "2")
        exhaustive = run(capsys, *args)
        code, data, _ = run_json(capsys, *args, "--sample", "3", "--seed", "1")
        assert code == 0 and data["verdict"] == "Inconclusive" and data["models_checked"] == 3
        assert run(capsys, *args) == exhaustive
        assert json.loads(exhaustive[1])["verdict"] == "ExhaustedValid"

    def test_usage_error_leaves_parser_usable(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["valid"])
        assert exc.value.code == 2
        assert run(capsys, "fmt", "p0")[0] == 0


class TestGoldenOutputs:
    """Every subcommand, with and without ``--pretty``, reproduces the
    table ``tests/record_cli.py`` recorded, byte for byte."""

    TABLE = json.loads((FIXTURES / "cli_outputs.json").read_text(encoding="utf-8"))

    def test_table_covers_every_subcommand_both_ways(self):
        recorded = {(argv[0], "--pretty" in argv) for argv, *_ in self.TABLE}
        assert recorded == {(argv[0], pretty) for argv in EVERY_SUBCOMMAND for pretty in (False, True)}

    def test_reproduced(self, tmp_path, monkeypatch):
        monkeypatch.chdir(FIXTURES.parent.parent)
        for name, text in record_cli.INPUTS.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        for row in self.TABLE:
            assert record_cli.run(row[0], tmp_path) == row


def parsed(capsys, fn, argv):
    """What ``fn(argv)`` returns, or the status it exits with, and what it
    printed."""
    try:
        result = fn(list(argv))
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


VALID = ("valid", "p0 -> []p0")
BOUNDS = ("--class", "constrained", "--max-worlds", "2")


class TestParseOnce:
    """``main`` parses an argv that starts with a subcommand's name with that
    subcommand's parser alone; every argv gets what the top-level parser
    gives it."""

    @pytest.mark.parametrize("argv", [
        (),
        ("-h",),
        ("--help", "fmt"),
        ("nosuch", "p0"),
        ("--", "fmt", "p0"),
        ("valid",),
        ("valid", "-h"),
        (*VALID,),
        (*VALID, "--class", "nosuch", "--max-worlds", "2"),
        (*VALID, "--class", "constrained", "--max-worlds", "two"),
        (*VALID, *BOUNDS, "extra"),
        (*VALID, *BOUNDS, "--", "extra"),
        (*VALID, *BOUNDS, "--bogus"),
        (*VALID, "--s", "1", *BOUNDS),  # --sample or --seed
        ("fmt", "p0", "--pretty=yes"),
    ], ids=repr)
    def test_usage_errors_and_help_match_the_top_level_parser(self, capsys, argv):
        expected = parsed(capsys, build_parser().parse_args, argv)
        assert expected[0][0] == "exit"
        assert parsed(capsys, main, argv) == expected

    @pytest.mark.parametrize("argv", [
        *EVERY_SUBCOMMAND,
        (*VALID, "--cl", "constrained", "--max-w", "2"),  # abbreviated long options
        (*VALID, "--class=constrained", "--max-worlds=2", "--atoms=0,1"),
        ("valid", "--class", "constrained", "--max-worlds", "2", "--", "-p0"),
        ("consequence", "p0", "--gamma", "p1", "--gamma=p2", *BOUNDS, "--pretty"),
        ("fmt", "-1"),
    ], ids=repr)
    def test_namespaces_match_the_top_level_parser(self, capsys, argv):
        expected = parsed(capsys, build_parser().parse_args, argv)
        assert isinstance(expected[0], argparse.Namespace) and expected[0].command == argv[0]
        assert parsed(capsys, cli._parse_args, argv) == expected


# JSON values as the documents hold them, tuples among them
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=-(1 << 100), max_value=1 << 100) | st.text(),
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(), children, max_size=4)
    ),
    max_leaves=25,
)


class TestCanonicalJson:
    @settings(max_examples=300, deadline=None)
    @given(json_values)
    @example("\x00\x1f\x7f\\\"/ é \u2028 \U0001d11e")
    @example([[], {}, (), [[{}]], {"": ()}])
    @example({"n": -(1 << 70), "m": 1 << 64, "t": True, "f": False, "z": None, "zero": 0})
    @example((("nested", ("tuple",)),))
    def test_same_text_as_json_dumps(self, value):
        assert cli.canonical_json(value) == json.dumps(value, indent=2) + "\n"

    @pytest.mark.parametrize("value", [
        {1, 2}, [{"a": frozenset()}], {"a": 1.5}, {1: "int key"},
        # repr(object()) holds a memory address, so this case gets a fixed id.
        pytest.param(object(), id="object()"), {"formula": parse("[]p0")},
    ], ids=repr)
    def test_other_values_are_refused(self, value):
        with pytest.raises(TypeError):
            cli.canonical_json(value)

    def test_a_document_holding_another_value_is_internal_error(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "render", lambda f: {"a set"})
        code, out, err = run(capsys, "fmt", "p0")
        assert code == 3 and out == ""
        assert err.startswith("internal error: TypeError")


class TestAnswerOnce:
    """``main`` serializes the document a command returns, once."""

    @pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=lambda argv: argv[0])
    def test_commands_return_their_document(self, capsys, argv):
        args = build_parser().parse_args(list(argv))
        code, document = args.func(args)
        assert capsys.readouterr().out == ""
        assert run(capsys, *argv) == (code, cli.canonical_json(document), "")

    @pytest.mark.parametrize("argv", [
        ("valid", "p0 -> []p0", "--class", "constrained", "--max-worlds", "2"),
        ("valid", "[]p0 -> p0", "--class", "constrained", "--max-worlds", "2"),
        ("consequence", "p0", "--gamma", "p0 | p1", "--class", "kripke-all", "--max-worlds", "2"),
        ("fmt", "p0 -> []p0"),
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_canonical_json_runs_once(self, capsys, monkeypatch, argv):
        calls, original = [], cli.canonical_json

        def counted(data):
            calls.append(data)
            return original(data)

        monkeypatch.setattr(cli, "canonical_json", counted)
        code, out, _ = run(capsys, *argv)
        assert len(calls) == 1 and out == original(calls[0])

    @pytest.mark.parametrize("argv", [
        ("valid", "p0 -> []p0", "--class", "constrained", "--max-worlds", "2"),
        ("consequence", "[]p0", "--gamma", "p0", "--class", "constrained", "--max-worlds", "2"),
        ("experiment-k", "--max-worlds", "2"),
        ("supplement", str(MODELS / "nm_supplement.json")),
    ], ids=lambda argv: argv[0])
    def test_failed_out_write_prints_no_json(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "report.json"))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "missing" in err


def formulas_in(data) -> list:
    """Every formula node inside a document.  A node is a tuple, which
    ``json.dumps`` prints as an array instead of refusing it."""
    if isinstance(data, Formula):
        return [data]
    if isinstance(data, dict):
        data = list(data.values())
    if isinstance(data, (list, tuple)):
        return [f for item in data for f in formulas_in(item)]
    return []


class TestDocumentsHoldNoFormula:
    """Every document the CLI prints holds only JSON values, no formula."""

    def test_command_documents(self, tmp_path, monkeypatch):
        monkeypatch.chdir(FIXTURES.parent.parent)
        for name, text in record_cli.INPUTS.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        reports, experiment_report = [], search.experiment_report

        def recorded(*args):
            reports.append(experiment_report(*args))
            return reports[-1]

        monkeypatch.setattr(search, "experiment_report", recorded)
        commands = set()
        for argv in record_cli.CASES:
            real = [str(tmp_path / a[len("INPUT/"):]) if a.startswith("INPUT/") else a for a in argv]
            args = build_parser().parse_args(real)
            try:
                _, document = args.func(args)
            except (ValueError, OSError):  # an input error has no document
                continue
            commands.add(args.func.__name__)
            assert formulas_in(document) == [], argv
        assert commands == {name for name in vars(cli) if name.startswith("cmd_")}
        assert reports and formulas_in(reports) == []

    @pytest.mark.parametrize("path", sorted(PROOFS.glob("*.json")), ids=lambda p: p.name)
    def test_proof_documents(self, path):
        data = json.loads(path.read_text(encoding="utf-8"))
        assert formulas_in(proof_to_data(proof_from_data(data))) == []


def test_library_import_leaves_the_cli_out():
    # The CLI's argparse set-up is paid by `plaus`, never by library users.
    script = (
        "import sys; before = set(sys.modules); import plausible; "
        "print(sorted({'argparse', 'plausible.cli'} & (set(sys.modules) - before)))"
    )
    src = str(Path(plausible.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"


def test_fmt_leaves_the_orbit_table_undecoded():
    # Only a search loads the orbit table, and decodes only the world
    # counts it scans.
    script = (
        "import sys; from plausible import _kernel_py, cli; "
        "probe = lambda: print('plausible._orbits' in sys.modules, len(_kernel_py._ranks), file=sys.stderr); "
        "cli.main(['fmt', 'p0']); probe(); "
        "cli.main(['valid', 'p0 -> []p0', '--class', 'constrained', '--max-worlds', '2']); probe()"
    )
    src = str(Path(plausible.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert result.stderr == "False 0\nTrue 2\n"


@pytest.mark.parametrize("argv", [
    ["fmt", "p0"],
    ["valid", "[]p0 -> p0", "--class", "constrained", "--max-worlds", "2"],
    ["checkproof", str(PROOFS / "lpbox_c.json")],
], ids=lambda argv: argv[0])
def test_a_command_loads_neither_dataclasses_nor_the_top_level_parser(argv):
    # `-S` keeps site's .pth files from importing modules into the check.
    # Only `--sample` needs `random`.
    script = (
        f"import sys; from plausible import cli; cli.main({argv!r}); "
        "print(sorted({'dataclasses', 'inspect', 'random'} & set(sys.modules)), "
        "cli.build_parser.cache_info().misses, file=sys.stderr)"
    )
    src = str(Path(plausible.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert result.stderr == "[] 0\n"
