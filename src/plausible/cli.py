"""Command-line front end.

Each subcommand computes one JSON document; ``main`` writes it to stdout,
or with ``--pretty`` the subcommand's human view, computed from that
document alone.  Diagnostics go to stderr.  Exit status: 0 for success, 1
for a semantically meaningful negative (countermodel found, proof rejected,
axiom violated, formula false), 2 for usage or input errors, 3 for an
internal error (a search result or derivation that failed its check, or
any other uncaught exception: a defect must never read as a negative answer).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path

from . import algebra as alg
from . import search as srch
from .derivations import TranslationError, translate_proof
from .proofs import SYSTEM_DIALECT, check_proof, proof_from_data, proof_to_data
from .semantics import (
    KripkeModel,
    ModelFormatError,
    NeighborhoodModel,
    UniversalModel,
    eval_model,
    model_from_data,
    nm_check_conditions,
    supplement,
)
from .syntax import Dialect, atoms_of, dialect_of, parse, render, require_dialect, translate

# Every input-error class of the package is a ValueError, and so is a JSON
# decoding error; OSError covers unreadable files.
_INPUT_ERRORS = (ValueError, OSError)


def canonical_json(data) -> str:
    """``json.dumps(data, indent=2) + "\\n"``, for the values documents hold:
    str, int, bool, None, lists and tuples, and dicts with str keys.  Any
    other value raises ``TypeError``, a subclass of these too: a formula
    node is a tuple, and a document holding one is a defect.

    With ``indent`` set, ``json.dumps`` runs its pure-Python encoder; here
    the strings still go through the C one.
    """
    out: list[str] = []
    _write_json(data, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(value, newline: str, out: list[str]) -> None:
    # ``newline`` breaks a line and indents the next to ``value``'s depth
    kind = type(value)
    if kind is str:
        out.append(_json_string(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _json_string(key) + ": ")
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_object(pairs: list) -> dict:
    # json.load would keep the last of a repeated key's values silently
    data = dict(pairs)
    if len(data) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise ValueError(f"repeated key {repeated!r} in a JSON object")
    return data


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle, object_pairs_hook=_json_object)
        except RecursionError:
            raise ValueError(f"{path}: JSON nests too deeply") from None


# ---------------------------------------------------------------------------
# Subcommands: each ``cmd_*`` returns its exit status and its JSON document,
# and each ``_*_view`` turns such a document into the ``--pretty`` lines.


def cmd_fmt(args) -> tuple[int, dict]:
    f = parse(args.formula)
    return 0, {"formula": render(f), "dialect": dialect_of(f).value}


def _fmt_view(data: dict) -> list[str]:
    return [data["formula"], f"dialect: {data['dialect']}"]


_EVAL_CLASSES = {
    "nm": NeighborhoodModel,
    "km": KripkeModel,
    "um": UniversalModel,
}


def cmd_eval(args) -> tuple[int, dict]:
    model = model_from_data(_load_json(args.model))
    if args.model_class and not isinstance(model, _EVAL_CLASSES[args.model_class]):
        raise ModelFormatError(
            f"model file is a {type(model).__name__}, not the requested --class {args.model_class}"
        )
    f = parse(args.formula)
    value = eval_model(model, args.world, f)
    return 0 if value else 1, {"formula": render(f), "world": args.world, "value": value}


def _eval_view(data: dict) -> list[str]:
    return [f"{data['formula']} at world {data['world']}: {'true' if data['value'] else 'false'}"]


def _parse_atoms(text: str | None, fallback) -> tuple[int, ...]:
    if text is None:
        return tuple(sorted(fallback))
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


def _search_report(args, f, bounds, outcome, extra: dict | None = None) -> tuple[int, dict]:
    report = srch.experiment_report(f, bounds, outcome)
    if extra:
        report = {**extra, **report}
    if args.out:
        Path(args.out).write_text(canonical_json(report), encoding="utf-8")
    return 1 if outcome.verdict is srch.Verdict.COUNTERMODEL_FOUND else 0, report


def _search_view(report: dict) -> list[str]:
    lines = [f"{report['verdict']} after {report['models_checked']} models"]
    if "countermodel" in report:
        lines.append(f"countermodel (world {report['world']}):")
        lines.append(canonical_json(report["countermodel"]).rstrip())
    return lines


def _bounds_from_args(args, atom_fallback) -> srch.SearchBounds:
    return srch.SearchBounds(
        srch.ModelClass(args.model_class),
        args.max_worlds,
        _parse_atoms(args.atoms, atom_fallback),
    )


def cmd_valid(args) -> tuple[int, dict]:
    f = parse(args.formula)
    bounds = _bounds_from_args(args, atoms_of(f))
    if args.sample is not None:
        if args.seed is None:
            raise ValueError("--sample requires an explicit --seed")
        outcome = srch.sample_countermodel(f, bounds, args.sample, args.seed)
    else:
        outcome = srch.find_countermodel(f, bounds)
    return _search_report(args, f, bounds, outcome)


def cmd_consequence(args) -> tuple[int, dict]:
    gamma = [parse(text) for text in args.gamma or []]
    f = parse(args.formula)
    atom_fallback = set(atoms_of(f)).union(*(atoms_of(g) for g in gamma)) if gamma else atoms_of(f)
    bounds = _bounds_from_args(args, atom_fallback)
    outcome = srch.check_global_consequence(gamma, f, bounds)
    return _search_report(args, f, bounds, outcome, extra={"gamma": [render(g) for g in gamma]})


def cmd_checkproof(args) -> tuple[int, dict]:
    proof = proof_from_data(_load_json(args.proof))
    result = check_proof(proof, s5_re=args.s5_re)
    data = {**result.to_data(), "system": proof.system.value, "conclusion": render(proof.conclusion)}
    return 0 if result.accepted else 1, data


def _checkproof_view(data: dict) -> list[str]:
    if data["accepted"]:
        return [f"accepted: {data['conclusion']} [{data['system']}]"]
    return [f"rejected at line {data['line']}: {data['reason']}"]


def cmd_translate(args) -> tuple[int, dict]:
    target = Dialect.NABLA if args.to == "nabla" else Dialect.BOX
    source = Dialect.BOX if target is Dialect.NABLA else Dialect.NABLA
    try:
        is_file = Path(args.target).is_file()
    except OSError:  # e.g. formula text longer than a file name may be
        is_file = False
    if is_file:
        proof = proof_from_data(_load_json(args.target))
        if SYSTEM_DIALECT[proof.system] is target:  # LNabla or LPBox, already on the --to side
            raise TranslationError(f"proof translates away from --to {args.to}")
        return 0, proof_to_data(translate_proof(proof))
    return 0, {"formula": render(translate(parse(args.target), source, target))}


def _translate_view(data: dict) -> list[str]:
    if "system" in data:  # a proof
        return [f"{data['system']} proof of {data['conclusion']}"]
    return [data["formula"]]


def cmd_supplement(args) -> tuple[int, dict]:
    model = model_from_data(_load_json(args.model))
    if not isinstance(model, NeighborhoodModel):
        raise ModelFormatError("supplementation applies to neighborhood models")
    before = nm_check_conditions(model)
    supplemented = supplement(model)
    data = {
        "model": supplemented.to_data(),
        "conditions_before": before.to_data(),
        "conditions_after": nm_check_conditions(supplemented).to_data(),
    }
    if args.out:
        Path(args.out).write_text(canonical_json(data["model"]), encoding="utf-8")
    return 0, data


def _flags(report: dict) -> str:
    return ", ".join(f"{k}={v}" for k, v in report.items() if k != "failures")


def _supplement_view(data: dict) -> list[str]:
    return [
        f"conditions before: {_flags(data['conditions_before'])}",
        f"conditions after:  {_flags(data['conditions_after'])}",
    ]


def cmd_algebra(args) -> tuple[int, dict]:
    a = alg.FinitePlausibilityAlgebra.from_data(_load_json(args.algebra))
    f = None
    if args.formula:  # an input error, whatever the algebra's report
        f = parse(args.formula)
        require_dialect(f, Dialect.NABLA)
    report = alg.check_algebra(a)
    data: dict = {"axioms": report.to_data()}
    if not report.valid:
        return 1, data
    data["plausible"] = sorted(alg.plausible_elements(a))
    data["derived_laws"] = alg.check_derived_laws(a).to_data()
    if f is not None:
        data["formula"] = render(f)
        data["validates"] = alg.alg_validates(a, f)
    return 0 if data.get("validates", True) else 1, data


def _algebra_view(data: dict) -> list[str]:
    lines = [f"axioms: {_flags(data['axioms'])}"]
    if "plausible" in data:
        lines.append(f"plausible elements: {data['plausible']}")
    if "validates" in data:
        lines.append(f"validates {data['formula']}: {data['validates']}")
    return lines


def cmd_experiment_k(args) -> tuple[int, dict]:
    bounds = srch.SearchBounds(
        srch.ModelClass.CONSTRAINED_NEIGHBORHOOD, args.max_worlds, (0, 1)
    )
    outcome = srch.run_k_experiment(bounds)
    return _search_report(args, srch.K_FORMULA, bounds, outcome)


# ---------------------------------------------------------------------------
# Parser wiring


# Each subcommand's command, ``--pretty`` view and help, in ``plaus -h`` order.
_COMMANDS = {
    "fmt": (cmd_fmt, _fmt_view, "parse a formula and print its canonical rendering"),
    "eval": (cmd_eval, _eval_view, "evaluate a formula at a world of a model file"),
    "valid": (cmd_valid, _search_view, "bounded validity check with countermodel search"),
    "consequence": (cmd_consequence, _search_view, "bounded global-consequence check"),
    "checkproof": (cmd_checkproof, _checkproof_view, "check a proof file"),
    "translate": (cmd_translate, _translate_view, "translate a formula or proof between nabla and box"),
    "supplement": (cmd_supplement, _supplement_view, "close a neighborhood model under supersets"),
    "algebra": (cmd_algebra, _algebra_view, "check a plausibility algebra file"),
    "experiment-k": (cmd_experiment_k, _search_view, "exhaustive K-schema experiment on the constrained class"),
}


def _declare(name: str, p: argparse.ArgumentParser) -> None:
    """Declare subcommand ``name``'s arguments and defaults on ``p``: its
    own parser and its parser under ``build_parser()`` both come from here."""
    func, view, _ = _COMMANDS[name]
    p.set_defaults(func=func, view=view, out=None)
    p.add_argument("--pretty", action="store_true", help="human-oriented output")
    if name == "fmt":
        p.add_argument("formula")
    elif name == "eval":
        p.add_argument("model")
        p.add_argument("world", type=int)
        p.add_argument("formula")
        p.add_argument("--class", dest="model_class", choices=sorted(_EVAL_CLASSES))
    elif name in ("valid", "consequence"):
        p.add_argument("formula")
        p.add_argument("--class", dest="model_class", required=True,
                       choices=sorted(c.value for c in srch.ModelClass))
        p.add_argument("--max-worlds", type=int, required=True)
        p.add_argument("--atoms", help="comma-separated atom indices (default: atoms of the input)")
        p.add_argument("--out", help="also write the report to a file")
        if name == "consequence":
            p.add_argument("--gamma", action="append", help="premise formula (repeatable)")
        else:
            p.add_argument("--sample", type=int, help="seeded random sampling instead of exhaustion")
            p.add_argument("--seed", type=int, help="RNG seed, required with --sample")
    elif name == "checkproof":
        p.add_argument("proof")
        p.add_argument("--s5-re", action="store_true", help="admit RE as primitive in S5")
    elif name == "translate":
        p.add_argument("target", help="formula text, or path to a proof file")
        p.add_argument("--to", required=True, choices=("nabla", "box"))
    elif name == "supplement":
        p.add_argument("model")
        p.add_argument("--out", help="write the supplemented model to a file")
    elif name == "algebra":
        p.add_argument("algebra")
        p.add_argument("--formula", help="also test algebraic validity of a formula")
    else:  # experiment-k
        p.add_argument("--max-worlds", type=int, default=3)
        p.add_argument("--out", help="also write the report to a file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``plaus`` parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="plaus",
        description="Workbench for the propositional logic of the plausible.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in _COMMANDS.items():
        _declare(name, sub.add_parser(name, help=help_text))
    return parser


@functools.cache
def _subcommand_parser(name: str) -> argparse.ArgumentParser:
    """Subcommand ``name``'s own parser, built on the first call and shared
    after it.  It parses, prints and fails as its parser under
    ``build_parser()`` does, which ``add_parser`` names ``plaus <name>``."""
    parser = argparse.ArgumentParser(prog=f"plaus {name}")
    _declare(name, parser)
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, building only the parser it needs.

    The top-level parser hands every argument after a subcommand's name to
    that subcommand's parser.  So an argv that starts with a subcommand's
    name goes to that subcommand's own parser, and the nine-subcommand
    tree is never built.  Any other argv, or one that leaves arguments over,
    goes through the top-level parser, so every usage, help and error
    message comes from the parser that prints it for
    ``build_parser().parse_args(argv)``.
    """
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:
        args, rest = _subcommand_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        code, document = args.func(args)
        sys.stdout.write("\n".join(args.view(document)) + "\n" if args.pretty else canonical_json(document))
        return code
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback  # only a defect gets here; keeps it out of start-up

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
