"""Command-line front end.

Machine-readable JSON goes to stdout (``--pretty`` switches to a human
rendering); diagnostics go to stderr.  Exit status: 0 for success, 1 for a
semantically meaningful negative (countermodel found, proof rejected,
axiom violated, formula false), 2 for usage or input errors, 3 for an
internal error (a search result or derivation that failed its check, or
any other uncaught exception: a defect must never read as a negative answer).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import algebra as alg
from . import search as srch
from .derivations import TranslationError, translate_proof
from .proofs import check_proof, proof_from_data, proof_to_data
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
from .syntax import Dialect, atoms_of, dialect_of, parse, render, translate

# Every input-error class of the package is a ValueError, and so is a JSON
# decoding error; OSError covers unreadable files.
_INPUT_ERRORS = (ValueError, OSError)


def canonical_json(data) -> str:
    return json.dumps(data, indent=2) + "\n"


def _emit(data, pretty_lines=None, pretty=False) -> None:
    if pretty and pretty_lines is not None:
        for line in pretty_lines:
            print(line)
    else:
        sys.stdout.write(canonical_json(data))


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
# Subcommands


def cmd_fmt(args) -> int:
    f = parse(args.formula)
    dialect = dialect_of(f)
    _emit(
        {"formula": render(f), "dialect": dialect.value},
        pretty_lines=[render(f), f"dialect: {dialect.value}"],
        pretty=args.pretty,
    )
    return 0


_EVAL_CLASSES = {
    "nm": NeighborhoodModel,
    "km": KripkeModel,
    "um": UniversalModel,
}


def cmd_eval(args) -> int:
    model = model_from_data(_load_json(args.model))
    if args.model_class and not isinstance(model, _EVAL_CLASSES[args.model_class]):
        raise ModelFormatError(
            f"model file is a {type(model).__name__}, not the requested --class {args.model_class}"
        )
    f = parse(args.formula)
    value = eval_model(model, args.world, f)
    _emit(
        {"formula": render(f), "world": args.world, "value": value},
        pretty_lines=[f"{render(f)} at world {args.world}: {'true' if value else 'false'}"],
        pretty=args.pretty,
    )
    return 0 if value else 1


_SEARCH_CLASSES = {c.value: c for c in srch.ModelClass}


def _parse_atoms(text: str | None, fallback) -> tuple[int, ...]:
    if text is None:
        return tuple(sorted(fallback))
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


def _outcome_exit(args, f, bounds, outcome, extra: dict | None = None) -> int:
    report = srch.experiment_report(f, bounds, outcome)
    if extra:
        report = {**extra, **report}
    lines = [f"{report['verdict']} after {report['models_checked']} models"]
    if outcome.countermodel is not None:
        lines.append(f"countermodel (world {outcome.world}):")
        lines.append(canonical_json(outcome.countermodel.to_data()).rstrip())
    _emit(report, pretty_lines=lines, pretty=args.pretty)
    if args.out:
        Path(args.out).write_text(canonical_json(report), encoding="utf-8")
    return 1 if outcome.verdict is srch.Verdict.COUNTERMODEL_FOUND else 0


def _bounds_from_args(args, atom_fallback) -> srch.SearchBounds:
    return srch.SearchBounds(
        _SEARCH_CLASSES[args.model_class],
        args.max_worlds,
        _parse_atoms(args.atoms, atom_fallback),
    )


def cmd_valid(args) -> int:
    f = parse(args.formula)
    bounds = _bounds_from_args(args, atoms_of(f))
    if args.sample is not None:
        if args.seed is None:
            raise ValueError("--sample requires an explicit --seed")
        outcome = srch.sample_countermodel(f, bounds, args.sample, args.seed)
    else:
        outcome = srch.find_countermodel(f, bounds)
    return _outcome_exit(args, f, bounds, outcome)


def cmd_consequence(args) -> int:
    gamma = [parse(text) for text in args.gamma or []]
    f = parse(args.formula)
    atom_fallback = set(atoms_of(f)).union(*(atoms_of(g) for g in gamma)) if gamma else atoms_of(f)
    bounds = _bounds_from_args(args, atom_fallback)
    outcome = srch.check_global_consequence(gamma, f, bounds)
    return _outcome_exit(args, f, bounds, outcome, extra={"gamma": [render(g) for g in gamma]})


def cmd_checkproof(args) -> int:
    proof = proof_from_data(_load_json(args.proof))
    result = check_proof(proof, s5_re=args.s5_re)
    data = result.to_data()
    data["system"] = proof.system.value
    data["conclusion"] = render(proof.conclusion)
    if result.accepted:
        lines = [f"accepted: {render(proof.conclusion)} [{proof.system.value}]"]
    else:
        lines = [f"rejected at line {result.failing_line}: {result.reason}"]
    _emit(data, pretty_lines=lines, pretty=args.pretty)
    return 0 if result.accepted else 1


def cmd_translate(args) -> int:
    target = Dialect.NABLA if args.to == "nabla" else Dialect.BOX
    source = Dialect.BOX if target is Dialect.NABLA else Dialect.NABLA
    try:
        is_file = Path(args.target).is_file()
    except OSError:  # e.g. formula text longer than a file name may be
        is_file = False
    if is_file:
        proof = proof_from_data(_load_json(args.target))
        translated = translate_proof(proof)
        if (translated.system.value == "LNabla") != (args.to == "nabla"):
            raise TranslationError(f"proof translates away from --to {args.to}")
        _emit(
            proof_to_data(translated),
            pretty_lines=[f"{translated.system.value} proof of {render(translated.conclusion)}"],
            pretty=args.pretty,
        )
        return 0
    f = parse(args.target)
    out = translate(f, source, target)
    _emit({"formula": render(out)}, pretty_lines=[render(out)], pretty=args.pretty)
    return 0


def cmd_supplement(args) -> int:
    model = model_from_data(_load_json(args.model))
    if not isinstance(model, NeighborhoodModel):
        raise ModelFormatError("supplementation applies to neighborhood models")
    before = nm_check_conditions(model)
    supplemented = supplement(model)
    after = nm_check_conditions(supplemented)
    data = {
        "model": supplemented.to_data(),
        "conditions_before": before.to_data(),
        "conditions_after": after.to_data(),
    }
    if args.out:
        Path(args.out).write_text(canonical_json(supplemented.to_data()), encoding="utf-8")
    _emit(
        data,
        pretty_lines=[
            "conditions before: "
            + ", ".join(f"{k}={v}" for k, v in before.to_data().items() if k != "failures"),
            "conditions after:  "
            + ", ".join(f"{k}={v}" for k, v in after.to_data().items() if k != "failures"),
        ],
        pretty=args.pretty,
    )
    return 0


def cmd_algebra(args) -> int:
    a = alg.FinitePlausibilityAlgebra.from_data(_load_json(args.algebra))
    report = alg.check_algebra(a)
    data: dict = {"axioms": report.to_data()}
    negative = not report.valid
    lines = ["axioms: " + ", ".join(f"{k}={v}" for k, v in report.to_data().items() if k != "failures")]
    if report.valid:
        plausibles = sorted(alg.plausible_elements(a))
        data["plausible"] = plausibles
        data["derived_laws"] = alg.check_derived_laws(a).to_data()
        lines.append(f"plausible elements: {plausibles}")
        if args.formula:
            f = parse(args.formula)
            validates = alg.alg_validates(a, f)
            data["formula"] = render(f)
            data["validates"] = validates
            negative = negative or not validates
            lines.append(f"validates {render(f)}: {validates}")
    _emit(data, pretty_lines=lines, pretty=args.pretty)
    return 1 if negative else 0


def cmd_experiment_k(args) -> int:
    bounds = srch.SearchBounds(
        srch.ModelClass.CONSTRAINED_NEIGHBORHOOD, args.max_worlds, (0, 1)
    )
    outcome = srch.run_k_experiment(bounds)
    return _outcome_exit(args, srch.K_FORMULA, bounds, outcome)


# ---------------------------------------------------------------------------
# Parser wiring


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``plaus`` parser, built on the first call and shared after it.

    Every ``main`` call in a process parses with this one parser, so the
    subcommands hold the ``cmd_*`` functions as they were at that first
    call; a ``cmd_*`` replaced later is not seen.
    """
    parser = argparse.ArgumentParser(
        prog="plaus",
        description="Workbench for the propositional logic of the plausible.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, out=None)
        p.add_argument("--pretty", action="store_true", help="human-oriented output")
        return p

    p = add("fmt", cmd_fmt, "parse a formula and print its canonical rendering")
    p.add_argument("formula")

    p = add("eval", cmd_eval, "evaluate a formula at a world of a model file")
    p.add_argument("model")
    p.add_argument("world", type=int)
    p.add_argument("formula")
    p.add_argument("--class", dest="model_class", choices=sorted(_EVAL_CLASSES))

    for name, func, help_text in (
        ("valid", cmd_valid, "bounded validity check with countermodel search"),
        ("consequence", cmd_consequence, "bounded global-consequence check"),
    ):
        p = add(name, func, help_text)
        p.add_argument("formula")
        p.add_argument("--class", dest="model_class", required=True, choices=sorted(_SEARCH_CLASSES))
        p.add_argument("--max-worlds", type=int, required=True)
        p.add_argument("--atoms", help="comma-separated atom indices (default: atoms of the input)")
        p.add_argument("--out", help="also write the report to a file")
        if name == "consequence":
            p.add_argument("--gamma", action="append", help="premise formula (repeatable)")
        else:
            p.add_argument("--sample", type=int, help="seeded random sampling instead of exhaustion")
            p.add_argument("--seed", type=int, help="RNG seed, required with --sample")

    p = add("checkproof", cmd_checkproof, "check a proof file")
    p.add_argument("proof")
    p.add_argument("--s5-re", action="store_true", help="admit RE as primitive in S5")

    p = add("translate", cmd_translate, "translate a formula or proof between nabla and box")
    p.add_argument("target", help="formula text, or path to a proof file")
    p.add_argument("--to", required=True, choices=("nabla", "box"))

    p = add("supplement", cmd_supplement, "close a neighborhood model under supersets")
    p.add_argument("model")
    p.add_argument("--out", help="write the supplemented model to a file")

    p = add("algebra", cmd_algebra, "check a plausibility algebra file")
    p.add_argument("algebra")
    p.add_argument("--formula", help="also test algebraic validity of a formula")

    p = add("experiment-k", cmd_experiment_k, "exhaustive K-schema experiment on the constrained class")
    p.add_argument("--max-worlds", type=int, default=3)
    p.add_argument("--out", help="also write the report to a file")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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
