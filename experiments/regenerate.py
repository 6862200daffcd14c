#!/usr/bin/env python3
"""Regenerate the committed experiment reports.

Run from the repository root:

    python experiments/regenerate.py

Both reports are deterministic; reruns must be byte-identical, which the
acceptance suite checks against the committed files.
"""

from pathlib import Path

from plausible.algebra import agreement_report
from plausible.cli import canonical_json
from plausible.search import (
    K_FORMULA,
    ModelClass,
    SearchBounds,
    experiment_report,
    run_k_experiment,
)
from plausible.syntax import parse

HERE = Path(__file__).parent

AGREEMENT_FORMULAS = [
    # nabla-system axioms and derived theorems
    "nabla p0 & nabla p1 -> nabla(p0 & p1)",
    "nabla(p0 | ~p0)",
    "nabla p0 -> p0",
    "~nabla false",
    "nabla p0 -> nabla(p0 | p1)",
    "p0 -> ~nabla ~p0",
    "nabla p0 -> ~nabla ~p0",
    "nabla ~p0 -> ~nabla p0",
    "nabla p0 | nabla p1 -> nabla(p0 | p1)",
    "nabla true",
    # non-theorems
    "p0 -> nabla p0",
    "nabla(p0 | p1) -> nabla p0 | nabla p1",
    "~nabla p0",
    # the K shape in nabla dress: underivable per the subnormality claim,
    # but finite constrained models and small algebras may still satisfy it
    "nabla(p0 -> p1) -> nabla p0 -> nabla p1",
]


def write(path: Path, data) -> None:
    path.write_text(canonical_json(data), encoding="utf-8")
    print(f"wrote {path}")


def main() -> None:
    bounds = SearchBounds(ModelClass.CONSTRAINED_NEIGHBORHOOD, 3, (0, 1))
    outcome = run_k_experiment(bounds)
    write(HERE / "k_experiment.json", experiment_report(K_FORMULA, bounds, outcome))

    report = agreement_report([parse(text) for text in AGREEMENT_FORMULAS])
    write(HERE / "algebra_agreement.json", report)


if __name__ == "__main__":
    main()
