"""Record the golden outputs of every ``plaus`` subcommand.

Writes ``tests/fixtures/cli_outputs.json``: one ``[argv, exit code, stdout,
stderr]`` row per command in ``CASES``, each run as written and again with
``--pretty``.  The cases cover every subcommand: ``valid`` refuted and
exhausted on each search class, ``--sample`` refuted and inconclusive,
``consequence`` with and without ``--gamma``, accepted and rejected proofs,
formula and proof translations in both directions, the algebra checks, and
inputs that exit 2; then an algebra failing every axiom, a model failing
every condition, and ``--sample`` refuting on the universal and both
Kripke classes.
``test_cli.TestGoldenOutputs`` requires the CLI to reproduce every row byte
for byte.  Run from the repository root:

    PYTHONPATH=src python3 tests/record_cli.py

Rerunning it on an unchanged CLI rewrites the file byte for byte.
"""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from plausible import cli

OUT = Path(__file__).parent / "fixtures" / "cli_outputs.json"
MODELS = "tests/fixtures/models/"
PROOFS = "tests/fixtures/proofs/"
ALGEBRAS = "tests/fixtures/algebras/"

# Input files that no fixture holds, written to a temporary directory; an
# argv names one as INPUT/<name>.
INPUTS = {
    "repeated_key.json": '{"worlds": 1, "worlds": 2, "V": {"p0": [1]}}',
    # fails a1-a4
    "failing_algebra.json": '{"base": 2, "sharp": [0, 1, 1, 0]}',
    # fails (c), (h), (t) and (n)
    "failing_conditions.json": '{"worlds": 3, "S": {"0": [[0]], "1": [], "2": [[1, 2], [0]]}}',
}


def _search(command: str, formula: str, model_class: str, worlds: int, *extra: str) -> list[str]:
    return [command, formula, "--class", model_class, "--max-worlds", str(worlds), *extra]


# File arguments are relative to the repository root.
CASES = [
    ["fmt", "p0->[]p0"],
    ["fmt", "nabla(p0|~p0)"],
    ["fmt", "p0 ->"],
    ["eval", MODELS + "nm_counter.json", "0", "p0 -> []p0"],
    ["eval", MODELS + "nm_counter.json", "1", "true"],
    ["eval", MODELS + "km_full.json", "1", "[]p0 -> p0", "--class", "km"],
    ["eval", "INPUT/repeated_key.json", "1", "p0"],
    _search("valid", "[]p0 -> p0", "constrained", 2),
    _search("valid", "p0 -> []p0", "constrained", 2),
    _search("valid", "p0 | ~p0", "raw", 2),
    _search("valid", "[]p0 -> p0", "raw", 2),
    _search("valid", "<>p0 -> []<>p0", "kripke-equiv", 3),
    _search("valid", "p0 -> []p0", "kripke-equiv", 3),
    _search("valid", "[](p0 -> p1) -> []p0 -> []p1", "kripke-all", 2),
    _search("valid", "[]p0 -> p0", "kripke-all", 2),
    _search("valid", "<>p0 -> []<>p0", "universal", 3),
    _search("valid", "p0 -> []p0", "universal", 3, "--atoms", "0,1"),
    _search("valid", "p0", "raw", 2, "--sample", "5", "--seed", "1"),
    _search("valid", "[]p0 -> p0", "constrained", 2, "--sample", "3", "--seed", "1"),
    _search("valid", "p0", "raw", 2, "--sample", "0", "--seed", "1"),
    _search("consequence", "[]p0", "constrained", 2, "--gamma", "p0"),
    _search("consequence", "p0", "constrained", 2, "--gamma", "p0 | p1", "--gamma", "[]p1"),
    _search("consequence", "[]p0", "constrained", 2),
    _search("consequence", "[]true", "constrained", 2),
    ["checkproof", PROOFS + "lpbox_t.json"],
    ["checkproof", PROOFS + "lnabla_ax3.json"],
    ["checkproof", PROOFS + "s5_mp_chain.json"],
    ["checkproof", PROOFS + "broken_rnabla_premise.json"],
    ["checkproof", PROOFS + "broken_mp_shape.json"],
    ["translate", "nabla p0 & nabla p1 -> nabla(p0 & p1)", "--to", "box"],
    ["translate", "[]p0 -> p0", "--to", "nabla"],
    ["translate", PROOFS + "lnabla_ax3.json", "--to", "box"],
    ["translate", PROOFS + "lpbox_h.json", "--to", "nabla"],
    ["translate", PROOFS + "lnabla_ax3.json", "--to", "nabla"],
    ["supplement", MODELS + "nm_supplement.json"],
    ["algebra", ALGEBRAS + "identity_k2.json"],
    ["algebra", ALGEBRAS + "zero_k1.json"],
    ["algebra", ALGEBRAS + "zero_k1.json", "--formula", "nabla p0"],
    ["algebra", ALGEBRAS + "zero_k1.json", "--formula", "p0 -> ("],
    ["algebra", ALGEBRAS + "zero_k1.json", "--formula", "[]p0"],
    ["algebra", ALGEBRAS + "identity_k2.json", "--formula", "nabla p0 -> p0"],
    ["algebra", ALGEBRAS + "identity_k2.json", "--formula", "nabla p0"],
    ["experiment-k", "--max-worlds", "2"],
    ["algebra", "INPUT/failing_algebra.json"],
    ["supplement", "INPUT/failing_conditions.json"],
    _search("valid", "p0 -> []p0", "universal", 3, "--sample", "10", "--seed", "2"),
    _search("valid", "[]p0 -> p0", "kripke-all", 3, "--sample", "10", "--seed", "3"),
    _search("valid", "p0 -> []p0", "kripke-equiv", 4, "--sample", "10", "--seed", "4"),
]


def run(argv: list[str], workdir: Path) -> list:
    """``[argv, exit code, stdout, stderr]`` of one ``main`` call, with
    INPUT/ in ``argv`` standing for ``workdir``."""
    real = [str(workdir / a[len("INPUT/"):]) if a.startswith("INPUT/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(real)
    return [argv, code, out.getvalue(), err.getvalue()]


def table() -> list[list]:
    """Every case's row, each case first as written, then with ``--pretty``."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in INPUTS.items():
            (Path(tmp) / name).write_text(text, encoding="utf-8")
        return [run(argv + pretty, Path(tmp)) for argv in CASES for pretty in ([], ["--pretty"])]


def main() -> None:
    OUT.write_text("[\n" + ",\n".join(json.dumps(row) for row in table()) + "\n]\n", encoding="utf-8")


if __name__ == "__main__":
    main()
