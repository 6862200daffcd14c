"""Record the golden outputs of ``plaus translate`` and ``plaus checkproof``.

Writes ``tests/fixtures/translations.json``: one case per LNabla or LPBox
proof, each with the proof data it ran on and, for every command run on
it, ``[argv, exit code, stdout, stderr]``.  The proofs are every LNabla and
LPBox fixture in ``tests/fixtures/proofs`` and seeded proofs that
``derivations.box_k``, ``nabla_top`` and ``nabla_h`` build over random
formulas, each also with the formula of one line replaced, which the
checker mostly rejects, then the named proofs of ``FOREIGN``, each
rejected for an operator outside its dialect on a line of a different rule,
and last ``REDERIVED``, whose translation derives its conclusion before
its last line.
``test_proofs.TestGoldenOutputs`` requires the CLI to reproduce every
output byte for byte.  Run from the repository root:

    PYTHONPATH=src python3 tests/record_translations.py

Rerunning it on unchanged proof code rewrites the file byte for byte.
"""

from __future__ import annotations

import io
import json
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from plausible import cli
from plausible.derivations import ProofBuilder, box_k, nabla_h, nabla_top
from plausible.proofs import SystemId, proof_to_data
from plausible.syntax import BOTTOM, TOP, And, Atom, Box, Iff, Implies, Nabla, Not, Or

SEED = 20261018
SEEDED_PROOFS = 40
HERE = Path(__file__).parent
PROOFS = HERE / "fixtures" / "proofs"
OUT = HERE / "fixtures" / "translations.json"


def _line(formula: str, rule: str, **extra) -> dict:
    return {"formula": formula, "rule": rule, **extra}


_TRUE = _line("true", "axiom", schema="PL13")

# Proofs with one operator outside the system's dialect, each in a different
# place: inside an axiom binding, on a rule line whose shape fails, on a
# premise line with a foreign premise, and on a line whose rule the system
# lacks.  The checker rejects each at its last line with the dialect message.
FOREIGN: list[tuple[str, dict]] = [
    (f"foreign_{name}", {"system": system, "premises": premises, "lines": lines,
                         "conclusion": lines[-1]["formula"]})
    for name, system, premises, lines in (
        ("axiom_binding", "LPBox", [], [_TRUE, _line("nabla p0 -> p1 -> nabla p0", "axiom", schema="PL1")]),
        ("axiom_schema", "LPBox", [], [_TRUE, _line("nabla p0 -> p0", "axiom", schema="Ax3")]),
        ("mp_shape", "LPBox", ["p0", "p0 -> p1"],
         [_line("p0", "premise"), _line("p0 -> p1", "premise"), _line("nabla p1", "mp", refs=[1, 2])]),
        ("re_shape", "LPBox", [], [_TRUE, _line("nabla p0 <-> nabla p0", "re", refs=[1])]),
        ("rnabla_shape", "LNabla", [], [_TRUE, _line("[]p0 -> []p0", "rnabla", refs=[1])]),
        ("premise", "LPBox", ["p0", "nabla p0"], [_line("p0", "premise"), _line("nabla p0", "premise")]),
        ("rule_outside_system", "LNabla", [], [_TRUE, _line("[]true <-> []true", "re", refs=[1])]),
    )
]


# An LNabla proof that repeats its first line as its conclusion.  Its
# translation finds that line already derived, before the last line, so
# ``ProofBuilder.build`` re-derives it at the end by a trivial modus ponens.
REDERIVED = ("rederived_conclusion", {
    "system": "LNabla", "premises": [], "conclusion": "nabla(p0 | ~p0)",
    "lines": [_line("nabla(p0 | ~p0)", "axiom", schema="Ax2"), _line("nabla p1 -> p1", "axiom", schema="Ax3"),
              _line("nabla(p0 | ~p0)", "axiom", schema="Ax2")],
})


def formula(rng: random.Random, modal: type, size: int):
    """A random formula of about ``size`` nodes over p0-p2 that uses
    ``modal`` as its only modal operator."""
    if size <= 1:
        return rng.choice([Atom(0), Atom(1), Atom(2), TOP, BOTTOM])
    if rng.random() < 0.35:
        return rng.choice([Not, modal, modal])(formula(rng, modal, size - 1))
    left = rng.randint(1, size - 1)
    op = rng.choice([And, Or, Implies, Iff])
    return op(formula(rng, modal, left), formula(rng, modal, size - left))


def seeded_proof(rng: random.Random, k: int) -> dict:
    """Proof data of seeded proof ``k``: even ``k`` an LPBox ``box_k``,
    odd ``k`` an LNabla chain of ``nabla_top`` and one or two ``nabla_h``."""
    if k % 2 == 0:
        b = ProofBuilder(SystemId.LPBOX)
        last = box_k(b, formula(rng, Box, rng.randint(1, 3)), formula(rng, Box, rng.randint(1, 3)))
    else:
        b = ProofBuilder(SystemId.LNABLA)
        last = nabla_top(b)
        for _ in range(rng.randint(1, 2)):
            last = nabla_h(b, formula(rng, Nabla, rng.randint(1, 3)), formula(rng, Nabla, rng.randint(1, 3)))
    return proof_to_data(b.build(last))


def broken(rng: random.Random, data: dict) -> dict:
    """``data`` with the formula of one line before the last replaced by
    the formula of another line, or by that formula with its modal operator
    swapped for the other dialect's."""
    lines = [dict(line) for line in data["lines"]]
    i = rng.randrange(len(lines) - 1)
    text = rng.choice(lines)["formula"]
    if rng.random() < 0.5:
        text = text.replace("[]", "nabla ") if "[]" in text else text.replace("nabla", "[]")
    lines[i]["formula"] = text
    return dict(data, lines=lines)


def run(argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return [argv, code, out.getvalue(), err.getvalue()]


def outputs(proof: dict, workdir: Path) -> list[list]:
    """Every command's result on ``proof``: ``checkproof``, then for an
    accepted proof ``translate`` and ``checkproof`` of the translation."""
    path = workdir / "proof.json"
    path.write_text(json.dumps(proof), encoding="utf-8")
    runs = [run(["checkproof", str(path)])]
    if runs[0][1] == 0:
        to = "box" if proof["system"] == SystemId.LNABLA.value else "nabla"
        runs.append(run(["translate", str(path), "--to", to]))
        if runs[-1][1] == 0:
            path.write_text(runs[-1][2], encoding="utf-8")
            runs.append(run(["checkproof", str(path)]))
    for entry in runs:  # the temporary path is not part of the output
        entry[0] = [a if a != str(path) else "PROOF" for a in entry[0]]
    return runs


def proofs() -> list[tuple[str, dict]]:
    """Every proof of the table, named, in table order."""
    named = []
    for path in sorted(PROOFS.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if data["system"] in (SystemId.LNABLA.value, SystemId.LPBOX.value):
            named.append((path.name, data))
    rng = random.Random(SEED)
    for k in range(SEEDED_PROOFS):
        data = seeded_proof(rng, k)
        named += [(f"seeded_{k}", data), (f"seeded_{k}_broken", broken(rng, data))]
    return named + FOREIGN + [REDERIVED]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        table = [{"name": name, "proof": data, "runs": outputs(data, Path(tmp))} for name, data in proofs()]
    OUT.write_text("[\n" + ",\n".join(json.dumps(c, separators=(",", ":")) for c in table) + "\n]\n",
                   encoding="utf-8")


if __name__ == "__main__":
    main()
