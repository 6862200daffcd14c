"""Record the golden tables of formula and schema syntax errors.

Writes ``tests/fixtures/syntax_errors.json``: seeded malformed formula
texts, one ``[text, str(error), error.position]`` row each, as
``syntax.parse`` reports them; and ``tests/fixtures/schema_errors.json``,
the same for seeded malformed schema texts as ``syntax.parse_schema``
reports them, where the words ``pN`` are errors and ``A``-``Z`` are the
leaves.  ``test_syntax.TestGoldenErrors`` requires the parser to reproduce
both tables exactly.  Run from the repository root:

    PYTHONPATH=src python3 tests/record_syntax_errors.py

Rerunning it on an unchanged parser rewrites the file byte for byte.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from plausible.syntax import MAX_DEPTH, MAX_NESTING, FormulaSyntaxError, parse, parse_schema

SEED = 20261018
OUT = Path(__file__).parent / "fixtures" / "syntax_errors.json"
SCHEMA_SEED = 20261021
SCHEMA_OUT = Path(__file__).parent / "fixtures" / "schema_errors.json"

GOOD = ["p0", "p1", "p12", "p007", "true", "false", "~", "[]", "<>", "nabla",
        "&", "|", "->", "<->", "(", ")"]
BAD = ["$", "#", "[", "]", "<", ">", "-", "=", "!", "0", "7", "_", ".", ",", "é", "λ",
       "\x0b", "\f", "\xa0", "q", "p", "A", "P0", "pA", "nablap0", "True", "and",
       "<-", "=>", "[ ]", "< >", "- >", "p0p1", "x1"]
SEPARATORS = ["", "", " ", " ", "  ", "\t", "\n", "\r\n"]
LEAVES = ["p0", "p1", "p2", "p10", "true", "false"]
METAVARIABLES = [chr(c) for c in range(ord("A"), ord("Z") + 1)]
SCHEMA_LEAVES = ["A", "B", "C", "Z", "true", "false"]


def token_soup(rng: random.Random, good: list[str] = GOOD) -> str:
    pool = good if rng.random() < 0.5 else good + BAD
    pieces = rng.choices(pool, k=rng.randint(1, 12))
    return "".join(p + rng.choice(SEPARATORS) for p in pieces)


def formula(rng: random.Random, size: int, leaves: list[str] = LEAVES) -> str:
    if size <= 1:
        return rng.choice(leaves)
    if rng.random() < 0.3:
        return rng.choice(["~", "[]", "<>", "nabla ", "~ "]) + formula(rng, size - 1, leaves)
    left = rng.randint(1, size - 1)
    op = rng.choice(["&", "|", "->", "<->"])
    text = f"{formula(rng, left, leaves)} {op} {formula(rng, size - left, leaves)}"
    return f"({text})" if rng.random() < 0.4 else text


def mutated(rng: random.Random, leaves: list[str] = LEAVES, good: list[str] = GOOD) -> str:
    text = formula(rng, rng.randint(1, 8), leaves)
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        move = rng.randrange(4)
        if move == 0 and text:
            text = text[:i] + text[i + 1:]
        elif move == 1:
            text = text[:i] + rng.choice(good + BAD) + text[i:]
        elif move == 2 and text:
            text = text[:i] + rng.choice(BAD) + text[i + 1:]
        else:
            text = text[:i]
    return text


def nesting_cases() -> list[str]:
    cases = []
    for opener, closer in [("~", ""), ("nabla ", ""), ("[]", ""), ("<>", ""), ("(", ")")]:
        for levels in (MAX_NESTING, MAX_NESTING + 1):
            body = opener * levels + "p1" + closer * levels
            cases += [body + " &", body + ")", body + " $", "$ " + body, body + " q"]
            cases.append(opener * levels + "(p1" + closer * levels)
    for op in ("->", "<->", "&", "|"):
        for links in (MAX_DEPTH, MAX_DEPTH + 1):
            chain = f"p0 {op} " * links + "p1"
            cases += [chain + " )", chain + " #", chain[:-2]]
    for parens in (MAX_NESTING - 1, MAX_NESTING):
        arrows = MAX_DEPTH - parens
        for extra in (0, 1):
            body = "p0 -> " * (arrows + extra) + "p1"
            cases += ["(" * parens + body + ")" * (parens - 1),
                      "(" * parens + body + ")" * parens + " p2"]
    return cases


def schema_text(text: str) -> str:
    """``text`` with its atoms ``p0``, ``p1`` and ``p2`` as metavariables."""
    return text.replace("p0", "A").replace("p1", "B").replace("p2", "C")


def error_of(text: str, read=parse) -> list | None:
    try:
        read(text)
    except FormulaSyntaxError as exc:
        return [text, str(exc), exc.position]
    return None


def write(path: Path, table: list[list]) -> None:
    path.write_text("[\n" + ",\n".join(json.dumps(e, separators=(",", ":")) for e in table) + "\n]\n")


def main() -> None:
    rng = random.Random(SEED)
    table = [e for e in map(error_of, nesting_cases()) if e is not None]
    while len(table) < 2100:
        text = token_soup(rng) if rng.random() < 0.5 else mutated(rng)
        entry = error_of(text)
        if entry is not None:
            table.append(entry)
    write(OUT, table)

    rng = random.Random(SCHEMA_SEED)
    # the schema soup's pool: the formula tokens, whose words pN a schema
    # refuses, three times over, every third entry a metavariable instead
    good = [rng.choice(METAVARIABLES) if i % 3 == 0 else g for i, g in enumerate(GOOD * 3)]
    table = [e for e in (error_of(schema_text(t), parse_schema) for t in nesting_cases()) if e is not None]
    while len(table) < 1000:
        if rng.random() < 0.5:
            text = token_soup(rng, good)
        else:
            text = mutated(rng, SCHEMA_LEAVES, good)
        entry = error_of(text, parse_schema)
        if entry is not None:
            table.append(entry)
    write(SCHEMA_OUT, table)


if __name__ == "__main__":
    main()
