"""Record the golden table of formula syntax errors.

Writes ``tests/fixtures/syntax_errors.json``: seeded malformed formula
texts, one ``[text, str(error), error.position]`` row each, as
``syntax.parse`` reports them.  ``test_syntax.TestGoldenErrors`` requires the parser to reproduce
the table exactly.  Run from the repository root:

    PYTHONPATH=src python3 tests/record_syntax_errors.py

Rerunning it on an unchanged parser rewrites the file byte for byte.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from plausible.syntax import MAX_DEPTH, MAX_NESTING, FormulaSyntaxError, parse

SEED = 20261018
OUT = Path(__file__).parent / "fixtures" / "syntax_errors.json"

GOOD = ["p0", "p1", "p12", "p007", "true", "false", "~", "[]", "<>", "nabla",
        "&", "|", "->", "<->", "(", ")"]
BAD = ["$", "#", "[", "]", "<", ">", "-", "=", "!", "0", "7", "_", ".", ",", "é", "λ",
       "\x0b", "\f", "\xa0", "q", "p", "A", "P0", "pA", "nablap0", "True", "and",
       "<-", "=>", "[ ]", "< >", "- >", "p0p1", "x1"]
SEPARATORS = ["", "", " ", " ", "  ", "\t", "\n", "\r\n"]


def token_soup(rng: random.Random) -> str:
    pool = GOOD if rng.random() < 0.5 else GOOD + BAD
    pieces = rng.choices(pool, k=rng.randint(1, 12))
    return "".join(p + rng.choice(SEPARATORS) for p in pieces)


def formula(rng: random.Random, size: int) -> str:
    if size <= 1:
        return rng.choice(["p0", "p1", "p2", "p10", "true", "false"])
    if rng.random() < 0.3:
        return rng.choice(["~", "[]", "<>", "nabla ", "~ "]) + formula(rng, size - 1)
    left = rng.randint(1, size - 1)
    op = rng.choice(["&", "|", "->", "<->"])
    text = f"{formula(rng, left)} {op} {formula(rng, size - left)}"
    return f"({text})" if rng.random() < 0.4 else text


def mutated(rng: random.Random) -> str:
    text = formula(rng, rng.randint(1, 8))
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        move = rng.randrange(4)
        if move == 0 and text:
            text = text[:i] + text[i + 1:]
        elif move == 1:
            text = text[:i] + rng.choice(GOOD + BAD) + text[i:]
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


def error_of(text: str) -> list | None:
    try:
        parse(text)
    except FormulaSyntaxError as exc:
        return [text, str(exc), exc.position]
    return None


def main() -> None:
    rng = random.Random(SEED)
    table = [e for e in map(error_of, nesting_cases()) if e is not None]
    while len(table) < 2100:
        text = token_soup(rng) if rng.random() < 0.5 else mutated(rng)
        entry = error_of(text)
        if entry is not None:
            table.append(entry)
    OUT.write_text("[\n" + ",\n".join(json.dumps(e, separators=(",", ":")) for e in table) + "\n]\n")


if __name__ == "__main__":
    main()
