"""Mutation harness for the parser and the search kernel's filtration
cut: each mutant must make its tests fail.

A mutant replaces one exact text of a file under ``src/`` with another, in
a temporary copy of the checkout, and runs its pytest selection there; it
is killed when the selection fails.  A mutant whose anchor text is gone, or
is no longer unique, fails the harness, and so does a survivor.  Before
any mutant, every selection must pass on the unmutated copy.  Run from the
repository root:

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # the named ones

It prints one line a mutant and the mutation score, and exits 1 unless
every mutant is killed.  Standard library only; pytest does not collect
it, as its name does not start with ``test_``.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# what the selections read: the package, the tests with their fixtures,
# the benchmark's oracle (``conftest`` loads it) and the pytest settings
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
SYNTAX = "src/plausible/syntax.py"
KERNEL = "src/plausible/_kernel_py.py"
FILTRATION = "tests/test_search.py::TestFiltrationWorldBound"

Mutant = namedtuple("Mutant", "name file old new why select")

MUTANTS = [
    Mutant(
        "shared-memo", SYNTAX,
        "def __init__(self, text: str, metavariables: bool, memo: dict | None = None):",
        "def __init__(self, text: str, metavariables: bool, memo: dict | None = {}):",
        "one module-level memo serves every parse without one, parse_schema's included",
        ["tests/test_syntax.py::TestMemo"],
    ),
    Mutant(
        "no-closing-check", SYNTAX,
        'if text.startswith(")", after) and text.startswith(key, p):',
        "if text.startswith(key, p):",
        "a stored interior is recalled though the text goes on past it before its ')'",
        ["tests/test_syntax.py::TestRecallByText"],
    ),
    Mutant(
        "no-full-key-check", SYNTAX,
        'if text.startswith(")", after) and text.startswith(key, p):',
        'if text.startswith(")", after):',
        "any stored interior of the right length under the index is recalled",
        ["tests/test_syntax.py::TestRecallByText"],
    ),
    Mutant(
        "no-bound-check", SYNTAX,
        "if depth <= hit[1] and nesting <= hit[2]:",
        "if True:",
        "a group is recalled deeper than the bounds it is known to parse inside",
        ["tests/test_syntax.py::TestRecallByText"],
    ),
    Mutant(
        "recalled-lexemes-uncounted", SYNTAX,
        "self.base = start + hit[3] + 1",
        "self.base = start + 1",
        "the lexemes of a recalled group do not count toward the room of the groups around it",
        ["tests/test_syntax.py::TestRecallByText"],
    ),
    Mutant(
        "index-not-cut", SYNTAX,
        "index = text[p:c + 1] if c + 1 - p < _INDEX else text[p:p + _INDEX]",
        "index = text[p:p + _INDEX]",
        "a group shorter than the index prefix is indexed with the text after it",
        ["tests/test_syntax.py::TestRecallByText"],
    ),
    Mutant(
        "no-recall", SYNTAX,
        "bucket = memo.get(index)",
        "bucket = None",
        "the memo is filled but never read: every group is lexed and parsed again",
        ["tests/test_proofs.py::TestRecalledGroupsAreNotLexed"],
    ),
    Mutant(
        "no-lexical-first", SYNTAX,
        "                    if type(error) is str:\n"
        "                        raise FormulaSyntaxError(error, m.start()) from None",
        "                    if False:\n"
        "                        raise FormulaSyntaxError(error, m.start()) from None",
        "a syntax error met before the first lexical error is raised in its place",
        ["tests/test_syntax.py::TestLexicalErrorOrder"],
    ),
    Mutant(
        "column-without-base", SYNTAX,
        "_column(self.text, self.base + self.i)",
        "_column(self.text, self.i)",
        "under a memo an error's column counts from its segment",
        ["tests/test_syntax.py::TestGoldenErrors"],
    ),
    Mutant(
        "found-reads-only-read-words", SYNTAX,
        'return "atom" if type(_leaf(lx, self.metavariables)) is Atom else lx',
        'return "atom" if isinstance(self.leaves.get(lx), Atom) else lx',
        "an atom the parser has not reached is named by its text, not as 'atom'",
        ["tests/test_syntax.py::TestGoldenErrors"],
    ),
    Mutant(
        "found-ignores-metavariables", SYNTAX,
        'return "atom" if type(_leaf(lx, self.metavariables)) is Atom else lx',
        'return "atom" if type(_leaf(lx, False)) is Atom else lx',
        "an error names a schema's metavariable by its text and a word pN as 'atom'",
        ["tests/test_syntax.py::TestGoldenErrors::test_schema_messages_and_columns"],
    ),
    Mutant(
        "reader-ignores-metavariables", SYNTAX,
        "                leaf = _leaf(lx, self.metavariables)",
        "                leaf = _leaf(lx, False)",
        "parse_schema reads A-Z as unknown words and pN as atoms",
        ["tests/test_syntax.py::TestSchemas"],
    ),
    Mutant(
        "lexical-scan-ignores-metavariables", SYNTAX,
        "                    error = _leaf(lx, self.metavariables)",
        "                    error = _leaf(lx, False)",
        "the lexical scan of a schema calls an unread metavariable unknown and passes pN",
        ["tests/test_syntax.py::TestGoldenErrors::test_schema_messages_and_columns"],
    ),
    Mutant(
        "stored-before-closing-check", SYNTAX,
        "        inner = self.binary(1, depth + 1, nesting + 1)\n"
        "        if self.lexemes[self.i] != \")\":",
        "        inner = self.binary(1, depth + 1, nesting + 1)\n"
        "        if memo is not None:\n"
        "            memo.setdefault(index, {})[text[p:self.end - 1]] = (inner, depth, nesting, 0)\n"
        "        if self.lexemes[self.i] != \")\":",
        "a group is stored before its ')' is read, under the text up to the next parenthesis",
        ["tests/test_syntax.py::TestGoldenErrors"],
    ),
    Mutant(
        "count-under-a-class-bound", KERNEL,
        "        if n == 2 and bound is None:",
        "        if n == 2:",
        "the kernel works T out and cuts at it even where the class gives its own bound",
        [f"{FILTRATION}::test_count_worked_out_only_when_needed"],
    ),
    Mutant(
        "count-never-asked", KERNEL,
        "        if n == 2 and bound is None:",
        "        if False:",
        "a search without a class bound scans every world count: T is never worked out",
        [f"{FILTRATION}::test_premise_op_scans_two_worlds"],
    ),
    Mutant(
        "reflexive-constraint-on-kripke-all", KERNEL,
        "    if class_id == CLASS_CONSTRAINED:",
        "    if class_id in (CLASS_CONSTRAINED, CLASS_KRIPKE_ALL):",
        "T imposes []A -> A and A -> <>A on kripke-all, whose frames need not be reflexive",
        [f"{FILTRATION}::test_reflexive_constraint_only_on_reflexive_classes"],
    ),
    Mutant(
        "no-reflexive-constraint", KERNEL,
        "    if class_id == CLASS_CONSTRAINED:",
        "    if False:",
        "T imposes []A -> A and A -> <>A on no class, constrained included",
        [f"{FILTRATION}::test_reflexive_constraint_only_on_reflexive_classes"],
    ),
    Mutant(
        "premise-left-out-of-count", KERNEL,
        "    for p in lettered[:-1]:",
        "    for p in lettered[1:-1]:",
        "T counts the assignments without requiring the first premise to hold",
        [f"{FILTRATION}::test_a_premise_left_out_raises_the_count"],
    ),
    Mutant(
        "modal-letters-keyed-by-opcode", KERNEL,
        "                key = (op, *out[at:])",
        "                key = (op,)",
        "every box is one letter and every diamond another, whatever their operands",
        [f"{FILTRATION}::test_distinct_modal_subformulas_are_distinct_letters"],
    ),
    Mutant(
        "modal-letter-read-as-operand", KERNEL,
        "                out[at:] = (OP_ATOM, letter)",
        "                pass",
        "a letter program reads a modal subformula as its operand, not as its letter",
        [f"{FILTRATION}::test_premise_op_scans_two_worlds"],
    ),
    Mutant(
        "no-zero-count", KERNEL,
        "    if not ok & ~eval_program(lettered[-1], atoms, ones, 1, class_id, ())[0]:\n"
        "        return 0",
        "    if False:\n"
        "        return 0",
        "T counts the assignments even where none of them falsifies the target",
        [f"{FILTRATION}::test_oracle_parity_without_a_count"],
    ),
    Mutant(
        "scan-below-the-count", KERNEL,
        "    return ok.bit_count()",
        "    return ok.bit_count() - 1",
        "the scan stops one world below T",
        [f"{FILTRATION}::test_oracle_parity_at_the_count"],
    ),
    Mutant(
        "no-letter-limit", KERNEL,
        "    if s > CHUNK_LOG2:\n"
        "        return None",
        "    if False:\n"
        "        return None",
        "T is worked out over any number of letters, past a chunk's lanes",
        [f"{FILTRATION}::test_letters_stop_at_the_chunk"],
    ),
]


def pytest(tree: Path, select: list[str]) -> int:
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *select]
    return subprocess.run(command, cwd=tree, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def copy_tree(into: Path) -> Path:
    tree = into / "tree"
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, tree / name)
    return tree


def outcome(mutant: Mutant) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        tree = copy_tree(Path(tmp))
        path = tree / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return f"anchor found {text.count(mutant.old)} times"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        code = pytest(tree, mutant.select)
    # pytest exits 1 when a test failed, and 2 or 4 when the mutant breaks
    # collection or the import of ``conftest``: the unmutated tree showed
    # that every selection collects.  Any other code is no verdict.
    return "killed" if code in (1, 2, 4) else "survived" if code == 0 else f"pytest exited {code}"


def main(names: list[str]) -> int:
    mutants = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in mutants}
    if unknown:
        print(f"no mutant named {', '.join(sorted(unknown))}")
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        selections = sorted({s for m in mutants for s in m.select})
        if pytest(copy_tree(Path(tmp)), selections) != 0:
            print("the selections fail on the unmutated tree")
            return 1
    killed = 0
    for mutant in mutants:
        result = outcome(mutant)
        killed += result == "killed"
        print(f"{result:>10}  {mutant.name}: {mutant.why}", flush=True)
    print(f"mutation score: {killed}/{len(mutants)} killed")
    return 0 if killed == len(mutants) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
