"""Hilbert-style proof objects and the per-line proof checker.

Four deductive systems are supported, all sharing a fixed classical base
(PL1-PL14) and differing in their modal axioms and rules:

=========  =======================  ==========================
system     modal axioms             rules
=========  =======================  ==========================
LPC        (none)                   MP
S5         T, 5, K, DfDia           MP, RN
LNabla     Ax1, Ax2, Ax3            MP, RNabla
LPBox      C, H, T, N               MP, RE
=========  =======================  ==========================

Necessitation-style rules (RN, RE, RNabla) only apply to premise-free
lines, which keeps the checker sound for global consequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .syntax import (
    Box,
    Dialect,
    Formula,
    FormulaSyntaxError,
    Iff,
    Implies,
    Nabla,
    Schema,
    fits_dialect,
    match_schema,
    parse,
    parse_schema,
    render,
)


class ProofFormatError(ValueError):
    """Structurally malformed proof data (dangling references, unknown rule
    or schema names, missing fields); distinct from a checker rejection."""


class SystemId(Enum):
    LPC = "LPC"
    S5 = "S5"
    LNABLA = "LNabla"
    LPBOX = "LPBox"


SYSTEM_DIALECT: dict[SystemId, Dialect] = {
    SystemId.LPC: Dialect.CLASSICAL,
    SystemId.S5: Dialect.S5,
    SystemId.LNABLA: Dialect.NABLA,
    SystemId.LPBOX: Dialect.BOX,
}


# The classical base: implication/negation axioms plus introduction and
# elimination schemas for the remaining primitive connectives.
_PL_BASE: tuple[tuple[str, str], ...] = (
    ("PL1", "A -> (B -> A)"),
    ("PL2", "(A -> (B -> C)) -> ((A -> B) -> (A -> C))"),
    ("PL3", "(~B -> ~A) -> (A -> B)"),
    ("PL4", "A -> (B -> (A & B))"),
    ("PL5", "(A & B) -> A"),
    ("PL6", "(A & B) -> B"),
    ("PL7", "A -> (A | B)"),
    ("PL8", "B -> (A | B)"),
    ("PL9", "(A -> C) -> ((B -> C) -> ((A | B) -> C))"),
    ("PL10", "(A -> B) -> ((B -> A) -> (A <-> B))"),
    ("PL11", "(A <-> B) -> (A -> B)"),
    ("PL12", "(A <-> B) -> (B -> A)"),
    ("PL13", "true"),
    ("PL14", "false -> A"),
)

_MODAL_SCHEMAS: tuple[tuple[str, str], ...] = (
    ("T", "[]A -> A"),
    ("5", "<>A -> []<>A"),
    ("K", "[](A -> B) -> ([]A -> []B)"),
    ("DfDia", "<>A <-> ~[]~A"),
    ("C", "([]A & []B) -> [](A & B)"),
    ("H", "([]A | []B) -> [](A | B)"),
    ("N", "[]true"),
    ("Ax1", "(nabla A & nabla B) -> nabla(A & B)"),
    ("Ax2", "nabla(A | ~A)"),
    ("Ax3", "nabla A -> A"),
)

# Named non-axiom schemas, kept for semantic validity checks.
_DERIVED_SCHEMAS: tuple[tuple[str, str], ...] = (
    ("TDia", "A -> <>A"),
    ("D", "[]A -> <>A"),
    ("B", "A -> []<>A"),
    ("BDia", "<>[]A -> A"),
    ("5Dia", "<>[]A -> []A"),
    ("4", "[]A -> [][]A"),
    ("4Dia", "<><>A -> <>A"),
    ("DfBox", "[]A <-> ~<>~A"),
    ("M", "[](A & B) -> ([]A & []B)"),
)

SCHEMAS: dict[str, Schema] = {
    name: parse_schema(text)
    for name, text in _PL_BASE + _MODAL_SCHEMAS + _DERIVED_SCHEMAS
}

_PL_IDS = tuple(name for name, _ in _PL_BASE)

SYSTEM_AXIOMS: dict[SystemId, tuple[str, ...]] = {
    SystemId.LPC: _PL_IDS,
    SystemId.S5: _PL_IDS + ("T", "5", "K", "DfDia"),
    SystemId.LNABLA: _PL_IDS + ("Ax1", "Ax2", "Ax3"),
    SystemId.LPBOX: _PL_IDS + ("C", "H", "T", "N"),
}


def list_axiom_schemas(system: SystemId) -> list[tuple[str, Schema]]:
    """The documented, ordered axiom schema list of a system."""
    return [(name, SCHEMAS[name]) for name in SYSTEM_AXIOMS[system]]


def is_axiom_instance(system: SystemId, f: Formula):
    """First schema of the system matching ``f``, with its binding.

    Returns ``None`` when no schema matches, in particular when ``f`` falls
    outside the system's dialect.
    """
    if not fits_dialect(f, SYSTEM_DIALECT[system]):
        return None
    for name in SYSTEM_AXIOMS[system]:
        binding = match_schema(SCHEMAS[name], f)
        if binding is not None:
            return name, binding
    return None


# ---------------------------------------------------------------------------
# Proof objects


@dataclass(frozen=True)
class Premise:
    pass


@dataclass(frozen=True)
class AxiomInstance:
    schema_id: str
    binding: tuple[tuple[int, Formula], ...] | None = None


@dataclass(frozen=True)
class MP:
    """Modus ponens: ``antecedent`` proves A, ``implication`` proves A -> B."""

    antecedent: int
    implication: int


@dataclass(frozen=True)
class RE:
    ref: int


@dataclass(frozen=True)
class RNabla:
    ref: int


@dataclass(frozen=True)
class RN:
    ref: int


Justification = Premise | AxiomInstance | MP | RE | RNabla | RN


@dataclass(frozen=True)
class ProofLine:
    formula: Formula
    justification: Justification

    def references(self) -> tuple[int, ...]:
        j = self.justification
        if isinstance(j, MP):
            return (j.antecedent, j.implication)
        if isinstance(j, (RE, RNabla, RN)):
            return (j.ref,)
        return ()


@dataclass(frozen=True)
class Proof:
    """A numbered derivation.  Line references are 1-based."""

    system: SystemId
    premises: tuple[Formula, ...]
    lines: tuple[ProofLine, ...]
    conclusion: Formula

    def __post_init__(self):
        if not self.lines:
            raise ProofFormatError("a proof needs at least one line")
        if self.lines[-1].formula != self.conclusion:
            raise ProofFormatError("last line does not prove the claimed conclusion")


@dataclass(frozen=True)
class CheckResult:
    accepted: bool
    failing_line: int | None = None
    reason: str | None = None
    premise_free: tuple[bool, ...] = ()

    def to_data(self) -> dict:
        data: dict = {"accepted": self.accepted}
        if not self.accepted:
            data["line"] = self.failing_line
            data["reason"] = self.reason
        return data


_RULE_AVAILABLE: dict[SystemId, tuple[type, ...]] = {
    SystemId.LPC: (Premise, AxiomInstance, MP),
    SystemId.S5: (Premise, AxiomInstance, MP, RN),
    SystemId.LNABLA: (Premise, AxiomInstance, MP, RNabla),
    SystemId.LPBOX: (Premise, AxiomInstance, MP, RE),
}


def check_proof(proof: Proof, *, s5_re: bool = False) -> CheckResult:
    """Check every line of ``proof``; accept iff all lines are justified.

    ``s5_re`` additionally admits the RE rule in S5 proofs (where the rule
    is derivable but not primitive).

    A line's rule is judged first, and the rule decides which parts of the
    line the dialect check walks.  Every earlier line fits the dialect, so an
    MP line, which concludes a part of one, fits; RE and RN add only a box
    and RNabla only a nabla, each in the dialect of every system admitting
    the rule; an axiom line fits when the values bound to its schema's
    metavariables do, since every schema lies in its system's dialect.  Only
    a premise line is walked whole.  When the rule fails, or a part it
    brings in does not fit, the whole line is walked, and an operator
    outside the dialect is the reason given before any other.

    Raises ProofFormatError for structural defects (dangling references,
    unknown schema names); returns a rejection verdict for semantic ones.
    """
    dialect = SYSTEM_DIALECT[proof.system]
    allowed = _RULE_AVAILABLE[proof.system]
    if s5_re and proof.system is SystemId.S5:
        allowed = allowed + (RE,)
    premises = set(proof.premises)
    premise_free: list[bool] = []
    fitting: dict = {}  # one dialect memo: lines share subformula objects

    # Structural pass: references must point at strictly earlier lines and
    # schema names must exist.
    for number, line in enumerate(proof.lines, start=1):
        for ref in line.references():
            if not 1 <= ref < number:
                raise ProofFormatError(
                    f"line {number} references line {ref}, which is not an earlier line"
                )
        j = line.justification
        if isinstance(j, AxiomInstance) and j.schema_id not in SCHEMAS:
            raise ProofFormatError(f"line {number} names unknown schema {j.schema_id!r}")

    for number, line in enumerate(proof.lines, start=1):
        reason, brought = _judge(proof, line, allowed, premises, premise_free)
        if reason is not None or (
            brought and not all(fits_dialect(g, dialect, fitting) for g in brought)
        ):
            if not fits_dialect(line.formula, dialect, fitting):
                reason = f"formula outside the {dialect.value} dialect"
            return CheckResult(False, number, reason, tuple(premise_free))
        j = line.justification
        if isinstance(j, MP):
            premise_free.append(premise_free[j.antecedent - 1] and premise_free[j.implication - 1])
        else:  # RE, RNabla and RN apply only to premise-free lines
            premise_free.append(not isinstance(j, Premise))

    return CheckResult(True, None, None, tuple(premise_free))


def _judge(
    proof: Proof,
    line: ProofLine,
    allowed: tuple[type, ...],
    premises: set[Formula],
    premise_free: list[bool],
) -> tuple[str | None, tuple[Formula, ...]]:
    """Why ``line``'s rule does not justify its formula, or ``None``; and,
    when it does, the subformulas the rule brings in, which the dialect
    check must walk."""
    f = line.formula
    j = line.justification
    if not isinstance(j, allowed):
        return f"rule {type(j).__name__} is not part of {proof.system.value}", ()

    if isinstance(j, Premise):
        if f not in premises:
            return "formula is not among the premises", ()
        return None, (f,)
    if isinstance(j, AxiomInstance):
        if j.schema_id not in SYSTEM_AXIOMS[proof.system]:
            return f"schema {j.schema_id} is not an axiom of {proof.system.value}", ()
        binding = match_schema(SCHEMAS[j.schema_id], f)
        if binding is None:
            return f"formula is not an instance of {j.schema_id}", ()
        if j.binding is not None and dict(j.binding) != binding:
            return f"stated binding does not produce the formula from {j.schema_id}", ()
        return None, tuple(binding.values())
    if isinstance(j, MP):
        a = proof.lines[j.antecedent - 1].formula
        if proof.lines[j.implication - 1].formula != Implies(a, f):
            return f"line {j.implication} is not ({render(a)}) -> ({render(f)})", ()
        return None, ()

    ref = j.ref
    src = proof.lines[ref - 1].formula
    if not premise_free[ref - 1]:
        return f"{type(j).__name__} applied to premise-dependent line {ref}", ()
    if isinstance(j, RE):
        if not (isinstance(src, Iff) and f == Iff(Box(src.left), Box(src.right))):
            return f"RE expects line {ref} to be A <-> B and this line []A <-> []B", ()
    elif isinstance(j, RNabla):
        if not (isinstance(src, Implies) and f == Implies(Nabla(src.left), Nabla(src.right))):
            return f"RNabla expects line {ref} to be A -> B and this line nabla A -> nabla B", ()
    elif f != Box(src):  # RN
        return f"RN expects this line to be [] of line {ref}", ()
    return None, ()


# ---------------------------------------------------------------------------
# Serialization

_RULE_NAMES = {
    Premise: "premise",
    AxiomInstance: "axiom",
    MP: "mp",
    RE: "re",
    RNabla: "rnabla",
    RN: "rn",
}


def proof_to_data(proof: Proof) -> dict:
    memo: dict = {}  # lines share subformula objects; render each once
    lines = []
    for line in proof.lines:
        j = line.justification
        entry: dict = {"formula": render(line.formula, memo), "rule": _RULE_NAMES[type(j)]}
        if isinstance(j, AxiomInstance):
            entry["schema"] = j.schema_id
        refs = line.references()
        if refs:
            entry["refs"] = list(refs)
        lines.append(entry)
    return {
        "system": proof.system.value,
        "premises": [render(f, memo) for f in proof.premises],
        "lines": lines,
        "conclusion": render(proof.conclusion, memo),
    }


def _parse_field(text, what: str) -> Formula:
    if not isinstance(text, str):
        raise ProofFormatError(f"{what} must be a formula string")
    try:
        return parse(text)
    except FormulaSyntaxError as exc:
        raise ProofFormatError(f"{what}: {exc}") from None


_PROOF_KEYS = frozenset({"system", "premises", "lines", "conclusion"})
_LINE_KEYS = frozenset({"formula", "rule", "refs", "schema"})


def _unknown_keys(entry: dict, known: frozenset[str], where: str) -> None:
    unknown = sorted(set(entry) - known)
    if unknown:
        names = ", ".join(repr(key) for key in unknown)
        raise ProofFormatError(f"{where}: unknown key{'s' if len(unknown) > 1 else ''} {names}")


def proof_from_data(data: dict) -> Proof:
    """Read a proof from its JSON data, rejecting any key the format lacks:
    ``refs`` belongs to rule lines and ``schema`` to axiom lines only."""
    if not isinstance(data, dict):
        raise ProofFormatError("proof file must contain a JSON object")
    _unknown_keys(data, _PROOF_KEYS, "proof file")
    try:
        system = SystemId(data.get("system"))
    except ValueError:
        raise ProofFormatError(f"unknown system {data.get('system')!r}") from None
    premises = data.get("premises", [])
    if not isinstance(premises, list):
        raise ProofFormatError('"premises" must be an array of formula strings')
    premises = tuple(_parse_field(text, f"premise {k}") for k, text in enumerate(premises, start=1))
    raw_lines = data.get("lines")
    if not isinstance(raw_lines, list) or not raw_lines:
        raise ProofFormatError('"lines" must be a non-empty array')
    lines = []
    for i, entry in enumerate(raw_lines, start=1):
        if not isinstance(entry, dict) or "formula" not in entry or "rule" not in entry:
            raise ProofFormatError(f'line {i} must carry "formula" and "rule"')
        _unknown_keys(entry, _LINE_KEYS, f"line {i}")
        formula = _parse_field(entry["formula"], f'line {i}: "formula"')
        rule = entry["rule"]
        refs = entry.get("refs", [])
        # bool is a subclass of int, but true is not a line number
        if not (isinstance(refs, list)
                and all(isinstance(r, int) and not isinstance(r, bool) for r in refs)):
            raise ProofFormatError(f'line {i}: "refs" must be an array of integers')
        if rule == "premise":
            justification: Justification = Premise()
        elif rule == "axiom":
            schema = entry.get("schema")
            if not isinstance(schema, str):
                raise ProofFormatError(f'line {i}: axiom lines need a "schema" name')
            justification = AxiomInstance(schema)
        elif rule == "mp":
            if len(refs) != 2:
                raise ProofFormatError(f"line {i}: mp needs exactly two refs")
            justification = MP(refs[0], refs[1])
        elif rule in ("re", "rnabla", "rn"):
            if len(refs) != 1:
                raise ProofFormatError(f"line {i}: {rule} needs exactly one ref")
            justification = {"re": RE, "rnabla": RNabla, "rn": RN}[rule](refs[0])
        else:
            raise ProofFormatError(f"line {i}: unknown rule {rule!r}")
        if "refs" in entry and rule in ("premise", "axiom"):
            raise ProofFormatError(f'line {i}: {rule} lines take no "refs"')
        if "schema" in entry and rule != "axiom":
            raise ProofFormatError(f'line {i}: only axiom lines name a "schema"')
        lines.append(ProofLine(formula, justification))
    if "conclusion" not in data:
        raise ProofFormatError('proof file needs a "conclusion"')
    conclusion = _parse_field(data["conclusion"], '"conclusion"')
    return Proof(system, premises, tuple(lines), conclusion)
