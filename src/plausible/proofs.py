"""Hilbert-style proof objects and the per-line proof checker.

Four deductive systems are supported, each defined once, on its
``SystemId`` member, all sharing a fixed classical base (PL1-PL14) and
differing in their dialect, modal axioms and rules:

=========  =========  =======================  ==========================
system     dialect    modal axioms             rules
=========  =========  =======================  ==========================
LPC        classical  (none)                   MP
S5         S5         T, 5, K, DfDia           MP, RN
LNabla     nabla      Ax1, Ax2, Ax3            MP, RNabla
LPBox      box        C, H, T, N               MP, RE
=========  =========  =======================  ==========================

``RULE_SHAPES`` states once what RE, RNabla and RN conclude from the line
they cite, for this checker and for ``derivations.ProofBuilder``.
Necessitation-style rules (RN, RE, RNabla) only apply to premise-free
lines, which keeps the checker sound for global consequence.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .syntax import (
    Box,
    Dialect,
    Formula,
    FormulaSyntaxError,
    Iff,
    Implies,
    InputError,
    Nabla,
    Record,
    Schema,
    fits_dialect,
    match_schema,
    parse,
    parse_schema,
    render,
)


class ProofFormatError(InputError):
    """Structurally malformed proof data (dangling references, unknown rule
    or schema names, missing fields); distinct from a checker rejection."""


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


# ---------------------------------------------------------------------------
# Proof objects


class Premise(Record, namedtuple("Premise", "")):
    __slots__ = ()


class AxiomInstance(Record, namedtuple("AxiomInstance", "schema_id binding", defaults=(None,))):
    """An instance of schema ``schema_id``; ``binding``, if given, is the
    ``(metavariable, formula)`` pairs the instance must match with."""

    __slots__ = ()


class MP(Record, namedtuple("MP", "antecedent implication")):
    """Modus ponens: ``antecedent`` proves A, ``implication`` proves A -> B."""

    __slots__ = ()


class RE(Record, namedtuple("RE", "ref")):
    __slots__ = ()


class RNabla(Record, namedtuple("RNabla", "ref")):
    __slots__ = ()


class RN(Record, namedtuple("RN", "ref")):
    __slots__ = ()


Justification = Premise | AxiomInstance | MP | RE | RNabla | RN

# What RE, RNabla and RN conclude from the line they cite: the kind of
# formula that line must be, the conclusion built from it, and the reason
# the checker gives a line that claims the rule but does not conclude that.
RULE_SHAPES = {
    RE: (Iff, lambda src: Iff(Box(src.left), Box(src.right)),
         "RE expects line {} to be A <-> B and this line []A <-> []B"),
    RNabla: (Implies, lambda src: Implies(Nabla(src.left), Nabla(src.right)),
             "RNabla expects line {} to be A -> B and this line nabla A -> nabla B"),
    RN: (Formula, Box, "RN expects this line to be [] of line {}"),
}


class SystemId(Enum):
    """The deductive systems, each defined once, on its member.

    ``.value`` is the system's name in proof files.  The member's other
    fields: ``dialect``, the one its formulas lie in; ``axioms``, its
    schema names in documented order, the classical base first; and
    ``rules``, the justification classes its lines may use.
    """

    def __new__(cls, value, dialect, axioms, rules):
        member = object.__new__(cls)
        member._value_, member.dialect, member.axioms, member.rules = value, dialect, axioms, rules
        return member

    LPC = ("LPC", Dialect.CLASSICAL, _PL_IDS, (Premise, AxiomInstance, MP))
    S5 = ("S5", Dialect.S5, _PL_IDS + ("T", "5", "K", "DfDia"), (Premise, AxiomInstance, MP, RN))
    LNABLA = ("LNabla", Dialect.NABLA, _PL_IDS + ("Ax1", "Ax2", "Ax3"),
              (Premise, AxiomInstance, MP, RNabla))
    LPBOX = ("LPBox", Dialect.BOX, _PL_IDS + ("C", "H", "T", "N"), (Premise, AxiomInstance, MP, RE))


class ProofLine(Record, namedtuple("ProofLine", "formula justification")):
    __slots__ = ()

    def references(self) -> tuple[int, ...]:
        # every field of a rule other than an axiom is a line reference
        j = self.justification
        return () if isinstance(j, AxiomInstance) else tuple(j)


class Proof(Record, namedtuple("Proof", "system premises lines conclusion")):
    """A numbered derivation of ``conclusion`` in ``system``: a tuple of
    premise formulas and a tuple of ``ProofLine``.  Line references are
    1-based."""

    __slots__ = ()

    def __new__(cls, system: SystemId, premises: tuple[Formula, ...],
                lines: tuple[ProofLine, ...], conclusion: Formula):
        if not lines:
            raise ProofFormatError("a proof needs at least one line")
        if lines[-1].formula != conclusion:
            raise ProofFormatError("last line does not prove the claimed conclusion")
        return tuple.__new__(cls, (system, premises, lines, conclusion))


class CheckResult(Record, namedtuple("CheckResult", "accepted failing_line reason premise_free",
                                     defaults=(None, None, ()))):
    """A checker's verdict; a rejection names its line and the reason.
    ``premise_free`` tells, for each line accepted before the verdict,
    whether it depends on no premise."""

    __slots__ = ()

    def to_data(self) -> dict:
        data: dict = {"accepted": self.accepted}
        if not self.accepted:
            data["line"] = self.failing_line
            data["reason"] = self.reason
        return data


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
    dialect = proof.system.dialect
    allowed = proof.system.rules
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
        if j.schema_id not in proof.system.axioms:
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
    kind, conclude, reason = RULE_SHAPES[type(j)]
    if not (isinstance(src, kind) and f == conclude(src)):
        return reason.format(ref), ()
    return None, ()


# ---------------------------------------------------------------------------
# Serialization

_RULES = {"premise": Premise, "axiom": AxiomInstance, "mp": MP, "re": RE, "rnabla": RNabla, "rn": RN}
_RULE_NAMES = {cls: name for name, cls in _RULES.items()}


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


def _parse_field(text, what: str, memo: dict) -> Formula:
    if not isinstance(text, str):
        raise ProofFormatError(f"{what} must be a formula string")
    try:
        return parse(text, memo)
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
    memo: dict = {}  # lines repeat their groups; parse each once, into one node
    premises = tuple(_parse_field(text, f"premise {k}", memo) for k, text in enumerate(premises, start=1))
    raw_lines = data.get("lines")
    if not isinstance(raw_lines, list) or not raw_lines:
        raise ProofFormatError('"lines" must be a non-empty array')
    lines = []
    for i, entry in enumerate(raw_lines, start=1):
        if not isinstance(entry, dict) or "formula" not in entry or "rule" not in entry:
            raise ProofFormatError(f'line {i} must carry "formula" and "rule"')
        _unknown_keys(entry, _LINE_KEYS, f"line {i}")
        formula = _parse_field(entry["formula"], f'line {i}: "formula"', memo)
        rule = entry["rule"]
        refs = entry.get("refs", [])
        # bool is a subclass of int, but true is not a line number
        if not (isinstance(refs, list)
                and all(isinstance(r, int) and not isinstance(r, bool) for r in refs)):
            raise ProofFormatError(f'line {i}: "refs" must be an array of integers')
        # a rule that is not a string, such as ["mp"], cannot be a key
        cls = _RULES.get(rule) if isinstance(rule, str) else None
        if cls is None:
            raise ProofFormatError(f"line {i}: unknown rule {rule!r}")
        if cls is AxiomInstance:
            schema = entry.get("schema")
            if not isinstance(schema, str):
                raise ProofFormatError(f'line {i}: axiom lines need a "schema" name')
            justification: Justification = AxiomInstance(schema)
        elif cls is Premise:
            justification = Premise()
        elif len(refs) != len(cls._fields):
            count = "two refs" if cls is MP else "one ref"
            raise ProofFormatError(f"line {i}: {rule} needs exactly {count}")
        else:
            justification = cls(*refs)
        if "refs" in entry and cls in (Premise, AxiomInstance):
            raise ProofFormatError(f'line {i}: {rule} lines take no "refs"')
        if "schema" in entry and cls is not AxiomInstance:
            raise ProofFormatError(f'line {i}: only axiom lines name a "schema"')
        lines.append(ProofLine(formula, justification))
    if "conclusion" not in data:
        raise ProofFormatError('proof file needs a "conclusion"')
    conclusion = _parse_field(data["conclusion"], '"conclusion"', memo)
    return Proof(system, premises, tuple(lines), conclusion)
