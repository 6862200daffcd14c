"""Derived-rule machinery over the proof kernel.

A :class:`ProofBuilder` appends lines and memoizes premise-free results, so
composite derivations stay compact; ``check_proof`` judges each proof it
builds once, in ``build``.  On top of it live the classical lemmas needed
by the box/nabla proof translation (hypothetical syllogism, double
negation, contraposition, reductio, excluded middle) and the bridges that
discharge the axioms without a direct counterpart:

* ``Ax2``-justified lines become box proofs through N and RE (which needs a
  derivation of the excluded middle over the classical base);
* ``N``-justified lines become nabla proofs through Ax2 and RNabla;
* ``H``-justified lines are re-derived from disjunction introduction and
  RNabla;
* ``RNabla`` steps become box monotonicity (derived from H and RE), and
  ``RE`` steps become nabla congruence (derived from RNabla).

A derivation that goes wrong is a defect here, never in an input, so it
raises :class:`DerivationError`, a ``RuntimeError`` (exit 3 from ``plaus``).
"""

from __future__ import annotations

from .proofs import (
    RULE_SHAPES,
    SCHEMAS,
    AxiomInstance,
    Justification,
    MP,
    Premise,
    Proof,
    ProofLine,
    RE,
    RN,
    RNabla,
    SystemId,
    check_proof,
)
from .syntax import (
    TOP,
    And,
    Box,
    Formula,
    Implies,
    InputError,
    MetaBinding,
    Nabla,
    Not,
    Or,
    instantiate,
    match_schema,
    render,
    translate,
)


class TranslationError(InputError):
    """A proof that cannot be translated: not LNabla or LPBox, or rejected."""


class DerivationError(RuntimeError):
    """A builder refusal, a built proof that ``check_proof`` rejects, an
    accepted line with no bridge, or a bridge that concludes the wrong
    formula."""


class ProofBuilder:
    """Accumulates proof lines, each with the formula its rule concludes:
    MP's is the consequent of its implication, and RE's, RNabla's and RN's
    are read from ``proofs.RULE_SHAPES``, as the checker reads them.  A rule
    is refused only when it cannot compute its conclusion, for a missing
    line or one not of the kind it needs; whether the rule applies is left
    to ``check_proof``, run by ``build``.

    Line indices are 1-based, as in serialized proofs.  Premise-free lines
    are memoized by formula, so repeated sub-derivations are shared.
    """

    def __init__(self, system: SystemId, premises: tuple[Formula, ...] = ()):
        self.system = system
        self.premises = tuple(premises)
        self._lines: list[ProofLine] = []
        self._free: list[bool] = []
        self._theorems: dict[Formula, int] = {}

    def __len__(self) -> int:
        return len(self._lines)

    def _index(self, i: int) -> int:
        if not 1 <= i <= len(self._lines):
            raise DerivationError(f"no line {i} among lines 1..{len(self._lines)}")
        return i - 1

    def formula(self, i: int) -> Formula:
        return self._lines[self._index(i)].formula

    def _operand(self, ref: int, kind: type, rule: str) -> Formula:
        src = self.formula(ref)
        if not isinstance(src, kind):
            raise DerivationError(f"{rule} needs an {kind.__name__} at line {ref}")
        return src

    def lookup(self, f: Formula) -> int | None:
        """Index of an earlier premise-free line proving ``f``, if any."""
        return self._theorems.get(f)

    def _append(self, f: Formula, j: Justification, free: bool) -> int:
        self._lines.append(ProofLine(f, j))
        self._free.append(free)
        idx = len(self._lines)
        if free:
            self._theorems.setdefault(f, idx)
        return idx

    def premise(self, f: Formula) -> int:
        return self._append(f, Premise(), False)

    def axiom(self, schema_id: str, binding: MetaBinding | None = None) -> int:
        binding = binding or {}
        f = instantiate(SCHEMAS[schema_id], binding)
        # One probe, which hashes the whole formula once: a new axiom
        # formula claims the index it is about to take.
        idx = self._theorems.setdefault(f, len(self._lines) + 1)
        if idx > len(self._lines):
            self._lines.append(ProofLine(f, AxiomInstance(schema_id, tuple(sorted(binding.items())))))
            self._free.append(True)
        return idx

    def mp(self, antecedent: int, implication: int) -> int:
        imp = self._operand(implication, Implies, "MP")
        free = self._free[self._index(antecedent)] and self._free[implication - 1]
        return self._append(imp.right, MP(antecedent, implication), free)

    def _rule(self, cls: type, ref: int) -> int:
        kind, conclude, _ = RULE_SHAPES[cls]
        return self._append(conclude(self._operand(ref, kind, cls.__name__)), cls(ref), True)

    def re(self, ref: int) -> int:
        return self._rule(RE, ref)

    def rnabla(self, ref: int) -> int:
        return self._rule(RNabla, ref)

    def rn(self, ref: int) -> int:
        return self._rule(RN, ref)

    def build(self, conclusion: int | None = None) -> Proof:
        """Freeze into a checked Proof concluding at line ``conclusion`` (default: last).

        When the conclusion line is not last (a memoized hit), the formula is
        re-derived at the end through a trivial modus ponens step.
        """
        idx = conclusion if conclusion is not None else len(self._lines)
        goal = self.formula(idx)
        if idx != len(self._lines):
            self.mp(idx, identity(self, goal))
        proof = Proof(self.system, self.premises, tuple(self._lines), self._lines[-1].formula)
        verdict = check_proof(proof)
        if not verdict.accepted:
            raise DerivationError(f"built proof fails at line {verdict.failing_line}: {verdict.reason}")
        return proof


# ---------------------------------------------------------------------------
# Classical lemmas (all over the PL base, so they work in every system)


def identity(b: ProofBuilder, x: Formula) -> int:
    """x -> x."""
    goal = Implies(x, x)
    if (hit := b.lookup(goal)) is not None:
        return hit
    xx = Implies(x, x)
    l1 = b.axiom("PL1", {0: x, 1: xx})
    l2 = b.axiom("PL2", {0: x, 1: xx, 2: x})
    l3 = b.mp(l1, l2)
    l4 = b.axiom("PL1", {0: x, 1: x})
    return b.mp(l4, l3)


def hs(b: ProofBuilder, first: int, second: int) -> int:
    """Hypothetical syllogism: from x -> y and y -> z conclude x -> z."""
    fxy = b.formula(first)
    fyz = b.formula(second)
    x, y = fxy.left, fxy.right
    z = fyz.right
    goal = Implies(x, z)
    if (hit := b.lookup(goal)) is not None:
        return hit
    l1 = b.axiom("PL1", {0: fyz, 1: x})
    l2 = b.mp(second, l1)
    l3 = b.axiom("PL2", {0: x, 1: y, 2: z})
    l4 = b.mp(l2, l3)
    return b.mp(first, l4)


def double_negation_elim(b: ProofBuilder, x: Formula) -> int:
    """~~x -> x."""
    nx, nnx = Not(x), Not(Not(x))
    goal = Implies(nnx, x)
    if (hit := b.lookup(goal)) is not None:
        return hit
    l1 = b.axiom("PL1", {0: nnx, 1: Not(Not(nnx))})
    l2 = b.axiom("PL3", {0: nx, 1: Not(nnx)})
    l3 = hs(b, l1, l2)
    l4 = b.axiom("PL3", {0: nnx, 1: x})
    l5 = hs(b, l3, l4)
    l6 = b.axiom("PL2", {0: nnx, 1: nnx, 2: x})
    l7 = b.mp(l5, l6)
    return b.mp(identity(b, nnx), l7)


def double_negation_intro(b: ProofBuilder, x: Formula) -> int:
    """x -> ~~x."""
    goal = Implies(x, Not(Not(x)))
    if (hit := b.lookup(goal)) is not None:
        return hit
    l1 = double_negation_elim(b, Not(x))
    l2 = b.axiom("PL3", {0: x, 1: Not(Not(x))})
    return b.mp(l1, l2)


def contrapose(b: ProofBuilder, ref: int) -> int:
    """From x -> y conclude ~y -> ~x."""
    src = b.formula(ref)
    x, y = src.left, src.right
    goal = Implies(Not(y), Not(x))
    if (hit := b.lookup(goal)) is not None:
        return hit
    l1 = double_negation_intro(b, y)
    l2 = hs(b, ref, l1)
    l3 = double_negation_elim(b, x)
    l4 = hs(b, l3, l2)
    l5 = b.axiom("PL3", {0: Not(y), 1: Not(x)})
    return b.mp(l4, l5)


def explosion(b: ProofBuilder, y: Formula, z: Formula) -> int:
    """~y -> (y -> z)."""
    goal = Implies(Not(y), Implies(y, z))
    if (hit := b.lookup(goal)) is not None:
        return hit
    l1 = b.axiom("PL1", {0: Not(y), 1: Not(z)})
    l2 = b.axiom("PL3", {0: y, 1: z})
    return hs(b, l1, l2)


def reductio(b: ProofBuilder, pos: int, neg: int) -> int:
    """From x -> y and x -> ~y conclude ~x."""
    src = b.formula(pos)
    x, y = src.left, src.right
    goal = Not(x)
    if (hit := b.lookup(goal)) is not None:
        return hit
    absurd = Not(TOP)
    l1 = explosion(b, y, absurd)
    l2 = hs(b, neg, l1)
    l3 = b.axiom("PL2", {0: x, 1: y, 2: absurd})
    l4 = b.mp(l2, l3)
    l5 = b.mp(pos, l4)
    l6 = double_negation_elim(b, x)
    l7 = hs(b, l6, l5)
    l8 = b.axiom("PL3", {0: TOP, 1: Not(x)})
    l9 = b.mp(l7, l8)
    return b.mp(b.axiom("PL13"), l9)


def excluded_middle(b: ProofBuilder, x: Formula) -> int:
    """x | ~x."""
    d = Or(x, Not(x))
    if (hit := b.lookup(d)) is not None:
        return hit
    l1 = b.axiom("PL7", {0: x, 1: Not(x)})
    l2 = b.axiom("PL8", {0: x, 1: Not(x)})
    l3 = contrapose(b, l1)
    l4 = contrapose(b, l2)
    l5 = reductio(b, l3, l4)
    l6 = double_negation_elim(b, d)
    return b.mp(l5, l6)


def iff_intro(b: ProofBuilder, forward: int, backward: int) -> int:
    """From x -> y and y -> x conclude x <-> y."""
    src = b.formula(forward)
    x, y = src.left, src.right
    l1 = b.axiom("PL10", {0: x, 1: y})
    l2 = b.mp(forward, l1)
    return b.mp(backward, l2)


def iff_forward(b: ProofBuilder, ref: int) -> int:
    """From x <-> y conclude x -> y."""
    src = b.formula(ref)
    l1 = b.axiom("PL11", {0: src.left, 1: src.right})
    return b.mp(ref, l1)


def iff_backward(b: ProofBuilder, ref: int) -> int:
    """From x <-> y conclude y -> x."""
    src = b.formula(ref)
    l1 = b.axiom("PL12", {0: src.left, 1: src.right})
    return b.mp(ref, l1)


# ---------------------------------------------------------------------------
# Modal bridges


def box_excluded_middle(b: ProofBuilder, x: Formula) -> int:
    """[](x | ~x) in the box system, via N and RE."""
    d = Or(x, Not(x))
    goal = Box(d)
    if (hit := b.lookup(goal)) is not None:
        return hit
    em = excluded_middle(b, x)
    l1 = b.axiom("PL1", {0: d, 1: TOP})
    top_d = b.mp(em, l1)
    l2 = b.axiom("PL1", {0: TOP, 1: d})
    d_top = b.mp(b.axiom("PL13"), l2)
    both = iff_intro(b, top_d, d_top)
    boxed = b.re(both)
    l3 = b.mp(boxed, b.axiom("PL11", {0: Box(TOP), 1: goal}))
    return b.mp(b.axiom("N"), l3)


def box_monotonicity(b: ProofBuilder, ref: int) -> int:
    """From x -> y (premise-free) conclude []x -> []y, via H and RE."""
    src = b.formula(ref)
    x, y = src.left, src.right
    goal = Implies(Box(x), Box(y))
    if (hit := b.lookup(goal)) is not None:
        return hit
    l1 = b.axiom("PL9", {0: x, 1: y, 2: y})
    l2 = b.mp(ref, l1)
    d_to_y = b.mp(identity(b, y), l2)
    y_to_d = b.axiom("PL8", {0: x, 1: y})
    both = iff_intro(b, d_to_y, y_to_d)
    boxed = b.re(both)
    l3 = b.axiom("PL7", {0: Box(x), 1: Box(y)})
    l4 = b.axiom("H", {0: x, 1: y})
    box_x_to_box_d = hs(b, l3, l4)
    box_d_to_box_y = iff_forward(b, boxed)
    return hs(b, box_x_to_box_d, box_d_to_box_y)


def exportation(b: ProofBuilder, ref: int) -> int:
    """From (x & y) -> z conclude x -> (y -> z)."""
    src = b.formula(ref)
    x, y = src.left.left, src.left.right
    z = src.right
    goal = Implies(x, Implies(y, z))
    if (hit := b.lookup(goal)) is not None:
        return hit
    pair = b.axiom("PL4", {0: x, 1: y})
    l1 = b.axiom("PL1", {0: src, 1: y})
    l2 = b.mp(ref, l1)
    l3 = b.axiom("PL2", {0: y, 1: src.left, 2: z})
    l4 = b.mp(l2, l3)
    l5 = b.axiom("PL1", {0: b.formula(l4), 1: x})
    l6 = b.mp(l4, l5)
    l7 = b.axiom("PL2", {0: x, 1: Implies(y, src.left), 2: Implies(y, z)})
    l8 = b.mp(l6, l7)
    return b.mp(pair, l8)


def box_k(b: ProofBuilder, x: Formula, y: Formula) -> int:
    """[](x -> y) -> ([]x -> []y), derived from C plus box monotonicity.

    The distribution schema is not an axiom of the box system, but it is a
    theorem of it; this derivation is the checked witness.
    """
    imp = Implies(x, y)
    goal = Implies(Box(imp), Implies(Box(x), Box(y)))
    if (hit := b.lookup(goal)) is not None:
        return hit
    conj = And(imp, x)
    keep_imp = b.axiom("PL5", {0: imp, 1: x})
    keep_x = b.axiom("PL6", {0: imp, 1: x})
    l1 = b.axiom("PL2", {0: conj, 1: x, 2: y})
    l2 = b.mp(keep_imp, l1)
    detach = b.mp(keep_x, l2)
    lifted = box_monotonicity(b, detach)
    c_ax = b.axiom("C", {0: imp, 1: x})
    chained = hs(b, c_ax, lifted)
    return exportation(b, chained)


def nabla_top(b: ProofBuilder) -> int:
    """nabla true in the nabla system, via Ax2 and RNabla."""
    goal = Nabla(TOP)
    if (hit := b.lookup(goal)) is not None:
        return hit
    d = Or(TOP, Not(TOP))
    ax2 = b.axiom("Ax2", {0: TOP})
    l1 = b.axiom("PL1", {0: TOP, 1: d})
    d_top = b.mp(b.axiom("PL13"), l1)
    lifted = b.rnabla(d_top)
    return b.mp(ax2, lifted)


def nabla_h(b: ProofBuilder, x: Formula, y: Formula) -> int:
    """(nabla x | nabla y) -> nabla(x | y), via disjunction intro and RNabla."""
    d = Or(x, y)
    goal = Implies(Or(Nabla(x), Nabla(y)), Nabla(d))
    if (hit := b.lookup(goal)) is not None:
        return hit
    r1 = b.rnabla(b.axiom("PL7", {0: x, 1: y}))
    r2 = b.rnabla(b.axiom("PL8", {0: x, 1: y}))
    l1 = b.axiom("PL9", {0: Nabla(x), 1: Nabla(y), 2: Nabla(d)})
    l2 = b.mp(r1, l1)
    return b.mp(r2, l2)


def nabla_congruence(b: ProofBuilder, ref: int) -> int:
    """From x <-> y (premise-free) conclude nabla x <-> nabla y."""
    forward = b.rnabla(iff_forward(b, ref))
    backward = b.rnabla(iff_backward(b, ref))
    return iff_intro(b, forward, backward)


# ---------------------------------------------------------------------------
# Proof translation

_AXIOM_MAP = {
    SystemId.LNABLA: {"Ax1": "C", "Ax3": "T"},
    SystemId.LPBOX: {"C": "Ax1", "T": "Ax3"},
}


def translate_proof(proof: Proof) -> Proof:
    """Translate an accepted LNabla proof into LPBox, or conversely.

    Formulas are translated operator-for-operator; axiom and rule uses
    without a direct counterpart are discharged through the documented
    bridges.  The input is checked here and the output once, by ``build``.
    """
    if proof.system not in (SystemId.LNABLA, SystemId.LPBOX):
        raise TranslationError("only LNabla and LPBox proofs are translatable")
    result = check_proof(proof)
    if not result.accepted:
        raise TranslationError(
            f"translation requires an accepted proof (line {result.failing_line}: {result.reason})"
        )
    source = proof.system.dialect
    target_system = SystemId.LPBOX if proof.system is SystemId.LNABLA else SystemId.LNABLA
    target = target_system.dialect

    # One memo for the whole proof: the bindings of an axiom line are
    # subtrees of its formula, translated just before them.
    memo: dict = {}
    b = ProofBuilder(target_system, tuple(translate(f, source, target, memo) for f in proof.premises))
    mapping: dict[int, int] = {}

    for number, line in enumerate(proof.lines, start=1):
        j = line.justification
        # An MP line equals its implication's consequent, which ``check_proof``
        # accepted and the memo holds already translated.
        f = proof.lines[j.implication - 1].formula.right if isinstance(j, MP) else line.formula
        expected = translate(f, source, target, memo)
        if isinstance(j, Premise):
            mapping[number] = b.premise(expected)
        elif isinstance(j, MP):
            mapping[number] = b.mp(mapping[j.antecedent], mapping[j.implication])
        elif isinstance(j, AxiomInstance):
            binding = match_schema(SCHEMAS[j.schema_id], line.formula)
            moved = {k: translate(v, source, target, memo) for k, v in binding.items()}
            direct = _AXIOM_MAP[proof.system].get(j.schema_id)
            if j.schema_id.startswith("PL"):
                mapping[number] = b.axiom(j.schema_id, moved)
            elif direct is not None:
                mapping[number] = b.axiom(direct, moved)
            elif j.schema_id == "Ax2":
                mapping[number] = box_excluded_middle(b, moved[0])
            elif j.schema_id == "N":
                mapping[number] = nabla_top(b)
            elif j.schema_id == "H":
                mapping[number] = nabla_h(b, moved[0], moved[1])
            else:
                raise DerivationError(
                    f"line {number}: no bridge for axiom {j.schema_id} "
                    f"(obligation: derive {render(expected)} in {target_system.value})"
                )
        elif isinstance(j, RNabla):
            mapping[number] = box_monotonicity(b, mapping[j.ref])
        elif isinstance(j, RE):
            mapping[number] = nabla_congruence(b, mapping[j.ref])
        else:
            raise DerivationError(
                f"line {number}: rule {type(j).__name__} has no counterpart "
                f"(obligation: re-derive {render(expected)} in {target_system.value})"
            )
        if b.formula(mapping[number]) != expected:
            raise DerivationError(
                f"line {number}: bridge produced {render(b.formula(mapping[number]))}, "
                f"expected {render(expected)}"
            )

    return b.build(mapping[len(proof.lines)])
