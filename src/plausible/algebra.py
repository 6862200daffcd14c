"""Finite plausibility algebras over powerset carriers.

A plausibility algebra is a Boolean algebra with a unary operator obeying

    (a1)  #a ∧ #b ≤ #(a ∧ b)
    (a2)  #a ≤ #(a ∨ b)
    (a3)  #a ≤ a
    (a4)  #1 = 1

Every finite Boolean algebra is a powerset algebra, so carriers here are
the subsets of a k-element base set, encoded as bitmasks 0..2^k-1 with
meet/join/complement as bitwise and/or/xor.

Formulas are evaluated by reading the algebra as a neighborhood model: its
worlds are the k generators and N(w) = {X : w ∈ #X}, so box there is
exactly # and an assignment of elements to atoms is a valuation.
``alg_eval`` evaluates one assignment on that model with ``truth_mask``.
In a valid algebra N(w) is the supersets of the core R(w) = ⋂{X : w ∈ #X}
(Jónsson–Tarski), so ``alg_validates`` hands the cores to the search
kernel as one constrained structure, which evaluates the formula under
every assignment at once, one chunk of valuations at a time;
``agreement_report`` hands it every valid algebra of one base size in
one scan.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, reduce
from itertools import product
from operator import and_

from .semantics import BoundsExceededError, KripkeModel, NeighborhoodModel, Witnesses, truth_mask
from .syntax import Dialect, Formula, InputError, Record, atoms_of, render, translate

# check_algebra visits all 4^base element pairs: base 9 takes about 0.05 s
# and check_derived_laws about 0.06 s more (Python 3.11, a 2-CPU Xeon host),
# and each further generator four times as long.
MAX_BASE = 9
# alg_validates has the kernel evaluate the formula under every assignment of
# elements to atoms, each a valuation of the algebra's frame; the cap bounds
# those valuations.  Its value is unchanged, so `plaus algebra --formula`
# accepts the same formulas; 2^16 valuations at base 2 take about 0.3 ms
# (same host).
MAX_ASSIGNMENTS = 1 << 16


class AlgebraFormatError(InputError):
    """Malformed algebra data."""


class InvalidAlgebraError(InputError):
    """An operation requiring a valid algebra received one failing a1-a4."""


class FinitePlausibilityAlgebra(Record, namedtuple("FinitePlausibilityAlgebra", "base_size sharp")):
    """Powerset Boolean algebra on ``base_size`` generators with a total
    unary operator given as ``sharp[element] = image``.

    Unlike other records it has an instance dict, which holds ``_report``
    once it is asked for.
    """

    def __new__(cls, base_size: int, sharp: tuple[int, ...]):
        if not 1 <= base_size <= MAX_BASE:
            raise AlgebraFormatError(f"base_size must be between 1 and {MAX_BASE}")
        size = 1 << base_size
        if len(sharp) != size:
            raise AlgebraFormatError(f"sharp must list {size} images, got {len(sharp)}")
        for a, img in enumerate(sharp):
            if not 0 <= img < size:
                raise AlgebraFormatError(f"sharp({a}) = {img} is outside the carrier")
        return tuple.__new__(cls, (base_size, sharp))

    @cached_property
    def _report(self) -> AlgebraReport:
        """Which of a1-a4 hold; see ``check_algebra``."""
        return _check_axioms(self)

    @property
    def carrier_size(self) -> int:
        return 1 << self.base_size

    @property
    def unit(self) -> int:
        return self.carrier_size - 1

    def to_data(self) -> dict:
        return {"base": self.base_size, "sharp": list(self.sharp)}

    @classmethod
    def from_data(cls, data: dict) -> "FinitePlausibilityAlgebra":
        if not isinstance(data, dict):
            raise AlgebraFormatError("algebra file must contain a JSON object")
        extra = data.keys() - {"base", "sharp"}
        if extra:
            raise AlgebraFormatError(f"unexpected algebra keys: {', '.join(sorted(extra))}")
        base = data.get("base")
        sharp = data.get("sharp")
        # bool is a subclass of int, but true is not a base size or an element
        if not isinstance(base, int) or isinstance(base, bool):
            raise AlgebraFormatError('"base" must be an integer')
        if not (isinstance(sharp, list)
                and all(isinstance(x, int) and not isinstance(x, bool) for x in sharp)):
            raise AlgebraFormatError('"sharp" must be an array of integers')
        return cls(base, tuple(sharp))


def _leq(x: int, y: int) -> bool:
    return x & y == x


class AlgebraReport(Witnesses, namedtuple("AlgebraReport", "a1_witness a2_witness a3_witness a4_witness",
                                          defaults=(None,) * 4)):
    """Axioms a1-a4, each by its first witness: a pair of elements for a1
    and a2, an element for a3, and for a4 the offending image of the unit.
    On the neighborhood frame N(w) = {X : w ∈ #X} they are the conditions
    (c), (h), (t) and (n) of a ``ConditionReport``, in that order."""

    __slots__ = ()

    def to_data(self) -> dict:
        failures: dict = {}
        if self.a1_witness is not None:
            failures["a1"] = {"a": self.a1_witness[0], "b": self.a1_witness[1]}
        if self.a2_witness is not None:
            failures["a2"] = {"a": self.a2_witness[0], "b": self.a2_witness[1]}
        if self.a3_witness is not None:
            failures["a3"] = {"a": self.a3_witness}
        if self.a4_witness is not None:
            failures["a4"] = {"sharp_unit": self.a4_witness}
        return {**self.holds(), "failures": failures}


def check_algebra(a: FinitePlausibilityAlgebra) -> AlgebraReport:
    """Exhaustively check a1-a4 over all element pairs; each witness is the
    first in pair order (a, b).  The report is computed once per algebra
    object and shared by later calls."""
    return a._report


def _check_axioms(a: FinitePlausibilityAlgebra) -> AlgebraReport:
    s = a.sharp
    a1 = a2 = a3 = a4 = None
    for x, y in product(range(a.carrier_size), repeat=2):
        if a1 is None and not _leq(s[x] & s[y], s[x & y]):
            a1 = (x, y)
        if a2 is None and not _leq(s[x], s[x | y]):
            a2 = (x, y)
    for x in range(a.carrier_size):
        if not _leq(s[x], x):
            a3 = x
            break
    if s[a.unit] != a.unit:
        a4 = s[a.unit]
    return AlgebraReport(a1, a2, a3, a4)


def _require_valid(a: FinitePlausibilityAlgebra) -> None:
    report = check_algebra(a)
    if not report.all_hold:
        failed = [law for law, holds in report.holds().items() if not holds]
        raise InvalidAlgebraError(f"algebra violates {', '.join(failed)}")


def plausible_elements(a: FinitePlausibilityAlgebra) -> frozenset[int]:
    """Nonzero fixed points of the operator; zero is excluded by definition
    even though its image is forced to zero."""
    _require_valid(a)
    return frozenset(x for x in range(1, a.carrier_size) if a.sharp[x] == x)


class DerivedLawsReport(Witnesses, namedtuple("DerivedLawsReport", "i_witness ii_witness iii_witness",
                                               defaults=(None,) * 3)):
    """The three derived laws, each by its first failing pair (a, b).  Law
    i is #a ≤ #(a ∨ b), law ii a ≤ b ⇒ #a ≤ #b and law iii #a ∨ #b ≤
    #(a ∨ b); they hold in every valid algebra, so a witness to any of them
    contradicts the axioms and is flagged as such."""

    __slots__ = ()

    def to_data(self) -> dict:
        return {**self.holds(), "contradiction": not self.all_hold}


def check_derived_laws(a: FinitePlausibilityAlgebra) -> DerivedLawsReport:
    """Check laws i-iii of a valid algebra over all element pairs; each
    witness is the first in pair order.  An invalid algebra raises
    ``InvalidAlgebraError``."""
    _require_valid(a)
    s = a.sharp
    w1 = w2 = w3 = None
    for x, y in product(range(a.carrier_size), repeat=2):
        if w1 is None and not _leq(s[x], s[x | y]):
            w1 = (x, y)
        if w2 is None and _leq(x, y) and not _leq(s[x], s[y]):
            w2 = (x, y)
        if w3 is None and not _leq(s[x] | s[y], s[x | y]):
            w3 = (x, y)
    return DerivedLawsReport(w1, w2, w3)


# ---------------------------------------------------------------------------
# Algebraic evaluation


def _cores(a: FinitePlausibilityAlgebra) -> tuple[int, ...]:
    """R(w) = ⋂{X : w ∈ #X} for each generator w; in a valid algebra N(w)
    is the supersets of R(w), so # is the Kripke box of R."""
    return tuple(
        reduce(and_, (x for x, image in enumerate(a.sharp) if (image >> w) & 1))
        for w in range(a.base_size)
    )


def alg_eval(a: FinitePlausibilityAlgebra, assignment: dict[int, int], f: Formula) -> int:
    """Homomorphic evaluation of a nabla/classical formula to an element:
    ``truth_mask`` on the neighborhood model with N(w) = {X : w ∈ #X},
    whose box is #, valuing each atom as its assigned element.

    Unassigned atoms evaluate to zero.
    """
    _require_valid(a)
    families = tuple(
        tuple(x for x in range(a.carrier_size) if (a.sharp[x] >> w) & 1) for w in range(a.base_size)
    )
    model = NeighborhoodModel(a.base_size, families, tuple(assignment.items()))
    return truth_mask(model, translate(f, Dialect.NABLA, Dialect.BOX))


def alg_validates(a: FinitePlausibilityAlgebra, f: Formula) -> bool:
    """True iff every assignment of carrier elements to atoms yields the unit.

    The algebra's cores are one constrained structure of the search kernel
    and the assignments are its valuations, so the kernel decides this as a
    search for a countermodel on that structure alone.
    """
    atoms = sorted(atoms_of(f))
    return _all_validate([a], len(atoms), _compile(translate(f, Dialect.NABLA, Dialect.BOX), atoms))


def _compile(boxed: Formula, atoms: list[int]) -> list[int]:
    """A box formula as a kernel program, one slot per atom."""
    # Imported here and in _all_validate, as in agreement_report: imported
    # at the top of this module, search and the kernel would load nested
    # inside the package's own import, which raises the peak memory of
    # `import plausible` by about 0.25 MB.
    from .search import compile_program

    return compile_program(boxed, {atom: i for i, atom in enumerate(atoms)})


def _all_validate(algebras: list[FinitePlausibilityAlgebra], natoms: int, program: list[int]) -> bool:
    """True iff each of ``algebras``, all on one base size, validates the
    formula ``program`` compiles over ``natoms`` atoms.

    One kernel scan decides them all: their cores are its structures, in
    the order given, and it stops at the first with a countermodel.
    """
    base = algebras[0].base_size
    if (1 << base) ** natoms > MAX_ASSIGNMENTS:
        raise BoundsExceededError(
            f"{1 << base}^{natoms} assignments exceed the cap of {MAX_ASSIGNMENTS}"
        )
    for a in algebras:
        _require_valid(a)
    from . import _kernel_py

    cores = [(i, _cores(a)) for i, a in enumerate(algebras)]
    hit = _kernel_py.first_countermodel((), program, base, natoms, _kernel_py.CLASS_CONSTRAINED, cores)
    return hit is None


# ---------------------------------------------------------------------------
# Exhaustive generation and the neighborhood-agreement experiment


def iter_sharp_maps(base_size: int):
    """Candidate operators on the 2^base_size carrier: the Kripke box of
    each reflexive relation R on the generators, #X = {w : R(w) ⊆ X}, taken
    in the kernel's constrained order: ``_kernel_py.structures`` yields the
    rows, row w a core containing w.  2^(k(k-1)) candidates instead of all
    (2^k)^(2^k) image tables.  perfbench counts the yields of this
    generator as ``algebra.candidates``.
    """
    from . import _kernel_py  # loaded lazily, as in _compile

    size = 1 << base_size
    for rows in _kernel_py.structures(_kernel_py.CLASS_CONSTRAINED, base_size):
        frame = KripkeModel(base_size, rows)
        yield FinitePlausibilityAlgebra(base_size, tuple(frame.box(x) for x in range(size)))


def iter_valid_algebras(base_size: int):
    """Every valid algebra on ``base_size`` generators, in ascending order of
    its image table.

    Finite plausibility algebras are the complex algebras of reflexive
    frames (Jónsson–Tarski 1951), so the reflexive candidates suffice; each
    still has to pass ``check_algebra``.
    """
    found = [a for a in iter_sharp_maps(base_size) if check_algebra(a).all_hold]
    yield from sorted(found, key=lambda a: a.sharp)


def agreement_report(formulas: list[Formula], max_base: int = 2, max_worlds: int = 3) -> dict:
    """Compare algebraic validity (all valid algebras with base ≤ max_base)
    against bounded neighborhood validity for nabla-dialect formulas.

    Adequacy predicts agreement; the report records the desk-scale evidence
    either way.
    """
    from .search import ModelClass, SearchBounds, Verdict, find_countermodel

    by_base = [list(iter_valid_algebras(k)) for k in range(1, max_base + 1)]
    rows = []
    agreements = 0
    for f in formulas:
        atoms = sorted(atoms_of(f))
        boxed = translate(f, Dialect.NABLA, Dialect.BOX)
        program = _compile(boxed, atoms)
        alg_valid = all(_all_validate(group, len(atoms), program) for group in by_base)
        bounds = SearchBounds(ModelClass.CONSTRAINED_NEIGHBORHOOD, max_worlds, tuple(atoms))
        outcome = find_countermodel(boxed, bounds)
        nm_valid = outcome.verdict is Verdict.EXHAUSTED_VALID
        agree = alg_valid == nm_valid
        agreements += agree
        rows.append(
            {
                "formula": render(f),
                "algebra_valid": alg_valid,
                "constrained_exhausted_valid": nm_valid,
                "agree": agree,
            }
        )
    return {
        "algebras": sum(map(len, by_base)),
        "max_base": max_base,
        "max_worlds": max_worlds,
        "formulas": rows,
        "agreements": agreements,
        "disagreements": len(rows) - agreements,
    }
