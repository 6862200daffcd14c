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
``alg_validates`` hands the same structure to the search kernel as a
raw-neighborhood frame, which evaluates the formula under every
assignment at once, one chunk of valuations at a time;
``agreement_report`` hands it every valid algebra of one base size in
one scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .semantics import BoundsExceededError, KripkeModel, NeighborhoodModel, truth_mask
from .syntax import Dialect, Formula, atoms_of, render, translate

# check_algebra visits all 4^base element pairs: base 9 takes about half a
# second, and each further generator four times as long.
MAX_BASE = 9
# alg_validates has the kernel evaluate the formula under every assignment of
# elements to atoms, each a valuation of the algebra's frame; the cap bounds
# those valuations.  Its value is unchanged, so `plaus algebra --formula`
# accepts the same formulas; 2^16 valuations at base 2 take about 1 ms.
MAX_ASSIGNMENTS = 1 << 16


class AlgebraFormatError(ValueError):
    """Malformed algebra data."""


class InvalidAlgebraError(ValueError):
    """An operation requiring a valid algebra received one failing a1-a4."""


@dataclass(frozen=True)
class FinitePlausibilityAlgebra:
    """Powerset Boolean algebra on ``base_size`` generators with a total
    unary operator given as ``sharp[element] = image``."""

    base_size: int
    sharp: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.base_size <= MAX_BASE:
            raise AlgebraFormatError(f"base_size must be between 1 and {MAX_BASE}")
        size = 1 << self.base_size
        if len(self.sharp) != size:
            raise AlgebraFormatError(f"sharp must list {size} images, got {len(self.sharp)}")
        for a, img in enumerate(self.sharp):
            if not 0 <= img < size:
                raise AlgebraFormatError(f"sharp({a}) = {img} is outside the carrier")

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


@dataclass(frozen=True)
class AlgebraReport:
    """Which of a1-a4 hold, with the first witness pair of each failure."""

    a1_holds: bool
    a2_holds: bool
    a3_holds: bool
    a4_holds: bool
    a1_witness: tuple[int, int] | None = None
    a2_witness: tuple[int, int] | None = None
    a3_witness: int | None = None
    a4_witness: int | None = None  # the offending image of the unit

    @property
    def valid(self) -> bool:
        return self.a1_holds and self.a2_holds and self.a3_holds and self.a4_holds

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
        return {
            "a1": self.a1_holds,
            "a2": self.a2_holds,
            "a3": self.a3_holds,
            "a4": self.a4_holds,
            "failures": failures,
        }


def check_algebra(a: FinitePlausibilityAlgebra) -> AlgebraReport:
    """Exhaustively check a1-a4 over all element pairs; the report is
    computed once per algebra object and shared by later calls."""
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
    return AlgebraReport(
        a1_holds=a1 is None,
        a2_holds=a2 is None,
        a3_holds=a3 is None,
        a4_holds=a4 is None,
        a1_witness=a1,
        a2_witness=a2,
        a3_witness=a3,
        a4_witness=a4,
    )


def _require_valid(a: FinitePlausibilityAlgebra) -> None:
    report = check_algebra(a)
    if not report.valid:
        failed = [name for name, ok in
                  (("a1", report.a1_holds), ("a2", report.a2_holds),
                   ("a3", report.a3_holds), ("a4", report.a4_holds)) if not ok]
        raise InvalidAlgebraError(f"algebra violates {', '.join(failed)}")


def plausible_elements(a: FinitePlausibilityAlgebra) -> frozenset[int]:
    """Nonzero fixed points of the operator; zero is excluded by definition
    even though its image is forced to zero."""
    _require_valid(a)
    return frozenset(x for x in range(1, a.carrier_size) if a.sharp[x] == x)


@dataclass(frozen=True)
class DerivedLawsReport:
    """The three derived laws, which must hold in every valid algebra; a
    failure here contradicts the axioms and is flagged as such."""

    law_i_holds: bool    # #a ≤ #(a ∨ b)
    law_ii_holds: bool   # a ≤ b  ⇒  #a ≤ #b
    law_iii_holds: bool  # #a ∨ #b ≤ #(a ∨ b)
    law_i_witness: tuple[int, int] | None = None
    law_ii_witness: tuple[int, int] | None = None
    law_iii_witness: tuple[int, int] | None = None

    @property
    def contradiction(self) -> bool:
        return not (self.law_i_holds and self.law_ii_holds and self.law_iii_holds)

    def to_data(self) -> dict:
        return {
            "i": self.law_i_holds,
            "ii": self.law_ii_holds,
            "iii": self.law_iii_holds,
            "contradiction": self.contradiction,
        }


def check_derived_laws(a: FinitePlausibilityAlgebra) -> DerivedLawsReport:
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
    return DerivedLawsReport(
        law_i_holds=w1 is None,
        law_ii_holds=w2 is None,
        law_iii_holds=w3 is None,
        law_i_witness=w1,
        law_ii_witness=w2,
        law_iii_witness=w3,
    )


# ---------------------------------------------------------------------------
# Algebraic evaluation


def _families(a: FinitePlausibilityAlgebra) -> tuple[tuple[int, ...], ...]:
    """N(w) = {X : w ∈ #X} for each generator w: the neighborhood frame on
    the generators whose box is #."""
    return tuple(
        tuple(x for x in range(a.carrier_size) if (a.sharp[x] >> w) & 1)
        for w in range(a.base_size)
    )


def _as_model(a: FinitePlausibilityAlgebra, assignment: dict[int, int]) -> NeighborhoodModel:
    """The neighborhood model on the algebra's frame valuing each atom as
    its assigned element."""
    return NeighborhoodModel(a.base_size, _families(a), tuple(assignment.items()))


def alg_eval(a: FinitePlausibilityAlgebra, assignment: dict[int, int], f: Formula) -> int:
    """Homomorphic evaluation of a nabla/classical formula to an element.

    Unassigned atoms evaluate to zero.
    """
    _require_valid(a)
    return truth_mask(_as_model(a, assignment), translate(f, Dialect.NABLA, Dialect.BOX))


def alg_validates(a: FinitePlausibilityAlgebra, f: Formula) -> bool:
    """True iff every assignment of carrier elements to atoms yields the unit.

    The algebra's frame is one raw-neighborhood structure of the search
    kernel and the assignments are its valuations, so the kernel decides
    this as a search for a countermodel on that structure alone.
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

    One kernel scan decides them all: their frames are its structures, in
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

    # each frame as one raw structure: world w's family as a bitmask of its members
    frames = [
        (i, tuple(sum(1 << x for x in family) for family in _families(a)))
        for i, a in enumerate(algebras)
    ]
    hit = _kernel_py.first_countermodel((), program, base, natoms, _kernel_py.CLASS_RAW, frames)
    return hit is None


# ---------------------------------------------------------------------------
# Exhaustive generation and the neighborhood-agreement experiment


def iter_sharp_maps(base_size: int):
    """Candidate operators on the 2^base_size carrier: the Kripke box of
    each reflexive relation R on the generators, #X = {w : R(w) ⊆ X}, in
    the kernel's order of constrained structures; 2^(k(k-1)) candidates
    instead of all (2^k)^(2^k) image tables.  perfbench counts the yields
    of this generator as ``algebra.candidates``.
    """
    from . import _kernel_py  # loaded lazily, as in _compile

    size = 1 << base_size
    # row w of a reflexive relation holds w: the cores containing w
    for rows in product(*_kernel_py.constrained_candidates(base_size)):
        frame = KripkeModel(base_size, rows)
        yield FinitePlausibilityAlgebra(base_size, tuple(frame.box(x) for x in range(size)))


def iter_valid_algebras(base_size: int):
    """Every valid algebra on ``base_size`` generators, in ascending order of
    its image table.

    Finite plausibility algebras are the complex algebras of reflexive
    frames (Jónsson–Tarski 1951), so the reflexive candidates suffice; each
    still has to pass ``check_algebra``.
    """
    found = [a for a in iter_sharp_maps(base_size) if check_algebra(a).valid]
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
