"""Bounded model enumeration, validity decision, and countermodel search.

Exhaustion over a bounded class is reported as ``ExhaustedValid`` — evidence
at the recorded bounds, never a general validity claim.  Enumeration is
deterministic, so the first countermodel is a stable fixture; every
countermodel is re-validated against the object-level evaluator and the
class constraints before it is returned.

The inner enumeration/evaluation loop runs in ``plausible._kernel_py``,
which evaluates each formula over all valuations of a structure at once
(bit-sliced); formulas reach it compiled to postfix programs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from itertools import product

from . import _kernel_py
from .semantics import (
    BoundsExceededError,
    KripkeModel,
    Model,
    NeighborhoodModel,
    UniversalModel,
    eval_model,
    is_valid_in,
    nm_check_conditions,
    relation_properties,
    truth_mask,
)
from .syntax import (
    And,
    Atom,
    Bottom,
    Box,
    Dialect,
    Diamond,
    DialectError,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Top,
    parse,
    render,
    require_dialect,
    subformulas,
)

# Searches call the kernel through this attribute, so tools can wrap it.
_ACTIVE = _kernel_py


def kernel_backend() -> str:
    """Name of the search kernel; there is one, ``"python"``."""
    return "python"


class SearchInternalError(RuntimeError):
    """A kernel result failed re-validation; indicates a kernel defect."""


class ModelClass(Enum):
    RAW_NEIGHBORHOOD = "raw"
    CONSTRAINED_NEIGHBORHOOD = "constrained"
    KRIPKE_EQUIVALENCE = "kripke-equiv"
    KRIPKE_ALL = "kripke-all"
    UNIVERSAL = "universal"


# Raw neighborhood structures grow as 2^(2^n) per world, so exhaustive raw
# search is capped hard; the constrained class grows as n·2^n and reaches
# further.  Kripke and universal caps keep suites interactive.
WORLD_CAPS: dict[ModelClass, int] = {
    ModelClass.RAW_NEIGHBORHOOD: 2,
    ModelClass.CONSTRAINED_NEIGHBORHOOD: 4,
    ModelClass.KRIPKE_EQUIVALENCE: 4,
    ModelClass.KRIPKE_ALL: 4,
    ModelClass.UNIVERSAL: 10,
}

# Random search draws at most this many samples: each costs tens of
# microseconds, so the bound is a few seconds of work.
MAX_SAMPLES = 100_000

_CLASS_ID: dict[ModelClass, int] = {
    ModelClass.CONSTRAINED_NEIGHBORHOOD: _kernel_py.CLASS_CONSTRAINED,
    ModelClass.RAW_NEIGHBORHOOD: _kernel_py.CLASS_RAW,
    ModelClass.KRIPKE_ALL: _kernel_py.CLASS_KRIPKE_ALL,
    ModelClass.KRIPKE_EQUIVALENCE: _kernel_py.CLASS_KRIPKE_EQUIV,
    ModelClass.UNIVERSAL: _kernel_py.CLASS_UNIVERSAL,
}

_NEIGHBORHOOD = (ModelClass.RAW_NEIGHBORHOOD, ModelClass.CONSTRAINED_NEIGHBORHOOD)


@dataclass(frozen=True)
class SearchBounds:
    model_class: ModelClass
    max_worlds: int
    atoms: tuple[int, ...] = ()

    def __post_init__(self):
        if self.max_worlds < 1:
            raise BoundsExceededError("max_worlds must be at least 1")
        cap = WORLD_CAPS[self.model_class]
        if self.max_worlds > cap:
            raise BoundsExceededError(
                f"{self.model_class.value} enumeration is capped at {cap} worlds"
            )
        object.__setattr__(self, "atoms", tuple(sorted(set(self.atoms))))
        if self.atoms and self.atoms[0] < 0:
            raise ValueError("atom indices must be non-negative")

    def to_data(self) -> dict:
        return {"max_worlds": self.max_worlds, "atoms": list(self.atoms)}


class Verdict(Enum):
    COUNTERMODEL_FOUND = "CountermodelFound"
    EXHAUSTED_VALID = "ExhaustedValid"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class SearchOutcome:
    verdict: Verdict
    models_checked: int
    countermodel: Model | None = None
    world: int | None = None


# ---------------------------------------------------------------------------
# Formula compilation


def _require_class_dialect(formulas, model_class: ModelClass) -> None:
    # Neighborhood models interpret box only; Kripke and universal models
    # box and diamond.  No class interprets nabla.
    dialect = Dialect.BOX if model_class in _NEIGHBORHOOD else Dialect.S5
    for g in formulas:
        require_dialect(g, dialect)


# An atom is looked up here only when it has no slot: it denotes the empty set.
_OPCODES: dict[type, int] = {
    Atom: _kernel_py.OP_BOT,
    Top: _kernel_py.OP_TOP,
    Bottom: _kernel_py.OP_BOT,
    Not: _kernel_py.OP_NOT,
    Box: _kernel_py.OP_BOX,
    Diamond: _kernel_py.OP_DIA,
    And: _kernel_py.OP_AND,
    Or: _kernel_py.OP_OR,
    Implies: _kernel_py.OP_IMP,
    Iff: _kernel_py.OP_IFF,
}


def compile_program(f: Formula, atom_slots: dict[int, int]) -> list[int]:
    """Flatten a formula into the kernel's postfix opcode list.

    Atoms without a slot (outside the search bounds) denote the empty set.
    """
    prog: list[int] = []
    _compile(f, atom_slots, prog)
    return prog


def _compile(f: Formula, atom_slots: dict[int, int], prog: list[int]) -> None:
    match f:
        case Atom(i) if i in atom_slots:
            prog.extend((_kernel_py.OP_ATOM, atom_slots[i]))
        case Atom() | Top() | Bottom():
            prog.extend((_OPCODES[type(f)], 0))
        case Not(x) | Box(x) | Diamond(x):
            _compile(x, atom_slots, prog)
            prog.extend((_OPCODES[type(f)], 0))
        case And(l, r) | Or(l, r) | Implies(l, r) | Iff(l, r):
            _compile(l, atom_slots, prog)
            _compile(r, atom_slots, prog)
            prog.extend((_OPCODES[type(f)], 0))
        case _:
            raise DialectError(f"cannot compile {render(f)} for model search")


# ---------------------------------------------------------------------------
# Enumeration (object-level stream; order matches the kernel exactly)


def _model_from_struct(mc: ModelClass, n: int, struct, vmasks, atoms) -> Model:
    valuation = tuple(zip(atoms, vmasks))
    if mc is ModelClass.UNIVERSAL:
        return UniversalModel(n, valuation)
    if mc not in _NEIGHBORHOOD:
        return KripkeModel(n, struct, valuation)
    if mc is ModelClass.CONSTRAINED_NEIGHBORHOOD:
        # a constrained world's structure is the core its family is generated by
        struct = tuple(_kernel_py.family_key(core, n) for core in struct)
    families = tuple(tuple(x for x in range(1 << n) if (fam >> x) & 1) for fam in struct)
    return NeighborhoodModel(n, families, valuation)


def enumerate_models(bounds: SearchBounds):
    """Yield every model of the class up to the bounds, without duplicates,
    in the kernel's deterministic order."""
    class_id = _CLASS_ID[bounds.model_class]
    for n in range(1, bounds.max_worlds + 1):
        vrange = range(1 << n)
        for struct in _kernel_py.structures(class_id, n):
            for vmasks in product(vrange, repeat=len(bounds.atoms)):
                yield _model_from_struct(bounds.model_class, n, struct, vmasks, bounds.atoms)


# ---------------------------------------------------------------------------
# Countermodel search


def _revalidate(
    bounds: SearchBounds, model: Model, world: int, gamma: tuple[Formula, ...], f: Formula
) -> None:
    if bounds.model_class is ModelClass.CONSTRAINED_NEIGHBORHOOD:
        if not nm_check_conditions(model).all_hold:
            raise SearchInternalError("countermodel violates the (c)(h)(t)(n) conditions")
    elif bounds.model_class is ModelClass.KRIPKE_EQUIVALENCE:
        if not relation_properties(model).equivalence:
            raise SearchInternalError("countermodel relation is not an equivalence")
    for g in gamma:
        if not is_valid_in(model, g):
            raise SearchInternalError("countermodel does not globally validate the premises")
    if eval_model(model, world, f):
        raise SearchInternalError("countermodel fails to falsify the formula")


def universal_world_bound(formulas) -> int:
    """Worlds enough for the first universal countermodel: m + 1, where m
    counts the distinct modal subformulas of ``formulas``.

    Take a universal countermodel: the premises hold at every world and the
    target fails at world w.  Keep w and, for each modal subformula, one
    witness if there is one: a world where A fails for ``[]A``, where A
    holds for ``<>A`` (S5 selection; Blackburn, de Rijke & Venema, *Modal
    Logic*, 2001, ch. 6).  By induction on subformulas, each of them has the
    same truth value at a kept world in the submodel as in the model: a
    modal one is true everywhere or nowhere, and its witness stayed.  So the
    kept worlds, at most m + 1, are a countermodel too, and the smallest
    world count with a countermodel is at most m + 1.
    """
    modal = {g for f in formulas for g in subformulas(f) if isinstance(g, (Box, Diamond))}
    return len(modal) + 1


def _search(gamma: tuple[Formula, ...], f: Formula, bounds: SearchBounds) -> SearchOutcome:
    _require_class_dialect((*gamma, f), bounds.model_class)
    slots = {atom: i for i, atom in enumerate(bounds.atoms)}
    programs = [compile_program(g, slots) for g in (*gamma, f)]
    # A universal search stops at the bound above: the first countermodel
    # lies within it, and without one the kernel counts the models past it.
    scanned = bounds.max_worlds
    if bounds.model_class is ModelClass.UNIVERSAL:
        scanned = min(scanned, universal_world_bound((*gamma, f)))
    found, checked, n, struct, vmasks, world = _ACTIVE.run_search(
        _CLASS_ID[bounds.model_class], scanned, len(bounds.atoms), programs, bounds.max_worlds
    )
    if not found:
        return SearchOutcome(Verdict.EXHAUSTED_VALID, checked)
    model = _model_from_struct(bounds.model_class, n, tuple(struct), tuple(vmasks), bounds.atoms)
    _revalidate(bounds, model, world, gamma, f)
    return SearchOutcome(Verdict.COUNTERMODEL_FOUND, checked, model, world)


def find_countermodel(f: Formula, bounds: SearchBounds) -> SearchOutcome:
    """First model of the class falsifying ``f`` somewhere, or exhaustion.

    Valuations range over ``bounds.atoms`` only; other atoms denote the
    empty set.
    """
    return _search((), f, bounds)


def check_global_consequence(
    gamma: list[Formula] | tuple[Formula, ...], f: Formula, bounds: SearchBounds
) -> SearchOutcome:
    """Search for a model validating every member of ``gamma`` at all worlds
    while failing ``f`` at some world."""
    return _search(tuple(gamma), f, bounds)


K_FORMULA = parse("[](p0 -> p1) -> ([]p0 -> []p1)")


def run_k_experiment(bounds: SearchBounds) -> SearchOutcome:
    """Search the constrained class for a countermodel to the K schema.

    The verdict is an empirical finding about the bounded class; callers
    persist it through :func:`experiment_report`.
    """
    if bounds.model_class is not ModelClass.CONSTRAINED_NEIGHBORHOOD:
        raise ValueError("the K experiment runs on the constrained neighborhood class")
    return find_countermodel(K_FORMULA, bounds)


def sample_countermodel(
    f: Formula, bounds: SearchBounds, samples: int, seed: int
) -> SearchOutcome:
    """Seeded random search within ``bounds`` (so ``WORLD_CAPS`` applies).
    Returns the first falsifying sample or ``Inconclusive`` after ``samples``
    draws, of which there are at most ``MAX_SAMPLES``."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if samples > MAX_SAMPLES:
        raise BoundsExceededError(f"samples are capped at {MAX_SAMPLES}, got {samples}")
    _require_class_dialect((f,), bounds.model_class)
    rng = random.Random(seed)
    mc = bounds.model_class
    for i in range(1, samples + 1):
        n = rng.randint(1, bounds.max_worlds)
        vmasks = tuple(rng.randrange(1 << n) for _ in bounds.atoms)
        if mc is ModelClass.CONSTRAINED_NEIGHBORHOOD:
            struct = tuple(rng.randrange(1 << n) | (1 << w) for w in range(n))
        elif mc is ModelClass.RAW_NEIGHBORHOOD:
            struct = tuple(rng.randrange(1 << (1 << n)) for _ in range(n))
        elif mc is ModelClass.KRIPKE_ALL:
            struct = tuple(rng.randrange(1 << n) for _ in range(n))
        elif mc is ModelClass.KRIPKE_EQUIVALENCE:
            blocks = [rng.randrange(n) for _ in range(n)]
            struct = tuple(
                sum(1 << z for z in range(n) if blocks[z] == blocks[w]) for w in range(n)
            )
        else:
            struct = ()
        model = _model_from_struct(mc, n, struct, vmasks, bounds.atoms)
        falsified = model.full_mask & ~truth_mask(model, f)
        if falsified:
            lowest = (falsified & -falsified).bit_length() - 1
            _revalidate(bounds, model, lowest, (), f)
            return SearchOutcome(Verdict.COUNTERMODEL_FOUND, i, model, lowest)
    return SearchOutcome(Verdict.INCONCLUSIVE, samples)


# ---------------------------------------------------------------------------
# Reports


def experiment_report(f: Formula, bounds: SearchBounds, outcome: SearchOutcome) -> dict:
    """The canonical report object for ``valid``-style runs."""
    report = {
        "formula": render(f),
        "class": bounds.model_class.value,
        "bounds": bounds.to_data(),
        "verdict": outcome.verdict.value,
        "models_checked": outcome.models_checked,
    }
    if outcome.countermodel is not None:
        report["countermodel"] = outcome.countermodel.to_data()
        report["world"] = outcome.world
    return report
