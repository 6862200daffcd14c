"""Bounded model enumeration, validity decision, and countermodel search.

Exhaustion over a bounded class is reported as ``ExhaustedValid`` — evidence
at the recorded bounds, never a general validity claim.  Enumeration is
deterministic, so the first countermodel is a stable fixture; every
countermodel is re-validated against the object-level evaluator and the
class constraints before it is returned.

The inner enumeration/evaluation loop runs in ``plausible._kernel_py``,
which evaluates each formula over a chunk of models at once (bit-sliced):
every valuation of a structure, and as many structures side by side as
fit in a chunk.  Formulas reach it compiled to postfix programs.
Universal and kripke-equiv searches stop at the formulas' world bound
(``universal_world_bound``) and count the models past it in closed form.
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


def _families(n: int, struct, valuation) -> Model:
    # a raw world's structure is its family, a bitmask over world sets
    families = tuple(tuple(x for x in range(1 << n) if (fam >> x) & 1) for fam in struct)
    return NeighborhoodModel(n, families, valuation)


def _cores(n: int, struct, valuation) -> Model:
    # a constrained world's structure is the core its family is generated by
    return _families(n, tuple(_kernel_py.family_key(core, n) for core in struct), valuation)


def _check_conditions(model: Model) -> None:
    if not nm_check_conditions(model).all_hold:
        raise SearchInternalError("countermodel violates the (c)(h)(t)(n) conditions")


def _check_equivalence(model: Model) -> None:
    if not relation_properties(model).equivalence:
        raise SearchInternalError("countermodel relation is not an equivalence")


def _draw_partition(rng: random.Random, n: int) -> tuple[int, ...]:
    blocks = [rng.randrange(n) for _ in range(n)]
    return tuple(sum(1 << z for z in range(n) if blocks[z] == blocks[w]) for w in range(n))


def universal_world_bound(formulas) -> int:
    """Worlds enough for the first universal or kripke-equiv countermodel:
    m + 1, where m counts the distinct modal subformulas of ``formulas``.

    Take a universal countermodel: the premises hold at every world and the
    target fails at world w.  Keep w and, for each modal subformula, one
    witness if there is one: a world where A fails for ``[]A``, where A
    holds for ``<>A`` (S5 selection; Blackburn, de Rijke & Venema, *Modal
    Logic*, 2001, ch. 6).  By induction on subformulas, each of them has the
    same truth value at a kept world in the submodel as in the model: a
    modal one is true everywhere or nowhere, and its witness stayed.  So the
    kept worlds, at most m + 1, are a countermodel too, and the smallest
    world count with a countermodel is at most m + 1.

    A kripke-equiv countermodel reduces to a universal one.  The cluster of
    w, its equivalence class, is a generated submodel: no world of it sees
    out of it, so every formula keeps its truth value at its worlds, the
    premises hold throughout it and the target still fails at w.  Its
    relation is full, so it is a universal countermodel, and S5 selection
    on it keeps a universal countermodel of at most m + 1 worlds.  A full
    relation is an equivalence, so that is a kripke-equiv countermodel too.
    """
    modal = {g for f in formulas for g in subformulas(f) if isinstance(g, (Box, Diamond))}
    return len(modal) + 1


class ModelClass(Enum):
    """The searchable model classes, each defined once, on its member.

    ``.value`` is the class's name on the command line.  The member's other
    fields, in the order its value lists them: ``kernel_id``, its class in
    ``_kernel_py``; ``cap``, the most worlds a search enumerates;
    ``dialect``: neighborhood models interpret box only, Kripke and
    universal models box and diamond; ``model(n, struct, valuation)``, the
    model a kernel structure on n worlds stands for; ``draw(rng, n)``, a
    random such structure; ``check(model)``, which raises
    ``SearchInternalError`` for a model outside the class; and
    ``world_bound(formulas)``, worlds enough for the first countermodel.
    The last two are None where a class has none.
    """

    def __new__(cls, value, kernel_id, cap, dialect, model, draw, check=None, world_bound=None):
        member = object.__new__(cls)
        member._value_, member.kernel_id, member.cap, member.dialect = value, kernel_id, cap, dialect
        member.model, member.draw, member.check, member.world_bound = model, draw, check, world_bound
        return member

    # Raw neighborhood structures grow as 2^(2^n) per world, so exhaustive raw
    # search is capped hard; the constrained class grows as n·2^n and reaches
    # further.  Kripke and universal caps keep suites interactive.
    RAW_NEIGHBORHOOD = ("raw", _kernel_py.CLASS_RAW, 2, Dialect.BOX, _families,
                        lambda rng, n: tuple(rng.randrange(1 << (1 << n)) for _ in range(n)))
    CONSTRAINED_NEIGHBORHOOD = ("constrained", _kernel_py.CLASS_CONSTRAINED, 4, Dialect.BOX, _cores,
                                lambda rng, n: tuple(rng.randrange(1 << n) | (1 << w) for w in range(n)),
                                _check_conditions)
    KRIPKE_EQUIVALENCE = ("kripke-equiv", _kernel_py.CLASS_KRIPKE_EQUIV, 4, Dialect.S5, KripkeModel,
                          _draw_partition, _check_equivalence, universal_world_bound)
    KRIPKE_ALL = ("kripke-all", _kernel_py.CLASS_KRIPKE_ALL, 4, Dialect.S5, KripkeModel,
                  lambda rng, n: tuple(rng.randrange(1 << n) for _ in range(n)))
    # the Kripke frames whose every row is full
    UNIVERSAL = ("universal", _kernel_py.CLASS_UNIVERSAL, 10, Dialect.S5,
                 lambda n, struct, valuation: UniversalModel(n, valuation),
                 lambda rng, n: ((1 << n) - 1,) * n, None, universal_world_bound)


# Random search draws at most this many samples: each costs tens of
# microseconds, so the bound is a few seconds of work.
MAX_SAMPLES = 100_000


@dataclass(frozen=True)
class SearchBounds:
    model_class: ModelClass
    max_worlds: int
    atoms: tuple[int, ...] = ()

    def __post_init__(self):
        if self.max_worlds < 1:
            raise BoundsExceededError("max_worlds must be at least 1")
        if self.max_worlds > self.model_class.cap:
            raise BoundsExceededError(
                f"{self.model_class.value} enumeration is capped at {self.model_class.cap} worlds"
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
    return mc.model(n, struct, tuple(zip(atoms, vmasks)))


def enumerate_models(bounds: SearchBounds):
    """Yield every model of the class up to the bounds, without duplicates,
    in the kernel's deterministic order."""
    for n in range(1, bounds.max_worlds + 1):
        vrange = range(1 << n)
        for struct in _kernel_py.structures(bounds.model_class.kernel_id, n):
            for vmasks in product(vrange, repeat=len(bounds.atoms)):
                yield _model_from_struct(bounds.model_class, n, struct, vmasks, bounds.atoms)


# ---------------------------------------------------------------------------
# Countermodel search


def _revalidate(
    bounds: SearchBounds, model: Model, world: int, gamma: tuple[Formula, ...], f: Formula
) -> None:
    if bounds.model_class.check:
        bounds.model_class.check(model)
    for g in gamma:
        if not is_valid_in(model, g):
            raise SearchInternalError("countermodel does not globally validate the premises")
    if eval_model(model, world, f):
        raise SearchInternalError("countermodel fails to falsify the formula")


def _search(gamma: tuple[Formula, ...], f: Formula, bounds: SearchBounds) -> SearchOutcome:
    mc = bounds.model_class
    for g in (*gamma, f):
        require_dialect(g, mc.dialect)
    slots = {atom: i for i, atom in enumerate(bounds.atoms)}
    programs = [compile_program(g, slots) for g in (*gamma, f)]
    # A search stops at its class's world bound: the first countermodel lies
    # within it, and without one the kernel counts the models past it.
    scanned = bounds.max_worlds
    if mc.world_bound:
        scanned = min(scanned, mc.world_bound((*gamma, f)))
    found, checked, n, struct, vmasks, world = _ACTIVE.run_search(
        mc.kernel_id, scanned, len(bounds.atoms), programs, bounds.max_worlds
    )
    if not found:
        return SearchOutcome(Verdict.EXHAUSTED_VALID, checked)
    model = _model_from_struct(mc, n, tuple(struct), tuple(vmasks), bounds.atoms)
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
    """Seeded random search within ``bounds`` (so the class's cap applies).
    Returns the first falsifying sample or ``Inconclusive`` after ``samples``
    draws, of which there are at most ``MAX_SAMPLES``."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if samples > MAX_SAMPLES:
        raise BoundsExceededError(f"samples are capped at {MAX_SAMPLES}, got {samples}")
    mc = bounds.model_class
    require_dialect(f, mc.dialect)
    rng = random.Random(seed)
    for i in range(1, samples + 1):
        n = rng.randint(1, bounds.max_worlds)
        vmasks = tuple(rng.randrange(1 << n) for _ in bounds.atoms)
        model = _model_from_struct(mc, n, mc.draw(rng, n), vmasks, bounds.atoms)
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
