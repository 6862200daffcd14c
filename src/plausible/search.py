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

A search stops at its class's world bound, the ``ModelClass`` member's
``world_bound(m, d, premises)``: worlds enough for the first countermodel,
so a scan up to it finds the full scan's first countermodel, and the
kernel counts the models past it in closed form.  Here m counts the
distinct box and diamond subformulas of the premises and the target that
need a witness world, and d is the greatest modal depth of them all;
``compile_program`` records both.

Which subformulas need a witness follows from polarity.  The target
occurs positively and each premise negatively.  A negation and an
implication's antecedent flip the polarity of their operand, both
operands of ``<->`` occur with both polarities, and every other operand
keeps its node's.  A smaller model is still a countermodel if every
subformula with a positive occurrence keeps its falsity and every one with
a negative occurrence keeps its truth: then the target still fails and
the premises still hold.  A box needs a witness only to stay false, a
diamond only to stay true, so a subformula is *witnessed* if it is a box
with a positive occurrence or a diamond with a negative one, and m counts
those.  Dropping the witness of a box that occurs only negatively can only
turn it from false to true, and that of a diamond that occurs only
positively from true to false; either way the target stays false.

Universal and kripke-equiv: m + 1 worlds, premises allowed.  Take a
universal countermodel: the premises hold at every world and the target
fails at world w.  Keep w and, for each witnessed subformula, one witness
if there is one: a world where A fails for ``[]A``, where A holds for
``<>A`` (S5 selection; Blackburn, de Rijke & Venema, *Modal Logic*, 2001,
ch. 6).  By induction on subformulas, at every kept world a subformula
with a positive occurrence keeps its falsity and one with a negative
occurrence keeps its truth.  For ``[]A`` with a positive occurrence, false
in the model, its witness stayed and A, positive there too, still fails
at it; for ``[]A`` with a negative occurrence, true in the model, A holds
at every world, so at every kept one; diamonds likewise, the other way
round.  The premises are negative, so they hold at every kept world; the
target is positive, so it still fails at w.  So the kept worlds, at most
m + 1, are a countermodel too.  A kripke-equiv countermodel reduces to a
universal one: the cluster of w, its equivalence class, is a generated
submodel, so every formula keeps its truth value at its worlds, the
premises hold throughout it and the target still fails at w.  Its relation
is full, so S5 selection on it keeps a universal countermodel of at most
m + 1 worlds, and a full relation is an equivalence.

Constrained and kripke-all: Σ_{i≤d} mⁱ worlds, without premises.
A constrained structure is a reflexive Kripke frame, each world's core
its successors (C7), so both are classes of all frames of a kind: all
frames, and all reflexive frames.  Take a countermodel whose target fails
at w, and unravel it from w into a tree of depth d (Blackburn, de Rijke &
Venema, ch. 2).  The root copies w.  A node at depth i < d copying u gets,
for each witnessed subformula, one child copying a witness among u's
successors if there is one.  For reflexive frames every node also gets a
loop.  By induction on subformulas, a node at depth i keeps, for every
subformula of modal depth at most d − i, the falsity of one with a
positive occurrence and the truth of one with a negative occurrence that
it has at the world it copies: a node's successors copy successors of
that world, and a witnessed one's witness is among them.  So the tree, of
at most Σ_{i≤d} mⁱ nodes, is a countermodel in the class.  This fails for
global consequence: the premises must hold at every node, and a premise
such as ``p0 -> <>p0`` forces chains longer than d.

Every other search, constrained and kripke-all with premises and raw with
or without: the filtration count T.  Let Σ be the subformulas of the
premises and the target.  Its letters are its atoms and its distinct
modal subformulas: the truth of every formula of Σ at a world follows, by
the connectives alone, from that of its letters.  Take a countermodel and
merge the worlds that agree on every letter.  The smallest filtration
through Σ relates a class to another if some member of the first is
related to some member of the second (Blackburn, de Rijke & Venema,
§2.3); on neighbourhood models, a class's family holds the truth set of
A, merged, for each ``[]A`` of Σ true at its members (Chellas, *Modal
Logic*, 1980, ch. 7; Segerberg, *An Essay in Classical Modal Logic*,
1971).  Every formula of Σ keeps its truth at every class, so the premises
hold everywhere and the target still fails.  The smallest filtration of a
reflexive frame is reflexive, and a raw family is any family, so the
filtration stays in its class.  Its classes are distinct letter
assignments, each realised at a world where the premises hold and, on a
reflexive frame, every ``[]A -> A`` and ``A -> <>A`` of Σ as well.  So
the first countermodel has at most T worlds, T the count of such
assignments with each modal subformula read as a letter, and none exists
if no counted assignment falsifies the target: then T is 0.  The kernel
cuts at T wherever the class gives no bound, so only constrained, of the
reflexive classes, ever has T worked out, and only there does
``filtration_count`` impose the reflexive constraint.  It works T out in
one bit-sliced evaluation, only once a one-world scan found no
countermodel.
"""

from __future__ import annotations

from collections import namedtuple
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
    Dialect,
    DialectError,
    Formula,
    InputError,
    Record,
    parse,
    render,
    require_dialect,
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
    # a constrained world's structure is its core; its family is the core's supersets
    families = tuple(tuple(x for x in range(1 << n) if x & core == core) for core in struct)
    return NeighborhoodModel(n, families, valuation)


def _check_conditions(model: Model) -> None:
    if not nm_check_conditions(model).all_hold:
        raise SearchInternalError("countermodel violates the (c)(h)(t)(n) conditions")


def _check_equivalence(model: Model) -> None:
    if not relation_properties(model).equivalence:
        raise SearchInternalError("countermodel relation is not an equivalence")


def _draw_partition(rng, n: int) -> tuple[int, ...]:
    blocks = [rng.randrange(n) for _ in range(n)]
    return tuple(sum(1 << z for z in range(n) if blocks[z] == blocks[w]) for w in range(n))


def _selection_bound(m: int, d: int, premises: bool) -> int:
    """S5 selection: one world and a witness per modal subformula."""
    return m + 1


def _tree_bound(m: int, d: int, premises: bool) -> int | None:
    """A tree of depth d and branching m, without premises only."""
    return None if premises else sum(m ** i for i in range(d + 1))


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
    ``world_bound(m, d, premises)``, worlds enough for the first
    countermodel given m distinct witnessed modal subformulas (boxes with a
    positive occurrence, diamonds with a negative one) and modal depth at
    most d, or None where it has none.  The last two are None where a
    class has none.

    The module docstring gives the world bounds' arguments.  Universal and
    kripke-equiv are cut at m + 1 worlds by S5 selection, premises or not.
    Constrained and kripke-all are cut at Σ_{i≤d} mⁱ worlds by the tree
    model, reflexive loops added for constrained, only without premises.
    Where no bound applies, with premises there and always on raw, the
    kernel stops at the filtration count of the search's letters instead,
    with the reflexive constraint on constrained only.
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
                                _check_conditions, _tree_bound)
    KRIPKE_EQUIVALENCE = ("kripke-equiv", _kernel_py.CLASS_KRIPKE_EQUIV, 4, Dialect.S5, KripkeModel,
                          _draw_partition, _check_equivalence, _selection_bound)
    KRIPKE_ALL = ("kripke-all", _kernel_py.CLASS_KRIPKE_ALL, 4, Dialect.S5, KripkeModel,
                  lambda rng, n: tuple(rng.randrange(1 << n) for _ in range(n)), None, _tree_bound)
    # the Kripke frames whose every row is full
    UNIVERSAL = ("universal", _kernel_py.CLASS_UNIVERSAL, 10, Dialect.S5,
                 lambda n, struct, valuation: UniversalModel(n, valuation),
                 lambda rng, n: ((1 << n) - 1,) * n, None, _selection_bound)


# Random search draws at most this many samples: each costs tens of
# microseconds, so the bound is a few seconds of work.
MAX_SAMPLES = 100_000


class SearchBounds(Record, namedtuple("SearchBounds", "model_class max_worlds atoms")):
    """What a search enumerates: models of ``model_class`` on 1 to
    ``max_worlds`` worlds, valuations over the ascending ``atoms``."""

    __slots__ = ()

    def __new__(cls, model_class: ModelClass, max_worlds: int, atoms=()):
        if max_worlds < 1:
            raise BoundsExceededError("max_worlds must be at least 1")
        if max_worlds > model_class.cap:
            raise BoundsExceededError(f"{model_class.value} enumeration is capped at {model_class.cap} worlds")
        atoms = tuple(sorted(set(atoms)))
        if atoms and atoms[0] < 0:
            raise InputError("atom indices must be non-negative")
        return tuple.__new__(cls, (model_class, max_worlds, atoms))

    def to_data(self) -> dict:
        return {"max_worlds": self.max_worlds, "atoms": list(self.atoms)}


class Verdict(Enum):
    COUNTERMODEL_FOUND = "CountermodelFound"
    EXHAUSTED_VALID = "ExhaustedValid"
    INCONCLUSIVE = "Inconclusive"


class SearchOutcome(Record, namedtuple("SearchOutcome", "verdict models_checked countermodel world",
                                       defaults=(None, None))):
    """A search's verdict after ``models_checked`` models; a countermodel
    comes with the world where the formula fails."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Formula compilation


def compile_program(
    f: Formula,
    atom_slots: dict[int, int],
    modal: dict | None = None,
    witnessed: set | None = None,
    premise: bool = False,
) -> list[int]:
    """Flatten a formula into the kernel's postfix opcode list.

    Each node's opcode is its tag, and its argument is 0, except an atom's:
    the atom's slot in ``atom_slots``.  An atom without a slot (outside the
    search bounds) denotes the empty set, so it compiles to bottom.  A node
    tagged above ``OP_DIA``, a nabla, raises ``DialectError`` before its
    operand compiles: the message names the leftmost outermost one.  Each
    distinct box or diamond subformula is recorded in ``modal``, if given,
    with its modal depth, and in ``witnessed``, if given, when it needs a
    witness world: a box with a positive occurrence or a diamond with a
    negative one (see the module docstring).  ``f`` occurs positively, as a
    target does, or negatively if it is a ``premise``.
    """
    prog: list[int] = []
    _compile(f, atom_slots, prog, modal, witnessed, _NEG if premise else _POS)
    return prog


# An occurrence's polarity is a bit mask: _POS, _NEG, or both.  _TURNS maps a
# node's tag to one table per operand, which maps the node's polarity to the
# operand's: a negation and an implication's antecedent flip it, both
# operands of <-> take both, and every other operand keeps it.
_POS, _NEG = 1, 2
_KEEP, _FLIP, _BOTH = (0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 3, 3)
_TURNS = {
    _kernel_py.OP_TOP: (), _kernel_py.OP_BOT: (), _kernel_py.OP_NOT: (_FLIP,),
    _kernel_py.OP_AND: (_KEEP, _KEEP), _kernel_py.OP_OR: (_KEEP, _KEEP),
    _kernel_py.OP_IMP: (_FLIP, _KEEP), _kernel_py.OP_IFF: (_BOTH, _BOTH),
    _kernel_py.OP_BOX: (_KEEP,), _kernel_py.OP_DIA: (_KEEP,),
}


def _compile(
    f: Formula, atom_slots: dict[int, int], prog: list[int], modal: dict | None, witnessed: set | None, polarity: int
) -> int:
    """Compile ``f``, occurring at ``polarity``, onto ``prog``; returns its
    modal depth."""
    tag = f[0]
    if tag == _kernel_py.OP_ATOM:
        slot = atom_slots.get(f[1])
        prog.extend((_kernel_py.OP_BOT, 0) if slot is None else (tag, slot))
        return 0
    if tag > _kernel_py.OP_DIA:
        raise DialectError(f"cannot compile {render(f)} for model search")
    turns = _TURNS[tag]
    depth = 0
    if turns:
        depth = _compile(f[1], atom_slots, prog, modal, witnessed, turns[0][polarity])
        if len(turns) == 2:
            d = _compile(f[2], atom_slots, prog, modal, witnessed, turns[1][polarity])
            if d > depth:
                depth = d
    prog.extend((tag, 0))
    if tag >= _kernel_py.OP_BOX:
        depth += 1
        if modal is not None:
            modal[f] = depth
        # a box needs a witness to stay false, a diamond to stay true
        if witnessed is not None and polarity & (_POS if tag == _kernel_py.OP_BOX else _NEG):
            witnessed.add(f)
    return depth


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
    modal: dict[Formula, int] = {}
    witnessed: set[Formula] = set()
    programs = [compile_program(g, slots, modal, witnessed, premise=True) for g in gamma]
    programs.append(compile_program(f, slots, modal, witnessed))
    # A search stops at its class's world bound: the first countermodel lies
    # within it, and the kernel counts the models past it.  Where the class
    # gives none, the kernel stops at the filtration count instead.
    bound = mc.world_bound and mc.world_bound(len(witnessed), max(modal.values(), default=0), bool(gamma))
    found, checked, n, struct, vmasks, world = _ACTIVE.run_search(
        mc.kernel_id, bound, len(bounds.atoms), programs, bounds.max_worlds
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
        raise InputError("the K experiment runs on the constrained neighborhood class")
    return find_countermodel(K_FORMULA, bounds)


def sample_countermodel(
    f: Formula, bounds: SearchBounds, samples: int, seed: int
) -> SearchOutcome:
    """Seeded random search within ``bounds`` (so the class's cap applies).
    Returns the first falsifying sample or ``Inconclusive`` after ``samples``
    draws, of which there are at most ``MAX_SAMPLES``."""
    if samples < 1:
        raise InputError(f"samples must be at least 1, got {samples}")
    if samples > MAX_SAMPLES:
        raise BoundsExceededError(f"samples are capped at {MAX_SAMPLES}, got {samples}")
    mc = bounds.model_class
    require_dialect(f, mc.dialect)
    # imported here, so that a command that samples nothing never loads it
    import random

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
