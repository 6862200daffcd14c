"""Finite models and truth evaluation.

Three model families are supported: neighborhood models (box quantifies
over a per-world family of world-sets), Kripke models (box quantifies over
an accessibility relation), and universal models (box quantifies over all
worlds).  Worlds are dense integers ``0..n-1`` and world-sets are bitmasks,
which keeps set algebra fast and serialization canonical.

Each model supplies its own modality as ``box(ts)`` and ``diamond(ts)``,
maps from the truth set of an operand to the truth set of the modal
formula, so one truth function, ``truth_mask``, serves every model.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping

from .syntax import (
    And,
    Atom,
    Bottom,
    Box,
    Diamond,
    DialectError,
    Formula,
    Iff,
    Implies,
    InputError,
    Not,
    Or,
    Record,
    Top,
    render,
)


class ModelFormatError(InputError):
    """Malformed model data (bad JSON shape, out-of-range worlds, ...)."""


class WorldRangeError(InputError):
    """A world index outside ``0..worlds-1`` was used."""


class BoundsExceededError(InputError):
    """Requested bounds exceed the documented per-class caps."""


# What grows fastest with the world count n is (c), which visits the
# |S(w)|² pairs of members at each world, and supplement, which tests each
# of the 2^n world-sets against them.  At 10 worlds, checking families that
# hold every world-set takes about 0.6 s and supplementing at most 0.2 s.
MAX_CONDITION_WORLDS = 10

# A model file may declare at most this many worlds.  Reading one builds a
# family or a row per world and evaluation visits every world, so the count
# sets the work; search finds countermodels of at most 10 worlds.
MAX_MODEL_WORLDS = 1024


def mask_of(worlds: Iterable[int], n: int) -> int:
    """Bitmask for a set of world indices, validated against ``n`` worlds."""
    mask = 0
    for w in worlds:
        if not 0 <= w < n:
            raise ModelFormatError(f"world {w} out of range for {n} worlds")
        mask |= 1 << w
    return mask


def worlds_of(mask: int) -> tuple[int, ...]:
    """Ascending world indices of a bitmask."""
    return tuple(w for w in range(mask.bit_length()) if (mask >> w) & 1)


def _check_world(n: int, w: int) -> None:
    if not 0 <= w < n:
        raise WorldRangeError(f"world {w} out of range for {n} worlds")


def _normalize_valuation(worlds: int, valuation) -> tuple[tuple[int, int], ...]:
    """A model's valuation as ascending pairs, once its world count is checked."""
    if worlds < 1:
        raise ModelFormatError("a model needs at least one world")
    full = (1 << worlds) - 1
    pairs = sorted(dict(valuation).items())
    for atom, mask in pairs:
        if atom < 0:
            raise ModelFormatError(f"negative atom index {atom}")
        if mask & ~full:
            raise ModelFormatError(f"valuation of p{atom} exceeds the world universe")
    return tuple(pairs)


def _valuation_of(v: Mapping[int, Iterable[int]] | None, worlds: int) -> tuple[tuple[int, int], ...]:
    return tuple((a, mask_of(ws, worlds)) for a, ws in (v or {}).items())


def _valuation_to_data(valuation: tuple[tuple[int, int], ...]) -> dict:
    return {f"p{atom}": list(worlds_of(mask)) for atom, mask in valuation}


def _int_list(value, what: str) -> list[int]:
    # bool is a subclass of int, but true is not a world index
    if not (isinstance(value, list)
            and all(isinstance(x, int) and not isinstance(x, bool) for x in value)):
        raise ModelFormatError(f"{what} must be an array of integers")
    return value


def _valuation_from_data(data) -> dict[int, list[int]]:
    if not isinstance(data, dict):
        raise ModelFormatError('"V" must be an object mapping atoms to world arrays')
    atoms = {}
    for key, members in data.items():
        # ASCII digits only, as in formula text: str.isdigit also admits
        # other scripts' digits and superscripts
        if not (isinstance(key, str) and key.startswith("p") and key[1:].isdigit() and key.isascii()):
            raise ModelFormatError(f"bad atom name {key!r}")
        try:
            atom = int(key[1:])
        except ValueError:  # more digits than int() converts
            raise ModelFormatError(
                f"bad atom name: atom index of {len(key) - 1} digits is too long"
            ) from None
        if atom in atoms:
            raise ModelFormatError(f"atom {key!r} repeats p{atom}")
        atoms[atom] = _int_list(members, f'"V" entry {key!r}')
    return atoms


class _BaseModel(Record):
    """What every model shares: ``worlds`` dense worlds and a valuation,
    ascending ``(atom, bitmask)`` pairs; atoms not listed are false everywhere."""

    __slots__ = ()

    @property
    def full_mask(self) -> int:
        return (1 << self.worlds) - 1

    def atom_mask(self, atom: int) -> int:
        for a, mask in self.valuation:
            if a == atom:
                return mask
        return 0


class NeighborhoodModel(_BaseModel, namedtuple("NeighborhoodModel", "worlds families valuation")):
    """Model ``(worlds, families, valuation)`` where ``families[w]`` is the
    ascending tuple of neighborhood bitmasks of world ``w``."""

    __slots__ = ()

    def __new__(cls, worlds: int, families: tuple[tuple[int, ...], ...], valuation=()):
        valuation = _normalize_valuation(worlds, valuation)
        if len(families) != worlds:
            raise ModelFormatError("one neighborhood family per world is required")
        full = (1 << worlds) - 1
        checked = []
        for fam in families:
            fam = tuple(sorted(set(fam)))
            if fam and (fam[0] < 0 or fam[-1] & ~full):
                raise ModelFormatError("neighborhood outside the world universe")
            checked.append(fam)
        return tuple.__new__(cls, (worlds, tuple(checked), valuation))

    def box(self, ts: int) -> int:
        """Worlds whose neighborhood family contains the truth set ``ts``."""
        out = 0
        for w in range(self.worlds):
            if ts in self.families[w]:
                out |= 1 << w
        return out

    def diamond(self, ts: int) -> int:
        raise DialectError("diamond is not interpreted in neighborhood models")

    @classmethod
    def from_sets(cls, worlds: int, s: Mapping[int, Iterable[Iterable[int]]],
                  v: Mapping[int, Iterable[int]] | None = None) -> "NeighborhoodModel":
        families = tuple(
            tuple(mask_of(x, worlds) for x in s.get(w, ())) for w in range(worlds)
        )
        return cls(worlds, families, _valuation_of(v, worlds))

    def to_data(self) -> dict:
        return {
            "worlds": self.worlds,
            "S": {
                str(w): [list(worlds_of(x)) for x in self.families[w]]
                for w in range(self.worlds)
            },
            "V": _valuation_to_data(self.valuation),
        }

    @classmethod
    def from_data(cls, data: dict) -> "NeighborhoodModel":
        worlds = _read_worlds(data, "S")
        s = data.get("S")
        if not isinstance(s, dict):
            raise ModelFormatError('neighborhood model requires an "S" object')
        extra = s.keys() - {str(w) for w in range(worlds)}
        if extra:
            raise ModelFormatError(f'"S" keys that name no world: {", ".join(sorted(extra))}')
        families = {}
        for w in range(worlds):
            fam = s.get(str(w), [])
            if not isinstance(fam, list):
                raise ModelFormatError(f'"S" entry for world {w} must be an array of arrays')
            families[w] = [_int_list(x, f'a neighborhood of world {w}') for x in fam]
        return cls.from_sets(worlds, families, _valuation_from_data(data.get("V", {})))


class KripkeModel(_BaseModel, namedtuple("KripkeModel", "worlds rows valuation")):
    """Model ``(worlds, rows, valuation)``; ``rows[w]`` is the bitmask of
    worlds accessible from ``w``."""

    __slots__ = ()

    def __new__(cls, worlds: int, rows: tuple[int, ...], valuation=()):
        valuation = _normalize_valuation(worlds, valuation)
        if len(rows) != worlds:
            raise ModelFormatError("one accessibility row per world is required")
        full = (1 << worlds) - 1
        for row in rows:
            if row < 0 or row & ~full:
                raise ModelFormatError("accessibility row outside the world universe")
        return tuple.__new__(cls, (worlds, rows, valuation))

    def box(self, ts: int) -> int:
        """Worlds all of whose successors lie in ``ts``."""
        out = 0
        for w in range(self.worlds):
            if self.rows[w] & ~ts == 0:
                out |= 1 << w
        return out

    def diamond(self, ts: int) -> int:
        """Worlds with a successor in ``ts``."""
        out = 0
        for w in range(self.worlds):
            if self.rows[w] & ts:
                out |= 1 << w
        return out

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (w, z) for w in range(self.worlds) for z in worlds_of(self.rows[w])
        )

    @classmethod
    def from_pairs(cls, worlds: int, pairs: Iterable[tuple[int, int]],
                   v: Mapping[int, Iterable[int]] | None = None) -> "KripkeModel":
        rows = [0] * worlds
        for w, z in pairs:
            if not (0 <= w < worlds and 0 <= z < worlds):
                raise ModelFormatError(f"relation pair ({w}, {z}) out of range")
            rows[w] |= 1 << z
        return cls(worlds, tuple(rows), _valuation_of(v, worlds))

    def to_data(self) -> dict:
        return {
            "worlds": self.worlds,
            "R": [list(p) for p in self.pairs()],
            "V": _valuation_to_data(self.valuation),
        }

    @classmethod
    def from_data(cls, data: dict) -> "KripkeModel":
        worlds = _read_worlds(data, "R")
        r = data.get("R")
        if not isinstance(r, list):
            raise ModelFormatError('Kripke model requires an "R" array of pairs')
        for item in r:
            if len(_int_list(item, f'"R" entry {item!r}')) != 2:
                raise ModelFormatError(f'bad "R" entry {item!r}')
        return cls.from_pairs(worlds, r, _valuation_from_data(data.get("V", {})))


class UniversalModel(_BaseModel, namedtuple("UniversalModel", "worlds valuation")):
    """Model where box and diamond quantify over all worlds."""

    __slots__ = ()

    def __new__(cls, worlds: int, valuation=()):
        return tuple.__new__(cls, (worlds, _normalize_valuation(worlds, valuation)))

    def box(self, ts: int) -> int:
        full = self.full_mask
        return full if ts == full else 0

    def diamond(self, ts: int) -> int:
        return self.full_mask if ts else 0

    @classmethod
    def from_sets(cls, worlds: int, v: Mapping[int, Iterable[int]] | None = None) -> "UniversalModel":
        return cls(worlds, _valuation_of(v, worlds))

    def to_data(self) -> dict:
        return {"worlds": self.worlds, "V": _valuation_to_data(self.valuation)}

    @classmethod
    def from_data(cls, data: dict) -> "UniversalModel":
        worlds = _read_worlds(data)
        return cls.from_sets(worlds, _valuation_from_data(data.get("V", {})))


Model = NeighborhoodModel | KripkeModel | UniversalModel


def _read_worlds(data, *structure: str) -> int:
    """World count of model data whose only keys are ``worlds``, ``V`` and
    the ``structure`` keys of its class."""
    if not isinstance(data, dict):
        raise ModelFormatError("model file must contain a JSON object")
    extra = data.keys() - {"worlds", "V", *structure}
    if extra:
        raise ModelFormatError(f"unexpected model keys: {', '.join(sorted(extra))}")
    worlds = data.get("worlds")
    # bool is a subclass of int, but "worlds": true is not a world count
    if not isinstance(worlds, int) or isinstance(worlds, bool) or worlds < 1:
        raise ModelFormatError('"worlds" must be a positive integer')
    if worlds > MAX_MODEL_WORLDS:
        raise BoundsExceededError(f"model files declare at most {MAX_MODEL_WORLDS} worlds, got {worlds}")
    return worlds


def model_from_data(data: dict) -> Model:
    """Build the right model type from JSON data: ``S`` selects neighborhood
    models, ``R`` Kripke models, neither a universal model."""
    if isinstance(data, dict) and "S" in data:
        return NeighborhoodModel.from_data(data)
    if isinstance(data, dict) and "R" in data:
        return KripkeModel.from_data(data)
    return UniversalModel.from_data(data)


# ---------------------------------------------------------------------------
# Truth evaluation


def truth_mask(m: Model, f: Formula) -> int:
    """Truth set of ``f`` in ``m`` as a bitmask; the model interprets box
    and diamond."""
    match f:
        case Atom(i):
            return m.atom_mask(i)
        case Top():
            return m.full_mask
        case Bottom():
            return 0
        case Not(g):
            return m.full_mask ^ truth_mask(m, g)
        case And(l, r):
            return truth_mask(m, l) & truth_mask(m, r)
        case Or(l, r):
            return truth_mask(m, l) | truth_mask(m, r)
        case Implies(l, r):
            return (m.full_mask ^ truth_mask(m, l)) | truth_mask(m, r)
        case Iff(l, r):
            return m.full_mask ^ truth_mask(m, l) ^ truth_mask(m, r)
        case Box(g):
            return m.box(truth_mask(m, g))
        case Diamond(g):
            return m.diamond(truth_mask(m, g))
        case _:
            raise DialectError(f"operator not supported by this model class: {render(f)}")


def eval_model(m: Model, w: int, f: Formula) -> bool:
    _check_world(m.worlds, w)
    return bool((truth_mask(m, f) >> w) & 1)


def is_valid_in(m: Model, f: Formula) -> bool:
    return truth_mask(m, f) == m.full_mask


# ---------------------------------------------------------------------------
# Frame conditions, supplementation, relation properties


class Witnesses(Record):
    """Base of the reports of checked laws: each field, named
    ``<law>_witness``, is the first witness found against that law, and the
    law holds iff its witness is None.  One record thus cannot claim a law
    and a counterexample to it at once.  A witness may be 0, a world or an
    element, so only ``is None`` reads it."""

    __slots__ = ()

    @property
    def all_hold(self) -> bool:
        return self.count(None) == len(self)

    def holds(self) -> dict[str, bool]:
        """Each law's name mapped to whether it holds, in field order:
        ``c_witness`` gives ``"c"``."""
        return {name.removesuffix("_witness"): w is None for name, w in zip(self._fields, self)}


class ConditionReport(Witnesses, namedtuple("ConditionReport", "c_witness h_witness t_witness n_witness",
                                            defaults=(None,) * 4)):
    """The four neighborhood conditions, each by its first witness (witness
    sets are world bitmasks).  ``c_witness`` is ``(world, X, Y)`` with X∩Y
    missing, ``h_witness`` the same with X∪Y missing, ``t_witness``
    ``(world, X)`` with the world not in X, and ``n_witness`` a world whose
    family misses W."""

    __slots__ = ()

    @property
    def chn_hold(self) -> bool:
        """(c), (h) and (n): on finitely many worlds, each family is a
        principal filter."""
        return self.c_witness is None and self.h_witness is None and self.n_witness is None

    def to_data(self) -> dict:
        failures: dict = {}
        if self.c_witness is not None:
            w, x, y = self.c_witness
            failures["c"] = {"world": w, "X": list(worlds_of(x)), "Y": list(worlds_of(y))}
        if self.h_witness is not None:
            w, x, y = self.h_witness
            failures["h"] = {"world": w, "X": list(worlds_of(x)), "Y": list(worlds_of(y))}
        if self.t_witness is not None:
            w, x = self.t_witness
            failures["t"] = {"world": w, "X": list(worlds_of(x))}
        if self.n_witness is not None:
            failures["n"] = {"world": self.n_witness}
        return {**self.holds(), "failures": failures}


def _require_condition_bound(worlds: int) -> None:
    if worlds > MAX_CONDITION_WORLDS:
        raise BoundsExceededError(
            f"neighborhood conditions are checked on at most {MAX_CONDITION_WORLDS} worlds"
        )


def _c_witness(family: tuple[int, ...], fam: set[int], w: int):
    """The first members X, Y whose intersection is not a member."""
    for x in family:
        for y in family:
            if x & y not in fam:
                return (w, x, y)
    return None


def _upward_closed(family: tuple[int, ...], fam: set[int], worlds: int) -> bool:
    for x in family:
        for z in range(worlds):
            if x | 1 << z not in fam:
                return False
    return True


def _h_witness(family: tuple[int, ...], fam: set[int], w: int, full: int):
    """The first X, Y of the literal (h) scan, over all world-sets, with X
    or Y a member and X∪Y not; with X outside the family, only a member Y
    can be one."""
    for x in range(full + 1):
        for y in range(full + 1) if x in fam else family:
            if x | y not in fam:
                return (w, x, y)


def world_conditions(family: tuple[int, ...], w: int, worlds: int) -> ConditionReport:
    """Check (c), (h), (t), (n) at world ``w`` of a ``worlds``-world model
    whose family there is the ascending tuple ``family``.

    (h) is stated for arbitrary subsets X, Y of the universe: membership of
    either in S(w) forces membership of X∪Y.  That is upward closure, so it
    is decided by adding one world to each member, |S(w)|·n lookups; only a
    family that fails it is scanned for the first witness of the literal
    reading.
    """
    _require_condition_bound(worlds)
    full = (1 << worlds) - 1
    fam = set(family)
    return ConditionReport(
        _c_witness(family, fam, w),
        None if _upward_closed(family, fam, worlds) else _h_witness(family, fam, w, full),
        next(((w, x) for x in family if not x >> w & 1), None),
        None if full in fam else w,
    )


def nm_check_conditions(m: NeighborhoodModel) -> ConditionReport:
    """Check conditions (c), (h), (t), (n) at every world (see
    :func:`world_conditions`); each witness is the first over the worlds."""
    found = [None] * 4
    for w, family in enumerate(m.families):
        at_w = world_conditions(family, w, m.worlds)
        found = [x if x is not None else y for x, y in zip(found, at_w)]
    return ConditionReport(*found)


def supplement(m: NeighborhoodModel) -> NeighborhoodModel:
    """Close every family under supersets: S'(w) = {X : some Y in S(w), Y ⊆ X}."""
    _require_condition_bound(m.worlds)
    full = m.full_mask
    families = []
    for w in range(m.worlds):
        fam = m.families[w]
        closed = tuple(
            x for x in range(full + 1) if any(y & ~x == 0 for y in fam)
        )
        families.append(closed)
    return NeighborhoodModel(m.worlds, tuple(families), m.valuation)


class RelationProperties(Record, namedtuple("RelationProperties",
                                            "reflexive euclidean symmetric transitive equivalence")):
    __slots__ = ()


def relation_properties(m: KripkeModel) -> RelationProperties:
    """Exhaustive check of relation properties.

    ``equivalence`` means reflexive and euclidean (which over non-empty
    frames coincides with the classical three-property definition).
    """
    n = m.worlds
    rows = m.rows
    reflexive = all((rows[w] >> w) & 1 for w in range(n))
    euclidean = all(
        rows[b] & rows[a] == rows[a]
        for a in range(n)
        for b in worlds_of(rows[a])
    )
    symmetric = all(
        (rows[b] >> a) & 1 for a in range(n) for b in worlds_of(rows[a])
    )
    transitive = all(
        rows[a] & rows[b] == rows[b]
        for a in range(n)
        for b in worlds_of(rows[a])
    )
    return RelationProperties(reflexive, euclidean, symmetric, transitive, reflexive and euclidean)
