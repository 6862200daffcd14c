"""Formula ASTs, the concrete grammar, schema matching, and dialect translation.

Grammar (ASCII): atoms ``p0 p1 ...``; constants ``true``/``false``; unary
prefixes ``~`` (not), ``[]`` (box), ``<>`` (diamond), ``nabla``; binary
``&``, ``|``, ``->``, ``<->``.  Precedence, high to low: unary, ``&``,
``|``, ``->``, ``<->``.  Both arrows associate to the right, ``&`` and
``|`` to the left.  Whitespace is ignored.  Every unary prefix, opening
parenthesis and binary operator opens a nesting level, which stays open to
the end of its operand (for ``&`` and ``|``, to the end of the chain).  A
formula may nest at most ``MAX_NESTING`` unary prefixes and parentheses,
and at most ``MAX_DEPTH`` levels in all.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from itertools import islice


class FormulaSyntaxError(ValueError):
    """Malformed formula text; carries the offending column."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at column {position})")
        self.position = position


class DialectError(ValueError):
    """A formula uses modal operators outside the admitted dialect."""


class UnboundMetavariableError(ValueError):
    """A schema instantiation is missing a binding for some metavariable."""


class Formula:
    """Base class for formula nodes.

    Instances are immutable and hashable; equality is structural and is the
    notion of formula identity used throughout the package.
    """

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError(f"atom index must be non-negative, got {self.index}")


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Box(Formula):
    operand: Formula


@dataclass(frozen=True)
class Diamond(Formula):
    operand: Formula


@dataclass(frozen=True)
class Nabla(Formula):
    operand: Formula


TOP = Top()
BOTTOM = Bottom()

_UNARY = (Not, Box, Diamond, Nabla)
_BINARY = (And, Or, Implies, Iff)
_MODAL = (Box, Diamond, Nabla)


class Dialect(Enum):
    """Operator vocabulary a formula is allowed to use."""

    CLASSICAL = "Classical"
    S5 = "S5"
    NABLA = "NablaSystem"
    BOX = "BoxSystem"


_DIALECT_OPS: dict[Dialect, frozenset[type]] = {
    Dialect.CLASSICAL: frozenset(),
    Dialect.S5: frozenset({Box, Diamond}),
    Dialect.NABLA: frozenset({Nabla}),
    Dialect.BOX: frozenset({Box}),
}


# ---------------------------------------------------------------------------
# Lexing and parsing


# Bound the parser's recursion, and the recursion of every later walk over
# the tree, far below the interpreter's limit.  A parenthesis costs the
# parser six frames, so prefixes and parentheses get the tighter bound; a
# binary operator costs it at most one frame and the tree one level.  The
# perfbench workloads (seeds 1, 11, 2027) reach 20 levels.
MAX_NESTING = 100  # unary prefixes and parentheses
MAX_DEPTH = 300  # all levels, binary operators included

# The one lexer: operators, words, and any other single character that is
# not blank, which the lexical check then rejects.
_LEXEME_RE = re.compile(r"<->|<>|\[\]|->|[~&|()]|[A-Za-z][A-Za-z0-9]*|[^ \t\r\n]")
_PREFIX = {"~": Not, "[]": Box, "<>": Diamond, "nabla": Nabla}
_OPERATORS = frozenset(("<->", "->", "&", "|", "(", ")", *_PREFIX))
_END = ""  # follows the last lexeme; no lexeme is empty


def _column(text: str, index: int) -> int:
    """Column of lexeme number ``index`` of ``text``, or ``len(text)`` past
    the last one.  Only errors need columns, so only errors pay for them."""
    m = next(islice(_LEXEME_RE.finditer(text), index, None), None)
    return len(text) if m is None else m.start()


def _lex(text: str, metavariables: bool) -> tuple[list[str], dict[str, Formula]]:
    """Split ``text`` into lexemes followed by ``_END``, and map every word
    that is a formula to it: ``true``, ``false``, and the atoms ``pN`` or, in
    a schema, the metavariables ``A``-``Z``.  Raises the first lexical error
    in the text."""
    lexemes = _LEXEME_RE.findall(text)
    leaves: dict[str, Formula] = {"true": TOP, "false": BOTTOM}
    for i, lx in enumerate(lexemes):
        if lx in _OPERATORS or lx in leaves:
            continue
        if not (lx[0].isalpha() and lx.isascii()):  # not a word: one stray character
            raise FormulaSyntaxError(f"unexpected character {lx!r}", _column(text, i))
        if metavariables:
            if len(lx) == 1 and lx.isupper():
                leaves[lx] = Atom(ord(lx) - ord("A"))
                continue
        elif lx[0] == "p" and lx[1:].isdigit():
            try:
                leaves[lx] = Atom(int(lx[1:]))
            except ValueError:  # more digits than int() converts
                raise FormulaSyntaxError(
                    f"atom index of {len(lx) - 1} digits is too long", _column(text, i)
                ) from None
            continue
        raise FormulaSyntaxError(f"unknown identifier {lx!r}", _column(text, i))
    lexemes.append(_END)
    return lexemes, leaves


class _Parser:
    def __init__(self, text: str, metavariables: bool):
        self.text = text
        self.lexemes, self.leaves = _lex(text, metavariables)
        self.i = 0
        self.depth = 0
        self.nesting = 0

    def error(self, message: str) -> FormulaSyntaxError:
        return FormulaSyntaxError(message, _column(self.text, self.i))

    def found(self) -> str:
        """The kind of the current lexeme, as error messages name it."""
        lx = self.lexemes[self.i]
        if lx == _END:
            return "end"
        return "atom" if isinstance(self.leaves.get(lx), Atom) else lx

    def enter(self, prefix: bool = False) -> None:
        """Open one nesting level at the current lexeme, a unary prefix or an
        opening parenthesis if ``prefix``, and step past it; the caller
        closes the level with ``leave``."""
        if prefix and self.nesting == MAX_NESTING:
            raise self.error(f"formula nests deeper than {MAX_NESTING} unary prefixes and parentheses")
        if self.depth == MAX_DEPTH:
            raise self.error(f"formula nests deeper than {MAX_DEPTH} levels")
        self.depth += 1
        self.nesting += prefix
        self.i += 1

    def leave(self, prefix: bool = False) -> None:
        self.depth -= 1
        self.nesting -= prefix

    def parse(self) -> Formula:
        f = self.iff()
        if self.lexemes[self.i] != _END:
            raise self.error(f"unexpected trailing {self.found()!r}")
        return f

    def iff(self) -> Formula:
        left = self.implies()
        if self.lexemes[self.i] == "<->":
            self.enter()
            left = Iff(left, self.iff())
            self.leave()
        return left

    def implies(self) -> Formula:
        left = self.disjunction()
        if self.lexemes[self.i] == "->":
            self.enter()
            left = Implies(left, self.implies())
            self.leave()
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        outer = self.depth
        while self.lexemes[self.i] == "|":
            self.enter()
            left = Or(left, self.conjunction())
        self.depth = outer
        return left

    def conjunction(self) -> Formula:
        left = self.unary()
        outer = self.depth
        while self.lexemes[self.i] == "&":
            self.enter()
            left = And(left, self.unary())
        self.depth = outer
        return left

    def unary(self) -> Formula:
        op = _PREFIX.get(self.lexemes[self.i])
        if op is None:
            return self.atomic()
        self.enter(prefix=True)
        f = op(self.unary())
        self.leave(prefix=True)
        return f

    def atomic(self) -> Formula:
        lx = self.lexemes[self.i]
        leaf = self.leaves.get(lx)
        if leaf is not None:
            self.i += 1
            return leaf
        if lx == "(":
            self.enter(prefix=True)
            inner = self.iff()
            if self.lexemes[self.i] != ")":
                raise self.error(f"expected ')', found {self.found()!r}")
            self.i += 1
            self.leave(prefix=True)
            return inner
        raise self.error(f"expected a formula, found {self.found()!r}")


def parse(text: str) -> Formula:
    """Parse formula text into its unique AST under the declared precedence."""
    return _Parser(text, metavariables=False).parse()


# ---------------------------------------------------------------------------
# Rendering

_PREC_ATOM = 100
_PREC_UNARY = 90
_PREC_BIN = {And: 40, Or: 30, Implies: 20, Iff: 10}
_BIN_SIGIL = {And: "&", Or: "|", Implies: "->", Iff: "<->"}


def _prec(f: Formula) -> int:
    if isinstance(f, (Atom, Top, Bottom)):
        return _PREC_ATOM
    if isinstance(f, _UNARY):
        return _PREC_UNARY
    return _PREC_BIN[type(f)]


def _render(f: Formula, atom_name) -> str:
    if isinstance(f, Atom):
        return atom_name(f.index)
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, _UNARY):
        inner = _render(f.operand, atom_name)
        wrapped = f"({inner})" if _prec(f.operand) < _PREC_UNARY else inner
        if isinstance(f, Not):
            return "~" + wrapped
        if isinstance(f, Box):
            return "[]" + wrapped
        if isinstance(f, Diamond):
            return "<>" + wrapped
        # "nabla" is a word, so it needs a separator unless parentheses follow
        return "nabla" + wrapped if wrapped.startswith("(") else "nabla " + wrapped
    level = _PREC_BIN[type(f)]
    right_assoc = isinstance(f, (Implies, Iff))
    lp = _prec(f.left)
    rp = _prec(f.right)
    left = _render(f.left, atom_name)
    right = _render(f.right, atom_name)
    if lp < level or (right_assoc and lp == level):
        left = f"({left})"
    if rp < level or (not right_assoc and rp == level):
        right = f"({right})"
    return f"{left} {_BIN_SIGIL[type(f)]} {right}"


def render(f: Formula) -> str:
    """Render with minimal parentheses; ``parse(render(f))`` equals ``f``."""
    return _render(f, lambda i: f"p{i}")


# ---------------------------------------------------------------------------
# Schemas and matching


@dataclass(frozen=True)
class Schema:
    """A formula pattern whose atoms are read as metavariables (A=0, B=1, ...)."""

    pattern: Formula

    def metavariables(self) -> frozenset[int]:
        return atoms_of(self.pattern)


def parse_schema(text: str) -> Schema:
    """Parse schema text; the single uppercase letters ``A``-``Z`` are its
    metavariables, and it has no atoms ``pN``."""
    return Schema(_Parser(text, metavariables=True).parse())


def render_schema(s: Schema) -> str:
    return _render(s.pattern, lambda i: chr(ord("A") + i) if i < 26 else f"A{i}")


MetaBinding = dict[int, Formula]


def match_schema(s: Schema, f: Formula) -> MetaBinding | None:
    """First-order matching of ``f`` against ``s``.

    Returns the unique binding with ``instantiate(s, binding) == f``, or
    ``None`` when ``f`` is not an instance of the schema.
    """
    binding: MetaBinding = {}

    def walk(pat: Formula, tgt: Formula) -> bool:
        if isinstance(pat, Atom):
            bound = binding.get(pat.index)
            if bound is None:
                binding[pat.index] = tgt
                return True
            return bound == tgt
        if type(pat) is not type(tgt):
            return False
        if isinstance(pat, (Top, Bottom)):
            return True
        if isinstance(pat, _UNARY):
            return walk(pat.operand, tgt.operand)
        return walk(pat.left, tgt.left) and walk(pat.right, tgt.right)

    return binding if walk(s.pattern, f) else None


def instantiate(s: Schema, binding: MetaBinding) -> Formula:
    """Homomorphic substitution of ``binding`` into the schema pattern."""

    def walk(pat: Formula) -> Formula:
        if isinstance(pat, Atom):
            try:
                return binding[pat.index]
            except KeyError:
                name = chr(ord("A") + pat.index) if pat.index < 26 else str(pat.index)
                raise UnboundMetavariableError(f"metavariable {name} is unbound") from None
        if isinstance(pat, (Top, Bottom)):
            return pat
        if isinstance(pat, _UNARY):
            return type(pat)(walk(pat.operand))
        return type(pat)(walk(pat.left), walk(pat.right))

    return walk(s.pattern)


# ---------------------------------------------------------------------------
# Structural measures and dialects


def modal_depth(f: Formula) -> int:
    """Maximal nesting of modal operators; 0 iff the formula is classical."""
    match f:
        case Atom() | Top() | Bottom():
            return 0
        case Not(g):
            return modal_depth(g)
        case Box(g) | Diamond(g) | Nabla(g):
            return 1 + modal_depth(g)
        case _:
            return max(modal_depth(f.left), modal_depth(f.right))


def atoms_of(f: Formula) -> frozenset[int]:
    match f:
        case Atom(i):
            return frozenset({i})
        case Top() | Bottom():
            return frozenset()
        case Not(g) | Box(g) | Diamond(g) | Nabla(g):
            return atoms_of(g)
        case _:
            return atoms_of(f.left) | atoms_of(f.right)


def subformulas(f: Formula) -> frozenset[Formula]:
    """The set of subformulas of ``f``, including ``f`` itself."""
    match f:
        case Atom() | Top() | Bottom():
            return frozenset({f})
        case Not(g) | Box(g) | Diamond(g) | Nabla(g):
            return frozenset({f}) | subformulas(g)
        case _:
            return frozenset({f}) | subformulas(f.left) | subformulas(f.right)


def modal_operators(f: Formula) -> frozenset[type]:
    """The set of modal operator classes occurring in ``f``."""
    ops: set[type] = set()

    def walk(g: Formula) -> None:
        if isinstance(g, _MODAL):
            ops.add(type(g))
            walk(g.operand)
        elif isinstance(g, Not):
            walk(g.operand)
        elif isinstance(g, _BINARY):
            walk(g.left)
            walk(g.right)

    walk(f)
    return frozenset(ops)


def fits_dialect(f: Formula, dialect: Dialect) -> bool:
    return modal_operators(f) <= _DIALECT_OPS[dialect]


def require_dialect(f: Formula, dialect: Dialect) -> None:
    ops = modal_operators(f) - _DIALECT_OPS[dialect]
    if ops:
        names = ", ".join(sorted(t.__name__ for t in ops))
        raise DialectError(f"{names} not allowed in dialect {dialect.value}: {render(f)}")


def dialect_of(f: Formula) -> Dialect:
    """Smallest dialect admitting ``f``; raises on nabla/box-diamond mixtures."""
    ops = modal_operators(f)
    if not ops:
        return Dialect.CLASSICAL
    if ops == {Nabla}:
        return Dialect.NABLA
    if ops == {Box}:
        return Dialect.BOX
    if ops <= {Box, Diamond}:
        return Dialect.S5
    raise DialectError(f"mixed modal dialects in {render(f)}")


def translate(f: Formula, source: Dialect, target: Dialect) -> Formula:
    """Swap every nabla for box (or conversely), leaving all else intact.

    ``source`` and ``target`` must be the nabla and box dialects in either
    order; translating twice returns the original formula.
    """
    if {source, target} - {Dialect.NABLA, Dialect.BOX}:
        raise DialectError("translation is defined between NablaSystem and BoxSystem only")
    require_dialect(f, source)
    if source is target:
        return f

    def walk(g: Formula) -> Formula:
        match g:
            case Atom() | Top() | Bottom():
                return g
            case Nabla(x):
                return Box(walk(x))
            case Box(x):
                return Nabla(walk(x))
            case Not(x):
                return Not(walk(x))
            case _:
                return type(g)(walk(g.left), walk(g.right))

    return walk(f)
