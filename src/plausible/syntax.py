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
from collections import namedtuple
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


class Record(tuple):
    """Base class of the package's immutable records.

    A record class derives from ``Record`` and a named tuple of its fields,
    ``class R(Record, namedtuple("R", "a b")): __slots__ = ()``, which give
    it its constructor, its field accessors and its repr; one that checks or
    normalizes its fields does so in its own ``__new__``.  A record equals
    only a record of its own class with equal fields, so no record equals a
    plain tuple; it hashes as its tuple, and it is true even with no field.
    The fields refuse assignment; with empty ``__slots__``, so does
    everything else.  It needs neither ``dataclasses`` nor ``inspect``:
    importing them and building frozen dataclasses cost every ``plaus``
    command about 20 ms of start-up.
    """

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return type(other) is not type(self) or tuple.__ne__(self, other)

    def __bool__(self):
        return True


class Formula(tuple):
    """Base class for formula nodes.

    A node is the tuple ``(tag, *fields)``: ``tag`` is a small int, one per
    node type, and the fields are the node's operands (an ``Atom``'s index).
    Nodes are immutable.  Equality and hashing are the tuple's, structural
    and computed in C; the tags keep nodes of different types unequal, and
    as every leaf holds only ints, a formula hashes alike in every process.
    Equality is the notion of formula identity used throughout the package.
    """

    __slots__ = ()

    def __getnewargs__(self):
        # what ``copy`` and ``pickle`` pass back to ``__new__``
        return self[1:]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self[1:]))})"


# Each node type states its tag; the class of its arity builds its tuple and
# names its fields.  Every class declares empty ``__slots__``, so no node has
# a ``__dict__`` and setting any attribute raises ``AttributeError``.  The
# fields are a named tuple's field accessors, which read any tuple's item in
# C and refuse assignment; ``property(itemgetter(k))`` takes about twice as
# long a read, which the ``match`` in ``truth_mask`` pays at every node.
_Fields = namedtuple("_Fields", "tag first second")


class _Nullary(Formula):
    __slots__ = ()

    def __new__(cls):
        return tuple.__new__(cls, (cls._tag,))


class _Unary(Formula):
    __slots__ = ()
    __match_args__ = ("operand",)
    operand = _Fields.first

    def __new__(cls, operand: Formula):
        return tuple.__new__(cls, (cls._tag, operand))


class _Binary(Formula):
    __slots__ = ()
    __match_args__ = ("left", "right")
    left = _Fields.first
    right = _Fields.second

    def __new__(cls, left: Formula, right: Formula):
        return tuple.__new__(cls, (cls._tag, left, right))


class Atom(Formula):
    __slots__ = ()
    __match_args__ = ("index",)
    _tag = 0
    index = _Fields.first

    def __new__(cls, index: int):
        if index < 0:
            raise ValueError(f"atom index must be non-negative, got {index}")
        return tuple.__new__(cls, (cls._tag, index))


class Top(_Nullary):
    __slots__ = ()
    _tag = 1


class Bottom(_Nullary):
    __slots__ = ()
    _tag = 2


class Not(_Unary):
    __slots__ = ()
    _tag = 3


class And(_Binary):
    __slots__ = ()
    _tag = 4


class Or(_Binary):
    __slots__ = ()
    _tag = 5


class Implies(_Binary):
    __slots__ = ()
    _tag = 6


class Iff(_Binary):
    __slots__ = ()
    _tag = 7


class Box(_Unary):
    __slots__ = ()
    _tag = 8


class Diamond(_Unary):
    __slots__ = ()
    _tag = 9


class Nabla(_Unary):
    __slots__ = ()
    _tag = 10


TOP = Top()
BOTTOM = Bottom()

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
# parser two frames, and a unary prefix or a binary operator at most one;
# each prefix and operator costs the tree one level.  A formula at both
# bounds takes the parser 400 frames deep.  The perfbench workloads (seeds
# 1, 11, 2027) reach 20 levels.
MAX_NESTING = 100  # unary prefixes and parentheses
MAX_DEPTH = 300  # all levels, binary operators included

# The one lexer: operators, words, and any other single character that is
# not blank, which the lexical check then rejects.
_LEXEME_RE = re.compile(r"<->|<>|\[\]|->|[~&|()]|[A-Za-z][A-Za-z0-9]*|[^ \t\r\n]")
_PREFIX = {"~": Not, "[]": Box, "<>": Diamond, "nabla": Nabla}
# Each binary sigil: its node type, its binding level (a higher level binds
# tighter, and every unary prefix tighter still) and whether it associates
# to the right.  Parsing and rendering both read this table.
_INFIX = {"<->": (Iff, 1, True), "->": (Implies, 2, True), "|": (Or, 3, False), "&": (And, 4, False)}
_OPERATORS = frozenset(("(", ")", *_PREFIX, *_INFIX))
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

    def error(self, message: str) -> FormulaSyntaxError:
        return FormulaSyntaxError(message, _column(self.text, self.i))

    def found(self) -> str:
        """The kind of the current lexeme, as error messages name it."""
        lx = self.lexemes[self.i]
        if lx == _END:
            return "end"
        return "atom" if isinstance(self.leaves.get(lx), Atom) else lx

    def parse(self) -> Formula:
        f = self.binary(1, 0, 0)
        if self.lexemes[self.i] != _END:
            raise self.error(f"unexpected trailing {self.found()!r}")
        return f

    def binary(self, level: int, depth: int, nesting: int) -> Formula:
        """Parse an operand and the binary operators binding at ``level`` or
        tighter that follow it, inside ``depth`` open levels of which
        ``nesting`` are unary prefixes and parentheses; ``binary(1, 0, 0)``
        parses a whole formula.

        Each operator opens one more level for its right operand, which an
        arrow parses at its own level, so it associates to the right, and
        ``&`` and ``|`` one level up, so they associate to the left.  The
        levels of one chain of operators at one binding level stay open to
        its end: until the binding level changes or the loop ends.  An
        arrow's right operand takes every later arrow of its level, so an
        arrow's chain ends with it.
        """
        left = self.operand(depth, nesting)
        chain = None
        while True:
            infix = _INFIX.get(self.lexemes[self.i])
            if infix is None or infix[1] < level:
                break
            op, at, right_assoc = infix
            if at != chain:
                open_levels = depth
                chain = at
            if open_levels == MAX_DEPTH:
                raise self.error(f"formula nests deeper than {MAX_DEPTH} levels")
            open_levels += 1
            self.i += 1
            left = op(left, self.binary(at if right_assoc else at + 1, open_levels, nesting))
        return left

    def operand(self, depth: int, nesting: int) -> Formula:
        """Parse a leaf, a unary prefix and its operand, or a formula in
        parentheses, inside ``depth`` open levels of which ``nesting`` are
        unary prefixes and parentheses; a prefix or parenthesis opens one
        more of each."""
        lx = self.lexemes[self.i]
        leaf = self.leaves.get(lx)
        if leaf is not None:
            self.i += 1
            return leaf
        op = _PREFIX.get(lx)
        if op is None and lx != "(":
            raise self.error(f"expected a formula, found {self.found()!r}")
        if nesting == MAX_NESTING:
            raise self.error(f"formula nests deeper than {MAX_NESTING} unary prefixes and parentheses")
        if depth == MAX_DEPTH:
            raise self.error(f"formula nests deeper than {MAX_DEPTH} levels")
        self.i += 1
        if op is not None:
            return op(self.operand(depth + 1, nesting + 1))
        inner = self.binary(1, depth + 1, nesting + 1)
        if self.lexemes[self.i] != ")":
            raise self.error(f"expected ')', found {self.found()!r}")
        self.i += 1
        return inner


def parse(text: str) -> Formula:
    """Parse formula text into its unique AST under the declared precedence."""
    return _Parser(text, metavariables=False).parse()


# ---------------------------------------------------------------------------
# Rendering

_SIGIL = {op: sigil for sigil, op in _PREFIX.items()}
_BINDING = {op: (sigil, level, assoc) for sigil, (op, level, assoc) in _INFIX.items()}


def _render(f: Formula, atom_name, memo: dict) -> str:
    if isinstance(f, Atom):
        return atom_name(f.index)
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bottom):
        return "false"
    hit = memo.get(id(f))
    if hit is not None:
        return hit[1]
    binding = _BINDING.get(type(f))
    if binding is None:
        sigil = _SIGIL[type(f)]
        text = _render(f.operand, atom_name, memo)
        if type(f.operand) in _BINDING:
            text = f"({text})"
        elif sigil.isalpha():
            # a word needs a separator unless parentheses follow
            sigil += " "
        text = sigil + text
    else:
        # Only a binary operand can bind looser than its operator.  One at
        # the operator's own level needs parentheses on the side it does
        # not associate to.
        sigil, level, right_assoc = binding
        left = _render(f.left, atom_name, memo)
        inner = _BINDING.get(type(f.left))
        if inner is not None and inner[1] < level + right_assoc:
            left = f"({left})"
        right = _render(f.right, atom_name, memo)
        inner = _BINDING.get(type(f.right))
        if inner is not None and inner[1] < level + (not right_assoc):
            right = f"({right})"
        text = f"{left} {sigil} {right}"
    # The entry keeps ``f`` alive, so its id is not reused while the memo is.
    memo[id(f)] = (f, text)
    return text


def _atom_name(i: int) -> str:
    return f"p{i}"


def render(f: Formula, memo: dict | None = None) -> str:
    """Render with minimal parentheses; ``parse(render(f))`` equals ``f``.

    ``memo`` maps ``id(node)`` to ``(node, text)`` for the nodes already
    rendered.  Pass one dict to several calls to render each node object
    they share once; it must live no longer than those calls need it and
    serve ``render`` alone.
    """
    return _render(f, _atom_name, {} if memo is None else memo)


# ---------------------------------------------------------------------------
# Schemas and matching


class Schema(Record, namedtuple("Schema", "pattern")):
    """A formula pattern whose atoms are read as metavariables (A=0, B=1, ...)."""

    __slots__ = ()

    def metavariables(self) -> frozenset[int]:
        return atoms_of(self.pattern)


def parse_schema(text: str) -> Schema:
    """Parse schema text; the single uppercase letters ``A``-``Z`` are its
    metavariables, and it has no atoms ``pN``."""
    return Schema(_Parser(text, metavariables=True).parse())


def _metavariable_name(i: int) -> str:
    return chr(ord("A") + i) if i < 26 else f"A{i}"


def render_schema(s: Schema) -> str:
    return _render(s.pattern, _metavariable_name, {})


MetaBinding = dict[int, Formula]


def match_schema(s: Schema, f: Formula) -> MetaBinding | None:
    """First-order matching of ``f`` against ``s``.

    Returns the unique binding with ``instantiate(s, binding) == f``, or
    ``None`` when ``f`` is not an instance of the schema.
    """
    binding: MetaBinding = {}
    return binding if _match(s.pattern, f, binding) else None


def _match(pat: Formula, tgt: Formula, binding: MetaBinding) -> bool:
    if isinstance(pat, Atom):
        bound = binding.get(pat.index)
        if bound is None:
            binding[pat.index] = tgt
            return True
        return bound == tgt
    if type(pat) is not type(tgt):
        return False
    if isinstance(pat, _Nullary):
        return True
    if isinstance(pat, _Unary):
        return _match(pat.operand, tgt.operand, binding)
    return _match(pat.left, tgt.left, binding) and _match(pat.right, tgt.right, binding)


def instantiate(s: Schema, binding: MetaBinding) -> Formula:
    """Homomorphic substitution of ``binding`` into the schema pattern."""
    return _instantiate(s.pattern, binding)


def _instantiate(pat: Formula, binding: MetaBinding) -> Formula:
    if isinstance(pat, Atom):
        try:
            return binding[pat.index]
        except KeyError:
            name = _metavariable_name(pat.index)
            raise UnboundMetavariableError(f"metavariable {name} is unbound") from None
    if isinstance(pat, _Nullary):
        return pat
    if isinstance(pat, _Unary):
        return type(pat)(_instantiate(pat.operand, binding))
    return type(pat)(_instantiate(pat.left, binding), _instantiate(pat.right, binding))


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
    """The set of subformulas of ``f``, including ``f`` itself.

    One walk fills one set; a subformula already in it has had its own
    subformulas added, so the walk does not descend into it again.  Each
    node is hashed once, by ``add``: a tuple's hash is not cached and walks
    its whole subtree.
    """
    found: set[Formula] = set()
    todo = [f]
    while todo:
        g = todo.pop()
        size = len(found)
        found.add(g)
        if len(found) > size and not isinstance(g, Atom):
            todo.extend(g[1:])  # the operands; Top and Bottom have none
    return frozenset(found)


def modal_operators(f: Formula) -> frozenset[type]:
    """The set of modal operator classes occurring in ``f``."""
    ops: set[type] = set()
    _collect_modal(f, ops)
    return frozenset(ops)


def _collect_modal(f: Formula, ops: set[type]) -> None:
    if isinstance(f, _MODAL):
        ops.add(type(f))
        _collect_modal(f.operand, ops)
    elif isinstance(f, Not):
        _collect_modal(f.operand, ops)
    elif isinstance(f, _Binary):
        _collect_modal(f.left, ops)
        _collect_modal(f.right, ops)


def _fits(f: Formula, allowed: frozenset[type], memo: dict) -> bool:
    if isinstance(f, (Atom, Top, Bottom)) or id(f) in memo:
        return True
    if isinstance(f, _Binary):
        fits = _fits(f.left, allowed, memo) and _fits(f.right, allowed, memo)
    else:
        fits = (isinstance(f, Not) or type(f) in allowed) and _fits(f.operand, allowed, memo)
    if fits:
        # Recorded only once every operand fits; the entry keeps ``f``
        # alive, so its id is not reused while the memo is.
        memo[id(f)] = f
    return fits


def fits_dialect(f: Formula, dialect: Dialect, memo: dict | None = None) -> bool:
    """Whether every modal operator of ``f`` belongs to ``dialect``.

    ``memo`` maps ``id(node)`` to ``node`` for the nodes already known to
    fit.  Pass one dict to several calls with the same dialect to visit
    each node object they share once; it must serve that dialect alone.
    """
    return _fits(f, _DIALECT_OPS[dialect], {} if memo is None else memo)


def require_dialect(f: Formula, dialect: Dialect) -> None:
    """Raise ``DialectError``, naming each operator of ``f`` outside
    ``dialect``, unless ``f`` fits it.  Only the error walks ``f`` for names."""
    if _fits(f, _DIALECT_OPS[dialect], {}):
        return
    names = ", ".join(sorted(t.__name__ for t in modal_operators(f) - _DIALECT_OPS[dialect]))
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


class _ForeignOperator(Exception):
    """Raised by ``_swap`` at a modal operator outside the source dialect."""


# The image of each unary node type that a translation from the dialect
# admits; a modal operator missing here is foreign to that dialect.  ``_swap``
# tests node types by set membership, which is faster than ``isinstance``.
_SWAPS: dict[Dialect, dict[type, type]] = {
    Dialect.NABLA: {Not: Not, Nabla: Box},
    Dialect.BOX: {Not: Not, Box: Nabla},
}
_LEAF_TYPES = frozenset({Atom, Top, Bottom})
_BINARY_TYPES = frozenset({And, Or, Implies, Iff})


def _swap(f: Formula, swap: dict, memo: dict) -> Formula:
    t = type(f)
    if t in _LEAF_TYPES:
        return f
    hit = memo.get(id(f))
    if hit is not None:
        return hit[1]
    if t in _BINARY_TYPES:
        out = t(_swap(f.left, swap, memo), _swap(f.right, swap, memo))
    else:
        op = swap.get(t)
        if op is None:
            raise _ForeignOperator
        out = op(_swap(f.operand, swap, memo))
    # Recorded only once the whole subtree translated; the entry keeps
    # ``f`` alive, so its id is not reused while the memo is.
    memo[id(f)] = (f, out)
    return out


def translate(f: Formula, source: Dialect, target: Dialect, memo: dict | None = None) -> Formula:
    """Swap every nabla for box (or conversely), leaving all else intact.

    ``source`` and ``target`` must be the nabla and box dialects in either
    order; translating twice returns the original formula.  ``memo`` maps
    ``id(node)`` to ``(node, translation)`` for the nodes already
    translated.  Pass one dict to several calls in one direction to
    translate each node object they share once, into one shared node; it
    must serve that direction alone.
    """
    if {source, target} - {Dialect.NABLA, Dialect.BOX}:
        raise DialectError("translation is defined between NablaSystem and BoxSystem only")
    if source is target:
        require_dialect(f, source)
        return f
    try:
        return _swap(f, _SWAPS[source], {} if memo is None else memo)
    except _ForeignOperator:
        pass
    require_dialect(f, source)  # raises, naming every foreign operator
    raise AssertionError("require_dialect found no foreign operator")
