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


class InputError(ValueError):
    """Input the package refuses.  ``plaus`` exits 2 for one, and for an
    ``OSError``; any other exception, a plain ``ValueError`` included, is a
    defect and exits 3."""


class FormulaSyntaxError(InputError):
    """Malformed formula text; carries the offending column."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at column {position})")
        self.position = position


class DialectError(InputError):
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
# This module's walkers skip even those: they dispatch on ``type(f)``, read
# ``f[1]`` and ``f[2]``, and build a node as ``tuple.__new__(cls, (cls._tag,
# ...))``, since a constructor's ``__new__`` costs a Python frame per node.
# So the node types are final.
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

_MODAL = frozenset({Box, Diamond, Nabla})
_LEAF_TYPES = frozenset({Atom, Top, Bottom})
_BINARY_TYPES = frozenset({And, Or, Implies, Iff})


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
# A parse memo indexes each group by this many first characters of its
# text.  On the perfbench proofs texts 8 to 24 parse equally fast, with one
# or two groups per index; 4 is about 10% slower.
_INDEX = 8


def _column(text: str, index: int) -> int:
    """Column of lexeme number ``index`` of ``text``, or ``len(text)`` past
    the last one.  Only errors need columns, so only errors pay for them."""
    m = next(islice(_LEXEME_RE.finditer(text), index, None), None)
    return len(text) if m is None else m.start()


def _leaf(word: str, metavariables: bool) -> Formula | str:
    """The node of a lexeme that is neither an operator, ``true`` nor
    ``false``: an atom ``pN`` or, in a schema, a metavariable ``A``-``Z``;
    or, as a string, the lexical error it is."""
    if not (word[0].isalpha() and word.isascii()):  # not a word: one stray character
        return f"unexpected character {word!r}"
    if metavariables:
        if len(word) == 1 and word.isupper():
            return tuple.__new__(Atom, (Atom._tag, ord(word) - ord("A")))
    elif word[0] == "p" and word[1:].isdigit():
        try:
            return tuple.__new__(Atom, (Atom._tag, int(word[1:])))
        except ValueError:  # more digits than int() converts
            return f"atom index of {len(word) - 1} digits is too long"
    return f"unknown identifier {word!r}"


class _Parser:
    def __init__(self, text: str, metavariables: bool, memo: dict | None = None):
        # The one lexer reads a segment at a time and each word as it is
        # met.  ``base`` counts the lexemes before the segment, recalled
        # ones included; ``opening`` and ``closing`` hold the next '(' and
        # ')' found, ``len(text)`` for none: ``find`` gives -1, modulo
        # ``stop``.  Only a memo ends a segment at a parenthesis; without
        # one, neither is looked for and the text is one segment.
        self.text = text
        self.metavariables = metavariables
        self.memo = memo
        self.leaves = {"true": TOP, "false": BOTTOM}
        self.base = 0
        self.opening = self.closing = len(text) if memo is None else -1
        self.stop = len(text) + 1
        self.segment(0)

    def segment(self, pos: int) -> None:
        """Lex from ``pos`` to just after the next parenthesis, or to the
        end of the text and ``_END``."""
        text = self.text
        o = self.opening
        if o < pos:
            o = self.opening = text.find("(", pos) % self.stop
        c = self.closing
        if c < pos:
            c = self.closing = text.find(")", pos) % self.stop
        self.i = 0
        end = self.end = (o if o < c else c) + 1
        if end == self.stop:
            lexemes = self.lexemes = _LEXEME_RE.findall(text, pos)
            lexemes.append(_END)
        else:
            self.lexemes = _LEXEME_RE.findall(text, pos, end)

    def error(self, message: str) -> FormulaSyntaxError:
        return FormulaSyntaxError(message, _column(self.text, self.base + self.i))

    def found(self) -> str:
        """The kind of the current lexeme, as error messages name it; it
        may be a word not read yet."""
        lx = self.lexemes[self.i]
        if lx == _END:
            return "end"
        return "atom" if type(_leaf(lx, self.metavariables)) is Atom else lx

    def parse(self) -> Formula:
        """Parse the whole text.  A text with a lexical error raises the
        first in the text, whatever error the parse met; so only an error
        pays for a scan of the text's words."""
        try:
            f = self.binary(1, 0, 0)
            if self.lexemes[self.i] != _END:
                raise self.error(f"unexpected trailing {self.found()!r}")
            return f
        except FormulaSyntaxError:
            for m in _LEXEME_RE.finditer(self.text):
                lx = m.group()
                if lx not in _OPERATORS and lx not in self.leaves:
                    error = _leaf(lx, self.metavariables)
                    if type(error) is str:
                        raise FormulaSyntaxError(error, m.start()) from None
            raise

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
            right = self.binary(at if right_assoc else at + 1, open_levels, nesting)
            left = tuple.__new__(op, (op._tag, left, right))
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
            if lx != _END:
                leaf = _leaf(lx, self.metavariables)
                if type(leaf) is not str:
                    self.leaves[lx] = leaf
                    self.i += 1
                    return leaf
            raise self.error(f"expected a formula, found {self.found()!r}")
        if nesting == MAX_NESTING:
            raise self.error(f"formula nests deeper than {MAX_NESTING} unary prefixes and parentheses")
        if depth == MAX_DEPTH:
            raise self.error(f"formula nests deeper than {MAX_DEPTH} levels")
        self.i += 1
        if op is not None:
            return tuple.__new__(op, (op._tag, self.operand(depth + 1, nesting + 1)))
        memo = self.memo
        if memo is not None:
            # The '(' ended its segment, so the group's text starts at p and
            # ``closing`` is the first ')' after it.
            text = self.text
            p = self.end
            start = self.base = self.base + self.i
            c = self.closing
            index = text[p:c + 1] if c + 1 - p < _INDEX else text[p:p + _INDEX]
            bucket = memo.get(index)
            if bucket is not None:
                for key, hit in bucket.items():
                    after = p + len(key)
                    if text.startswith(")", after) and text.startswith(key, p):
                        if depth <= hit[1] and nesting <= hit[2]:
                            self.base = start + hit[3] + 1
                            self.segment(after + 1)
                            return hit[0]
                        break
            self.segment(p)
        inner = self.binary(1, depth + 1, nesting + 1)
        if self.lexemes[self.i] != ")":
            raise self.error(f"expected ')', found {self.found()!r}")
        if memo is None:
            self.i += 1
            return inner
        # the n lexemes inside open at most n levels past the '(', so the
        # group parses wherever both bounds are n + 1 levels away
        count = self.base + self.i - start
        room = count + 1
        entry = (inner, max(depth, MAX_DEPTH - room), max(nesting, MAX_NESTING - room), count)
        memo.setdefault(index, {})[text[p:self.end - 1]] = entry
        self.base += self.i + 1
        self.segment(self.end)
        return inner


def parse(text: str, memo: dict | None = None) -> Formula:
    """Parse formula text into its unique AST under the declared precedence.

    ``memo`` holds the parenthesised groups already parsed, by their raw
    text: it maps the first ``_INDEX`` characters of a group's interior,
    cut just after its first ``)``, to a dict from the whole interior to
    ``(node, depth, nesting, lexemes)``, the group's node and lexeme count
    and the most open levels and nesting it is known to parse inside, those
    it was parsed inside or, for a group too short to reach the bounds from
    there, more.  Pass one dict to the calls of one batch, such as the
    formulas of one proof file, to parse each group they repeat once, into
    one shared node; it must live no longer than that batch and serve
    ``parse`` alone.  The same group spaced otherwise is another key, and
    parses to an equal node.

    One lexer serves every parse, ``parse_schema``'s too: it lexes a
    segment at a time and reads each word when the parser meets it.  An
    error's column is that of its lexeme, counted from the start of the
    text, and a text with a lexical error raises the first in the text,
    whatever error the parse met.  The memo decides only where segments end
    and which groups are recalled and stored.  Without one, the whole text
    is one segment.  With one, each segment ends just after the next
    parenthesis; no other lexeme holds one, so the lexemes are those of
    the whole text.  At a ``(``, a stored interior that the text goes on
    with, followed by ``)``, is the group itself, since its parentheses
    balance; it is recalled, unlexed, inside at most the levels and nesting
    stored with it, and its lexemes count toward the bounds and columns
    after it.  A group is stored only once its ``)`` is read, so every node
    is the one a parse without the memo gives; the memo never decides an
    error, which a parse without it raises again, message and column.
    Each character lies in at most ``MAX_NESTING`` stored groups,
    so the stored interiors hold at most ``MAX_NESTING`` times the
    characters of the texts read, and the index keys, each at most its
    group's interior and ``)``, about as much again.
    """
    if memo is None:
        return _Parser(text, metavariables=False).parse()
    try:
        return _Parser(text, metavariables=False, memo=memo).parse()
    except FormulaSyntaxError:
        pass
    _Parser(text, metavariables=False).parse()  # raises the error a parse without the memo gives
    raise AssertionError("the memo refused a text that parses without it")


# ---------------------------------------------------------------------------
# Rendering

_SIGIL = {op: sigil for sigil, op in _PREFIX.items()}
_BINDING = {op: (sigil, level, assoc) for sigil, (op, level, assoc) in _INFIX.items()}


def _render(f: Formula, memo: dict) -> str:
    t = type(f)
    if t in _LEAF_TYPES:
        return f"p{f[1]}" if t is Atom else "true" if t is Top else "false"
    hit = memo.get(id(f))
    if hit is not None:
        return hit[1]
    binding = _BINDING.get(t)
    if binding is None:
        sigil = _SIGIL[t]
        text = _render(f[1], memo)
        if type(f[1]) in _BINDING:
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
        left = _render(f[1], memo)
        inner = _BINDING.get(type(f[1]))
        if inner is not None and inner[1] < level + right_assoc:
            left = f"({left})"
        right = _render(f[2], memo)
        inner = _BINDING.get(type(f[2]))
        if inner is not None and inner[1] < level + (not right_assoc):
            right = f"({right})"
        text = f"{left} {sigil} {right}"
    # The entry keeps ``f`` alive, so its id is not reused while the memo is.
    memo[id(f)] = (f, text)
    return text


def render(f: Formula, memo: dict | None = None) -> str:
    """Render with minimal parentheses; ``parse(render(f))`` equals ``f``.

    ``memo`` maps ``id(node)`` to ``(node, text)`` for the nodes already
    rendered.  Pass one dict to several calls to render each node object
    they share once; it must live no longer than those calls need it and
    serve ``render`` alone.
    """
    return _render(f, {} if memo is None else memo)


# ---------------------------------------------------------------------------
# Schemas and matching


class Schema(Record, namedtuple("Schema", "pattern")):
    """A formula pattern whose atoms are read as metavariables (A=0, B=1, ...)."""

    __slots__ = ()


def parse_schema(text: str) -> Schema:
    """Parse schema text; the single uppercase letters ``A``-``Z`` are its
    metavariables, and it has no atoms ``pN``."""
    return Schema(_Parser(text, metavariables=True).parse())


MetaBinding = dict[int, Formula]


def match_schema(s: Schema, f: Formula) -> MetaBinding | None:
    """First-order matching of ``f`` against ``s``.

    Returns the unique binding with ``instantiate(s, binding) == f``, or
    ``None`` when ``f`` is not an instance of the schema.
    """
    binding: MetaBinding = {}
    return binding if _match(s.pattern, f, binding) else None


def _match(pat: Formula, tgt: Formula, binding: MetaBinding) -> bool:
    t = type(pat)
    if t is Atom:
        bound = binding.get(pat[1])
        if bound is None:
            binding[pat[1]] = tgt
            return True
        return bound == tgt
    if t is not type(tgt):
        return False
    if t in _BINARY_TYPES:
        return _match(pat[1], tgt[1], binding) and _match(pat[2], tgt[2], binding)
    return t in _LEAF_TYPES or _match(pat[1], tgt[1], binding)


def instantiate(s: Schema, binding: MetaBinding) -> Formula:
    """Homomorphic substitution of ``binding`` into the schema pattern."""
    return _instantiate(s.pattern, binding)


def _instantiate(pat: Formula, binding: MetaBinding) -> Formula:
    t = type(pat)
    if t is Atom:
        try:
            return binding[pat[1]]
        except KeyError:
            name = chr(ord("A") + pat[1]) if pat[1] < 26 else f"A{pat[1]}"
            raise UnboundMetavariableError(f"metavariable {name} is unbound") from None
    if t in _BINARY_TYPES:
        return tuple.__new__(t, (pat[0], _instantiate(pat[1], binding), _instantiate(pat[2], binding)))
    if t in _LEAF_TYPES:
        return pat
    return tuple.__new__(t, (pat[0], _instantiate(pat[1], binding)))


# ---------------------------------------------------------------------------
# Structural measures and dialects


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


def atoms_of(f: Formula) -> frozenset[int]:
    """The indices of the atoms occurring in ``f``."""
    return frozenset(g[1] for g in subformulas(f) if type(g) is Atom)


def modal_operators(f: Formula) -> frozenset[type]:
    """The set of modal operator classes occurring in ``f``."""
    return frozenset(type(g) for g in subformulas(f) if type(g) in _MODAL)


def _fits(f: Formula, allowed: frozenset[type], memo: dict) -> bool:
    t = type(f)
    if t in _LEAF_TYPES or id(f) in memo:
        return True
    if t in _BINARY_TYPES:
        fits = _fits(f[1], allowed, memo) and _fits(f[2], allowed, memo)
    else:
        fits = (t is Not or t in allowed) and _fits(f[1], allowed, memo)
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


def _swap(f: Formula, swap: dict, memo: dict) -> Formula:
    t = type(f)
    if t in _LEAF_TYPES:
        return f
    hit = memo.get(id(f))
    if hit is not None:
        return hit[1]
    if t in _BINARY_TYPES:
        out = tuple.__new__(t, (f[0], _swap(f[1], swap, memo), _swap(f[2], swap, memo)))
    else:
        op = swap.get(t)
        if op is None:
            raise _ForeignOperator
        out = tuple.__new__(op, (op._tag, _swap(f[1], swap, memo)))
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
