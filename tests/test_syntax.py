import copy
import gc
import json
import os
import pickle
import random
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, closed_groups, formulas, oracle, shared_formulas
import plausible
from plausible import syntax
from plausible.derivations import ProofBuilder, box_k, nabla_h, nabla_top, translate_proof
from plausible.proofs import SCHEMAS, SystemId
from plausible.search import compile_program
from plausible.syntax import (
    BOTTOM,
    TOP,
    And,
    Atom,
    Bottom,
    Box,
    Diamond,
    Dialect,
    DialectError,
    MAX_DEPTH,
    MAX_NESTING,
    FormulaSyntaxError,
    Iff,
    Implies,
    Nabla,
    Not,
    Or,
    Schema,
    Top,
    UnboundMetavariableError,
    atoms_of,
    dialect_of,
    fits_dialect,
    instantiate,
    match_schema,
    modal_operators,
    parse,
    parse_schema,
    render,
    require_dialect,
    subformulas,
    translate,
)

p0, p1, p2, p3 = Atom(0), Atom(1), Atom(2), Atom(3)


# One node of each type, grouped by the fields the type has.
NODES_BY_FIELDS = {
    "nullary": [Top(), Bottom()],
    "operand": [Not(p1), Box(p1), Diamond(p1), Nabla(p1)],
    "left, right": [And(p0, p1), Or(p0, p1), Implies(p0, p1), Iff(p0, p1)],
}
ALL_NODES = [p0, *(n for group in NODES_BY_FIELDS.values() for n in group)]


class TestNodes:
    """The contract every consumer of formula nodes relies on."""

    def test_trees_built_apart_are_equal_and_hash_alike(self):
        text = "[](p0 -> ~p1) <-> nabla(p2 & true) | <>false"
        built = Iff(Box(Implies(p0, Not(p1))), Or(Nabla(And(p2, Top())), Diamond(Bottom())))
        parsed = parse(text)
        assert parsed is not built and parsed == built and hash(parsed) == hash(built)
        assert parse(text) == parsed and hash(parse(text)) == hash(parsed)
        assert {parsed: 1}[built] == 1

    @pytest.mark.parametrize("fields", list(NODES_BY_FIELDS))
    def test_types_with_the_same_fields_are_unequal(self, fields):
        for a, b in combinations(NODES_BY_FIELDS[fields], 2):
            assert a != b and b != a and not a == b
        assert len(set(NODES_BY_FIELDS[fields])) == len(NODES_BY_FIELDS[fields])

    @pytest.mark.parametrize("node", ALL_NODES, ids=lambda n: type(n).__name__)
    def test_assignment_raises_attribute_error(self, node):
        for name in (*getattr(node, "__match_args__", ()), "extra"):
            with pytest.raises(AttributeError):
                setattr(node, name, p2)

    def test_fields_read_back(self):
        assert p3.index == 3
        assert [n.operand for n in NODES_BY_FIELDS["operand"]] == [p1] * 4
        assert [(n.left, n.right) for n in NODES_BY_FIELDS["left, right"]] == [(p0, p1)] * 4

    def test_atom_index_is_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            Atom(-1)

    def test_class_patterns_bind(self):
        def shape(f):
            match f:
                case Atom(i):
                    return ("atom", i)
                case Top() | Bottom():
                    return (type(f).__name__,)
                case Not(g) | Box(g) | Diamond(g) | Nabla(g):
                    return (type(f).__name__, g)
                case And(l, r) | Or(l, r) | Implies(l, r) | Iff(l, r):
                    return (type(f).__name__, l, r)
            return None

        assert shape(p3) == ("atom", 3)
        assert shape(Bottom()) == ("Bottom",)
        assert shape(Nabla(p1)) == ("Nabla", p1)
        assert shape(Implies(p0, p1)) == ("Implies", p0, p1)
        assert [shape(n) is not None for n in ALL_NODES] == [True] * len(ALL_NODES)

    def test_hash_is_the_same_in_every_process(self):
        text = "[](p0 -> ~p1) <-> nabla(p2 & true) | <>false"
        script = f"from plausible.syntax import parse; print(hash(parse({text!r})))"
        src = str(Path(plausible.__file__).resolve().parent.parent)
        hashes = {
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("1", "2")
        }
        assert hashes == {f"{hash(parse(text))}\n"}

    @staticmethod
    def assert_round_trips(round_trip):
        f = parse("[](p0 -> ~p1) <-> nabla(p2 & true) | <>false")
        for node in (f, *ALL_NODES):
            back = round_trip(node)
            assert back == node and hash(back) == hash(node) and type(back) is type(node)
            assert repr(back) == repr(node) and render(back) == render(node)

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy], ids=["copy", "deepcopy"])
    def test_copy_round_trips(self, copier):
        self.assert_round_trips(copier)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trips(self, protocol):
        self.assert_round_trips(lambda f: pickle.loads(pickle.dumps(f, protocol)))

    def test_representation(self):
        # a node is the tuple (tag, *fields), with one int tag per node type
        assert all(isinstance(n, tuple) for n in ALL_NODES)
        assert [n[1:] for n in NODES_BY_FIELDS["left, right"]] == [(p0, p1)] * 4
        tags = [n[0] for n in ALL_NODES]
        assert all(type(t) is int for t in tags) and len(set(tags)) == len(tags)
        assert repr(And(Atom(0), Top())) == "And(Atom(0), Top())"


class TestParse:
    def test_implication_box(self):
        assert parse("p0 -> []p0") == Implies(p0, Box(p0))

    def test_not_nabla_false(self):
        assert parse("~nabla false") == Not(Nabla(BOTTOM))

    def test_c_axiom_shape(self):
        assert parse("[]p0 & []p1 -> [](p0 & p1)") == Implies(
            And(Box(p0), Box(p1)), Box(And(p0, p1))
        )

    def test_whitespace_insensitive(self):
        assert parse("p0->[]p0") == parse("  p0  ->  [] p0 ")

    def test_precedence(self):
        assert parse("p0 & p1 | p2") == Or(And(p0, p1), p2)
        assert parse("~p0 & p1") == And(Not(p0), p1)
        assert parse("p0 -> p1 -> p2") == Implies(p0, Implies(p1, p2))
        assert parse("p0 <-> p1 <-> p2") == Iff(p0, Iff(p1, p2))
        assert parse("p0 & p1 & p2") == And(And(p0, p1), p2)

    def test_syntax_error_position(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse("p0 -> $")
        assert exc.value.position == 6

    def test_unknown_identifier(self):
        with pytest.raises(FormulaSyntaxError):
            parse("p0 -> q1")

    def test_trailing_garbage(self):
        with pytest.raises(FormulaSyntaxError):
            parse("p0 p1")

    def test_unclosed_paren(self):
        with pytest.raises(FormulaSyntaxError):
            parse("(p0 -> p1")

    @pytest.mark.parametrize(
        "opener, closer, offset, bound",
        [
            ("~", "", 0, MAX_NESTING),
            ("nabla ", "", 0, MAX_NESTING),
            ("(", ")", 0, MAX_NESTING),
            ("p0 -> ", "", 3, MAX_DEPTH),
            ("p0 <-> ", "", 3, MAX_DEPTH),
            ("p0 & ", "", 3, MAX_DEPTH),
            ("p0 | ", "", 3, MAX_DEPTH),
        ],
    )
    def test_nesting_bound(self, opener, closer, offset, bound):
        def nested(levels):
            return opener * levels + "p1" + closer * levels

        f = parse(nested(bound))
        assert parse(render(f)) == f
        with pytest.raises(FormulaSyntaxError) as exc:
            parse(nested(bound + 1))
        # the opener of level bound + 1 is the offending token
        assert exc.value.position == len(opener) * bound + offset

    def test_binary_levels_share_the_depth_bound(self):
        # MAX_NESTING parentheses around a chain of arrows that fills the rest
        arrows = MAX_DEPTH - MAX_NESTING
        text = "(" * MAX_NESTING + "p0 -> " * arrows + "p1" + ")" * MAX_NESTING
        assert parse(text) == parse("p0 -> " * arrows + "p1")
        with pytest.raises(FormulaSyntaxError) as exc:
            parse(text.replace("p1", "p0 -> p1"))
        assert exc.value.position == MAX_NESTING + 6 * arrows + 3


    @pytest.mark.parametrize(
        "text, column", [("p" + "7" * 5000, 0), ("p0 & p" + "1" * 5000, 5)], ids=["alone", "operand"]
    )
    def test_atom_index_too_long_for_int(self, text, column):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse(text)
        assert exc.value.position == column
        assert "5000 digits" in str(exc.value)

    def test_lexical_error_precedes_parse_error(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse("p0 & & p" + "1" * 5000)
        assert exc.value.position == 7


# Texts with two or more distinct bad words, whether a schema, and the
# first lexical error in text order.
FIRST_LEXICAL_ERRORS = [
    ("q1 & $", False, "unknown identifier 'q1'", 0),
    ("$ & q1", False, "unexpected character '$'", 0),
    ("p0 & zz & yy", False, "unknown identifier 'zz'", 5),
    ("p0 & ff & ee & dd & cc & bb & aa", False, "unknown identifier 'ff'", 5),
    ("p" + "9" * 5000 + " & $", False, "atom index of 5000 digits is too long", 0),
    ("true -> $ | p" + "9" * 5000, False, "unexpected character '$'", 8),
    ("p1 -> $", True, "unknown identifier 'p1'", 0),
    ("A & $ -> p1", True, "unexpected character '$'", 4),
    # a syntax error comes first in the text, the lexical error after it
    ("p0 & & $", False, "unexpected character '$'", 7),
    ("(p0 $", False, "unexpected character '$'", 4),
    (") q", False, "unknown identifier 'q'", 2),
    ("p0 p1 q1", False, "unknown identifier 'q1'", 6),
    ("p0 ) ( $", False, "unexpected character '$'", 7),
    ("~(p0 -> []p1)) & xx", False, "unknown identifier 'xx'", 17),
    ("(p0 -> []p1) ) $", False, "unexpected character '$'", 15),
    ("(p0 -> []p1) (p0 -> []p1) q", False, "unknown identifier 'q'", 26),
    ("(" * 101 + "p0" + ")" * 101 + " $", False, "unexpected character '$'", 205),
    ("p0 -> " * 301 + "p0 | q", False, "unknown identifier 'q'", 1811),
    ("A & & p0", True, "unknown identifier 'p0'", 6),
    ("A B $", True, "unexpected character '$'", 4),
    ("(A $", True, "unexpected character '$'", 3),
    (") p0", True, "unknown identifier 'p0'", 2),
    ("~" * 101 + "A & p1", True, "unknown identifier 'p1'", 105),
]


class TestLexicalErrorOrder:
    """The lexer reads each word as the parser meets it; a text with a
    lexical error raises the first in the text, before any syntax error,
    even one the parser met earlier, with a memo or without."""

    @pytest.mark.parametrize(
        "text, schema, message, column", FIRST_LEXICAL_ERRORS, ids=[t[:16] for t, *_ in FIRST_LEXICAL_ERRORS]
    )
    def test_first_error_in_text_order(self, text, schema, message, column):
        with pytest.raises(FormulaSyntaxError) as exc:
            (parse_schema if schema else parse)(text)
        assert str(exc.value) == f"{message} (at column {column})" and exc.value.position == column
        if not schema:
            # and through a memo holding every group of the text that parses
            memo = {}
            fill_memo(memo, [text, "(p0 -> []p1) & ~(p0 -> []p1)"])
            assert stored_groups(memo)
            for _ in range(2):
                assert outcome(text, memo) == (str(exc.value), column)

    def test_hash_seed_does_not_choose_the_error(self):
        script = (
            "import json, sys\n"
            "from plausible.syntax import FormulaSyntaxError, parse, parse_schema\n"
            "for text, schema in json.load(sys.stdin):\n"
            "    try:\n"
            "        (parse_schema if schema else parse)(text)\n"
            "    except FormulaSyntaxError as exc:\n"
            "        print(exc)\n"
        )
        cases = json.dumps([[text, schema] for text, schema, _, _ in FIRST_LEXICAL_ERRORS])
        src = str(Path(plausible.__file__).resolve().parent.parent)
        outputs = {
            subprocess.run(
                [sys.executable, "-c", script], input=cases,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("0", "1", "2", "3")
        }
        assert outputs == {"".join(f"{m} (at column {c})\n" for _, _, m, c in FIRST_LEXICAL_ERRORS)}


# The lexical grammar, stated independently of the parser: an operator, a
# word, or any other character that is not blank.
LEXEME = re.compile(r"<->|<>|\[\]|->|[~&|()]|[A-Za-z][A-Za-z0-9]*|[^ \t\r\n]")
ERROR_FORMS = [
    "unexpected character ",
    "unknown identifier ",
    "expected ')', found ",
    "unexpected trailing ",
    "expected a formula, found ",
    f"formula nests deeper than {MAX_NESTING} unary prefixes and parentheses",
    f"formula nests deeper than {MAX_DEPTH} levels",
]


def iter_nodes(f):
    """Every node object of ``f``, once for each place it occupies."""
    todo = [f]
    while todo:
        g = todo.pop()
        yield g
        if type(g) is not Atom:
            todo.extend(g[1:])


def outcome(text, memo=None):
    """The node ``parse`` gives ``text``, or its error's message and column."""
    try:
        return parse(text, memo)
    except FormulaSyntaxError as exc:
        return str(exc), exc.position


def stored_groups(memo):
    """Every ``(key, entry)`` a parse memo holds: its keys index the stored
    groups' texts by their first characters."""
    return [group for bucket in memo.values() for group in bucket.items()]


def fill_memo(memo, texts):
    """Parse into ``memo`` every group of ``texts`` that parses alone, at
    the top, under 40 and under 90 prefixes, wherever a plain parse
    accepts it."""
    groups = {group: None for text in texts for group in closed_groups(text)}
    for group in groups:
        for k in (0, 40, 90):
            wrapped = "~" * k + group
            if type(outcome(wrapped)) is not tuple:
                parse(wrapped, memo)


# Lexemes of random texts: every operator, parentheses twice as often.
RANDOM_LEXEMES = ["p0", "p1", "p2", "true", "false", "~", "[]", "<>", "nabla",
                  "&", "|", "->", "<->", "(", ")", "(", ")"]


def random_texts(rng, count):
    """Seeded texts, most of them malformed: runs of random lexemes with
    groups taken from earlier valid texts, a group lexeme edited, and now
    and then valid groups nested close to ``MAX_NESTING`` or ``MAX_DEPTH``."""
    valid = ["(p0 & p1)", "([]p0 -> p2)", "(nabla (p1 | ~p0))"]
    texts = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.1:
            k = rng.randint(MAX_NESTING - 4, MAX_NESTING + 1)
            text = rng.choice(["~", "(", "[]"]) * k + rng.choice(valid)
        elif roll < 0.15:
            k = rng.randint(MAX_DEPTH - 8, MAX_DEPTH + 1)
            text = "p0 -> " * k + rng.choice(valid)
        else:
            parts = []
            for _ in range(rng.randint(1, 8)):
                if rng.random() < 0.4:
                    parts.append(rng.choice(valid))
                else:
                    parts.append(rng.choice(RANDOM_LEXEMES))
            text = " ".join(parts)
            if rng.random() < 0.3:  # one lexeme edited, maybe inside a repeated group
                lexemes = LEXEME.findall(text)
                lexemes[rng.randrange(len(lexemes))] = rng.choice(RANDOM_LEXEMES)
                text = " ".join(lexemes)
        if len(text) < 80 and len(valid) < 400 and type(outcome(text)) is not tuple:
            valid.append(f"({text})")
        texts.append(text)
    return texts


class TestGoldenErrors:
    """``fixtures/syntax_errors.json`` holds seeded malformed texts with the
    message and column the tokenizer-based parser gave them, and
    ``fixtures/schema_errors.json`` seeded malformed schema texts with those
    ``parse_schema`` gave them (both written by
    ``tests/record_syntax_errors.py``); the parser must reproduce them."""

    TABLE = json.loads((FIXTURES / "syntax_errors.json").read_text(encoding="utf-8"))
    SCHEMA_TABLE = json.loads((FIXTURES / "schema_errors.json").read_text(encoding="utf-8"))

    def test_table_covers_every_message_form(self):
        assert len(self.TABLE) >= 2000
        for form in ERROR_FORMS:
            assert any(message.startswith(form) for _, message, _ in self.TABLE), form

    def test_messages_and_columns(self):
        got = []
        for text, _, _ in self.TABLE:
            with pytest.raises(FormulaSyntaxError) as exc:
                parse(text)
            got.append([text, str(exc.value), exc.value.position])
        assert got == self.TABLE

    def test_schema_messages_and_columns(self):
        assert len(self.SCHEMA_TABLE) >= 1000
        for form in ERROR_FORMS:
            assert any(message.startswith(form) for _, message, _ in self.SCHEMA_TABLE), form
        assert any(message.startswith("unknown identifier 'p") for _, message, _ in self.SCHEMA_TABLE)
        got = []
        for text, _, _ in self.SCHEMA_TABLE:
            with pytest.raises(FormulaSyntaxError) as exc:
                parse_schema(text)
            got.append([text, str(exc.value), exc.value.position])
        assert got == self.SCHEMA_TABLE

    def test_messages_and_columns_through_a_filled_memo(self):
        # Each text's groups are stored from valid texts, shallow and deep,
        # and each text is parsed twice: a failed group must not be stored.
        memo = {}
        fill_memo(memo, [text for text, _, _ in self.TABLE])
        assert len(stored_groups(memo)) > 500
        for text, message, column in self.TABLE:
            for _ in range(2):
                assert outcome(text, memo) == (message, column), text
            # ``parse`` raises the error again without the memo, but every
            # column counts the lexemes before its segment, so the parse
            # with the memo already gives the same
            with pytest.raises(FormulaSyntaxError) as exc:
                syntax._Parser(text, False, memo).parse()
            assert (str(exc.value), exc.value.position) == (message, column), text

    def test_random_texts_agree_with_and_without_a_memo(self):
        rng = random.Random(20261020)
        texts = random_texts(rng, 3000)
        memo = {}
        fill_memo(memo, texts)
        got = [outcome(text, memo) for text in texts]
        assert got == [outcome(text) for text in texts]
        assert 100 < sum(type(g) is not tuple for g in got) < 1500

    @given(st.lists(st.sampled_from(["p0", "p12", "true", "nabla", "~", "[]", "<>", "&", "|",
                                     "->", "<->", "(", ")", "q", "A", "$", "<", "-", "[", "0",
                                     "\xa0", " ", "\t", "\n"]), max_size=12).map("".join))
    def test_error_column_starts_a_lexeme(self, text):
        try:
            parse(text)
        except FormulaSyntaxError as exc:
            starts = {m.start() for m in LEXEME.finditer(text)} | {len(text)}
            assert exc.position in starts


class TestRender:
    def test_box_atom(self):
        assert render(Box(p0)) == "[]p0"

    def test_identity_implication(self):
        assert render(Implies(p0, p0)) == "p0 -> p0"

    def test_ax2_instance(self):
        assert render(Nabla(Or(p0, Not(p0)))) == "nabla(p0 | ~p0)"

    def test_minimal_parens(self):
        assert render(Implies(Implies(p0, p1), p2)) == "(p0 -> p1) -> p2"
        assert render(And(p0, And(p1, p2))) == "p0 & (p1 & p2)"
        assert render(Or(And(p0, p1), p2)) == "p0 & p1 | p2"
        assert render(Box(And(p0, p1))) == "[](p0 & p1)"

    @given(formulas(modal=("box", "diamond", "nabla")))
    def test_round_trip(self, f):
        assert parse(render(f)) == f


def rebuilt(f):
    """``f`` built again through the public constructors."""
    return Atom(f.index) if type(f) is Atom else type(f)(*map(rebuilt, f[1:]))


def assert_well_built(f):
    """Every node of ``f`` holds its own type's tag, and ``f`` equals the
    tree the public constructors build and survives a copy and a pickle."""
    todo = [f]
    while todo:
        node = todo.pop()
        assert node[0] == type(node)._tag
        if type(node) is not Atom:
            todo.extend(node[1:])
    assert f == rebuilt(f)
    for back in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert back == f and type(back) is type(f)


class TestBuiltNodes:
    """The walkers build nodes with ``tuple.__new__``, past the public
    constructors; each node they build is the one the constructors build."""

    @given(formulas(modal=("box", "diamond", "nabla")))
    def test_parse_and_parse_schema(self, f):
        assert_well_built(parse(render(f)))
        # the schema text of f: each atom pN as the Nth metavariable
        assert_well_built(parse_schema(re.sub(r"p(\d+)", lambda m: chr(ord("A") + int(m[1])), render(f))).pattern)

    @given(shared_formulas(modal=("nabla",)))
    def test_translate_both_ways(self, pool):
        to_box, to_nabla = {}, {}
        for f in pool:
            for boxed in (translate(f, Dialect.NABLA, Dialect.BOX), translate(f, Dialect.NABLA, Dialect.BOX, to_box)):
                assert_well_built(boxed)
                for back in (translate(boxed, Dialect.BOX, Dialect.NABLA),
                             translate(boxed, Dialect.BOX, Dialect.NABLA, to_nabla)):
                    assert_well_built(back)
                    assert back == f

    @given(formulas(modal=("box", "diamond", "nabla"), max_leaves=6), formulas(atoms=(0, 1), max_leaves=4))
    def test_instantiate(self, f, g):
        assert_well_built(instantiate(Schema(f), {0: g, 1: TOP, 2: Not(g)}))
        for schema in SCHEMAS.values():
            assert_well_built(instantiate(schema, dict.fromkeys(atoms_of(schema.pattern), f)))

    @given(formulas(modal=("box",), max_leaves=4), formulas(modal=("box",), max_leaves=4))
    @settings(max_examples=20, deadline=None)
    def test_proof_builder(self, x, y):
        boxes = ProofBuilder(SystemId.LPBOX)
        box_k(boxes, x, y)
        nablas = ProofBuilder(SystemId.LNABLA)
        nabla_h(nablas, translate(x, Dialect.BOX, Dialect.NABLA), translate(y, Dialect.BOX, Dialect.NABLA))
        nabla_top(nablas)
        for b in (boxes, nablas):
            proof = b.build()
            for line in proof.lines + translate_proof(proof).lines:
                assert_well_built(line.formula)


# The oracle's tag of each node type: parse and render share one operator
# table, so only a parser written apart from them can catch a wrong level.
ORACLE_TAG = {
    Atom: "atom", Top: "top", Bottom: "bot", Not: "not", Box: "box", Diamond: "dia",
    Nabla: "nabla", And: "and", Or: "or", Implies: "imp", Iff: "iff",
}


def as_oracle(f):
    tag = ORACLE_TAG[type(f)]
    if tag == "atom":
        return (tag, f.index)
    if tag in ("top", "bot"):
        return (tag,)
    if tag in oracle.UNARY:
        return (tag, as_oracle(f.operand))
    return (tag, as_oracle(f.left), as_oracle(f.right))


@st.composite
def operator_chains(draw, depth=3):
    """Text of a chain of binary operators over operands that may carry
    unary prefixes or hold a chain in parentheses, spaced at random."""
    lexemes = []
    for k in range(draw(st.integers(1, 4))):
        if k:
            lexemes.append(draw(st.sampled_from(["&", "|", "->", "<->"])))
        lexemes += draw(st.lists(st.sampled_from(["~", "[]", "<>", "nabla"]), max_size=2))
        if depth and draw(st.booleans()):
            lexemes += ["(", draw(operator_chains(depth - 1)), ")"]
        else:
            lexemes.append(draw(st.sampled_from(["p0", "p1", "true", "false"])))
    text = ""
    for lx in lexemes:
        gap = draw(st.sampled_from(["", " ", "  ", "\t"]))
        if not gap and text[-1:].isalnum() and lx[:1].isalnum():
            gap = " "  # two words need a separator
        text += gap + lx
    return text


class TestAgainstOracle:
    @given(formulas(modal=("box", "diamond", "nabla")))
    def test_render_and_parse_agree_with_the_oracle(self, f):
        assert oracle.parse(render(f)) == as_oracle(f)
        assert parse(oracle.render(as_oracle(f))) == f

    @given(operator_chains())
    def test_chains_agree_with_the_oracle(self, text):
        f = parse(text)
        assert as_oracle(f) == oracle.parse(text)
        assert oracle.parse(render(f)) == as_oracle(f)


# The operators each dialect admits, written out as the oracle of fits_dialect.
ADMITTED = {
    Dialect.CLASSICAL: set(),
    Dialect.S5: {Box, Diamond},
    Dialect.NABLA: {Nabla},
    Dialect.BOX: {Box},
}


class TestMemo:
    """``render``, ``fits_dialect`` and ``translate`` take a memo keyed by
    node identity, shared by the calls of one proof; it must not change any
    answer."""

    @given(shared_formulas())
    def test_shared_render_memo_gives_fresh_renderings(self, pool):
        memo = {}
        assert [render(f, memo) for f in pool] == [render(f) for f in pool]
        assert all(id(node) == key for key, (node, _) in memo.items())

    @given(shared_formulas(), st.sampled_from(list(Dialect)))
    def test_shared_dialect_memo_agrees_with_modal_operators(self, pool, dialect):
        memo = {}
        got = [fits_dialect(f, dialect, memo) for f in pool]
        assert got == [modal_operators(f) <= ADMITTED[dialect] for f in pool]

    def test_rejected_operand_is_not_recorded(self):
        outside = Not(Nabla(p0))
        memo = {}
        assert not fits_dialect(outside, Dialect.BOX, memo)
        assert not fits_dialect(outside, Dialect.BOX, memo)
        assert not fits_dialect(And(Box(p1), outside), Dialect.BOX, memo)
        assert fits_dialect(Box(p1), Dialect.BOX, memo)

    def test_memo_keeps_its_nodes_alive(self):
        # Each formula is garbage after its turn unless the memo holds it,
        # and then the next one would likely take its id.
        memo = {}
        for i in range(100):
            f = Not(p0) if i % 2 else Box(p1)
            assert render(f, memo) == ("~p0" if i % 2 else "[]p1")
            del f
        memo = {}
        for i in range(100):
            f = Box(p0) if i % 2 else Nabla(p0)
            assert fits_dialect(f, Dialect.BOX, memo) is bool(i % 2)
            del f

    @pytest.mark.parametrize(
        "source, target, modal",
        [(Dialect.NABLA, Dialect.BOX, "nabla"), (Dialect.BOX, Dialect.NABLA, "box")],
    )
    @given(data=st.data())
    def test_shared_translate_memo_gives_fresh_translations(self, source, target, modal, data):
        pool = data.draw(shared_formulas(modal=(modal,)))
        memo = {}
        there = [translate(f, source, target, memo) for f in pool]
        assert there == [translate(f, source, target) for f in pool]
        assert all(id(node) == key for key, (node, _) in memo.items())
        back = {}
        assert [translate(g, target, source, back) for g in there] == pool

    @pytest.mark.parametrize(
        "text, source, target, message",
        [
            (
                "nabla p0 & <>nabla p1", Dialect.NABLA, Dialect.BOX,
                "Diamond not allowed in dialect NablaSystem: nabla p0 & <>nabla p1",
            ),
            (
                "[]p0 -> nabla []p1", Dialect.BOX, Dialect.NABLA,
                "Nabla not allowed in dialect BoxSystem: []p0 -> nabla []p1",
            ),
            (
                "[](p0 & p1) | nabla <>(p0 & p1)", Dialect.NABLA, Dialect.BOX,
                "Box, Diamond not allowed in dialect NablaSystem: [](p0 & p1) | nabla <>(p0 & p1)",
            ),
        ],
    )
    def test_foreign_operator_message_ignores_the_memo(self, text, source, target, message):
        f = parse(text)
        with pytest.raises(DialectError) as cold:
            translate(f, source, target)
        assert str(cold.value) == message
        memo = {}
        admitted = [g for g in subformulas(f) if fits_dialect(g, source)]
        warm = [translate(g, source, target, memo) for g in admitted]
        with pytest.raises(DialectError) as hot:
            translate(f, source, target, memo)
        assert str(hot.value) == message
        assert [translate(g, source, target, memo) for g in admitted] == warm

    def test_translate_leaves_no_reference_cycle(self):
        # A cycle would keep the memo, or a walker's binding or output,
        # alive until a full collection.
        f = parse("nabla (p0 & ~nabla p1) -> nabla p0 | p1")
        k = parse("[](p0 -> p1) -> ([]p0 -> []p1)")
        t = parse_schema("[]A -> A")
        calls = {
            "translate": lambda: (
                translate(f, Dialect.NABLA, Dialect.BOX),
                translate(f, Dialect.NABLA, Dialect.BOX, {}),
            ),
            "parse": lambda: (parse("~(p0 | p1) <-> [](p0 & p1)"), parse_schema("A -> (B -> A)")),
            "schema": lambda: instantiate(t, match_schema(t, parse("[](p0 & p1) -> p0 & p1"))),
            "dialect": lambda: (modal_operators(k), dialect_of(k), require_dialect(k, Dialect.BOX)),
            "compile": lambda: compile_program(k, {0: 0, 1: 1}),
        }
        gc.disable()
        try:
            gc.collect()
            for name, call in calls.items():
                call()
                assert gc.collect() == 0, name
        finally:
            gc.enable()

    @staticmethod
    def proof_texts():
        """The formulas of every fixture proof and of every proof, input and
        output, of the translation table, one list a proof."""
        proofs = [json.loads(path.read_text(encoding="utf-8")) for path in sorted((FIXTURES / "proofs").glob("*.json"))]
        for case in json.loads((FIXTURES / "translations.json").read_text(encoding="utf-8")):
            proofs.append(case["proof"])
            proofs += [json.loads(out) for argv, code, out, _ in case["runs"] if argv[0] == "translate" and code == 0]
        return [[*p["premises"], *(line["formula"] for line in p["lines"]), p["conclusion"]] for p in proofs]

    def test_parse_memo_agrees_on_every_proof(self):
        def inner_nodes(f):
            return [id(g) for g in iter_nodes(f) if type(g) not in (Atom, Top, Bottom)]

        sharing = 0
        for texts in self.proof_texts():
            memo = {}
            got = [parse(text, memo) for text in texts]
            assert got == [parse(text) for text in texts]
            assert all(parse(key) == node for key, (node, *_) in stored_groups(memo))
            ids = [i for f in got for i in inner_nodes(f)]
            sharing += len(set(ids)) < len(ids)
        assert sharing > 100

    @given(
        st.lists(st.tuples(formulas(modal=("box", "diamond", "nabla")),
                           st.sampled_from(["{}", "({})", "~({})", "({}) & p0", "nabla(({}))"])), max_size=6),
        shared_formulas(),
        st.lists(operator_chains(), max_size=3),
    )
    def test_parse_memo_agrees_on_rendered_formulas(self, wrapped, pool, chains):
        texts = [wrap.format(render(f)) for f, wrap in wrapped] + [render(f) for f in pool] + chains
        memo = {}
        assert [parse(text, memo) for text in texts] == [parse(text) for text in texts]

    def test_repeated_group_is_one_object(self):
        memo = {}
        f = parse("(p0 -> []p1) & nabla (p0 -> []p1)", memo)
        assert f.left is f.right.operand
        assert parse("~(p0 -> []p1)", memo).operand is f.left
        # groups are recalled by their text: another spacing parses equal
        assert parse("~( p0->[]p1 )", memo).operand == f.left
        # a group that differs in its last lexeme is another group
        g = parse("(p0 -> []p2) | (p0 -> []p1)", memo)
        assert g.left == Implies(p0, Box(p2)) and g.right is f.left

    def test_without_a_memo_nothing_is_shared(self):
        f, g = parse("(p0 & p1) | (p0 & p1)"), parse("(p0 & p1) | (p0 & p1)")
        assert f.left is not f.right and f.left is not g.left
        s, t = parse_schema("(A & B) | (A & B)").pattern, parse_schema("(A & B) | (A & B)").pattern
        assert s.left is not s.right and s.left is not t.left

    @pytest.mark.parametrize(
        "inner, opener, closer",
        [
            ("~" * 60 + "p0", "~", ""),
            ("~" * 60 + "p0", "(", ")"),
            ("p0 -> " * 250 + "p1", "p0 -> ", ""),
            ("p0 -> " * 250 + "p1", "(", ")"),
        ],
        ids=["prefixes-in-prefixes", "prefixes-in-parentheses", "arrows-after-arrows", "arrows-in-parentheses"],
    )
    def test_group_stored_shallow_raises_deep(self, inner, opener, closer):
        # Stored at the top, the group is met ever deeper: it parses until
        # it would pass a bound, then raises just as without a memo.
        memo = {}
        parse(f"({inner})", memo)
        got = [outcome(opener * k + f"({inner})" + closer * k, memo) for k in range(70)]
        assert got == [outcome(opener * k + f"({inner})" + closer * k) for k in range(70)]
        assert type(got[0]) is not tuple and type(got[-1]) is tuple

    def test_group_stored_deep_is_recalled_shallow(self):
        # 121 lexemes, more than MAX_NESTING: recalled only inside the
        # nesting it was stored at
        inner = "p0 & " * 60 + "p1"
        memo = {}
        deep = parse("(" * 41 + inner + ")" * 41, memo)
        assert parse(f"~({inner})", memo).operand is deep
        assert parse(f"p2 -> ({inner})", memo).right is deep
        assert parse("(" * 42 + inner + ")" * 42, memo) == deep


class TestRecallByText:
    """A parse memo recalls a group by its raw text: at a ``(``, a stored
    interior that the text continues with, followed by ``)``.  Each test
    pins one condition of a recall; without it a wrong group is recalled,
    or a right one is not."""

    LONG = "p0 -> []p1 | p2 & ~p0 -> nabla p1"  # longer than the index prefix

    def test_stored_group_followed_by_another_character_is_not_recalled(self):
        memo = {}
        parse(f"({self.LONG})", memo)
        for text in (f"({self.LONG} & p2)", f"({self.LONG}& p2)", f"(~({self.LONG} -> p1))"):
            assert parse(text, memo) == parse(text), text

    def test_group_differing_after_the_index_prefix_is_another_group(self):
        assert len(self.LONG) > 2 * syntax._INDEX
        memo = {}
        stored = parse(f"({self.LONG})", memo)
        edited = self.LONG[:-1] + "2"  # same length, same prefix, another last atom
        assert parse(f"~({edited})", memo).operand == parse(edited) != stored
        assert parse(f"~({self.LONG})", memo).operand is stored

    def test_group_shorter_than_the_index_prefix_is_recalled(self):
        for inner in ("p0", "p0&p1", "~p1", "(p0)"):
            assert len(inner) + 1 < syntax._INDEX
            memo = {}
            f = parse(f"({inner}) | p2", memo)
            # recalled in other contexts, so the index cannot depend on what follows the ')'
            assert parse(f"p1 & ({inner})", memo).right is f.left
            g = parse(f"~({inner}) -> ({inner}) & p1", memo)
            assert g == Implies(Not(f.left), And(f.left, p1)) and g.left.operand is g.right.left is f.left
            # a longer group that starts with it is another group
            assert parse(f"({inner} -> p2)", memo) == parse(f"({inner} -> p2)")

    def test_respaced_group_parses_equal(self):
        memo = {}
        f = parse("(p0 & []p1) -> p2", memo)
        for text in ("( p0 & []p1 ) -> p2", "(p0&[]p1) -> p2", "(\tp0 &\n[] p1) -> p2"):
            assert parse(text, memo) == f, text
        # each spelling is a stored group of its own
        assert len(stored_groups(memo)) == 4

    @pytest.mark.parametrize(
        "text",
        ["(p0 & p1) & q", "(p0 & p1) $ (p0 & p1)", "(p0 & p1) | q7 & (p0 & p1) $", "~(p0 & p1) (",
         "((p0 & p1) & p1q)", "(p0 & p1) -> (p0 & p1", "(p0 & p1) -> (p0 & p1)) q"],
    )
    def test_error_after_a_recalled_group_is_the_plain_parses(self, text):
        memo = {}
        parse("(p0 & p1) | (p0 & p1)", memo)
        assert type(outcome(text)) is tuple
        assert outcome(text, memo) == outcome(text)
        # and again, with whatever the failed parse stored
        assert outcome(text, memo) == outcome(text)
        # ``parse`` raises the error again without the memo, but the parse
        # with it already gives the same message and column
        with pytest.raises(FormulaSyntaxError) as exc:
            syntax._Parser(text, False, memo).parse()
        assert (str(exc.value), exc.value.position) == outcome(text)

    @pytest.mark.parametrize(
        "inner, opener, closer",
        [
            ("~" * 60 + "p0", "~", ""),
            ("~" * 60 + "p0", "(", ")"),
            ("p0 -> " * 40 + "p1", "p0 -> ", ""),
            ("p0 -> " * 40 + "p1", "(", ")"),
        ],
        ids=["prefixes-in-prefixes", "prefixes-in-parentheses", "arrows-after-arrows", "arrows-in-parentheses"],
    )
    def test_group_stored_around_a_recalled_group_raises_deep(self, inner, opener, closer):
        # The outer group is stored while its inner group is recalled, so its
        # bounds must count the recalled lexemes; then it is met ever deeper,
        # past both bounds.  (81 lexemes of arrows still leave the inner
        # group room for the outer group's parenthesis.)
        memo = {}
        first = parse(f"({inner})", memo)
        outer = f"(p2 & ({inner}))"
        assert parse(outer, memo).right is first
        got = [outcome(opener * k + outer + closer * k, memo) for k in range(300)]
        assert got == [outcome(opener * k + outer + closer * k) for k in range(300)]
        assert type(got[0]) is not tuple and type(got[-1]) is tuple


class TestSchemas:
    def test_match_t_instance(self):
        t = parse_schema("[]A -> A")
        f = parse("[](p0 & p1) -> p0 & p1")
        assert match_schema(t, f) == {0: And(p0, p1)}

    def test_match_t_mismatch(self):
        t = parse_schema("[]A -> A")
        assert match_schema(t, parse("[]p0 -> p1")) is None

    def test_match_five(self):
        five = parse_schema("<>A -> []<>A")
        assert match_schema(five, parse("<>p2 -> []<>p2")) == {0: p2}

    def test_instantiate_t_top(self):
        t = parse_schema("[]A -> A")
        assert instantiate(t, {0: TOP}) == parse("[]true -> true")

    def test_instantiate_ax1(self):
        ax1 = parse_schema("(nabla A & nabla B) -> nabla(A & B)")
        got = instantiate(ax1, {0: p0, 1: p1})
        assert got == parse("nabla p0 & nabla p1 -> nabla(p0 & p1)")

    def test_instantiate_identity_schema(self):
        assert instantiate(parse_schema("A"), {0: p3}) == p3

    def test_instantiate_unbound(self):
        with pytest.raises(UnboundMetavariableError):
            instantiate(parse_schema("A -> B"), {0: p0})

    def test_metavariable_past_z_has_one_name(self):
        s = Schema(Implies(Atom(26), Atom(0)))
        with pytest.raises(UnboundMetavariableError, match="^metavariable A26 is unbound$"):
            instantiate(s, {0: p0})

    @pytest.mark.parametrize("text, column", [("p1 -> B", 0), ("A -> p0", 5), ("[](A & p12)", 7)])
    def test_atoms_are_not_metavariables(self, text, column):
        word = text[column:].split()[0].rstrip(")")
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_schema(text)
        assert str(exc.value) == f"unknown identifier {word!r} (at column {column})"

    @given(formulas(atoms=(0, 1), modal=("box", "diamond", "nabla"), max_leaves=6))
    def test_named_schemas_match_own_instances(self, f):
        for name, schema in SCHEMAS.items():
            metas = sorted(atoms_of(schema.pattern))
            binding = {m: f for m in metas}
            instance = instantiate(schema, binding)
            got = match_schema(schema, instance)
            assert got is not None
            assert instantiate(schema, got) == instance

    @given(formulas(modal=("box",), max_leaves=8))
    def test_match_soundness(self, f):
        t = Schema(parse("[]p0 -> p0"))  # atoms read as metavariables
        binding = match_schema(t, f)
        if binding is not None:
            assert instantiate(t, binding) == f


class TestDialects:
    def test_dialect_of(self):
        assert dialect_of(parse("p0 -> p1")) is Dialect.CLASSICAL
        assert dialect_of(parse("[]p0")) is Dialect.BOX
        assert dialect_of(parse("<>p0")) is Dialect.S5
        assert dialect_of(parse("[]p0 -> <>p0")) is Dialect.S5
        assert dialect_of(parse("nabla p0")) is Dialect.NABLA

    def test_mixed_dialect_rejected(self):
        with pytest.raises(DialectError):
            dialect_of(parse("nabla p0 & <>p1"))

    def test_translate_single_operator(self):
        assert translate(Nabla(p0), Dialect.NABLA, Dialect.BOX) == Box(p0)

    def test_translate_ax1_to_c(self):
        ax1 = parse("nabla p0 & nabla p1 -> nabla(p0 & p1)")
        c = parse("[]p0 & []p1 -> [](p0 & p1)")
        assert translate(ax1, Dialect.NABLA, Dialect.BOX) == c

    def test_translate_identity_on_classical(self):
        f = parse("p0 -> p1")
        assert translate(f, Dialect.NABLA, Dialect.BOX) == f

    @given(formulas(modal=("box", "diamond", "nabla")), st.sampled_from(list(Dialect)))
    def test_require_dialect_names_exactly_the_foreign_operators(self, f, dialect):
        foreign = {type(g) for g in subformulas(f)} & {Box, Diamond, Nabla} - ADMITTED[dialect]
        if fits_dialect(f, dialect):
            assert not foreign
            require_dialect(f, dialect)
            return
        assert foreign
        names = ", ".join(sorted(t.__name__ for t in foreign))
        with pytest.raises(DialectError) as exc:
            require_dialect(f, dialect)
        assert str(exc.value) == f"{names} not allowed in dialect {dialect.value}: {render(f)}"

    def test_translate_dialect_violation(self):
        with pytest.raises(DialectError):
            translate(parse("[]p0"), Dialect.NABLA, Dialect.BOX)
        with pytest.raises(DialectError):
            translate(parse("<>p0"), Dialect.BOX, Dialect.NABLA)

    @given(formulas(modal=("nabla",)))
    def test_translate_involution(self, f):
        there = translate(f, Dialect.NABLA, Dialect.BOX)
        back = translate(there, Dialect.BOX, Dialect.NABLA)
        assert back == f


def union_of_subformulas(f):
    """The reference for ``subformulas``: the union, at every node, of the
    node and its operands' subformulas."""
    match f:
        case Atom() | Top() | Bottom():
            return frozenset({f})
        case Not(g) | Box(g) | Diamond(g) | Nabla(g):
            return frozenset({f}) | union_of_subformulas(g)
        case _:
            return frozenset({f}) | union_of_subformulas(f.left) | union_of_subformulas(f.right)


class TestMeasures:
    @staticmethod
    def modal_depth(f):
        """The modal depth that ``compile_program`` records for the search."""
        modal = {}
        compile_program(f, {}, modal)
        return max(modal.values(), default=0)

    def test_modal_depth(self):
        assert self.modal_depth(parse("[][]p0")) == 2
        assert self.modal_depth(parse("p0 & p1")) == 0
        assert self.modal_depth(parse("[]p0 -> <>(p1 & []p0)")) == 2

    def test_atoms_of(self):
        assert atoms_of(parse("[](p0 & p2)")) == {0, 2}

    def test_subformulas(self):
        assert subformulas(Not(p0)) == {Not(p0), p0}
        c = parse("[]p0 & p1")
        assert subformulas(c) == {c, Box(p0), p0, p1}

    @given(formulas(modal=("box", "diamond", "nabla")))
    def test_subformulas_match_the_recursive_union(self, f):
        assert subformulas(f) == union_of_subformulas(f)
        assert type(subformulas(f)) is frozenset

    @given(shared_formulas())
    def test_subformulas_of_shared_nodes(self, fs):
        for f in fs:
            assert subformulas(f) == union_of_subformulas(f)

    def test_subformulas_of_a_300_box_disjunction(self):
        f = parse("|".join(f"[]p{i}" for i in range(300)))
        found = subformulas(f)
        assert found == union_of_subformulas(f)
        assert len(found) == 899  # 300 atoms, 300 boxes, 299 disjunctions

    @given(formulas())
    def test_modal_depth_zero_iff_classical(self, f):
        assert (self.modal_depth(f) == 0) == (dialect_of(f) is Dialect.CLASSICAL)
