import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FIXTURES, formulas
from plausible.proofs import SCHEMAS
from plausible.syntax import (
    BOTTOM,
    TOP,
    And,
    Atom,
    Box,
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
    UnboundMetavariableError,
    atoms_of,
    dialect_of,
    instantiate,
    match_schema,
    modal_depth,
    parse,
    parse_schema,
    render,
    render_schema,
    subformulas,
    translate,
)

p0, p1, p2, p3 = Atom(0), Atom(1), Atom(2), Atom(3)


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


class TestGoldenErrors:
    """``fixtures/syntax_errors.json`` holds seeded malformed texts with the
    message and column the tokenizer-based parser gave them (written by
    ``tests/record_syntax_errors.py``); the parser must reproduce them."""

    TABLE = json.loads((FIXTURES / "syntax_errors.json").read_text(encoding="utf-8"))

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

    @pytest.mark.parametrize("text, column", [("p1 -> B", 0), ("A -> p0", 5), ("[](A & p12)", 7)])
    def test_atoms_are_not_metavariables(self, text, column):
        word = text[column:].split()[0].rstrip(")")
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_schema(text)
        assert str(exc.value) == f"unknown identifier {word!r} (at column {column})"

    def test_render_schema(self):
        assert render_schema(parse_schema("[]A -> A")) == "[]A -> A"

    @given(formulas(atoms=(0, 1), modal=("box", "diamond", "nabla"), max_leaves=6))
    def test_named_schemas_match_own_instances(self, f):
        for name, schema in SCHEMAS.items():
            metas = sorted(schema.metavariables())
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


class TestMeasures:
    def test_modal_depth(self):
        assert modal_depth(parse("[][]p0")) == 2
        assert modal_depth(parse("p0 & p1")) == 0
        assert modal_depth(parse("[]p0 -> <>(p1 & []p0)")) == 2

    def test_atoms_of(self):
        assert atoms_of(parse("[](p0 & p2)")) == {0, 2}

    def test_subformulas(self):
        assert subformulas(Not(p0)) == {Not(p0), p0}
        c = parse("[]p0 & p1")
        assert subformulas(c) == {c, Box(p0), p0, p1}

    @given(formulas())
    def test_modal_depth_zero_iff_classical(self, f):
        assert (modal_depth(f) == 0) == (dialect_of(f) is Dialect.CLASSICAL)
