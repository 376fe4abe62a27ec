"""Region-expression parsing, printing, and evaluation."""
from __future__ import annotations

import random

import pytest

from regopen.errors import ExprSyntaxError, SpaceMismatch, UnboundName
from regopen.exprlang import (
    Binary,
    Expr,
    IntervalLit,
    Name,
    PointLit,
    Unary,
    eval_expr,
    parse_expr,
)
from regopen.rationals import parse_rat, rat, rat_str

from conftest import MIXED, UNIT, UNIT_PT, region


def print_expr(e: Expr) -> str:
    """The canonical text of an expression: the round-trip oracle for the parser."""
    if isinstance(e, Name):
        return e.ident
    if isinstance(e, IntervalLit):
        return f"I({rat_str(e.a)},{rat_str(e.b)})"
    if isinstance(e, PointLit):
        return f"pt({rat_str(e.at)})"
    if isinstance(e, Unary):
        return f"{e.op}({print_expr(e.arg)})"
    return f"{e.op}({print_expr(e.left)},{print_expr(e.right)})"


class TestParse:
    def test_nested_example(self):
        ast = parse_expr("reg(union(I(1/4,1/2),I(1/2,3/4)))")
        assert ast == Unary(
            "reg",
            Binary(
                "union",
                IntervalLit(rat(1, 4), rat(1, 2)),
                IntervalLit(rat(1, 2), rat(3, 4)),
            ),
        )

    def test_double_perp(self):
        ast = parse_expr("perp(perp(I(0,1)))")
        assert ast == Unary("perp", Unary("perp", IntervalLit(0, 1)))

    def test_whitespace_insensitive(self):
        a = parse_expr("join( x ,\n  meet(y , z) )")
        assert a == Binary("join", Name("x"), Binary("meet", Name("y"), Name("z")))

    def test_negative_rationals(self):
        assert parse_expr("I(-1,-1/2)") == IntervalLit(-1, rat(-1, 2))

    def test_point_literal(self):
        assert parse_expr("pt(2)") == PointLit(2)

    def test_truncated_input(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr("join(x,")
        assert exc.value.line == 1 and exc.value.col == 8
        assert exc.value.found == "end of input"

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr("x y")
        assert exc.value.col == 3
        assert "end of input" in exc.value.expected

    def test_number_is_not_an_expression(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("1/4")

    def test_broken_fraction(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("I(1/,2)")

    def test_stray_character(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr("join(x;y)")
        assert exc.value.found == ";"

    def test_a_numeric_character_that_is_no_decimal_digit_is_stray(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr("join(x,²)")
        assert exc.value.found == "²"
        assert str(exc.value) == "line 1, col 8: expected identifier, number, (, ), ,, found '²'"

    def test_malformed_rational_literals_are_named(self):
        with pytest.raises(ValueError) as exc:
            parse_rat("1/2/3")
        assert str(exc.value) == "not a rational literal: '1/2/3'"
        with pytest.raises(ValueError) as exc:
            parse_rat("1/0")
        assert str(exc.value) == "zero denominator: '1/0'"

    def test_error_position_across_lines(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr("join(\n  x\n  y)")
        assert exc.value.line == 3


def random_ast(rng: random.Random, depth: int):
    if depth == 0:
        pick = rng.randrange(3)
        if pick == 0:
            return Name(rng.choice(["x", "y", "zz_1"]))
        if pick == 1:
            a = rat(rng.randint(-4, 3), rng.randint(1, 8))
            return IntervalLit(a, a + rat(rng.randint(1, 8), 8))
        return PointLit(rat(rng.randint(-8, 8), rng.randint(1, 4)))
    if rng.random() < 0.5:
        op = rng.choice(["cl", "int", "reg", "perp", "neg"])
        return Unary(op, random_ast(rng, depth - 1))
    op = rng.choice(["join", "meet", "union", "inter", "diff"])
    return Binary(op, random_ast(rng, depth - 1), random_ast(rng, rng.randrange(depth)))


class TestRoundTrip:
    def test_parse_print_random(self):
        rng = random.Random(2718)
        for _ in range(120):
            ast = random_ast(rng, rng.randint(0, 4))
            assert parse_expr(print_expr(ast)) == ast

    def test_print_parse_on_canonical_text(self):
        for text in (
            "x",
            "I(1/4,1/2)",
            "pt(-3)",
            "neg(I(0,1/2))",
            "diff(cl(x),int(y))",
        ):
            assert print_expr(parse_expr(text)) == text


class TestEval:
    def test_reg_of_half(self):
        out = eval_expr(parse_expr("reg(I(0,1/2))"), UNIT)
        assert out.region == region(UNIT, (0, "1/2", True, False))
        assert out.regular_open and out.open and not out.closed

    def test_meet_with_neg_is_empty(self):
        out = eval_expr(parse_expr("meet(I(0,1/2),neg(I(0,1/2)))"), UNIT)
        assert out.region.is_empty

    def test_closure_flags(self):
        out = eval_expr(parse_expr("cl(I(1/4,3/4))"), UNIT)
        assert out.region == region(UNIT, ("1/4", "3/4", True, True))
        assert out.closed and not out.open

    def test_join_regularizes_across_touch(self):
        out = eval_expr(parse_expr("join(I(1/4,1/2),I(1/2,3/4))"), UNIT)
        assert out.region == region(UNIT, ("1/4", "3/4", False, False))

    def test_interval_literal_clips(self):
        out = eval_expr(parse_expr("I(-5,1/2)"), UNIT)
        assert out.region == region(UNIT, (0, "1/2", True, False))

    def test_interval_literal_respects_gaps(self):
        # the literal is the open interval: 0 itself stays out
        out = eval_expr(parse_expr("I(0,1)"), MIXED)
        assert out.region == region(
            MIXED,
            (0, "1/4", False, True),
            ("1/2", "1/2", True, True),
            ("3/4", 1, True, False),
        )

    def test_point_literal(self):
        assert eval_expr(parse_expr("pt(2)"), UNIT_PT).region == region(
            UNIT_PT, (2, 2, True, True)
        )
        assert eval_expr(parse_expr("pt(5)"), UNIT_PT).region.is_empty

    def test_neg_is_perp(self):
        u = parse_expr("neg(x)")
        p = parse_expr("perp(x)")
        env = {"x": region(UNIT, ("1/4", "3/4", False, False))}
        assert eval_expr(u, UNIT, env).region == eval_expr(p, UNIT, env).region

    def test_bindings(self):
        env = {"x": region(UNIT, (0, "1/2", True, False))}
        out = eval_expr(parse_expr("diff(I(0,1),x)"), UNIT, env)
        assert out.region == region(UNIT, ("1/2", 1, True, False))

    def test_unbound_name(self):
        with pytest.raises(UnboundName):
            eval_expr(parse_expr("cl(nope)"), UNIT)

    def test_foreign_binding_rejected(self):
        env = {"x": region(MIXED, (0, "1/4", True, True))}
        with pytest.raises(SpaceMismatch):
            eval_expr(parse_expr("x"), UNIT, env)


SYMBOLS = ["identifier", "number", "(", ")", ","]
N, U, B = Name, Unary, Binary

# outcomes of parse_expr recorded from the character-loop tokenizer this
# module had before it read tokens with one pattern: an AST, or the
# (line, col, expected, found) of the syntax error
GOLDEN = [
    ("join(x;y)", (1, 7, SYMBOLS, ";")),
    ("meet(x,\n  y?)", (2, 4, SYMBOLS, "?")),
    ("I(1/,2)", (1, 4, ["digit"], "/")),
    ("pt(1/", (1, 5, ["digit"], "/")),
    ("join(x,", (1, 8, ["expression"], "end of input")),
    ("I(0,", (1, 5, ["rational number"], "end of input")),
    ("x y", (1, 3, ["end of input"], "y")),
    ("cl(x))", (1, 6, ["end of input"], ")")),
    ("1/4", (1, 1, ["expression"], "1/4")),
    ("neg(-2)", (1, 5, ["expression"], "-2")),
    ("I(a,1)", (1, 3, ["rational number"], "a")),
    ("union(x y)", (1, 9, [","], "y")),
    ("perp x", (1, 6, ["("], "x")),
    ("", (1, 1, ["expression"], "end of input")),
    (" \n\t ", (2, 3, ["expression"], "end of input")),
    ("join(\n  x\n  y)", (3, 3, [","], "y")),
    ("join(\tx,\n\ty)", B("join", N("x"), N("y"))),
    ("inter(x,\ry", (1, 11, [")"], "end of input")),
    ("meet(λ,é_1)", B("meet", N("λ"), N("é_1"))),
    ("diff(λ;)", (1, 7, SYMBOLS, ";")),
    ("union(I(-1,-1/2),pt(3/4))", B("union", IntervalLit(-1, rat(-1, 2)), PointLit(rat(3, 4)))),
    (
        "diff(join(cl(a),int(b)),meet(reg(c),union(perp(d),inter(neg(e),f))))",
        B("diff", B("join", U("cl", N("a")), U("int", N("b"))),
          B("meet", U("reg", N("c")), B("union", U("perp", N("d")), B("inter", U("neg", N("e")), N("f"))))),
    ),
    ("I", (1, 2, ["("], "end of input")),
    ("perp(" * 200 + "x" + ")" * 200, "200 perps"),
    ("perp(" * 201 + "x" + ")" * 201, (1, 1006, ["at most 200 nested operators"], "x")),
    ("perp(" * 201, (1, 1006, ["at most 200 nested operators"], "")),
    ("perp(" * 200, (1, 1001, ["expression"], "end of input")),
    ("join(x," * 201 + "y" + ")" * 201, (1, 1406, ["at most 200 nested operators"], "x")),
]


def _perps(n: int):
    ast = N("x")
    for _ in range(n):
        ast = U("perp", ast)
    return ast


class TestGolden:
    @pytest.mark.parametrize("text,expected", GOLDEN, ids=range(len(GOLDEN)))
    def test_same_ast_or_error(self, text, expected):
        if expected == "200 perps":
            expected = _perps(200)
        if isinstance(expected, tuple):
            with pytest.raises(ExprSyntaxError) as exc:
                parse_expr(text)
            err = exc.value
            assert (err.line, err.col, list(err.expected), err.found) == expected
        else:
            assert parse_expr(text) == expected
