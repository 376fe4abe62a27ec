"""A small region-expression language.

Grammar (whitespace-insensitive):

    expr := IDENT
          | "I" "(" rat "," rat ")"
          | "pt" "(" rat ")"
          | ("cl" | "int" | "reg" | "perp" | "neg") "(" expr ")"
          | ("join" | "meet" | "union" | "inter" | "diff") "(" expr "," expr ")"
    rat  := integer ("/" positive-integer)?

Operator names are reserved; any other identifier refers to a binding.
`I(a,b)` denotes the open interval clipped to the space, `pt(c)` the
clipped singleton, and `neg` is the same Boolean negation as `perp`.
Operators nest at most MAX_NESTING deep; deeper input is a syntax error.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Union

from .errors import ExprSyntaxError, SpaceMismatch, UnboundName
from .rationals import Rational, parse_rat, rat_str
from .space import Region, Space1D, Span, ropen_join, ropen_meet

UNARY_OPS = ("cl", "int", "reg", "perp", "neg")
BINARY_OPS = ("join", "meet", "union", "inter", "diff")
RESERVED = set(UNARY_OPS) | set(BINARY_OPS) | {"I", "pt"}
# parsing, evaluation and printing recurse once per level, so this bounds the stack
MAX_NESTING = 200


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class IntervalLit:
    a: Rational
    b: Rational


@dataclass(frozen=True)
class PointLit:
    at: Rational


@dataclass(frozen=True)
class Unary:
    op: str
    arg: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


Expr = Union[Name, IntervalLit, PointLit, Unary, Binary]


@dataclass(frozen=True)
class Token:
    kind: str  # ident, rat, lparen, rparen, comma, end
    text: str
    line: int
    col: int


def _tokens(text: str) -> Iterator[Token]:
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        start_col = col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield Token("ident", text[i:j], line, start_col)
            col += j - i
            i = j
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "/":
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                if k == j + 1:
                    raise ExprSyntaxError(line, col + (j - i), ["digit"], "/")
                j = k
            yield Token("rat", text[i:j], line, start_col)
            col += j - i
            i = j
            continue
        simple = {"(": "lparen", ")": "rparen", ",": "comma"}
        if ch in simple:
            yield Token(simple[ch], ch, line, start_col)
            col += 1
            i += 1
            continue
        raise ExprSyntaxError(line, col, ["identifier", "number", "(", ")", ","], ch)
    yield Token("end", "", line, col)


class _Parser:
    def __init__(self, text: str):
        self.toks = list(_tokens(text))
        self.pos = 0
        self.depth = 0

    @property
    def cur(self) -> Token:
        return self.toks[self.pos]

    def bump(self) -> Token:
        tok = self.cur
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        if self.cur.kind != kind:
            raise ExprSyntaxError(
                self.cur.line, self.cur.col, [what], self.cur.text or "end of input"
            )
        return self.bump()

    def rat(self) -> Rational:
        tok = self.expect("rat", "rational number")
        return parse_rat(tok.text)

    def operand(self) -> Expr:
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError(
                self.cur.line, self.cur.col,
                [f"at most {MAX_NESTING} nested operators"], self.cur.text,
            )
        self.depth += 1
        out = self.expr()
        self.depth -= 1
        return out

    def expr(self) -> Expr:
        tok = self.cur
        if tok.kind == "rat":
            raise ExprSyntaxError(tok.line, tok.col, ["expression"], tok.text)
        name = self.expect("ident", "expression").text
        if name == "I":
            self.expect("lparen", "(")
            a = self.rat()
            self.expect("comma", ",")
            b = self.rat()
            self.expect("rparen", ")")
            return IntervalLit(a, b)
        if name == "pt":
            self.expect("lparen", "(")
            at = self.rat()
            self.expect("rparen", ")")
            return PointLit(at)
        if name in UNARY_OPS:
            self.expect("lparen", "(")
            arg = self.operand()
            self.expect("rparen", ")")
            return Unary(name, arg)
        if name in BINARY_OPS:
            self.expect("lparen", "(")
            left = self.operand()
            self.expect("comma", ",")
            right = self.operand()
            self.expect("rparen", ")")
            return Binary(name, left, right)
        return Name(name)


def parse_expr(text: str) -> Expr:
    parser = _Parser(text)
    out = parser.expr()
    tok = parser.cur
    if tok.kind != "end":
        raise ExprSyntaxError(tok.line, tok.col, ["end of input"], tok.text)
    return out


def print_expr(e: Expr) -> str:
    if isinstance(e, Name):
        return e.ident
    if isinstance(e, IntervalLit):
        return f"I({rat_str(e.a)},{rat_str(e.b)})"
    if isinstance(e, PointLit):
        return f"pt({rat_str(e.at)})"
    if isinstance(e, Unary):
        return f"{e.op}({print_expr(e.arg)})"
    return f"{e.op}({print_expr(e.left)},{print_expr(e.right)})"


@dataclass(frozen=True)
class EvalResult:
    region: Region
    open: bool
    closed: bool
    regular_open: bool


def eval_expr(
    e: Expr, space: Space1D, bindings: Optional[Mapping[str, Region]] = None
) -> EvalResult:
    region = _eval(e, space, bindings or {})
    return EvalResult(
        region, region.is_open(), region.is_closed(), region.is_regular_open()
    )


def _eval(e: Expr, space: Space1D, bindings: Mapping[str, Region]) -> Region:
    if isinstance(e, Name):
        if e.ident not in bindings:
            raise UnboundName(e.ident)
        region = bindings[e.ident]
        if region.space != space:
            raise SpaceMismatch(f"binding {e.ident} is over a different space")
        return region
    if isinstance(e, IntervalLit):
        return Region.make(space, [Span(e.a, e.b, False, False)])
    if isinstance(e, PointLit):
        return Region.make(space, [Span(e.at, e.at, True, True)])
    if isinstance(e, Unary):
        arg = _eval(e.arg, space, bindings)
        if e.op == "cl":
            return arg.closure()
        if e.op == "int":
            return arg.interior()
        if e.op == "reg":
            return arg.regularize()
        return arg.perp()  # perp and neg coincide
    left = _eval(e.left, space, bindings)
    right = _eval(e.right, space, bindings)
    if e.op == "join":
        return ropen_join(left, right)
    if e.op == "meet":
        return ropen_meet(left, right)
    if e.op == "union":
        return left.union(right)
    if e.op == "inter":
        return left.intersect(right)
    return left.difference(right)
