"""A small region-expression language.

Grammar (whitespace-insensitive):

    expr := IDENT
          | "I" "(" rat "," rat ")"
          | "pt" "(" rat ")"
          | ("cl" | "int" | "reg" | "perp" | "neg") "(" expr ")"
          | ("join" | "meet" | "union" | "inter" | "diff") "(" expr "," expr ")"
    rat  := integer ("/" positive-integer)?

Digits are decimal digits (`str.isdecimal`); a superscript or other
non-decimal digit is a stray character.

Operator names are reserved; any other identifier refers to a binding.
`I(a,b)` denotes the open interval clipped to the space, `pt(c)` the
clipped singleton, and `neg` is the same Boolean negation as `perp`.
Operators nest at most MAX_NESTING deep; deeper input is a syntax error.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Optional, Union

from .errors import ExprSyntaxError, SpaceMismatch, UnboundName
from .rationals import Rational, parse_rat
from .space import Region, Space1D, Span, ropen_join, ropen_meet

# operator -> (arity, Region method or module-level function); names are
# looked up at each call, so a rebinding of either is seen
OPERATORS = {
    "cl": (1, "closure"), "int": (1, "interior"), "reg": (1, "regularize"),
    "perp": (1, "perp"), "neg": (1, "perp"),
    "join": (2, "ropen_join"), "meet": (2, "ropen_meet"),
    "union": (2, "union"), "inter": (2, "intersect"), "diff": (2, "difference"),
}
# parsing and evaluation recurse once per level, so this bounds the stack
MAX_NESTING = 200

# one token per match; `\w`, `\d` and `\s` are str.isalnum (or "_"),
# str.isdecimal and str.isspace
_TOKEN = re.compile(r"(?P<space>\s+)|(?P<ident>[^\W\d]\w*)|(?P<rat>-?\d+(?P<slash>/\d*)?)"
                    r"|(?P<punct>[(),])|(?P<stray>.)", re.DOTALL)


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


def _tokens(text: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, col) of each token, then an "end" token; punctuation is its own kind."""
    out = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, word, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "space":
            if "\n" in word:
                line += word.count("\n")
                line_start = m.start() + word.rindex("\n") + 1
            continue
        if kind == "ident" and not (word[0].isalpha() or word[0] == "_"):
            kind, word = "stray", word[0]  # a numeric character that is no decimal digit
        if kind == "stray":
            raise ExprSyntaxError(line, col, ["identifier", "number", "(", ")", ","], word)
        if m["slash"] == "/":
            raise ExprSyntaxError(line, m.start("slash") - line_start + 1, ["digit"], "/")
        out.append((word if kind == "punct" else kind, word, line, col))
    out.append(("end", "", line, len(text) - line_start + 1))
    return out


def parse_expr(text: str) -> Expr:
    toks = _tokens(text)
    at = 0

    def fail(expected: str, at_end: str = ""):
        _, word, line, col = toks[at]
        raise ExprSyntaxError(line, col, [expected], word or at_end)

    def take(kind: str, what: str) -> str:
        nonlocal at
        if toks[at][0] != kind:
            fail(what, "end of input")
        at += 1
        return toks[at - 1][1]

    def expr(depth: int) -> Expr:
        if toks[at][0] == "rat":
            fail("expression")
        name = take("ident", "expression")
        if name in ("I", "pt"):
            take("(", "(")
            ends = [parse_rat(take("rat", "rational number"))]
            if name == "I":
                take(",", ",")
                ends.append(parse_rat(take("rat", "rational number")))
            take(")", ")")
            return IntervalLit(*ends) if name == "I" else PointLit(*ends)
        if name not in OPERATORS:
            return Name(name)
        take("(", "(")
        args = []
        for i in range(OPERATORS[name][0]):
            if i:
                take(",", ",")
            if depth == MAX_NESTING:
                fail(f"at most {MAX_NESTING} nested operators")
            args.append(expr(depth + 1))
        take(")", ")")
        return Unary(name, *args) if len(args) == 1 else Binary(name, *args)

    out = expr(0)
    if toks[at][0] != "end":
        fail("end of input")
    return out


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
        return Region(space, [Span(e.a, e.b, False, False)])
    if isinstance(e, PointLit):
        return Region(space, [Span(e.at, e.at, True, True)])
    operands = (e.arg,) if isinstance(e, Unary) else (e.left, e.right)
    args = [_eval(a, space, bindings) for a in operands]
    name = OPERATORS[e.op][1]
    fn = globals().get(name)  # ropen_join/ropen_meet; the rest are Region methods
    return fn(*args) if fn else getattr(args[0], name)(*args[1:])
