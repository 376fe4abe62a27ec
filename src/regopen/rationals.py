"""Exact rational arithmetic helpers over fractions.Fraction."""
from __future__ import annotations

import re
from fractions import Fraction as Q
from typing import Optional, Union

# the name annotations use for an exact rational
Rational = Q

_RAT_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")
# The most digits `parse_rat` reads in a numerator or a denominator, leading
# zeros included: CPython's default limit on int-from-string conversion, which
# 3.10.6 and older lack and `sys.set_int_max_str_digits` can move.  Declared
# here, it gives every literal the same fate on every interpreter.
MAX_LITERAL_DIGITS = 4300


def rat(num: Union[int, str, Rational], den: Optional[int] = None) -> Rational:
    """Build a rational from an int, an exact string, or a num/den pair."""
    if den is not None:
        return Q(num, den)
    if type(num) is Q:
        return num
    if isinstance(num, str):
        return parse_rat(num)
    return Q(num)


def parse_rat(s: str) -> Rational:
    """Parse "p/q" or "n" (q positive). Raises ValueError otherwise."""
    if not isinstance(s, str):
        raise ValueError(f"rational literal must be a string, got {s!r}")
    m = _RAT_RE.match(s.strip())
    if not m:
        raise ValueError(f"not a rational literal: {s!r}")
    if max(len(m.group(1).lstrip("-")), len(m.group(2) or "")) > MAX_LITERAL_DIGITS:
        raise ValueError(f"a rational literal's numerator and denominator have at most {MAX_LITERAL_DIGITS} digits")
    num = int(m.group(1))
    if m.group(2) is None:
        return Q(num)
    den = int(m.group(2))
    if den == 0:
        raise ValueError(f"zero denominator: {s!r}")
    return Q(num, den)


# A result can have more digits than any literal (x ↦ 3x/4 takes 1/7…7 to
# 3/31…108), so its output is bounded the same way, without converting it.
_DIGIT_BOUND = 10 ** MAX_LITERAL_DIGITS


def rat_str(x: Rational) -> str:
    """Lowest-terms string form: "p/q", or "n" when integral, of at most
    `MAX_LITERAL_DIGITS` digits in the numerator and the denominator."""
    if abs(x.numerator) >= _DIGIT_BOUND or x.denominator >= _DIGIT_BOUND:
        raise ValueError(f"a result's numerator and denominator have at most {MAX_LITERAL_DIGITS} digits")
    return str(x)
