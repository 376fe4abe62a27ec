"""Reference answers that share no code with the package under test.

Regions are plain tuples of spans ``(lo, hi, lo_incl, hi_incl)`` over a
space given as a tuple of components ``(a, b)``, with ``a == b`` for an
isolated point.  The reference splits the space into atoms at every
breakpoint (each breakpoint is a point atom, each stretch between two
consecutive breakpoints an open gap atom), marks the atoms a region
covers with one linear pass, and reads spans back off maximal runs of
marked atoms.  Clopens of Cantor space are bit masks over the cells of a
fixed depth.  Everything is exact (``fractions.Fraction``).
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable, Sequence

RSpan = tuple  # (lo, hi, lo_incl, hi_incl)


class Atoms:
    """The atoms of a space cut at a set of breakpoints, in line order."""

    def __init__(self, comps: Sequence[tuple], cut_values: Iterable[Fraction]):
        cuts = sorted(set(cut_values))
        self.comps = tuple(comps)
        self.lo: list = []
        self.hi: list = []
        self.comp: list = []
        for ci, (a, b) in enumerate(self.comps):
            if a == b:
                self._add(a, a, ci)
                continue
            pts = [a] + cuts[bisect_right(cuts, a):bisect_left(cuts, b)] + [b]
            for i, p in enumerate(pts):
                self._add(p, p, ci)
                if i + 1 < len(pts):
                    self._add(p, pts[i + 1], ci)
        # a point sorts before the gap that starts at it
        self.keys = [(lo, 0 if lo == hi else 1) for lo, hi in zip(self.lo, self.hi)]

    def _add(self, lo, hi, ci):
        self.lo.append(lo)
        self.hi.append(hi)
        self.comp.append(ci)

    def is_point(self, i: int) -> bool:
        return self.lo[i] == self.hi[i]

    def cover(self, spans: Iterable[RSpan]) -> list:
        """Atom membership of the union of (raw, possibly clipped) spans."""
        n = len(self.keys)
        diff = [0] * (n + 1)
        for lo, hi, lo_incl, hi_incl in spans:
            start = bisect_left(self.keys, (lo, 0 if lo_incl else 1))
            if hi_incl:
                end = bisect_right(self.keys, (hi, 0)) - 1
            else:
                end = bisect_left(self.keys, (hi, 0)) - 1
            if start <= end:
                diff[start] += 1
                diff[end + 1] -= 1
        out, run = [], 0
        for i in range(n):
            run += diff[i]
            out.append(run > 0)
        return out

    def _neighbours(self, i: int):
        left = i - 1 if i > 0 and self.comp[i - 1] == self.comp[i] else None
        right = i + 1 if i + 1 < len(self.lo) and self.comp[i + 1] == self.comp[i] else None
        return left, right

    def closure(self, bits: list) -> list:
        out = list(bits)
        for i in range(len(bits)):
            if self.is_point(i) and not bits[i]:
                left, right = self._neighbours(i)
                out[i] = (left is not None and bits[left]) or (right is not None and bits[right])
        return out

    def interior(self, bits: list) -> list:
        out = list(bits)
        for i in range(len(bits)):
            if self.is_point(i) and bits[i]:
                left, right = self._neighbours(i)
                out[i] = (left is None or bits[left]) and (right is None or bits[right])
        return out

    def spans(self, bits: list) -> tuple:
        """Maximal runs of marked atoms inside one component, as spans."""
        out = []
        i, n = 0, len(bits)
        while i < n:
            if not bits[i]:
                i += 1
                continue
            j = i
            while j + 1 < n and bits[j + 1] and self.comp[j + 1] == self.comp[i]:
                j += 1
            out.append((self.lo[i], self.hi[j], self.is_point(i), self.is_point(j)))
            i = j + 1
        return tuple(out)


def _atoms_for(comps, *regions) -> Atoms:
    return Atoms(comps, (x for r in regions for s in r for x in (s[0], s[1])))


def canonical(comps, raw_spans) -> tuple:
    raw = tuple(raw_spans)
    at = _atoms_for(comps, raw)
    return at.spans(at.cover(raw))


def unary(comps, op: str, u) -> tuple:
    at = _atoms_for(comps, u)
    bits = at.cover(u)
    if op == "closure":
        bits = at.closure(bits)
    elif op == "interior":
        bits = at.interior(bits)
    elif op == "regularize":
        bits = at.interior(at.closure(bits))
    elif op == "complement":
        bits = [not b for b in bits]
    elif op in ("perp", "neg"):
        bits = [not b for b in at.closure(bits)]
    else:
        raise ValueError(op)
    return at.spans(bits)


def binary(comps, op: str, u, v) -> tuple:
    at = _atoms_for(comps, u, v)
    a, b = at.cover(u), at.cover(v)
    if op == "union":
        bits = [x or y for x, y in zip(a, b)]
    elif op in ("intersect", "meet"):
        bits = [x and y for x, y in zip(a, b)]
    elif op == "difference":
        bits = [x and not y for x, y in zip(a, b)]
    elif op == "join":
        # De Morgan in the reference algebra: u v v = neg(neg u ^ neg v)
        na = [not x for x in at.closure(a)]
        nb = [not y for y in at.closure(b)]
        bits = [not x for x in at.closure([x and y for x, y in zip(na, nb)])]
    else:
        raise ValueError(op)
    return at.spans(bits)


def is_regular_open(comps, u) -> bool:
    at = _atoms_for(comps, u)
    bits = at.cover(u)
    return at.interior(at.closure(bits)) == bits


def is_open(comps, u) -> bool:
    at = _atoms_for(comps, u)
    bits = at.cover(u)
    return at.interior(bits) == bits


def is_closed(comps, u) -> bool:
    at = _atoms_for(comps, u)
    bits = at.cover(u)
    return at.closure(bits) == bits


# --- Cantor clopens as cell masks ---


def word_mask(words: Iterable[str], depth: int) -> int:
    mask = 0
    for w in words:
        width = depth - len(w)
        start = (int(w, 2) if w else 0) << width
        mask |= ((1 << (1 << width)) - 1) << start
    return mask


def mask_runs(mask: int, depth: int) -> tuple:
    """psi_c of a mask: one span per maximal run of set cells."""
    n = 1 << depth
    out = []
    i = 0
    while i < n:
        if not mask >> i & 1:
            # skip a whole block of clear cells at once
            rest = mask >> i
            if not rest:
                break
            i += (rest & -rest).bit_length() - 1
            continue
        rest = ~(mask >> i)
        j = i + (rest & -rest).bit_length() - 1  # first clear cell after i
        j = min(j, n)
        lo, hi = Fraction(i, n), Fraction(j, n)
        out.append((lo, hi, i == 0, j == n))
        i = j
    return tuple(out)


# --- piecewise-linear bijections given by breakpoints ---


def pl_eval(xs: Sequence[Fraction], ys: Sequence[Fraction], x: Fraction) -> Fraction:
    """The interpolant through (xs[i], ys[i]) at x; xs strictly increasing."""
    i = bisect_right(xs, x) - 1
    if i >= len(xs) - 1:
        i = len(xs) - 2
    x0, x1, y0, y1 = xs[i], xs[i + 1], ys[i], ys[i + 1]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def map_spans(xs, ys, spans) -> tuple:
    """Image of spans under an increasing bijection: endpoints move, flags stay."""
    return tuple((pl_eval(xs, ys, lo), pl_eval(xs, ys, hi), li, hi_) for lo, hi, li, hi_ in spans)


# --- canonical JSON of regions, written independently of jsonio ---


def region_json(spans) -> dict:
    return {
        "spans": [
            {"hi": str(hi), "hi_incl": hi_incl, "lo": str(lo), "lo_incl": lo_incl}
            for lo, hi, lo_incl, hi_incl in spans
        ]
    }
