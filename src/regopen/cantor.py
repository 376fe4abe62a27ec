"""Clopen cylinder algebra of binary sequence space and its bridge to [0,1].

A clopen set is a canonical antichain of binary words (cylinder prefixes).
The binary-value map sends the cylinder of a word w of length k onto the
closed dyadic interval I_w of length 2^-k, and psi_c/phi_c carry clopens
back and forth between that algebra and the dyadic regular opens of the
unit interval.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import NonDyadicEndpoint, SpaceMismatch
from .rationals import Rational, dyadic_exponent, is_dyadic, rat
from .space import Interval, Region, Space1D, Span

Word = str

UNIT_INTERVAL = Space1D((Interval(0, 1),))


def _canonical(words: Iterable[Word]) -> tuple[Word, ...]:
    ws = set(words)
    for w in ws:
        if w.strip("01"):
            raise ValueError(f"word {w!r} has characters outside 0/1")
    if "" in ws:
        return ("",)
    # lex order lists every word right after its prefixes, so comparing
    # against the last kept word is enough to absorb extensions; sibling
    # pairs complete adjacently and fuse bottom-up on a stack
    stack: list[Word] = []
    for w in sorted(ws):
        if stack and w.startswith(stack[-1]):
            continue
        stack.append(w)
        while len(stack) >= 2 and stack[-1][-1] == "1" and stack[-2] == stack[-1][:-1] + "0":
            parent = stack[-1][:-1]
            if not parent:
                return ("",)
            del stack[-2:]
            stack.append(parent)
    return tuple(stack)


@dataclass(frozen=True)
class CantorClopen:
    """Canonical antichain of words; lexicographic order is value order."""

    words: tuple[Word, ...]

    def __post_init__(self):
        object.__setattr__(self, "words", _canonical(self.words))

    @property
    def is_empty(self) -> bool:
        return not self.words

    @property
    def is_full(self) -> bool:
        return self.words == ("",)


EMPTY = CantorClopen(())
FULL = CantorClopen(("",))


def cylinder(w: Word) -> CantorClopen:
    return CantorClopen((w,))


def clopen_union(k1: CantorClopen, k2: CantorClopen) -> CantorClopen:
    return CantorClopen(k1.words + k2.words)


def clopen_compl(k: CantorClopen) -> CantorClopen:
    if k.is_empty:
        return FULL
    if k.is_full:
        return EMPTY
    return CantorClopen(tuple(_complement_words(k.words)))


def _complement_words(words: tuple[Word, ...]) -> list[Word]:
    d = max(len(w) for w in words)
    leaves = set()
    for w in words:
        for tail in range(2 ** (d - len(w))):
            leaves.add(w + format(tail, f"0{d - len(w)}b") if d > len(w) else w)
    all_leaves = (format(i, f"0{d}b") for i in range(2**d))
    return [w for w in all_leaves if w not in leaves]


def clopen_inter(k1: CantorClopen, k2: CantorClopen) -> CantorClopen:
    return clopen_compl(clopen_union(clopen_compl(k1), clopen_compl(k2)))


def clopen_diff(k1: CantorClopen, k2: CantorClopen) -> CantorClopen:
    return clopen_inter(k1, clopen_compl(k2))


def value_interval(w: Word) -> tuple[Rational, Rational]:
    """The closed dyadic interval onto which the cylinder of w maps."""
    k = len(w)
    lo = rat(int(w, 2), 2**k) if k else rat(0)
    return lo, lo + rat(1, 2**k)


def closed_value_region(k: CantorClopen) -> Region:
    """Union of the closed value intervals; the exact image of the clopen."""
    merged: list[list[Rational]] = []
    for w in k.words:  # antichain order is value order
        lo, hi = value_interval(w)
        if merged and merged[-1][1] == lo:
            merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return Region(UNIT_INTERVAL, tuple(Span(lo, hi, True, True) for lo, hi in merged))


def psi_c(k: CantorClopen) -> Region:
    """Interior (relative to [0,1]) of the union of the value intervals."""
    return closed_value_region(k).interior()


def phi_c(v: Region, depth: Optional[int] = None) -> CantorClopen:
    """The preimage clopen: the words of the dyadic cells that tile cl(V).

    The natural depth k is the largest dyadic exponent of an endpoint.  A
    given `depth` may not lie below it; the canonical antichain does not
    depend on it, so the words come out of depth k whatever it is.
    """
    if v.space != UNIT_INTERVAL:
        raise SpaceMismatch("phi_c expects a region over [0,1]")
    k = 0
    for s in v.spans:
        for x in (s.lo, s.hi):
            if not is_dyadic(x):
                raise NonDyadicEndpoint(x)
            k = max(k, dyadic_exponent(x))
    if depth is not None and depth < k:
        raise ValueError(f"depth {depth} below the natural depth {k}")
    # each closed span covers the whole cells [a, b) of size 2^-k; cut that
    # range into maximal aligned blocks of 2^j cells, one word of length k - j each
    words = []
    for s in v.closure().spans:
        a, b = int(s.lo * 2**k), int(s.hi * 2**k)
        while a < b:
            j = (a & -a).bit_length() - 1 if a else k
            while a + (1 << j) > b:
                j -= 1
            words.append(format(a >> j, f"0{k - j}b") if j < k else "")
            a += 1 << j
    return CantorClopen(tuple(words))


def clopen_from_leafmask(depth: int, mask: int) -> CantorClopen:
    """The clopen whose depth-`depth` leaves are the set bits of mask."""
    if depth == 0:
        return FULL if mask & 1 else EMPTY
    words = [format(i, f"0{depth}b") for i in range(2**depth) if mask >> i & 1]
    return CantorClopen(tuple(words))


def random_clopen(rng: random.Random, depth: int) -> CantorClopen:
    return clopen_from_leafmask(depth, rng.getrandbits(2**depth))


def dyadic_regular_open_from_cellmask(depth: int, mask: int) -> Region:
    """Regularized union of the open cells (i/2^d, (i+1)/2^d) named by mask.

    Maximal runs of set cells regularize to single open spans, inclusive
    exactly at the space boundary; runs are separated by whole cells, so
    the result is regular open by construction.
    """
    n = 2**depth
    step = rat(1, n)
    spans = []
    i = 0
    while i < n:
        if not mask >> i & 1:
            i += 1
            continue
        j = i
        while j + 1 < n and mask >> (j + 1) & 1:
            j += 1
        lo, hi = i * step, (j + 1) * step
        spans.append(Span(lo, hi, lo == 0, hi == 1))
        i = j + 2
    return Region(UNIT_INTERVAL, tuple(spans))


def random_dyadic_regular_open(rng: random.Random, depth: int) -> Region:
    """Seeded regular open of [0,1] with denominators dividing 2^depth.

    Built from a random cell mask, not routed through psi_c.
    """
    return dyadic_regular_open_from_cellmask(depth, rng.getrandbits(2**depth))


@dataclass(frozen=True)
class CantorIrreducibilityReport:
    depth: int
    cylinders_checked: int
    ok: bool
    note: str = (
        "base cylinders suffice: any closed set missing a point of C misses "
        "a whole cylinder around it"
    )

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "cylinders_checked": self.cylinders_checked,
            "ok": self.ok,
            "note": self.note,
        }


def check_irreducible_cantor(depth: int = 8) -> CantorIrreducibilityReport:
    """No cylinder can be dropped: the rest never covers all of [0,1]."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    full = UNIT_INTERVAL.full_region()
    checked = 0
    ok = True
    for k in range(1, depth + 1):
        for i in range(2**k):
            w = format(i, f"0{k}b")
            checked += 1
            rest_image = closed_value_region(clopen_compl(cylinder(w)))
            lo, hi = value_interval(w)
            cell = Region(UNIT_INTERVAL, (Span(lo, hi, True, True),)).interior()
            expected = full.difference(cell)
            if rest_image != expected or rest_image == full:
                ok = False
    return CantorIrreducibilityReport(depth, checked, ok)

