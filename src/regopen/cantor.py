"""Clopen cylinder algebra of binary sequence space and its bridge to [0,1].

A clopen set is a canonical antichain of binary words (cylinder prefixes),
read as the merged runs of the depth-k dyadic cells that its words cover.
The binary-value map sends the cylinder of a word w of length k onto the
closed dyadic interval I_w of length 2^-k, and psi_c/phi_c carry clopens
back and forth between that algebra and the dyadic regular opens of [0,1].
"""
from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Iterable, Optional

from .errors import NonDyadicEndpoint, SpaceMismatch
from .rationals import Q, Rational, dyadic_exponent, is_dyadic, rat
from .space import Interval, Region, Space1D, _region, _span

Word = str

UNIT_INTERVAL = Space1D((Interval(0, 1),))


def _canonical(words: Iterable[Word]) -> tuple[Word, ...]:
    ws = set(words)
    for w in ws:
        if w.strip("01"):
            raise ValueError(f"word {w!r} has characters outside 0/1")
    k = max(map(len, ws), default=0)
    return tuple(_words(_cells(sorted(ws), k), k))


def _cells(words: Iterable[Word], k: int) -> list[list[int]]:
    """The merged runs [a, b) of the depth-k cells that sorted words cover."""
    runs: list[list[int]] = []
    for w in words:
        size = 1 << (k - len(w))
        a = int(w or "0", 2) * size
        if runs and a <= runs[-1][1]:
            runs[-1][1] = max(runs[-1][1], a + size)
        else:
            runs.append([a, a + size])
    return runs


def _words(runs: Iterable[Iterable[int]], k: int) -> list[Word]:
    """Cut runs [a, b) of depth-k cells into maximal aligned blocks, one word each.

    Over maximal runs the blocks are the maximal cylinders, in value order."""
    top, words = 1 << k, []
    for a, b in runs:
        while a < b:
            size = a & -a or top  # the largest block aligned at a, then the largest that fits
            while size > b - a:
                size >>= 1
            words.append(bin((a | top) // size)[3:])  # the quotient is 1 followed by the word
            a += size
    return words


def _bit_runs(mask: int, n: int) -> list[tuple[int, int]]:
    """The maximal runs [a, b) of set bits among the low n bits of mask."""
    mask &= (1 << n) - 1
    runs = []
    while mask:
        low = mask & -mask
        top = mask + low  # clears the lowest run and sets the bit just above it
        runs.append((low.bit_length() - 1, (top & -top).bit_length() - 1))
        mask &= top
    return runs


@dataclass(frozen=True)
class CantorClopen:
    """Canonical antichain of words; lexicographic order is value order."""

    words: tuple[Word, ...]

    def __post_init__(self):
        if isinstance(self.words, str):  # a bare word would be read as one word per character
            raise TypeError(f"words must be a collection of words, got the string {self.words!r}")
        object.__setattr__(self, "words", _canonical(self.words))

    @property
    def is_empty(self) -> bool:
        return not self.words


EMPTY = CantorClopen(())
FULL = CantorClopen(("",))


def cylinder(w: Word) -> CantorClopen:
    return CantorClopen((w,))


def clopen_union(k1: CantorClopen, k2: CantorClopen) -> CantorClopen:
    return CantorClopen(k1.words + k2.words)


def clopen_compl(k: CantorClopen) -> CantorClopen:
    d = max(map(len, k.words), default=0)
    edges = [0, *(x for run in _cells(k.words, d) for x in run), 2**d]
    return CantorClopen(tuple(_words(zip(edges[::2], edges[1::2]), d)))


def clopen_inter(k1: CantorClopen, k2: CantorClopen) -> CantorClopen:
    return clopen_compl(clopen_union(clopen_compl(k1), clopen_compl(k2)))


def clopen_diff(k1: CantorClopen, k2: CantorClopen) -> CantorClopen:
    return clopen_inter(k1, clopen_compl(k2))


def value_interval(w: Word) -> tuple[Rational, Rational]:
    """The closed dyadic interval onto which the cylinder of w maps."""
    lo = rat(int(w or "0", 2), 2 ** len(w))
    return lo, lo + rat(1, 2 ** len(w))


def closed_value_region(k: CantorClopen) -> Region:
    """Union of the closed value intervals; the exact image of the clopen."""
    d = max(map(len, k.words), default=0)
    runs = _cells(k.words, d)  # in value order and a cell apart: the closed spans are canonical
    return _region(UNIT_INTERVAL, tuple([_span(Q(a, 2**d), Q(b, 2**d), True, True) for a, b in runs]))


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
    # each closed span covers the whole cells [a, b) of size 2^-k
    runs = [(int(s.lo * 2**k), int(s.hi * 2**k)) for s in v.closure().spans]
    return CantorClopen(tuple(_words(runs, k)))


def clopen_from_leafmask(depth: int, mask: int) -> CantorClopen:
    """The clopen whose depth-`depth` leaves are the set bits of mask."""
    return CantorClopen(tuple(_words(_bit_runs(mask, 2**depth), depth)))


def random_clopen(rng: random.Random, depth: int) -> CantorClopen:
    return clopen_from_leafmask(depth, rng.getrandbits(2**depth))


def dyadic_regular_open_from_cellmask(depth: int, mask: int) -> Region:
    """Regularized union of the open cells (i/2^d, (i+1)/2^d) named by mask.

    Maximal runs of set cells regularize to single open spans, inclusive
    exactly at the space boundary; runs are separated by whole cells, so
    the result is regular open by construction.
    """
    n = 2**depth
    runs = _bit_runs(mask, n)
    return _region(UNIT_INTERVAL, tuple([_span(Q(a, n), Q(b, n), a == 0, b == n) for a, b in runs]))


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
        return asdict(self)


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
            cell = _region(UNIT_INTERVAL, (_span(lo, hi, True, True),)).interior()
            expected = full.difference(cell)
            if rest_image != expected or rest_image == full:
                ok = False
    return CantorIrreducibilityReport(depth, checked, ok)

