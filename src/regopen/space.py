"""Compact rational-line spaces and their exact region calculus.

A space is a finite disjoint union of closed rational intervals and
isolated rational points, listed left to right with positive gaps.  A
region is an arbitrary finite union of subintervals of the space, kept as
canonical sorted rows of integer ratios so that set equality is structural
equality; `Span`s of Fractions are its public form.

All topology is relative to the space: an isolated point is open, and a
component endpoint has no outside neighbours.  Everything is exact; no
floating point enters any computation.
"""
from __future__ import annotations

import random
from functools import cached_property
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import EmptySubspace, NotClosed, SpaceMismatch, _Value
from .rationals import Q, Rational, rat


class Interval(_Value):
    """Closed interval component [a, b] with a < b."""

    a: Rational
    b: Rational

    def __post_init__(self):
        object.__setattr__(self, "a", rat(self.a))
        object.__setattr__(self, "b", rat(self.b))
        if not self.a < self.b:
            raise ValueError(f"interval needs a < b, got [{self.a}, {self.b}]")

    @property
    def kind(self) -> str:
        return "interval"


class Point(_Value):
    """Isolated point component."""

    at: Rational

    def __post_init__(self):
        object.__setattr__(self, "at", rat(self.at))

    @property
    def kind(self) -> str:
        return "point"


Component = Union[Interval, Point]


def _bounds(comp: Component):
    if isinstance(comp, Point):
        return comp.at, comp.at
    return comp.a, comp.b


class Space1D(_Value):
    """A compact subset of the rational line in component form."""

    components: tuple[Component, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("space needs at least one component")
        for c in comps:
            if not isinstance(c, (Interval, Point)):
                raise ValueError(f"bad component: {c!r}")
        for left, right in zip(comps, comps[1:]):
            if not _bounds(left)[1] < _bounds(right)[0]:
                raise ValueError("components must be sorted with positive gaps")

    def full_region(self) -> "Region":
        return self._full

    @cached_property
    def _full(self) -> "Region":
        """Each component as one closed row, left to right: the full region,
        whose rows are the component bounds the kernel reads."""
        return _region(self, tuple([(a.as_integer_ratio(), b.as_integer_ratio(), True, True)
                                    for a, b in map(_bounds, self.components)]))

    def empty_region(self) -> "Region":
        return _region(self, ())

    def interval_components(self) -> tuple[Interval, ...]:
        return tuple([c for c in self.components if isinstance(c, Interval)])

    def point_components(self) -> tuple[Point, ...]:
        return tuple([c for c in self.components if isinstance(c, Point)])


class Span(_Value):
    """One maximal run of a region: endpoints plus inclusion flags.

    lo == hi is a single point and must have both flags set; raw input
    spans that are reversed or degenerate without both flags are empty.
    """

    __slots__ = ("lo", "hi", "lo_incl", "hi_incl")
    lo: Rational
    hi: Rational
    lo_incl: bool
    hi_incl: bool

    def __post_init__(self):
        object.__setattr__(self, "lo", rat(self.lo))
        object.__setattr__(self, "hi", rat(self.hi))


_set_lo, _set_hi, _set_lo_incl, _set_hi_incl = (Span.__dict__[f].__set__ for f in Span.__slots__)


def _span(lo: Rational, hi: Rational, lo_incl: bool, hi_incl: bool) -> Span:
    """The trusted constructor: a span of library rationals, set with no coercion."""
    s = object.__new__(Span)
    _set_lo(s, lo)
    _set_hi(s, hi)
    _set_lo_incl(s, lo_incl)
    _set_hi_incl(s, hi_incl)
    return s


class Region(_Value):
    """Canonical region of a space: any raw spans, clipped to it and merged.

    Its content is `rows`, one per maximal run, left to right: each
    ((n, d), (n, d), lo_incl, hi_incl), its ends integer ratios in lowest
    terms with d > 0 and its flags bools, so structural equality is set
    equality.  `Region(space, spans)` takes raw `Span`s in place of the
    rows, and `spans` gives the rows back as `Span`s.
    """

    __slots__ = ("space", "rows")
    space: Space1D
    rows: tuple[tuple, ...]

    def __post_init__(self):
        # the public constructor receives raw spans where the rows go
        object.__setattr__(self, "rows", canonicalize(self.space, self.rows).region.rows)

    @property
    def spans(self) -> tuple[Span, ...]:
        """The rows as `Span`s of Fractions, for public readers; rebuilt on each read."""
        return tuple([_span(Q(*lo), Q(*hi), lo_incl, hi_incl) for lo, hi, lo_incl, hi_incl in self.rows])

    @property
    def is_empty(self) -> bool:
        return not self.rows

    def to_json(self) -> dict:
        """Its spans only: a region is read over the space its request names."""
        return {"spans": [s.to_json() for s in self.spans]}

    def contains(self, x: Rational) -> bool:
        # canonical rows are sorted and disjoint: the first that does not end below x is the one candidate
        n, d = x.as_integer_ratio()
        i = _locate(self.rows, (n, d))
        if i == len(self.rows):
            return False
        (ln, ld), (hn, hd), lo_incl, hi_incl = self.rows[i]
        above, below = n * ld - ln * d, hn * d - n * hd  # the signs of x - lo and hi - x
        return (above > 0 or above == 0 and lo_incl) and (below > 0 or below == 0 and hi_incl)

    # --- set operations (exact, relative to the space) ---

    def union(self, other: "Region") -> "Region":
        _check_space(self, other)
        return _union(self.space, self.rows + other.rows)

    def intersect(self, other: "Region") -> "Region":
        _check_space(self, other)
        return _region(self.space, tuple(_meet(*_cut_ranges(self.rows + other.rows))))

    def difference(self, other: "Region") -> "Region":
        _check_space(self, other)
        a, b = _cut_ranges(self.rows, other.rows)
        return _region(self.space, tuple(_meet(a + _gaps(b))))

    def complement(self) -> "Region":
        full, a = _cut_ranges(self.space._full.rows, self.rows)
        return _region(self.space, tuple(_meet(full + _gaps(a))))

    # --- topology (relative to the space) ---

    def closure(self) -> "Region":
        # canonical rows touch only at a point both leave out: each run of
        # touching rows closes into one row, and a closed row is kept
        ends: list = []  # the first and the last row of each run
        hi = None
        for s in self.rows:
            if s[0] == hi:
                ends[-1] = s
            else:
                ends += (s, s)
            hi = s[1]
        return _region(self.space, tuple([
            a if a is b and a[2] and a[3] else (a[0], b[1], True, True)
            for a, b in zip(ends[::2], ends[1::2])
        ]))

    def interior(self) -> "Region":
        # canonical rows are never adjacent, so interior works row by row;
        # ends are ordered by cross-multiplication
        comps = iter(self.space._full.rows)
        out: list = []
        a = b = None
        for s in self.rows:
            lo, hi, lo_incl, hi_incl = s
            while b is None or hi[0] * b[1] > b[0] * hi[1]:
                a, b, _, _ = next(comps, (None, None, None, None))
                if b is None:
                    break
            if b is None or lo[0] * a[1] < a[0] * lo[1]:
                raise SpaceMismatch("region has a span outside its space")
            if a == b:  # an isolated point
                out.append(s)
            elif lo != hi:  # a point inside an interval is never open
                keep_lo, keep_hi = lo_incl and lo == a, hi_incl and hi == b
                out.append(s if keep_lo == lo_incl and keep_hi == hi_incl else (lo, hi, keep_lo, keep_hi))
        return _region(self.space, tuple(out))

    def perp(self) -> "Region":
        """Complement of the closure: the Boolean negation on regular opens.

        The full region met with the gaps of this one's closed cut ranges,
        so no closure is built on the way.
        """
        full, a = _cut_ranges(self.space._full.rows, self.rows)
        closed = [(lo_at & -2, hi_at | 1, lo, hi) for lo_at, hi_at, lo, hi in a]
        return _region(self.space, tuple(_meet(full + _gaps(closed))))

    def regularize(self) -> "Region":
        """Interior of the closure."""
        return self.closure().interior()

    def is_regular_open(self) -> bool:
        return self == self.regularize()

    def is_open(self) -> bool:
        return self == self.interior()

    def is_closed(self) -> bool:
        return self == self.closure()


def _region(space: Space1D, rows: tuple) -> Region:
    """The trusted constructor: canonical rows of the library's own, set unchecked."""
    r = object.__new__(Region)
    object.__setattr__(r, "space", space)
    object.__setattr__(r, "rows", rows)
    return r


class CanonicalizeResult(NamedTuple):
    region: Region
    clipped: bool


def _check_space(a: Region, b: Region) -> None:
    if a.space != b.space:
        raise SpaceMismatch("regions live over different spaces")


def _locate(rows: Sequence[tuple], lo: tuple) -> int:
    """The index of the first of the rows whose hi is not below lo, an
    integer ratio, by bisection on integer cross-products.  The rows must be
    sorted with increasing ends, as a region's are; a caller walks on from
    there and stops at the first whose lo is past its hi."""
    n, d = lo
    i, j = 0, len(rows)
    while i < j:
        k = (i + j) // 2
        hn, hd = rows[k][1]
        if hn * d < n * hd:
            i = k + 1
        else:
            j = k
    return i


_INF = float("inf")


def _cut_ranges(*groups: Sequence) -> list[list]:
    """The cut ranges (lo_at, hi_at, lo, hi) of groups of rows, one list per
    group in row order.

    A value n/d, d > 0, sits at an even integer position.  One pass over the
    rows grows L, the lcm of their denominators, only at a row with a
    denominator that does not divide it yet; while L has at most
    max(64, 2b + 1) bits, b the bit length of the largest denominator, the
    position is 2 * n * (L // d).  Past that the pass stops, and the position
    is the floor key 2 * ((n << 2b) // d): distinct values differ by more
    than 2^-2b, so their floors on that grid differ, and the keys do not
    grow with the number of denominators.  A cut sits just before a value,
    at its position, or just after it, at the odd one above.  A row
    (lo, hi, lo_incl, hi_incl), its ends in lowest terms, is the half-open
    range of cuts [pos(lo) + not lo_incl, pos(hi) + hi_incl), empty exactly
    when lo_at >= hi_at, and its closure is (lo_at & -2, hi_at | 1).  No two
    ends are compared and no Fraction is built.
    """
    common, k = 1, None
    for rows in groups:
        for (_, d), (_, e), _, _ in rows:
            if common % d or common % e:
                common = lcm(common, d, e)
                if common.bit_length() > 64:  # b costs a pass over every end: a call whose lcm stays short skips it
                    if k is None:
                        k = 2 * max(end[1] for group in groups for row in group for end in row[:2]).bit_length()
                    if common.bit_length() > k + 1:
                        return [[(2 * ((lo[0] << k) // lo[1]) + (not lo_incl), 2 * ((hi[0] << k) // hi[1]) + hi_incl,
                                  lo, hi) for lo, hi, lo_incl, hi_incl in rows] for rows in groups]
    common *= 2
    return [[(lo[0] * (common // lo[1]) + (not lo_incl), hi[0] * (common // hi[1]) + hi_incl, lo, hi)
             for lo, hi, lo_incl, hi_incl in rows] for rows in groups]


def _merged(ranges: list, rows: bool = True) -> list:
    """The maximal runs, in order, of nonempty cut ranges: after one sort by
    lo_at, a range that starts past the run so far begins a new one.  Each
    run is a row, or with `rows` false a cut range (lo_at, hi_at, lo, hi)."""
    if not ranges:
        return []
    ranges.sort(key=itemgetter(0))
    out = []
    lo_at, hi_at, lo, hi = ranges[0]
    for a, b, x, y in ranges:
        if a > hi_at:
            out.append((lo, hi, lo_at & 1 == 0, hi_at & 1 == 1) if rows else (lo_at, hi_at, lo, hi))
            lo_at, hi_at, lo, hi = a, b, x, y
        elif b > hi_at:
            hi_at, hi = b, y
    out.append((lo, hi, lo_at & 1 == 0, hi_at & 1 == 1) if rows else (lo_at, hi_at, lo, hi))
    return out


def _union(space: Space1D, rows: Sequence) -> Region:
    """The region of the union of nonempty rows that lie in `space`: one
    cut-range build and one `_merged` walk, with no clip."""
    return _region(space, tuple(_merged(*_cut_ranges(rows))))


def _meet(ranges: list, rows: bool = True) -> list:
    """The parts of nonempty cut ranges that two of them hold, in order of
    lo_at: after one sort by lo_at, each range's overlap with the
    furthest-reaching range before it.

    Of two lists of disjoint ranges, concatenated, the parts are their meet;
    timsort merges the two sorted runs in linear time, and if both lists are
    maximal runs so are the parts, and they come out as rows.  With `rows`
    false they come out as cut ranges, for `_merged` to join.
    """
    ranges.sort(key=itemgetter(0))
    out = []
    reach_at, reach = -_INF, None  # the furthest-reaching range so far: its hi_at and hi
    for lo_at, hi_at, lo, hi in ranges:
        if lo_at >= reach_at:
            reach_at, reach = hi_at, hi
        elif hi_at <= reach_at:
            out.append((lo, hi, lo_at & 1 == 0, hi_at & 1 == 1) if rows else (lo_at, hi_at, lo, hi))
        else:
            out.append((lo, reach, lo_at & 1 == 0, reach_at & 1 == 1) if rows else (lo_at, reach_at, lo, reach))
            reach_at, reach = hi_at, hi
    return out


def _gaps(ranges: list) -> list:
    """The nonempty gaps, from below every cut to above every cut, of sorted
    ranges that each end past the one before (runs, or their closures)."""
    out = []
    at, value = -_INF, None
    for lo_at, hi_at, lo, hi in ranges:
        if at < lo_at:
            out.append((at, lo_at, value, lo))
        at, value = hi_at, hi
    out.append((at, _INF, value, None))
    return out


def _regular_union(space: Space1D, rows: Sequence) -> Region:
    """int(cl(U)) as a region, U the union of nonempty rows of `space`, on
    cut ranges built by one `_cut_ranges` call with the full region's.

    One sort by lo merges the ranges' closures into the runs of cl(U), and
    each run is opened against its component on the same positions: it
    keeps an end only where the component does, and a lone point only if
    it is isolated.  A run outside every component raises `SpaceMismatch`,
    as `Region.interior` does.
    """
    full, ranges = _cut_ranges(space._full.rows, rows)
    ranges.sort(key=itemgetter(0))  # closures (lo_at & -2, hi_at | 1) keep this order
    out = []
    i, (c_lo, c_hi, _, _) = 0, full[0]
    k, n = 0, len(ranges)
    while k < n:
        lo_at, hi_at, lo, hi = ranges[k]
        lo_at, hi_at = lo_at & -2, hi_at | 1
        k += 1
        # a closure joins the run when it starts at or before the run's odd hi_at
        while k < n and ranges[k][0] <= hi_at:
            if ranges[k][1] | 1 > hi_at:
                hi_at, hi = ranges[k][1] | 1, ranges[k][3]
            k += 1
        while hi_at > c_hi:
            i += 1
            if i == len(full):
                raise SpaceMismatch("region has a span outside its space")
            c_lo, c_hi = full[i][:2]
        if lo_at < c_lo:
            raise SpaceMismatch("region has a span outside its space")
        lo_incl, hi_incl = lo_at == c_lo, hi_at == c_hi
        if hi_at - lo_at > 1 or lo_incl and hi_incl:  # a point inside an interval is never open
            out.append((lo, hi, lo_incl, hi_incl))
    return _region(space, tuple(out))


def canonicalize(space: Space1D, raw_spans: Iterable[Span]) -> CanonicalizeResult:
    """Clip raw spans to the space and merge them into canonical form.

    The flag reports whether any nonempty raw span stuck out of the space.
    Only `Span`s are taken; anything else raises `TypeError`.
    """
    rows = []
    for s in raw_spans:
        if not isinstance(s, Span):
            raise TypeError(f"a raw span must be a Span, got {s!r}")
        rows.append((s.lo.as_integer_ratio(), s.hi.as_integer_ratio(), s.lo_incl, s.hi_incl))
    return _clip(space, rows)


def _clip(space: Space1D, rows: list) -> CanonicalizeResult:
    """`canonicalize` of raw rows.  They are read as cut ranges with the
    components': an empty one (reversed, or a point missing a flag) drops
    out, the rest merge into runs, and the runs are met with the components.
    A run inside a component comes through whole, so a raw row stuck out
    exactly when the meet changed a run."""
    full, raw = _cut_ranges(space._full.rows, rows)
    runs = _merged([r for r in raw if r[0] < r[1]], False)
    out = _meet(runs + full)
    return CanonicalizeResult(_region(space, tuple(out)), [r[:2] for r in out] != [r[2:] for r in runs])


# --- the Boolean algebra of regular open sets ---


def ropen_join(u: Region, v: Region) -> Region:
    """Join: interior of the closure of the union, one `_regular_union`
    pass over both operands' rows."""
    _check_space(u, v)
    return _regular_union(u.space, u.rows + v.rows)


def ropen_meet(u: Region, v: Region) -> Region:
    """Meet: plain intersection (regular opens are closed under it)."""
    return u.intersect(v)


def ropen_neg(u: Region) -> Region:
    """Negation: complement of the closure."""
    return u.perp()


# --- atomic/atomless decomposition ---


class Decomposition(NamedTuple):
    isolated: tuple[Rational, ...]
    atomic_part: Region      # closure of the isolated points
    atomless_part: Region    # closure of the rest
    sub_atomic: Optional[Space1D]
    sub_atomless: Optional[Space1D]


def decompose_space(space: Space1D) -> Decomposition:
    """Split a space into the closure of its isolated points and the rest."""
    isolated = tuple(p.at for p in space.point_components())
    atomic = _region(space, tuple([c for c in space._full.rows if c[0] == c[1]]))
    atomless = _region(space, tuple([c for c in space._full.rows if c[0] != c[1]]))
    sub_a = Space1D(space.point_components()) if isolated else None
    sub_c = Space1D(space.interval_components()) if space.interval_components() else None
    return Decomposition(isolated, atomic, atomless, sub_a, sub_c)


def subspace(space: Space1D, closed: Region) -> Space1D:
    """View a nonempty closed region as a compact space in its own right."""
    if closed.space != space:
        raise SpaceMismatch("region lives over a different space")
    if closed.is_empty:
        raise EmptySubspace("cannot take the empty subspace")
    if closed != closed.closure():
        raise NotClosed("subspace requires a closed region")
    return Space1D(tuple([Point(Q(*lo)) if lo == hi else Interval(Q(*lo), Q(*hi)) for lo, hi, _, _ in closed.rows]))


def embed(region: Region, space: Space1D) -> Region:
    """Reinterpret a subspace region inside the ambient space."""
    res = _clip(space, region.rows)
    if res.clipped:
        raise SpaceMismatch("region does not fit inside the ambient space")
    return res.region


def theta(space: Space1D, w_atomic: Optional[Region], w_atomless: Optional[Region]) -> Region:
    """Recombine regular opens of the two decomposition factors.

    Each argument lives over the corresponding subspace; pass None for a
    factor the space does not have.  The result is the regularized union
    of the embedded pieces: one `_regular_union` pass over their rows, which
    are rows of the space as they stand, since a factor's components are
    the space's own.
    """
    dec = decompose_space(space)
    rows: tuple = ()
    for w, sub in ((w_atomic, dec.sub_atomic), (w_atomless, dec.sub_atomless)):
        if sub is None and w is not None and not w.is_empty:
            raise SpaceMismatch("space has no matching factor for argument")
        if sub is not None and w is not None:
            if w.space != sub:
                raise SpaceMismatch("argument does not live over the decomposition factor")
            rows += w.rows
    return _regular_union(space, rows)


# --- seeded random regular opens ---


def random_regular_open(space: Space1D, seed: int) -> Region:
    """Deterministic pseudo-random regular open with at most three spans.

    Each draw is an isolated point or an open row (a + (b-a)·i/den,
    a + (b-a)·j/den) of an interval [a, b], both read off the full region's
    rows, its ends made with one gcd each; the result is the
    interior of the closed union of the draws, one `_regular_union` pass and
    no canonicalize.
    """
    rng = random.Random(seed)
    raw: list[tuple] = []
    for _ in range(rng.randint(1, 3)):
        comp = rng.choice(space._full.rows)  # the same draw as a choice of `space.components`
        (an, ad), (bn, bd), _, _ = comp
        if comp[0] == comp[1]:  # an isolated point, a closed span already
            raw.append(comp)
            continue
        den = 1 << rng.randint(2, 6)
        i = rng.randrange(den)
        j = rng.randrange(i + 1, den + 1)
        base, width, d = an * bd * den, bn * ad - an * bd, ad * bd * den
        ends = []
        for k in (i, j):
            n = base + width * k
            g = gcd(n, d)
            ends.append((n // g, d // g))
        raw.append((*ends, False, False))
    return _regular_union(space, raw)
