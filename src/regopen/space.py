"""Compact rational-line spaces and their exact region calculus.

A space is a finite disjoint union of closed rational intervals and
isolated rational points, listed left to right with positive gaps.  A
region is an arbitrary finite union of subintervals of the space, kept in
a canonical sorted span form so that set equality is structural equality.

All topology is relative to the space: an isolated point is open, and a
component endpoint has no outside neighbours.  Everything is exact; no
floating point enters any computation.
"""
from __future__ import annotations

import random
from bisect import bisect_right
from functools import cached_property
from math import gcd, lcm
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

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

    def contains(self, x: Rational) -> bool:
        return any(a <= x <= b for a, b in map(_bounds, self.components))

    def full_region(self) -> "Region":
        return self._full

    @cached_property
    def _full(self) -> "Region":
        return _region(self, tuple([_span(*_bounds(c), True, True) for c in self.components]))

    @cached_property
    def _ends(self) -> tuple:
        """Each component's bounds (lo, hi), left to right, as integer ratios."""
        return tuple([(a.as_integer_ratio(), b.as_integer_ratio()) for a, b in map(_bounds, self.components)])

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

    def contains(self, x: Rational) -> bool:
        if not self.lo <= x <= self.hi:
            return False
        if self.lo < x < self.hi:
            return True
        if self.lo == self.hi:
            return self.lo_incl and self.hi_incl
        return self.lo_incl if x == self.lo else self.hi_incl


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
    """Canonical region of a space: any raw spans, clipped to it and merged."""

    space: Space1D
    spans: tuple[Span, ...]

    def __post_init__(self):
        object.__setattr__(self, "spans", canonicalize(self.space, self.spans).region.spans)

    @property
    def is_empty(self) -> bool:
        return not self.spans

    def to_json(self) -> dict:
        """Its spans only: a region is read over the space its request names."""
        return {"spans": [s.to_json() for s in self.spans]}

    @cached_property
    def _los(self) -> tuple[Rational, ...]:
        return tuple([s.lo for s in self.spans])

    def contains(self, x: Rational) -> bool:
        # canonical spans are sorted and disjoint: one candidate suffices
        i = bisect_right(self._los, x)
        return i > 0 and self.spans[i - 1].contains(x)

    # --- set operations (exact, relative to the space) ---

    def union(self, other: "Region") -> "Region":
        _check_space(self, other)
        return _sweep(self.space, _union, self.spans, other.spans)

    def intersect(self, other: "Region") -> "Region":
        _check_space(self, other)
        return _sweep(self.space, _both, self.spans, other.spans)

    def difference(self, other: "Region") -> "Region":
        _check_space(self, other)
        return _sweep(self.space, _minus, self.spans, other.spans)

    def complement(self) -> "Region":
        return _sweep(self.space, _minus, self.space.full_region().spans, self.spans)

    # --- topology (relative to the space) ---

    def closure(self) -> "Region":
        # canonical spans touch only at a point both leave out: each run of
        # touching spans closes into one span, and a closed span is kept
        ends: list[Span] = []  # the first and the last span of each run
        hi = None
        for s in self.spans:
            if s.lo.as_integer_ratio() == hi:
                ends[-1] = s
            else:
                ends += (s, s)
            hi = s.hi.as_integer_ratio()
        return _region(self.space, tuple([
            a if a is b and a.lo_incl and a.hi_incl else _span(a.lo, b.hi, True, True)
            for a, b in zip(ends[::2], ends[1::2])
        ]))

    def interior(self) -> "Region":
        # canonical spans are never adjacent, so interior works span by span;
        # ends are integer ratios, ordered by cross-multiplication
        comps = iter(self.space._ends)
        out: list[Span] = []
        a = b = None
        for s in self.spans:
            lo, hi = s.lo.as_integer_ratio(), s.hi.as_integer_ratio()
            while b is None or hi[0] * b[1] > b[0] * hi[1]:
                a, b = next(comps, (None, None))
                if b is None:
                    break
            if b is None or lo[0] * a[1] < a[0] * lo[1]:
                raise SpaceMismatch("region has a span outside its space")
            if a == b:  # an isolated point
                out.append(s)
            elif lo != hi:  # a point inside an interval is never open
                lo_incl, hi_incl = s.lo_incl and lo == a, s.hi_incl and hi == b
                same = lo_incl == s.lo_incl and hi_incl == s.hi_incl
                out.append(s if same else _span(s.lo, s.hi, lo_incl, hi_incl))
        return _region(self.space, tuple(out))

    def perp(self) -> "Region":
        """Complement of the closure: the Boolean negation on regular opens.

        One sweep of the full region minus this one read closed, so no
        closure is built on the way.
        """
        return _sweep(self.space, _minus, self.space.full_region().spans, self.spans, closed=True)

    def regularize(self) -> "Region":
        """Interior of the closure."""
        return self.closure().interior()

    def is_regular_open(self) -> bool:
        return self == self.regularize()

    def is_open(self) -> bool:
        return self == self.interior()

    def is_closed(self) -> bool:
        return self == self.closure()


def _region(space: Space1D, spans: tuple[Span, ...]) -> Region:
    """The trusted constructor: canonical spans of the library's own, set unchecked."""
    r = object.__new__(Region)
    object.__setattr__(r, "space", space)
    object.__setattr__(r, "spans", spans)
    return r


class CanonicalizeResult(NamedTuple):
    region: Region
    clipped: bool


def _check_space(a: Region, b: Region) -> None:
    if a.space != b.space:
        raise SpaceMismatch("regions live over different spaces")


def _union(c: int, high: int) -> bool:
    return c > 0


def _both(c: int, high: int) -> bool:
    return c > high and c & (high - 1) != 0


def _minus(c: int, high: int) -> bool:
    return 0 < c < high


# Boundaries sort as integers n * (L // d) while L, the lcm of their
# denominators d, has at most this many bits.  The lcm of many coprime
# denominators grows without limit, and past the bound it costs more than
# the Fraction comparisons it replaces, so the sweep sorts the values.
SWEEP_KEY_BITS = 4096


def _sweep(space: Space1D, op: Callable[[int, int], bool], *groups: Sequence[Span],
           closed: bool = False) -> Region:
    """Combine groups of nonempty spans pointwise by `op` in one boundary sweep.

    A boundary is a cut (value, after): after=False sits just before the
    value and after=True just after it, so a span is the half-open cut range
    [(lo, not lo_incl), (hi, hi_incl)).  The sweep keeps the groups' coverage
    counts packed in one integer, and a cut is emitted wherever `op` of that
    integer and `high` flips between False and True.  `op` of zero must be
    False.  Runs come out maximal, so a result that lies inside the space is
    canonical.  An empty raw span would count backwards, so `canonicalize`
    drops those first.  With `closed`, every span counts as its closure, the
    cut range [(lo, False), (hi, True)).
    """
    return _combine(space, op, *_cut_events(groups, closed))


def _positions(ends: list) -> list:
    """Even sweep positions of integer-ratio values n/d, d > 0, in their order.

    A value sits at 2 * n * (L // d), L the lcm of the denominators, so a
    cut just after it can take the odd position above.  Past
    `SWEEP_KEY_BITS` the values are ranked by a Fraction sort instead, at
    2 * rank; equal values must then be equal ratios, in lowest terms.
    """
    denominators = {d for _, d in ends}
    common = 1
    for d in denominators:
        common = lcm(common, d)
        if common.bit_length() > SWEEP_KEY_BITS:
            rank = {r: 2 * i for i, r in enumerate(sorted(set(ends), key=lambda r: Q(*r)))}
            return [rank[r] for r in ends]
    scale = {d: 2 * (common // d) for d in denominators}
    return [n * scale[d] for n, d in ends]


def _cut_events(groups: Sequence[Sequence[Span]], closed: bool = False) -> tuple[list, int]:
    """One event (position, step, value) per boundary, lo then hi per span,
    and the `high` of the packed counts.

    Each boundary is read once, as an integer ratio, and its cut sits at
    its `_positions` entry plus `after`; with `closed` every span is read
    as its closure, so each lo cut sits before its value and each hi cut
    after.  The groups' coverage counts are packed in one integer: a span of
    group g steps it by high**g, `high` a power of two above every group's
    span count, so group 0's count is `c & (high - 1)` and, of two groups,
    group 1's is `c // high`.
    """
    events = _positions([v.as_integer_ratio() for spans in groups for s in spans for v in (s.lo, s.hi)])
    high = 1 << (len(events) // 2).bit_length()
    i, weight = 0, 1
    for spans in groups:
        for s in spans:
            events[i] = (events[i] + (not (closed or s.lo_incl)), weight, s.lo)
            events[i + 1] = (events[i + 1] + (closed or s.hi_incl), -weight, s.hi)
            i += 2
        weight *= high
    return events, high


def _combine(space: Space1D, op: Callable[[int, int], bool], events: list, high: int) -> Region:
    """The sweep proper: one O(n log n) integer sort and one linear pass.

    The sort reads positions only: events at one position share its value,
    and the count is read only where it changes, so no values are compared.
    """
    events.sort(key=itemgetter(0))
    events.append((None, 0, None))  # past every cut: flushes the last one
    count, inside = 0, False
    cuts: list = []
    at = at_value = None
    for pos, step, value in events:
        if pos != at:  # the count holds every event at the cut before
            if op(count, high) != inside:
                cuts.append((at_value, at))
                inside = not inside
            at, at_value = pos, value
        count += step
    # tuple() of a list allocates the final size; of a generator it resizes
    # a guess, and each resized block then stays in the tuple free list
    return _region(space, tuple([
        _span(lo, hi, lo_at & 1 == 0, hi_at & 1 == 1)
        for (lo, lo_at), (hi, hi_at) in zip(cuts[::2], cuts[1::2])
    ]))


def _merged(ranges: list):
    """The maximal runs (lo_at, hi_at, lo, hi) of ranges sorted by lo_at: a
    range that starts past the run so far begins a new run."""
    if not ranges:
        return
    lo_at, hi_at, lo, hi = ranges[0]
    for a, b, x, y in ranges:
        if a > hi_at:
            yield lo_at, hi_at, lo, hi
            lo_at, hi_at, lo, hi = a, b, x, y
        elif b > hi_at:
            hi_at, hi = b, y
    yield lo_at, hi_at, lo, hi


def _union_ratios(space: Space1D, spans: list) -> Region:
    """The canonical union of nonempty spans (lo, hi, lo_incl, hi_incl) of
    `space` whose ends are integer ratios (n, d) in lowest terms, d > 0.

    The transports carry such spans: `PLMap.validate` puts every branch
    image in the codomain, and preimage parts are sub-spans of branch
    sources, so no span needs clipping and no full region joins the sweep.
    Each span is the cut range [lo, hi) on the `_positions` of its ends, as
    in `_cut_events`; after one sort by lo, a range that starts past the
    run so far begins a new run.  Only the ends of the runs become
    Fractions.
    """
    at = _positions([end for s in spans for end in s[:2]])
    ranges = [(a + (not s[2]), b + s[3], s[0], s[1]) for a, b, s in zip(at[::2], at[1::2], spans)]
    ranges.sort(key=itemgetter(0))
    return _region(space, tuple([_span(Q(*lo), Q(*hi), lo_at & 1 == 0, hi_at & 1 == 1)
                                 for lo_at, hi_at, lo, hi in _merged(ranges)]))


def _covered_twice(spans: list) -> list:
    """The maximal runs, in order, of the points that two of the spans hold,
    spans and runs as `_union_ratios` takes them.  After one sort by lo, a
    cut range holds twice what it shares with the furthest-reaching range
    before it; those parts come in lo order, and `_merged` joins them."""
    at = _positions([end for s in spans for end in s[:2]])
    ranges = [(a + (not s[2]), b + s[3], s[0], s[1]) for a, b, s in zip(at[::2], at[1::2], spans)]
    ranges.sort(key=itemgetter(0))
    parts, reach = [], None
    for r in ranges:
        if reach is not None and r[0] < reach[1]:
            parts.append(r if r[1] <= reach[1] else (r[0], reach[1], r[2], reach[3]))
        if reach is None or r[1] > reach[1]:
            reach = r
    return [(lo, hi, lo_at & 1 == 0, hi_at & 1 == 1) for lo_at, hi_at, lo, hi in _merged(parts)]


def _regular_union(space: Space1D, spans: list) -> Region:
    """int(cl(U)), U the union of nonempty spans as `_union_ratios` takes them.

    One sort by lo merges the spans' closures into the runs of cl(U), and
    each run is opened against the component that holds it, at the same
    `_positions`: it keeps an end only where the component does, and a lone
    point only if it is isolated.  A run outside every component raises
    `SpaceMismatch`, as `Region.interior` does.
    """
    bounds = space._ends
    at = _positions([end for b in bounds for end in b] + [end for s in spans for end in s[:2]])
    k = 2 * len(bounds)
    ranges = [(a, b, s[0], s[1]) for a, b, s in zip(at[k::2], at[k + 1::2], spans)]
    ranges.sort(key=itemgetter(0))
    comps = iter(zip(at[0:k:2], at[1:k:2], space.full_region().spans))
    out: list[Span] = []
    c_hi = None
    for lo_at, hi_at, lo, hi in _merged(ranges):
        while c_hi is None or hi_at > c_hi:
            c_lo, c_hi, comp = next(comps, (None, None, None))
            if c_hi is None:
                break
        if c_hi is None or lo_at < c_lo:
            raise SpaceMismatch("region has a span outside its space")
        lo_incl, hi_incl = lo_at == c_lo, hi_at == c_hi
        if lo_incl and hi_incl:  # the whole component, an isolated point included
            out.append(comp)
        elif lo_at != hi_at:  # a point inside an interval is never open
            out.append(_span(comp.lo if lo_incl else Q(*lo), comp.hi if hi_incl else Q(*hi), lo_incl, hi_incl))
    return _region(space, tuple(out))


def canonicalize(space: Space1D, raw_spans: Iterable[Span]) -> CanonicalizeResult:
    """Clip raw spans to the space and merge them into canonical form.

    The flag reports whether any nonempty raw span stuck out of the space.
    Raw spans are read on the sweep's cut positions, after the components'
    own: one whose lo position is not below its hi position is empty
    (reversed, or a point missing a flag) and drops out; a live one sticks
    out when its cut range does not fit in that of the last component that
    starts at or before it, found by bisection on the positions.
    """
    full = space.full_region().spans
    events, high = _cut_events((full, list(raw_spans)))
    n = 2 * len(full)
    starts, ends = [e[0] for e in events[0:n:2]], [e[0] for e in events[1:n:2]]
    live, clipped = events[:n], False
    for lo, hi in zip(events[n::2], events[n + 1::2]):
        if lo[0] < hi[0]:
            live += (lo, hi)
            if not clipped:
                i = bisect_right(starts, lo[0]) - 1
                clipped = i < 0 or hi[0] > ends[i]
    return CanonicalizeResult(_combine(space, _both, live, high), clipped)


# --- the Boolean algebra of regular open sets ---


def ropen_join(u: Region, v: Region) -> Region:
    """Join: interior of the closure of the union.

    The closure of the union is the union of the closures, so one sweep
    reads both operands closed and `interior` finishes.
    """
    _check_space(u, v)
    return _sweep(u.space, _union, u.spans, v.spans, closed=True).interior()


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
    atomic = _region(space, tuple([_span(x, x, True, True) for x in isolated]))
    atomless = _region(space, tuple([_span(c.a, c.b, True, True) for c in space.interval_components()]))
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
    return Space1D(tuple([Point(s.lo) if s.lo == s.hi else Interval(s.lo, s.hi) for s in closed.spans]))


def embed(region: Region, space: Space1D) -> Region:
    """Reinterpret a subspace region inside the ambient space."""
    res = canonicalize(space, region.spans)
    if res.clipped:
        raise SpaceMismatch("region does not fit inside the ambient space")
    return res.region


def theta(space: Space1D, w_atomic: Optional[Region], w_atomless: Optional[Region]) -> Region:
    """Recombine regular opens of the two decomposition factors.

    Each argument lives over the corresponding subspace; pass None for a
    factor the space does not have.  The result is the regularized union
    of the embedded pieces.
    """
    dec = decompose_space(space)
    parts: list[Region] = []
    for w, sub in ((w_atomic, dec.sub_atomic), (w_atomless, dec.sub_atomless)):
        if sub is None and w is not None and not w.is_empty:
            raise SpaceMismatch("space has no matching factor for argument")
        if sub is not None and w is not None:
            if w.space != sub:
                raise SpaceMismatch("argument does not live over the decomposition factor")
            parts.append(embed(w, space))
    acc = space.empty_region()
    for p in parts:
        acc = acc.union(p)
    return acc.regularize()


# --- seeded random regular opens ---


def random_regular_open(space: Space1D, seed: int) -> Region:
    """Deterministic pseudo-random regular open with at most three spans.

    Each draw is an isolated point or an open span (a + (b-a)·i/den,
    a + (b-a)·j/den) of an interval [a, b], its ends made as integer ratios
    with one gcd each; the result is the interior of the closed union of
    the draws, one `_union_ratios` sweep and no canonicalize.
    """
    rng = random.Random(seed)
    raw: list[tuple] = []
    for _ in range(rng.randint(1, 3)):
        comp = rng.choice(space.components)
        if isinstance(comp, Point):
            at = comp.at.as_integer_ratio()
            raw.append((at, at, True, True))
            continue
        den = 1 << rng.randint(2, 6)
        i = rng.randrange(den)
        j = rng.randrange(i + 1, den + 1)
        (an, ad), (bn, bd) = comp.a.as_integer_ratio(), comp.b.as_integer_ratio()
        base, width, d = an * bd * den, bn * ad - an * bd, ad * bd * den
        ends = []
        for k in (i, j):
            n = base + width * k
            g = gcd(n, d)
            ends.append((n // g, d // g))
        raw.append((*ends, False, False))
    return _regular_union(space, raw)
