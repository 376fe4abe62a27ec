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
from dataclasses import dataclass
from functools import cached_property
from math import lcm
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

from .errors import EmptySubspace, NotClosed, SpaceMismatch
from .rationals import Rational, rat


@dataclass(frozen=True)
class Interval:
    """Closed interval component [a, b] with a < b."""

    a: Rational
    b: Rational

    def __post_init__(self):
        object.__setattr__(self, "a", rat(self.a))
        object.__setattr__(self, "b", rat(self.b))
        if not self.a < self.b:
            raise ValueError(f"interval needs a < b, got [{self.a}, {self.b}]")


@dataclass(frozen=True)
class Point:
    """Isolated point component."""

    at: Rational

    def __post_init__(self):
        object.__setattr__(self, "at", rat(self.at))


Component = Union[Interval, Point]


def _bounds(comp: Component):
    if isinstance(comp, Point):
        return comp.at, comp.at
    return comp.a, comp.b


@dataclass(frozen=True)
class Space1D:
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
        return _region(self, tuple([_span(*_bounds(c), True, True) for c in self.components]))

    def empty_region(self) -> "Region":
        return _region(self, ())

    def interval_components(self) -> tuple[Interval, ...]:
        return tuple([c for c in self.components if isinstance(c, Interval)])

    def point_components(self) -> tuple[Point, ...]:
        return tuple([c for c in self.components if isinstance(c, Point)])


@dataclass(frozen=True, slots=True)
class Span:
    """One maximal run of a region: endpoints plus inclusion flags.

    lo == hi is a single point and must have both flags set; raw input
    spans that are reversed or degenerate without both flags are empty.
    """

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


@dataclass(frozen=True)
class Region:
    """Canonical region of a space: any raw spans, clipped to it and merged."""

    space: Space1D
    spans: tuple[Span, ...]

    def __post_init__(self):
        object.__setattr__(self, "spans", canonicalize(self.space, self.spans).region.spans)

    @property
    def is_empty(self) -> bool:
        return not self.spans

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
        comps = iter(self.space.components)
        out: list[Span] = []
        comp = b = None
        for s in self.spans:
            lo, hi = s.lo.as_integer_ratio(), s.hi.as_integer_ratio()
            while b is None or hi[0] * b[1] > b[0] * hi[1]:
                comp = next(comps, None)
                if comp is None:
                    break
                a, b = (x.as_integer_ratio() for x in _bounds(comp))
            if comp is None or lo[0] * a[1] < a[0] * lo[1]:
                raise SpaceMismatch("region has a span outside its space")
            if isinstance(comp, Point):
                out.append(s)
            elif lo != hi:  # a point inside an interval is never open
                lo_incl, hi_incl = s.lo_incl and lo == a, s.hi_incl and hi == b
                same = lo_incl == s.lo_incl and hi_incl == s.hi_incl
                out.append(s if same else _span(s.lo, s.hi, lo_incl, hi_incl))
        return _region(self.space, tuple(out))

    def perp(self) -> "Region":
        """Complement of the closure: the Boolean negation on regular opens."""
        return self.closure().complement()

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


def _union(a: int, b: int) -> bool:
    return a > 0 or b > 0


def _both(a: int, b: int) -> bool:
    return a > 0 and b > 0


def _minus(a: int, b: int) -> bool:
    return a > 0 and b == 0


# Boundaries sort as integers n * (L // d) while L, the lcm of their
# denominators d, has at most this many bits.  The lcm of many coprime
# denominators grows without limit, and past the bound it costs more than
# the Fraction comparisons it replaces, so the sweep sorts the values.
SWEEP_KEY_BITS = 4096


def _sweep(space: Space1D, op: Callable[..., bool], *groups: Sequence[Span]) -> Region:
    """Combine groups of nonempty spans pointwise by `op` in one boundary sweep.

    A boundary is a cut (value, after): after=False sits just before the
    value and after=True just after it, so a span is the half-open cut range
    [(lo, not lo_incl), (hi, hi_incl)).  Each group keeps a coverage count,
    and a cut is emitted wherever `op` of the counts flips between False and
    True.  `op` of all zeros must be False.  Runs come out maximal, so a
    result that lies inside the space is canonical.  An empty raw span would
    count backwards, so `canonicalize` drops those first.
    """
    return _combine(space, op, len(groups), _cut_events(groups))


def _cut_events(groups: Sequence[Sequence[Span]]) -> list:
    """One event (position, group, step, value) per boundary, lo then hi per span.

    Each boundary is read once, as an integer ratio n/d, and its cut sits at
    2 * n * (L // d) + after (2 * rank + after past `SWEEP_KEY_BITS`).
    """
    events = [v.as_integer_ratio() for spans in groups for s in spans for v in (s.lo, s.hi)]
    denominators = {d for _, d in events}
    common = 1
    for d in denominators:
        common = lcm(common, d)
        if common.bit_length() > SWEEP_KEY_BITS:  # rank the values by a Fraction sort
            rank = {r: i for i, r in enumerate(sorted(set(events), key=lambda r: rat(*r)))}
            events, common, denominators = [(rank[r], 1) for r in events], 1, {1}
            break
    scale = {d: 2 * (common // d) for d in denominators}
    i = 0
    for g, spans in enumerate(groups):
        for s in spans:
            n, d = events[i]
            events[i] = (n * scale[d] + (not s.lo_incl), g, 1, s.lo)
            n, d = events[i + 1]
            events[i + 1] = (n * scale[d] + s.hi_incl, g, -1, s.hi)
            i += 2
    return events


def _combine(space: Space1D, op: Callable[..., bool], n_groups: int, events: list) -> Region:
    """The sweep proper: one O(n log n) integer sort and one linear pass.

    The sort reads positions only: events at one position share its value,
    and the counts are read only where it changes, so no values are compared.
    """
    events.sort(key=itemgetter(0))
    events.append((None, 0, 0, None))  # past every cut: flushes the last one
    count = [0] * n_groups
    cuts: list = []
    at = at_value = None
    for pos, g, step, value in events:
        if pos != at:  # the counts hold every event at the cut before
            if op(*count) != len(cuts) % 2:
                cuts.append((at_value, at))
            at, at_value = pos, value
        count[g] += step
    # tuple() of a list allocates the final size; of a generator it resizes
    # a guess, and each resized block then stays in the tuple free list
    return _region(space, tuple([
        _span(lo, hi, lo_at & 1 == 0, hi_at & 1 == 1)
        for (lo, lo_at), (hi, hi_at) in zip(cuts[::2], cuts[1::2])
    ]))


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
    events = _cut_events((full, list(raw_spans)))
    n = 2 * len(full)
    starts, ends = [e[0] for e in events[0:n:2]], [e[0] for e in events[1:n:2]]
    live, clipped = events[:n], False
    for lo, hi in zip(events[n::2], events[n + 1::2]):
        if lo[0] < hi[0]:
            live += (lo, hi)
            if not clipped:
                i = bisect_right(starts, lo[0]) - 1
                clipped = i < 0 or hi[0] > ends[i]
    return CanonicalizeResult(_combine(space, _both, 2, live), clipped)


# --- the Boolean algebra of regular open sets ---


def ropen_join(u: Region, v: Region) -> Region:
    """Join: interior of the closure of the union."""
    return u.union(v).regularize()


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
    """Deterministic pseudo-random regular open with at most three spans."""
    rng = random.Random(seed)
    raw: list[Span] = []
    for _ in range(rng.randint(1, 3)):
        comp = rng.choice(space.components)
        if isinstance(comp, Point):
            raw.append(Span(comp.at, comp.at, True, True))
            continue
        den = 1 << rng.randint(2, 6)
        i = rng.randrange(den)
        j = rng.randrange(i + 1, den + 1)
        width = comp.b - comp.a
        raw.append(Span(comp.a + width * i / den, comp.a + width * j / den, False, False))
    return Region(space, raw).regularize()
