"""Reference boundary sweep, closure and interior, in their direct forms.

The library reads each boundary once as an integer ratio, gives every cut
an integer position, and runs canonicalize, closure and interior as
single passes that compare no Fractions.  These are the forms it replaced:
a sweep over events sorted on the Fraction values and grouped per cut
with `groupby`, a canonicalize that drops empty raw spans and flags
clipped ones by comparing Fractions, a closure that merges spans by
comparing Fractions, and an interior that finds each span's component by
Fraction comparisons.  Tests compare the two on seeded regions.  Results
are built with the trusted `space._region`, so none passes through the
library's canonicalize.

Test-only device; the library itself never touches it.
"""
from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import Callable, Sequence

from regopen.space import CanonicalizeResult, Point, Region, Space1D, Span, _region


def _bounds(comp):
    if isinstance(comp, Point):
        return comp.at, comp.at
    return comp.a, comp.b


def span_is_empty(s: Span) -> bool:
    """A reversed span, or a one-point span without both flags."""
    return s.lo > s.hi or (s.lo == s.hi and not (s.lo_incl and s.hi_incl))


def within(space: Space1D, lo, hi) -> bool:
    """Whether [lo, hi] lies inside one component of the space."""
    return any(a <= lo and hi <= b for a, b in map(_bounds, space.components))


def sweep_by_groupby(space: Space1D, op: Callable[..., bool], *groups: Sequence[Span]) -> Region:
    events = []
    for g, spans in enumerate(groups):
        for s in spans:
            events.append((s.lo, not s.lo_incl, g, 1, s.lo))
            events.append((s.hi, s.hi_incl, g, -1, s.hi))
    events.sort(key=itemgetter(0, 1))
    count = [0] * len(groups)
    cuts: list = []
    inside = False
    for (_, after), at_cut in groupby(events, key=itemgetter(0, 1)):
        for _, _, g, step, value in at_cut:
            count[g] += step
        if op(*count) != inside:
            cuts.append((value, after))
            inside = not inside
    return _region(space, tuple([
        Span(lo, hi, not lo_after, hi_after)
        for (lo, lo_after), (hi, hi_after) in zip(cuts[::2], cuts[1::2])
    ]))


def _full(space: Space1D) -> tuple:
    return tuple([Span(*_bounds(c), True, True) for c in space.components])


def canonicalize_by_groupby(space: Space1D, raw_spans) -> CanonicalizeResult:
    """The canonical region and whether a nonempty raw span stuck out of the space."""
    live = [s for s in raw_spans if not span_is_empty(s)]
    clipped = any(not within(space, s.lo, s.hi) for s in live)
    return CanonicalizeResult(sweep_by_groupby(space, lambda a, b: a > 0 and b > 0, _full(space), live),
                              clipped)


def union(a: Region, b: Region) -> Region:
    return sweep_by_groupby(a.space, lambda x, y: x > 0 or y > 0, a.spans, b.spans)


def intersect(a: Region, b: Region) -> Region:
    return sweep_by_groupby(a.space, lambda x, y: x > 0 and y > 0, a.spans, b.spans)


def difference(a: Region, b: Region) -> Region:
    return sweep_by_groupby(a.space, lambda x, y: x > 0 and y == 0, a.spans, b.spans)


def complement(a: Region) -> Region:
    return sweep_by_groupby(a.space, lambda x, y: x > 0 and y == 0, _full(a.space), a.spans)


def closure_by_spans(r: Region) -> Region:
    out: list[Span] = []
    for s in r.spans:
        closed = Span(s.lo, s.hi, True, True)
        if out and out[-1].hi == closed.lo:
            out[-1] = Span(out[-1].lo, closed.hi, True, True)
        else:
            out.append(closed)
    return _region(r.space, tuple(out))


def interior_by_spans(r: Region) -> Region:
    comps = r.space.components
    ci = 0
    out = []
    for s in r.spans:
        while not (_bounds(comps[ci])[0] <= s.lo and s.hi <= _bounds(comps[ci])[1]):
            ci += 1
        comp = comps[ci]
        if isinstance(comp, Point):
            out.append(s)
            continue
        t = Span(s.lo, s.hi, s.lo_incl and s.lo == comp.a, s.hi_incl and s.hi == comp.b)
        if not span_is_empty(t):
            out.append(t)
    return _region(r.space, tuple(out))


def regularize_by_spans(r: Region) -> Region:
    return interior_by_spans(closure_by_spans(r))
