"""Reference transports and rules 1 and 3 for piecewise-linear maps, by brute force.

The library pairs each branch only with the region spans that meet it,
intersects spans by cross-multiplying integer ratios, carries each end
with one `Fraction(n, d)`, and decides rules 1 and 3 of `is_irreducible`
from one coverage count over all branch images.  These are the forms it
replaced: the bisected transport kernel in Fraction arithmetic (`_carry`,
`_span_intersect`, `_affine_span`, and `pullback` by dividing each cut),
every piece against every span, flags from `Span.contains`, one image of
the domain without each isolated point, and one canonicalization of the
other branches per piece.  Tests compare the two on random maps.

Test-only device; the library itself never touches it.
"""
from __future__ import annotations

from bisect import bisect_left
from typing import Optional

import space_oracle
from regopen.ideals import PLFunc
from regopen.plmap import PLMap, Piece, _locate
from regopen.rationals import Rational, rat
from regopen.space import Region, Span


def _canonical(space, raw) -> Region:
    return space_oracle.canonicalize_by_groupby(space, raw).region


def span_intersect_by_fractions(a: Span, b: Span) -> Optional[Span]:
    """The larger lo and the smaller hi; on a tie both spans must include the end."""
    if a.lo == b.lo:
        lo, lo_incl = a.lo, a.lo_incl and b.lo_incl
    else:
        lo, lo_incl = (a.lo, a.lo_incl) if a.lo > b.lo else (b.lo, b.lo_incl)
    if a.hi == b.hi:
        hi, hi_incl = a.hi, a.hi_incl and b.hi_incl
    else:
        hi, hi_incl = (a.hi, a.hi_incl) if a.hi < b.hi else (b.hi, b.hi_incl)
    if lo > hi or (lo == hi and not (lo_incl and hi_incl)):
        return None
    return Span(lo, hi, lo_incl, hi_incl)


def affine_span_by_fractions(s: Span, slope: Rational, intercept: Rational) -> Span:
    if slope == 0:
        return Span(intercept, intercept, True, True)
    lo = slope * s.lo + intercept
    hi = slope * s.hi + intercept
    if slope > 0:
        return Span(lo, hi, s.lo_incl, s.hi_incl)
    return Span(hi, lo, s.hi_incl, s.lo_incl)


def branches_by_fractions(obj) -> list:
    """(src, dst, slope, intercept) per piece in run order, then per isolated point."""
    points = getattr(obj, "point_images", None)
    if points is None:
        points = obj.point_values
    parts = [(Span(q.src_lo, q.src_hi, True, True), q.slope, q.intercept)
             for run in obj.pieces for q in run]
    parts += [(Span(p, p, True, True), rat(0), v) for p, v in points]
    return [(src, affine_span_by_fractions(src, k, c), k, c) for src, k, c in parts]


def carry_by_fractions(branches, spans, forward: bool) -> list[Span]:
    """Raw image (forward) or preimage spans, each branch bisecting the Fraction his."""
    his = [t.hi for t in spans]
    raw: list[Span] = []
    for src, dst, slope, intercept in branches:
        window, other = (src, dst) if forward else (dst, src)
        if slope and not forward:
            slope, intercept = 1 / slope, -intercept / slope
        for i in range(bisect_left(his, window.lo), len(spans)):
            if spans[i].lo > window.hi:
                break
            part = span_intersect_by_fractions(spans[i], window)
            if part is not None:
                raw.append(affine_span_by_fractions(part, slope, intercept) if slope else other)
    return raw


def image_by_fractions(m: PLMap, r: Region) -> Region:
    return _canonical(m.codomain, carry_by_fractions(branches_by_fractions(m), r.spans, True))


def preimage_by_fractions(m: PLMap, s: Region) -> Region:
    return _canonical(m.domain, carry_by_fractions(branches_by_fractions(m), s.spans, False))


def psi_by_fractions(m: PLMap, u: Region) -> Region:
    closed = space_oracle.closure_by_spans(u)
    return space_oracle.interior_by_spans(image_by_fractions(m, closed))


def phi_by_fractions(m: PLMap, v: Region) -> Region:
    return space_oracle.regularize_by_spans(preimage_by_fractions(m, v))


def pl_supp_by_fractions(f: PLFunc) -> Region:
    zeros = carry_by_fractions(branches_by_fractions(f), [Span(0, 0, True, True)], False)
    return space_oracle.complement(_canonical(f.space, zeros))


def pullback_by_cuts(pi: PLMap, f: PLFunc) -> PLFunc:
    """Each cut of f divided back through every monotone piece, each
    sub-piece's branch of f located at its midpoint."""
    cuts = sorted(set(f.breakpoints()))
    runs = []
    for run in pi.pieces:
        out = []
        for piece in run:
            xs = {piece.src_lo, piece.src_hi}
            if piece.slope != 0:
                for t in cuts:
                    x = (t - piece.intercept) / piece.slope
                    if piece.src_lo < x < piece.src_hi:
                        xs.add(x)
            ordered = sorted(xs)
            for x0, x1 in zip(ordered, ordered[1:]):
                m, k = _locate(f._branches, piece.value((x0 + x1) / 2))
                out.append(Piece(x0, x1, m * piece.slope, m * piece.intercept + k))
        runs.append(tuple(out))
    points = [(p, f.value(v)) for p, v in pi.point_images]
    return PLFunc(pi.domain, tuple(runs), points)


def span_intersect_by_contains(a: Span, b: Span) -> Optional[Span]:
    lo = max(a.lo, b.lo)
    hi = min(a.hi, b.hi)
    if lo > hi:
        return None
    lo_incl = a.contains(lo) and b.contains(lo)
    hi_incl = a.contains(hi) and b.contains(hi)
    out = Span(lo, hi, lo_incl, hi_incl)
    return None if space_oracle.span_is_empty(out) else out


def image_by_pairs(m: PLMap, r: Region) -> Region:
    raw: list[Span] = []
    for run in m.pieces:
        for piece in run:
            src = Span(piece.src_lo, piece.src_hi, True, True)
            for s in r.spans:
                part = span_intersect_by_contains(s, src)
                if part is not None:
                    raw.append(affine_span_by_fractions(part, piece.slope, piece.intercept))
    for p, v in m.point_images:
        if r.contains(p):
            raw.append(Span(v, v, True, True))
    return _canonical(m.codomain, raw)


def preimage_by_pairs(m: PLMap, s: Region) -> Region:
    raw: list[Span] = []
    for run in m.pieces:
        for piece in run:
            src = Span(piece.src_lo, piece.src_hi, True, True)
            for t in s.spans:
                if piece.slope == 0:
                    if t.contains(piece.intercept):
                        raw.append(src)
                    continue
                back = affine_span_by_fractions(t, 1 / piece.slope, -piece.intercept / piece.slope)
                part = span_intersect_by_contains(back, src)
                if part is not None:
                    raw.append(part)
    for p, v in m.point_images:
        if any(t.contains(v) for t in s.spans):
            raw.append(Span(p, p, True, True))
    return _canonical(m.domain, raw)


def psi_by_pairs(m: PLMap, u: Region) -> Region:
    return image_by_pairs(m, u.closure()).interior()


def phi_by_pairs(m: PLMap, v: Region) -> Region:
    return preimage_by_pairs(m, v).closure().interior()


def redundant_point_by_images(m: PLMap, twice: Region) -> Optional[Rational]:
    """Rule 1 point by point: the first isolated point whose removal leaves
    the image of the rest of the domain the whole codomain.  `twice` is
    ignored."""
    full = m.domain.full_region()
    for p, _ in m.point_images:
        rest = full.difference(_canonical(m.domain, [Span(p, p, True, True)]))
        if m.image(rest) == m.codomain.full_region():
            return p
    return None


def first_overlap_by_branches(m: PLMap, twice: Region) -> Optional[tuple[Piece, Span]]:
    """Rule 3 branch by branch: int(own image) against int(union of the others).
    `twice` is ignored."""
    branches: list[tuple[Optional[Piece], Span]] = []
    for run in m.pieces:
        for piece in run:
            a, b = piece.value(piece.src_lo), piece.value(piece.src_hi)
            branches.append((piece, Span(min(a, b), max(a, b), True, True)))
    for _, v in m.point_images:
        branches.append((None, Span(v, v, True, True)))
    for i, (piece, image) in enumerate(branches):
        if piece is None:
            continue
        own = _canonical(m.codomain, [image]).interior()
        others = _canonical(m.codomain, [s for j, (_, s) in enumerate(branches) if j != i])
        overlap = own.intersect(others.interior())
        if not overlap.is_empty:
            return piece, overlap.spans[0]
    return None
