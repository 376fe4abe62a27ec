"""Reference transports and rules 1 and 3 for piecewise-linear maps, by brute force.

The library pairs each branch only with the region spans that meet it,
intersects spans by comparing endpoints, and decides rules 1 and 3 of
`is_irreducible` from one coverage count over all branch images.  These
are the direct forms it replaced: every piece against every span, flags
from `Span.contains`, one image of the domain without each isolated point,
and one canonicalization of the other branches per piece.  Tests compare
the two on random maps.

Test-only device; the library itself never touches it.
"""
from __future__ import annotations

from typing import Optional

from regopen.plmap import PLMap, Piece, _affine_span
from regopen.rationals import Rational
from regopen.space import Region, Span, canonicalize


def span_intersect_by_contains(a: Span, b: Span) -> Optional[Span]:
    lo = max(a.lo, b.lo)
    hi = min(a.hi, b.hi)
    if lo > hi:
        return None
    lo_incl = a.contains(lo) and b.contains(lo)
    hi_incl = a.contains(hi) and b.contains(hi)
    out = Span(lo, hi, lo_incl, hi_incl)
    return None if out.is_empty else out


def image_by_pairs(m: PLMap, r: Region) -> Region:
    raw: list[Span] = []
    for run in m.pieces:
        for piece in run:
            src = Span(piece.src_lo, piece.src_hi, True, True)
            for s in r.spans:
                part = span_intersect_by_contains(s, src)
                if part is not None:
                    raw.append(_affine_span(part, piece.slope, piece.intercept))
    for p, v in m.point_images:
        if r.contains(p):
            raw.append(Span(v, v, True, True))
    return canonicalize(m.codomain, raw).region


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
                back = _affine_span(t, 1 / piece.slope, -piece.intercept / piece.slope)
                part = span_intersect_by_contains(back, src)
                if part is not None:
                    raw.append(part)
    for p, v in m.point_images:
        if any(t.contains(v) for t in s.spans):
            raw.append(Span(p, p, True, True))
    return canonicalize(m.domain, raw).region


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
        rest = full.difference(Region.make(m.domain, [Span(p, p, True, True)]))
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
        own = Region.make(m.codomain, [image]).interior()
        others = Region.make(m.codomain, [s for j, (_, s) in enumerate(branches) if j != i])
        overlap = own.intersect(others.interior())
        if not overlap.is_empty:
            return piece, overlap.spans[0]
    return None
