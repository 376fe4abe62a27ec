"""Piecewise-linear maps between compact rational-line spaces.

A map carries, per interval component of the domain, a run of affine
pieces that tile the component, plus an image point for every isolated
point.  Both are read through one branch table: a branch is an affine
piece, or an isolated point taken as a constant.  Everything (images,
preimages, the irreducibility decision) is exact span arithmetic; no
sampling enters the library semantics.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import (
    Discontinuity,
    ImageEscapesCodomain,
    NotSurjective,
    SpaceMismatch,
)
from .rationals import Q, Rational, rat
from .space import Region, Space1D, Span, _minus, _region, _span, _sweep, canonicalize


@dataclass(frozen=True)
class Piece:
    """One affine piece: x ↦ slope·x + intercept on [src_lo, src_hi]."""

    src_lo: Rational
    src_hi: Rational
    slope: Rational
    intercept: Rational

    def __post_init__(self):
        for name in ("src_lo", "src_hi", "slope", "intercept"):
            object.__setattr__(self, name, rat(getattr(self, name)))
        if not self.src_lo < self.src_hi:
            raise ValueError("piece needs src_lo < src_hi")

    def value(self, x: Rational) -> Rational:
        return self.slope * x + self.intercept


# --- the piecewise-linear core shared by maps and functions ---


def _settle(obj, space: Space1D, points_field: str) -> None:
    """Freeze `obj.pieces` and its (point, value) pairs, check both over
    `space`, then build the branch table `obj._branches`: one
    (src, dst, slope, intercept) per piece in run order, then one per
    isolated point as a constant, with closed source and image spans.
    """
    # tuple() of a list allocates the final size; of a generator it resizes
    # a guess, and each resized block then stays in the tuple free list
    object.__setattr__(obj, "pieces", tuple([tuple(run) for run in obj.pieces]))
    points = tuple([(rat(p), rat(v)) for p, v in getattr(obj, points_field)])
    object.__setattr__(obj, points_field, points)
    _check_runs(space, obj.pieces)
    _check_points(space, points, points_field)
    parts = [(_span(q.src_lo, q.src_hi, True, True), q.slope, q.intercept)
             for run in obj.pieces for q in run]
    parts += [(_span(p, p, True, True), rat(0), v) for p, v in points]
    branches = tuple([(src, _affine_span(_ratios(src), *_affine(k, c)) if k else _span(c, c, True, True),
                       k, c) for src, k, c in parts])
    object.__setattr__(obj, "_branches", branches)


def _check_runs(space: Space1D, pieces) -> None:
    """One run per interval component, tiling it with consecutive continuous pieces."""
    comps = space.interval_components()
    if len(pieces) != len(comps):
        raise ValueError("one piece run per interval component required")
    for comp, run in zip(comps, pieces):
        if not run:
            raise ValueError(f"empty piece run for component [{comp.a}, {comp.b}]")
        if run[0].src_lo != comp.a or run[-1].src_hi != comp.b:
            raise ValueError("pieces must tile the component exactly")
        for left, right in zip(run, run[1:]):
            if left.src_hi != right.src_lo:
                raise ValueError("pieces must be consecutive")
            if left.value(left.src_hi) != right.value(right.src_lo):
                raise Discontinuity(left.src_hi)


def _check_points(space: Space1D, points, points_field: str) -> None:
    """Exactly one value per isolated point of the space."""
    given = {p for p, _ in points}
    if given != {p.at for p in space.point_components()}:
        raise ValueError(f"{points_field} must cover the isolated points exactly")
    if len(given) != len(points):
        raise ValueError(f"duplicate point in {points_field}")


def _locate(branches, x: Rational) -> tuple[Rational, Rational]:
    """Slope and intercept at x; an isolated point carries a constant."""
    for src, _, slope, intercept in branches:
        if src.lo <= x <= src.hi:
            return slope, intercept
    raise ValueError(f"{x} not in the domain")


def _ratios(s: Span) -> tuple:
    """The span as (lo, hi, lo_incl, hi_incl) with both ends integer ratios."""
    return s.lo.as_integer_ratio(), s.hi.as_integer_ratio(), s.lo_incl, s.hi_incl


def _affine(slope: Rational, intercept: Rational, back: bool = False) -> tuple[int, int, int]:
    """Integers (p, q, r), r > 0, that write x ↦ slope·x + intercept as
    x ↦ (p·x + q) / r, or its inverse (r·x - q) / p when `back`: a swap."""
    (kn, kd), (cn, cd) = slope.as_integer_ratio(), intercept.as_integer_ratio()
    p, q, r = kn * cd, cn * kd, kd * cd
    if not back:
        return p, q, r
    return (r, -q, p) if p > 0 else (-r, q, -p)


def _meeting(spans: Sequence[tuple], lo: tuple, hi: tuple) -> Iterable[tuple]:
    """The `_ratios` spans that can meet [lo, hi] (integer ratios), found by
    bisection, by cross-multiplication, for the first whose hi is not below lo.

    `spans` must be sorted with increasing ends, as canonical region spans are.
    """
    (ln, ld), (hn, hd) = lo, hi
    for i in range(bisect_left(spans, True, key=lambda t: t[1][0] * ld >= ln * t[1][1]), len(spans)):
        n, d = spans[i][0]
        if n * hd > hn * d:
            return
        yield spans[i]


def _carry(branches, spans: Sequence[Span], forward: bool) -> list[Span]:
    """Raw spans of the image (forward) or the preimage of `spans`.

    `spans` must be sorted and disjoint (canonical region spans, or one
    span); each branch then visits only the spans that meet its source
    (forward) or its image (back).  Every region boundary and every branch
    end, slope and intercept is read once per call as an integer ratio, so
    no two Fractions are compared, and each carried end is one `Q(n, d)`.
    """
    ends = [_ratios(t) for t in spans]
    raw: list[Span] = []
    for src, dst, slope, intercept in branches:
        window, other = (src, dst) if forward else (dst, src)
        w = _ratios(window)
        if slope:
            p, q, r = _affine(slope, intercept, not forward)
        for t in _meeting(ends, w[0], w[1]):
            part = _span_intersect(t, w)
            if part is not None:
                # a slope-0 branch carries any meet onto its whole other side
                raw.append(_affine_span(part, p, q, r) if slope else other)
    return raw


def _runs(space: Space1D, values: Iterable[tuple[Rational, Rational]]):
    """Interpolating runs through (x, value) breakpoints.

    Breakpoints must include both endpoints of every interval component
    of the space, in order.
    """
    values = [(rat(x), rat(v)) for x, v in values]
    runs = []
    for comp in space.interval_components():
        inside = [(x, v) for x, v in values if comp.a <= x <= comp.b]
        if len(inside) < 2 or inside[0][0] != comp.a or inside[-1][0] != comp.b:
            raise ValueError("breakpoints must span each interval component")
        run = []
        for (x0, v0), (x1, v1) in zip(inside, inside[1:]):
            slope = (v1 - v0) / (x1 - x0)
            run.append(Piece(x0, x1, slope, v0 - slope * x0))
        runs.append(tuple(run))
    return tuple(runs)


@dataclass(frozen=True)
class PLMap:
    """A continuous piecewise-linear map between two spaces."""

    domain: Space1D
    codomain: Space1D
    pieces: tuple[tuple[Piece, ...], ...]  # one run per interval component
    point_images: tuple[tuple[Rational, Rational], ...] = ()  # (point, image)

    def __post_init__(self):
        _settle(self, self.domain, "point_images")
        self.validate()

    def validate(self) -> None:
        """The codomain checks; the shared core has checked runs and points."""
        for src, dst, _, _ in self._branches:
            if _sweep(self.codomain, _minus, [dst], self.codomain.full_region().spans).spans:
                # a piece is located by its span, an isolated point by itself
                raise ImageEscapesCodomain(src.lo if src.lo == src.hi else (src.lo, src.hi))

    # --- evaluation and set maps ---

    def value(self, x: Rational) -> Rational:
        slope, intercept = _locate(self._branches, x)
        return slope * x + intercept

    def image(self, r: Region) -> Region:
        if r.space != self.domain:
            raise SpaceMismatch("region is not over the domain")
        return canonicalize(self.codomain, _carry(self._branches, r.spans, True)).region

    def preimage(self, s: Region) -> Region:
        if s.space != self.codomain:
            raise SpaceMismatch("region is not over the codomain")
        return canonicalize(self.domain, _carry(self._branches, s.spans, False)).region

    def is_surjective(self) -> bool:
        return self.image(self.domain.full_region()) == self.codomain.full_region()

    # --- the induced maps on regular opens ---

    def psi(self, u: Region) -> Region:
        """Interior of the image of the closure."""
        return self.image(u.closure()).interior()

    def phi(self, v: Region) -> Region:
        """Interior of the closure of the preimage."""
        return self.preimage(v).closure().interior()


def _span_intersect(a: tuple, b: tuple) -> Optional[tuple]:
    """The larger lo and the smaller hi of two `_ratios` spans, ordered by
    cross-multiplication; on a tie both spans must include the end."""
    (an, ad), (bn, bd) = a[0], b[0]
    c = an * bd - bn * ad
    lo, lo_incl = (a[0], a[2] and b[2]) if c == 0 else (a[0], a[2]) if c > 0 else (b[0], b[2])
    (an, ad), (bn, bd) = a[1], b[1]
    c = an * bd - bn * ad
    hi, hi_incl = (a[1], a[3] and b[3]) if c == 0 else (a[1], a[3]) if c < 0 else (b[1], b[3])
    c = lo[0] * hi[1] - hi[0] * lo[1]
    if c > 0 or (c == 0 and not (lo_incl and hi_incl)):
        return None
    return lo, hi, lo_incl, hi_incl


def _affine_span(s: tuple, p: int, q: int, r: int) -> Span:
    """The image of a `_ratios` span under x ↦ (p·x + q) / r, p ≠ 0 < r."""
    (ln, ld), (hn, hd) = s[0], s[1]
    lo, hi = Q(p * ln + q * ld, r * ld), Q(p * hn + q * hd, r * hd)
    if p > 0:
        return _span(lo, hi, s[2], s[3])
    return _span(hi, lo, s[3], s[2])


@dataclass(frozen=True)
class IrreducibilityVerdict:
    """Decision plus, when reducible, a verified open witness."""

    irreducible: bool
    witness: Optional[Region] = None
    reason: str = ""

    def to_json(self) -> dict:
        from .jsonio import encode_region

        out: dict = {"irreducible": self.irreducible}
        if self.reason:
            out["reason"] = self.reason
        if self.witness is not None:
            out["witness"] = encode_region(self.witness)
        return out


def is_irreducible(m: PLMap) -> IrreducibilityVerdict:
    """Decide whether no proper closed subset of the domain still surjects.

    The decision walks three exact rules: a removable isolated point, a
    constant piece, or a monotone piece whose image interior overlaps the
    union of the other branches.  Any witness is re-verified by exact
    recomputation before it is returned.

    Rules 1 and 3 read one coverage count over the n branch images: an
    O(n log n) sweep, then one bisection per isolated point (rule 1) and
    one per piece (rule 3, `_first_overlap`), plus a walk of the codomain
    components for each piece's image interior.
    """
    if not m.is_surjective():
        raise NotSurjective("irreducibility is only defined for surjective maps")

    full = m.domain.full_region()
    x_full = m.codomain.full_region()

    def verified(witness: Region, reason: str) -> IrreducibilityVerdict:
        rest = full.difference(witness)
        if m.image(rest) != x_full:
            raise AssertionError(f"internal witness failed re-verification: {reason}")
        return IrreducibilityVerdict(False, witness, reason)

    twice = _sweep(m.codomain, _covered_twice, [dst for _, dst, _, _ in m._branches])

    # rule 1: an isolated point whose removal keeps the map onto
    p = _redundant_point(m, twice)
    if p is not None:
        candidate = Region(m.domain, [Span(p, p, True, True)])
        return verified(candidate, f"isolated point {p} is redundant")

    # rule 2: a constant piece always leaves both endpoints behind
    for run in m.pieces:
        for piece in run:
            if piece.slope == 0:
                third = (piece.src_hi - piece.src_lo) / 3
                w = Region(
                    m.domain, [Span(piece.src_lo + third, piece.src_hi - third, False, False)]
                )
                return verified(w, f"constant piece on [{piece.src_lo}, {piece.src_hi}]")

    # rule 3: a monotone piece whose image interior is covered elsewhere
    found = _first_overlap(m, twice)
    if found is None:
        return IrreducibilityVerdict(True)
    piece, span = found
    third = (span.hi - span.lo) / 3
    w1, w2 = span.lo + third, span.hi - third
    a = (w1 - piece.intercept) / piece.slope
    b = (w2 - piece.intercept) / piece.slope
    if a > b:
        a, b = b, a
    witness = Region(m.domain, [Span(a, b, False, False)])
    return verified(witness, f"piece image ({span.lo}, {span.hi}) overlap is covered twice")


def _covered_twice(count: int) -> bool:
    return count >= 2


def _redundant_point(m: PLMap, twice: Region) -> Optional[Rational]:
    """The first isolated point whose removal keeps the map onto.

    The map is onto, so dropping p keeps it onto exactly when another
    branch also covers p's image: when `twice`, the part of the codomain
    that at least two closed branch images hold, contains it.
    """
    for p, v in m.point_images:
        if twice.contains(v):
            return p
    return None


def _first_overlap(m: PLMap, twice: Region) -> Optional[tuple[Piece, Span]]:
    """The first piece, in run order, whose image interior meets the interior
    of the other branch images (pieces and point images), with the first span
    of that meet.  Every piece is monotone here (rule 2 ran first).

    Inside a piece's closed image, a point lies in another branch image
    exactly when at least two closed branch images hold it.  So the one
    coverage sweep `twice` gives D = int(twice) for all pieces at once, and
    each piece meets D by bisection.  Canonical form is unique, so the first
    span is the one that int(own) and int(others), built per piece, would give.
    """
    inner = [_ratios(d) for d in twice.interior().spans]
    # the branches list the pieces first, in run order, so zip stops before the points
    for piece, (_, image, _, _) in zip([q for run in m.pieces for q in run], m._branches):
        # the image lies in one codomain component, so it is already canonical
        own = _ratios(_region(m.codomain, (image,)).interior().spans[0])
        for d in _meeting(inner, own[0], own[1]):
            part = _span_intersect(d, own)
            if part is not None:
                return piece, _span(Q(*part[0]), Q(*part[1]), part[2], part[3])
    return None


def identity_map(space: Space1D) -> PLMap:
    runs = tuple((Piece(c.a, c.b, 1, 0),) for c in space.interval_components())
    points = tuple((p.at, p.at) for p in space.point_components())
    return PLMap(space, space, runs, points)


def plmap_from_breakpoints(
    domain: Space1D, codomain: Space1D, values: Iterable[tuple[Rational, Rational]],
    point_images: Iterable[tuple[Rational, Rational]] = (),
) -> PLMap:
    """The interpolating map through (x, value) breakpoints (see `_runs`)."""
    return PLMap(domain, codomain, _runs(domain, values), tuple(point_images))
