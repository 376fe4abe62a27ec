"""Piecewise-linear maps between compact rational-line spaces.

A map carries, per interval component of the domain, a run of affine
pieces that tile the component, plus an image point for every isolated
point.  Both are read through one branch table: a branch is an affine
piece, or an isolated point taken as a constant.  Everything (images,
preimages, the irreducibility decision) is exact span arithmetic; no
sampling enters the library semantics.
"""
from __future__ import annotations

from math import gcd
from typing import Iterable, Optional, Sequence

from .errors import Discontinuity, ImageEscapesCodomain, NotSurjective, SpaceMismatch, _Value
from .rationals import Q, Rational, rat
from .space import Region, Space1D, Span, _cut_ranges, _locate, _meet, _merged, _regular_union, _union


class Piece(_Value):
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
    """Freeze `obj.pieces` and its (point, value) pairs, check both over `space`, then build `obj._branches`."""
    # tuple() of a list allocates the final size; of a generator it resizes
    # a guess, and each resized block then stays in the tuple free list
    object.__setattr__(obj, "pieces", tuple([tuple(run) for run in obj.pieces]))
    points = tuple([(rat(p), rat(v)) for p, v in getattr(obj, points_field)])
    object.__setattr__(obj, points_field, points)
    _check_runs(space, obj.pieces)
    _check_points(space, points, points_field)
    object.__setattr__(obj, "_branches", _table(obj.pieces, points))


def _table(pieces, points) -> tuple:
    """One branch per piece in run order, then one per (point, value) as a
    constant, each an integer row (src, dst, forward, backward): its closed
    source and image spans as region rows and the `_affine` integers of its
    map and of the inverse, both None for a constant.  A branch whose source
    ends are equal is an isolated point.  No Span and no Fraction is built."""
    parts = [(q.src_lo, q.src_hi, q.slope, q.intercept) for run in pieces for q in run]
    parts += [(p, p, 0, v) for p, v in points]
    table = []
    for lo, hi, k, c in parts:
        src = (lo.as_integer_ratio(), hi.as_integer_ratio(), True, True)
        if k:
            forward, backward = _affine(k, c)
            table.append((src, _affine_ratios(src, *forward), forward, backward))
        else:
            table.append((src, (c.as_integer_ratio(),) * 2 + (True, True), None, None))
    return tuple(table)


def _value(obj, points, x: Rational) -> Rational:
    """The value at x of the first piece that holds it, else of the isolated point x."""
    held = [q.value(x) for run in obj.pieces for q in run if q.src_lo <= x <= q.src_hi]
    held += [v for p, v in points if p == x]
    if not held:
        raise ValueError(f"{x} not in the domain")
    return held[0]


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


def _affine(slope: Rational, intercept: Rational) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Integers (p, q, r), r > 0, that write x ↦ slope·x + intercept as
    x ↦ (p·x + q) / r, then those of its inverse (r·x - q) / p: a swap, with
    the signs moved so that the divisor stays positive."""
    (kn, kd), (cn, cd) = slope.as_integer_ratio(), intercept.as_integer_ratio()
    p, q, r = kn * cd, cn * kd, kd * cd
    return (p, q, r), ((r, -q, p) if p > 0 else (-r, q, -p))


def _carry(table, rows: Sequence[tuple], forward: bool) -> list[tuple]:
    """Raw rows of the image (forward) or the preimage of `rows` under the
    branches of a table `_branches`, their ends in lowest terms.

    `rows` must be sorted and disjoint (a region's, or one row); each branch
    walks them from the one `_locate` finds to the first past its source
    (forward) or its image (back).  Every branch end and affine map comes
    from the table, built once per map, so no Fraction is compared or built.
    Every carried row is nonempty and lies in the target space.
    """
    raw: list[tuple] = []
    for src, dst, fwd, back in table:
        window, other, affine = (src, dst, fwd) if forward else (dst, src, back)
        hn, hd = window[1]
        for i in range(_locate(rows, window[0]), len(rows)):
            n, d = rows[i][0]
            if n * hd > hn * d:
                break
            part = _span_intersect(rows[i], window)
            if part is not None:  # a constant branch carries any meet onto its whole other side
                raw.append(_affine_ratios(part, *affine) if affine else other)
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


class PLMap(_Value):
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
        comps = self.codomain._full.rows
        for (lo, hi, _, _), (dlo, (hn, hd), _, _), _, _ in self._branches:
            # the one component that can hold the image: the first that does not end below its lo
            i = _locate(comps, dlo)
            if i == len(comps) or comps[i][0][0] * dlo[1] > dlo[0] * comps[i][0][1] \
                    or hn * comps[i][1][1] > comps[i][1][0] * hd:
                # a piece is located by its span, an isolated point by itself
                raise ImageEscapesCodomain(Q(*lo) if lo == hi else (Q(*lo), Q(*hi)))

    # --- evaluation and set maps ---

    def value(self, x: Rational) -> Rational:
        return _value(self, self.point_images, x)

    def image(self, r: Region) -> Region:
        if r.space != self.domain:
            raise SpaceMismatch("region is not over the domain")
        return _union(self.codomain, _carry(self._branches, r.rows, True))

    def preimage(self, s: Region) -> Region:
        if s.space != self.codomain:
            raise SpaceMismatch("region is not over the codomain")
        return _union(self.domain, _carry(self._branches, s.rows, False))

    def is_surjective(self) -> bool:
        # the image of the domain is the union of the branch images
        return tuple(_merged(*_cut_ranges([dst for _, dst, _, _ in self._branches]))) == self.codomain._full.rows

    # --- the induced maps on regular opens ---

    def psi(self, u: Region) -> Region:
        """Interior of the image of the closure.

        A continuous map of a compact space has f(cl A) = cl f(A), and the
        closure of a finite union is the union of the closures: so psi(u) is
        int(cl(U)), U the union of the carried rows of u, which is one
        `_regular_union` pass over them.
        """
        if u.space != self.domain:
            raise SpaceMismatch("region is not over the domain")
        return _regular_union(self.codomain, _carry(self._branches, u.rows, True))

    def phi(self, v: Region) -> Region:
        """Interior of the closure of the preimage: one `_regular_union` pass
        over the carried rows of v."""
        if v.space != self.codomain:
            raise SpaceMismatch("region is not over the codomain")
        return _regular_union(self.domain, _carry(self._branches, v.rows, False))


def _span_intersect(a: tuple, b: tuple) -> Optional[tuple]:
    """The larger lo and the smaller hi of two rows, ordered by
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


def _affine_ratios(s: tuple, p: int, q: int, r: int) -> tuple:
    """The image of a row under x ↦ (p·x + q) / r, p ≠ 0 < r,
    with both ends in lowest terms: one gcd each, and d > 0 as r, d > 0."""
    (ln, ld), (hn, hd) = s[0], s[1]
    n, d = p * ln + q * ld, r * ld
    g = gcd(n, d)
    lo = n // g, d // g
    n, d = p * hn + q * hd, r * hd
    g = gcd(n, d)
    hi = n // g, d // g
    return (lo, hi, s[2], s[3]) if p > 0 else (hi, lo, s[3], s[2])


class IrreducibilityVerdict(_Value):
    """Decision plus, when reducible, a verified open witness."""

    irreducible: bool
    witness: Optional[Region] = None
    reason: str = ""


def is_irreducible(m: PLMap) -> IrreducibilityVerdict:
    """Decide whether no proper closed subset of the domain still surjects.

    The decision walks three exact rules: a removable isolated point, a
    constant piece, or a monotone piece whose image interior overlaps the
    union of the other branches.  Any witness is re-verified by exact
    recomputation before it is returned.

    Surjectivity and the runs that two closed branch images hold come off
    one sorted list of the n images' cut ranges, built by one `_cut_ranges`
    call: one union walk and one meet walk, O(n log n).  Rules 1 and 3 are
    then one `_first_meet` walk each, one bisection per row.
    """
    images = _cut_ranges([dst for _, dst, _, _ in m._branches])[0]
    if tuple(_merged(images)) != m.codomain._full.rows:  # as `is_surjective`, and it leaves them sorted
        raise NotSurjective("irreducibility is only defined for surjective maps")

    y_full = m.domain.full_region()
    x_full = m.codomain.full_region()

    def verified(witness: Region, reason: str) -> IrreducibilityVerdict:
        rest = y_full.difference(witness)
        if m.image(rest) != x_full:
            raise AssertionError(f"internal witness failed re-verification: {reason}")
        return IrreducibilityVerdict(False, witness, reason)

    twice = _merged(_meet(images, False))  # the runs two closed images hold, as closed rows

    # rule 1: the map is onto, so dropping an isolated point keeps it onto
    # exactly when another branch also covers the point's image
    if m.point_images:
        points = m._branches[len(m._branches) - len(m.point_images):]  # the table lists them last
        found = _first_meet([dst for _, dst, _, _ in points], twice)
        if found is not None:
            p = Q(*points[found[0]][0][0])
            candidate = Region(m.domain, [Span(p, p, True, True)])
            return verified(candidate, f"isolated point {p} is redundant")

    # rule 2: a constant piece always leaves both endpoints behind; the table
    # keeps no affine map for a constant, and a piece's source ends differ
    for (lo, hi, _, _), _, forward, _ in m._branches:
        if forward is None and lo != hi:
            lo, hi = Q(*lo), Q(*hi)
            third = (hi - lo) / 3
            w = Region(m.domain, [Span(lo + third, hi - third, False, False)])
            return verified(w, f"constant piece on [{lo}, {hi}]")

    # rule 3: a monotone piece whose image interior is covered elsewhere.
    # Inside a piece's closed image, a point lies in another branch image
    # exactly when two closed images hold it, so the open image meets
    # int(others) exactly when it meets a run held twice that is not a lone
    # point, and that meet has the ends of its meet with int(twice).  An
    # isolated point's open image row is empty and meets nothing.
    wide = [run for run in twice if run[0] != run[1]]
    found = _first_meet([(lo, hi, False, False) for _, (lo, hi, _, _), _, _ in m._branches], wide) if wide else None
    if found is None:
        return IrreducibilityVerdict(True)
    i, (lo, hi, _, _) = found
    lo, hi = Q(*lo), Q(*hi)
    third = (hi - lo) / 3
    middle = ((lo + third).as_integer_ratio(), (hi - third).as_integer_ratio(), False, False)
    a, b, _, _ = _affine_ratios(middle, *m._branches[i][3])  # carried back by the piece's inverse
    witness = Region(m.domain, [Span(Q(*a), Q(*b), False, False)])
    return verified(witness, f"piece image ({lo}, {hi}) overlap is covered twice")


def _first_meet(rows: Sequence[tuple], runs: list) -> Optional[tuple[int, tuple]]:
    """The index of the first of `rows` that meets one of the sorted,
    disjoint `runs`, with the first row of that meet.  Each row walks the
    runs from the one `_locate` finds to the first that starts past it."""
    for i, row in enumerate(rows):
        hn, hd = row[1]
        for j in range(_locate(runs, row[0]), len(runs)):
            n, d = runs[j][0]
            if n * hd > hn * d:
                break
            part = _span_intersect(runs[j], row)
            if part is not None:
                return i, part
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
