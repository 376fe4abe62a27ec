"""Reference transports and irreducibility decisions for piecewise-linear maps, by brute force.

The library pairs each branch only with the region spans that meet it,
intersects spans by cross-multiplying integer ratios, carries each piece
as a row of integer ratios and makes no `Fraction`, and decides rules 1
and 3 of `is_irreducible` with one meet walk each against the runs that
two closed branch images hold.  These are the forms it
replaced: the bisected transport kernel in Fraction arithmetic (`_carry`,
`_span_intersect`, `_affine_ratios`, and `pullback` by dividing each cut),
every piece against every span, flags from `space_oracle.holds`, one image
of the domain without each isolated point, and one canonicalization of the
other branches per piece.  Tests compare the two on random maps.

psi and phi make int(cl(U)) of the carried spans' union U in one hull
pass; the compositions they replaced, through the library's own image,
preimage, closure and interior, are kept as `psi_by_composition` and
`phi_by_composition`.

Each map keeps its branches once, as integer rows; `branches_by_fractions`
is the `Fraction` form (src, dst, slope, intercept) that the rows replaced,
and `locate_by_fractions` the lookup of a slope and intercept in it that
evaluation replaced with a read of the pieces.  Surjectivity and the
codomain check read the branch images off the table; the derivations they
replaced are kept as `is_surjective_by_image` (the image of the whole
domain) and `validate_by_sweeps` (one reference sweep per branch against
the full codomain).  The runs that two branch images hold come from one
`space._meet` walk joined by `space._merged`; the coverage sweep it
replaced is `covered_twice_by_sweep`, here on the reference sweep
`space_oracle.sweep_by_groupby`.

`is_irreducible_by_rules` is the whole decision by those derivations:
rule 1 point by point, rule 2 from the pieces, and rule 3 branch by branch
(`first_overlap_by_branches`) or by interiors over the runs that
`covered_twice_by_sweep` finds (`first_overlap_by_interiors`), with the
library's witness recipe.  `is_irreducible_by_atoms` decides by no rule at
all: π is irreducible exactly when ψ sends the atoms of a finite algebra of
regular opens of the domain one to one onto those of the codomain, built
from the map's cut points with public `Region`s, `Fraction` arithmetic and
`PLMap.psi` (`atom_algebras`).

Test-only device; the library itself never touches it.
"""
from __future__ import annotations

from bisect import bisect_left
from typing import Optional

import space_oracle
from conftest import span_row, trusted_region
from regopen.errors import ImageEscapesCodomain, NotSurjective
from regopen.ideals import PLFunc
from regopen.plmap import IrreducibilityVerdict, PLMap, Piece
from regopen.rationals import Q, Rational, rat
from regopen.space import Point, Region, Span


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


def locate_by_fractions(branches, x: Rational) -> tuple[Rational, Rational]:
    """Slope and intercept at x; an isolated point carries a constant."""
    for src, _, slope, intercept in branches:
        if src.lo <= x <= src.hi:
            return slope, intercept
    raise ValueError(f"{x} not in the domain")


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


def psi_by_composition(m: PLMap, u: Region) -> Region:
    return m.image(u.closure()).interior()


def phi_by_composition(m: PLMap, v: Region) -> Region:
    return m.preimage(v).closure().interior()


def pl_supp_by_fractions(f: PLFunc) -> Region:
    zeros = carry_by_fractions(branches_by_fractions(f), [Span(0, 0, True, True)], False)
    return space_oracle.complement(_canonical(f.space, zeros))


def pullback_by_cuts(pi: PLMap, f: PLFunc) -> PLFunc:
    """Each cut of f divided back through every monotone piece, each
    sub-piece's branch of f located at its midpoint."""
    cuts = sorted({x for run in f.pieces for q in run for x in (q.src_lo, q.src_hi)})
    branches = branches_by_fractions(f)
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
                m, k = locate_by_fractions(branches, piece.value((x0 + x1) / 2))
                out.append(Piece(x0, x1, m * piece.slope, m * piece.intercept + k))
        runs.append(tuple(out))
    points = [(p, f.value(v)) for p, v in pi.point_images]
    return PLFunc(pi.domain, tuple(runs), points)


def span_intersect_by_contains(a: Span, b: Span) -> Optional[Span]:
    lo = max(a.lo, b.lo)
    hi = min(a.hi, b.hi)
    if lo > hi:
        return None
    lo_incl = space_oracle.holds(a, lo) and space_oracle.holds(b, lo)
    hi_incl = space_oracle.holds(a, hi) and space_oracle.holds(b, hi)
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
        if space_oracle.holds(r, p):
            raw.append(Span(v, v, True, True))
    return _canonical(m.codomain, raw)


def preimage_by_pairs(m: PLMap, s: Region) -> Region:
    raw: list[Span] = []
    for run in m.pieces:
        for piece in run:
            src = Span(piece.src_lo, piece.src_hi, True, True)
            for t in s.spans:
                if piece.slope == 0:
                    if space_oracle.holds(t, piece.intercept):
                        raw.append(src)
                    continue
                back = affine_span_by_fractions(t, 1 / piece.slope, -piece.intercept / piece.slope)
                part = span_intersect_by_contains(back, src)
                if part is not None:
                    raw.append(part)
    for p, v in m.point_images:
        if space_oracle.holds(s, v):
            raw.append(Span(p, p, True, True))
    return _canonical(m.domain, raw)


def psi_by_pairs(m: PLMap, u: Region) -> Region:
    return image_by_pairs(m, u.closure()).interior()


def phi_by_pairs(m: PLMap, v: Region) -> Region:
    return preimage_by_pairs(m, v).closure().interior()


def redundant_point_by_images(m: PLMap) -> Optional[Rational]:
    """Rule 1 point by point: the first isolated point whose removal leaves
    the image of the rest of the domain the whole codomain."""
    full = m.domain.full_region()
    for p, _ in m.point_images:
        rest = full.difference(_canonical(m.domain, [Span(p, p, True, True)]))
        if m.image(rest) == m.codomain.full_region():
            return p
    return None


def first_overlap_by_branches(m: PLMap) -> Optional[tuple[Piece, Span]]:
    """Rule 3 branch by branch: the first piece in run order whose int(own
    image) meets int(union of the other branch images), with the first span
    of that meet."""
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


def is_irreducible_by_rules(m: PLMap, overlap=first_overlap_by_branches) -> IrreducibilityVerdict:
    """`is_irreducible` by reference derivations: surjectivity from the image
    of the domain, rule 1 point by point, rule 2 from the pieces and rule 3
    by `overlap`, a piece and its first meet.  Each witness follows the
    library's recipe: the point itself, the constant piece's open middle
    third, or the meet's open middle third carried back through the piece."""
    if not is_surjective_by_image(m):
        raise NotSurjective("irreducibility is only defined for surjective maps")
    p = redundant_point_by_images(m)
    if p is not None:
        return IrreducibilityVerdict(False, Region(m.domain, [Span(p, p, True, True)]),
                                     f"isolated point {p} is redundant")
    constant = [q for run in m.pieces for q in run if q.slope == 0]
    if constant:
        lo, hi = constant[0].src_lo, constant[0].src_hi
        third = (hi - lo) / 3
        return IrreducibilityVerdict(False, Region(m.domain, [Span(lo + third, hi - third, False, False)]),
                                     f"constant piece on [{lo}, {hi}]")
    found = overlap(m)
    if found is None:
        return IrreducibilityVerdict(True)
    piece, meet = found
    third = (meet.hi - meet.lo) / 3
    a, b = sorted((y - piece.intercept) / piece.slope for y in (meet.lo + third, meet.hi - third))
    return IrreducibilityVerdict(False, Region(m.domain, [Span(a, b, False, False)]),
                                 f"piece image ({meet.lo}, {meet.hi}) overlap is covered twice")


def is_surjective_by_image(m: PLMap) -> bool:
    return m.image(m.domain.full_region()) == m.codomain.full_region()


def validate_by_sweeps(m: PLMap) -> None:
    """Each branch image minus the full codomain, one sweep per branch."""
    for src, dst, _, _ in branches_by_fractions(m):
        if space_oracle.sweep_by_groupby(m.codomain, lambda x, y: x > 0 and y == 0, [dst],
                                         m.codomain.full_region().spans).spans:
            raise ImageEscapesCodomain(src.lo if src.lo == src.hi else (src.lo, src.hi))


def first_overlap_by_interiors(m: PLMap) -> Optional[tuple[Piece, Span]]:
    """Rule 3 on the runs that `covered_twice_by_sweep` finds, read as a
    region and opened by `interior`, each piece's image read as int(own):
    the first piece in run order that meets one, with the first meet."""
    images = [dst for _, dst, _, _ in branches_by_fractions(m)]
    held = [Span(Q(*lo), Q(*hi), lo_incl, hi_incl)
            for lo, hi, lo_incl, hi_incl in covered_twice_by_sweep(m.codomain, images)]
    inner = trusted_region(m.codomain, held).interior().spans
    pieces = [q for run in m.pieces for q in run]
    for piece, image in zip(pieces, images):
        own = trusted_region(m.codomain, [image]).interior().spans[0]
        for d in inner:  # a plain scan: the first run in order that meets it
            part = span_intersect_by_fractions(d, own)
            if part is not None:
                return piece, part
    return None


def covered_twice_by_sweep(space, spans: list[Span]) -> list:
    """The runs of `space` that at least two of the spans hold, as rows:
    one coverage sweep that keeps the points whose count is at least 2."""
    return [span_row(s) for s in space_oracle.sweep_by_groupby(space, lambda count: count >= 2, spans).spans]


def _atoms(space, cuts: set) -> list[Region]:
    """The atoms of the finite algebra of regular opens of `space` with
    every end among `cuts`, which hold the component ends: each isolated
    point, and each open gap between consecutive cuts of an interval
    component, closed where it reaches the component's end."""
    out = []
    for comp in space.components:
        if isinstance(comp, Point):
            out.append(Region(space, [Span(comp.at, comp.at, True, True)]))
            continue
        inside = sorted(x for x in cuts if comp.a <= x <= comp.b)
        out += [Region(space, [Span(u, v, u == comp.a, v == comp.b)]) for u, v in zip(inside, inside[1:])]
    return out


def atom_algebras(m: PLMap) -> tuple[list[Region], list[Region]]:
    """The atoms of A_{B'} in the domain Y and of A_B in the codomain X.

    B holds the component ends of X, the point images and the images of
    the piece ends.  B' holds the piece ends and each preimage of a point of
    B strictly inside a monotone piece, so each atom of A_{B'} lies in one
    piece and a monotone piece sends it onto an atom of A_B.  B' also holds
    the midpoint of each constant piece: a constant component onto an
    isolated point of X then gives two atoms one image, as it must, since
    the map is reducible there."""
    pieces = [q for run in m.pieces for q in run]
    cuts_x = {x for c in m.codomain.components for x in ((c.at,) if isinstance(c, Point) else (c.a, c.b))}
    cuts_x |= {v for _, v in m.point_images} | {q.value(x) for q in pieces for x in (q.src_lo, q.src_hi)}
    cuts_y = {x for q in pieces for x in (q.src_lo, q.src_hi)}
    for q in pieces:
        if q.slope == 0:
            cuts_y.add((q.src_lo + q.src_hi) / 2)
            continue
        cuts_y |= {x for x in ((b - q.intercept) / q.slope for b in cuts_x) if q.src_lo < x < q.src_hi}
    return _atoms(m.domain, cuts_y), _atoms(m.codomain, cuts_x)


def is_irreducible_by_atoms(m: PLMap) -> bool:
    """Irreducibility as ψ a bijection of atoms: π is onto exactly when
    ψ(Y) = X, and then it is irreducible exactly when ψ sends the atoms of
    A_{B'} one to one onto the atoms of A_B (see `atom_algebras`)."""
    if m.psi(m.domain.full_region()) != m.codomain.full_region():
        raise NotSurjective("irreducibility is only defined for surjective maps")
    ys, xs = atom_algebras(m)
    images = [m.psi(a) for a in ys]
    return len(images) == len(xs) and set(images) == set(xs)
