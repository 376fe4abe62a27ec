"""Regular ideals of the continuous functions on a space.

A regular ideal is represented losslessly by its regular-open support
region; concrete functions enter only as piecewise-linear witnesses.  The
transport maps upsilon/omega carry ideals across an irreducible cover by
moving supports through the cover's phi/psi.
"""
from __future__ import annotations

from .errors import NotIrreducible, SpaceMismatch, _Value
from .plmap import Piece, PLMap, _affine_ratios, _carry, _runs, _settle, _span_intersect, _table, _value, is_irreducible
from .rationals import Q, Rational
from .space import Region, Space1D, _locate, _union, ropen_join, ropen_meet


class PLFunc(_Value):
    """A continuous piecewise-linear real function on a space."""

    space: Space1D
    pieces: tuple[tuple[Piece, ...], ...]
    point_values: tuple[tuple[Rational, Rational], ...] = ()

    def __post_init__(self):
        _settle(self, self.space, "point_values")

    def value(self, x: Rational) -> Rational:
        return _value(self, self.point_values, x)


def plfunc_from_breakpoints(
    space: Space1D,
    values: list[tuple[Rational, Rational]],
    point_values: tuple[tuple[Rational, Rational], ...] = (),
) -> PLFunc:
    return PLFunc(space, _runs(space, values), point_values)


def pl_supp(f: PLFunc) -> Region:
    """Exact open region where f is nonzero: the complement of its zero set."""
    zeros = _carry(f._branches, [((0, 1), (0, 1), True, True)], False)
    return _union(f.space, zeros).complement()


class RegIdeal(_Value):
    """A regular ideal, keyed by its regular-open support."""

    space: Space1D
    support: Region

    def __post_init__(self):
        if self.support.space != self.space:
            raise SpaceMismatch("support region over a different space")
        if not self.support.is_regular_open():
            raise ValueError("support must be regular open")


def ideal_from_open(g: Region) -> RegIdeal:
    """The regular ideal of all functions vanishing outside the open set."""
    return RegIdeal(g.space, g.regularize())


def supp(j: RegIdeal) -> Region:
    return j.support


def in_ideal(f: PLFunc, j: RegIdeal) -> bool:
    if f.space != j.space:
        raise SpaceMismatch("function and ideal live on different spaces")
    return pl_supp(f).difference(j.support).is_empty


def ideal_join(j1: RegIdeal, j2: RegIdeal) -> RegIdeal:
    return RegIdeal(j1.space, ropen_join(j1.support, j2.support))


def ideal_meet(j1: RegIdeal, j2: RegIdeal) -> RegIdeal:
    return RegIdeal(j1.space, ropen_meet(j1.support, j2.support))


def ideal_neg(j: RegIdeal) -> RegIdeal:
    """The pseudocomplement of j, which is its annihilator: support perp(supp j)."""
    return RegIdeal(j.space, j.support.perp())


annihilator = ideal_neg


def _require_essential(pi: PLMap) -> None:
    if not is_irreducible(pi).irreducible:
        raise NotIrreducible("transport needs an irreducible cover")


def upsilon(pi: PLMap, j: RegIdeal) -> RegIdeal:
    """Transport an ideal of the codomain up to the domain of the cover."""
    if j.space != pi.codomain:
        raise SpaceMismatch("ideal is not over the cover codomain")
    _require_essential(pi)
    return RegIdeal._trusted(pi.domain, pi.phi(j.support))  # phi is regular open by construction


def omega(pi: PLMap, k: RegIdeal) -> RegIdeal:
    """Transport an ideal of the domain back down; inverse of upsilon."""
    if k.space != pi.domain:
        raise SpaceMismatch("ideal is not over the cover domain")
    _require_essential(pi)
    return RegIdeal._trusted(pi.codomain, pi.psi(k.support))  # so is psi


def pullback(pi: PLMap, f: PLFunc) -> PLFunc:
    """The composed function f after the cover: exact piecewise composition.

    Each meet of a monotone piece's image interior with a piece of f, found
    and carried back by the transport kernel, is one piece of the composite.
    """
    if f.space != pi.codomain:
        raise SpaceMismatch("function is not over the cover codomain")
    # f's pieces, not its isolated points; a constant one of value n/d as the map y ↦ (0·y + n) / d
    sources = [src + (forward or (0, *dst[0]),) for src, dst, forward, _ in f._branches if src[0] != src[1]]
    runs, branches = [], iter(pi._branches)
    for run in pi.pieces:
        out = []
        for piece, (_, (lo, hi, _, _), forward, back) in zip(run, branches):
            if forward is None:
                out.append(Piece._trusted(piece.src_lo, piece.src_hi, piece.slope, f.value(piece.intercept)))
                continue
            p, q, r = forward
            inside, parts = (lo, hi, False, False), []  # a piece of f that only touches it is no meet
            hn, hd = hi
            for i in range(_locate(sources, lo), len(sources)):
                t = sources[i]
                n, d = t[0]
                if n * hd > hn * d:
                    break
                part = _span_intersect(t, inside)
                if part is not None:  # f's (a·y + b) / c after y = (p·x + q) / r
                    (x0, x1, _, _), (a, b, c) = _affine_ratios(part, *back), t[4]
                    parts.append(Piece._trusted(Q(*x0), Q(*x1), Q(a * p, c * r), Q(a * q + b * r, c * r)))
            out += parts if p > 0 else parts[::-1]
        runs.append(tuple(out))
    g = PLFunc._trusted(pi.domain, tuple(runs), tuple([(p, f.value(v)) for p, v in pi.point_images]))
    object.__setattr__(g, "_branches", _table(g.pieces, g.point_values))  # its pieces tile and join by construction
    return g
