"""Independent pointwise topology oracle on the 1/2048 grid.

A region over a space whose component endpoints are multiples of 1/1024
is determined by membership at the grid points k/2048: even multiples of
the step are potential span endpoints ("vertices"), odd multiples stand
for the open cells between consecutive vertices.  On that picture,
closure and interior are one-step vertex adjustments computed with no
reference to the span calculus, which is exactly what makes this a
cross-check rather than a re-derivation.

Test-only device; the library itself never touches it.
"""
from __future__ import annotations

from regopen.rationals import rat
from regopen.space import Point, Region, Space1D

STEP = rat(1, 2048)


def _grid_index(x) -> int:
    q = x / STEP
    if int(q.denominator) != 1:
        raise ValueError(f"{x} is not on the 1/2048 grid")
    return int(q)


class GridOracle:
    """Membership vectors plus pointwise Boolean/topological operations."""

    def __init__(self, space: Space1D):
        self.space = space
        self.values = []   # grid point values, in order
        self.index = []    # k with value k/2048, per position
        self.comp_id = []  # component index per position
        self.vertex = []   # True at even multiples of the step
        for ci, comp in enumerate(space.components):
            if isinstance(comp, Point):
                k = _grid_index(comp.at)
                if k % 2:
                    raise ValueError("space endpoints must be multiples of 1/1024")
                self.values.append(comp.at)
                self.index.append(k)
                self.comp_id.append(ci)
                self.vertex.append(True)
                continue
            k0, k1 = _grid_index(comp.a), _grid_index(comp.b)
            if k0 % 2 or k1 % 2:
                raise ValueError("space endpoints must be multiples of 1/1024")
            for k in range(k0, k1 + 1):
                self.values.append(k * STEP)
                self.index.append(k)
                self.comp_id.append(ci)
                self.vertex.append(k % 2 == 0)

    def vec(self, r: Region) -> list[bool]:
        if r.space != self.space:
            raise ValueError("region over a different space")
        # membership read off the grid indices each span covers, so that the
        # oracle never calls back into the library's own `contains`
        inside = set()
        for s in r.spans:
            inside.update(range(_grid_index(s.lo) + (not s.lo_incl), _grid_index(s.hi) + s.hi_incl))
        return [k in inside for k in self.index]

    # --- pointwise set operations ---

    def union(self, u, v):
        return [a or b for a, b in zip(u, v)]

    def inter(self, u, v):
        return [a and b for a, b in zip(u, v)]

    def compl(self, u):
        return [not a for a in u]

    # --- one-step topology ---

    def _neighbors(self, i):
        out = []
        if i > 0 and self.comp_id[i - 1] == self.comp_id[i]:
            out.append(i - 1)
        if i + 1 < len(self.values) and self.comp_id[i + 1] == self.comp_id[i]:
            out.append(i + 1)
        return out

    def closure(self, u):
        out = list(u)
        for i in range(len(u)):
            if self.vertex[i] and not u[i]:
                out[i] = any(u[j] for j in self._neighbors(i))
        return out

    def interior(self, u):
        out = list(u)
        for i in range(len(u)):
            if self.vertex[i] and u[i]:
                out[i] = all(u[j] for j in self._neighbors(i))
        return out

    def perp(self, u):
        return self.compl(self.closure(u))

    def regularize(self, u):
        return self.interior(self.closure(u))

    def join(self, u, v):
        return self.regularize(self.union(u, v))
