"""Boolean equivalence of compact metric space descriptors.

Two such spaces have isomorphic regular-open algebras exactly when their
isolated-point counts match (as finite numbers or both countably
infinite) and, for both or for neither, the space minus the closure of its
isolated points is nonempty.  The Cantor set with the midpoints of its
removed intervals has a perfect part, but its isolated points are dense,
so it is equivalent to a convergent sequence.  A descriptor lists
component kinds only; no geometry is needed for the decision.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Union

from .errors import EmptyDescriptor, _Value

if TYPE_CHECKING:
    from .space import Space1D

OMEGA = "omega"

# per component kind: its isolated points, and whether some of its points lie
# outside the closure of those.  Components are clopen, so the closure of the
# isolated points of a space is the union of the closures inside each one.
PARTS = {
    "interval": (0, True),
    "point": (1, False),
    "convseq": (OMEGA, False),  # every point but the limit is isolated
    "cantor": (0, True),
    # the Cantor set plus the midpoints of its removed intervals: the midpoints
    # accumulate at every Cantor point, so nothing lies outside their closure
    "cantor_midpoints": (OMEGA, False),
}


class SpaceDescriptor(_Value):
    """Multiset of component kinds; order is not significant."""

    components: tuple[str, ...]

    def __post_init__(self):
        if not self.components:
            raise EmptyDescriptor("a compact space has at least one component")
        for kind in self.components:
            if kind not in PARTS:
                raise ValueError(f"unknown component kind {kind!r}")
        object.__setattr__(self, "components", tuple(sorted(self.components)))

    def to_json(self) -> dict:
        return {"components": [{"kind": k} for k in self.components]}


def descriptor(*kinds: str) -> SpaceDescriptor:
    return SpaceDescriptor(tuple(kinds))


def descriptor_from_json(data: dict) -> SpaceDescriptor:
    return SpaceDescriptor(tuple(entry["kind"] for entry in data["components"]))


class BoolInvariant(_Value):
    """Complete invariant: the isolated-point count, and `perfect_nonempty`,
    which says that the space minus the closure of its isolated points is
    nonempty.  It reads False for a space with a perfect part in which the
    isolated points are dense."""

    isol_card: Union[int, str]  # a count, or OMEGA
    perfect_nonempty: bool


def invariant(d: SpaceDescriptor) -> BoolInvariant:
    parts = [PARTS[kind] for kind in d.components]
    counts = [isol for isol, _ in parts]
    isol: Union[int, str] = OMEGA if OMEGA in counts else sum(counts)
    return BoolInvariant(isol, any(outside for _, outside in parts))


class EquivalenceVerdict(_Value):
    equivalent: bool
    left: BoolInvariant
    right: BoolInvariant

    def __bool__(self) -> bool:
        return self.equivalent


def equivalent(d1: SpaceDescriptor, d2: SpaceDescriptor) -> EquivalenceVerdict:
    a, b = invariant(d1), invariant(d2)
    return EquivalenceVerdict(a == b, a, b)


def from_space1d(space: Space1D) -> SpaceDescriptor:
    return SpaceDescriptor(tuple([c.kind for c in space.components]))
