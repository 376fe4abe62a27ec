"""Reference finite-cover construction and checks, in their enumerating forms.

The library reads `gleason_cover` and every `verify_projective_cover`
verdict off the fibres of the cover.  These are the forms it replaced:
the cover point of each homomorphism found by intersecting every element
of the power-set algebra the homomorphism holds on, and each property
checked on every subset, in bit order, until the first that fails.
Both are exponential in the number of points, so keep spaces small.
Tests compare the two paths on the same covers.

Test-only device; the library itself never touches it.
"""
from __future__ import annotations

import itertools
from typing import Optional, Sequence

from regopen.finball import (
    FinCover,
    FiniteBooleanAlgebra,
    FiniteDiscreteSpace,
    GleasonCoverResult,
    TwoValuedHom,
    VerificationReport,
    dual_space,
)


def subsets(n: int):
    """Every subset of range(n), by size and then lexicographically."""
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            yield frozenset(combo)


def gleason_cover(x: FiniteDiscreteSpace) -> GleasonCoverResult:
    """The cover point of hom k is the one point of the intersection of all
    closed sets, every subset in a discrete space, that hom k holds on."""
    homs = dual_space(FiniteBooleanAlgebra(x.point_labels))
    p_space = FiniteDiscreteSpace(tuple(f"p{k}" for k in range(len(homs))))
    table = []
    for k, hom in enumerate(homs):
        acc = frozenset(range(x.n))
        for v in subsets(x.n):
            if hom.atom_index in v:
                acc = acc & v
        (target,) = acc
        table.append((p_space.point_labels[k], x.point_labels[target]))
    return GleasonCoverResult(p_space, FinCover(p_space, x, tuple(table)), homs)


def verify_projective_cover(
    p: FiniteDiscreteSpace,
    f: FinCover,
    x: FiniteDiscreteSpace,
    homs: Optional[Sequence[TwoValuedHom]] = None,
) -> VerificationReport:
    """Every property checked on every subset of both spaces, in bit order."""
    if f.domain != p or f.codomain != x:
        raise ValueError("cover does not connect the given spaces")
    images = list(f.index.values())
    homs = tuple(TwoValuedHom(i) for i in images) if homs is None else tuple(homs)
    x_all = frozenset(range(x.n))

    def image_of(e: frozenset) -> frozenset:
        return frozenset(images[i] for i in e)

    def preimage_of(v: frozenset) -> frozenset:
        return frozenset(i for i, b in enumerate(images) if b in v)

    def phi(v: frozenset) -> frozenset:
        return frozenset(k for k, hom in enumerate(homs) if hom.atom_index in v)

    def first_failure(space: FiniteDiscreteSpace, fails) -> Optional[list[str]]:
        for bits in range(2 ** space.n):
            subset = frozenset(i for i in range(space.n) if bits >> i & 1)
            if fails(subset):
                return sorted(space.point_labels[i] for i in subset)
        return None

    # rigid in the closed form the library has always used: each point
    # sent to the first point of its fibre
    first_over: dict = {}
    for i, b in enumerate(images):
        first_over.setdefault(b, i)
    moved = {p.point_labels[i]: p.point_labels[first_over[b]]
             for i, b in enumerate(images) if first_over[b] != i}
    onto = first_failure(x, lambda b: image_of(phi(b)) != b)
    found = {
        "irreducible": first_failure(p, lambda e: len(e) < p.n and image_of(e) == x_all),
        "rigid": moved or None,
        "phi_eq_cl_preimage": first_failure(x, lambda v: phi(v) != preimage_of(v)),
        "onto_sandwich": onto,
        "psi_inverts_phi": onto if onto is not None
        else first_failure(p, lambda e: phi(image_of(e)) != e),
    }
    witnesses = {name: w for name, w in found.items() if w is not None}
    return VerificationReport(len(set(images)) == x.n, *(w is None for w in found.values()), witnesses)
