"""Finite Boolean algebras, their dual spaces, and projective covers.

A finite Boolean algebra is the power set of its atoms; elements are
frozensets of atom indices.  Every two-valued homomorphism of such an
algebra is evaluation at a single atom, so the dual space is carried by
the atom indices themselves.  A finite discrete space is extremally
disconnected, hence its own projective cover, and every cover check is
read in closed form over the fibres.
"""
from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import _Value


def _set_labels(obj, field: str, owner: str, unit: str) -> None:
    """Freeze the labels in `field` as a tuple: at least one, all distinct."""
    labels = tuple(getattr(obj, field))
    object.__setattr__(obj, field, labels)
    if not labels:
        raise ValueError(f"{owner} needs at least one {unit}")
    if len(set(labels)) != len(labels):
        raise ValueError(f"{unit} labels must be distinct")


class FiniteBooleanAlgebra(_Value):
    """Power-set algebra over named atoms."""

    atom_labels: tuple[str, ...]

    def __post_init__(self):
        _set_labels(self, "atom_labels", "algebra", "atom")

    @property
    def n(self) -> int:
        return len(self.atom_labels)


class TwoValuedHom(_Value):
    """A homomorphism onto {0, 1}: evaluation at one atom, which holds on
    exactly the elements that contain it."""

    atom_index: int


def dual_space(algebra: FiniteBooleanAlgebra) -> tuple[TwoValuedHom, ...]:
    """All two-valued homomorphisms: one evaluation per atom."""
    return tuple([TwoValuedHom(i) for i in range(algebra.n)])


# --- finite discrete spaces and covers ---


class FiniteDiscreteSpace(_Value):
    point_labels: tuple[str, ...]

    def __post_init__(self):
        _set_labels(self, "point_labels", "space", "point")

    @property
    def n(self) -> int:
        return len(self.point_labels)


class FinCover(_Value):
    """A map between finite discrete spaces, stored as a label table."""

    domain: FiniteDiscreteSpace
    codomain: FiniteDiscreteSpace
    table: tuple[tuple[str, str], ...]

    def __post_init__(self):
        table = tuple([tuple(pair) for pair in self.table])
        object.__setattr__(self, "table", table)
        mapping = dict(table)
        if set(mapping) != set(self.domain.point_labels):
            raise ValueError("table must cover the domain exactly once each")
        if len(mapping) != len(table):
            raise ValueError("duplicate domain labels in table")
        cod_index = {lab: i for i, lab in enumerate(self.codomain.point_labels)}
        for v in mapping.values():
            if v not in cod_index:
                raise ValueError(f"table value {v!r} not in codomain")
        # not a field: the codomain index of each domain label, in domain order
        index = {lab: cod_index[mapping[lab]] for lab in self.domain.point_labels}
        object.__setattr__(self, "index", index)


class GleasonCoverResult(NamedTuple):
    P: FiniteDiscreteSpace
    f: FinCover
    homs: tuple[TwoValuedHom, ...]


def gleason_cover(x: FiniteDiscreteSpace) -> GleasonCoverResult:
    """Build the dual-space cover of a finite discrete space.

    Regular opens of x are all subsets; the k-th point of the cover is
    the evaluation homomorphism at atom k.  The closed sets it votes for
    are the subsets holding atom k (cl V = V in a discrete space), whose
    intersection is exactly {k}: the cover is the identity p_k -> x_k.
    """
    homs = dual_space(FiniteBooleanAlgebra(x.point_labels))
    p_space = FiniteDiscreteSpace(tuple([f"p{k}" for k in range(x.n)]))
    table = tuple(zip(p_space.point_labels, x.point_labels))
    return GleasonCoverResult(p_space, FinCover(p_space, x, table), homs)


class VerificationReport(_Value):
    """Outcome of the projective-cover checks, with witnesses on failure."""

    surjective: bool
    irreducible: bool
    rigid: bool
    phi_eq_cl_preimage: bool
    onto_sandwich: bool
    psi_inverts_phi: bool
    witnesses: dict

    @property
    def all_ok(self) -> bool:
        return (
            self.surjective
            and self.irreducible
            and self.rigid
            and self.phi_eq_cl_preimage
            and self.onto_sandwich
            and self.psi_inverts_phi
        )

    def to_json(self) -> dict:
        """The fields and `all_ok`; `witnesses` only when some check failed."""
        out = super().to_json()
        if not self.witnesses:
            del out["witnesses"]
        return out


def verify_projective_cover(
    p: FiniteDiscreteSpace,
    f: FinCover,
    x: FiniteDiscreteSpace,
    homs: Optional[Sequence[TwoValuedHom]] = None,
) -> VerificationReport:
    """Check the cover properties of f: P -> X, in closed form over the fibres.

    Without `homs`, each point p of P is the evaluation at its image f(p);
    hom k stands for point k of P, so `homs` has one hom per point.  Each
    failed property reports the first subset, in bit order, on which it
    fails, read off the fibres in O(|P| + |X|) without enumerating subsets:
    - φ(V) = {k : hom k holds on V}, f⁻¹, f∘φ and φ∘f all preserve unions,
      so a subset fails only if one of its points does, and the first
      failure is the singleton of the lowest failing point;
    - a proper subset of P maps onto X iff it meets every fibre, which
      needs f surjective with some fibre of two points; the fibre minima
      are then the least such subset in bit order, since any other
      differs from them first, at its highest differing bit, by a larger
      element.
    """
    if f.domain != p or f.codomain != x:
        raise ValueError("cover does not connect the given spaces")
    if homs is not None and len(homs) != p.n:
        raise ValueError(f"need one hom per point of P: {len(homs)} homs for {p.n} points")
    images = list(f.index.values())
    fibres = _fibres(images)
    # phi({a}): the homs that hold on atom a, in increasing order
    votes = _fibres(images if homs is None else [hom.atom_index for hom in homs])

    def first(space: FiniteDiscreteSpace, fails) -> Optional[list[str]]:
        return next(([lab] for i, lab in enumerate(space.point_labels) if fails(i)), None)

    surjective = len(fibres) == x.n
    shared = surjective and len(fibres) < p.n  # some fibre has two points
    # discrete spaces: cl and int are identities, so psi = f(-) and
    # phi = cl f^{-1}(-) = f^{-1}(-); "onto" (f(phi(B)) = B) is also the
    # first half of psi inverting phi
    onto = first(x, lambda b: not votes.get(b) or any(images[k] != b for k in votes[b]))
    found = {  # in VerificationReport's field order
        "irreducible": sorted(p.point_labels[ps[0]] for ps in fibres.values()) if shared else None,
        # rigid: the only h with f∘h = f is the identity.  Such h send each
        # point into its fibre; the first one tried, each point to the first
        # point of its fibre, is the identity exactly when every fibre is a
        # single point, and otherwise is the witness.
        "rigid": {p.point_labels[i]: p.point_labels[fibres[b][0]]
                  for i, b in enumerate(images) if fibres[b][0] != i} or None,
        "phi_eq_cl_preimage": first(x, lambda v: votes.get(v, []) != fibres.get(v, [])),
        "onto_sandwich": onto,
        "psi_inverts_phi": onto if onto is not None
        else first(p, lambda i: votes.get(images[i]) != [i]),
    }
    witnesses = {name: w for name, w in found.items() if w is not None}
    return VerificationReport(surjective, *(w is None for w in found.values()), witnesses)


def unique_cover_homeomorphism(f1: FinCover, f2: FinCover) -> tuple[dict, int]:
    """A bijection φ: P1 -> P2 with f2∘φ = f1, and how many there are.

    Such a φ maps each fibre of f1 onto the fibre of f2 over the same
    point, so one exists iff the fibre sizes agree, and there are
    ∏ₓ |fibre(x)|! of them.  The one returned pairs each fibre's members
    in index order.  Raises ValueError if none exists.
    """
    if f1.codomain != f2.codomain:
        raise ValueError("covers must share the codomain")
    if f1.domain.n != f2.domain.n:
        raise ValueError("cover domains differ in size")
    fibres1, fibres2 = _fibres(f1.index.values()), _fibres(f2.index.values())
    if {x: len(ps) for x, ps in fibres1.items()} != {x: len(ps) for x, ps in fibres2.items()}:
        raise ValueError("no homeomorphism over the codomain exists")
    unused = {x: iter(ps) for x, ps in fibres2.items()}
    mapping = {lab: f2.domain.point_labels[next(unused[x])] for lab, x in f1.index.items()}
    return mapping, math.prod(math.factorial(len(ps)) for ps in fibres1.values())


def _fibres(images: Iterable[int]) -> dict[int, list[int]]:
    """The indices i over each value of images[i], in increasing order."""
    fibres: dict[int, list[int]] = {}
    for i, b in enumerate(images):
        fibres.setdefault(b, []).append(i)
    return fibres


# --- algebra-level helpers ---


def iso_check(b1: FiniteBooleanAlgebra, b2: FiniteBooleanAlgebra) -> Optional[dict]:
    """Atom-count decision: an atom bijection when sizes agree, else None."""
    if b1.n != b2.n:
        return None
    return {b1.atom_labels[i]: b2.atom_labels[i] for i in range(b1.n)}
