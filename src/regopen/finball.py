"""Finite Boolean algebras, their dual spaces, and projective covers.

A finite Boolean algebra is the power set of its atoms; elements are
frozensets of atom indices.  Every two-valued homomorphism of such an
algebra is evaluation at a single atom, so the dual space is carried by
the atom indices themselves.  The cover construction intersects the
closed sets a homomorphism votes for and lands on exactly one point.
"""
from __future__ import annotations

import itertools
import math
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import NotSingleton, UnboundName, _Value

Element = frozenset  # of atom indices


class FiniteBooleanAlgebra(_Value):
    """Power-set algebra over named atoms."""

    atom_labels: tuple[str, ...]

    def __post_init__(self):
        labels = tuple(self.atom_labels)
        object.__setattr__(self, "atom_labels", labels)
        if not labels:
            raise ValueError("algebra needs at least one atom")
        if len(set(labels)) != len(labels):
            raise ValueError("atom labels must be distinct")

    @property
    def n(self) -> int:
        return len(self.atom_labels)

    @property
    def zero(self) -> Element:
        return frozenset()

    @property
    def one(self) -> Element:
        return frozenset(range(self.n))

    def atom(self, index: int) -> Element:
        return frozenset((index,))

    def join(self, a: Element, b: Element) -> Element:
        return a | b

    def meet(self, a: Element, b: Element) -> Element:
        return a & b

    def neg(self, a: Element) -> Element:
        return self.one - a

    def elements(self) -> Iterable[Element]:
        for r in range(self.n + 1):
            for combo in itertools.combinations(range(self.n), r):
                yield frozenset(combo)

    def from_labels(self, labels: Iterable[str]) -> Element:
        idx = {lab: i for i, lab in enumerate(self.atom_labels)}
        try:
            return frozenset(idx[lab] for lab in labels)
        except KeyError as exc:
            raise UnboundName(f"unknown atom label {exc.args[0]!r}") from exc

    def to_labels(self, e: Element) -> list[str]:
        return sorted(self.atom_labels[i] for i in e)


class TwoValuedHom(_Value):
    """A homomorphism onto {0, 1}: evaluation at one atom."""

    atom_index: int

    def __call__(self, e: Element) -> int:
        return 1 if self.atom_index in e else 0


def dual_space(algebra: FiniteBooleanAlgebra) -> tuple[TwoValuedHom, ...]:
    """All two-valued homomorphisms: one evaluation per atom."""
    return tuple([TwoValuedHom(i) for i in range(algebra.n)])


def phi_hat(algebra: FiniteBooleanAlgebra, e: Element) -> frozenset[TwoValuedHom]:
    """The clopen set of homomorphisms sending e to 1."""
    return frozenset(p for p in dual_space(algebra) if p(e))


# --- finite discrete spaces and covers ---


class FiniteDiscreteSpace(_Value):
    point_labels: tuple[str, ...]

    def __post_init__(self):
        labels = tuple(self.point_labels)
        object.__setattr__(self, "point_labels", labels)
        if not labels:
            raise ValueError("space needs at least one point")
        if len(set(labels)) != len(labels):
            raise ValueError("point labels must be distinct")

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

    def apply(self, label: str) -> str:
        return self.codomain.point_labels[self.index[label]]

    def image_of(self, subset: frozenset[int]) -> frozenset[int]:
        """Index-level image of a set of domain point indices."""
        dom = self.domain.point_labels
        return frozenset(self.index[dom[i]] for i in subset)

    def preimage_of(self, subset: frozenset[int]) -> frozenset[int]:
        return frozenset(i for i, x in enumerate(self.index.values()) if x in subset)

    def is_surjective(self) -> bool:
        return len(set(self.index.values())) == self.codomain.n


class GleasonCoverResult(NamedTuple):
    P: FiniteDiscreteSpace
    f: FinCover
    homs: tuple[TwoValuedHom, ...]


def gleason_cover(x: FiniteDiscreteSpace) -> GleasonCoverResult:
    """Build the dual-space cover of a finite discrete space.

    Regular opens of x are all subsets; the k-th point of the cover is
    the evaluation homomorphism at atom k, and it is sent to the unique
    point in the intersection of all closed sets it votes for.
    """
    algebra = FiniteBooleanAlgebra(x.point_labels)
    homs = dual_space(algebra)
    p_space = FiniteDiscreteSpace(tuple([f"p{k}" for k in range(len(homs))]))
    table = []
    universe = frozenset(range(x.n))
    for k, hom in enumerate(homs):
        acc = universe
        for v in algebra.elements():
            if hom(v):
                acc = acc & v  # discrete: cl V = V
        if len(acc) != 1:
            raise NotSingleton(f"hom {k} pins {len(acc)} points")
        (target,) = acc
        table.append((p_space.point_labels[k], x.point_labels[target]))
    return GleasonCoverResult(p_space, FinCover(p_space, x, tuple(table)), homs)


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
    """Exhaustively check the cover properties of f: P -> X.

    Without `homs`, each point p of P is the evaluation at its image f(p).
    All subsets of both spaces are enumerated, so keep |P| and |X| small.
    Each failed property reports the first subset, in bit order, on which
    it fails.
    """
    if f.domain != p or f.codomain != x:
        raise ValueError("cover does not connect the given spaces")
    homs = tuple([TwoValuedHom(i) for i in f.index.values()]) if homs is None else tuple(homs)
    x_all = frozenset(range(x.n))

    def phi(v: frozenset[int]) -> frozenset[int]:
        return frozenset(k for k, hom in enumerate(homs) if hom(v))

    def first_failure(space: FiniteDiscreteSpace, fails) -> Optional[list[str]]:
        for bits in range(2 ** space.n):
            subset = frozenset(i for i in range(space.n) if bits >> i & 1)
            if fails(subset):
                return sorted(space.point_labels[i] for i in subset)
        return None

    # rigid: the only h with f∘h = f is the identity.  Such h send each
    # point into its fibre; the first one tried, each point to the first
    # point of its fibre, is the identity exactly when every fibre is a
    # single point, and otherwise is the witness.
    fibres = _fibres(f)
    moved = {lab: fibres[i][0] for lab, i in f.index.items() if fibres[i][0] != lab}
    # discrete spaces: cl and int are identities, so psi = f(-) and
    # phi = cl f^{-1}(-) = f^{-1}(-); "onto" (f(phi(B)) = B) is also the
    # first half of psi inverting phi
    onto = first_failure(x, lambda b: f.image_of(phi(b)) != b)
    found = {  # in VerificationReport's field order
        "irreducible": first_failure(p, lambda e: len(e) < p.n and f.image_of(e) == x_all),
        "rigid": moved or None,
        "phi_eq_cl_preimage": first_failure(x, lambda v: phi(v) != f.preimage_of(v)),
        "onto_sandwich": onto,
        "psi_inverts_phi": onto if onto is not None
        else first_failure(p, lambda e: phi(f.image_of(e)) != e),
    }
    witnesses = {name: w for name, w in found.items() if w is not None}
    return VerificationReport(f.is_surjective(), *(w is None for w in found.values()), witnesses)


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
    fibres1, fibres2 = _fibres(f1), _fibres(f2)
    if {x: len(ps) for x, ps in fibres1.items()} != {x: len(ps) for x, ps in fibres2.items()}:
        raise ValueError("no homeomorphism over the codomain exists")
    unused = {x: iter(ps) for x, ps in fibres2.items()}
    mapping = {lab: next(unused[x]) for lab, x in f1.index.items()}
    return mapping, math.prod(math.factorial(len(ps)) for ps in fibres1.values())


def _fibres(f: FinCover) -> dict[int, list[str]]:
    """Domain labels over each codomain index, in domain index order."""
    fibres: dict[int, list[str]] = {}
    for lab, i in f.index.items():
        fibres.setdefault(i, []).append(lab)
    return fibres


# --- algebra-level helpers ---


def iso_check(b1: FiniteBooleanAlgebra, b2: FiniteBooleanAlgebra) -> Optional[dict]:
    """Atom-count decision: an atom bijection when sizes agree, else None."""
    if b1.n != b2.n:
        return None
    return {b1.atom_labels[i]: b2.atom_labels[i] for i in range(b1.n)}
