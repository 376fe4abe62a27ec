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
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import NotSingleton, UnboundName

Element = frozenset  # of atom indices


@dataclass(frozen=True)
class FiniteBooleanAlgebra:
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


@dataclass(frozen=True)
class TwoValuedHom:
    """A homomorphism onto {0, 1}: evaluation at one atom."""

    atom_index: int

    def __call__(self, e: Element) -> int:
        return 1 if self.atom_index in e else 0


def dual_space(algebra: FiniteBooleanAlgebra) -> tuple[TwoValuedHom, ...]:
    """All two-valued homomorphisms: one evaluation per atom."""
    return tuple(TwoValuedHom(i) for i in range(algebra.n))


def phi_hat(algebra: FiniteBooleanAlgebra, e: Element) -> frozenset[TwoValuedHom]:
    """The clopen set of homomorphisms sending e to 1."""
    return frozenset(p for p in dual_space(algebra) if p(e))


# --- finite discrete spaces and covers ---


@dataclass(frozen=True)
class FiniteDiscreteSpace:
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


@dataclass(frozen=True)
class FinCover:
    """A map between finite discrete spaces, stored as a label table."""

    domain: FiniteDiscreteSpace
    codomain: FiniteDiscreteSpace
    table: tuple[tuple[str, str], ...]

    def __post_init__(self):
        table = tuple(tuple(pair) for pair in self.table)
        object.__setattr__(self, "table", table)
        mapping = dict(table)
        if set(mapping) != set(self.domain.point_labels):
            raise ValueError("table must cover the domain exactly once each")
        if len(mapping) != len(table):
            raise ValueError("duplicate domain labels in table")
        for v in mapping.values():
            if v not in self.codomain.point_labels:
                raise ValueError(f"table value {v!r} not in codomain")

    def apply(self, label: str) -> str:
        for k, v in self.table:
            if k == label:
                return v
        raise KeyError(label)

    def image_of(self, subset: frozenset[int]) -> frozenset[int]:
        """Index-level image of a set of domain point indices."""
        cod_index = {lab: i for i, lab in enumerate(self.codomain.point_labels)}
        dom = self.domain.point_labels
        return frozenset(cod_index[self.apply(dom[i])] for i in subset)

    def preimage_of(self, subset: frozenset[int]) -> frozenset[int]:
        cod = self.codomain.point_labels
        targets = {cod[i] for i in subset}
        return frozenset(i for i, lab in enumerate(self.domain.point_labels) if self.apply(lab) in targets)

    def is_surjective(self) -> bool:
        return self.image_of(frozenset(range(self.domain.n))) == frozenset(range(self.codomain.n))


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
    p_space = FiniteDiscreteSpace(tuple(f"p{k}" for k in range(len(homs))))
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


@dataclass
class VerificationReport:
    """Outcome of the projective-cover checks, with witnesses on failure."""

    surjective: bool
    irreducible: bool
    rigid: bool
    phi_eq_cl_preimage: bool
    onto_sandwich: bool
    psi_inverts_phi: bool
    witnesses: dict = field(default_factory=dict)

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
        out = {
            "surjective": self.surjective,
            "irreducible": self.irreducible,
            "rigid": self.rigid,
            "phi_eq_cl_preimage": self.phi_eq_cl_preimage,
            "onto_sandwich": self.onto_sandwich,
            "psi_inverts_phi": self.psi_inverts_phi,
            "all_ok": self.all_ok,
        }
        if self.witnesses:
            out["witnesses"] = self.witnesses
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
    """
    if f.domain != p or f.codomain != x:
        raise ValueError("cover does not connect the given spaces")
    if homs is None:
        cod_index = {lab: i for i, lab in enumerate(x.point_labels)}
        homs = tuple(TwoValuedHom(cod_index[f.apply(lab)]) for lab in p.point_labels)
    homs = tuple(homs)
    witnesses: dict = {}

    p_all = frozenset(range(p.n))
    x_all = frozenset(range(x.n))

    surjective = f.image_of(p_all) == x_all

    irreducible = True
    for bits in range(2 ** p.n - 1):  # every proper subset of P
        subset = frozenset(i for i in range(p.n) if bits >> i & 1)
        if f.image_of(subset) == x_all:
            irreducible = False
            witnesses["irreducible"] = sorted(p.point_labels[i] for i in subset)
            break

    # rigid: the only h with f∘h = f is the identity; candidates factor
    # through the fibers of f
    fibers = {}
    for i, lab in enumerate(p.point_labels):
        fibers.setdefault(f.apply(lab), []).append(i)
    rigid = True
    choice_lists = [fibers[f.apply(lab)] for lab in p.point_labels]
    for combo in itertools.product(*choice_lists):
        if any(c != i for i, c in enumerate(combo)):
            rigid = False
            witnesses["rigid"] = {
                p.point_labels[i]: p.point_labels[c] for i, c in enumerate(combo) if i != c
            }
            break

    def phi(v: frozenset[int]) -> frozenset[int]:
        return frozenset(k for k, hom in enumerate(homs) if hom(v))

    def psi(e: frozenset[int]) -> frozenset[int]:
        return f.image_of(e)  # discrete: int(f(E)) = f(E)

    phi_eq = True
    for v in _subsets(x.n):
        if phi(v) != f.preimage_of(v):  # discrete: cl f^{-1}(V) = f^{-1}(V)
            phi_eq = False
            witnesses["phi_eq_cl_preimage"] = sorted(x.point_labels[i] for i in v)
            break

    sandwich = True
    for b in _subsets(x.n):
        mid = f.image_of(phi(b))
        if not (b <= mid and mid <= b):  # discrete: cl B = B
            sandwich = False
            witnesses["onto_sandwich"] = sorted(x.point_labels[i] for i in b)
            break

    inverts = True
    for v in _subsets(x.n):
        if psi(phi(v)) != v:
            inverts = False
            witnesses["psi_inverts_phi"] = sorted(x.point_labels[i] for i in v)
            break
    if inverts:
        for e in _subsets(p.n):
            if phi(psi(e)) != e:
                inverts = False
                witnesses["psi_inverts_phi"] = sorted(p.point_labels[i] for i in e)
                break

    return VerificationReport(surjective, irreducible, rigid, phi_eq, sandwich, inverts, witnesses)


def _subsets(n: int):
    for bits in range(2 ** n):
        yield frozenset(i for i in range(n) if bits >> i & 1)


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
    image1 = dict(f1.table)
    unused = {x: iter(ps) for x, ps in fibres2.items()}
    mapping = {lab: next(unused[image1[lab]]) for lab in f1.domain.point_labels}
    return mapping, math.prod(math.factorial(len(ps)) for ps in fibres1.values())


def _fibres(f: FinCover) -> dict[str, list[str]]:
    """Domain labels over each codomain label, in domain index order."""
    image = dict(f.table)
    fibres: dict[str, list[str]] = {}
    for lab in f.domain.point_labels:
        fibres.setdefault(image[lab], []).append(lab)
    return fibres


# --- algebra-level helpers ---


def iso_check(b1: FiniteBooleanAlgebra, b2: FiniteBooleanAlgebra) -> Optional[dict]:
    """Atom-count decision: an atom bijection when sizes agree, else None."""
    if b1.n != b2.n:
        return None
    return {b1.atom_labels[i]: b2.atom_labels[i] for i in range(b1.n)}
