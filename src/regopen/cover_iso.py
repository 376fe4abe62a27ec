"""Covers as two Boolean sides and the induced psi/phi pair.

A cover (a piecewise-linear map, or the binary map out of Cantor space)
is a pair of Boolean sides -- the regular-open or clopen algebra of its
domain and of its codomain -- plus psi: dom -> cod, phi: cod -> dom and
one surjectivity/irreducibility decision.  The engine runs the same
law / inverse battery against any cover, and composes two covers over a
common domain into an equivalence of their codomain algebras.
"""
from __future__ import annotations

import random
from typing import Any, Callable, Optional

from .errors import DomainMismatch, NotIrreducible, NotSurjective, _Value
from .plmap import PLMap, is_irreducible
from .space import Point, Space1D, random_regular_open, ropen_join, ropen_meet, ropen_neg


def space_key(space: Space1D) -> str:
    parts = []
    for c in space.components:
        if isinstance(c, Point):
            parts.append(f"P({c.at})")
        else:
            parts.append(f"I({c.a},{c.b})")
    return "|".join(parts)


class BooleanSide(_Value):
    """One Boolean algebra of a cover: its operations and a seeded generator."""

    key: str
    join: Callable[[Any, Any], Any]
    meet: Callable[[Any, Any], Any]
    neg: Callable[[Any], Any]
    random: Callable[[random.Random], Any]


# (surjective, irreducible, witness in the domain or None, reason)
Decision = tuple[bool, bool, Optional[Any], str]


class Cover(_Value):
    """A cover dom -> cod seen through its Boolean sides."""

    name: str
    dom: BooleanSide
    cod: BooleanSide
    psi: Callable[[Any], Any]
    phi: Callable[[Any], Any]
    decide: Callable[[], Decision]


def region_side(space: Space1D, draw: Callable[[random.Random], Any]) -> BooleanSide:
    """The regular-open algebra of a space, with `draw` as its generator."""
    return BooleanSide(space_key(space), ropen_join, ropen_meet, ropen_neg, draw)


def PLMapBackend(m: PLMap, name: str = "plmap") -> Cover:
    """The cover a piecewise-linear map gives; samples draw random regular opens."""

    def side(space: Space1D) -> BooleanSide:
        return region_side(space, lambda rng: random_regular_open(space, rng.randrange(2**62)))

    def decide() -> Decision:
        try:
            v = is_irreducible(m)
        except NotSurjective:
            return False, False, None, "not surjective"
        return True, v.irreducible, v.witness, v.reason

    return Cover(name, side(m.domain), side(m.codomain), m.psi, m.phi, decide)


def CantorBackend(depth: int = 6) -> Cover:
    """The binary-expansion cover of [0,1] on its dyadic subalgebra.

    Each sample draws its own depth from 1 to `depth`, so every depth is exercised.
    """
    from . import cantor as _cantor
    words = BooleanSide(
        "cantor", _cantor.clopen_union, _cantor.clopen_inter, _cantor.clopen_compl,
        lambda rng: _cantor.random_clopen(rng, rng.randint(1, depth)),
    )
    unit = region_side(
        _cantor.UNIT_INTERVAL,
        lambda rng: _cantor.random_dyadic_regular_open(rng, rng.randint(1, depth)),
    )

    def decide() -> Decision:
        full = _cantor.UNIT_INTERVAL.full_region()
        if _cantor.closed_value_region(_cantor.FULL) != full:
            return False, False, None, "not surjective"
        rep = _cantor.check_irreducible_cantor(8)  # 510 cylinders, 0.05 s on a 2-vCPU VM
        return True, rep.ok, None, rep.note

    return Cover("cantor", words, unit, _cantor.psi_c, _cantor.phi_c, decide)


LAW_NAMES = ("psi_join", "psi_meet", "psi_neg", "phi_join", "phi_meet", "phi_neg")
INVERSE_NAMES = ("psi_phi_id", "phi_psi_id")


class CoverReport(_Value):
    backend: str
    surjective: bool
    irreducible: bool
    witness: Optional[Any]
    reason: str
    samples: int
    seed: int
    law_passes: dict
    law_failures: tuple
    inverse_passes: dict
    inverse_failures: tuple

    @property
    def all_ok(self) -> bool:
        return (
            self.surjective
            and self.irreducible
            and not self.law_failures
            and not self.inverse_failures
        )


def _battery(cover: Cover, samples: int, seed: int) -> tuple[dict, list, dict, list]:
    """The three psi laws, the three phi laws and both inverse laws on seeded samples.

    Each trial makes six psi and six phi transports: the inverse laws reuse
    psi(u1) and phi(v1) from the law checks, as both maps are pure.

    Returns the law passes and failures, then the inverse passes and
    failures; at most ten failures of each kind are kept.
    """
    if samples < 0:
        raise ValueError("samples must be non-negative")
    rng = random.Random(seed)
    law_passes = {name: 0 for name in LAW_NAMES}
    inverse_passes = {name: 0 for name in INVERSE_NAMES}
    law_failures: list = []
    inverse_failures: list = []

    def score(table, failures, name, ok, trial):
        if ok:
            table[name] += 1
        elif len(failures) < 10:
            failures.append({"law": name, "trial": trial, "seed": seed})

    for trial in range(samples):
        u1, u2 = cover.dom.random(rng), cover.dom.random(rng)
        v1, v2 = cover.cod.random(rng), cover.cod.random(rng)
        firsts = []
        for name, f, src, dst, a, b in (
            ("psi", cover.psi, cover.dom, cover.cod, u1, u2),
            ("phi", cover.phi, cover.cod, cover.dom, v1, v2),
        ):
            fa, fb = f(a), f(b)
            firsts.append(fa)
            for law, ok in (
                ("join", f(src.join(a, b)) == dst.join(fa, fb)),
                ("meet", f(src.meet(a, b)) == dst.meet(fa, fb)),
                ("neg", f(src.neg(a)) == dst.neg(fa)),
            ):
                score(law_passes, law_failures, f"{name}_{law}", ok, trial)
        psi_u1, phi_v1 = firsts
        score(inverse_passes, inverse_failures, "psi_phi_id", cover.psi(phi_v1) == v1, trial)
        score(inverse_passes, inverse_failures, "phi_psi_id", cover.phi(psi_u1) == u1, trial)
    return law_passes, law_failures, inverse_passes, inverse_failures


def check_essential(cover: Cover, samples: int = 100, seed: int = 0) -> CoverReport:
    """Run the full battery against one cover; deterministic per seed."""
    law_passes, law_failures, inverse_passes, inverse_failures = _battery(cover, samples, seed)
    surjective, irreducible, witness, reason = cover.decide()
    return CoverReport(
        backend=cover.name,
        surjective=surjective,
        irreducible=irreducible,
        witness=witness,
        reason=reason,
        samples=samples,
        seed=seed,
        law_passes=law_passes,
        law_failures=tuple(law_failures),
        inverse_passes=inverse_passes,
        inverse_failures=tuple(inverse_failures),
    )


class BridgeReport(_Value):
    depth: int
    samples: int
    seed: int
    checks: int = 0
    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_bridge(depth: int = 6, samples: int = 200, seed: int = 0) -> BridgeReport:
    """The law battery on the psi_c/phi_c pair, without the cylinder decision."""
    _, law_failures, _, inverse_failures = _battery(CantorBackend(depth), samples, seed)
    failures = tuple(f"{f['law']} trial {f['trial']}" for f in law_failures + inverse_failures)
    return BridgeReport(depth, samples, seed, 8 * samples, failures)


class ComposedEquivalence(_Value):
    """Two irreducible covers out of one domain compose to an isomorphism."""

    f: Cover  # Z -> X
    g: Cover  # Z -> Y

    def forward(self, v):
        """Ropen(Y) -> Ropen(X): first pull back along g, then push along f."""
        return self.f.psi(self.g.phi(v))

    def backward(self, u):
        return self.g.psi(self.f.phi(u))


def compose_equivalence(f: Cover, g: Cover) -> ComposedEquivalence:
    if f.dom.key != g.dom.key:
        raise DomainMismatch(f"{f.dom.key} vs {g.dom.key}")
    for cover in (f, g):
        if not cover.decide()[1]:
            raise NotIrreducible(f"backend {cover.name} is not an essential cover")
    return ComposedEquivalence(f, g)
