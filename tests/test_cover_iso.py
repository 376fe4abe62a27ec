"""Backend-generic essential-cover engine and composed equivalences."""
from __future__ import annotations

import hashlib
import random

import pytest

from regopen.cantor import cylinder, psi_c, random_clopen
from regopen.cover_iso import (
    BooleanSide,
    CantorBackend,
    Cover,
    PLMapBackend,
    _battery,
    check_essential,
    compose_equivalence,
    space_key,
)
from regopen.errors import DomainMismatch, NotIrreducible
from regopen.jsonio import canonical_json
from regopen.plmap import PLMap, Piece, identity_map, plmap_from_breakpoints
from regopen.rationals import rat
from regopen.space import Interval, Region, Space1D, random_regular_open

from conftest import FIXTURE_SPACES, MIXED, UNIT

ZERO_TWO = Space1D((Interval(0, 2),))


def identity_backend(space: Space1D) -> Cover:
    return PLMapBackend(identity_map(space), name="identity")


def identity_cover(side: BooleanSide, name: str) -> Cover:
    """The identity on one Boolean side, with no map behind it."""
    return Cover(name, side, side, lambda u: u, lambda v: v, lambda: (True, True, None, "identity"))


def tent_backend() -> Cover:
    m = plmap_from_breakpoints(UNIT, UNIT, [(0, 0), (rat(1, 2), 1), (1, 0)])
    return PLMapBackend(m, name="tent")


def halving_backend() -> Cover:
    return PLMapBackend(PLMap(ZERO_TWO, UNIT, ((Piece(0, 2, rat(1, 2), 0),),)), "halving")


def shrink_backend() -> Cover:
    return PLMapBackend(PLMap(UNIT, UNIT, ((Piece(0, 1, rat(1, 2), 0),),)), "shrink")


def kinked_backend() -> Cover:
    m = plmap_from_breakpoints(ZERO_TWO, UNIT, [(0, 0), (1, rat(3, 4)), (2, 1)])
    return PLMapBackend(m, name="kinked")


class TestSpaceKey:
    def test_distinct_fixtures_get_distinct_keys(self):
        keys = {space_key(sp) for sp in FIXTURE_SPACES}
        assert len(keys) == len(FIXTURE_SPACES)

    def test_key_is_stable(self):
        assert space_key(MIXED) == space_key(MIXED)


class TestCheckEssential:
    def test_identity_backends_pass(self):
        for sp in FIXTURE_SPACES:
            rep = check_essential(identity_backend(sp), samples=15, seed=4)
            assert rep.all_ok
            assert rep.law_failures == () and rep.inverse_failures == ()
            assert set(rep.law_passes.values()) == {15}

    def test_tent_reported_reducible(self):
        rep = check_essential(tent_backend(), samples=10, seed=5)
        assert rep.surjective
        assert not rep.irreducible
        assert isinstance(rep.witness, Region) and rep.witness.space == UNIT and not rep.witness.is_empty
        assert not rep.all_ok

    def test_not_surjective_short_circuits(self):
        rep = check_essential(shrink_backend(), samples=5, seed=6)
        assert not rep.surjective and not rep.irreducible
        assert rep.reason == "not surjective"

    def test_cantor_backend_passes(self):
        rep = check_essential(CantorBackend(depth=6), samples=60, seed=7)
        assert rep.all_ok

    def test_deterministic_reports(self):
        a = check_essential(halving_backend(), samples=25, seed=9)
        b = check_essential(halving_backend(), samples=25, seed=9)
        assert a == b and a.to_json() == b.to_json()

    def test_json_fields(self):
        js = check_essential(halving_backend(), samples=5, seed=1).to_json()
        for key in (
            "surjective", "irreducible", "witness", "law_passes",
            "law_failures", "inverse_passes", "inverse_failures", "samples", "seed",
        ):
            assert key in js


def counting(cover: Cover, calls: dict) -> Cover:
    """The same cover, counting its psi and phi calls."""

    def count(name, f):
        def counted(x):
            calls[name] += 1
            return f(x)
        return counted

    return Cover(cover.name, cover.dom, cover.cod, count("psi", cover.psi), count("phi", cover.phi),
                 cover.decide)


class TestBattery:
    def test_six_psi_and_six_phi_transports_per_trial(self):
        # the inverse laws reuse psi(u1) and phi(v1) from the law checks
        for cover in (halving_backend(), tent_backend(), CantorBackend(depth=4)):
            for n in (0, 1, 9):
                calls = {"psi": 0, "phi": 0}
                want = _battery(cover, n, 3)
                assert _battery(counting(cover, calls), n, 3) == want
                assert calls == {"psi": 6 * n, "phi": 6 * n}

    def test_reports_keep_their_bytes(self):
        # sha256 of the canonical JSON of 80 reports, captured before the
        # inverse laws reused the law checks' transports: the draws and the
        # failing trials (tent and shrink fail) must not move
        backends = (identity_backend(MIXED), tent_backend(), shrink_backend(), halving_backend())
        reports = [check_essential(b, samples=12, seed=seed).to_json() for b in backends for seed in range(20)]
        assert sum(len(r["law_failures"]) + len(r["inverse_failures"]) for r in reports) == 799
        digest = hashlib.sha256(canonical_json(reports).encode()).hexdigest()
        assert digest == "c5853491e312d84afe1c78b0bb2635ffb3eccaaf51e6dbfd738905ad641c1828"


class TestCompose:
    def test_identity_pair_is_identity(self):
        ce = compose_equivalence(identity_backend(UNIT), identity_backend(UNIT))
        for seed in range(8):
            v = random_regular_open(UNIT, seed)
            assert ce.forward(v) == v
            assert ce.backward(v) == v

    def test_cantor_with_identity_unfolds_to_psi(self):
        cantor = CantorBackend(depth=5)
        ce = compose_equivalence(cantor, identity_cover(cantor.dom, "cantor-identity"))
        rng = random.Random(12)
        for _ in range(25):
            k = random_clopen(rng, 5)
            assert ce.forward(k) == psi_c(k)
        assert ce.forward(cylinder("0")) == psi_c(cylinder("0"))

    def test_two_homeomorphisms_compose_to_isomorphism(self):
        ce = compose_equivalence(halving_backend(), kinked_backend())
        from regopen.space import ropen_join, ropen_meet, ropen_neg

        for seed in range(30):
            v = random_regular_open(UNIT, seed)
            w = random_regular_open(UNIT, seed + 1000)
            fv, fw = ce.forward(v), ce.forward(w)
            assert ce.backward(fv) == v
            assert ce.forward(ropen_join(v, w)) == ropen_join(fv, fw)
            assert ce.forward(ropen_meet(v, w)) == ropen_meet(fv, fw)
            assert ce.forward(ropen_neg(v)) == ropen_neg(fv)

    def test_swapped_composition_inverts(self):
        f, g = halving_backend(), kinked_backend()
        ce = compose_equivalence(f, g)
        op = compose_equivalence(g, f)
        for seed in range(10):
            v = random_regular_open(UNIT, seed)
            assert op.forward(ce.forward(v)) == v

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            compose_equivalence(identity_backend(UNIT), halving_backend())

    def test_reducible_cover_refused(self):
        with pytest.raises(NotIrreducible):
            compose_equivalence(tent_backend(), identity_backend(UNIT))

    def test_non_surjective_cover_refused(self):
        with pytest.raises(NotIrreducible):
            compose_equivalence(shrink_backend(), identity_backend(UNIT))
