"""Regular ideals via support regions, with piecewise-linear witnesses."""
from __future__ import annotations

import random

import pytest

from regopen.errors import Discontinuity, NotIrreducible, SpaceMismatch
from regopen.ideals import (
    PLFunc,
    RegIdeal,
    annihilator,
    ideal_from_open,
    ideal_join,
    ideal_meet,
    ideal_neg,
    in_ideal,
    omega,
    pl_supp,
    plfunc_from_breakpoints,
    pullback,
    supp,
    upsilon,
)
from regopen.plmap import Piece, PLMap, identity_map, is_irreducible, plmap_from_breakpoints
from regopen.rationals import rat
from regopen.space import Interval, Region, Space1D, random_regular_open

from conftest import FIXTURE_SPACES, MIXED, UNIT, UNIT_PT, const_func, random_plfunc, region
from space_oracle import holds

ZERO_TWO = Space1D((Interval(0, 2),))


def halving() -> PLMap:
    return PLMap(ZERO_TWO, UNIT, ((Piece(0, 2, rat(1, 2), 0),),))


def hat(space=UNIT) -> PLFunc:
    """Peak 1 at 1/2, zero outside (1/4, 3/4)."""
    return plfunc_from_breakpoints(
        space, [(0, 0), (rat(1, 4), 0), (rat(1, 2), 1), (rat(3, 4), 0), (1, 0)]
    )


def product_is_zero(f: PLFunc, g: PLFunc) -> bool:
    """Sampling oracle: f*g is piecewise quadratic, so three points per cell decide."""
    assert f.space == g.space
    ends = {x for h in (f, g) for run in h.pieces for q in run for x in (q.src_lo, q.src_hi)}
    for comp in f.space.interval_components():
        cuts = sorted(x for x in ends if comp.a <= x <= comp.b)
        for x0, x1 in zip(cuts, cuts[1:]):
            for x in (x0, (x0 + x1) / 2, x1):
                if f.value(x) * g.value(x) != 0:
                    return False
    for p in f.space.point_components():
        if f.value(p.at) * g.value(p.at) != 0:
            return False
    return True


class TestPLFunc:
    def test_discontinuity_rejected(self):
        with pytest.raises(Discontinuity):
            PLFunc(UNIT, ((Piece(0, rat(1, 2), 1, 0), Piece(rat(1, 2), 1, 1, 5)),))

    def test_point_values_required(self):
        with pytest.raises(ValueError):
            PLFunc(UNIT_PT, ((Piece(0, 1, 1, 0),),))

    def test_value_lookup(self):
        f = hat()
        assert f.value(rat(1, 2)) == 1
        assert f.value(rat(3, 8)) == rat(1, 2)
        assert f.value(rat(7, 8)) == 0


class TestSupport:
    def test_zero_function(self):
        for sp in FIXTURE_SPACES:
            assert pl_supp(const_func(sp, 0)).is_empty

    def test_linear_function(self):
        f = plfunc_from_breakpoints(UNIT, [(0, 0), (1, 1)])
        assert pl_supp(f) == region(UNIT, (0, 1, False, True))

    def test_hat_function(self):
        assert pl_supp(hat()) == region(UNIT, ("1/4", "3/4", False, False))

    def test_point_support(self):
        f = plfunc_from_breakpoints(
            UNIT_PT, [(0, 1), (1, 1)], point_values=((2, 0),)
        )
        assert pl_supp(f) == region(UNIT_PT, (0, 1, True, True))

    def test_root_inside_a_piece_splits_it(self):
        f = plfunc_from_breakpoints(UNIT, [(0, -1), (1, 1)])
        assert pl_supp(f) == region(
            UNIT, (0, "1/2", True, False), ("1/2", 1, False, True)
        )

    def test_support_is_open_and_pointwise_correct(self):
        for sp in FIXTURE_SPACES:
            for seed in range(12):
                f = random_plfunc(sp, seed)
                s = pl_supp(f)
                assert s.is_open()
                for k in range(49):
                    x = rat(k, 16)
                    if holds(sp, x):
                        assert s.contains(x) == (f.value(x) != 0)

    def test_product_support_matches_sampling_oracle(self):
        rng = random.Random(60)
        for sp in (UNIT, MIXED):
            for _ in range(25):
                f = random_plfunc(sp, rng.randrange(2**32))
                g = random_plfunc(sp, rng.randrange(2**32))
                disjoint = pl_supp(f).intersect(pl_supp(g)).is_empty
                assert disjoint == product_is_zero(f, g)


class TestRegIdeal:
    def test_support_must_be_regular_open(self):
        with pytest.raises(ValueError):
            RegIdeal(UNIT, region(UNIT, (0, "1/2", True, True)))

    def test_ideal_from_open_regularizes(self):
        g = region(UNIT, (0, "1/2", True, False), ("1/2", 1, False, True))
        assert ideal_from_open(g).support == UNIT.full_region()

    def test_supp_ideal_roundtrip(self):
        for sp in FIXTURE_SPACES:
            for seed in range(10):
                u = random_regular_open(sp, seed)
                assert supp(ideal_from_open(u)) == u

    def test_in_ideal(self):
        full = ideal_from_open(region(UNIT, (0, 1, False, False)))
        assert in_ideal(const_func(UNIT, 0), full)
        assert in_ideal(hat(), full)
        right = ideal_from_open(region(UNIT, ("1/2", 1, False, True)))
        linear = plfunc_from_breakpoints(UNIT, [(0, 0), (1, 1)])
        assert not in_ideal(linear, right)

    def test_in_ideal_space_mismatch(self):
        with pytest.raises(SpaceMismatch):
            in_ideal(const_func(UNIT, 0), ideal_from_open(MIXED.full_region()))

    def test_membership_matches_annihilation(self):
        # f lies in J^perp exactly when f wipes out every witness inside J
        rng = random.Random(61)
        for _ in range(20):
            u = random_regular_open(UNIT, rng.randrange(2**32))
            j = ideal_from_open(u)
            f = random_plfunc(UNIT, rng.randrange(2**32))
            wipes = all(
                product_is_zero(f, bump)
                for bump in _bumps_inside(u)
            )
            assert in_ideal(f, annihilator(j)) == wipes


def _bumps_inside(u: Region) -> list[PLFunc]:
    """One hat witness per span of a regular open subset of [0,1]."""
    out = []
    for s in u.spans:
        if s.lo == s.hi:
            continue
        mid = (s.lo + s.hi) / 2
        pts = [(0, 0), (s.lo, 0), (mid, 1), (s.hi, 0), (1, 0)]
        seen = {}
        for x, v in pts:
            seen[x] = max(seen.get(x, 0), v) if x in seen else v
        out.append(plfunc_from_breakpoints(UNIT, sorted(seen.items())))
    return out


class TestAnnihilator:
    def test_middle_interval(self):
        j = ideal_from_open(region(UNIT, ("1/4", "3/4", False, False)))
        assert annihilator(j).support == region(
            UNIT, (0, "1/4", True, False), ("3/4", 1, False, True)
        )

    def test_full_support(self):
        assert annihilator(ideal_from_open(UNIT.full_region())).support.is_empty

    def test_involution(self):
        for sp in FIXTURE_SPACES:
            for seed in range(10):
                j = ideal_from_open(random_regular_open(sp, seed))
                assert annihilator(annihilator(j)) == j


class TestIdealLattice:
    def test_join_of_split_halves_is_full(self):
        j1 = ideal_from_open(region(UNIT, (0, "1/2", True, False)))
        j2 = ideal_from_open(region(UNIT, ("1/2", 1, False, True)))
        assert ideal_join(j1, j2).support == UNIT.full_region()

    def test_meet_with_neg_is_empty(self):
        for seed in range(8):
            j = ideal_from_open(random_regular_open(MIXED, seed))
            assert ideal_meet(j, ideal_neg(j)).support.is_empty

    def test_meet_idempotent(self):
        j = ideal_from_open(region(UNIT, ("1/8", "5/8", False, False)))
        assert ideal_meet(j, j) == j


class TestTransport:
    def test_identity_cover_fixes_ideals(self):
        for sp in FIXTURE_SPACES:
            m = identity_map(sp)
            for seed in range(6):
                j = ideal_from_open(random_regular_open(sp, seed))
                assert upsilon(m, j) == j
                assert omega(m, j) == j

    def test_halving_example(self):
        j = ideal_from_open(region(UNIT, (0, "1/2", True, False)))
        k = upsilon(halving(), j)
        assert k.support == region(ZERO_TWO, (0, 1, True, False))
        assert omega(halving(), k) == j

    def test_omega_refuses_an_ideal_over_another_space(self):
        with pytest.raises(SpaceMismatch) as exc:
            omega(halving(), ideal_from_open(UNIT_PT.full_region()))
        assert str(exc.value) == "ideal is not over the cover domain"

    def test_roundtrips_random(self):
        m = halving()
        for seed in range(25):
            j = ideal_from_open(random_regular_open(UNIT, seed))
            assert omega(m, upsilon(m, j)) == j
            k = ideal_from_open(random_regular_open(ZERO_TWO, seed))
            assert upsilon(m, omega(m, k)) == k

    def test_lattice_structure_carries_over(self):
        m = halving()
        for seed in range(15):
            j1 = ideal_from_open(random_regular_open(UNIT, seed))
            j2 = ideal_from_open(random_regular_open(UNIT, seed + 500))
            assert upsilon(m, ideal_join(j1, j2)) == ideal_join(
                upsilon(m, j1), upsilon(m, j2)
            )
            assert upsilon(m, ideal_meet(j1, j2)) == ideal_meet(
                upsilon(m, j1), upsilon(m, j2)
            )
            assert upsilon(m, ideal_neg(j1)) == ideal_neg(upsilon(m, j1))

    def test_transport_builds_its_ideal_without_a_regularity_check(self, monkeypatch):
        # phi and psi are int(cl(U)) by construction, so a transport takes no closure;
        # the public constructor still checks a support it is handed
        m = halving()
        j = ideal_from_open(region(UNIT, (0, "1/4", True, False), ("1/3", "1/2", False, False),
                                   ("3/4", 1, False, True)))
        calls = [0]
        closure = Region.closure

        def counted(r):
            calls[0] += 1
            return closure(r)

        monkeypatch.setattr(Region, "closure", counted)
        up = upsilon(m, j)
        down = omega(m, up)
        assert calls[0] == 0
        monkeypatch.undo()
        assert up == RegIdeal(ZERO_TWO, m.phi(j.support)) and down == j
        not_regular = region(UNIT, (0, "1/2", True, False), ("1/2", 1, False, True))  # open, not regular
        assert not_regular.is_open()
        with pytest.raises(ValueError):
            RegIdeal(UNIT, not_regular)

    def test_reducible_cover_refused(self):
        tent = plmap_from_breakpoints(UNIT, UNIT, [(0, 0), (rat(1, 2), 1), (1, 0)])
        j = ideal_from_open(region(UNIT, (0, "1/2", True, False)))
        with pytest.raises(NotIrreducible):
            upsilon(tent, j)
        with pytest.raises(NotIrreducible):
            omega(tent, j)

    def test_wrong_space_refused(self):
        j = ideal_from_open(region(ZERO_TWO, (0, 1, True, False)))
        with pytest.raises(SpaceMismatch):
            upsilon(halving(), j)

    def test_essential_extension_flag(self):
        assert is_irreducible(halving()).irreducible
        tent = plmap_from_breakpoints(UNIT, UNIT, [(0, 0), (rat(1, 2), 1), (1, 0)])
        assert not is_irreducible(tent).irreducible


class TestPullback:
    def test_constant_function(self):
        g = pullback(halving(), const_func(UNIT, 1))
        assert g == const_func(ZERO_TWO, 1)

    def test_affine_composition(self):
        f = plfunc_from_breakpoints(UNIT, [(0, 0), (1, 1)])
        g = pullback(halving(), f)
        assert g.value(1) == rat(1, 2)
        assert g.value(rat(3, 2)) == rat(3, 4)

    def test_breakpoints_are_pulled_back(self):
        g = pullback(halving(), hat())
        assert pl_supp(g) == region(ZERO_TWO, ("1/2", "3/2", False, False))

    def test_support_identity_random(self):
        maps = [halving(), identity_map(MIXED),
                plmap_from_breakpoints(ZERO_TWO, UNIT, [(0, 0), (1, rat(3, 4)), (2, 1)])]
        rng = random.Random(62)
        for m in maps:
            for _ in range(12):
                f = random_plfunc(m.codomain, rng.randrange(2**32))
                assert pl_supp(pullback(m, f)) == m.preimage(pl_supp(f))

    def test_pointwise_agreement(self):
        m = plmap_from_breakpoints(ZERO_TWO, UNIT, [(0, 0), (1, rat(3, 4)), (2, 1)])
        rng = random.Random(63)
        for _ in range(10):
            f = random_plfunc(UNIT, rng.randrange(2**32))
            g = pullback(m, f)
            for k in range(33):
                x = rat(k, 16)
                assert g.value(x) == f.value(m.value(x))

    def test_wrong_space_refused(self):
        with pytest.raises(SpaceMismatch):
            pullback(halving(), const_func(ZERO_TWO, 1))


class TestRandomWitnessGenerator:
    def test_deterministic(self):
        assert random_plfunc(MIXED, 5) == random_plfunc(MIXED, 5)
