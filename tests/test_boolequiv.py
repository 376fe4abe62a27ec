"""Boolean-equivalence decision on space descriptors."""
from __future__ import annotations

import itertools

import pytest

from regopen.boolequiv import (
    OMEGA,
    BoolInvariant,
    descriptor,
    descriptor_from_json,
    equivalent,
    from_space1d,
    invariant,
)
from regopen.errors import EmptyDescriptor
from regopen.finball import FiniteBooleanAlgebra, iso_check
from regopen.space import decompose_space

from conftest import FIXTURE_SPACES


class TestDescriptor:
    def test_empty_rejected(self):
        with pytest.raises(EmptyDescriptor):
            descriptor()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            descriptor("torus")

    def test_order_insensitive(self):
        assert descriptor("point", "interval") == descriptor("interval", "point")

    def test_json_roundtrip(self):
        d = descriptor("interval", "convseq", "point")
        assert descriptor_from_json(d.to_json()) == d


class TestInvariant:
    def test_single_interval(self):
        assert invariant(descriptor("interval")) == BoolInvariant(0, True)

    def test_convergent_sequence(self):
        assert invariant(descriptor("convseq")) == BoolInvariant(OMEGA, False)

    def test_interval_with_two_points(self):
        assert invariant(descriptor("interval", "point", "point")) == BoolInvariant(
            2, True
        )

    def test_cantor_counts_as_perfect(self):
        assert invariant(descriptor("cantor")) == BoolInvariant(0, True)

    def test_dense_isolated_points_leave_nothing_outside_their_closure(self):
        # the Cantor set is perfect, but the added midpoints accumulate at each of its points
        assert invariant(descriptor("cantor_midpoints")) == BoolInvariant(OMEGA, False)
        assert invariant(descriptor("cantor_midpoints", "cantor")) == BoolInvariant(OMEGA, True)

    def test_convseq_swallows_finite_points(self):
        # countably many isolated points plus finitely many more is still countable
        assert invariant(descriptor("convseq", "point")) == BoolInvariant(OMEGA, False)


class TestEquivalent:
    def test_interval_matches_cantor_set(self):
        assert equivalent(descriptor("interval"), descriptor("cantor"))

    def test_one_and_two_convergent_sequences(self):
        assert equivalent(descriptor("convseq"), descriptor("convseq", "convseq"))

    def test_cantor_midpoints_match_a_convergent_sequence(self):
        # both algebras are P(omega); a perfect-part invariant would tell them apart
        assert equivalent(descriptor("cantor_midpoints"), descriptor("convseq"))
        assert not equivalent(descriptor("cantor_midpoints"), descriptor("cantor"))

    def test_extra_isolated_point_breaks_it(self):
        v = equivalent(descriptor("interval", "point"), descriptor("interval"))
        assert not v
        assert v.left == BoolInvariant(1, True)
        assert v.right == BoolInvariant(0, True)

    def test_verdict_record(self):
        js = equivalent(descriptor("interval"), descriptor("cantor")).to_json()
        assert js["equivalent"] is True
        assert js["left"] == {"isol_card": 0, "perfect_nonempty": True}

    def test_equivalence_relation_laws(self):
        pool = [
            descriptor("interval"),
            descriptor("cantor"),
            descriptor("convseq"),
            descriptor("interval", "point"),
            descriptor("point", "point"),
            descriptor("convseq", "interval"),
            descriptor("cantor_midpoints"),
            descriptor("cantor_midpoints", "interval"),
        ]
        for a in pool:
            assert equivalent(a, a)
        for a, b in itertools.product(pool, repeat=2):
            assert bool(equivalent(a, b)) == bool(equivalent(b, a))
        for a, b, c in itertools.product(pool, repeat=3):
            if equivalent(a, b) and equivalent(b, c):
                assert equivalent(a, c)


class TestFromSpace1D:
    def test_kinds(self):
        descs = [from_space1d(sp) for sp in FIXTURE_SPACES]
        assert descs[0] == descriptor("interval")
        assert descs[1] == descriptor("interval", "point")
        assert descs[2] == descriptor("interval", "interval")
        assert descs[3] == descriptor("point", "point", "point")
        assert descs[4] == descriptor("interval", "point", "interval")

    def test_agrees_with_decomposition(self):
        for sp in FIXTURE_SPACES:
            inv = invariant(from_space1d(sp))
            dec = decompose_space(sp)
            assert inv.isol_card == len(dec.isolated)
            assert inv.perfect_nonempty == (not dec.atomless_part.is_empty)


class TestFinballConsistency:
    def test_finite_discrete_pairs(self):
        # n isolated points vs m isolated points, via power-set algebras
        for n in range(1, 9):
            for m in range(1, 9):
                d1 = descriptor(*["point"] * n)
                d2 = descriptor(*["point"] * m)
                a = FiniteBooleanAlgebra(tuple(f"x{i}" for i in range(n)))
                b = FiniteBooleanAlgebra(tuple(f"y{i}" for i in range(m)))
                assert bool(equivalent(d1, d2)) == (iso_check(a, b) is not None)
