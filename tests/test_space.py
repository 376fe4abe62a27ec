"""Region calculus: canonical form, relative topology, regular-open algebra."""
from __future__ import annotations

import fractions
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIXTURE_SPACES,
    MIXED,
    THREE_POINTS,
    TWO_INTERVALS,
    UNIT,
    UNIT_PT,
    random_raw_spans,
    random_region,
    region,
)
import space_oracle as oracle
from grid_oracle import GridOracle
from regopen import space as space_module
from regopen.errors import EmptySubspace, NotClosed, SpaceMismatch
from regopen.rationals import rat
from regopen.space import (
    Interval,
    Point,
    Region,
    Space1D,
    Span,
    _region,
    canonicalize,
    decompose_space,
    embed,
    random_regular_open,
    ropen_join,
    ropen_meet,
    ropen_neg,
    subspace,
    theta,
)


def spans_of(r: Region):
    return [(str(s.lo), str(s.hi), s.lo_incl, s.hi_incl) for s in r.spans]


def assert_canonical(r: Region) -> None:
    """Structural invariants that, with membership, pin the canonical form."""
    bounds = [(c.at, c.at) if isinstance(c, Point) else (c.a, c.b) for c in r.space.components]
    for s in r.spans:
        # nonempty, and a one-point span has both flags set
        assert s.lo < s.hi or (s.lo == s.hi and s.lo_incl and s.hi_incl), s
        assert any(lo <= s.lo and s.hi <= hi for lo, hi in bounds), s
    for s, t in zip(r.spans, r.spans[1:]):
        # sorted and disjoint, with at least one missing point between: no merge
        assert s.hi < t.lo or (s.hi == t.lo and not s.hi_incl and not t.lo_incl), (s, t)


class TestSpaceValidation:
    def test_components_must_be_sorted_with_gaps(self):
        with pytest.raises(ValueError):
            Space1D((Interval(0, 1), Interval(1, 2)))
        with pytest.raises(ValueError):
            Space1D((Interval(0, 1), Point(1)))
        with pytest.raises(ValueError):
            Space1D((Point(2), Interval(0, 1)))
        with pytest.raises(ValueError):
            Space1D(())

    def test_interval_needs_positive_length(self):
        with pytest.raises(ValueError):
            Interval(1, 1)


class TestCanonicalize:
    def test_adjacent_spans_merge(self):
        res = canonicalize(UNIT, [Span(rat(0), rat(1, 2), True, False), Span(rat(1, 2), rat(1), True, True)])
        assert spans_of(res.region) == [("0", "1", True, True)]
        assert not res.clipped

    def test_point_gap_prevents_merge(self):
        res = canonicalize(UNIT, [Span(rat(0), rat(1, 2), True, False), Span(rat(1, 2), rat(1), False, True)])
        assert spans_of(res.region) == [("0", "1/2", True, False), ("1/2", "1", False, True)]

    def test_clipping_is_flagged(self):
        res = canonicalize(UNIT, [Span(rat(1, 2), rat(3), False, True)])
        assert spans_of(res.region) == [("1/2", "1", False, True)]
        assert res.clipped

    def test_span_across_gap_is_split(self):
        res = canonicalize(TWO_INTERVALS, [Span(rat(1, 2), rat(5, 2), True, True)])
        assert spans_of(res.region) == [("1/2", "1", True, True), ("2", "5/2", True, True)]
        assert res.clipped

    def test_empty_spans_dropped(self):
        res = canonicalize(UNIT, [Span(rat(1, 2), rat(1, 2), False, False), Span(rat(3, 4), rat(1, 4), True, True)])
        assert res.region.is_empty
        assert not res.clipped

    def test_half_flagged_degenerate_span_is_empty(self):
        # a one-point span needs both flags; anything less is malformed input
        res = canonicalize(UNIT, [Span(rat(1, 2), rat(1, 2), True, False)])
        assert res.region.is_empty
        assert not res.clipped

    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_membership_preserved(self, seed):
        rng = random.Random(seed)
        for space in FIXTURE_SPACES:
            raw = random_raw_spans(space, rng)
            reg = canonicalize(space, raw).region
            probes = {p for s in raw for p in (s.lo, s.hi)}
            probes |= {(s.lo + s.hi) / 2 for s in raw}
            for comp in space.components:
                if isinstance(comp, Point):
                    probes.add(comp.at)
                else:
                    probes |= {comp.a, comp.b, (comp.a + comp.b) / 2}
            for x in probes:
                want = space.contains(x) and any(s.contains(x) for s in raw)
                assert reg.contains(x) == want


class TestCanonicalInvariants:
    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_construction_and_set_operations_are_canonical(self, seed):
        rng = random.Random(seed)
        for space in FIXTURE_SPACES:
            a = canonicalize(space, random_raw_spans(space, rng, count=8)).region
            b = random_region(space, rng, count=8)
            for r in (a, b, a.union(b), a.intersect(b), a.difference(b), a.complement()):
                assert_canonical(r)


class TestCanonicalByConstruction:
    """The public constructor canonicalizes, so equal sets are equal regions."""

    def test_touching_spans_are_the_closed_space(self):
        r = Region(UNIT, (Span(0, rat(1, 2), True, False), Span(rat(1, 2), 1, True, True)))
        assert r == UNIT.full_region()
        assert r.is_closed()

    def test_a_span_outside_the_space_clips_away(self):
        r = Region(UNIT, (Span(2, 3, True, True),))
        assert r.is_empty
        assert r.closure() == r == UNIT.empty_region()

    def test_a_region_built_from_a_list_is_hashable(self):
        spans = [Span(0, rat(1, 4), False, False), Span(rat(1, 2), 1, False, True)]
        assert hash(Region(UNIT, spans)) == hash(Region(UNIT, tuple(spans)))
        assert type(Region(UNIT, spans).spans) is tuple

    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_construction_is_canonicalize_and_is_idempotent(self, seed):
        rng = random.Random(seed)
        for space in FIXTURE_SPACES:
            raw = random_raw_spans(space, rng, count=8)
            r = Region(space, raw)
            assert r == canonicalize(space, raw).region
            assert Region(r.space, r.spans) == r
            assert_canonical(r)


class TestRelativeTopology:
    def test_interior_keeps_space_boundary(self):
        r = region(UNIT, (0, "1/2", True, True))
        assert spans_of(r.interior()) == [("0", "1/2", True, False)]

    def test_closure_fills_endpoints(self):
        r = region(UNIT, (0, "1/2", False, False))
        assert spans_of(r.closure()) == [("0", "1/2", True, True)]

    def test_isolated_point_is_open(self):
        r = region(UNIT_PT, (2, 2, True, True))
        assert r.interior() == r
        assert r.is_regular_open()

    def test_complement_example(self):
        r = region(UNIT_PT, (0, "1/2", True, True))
        assert spans_of(r.complement()) == [("1/2", "1", False, True), ("2", "2", True, True)]

    def test_interior_of_component_edge_point_is_empty(self):
        # a singleton at the boundary of an interval component is not open
        for at in ("3/4", "1"):
            r = region(MIXED, (at, at, True, True))
            assert r.interior().is_empty
            assert r.interior() == r.complement().closure().complement()

    def test_regularize_examples(self):
        assert spans_of(region(UNIT, (0, "1/2", False, False)).regularize()) == [("0", "1/2", True, False)]
        assert spans_of(region(UNIT, (0, "1/2", True, True)).regularize()) == [("0", "1/2", True, False)]
        assert not region(UNIT, (0, "1/2", False, False)).is_regular_open()
        assert region(UNIT, (0, "1/2", True, False)).is_regular_open()

    def test_neg_example(self):
        r = region(UNIT_PT, (0, "1/2", True, False))
        assert spans_of(ropen_neg(r)) == [("1/2", "1", False, True), ("2", "2", True, True)]

    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_operator_laws(self, seed):
        rng = random.Random(seed)
        for space in FIXTURE_SPACES:
            r = random_region(space, rng)
            cl, it = r.closure(), r.interior()
            assert cl.closure() == cl
            assert it.interior() == it
            assert it.difference(r).is_empty and r.difference(cl).is_empty
            assert r.complement().complement() == r
            # dual route: interior must agree with complement-of-closure-of-complement
            assert it == r.complement().closure().complement()
            assert r.perp() == cl.complement()
            # the triple-perp law holds for open sets
            u = r.interior()
            assert u.perp().perp().perp() == u.perp()
            assert u.difference(u.perp().perp()).is_empty
            assert r.regularize() == r.regularize().regularize()
            assert r.regularize().is_regular_open()

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1))
    def test_boolean_algebra_laws_on_regular_opens(self, seed):
        rng = random.Random(seed)
        for space in FIXTURE_SPACES:
            u = random_regular_open(space, rng.randrange(2**30))
            v = random_regular_open(space, rng.randrange(2**30))
            w = random_regular_open(space, rng.randrange(2**30))
            full, empty = space.full_region(), space.empty_region()
            assert ropen_join(u, v) == ropen_join(v, u)
            assert ropen_meet(u, v) == ropen_meet(v, u)
            assert ropen_join(u, ropen_join(v, w)) == ropen_join(ropen_join(u, v), w)
            assert ropen_meet(u, ropen_meet(v, w)) == ropen_meet(ropen_meet(u, v), w)
            assert ropen_join(u, ropen_meet(u, v)) == u
            assert ropen_meet(u, ropen_join(u, v)) == u
            assert ropen_meet(u, ropen_join(v, w)) == ropen_join(ropen_meet(u, v), ropen_meet(u, w))
            assert ropen_join(u, ropen_meet(v, w)) == ropen_meet(ropen_join(u, v), ropen_join(u, w))
            assert ropen_join(u, ropen_neg(u)) == full
            assert ropen_meet(u, ropen_neg(u)) == empty
            assert ropen_neg(ropen_neg(u)) == u

    def test_triple_perp_needs_an_open_input(self):
        # an interior singleton is closed, not open; its perp chain stabilizes late
        r = region(UNIT, ("53/64", "53/64", True, True))
        assert r.perp() == r.complement()
        assert r.perp().perp().perp() == UNIT.full_region() != r.perp()

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatch):
            region(UNIT, (0, 1, True, True)).union(region(UNIT_PT, (0, 1, True, True)))
        with pytest.raises(SpaceMismatch):
            ropen_join(region(UNIT, (0, 1, True, True)), region(TWO_INTERVALS, (0, 1, True, True)))

    def test_interior_of_a_span_outside_the_space_is_a_mismatch(self):
        # the trusted constructor does not check; interior used to raise IndexError
        right = _region(UNIT, (Span(2, 3, True, True),))
        left = _region(UNIT_PT, (Span(-1, rat(-1, 2), False, False),))
        in_gap = _region(UNIT_PT, (Span(rat(3, 2), rat(3, 2), True, True),))
        across = _region(TWO_INTERVALS, (Span(rat(1, 2), rat(5, 2), False, False),))
        for r in (right, left, in_gap, across):
            for op in (Region.interior, Region.regularize, lambda r: ropen_join(r, r)):
                with pytest.raises(SpaceMismatch):
                    op(r)


class TestGridOracleAgreement:
    """Every operation is cross-checked against the independent 1/2048 oracle."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_all_operations_agree(self, seed):
        _agree_with_grid(seed)

    def test_fraction_sort_agrees(self, monkeypatch):
        # a bound below every lcm sends every sweep to the Fraction sort
        monkeypatch.setattr(space_module, "SWEEP_KEY_BITS", 0)
        for seed in range(10):
            _agree_with_grid(seed)

    def test_index_membership_matches_contains(self):
        # the oracle reads membership off grid indices; Region.contains must agree
        rng = random.Random(2048)
        for space in FIXTURE_SPACES:
            oracle = GridOracle(space)
            for _ in range(4):
                for r in (random_region(space, rng), random_regular_open(space, rng.randrange(2**30))):
                    assert [r.contains(x) for x in oracle.values] == oracle.vec(r)


def _agree_with_grid(seed: int) -> None:
    rng = random.Random(seed)
    for space in FIXTURE_SPACES:
        oracle = GridOracle(space)
        a = random_region(space, rng)
        b = random_region(space, rng)
        va, vb = oracle.vec(a), oracle.vec(b)
        assert oracle.vec(a.union(b)) == oracle.union(va, vb)
        assert oracle.vec(a.intersect(b)) == oracle.inter(va, vb)
        assert oracle.vec(a.difference(b)) == oracle.inter(va, oracle.compl(vb))
        assert oracle.vec(a.complement()) == oracle.compl(va)
        assert oracle.vec(a.closure()) == oracle.closure(va)
        assert oracle.vec(a.interior()) == oracle.interior(va)
        assert oracle.vec(a.perp()) == oracle.perp(va)
        assert oracle.vec(a.regularize()) == oracle.regularize(va)
        u = random_regular_open(space, rng.randrange(2**30))
        v = random_regular_open(space, rng.randrange(2**30))
        vu, vv = oracle.vec(u), oracle.vec(v)
        assert oracle.vec(ropen_join(u, v)) == oracle.join(vu, vv)
        assert oracle.vec(ropen_meet(u, v)) == oracle.inter(vu, vv)
        assert oracle.vec(ropen_neg(u)) == oracle.perp(vu)



def _primes_from(start: int, count: int) -> list[int]:
    out, k = [], start
    while len(out) < count:
        if all(k % d for d in range(2, int(k**0.5) + 1)):
            out.append(k)
        k += 1
    return out


def _times(spans, factor) -> list[Span]:
    return [Span(s.lo * factor, s.hi * factor, s.lo_incl, s.hi_incl) for s in spans]


class TestSweepFallback:
    """Past `SWEEP_KEY_BITS` the sweep sorts Fractions; the regions do not change."""

    def test_prime_denominators_match_a_rescaled_integer_sweep(self):
        rng = random.Random(4099)
        primes = _primes_from(1009, 1200)
        rng.shuffle(primes)

        def raw(ps):
            out = []
            for p, q in zip(ps[::2], ps[1::2]):
                lo = rat(rng.randrange(p), p)
                out.append(Span(lo, lo + rat(rng.randint(1, 2), q), rng.random() < 0.5, rng.random() < 0.5))
            return out

        a_raw, b_raw = raw(primes[:600]), raw(primes[600:])
        a, b = canonicalize(UNIT_PT, a_raw).region, canonicalize(UNIT_PT, b_raw).region
        for r in (a, b):  # every sweep below sees at least the endpoints of a or of b
            common = math.lcm(*(v.denominator for s in r.spans for v in (s.lo, s.hi)))
            assert common.bit_length() > space_module.SWEEP_KEY_BITS
        # the copy scaled by the lcm has integer endpoints, so its sweeps take integer keys
        common = math.lcm(*primes)
        big = Space1D((Interval(0, common), Point(2 * common)))
        a_big, b_big = canonicalize(big, _times(a_raw, common)).region, canonicalize(big, _times(b_raw, common)).region
        pairs = [(a, a_big), (b, b_big), (a.complement(), a_big.complement())]
        pairs += [(getattr(a, op)(b), getattr(a_big, op)(b_big)) for op in ("union", "intersect", "difference")]
        for small, scaled in pairs:
            assert _region(big, tuple(_times(small.spans, common))) == scaled


class TestDecomposition:
    def test_parts(self):
        dec = decompose_space(UNIT_PT)
        assert dec.isolated == (rat(2),)
        assert spans_of(dec.atomic_part) == [("2", "2", True, True)]
        assert spans_of(dec.atomless_part) == [("0", "1", True, True)]
        assert dec.sub_atomic == Space1D((Point(2),))
        assert dec.sub_atomless == UNIT

    def test_interior_complement_identity(self):
        for space in FIXTURE_SPACES:
            dec = decompose_space(space)
            assert dec.atomless_part.interior() == ropen_neg(dec.atomic_part.interior())

    def test_pure_cases(self):
        dec = decompose_space(THREE_POINTS)
        assert dec.sub_atomless is None and dec.atomless_part.is_empty
        dec2 = decompose_space(UNIT)
        assert dec2.sub_atomic is None and dec2.atomic_part.is_empty


class TestSubspace:
    def test_subspace_of_closed_region(self):
        f = region(UNIT, (0, "1/4", True, True), ("1/2", "1/2", True, True))
        sub = subspace(UNIT, f)
        assert sub == Space1D((Interval(0, rat(1, 4)), Point(rat(1, 2))))

    def test_errors(self):
        with pytest.raises(NotClosed):
            subspace(UNIT, region(UNIT, (0, "1/2", True, False)))
        with pytest.raises(EmptySubspace):
            subspace(UNIT, UNIT.empty_region())
        with pytest.raises(SpaceMismatch):
            subspace(UNIT, region(TWO_INTERVALS, (0, 1, True, True)))

    def test_embed_round_trip(self):
        f = region(UNIT, (0, "1/4", True, True))
        sub = subspace(UNIT, f)
        w = region(sub, (0, "1/8", True, False))
        back = embed(w, UNIT)
        assert spans_of(back) == [("0", "1/8", True, False)]


class TestTheta:
    def test_worked_example(self):
        x = Space1D((Interval(0, 1), Point(2), Point(3)))
        dec = decompose_space(x)
        wa = region(dec.sub_atomic, (2, 2, True, True))
        wc = region(dec.sub_atomless, (0, "1/2", True, False))
        assert spans_of(theta(x, wa, wc)) == [("0", "1/2", True, False), ("2", "2", True, True)]

    def test_missing_factor(self):
        with pytest.raises(SpaceMismatch):
            theta(UNIT, region(UNIT, (0, 1, True, True)), None)
        assert theta(UNIT, None, region(UNIT, (0, "1/2", True, False))) == region(UNIT, (0, "1/2", True, False))

    def test_wrong_subspace(self):
        with pytest.raises(SpaceMismatch):
            theta(UNIT_PT, region(UNIT, (0, 1, True, True)), None)


class TestRandomRegularOpen:
    def test_deterministic_and_regular(self):
        for space in FIXTURE_SPACES:
            for seed in range(30):
                r1 = random_regular_open(space, seed)
                r2 = random_regular_open(space, seed)
                assert r1 == r2
                assert r1.is_regular_open()
                assert len(r1.spans) <= 3


def _exact(r: Region) -> list:
    # reprs tell a Fraction from an int and a bool from 0/1
    return [(repr(s.lo), repr(s.hi), repr(s.lo_incl), repr(s.hi_incl)) for s in r.spans]


_ORACLE_SPACES = (
    MIXED,
    Space1D((Interval(0, 1), Point(rat(4, 3)), Interval(rat(3, 2), rat(5, 2)), Point(3), Point(rat(10, 3)))),
)
_PRIMES = _primes_from(1009, 40)


def _oracle_raw(space: Space1D, rng: random.Random, den, count: int) -> list[Span]:
    """Raw spans with endpoints over den(), touching component ends, with point spans.

    Some spans stick out of the space on one side or both, lie in a gap or
    cross one, so canonicalize clips; some are empty: reversed, or a point
    missing a flag.
    """
    ends = [v for c in space.components for v in ((c.at,) if isinstance(c, Point) else (c.a, c.b))]
    lo_all, hi_all = min(ends), max(ends)
    bounds = [(c.at, c.at) if isinstance(c, Point) else (c.a, c.b) for c in space.components]
    gaps = [(left[1], right[0]) for left, right in zip(bounds, bounds[1:])]
    out = []
    for _ in range(count):
        d = den()
        picks = [rat(rng.randint(math.floor(lo_all * d) - 1, math.ceil(hi_all * d) + 1), d) for _ in range(2)]
        if rng.random() < 0.3:
            picks[rng.randrange(2)] = rng.choice(ends)
        lo, hi = min(picks), max(picks)
        kind = rng.random()
        if kind < 0.12:
            out.append(Span(lo, lo, True, True))  # a point, inside an interval or at a component
        elif kind < 0.18:
            out.append(Span(lo, lo, *rng.choice(((True, False), (False, True), (False, False)))))
        elif kind < 0.24:
            out.append(Span(hi, lo, rng.random() < 0.5, rng.random() < 0.5))  # reversed, or a point
        elif kind < 0.3:
            g0, g1 = rng.choice(gaps)
            lo, hi = sorted(g0 + (g1 - g0) * rat(rng.randint(1, 2 * d - 1), 2 * d) for _ in range(2))
            out.append(Span(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
        elif kind < 0.33:
            out.append(Span(lo_all - rat(1, d), hi_all + rat(rng.randint(0, 1), d), True, False))
        else:
            out.append(Span(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
    return out


def _agree_with_space_oracle(space: Space1D, a_raw: list, b_raw: list) -> None:
    # each span alone as well, so every span's clip flag is checked, not just the first one set
    for raw in [a_raw, b_raw] + [[s] for s in a_raw]:
        got, want = canonicalize(space, raw), oracle.canonicalize_by_groupby(space, raw)
        assert got.region.space is space
        assert (_exact(got.region), repr(got.clipped)) == (_exact(want.region), repr(want.clipped))
    a = canonicalize(space, a_raw).region
    b = canonicalize(space, b_raw).region
    c = a.complement()  # point spans of a leave spans of c that touch
    pairs = [
        (a.union(b), oracle.union(a, b)),
        (a.intersect(b), oracle.intersect(a, b)),
        (a.difference(b), oracle.difference(a, b)),
        (c, oracle.complement(a)),
        (a.perp(), oracle.complement(oracle.closure_by_spans(a))),
        (ropen_join(a, b), oracle.regularize_by_spans(oracle.union(a, b))),
    ]
    for r in (a, c):
        pairs += [
            (r.closure(), oracle.closure_by_spans(r)),
            (r.interior(), oracle.interior_by_spans(r)),
            (r.regularize(), oracle.regularize_by_spans(r)),
        ]
    for got, want in pairs:
        assert got.space is space
        assert _exact(got) == _exact(want)


class TestSpaceOracle:
    """The integer-cut sweep, closure and interior against their direct forms."""

    @pytest.mark.parametrize("bits", [None, 0])
    def test_seeded_regions_match_exactly(self, monkeypatch, bits):
        if bits is not None:  # every sweep takes the Fraction-sort fallback
            monkeypatch.setattr(space_module, "SWEEP_KEY_BITS", bits)
        rng = random.Random(1010)
        dyadic, mixed, prime = (lambda: 1 << rng.randint(0, 10), lambda: rng.randint(1, 60),
                                lambda: rng.choice(_PRIMES))
        for den in (dyadic, mixed, prime):
            for space in _ORACLE_SPACES:
                for _ in range(25):
                    a_raw, b_raw = (_oracle_raw(space, rng, den, rng.randint(0, 24)) for _ in range(2))
                    _agree_with_space_oracle(space, a_raw, b_raw)

    def test_lcm_above_the_key_bound_matches_exactly(self):
        rng = random.Random(4096)
        primes = _primes_from(1009, 800)
        rng.shuffle(primes)
        dens = iter(primes)
        space = _ORACLE_SPACES[1]
        a_raw = _oracle_raw(space, rng, lambda: next(dens), 400)
        b_raw = _oracle_raw(space, rng, lambda: next(dens), 400)
        for raw in (a_raw, b_raw):
            common = math.lcm(*(v.denominator for s in raw for v in (s.lo, s.hi)))
            assert common.bit_length() > space_module.SWEEP_KEY_BITS
        _agree_with_space_oracle(space, a_raw, b_raw)


class TestWorkCounts:
    """Call counts that pin the cost of the sweep, closure and interior."""

    def _dyadic_region(self, rng: random.Random, n: int) -> Region:
        # n spans on a 1/8n grid of [0, 1], with point spans, plus the point 2
        cuts = sorted(rng.sample(range(8 * n + 1), 2 * n - 2))
        spans = [Span(rat(2), rat(2), True, True)]
        for lo, hi in zip(cuts[::2], cuts[1::2]):
            if rng.random() < 0.1:
                spans.append(Span(rat(lo, 8 * n), rat(lo, 8 * n), True, True))
            else:
                spans.append(Span(rat(lo, 8 * n), rat(hi, 8 * n), rng.random() < 0.5, rng.random() < 0.5))
        return canonicalize(UNIT_PT, spans).region

    def test_1024_span_operations_compare_no_fractions_and_coerce_no_spans(self, monkeypatch):
        rng = random.Random(1024)
        a, b = self._dyadic_region(rng, 1024), self._dyadic_region(rng, 1024)
        assert len(a.spans) > 900 and len(b.spans) > 900
        calls = {"_richcmp": 0, "__eq__": 0, "__post_init__": 0, "canonicalize": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(fractions.Fraction, "_richcmp")
        counted(fractions.Fraction, "__eq__")
        counted(Span, "__post_init__")
        counted(space_module, "canonicalize")  # the checked constructor runs it
        ops = (lambda: a.union(b), lambda: a.intersect(b), lambda: a.difference(b), a.complement,
               a.closure, a.interior, a.regularize, b.regularize)
        for op in ops:
            assert op().spans
        assert calls == {"_richcmp": 0, "__eq__": 0, "__post_init__": 0, "canonicalize": 0}
