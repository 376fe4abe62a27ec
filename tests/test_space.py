"""Region calculus: canonical form, relative topology, regular-open algebra."""
from __future__ import annotations

import fractions
import itertools
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
    assert_canonical_rows,
    force_floor_keys,
    random_raw_spans,
    random_region,
    region,
    trusted_region,
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
                want = oracle.holds(space, x) and any(oracle.holds(s, x) for s in raw)
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
                assert_canonical_rows(r)


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

    def test_only_spans_are_taken_at_the_public_edge(self):
        # a row-shaped tuple is no span: read as one, it gave a region unequal to
        # the same set built from spans, whose JSON read "hi":[2,4]
        row = ((1, 4), (2, 4), True, True)
        for raw in ([row], [Span(0, rat(1, 8), True, True), row], ["1/4"], [(rat(1, 4), rat(1, 2), True, True)]):
            with pytest.raises(TypeError):
                Region(UNIT, raw)
            with pytest.raises(TypeError):
                canonicalize(UNIT, raw)
        r = Region(UNIT, [Span(rat(1, 4), rat(2, 4), True, True)])
        assert r.rows == (((1, 4), (1, 2), True, True),) and r.contains(rat(3, 8))
        assert r.to_json() == {"spans": [{"lo": "1/4", "hi": "1/2", "lo_incl": True, "hi_incl": True}]}

    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_construction_is_canonicalize_and_is_idempotent(self, seed):
        rng = random.Random(seed)
        for space in FIXTURE_SPACES:
            raw = random_raw_spans(space, rng, count=8)
            r = Region(space, raw)
            assert r == canonicalize(space, raw).region
            assert Region(r.space, r.spans) == r
            assert_canonical_rows(r)


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
        right = trusted_region(UNIT, (Span(2, 3, True, True),))
        left = trusted_region(UNIT_PT, (Span(-1, rat(-1, 2), False, False),))
        in_gap = trusted_region(UNIT_PT, (Span(rat(3, 2), rat(3, 2), True, True),))
        across = trusted_region(TWO_INTERVALS, (Span(rat(1, 2), rat(5, 2), False, False),))
        for r in (right, left, in_gap, across):
            for op in (Region.interior, Region.regularize, lambda r: ropen_join(r, r),
                       lambda r: space_module._regular_union(r.space, _ratio_spans(r.spans))):
                with pytest.raises(SpaceMismatch):
                    op(r)


@pytest.mark.usefixtures("audited_rows")
class TestGridOracleAgreement:
    """Every operation is cross-checked against the independent 1/2048 oracle."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_all_operations_agree(self, seed):
        _agree_with_grid(seed)

    def test_fraction_sort_agrees(self, monkeypatch):
        # every `_cut_ranges` call that grows the lcm takes the floor keys
        force_floor_keys(monkeypatch)
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



def _take_floor_keys(*groups: list[Span]) -> bool:
    """Whether `_cut_ranges` of each group of spans, with the others or
    alone, takes the floor keys: the lcm of the group's denominators passes
    64 bits and 2b + 1, b the bit length of the largest of them all."""
    dens = [[v.denominator for s in spans for v in (s.lo, s.hi)] for spans in groups]
    top = max(map(max, dens)).bit_length()
    return all(math.lcm(*d).bit_length() > max(64, 2 * top + 1) for d in dens)


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
    """Past the lcm's switch the cut positions are floor keys; the regions do not change."""

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
        assert _take_floor_keys(a.spans, b.spans)  # every operation below cuts at least the endpoints of a or of b
        # the copy scaled by the lcm has integer endpoints, so its cut positions are integer keys
        common = math.lcm(*primes)
        big = Space1D((Interval(0, common), Point(2 * common)))
        a_big, b_big = canonicalize(big, _times(a_raw, common)).region, canonicalize(big, _times(b_raw, common)).region
        pairs = [(a, a_big), (b, b_big), (a.complement(), a_big.complement())]
        pairs += [(getattr(a, op)(b), getattr(a_big, op)(b_big)) for op in ("union", "intersect", "difference")]
        for small, scaled in pairs:
            assert trusted_region(big, tuple(_times(small.spans, common))) == scaled


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


    def test_embed_refuses_a_region_that_does_not_fit(self):
        w = region(Space1D((Interval(0, 2),)), (0, 2, True, True))
        with pytest.raises(SpaceMismatch) as exc:
            embed(w, UNIT)
        assert str(exc.value) == "region does not fit inside the ambient space"

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


def _ratio_spans(spans) -> list:
    return [(s.lo.as_integer_ratio(), s.hi.as_integer_ratio(), s.lo_incl, s.hi_incl) for s in spans]


def _exact(r: Region) -> list:
    # reprs tell a Fraction from an int and a bool from 0/1
    return [(repr(s.lo), repr(s.hi), repr(s.lo_incl), repr(s.hi_incl)) for s in r.spans]


_ORACLE_SPACES = (
    MIXED,
    Space1D((Interval(0, 1), Point(rat(4, 3)), Interval(rat(3, 2), rat(5, 2)), Point(3), Point(rat(10, 3)))),
)
_PRIMES = _primes_from(1009, 40)
# denominators of 5,000 to 5,004 bits, pairwise coprime
_HUGE = [p ** math.ceil(5000 / math.log2(p)) for p in _primes_from(3, 12)]


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
    # perp's closed cut ranges and the hull pass against the compositions they replaced
    for r in (a, c):
        pairs += [(r.perp(), oracle.perp_by_composition(r)),
                  (ropen_join(r, b), oracle.join_by_composition(r, b)),
                  (ropen_join(b, r), oracle.join_by_composition(b, r)),
                  (space_module._regular_union(space, _ratio_spans(b.spans + r.spans)),
                   oracle.join_by_composition(b, r))]
    for r in (a, c):
        pairs += [
            (r.closure(), oracle.closure_by_spans(r)),
            (r.interior(), oracle.interior_by_spans(r)),
            (r.regularize(), oracle.regularize_by_spans(r)),
        ]
    for got, want in pairs:
        assert got.space is space
        assert _exact(got) == _exact(want)


@pytest.mark.usefixtures("audited_rows")
class TestSpaceOracle:
    """The cut-range set operations, closure and interior against their direct forms."""

    @pytest.mark.usefixtures("either_key")
    def test_seeded_regions_match_exactly(self):
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
        assert _take_floor_keys(a_raw, b_raw)
        _agree_with_space_oracle(space, a_raw, b_raw)

    def test_5000_bit_denominators_match_exactly(self):
        # every end has a denominator of about 5,000 bits, each a power of its own prime
        rng = random.Random(5000)
        for space, count in itertools.product(_ORACLE_SPACES, (6, 24)):
            a_raw, b_raw = (_oracle_raw(space, rng, lambda: rng.choice(_HUGE), count) for _ in range(2))
            assert _take_floor_keys(a_raw, b_raw)
            _agree_with_space_oracle(space, a_raw, b_raw)


# interval ends with denominators 7, 3 and 6, so no draw's ends are dyadic
_DRAW_SPACE = Space1D((Interval(rat(-3, 7), rat(2, 3)), Point(1), Interval(rat(17, 6), rat(7, 2)),
                       Point(rat(11, 3))))


@pytest.mark.usefixtures("audited_rows")
class TestRandomRegularOpenOracle:
    """The integer-ratio draws against the Fraction-arithmetic draws, exactly."""

    def test_3000_seeds_match_the_fraction_draws(self):
        for seed in range(3000):
            got = random_regular_open(_DRAW_SPACE, seed)
            assert got.space is _DRAW_SPACE
            assert _exact(got) == _exact(oracle.random_regular_open_by_fractions(_DRAW_SPACE, seed)), seed

    def test_fraction_rank_fallback_draws_match(self, monkeypatch):
        force_floor_keys(monkeypatch)  # every hull pass whose rows grow the lcm takes the floor keys
        for space in (_DRAW_SPACE,) + FIXTURE_SPACES:
            for seed in range(100):
                want = oracle.random_regular_open_by_fractions(space, seed)
                assert _exact(random_regular_open(space, seed)) == _exact(want), (space, seed)


class TestWorkCounts:
    """Call counts that pin the cost of the set operations, closure and interior."""

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

    def _counted(self, monkeypatch, targets) -> dict:
        calls = {name: 0 for _, name in targets}
        for owner, name in targets:
            original = getattr(owner, name)

            def wrapper(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)
        return calls

    def test_1024_span_operations_compare_no_fractions_and_coerce_no_spans(self, monkeypatch):
        rng = random.Random(1024)
        a, b = self._dyadic_region(rng, 1024), self._dyadic_region(rng, 1024)
        assert len(a.spans) > 900 and len(b.spans) > 900
        calls = self._counted(monkeypatch, [
            (fractions.Fraction, "_richcmp"), (fractions.Fraction, "__eq__"), (Span, "__post_init__"),
            (space_module, "canonicalize"),  # the checked constructor runs it
        ])
        ops = (lambda: a.union(b), lambda: a.intersect(b), lambda: a.difference(b), a.complement,
               a.closure, a.interior, a.regularize, b.regularize, lambda: ropen_join(a, b), a.perp)
        for op in ops:
            assert op().spans
        assert calls == {"_richcmp": 0, "__eq__": 0, "__post_init__": 0, "canonicalize": 0}

    def test_every_set_operation_makes_one_cut_ranges_call(self, monkeypatch):
        # each operation reads all its operands' ends, the components' too, in one call
        rng = random.Random(16)
        a, b = self._dyadic_region(rng, 16), self._dyadic_region(rng, 16)
        raw = list(a.spans + b.spans) + [Span(rat(-1), rat(3), False, False)]
        calls = self._counted(monkeypatch, [(space_module, "_cut_ranges")])
        ops = {"union": lambda: a.union(b), "intersect": lambda: a.intersect(b),
               "difference": lambda: a.difference(b), "complement": a.complement, "perp": a.perp,
               "join": lambda: ropen_join(a, b), "canonicalize": lambda: canonicalize(UNIT_PT, raw)}
        seen = {}
        for name, op in ops.items():
            calls["_cut_ranges"] = 0
            op()
            seen[name] = calls["_cut_ranges"]
        assert seen == {name: 1 for name in ops}

    def test_set_operations_emit_rows_in_their_meet_walk(self, monkeypatch):
        # the one meet walk writes the result's rows: no second pass rebuilds them
        rng = random.Random(17)
        a, b = self._dyadic_region(rng, 16), self._dyadic_region(rng, 16)
        raw = list(a.spans + b.spans) + [Span(rat(-1), rat(3), False, False)]
        original, walks = space_module._meet, []

        def recorded(*args, **kwargs):
            walks.append(original(*args, **kwargs))
            return walks[-1]

        monkeypatch.setattr(space_module, "_meet", recorded)
        ops = {"intersect": lambda: a.intersect(b), "difference": lambda: a.difference(b),
               "complement": a.complement, "perp": a.perp,
               "canonicalize": lambda: canonicalize(UNIT_PT, raw).region}
        for name, op in ops.items():
            walks.clear()
            got = op()
            assert len(walks) == 1, name
            assert got.rows and len(got.rows) == len(walks[0]), name
            assert all(row is out for row, out in zip(got.rows, walks[0])), name

    # each case's denominators and the key `_cut_ranges` takes.  The lcm keys: the lcm
    # stays under 64 bits, or passes 64 but not 2b + 1 (b = 2,061).  The floor keys:
    # 10- and 11-bit primes pass 64 bits before the last new prime, powers of 2,061 to
    # 2,246 bits pass 2b + 1 with rows after the switch, or at the last new power
    KEYS = {"short-lcm": ([1, 2, 4, 3, 16, 6], "lcm"), "long-lcm": ([1, 2, 4, 3**1300, 2, 3**650], "lcm"),
            "primes": ([1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049], "floor"),
            "powers": ([4, 3**1300, 2, 5**900, 7**800, 1], "floor"),
            "last": ([2, 3**1300, 4, 3**650, 1, 5**900, 7**800], "floor")}

    @staticmethod
    def _key_rule(rows) -> tuple[int, str, list]:
        """The lcm calls, the key and the ends' positions of `_cut_ranges`
        by its rule, the positions through Fractions: the lcm grows only at a
        row with a denominator that does not divide it, and once it passes 64
        and 2b + 1 bits, b the bit length of the largest denominator, it stops
        and n/d sits at 2 * floor(n/d * 2^2b); until then at 2 * n/d * lcm."""
        b = max(v[1] for row in rows for v in row[:2]).bit_length()
        common, grown, key = 1, 0, "lcm"
        for (_, d), (_, e), _, _ in rows:
            if common % d or common % e:
                common, grown = math.lcm(common, d, e), grown + 1
                if common.bit_length() > max(64, 2 * b + 1):
                    key = "floor"
                    break
        scale = 2 ** (2 * b) if key == "floor" else common
        return grown, key, [2 * math.floor(fractions.Fraction(*v) * scale) for row in rows for v in row[:2]]

    @pytest.mark.parametrize("case", sorted(KEYS))
    def test_cut_ranges_keys_by_lcm_then_by_floors(self, monkeypatch, case):
        rng = random.Random(4096)
        denominators, key = self.KEYS[case]

        def ends(denominators):
            out = []
            for d in denominators:
                for _ in range(3):
                    n = rng.randrange(-3 * d, 3 * d)
                    while math.gcd(n, d) != 1:
                        n += 1
                    out.append((n, d))
            out += out[::3]  # every third value again
            return out

        def ranks(items):
            # the rank of each item among the distinct items: the order of a Fraction sort, ties included
            rank = {r: i for i, r in enumerate(sorted(set(items), key=lambda r: fractions.Fraction(*r)))}
            return [rank[r] for r in items]

        calls = self._counted(monkeypatch, [(space_module, "lcm")])
        values = ends(denominators)
        shuffled = values[:]
        rng.shuffle(shuffled)
        for values in (values, shuffled):
            # rows [v, w), in two groups: each range is (pos(v), pos(w)), and the lcm pass spans both groups
            rows = [(v, w, True, False) for v, w in zip(values[::2], values[1::2])]
            calls["lcm"] = 0
            groups = space_module._cut_ranges(rows[:5], rows[5:])
            grown, took, want = self._key_rule(rows)
            assert (calls["lcm"], took) == (grown, key)
            assert [len(g) for g in groups] == [5, len(rows) - 5]
            assert all(r[2:] == row[:2] for r, row in zip(groups[0] + groups[1], rows))
            got = [at for g in groups for r in g for at in r[:2]]
            assert got == want
            assert ranks([(at, 1) for at in got]) == ranks(values)

    def test_set_operations_on_5000_bit_coprime_ends_build_no_fraction(self, monkeypatch):
        # the floor keys, like the lcm keys, are integers computed from the rows alone
        rng = random.Random(5000)

        def raw():
            # six disjoint spans in [0, 1], each end over its own one of the twelve denominators
            ends = sorted(rat(rng.randrange(1, d), d) for d in _HUGE)
            return [Span(lo, hi, rng.random() < 0.5, rng.random() < 0.5) for lo, hi in zip(ends[::2], ends[1::2])]

        a_raw, b_raw = raw(), raw() + [Span(rat(2), rat(2), True, True)]
        a, b = Region(UNIT_PT, a_raw), Region(UNIT_PT, b_raw)
        assert _take_floor_keys(a_raw, b_raw) and _take_floor_keys(a.spans, b.spans)

        def no_fraction(*args):
            raise AssertionError("a Fraction was built")

        monkeypatch.setattr(space_module, "Q", no_fraction)
        ops = {"union": lambda: a.union(b), "intersect": lambda: a.intersect(b),
               "difference": lambda: a.difference(b), "complement": a.complement, "perp": a.perp,
               "join": lambda: ropen_join(a, b), "canonicalize": lambda: canonicalize(UNIT_PT, b_raw).region}
        got = {name: op() for name, op in ops.items()}
        monkeypatch.undo()
        want = {"union": oracle.union(a, b), "intersect": oracle.intersect(a, b),
                "difference": oracle.difference(a, b), "complement": oracle.complement(a),
                "perp": oracle.perp_by_composition(a), "join": oracle.join_by_composition(a, b), "canonicalize": b}
        assert all(got[name].rows for name in ops)
        assert {name: _exact(r) for name, r in got.items()} == {name: _exact(r) for name, r in want.items()}

    def test_join_and_perp_build_no_closure(self, monkeypatch):
        # the closure of a cut range is read off its positions: (lo_at & -2, hi_at | 1)
        rng = random.Random(77)
        regions = [self._dyadic_region(rng, 16) for _ in range(4)]
        calls = self._counted(monkeypatch, [(Region, name) for name in ("closure", "regularize", "union",
                                                                        "complement")])
        for a, b in zip(regions, regions[1:]):
            assert ropen_join(a, b).spans and a.perp().spans and ropen_neg(b).spans
        assert calls == {"closure": 0, "regularize": 0, "union": 0, "complement": 0}

    def test_draws_canonicalize_nothing(self, monkeypatch):
        # the draws' ends are carried as integer ratios into one hull pass
        calls = self._counted(monkeypatch, [(space_module, "canonicalize"), (Region, "closure")])
        for seed in range(40):
            assert random_regular_open(_DRAW_SPACE, seed).spans
        assert calls == {"canonicalize": 0, "closure": 0}
