"""Piecewise-linear maps: exact set maps and the irreducibility decision."""
from __future__ import annotations

import random

import pytest

import fractions

from regopen import plmap, space
from regopen.ideals import pl_supp, pullback
from regopen.errors import Discontinuity, ImageEscapesCodomain, NotSurjective
from regopen.plmap import (
    IrreducibilityVerdict,
    Piece,
    PLMap,
    identity_map,
    is_irreducible,
    plmap_from_breakpoints,
)
from regopen.rationals import rat
from regopen.space import Interval, Point, Region, Space1D, Span

from conftest import (
    FIXTURE_SPACES, MIXED, TWO_INTERVALS, UNIT, UNIT_PT, random_plfunc, random_region, region,
)
from plmap_oracle import (
    branches_by_fractions,
    carry_by_fractions,
    first_overlap_by_branches,
    image_by_fractions,
    image_by_pairs,
    phi_by_fractions,
    phi_by_pairs,
    pl_supp_by_fractions,
    preimage_by_fractions,
    preimage_by_pairs,
    psi_by_fractions,
    psi_by_pairs,
    pullback_by_cuts,
    redundant_point_by_images,
    span_intersect_by_contains,
)


def tent() -> PLMap:
    # 2x up, then 2 - 2x back down
    return PLMap(UNIT, UNIT, ((Piece(0, rat(1, 2), 2, 0), Piece(rat(1, 2), 1, -2, 2)),))


def halving() -> PLMap:
    dom = Space1D((Interval(0, 2),))
    return PLMap(dom, UNIT, ((Piece(0, 2, rat(1, 2), 0),),))


def swap_two() -> PLMap:
    return PLMap(
        TWO_INTERVALS,
        TWO_INTERVALS,
        ((Piece(0, 1, 1, 2),), (Piece(2, 3, 1, -2),)),
    )


class TestValidation:
    def test_pieces_must_tile(self):
        with pytest.raises(ValueError):
            PLMap(UNIT, UNIT, ((Piece(0, rat(1, 2), 1, 0),),))

    def test_pieces_must_be_consecutive(self):
        with pytest.raises(ValueError):
            PLMap(
                UNIT,
                UNIT,
                ((Piece(0, rat(1, 4), 1, 0), Piece(rat(1, 2), 1, 1, 0)),),
            )

    def test_discontinuity_reports_location(self):
        with pytest.raises(Discontinuity) as exc:
            PLMap(
                UNIT,
                UNIT,
                ((Piece(0, rat(1, 2), 1, 0), Piece(rat(1, 2), 1, 0, 0)),),
            )
        assert exc.value.location == rat(1, 2)

    def test_image_escape_rejected(self):
        with pytest.raises(ImageEscapesCodomain):
            PLMap(UNIT, UNIT, ((Piece(0, 1, 2, 0),),))

    def test_image_across_codomain_gap_rejected(self):
        # [0, 3] lands across the gap of [0,1] u [2,3]
        dom = Space1D((Interval(0, 3),))
        with pytest.raises(ImageEscapesCodomain):
            PLMap(dom, TWO_INTERVALS, ((Piece(0, 3, 1, 0),),))

    def test_point_images_must_cover_points(self):
        with pytest.raises(ValueError):
            PLMap(UNIT_PT, UNIT, ((Piece(0, 1, 1, 0),),))

    def test_point_image_must_land_in_codomain(self):
        with pytest.raises(ImageEscapesCodomain):
            PLMap(UNIT_PT, UNIT, ((Piece(0, 1, 1, 0),),), ((2, 5),))

    def test_zero_length_piece_rejected(self):
        with pytest.raises(ValueError):
            Piece(1, 1, 1, 0)


class TestEvaluation:
    def test_tent_values(self):
        m = tent()
        assert m.value(0) == 0
        assert m.value(rat(1, 4)) == rat(1, 2)
        assert m.value(rat(1, 2)) == 1
        assert m.value(rat(7, 8)) == rat(1, 4)

    def test_point_value(self):
        m = PLMap(UNIT_PT, UNIT_PT, ((Piece(0, 1, 1, 0),),), ((2, 2),))
        assert m.value(2) == 2

    def test_outside_domain(self):
        with pytest.raises(ValueError):
            tent().value(2)


class TestImagePreimage:
    def test_tent_image_examples(self):
        m = tent()
        assert m.image(region(UNIT, (0, "1/4", True, True))) == region(
            UNIT, (0, "1/2", True, True)
        )
        # both laps contribute
        assert m.image(region(UNIT, ("1/4", "3/4", True, True))) == region(
            UNIT, ("1/2", 1, True, True)
        )
        assert m.image(UNIT.full_region()) == UNIT.full_region()

    def test_tent_preimage_examples(self):
        m = tent()
        assert m.preimage(region(UNIT, ("1/2", 1, False, True))) == region(
            UNIT, ("1/4", "3/4", False, False)
        )
        assert m.preimage(region(UNIT, (0, 0, True, True))) == region(
            UNIT, (0, 0, True, True), (1, 1, True, True)
        )

    def test_preimage_of_constant_piece(self):
        m = plmap_from_breakpoints(
            UNIT, UNIT, [(0, 0), (rat(1, 4), 1), (rat(3, 4), 1), (1, 0)]
        )
        pre = m.preimage(region(UNIT, (1, 1, True, True)))
        assert pre == region(UNIT, ("1/4", "3/4", True, True))

    def test_point_images_flow_through(self):
        m = PLMap(UNIT_PT, UNIT, ((Piece(0, 1, 1, 0),),), ((2, rat(1, 2)),))
        img = m.image(region(UNIT_PT, (2, 2, True, True)))
        assert img == region(UNIT, ("1/2", "1/2", True, True))
        pre = m.preimage(region(UNIT, ("1/2", "1/2", True, True)))
        assert pre == region(UNIT_PT, ("1/2", "1/2", True, True), (2, 2, True, True))

    def test_image_membership_matches_pointwise_search(self):
        # independent route: y is in image(R) iff preimage({y}) meets R
        rng = random.Random(20240817)
        maps = [tent(), halving(), swap_two(), identity_map(MIXED)]
        for m in maps:
            for _ in range(8):
                r = random_region(m.domain, rng)
                img = m.image(r)
                for k in range(33):
                    y = rat(k, 32) * 3  # sweep [0, 3] to cover every codomain
                    if not m.codomain.contains(y):
                        continue
                    hit = not m.preimage(
                        Region(m.codomain, [Span(y, y, True, True)])
                    ).intersect(r).is_empty
                    assert img.contains(y) == hit

    def test_preimage_membership_is_pointwise(self):
        rng = random.Random(99)
        for m in (tent(), halving(), swap_two()):
            for _ in range(8):
                s = random_region(m.codomain, rng)
                pre = m.preimage(s)
                for k in range(65):
                    x = rat(k, 64) * 3
                    if not m.domain.contains(x):
                        continue
                    assert pre.contains(x) == s.contains(m.value(x))


class TestSurjectivity:
    def test_fixture_maps(self):
        assert tent().is_surjective()
        assert halving().is_surjective()
        assert swap_two().is_surjective()
        for sp in FIXTURE_SPACES:
            assert identity_map(sp).is_surjective()

    def test_not_surjective(self):
        m = PLMap(UNIT, UNIT, ((Piece(0, 1, rat(1, 2), 0),),))
        assert not m.is_surjective()
        with pytest.raises(NotSurjective):
            is_irreducible(m)


class TestIrreducibility:
    def test_identity_is_irreducible(self):
        for sp in FIXTURE_SPACES:
            v = is_irreducible(identity_map(sp))
            assert v == IrreducibilityVerdict(True)

    def test_halving_is_irreducible(self):
        assert is_irreducible(halving()).irreducible

    def test_swap_is_irreducible(self):
        assert is_irreducible(swap_two()).irreducible

    def test_tent_is_reducible_with_verified_witness(self):
        m = tent()
        v = is_irreducible(m)
        assert not v.irreducible
        w = v.witness
        assert w is not None and not w.is_empty and w.is_open()
        rest = UNIT.full_region().difference(w)
        assert m.image(rest) == UNIT.full_region()

    def test_tent_alternate_witness_also_verifies(self):
        # removing the last quarter-lap still leaves an onto map
        m = tent()
        w = region(UNIT, ("3/4", 1, False, False))
        assert m.image(UNIT.full_region().difference(w)) == UNIT.full_region()

    def test_constant_piece_forces_reducible(self):
        m = plmap_from_breakpoints(
            UNIT, UNIT, [(0, 0), (rat(1, 4), 1), (rat(3, 4), 1), (1, 0)]
        )
        v = is_irreducible(m)
        assert not v.irreducible
        assert "constant" in v.reason

    def test_redundant_isolated_point(self):
        m = PLMap(UNIT_PT, UNIT, ((Piece(0, 1, 1, 0),),), ((2, rat(1, 2)),))
        v = is_irreducible(m)
        assert not v.irreducible
        assert v.witness == region(UNIT_PT, (2, 2, True, True))

    def test_needed_isolated_point(self):
        m = PLMap(UNIT_PT, UNIT_PT, ((Piece(0, 1, 1, 0),),), ((2, 2),))
        assert is_irreducible(m).irreducible

    def test_double_cover_reducible(self):
        m = PLMap(
            Space1D((Interval(0, 2),)),
            UNIT,
            ((Piece(0, 1, 1, 0), Piece(1, 2, -1, 2)),),
        )
        v = is_irreducible(m)
        assert not v.irreducible
        rest = m.domain.full_region().difference(v.witness)
        assert m.image(rest) == UNIT.full_region()


def _random_surjection(rng: random.Random) -> PLMap | None:
    n = rng.randint(2, 5)
    xs = sorted(rng.sample(range(1, 8), n - 1))
    breaks = [rat(0)] + [rat(x, 8) for x in xs] + [rat(1)]
    vals = [rat(rng.randrange(9), 8) for _ in breaks]
    m = plmap_from_breakpoints(UNIT, UNIT, list(zip(breaks, vals)))
    return m if m.is_surjective() else None


class TestIrreducibilityOracle:
    """Cross-check the rule-based decision against the definition by sampling."""

    def test_random_maps_agree_with_sampled_definition(self):
        rng = random.Random(7011)
        checked = 0
        while checked < 40:
            m = _random_surjection(rng)
            if m is None:
                continue
            checked += 1
            full = m.domain.full_region()
            x_full = m.codomain.full_region()
            v = is_irreducible(m)
            if not v.irreducible:
                assert not v.witness.is_empty and v.witness.is_open()
                assert m.image(full.difference(v.witness)) == x_full
            else:
                for _ in range(60):
                    u = random_region(m.domain, rng).interior()
                    if u.is_empty:
                        continue
                    assert m.image(full.difference(u)) != x_full


class TestInducedRegularOpenMaps:
    def test_halving_psi_example(self):
        m = halving()
        u = region(m.domain, (0, 1, True, False))
        assert m.psi(u) == region(UNIT, (0, "1/2", True, False))

    def test_halving_phi_example(self):
        m = halving()
        v = region(UNIT, (0, "1/2", True, False))
        assert m.phi(v) == region(m.domain, (0, 1, True, False))

    def test_identity_psi_phi_are_identity(self):
        from regopen.space import random_regular_open

        for sp in FIXTURE_SPACES:
            m = identity_map(sp)
            for seed in range(6):
                u = random_regular_open(sp, seed)
                assert m.psi(u) == u
                assert m.phi(u) == u

    def test_psi_inverts_phi_for_irreducible_maps(self):
        from regopen.space import random_regular_open, ropen_join, ropen_neg

        for m in (halving(), swap_two(), identity_map(MIXED)):
            for seed in range(10):
                v = random_regular_open(m.codomain, seed)
                w = random_regular_open(m.codomain, seed + 100)
                assert m.psi(m.phi(v)) == v
                # structure is carried over, not just membership
                assert m.phi(ropen_neg(v)) == ropen_neg(m.phi(v))
                assert m.phi(ropen_join(v, w)) == ropen_join(m.phi(v), m.phi(w))

    def test_phi_of_reducible_map_need_not_be_injective(self):
        m = PLMap(
            Space1D((Interval(0, 2),)),
            UNIT,
            ((Piece(0, 1, 1, 0), Piece(1, 2, -1, 2)),),
        )
        v = region(UNIT, (0, "1/2", True, False))
        # the doubled lap drags in two copies
        assert m.phi(v) == region(m.domain, (0, "1/2", True, False), ("3/2", 2, False, True))


class TestBreakpointBuilder:
    def test_tent_from_breakpoints(self):
        m = plmap_from_breakpoints(UNIT, UNIT, [(0, 0), (rat(1, 2), 1), (1, 0)])
        assert m == tent()

    def test_breakpoints_must_span(self):
        with pytest.raises(ValueError):
            plmap_from_breakpoints(UNIT, UNIT, [(0, 0), (rat(1, 2), 1)])


# --- the bisecting transports and the one-count rule 3 against brute force ---


def _random_run(rng: random.Random, comp: Interval, target: Interval, primes=()) -> list:
    """Breakpoints over comp with values in target: monotone onto, a fold, or a walk.

    With `primes`, breakpoints and values sit on grids of a prime size.
    """
    den = rng.choice(primes) if primes else 4 * rng.choice((2, 3, 4, 5, 8))
    top = rng.choice(primes) if primes else 24
    inner = sorted(rng.sample(range(1, den), rng.randint(0, 5)))
    xs = [comp.a] + [comp.a + (comp.b - comp.a) * rat(i, den) for i in inner] + [comp.b]

    def grid(k):
        return target.a + (target.b - target.a) * rat(k, top)

    style = rng.random()
    if style < 0.45:
        ks = [0] + sorted(rng.sample(range(1, top), len(xs) - 2)) + [top]
        vals = [grid(k) for k in (ks if rng.random() < 0.5 else reversed(ks))]
    elif style < 0.75:
        # a fold up to the top, back down to the bottom, the top or anywhere
        vals = [grid(0)] + [grid(rng.randint(0, top)) for _ in xs[1:]]
        vals[rng.randrange(1, len(xs))] = grid(top)
        if rng.random() < 0.5:
            vals[-1] = grid(rng.choice((0, top, rng.randint(0, top))))
    else:
        vals = [grid(rng.randint(0, top)) for _ in xs]
        vals[rng.randrange(len(xs))] = grid(0)
        vals[rng.randrange(len(xs))] = grid(top)
    return list(zip(xs, vals))


def _random_space(rng: random.Random, points: bool) -> Space1D:
    comps, x = [], rat(rng.randrange(-2, 2))
    for _ in range(rng.choice((1, 1, 2, 2, 3))):
        if points and rng.random() < 0.3:
            comps.append(Point(x))
        else:
            comps.append(Interval(x, x + rat(rng.randint(1, 8), rng.choice((2, 3, 4)))))
            x = comps[-1].b
        x += rat(rng.randint(1, 4), rng.choice((2, 3, 4)))
    if not any(isinstance(c, Interval) for c in comps):
        comps.append(Interval(x, x + 1))
    return Space1D(tuple(comps))


def _random_cover(rng: random.Random, primes=()) -> PLMap:
    """A map onto a random codomain: every interval component is some run's
    target, every isolated point some domain point's image; now and then an
    extra run or an extra point lands anywhere.  Most are surjective.  With
    `primes`, runs sit on grids of a prime size (see `_random_run`)."""
    cod = _random_space(rng, points=rng.random() < 0.5)
    targets = list(cod.interval_components())
    targets += [rng.choice(targets) for _ in range(rng.choice((0, 0, 1)))]
    rng.shuffle(targets)
    hits = [p.at for p in cod.point_components()]
    for _ in range(rng.choice((0, 0, 1, 2))):
        comp = rng.choice(cod.components)
        hits.append(comp.at if isinstance(comp, Point) else comp.a + (comp.b - comp.a) * rat(rng.randint(0, 8), 8))
    kinds = ["run"] * len(targets) + ["point"] * len(hits)
    rng.shuffle(kinds)
    comps, values, points = [], [], []
    x = rat(rng.randrange(-2, 2))
    for kind in kinds:
        if kind == "point":
            comps.append(Point(x))
            points.append((x, hits.pop()))
        else:
            comps.append(Interval(x, x + rat(rng.randint(1, 8), rng.choice((2, 3, 4)))))
            values += _random_run(rng, comps[-1], targets.pop(), primes)
            x = comps[-1].b
        x += rat(rng.randint(1, 4), rng.choice((2, 3, 4)))
    return plmap_from_breakpoints(Space1D(tuple(comps)), cod, values, points)


def _verdict(m: PLMap):
    try:
        return is_irreducible(m).to_json()
    except NotSurjective as exc:
        return ("NotSurjective", str(exc))


# folds whose overlap starts where two branch images share an endpoint
SHARED_END_FOLDS = (
    tent(),
    # up to 1/2, on up to 1, back down to 1/2: the overlap (1/2, 1] starts at the shared 1/2
    plmap_from_breakpoints(Space1D((Interval(0, 3),)), UNIT, [(0, 0), (1, rat(1, 2)), (2, 1), (3, rat(1, 2))]),
    # the same over two domain components, the fold in the second
    plmap_from_breakpoints(
        TWO_INTERVALS, UNIT, [(0, 0), (1, rat(1, 2)), (2, rat(1, 2)), (rat(5, 2), 1), (3, rat(1, 2))]
    ),
)


class TestRuleThreeOracle:
    """The one-count rules 1 and 3 give the per-point and per-branch rules'
    verdicts, reasons and witnesses."""

    def test_verdicts_match_the_per_branch_rule(self, monkeypatch):
        rng = random.Random(60_000)
        maps = list(SHARED_END_FOLDS) + [_random_cover(rng) for _ in range(300)]
        seen = set()
        for m in maps:
            got = _verdict(m)
            for name, oracle in (("_first_overlap", first_overlap_by_branches),
                                 ("_redundant_point", redundant_point_by_images)):
                with monkeypatch.context() as patch:
                    patch.setattr(plmap, name, oracle)
                    assert _verdict(m) == got, (name, m)
            seen.add(f"{len(m.domain.interval_components())} domain components")
            seen |= {"point onto a codomain point" if any(p.at == v for p in m.codomain.point_components())
                     else "point into the interval part" for _, v in m.point_images}
            if m.codomain.point_components():
                seen.add("codomain point")
            if isinstance(got, dict):
                seen.add(got.get("reason", "irreducible").split(" ")[0])
        assert seen >= {
            "1 domain components", "2 domain components", "point onto a codomain point",
            "point into the interval part", "codomain point", "irreducible", "isolated", "constant", "piece",
        }

    def test_shared_end_folds_are_caught_by_rule_three(self):
        reasons = [is_irreducible(m).reason for m in SHARED_END_FOLDS]
        assert reasons == [
            "piece image (0, 1) overlap is covered twice",
            "piece image (1/2, 1) overlap is covered twice",
            "piece image (1/2, 1) overlap is covered twice",
        ]


class TestTransportOracle:
    """Bisected transports and endpoint intersections against the double loop."""

    def test_span_intersect_matches_contains_on_a_five_point_grid(self):
        spans = [
            Span(rat(lo), rat(hi), li, hi_)
            for lo in range(5) for hi in range(5) for li in (False, True) for hi_ in (False, True)
        ]
        for a in spans:
            for b in spans:
                want = span_intersect_by_contains(a, b)
                got = plmap._span_intersect(plmap._ratios(a), plmap._ratios(b))
                assert got == (None if want is None else plmap._ratios(want)), (a, b)

    def test_transports_match_the_double_loop(self):
        rng = random.Random(61_000)
        for _ in range(150):
            m = _random_cover(rng)
            for _ in range(4):
                r = random_region(m.domain, rng, count=6, den=48)
                s = random_region(m.codomain, rng, count=6, den=48)
                assert m.image(r) == image_by_pairs(m, r)
                assert m.preimage(s) == preimage_by_pairs(m, s)
                u, v = r.regularize(), s.regularize()
                assert m.psi(u) == psi_by_pairs(m, u)
                assert m.phi(v) == phi_by_pairs(m, v)


def _exact(spans) -> list:
    # reprs tell a Fraction from an int and a bool from 0/1
    return [(repr(s.lo), repr(s.hi), repr(s.lo_incl), repr(s.hi_incl)) for s in spans]


_PRIMES = (1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049)


class TestIntegerKernelOracle:
    """The integer-ratio transports against their Fraction-arithmetic forms,
    exactly, types included."""

    @pytest.mark.parametrize("bits", [None, 0])
    def test_transports_match_the_fraction_kernel(self, monkeypatch, bits):
        if bits is not None:  # every sweep takes the Fraction-sort fallback
            monkeypatch.setattr(space, "SWEEP_KEY_BITS", bits)
        rng = random.Random(62_000)
        seen = set()
        for i in range(80):
            primes = _PRIMES if i % 2 else ()
            den = rng.choice(_PRIMES) if primes else 48
            m = _random_cover(rng, primes)
            table = branches_by_fractions(m)
            assert [(_exact([a, b]), repr(k), repr(c)) for a, b, k, c in m._branches] == \
                [(_exact([a, b]), repr(k), repr(c)) for a, b, k, c in table]
            seen |= {"negative slope" if k < 0 else "constant piece" if k == 0 else "positive slope"
                     for run in m.pieces for k in (q.slope for q in run)}
            seen |= {"isolated point"} if m.point_images else set()
            for _ in range(3):
                r = random_region(m.domain, rng, count=6, den=den)
                s = random_region(m.codomain, rng, count=6, den=den)
                for forward, t in ((True, r), (False, s)):
                    assert _exact(plmap._carry(m._branches, t.spans, forward)) == \
                        _exact(carry_by_fractions(table, t.spans, forward))
                u, v = r.regularize(), s.regularize()
                for got, want in ((m.image(r), image_by_fractions(m, r)),
                                  (m.preimage(s), preimage_by_fractions(m, s)),
                                  (m.psi(u), psi_by_fractions(m, u)),
                                  (m.phi(v), phi_by_fractions(m, v))):
                    assert _exact(got.spans) == _exact(want.spans)
            f = random_plfunc(m.codomain, rng.randrange(10**6), den=den)
            assert _exact(pl_supp(f).spans) == _exact(pl_supp_by_fractions(f).spans)
            g, h = pullback(m, f), pullback_by_cuts(m, f)
            assert (repr(g.pieces), repr(g.point_values)) == (repr(h.pieces), repr(h.point_values))
            assert _exact(pl_supp(g).spans) == _exact(pl_supp_by_fractions(h).spans)
        assert seen == {"negative slope", "constant piece", "positive slope", "isolated point"}


def _increasing_bijection(n: int) -> PLMap:
    return plmap_from_breakpoints(UNIT, UNIT, [(rat(i, n), rat(i * i, n * n)) for i in range(n + 1)])


class TestWorkCounts:
    """Deterministic call counts that pin the cost of rules 1 and 3 and of preimage."""

    def _count(self, monkeypatch, owners, name):
        calls = [0]
        original = getattr(owners[0], name)

        def counted(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        for owner in owners:
            monkeypatch.setattr(owner, name, counted)
        return calls

    def test_rule_three_canonicalizes_the_same_at_16_and_256_pieces(self, monkeypatch):
        calls = self._count(monkeypatch, (space, plmap), "canonicalize")
        counts = []
        for n in (16, 256):
            calls[0] = 0
            assert is_irreducible(_increasing_bijection(n)).irreducible
            counts.append(calls[0])
        assert counts[0] == counts[1]

    def test_rule_one_images_the_same_at_1_and_8_isolated_points(self, monkeypatch):
        calls = self._count(monkeypatch, (PLMap,), "image")
        counts = []
        for k in (1, 8):
            calls[0] = 0
            spc = Space1D((Interval(0, 1),) + tuple(Point(2 + i) for i in range(k)))
            assert is_irreducible(identity_map(spc)).irreducible
            counts.append(calls[0])
        assert counts[0] == counts[1]

    def test_canonicalize_image_and_preimage_of_1024_spans_compare_no_fractions(self, monkeypatch):
        rng = random.Random(1024)

        def raw(n, den):
            # n spans on a 1/den grid around [0, 1], with points, empty and out-of-space spans
            out = []
            for _ in range(n):
                at = rng.randint(-8, den + 8)
                lo, hi = rat(at, den), rat(at + rng.randint(1, 3), den)
                kind = rng.random()
                if kind < 0.1:
                    out.append(Span(lo, lo, True, rng.random() < 0.5))  # a point, or one missing a flag
                elif kind < 0.2:
                    out.append(Span(hi, lo, True, True))  # reversed, or a point
                else:
                    out.append(Span(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
            return out + [Span(rat(2), rat(2), True, True), out[-1], Span(rat(3), rat(4), True, True)]

        # 64 pieces on [0, 1] with folds and flat pieces, the point 2 onto 1/2
        ys = [rat(rng.choice((0, rng.randint(0, 256), 256)), 256) for _ in range(65)]
        m = plmap_from_breakpoints(UNIT_PT, UNIT, [(rat(i, 64), y) for i, y in enumerate(ys)],
                                   [(2, rat(1, 2))])
        assert any(q.slope < 0 for q in m.pieces[0]) and any(q.slope == 0 for q in m.pieces[0])
        spans = raw(1024, 8192)
        # about one raw span in five is empty, so 1,300 make regions of over 1024 spans
        r, s = Region(UNIT_PT, raw(1300, 1 << 16)), Region(UNIT, raw(1300, 1 << 16))
        assert len(r.spans) >= 1024 and len(s.spans) >= 1024
        cases = {"canonicalize": lambda: space.canonicalize(UNIT_PT, spans),
                 "image": lambda: m.image(r), "preimage": lambda: m.preimage(s)}
        counts = {}
        for case, run in cases.items():
            calls = {name: self._count(monkeypatch, (fractions.Fraction,), name)
                     for name in ("_richcmp", "__eq__")}
            run()
            counts[case] = {name: c[0] for name, c in calls.items()}
            monkeypatch.undo()
        assert counts == {case: {"_richcmp": 0, "__eq__": 0} for case in cases}

    def test_preimage_visits_only_the_spans_that_meet_each_piece(self, monkeypatch):
        m = _increasing_bijection(64)
        s = Region(UNIT, [Span(rat(2 * k + 1, 64), rat(2 * k + 2, 64), False, False) for k in range(32)])
        assert len(s.spans) == 32
        calls = self._count(monkeypatch, (plmap,), "_span_intersect")
        pre = m.preimage(s)
        assert calls[0] <= 2 * (64 + 32)
        assert pre == preimage_by_pairs(m, s)
