"""Cylinder algebra and the dyadic bridge to the unit interval."""
from __future__ import annotations

import random

import pytest

from regopen import cantor, space
from regopen.cantor import (
    EMPTY,
    FULL,
    UNIT_INTERVAL,
    CantorClopen,
    check_irreducible_cantor,
    clopen_compl,
    clopen_diff,
    clopen_from_leafmask,
    clopen_inter,
    clopen_union,
    closed_value_region,
    cylinder,
    phi_c,
    psi_c,
    random_clopen,
    random_dyadic_regular_open,
    value_interval,
)
from regopen.cover_iso import verify_bridge
from regopen.errors import NonDyadicEndpoint, SpaceMismatch
from regopen.rationals import dyadic_exponent, rat
from regopen.space import Region, Span, ropen_join, ropen_meet, ropen_neg

from conftest import TWO_INTERVALS, region


def leaves(k: CantorClopen, depth: int) -> frozenset[str]:
    """Oracle: all length-`depth` words inside the set. Requires depth >= every word length."""
    if depth < max((len(w) for w in k.words), default=0):
        raise ValueError("depth below the antichain depth")
    out = set()
    for w in k.words:
        for tail in range(2 ** (depth - len(w))):
            out.add(w + format(tail, f"0{depth - len(w)}b") if depth > len(w) else w)
    return frozenset(out)


def leafset(k: CantorClopen, depth: int) -> frozenset[str]:
    return leaves(k, depth) if not k.is_empty else frozenset()


def leafmask(k: CantorClopen, depth: int) -> int:
    """Oracle: bit i is leaf i of depth `depth`; the OR of each word's block of cells."""
    mask = 0
    for w in k.words:
        tail = depth - len(w)
        mask |= ((1 << (1 << tail)) - 1) << (int(w or "0", 2) << tail)
    return mask


def sparse_clopen(rng: random.Random, depth: int) -> CantorClopen:
    """A few words of random lengths up to `depth`, prefixes and siblings allowed."""
    lengths = [rng.randint(0, depth) for _ in range(rng.randint(0, 6))]
    return CantorClopen(tuple(format(rng.getrandbits(n), f"0{n}b") if n else "" for n in lengths))


class TestCanonicalForm:
    def test_sibling_merge(self):
        assert CantorClopen(("00", "01")).words == ("0",)
        assert CantorClopen(("0", "1")).words == ("",)

    def test_prefix_absorption(self):
        assert CantorClopen(("0", "01")).words == ("0",)
        assert CantorClopen(("0", "010", "11")).words == ("0", "11")

    def test_deep_cascade_merges_to_full(self):
        words = tuple(format(i, "04b") for i in range(16))
        assert CantorClopen(words).words == ("",)

    def test_lex_order_is_value_order(self):
        k = CantorClopen(("10", "0", "111"))
        assert k.words == ("0", "10", "111")
        values = [value_interval(w)[0] for w in k.words]
        assert values == sorted(values)

    def test_bad_characters_rejected(self):
        with pytest.raises(ValueError):
            CantorClopen(("02",))

    def test_a_bare_string_is_rejected(self):
        # its characters would be read as the words "0" and "1": the full clopen
        with pytest.raises(TypeError):
            CantorClopen("0101")
        assert cylinder("0101").words == ("0101",)

    def test_leaves_roundtrip(self):
        k = CantorClopen(("0", "10"))
        assert leaves(k, 2) == {"00", "01", "10"}
        assert clopen_from_leafmask(2, 0b0111).words == k.words


class TestClopenOps:
    def test_union_merges(self):
        assert clopen_union(cylinder("0"), cylinder("1")) == FULL

    def test_inter_absorbs_prefix(self):
        assert clopen_inter(cylinder("01"), cylinder("0")) == cylinder("01")

    def test_compl_depth_two(self):
        assert clopen_compl(CantorClopen(("01", "10"))).words == ("00", "11")

    def test_boolean_laws_exhaustive_depth_two(self):
        elems = [clopen_from_leafmask(2, m) for m in range(16)]
        for a in elems:
            assert clopen_union(a, clopen_compl(a)) == FULL
            assert clopen_inter(a, clopen_compl(a)) == EMPTY
            assert clopen_compl(clopen_compl(a)) == a
            for b in elems:
                assert clopen_union(a, b) == clopen_union(b, a)
                assert clopen_compl(clopen_union(a, b)) == clopen_inter(
                    clopen_compl(a), clopen_compl(b)
                )

    def test_ops_match_leafset_truth_table(self):
        rng = random.Random(5150)
        for _ in range(200):
            d = rng.randint(1, 4)
            a = random_clopen(rng, d)
            b = random_clopen(rng, d)
            la, lb = leafset(a, d), leafset(b, d)
            allw = frozenset(format(i, f"0{d}b") for i in range(2**d))
            assert leafset(clopen_union(a, b), d) == la | lb
            assert leafset(clopen_inter(a, b), d) == la & lb
            assert leafset(clopen_diff(a, b), d) == la - lb
            assert leafset(clopen_compl(a), d) == allw - la

    def test_ops_match_leafmask_on_sparse_deep_pairs(self):
        rng = random.Random(9016)
        for _ in range(10_000):
            d = rng.randint(1, 16)
            a, b = sparse_clopen(rng, d), sparse_clopen(rng, d)
            ma, mb, full = leafmask(a, d), leafmask(b, d), (1 << 2**d) - 1
            assert leafmask(clopen_union(a, b), d) == ma | mb
            assert leafmask(clopen_inter(a, b), d) == ma & mb
            assert leafmask(clopen_diff(a, b), d) == ma & ~mb
            assert leafmask(clopen_compl(a), d) == full & ~ma

    def test_compl_of_a_deep_cylinder_formats_only_its_words(self, monkeypatch):
        calls = 0

        def counting(convert):
            def wrapper(*args):
                nonlocal calls
                calls += 1
                return convert(*args)

            return wrapper

        k = cylinder("0" * 20)
        # the two builtins that spell an integer as a binary word
        monkeypatch.setattr(cantor, "format", counting(format), raising=False)
        monkeypatch.setattr(cantor, "bin", counting(bin), raising=False)
        out = clopen_compl(k)
        assert out.words == tuple("0" * i + "1" for i in reversed(range(20)))
        assert calls <= 3 * len(out.words)


class TestValueIntervals:
    def test_basic_words(self):
        assert value_interval("0") == (0, rat(1, 2))
        assert value_interval("01") == (rat(1, 4), rat(1, 2))
        assert value_interval("") == (0, 1)

    def test_closed_value_region_merges_touching(self):
        k = CantorClopen(("01", "10"))
        assert closed_value_region(k) == region(
            UNIT_INTERVAL, ("1/4", "3/4", True, True)
        )


class TestBridgeExamples:
    def test_psi_examples(self):
        assert psi_c(cylinder("0")) == region(UNIT_INTERVAL, (0, "1/2", True, False))
        assert psi_c(CantorClopen(("01", "10"))) == region(
            UNIT_INTERVAL, ("1/4", "3/4", False, False)
        )
        assert psi_c(FULL) == UNIT_INTERVAL.full_region()
        assert psi_c(EMPTY).is_empty

    def test_psi_nonempty_for_nonempty(self):
        rng = random.Random(8)
        for _ in range(100):
            k = random_clopen(rng, rng.randint(1, 6))
            if not k.is_empty:
                assert not psi_c(k).is_empty

    def test_phi_examples(self):
        assert phi_c(region(UNIT_INTERVAL, ("1/4", "3/4", False, False))) == CantorClopen(
            ("01", "10")
        )
        assert phi_c(region(UNIT_INTERVAL, (0, "1/2", True, False))) == cylinder("0")
        assert phi_c(UNIT_INTERVAL.full_region()) == FULL
        assert phi_c(UNIT_INTERVAL.empty_region()) == EMPTY

    def test_phi_rejects_non_dyadic(self):
        with pytest.raises(NonDyadicEndpoint):
            phi_c(region(UNIT_INTERVAL, ("1/3", "2/3", False, False)))

    def test_phi_rejects_other_space(self):
        with pytest.raises(SpaceMismatch):
            phi_c(region(TWO_INTERVALS, (0, 1, True, True)))

    def test_neg_transport(self):
        left = psi_c(cylinder("1"))
        assert left == region(UNIT_INTERVAL, ("1/2", 1, False, True))
        assert left == ropen_neg(psi_c(cylinder("0")))


class TestCellMaskConstruction:
    def test_matches_region_calculus_regularization(self):
        from regopen.cantor import dyadic_regular_open_from_cellmask
        from regopen.space import Region, Span

        rng = random.Random(314)
        for _ in range(80):
            d = rng.randint(0, 6)
            n = 2**d
            mask = rng.getrandbits(n) if n else 0
            step = rat(1, n)
            raw = [
                Span(i * step, (i + 1) * step, False, False)
                for i in range(n)
                if mask >> i & 1
            ]
            slow = Region(UNIT_INTERVAL, raw).regularize()
            assert dyadic_regular_open_from_cellmask(d, mask) == slow

    def test_bits_above_the_depth_are_ignored(self):
        from regopen.cantor import dyadic_regular_open_from_cellmask

        assert clopen_from_leafmask(2, 0b1_0110) == clopen_from_leafmask(2, 0b0110)
        assert dyadic_regular_open_from_cellmask(2, 0b1_1000) == dyadic_regular_open_from_cellmask(2, 0b1000)


def phi_c_by_cells(v: Region, depth: int | None = None) -> CantorClopen:
    """Oracle: one word per cell of size 2^-depth inside cl(V), fused by the antichain."""
    if v.is_empty:
        return EMPTY
    k = max(dyadic_exponent(x) for s in v.spans for x in (s.lo, s.hi))
    k = k if depth is None else depth
    if k == 0:
        return FULL if v.closure() == UNIT_INTERVAL.full_region() else EMPTY
    scale = 2**k
    words = []
    for s in v.closure().spans:
        words.extend(format(i, f"0{k}b") for i in range(int(s.lo * scale), int(s.hi * scale)))
    return CantorClopen(tuple(words))


class TestPhiDepthStability:
    def test_blocks_match_cell_listing(self):
        # any dyadic region, regular open or not: open, closed and half-open spans and points
        rng = random.Random(4243)
        for _ in range(400):
            d = rng.randint(0, 8)
            n = 2**d
            raw = []
            for _ in range(rng.randint(0, 4)):
                a = rng.randint(0, n)
                b = rng.randint(a, n)
                flags = (True, True) if a == b else (rng.random() < 0.5, rng.random() < 0.5)
                raw.append(Span(rat(a, n), rat(b, n), *flags))
            v = Region(UNIT_INTERVAL, raw)
            for depth in (None, d, d + 2):
                assert phi_c(v, depth) == phi_c_by_cells(v, depth)

    def test_negative_depth_rejected_on_the_empty_region(self):
        with pytest.raises(ValueError):
            phi_c(UNIT_INTERVAL.empty_region(), depth=-1)


    def test_deeper_enumeration_agrees(self):
        rng = random.Random(4242)
        for _ in range(60):
            d = rng.randint(1, 6)
            v = random_dyadic_regular_open(rng, d)
            base = phi_c(v)
            assert phi_c(v, depth=d + 1) == base
            assert phi_c(v, depth=d + 3) == base

    def test_depth_below_natural_rejected(self):
        v = region(UNIT_INTERVAL, ("1/4", "3/4", False, False))
        with pytest.raises(ValueError):
            phi_c(v, depth=1)


class TestRoundTrips:
    def test_exhaustive_depth_three(self):
        for mask in range(2**8):
            k = clopen_from_leafmask(3, mask)
            v = psi_c(k)
            assert v.is_regular_open()
            assert phi_c(v) == k

    def test_random_deep_roundtrips(self):
        rng = random.Random(77)
        for _ in range(150):
            d = rng.randint(1, 10)
            k = random_clopen(rng, d)
            assert phi_c(psi_c(k)) == k
            v = random_dyadic_regular_open(rng, d)
            assert psi_c(phi_c(v)) == v

    def test_law_transport_random(self):
        rng = random.Random(78)
        for _ in range(100):
            d = rng.randint(1, 6)
            a, b = random_clopen(rng, d), random_clopen(rng, d)
            assert psi_c(clopen_union(a, b)) == ropen_join(psi_c(a), psi_c(b))
            assert psi_c(clopen_inter(a, b)) == ropen_meet(psi_c(a), psi_c(b))
            assert psi_c(clopen_compl(a)) == ropen_neg(psi_c(a))


class TestVerifyBridge:
    def test_report_passes(self):
        rep = verify_bridge(depth=6, samples=120, seed=3)
        assert rep.ok
        assert rep.checks == 120 * 8
        assert rep.failures == ()

    def test_deterministic(self):
        assert verify_bridge(5, 50, 11) == verify_bridge(5, 50, 11)

    def test_json_shape(self):
        js = verify_bridge(4, 10, 1).to_json()
        assert js["ok"] is True and js["failures"] == []


class TestIrreducibility:
    def test_depth_one(self):
        rep = check_irreducible_cantor(1)
        assert rep.ok and rep.cylinders_checked == 2

    def test_depth_three_counts(self):
        rep = check_irreducible_cantor(3)
        assert rep.ok and rep.cylinders_checked == 14

    def test_removing_a_cylinder_loses_its_interior(self):
        rest = clopen_compl(cylinder("0"))
        assert closed_value_region(rest) == region(UNIT_INTERVAL, ("1/2", 1, True, True))


class TestWorkCounts:
    """The bridge builds its regions from spans it knows to be canonical."""

    def test_bridge_builds_no_public_span_and_canonicalizes_nothing(self, monkeypatch):
        rng = random.Random(2024)
        ks = [sparse_clopen(rng, 12) for _ in range(20)]
        masks = [rng.getrandbits(64) for _ in range(20)]
        calls = {"__post_init__": 0, "canonicalize": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(Span, "__post_init__")
        counted(space, "canonicalize")
        built = [psi_c(k) for k in ks] + [cantor.dyadic_regular_open_from_cellmask(6, m) for m in masks]
        back = [phi_c(v) for v in built]
        assert check_irreducible_cantor(4).ok
        assert calls == {"__post_init__": 0, "canonicalize": 0}
        monkeypatch.undo()
        # the regions built without a check are the canonical ones
        for r in built + [closed_value_region(k) for k in ks]:
            assert Region(r.space, r.spans) == r
        assert back[:20] == ks
