"""Shared fixture spaces, small random generators, acceptance reporting."""
from __future__ import annotations

import math
import random
import sys

import pytest

from regopen import space as space_module
from regopen.ideals import PLFunc, plfunc_from_breakpoints
from regopen.rationals import Rational, rat
from regopen.space import Interval, Point, Region, Space1D, Span, _region, canonicalize

# one (number, label, passed) entry per acceptance criterion that ran
ACCEPTANCE_RESULTS: dict[int, tuple[str, bool]] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when != "call":
        return
    num = getattr(item.function, "criterion_number", None)
    if num is not None:
        label = getattr(item.function, "criterion_label", item.name)
        ACCEPTANCE_RESULTS[num] = (label, rep.passed)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(ACCEPTANCE_RESULTS):
        label, ok = ACCEPTANCE_RESULTS[num]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num} [{status}] {label}")

UNIT = Space1D((Interval(0, 1),))
UNIT_PT = Space1D((Interval(0, 1), Point(2)))
TWO_INTERVALS = Space1D((Interval(0, 1), Interval(2, 3)))
THREE_POINTS = Space1D((Point(0), Point(1), Point(2)))
MIXED = Space1D((Interval(0, rat(1, 4)), Point(rat(1, 2)), Interval(rat(3, 4), 1)))

FIXTURE_SPACES = (UNIT, UNIT_PT, TWO_INTERVALS, THREE_POINTS, MIXED)


@pytest.fixture
def unit() -> Space1D:
    return UNIT


def region(space: Space1D, *spans) -> Region:
    """Shorthand: region(space, (lo, hi, lo_incl, hi_incl), ...) with exact parsing."""
    built = [Span(rat(str(lo)), rat(str(hi)), li, hi_i) for lo, hi, li, hi_i in spans]
    return Region(space, built)


def span_row(s: Span) -> tuple:
    """A span as a region row (lo, hi, lo_incl, hi_incl), its ends integer
    ratios: the tests' own conversion, not the library's."""
    return s.lo.as_integer_ratio(), s.hi.as_integer_ratio(), s.lo_incl, s.hi_incl


def trusted_region(space: Space1D, spans) -> Region:
    """The region of these spans, set unchecked by the trusted constructor:
    an oracle's result, or a region no public constructor would build."""
    return _region(space, tuple([span_row(s) for s in spans]))


def assert_canonical_rows(r: Region) -> None:
    """The invariants that make structural equality set equality: rows
    sorted, disjoint, touching only where both ends are excluded, nonempty
    and inside one component; ends integer ratios in lowest terms with a
    positive denominator; flags of type bool, since an int flag would
    change the JSON bytes."""
    assert type(r.rows) is tuple, r
    comps = [(c.at, c.at) if isinstance(c, Point) else (c.a, c.b) for c in r.space.components]
    comps = [(a.as_integer_ratio(), b.as_integer_ratio()) for a, b in comps]
    prev = None
    for row in r.rows:
        assert type(row) is tuple and len(row) == 4, row
        lo, hi, lo_incl, hi_incl = row
        assert type(lo_incl) is bool and type(hi_incl) is bool, row
        for n, d in (lo, hi):
            assert type(n) is int and type(d) is int and d > 0 and math.gcd(n, d) == 1, row
        order = hi[0] * lo[1] - lo[0] * hi[1]  # the sign of hi - lo
        assert order > 0 or order == 0 and lo_incl and hi_incl, row
        assert any(lo[0] * a[1] >= a[0] * lo[1] and hi[0] * b[1] <= b[0] * hi[1] for a, b in comps), row
        if prev is not None:
            gap = lo[0] * prev[0][1] - prev[0][0] * lo[1]  # the sign of lo - the previous hi
            assert gap > 0 or gap == 0 and not prev[1] and not lo_incl, (prev, row)
        prev = hi, hi_incl


@pytest.fixture
def audited_rows(monkeypatch):
    """Every region the library builds through the trusted `space._region`
    is checked by `assert_canonical_rows`, in every module that imports it."""
    original = space_module._region

    def audited(space, rows):
        r = original(space, rows)
        assert_canonical_rows(r)
        return r

    for name, module in list(sys.modules.items()):
        if name.startswith("regopen") and getattr(module, "_region", None) is original:
            monkeypatch.setattr(module, "_region", audited)


def force_floor_keys(monkeypatch) -> None:
    """Send every `space._cut_ranges` call that grows the lcm to the floor
    keys: the lcm times 3**3000 is still a common multiple, so the lcm keys
    stay exact, and it passes 2b + 1 bits for every largest denominator of
    b < 2,377 bits."""
    monkeypatch.setattr(space_module, "lcm", lambda *a: math.lcm(*a) * 3**3000)


@pytest.fixture(params=[False, True], ids=["None", "0"])
def either_key(request, monkeypatch):
    """A test on the keys `space._cut_ranges` picks, id `None`, then with
    the floor keys forced, id `0`."""
    if request.param:
        force_floor_keys(monkeypatch)


def random_raw_spans(space: Space1D, rng: random.Random, count: int = 4, den: int = 64):
    """Arbitrary (possibly overlapping, sticking-out) dyadic raw spans."""
    spans = []
    lo_all, hi_all = None, None
    for comp in space.components:
        if isinstance(comp, Point):
            a, b = comp.at, comp.at
        else:
            a, b = comp.a, comp.b
        lo_all = a if lo_all is None else min(lo_all, a)
        hi_all = b if hi_all is None else max(hi_all, b)
    width = hi_all - lo_all
    for _ in range(rng.randint(0, count)):
        i = rng.randrange(den + 1)
        j = rng.randrange(den + 1)
        lo = lo_all + width * min(i, j) / den
        hi = lo_all + width * max(i, j) / den
        spans.append(Span(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
    return spans


def random_region(space: Space1D, rng: random.Random, count: int = 4, den: int = 64) -> Region:
    return canonicalize(space, random_raw_spans(space, rng, count, den)).region


def const_func(space: Space1D, c: Rational) -> PLFunc:
    """The constant function c, one flat piece per interval component."""
    values = [(x, c) for comp in space.interval_components() for x in (comp.a, comp.b)]
    return plfunc_from_breakpoints(space, values, tuple((p.at, rat(c)) for p in space.point_components()))


def random_plfunc(space: Space1D, seed: int, den: int = 8) -> PLFunc:
    """Seeded random witness with dyadic breakpoints; hits zero often."""
    rng = random.Random(seed)
    values = []
    for comp in space.interval_components():
        width = comp.b - comp.a
        n = rng.randint(1, 3)
        inner = sorted(rng.sample(range(1, den), min(n, den - 1)))
        xs = [comp.a] + [comp.a + width * rat(i, den) for i in inner] + [comp.b]
        for x in xs:
            values.append((x, rat(rng.randint(-2 * den, 2 * den), den)
                           if rng.random() > 0.3 else rat(0)))
    points = tuple(
        (p.at, rat(rng.randint(-den, den), den) if rng.random() > 0.4 else rat(0))
        for p in space.point_components()
    )
    return plfunc_from_breakpoints(space, values, points)
