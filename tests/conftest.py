"""Shared fixture spaces, small random generators, acceptance reporting."""
from __future__ import annotations

import random

import pytest

from regopen.ideals import PLFunc, plfunc_from_breakpoints
from regopen.rationals import Rational, rat
from regopen.space import Interval, Point, Region, Space1D, Span, canonicalize

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
