"""The benchmark's own tests: determinism, fixed mix, non-vacuous checks.

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import metrics  # noqa: E402
import refimpl as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from regopen import space as S  # noqa: E402

WORKLOADS = metrics.WORKLOADS


def one_cycle(wl):
    loop = run.Loop(wl.ops)
    outs = loop.cycle()
    loop.check(outs)
    return [workloads.digest(out) for out in outs], loop


def trace_counts(wl):
    loop, _, tracer = run.traced_cycle(wl, run.in_process_caller(wl))
    names = Counter(tracer.names[rec[0]] for rec in tracer.spans)
    return names, Counter(tracer.counts), loop


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_digests_and_counts(name):
    a, b = workloads.build(name, 5), workloads.build(name, 5)
    digests_a, loop_a = one_cycle(a)
    digests_b, loop_b = one_cycle(b)
    assert digests_a == digests_b
    assert loop_a.results_digest == loop_b.results_digest
    assert all(k.startswith("unexpected:") is False for k in loop_a.failures), loop_a.failures
    calls_a, counts_a, _ = trace_counts(a)
    calls_b, counts_b, _ = trace_counts(b)
    assert calls_a == calls_b
    assert counts_a == counts_b
    assert sum(calls_a.values()) > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_other_seed_changes_inputs_not_mix(name):
    a, b = workloads.build(name, 1), workloads.build(name, 2)
    mix = [(op.kind, op.bucket, op.defect, op.expect_code is None) for op in a.ops]
    assert mix == [(op.kind, op.bucket, op.defect, op.expect_code is None) for op in b.ops]
    assert a.sizes == b.sizes
    if name == "cli":
        changed = sum(x.argv != y.argv for x, y in zip(a.ops, b.ops))
    else:
        changed = sum(x != y for x, y in zip(one_cycle(a)[0], one_cycle(b)[0]))
    assert changed >= len(a.ops) // 2


@pytest.mark.parametrize("name", ("calculus", "bridge", "covers"))
def test_checks_reject_other_answers(name):
    """Each check fails when handed the next operation's result.

    A reducible map has many valid witnesses, so a reducible verdict is
    handed a wrong verdict and a witness that removes the whole domain.
    """
    from regopen.plmap import IrreducibilityVerdict

    wl = workloads.build(name, 3)
    loop = run.Loop(wl.ops)
    outs = loop.cycle()
    rejected = total = 0
    for i, op in enumerate(wl.ops):
        if isinstance(outs[i], IrreducibilityVerdict) and not outs[i].irreducible:
            domain = outs[i].witness.space.full_region()
            others = [IrreducibilityVerdict(True), IrreducibilityVerdict(False, domain, "all")]
        else:
            others = [outs[(i + 1) % len(outs)]]
        for other in others:
            if workloads.digest(other) == workloads.digest(outs[i]):
                continue
            total += 1
            rejected += not run._safe_check(op, other)
    assert total and rejected == total


def test_cli_checks_reject_wrong_bytes_and_codes():
    wl = workloads.build("cli", 3)
    for op in wl.ops:
        if op.defect:
            continue
        assert not run._safe_check(op, (op.expect_code, b"{}\n")), op.kind
        assert not run._safe_check(op, (3, b"")), op.kind


@pytest.mark.parametrize("n", (16, 64))
def test_generated_regions_are_canonical(n):
    import random

    rng = random.Random(n)
    X = workloads._space(workloads.CALC_COMPS)
    for regular in (True, False):
        spans = workloads._canonical_spans(rng, workloads.CALC_COMPS, n, regular)
        region = workloads._region(X, spans)
        assert S.canonicalize(X, region.spans).region == region
        assert len(spans) == n
        if regular:
            assert region.is_regular_open()


def test_reference_matches_package_on_small_regions():
    import random

    rng = random.Random(7)
    comps = workloads.CALC_COMPS
    X = workloads._space(comps)
    for _ in range(30):
        raw = workloads._raw_spans(rng, 12)
        got = S.canonicalize(X, [S.Span(*s) for s in raw]).region
        assert workloads.spans_of(got) == ref.canonical(comps, raw)
        assert workloads.spans_of(got.perp()) == ref.unary(comps, "perp", workloads.spans_of(got))


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(10000) == 99.9
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(200) == 95.0
    assert run.tail_percentile(60) == 80.0
    for n in (20, 40, 100, 150, 999):
        assert n * (100 - run.tail_percentile(n)) / 100 + 1e-9 >= 10


def test_reference_units_cancel_a_slower_core():
    k = 3
    lat = [10_000, 20_000, 90_000] * 8
    ref = [(1_000 + 10 * (j % 5), 1 + j % 3) for j in range(len(lat))]
    fast = run.latency_metrics(lat, ref, k)
    slow = run.latency_metrics([2 * t for t in lat], [(2 * t, n) for t, n in ref], k)
    for name in ("ops_per_kref", "latency_p50_ref", "latency_tail_ref"):
        assert slow[name] == pytest.approx(fast[name])
    assert slow["wall"]["ops_per_s"] == pytest.approx(fast["wall"]["ops_per_s"] / 2)
    assert fast["samples"] == {"operations": k, "cycles": 8}
    setup = [(0.2, 0.0005), (0.25, 0.0006), (0.18, 0.00045)]
    slower = [(2 * s, 2 * r) for s, r in setup]
    assert run.setup_seconds(slower) == pytest.approx(run.setup_seconds(setup))


def test_benchmark_json_is_generated_from_metrics():
    assert (ROOT / "BENCHMARK.json").read_text() == metrics.benchmark_json()
    doc = json.loads(metrics.benchmark_json())
    assert any(m["name"] == "setup_s" for m in doc["end_to_end"])
    assert all(m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert len(doc["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])


def test_without_package_source_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "calculus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
