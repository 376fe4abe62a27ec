"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload calculus --seed 1 --seconds 15 --trace 0

Each workload is a single-threaded closed loop with one caller: the next
operation starts when the previous one returned.  Operations repeat in
whole cycles until ``--seconds`` have passed; every result is checked.
With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics, whose latencies are in reference units (see
``reference.py``); with ``--trace 1`` it holds the per-layer metrics of
one traced cycle.  The line before it is the full record (backend, Python,
nproc, commit, seed, size buckets, sample counts, failure classes).

Run from the root of a source checkout; the package is imported from
``src/``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 9
SETUP_REFERENCE_RUNS = 200
# about one reference run on the 2-vCPU x86-64 host, Python 3.11, the
# benchmark was tuned on; it only sets the scale of setup_s
REFERENCE_NOMINAL_S = 0.0005
REFERENCE_WINDOW = 5
REFERENCE_SHARE = 0.05
STARTUP_SAMPLES = 5
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def quantile(sorted_values, p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile.

    A weighted mean of all order statistics, with Beta((n+1)q, (n+1)(1-q))
    weights (q = p/100), so the estimate moves smoothly when neighbouring
    operations of unlike cost trade places, where the two-point rule jumps.
    """
    n = len(sorted_values)
    if n == 1:
        return sorted_values[0]
    q = p / 100
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(x):
        if x <= 0 or x >= 1:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    steps = 32  # Simpson's rule on each of the n order-statistic intervals
    total = 0.0
    for i, value in enumerate(sorted_values):
        lo, width = i / n, 1 / n
        h = width / steps
        s = pdf(lo) + pdf(lo + width)
        s += sum((4 if k % 2 else 2) * pdf(lo + k * h) for k in range(1, steps))
        total += value * s * h / 3
    return total


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 + 1e-9 >= TAIL_MIN_BEYOND:  # 100 - 99.9 is not exact
            return p
    return 50.0


# --- set-up and start-up, each measured in fresh processes ---


def _python(code: str) -> list:
    """The numbers on the last line ``code`` prints in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    return [float(x) for x in out.strip().splitlines()[-1].split()]


def measure_setup(workload: str, seed: int) -> list:
    """Import regopen and build the workload's inputs, in fresh interpreters.

    Each sample is ``(set-up seconds, seconds of one reference run)``; the
    reference runs follow the set-up in the same interpreter, so that they
    see the same core at the same moment.
    """
    code = (
        "import sys, time\n"
        "t = time.perf_counter()\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]\n"
        "import regopen, workloads\n"
        f"workloads.build({workload!r}, {seed})\n"
        "setup = time.perf_counter() - t\n"
        "from reference import kernel\n"
        "t = time.perf_counter()\n"
        f"for _ in range({SETUP_REFERENCE_RUNS}):\n"
        "    kernel()\n"
        f"print(setup, (time.perf_counter() - t) / {SETUP_REFERENCE_RUNS})\n"
    )
    _python(code)  # writes bytecode caches once, untimed
    return [tuple(_python(code)) for _ in range(SETUP_SAMPLES)]


def setup_seconds(samples) -> float:
    """Set-up time at the nominal reference speed: the median of set-up time
    over reference time, times ``REFERENCE_NOMINAL_S``.

    A set-up lasts a fifth of a second, and the speed of a shared core
    moves by up to 2x between minutes, so raw seconds of two sets of runs
    drift apart by more than any useful bound; the raw seconds stay in the
    record.
    """
    return statistics.median(setup / ref for setup, ref in samples) * REFERENCE_NOMINAL_S


def measure_startup() -> tuple:
    """Median bare interpreter start, and median import of regopen.cli beyond it (ms)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def wall(args):
        t = time.perf_counter()
        subprocess.run([sys.executable, *args], env=env, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return (time.perf_counter() - t) * 1e3

    bare = statistics.median(wall(["-c", "pass"]) for _ in range(STARTUP_SAMPLES))
    full = statistics.median(wall(["-c", "import regopen.cli"]) for _ in range(STARTUP_SAMPLES))
    return bare, full - bare


# --- reference units ---


def local_reference(ref) -> list:
    """For each operation, the mean time of the reference runs that followed
    it and the operations within ``REFERENCE_WINDOW`` of it.

    ``ref`` holds one ``(total_ns, runs)`` pair per operation.
    """
    ns, runs = [0], [0]
    for total, count in ref:
        ns.append(ns[-1] + total)
        runs.append(runs[-1] + count)
    n, w = len(ref), REFERENCE_WINDOW
    return [(ns[min(n, j + w + 1)] - ns[max(0, j - w)]) / (runs[min(n, j + w + 1)] - runs[max(0, j - w)])
            for j in range(n)]


# --- the closed loop ---


class Loop:
    """Runs operations, times each call, and checks every result."""

    def __init__(self, ops, call=None, reference=None):
        from reference import kernel

        self.ops = ops
        self.call = call or (lambda op: op.call())
        self.reference_run = reference or kernel
        self.latencies: list = []
        self.reference: list = []  # (total_ns, runs) of the reference runs after each operation
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.results_digest = None  # of the first recorded cycle's results

    def cycle(self, record=True, tracer=None) -> list:
        outs = []
        clock = time.perf_counter_ns
        for op in self.ops:
            if tracer is not None:
                tracer.tag = op.bucket
            t0 = clock()
            try:
                out = self.call(op)
            except Exception as exc:  # a raising operation is a failed one
                out = exc
            t1 = clock()
            outs.append(out)
            if record:
                self.latencies.append(t1 - t0)
                # at least one run, and REFERENCE_SHARE of the operation's time, so
                # that the speed around a long operation is known as well as its time
                runs, t2 = 0, t1
                while not runs or t2 - t1 < REFERENCE_SHARE * (t1 - t0):
                    self.reference_run()
                    runs, t2 = runs + 1, clock()
                self.reference.append((t2 - t1, runs))
        return outs

    def check(self, outs, record=True) -> None:
        if record and self.results_digest is None:
            from workloads import digest

            self.results_digest = digest([digest(out) for out in outs])
        for op, out in zip(self.ops, outs):
            ok = not isinstance(out, Exception) and _safe_check(op, out)
            if record:
                self.attempted += 1
                if not ok:
                    self.failed += 1
                    self.failures[op.defect or f"unexpected:{op.kind}"] += 1

    def run_for(self, seconds: float) -> int:
        cycles = 0
        deadline = time.perf_counter() + seconds
        while True:
            self.check(self.cycle())
            cycles += 1
            if time.perf_counter() >= deadline:
                return cycles


def _safe_check(op, out) -> bool:
    try:
        return bool(op.check(out))
    except Exception:  # a result the check cannot read is a wrong result
        return False


def latency_metrics(lat_ns, ref, k: int) -> dict:
    """Per-operation latency, then percentiles across the cycle's k operations.

    Each operation's latency is the median over the run's cycles of its
    time in reference units: wall time over the local reference time.  The
    same figures in wall-clock milliseconds go into the record ungated.
    Throughput is k over the sum of the k per-operation latencies.
    """
    rel = [t / r for t, r in zip(lat_ns, local_reference(ref))]
    per_op = sorted(statistics.median(rel[i::k]) for i in range(k))
    per_op_ms = sorted(statistics.median(lat_ns[i::k]) / 1e6 for i in range(k))
    p = tail_percentile(k)
    return {
        "ops_per_kref": 1e3 * k / sum(per_op),
        "latency_p50_ref": quantile(per_op, 50),
        "latency_tail_ref": quantile(per_op, p),
        "wall": {
            "ops_per_s": k / (sum(per_op_ms) / 1e3),
            "latency_p50_ms": quantile(per_op_ms, 50),
            "latency_tail_ms": quantile(per_op_ms, p),
            "reference_ms": statistics.median(total / runs for total, runs in ref) / 1e6,
        },
        "tail_percentile": p,
        "samples": {"operations": k, "cycles": len(lat_ns) // k},
    }


# --- record fields ---


def backend() -> str:
    from regopen.rationals import Q

    return f"{Q.__module__}.{Q.__qualname__}"


def commit() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "regopen").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    return {"commit": rev, "source_sha256": digest.hexdigest()}


# --- the two kinds of run ---


def run_plain(wl, seconds) -> tuple:
    loop = Loop(wl.ops, reference=wl.runner.reference if wl.runner else None)
    if wl.name != "cli":
        loop.check(loop.cycle(record=False), record=False)  # fill caches, compute answers
    gc.collect()
    loop.run_for(seconds)
    lat = latency_metrics(loop.latencies, loop.reference, len(wl.ops))
    if wl.runner is not None:
        peak_kb = wl.runner.peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {name: lat[name] for name in ("ops_per_kref", "latency_p50_ref", "latency_tail_ref")}
    metrics["ok_frac"] = 1 - loop.failed / loop.attempted
    metrics["peak_rss_mb"] = peak_kb / 1024
    info = {
        "estimator": "each operation's median over the cycles of its time over the reference "
                     "time around it; percentiles across the cycle's operations",
        "samples": lat["samples"],
        "tail_percentile": lat["tail_percentile"],
        "wall": lat["wall"],
        "failed_frac": loop.failed / loop.attempted,
    }
    return loop, metrics, info


def in_process_caller(wl):
    """How a traced run calls operations: cli requests go through cli.main."""
    if wl.name != "cli":
        return None
    from cli_requests import run_in_process

    return lambda op: run_in_process(op.argv)


def traced_cycle(wl, call=None) -> tuple:
    """One cycle with every public regopen callable wrapped; checks run after."""
    from tracer import Tracer

    tracer = Tracer()
    loop = Loop(wl.ops, call)
    tracer.install()
    try:
        outs = loop.cycle(tracer=tracer)
    finally:
        tracer.uninstall()
    loop.check(outs)
    return loop, outs, tracer


def run_traced(wl, seconds) -> tuple:
    """Untraced and traced cycles alternate for ``seconds``; the metrics come
    from the first traced cycle, the overhead from all of them."""
    call = in_process_caller(wl)
    plain = Loop(wl.ops, call)
    if wl.name != "cli":
        plain.check(plain.cycle(record=False), record=False)
    gc.collect()
    first = None
    traced_lat: list = []
    traced_ref: list = []
    deadline = time.perf_counter() + seconds
    while first is None or time.perf_counter() < deadline:
        plain.check(plain.cycle())
        loop, cycle_outs, cycle_tracer = traced_cycle(wl, call)
        traced_lat += loop.latencies
        traced_ref += loop.reference
        if first is None:
            first = loop, cycle_outs, cycle_tracer
    traced_loop, outs, tracer = first
    untraced = latency_metrics(plain.latencies, plain.reference, len(wl.ops))
    traced = latency_metrics(traced_lat, traced_ref, len(wl.ops))
    handler_ms = untraced["wall"]["latency_p50_ms"] if wl.name == "cli" else 0.0
    overhead = untraced["ops_per_kref"] / traced["ops_per_kref"] - 1

    mismatches = sum(1 for op, out in zip(wl.ops, outs)
                     if op.expect_code is not None
                     and (isinstance(out, Exception) or out[0] != op.expect_code))
    interpreter_ms, import_ms = measure_startup()
    startup = interpreter_ms + import_ms
    values = per_layer(tracer, {
        "cli.interpreter_ms": interpreter_ms,
        "cli.import_ms": import_ms,
        "cli.handler_ms": handler_ms,
        "cli.exit_code_mismatches": mismatches,
        "cli.startup_frac": startup / (startup + handler_ms) if handler_ms else 0.0,
        "trace.overhead_frac": overhead,
    })
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{wl.name}.jsonl.gz"
    tracer.write(spans_file, {"workload": wl.name, "seed": wl.seed, "counts": dict(tracer.counts)})
    info = {
        "samples": {"traced": traced["samples"], "untraced": untraced["samples"]},
        "spans": len(tracer.spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "failed_frac": traced_loop.failed / traced_loop.attempted,
    }
    return traced_loop, values, info


def per_layer(tracer, extra) -> dict:
    """Every metric of ``metrics.PER_LAYER`` for one traced cycle.

    ``<family>.calls`` and ``<family>.self_ms[.<bucket>]`` sum the spans of
    the family (a single span name unless ``FAMILIES`` says otherwise);
    ratios and the cli timings come from ``derived`` and ``extra``; every
    other name is one of the tracer's counts.
    """
    from metrics import COVER_BUCKETS, PER_LAYER
    from tracer import FAMILIES, LAYERS, TRANSPORTS

    agg = tracer.analyse()
    calls, self_ns, counts = agg["calls"], agg["self_ns"], tracer.counts
    families = dict(FAMILIES)
    families["jsonio.decode"] = {n for n in tracer.names if n.startswith("jsonio.decode_")}
    families["jsonio.encode"] = {n for n in tracer.names
                                 if n.startswith("jsonio.encode_") or n == "jsonio.canonical_json"}
    total = sum(agg["layer_self_ns"].values())
    derived = {
        **extra,
        "space.membership_per_span_out": _ratio(counts["space.membership_tests"],
                                                counts["space.spans_out"]),
        "plmap.is_irreducible.image_calls": agg["image_in_irreducible"],
        "ideals.transport.irreducible_checks_per_call": _ratio(
            agg["irreducible_in_transport"], sum(calls[n] for n in TRANSPORTS)),
        **{f"plmap.phi.self_ms.{b}": agg["phi_plmap_self_ns"][b] / 1e6 for b in COVER_BUCKETS},
        **{f"{layer}.self_frac": _ratio(agg["layer_self_ns"][layer], total) for layer in LAYERS},
    }

    def spans(family):
        names = families.get(family, {family})
        unknown = set(names) - set(tracer.names)
        if unknown or not names:
            raise KeyError(f"{family}: no traced callable {sorted(unknown)}")
        return names

    values = {}
    for name, *_ in PER_LAYER:
        family, timed, bucket = name.partition(".self_ms")
        if name in derived:
            values[name] = derived[name]
        elif name.endswith(".calls"):
            values[name] = sum(calls[n] for n in spans(name[:-len(".calls")]))
        elif timed and bucket:
            values[name] = sum(agg["tag_self_ns"][n][bucket[1:]] for n in spans(family)) / 1e6
        elif timed:
            values[name] = sum(self_ns[n] for n in spans(family)) / 1e6
        else:
            values[name] = counts[name]
    return values


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(BENCH)]
    import metrics

    if args.workload not in metrics.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(metrics.WORKLOADS)}")
    if not (SRC / "regopen" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'regopen'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC)]
    seconds = metrics.RUN_SECONDS if args.seconds is None else args.seconds

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    import workloads

    wl = workloads.build(args.workload, args.seed)
    if args.trace:
        loop, values, info = run_traced(wl, seconds)
        units = {name: unit for name, unit, *_ in metrics.PER_LAYER}
    else:
        loop, values, info = run_plain(wl, seconds)
        values["setup_s"] = setup_seconds(setup)
        info["samples"]["setup_s"] = len(setup)
        info["setup_wall_s"] = [s for s, _ in setup]
        info["setup_reference_s"] = [r for _, r in setup]
        units = {name: unit for name, unit, *_ in metrics.END_TO_END}
    unexpected = {k: n for k, n in loop.failures.items() if k.startswith("unexpected:")}
    record = {
        "workload": wl.name, "seed": wl.seed, "trace": args.trace, "seconds": seconds,
        "backend": backend(), "python": platform.python_version(), "nproc": os.cpu_count(),
        **commit(), "sizes": wl.sizes, "ops_per_cycle": len(wl.ops),
        "failures": dict(loop.failures), "results_digest": loop.results_digest, **info,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
