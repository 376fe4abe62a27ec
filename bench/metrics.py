"""The benchmark's metric table, the single source of BENCHMARK.json.

Every per-layer metric names the end-to-end metric and workload it should
move (``moves``); later changes cite these names.  Units: ``ms`` and ``s``
are wall time, ``count`` is an exact count over one traced cycle,
``frac`` a ratio.  ``ref`` is the time of one reference run, measured
around the operation (``reference.py``: in-process for calculus, bridge
and covers, a fresh interpreter for cli), and ``1/kref`` is operations
per thousand reference runs.

The end-to-end latencies and throughput are in reference units, not in
milliseconds, because on a shared host a core's speed moves by up to 2x
between runs, and CPU time moves with it.  Over five seeds on calculus,
on a 2-vCPU shared VM, wall-clock throughput spread by an IQR of 0.35 of
its median, and the same figures in reference units by 0.05.  The wall-clock figures stay in
each run's record, ungated.  For the same reason ``setup_s`` is set-up time
at a nominal reference speed: each fresh interpreter times its set-up and
then reference runs, and the median ratio is scaled by a fixed nominal
reference time (``run.setup_seconds``); the raw seconds stay in the record.

Definitions used below:

* ``calls``: spans of that name (or family) in one traced cycle.
* ``self_ms``: span time minus the time its child spans cover, summed.
* ``.n<spans>``, ``.d<depth>``, ``.p<pieces>``: restricted to operations of
  that size bucket.
* ``plmap.phi.self_ms.p<pieces>``: self time of ``PLMap.phi`` and of the
  plmap spans it calls (``preimage``), i.e. the plmap layer's own time
  inside phi; the canonicalisation it triggers is in ``space``.
* ``<layer>.self_frac``: that module's self time over all traced self time.
* counts labelled *computed* are derived from the inputs of the call, not
  counted inside it.
"""
from __future__ import annotations

import json

WORKLOADS = {
    "calculus": "region algebra on a mixed space, 16 to 1024 spans, construction (canonicalize) and "
                "combination split; time is space and rationals, so a boundary sweep shows here",
    "bridge": "sparse clopens of depth 8 to 16 through complement, meet, difference and psi_c/phi_c "
              "round trips; cantor's 2^depth expansion dominates, so a word trie shows here",
    "covers": "PL surjections of 4 to 64 pieces: verdicts known by construction, transports, ideal "
              "round trips, small batteries, finite covers; time runs through preimage",
    "cli": "one regopen.cli process per request over every subcommand, README examples, malformed "
           "input; start-up and import dominate, so library speedups should not show",
}

# name, unit, better, bound
END_TO_END = (
    ("ops_per_kref", "1/kref", "higher", 0.2),
    ("latency_p50_ref", "ref", "lower", 0.2),
    ("latency_tail_ref", "ref", "lower", 0.2),
    ("ok_frac", "frac", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
)

CALC, BRIDGE, COVERS, CLI = "calculus", "bridge", "covers", "cli"
CALC_BUCKETS = ("n16", "n64", "n256", "n1024")
BRIDGE_BUCKETS = ("d8", "d12", "d14", "d16")
COVER_BUCKETS = ("p4", "p16", "p64")


def _pl(name, unit, better, *moves):
    return (name, unit, better, tuple(moves))


PER_LAYER = (
    _pl("rationals.rat.calls", "count", "lower", ("ops_per_kref", CALC)),
    _pl("rationals.rat.self_ms", "ms", "lower", ("ops_per_kref", CALC)),
    _pl("rationals.parse_rat.calls", "count", "lower", ("latency_p50_ref", CLI)),
    _pl("rationals.parse_rat.self_ms", "ms", "lower", ("latency_p50_ref", CLI)),
    _pl("space.canonicalize.calls", "count", "lower", ("ops_per_kref", CALC), ("ops_per_kref", COVERS)),
    _pl("space.canonicalize.self_ms", "ms", "lower", ("ops_per_kref", CALC), ("ops_per_kref", COVERS)),
    _pl("space.canonicalize.spans_in", "count", "lower", ("ops_per_kref", CALC), ("ops_per_kref", COVERS)),
    _pl("space.spans_out", "count", "lower", ("ops_per_kref", CALC), ("ops_per_kref", COVERS)),
    _pl("space.setop.calls", "count", "lower", ("ops_per_kref", CALC), ("latency_p50_ref", CALC)),
    _pl("space.setop.self_ms", "ms", "lower", ("ops_per_kref", CALC), ("latency_p50_ref", CALC)),
    *(_pl(f"space.setop.self_ms.{b}", "ms", "lower", ("ops_per_kref", CALC), ("latency_p50_ref", CALC))
      for b in CALC_BUCKETS),
    _pl("space.topology.calls", "count", "lower", ("ops_per_kref", CALC), ("latency_p50_ref", CALC)),
    _pl("space.topology.self_ms", "ms", "lower", ("ops_per_kref", CALC), ("latency_p50_ref", CALC)),
    _pl("space.membership_tests", "count", "lower", ("ops_per_kref", CALC)),
    _pl("space.membership_per_span_out", "frac", "lower", ("ops_per_kref", CALC)),
    _pl("cantor.clopen_op.calls", "count", "lower", ("ops_per_kref", BRIDGE)),
    _pl("cantor.clopen_op.self_ms", "ms", "lower", ("ops_per_kref", BRIDGE)),
    _pl("cantor.clopen_op.words_in", "count", "lower", ("ops_per_kref", BRIDGE)),
    _pl("cantor.clopen_op.words_out", "count", "lower", ("ops_per_kref", BRIDGE)),
    *(_pl(f"cantor.clopen_op.self_ms.{b}", "ms", "lower", ("ops_per_kref", BRIDGE))
      for b in BRIDGE_BUCKETS),
    _pl("cantor.clopen_op.leaves_computed", "count", "lower", ("peak_rss_mb", BRIDGE)),
    _pl("cantor.psi_c.calls", "count", "lower", ("ops_per_kref", BRIDGE)),
    _pl("cantor.psi_c.self_ms", "ms", "lower", ("ops_per_kref", BRIDGE)),
    _pl("cantor.phi_c.calls", "count", "lower", ("ops_per_kref", BRIDGE)),
    _pl("cantor.phi_c.self_ms", "ms", "lower", ("ops_per_kref", BRIDGE)),
    _pl("cantor.phi_c.words_out", "count", "lower", ("ops_per_kref", BRIDGE)),
    _pl("plmap.image.calls", "count", "lower", ("ops_per_kref", COVERS)),
    _pl("plmap.image.self_ms", "ms", "lower", ("ops_per_kref", COVERS)),
    _pl("plmap.preimage.calls", "count", "lower", ("ops_per_kref", COVERS)),
    _pl("plmap.preimage.self_ms", "ms", "lower", ("ops_per_kref", COVERS)),
    _pl("plmap.preimage.raw_spans", "count", "lower", ("ops_per_kref", COVERS)),
    *(_pl(f"plmap.phi.self_ms.{b}", "ms", "lower", ("latency_tail_ref", COVERS))
      for b in COVER_BUCKETS),
    _pl("plmap.is_irreducible.calls", "count", "lower", ("ops_per_kref", COVERS)),
    _pl("plmap.is_irreducible.self_ms", "ms", "lower", ("ops_per_kref", COVERS)),
    _pl("plmap.is_irreducible.image_calls", "count", "lower", ("ops_per_kref", COVERS)),
    *(_pl(f"plmap.verdict.{r}", "count", "lower", ("ops_per_kref", COVERS))
      for r in ("rule1", "rule2", "rule3", "irreducible")),
    _pl("ideals.transport.calls", "count", "lower", ("ops_per_kref", COVERS)),
    _pl("ideals.transport.self_ms", "ms", "lower", ("ops_per_kref", COVERS)),
    _pl("ideals.transport.irreducible_checks_per_call", "frac", "lower", ("ops_per_kref", COVERS)),
    _pl("ideals.pl_supp.calls", "count", "lower", ("ops_per_kref", COVERS)),
    _pl("ideals.pl_supp.self_ms", "ms", "lower", ("ops_per_kref", COVERS)),
    _pl("ideals.pullback.calls", "count", "lower", ("ops_per_kref", COVERS)),
    _pl("ideals.pullback.self_ms", "ms", "lower", ("ops_per_kref", COVERS)),
    _pl("cover_iso.check_essential.calls", "count", "lower", ("latency_tail_ref", COVERS)),
    _pl("cover_iso.check_essential.self_ms", "ms", "lower", ("latency_tail_ref", COVERS)),
    _pl("cover_iso.law_checks", "count", "lower", ("latency_tail_ref", COVERS)),
    _pl("finball.verify_projective_cover.calls", "count", "lower", ("latency_tail_ref", COVERS)),
    _pl("finball.verify_projective_cover.self_ms", "ms", "lower", ("latency_tail_ref", COVERS)),
    _pl("finball.unique_cover_homeomorphism.self_ms", "ms", "lower", ("latency_tail_ref", COVERS)),
    _pl("finball.permutations_computed", "count", "lower", ("latency_tail_ref", COVERS)),
    _pl("boolequiv.equivalent.calls", "count", "lower", ("latency_p50_ref", CLI)),
    _pl("boolequiv.equivalent.self_ms", "ms", "lower", ("latency_p50_ref", CLI)),
    _pl("exprlang.parse_expr.self_ms", "ms", "lower", ("latency_p50_ref", CLI)),
    _pl("exprlang.eval_expr.self_ms", "ms", "lower", ("latency_p50_ref", CLI)),
    _pl("exprlang.nodes", "count", "lower", ("latency_p50_ref", CLI)),
    _pl("jsonio.decode.self_ms", "ms", "lower", ("latency_p50_ref", CLI)),
    _pl("jsonio.encode.self_ms", "ms", "lower", ("latency_p50_ref", CLI)),
    _pl("jsonio.bytes_out", "count", "lower", ("latency_p50_ref", CLI)),
    _pl("cli.interpreter_ms", "ms", "lower", ("latency_p50_ref", CLI), ("setup_s", "all")),
    _pl("cli.import_ms", "ms", "lower", ("latency_p50_ref", CLI), ("setup_s", "all")),
    _pl("cli.handler_ms", "ms", "lower", ("latency_p50_ref", CLI), ("ok_frac", CLI)),
    _pl("cli.exit_code_mismatches", "count", "lower", ("latency_p50_ref", CLI), ("ok_frac", CLI)),
    _pl("cli.startup_frac", "frac", "lower", ("latency_p50_ref", CLI)),
    *(_pl(f"{layer}.self_frac", "frac", "lower", ("ops_per_kref", "all"))
      for layer in ("rationals", "space", "cantor", "plmap", "ideals", "cover_iso", "finball",
                    "boolequiv", "exprlang", "jsonio", "cli")),
    _pl("trace.overhead_frac", "frac", "lower", ("ops_per_kref", "all")),
)


def benchmark_json() -> str:
    doc = {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x} for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }
    return json.dumps(doc, indent=2) + "\n"


RUN_SECONDS = 15
