"""Spans around regopen's public functions, installed from outside the package.

``Tracer.install()`` wraps every public function and every public method
of the classes defined in each layer module, and rebinds the wrapped
callable wherever a loaded ``regopen`` module holds the original.  No file
of the package changes.  ``uninstall()`` puts the originals back.

Each call becomes one span record ``[name_id, parent_id, t0_ns, t1_ns, tag]``
kept in memory; ``tag`` is the size bucket of the benchmark operation in
progress.  The membership predicates and the finite-cover label lookup
run hundreds of thousands of times per cycle, so they are counted but get
no span: their time stays in the caller's self time.  Hooks read counts (spans in and out, words, verdict rules) from the
arguments and results at the same boundaries.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("rationals", "space", "cantor", "plmap", "ideals", "cover_iso", "finball",
          "boolequiv", "exprlang", "jsonio", "cli")

# tiny callables run hundreds of thousands of times: counted, never timed
HOT = {"space.Span.contains": "space.membership_tests",
       "space.Region.contains": "space.membership_tests",
       "finball.FinCover.apply": "finball.label_lookups"}

SETOPS = {"space.Region.union", "space.Region.intersect", "space.Region.difference",
          "space.Region.complement", "space.ropen_join", "space.ropen_meet", "space.ropen_neg"}
TOPOLOGY = {"space.Region.closure", "space.Region.interior", "space.Region.perp",
            "space.Region.regularize", "space.Region.is_regular_open", "space.Region.is_open",
            "space.Region.is_closed"}
REBUILDS = {"space.Region.union", "space.Region.intersect", "space.Region.difference",
            "space.Region.complement"}
CLOPEN_OPS = {"cantor.clopen_union", "cantor.clopen_inter", "cantor.clopen_compl",
              "cantor.clopen_diff"}
TRANSPORTS = {"ideals.upsilon", "ideals.omega"}
# per-layer metric families that are not a single span of the same name
FAMILIES = {"space.setop": SETOPS, "space.topology": TOPOLOGY, "cantor.clopen_op": CLOPEN_OPS,
            "ideals.transport": TRANSPORTS, "plmap.image": {"plmap.PLMap.image"},
            "plmap.preimage": {"plmap.PLMap.preimage"}}

# marks a span inherits from its ancestors, to attribute nested work
IN_IRREDUCIBLE, IN_TRANSPORT, IN_PHI = 1, 2, 4
MARKS = {"plmap.is_irreducible": IN_IRREDUCIBLE, "ideals.upsilon": IN_TRANSPORT,
         "ideals.omega": IN_TRANSPORT, "plmap.PLMap.phi": IN_PHI}


def _targets(module, layer):
    """(owner, attribute, callable, span name, is_static) for public callables."""
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield module, attr, obj, f"{layer}.{attr}", False
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for name, member in list(vars(obj).items()):
                if name.startswith("_"):
                    continue
                if isinstance(member, staticmethod):
                    yield obj, name, member.__func__, f"{layer}.{attr}.{name}", True
                elif inspect.isfunction(member):
                    yield obj, name, member, f"{layer}.{attr}.{name}", False


class Tracer:
    def __init__(self):
        self.names: list = []
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.tag = ""
        self._undo: list = []

    # --- installation ---

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"regopen.{layer}")
            for owner, attr, fn, name, static in _targets(module, layer):
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(fn, name)
                w = wrapped[id(fn)]
                self._set(owner, attr, staticmethod(w) if static else w)
        # rebind names imported into other modules (from .space import canonicalize)
        originals = {id(fn): fn for fn in (getattr(w, "__wrapped__", None) for w in wrapped.values())}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "regopen" or mod_name.startswith("regopen.")):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped and originals.get(id(val)) is val:
                    self._set(mod, attr, wrapped[id(val)])

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _wrap(self, fn, name):
        if name in HOT:
            counts, key = self.counts, HOT[name]

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return counted

        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "space.canonicalize" and len(args) > 1:
                args = (args[0], list(args[1])) + args[2:]  # raw spans may be a generator
            parent = stack[-1] if stack else -1
            rec = [nid, parent, 0, 0, tracer.tag]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer.counts, args, out, tracer.names[spans[parent][0]] if parent >= 0 else "")
            return out

        return traced

    # --- analysis ---

    def analyse(self) -> dict:
        """Self time per span and the aggregates the benchmark reports."""
        n = len(self.spans)
        child = [0] * n
        marks = [0] * n
        for sid, (nid, parent, t0, t1, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += t1 - t0
                marks[sid] = marks[parent]
            marks[sid] |= MARKS.get(self.names[nid], 0)
        agg = {
            "calls": Counter(), "self_ns": Counter(), "incl_ns": Counter(),
            "tag_self_ns": defaultdict(Counter), "layer_self_ns": Counter(),
            "phi_plmap_self_ns": Counter(), "image_in_irreducible": 0,
            "irreducible_in_transport": 0,
        }
        for sid, (nid, parent, t0, t1, tag) in enumerate(self.spans):
            name = self.names[nid]
            dur = t1 - t0
            own = dur - child[sid]
            agg["calls"][name] += 1
            agg["self_ns"][name] += own
            agg["incl_ns"][name] += dur
            agg["tag_self_ns"][name][tag] += own
            agg["layer_self_ns"][name.split(".", 1)[0]] += own
            if marks[sid] & IN_PHI and name.startswith("plmap."):
                agg["phi_plmap_self_ns"][tag] += own
            if name == "plmap.PLMap.image" and marks[sid] & IN_IRREDUCIBLE:
                agg["image_in_irreducible"] += 1
            if name == "plmap.is_irreducible" and marks[sid] & IN_TRANSPORT:
                agg["irreducible_in_transport"] += 1
        return agg

    def write(self, path, header: dict) -> None:
        """gzip'd JSON lines: the header, then one [id, parent, name, t0, t1, tag] per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, (nid, parent, t0, t1, tag) in enumerate(self.spans):
                fh.write(json.dumps([sid, parent, self.names[nid], t0, t1, tag]) + "\n")


# --- count hooks: (counts, args, result, parent span name) ---


def _canonicalize(counts, args, out, parent):
    counts["space.canonicalize.spans_in"] += len(args[1])
    counts["space.spans_out"] += len(out.region.spans)
    if parent == "plmap.PLMap.preimage":
        counts["plmap.preimage.raw_spans"] += len(args[1])


def _rebuild(counts, args, out, parent):
    counts["space.spans_out"] += len(out.spans)


def _clopen(counts, args, out, parent):
    counts["cantor.clopen_op.words_in"] += sum(len(k.words) for k in args)
    counts["cantor.clopen_op.words_out"] += len(out.words)


def _compl(counts, args, out, parent):
    _clopen(counts, args, out, parent)
    words = args[0].words
    if words and words != ("",):
        # _complement_words expands every word, then lists all 2^depth leaves
        depth = max(len(w) for w in words)
        counts["cantor.clopen_op.leaves_computed"] += (
            sum(2 ** (depth - len(w)) for w in words) + 2 ** depth)


def _phi_c(counts, args, out, parent):
    counts["cantor.phi_c.words_out"] += len(out.words)


def _verdict(counts, args, out, parent):
    if out.irreducible:
        counts["plmap.verdict.irreducible"] += 1
    elif "isolated point" in out.reason:
        counts["plmap.verdict.rule1"] += 1
    elif "constant piece" in out.reason:
        counts["plmap.verdict.rule2"] += 1
    else:
        counts["plmap.verdict.rule3"] += 1


def _essential(counts, args, out, parent):
    # the battery checks six laws and two inverse identities per sample
    counts["cover_iso.law_checks"] += out.samples * 8


def _unique(counts, args, out, parent):
    counts["finball.permutations_computed"] += math.factorial(args[1].domain.n)


def _nodes(expr) -> int:
    return 1 + sum(_nodes(getattr(expr, f)) for f in ("arg", "left", "right") if hasattr(expr, f))


def _parse(counts, args, out, parent):
    counts["exprlang.nodes"] += _nodes(out)


def _json_out(counts, args, out, parent):
    counts["jsonio.bytes_out"] += len(out.encode())


_HOOKS = {
    "space.canonicalize": _canonicalize,
    **{name: _rebuild for name in REBUILDS},
    "cantor.clopen_union": _clopen,
    "cantor.clopen_inter": _clopen,
    "cantor.clopen_diff": _clopen,
    "cantor.clopen_compl": _compl,
    "cantor.phi_c": _phi_c,
    "plmap.is_irreducible": _verdict,
    "cover_iso.check_essential": _essential,
    "finball.unique_cover_homeomorphism": _unique,
    "exprlang.parse_expr": _parse,
    "jsonio.canonical_json": _json_out,
}
