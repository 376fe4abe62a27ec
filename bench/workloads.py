"""Seeded workloads: each is a fixed cycle of checked operations.

``build(name, seed)`` returns a :class:`Workload` whose ``ops`` form one
cycle.  The operation mix (kinds, size buckets and their counts) is fixed
per workload; the seed only changes the values the operations run on.
Every operation carries a check against an answer the timed call did not
compute: the reference calculus in :mod:`refimpl`, cell masks, or facts
known by construction.  Operations that hit a known defect of the package
stay in the mix and are labelled with the defect class.

The benchmark makes its own inputs and never calls the package's random
generators, so a change to those cannot move the workload.  Package
functions are reached through module attributes at call time, so the
tracer's rebinding sees every call the benchmark makes.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction as Q
from typing import Any, Callable

import refimpl as ref
from regopen import cantor as C
from regopen import cover_iso as CI
from regopen import finball as FB
from regopen import ideals as ID
from regopen import plmap as PM
from regopen import space as S

# known defect classes the mix keeps at a fixed share
DEFECT_PERMUTED_COVER = "finite-bijective-cover-permuted-labels"
DEFECT_STRING_FLAG = "string-typed-lo_incl"
DEFECT_DEEP_PERP = "deeply-nested-perp"


@dataclass
class Op:
    kind: str
    bucket: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    defect: str = ""
    argv: tuple = ()  # cli requests: the command line, for in-process runs
    expect_code: Any = None  # cli requests: the exit code the contract demands


@dataclass
class Workload:
    name: str
    seed: int
    ops: list
    sizes: dict = field(default_factory=dict)
    runner: Any = None  # cli: the subprocess runner, which tracks child memory


def _once(fn):
    """Memoise a zero-argument expected-answer thunk."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


def spans_of(region) -> tuple:
    return tuple((s.lo, s.hi, s.lo_incl, s.hi_incl) for s in region.spans)


def _norm(x):
    if isinstance(x, S.Region):
        return ("R", tuple((str(a), str(b), c, d) for a, b, c, d in spans_of(x)))
    if isinstance(x, S.CanonicalizeResult):
        return ("canon", _norm(x.region), x.clipped)
    if isinstance(x, C.CantorClopen):
        return ("K", x.words)
    if isinstance(x, ID.RegIdeal):
        return ("J", _norm(x.support))
    if isinstance(x, PM.IrreducibilityVerdict):
        return ("V", x.irreducible, x.reason, _norm(x.witness))
    if hasattr(x, "to_json"):
        return ("report", json.dumps(x.to_json(), sort_keys=True, default=str))
    if isinstance(x, dict):
        return ("dict", tuple(sorted((str(k), _norm(v)) for k, v in x.items())))
    if isinstance(x, (tuple, list)):
        return tuple(_norm(v) for v in x)
    if isinstance(x, bytes):
        return x.decode("utf-8", "replace")
    return repr(x)


def digest(result) -> str:
    """Stable digest of an operation's result."""
    return hashlib.sha256(repr(_norm(result)).encode()).hexdigest()[:16]


def build(name: str, seed: int) -> Workload:
    builders = {"calculus": _calculus, "bridge": _bridge, "covers": _covers, "cli": _cli}
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(builders)}")
    return builders[name](seed)


# --- calculus: the region algebra over a mixed space ---

CALC_COMPS = ((Q(0), Q(8)), (Q(9), Q(9)), (Q(10), Q(16)), (Q(17), Q(17)), (Q(18), Q(20)))
CALC_COMBINE_SIZES = (16, 64, 256, 1024)
# operand pairs per bucket: every pair runs each binary kind, the first also
# each unary kind; the counts put the median and the tail inside runs of
# operations of like cost, so that they do not jump between kinds
CALC_OPERAND_SETS = {16: 1, 64: 3, 256: 2, 1024: 1}
CALC_CONSTRUCT_SIZES = (16, 64, 256)
CALC_CONSTRUCT_PER_BUCKET = 2
CALC_UNARY = ("neg", "complement", "closure", "interior", "regularize")
CALC_BINARY = ("join", "meet", "union", "intersect", "difference")


def _space(comps) -> S.Space1D:
    return S.Space1D(tuple(S.Point(a) if a == b else S.Interval(a, b) for a, b in comps))


def _canonical_spans(rng: random.Random, comps, n: int, regular: bool) -> tuple:
    """n spans in canonical form; regular=True gives a regular open set.

    Spans sit on a grid of 4n cells per unit, never touch one another,
    and carry inclusive flags only where canonical form allows them.
    """
    intervals = [(a, b) for a, b in comps if a != b]
    points = [a for a, b in comps if a == b]
    n_pts = min(len(points), max(1, n // 8))
    n_iv = n - n_pts
    total = sum(b - a for a, b in intervals)
    den = 4 * n
    out = []
    for pt in sorted(rng.sample(points, n_pts)):
        out.append((pt, pt, True, True))
    left = n_iv
    for idx, (a, b) in enumerate(intervals):
        k = left if idx == len(intervals) - 1 else min(left, int(n_iv * (b - a) / total))
        left -= k
        if not k:
            continue
        lo_i, hi_i = int(a * den), int(b * den)
        cuts = sorted(rng.sample(range(lo_i, hi_i + 1), 2 * k))
        for j in range(k):
            lo, hi = Q(cuts[2 * j], den), Q(cuts[2 * j + 1], den)
            if regular:
                out.append((lo, hi, lo == a, hi == b))
            elif rng.random() < 0.1:
                out.append((lo, lo, True, True))
            else:
                out.append((lo, hi, rng.random() < 0.5, rng.random() < 0.5))
    out.sort()
    return tuple(out)


RAW_WIDTHS = (0, 1, 2, 3, 5, 8, 13)  # in sixteenths, taken in turn


def _raw_spans(rng: random.Random, n: int) -> tuple:
    """Overlapping, partly out-of-space raw spans, as decoded JSON gives them.

    The widths repeat a fixed cycle, so the seed moves where spans sit but
    not how much of the line they cover.
    """
    den = 16
    lo_all, hi_all = -1 * den, 21 * den
    out = []
    for i in range(n):
        lo = rng.randrange(lo_all, hi_all)
        width = RAW_WIDTHS[i % len(RAW_WIDTHS)]
        if width == 0:
            out.append((Q(lo, den), Q(lo, den), True, True))
        else:
            out.append((Q(lo, den), Q(lo + width, den), rng.random() < 0.5, rng.random() < 0.5))
    return tuple(out)


def _region(space, spans):
    # spans are canonical by construction; the benchmark's own tests check
    # that canonicalize leaves them unchanged
    return S.Region(space, tuple(S.Span(*s) for s in spans))


def _sticks_out(comps, s) -> bool:
    lo, hi, li, hi_incl = s
    if lo > hi or (lo == hi and not (li and hi_incl)):
        return False
    return not any(a <= lo and hi <= b for a, b in comps)


def _calculus(seed: int) -> Workload:
    rng = random.Random(seed)
    comps = CALC_COMPS
    X = _space(comps)
    ops: list[Op] = []

    def region_check(expected):
        return lambda out: spans_of(out) == expected()

    for n in CALC_COMBINE_SIZES:
        bucket = f"n{n}"
        for first in [True] + [False] * (CALC_OPERAND_SETS[n] - 1):
            ru, rv = (_canonical_spans(rng, comps, n, True) for _ in range(2))
            gu, gv = (_canonical_spans(rng, comps, n, False) for _ in range(2))
            u, v, gu_r, gv_r = (_region(X, s) for s in (ru, rv, gu, gv))
            for kind in CALC_BINARY:
                if kind in ("join", "meet"):
                    a, b, sa, sb = u, v, ru, rv
                else:
                    a, b, sa, sb = gu_r, gv_r, gu, gv
                call = {
                    "join": lambda a=a, b=b: S.ropen_join(a, b),
                    "meet": lambda a=a, b=b: S.ropen_meet(a, b),
                    "union": lambda a=a, b=b: a.union(b),
                    "intersect": lambda a=a, b=b: a.intersect(b),
                    "difference": lambda a=a, b=b: a.difference(b),
                }[kind]
                expected = _once(lambda k=kind, sa=sa, sb=sb: ref.binary(comps, k, sa, sb))
                ops.append(Op(kind, bucket, call, region_check(expected)))
            for kind in CALC_UNARY if first else ():
                a, sa = (u, ru) if kind == "neg" else (gu_r, gu)
                call = {
                    "neg": lambda a=a: S.ropen_neg(a),
                    "complement": lambda a=a: a.complement(),
                    "closure": lambda a=a: a.closure(),
                    "interior": lambda a=a: a.interior(),
                    "regularize": lambda a=a: a.regularize(),
                }[kind]
                expected = _once(lambda k=kind, sa=sa: ref.unary(comps, k, sa))
                ops.append(Op(kind, bucket, call, region_check(expected)))
        if n in CALC_CONSTRUCT_SIZES:
            for _ in range(CALC_CONSTRUCT_PER_BUCKET):
                raw = _raw_spans(rng, n)
                raw_spans = tuple(S.Span(*s) for s in raw)

                def check(out, raw=raw):
                    want = ref.canonical(comps, raw)
                    clipped = any(_sticks_out(comps, s) for s in raw)
                    return spans_of(out.region) == want and out.clipped == clipped

                ops.append(Op("canonicalize", bucket,
                              lambda r=raw_spans: S.canonicalize(X, r), check))
    sizes = {
        "space_components": len(comps),
        "combine_spans": list(CALC_COMBINE_SIZES),
        "operand_sets": {f"n{n}": k for n, k in CALC_OPERAND_SETS.items()},
        "construct_raw_spans": list(CALC_CONSTRUCT_SIZES),
        "construct_per_bucket": CALC_CONSTRUCT_PER_BUCKET,
        "combine_kinds": list(CALC_BINARY + CALC_UNARY),
    }
    return Workload("calculus", seed, ops, sizes)


# --- bridge: sparse deep clopens and the word/interval bridge ---

BRIDGE_DEPTHS = (8, 12, 14, 16)
BRIDGE_PAIRS = {8: 4, 12: 4, 14: 3, 16: 1}  # clopen pairs per depth; each runs every kind
BRIDGE_KINDS = ("compl", "inter", "diff", "round_trip")


def _word_lengths(depth: int) -> tuple:
    """A fixed profile: one full-depth word, one just above it, one short word.

    The short word makes phi_c list 2^(depth-4) cells on the way back.
    """
    return (depth, depth - 3, 4)


def _sparse_pair(rng: random.Random, depth: int) -> tuple:
    """Two clopens of ``_word_lengths(depth)`` words each, of fixed shape.

    Each word starts with a 3-bit prefix of its own, except that the second
    clopen's short word is a prefix of the first one's full-depth word.  No
    word of a clopen is then a prefix of another, and the pair meets in
    exactly that word, so the work of every operation is set by the depth;
    the seed picks the bits.
    """
    prefixes = ["".join(bits) for bits in itertools.product("01", repeat=3)]
    rng.shuffle(prefixes)
    lengths = _word_lengths(depth)

    def word(prefix, n):
        return prefix + "".join(rng.choice("01") for _ in range(n - len(prefix)))

    first = tuple(word(p, n) for p, n in zip(prefixes, lengths))
    second = (first[0][:4],) + tuple(word(p, n) for p, n in zip(prefixes[3:], lengths[:2]))
    return C.CantorClopen(first), C.CantorClopen(second)


def _bridge(seed: int) -> Workload:
    rng = random.Random(seed)
    ops: list[Op] = []
    for d in BRIDGE_DEPTHS:
        bucket = f"d{d}"
        for _ in range(BRIDGE_PAIRS[d]):
            k1, k2 = _sparse_pair(rng, d)
            m1 = ref.word_mask(k1.words, d)
            m2 = ref.word_mask(k2.words, d)
            full = (1 << (1 << d)) - 1

            def mask_check(want, d=d):
                return lambda out: ref.word_mask(out.words, d) == want and all(len(w) <= d for w in out.words)

            ops.append(Op("compl", bucket, lambda k=k1: C.clopen_compl(k), mask_check(full & ~m1)))
            ops.append(Op("inter", bucket, lambda a=k1, b=k2: C.clopen_inter(a, b), mask_check(m1 & m2)))
            ops.append(Op("diff", bucket, lambda a=k1, b=k2: C.clopen_diff(a, b), mask_check(m1 & ~m2)))

            def round_trip(k=k1):
                v = C.psi_c(k)
                return v, C.phi_c(v)

            def rt_check(out, m=m1, d=d):
                v, back = out
                return spans_of(v) == ref.mask_runs(m, d) and ref.word_mask(back.words, d) == m

            ops.append(Op("round_trip", bucket, round_trip, rt_check))
    sizes = {"depths": list(BRIDGE_DEPTHS), "pairs": {f"d{d}": k for d, k in BRIDGE_PAIRS.items()},
             "word_lengths": {f"d{d}": list(_word_lengths(d)) for d in BRIDGE_DEPTHS},
             "kinds": list(BRIDGE_KINDS)}
    return Workload("bridge", seed, ops, sizes)


# --- covers: piecewise-linear surjections, ideals and finite covers ---

UNIT_COMPS = ((Q(0), Q(1)),)
COVER_PIECES = (4, 16, 64)
COVER_SETS = {4: 3, 16: 2, 64: 1}  # maps per piece count; each set runs its bucket's kinds
COVER_KINDS = {
    4: ("irr_bijection", "irr_fold", "irr_constant", "irr_point", "phi", "psi",
        "transport", "pullback_supp", "essential_bijection", "essential_fold"),
    16: ("irr_bijection", "irr_fold", "irr_constant", "irr_point", "phi", "psi",
         "transport", "pullback_supp"),
    64: ("irr_bijection", "irr_fold", "phi", "psi", "transport", "pullback_supp"),
}
FINITE_GLEASON = (4, 6, 8)
FINITE_UNIQUE = (6, 8)
FINITE_PERMUTED = 4
ESSENTIAL_SAMPLES = 3


def _increasing(rng: random.Random, n: int, den: int) -> list:
    """0 < ... < 1 with n - 1 random inner values on a 1/den grid."""
    inner = sorted(rng.sample(range(1, den), n - 1))
    return [Q(0)] + [Q(i, den) for i in inner] + [Q(1)]


def _bijection(rng, p):
    xs = [Q(i, p) for i in range(p + 1)]
    ys = _increasing(rng, p, 64 * p)
    return xs, ys


def _plmap(domain_comps, xs, ys, point_images=()):
    dom = _space(domain_comps)
    return PM.plmap_from_breakpoints(dom, _space(UNIT_COMPS), list(zip(xs, ys)), point_images)


def _open_spans(rng, k, den):
    """k disjoint open spans of [0,1], inclusive only at 0 and 1 (regular open)."""
    cuts = sorted(rng.sample(range(0, den + 1), 2 * k))
    return tuple((Q(cuts[2 * j], den), Q(cuts[2 * j + 1], den),
                  cuts[2 * j] == 0, cuts[2 * j + 1] == den) for j in range(k))


def _nonneg_func(rng, q):
    """Breakpoints and values of a PL function on [0,1] with values >= 0.

    The value is positive at every other breakpoint and 0 between, so the
    support has the same number of spans whatever the seed.
    """
    zs = _increasing(rng, q, 8 * q)
    vs = [Q(rng.randint(1, 8), 8) if i % 2 == 0 else Q(0) for i in range(len(zs))]
    return zs, vs


def _support_spans(zs, vs) -> tuple:
    """{f > 0} for a PL f >= 0: positive breakpoints and any piece with a positive end."""
    raw = [(z, z, True, True) for z, v in zip(zs, vs) if v > 0]
    raw += [(zs[i], zs[i + 1], False, False)
            for i in range(len(zs) - 1) if vs[i] > 0 or vs[i + 1] > 0]
    return ref.canonical(UNIT_COMPS, raw)


def _reducible_check(m):
    def check(verdict):
        if verdict.irreducible or verdict.witness is None or verdict.witness.is_empty:
            return False
        w = verdict.witness
        rest = m.domain.full_region().difference(w)
        return w.is_open() and m.image(rest) == m.codomain.full_region()
    return check


def _covers(seed: int) -> Workload:
    rng = random.Random(seed)
    ops: list[Op] = []
    unit = _space(UNIT_COMPS)
    for p in COVER_PIECES:
        bucket = f"p{p}"
        for _ in range(COVER_SETS[p]):
            xs, ys = _bijection(rng, p)
            bij = _plmap(UNIT_COMPS, xs, ys)
            k = max(2, p // 2)
            v_spans = _open_spans(rng, k, 64 * p)
            v = _region(unit, v_spans)
            pre = _once(lambda xs=xs, ys=ys, v_spans=v_spans: ref.map_spans(ys, xs, v_spans))
            u_spans = _open_spans(rng, k, 64 * p)
            u = _region(unit, u_spans)
            img = _once(lambda xs=xs, ys=ys, u_spans=u_spans: ref.map_spans(xs, ys, u_spans))
            for kind in COVER_KINDS[p]:
                if kind == "irr_bijection":
                    ops.append(Op(kind, bucket, lambda m=bij: PM.is_irreducible(m),
                                  lambda out: out.irreducible and out.witness is None))
                elif kind == "irr_fold":
                    # the way back down stops inside the image of up piece top // 2,
                    # the first piece rule 3 finds overlapped, whatever the seed
                    top = p // 2
                    up = _increasing(rng, top, 64 * p)
                    down = _increasing(rng, p - top, 64 * p)
                    low = (up[top // 2] + up[top // 2 + 1]) / 2
                    fold_ys = up + [1 - (1 - low) * y for y in down[1:]]
                    m = _plmap(UNIT_COMPS, xs, fold_ys)
                    ops.append(Op(kind, bucket, lambda m=m: PM.is_irreducible(m), _reducible_check(m)))
                elif kind == "irr_constant":
                    flat = rng.randrange(1, p - 1)
                    const_ys = ys[:flat + 1] + [ys[flat]] + ys[flat + 1:-1]
                    const_ys[-1] = Q(1)
                    m = _plmap(UNIT_COMPS, xs, const_ys)
                    ops.append(Op(kind, bucket, lambda m=m: PM.is_irreducible(m), _reducible_check(m)))
                elif kind == "irr_point":
                    at = Q(rng.randint(1, 63), 64)
                    m = _plmap(UNIT_COMPS + ((Q(2), Q(2)),), xs, ys, ((Q(2), at),))
                    ops.append(Op(kind, bucket, lambda m=m: PM.is_irreducible(m), _reducible_check(m)))
                elif kind == "phi":
                    ops.append(Op(kind, bucket, lambda m=bij, v=v: m.phi(v),
                                  lambda out, pre=pre: spans_of(out) == pre()))
                elif kind == "psi":
                    ops.append(Op(kind, bucket, lambda m=bij, u=u: m.psi(u),
                                  lambda out, img=img: spans_of(out) == img()))
                elif kind == "transport":
                    J = ID.RegIdeal(unit, v)

                    def transport(m=bij, J=J):
                        up = ID.upsilon(m, J)
                        return up, ID.omega(m, up)

                    ops.append(Op(kind, bucket, transport,
                                  lambda out, pre=pre, v_spans=v_spans:
                                  spans_of(out[0].support) == pre() and spans_of(out[1].support) == v_spans))
                elif kind == "pullback_supp":
                    zs, vs = _nonneg_func(rng, 8)
                    f = ID.plfunc_from_breakpoints(unit, list(zip(zs, vs)))
                    want = _once(lambda zs=zs, vs=vs, xs=xs, ys=ys:
                                 ref.map_spans(ys, xs, _support_spans(zs, vs)))
                    ops.append(Op(kind, bucket, lambda m=bij, f=f: ID.pl_supp(ID.pullback(m, f)),
                                  lambda out, want=want: spans_of(out) == want()))
                elif kind in ("essential_bijection", "essential_fold"):
                    if kind == "essential_bijection":
                        m, irreducible = bij, True
                    else:
                        m, irreducible = _plmap(UNIT_COMPS, [Q(0), Q(1, 2), Q(1)],
                                                [Q(0), Q(1), Q(rng.randint(1, 7), 8)]), False
                    s = len(ops)  # the battery samples the same sizes whatever the seed

                    def essential_check(rep, irreducible=irreducible):
                        if not rep.surjective or rep.irreducible != irreducible:
                            return False
                        return rep.all_ok if irreducible else not rep.all_ok

                    ops.append(Op(kind, bucket,
                                  lambda m=m, s=s: CI.check_essential(CI.PLMapBackend(m),
                                                                      samples=ESSENTIAL_SAMPLES, seed=s),
                                  essential_check))
    for n in FINITE_GLEASON:
        labels = tuple(f"x{rng.randrange(10**6)}_{i}" for i in range(n))
        X = FB.FiniteDiscreteSpace(labels)

        def gleason(X=X):
            g = FB.gleason_cover(X)
            return g.f.table, FB.verify_projective_cover(g.P, g.f, X, g.homs)

        # the cover of a discrete space is a bijection onto it, and projective
        ops.append(Op("gleason", f"f{n}", gleason,
                      lambda out, labels=labels: sorted(v for _, v in out[0]) == sorted(labels)
                      and out[1].all_ok))
    for n in FINITE_UNIQUE:
        X = FB.FiniteDiscreteSpace(tuple(f"x{i}" for i in range(n)))
        perm = list(range(n))
        rng.shuffle(perm)
        P1 = FB.FiniteDiscreteSpace(tuple(f"p{i}" for i in range(n)))
        P2 = FB.FiniteDiscreteSpace(tuple(f"q{i}" for i in range(n)))
        f1 = FB.FinCover(P1, X, tuple((f"p{i}", f"x{i}") for i in range(n)))
        f2 = FB.FinCover(P2, X, tuple((f"q{perm[i]}", f"x{i}") for i in range(n)))
        want = {f"p{i}": f"q{perm[i]}" for i in range(n)}
        ops.append(Op("unique", f"f{n}", lambda a=f1, b=f2: FB.unique_cover_homeomorphism(a, b),
                      lambda out, want=want: out == (want, 1)))
    n = FINITE_PERMUTED
    perm = list(range(n))
    while perm == sorted(perm):
        rng.shuffle(perm)
    P = FB.FiniteDiscreteSpace(tuple(f"p{i}" for i in range(n)))
    X = FB.FiniteDiscreteSpace(tuple(f"x{i}" for i in range(n)))
    f = FB.FinCover(P, X, tuple((f"p{i}", f"x{perm[i]}") for i in range(n)))
    # a bijection onto a discrete space is a projective cover, whatever the labels
    ops.append(Op("permuted_cover", f"f{n}", lambda: FB.verify_projective_cover(P, f, X),
                  lambda rep: rep.all_ok, defect=DEFECT_PERMUTED_COVER))
    sizes = {"pieces": list(COVER_PIECES), "sets": {f"p{p}": k for p, k in COVER_SETS.items()},
             "finite_points_gleason": list(FINITE_GLEASON),
             "finite_points_unique": list(FINITE_UNIQUE), "finite_points_permuted": n,
             "essential_samples": ESSENTIAL_SAMPLES,
             "kinds": {f"p{p}": list(k) for p, k in COVER_KINDS.items()}}
    return Workload("covers", seed, ops, sizes)


# --- cli: one `python -m regopen.cli` process per request ---


def _cli(seed: int) -> Workload:
    from cli_requests import cli_ops

    ops, sizes, runner = cli_ops(random.Random(seed))
    return Workload("cli", seed, ops, sizes, runner)
