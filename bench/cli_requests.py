"""The cli workload: seeded requests to every subcommand, with golden bytes.

Each request runs as its own ``python -m regopen.cli`` process.  Expected
stdout is written here without the package's encoders: the README's
printed examples verbatim, and for seeded requests JSON built from the
reference calculus and from facts known by construction.  Malformed
requests must exit 2.
"""
from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction as Q
from pathlib import Path

import refimpl as ref
import regopen
from workloads import (
    DEFECT_DEEP_PERP,
    DEFECT_STRING_FLAG,
    UNIT_COMPS,
    Op,
    _increasing,
    _nonneg_func,
    _open_spans,
    _support_spans,
)

NOTE = ("base cylinders suffice: any closed set missing a point of C "
        "misses a whole cylinder around it")
LAWS = ("phi_join", "phi_meet", "phi_neg", "psi_join", "psi_meet", "psi_neg")
DEEP_PERP = 3000
REFERENCE_PY = Path(__file__).resolve().parent / "reference.py"
SEEDED_SETS = 2  # each set sends every seeded request once


def cj(obj) -> str:
    """Canonical JSON: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class CliRunner:
    """Runs one CLI process per request and keeps the largest child's RSS."""

    def __init__(self):
        src = Path(regopen.__file__).resolve().parent.parent
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.peak_rss_kb = 0

    def run(self, argv) -> tuple:
        proc = subprocess.Popen(
            [sys.executable, "-m", "regopen.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=self.env,
        )
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out

    def reference(self) -> None:
        """The reference run of this workload: the reference kernel as a process."""
        subprocess.run([sys.executable, str(REFERENCE_PY)], env=self.env, check=True)


def run_in_process(argv) -> tuple:
    """The same request through ``regopen.cli.main`` in this process.

    An exception that escapes ``main`` exits 1, as it does in a process
    of its own.
    """
    from regopen import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the interpreter would print a traceback and exit 1
            code = 1
    return code, buf.getvalue().encode()


# --- JSON written independently of jsonio ---


def space_json(comps) -> dict:
    out = []
    for a, b in comps:
        if a == b:
            out.append({"kind": "point", "at": str(a)})
        else:
            out.append({"kind": "interval", "a": str(a), "b": str(b)})
    return {"components": out}


def region_in(spans) -> str:
    return cj(ref.region_json(spans))


def pieces_json(xs, ys) -> list:
    """The affine pieces interpolating (xs[i], ys[i])."""
    pieces = []
    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
        slope = (y1 - y0) / (x1 - x0)
        pieces.append({"src_lo": str(x0), "src_hi": str(x1), "slope": str(slope),
                       "intercept": str(y0 - slope * x0)})
    return pieces


def map_json(xs, ys) -> str:
    """An interval map [0,1] -> [0,1] through the breakpoints."""
    return cj({"domain": space_json(UNIT_COMPS), "codomain": space_json(UNIT_COMPS),
               "pieces": [pieces_json(xs, ys)], "point_images": []})


def ideal_json(spans) -> dict:
    return {"space": space_json(UNIT_COMPS), "support": ref.region_json(spans)}


def blocks(mask: int, depth: int, prefix: str = "") -> list:
    """Canonical antichain of a cell mask: maximal aligned blocks, in order."""
    size = 1 << (depth - len(prefix))
    start = (int(prefix, 2) if prefix else 0) * size
    cells = (mask >> start) & ((1 << size) - 1)
    if cells == (1 << size) - 1:
        return [prefix]
    if not cells:
        return []
    return blocks(mask, depth, prefix + "0") + blocks(mask, depth, prefix + "1")


def invariant(kinds) -> dict:
    isol = "omega" if "convseq" in kinds else kinds.count("point")
    return {"isol_card": isol, "perfect_nonempty": "interval" in kinds or "cantor" in kinds}


# --- the region expression language, evaluated by the reference ---

UNARY = {"cl": "closure", "int": "interior", "reg": "regularize", "perp": "perp", "neg": "perp"}
BINARY = {"join": "join", "meet": "intersect", "union": "union", "inter": "intersect",
          "diff": "difference"}


def _expr(rng, comps, depth, bound):
    """(text, reference spans) of a random expression."""
    if depth == 0 or rng.random() < 0.25:
        pick = rng.random()
        if pick < 0.2:
            return "v", bound
        if pick < 0.35:
            c = Q(rng.randint(-4, 36), 8)
            return f"pt({c})", ref.canonical(comps, [(c, c, True, True)])
        a, b = sorted(rng.sample(range(-4, 37), 2))
        a, b = Q(a, 8), Q(b, 8)
        return f"I({a},{b})", ref.canonical(comps, [(a, b, False, False)])
    if rng.random() < 0.4:
        op = rng.choice(sorted(UNARY))
        text, val = _expr(rng, comps, depth - 1, bound)
        return f"{op}({text})", ref.unary(comps, UNARY[op], val)
    op = rng.choice(sorted(BINARY))
    lt, lv = _expr(rng, comps, depth - 1, bound)
    rt, rv = _expr(rng, comps, depth - 1, bound)
    return f"{op}({lt},{rt})", ref.binary(comps, BINARY[op], lv, rv)


def cli_ops(rng) -> tuple:
    runner = CliRunner()
    ops: list[Op] = []

    def add(kind, argv, expect_code, expect_out=None, defect="", pred=None):
        argv = tuple(argv)

        def check(out):
            code, stdout = out
            if code != expect_code:
                return False
            if expect_out is not None:
                return stdout == (expect_out + "\n").encode()
            lines = stdout.decode().splitlines()
            if len(lines) != 1:
                return False
            return pred(json.loads(lines[0])) if pred else True

        ops.append(Op(kind, "cli", lambda: runner.run(argv), check, defect, argv, expect_code))

    unit = cj(space_json(UNIT_COMPS))

    # the README's printed examples
    add("readme_region_eval",
        ["region", "eval", "--space", unit, "--expr", "join(reg(I(0,1/2)),perp(I(1/4,3/4)))"], 0,
        '{"closed":false,"open":true,"region":{"spans":[{"hi":"1/2","hi_incl":false,"lo":"0",'
        '"lo_incl":true},{"hi":"1","hi_incl":true,"lo":"3/4","lo_incl":false}]},"regular_open":true}')
    add("readme_cantor_phi",
        ["cantor", "phi", "--region",
         '{"spans":[{"lo":"1/4","hi":"3/4","lo_incl":false,"hi_incl":false}]}', "--depth", "2"],
        0, '{"words":["01","10"]}')
    all_true = cj({k: True for k in ("all_ok", "irreducible", "onto_sandwich", "phi_eq_cl_preimage",
                                     "psi_inverts_phi", "rigid", "surjective")})
    add("readme_gleason", ["gleason", "--points", "3"], 0, all_true)

    def cantor_check(depth, samples, seed):
        return cj({
            "bridge": {"checks": 8 * samples, "depth": depth, "failures": [], "ok": True,
                       "samples": samples, "seed": seed},
            "irreducible": {"cylinders_checked": 2 ** (depth + 1) - 2, "depth": depth,
                            "note": NOTE, "ok": True},
        })

    add("readme_cantor_check", ["cantor", "check", "--depth", "6", "--samples", "200", "--seed", "0"],
        0, cantor_check(6, 200, 0))
    both = {"isol_card": 0, "perfect_nonempty": True}
    add("readme_equiv", ["equiv", '{"components":[{"kind":"interval"}]}',
                         '{"components":[{"kind":"cantor"}]}'],
        0, cj({"equivalent": True, "left": both, "right": both}))

    for _ in range(SEEDED_SETS):
        # space info over a seeded mixed space
        e = sorted(rng.sample(range(1, 40), 5))
        comps = ((Q(0), Q(e[0], 8)), (Q(e[1], 8), Q(e[1], 8)), (Q(e[2], 8), Q(e[3], 8)),
                 (Q(e[4], 8), Q(e[4], 8)))
        pts = [a for a, b in comps if a == b]
        ivs = [(a, b) for a, b in comps if a != b]
        add("space_info", ["space", "info", "--space", cj(space_json(comps))], 0, cj({
            "atomic_part": ref.region_json([(p, p, True, True) for p in pts]),
            "atomless_part": ref.region_json([(a, b, True, True) for a, b in ivs]),
            "descriptor": {"components": [{"kind": "interval"}] * 2 + [{"kind": "point"}] * 2},
            "isolated": [str(p) for p in pts],
            "space": space_json(comps),
        }))

        # region eval: seeded expressions over the mixed space, with a binding
        for _ in range(2):
            bound = ref.canonical(comps, _open_spans(rng, 2, 40))
            text, val = _expr(rng, comps, 3, bound)
            add("region_eval", ["region", "eval", "--space", cj(space_json(comps)), "--expr", text,
                                "--bind", "v=" + region_in(bound)], 0, cj({
                "closed": ref.is_closed(comps, val), "open": ref.is_open(comps, val),
                "region": ref.region_json(val), "regular_open": ref.is_regular_open(comps, val)}))

        # covers: an increasing bijection is essential, a fold is not
        xs = [Q(i, 3) for i in range(4)]
        ys = _increasing(rng, 3, 48)
        bij = map_json(xs, ys)
        samples, seed = 4, rng.randrange(1000)
        add("cover_check", ["cover", "check", "--map", bij, "--samples", str(samples),
                            "--seed", str(seed)], 0, cj({
            "all_ok": True, "backend": "plmap", "inverse_failures": [],
            "inverse_passes": {"phi_psi_id": samples, "psi_phi_id": samples}, "irreducible": True,
            "law_failures": [], "law_passes": {k: samples for k in LAWS}, "reason": "",
            "samples": samples, "seed": seed, "surjective": True, "witness": None}))
        fold = map_json([Q(0), Q(1, 2), Q(1)], [Q(0), Q(1), Q(rng.randint(1, 7), 8)])
        add("cover_check_fold", ["cover", "check", "--map", fold, "--samples", "2", "--seed", "0"], 1,
            pred=lambda out: out["irreducible"] is False and out["witness"] is not None)
        v = _open_spans(rng, 3, 48)
        add("cover_phi", ["cover", "phi", "--map", bij, "--region", region_in(v)], 0,
            cj({"region": ref.region_json(ref.map_spans(ys, xs, v))}))
        u = _open_spans(rng, 3, 48)
        add("cover_psi", ["cover", "psi", "--map", bij, "--region", region_in(u)], 0,
            cj({"region": ref.region_json(ref.map_spans(xs, ys, u))}))

        # the word/interval bridge
        words = sorted({"".join(rng.choice("01") for _ in range(rng.randint(1, 6))) for _ in range(3)})
        mask = ref.word_mask(words, 6)
        add("cantor_psi", ["cantor", "psi", "--clopen", cj({"words": words})], 0,
            cj({"region": ref.region_json(ref.mask_runs(mask, 6))}))
        mask = rng.getrandbits(16) | 1
        add("cantor_phi", ["cantor", "phi", "--region", region_in(ref.mask_runs(mask, 4)),
                           "--depth", "5"], 0, cj({"words": blocks(mask, 4)}))
        seed = rng.randrange(1000)
        add("cantor_check", ["cantor", "check", "--depth", "3", "--samples", "4", "--seed", str(seed)],
            0, cantor_check(3, 4, seed))
        add("gleason", ["gleason", "--points", str(rng.randint(2, 5))], 0, all_true)

        # ideals
        zs, vs = _nonneg_func(rng, 4)
        f = cj({"space": space_json(UNIT_COMPS), "pieces": [pieces_json(zs, vs)], "point_values": []})
        fsupp = _support_spans(zs, vs)
        add("ideal_supp", ["ideal", "supp", "--func", f], 0, cj({"region": ref.region_json(fsupp)}))
        j1, j2 = _open_spans(rng, 2, 32), _open_spans(rng, 2, 32)
        member = not ref.binary(UNIT_COMPS, "difference", fsupp, j1)
        add("ideal_member", ["ideal", "member", "--func", f, "--ideal", cj(ideal_json(j1))],
            0 if member else 1, cj({"member": member}))
        for op, val in (("join", ref.binary(UNIT_COMPS, "join", j1, j2)),
                        ("meet", ref.binary(UNIT_COMPS, "meet", j1, j2))):
            add(f"ideal_{op}", ["ideal", op, "--ideal", cj(ideal_json(j1)), "--right",
                                cj(ideal_json(j2))], 0, cj(ideal_json(val)))
        for op in ("neg", "annihilator"):
            add(f"ideal_{op}", ["ideal", op, "--ideal", cj(ideal_json(j1))], 0,
                cj(ideal_json(ref.unary(UNIT_COMPS, "perp", j1))))
        add("ideal_upsilon", ["ideal", "upsilon", "--map", bij, "--ideal", cj(ideal_json(j1))], 0,
            cj(ideal_json(ref.map_spans(ys, xs, j1))))
        add("ideal_omega", ["ideal", "omega", "--map", bij, "--ideal", cj(ideal_json(j2))], 0,
            cj(ideal_json(ref.map_spans(xs, ys, j2))))

        # Boolean equivalence of descriptors, and composition of two covers
        kinds = ("interval", "point", "convseq", "cantor")
        left = [rng.choice(kinds) for _ in range(rng.randint(1, 3))]
        right = [rng.choice(kinds) for _ in range(rng.randint(1, 3))]
        li, ri = invariant(left), invariant(right)
        add("equiv", ["equiv", cj({"components": [{"kind": k} for k in left]}),
                      cj({"components": [{"kind": k} for k in right]})],
            0 if li == ri else 1, cj({"equivalent": li == ri, "left": li, "right": ri}))
        other = map_json(xs, _increasing(rng, 3, 48))
        add("compose", ["compose", "--left", bij, "--right", other], 0,
            cj({"domain_key": "I(0,1)", "ok": True}))

    # malformed requests: exit 2 with one JSON error line
    def is_error(out):
        return "error" in out

    add("bad_json", ["space", "info", "--space", '{"components":'], 2, pred=is_error)
    add("bad_kind", ["space", "info", "--space", '{"components":[{"kind":"blob"}]}'], 2,
        pred=is_error)
    add("bad_rational", ["region", "eval", "--space", unit, "--expr", "I(0,1/0)"], 2, pred=is_error)
    add("bad_syntax", ["region", "eval", "--space", unit, "--expr", "join(I(0,1),"], 2,
        pred=is_error)
    add("bad_outside", ["cantor", "phi", "--region",
                        '{"spans":[{"lo":"0","hi":"2","lo_incl":true,"hi_incl":true}]}'], 2,
        pred=is_error)
    add("bad_missing_key", ["ideal", "supp", "--func", cj({"space": space_json(UNIT_COMPS)})], 2,
        pred=is_error)

    # known defects, kept at a fixed share: both are malformed input
    flags = cj({"spans": [{"lo": "1/4", "hi": "1/2", "lo_incl": "false", "hi_incl": "false"}]})
    add("string_flag", ["cover", "psi", "--map", bij, "--region", flags], 2, pred=is_error,
        defect=DEFECT_STRING_FLAG)
    deep = "perp(" * DEEP_PERP + "I(0,1/2)" + ")" * DEEP_PERP
    add("deep_perp", ["region", "eval", "--space", unit, "--expr", deep], 2, pred=is_error,
        defect=DEFECT_DEEP_PERP)

    sizes = {"requests": len(ops), "readme_examples": 5, "seeded_sets": SEEDED_SETS, "malformed": 6,
             "known_defects": 2, "deep_perp_nesting": DEEP_PERP}
    return ops, sizes, runner
