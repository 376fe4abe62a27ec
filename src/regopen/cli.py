"""Command-line surface: JSON in, canonical JSON out, exit codes that
separate negative verdicts (1) from malformed input (2).
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import jsonio  # every handler writes through it; each imports the rest it needs
from .errors import ExprSyntaxError, NotIrreducible, NotSurjective, RegopenError

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2

# `gleason` enumerates every subset for each point, n·2ⁿ work: 16 points
# take a few seconds, 30 would take hours.
MAX_GLEASON_POINTS = 16
# `cantor check` drops each of the 2^(d+1) - 2 cylinders of depth at most d,
# O(2^d·d) work in all, then runs the bridge battery on dense random clopens
# of depth up to d, which dominates.  On a 2-vCPU VM with the default 200
# samples depth 8 takes about 1.4 s and depth 10 about 4 s (0.25 s of it the
# cylinder check); depth 40 never ends.
MAX_CANTOR_CHECK_DEPTH = 10


def _load(source: str):
    """A JSON value, inline if the argument starts with a brace or bracket, else a file."""
    if source is None:
        raise ValueError("a JSON argument this operation needs is missing")
    if source.lstrip()[:1] in ("{", "["):
        return json.loads(source)
    with open(source, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(payload) -> None:
    sys.stdout.write(jsonio.canonical_json(payload) + "\n")


def _descriptor_from(source: str):
    from . import boolequiv
    data = jsonio._object(_load(source), "a descriptor")
    comps = data.get("components", [])
    if comps and ("a" in comps[0] or "at" in comps[0]):
        return boolequiv.from_space1d(jsonio.decode_space(data))
    return boolequiv.descriptor_from_json(data)


def _cmd_space_info(args) -> int:
    from . import boolequiv
    from .space import decompose_space
    space = jsonio.decode_space(_load(args.space))
    dec = decompose_space(space)
    _emit(
        {
            "space": jsonio.encode_space(space),
            "isolated": [jsonio.rat_str(x) for x in dec.isolated],
            "atomic_part": jsonio.encode_region(dec.atomic_part),
            "atomless_part": jsonio.encode_region(dec.atomless_part),
            "descriptor": boolequiv.from_space1d(space).to_json(),
        }
    )
    return EXIT_OK


def _cmd_region_eval(args) -> int:
    from .exprlang import eval_expr, parse_expr
    space = jsonio.decode_space(_load(args.space))
    bindings = {}
    for item in args.bind or []:
        name, _, src = item.partition("=")
        if not _ or not name:
            raise ValueError(f"binding {item!r} is not NAME=JSON")
        bindings[name] = jsonio.decode_region(space, _load(src))
    result = eval_expr(parse_expr(args.expr), space, bindings)
    _emit(
        {
            "region": jsonio.encode_region(result.region),
            "open": result.open,
            "closed": result.closed,
            "regular_open": result.regular_open,
        }
    )
    return EXIT_OK


def _cmd_cover_check(args) -> int:
    from .cover_iso import PLMapBackend, check_essential
    m = jsonio.decode_plmap(_load(args.map))
    report = check_essential(PLMapBackend(m), samples=args.samples, seed=args.seed)
    _emit(report.to_json())
    return EXIT_OK if report.all_ok else EXIT_VERDICT


def _cmd_cover_psi_phi(args, which: str) -> int:
    m = jsonio.decode_plmap(_load(args.map))
    space = m.domain if which == "psi" else m.codomain
    region = jsonio.decode_region(space, _load(args.region))
    out = m.psi(region) if which == "psi" else m.phi(region)
    _emit({"region": jsonio.encode_region(out)})
    return EXIT_OK


def _cmd_cantor_check(args) -> int:
    from . import cantor
    from .cover_iso import verify_bridge
    if args.depth > MAX_CANTOR_CHECK_DEPTH:
        raise ValueError(f"--depth is at most {MAX_CANTOR_CHECK_DEPTH}")
    irr = cantor.check_irreducible_cantor(args.depth)
    bridge = verify_bridge(args.depth, args.samples, args.seed)
    _emit({"irreducible": irr.to_json(), "bridge": bridge.to_json()})
    return EXIT_OK if irr.ok and bridge.ok else EXIT_VERDICT


def _cmd_cantor_psi(args) -> int:
    from . import cantor
    k = jsonio.decode_clopen(_load(args.clopen))
    _emit({"region": jsonio.encode_region(cantor.psi_c(k))})
    return EXIT_OK


def _cmd_cantor_phi(args) -> int:
    from . import cantor
    region = jsonio.decode_region(cantor.UNIT_INTERVAL, _load(args.region))
    k = cantor.phi_c(region, depth=args.depth)
    _emit(jsonio.encode_clopen(k))
    return EXIT_OK


def _cmd_gleason(args) -> int:
    from .finball import FiniteDiscreteSpace, gleason_cover, verify_projective_cover
    if args.points > MAX_GLEASON_POINTS:
        raise ValueError(f"--points is at most {MAX_GLEASON_POINTS}")
    labels = tuple(f"x{i}" for i in range(args.points))
    space = FiniteDiscreteSpace(labels)
    result = gleason_cover(space)
    report = verify_projective_cover(result.P, result.f, space, result.homs)
    _emit(report.to_json())
    return EXIT_OK if report.all_ok else EXIT_VERDICT


def _cmd_ideal(args) -> int:
    from .ideals import ideal_join, ideal_meet, ideal_neg, in_ideal, omega, pl_supp, upsilon
    op = args.op
    if op == "supp":
        f = jsonio.decode_plfunc(_load(args.func))
        _emit({"region": jsonio.encode_region(pl_supp(f))})
        return EXIT_OK
    if op == "member":
        f = jsonio.decode_plfunc(_load(args.func))
        j = jsonio.decode_ideal(_load(args.ideal))
        verdict = in_ideal(f, j)
        _emit({"member": verdict})
        return EXIT_OK if verdict else EXIT_VERDICT
    if op in ("neg", "annihilator"):  # the annihilator is the pseudocomplement
        j = jsonio.decode_ideal(_load(args.ideal))
        _emit(jsonio.encode_ideal(ideal_neg(j)))
        return EXIT_OK
    if op in ("join", "meet"):
        j1 = jsonio.decode_ideal(_load(args.ideal))
        j2 = jsonio.decode_ideal(_load(args.right))
        out = ideal_join(j1, j2) if op == "join" else ideal_meet(j1, j2)
        _emit(jsonio.encode_ideal(out))
        return EXIT_OK
    # upsilon / omega
    pi = jsonio.decode_plmap(_load(args.map))
    j = jsonio.decode_ideal(_load(args.ideal))
    out = upsilon(pi, j) if op == "upsilon" else omega(pi, j)
    _emit(jsonio.encode_ideal(out))
    return EXIT_OK


def _cmd_equiv(args) -> int:
    from . import boolequiv
    verdict = boolequiv.equivalent(
        _descriptor_from(args.left), _descriptor_from(args.right)
    )
    _emit(verdict.to_json())
    return EXIT_OK if verdict.equivalent else EXIT_VERDICT


def _cmd_compose(args) -> int:
    from .cover_iso import PLMapBackend, compose_equivalence
    left = jsonio.decode_plmap(_load(args.left))
    right = jsonio.decode_plmap(_load(args.right))
    ce = compose_equivalence(PLMapBackend(left, "left"), PLMapBackend(right, "right"))
    if args.region is None:
        _emit({"ok": True, "domain_key": ce.f.dom.key})
        return EXIT_OK
    forward = args.direction == "forward"
    v = jsonio.decode_region(right.codomain if forward else left.codomain, _load(args.region))
    out = ce.forward(v) if forward else ce.backward(v)
    _emit({"region": jsonio.encode_region(out)})
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Malformed arguments are malformed input: one JSON error line and exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="regopen", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("space", help="space inspection")
    sp_sub = sp.add_subparsers(dest="subcommand", required=True)
    info = sp_sub.add_parser("info")
    info.add_argument("--space", required=True)
    info.set_defaults(handler=_cmd_space_info)

    rg = sub.add_parser("region", help="region expressions")
    rg_sub = rg.add_subparsers(dest="subcommand", required=True)
    ev = rg_sub.add_parser("eval")
    ev.add_argument("--space", required=True)
    ev.add_argument("--expr", required=True)
    ev.add_argument("--bind", action="append", metavar="NAME=JSON")
    ev.set_defaults(handler=_cmd_region_eval)

    cv = sub.add_parser("cover", help="piecewise-linear covers")
    cv_sub = cv.add_subparsers(dest="subcommand", required=True)
    ck = cv_sub.add_parser("check")
    ck.add_argument("--map", required=True)
    ck.add_argument("--samples", type=int, default=100)
    ck.add_argument("--seed", type=int, default=0)
    ck.set_defaults(handler=_cmd_cover_check)
    for which in ("psi", "phi"):
        pp = cv_sub.add_parser(which)
        pp.add_argument("--map", required=True)
        pp.add_argument("--region", required=True)
        pp.set_defaults(handler=lambda args, w=which: _cmd_cover_psi_phi(args, w))

    cn = sub.add_parser("cantor", help="the binary-expansion cover")
    cn_sub = cn.add_subparsers(dest="subcommand", required=True)
    cc = cn_sub.add_parser("check")
    cc.add_argument("--depth", type=int, default=6)
    cc.add_argument("--samples", type=int, default=200)
    cc.add_argument("--seed", type=int, default=0)
    cc.set_defaults(handler=_cmd_cantor_check)
    cp = cn_sub.add_parser("psi")
    cp.add_argument("--clopen", required=True)
    cp.set_defaults(handler=_cmd_cantor_psi)
    cf = cn_sub.add_parser("phi")
    cf.add_argument("--region", required=True)
    cf.add_argument("--depth", type=int, default=None)
    cf.set_defaults(handler=_cmd_cantor_phi)

    gl = sub.add_parser("gleason", help="finite projective covers")
    gl.add_argument("--points", type=int, required=True)
    gl.set_defaults(handler=_cmd_gleason)

    idl = sub.add_parser("ideal", help="regular ideals")
    idl.add_argument(
        "op",
        choices=["supp", "member", "join", "meet", "neg", "annihilator", "upsilon", "omega"],
    )
    idl.add_argument("--func")
    idl.add_argument("--ideal")
    idl.add_argument("--right")
    idl.add_argument("--map")
    idl.set_defaults(handler=_cmd_ideal)

    eq = sub.add_parser("equiv", help="Boolean equivalence of descriptors")
    eq.add_argument("left")
    eq.add_argument("right")
    eq.set_defaults(handler=_cmd_equiv)

    co = sub.add_parser("compose", help="compose two covers over a common domain")
    co.add_argument("--left", required=True)
    co.add_argument("--right", required=True)
    co.add_argument("--region")
    co.add_argument("--direction", choices=["forward", "backward"], default="forward")
    co.set_defaults(handler=_cmd_compose)

    return top


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except ExprSyntaxError as exc:
        _emit(
            {
                "error": str(exc),
                "at": {
                    "line": exc.line,
                    "col": exc.col,
                    "expected": list(exc.expected),
                    "found": exc.found,
                },
            }
        )
        return EXIT_INPUT
    except (NotIrreducible, NotSurjective) as exc:
        _emit({"error": str(exc), "verdict": False})
        return EXIT_VERDICT
    except (RegopenError, ValueError, KeyError, TypeError, OSError) as exc:
        _emit({"error": str(exc), "at": type(exc).__name__})
        return EXIT_INPUT
    except Exception as exc:  # no input may end in a traceback and exit 1
        import traceback  # only this branch needs it, so no request pays its import
        traceback.print_exc(file=sys.stderr)
        _emit({"error": str(exc), "at": type(exc).__name__})
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
