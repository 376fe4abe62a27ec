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
from .rationals import MAX_LITERAL_DIGITS

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2

# `gleason` builds and checks the cover in time linear in the points: on a
# 2-vCPU VM the cover and its checks take about 18 ms at 4096 points and
# 0.4 s at 65,536.  The bound keeps a request's work small.
MAX_GLEASON_POINTS = 4096
# `cantor check` drops each of the 2^(d+1) - 2 cylinders of depth at most d,
# O(2^d·d) work in all, then runs the bridge battery on dense random clopens
# of depth up to d, which dominates.  On a 2-vCPU VM with the default 200
# samples a `cantor check` process takes about 0.8-1.1 s at depth 8 and
# 2.5-3.8 s at depth 10 (0.05 s and 0.2 s of it the cylinder check); depth
# 40 never ends.
MAX_CANTOR_CHECK_DEPTH = 10
# `cover check` and `cantor check` run their law battery once per sample, so
# their work is linear in the value of `--samples`, not in its length.  On a
# 2-vCPU VM at 1000 samples, a `cover check` process of the identity of
# [0, 1] takes about 0.6 s, and a `cantor check` process about 0.5 s at
# depth 1 and 7.4-8.5 s at depth 10; 10^9 samples would run for days.
MAX_SAMPLES = 1000
# `cantor phi` cuts each span of the region's closure into at most 2k words
# of at most k characters, k the natural depth (the largest dyadic exponent of
# an endpoint), so its output grows as k^2 bytes while the request carries a
# denominator of 2^k, at least 0.3k digits, per deep end: the output is at
# most about 1.7(k + 7) bytes per request byte.  The bound keeps that within
# 440 times the request; with no bound, the region (2^-k, 1 - 2^-k) wrote
# 64.1 MB in 2.8 s at k = 8000 on a 2-vCPU VM.
MAX_CANTOR_PHI_DEPTH = 256


def _int(text: str) -> int:
    """argparse's `int`, bounded as a rational literal is: more than
    `MAX_LITERAL_DIGITS` digits is malformed input on every interpreter,
    whatever its own limit on int conversion."""
    if len(text) > MAX_LITERAL_DIGITS and sum(c.isdigit() for c in text) > MAX_LITERAL_DIGITS:
        raise argparse.ArgumentTypeError(f"an integer argument has at most {MAX_LITERAL_DIGITS} digits")
    return int(text)


_int.__name__ = "int"  # argparse names the type in "invalid int value: ..."


def _check_samples(samples: int) -> None:
    if samples > MAX_SAMPLES:
        raise ValueError(f"--samples is at most {MAX_SAMPLES}")


def _load(source: str):
    """A JSON value, inline if the argument starts with a brace or bracket, else a file."""
    if source is None:
        raise ValueError("a JSON argument this operation needs is missing")
    if source.lstrip()[:1] in ("{", "["):
        return json.loads(source)
    with open(source, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _descriptor_from(source: str):
    from . import boolequiv
    data = jsonio._object(_load(source), "a descriptor")
    comps = data.get("components", [])
    if comps and ("a" in comps[0] or "at" in comps[0]):
        return boolequiv.from_space1d(jsonio.decode_space(data))
    return boolequiv.descriptor_from_json(data)


def _cmd_space_info(args):
    from . import boolequiv
    from .space import decompose_space
    space = jsonio.decode_space(_load(args.space))
    dec = decompose_space(space)
    return {
        "space": space,
        "isolated": dec.isolated,
        "atomic_part": dec.atomic_part,
        "atomless_part": dec.atomless_part,
        "descriptor": boolequiv.from_space1d(space),
    }, True


def _cmd_region_eval(args):
    from .exprlang import eval_expr, parse_expr
    space = jsonio.decode_space(_load(args.space))
    bindings = {}
    for item in args.bind or []:
        name, _, src = item.partition("=")
        if not _ or not name:
            raise ValueError(f"binding {item!r} is not NAME=JSON")
        bindings[name] = jsonio.decode_region(space, _load(src))
    return eval_expr(parse_expr(args.expr), space, bindings), True


def _cmd_cover_check(args):
    from .cover_iso import PLMapBackend, check_essential
    _check_samples(args.samples)
    m = jsonio.decode_plmap(_load(args.map))
    report = check_essential(PLMapBackend(m), samples=args.samples, seed=args.seed)
    return report, report.all_ok


def _cmd_cover_psi_phi(args):
    m = jsonio.decode_plmap(_load(args.map))
    psi = args.subcommand == "psi"
    region = jsonio.decode_region(m.domain if psi else m.codomain, _load(args.region))
    return {"region": m.psi(region) if psi else m.phi(region)}, True


def _cmd_cantor_check(args):
    from . import cantor
    from .cover_iso import verify_bridge
    if args.depth > MAX_CANTOR_CHECK_DEPTH:
        raise ValueError(f"--depth is at most {MAX_CANTOR_CHECK_DEPTH}")
    _check_samples(args.samples)
    irr = cantor.check_irreducible_cantor(args.depth)
    bridge = verify_bridge(args.depth, args.samples, args.seed)
    return {"irreducible": irr, "bridge": bridge}, irr.ok and bridge.ok


def _cmd_cantor_psi(args):
    from . import cantor
    k = jsonio.decode_clopen(_load(args.clopen))
    return {"region": cantor.psi_c(k)}, True


def _cmd_cantor_phi(args):
    from . import cantor
    region = jsonio.decode_region(cantor.UNIT_INTERVAL, _load(args.region))
    if any(d > 1 << MAX_CANTOR_PHI_DEPTH for s in region.rows for _, d in s[:2]):
        raise ValueError(f"cantor phi takes endpoint denominators of at most 2^{MAX_CANTOR_PHI_DEPTH}")
    return cantor.phi_c(region, depth=args.depth), True


def _cmd_gleason(args):
    from .finball import FiniteDiscreteSpace, gleason_cover, verify_projective_cover
    if args.points > MAX_GLEASON_POINTS:
        raise ValueError(f"--points is at most {MAX_GLEASON_POINTS}")
    labels = tuple(f"x{i}" for i in range(args.points))
    space = FiniteDiscreteSpace(labels)
    result = gleason_cover(space)
    report = verify_projective_cover(result.P, result.f, space, result.homs)
    return report, report.all_ok


def _cmd_ideal(args):
    from .ideals import ideal_join, ideal_meet, ideal_neg, in_ideal, omega, pl_supp, upsilon
    op = args.op
    if op == "supp":
        f = jsonio.decode_plfunc(_load(args.func))
        return {"region": pl_supp(f)}, True
    if op == "member":
        f = jsonio.decode_plfunc(_load(args.func))
        j = jsonio.decode_ideal(_load(args.ideal))
        verdict = in_ideal(f, j)
        return {"member": verdict}, verdict
    if op in ("neg", "annihilator"):  # the annihilator is the pseudocomplement
        j = jsonio.decode_ideal(_load(args.ideal))
        return ideal_neg(j), True
    if op in ("join", "meet"):
        j1 = jsonio.decode_ideal(_load(args.ideal))
        j2 = jsonio.decode_ideal(_load(args.right))
        return ideal_join(j1, j2) if op == "join" else ideal_meet(j1, j2), True
    # upsilon / omega
    pi = jsonio.decode_plmap(_load(args.map))
    j = jsonio.decode_ideal(_load(args.ideal))
    return upsilon(pi, j) if op == "upsilon" else omega(pi, j), True


def _cmd_equiv(args):
    from . import boolequiv
    verdict = boolequiv.equivalent(
        _descriptor_from(args.left), _descriptor_from(args.right)
    )
    return verdict, verdict.equivalent


def _cmd_compose(args):
    from .cover_iso import PLMapBackend, compose_equivalence
    left = jsonio.decode_plmap(_load(args.left))
    right = jsonio.decode_plmap(_load(args.right))
    ce = compose_equivalence(PLMapBackend(left, "left"), PLMapBackend(right, "right"))
    if args.region is None:
        return {"ok": True, "domain_key": ce.f.dom.key}, True
    forward = args.direction == "forward"
    v = jsonio.decode_region(right.codomain if forward else left.codomain, _load(args.region))
    return {"region": ce.forward(v) if forward else ce.backward(v)}, True


_REQUIRED = {"required": True}
# Each command once: its path, its group's help, the name of its handler in
# this module (looked up when a request runs) and its arguments.  A handler
# returns the payload and the verdict; `main` encodes the payload, writes the
# line and exits 0 or 1.
_COMMANDS = (
    ("space info", "space inspection", "_cmd_space_info", {"--space": _REQUIRED}),
    ("region eval", "region expressions", "_cmd_region_eval", {
        "--space": _REQUIRED, "--expr": _REQUIRED, "--bind": {"action": "append", "metavar": "NAME=JSON"}}),
    ("cover check", "piecewise-linear covers", "_cmd_cover_check", {
        "--map": _REQUIRED, "--samples": {"type": _int, "default": 100}, "--seed": {"type": _int, "default": 0}}),
    ("cover psi", "piecewise-linear covers", "_cmd_cover_psi_phi", {"--map": _REQUIRED, "--region": _REQUIRED}),
    ("cover phi", "piecewise-linear covers", "_cmd_cover_psi_phi", {"--map": _REQUIRED, "--region": _REQUIRED}),
    ("cantor check", "the binary-expansion cover", "_cmd_cantor_check", {
        "--depth": {"type": _int, "default": 6}, "--samples": {"type": _int, "default": 200},
        "--seed": {"type": _int, "default": 0}}),
    ("cantor psi", "the binary-expansion cover", "_cmd_cantor_psi", {"--clopen": _REQUIRED}),
    ("cantor phi", "the binary-expansion cover", "_cmd_cantor_phi", {"--region": _REQUIRED, "--depth": {"type": _int}}),
    ("gleason", "finite projective covers", "_cmd_gleason", {"--points": {"type": _int, "required": True}}),
    ("ideal", "regular ideals", "_cmd_ideal", {
        "op": {"choices": ["supp", "member", "join", "meet", "neg", "annihilator", "upsilon", "omega"]},
        "--func": {}, "--ideal": {}, "--right": {}, "--map": {}}),
    ("equiv", "Boolean equivalence of descriptors", "_cmd_equiv", {"left": {}, "right": {}}),
    ("compose", "compose two covers over a common domain", "_cmd_compose", {
        "--left": _REQUIRED, "--right": _REQUIRED, "--region": {},
        "--direction": {"choices": ["forward", "backward"], "default": "forward"}}),
)


class _Parser(argparse.ArgumentParser):
    """Malformed arguments are malformed input: one JSON error line and exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parsers of the group `argv[0]` names; of every group when it names
    none, so the top-level help and errors list them all."""
    groups = list(dict.fromkeys(path.split()[0] for path, *_ in _COMMANDS))
    named = argv[0] if argv and argv[0] in groups else None
    top = _Parser(prog="regopen", description=__doc__)
    # the usage line of an error at the top lists every group, built or not; with
    # all built argparse derives the same text, and its messages name `command`
    sub = top.add_subparsers(dest="command", required=True,
                             metavar="{%s}" % ",".join(groups) if named else None)
    leaves = {}
    for path, group_help, handler, arguments in _COMMANDS:
        group, *leaf = path.split()
        if named not in (None, group):
            continue
        if group not in leaves:
            parser = sub.add_parser(group, help=group_help)
            leaves[group] = parser.add_subparsers(dest="subcommand", required=True) if leaf else None
        if leaf:
            parser = leaves[group].add_parser(leaf[0])
        for name, kwargs in arguments.items():
            parser.add_argument(name, **kwargs)
        parser.set_defaults(handler=handler)
    return top


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser(argv).parse_args(argv)
        value, ok = globals()[args.handler](args)
        payload, code = jsonio.encode_value(value), EXIT_OK if ok else EXIT_VERDICT
    except ExprSyntaxError as exc:
        at = {"line": exc.line, "col": exc.col, "expected": list(exc.expected), "found": exc.found}
        payload, code = {"error": str(exc), "at": at}, EXIT_INPUT
    except (NotIrreducible, NotSurjective) as exc:
        payload, code = {"error": str(exc), "verdict": False}, EXIT_VERDICT
    except (RegopenError, ValueError, KeyError, TypeError, OSError) as exc:
        payload, code = {"error": str(exc), "at": type(exc).__name__}, EXIT_INPUT
    except Exception as exc:  # no input may end in a traceback and exit 1
        import traceback  # only this branch needs it, so no request pays its import
        traceback.print_exc(file=sys.stderr)
        payload, code = {"error": str(exc), "at": type(exc).__name__}, EXIT_INPUT
    sys.stdout.write(jsonio.canonical_json(payload) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
