"""The JSON wire forms: pinned canonical bytes of every report and value the
CLI or a caller encodes, and decode(encode(x)) == x for every codec pair."""
from __future__ import annotations

import json
import random

import pytest

from regopen import jsonio
from regopen.boolequiv import descriptor, equivalent
from regopen.cantor import CantorClopen, check_irreducible_cantor, random_clopen
from regopen.cover_iso import BridgeReport, PLMapBackend, check_essential, verify_bridge
from regopen.exprlang import eval_expr, parse_expr
from regopen.finball import FinCover, FiniteDiscreteSpace, gleason_cover, verify_projective_cover
from regopen.ideals import RegIdeal, plfunc_from_breakpoints
from regopen.plmap import identity_map, plmap_from_breakpoints
from regopen.rationals import rat
from regopen.space import Interval, Point, Region, Space1D, Span

from conftest import UNIT, UNIT_PT, random_region

TENT = plmap_from_breakpoints(UNIT, UNIT, [(0, 0), (rat(1, 2), 1), (1, 0)])
X2 = FiniteDiscreteSpace(("x0", "x1"))
P3 = FiniteDiscreteSpace(("p0", "p1", "p2"))
NOTE = ("base cylinders suffice: any closed set missing a point of C "
        "misses a whole cylinder around it")
UNIT_PT_JSON = '{"components":[{"a":"0","b":"1","kind":"interval"},{"at":"2","kind":"point"}]}'


def _gleason(n: int):
    x = FiniteDiscreteSpace(tuple(f"x{i}" for i in range(n)))
    g = gleason_cover(x)
    return verify_projective_cover(g.P, g.f, x, g.homs)


# name: (the value, its canonical JSON)
PINNED = {
    "cover_report_ok": (
        lambda: check_essential(PLMapBackend(identity_map(UNIT_PT)), samples=3, seed=1),
        '{"all_ok":true,"backend":"plmap","inverse_failures":[],"inverse_passes":{"phi_psi_id":3,'
        '"psi_phi_id":3},"irreducible":true,"law_failures":[],"law_passes":{"phi_join":3,"phi_meet":3,'
        '"phi_neg":3,"psi_join":3,"psi_meet":3,"psi_neg":3},"reason":"","samples":3,"seed":1,'
        '"surjective":true,"witness":null}'),
    "cover_report_fold": (
        lambda: check_essential(PLMapBackend(TENT), samples=2, seed=0),
        '{"all_ok":false,"backend":"plmap","inverse_failures":[{"law":"phi_psi_id","seed":0,"trial":0},'
        '{"law":"phi_psi_id","seed":0,"trial":1}],"inverse_passes":{"phi_psi_id":0,"psi_phi_id":2},'
        '"irreducible":false,"law_failures":[{"law":"psi_neg","seed":0,"trial":0},'
        '{"law":"psi_meet","seed":0,"trial":1},{"law":"psi_neg","seed":0,"trial":1}],'
        '"law_passes":{"phi_join":2,"phi_meet":2,"phi_neg":2,"psi_join":2,"psi_meet":1,"psi_neg":0},'
        '"reason":"piece image (0, 1) overlap is covered twice","samples":2,"seed":0,"surjective":true,'
        '"witness":{"spans":[{"hi":"1/3","hi_incl":false,"lo":"1/6","lo_incl":false}]}}'),
    "bridge_report": (
        lambda: verify_bridge(3, 4, 5),
        '{"checks":32,"depth":3,"failures":[],"ok":true,"samples":4,"seed":5}'),
    "bridge_report_failing": (
        lambda: BridgeReport(2, 1, 0, 8, ("psi_join trial 0", "phi_neg trial 0")),
        '{"checks":8,"depth":2,"failures":["psi_join trial 0","phi_neg trial 0"],"ok":false,'
        '"samples":1,"seed":0}'),
    "cantor_irreducibility_report": (
        lambda: check_irreducible_cantor(2),
        '{"cylinders_checked":6,"depth":2,"note":"' + NOTE + '","ok":true}'),
    "verification_report_ok": (
        lambda: _gleason(2),
        '{"all_ok":true,"irreducible":true,"onto_sandwich":true,"phi_eq_cl_preimage":true,'
        '"psi_inverts_phi":true,"rigid":true,"surjective":true}'),
    "verification_report_failing": (
        lambda: verify_projective_cover(P3, FinCover(P3, X2, (("p0", "x0"), ("p1", "x0"), ("p2", "x1"))), X2),
        '{"all_ok":false,"irreducible":false,"onto_sandwich":true,"phi_eq_cl_preimage":true,'
        '"psi_inverts_phi":false,"rigid":false,"surjective":true,"witnesses":{"irreducible":["p0","p2"],'
        '"psi_inverts_phi":["p0"],"rigid":{"p1":"p0"}}}'),
    "space_descriptor": (
        lambda: descriptor("point", "interval", "convseq"),
        '{"components":[{"kind":"convseq"},{"kind":"interval"},{"kind":"point"}]}'),
    "equivalence_verdict_omega": (
        lambda: equivalent(descriptor("convseq", "point"), descriptor("cantor_midpoints")),
        '{"equivalent":true,"left":{"isol_card":"omega","perfect_nonempty":false},'
        '"right":{"isol_card":"omega","perfect_nonempty":false}}'),
    "reg_ideal": (
        lambda: RegIdeal(UNIT_PT, Region(UNIT_PT, [Span(rat(1, 3), rat(5, 7), False, False),
                                                   Span(2, 2, True, True)])),
        '{"space":' + UNIT_PT_JSON + ',"support":{"spans":[{"hi":"5/7","hi_incl":false,"lo":"1/3",'
        '"lo_incl":false},{"hi":"2","hi_incl":true,"lo":"2","lo_incl":true}]}}'),
    "clopen_empty": (lambda: CantorClopen(()), '{"words":[]}'),
    "clopen": (lambda: CantorClopen(("011", "1", "010")), '{"words":["01","1"]}'),
    "plmap": (
        lambda: plmap_from_breakpoints(UNIT_PT, UNIT_PT, [(0, 0), (rat(1, 3), 1), (1, rat(2, 7))], [(2, 2)]),
        '{"codomain":' + UNIT_PT_JSON + ',"domain":' + UNIT_PT_JSON + ',"pieces":[[{"intercept":"0",'
        '"slope":"3","src_hi":"1/3","src_lo":"0"},{"intercept":"19/14","slope":"-15/14","src_hi":"1",'
        '"src_lo":"1/3"}]],"point_images":[["2","2"]]}'),
    "plfunc": (
        lambda: plfunc_from_breakpoints(UNIT_PT, [(0, -1), (rat(1, 5), rat(3, 7)), (1, 0)], [(2, rat(-5, 3))]),
        '{"pieces":[[{"intercept":"-1","slope":"50/7","src_hi":"1/5","src_lo":"0"},{"intercept":"15/28",'
        '"slope":"-15/28","src_hi":"1","src_lo":"1/5"}]],"point_values":[["2","-5/3"]],'
        '"space":' + UNIT_PT_JSON + '}'),
    # the README's `region eval` example
    "eval_result": (
        lambda: eval_expr(parse_expr("join(reg(I(0,1/2)),perp(I(1/4,3/4)))"), UNIT),
        '{"closed":false,"open":true,"region":{"spans":[{"hi":"1/2","hi_incl":false,"lo":"0",'
        '"lo_incl":true},{"hi":"1","hi_incl":true,"lo":"3/4","lo_incl":false}]},"regular_open":true}'),
}


@pytest.mark.parametrize("name", PINNED)
def test_pinned_bytes(name):
    make, wire = PINNED[name]
    assert jsonio.canonical_json(jsonio.encode_value(make())) == wire


@pytest.mark.parametrize("name", PINNED)
def test_wire_form_is_json_native(name):
    """No tuple, rational or non-string key survives: plain `json` round-trips it."""
    wire = jsonio.encode_value(PINNED[name][0]())
    assert json.loads(json.dumps(wire)) == wire


# --- decode(encode(x)) == x on seeded values ---

PRIMES = (3, 5, 7, 11, 13)


def _q(rng: random.Random, lo: int, hi: int):
    return rat(rng.randint(lo, hi), rng.choice(PRIMES))


def _space(rng: random.Random) -> Space1D:
    """At least one interval and one isolated point, in random order."""
    kinds = ["interval", "point"] + [rng.choice(("interval", "point")) for _ in range(rng.randint(0, 3))]
    rng.shuffle(kinds)
    comps, x = [], _q(rng, -10, 0)
    for kind in kinds:
        if kind == "point":
            comps.append(Point(x))
        else:
            comps.append(Interval(x, x + _q(rng, 1, 9)))
            x = comps[-1].b
        x += _q(rng, 1, 9)
    return Space1D(tuple(comps))


def _breakpoints(rng: random.Random, space: Space1D) -> list:
    """Values in [-10, 10] at both ends and some inner points of each interval:
    slopes of both signs, and now and then a flat piece."""
    values = []
    for comp in space.interval_components():
        inner = sorted({comp.a + (comp.b - comp.a) * rat(rng.randint(1, 12), 13) for _ in range(rng.randint(0, 3))})
        for x in [comp.a, *inner, comp.b]:
            values.append((x, values[-1][1] if values and rng.random() < 0.2 else _q(rng, -30, 30)))
    return values


CODOMAIN = Space1D((Interval(-10, 10), Point(11)))


def _plmap(rng: random.Random):
    space = _space(rng)
    points = [(p.at, rng.choice((_q(rng, -30, 30), rat(11)))) for p in space.point_components()]
    return plmap_from_breakpoints(space, CODOMAIN, _breakpoints(rng, space), points)


def _plfunc(rng: random.Random):
    space = _space(rng)
    points = tuple((p.at, _q(rng, -30, 30)) for p in space.point_components())
    return plfunc_from_breakpoints(space, _breakpoints(rng, space), points)


def _clopen(rng: random.Random) -> CantorClopen:
    if rng.random() < 0.5:
        return random_clopen(rng, rng.randint(1, 6))
    return CantorClopen(tuple(format(rng.getrandbits(k), f"0{k}b") for k in (rng.randint(1, 8) for _ in range(3))))


def _ideal(rng: random.Random) -> RegIdeal:
    space = _space(rng)
    return RegIdeal(space, random_region(space, rng, 5, 13).regularize())


CODECS = {
    "space": (_space, jsonio.decode_space),
    "plmap": (_plmap, jsonio.decode_plmap),
    "plfunc": (_plfunc, jsonio.decode_plfunc),
    "clopen": (_clopen, jsonio.decode_clopen),
    "ideal": (_ideal, jsonio.decode_ideal),
}


def _round_trip(x):
    return json.loads(jsonio.canonical_json(jsonio.encode_value(x)))


@pytest.mark.parametrize("name", CODECS)
def test_codec_round_trip(name):
    make, decode = CODECS[name]
    rng = random.Random(name)
    for _ in range(40):
        x = make(rng)
        assert decode(_round_trip(x)) == x


def test_region_round_trip():
    rng = random.Random(1_515)
    for _ in range(40):
        space = _space(rng)
        r = random_region(space, rng, 5, 13)
        assert jsonio.decode_region(space, _round_trip(r)) == r
