"""Command-line dispatch, exit codes, and output determinism."""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from regopen import cantor, cli, jsonio
from regopen.cli import MAX_CANTOR_CHECK_DEPTH, MAX_CANTOR_PHI_DEPTH, MAX_GLEASON_POINTS, MAX_SAMPLES, main
from regopen.cover_iso import verify_bridge
from regopen.ideals import plfunc_from_breakpoints
from regopen.plmap import Piece, PLMap, identity_map, plmap_from_breakpoints
from regopen.rationals import MAX_LITERAL_DIGITS, rat
from regopen.space import Interval, Point, Region, Space1D

from conftest import UNIT, UNIT_PT, region

ZERO_TWO = Space1D((Interval(0, 2),))


def run(capsys, *argv: str) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def plmap_json(m: PLMap) -> str:
    return json.dumps(jsonio.encode_value(m))


def region_json(r: Region) -> str:
    return json.dumps(jsonio.encode_value(r))


def halving() -> PLMap:
    return PLMap(ZERO_TWO, UNIT, ((Piece(0, 2, rat(1, 2), 0),),))


def tent() -> PLMap:
    return plmap_from_breakpoints(UNIT, UNIT, [(0, 0), (rat(1, 2), 1), (1, 0)])


UNIT_JSON = '{"components":[{"kind":"interval","a":"0","b":"1"}]}'
UNIT_PT_JSON = (
    '{"components":[{"kind":"interval","a":"0","b":"1"},{"kind":"point","at":"2"}]}'
)


class TestSpaceInfo:
    def test_info(self, capsys):
        code, out = run(capsys, "space", "info", "--space", UNIT_PT_JSON)
        assert code == 0
        assert out["isolated"] == ["2"]
        assert out["descriptor"] == {
            "components": [{"kind": "interval"}, {"kind": "point"}]
        }

    def test_bad_kind_is_input_error(self, capsys):
        code, out = run(
            capsys, "space", "info", "--space", '{"components":[{"kind":"blob"}]}'
        )
        assert code == 2 and "error" in out


class TestRegionEval:
    def test_eval_with_flags(self, capsys):
        code, out = run(
            capsys, "region", "eval", "--space", UNIT_JSON, "--expr", "reg(I(0,1/2))"
        )
        assert code == 0
        assert out["region"]["spans"] == [
            {"lo": "0", "hi": "1/2", "lo_incl": True, "hi_incl": False}
        ]
        assert out["regular_open"] is True and out["closed"] is False

    def test_bindings(self, capsys):
        bound = region_json(region(UNIT, ("1/4", "3/4", False, False)))
        code, out = run(
            capsys,
            "region", "eval", "--space", UNIT_JSON,
            "--expr", "perp(v)", "--bind", f"v={bound}",
        )
        assert code == 0
        assert out["region"]["spans"][0]["hi"] == "1/4"

    def test_syntax_error_positions(self, capsys):
        code, out = run(
            capsys, "region", "eval", "--space", UNIT_JSON, "--expr", "join(x,"
        )
        assert code == 2
        assert out["at"]["line"] == 1 and out["at"]["col"] == 8

    def test_literal_digits_at_the_bound_and_past_it(self, capsys):
        # the bound is CPython's default, so no literal's exit code moves on a default interpreter
        assert MAX_LITERAL_DIGITS == getattr(sys.int_info, "default_max_str_digits", 4300)
        n = MAX_LITERAL_DIGITS

        def eval_bound(lo, hi):
            bound = json.dumps({"spans": [{"lo": lo, "hi": hi, "lo_incl": True, "hi_incl": False}]})
            start = time.perf_counter()
            code, out = run(capsys, "region", "eval", "--space", UNIT_JSON, "--expr", "v", "--bind", f"v={bound}")
            return code, out, time.perf_counter() - start

        # the sign is no digit, and leading zeros are, as CPython counts them
        for lo, hi in (("-" + "0" * n, "1/" + "3" * n), ("0", "1" * n + "/" + "3" * n)):
            code, out, _ = eval_bound(lo, hi)
            assert code == 0 and out["region"]["spans"][0]["hi"] == str(rat(hi))
        for lo, hi in (("-" + "0" * (n + 1), "1"), ("0", "1/" + "3" * (n + 1)), ("0", "1" * (n + 1) + "/" + "3" * n)):
            code, out, seconds = eval_bound(lo, hi)
            assert seconds < 0.1
            assert code == 2 and out == {
                "error": f"a rational literal's numerator and denominator have at most {n} digits", "at": "ValueError"}

    def test_unbound_name(self, capsys):
        code, out = run(
            capsys, "region", "eval", "--space", UNIT_JSON, "--expr", "cl(ghost)"
        )
        assert code == 2 and out["at"] == "UnboundName"

    def test_binding_without_an_equals_sign(self, capsys):
        code, out = run(capsys, "region", "eval", "--space", UNIT_JSON, "--expr", "v", "--bind", "v")
        assert code == 2 and out == {"error": "binding 'v' is not NAME=JSON", "at": "ValueError"}

    def test_region_outside_space(self, capsys):
        bound = '{"spans":[{"lo":"0","hi":"5","lo_incl":true,"hi_incl":true}]}'
        code, out = run(
            capsys,
            "region", "eval", "--space", UNIT_JSON,
            "--expr", "v", "--bind", f"v={bound}",
        )
        assert code == 2 and out["at"] == "SpaceMismatch"


@contextmanager
def int_digit_limit(limit: int):
    """The interpreter's limit on int-string conversion set to `limit` (0: none), then restored."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


# CPython's default limit and none at all; an interpreter older than the limit runs once, as it is
INT_DIGIT_LIMITS = [4300, 0] if hasattr(sys, "set_int_max_str_digits") else [None]


def under(limit):
    return int_digit_limit(limit) if limit is not None else nullcontext()


class TestDigitBounds:
    """Integer arguments and encoded results meet `MAX_LITERAL_DIGITS`, whatever the interpreter's own limit."""

    @pytest.mark.parametrize("limit", INT_DIGIT_LIMITS)
    def test_integer_arguments_at_the_digit_bound_and_past_it(self, capsys, limit):
        n = MAX_LITERAL_DIGITS
        at = {  # leading zeros are digits, as CPython counts them
            "--seed": ["cover", "check", "--map", plmap_json(identity_map(UNIT)), "--samples", "2", "--seed"],
            "--samples": ["cover", "check", "--map", plmap_json(identity_map(UNIT)), "--samples"],
            "--depth": ["cantor", "phi", "--region", '{"spans":[]}', "--depth"],
            "--points": ["gleason", "--points"],
        }
        with under(limit):
            for name, argv in at.items():
                code, out = run(capsys, *argv, "0" * (n - 1) + "2")
                assert code == 0, (name, out)
                code, out = run(capsys, *argv, "0" * n + "2")
                assert (code, out) == (2, {"error": f"argument {name}: an integer argument has at most {n} digits",
                                           "at": "ValueError"})
            # past the bound in value as well: a request the default limit used to reject and none accepted
            code, out = run(capsys, *at["--depth"], "1" * (n + 700))
            assert code == 2 and out["error"] == f"argument --depth: an integer argument has at most {n} digits"
            code, out = run(capsys, *at["--depth"], "-" + "0" * n)  # the sign is no digit
            assert (code, out) == (0, {"words": []})
            code, out = run(capsys, *at["--depth"], "x" * (n + 1))  # no digits: argparse's own message
            assert out == {"error": f"argument --depth: invalid int value: '{'x' * (n + 1)}'", "at": "ValueError"}

    @pytest.mark.parametrize("limit", INT_DIGIT_LIMITS)
    def test_result_digits_at_the_bound_and_past_it(self, capsys, limit):
        # x -> 3x/4 takes 1/7...7 to 3/31...108, one digit longer than the sevens
        m = PLMap(Space1D((Interval(0, rat(4, 3)),)), UNIT, ((Piece(0, rat(4, 3), rat(3, 4), 0),),))
        n = MAX_LITERAL_DIGITS

        def psi(sevens: int):
            hi = "1/" + "7" * sevens
            u = json.dumps({"spans": [{"lo": "0", "hi": hi, "lo_incl": True, "hi_incl": False}]})
            return run(capsys, "cover", "psi", "--map", plmap_json(m), "--region", u)

        with under(limit):
            code, out = psi(n - 1)
            hi = rat(3, 4) / int("7" * (n - 1))
            assert 10 ** (n - 1) <= hi.denominator < 10 ** n  # exactly at the bound
            assert code == 0 and rat(out["region"]["spans"][0]["hi"]) == hi
            code, out = psi(n)
            assert (code, out) == (2, {"error": f"a result's numerator and denominator have at most {n} digits",
                                       "at": "ValueError"})


class TestCover:
    def test_identity_check_passes(self, capsys):
        code, out = run(
            capsys, "cover", "check", "--map", plmap_json(identity_map(UNIT)),
            "--samples", "10", "--seed", "1",
        )
        assert code == 0 and out["all_ok"] is True

    def test_tent_check_fails_with_witness(self, capsys):
        code, out = run(
            capsys, "cover", "check", "--map", plmap_json(tent()), "--samples", "5"
        )
        assert code == 1
        assert out["irreducible"] is False
        assert out["witness"]["spans"]

    def test_psi(self, capsys):
        u = region_json(region(ZERO_TWO, (0, 1, True, False)))
        code, out = run(
            capsys, "cover", "psi", "--map", plmap_json(halving()), "--region", u
        )
        assert code == 0
        assert out["region"]["spans"] == [
            {"lo": "0", "hi": "1/2", "lo_incl": True, "hi_incl": False}
        ]

    def test_phi(self, capsys):
        v = region_json(region(UNIT, (0, "1/2", True, False)))
        code, out = run(
            capsys, "cover", "phi", "--map", plmap_json(halving()), "--region", v
        )
        assert code == 0
        assert out["region"]["spans"] == [
            {"lo": "0", "hi": "1", "lo_incl": True, "hi_incl": False}
        ]

    def test_negative_samples_are_input_errors(self, capsys):
        code, out = run(capsys, "cover", "check", "--map", plmap_json(tent()), "--samples", "-3")
        assert code == 2 and out["at"] == "ValueError"
        code, out = run(capsys, "cover", "check", "--map", plmap_json(identity_map(UNIT)), "--samples", "0")
        assert code == 0 and out["samples"] == 0

    def test_samples_above_the_bound_are_input_errors_before_any_work(self, capsys):
        # the one-point identity keeps the run at the bound cheap
        point = plmap_json(identity_map(Space1D((Point(0),))))
        code, out = run(capsys, "cover", "check", "--map", point, "--samples", str(MAX_SAMPLES))
        assert code in (0, 1) and out["samples"] == MAX_SAMPLES
        for samples in (MAX_SAMPLES + 1, 10**9):
            start = time.perf_counter()
            code, out = run(capsys, "cover", "check", "--map", plmap_json(identity_map(UNIT)),
                            "--samples", str(samples))
            assert time.perf_counter() - start < 0.1
            assert code == 2 and out == {"error": f"--samples is at most {MAX_SAMPLES}", "at": "ValueError"}

    def test_invalid_map_is_input_error(self, capsys):
        broken = json.dumps(
            {
                "domain": json.loads(UNIT_JSON),
                "codomain": json.loads(UNIT_JSON),
                "pieces": [[{"src_lo": "0", "src_hi": "1", "slope": "2", "intercept": "0"}]],
                "point_images": [],
            }
        )
        code, out = run(capsys, "cover", "check", "--map", broken)
        assert code == 2 and out["at"] == "ImageEscapesCodomain"
        # the escaping piece is located by its rational source span
        assert out["error"] == "image escapes codomain at [0, 1]"
        assert "Fraction(" not in out["error"]


class TestCantor:
    def test_check(self, capsys):
        code, out = run(
            capsys, "cantor", "check", "--depth", "4", "--samples", "30", "--seed", "2"
        )
        assert code == 0
        assert out["irreducible"]["ok"] is True
        assert out["bridge"]["ok"] is True

    def test_psi(self, capsys):
        code, out = run(capsys, "cantor", "psi", "--clopen", '{"words":["0"]}')
        assert code == 0
        assert out["region"]["spans"] == [
            {"lo": "0", "hi": "1/2", "lo_incl": True, "hi_incl": False}
        ]

    def test_phi(self, capsys):
        v = region_json(region(jsonio.decode_space(json.loads(UNIT_JSON)), ("1/4", "3/4", False, False)))
        code, out = run(capsys, "cantor", "phi", "--region", v)
        assert code == 0 and out["words"] == ["01", "10"]

    def test_check_depth_above_the_bound_is_input_error(self, capsys):
        for depth in (MAX_CANTOR_CHECK_DEPTH + 1, 10**9):
            code, out = run(capsys, "cantor", "check", "--depth", str(depth), "--samples", "1")
            assert code == 2 and out["at"] == "ValueError"

    def test_negative_samples_are_input_errors(self, capsys):
        code, out = run(capsys, "cantor", "check", "--depth", "3", "--samples", "-3")
        assert code == 2 and out["at"] == "ValueError"
        code, out = run(capsys, "cantor", "check", "--depth", "3", "--samples", "0")
        assert code == 0 and out["bridge"]["samples"] == 0 and out["bridge"]["checks"] == 0

    def test_samples_above_the_bound_are_input_errors_before_any_work(self, capsys):
        code, out = run(capsys, "cantor", "check", "--depth", "1", "--samples", str(MAX_SAMPLES))
        assert code in (0, 1) and out["bridge"]["samples"] == MAX_SAMPLES
        for samples in (MAX_SAMPLES + 1, 10**9):
            start = time.perf_counter()
            code, out = run(capsys, "cantor", "check", "--depth", str(MAX_CANTOR_CHECK_DEPTH), "--samples", str(samples))
            assert time.perf_counter() - start < 0.1
            assert code == 2 and out == {"error": f"--samples is at most {MAX_SAMPLES}", "at": "ValueError"}

    def test_phi_at_depth_40(self, capsys):
        v = '{"spans":[{"lo":"0","hi":"1","lo_incl":true,"hi_incl":true}]}'
        code, out = run(capsys, "cantor", "phi", "--region", v, "--depth", "40")
        assert code == 0 and out["words"] == [""]

    def test_phi_of_exponent_40(self, capsys):
        # (0, 1/2 + 2^-40) is the half cylinder "0" plus one cell of depth 40
        hi = f"{2**39 + 1}/{2**40}"
        v = '{"spans":[{"lo":"0","hi":"%s","lo_incl":true,"hi_incl":false}]}' % hi
        code, out = run(capsys, "cantor", "phi", "--region", v)
        assert code == 0 and out["words"] == ["0", "1" + "0" * 39]

    def test_phi_natural_depth_at_the_bound_and_past_it(self, capsys):
        def deep(lo, hi):
            return json.dumps({"spans": [{"lo": lo, "hi": hi, "lo_incl": False, "hi_incl": False}]},
                              separators=(",", ":"))

        top = 2**MAX_CANTOR_PHI_DEPTH
        # the most words per request byte at the bound: a deep end cut up to 1/2 and back
        for request in (deep(f"1/{top}", f"{top - 1}/{top}"), deep(f"1/{top}", "1")):
            code = main(["cantor", "phi", "--region", request])
            out = capsys.readouterr().out
            words = json.loads(out)["words"]
            assert code == 0 and max(map(len, words)) == MAX_CANTOR_PHI_DEPTH
            assert len(out) <= 440 * len(request)
        for request in (deep(f"1/{2 * top}", "1"), deep("0", f"{2 * top - 1}/{2 * top}"), deep(f"1/{top + 1}", "1")):
            start = time.perf_counter()
            code, out = run(capsys, "cantor", "phi", "--region", request, "--depth", str(10**6))
            assert time.perf_counter() - start < 0.1
            assert code == 2 and out == {
                "error": f"cantor phi takes endpoint denominators of at most 2^{MAX_CANTOR_PHI_DEPTH}", "at": "ValueError"}

    def test_phi_negative_depth_is_input_error(self, capsys):
        code, out = run(capsys, "cantor", "phi", "--region", '{"spans":[]}', "--depth", "-1")
        assert code == 2 and out["at"] == "ValueError"

    def test_phi_non_dyadic(self, capsys):
        v = '{"spans":[{"lo":"1/3","hi":"2/3","lo_incl":false,"hi_incl":false}]}'
        code, out = run(capsys, "cantor", "phi", "--region", v)
        assert code == 2 and out["at"] == "NonDyadicEndpoint"

    def test_check_matches_the_golden_table(self, capsys):
        for (depth, seed, samples), digest in CANTOR_CHECK_GOLDEN.items():
            argv = ["cantor", "check", "--depth", str(depth), "--samples", str(samples)]
            code = main(argv + ["--seed", str(seed)])
            out = capsys.readouterr().out
            assert (code, hashlib.sha256(out.encode()).hexdigest()[:16]) == (0, digest), argv
        code = main(["cantor", "check", "--depth", "6", "--samples", "200", "--seed", "0"])
        assert (code, capsys.readouterr().out) == (0, README_CANTOR_CHECK)

    def test_check_catches_a_broken_meet(self, capsys, monkeypatch):
        # a meet that returns the union breaks the psi and phi meet laws
        monkeypatch.setattr(cantor, "clopen_inter", cantor.clopen_union)
        rep = verify_bridge(4, 10, 0)
        assert rep.ok is False and "psi_meet trial 0" in rep.failures
        code, out = run(capsys, "cantor", "check", "--depth", "4", "--samples", "10")
        assert code == 1 and out["bridge"]["ok"] is False


# `regopen cantor check` stdout, as the first 16 hex digits of its sha256, keyed
# by (depth, seed, samples); captured before the bridge ran on the cover battery
CANTOR_CHECK_GOLDEN = {
    (1, 0, 0): "1ae7082218ec78d7", (1, 0, 1): "bf011bf2783aeb41", (1, 0, 7): "3e07eb681f2123c2",
    (1, 1, 0): "aee0fbf6edd61845", (1, 1, 1): "d6db7733ae12b1a5", (1, 1, 7): "ff468811df922d88",
    (2, 0, 0): "1a62d9ac27f20e3a", (2, 0, 1): "1647068432b558c1", (2, 0, 7): "3c5979f1a5174397",
    (2, 1, 0): "f14043f869a12049", (2, 1, 1): "773c6c9151785452", (2, 1, 7): "c1f800935a67d725",
    (3, 0, 0): "af9745c9b9ca5c84", (3, 0, 1): "81adc258bd47c3bd", (3, 0, 7): "67e7e4ed13949848",
    (3, 1, 0): "3eef0caa51e21b9b", (3, 1, 1): "1d9fd90bbf977823", (3, 1, 7): "83d1d0dcf4b70980",
    (4, 0, 0): "d727b2aab0d38e4a", (4, 0, 1): "1440efab164369a1", (4, 0, 7): "433260499640becd",
    (4, 1, 0): "d0a00c191d9d540a", (4, 1, 1): "b0d77405043eac42", (4, 1, 7): "a794145c8939f153",
    (5, 0, 0): "4df2c5f9b1558c49", (5, 0, 1): "fc51414b76ffa7a1", (5, 0, 7): "d28c46cb7198568c",
    (5, 1, 0): "1c5a1bd72fc63ae7", (5, 1, 1): "05d2ac7913f41228", (5, 1, 7): "167f63a59f1daecf",
    (6, 0, 0): "43746ecaf1fcc34d", (6, 0, 1): "5b61f1105d2a7cf6", (6, 0, 7): "d656d31da22faf6a",
    (6, 1, 0): "1b9f47249053c206", (6, 1, 1): "0802f3fe89cb7a2f", (6, 1, 7): "6fd7eb9760023d3c",
}
README_CANTOR_CHECK = (
    '{"bridge":{"checks":1600,"depth":6,"failures":[],"ok":true,"samples":200,"seed":0},'
    '"irreducible":{"cylinders_checked":126,"depth":6,"note":"base cylinders suffice: any closed '
    'set missing a point of C misses a whole cylinder around it","ok":true}}\n'
)


class TestGleason:
    def test_three_points(self, capsys):
        code, out = run(capsys, "gleason", "--points", "3")
        assert code == 0
        for key in (
            "surjective", "irreducible", "rigid",
            "phi_eq_cl_preimage", "onto_sandwich", "psi_inverts_phi",
        ):
            assert out[key] is True

    def test_4096_points_verify(self, capsys):
        # linear work: 2^4096 subsets could never be enumerated
        code, out = run(capsys, "gleason", "--points", "4096")
        assert code == 0 and out["all_ok"] is True

    def test_points_above_the_bound_are_input_errors(self, capsys):
        for points in (MAX_GLEASON_POINTS + 1, 10**6):
            code, out = run(capsys, "gleason", "--points", str(points))
            assert code == 2 and out["at"] == "ValueError"


class TestIdeal:
    def test_supp(self, capsys):
        f = plfunc_from_breakpoints(UNIT, [(0, 0), (1, 1)])
        code, out = run(
            capsys, "ideal", "supp", "--func", json.dumps(jsonio.encode_value(f))
        )
        assert code == 0
        assert out["region"]["spans"] == [
            {"lo": "0", "hi": "1", "lo_incl": False, "hi_incl": True}
        ]

    def test_member_true_false(self, capsys):
        f = plfunc_from_breakpoints(
            UNIT, [(0, 0), (rat(1, 4), 0), (rat(1, 2), 1), (rat(3, 4), 0), (1, 0)]
        )
        wide = json.dumps(
            {"space": json.loads(UNIT_JSON),
             "support": {"spans": [{"lo": "0", "hi": "1", "lo_incl": True, "hi_incl": True}]}}
        )
        code, out = run(
            capsys, "ideal", "member", "--func",
            json.dumps(jsonio.encode_value(f)), "--ideal", wide,
        )
        assert code == 0 and out["member"] is True
        narrow = json.dumps(
            {"space": json.loads(UNIT_JSON),
             "support": {"spans": [{"lo": "1/2", "hi": "1", "lo_incl": False, "hi_incl": True}]}}
        )
        code, out = run(
            capsys, "ideal", "member", "--func",
            json.dumps(jsonio.encode_value(f)), "--ideal", narrow,
        )
        assert code == 1 and out["member"] is False

    def test_annihilator(self, capsys):
        j = json.dumps(
            {"space": json.loads(UNIT_JSON),
             "support": {"spans": [{"lo": "1/4", "hi": "3/4", "lo_incl": False, "hi_incl": False}]}}
        )
        code, out = run(capsys, "ideal", "annihilator", "--ideal", j)
        assert code == 0
        assert [s["hi"] for s in out["support"]["spans"]] == ["1/4", "1"]

    def test_join(self, capsys):
        left = json.dumps(
            {"space": json.loads(UNIT_JSON),
             "support": {"spans": [{"lo": "0", "hi": "1/2", "lo_incl": True, "hi_incl": False}]}}
        )
        right = json.dumps(
            {"space": json.loads(UNIT_JSON),
             "support": {"spans": [{"lo": "1/2", "hi": "1", "lo_incl": False, "hi_incl": True}]}}
        )
        code, out = run(capsys, "ideal", "join", "--ideal", left, "--right", right)
        assert code == 0
        assert out["support"]["spans"] == [
            {"lo": "0", "hi": "1", "lo_incl": True, "hi_incl": True}
        ]

    def test_upsilon_requires_essential(self, capsys):
        j = json.dumps(
            {"space": json.loads(UNIT_JSON),
             "support": {"spans": [{"lo": "0", "hi": "1/2", "lo_incl": True, "hi_incl": False}]}}
        )
        code, out = run(
            capsys, "ideal", "upsilon", "--map", plmap_json(tent()), "--ideal", j
        )
        assert code == 1 and out["verdict"] is False

    def test_upsilon_transport(self, capsys):
        j = json.dumps(
            {"space": json.loads(UNIT_JSON),
             "support": {"spans": [{"lo": "0", "hi": "1/2", "lo_incl": True, "hi_incl": False}]}}
        )
        code, out = run(
            capsys, "ideal", "upsilon", "--map", plmap_json(halving()), "--ideal", j
        )
        assert code == 0
        assert out["support"]["spans"] == [
            {"lo": "0", "hi": "1", "lo_incl": True, "hi_incl": False}
        ]


class TestEquiv:
    def test_interval_vs_cantor(self, capsys):
        code, out = run(
            capsys, "equiv",
            '{"components":[{"kind":"interval"}]}',
            '{"components":[{"kind":"cantor"}]}',
        )
        assert code == 0 and out["equivalent"] is True

    def test_negative_verdict(self, capsys):
        code, out = run(
            capsys, "equiv",
            '{"components":[{"kind":"interval"},{"kind":"point"}]}',
            '{"components":[{"kind":"interval"}]}',
        )
        assert code == 1 and out["equivalent"] is False

    def test_space_json_accepted(self, capsys):
        code, out = run(capsys, "equiv", UNIT_JSON, '{"components":[{"kind":"cantor"}]}')
        assert code == 0 and out["equivalent"] is True


class TestCompose:
    def kinked(self) -> PLMap:
        return plmap_from_breakpoints(
            ZERO_TWO, UNIT, [(0, 0), (1, rat(3, 4)), (2, 1)]
        )

    def test_compose_and_apply(self, capsys):
        v = region_json(region(UNIT, (0, "1/2", True, False)))
        code, out = run(
            capsys, "compose",
            "--left", plmap_json(halving()),
            "--right", plmap_json(self.kinked()),
            "--region", v,
        )
        assert code == 0 and out["region"]["spans"]

    def test_check_only(self, capsys):
        code, out = run(
            capsys, "compose",
            "--left", plmap_json(halving()),
            "--right", plmap_json(self.kinked()),
        )
        assert code == 0 and out["ok"] is True

    def test_domain_mismatch(self, capsys):
        code, out = run(
            capsys, "compose",
            "--left", plmap_json(halving()),
            "--right", plmap_json(identity_map(UNIT)),
        )
        assert code == 2 and out["at"] == "DomainMismatch"

    def test_reducible_is_negative_verdict(self, capsys):
        code, out = run(
            capsys, "compose",
            "--left", plmap_json(tent()),
            "--right", plmap_json(identity_map(UNIT)),
        )
        assert code == 1 and out["verdict"] is False


class TestRobustness:
    def test_malformed_arguments_are_input_errors(self, capsys):
        # argparse reads "-:" as an option, so --expr gets no value
        for argv in (["region", "eval", "--space", "[]", "--expr", "-:"], ["region", "eval"], []):
            code, out = run(capsys, *argv)
            assert code == 2 and out["at"] == "ValueError"

    def test_missing_file(self, capsys):
        code, out = run(capsys, "space", "info", "--space", "no/such/file.json")
        assert code == 2

    def test_malformed_json(self, capsys):
        code, out = run(capsys, "space", "info", "--space", "{not json")
        assert code == 2

    def test_determinism(self, capsys):
        argv = ["cantor", "check", "--depth", "5", "--samples", "40", "--seed", "9"]
        code1 = main(argv)
        out1 = capsys.readouterr().out
        code2 = main(argv)
        out2 = capsys.readouterr().out
        assert (code1, out1) == (code2, out2)

    def test_string_flag_is_input_error(self, capsys):
        # the string "false" is malformed input, not a truthy flag
        v = '{"spans":[{"lo":"1/4","hi":"1/2","lo_incl":"false","hi_incl":false}]}'
        code, out = run(capsys, "cover", "psi", "--map", plmap_json(halving()), "--region", v)
        assert code == 2 and out["at"] == "ValueError"

    def test_number_rational_is_input_error(self, capsys):
        # rationals travel as strings; a JSON number is malformed input
        v = '{"spans":[{"lo":0,"hi":"1/2","lo_incl":false,"hi_incl":false}]}'
        code, out = run(
            capsys, "region", "eval", "--space", UNIT_JSON, "--expr", "v", "--bind", f"v={v}"
        )
        assert code == 2 and out["at"] == "ValueError"

    def test_deep_nesting_is_input_error(self, capsys):
        # nesting past the parser limit is a syntax error, not a RecursionError
        expr = "perp(" * 3000 + "I(0,1/2)" + ")" * 3000
        code, out = run(capsys, "region", "eval", "--space", UNIT_JSON, "--expr", expr)
        assert code == 2 and out["at"]["found"] == "perp"

    def test_file_inputs(self, tmp_path, capsys):
        path = tmp_path / "space.json"
        path.write_text(UNIT_PT_JSON, encoding="utf-8")
        code, out = run(capsys, "space", "info", "--space", str(path))
        assert code == 0 and out["isolated"] == ["2"]

    def test_non_object_component_is_input_error(self, capsys):
        code, out = run(capsys, "space", "info", "--space", '{"components":[1]}')
        assert code == 2 and out["at"] == "ValueError"

    def test_non_string_word_is_input_error(self, capsys):
        code, out = run(capsys, "cantor", "psi", "--clopen", '{"words":[0]}')
        assert code == 2 and out["at"] == "ValueError"

    def test_words_must_be_a_list(self, capsys):
        # a string is not read as the list of its characters
        code, out = run(capsys, "cantor", "psi", "--clopen", '{"words":"01"}')
        assert code == 2 and out["at"] == "ValueError"

    def test_pair_must_be_a_list(self, capsys):
        # the string "22" is not read as the pair (2, 2)
        m = json.loads(plmap_json(PLMap(UNIT_PT, UNIT_PT, ((Piece(0, 1, 1, 0),),), ((2, 2),))))
        m["point_images"] = ["22"]
        v = region_json(region(UNIT_PT, ("1/4", "1/2", False, False)))
        code, out = run(capsys, "cover", "psi", "--map", json.dumps(m), "--region", v)
        assert code == 2 and out["at"] == "ValueError"

    def test_inline_array_is_input_error(self, capsys):
        for argv in (
            ["space", "info", "--space", "[1, 2]"],
            ["cantor", "psi", "--clopen", "[]"],
            ["equiv", "[]", UNIT_JSON],
        ):
            code, out = run(capsys, *argv)
            assert code == 2 and out["at"] == "ValueError"

    def test_missing_argument_is_input_error(self, capsys):
        code, out = run(capsys, "ideal", "upsilon")
        assert code == 2 and out["at"] == "ValueError"

    def test_unexpected_exception_is_input_error(self, capsys, monkeypatch):
        def broken(args):
            raise AttributeError("boom")

        monkeypatch.setattr(cli, "_cmd_space_info", broken)
        code = main(["space", "info", "--space", UNIT_JSON])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == '{"at":"AttributeError","error":"boom"}\n'
        assert "Traceback" in captured.err and "AttributeError: boom" in captured.err


# --- the argparse surface ----------------------------------------------------

ALL_GROUPS = "{space,region,cover,cantor,gleason,ideal,equiv,compose}"
# stdout and exit code of help and argument errors, byte for byte at 80 columns
PINNED = [
    (["--help"], 0, f"""usage: regopen [-h]
               {ALL_GROUPS} ...

Command-line surface: JSON in, canonical JSON out, exit codes that separate
negative verdicts (1) from malformed input (2).

positional arguments:
  {ALL_GROUPS}
    space               space inspection
    region              region expressions
    cover               piecewise-linear covers
    cantor              the binary-expansion cover
    gleason             finite projective covers
    ideal               regular ideals
    equiv               Boolean equivalence of descriptors
    compose             compose two covers over a common domain

options:
  -h, --help            show this help message and exit
"""),
    (["space", "--help"], 0, """usage: regopen space [-h] {info} ...

positional arguments:
  {info}

options:
  -h, --help  show this help message and exit
"""),
    (["cover", "check", "--help"], 0, """usage: regopen cover check [-h] --map MAP [--samples SAMPLES] [--seed SEED]

options:
  -h, --help         show this help message and exit
  --map MAP
  --samples SAMPLES
  --seed SEED
"""),
    (["ideal", "--help"], 0, """usage: regopen ideal [-h] [--func FUNC] [--ideal IDEAL] [--right RIGHT]
                     [--map MAP]
                     {supp,member,join,meet,neg,annihilator,upsilon,omega}

positional arguments:
  {supp,member,join,meet,neg,annihilator,upsilon,omega}

options:
  -h, --help            show this help message and exit
  --func FUNC
  --ideal IDEAL
  --right RIGHT
  --map MAP
"""),
    (["compose", "--help"], 0, """usage: regopen compose [-h] --left LEFT --right RIGHT [--region REGION]
                       [--direction {forward,backward}]

options:
  -h, --help            show this help message and exit
  --left LEFT
  --right RIGHT
  --region REGION
  --direction {forward,backward}
"""),
    ([], 2, '{"at":"ValueError","error":"the following arguments are required: command"}\n'),
    (["nope"], 2, '{"at":"ValueError","error":"argument command: invalid choice: \'nope\' (choose from '
                  "'space', 'region', 'cover', 'cantor', 'gleason', 'ideal', 'equiv', 'compose')\"}\n"),
    (["space"], 2, '{"at":"ValueError","error":"the following arguments are required: subcommand"}\n'),
    (["space", "info"], 2, '{"at":"ValueError","error":"the following arguments are required: --space"}\n'),
    (["cantor", "check", "--depth", "x"], 2, '{"at":"ValueError","error":"argument --depth: invalid int value: \'x\'"}\n'),
    (["ideal", "bogus"], 2, '{"at":"ValueError","error":"argument op: invalid choice: \'bogus\' (choose from '
                            "'supp', 'member', 'join', 'meet', 'neg', 'annihilator', 'upsilon', 'omega')\"}\n"),
    (["compose", "--direction", "sideways", "--left", UNIT_JSON, "--right", UNIT_JSON], 2,
     '{"at":"ValueError","error":"argument --direction: invalid choice: \'sideways\' (choose from '
     "'forward', 'backward')\"}\n"),
    (["cover", "psi", "--map"], 2, '{"at":"ValueError","error":"argument --map: expected one argument"}\n'),
    (["space", "info", "--space", "{}", "extra"], 2, '{"at":"ValueError","error":"unrecognized arguments: extra"}\n'),
]


def outcome(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process request; help exits through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestArgparseSurface:
    @pytest.mark.parametrize("argv, code, stdout", PINNED, ids=[" ".join(argv[:3] if len(argv) > 5 else argv) or "no arguments" for argv, *_ in PINNED])
    def test_help_and_argument_errors_are_pinned(self, argv, code, stdout, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert outcome(argv)[:2] == (code, stdout)

    def test_a_top_level_usage_line_lists_every_group(self, monkeypatch):
        # the first word names a group, yet the usage line of an error at the top lists them all
        monkeypatch.setenv("COLUMNS", "80")
        err = outcome(["space", "info", "--space", "{}", "extra"])[2]
        assert err == f"usage: regopen [-h]\n               {ALL_GROUPS} ...\n"

    def test_a_request_builds_only_its_own_parsers(self, capsys, monkeypatch):
        built, init = [], argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda parser, *a, **k: built.append(parser) or init(parser, *a, **k))
        code, out = run(capsys, "space", "info", "--space", UNIT_JSON)
        assert code == 0 and out["isolated"] == []
        assert len(built) == 3  # the top, `space` and `space info`; all commands make 17

    def test_the_script_entry_point_reads_sys_argv(self, capsys):
        # `main()` without arguments, as the `regopen` script calls it
        argv = ["equiv", '{"components":[{"kind":"interval"}]}', '{"components":[{"kind":"point"}]}']
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from regopen.cli import main; sys.exit(main())", *argv],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (main(argv), capsys.readouterr().out)
        assert proc.returncode == 1 and json.loads(proc.stdout)["equivalent"] is False


# --- fuzzing every subcommand -----------------------------------------------

RATS = ["0", "1", "2", "3", "-1", "1/2", "1/4", "3/4", "5/8", "1/3", "1/0", "x", " 1 ", "",
        # at and past the digit bound, above and below the bar
        "1/" + "3" * MAX_LITERAL_DIGITS, "1/" + "3" * (MAX_LITERAL_DIGITS + 1), "-" + "7" * (MAX_LITERAL_DIGITS + 1)]
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from(RATS + ["01", "kind"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["a", "b", "at"]), inner, max_size=2),
    max_leaves=6,
)
RAT = st.sampled_from(RATS) | JUNK
FLAG = st.booleans() | JUNK


def _mostly(valid: list, fuzzed: st.SearchStrategy) -> st.SearchStrategy:
    """A valid fixture three times in four, so the deeper paths run as well."""
    return st.integers(0, 3).flatmap(lambda i: fuzzed if i == 0 else st.sampled_from(valid))


def _obj(**fields):
    """A JSON object with some of the given fields, each possibly junk."""
    return st.fixed_dictionaries({}, optional={k: v | JUNK for k, v in fields.items()})


def _spans(*spans):
    return {"spans": [{"lo": lo, "hi": hi, "lo_incl": li, "hi_incl": hi_} for lo, hi, li, hi_ in spans]}


MAPS = [halving(), tent(), identity_map(UNIT), plmap_from_breakpoints(ZERO_TWO, UNIT, [(0, 0), (1, rat(3, 4)), (2, 1)])]
VALID_REGIONS = [_spans(), _spans(("1/4", "1/2", False, False)), _spans(("0", "1", True, True))]
# at and past the natural depth bound of `cantor phi`
DEEP_REGIONS = [_spans((f"1/{2**k}", f"{2**k - 1}/{2**k}", False, False))
                for k in (MAX_CANTOR_PHI_DEPTH, MAX_CANTOR_PHI_DEPTH + 1)]
COMPONENT = _obj(kind=st.sampled_from(["interval", "point", "blob"]), a=RAT, b=RAT, at=RAT)
SPACE = _mostly([json.loads(UNIT_JSON), json.loads(UNIT_PT_JSON)], _obj(components=st.lists(COMPONENT, max_size=3)))
REGION = _mostly(VALID_REGIONS, _obj(spans=st.lists(_obj(lo=RAT, hi=RAT, lo_incl=FLAG, hi_incl=FLAG), max_size=3)))
PAIRS = st.lists(st.lists(RAT, min_size=2, max_size=2), max_size=2)
PIECES = st.lists(
    st.lists(_obj(src_lo=RAT, src_hi=RAT, slope=RAT, intercept=RAT), max_size=2), max_size=2
)
PLMAP = _mostly(
    [jsonio.encode_value(m) for m in MAPS], _obj(domain=SPACE, codomain=SPACE, pieces=PIECES, point_images=PAIRS)
)
PLFUNC = _mostly(
    [jsonio.encode_value(plfunc_from_breakpoints(UNIT, [(0, 0), (rat(1, 2), 1), (1, 0)]))],
    _obj(space=SPACE, pieces=PIECES, point_values=PAIRS),
)
IDEAL = _mostly(
    [{"space": json.loads(UNIT_JSON), "support": r} for r in VALID_REGIONS[:2]], _obj(space=SPACE, support=REGION)
)
CLOPEN = _mostly([{"words": ["01", "10"]}, {"words": []}], _obj(words=st.lists(st.text("01", max_size=8) | JUNK, max_size=3)))
DESCRIPTOR = _mostly(
    [json.loads(UNIT_JSON), {"components": [{"kind": "cantor"}]}, {"components": [{"kind": "point"}]}],
    _obj(components=st.lists(_obj(kind=st.sampled_from(["interval", "point", "convseq", "cantor", "cantor_midpoints", "x"])), max_size=3)),
)
EXPR = _mostly(
    ["v", "reg(I(0,1/2))", "perp(v)", "join(v,cl(I(1/4,3/4)))", "meet(int(v),pt(1))"],
    st.lists(
        st.sampled_from(["join(", "meet(", "perp(", "cl(", "int(", "reg(", "diff(", "I(0,1/2)", "pt(1)",
                         "I(", "1/3", ",", ")", "v", "w", " ", "/", "²"]),
        max_size=8,
    ).map("".join) | st.text(max_size=8),
)


def _arg(value) -> st.SearchStrategy:
    """Inline JSON text: the value, or now and then a top-level array."""
    return st.integers(0, 4).flatmap(lambda i: st.lists(JUNK, max_size=2) if i == 0 else value).map(json.dumps)


def _flag(name, strategy):
    return st.one_of(st.just([]), strategy.map(lambda v: [name, str(v)]))


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: [x for p in ps for x in (p if isinstance(p, list) else [p])])


SMALL = st.integers(-1, 3)
SAMPLES = SMALL | st.integers(MAX_SAMPLES + 1, 10**9)
SUBCOMMANDS = {
    "space info": _argv(st.just(["space", "info", "--space"]), _arg(SPACE)),
    "region eval": _argv(
        st.just(["region", "eval", "--space"]), _arg(SPACE), st.just("--expr"), EXPR,
        _flag("--bind", _arg(REGION).map(lambda r: "v=" + r)),
    ),
    "cover check": _argv(
        st.just(["cover", "check", "--map"]), _arg(PLMAP), _flag("--samples", SAMPLES), _flag("--seed", SMALL),
    ),
    **{
        f"cover {which}": _argv(st.just(["cover", which, "--map"]), _arg(PLMAP), st.just("--region"), _arg(REGION))
        for which in ("psi", "phi")
    },
    "cantor check": _argv(
        st.just(["cantor", "check"]),
        _flag("--depth", st.integers(-1, 8) | st.integers(MAX_CANTOR_CHECK_DEPTH + 1, 10**9)), st.just(["--samples"]),
        SAMPLES.map(str), _flag("--seed", SMALL),
    ),
    "cantor psi": _argv(st.just(["cantor", "psi", "--clopen"]), _arg(CLOPEN)),
    "cantor phi": _argv(
        st.just(["cantor", "phi", "--region"]), _arg(REGION | st.sampled_from(DEEP_REGIONS)),
        _flag("--depth", st.integers(-1, 64)),
    ),
    "gleason": _argv(
        st.just(["gleason", "--points"]),
        (st.integers(-2, 6) | st.integers(MAX_GLEASON_POINTS + 1, 10**9)).map(str),
    ),
    "ideal": _argv(
        st.just(["ideal"]),
        st.sampled_from(["supp", "member", "join", "meet", "neg", "annihilator", "upsilon", "omega"]),
        _flag("--func", _arg(PLFUNC)), _flag("--ideal", _arg(IDEAL)), _flag("--right", _arg(IDEAL)),
        _flag("--map", _arg(PLMAP)),
    ),
    "equiv": _argv(st.just(["equiv"]), _arg(DESCRIPTOR), _arg(DESCRIPTOR)),
    "compose": _argv(
        st.just(["compose", "--left"]), _arg(PLMAP), st.just("--right"), _arg(PLMAP),
        _flag("--region", _arg(REGION)), _flag("--direction", st.sampled_from(["forward", "backward"])),
    ),
}


class TestFuzz:
    @pytest.mark.parametrize("subcommand", sorted(SUBCOMMANDS))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_one_canonical_line_and_a_known_exit_code(self, subcommand, data):
        argv = data.draw(SUBCOMMANDS[subcommand])
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        text = out.getvalue()
        assert text.count("\n") == 1 and text.endswith("\n")
        assert jsonio.canonical_json(json.loads(text)) + "\n" == text

