"""JSON codecs: one encoder, which writes every value from its fields, and one
decoder per interchange type; rationals travel as strings."""
from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from .errors import SpaceMismatch, _Value
from .rationals import Q, parse_rat, rat_str

if TYPE_CHECKING:  # the decoders that build these import them, so no codec loads them all
    from .cantor import CantorClopen
    from .ideals import PLFunc, RegIdeal
    from .plmap import Piece, PLMap
    from .space import Region, Space1D


def canonical_json(obj: Any) -> str:
    """Sorted keys, no whitespace: byte-stable for identical values."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def encode_value(x: Any) -> Any:
    """The JSON form of a value: a rational as its string, any value class as
    its `to_json()` (its fields, then each property its class defines: a
    report's verdict, a component's kind), containers item by item."""
    if isinstance(x, Q):
        return rat_str(x)
    if isinstance(x, _Value):
        return x.to_json()
    if isinstance(x, (tuple, list)):
        return [encode_value(v) for v in x]
    if isinstance(x, dict):
        return {k: encode_value(v) for k, v in x.items()}
    return x


# --- spaces and regions ---

def _object(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {data!r}")
    return data


def decode_space(data: dict) -> Space1D:
    from .space import Interval, Point, Space1D
    comps = []
    for entry in _object(data, "a space")["components"]:
        kind = _object(entry, "a component").get("kind")
        if kind == "interval":
            comps.append(Interval(parse_rat(entry["a"]), parse_rat(entry["b"])))
        elif kind == "point":
            comps.append(Point(parse_rat(entry["at"])))
        else:
            raise ValueError(f"unknown component kind {kind!r}")
    return Space1D(tuple(comps))


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"inclusion flag must be a JSON boolean, got {value!r}")
    return value


def decode_region(space: Space1D, data: dict) -> Region:
    from .space import Span, canonicalize
    spans = [
        Span(
            parse_rat(s["lo"]),
            parse_rat(s["hi"]),
            _flag(s["lo_incl"]),
            _flag(s["hi_incl"]),
        )
        for s in data["spans"]
    ]
    result = canonicalize(space, spans)
    if result.clipped:
        raise SpaceMismatch("a span reaches outside the space")
    return result.region


# --- piecewise-linear maps and functions ---

def _decode_piece(data: dict) -> Piece:
    from .plmap import Piece
    return Piece(
        parse_rat(data["src_lo"]),
        parse_rat(data["src_hi"]),
        parse_rat(data["slope"]),
        parse_rat(data["intercept"]),
    )


def _decode_pairs(data) -> tuple:
    if not isinstance(data, list) or not all(isinstance(p, list) and len(p) == 2 for p in data):
        raise ValueError(f"pairs must be a JSON list of two-element lists, got {data!r}")
    return tuple((parse_rat(a), parse_rat(b)) for a, b in data)


def decode_plmap(data: dict) -> PLMap:
    from .plmap import PLMap
    return PLMap(
        decode_space(data["domain"]),
        decode_space(data["codomain"]),
        tuple(tuple(_decode_piece(p) for p in run) for run in data["pieces"]),
        _decode_pairs(data.get("point_images", [])),
    )


def decode_plfunc(data: dict) -> PLFunc:
    from .ideals import PLFunc
    return PLFunc(
        decode_space(data["space"]),
        tuple(tuple(_decode_piece(p) for p in run) for run in data["pieces"]),
        _decode_pairs(data.get("point_values", [])),
    )


# --- clopens and ideals ---

def decode_clopen(data: dict) -> CantorClopen:
    from .cantor import CantorClopen
    words = _object(data, "a clopen")["words"]
    if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
        raise ValueError(f"words must be a JSON list of strings, got {words!r}")
    return CantorClopen(tuple(words))


def decode_ideal(data: dict) -> RegIdeal:
    from .ideals import RegIdeal
    space = decode_space(data["space"])
    return RegIdeal(space, decode_region(space, data["support"]))
