"""The value classes against frozen `dataclasses` twins: repr, equality and
hash on seeded field values and on instances the library builds, keyword
construction and defaults, immutability, and the `__post_init__` checks."""
from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from regopen import boolequiv, cantor, cover_iso, exprlang, finball, ideals, plmap, space
from regopen.errors import (
    Discontinuity,
    EmptyDescriptor,
    ImageEscapesCodomain,
    SpaceMismatch,
    _Value,
)
from regopen.space import Interval, Point, Region, Space1D, Span

from conftest import UNIT, UNIT_PT, random_plfunc, region

NOTE = ("base cylinders suffice: any closed set missing a point of C "
        "misses a whole cylinder around it")

# every value class, its fields in order, and the defaults of its last fields
VALUE_CLASSES = [
    (space.Interval, "a b", {}),
    (space.Point, "at", {}),
    (space.Space1D, "components", {}),
    (space.Span, "lo hi lo_incl hi_incl", {}),
    (space.Region, "space rows", {}),
    (plmap.Piece, "src_lo src_hi slope intercept", {}),
    (plmap.PLMap, "domain codomain pieces point_images", {"point_images": ()}),
    (plmap.IrreducibilityVerdict, "irreducible witness reason", {"witness": None, "reason": ""}),
    (ideals.PLFunc, "space pieces point_values", {"point_values": ()}),
    (ideals.RegIdeal, "space support", {}),
    (cantor.CantorClopen, "words", {}),
    (cantor.CantorIrreducibilityReport, "depth cylinders_checked ok note", {"note": NOTE}),
    (cover_iso.BooleanSide, "key join meet neg random", {}),
    (cover_iso.Cover, "name dom cod psi phi decide", {}),
    (cover_iso.CoverReport, "backend surjective irreducible witness reason samples seed law_passes "
                            "law_failures inverse_passes inverse_failures", {}),
    (cover_iso.BridgeReport, "depth samples seed checks failures", {"checks": 0, "failures": ()}),
    (cover_iso.ComposedEquivalence, "f g", {}),
    (finball.FiniteBooleanAlgebra, "atom_labels", {}),
    (finball.TwoValuedHom, "atom_index", {}),
    (finball.FiniteDiscreteSpace, "point_labels", {}),
    (finball.FinCover, "domain codomain table", {}),
    (finball.VerificationReport, "surjective irreducible rigid phi_eq_cl_preimage onto_sandwich "
                                 "psi_inverts_phi witnesses", {}),
    (boolequiv.SpaceDescriptor, "components", {}),
    (boolequiv.BoolInvariant, "isol_card perfect_nonempty", {}),
    (boolequiv.EquivalenceVerdict, "equivalent left right", {}),
    (exprlang.Name, "ident", {}),
    (exprlang.IntervalLit, "a b", {}),
    (exprlang.PointLit, "at", {}),
    (exprlang.Unary, "op arg", {}),
    (exprlang.Binary, "op left right", {}),
    (exprlang.EvalResult, "region open closed regular_open", {}),
]
FIELDS = {cls: names.split() for cls, names, _ in VALUE_CLASSES}


def twin_class(cls, names, defaults):
    """The frozen dataclass with the same name, fields and defaults."""
    return dataclasses.make_dataclass(cls.__name__, [
        (f, object, dataclasses.field(default=defaults[f])) if f in defaults else (f, object)
        for f in names.split()
    ], frozen=True)


TWINS = {cls: twin_class(cls, names, defaults) for cls, names, defaults in VALUE_CLASSES}


def raw(cls, values):
    """An instance holding exactly these field values, past `__init__`."""
    obj = object.__new__(cls)
    for name, value in zip(FIELDS[cls], values):
        object.__setattr__(obj, name, value)
    return obj


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError:
        return "unhashable"


def assert_same_as_twins(x, y):
    """x and y (one value class) behave as their twins on the same field values."""
    tx, ty = (TWINS[type(o)](*[getattr(o, f) for f in FIELDS[type(o)]]) for o in (x, y))
    assert repr(x) == repr(tx) and repr(y) == repr(ty)
    assert hash_or_error(x) == hash_or_error(tx)
    assert (x == y, x != y, y == x) == (tx == ty, tx != ty, ty == tx)
    assert (x == tx, tx == x, x != tx) == (False, False, True)


def test_every_value_class_is_listed():
    assert set(_Value.__subclasses__()) == set(FIELDS)


def _seeded_value(rng: random.Random, depth: int = 0):
    kind = rng.randrange(8 if depth < 2 else 6)
    if kind == 0:
        return rng.randint(-3, 3)
    if kind == 1:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    if kind == 2:
        return rng.choice(["", "0", "01", "x", "I(0,1)"])
    if kind == 3:
        return rng.choice([None, True, False])
    if kind == 4:
        return Interval(rng.randint(0, 2), 3)
    if kind == 5:
        return rng.choice([Point(0), Span(0, 1, True, False), UNIT])
    if kind == 6:
        return tuple(_seeded_value(rng, depth + 1) for _ in range(rng.randint(0, 3)))
    return {"k": _seeded_value(rng, depth + 1)}  # unhashable


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_repr_equality_and_hash_match_the_twin_on_seeded_fields(cls):
    rng = random.Random(cls.__name__)
    n = len(FIELDS[cls])
    for _ in range(40):
        values = [_seeded_value(rng) for _ in range(n)]
        x, same = raw(cls, values), raw(cls, list(values))
        other = list(values)
        other[rng.randrange(n)] = _seeded_value(rng)
        assert_same_as_twins(x, same)
        assert_same_as_twins(x, raw(cls, other))
        assert x == same and hash_or_error(x) == hash_or_error(same)


def test_one_field_classes_hash_a_one_tuple():
    for obj in (Point(1), Space1D((Interval(0, 1),)), cantor.CantorClopen(("01",)), exprlang.Name("x")):
        (field,) = FIELDS[type(obj)]
        assert hash(obj) == hash((getattr(obj, field),))
    assert {Point(1), Point(2), Point(1)} == {Point(2), Point(1)}


def test_a_value_compared_with_itself_computes_no_key(monkeypatch):
    # `r.union(r)` checks that the space equals itself: identity settles it
    key, calls = Space1D._Value__key, []
    monkeypatch.setattr(Space1D, "_Value__key", staticmethod(lambda obj: calls.append(obj) or key(obj)))
    r = region(UNIT_PT, (0, "1/2", True, False))
    assert r.union(r) == r and calls == []
    assert r.space != Space1D((Interval(0, 2),)) and len(calls) == 2  # two distinct spaces do


def test_another_class_with_the_same_fields_is_unequal():
    pairs = [(Interval(0, 1), exprlang.IntervalLit(Fraction(0), Fraction(1))),
             (Point(2), exprlang.PointLit(Fraction(2))),
             (space.Point(Fraction(0)), finball.TwoValuedHom(Fraction(0)))]
    for a, b in pairs:
        assert [getattr(a, f) for f in FIELDS[type(a)]] == [getattr(b, f) for f in FIELDS[type(b)]]
        assert (a == b, b == a, a != b) == (False, False, True)


def library_instances() -> list:
    """At least one instance of every value class, each built by the library."""
    tent = plmap.plmap_from_breakpoints(UNIT, UNIT, [(0, 0), (Fraction(1, 2), 1), (1, 0)])
    ident = plmap.identity_map(UNIT_PT)
    u = region(UNIT_PT, ("0", "1/2", False, False), ("2", "2", True, True))
    backend = cover_iso.PLMapBackend(ident)
    p = finball.FiniteDiscreteSpace(("x", "y", "z"))
    gleason = finball.gleason_cover(p)
    left, right = boolequiv.descriptor("interval", "point"), boolequiv.descriptor("cantor")
    expr = exprlang.parse_expr("join(reg(I(0,1/2)), perp(union(pt(1), x)))")
    out = [
        u, Span(0, 1, True, False), UNIT_PT, *UNIT_PT.components,
        plmap.Piece(0, 1, Fraction(1, 3), -1), tent, ident,
        plmap.is_irreducible(tent), plmap.is_irreducible(ident),
        random_plfunc(UNIT_PT, 5), ideals.ideal_from_open(u),
        cantor.CantorClopen(("01", "1")), cantor.check_irreducible_cantor(2),
        backend, backend.dom, cover_iso.check_essential(backend, samples=3),
        cover_iso.verify_bridge(2, 3), cover_iso.compose_equivalence(backend, backend),
        finball.FiniteBooleanAlgebra(("a", "b")), finball.TwoValuedHom(1), p, gleason.f,
        finball.verify_projective_cover(gleason.P, gleason.f, p, gleason.homs),
        left, boolequiv.invariant(left), boolequiv.equivalent(left, right),
        exprlang.eval_expr(expr, UNIT_PT, {"x": u}),
    ]
    nodes = [expr]
    while nodes:
        node = nodes.pop()
        out.append(node)
        nodes += [getattr(node, f) for f in ("arg", "left", "right") if hasattr(node, f)]
    return out


def test_library_instances_match_their_twins():
    instances = library_instances()
    assert {type(o) for o in instances} == set(FIELDS)
    for x in instances:
        assert_same_as_twins(x, x)
        for y in instances:
            if type(y) is type(x):
                assert_same_as_twins(x, y)


def test_derived_attributes_stay_out_of_the_fields():
    r = region(UNIT, ("0", "1/2", True, False))
    before = (repr(r), hash(r))
    assert r.contains(Fraction(1, 4)) and r.spans  # both read the rows; neither is kept on the instance
    assert (repr(r), hash(r)) == before and r == region(UNIT, ("0", "1/2", True, False))
    f = finball.gleason_cover(finball.FiniteDiscreteSpace(("x", "y"))).f
    assert f.index and "index" not in repr(f)
    m = plmap.identity_map(UNIT)
    assert m._branches and "_branches" not in repr(m)


def test_keywords_and_defaults():
    assert Interval(a=0, b=1) == Interval(0, b=1) == Interval(b=1, a=0) == Interval(0, 1)
    assert plmap.IrreducibilityVerdict(True) == plmap.IrreducibilityVerdict(True, None, "")
    assert cover_iso.BridgeReport(6, 10, 0) == cover_iso.BridgeReport(6, 10, 0, 0, ())
    assert cover_iso.BridgeReport(6, 10, 0, failures=("x",)).checks == 0
    assert cantor.CantorIrreducibilityReport(2, 6, True).note == NOTE
    pieces = ((plmap.Piece(0, 1, 1, 0),),)
    assert plmap.PLMap(codomain=UNIT, pieces=pieces, domain=UNIT) == plmap.identity_map(UNIT)
    assert ideals.PLFunc(UNIT, pieces).point_values == ()


@pytest.mark.parametrize("args, kwargs", [
    ((0,), {}), ((0, 1, 2), {}), ((), {"a": 0}), ((0,), {"c": 1}), ((0,), {"a": 1}),
    ((0, 1), {"b": 1}), ((0,), {"b": 1, "c": 2}),
])
def test_bad_arguments_raise_type_error_as_the_twin_does(args, kwargs):
    with pytest.raises(TypeError):
        TWINS[Interval](*args, **kwargs)
    with pytest.raises(TypeError):
        Interval(*args, **kwargs)


def test_defaults_do_not_stand_in_for_required_fields():
    for call in (lambda: plmap.IrreducibilityVerdict(), lambda: plmap.PLMap(UNIT, UNIT),
                 lambda: cover_iso.BridgeReport(1, 2), lambda: Span(0, 1),
                 lambda: cover_iso.BridgeReport(1, 2, 3, 4, (), 6)):
        with pytest.raises(TypeError):
            call()


def test_assignment_and_deletion_raise():
    for obj in library_instances():
        name = FIELDS[type(obj)][0]
        value = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.extra = 1
        assert getattr(obj, name) is value


def test_post_init_checks_still_reject():
    cases = [
        (ValueError, lambda: Interval(1, 0)),
        (ValueError, lambda: Interval(1, 1)),
        (ValueError, lambda: plmap.Piece(1, 1, 0, 0)),
        (ValueError, lambda: Space1D(())),
        (ValueError, lambda: Space1D((Interval(2, 3), Interval(0, 1)))),
        (TypeError, lambda: cantor.CantorClopen("01")),
        (ValueError, lambda: cantor.CantorClopen(("0a",))),
        (EmptyDescriptor, lambda: boolequiv.SpaceDescriptor(())),
        (ValueError, lambda: boolequiv.SpaceDescriptor(("blob",))),
        (ValueError, lambda: finball.FiniteBooleanAlgebra(("a", "a"))),
        (ValueError, lambda: finball.FiniteDiscreteSpace(())),
        (ValueError, lambda: finball.FinCover(finball.FiniteDiscreteSpace(("x",)),
                                              finball.FiniteDiscreteSpace(("y",)), (("x", "z"),))),
        (ValueError, lambda: ideals.RegIdeal(UNIT, region(UNIT, ("0", "1/2", True, True)))),
        (SpaceMismatch, lambda: ideals.RegIdeal(UNIT_PT, UNIT.full_region())),
        (ImageEscapesCodomain, lambda: plmap.PLMap(UNIT, UNIT, ((plmap.Piece(0, 1, 2, 0),),))),
        (Discontinuity, lambda: plmap.PLMap(UNIT, UNIT, ((plmap.Piece(0, Fraction(1, 2), 0, 0),
                                                          plmap.Piece(Fraction(1, 2), 1, 0, 1)),))),
    ]
    for error, build in cases:
        with pytest.raises(error):
            build()
    with pytest.raises(ValueError, match=r"^bad component: 'x'$"):
        Space1D(("x",))
    with pytest.raises(ValueError, match=r"^bad component: Span\(lo=Fraction\(0, 1\), hi=Fraction\(1, 1\), "
                                         r"lo_incl=True, hi_incl=False\)$"):
        Space1D((Span(0, 1, True, False),))


def test_post_init_coerces():
    i = Interval(0, "1/2")
    assert (type(i.a), i.b) == (Fraction, Fraction(1, 2))
    s = Span(0, 1, True, True)
    assert type(s.lo) is Fraction and Region(UNIT, [s, s]).spans == (s,)
    assert finball.FiniteDiscreteSpace(["x"]).point_labels == ("x",)
    assert boolequiv.SpaceDescriptor(("point", "interval")).components == ("interval", "point")
