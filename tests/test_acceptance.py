"""Acceptance gate: the eight release criteria, one summary line each.

Every comparison is exact equality of canonical objects; there are no
tolerances anywhere.  Each criterion is one test; the terminal summary
prints a PASS/FAIL line per criterion (hook in conftest).  The whole
module is budgeted to stay well under a minute.
"""
from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from regopen import jsonio
from regopen.boolequiv import descriptor, equivalent
from regopen.cantor import (
    check_irreducible_cantor,
    clopen_compl,
    clopen_from_leafmask,
    clopen_inter,
    clopen_union,
    dyadic_regular_open_from_cellmask,
    phi_c,
    psi_c,
)
from regopen.cli import main as cli_main
from regopen.cover_iso import verify_bridge
from regopen.finball import (
    FinCover,
    FiniteBooleanAlgebra,
    FiniteDiscreteSpace,
    gleason_cover,
    iso_check,
    unique_cover_homeomorphism,
    verify_projective_cover,
)
from regopen.ideals import (
    RegIdeal,
    annihilator,
    ideal_from_open,
    ideal_join,
    ideal_meet,
    ideal_neg,
    in_ideal,
    omega,
    pl_supp,
    pullback,
    supp,
    upsilon,
)
from regopen.plmap import PLMap, Piece, identity_map, is_irreducible, plmap_from_breakpoints
from regopen.rationals import rat
from regopen.space import (
    Interval,
    Point,
    Region,
    Space1D,
    Span,
    decompose_space,
    random_regular_open,
    ropen_join,
    ropen_meet,
    ropen_neg,
    theta,
)

from conftest import FIXTURE_SPACES, MIXED, TWO_INTERVALS, UNIT, random_plfunc, random_region, trusted_region
import finball_oracle
from grid_oracle import GridOracle

ZERO_TWO = Space1D((Interval(0, 2),))


def criterion(num: int, label: str):
    def deco(fn):
        fn.criterion_number = num
        fn.criterion_label = label
        return fn
    return deco


# --- criterion 1: Boolean-algebra laws -------------------------------------

def _ba_laws(space: Space1D, u: Region, v: Region, w: Region) -> None:
    full, empty = space.full_region(), space.empty_region()
    assert ropen_join(u, v) == ropen_join(v, u)
    assert ropen_meet(u, v) == ropen_meet(v, u)
    assert ropen_join(ropen_join(u, v), w) == ropen_join(u, ropen_join(v, w))
    assert ropen_meet(ropen_meet(u, v), w) == ropen_meet(u, ropen_meet(v, w))
    assert ropen_join(u, ropen_meet(u, v)) == u
    assert ropen_meet(u, ropen_join(u, v)) == u
    assert ropen_meet(u, ropen_join(v, w)) == ropen_join(ropen_meet(u, v), ropen_meet(u, w))
    assert ropen_join(u, ropen_meet(v, w)) == ropen_meet(ropen_join(u, v), ropen_join(u, w))
    assert ropen_join(u, empty) == u and ropen_meet(u, full) == u
    assert ropen_join(u, full) == full and ropen_meet(u, empty) == empty
    assert ropen_join(u, ropen_neg(u)) == full
    assert ropen_meet(u, ropen_neg(u)) == empty
    assert ropen_neg(ropen_neg(u)) == u
    assert ropen_neg(ropen_join(u, v)) == ropen_meet(ropen_neg(u), ropen_neg(v))
    assert ropen_neg(ropen_meet(u, v)) == ropen_join(ropen_neg(u), ropen_neg(v))
    assert ropen_join(u, u) == u and ropen_meet(u, u) == u


@pytest.mark.usefixtures("audited_rows")
@criterion(1, "BA axioms exact on 1000 seeded regular opens over 5 spaces; "
              "1/2048-grid cross-check on [0,1]")
def test_criterion_1_boolean_algebra_laws():
    per_space = 200
    assert len(FIXTURE_SPACES) == 5
    unit_regs = None
    for si, space in enumerate(FIXTURE_SPACES):
        regs = [random_regular_open(space, 100_000 * si + k) for k in range(per_space)]
        for r in regs:
            assert r.is_regular_open()
        for i in range(per_space - 2):
            _ba_laws(space, regs[i], regs[i + 1], regs[i + 2])
        if space is UNIT:
            unit_regs = regs

    oracle = GridOracle(UNIT)
    vecs = [oracle.vec(r) for r in unit_regs]
    for i in range(per_space - 1):
        u, v = unit_regs[i], unit_regs[i + 1]
        assert oracle.vec(ropen_join(u, v)) == oracle.join(vecs[i], vecs[i + 1])
        assert oracle.vec(ropen_meet(u, v)) == oracle.inter(vecs[i], vecs[i + 1])
        assert oracle.vec(ropen_neg(u)) == oracle.perp(vecs[i])
        assert oracle.vec(u.union(v).regularize()) == oracle.regularize(
            oracle.union(vecs[i], vecs[i + 1])
        )


# --- criterion 2: finite dual-space covers ----------------------------------

@pytest.mark.usefixtures("audited_rows")
@criterion(2, "projective-cover checks exhaustive for sizes 1..8; "
              "unique cover homeomorphism for sizes 1..6")
def test_criterion_2_finite_cover_suite():
    for n in range(1, 9):
        x = FiniteDiscreteSpace(tuple(f"x{i}" for i in range(n)))
        res = gleason_cover(x)
        assert res.P.n == n
        rep = verify_projective_cover(res.P, res.f, x, res.homs)
        assert rep.surjective
        assert rep.irreducible
        assert rep.rigid
        assert rep.phi_eq_cl_preimage
        assert rep.onto_sandwich
        assert rep.psi_inverts_phi
        assert rep.all_ok and not rep.witnesses
        # the enumerating construction and checks, every subset of both spaces
        oracle = finball_oracle.gleason_cover(x)
        assert oracle == res
        assert finball_oracle.verify_projective_cover(oracle.P, oracle.f, x, oracle.homs) == rep

    for n in range(1, 7):
        x = FiniteDiscreteSpace(tuple(f"x{i}" for i in range(n)))
        f1 = gleason_cover(x).f
        # same cover with scrambled point names: exactly one relabeling fits
        relabel = {f"p{i}": f"q{(i + 3) % n}" for i in range(n)}
        p2 = FiniteDiscreteSpace(tuple(relabel[p] for p in f1.domain.point_labels))
        f2 = FinCover(p2, x, tuple((relabel[p], xl) for p, xl in f1.table))
        mapping, count = unique_cover_homeomorphism(f1, f2)
        assert count == 1
        lookup = dict(f2.table)
        assert all(lookup[mapping[p]] == xl for p, xl in f1.table)


# --- criterion 3: the binary-word bridge ------------------------------------

@criterion(3, "word/interval bridge: roundtrips and neg exhaustive to depth 4, "
              "pair laws exhaustive to depth 3, 1000 random samples to depth 10")
def test_criterion_3_cantor_bridge():
    # depth <= 4, all 65536 clopens: both roundtrip identities and the two
    # complement-transport laws, against the independent cell construction
    regions = []
    for mask in range(65536):
        k = clopen_from_leafmask(4, mask)
        v = psi_c(k)
        assert dyadic_regular_open_from_cellmask(4, mask) == v
        assert phi_c(v, depth=4) == k
        regions.append(v)
    for mask in range(65536):
        assert regions[mask ^ 0xFFFF] == regions[mask].perp()
    for mask in range(65536):
        k = clopen_from_leafmask(4, mask)
        assert clopen_compl(k) == clopen_from_leafmask(4, mask ^ 0xFFFF)
    for mask in range(0, 65536, 31):  # spelled-out spot check of psi(phi(v)) = v
        assert psi_c(phi_c(regions[mask], depth=4)) == regions[mask]

    # depth <= 3, all unordered pairs: join/meet transport in both directions
    ks = [clopen_from_leafmask(3, m) for m in range(256)]
    rs = [psi_c(k) for k in ks]
    psimap = {ks[m].words: rs[m] for m in range(256)}
    phimap = {rs[m].spans: phi_c(rs[m], depth=3) for m in range(256)}
    for a in range(256):
        ka, ra = ks[a], rs[a]
        fa = phimap[ra.spans]
        for b in range(a, 256):
            kb, rb = ks[b], rs[b]
            j = ropen_join(ra, rb)
            assert psimap[clopen_union(ka, kb).words] == j
            assert clopen_union(fa, phimap[rb.spans]) == phimap[j.spans]
            m = ropen_meet(ra, rb)
            assert psimap[clopen_inter(ka, kb).words] == m
            assert clopen_inter(fa, phimap[rb.spans]) == phimap[m.spans]

    # randomized: 1000 seeded trials, depths drawn up to 10, 8 checks each
    rep = verify_bridge(depth=10, samples=1000, seed=20260814)
    assert rep.ok and not rep.failures
    assert rep.samples == 1000 and rep.checks == 8000


# --- criterion 4: irreducibility decisions ----------------------------------

def _random_surjection(seed: int) -> PLMap | None:
    rng = random.Random(seed)
    xs = sorted(rng.sample([rat(k, 8) for k in range(1, 8)], rng.randint(1, 3)))
    points = [rat(0)] + xs + [rat(1)]
    if rng.random() < 0.5:
        # strictly monotone half keeps the irreducible side well populated
        inner = sorted(rng.sample(range(1, 8), len(points) - 2))
        values = [rat(v, 8) for v in [0] + inner + [8]]
        if rng.random() < 0.5:
            values.reverse()
    else:
        values = [rat(rng.randint(0, 8), 8) for _ in points]
    m = plmap_from_breakpoints(UNIT, UNIT, list(zip(points, values)))
    return m if m.is_surjective() else None


def _oracle_candidate(space: Space1D, rng: random.Random) -> Region:
    comp = rng.choice(space.components)
    if isinstance(comp, Point):
        return trusted_region(space, (Span(comp.at, comp.at, True, True),))
    k = rng.randint(3, 9)
    pos = rng.randrange(2**k)
    width = comp.b - comp.a
    lo = comp.a + width * rat(pos, 2**k)
    hi = comp.a + width * rat(pos + 1, 2**k)
    return Region(space, [Span(lo, hi, False, False)])


@pytest.mark.usefixtures("audited_rows")
@criterion(4, "cylinder irreducibility at depth 8 (510 cylinders); decision vs "
              "500-sample removal oracle on 200 random surjections")
def test_criterion_4_irreducibility():
    rep = check_irreducible_cantor(depth=8)
    assert rep.ok and rep.cylinders_checked == 510

    dom_full, cod_full = UNIT.full_region(), UNIT.full_region()
    fixtures = []
    seed = 0
    while len(fixtures) < 200:
        m = _random_surjection(seed)
        seed += 1
        if m is not None:
            fixtures.append((seed - 1, m))
    reducible = 0
    for fseed, m in fixtures:
        verdict = is_irreducible(m)
        if not verdict.irreducible:
            reducible += 1
            w = verdict.witness
            assert w is not None and not w.is_empty and w.is_open()
            # the witness is redundant: everything outside it still covers
            assert m.image(dom_full.difference(w)) == cod_full
        rng = random.Random(900_000 + fseed)
        for _ in range(500):
            u = _oracle_candidate(UNIT, rng)
            if m.image(dom_full.difference(u)) == cod_full:
                assert not verdict.irreducible, (
                    f"seed {fseed}: oracle found a removable open the decision missed"
                )
                break
    # the pool must genuinely exercise both verdicts
    assert 20 <= reducible <= 180


# --- criterion 5: the ideal layer -------------------------------------------

def _glue_map() -> PLMap:
    return PLMap(TWO_INTERVALS, ZERO_TWO, ((Piece(0, 1, 1, 0),), (Piece(2, 3, 1, -1),)))


def _kinked() -> PLMap:
    return plmap_from_breakpoints(ZERO_TWO, UNIT, [(0, 0), (1, rat(3, 4)), (2, 1)])


def _halving() -> PLMap:
    return PLMap(ZERO_TWO, UNIT, ((Piece(0, 2, rat(1, 2), 0),),))


@pytest.mark.usefixtures("audited_rows")
@criterion(5, "ideal round trips and annihilator involution; transport maps "
              "inverse, law-preserving and support-consistent on 200+ samples")
def test_criterion_5_ideal_layer():
    for si, space in enumerate(FIXTURE_SPACES):
        rng = random.Random(5_000 + si)
        for k in range(40):
            v = random_regular_open(space, 7_000 * si + k)
            j = RegIdeal(space, v)
            assert supp(j) == v
            u = random_region(space, rng).interior()
            assert supp(ideal_from_open(u)) == u.regularize()
            assert annihilator(annihilator(j)) == j
        if space.interval_components():
            for k in range(10):
                f = random_plfunc(space, 11_000 * si + k)
                assert in_ideal(f, ideal_from_open(pl_supp(f)))

    fixtures = [_halving(), _kinked(), _glue_map(), identity_map(MIXED)]
    for fi, pi in enumerate(fixtures):
        assert is_irreducible(pi).irreducible
        dom, cod = pi.domain, pi.codomain
        base = 1_000_000 * (fi + 1)
        js = [RegIdeal(cod, random_regular_open(cod, base + k)) for k in range(200)]
        ks = [RegIdeal(dom, random_regular_open(dom, base + 500 + k)) for k in range(200)]
        for k_ in range(200):
            j, k2 = js[k_], ks[k_]
            assert omega(pi, upsilon(pi, j)) == j
            assert upsilon(pi, omega(pi, k2)) == k2
            assert supp(upsilon(pi, j)) == pi.phi(supp(j))
            assert supp(omega(pi, k2)) == pi.psi(supp(k2))
        for k_ in range(199):
            j1, j2 = js[k_], js[k_ + 1]
            assert upsilon(pi, ideal_join(j1, j2)) == ideal_join(upsilon(pi, j1), upsilon(pi, j2))
            assert upsilon(pi, ideal_meet(j1, j2)) == ideal_meet(upsilon(pi, j1), upsilon(pi, j2))
            assert upsilon(pi, ideal_neg(j1)) == ideal_neg(upsilon(pi, j1))
            k1, k2 = ks[k_], ks[k_ + 1]
            assert omega(pi, ideal_join(k1, k2)) == ideal_join(omega(pi, k1), omega(pi, k2))
            assert omega(pi, ideal_meet(k1, k2)) == ideal_meet(omega(pi, k1), omega(pi, k2))
            assert omega(pi, ideal_neg(k1)) == ideal_neg(omega(pi, k1))
        # ring-level consistency: composing generators with the map lands on
        # the same supports the transport computes
        for k_ in range(60):
            f = random_plfunc(cod, base + 2_000 + k_)
            j = ideal_from_open(pl_supp(f))
            assert pl_supp(pullback(pi, f)).regularize() == supp(upsilon(pi, j))
        for k_ in range(60):
            f = random_plfunc(cod, base + 3_000 + k_)
            k2 = ks[k_ % 200]
            assert in_ideal(f, omega(pi, k2)) == in_ideal(pullback(pi, f), k2)


# --- criterion 6: countable-structure equivalence ---------------------------

@criterion(6, "frozen equivalence verdicts; agreement with finite atom-count "
              "isomorphism on all pairs up to 8 points")
def test_criterion_6_equivalence_decisions():
    assert equivalent(descriptor("interval"), descriptor("cantor")).equivalent
    assert equivalent(descriptor("convseq"), descriptor("convseq", "convseq")).equivalent
    assert not equivalent(descriptor("interval", "point"), descriptor("interval")).equivalent

    for n in range(1, 9):
        for m in range(1, 9):
            verdict = equivalent(descriptor(*["point"] * n), descriptor(*["point"] * m))
            a = FiniteBooleanAlgebra(tuple(f"x{i}" for i in range(n)))
            b = FiniteBooleanAlgebra(tuple(f"y{i}" for i in range(m)))
            assert verdict.equivalent == (iso_check(a, b) is not None) == (n == m)


# --- criterion 7: isolated/perfect decomposition ----------------------------

def _mask_region(space: Space1D, step, mask: int) -> Region:
    """Region from one bit per point component and per step-width cell."""
    spans = []
    bit = 0
    for comp in space.components:
        if isinstance(comp, Point):
            if mask >> bit & 1:
                spans.append(Span(comp.at, comp.at, True, True))
            bit += 1
            continue
        n = int((comp.b - comp.a) / step)
        i = 0
        while i < n:
            if not mask >> (bit + i) & 1:
                i += 1
                continue
            j = i
            while j < n and mask >> (bit + j) & 1:
                j += 1
            lo, hi = comp.a + step * i, comp.a + step * j
            spans.append(Span(lo, hi, lo == comp.a, hi == comp.b))
            i = j
        bit += n
    return trusted_region(space, tuple(spans))


SMALL = Space1D((Interval(0, rat(1, 8)), Point(rat(1, 4)), Interval(rat(3, 8), rat(1, 2))))


@criterion(7, "perfect part is the complement of the isolated part; "
              "recombination bijective on 512 elements and law-preserving")
def test_criterion_7_decomposition():
    for space in FIXTURE_SPACES + (SMALL,):
        dec = decompose_space(space)
        assert dec.atomless_part.interior() == ropen_neg(dec.atomic_part.interior())

    # bijectivity on the depth-4 dyadic elements of the mixed fixture:
    # 2 atomic-factor elements x 256 cell masks against direct construction
    step = rat(1, 16)
    dec = decompose_space(MIXED)
    sub_a, sub_c = dec.sub_atomic, dec.sub_atomless
    a_elems = [sub_a.empty_region(), sub_a.full_region()]
    seen = set()
    for pt in (0, 1):
        for mask in range(256):
            wc = _mask_region(sub_c, step, mask)
            got = theta(MIXED, a_elems[pt], wc)
            combined = (mask & 0xF) | pt << 4 | (mask >> 4) << 5
            assert got == _mask_region(MIXED, step, combined)
            seen.add(got.spans)
    assert len(seen) == 512

    # laws, exhaustively over all pairs of a small two-factor fixture
    sdec = decompose_space(SMALL)
    sa, sc = sdec.sub_atomic, sdec.sub_atomless
    elems = [
        (a, _mask_region(sc, step, m))
        for a in (sa.empty_region(), sa.full_region())
        for m in range(16)
    ]
    for wa1, wc1 in elems:
        t1 = theta(SMALL, wa1, wc1)
        assert theta(SMALL, ropen_neg(wa1), ropen_neg(wc1)) == ropen_neg(t1)
        for wa2, wc2 in elems:
            t2 = theta(SMALL, wa2, wc2)
            assert theta(SMALL, ropen_join(wa1, wa2), ropen_join(wc1, wc2)) == ropen_join(t1, t2)
            assert theta(SMALL, ropen_meet(wa1, wa2), ropen_meet(wc1, wc2)) == ropen_meet(t1, t2)

    # and on sampled pairs of the bigger fixture
    rng = random.Random(77)
    for _ in range(200):
        wa1, wa2 = (a_elems[rng.randrange(2)] for _ in range(2))
        wc1 = _mask_region(sub_c, step, rng.randrange(256))
        wc2 = _mask_region(sub_c, step, rng.randrange(256))
        t1, t2 = theta(MIXED, wa1, wc1), theta(MIXED, wa2, wc2)
        assert theta(MIXED, ropen_join(wa1, wa2), ropen_join(wc1, wc2)) == ropen_join(t1, t2)
        assert theta(MIXED, ropen_meet(wa1, wa2), ropen_meet(wc1, wc2)) == ropen_meet(t1, t2)
        assert theta(MIXED, ropen_neg(wa1), ropen_neg(wc1)) == ropen_neg(t1)


# --- criterion 8: CLI determinism -------------------------------------------

def _run_cli(argv: list[str]) -> tuple[int, bytes]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue().encode()


@criterion(8, "repeated CLI runs with fixed seeds emit byte-identical output")
def test_criterion_8_cli_determinism():
    ident = json.dumps(jsonio.encode_value(identity_map(MIXED)))
    unit = json.dumps(jsonio.encode_value(UNIT))
    commands = [
        ["cantor", "check", "--depth", "5", "--samples", "50", "--seed", "11"],
        ["cover", "check", "--map", ident, "--samples", "25", "--seed", "3"],
        ["region", "eval", "--space", unit,
         "--expr", "join(reg(I(0,1/2)),perp(I(1/4,3/4)))"],
        ["gleason", "--points", "4"],
        ["equiv", '{"components":[{"kind":"interval"}]}',
         '{"components":[{"kind":"cantor"}]}'],
        ["cantor", "phi", "--region",
         '{"spans":[{"lo":"1/4","hi":"3/4","lo_incl":false,"hi_incl":false}]}',
         "--depth", "6"],
    ]
    for argv in commands:
        first, second = _run_cli(argv), _run_cli(argv)
        assert first == second
        assert first[1].endswith(b"\n")

    cmd = [sys.executable, "-m", "regopen.cli",
           "cantor", "check", "--depth", "4", "--samples", "20", "--seed", "5"]
    # the child imports the package from this source tree, installed or not
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    runs = [subprocess.run(cmd, capture_output=True, env=env) for _ in range(2)]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout and runs[0].stdout
