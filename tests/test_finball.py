"""Finite Boolean algebras, dual spaces, and the finite cover construction."""
from __future__ import annotations

import itertools

import pytest

import finball_oracle as oracle
from finball_oracle import subsets
from regopen.finball import (
    FinCover,
    FiniteBooleanAlgebra,
    FiniteDiscreteSpace,
    TwoValuedHom,
    VerificationReport,
    dual_space,
    gleason_cover,
    iso_check,
    unique_cover_homeomorphism,
    verify_projective_cover,
)
from regopen.jsonio import canonical_json, encode_value

ABC = FiniteBooleanAlgebra(("a", "b", "c"))


def wire(report: VerificationReport) -> str:
    return canonical_json(encode_value(report))


def exhaustive_two_valued_homs(n: int) -> list[int]:
    """Filter all 2^(2^n) maps from the power set to {0,1} down to homomorphisms.

    A map is an integer bitvector indexed by element bitmask.  This is the
    slow certification oracle for the principal-evaluation representation.
    """
    size = 1 << n
    top = size - 1
    homs = []
    for func in range(1 << size):
        if func & 1:  # p(0) must be 0
            continue
        if not (func >> top) & 1:  # p(1) must be 1
            continue
        ok = True
        for a in range(size):
            pa = (func >> a) & 1
            if (func >> (top ^ a)) & 1 != 1 - pa:  # complement
                ok = False
                break
            for b in range(a, size):
                pb = (func >> b) & 1
                if (func >> (a | b)) & 1 != (pa | pb) or (func >> (a & b)) & 1 != (pa & pb):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            homs.append(func)
    return homs


def homeomorphisms_by_enumeration(f1: FinCover, f2: FinCover) -> list[dict]:
    """Oracle: every bijection φ: P1 -> P2 with f2∘φ = f1, trying all n! permutations.

    The list follows the lexicographic order of the permutations, so its
    first entry is the map `unique_cover_homeomorphism` returns.
    """
    p1, p2 = f1.domain.point_labels, f2.domain.point_labels
    over1, over2 = dict(f1.table), dict(f2.table)
    return [
        {lab: p2[j] for lab, j in zip(p1, perm)}
        for perm in itertools.permutations(range(len(p2)))
        if all(over2[p2[j]] == over1[lab] for lab, j in zip(p1, perm))
    ]


def rigidity_by_enumeration(f: FinCover) -> tuple[bool, dict | None]:
    """Oracle: walk every h with f∘h = f, each point sent into its fibre, in product order.

    The cover is rigid when the identity is the only one; otherwise the
    first h that moves a point is the witness, given on the points it moves.
    """
    p = f.domain.point_labels
    over = dict(f.table)
    fibres: dict[str, list[int]] = {}
    for i, lab in enumerate(p):
        fibres.setdefault(over[lab], []).append(i)
    for combo in itertools.product(*(fibres[over[lab]] for lab in p)):
        if any(c != i for i, c in enumerate(combo)):
            return False, {p[i]: p[c] for i, c in enumerate(combo) if i != c}
    return True, None


def partition_covers(n: int):
    """Every cover of n points up to renaming the codomain: one per set partition."""

    def grow(images: list[int], m: int):
        if len(images) == n:
            yield images, m
            return
        for k in range(m + 1):
            yield from grow(images + [k], max(m, k + 1))

    for images, m in grow([], 0):
        p = FiniteDiscreteSpace(tuple(f"p{i}" for i in range(n)))
        x = FiniteDiscreteSpace(tuple(f"x{k}" for k in range(m)))
        yield FinCover(p, x, tuple((f"p{i}", f"x{k}") for i, k in enumerate(images)))


def relabel(f: FinCover, order: list[int]) -> FinCover:
    """The same cover with point i of the domain renamed q<order[i]> and listed by name."""
    q = FiniteDiscreteSpace(tuple(f"q{i}" for i in range(f.domain.n)))
    over = dict(f.table)
    return FinCover(q, f.codomain, tuple(
        (f"q{order[i]}", over[lab]) for i, lab in enumerate(f.domain.point_labels)
    ))


class TestAlgebraBasics:
    def test_labels_distinct(self):
        with pytest.raises(ValueError):
            FiniteBooleanAlgebra(("a", "a"))
        with pytest.raises(ValueError):
            FiniteBooleanAlgebra(())


class TestDualSpace:
    def test_counts(self):
        for n in range(1, 7):
            algebra = FiniteBooleanAlgebra(tuple(f"x{i}" for i in range(n)))
            assert len(dual_space(algebra)) == n

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_certified_against_exhaustive_filter(self, n):
        # the oracle enumerates every two-valued map and keeps homomorphisms;
        # each survivor must be evaluation at a single atom, and vice versa
        homs = exhaustive_two_valued_homs(n)
        size = 1 << n
        principal = []
        for k in range(n):
            func = 0
            for mask in range(size):
                if (mask >> k) & 1:
                    func |= 1 << mask
            principal.append(func)
        assert sorted(homs) == sorted(principal)
        assert len(dual_space(FiniteBooleanAlgebra(tuple(f"x{i}" for i in range(n))))) == len(homs)

    def test_four_atoms_match_filter(self):
        homs = exhaustive_two_valued_homs(4)
        assert len(homs) == 4
        assert len(dual_space(FiniteBooleanAlgebra(("a", "b", "c", "d")))) == 4


class TestGleasonCover:
    def test_two_point_cover_verifies(self):
        x = FiniteDiscreteSpace(("x0", "x1"))
        p, f, homs = gleason_cover(x)
        assert p.n == 2
        report = verify_projective_cover(p, f, x, homs)
        assert report.all_ok, report.witnesses

    def test_canonical_bijection(self):
        x = FiniteDiscreteSpace(("u", "v", "w"))
        p, f, homs = gleason_cover(x)
        # hom k is evaluation at atom k and lands on point k
        for k, lab in enumerate(p.point_labels):
            assert homs[k].atom_index == k
            assert dict(f.table)[lab] == x.point_labels[k]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_all_sizes_verify(self, n):
        x = FiniteDiscreteSpace(tuple(f"x{i}" for i in range(n)))
        p, f, homs = gleason_cover(x)
        report = verify_projective_cover(p, f, x, homs)
        assert report.all_ok, report.witnesses


class TestVerifyFixtures:
    def test_identity_cover_all_true(self):
        x = FiniteDiscreteSpace(("a", "b", "c"))
        f = FinCover(x, x, tuple((lab, lab) for lab in x.point_labels))
        report = verify_projective_cover(x, f, x)
        assert report.all_ok

    def test_constant_cover_two_to_one(self):
        p = FiniteDiscreteSpace(("p0", "p1"))
        x = FiniteDiscreteSpace(("x0",))
        f = FinCover(p, x, (("p0", "x0"), ("p1", "x0")))
        report = verify_projective_cover(p, f, x)
        assert report.surjective
        assert not report.irreducible
        assert report.witnesses["irreducible"] in (["p0"], ["p1"])
        assert not report.rigid

    def test_non_surjective_cover(self):
        p = FiniteDiscreteSpace(("p0",))
        x = FiniteDiscreteSpace(("x0", "x1"))
        f = FinCover(p, x, (("p0", "x0"),))
        report = verify_projective_cover(p, f, x)
        assert not report.surjective

    def test_twisted_bijection_fails_hom_checks_but_stays_rigid(self):
        # homs that label point k as the evaluation at atom k disagree with the twist
        x = FiniteDiscreteSpace(("a", "b"))
        p = FiniteDiscreteSpace(("p0", "p1"))
        f = FinCover(p, x, (("p0", "b"), ("p1", "a")))
        report = verify_projective_cover(p, f, x, (TwoValuedHom(0), TwoValuedHom(1)))
        assert report.surjective and report.irreducible and report.rigid
        assert not report.phi_eq_cl_preimage

    def test_homs_of_another_length_than_p_are_rejected(self):
        # hom k stands for point k of P: a second hom on an atom of X once raised IndexError
        x = FiniteDiscreteSpace(("x0",))
        p = FiniteDiscreteSpace(("p0",))
        f = FinCover(p, x, (("p0", "x0"),))
        for homs in ((TwoValuedHom(0), TwoValuedHom(0)), ()):
            with pytest.raises(ValueError, match="one hom per point"):
                verify_projective_cover(p, f, x, homs)

    def test_a_table_must_list_each_domain_label_once(self):
        x = FiniteDiscreteSpace(("a", "b"))
        with pytest.raises(ValueError) as exc:
            FinCover(FiniteDiscreteSpace(("p0", "p1")), x, (("p0", "a"),))
        assert str(exc.value) == "table must cover the domain exactly once each"
        with pytest.raises(ValueError) as exc:
            FinCover(FiniteDiscreteSpace(("p0",)), x, (("p0", "a"), ("p0", "b")))
        assert str(exc.value) == "duplicate domain labels in table"

    def test_a_cover_of_other_spaces_is_rejected(self):
        x = FiniteDiscreteSpace(("a",))
        p = FiniteDiscreteSpace(("p0",))
        f = FinCover(p, x, (("p0", "a"),))
        with pytest.raises(ValueError) as exc:
            verify_projective_cover(FiniteDiscreteSpace(("q0",)), f, x)
        assert str(exc.value) == "cover does not connect the given spaces"

    def test_permuted_bijection_verifies_by_default(self):
        # same-size covers get no special homs: p is evaluated at its image f(p)
        x = FiniteDiscreteSpace(("a", "b", "c"))
        p = FiniteDiscreteSpace(("p", "q", "r"))
        f = FinCover(p, x, (("p", "b"), ("q", "c"), ("r", "a")))
        report = verify_projective_cover(p, f, x)
        assert report.all_ok, report.witnesses


class TestAgainstEnumeratingOracle:
    """The closed forms against the enumerating cover and checks they replaced."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_gleason_cover(self, n):
        x = FiniteDiscreteSpace(tuple(f"x{i}" for i in range(n)))
        assert gleason_cover(x) == oracle.gleason_cover(x)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_cover_up_to_relabelling(self, n):
        for f1 in partition_covers(n):
            for order in (list(range(n)), list(range(n))[::-1], [(i + 1) % n for i in range(n)]):
                f = relabel(f1, order)
                args = (f.domain, f, f.codomain)
                assert wire(verify_projective_cover(*args)) == wire(oracle.verify_projective_cover(*args))

    def test_every_homs_tuple(self):
        # every map P -> X and every tuple of homs, atom indices 0..|X|,
        # where atom |X| lies outside X and holds on no subset
        for n, m in itertools.product(range(1, 4), repeat=2):
            p = FiniteDiscreteSpace(tuple(f"p{i}" for i in range(n)))
            x = FiniteDiscreteSpace(tuple(f"x{k}" for k in range(m)))
            for images in itertools.product(x.point_labels, repeat=n):
                f = FinCover(p, x, tuple(zip(p.point_labels, images)))
                for atoms in itertools.product(range(m + 1), repeat=n):
                    homs = tuple(TwoValuedHom(a) for a in atoms)
                    assert wire(verify_projective_cover(p, f, x, homs)) == \
                        wire(oracle.verify_projective_cover(p, f, x, homs))


class TestWorkBound:
    def test_two_point_fibres_at_64_points(self):
        # 2^64 subsets: an enumeration could not finish
        p = FiniteDiscreteSpace(tuple(f"p{i}" for i in range(64)))
        x = FiniteDiscreteSpace(tuple(f"x{b}" for b in range(32)))
        f = FinCover(p, x, tuple((f"p{i}", f"x{i % 32}") for i in range(64)))
        report = verify_projective_cover(p, f, x)
        assert report.surjective and not report.irreducible and not report.rigid
        assert report.phi_eq_cl_preimage and report.onto_sandwich and not report.psi_inverts_phi
        assert report.witnesses == {
            "irreducible": sorted(f"p{i}" for i in range(32)),
            "rigid": {f"p{i}": f"p{i - 32}" for i in range(32, 64)},
            "psi_inverts_phi": ["p0"],
        }


class TestRigidity:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_closed_form_matches_enumeration_on_every_cover(self, n):
        for f1 in partition_covers(n):
            for order in (list(range(n)), list(range(n))[::-1], [(i + 1) % n for i in range(n)]):
                f = relabel(f1, order)
                report = verify_projective_cover(f.domain, f, f.codomain)
                assert (report.rigid, report.witnesses.get("rigid")) == rigidity_by_enumeration(f)


class TestUniqueHomeomorphism:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_exactly_one_over_permuted_labels(self, n):
        labels = tuple(f"x{i}" for i in range(n))
        x = FiniteDiscreteSpace(labels)
        _, f1, _ = gleason_cover(x)
        # second cover of the same space built through a rotated atom order
        rotated = labels[1:] + labels[:1]
        x2 = FiniteDiscreteSpace(rotated)
        _, f2_raw, _ = gleason_cover(x2)
        # recast f2 as a cover of x (same point set, different order)
        f2 = FinCover(f2_raw.domain, x, f2_raw.table)
        phi, count = unique_cover_homeomorphism(f1, f2)
        assert count == 1
        over1, over2 = dict(f1.table), dict(f2.table)
        for lab, target in phi.items():
            assert over2[target] == over1[lab]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_closed_form_matches_enumeration_on_every_cover(self, n):
        for f1 in partition_covers(n):
            for order in (list(range(n)), list(range(n))[::-1], [(i + 1) % n for i in range(n)]):
                f2 = relabel(f1, order)
                found = homeomorphisms_by_enumeration(f1, f2)
                assert unique_cover_homeomorphism(f1, f2) == (found[0], len(found))

    def test_closed_form_matches_enumeration_on_every_pair(self):
        # every pair of maps into a common codomain, including pairs with
        # no homeomorphism between them
        for n, m in ((1, 1), (2, 2), (3, 2), (3, 3), (4, 2), (4, 3)):
            x = FiniteDiscreteSpace(tuple(f"x{k}" for k in range(m)))
            p = FiniteDiscreteSpace(tuple(f"p{i}" for i in range(n)))
            q = FiniteDiscreteSpace(tuple(f"q{i}" for i in range(n)))
            images = list(itertools.product(x.point_labels, repeat=n))
            for a in images:
                f1 = FinCover(p, x, tuple(zip(p.point_labels, a)))
                for b in images:
                    f2 = FinCover(q, x, tuple(zip(q.point_labels, b)))
                    found = homeomorphisms_by_enumeration(f1, f2)
                    if found:
                        assert unique_cover_homeomorphism(f1, f2) == (found[0], len(found))
                    else:
                        with pytest.raises(ValueError):
                            unique_cover_homeomorphism(f1, f2)

    def test_covers_of_unlike_shape_are_rejected(self):
        x = FiniteDiscreteSpace(("a",))
        f1 = FinCover(FiniteDiscreteSpace(("p0",)), x, (("p0", "a"),))
        other = FinCover(FiniteDiscreteSpace(("q0",)), FiniteDiscreteSpace(("b",)), (("q0", "b"),))
        with pytest.raises(ValueError) as exc:
            unique_cover_homeomorphism(f1, other)
        assert str(exc.value) == "covers must share the codomain"
        larger = FinCover(FiniteDiscreteSpace(("q0", "q1")), x, (("q0", "a"), ("q1", "a")))
        with pytest.raises(ValueError) as exc:
            unique_cover_homeomorphism(f1, larger)
        assert str(exc.value) == "cover domains differ in size"

    def test_no_match_raises(self):
        x = FiniteDiscreteSpace(("a", "b"))
        p = FiniteDiscreteSpace(("p0", "p1"))
        f1 = FinCover(p, x, (("p0", "a"), ("p1", "b")))
        q = FiniteDiscreteSpace(("q0", "q1"))
        f2 = FinCover(q, x, (("q0", "a"), ("q1", "a")))
        with pytest.raises(ValueError):
            unique_cover_homeomorphism(f1, f2)


class TestAlgebraHelpers:
    def test_iso_check(self):
        b1 = FiniteBooleanAlgebra(("a", "b"))
        b2 = FiniteBooleanAlgebra(("u", "v"))
        iso = iso_check(b1, b2)
        assert iso == {"a": "u", "b": "v"}
        assert iso_check(b1, ABC) is None

    def test_iso_preserves_operations(self):
        b1 = FiniteBooleanAlgebra(("a", "b", "c"))
        b2 = FiniteBooleanAlgebra(("x", "y", "z"))
        iso = iso_check(b1, b2)
        remap = {i: b2.atom_labels.index(iso[lab]) for i, lab in enumerate(b1.atom_labels)}

        def push(e):
            return frozenset(remap[i] for i in e)

        # elements are sets of atom indices: join is |, meet is & and neg the complement
        one1, one2 = frozenset(range(b1.n)), frozenset(range(b2.n))
        for u, v in itertools.product(subsets(b1.n), repeat=2):
            assert push(u | v) == push(u) | push(v)
            assert push(u & v) == push(u) & push(v)
            assert push(one1 - u) == one2 - push(u)
