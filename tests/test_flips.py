"""Flip involutions: constructions, orbit counts, fixed and flip subalgebras."""

from fractions import Fraction

import pytest

from matsuo.closure import ScalarMode, close
from matsuo.fischer import (
    build_named_space,
    elem_to_point,
    is_space_automorphism,
    point_to_elem,
    w_conj,
)
from matsuo.flips import (
    FIXED_DIM_FORMULA,
    FLIP_FAMILIES,
    FlipInvolution,
    ORBIT_COUNT_FORMULA,
    classify_orbits,
    fixed_span_is_closed,
    fixed_subalgebra_basis,
    flip_report,
    flip_subalgebra,
    standard_flip,
)

SYM = ScalarMode.symbolic()
ONE = SYM.one()


class TestConstructions:
    @pytest.mark.parametrize("family", FLIP_FAMILIES)
    def test_standard_flip_is_involutive_automorphism(self, family):
        tau = standard_flip(family, 1)
        perm = tau.perm
        assert all(perm[perm[q]] == q for q in range(len(perm)))
        assert is_space_automorphism(tau.space, perm)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            standard_flip("W3D", 2)

    def test_w2a_singles_are_the_diagonal_points(self):
        tau = standard_flip("W2A", 2)
        dec = classify_orbits(tau.space, tau)
        labels = sorted(tau.space.labels[s] for s in dec.singles)
        assert labels == ["b(1,2)", "b(3,4)", "c(1,2)", "c(3,4)"]

    def test_w2d_flip_swaps_c_and_d_letters(self):
        tau = standard_flip("W2D", 2)
        sp = tau.space
        c13 = sp.point_of_label("c(1,3)")
        image = sp.labels[tau(c13)]
        # letters c <-> d, positions through (1,2)(3,4)
        assert image == "d(2,4)"
        b13 = sp.point_of_label("b(1,3)")
        assert sp.labels[tau(b13)] == "b(2,4)"
        e12 = sp.point_of_label("e(1,2)")
        assert sp.labels[tau(e12)] == "e(1,2)"

    def test_e27_flip_formula(self):
        # the letter action sends u^r v^s w^t to u^s v^r w^(-t-rs)
        tau = standard_flip("Wr3p2", 2)
        sp = tau.space
        group = sp.base
        pi = {1: 2, 2: 1, 3: 4, 4: 3}
        for p_idx in range(0, len(sp.points), 7):
            p = sp.points[p_idx]
            r, rem = divmod(p.t, 9)
            s, t = divmod(rem, 3)
            expected_t = ((s % 3) * 9 + (r % 3) * 3 + ((-t - r * s) % 3))
            from matsuo.fischer import make_point

            expected = make_point(group, expected_t, pi[p.i], pi[p.j])
            assert sp.points[tau(p_idx)] == expected

    def test_non_involution_rejected(self):
        sp = build_named_space("W3A", 3)
        n = len(sp.points)
        shift = tuple((i + 1) % n for i in range(n))
        with pytest.raises(ValueError):
            FlipInvolution(sp, shift, {})

    def test_non_automorphism_rejected(self):
        sp = build_named_space("W3A", 3)
        # swapping two collinear points while fixing the rest breaks lines
        perm = list(range(len(sp.points)))
        p, q = next(
            (p, q)
            for p in range(len(sp.points))
            for q in range(p + 1, len(sp.points))
            if sp.collinear(p, q)
        )
        perm[p], perm[q] = q, p
        with pytest.raises(ValueError):
            FlipInvolution(sp, tuple(perm), {})


class TestInnerFlipOracle:
    """The inner flips equal conjugation inside the wreath group by pi with
    a constant base: 0, or (1,2)(3,4) on A4."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize(
        "family,constant", [("W2A", "1"), ("W3A", "1"), ("WrA4", "(1,2)(3,4)")]
    )
    def test_flip_is_wreath_conjugation(self, family, constant, k):
        tau = standard_flip(family, k)
        sp = tau.space
        group, n = sp.base, sp.n
        pi = tuple(i + 1 if i % 2 == 0 else i - 1 for i in range(n))
        welem = ((group.index_of(constant),) * n, pi)
        for q, p in enumerate(sp.points):
            image = elem_to_point(group, w_conj(group, point_to_elem(group, n, p), welem))
            assert tau.perm[q] == sp.index[image]


class TestOrbitCounts:
    @pytest.mark.parametrize("family", FLIP_FAMILIES)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_counts_and_fixed_dimension(self, family, k):
        tau = standard_flip(family, k)
        dec = classify_orbits(tau.space, tau)
        singles_f, doubles_f, extras_f = ORBIT_COUNT_FORMULA[family]
        assert dec.counts() == (singles_f(k), doubles_f(k), extras_f(k))
        assert dec.orbit_count() == FIXED_DIM_FORMULA[family](k)

    @pytest.mark.parametrize("family", FLIP_FAMILIES)
    def test_orbit_bookkeeping(self, family):
        tau = standard_flip(family, 2)
        dec = classify_orbits(tau.space, tau)
        s, d, e = dec.counts()
        assert s + 2 * (d + e) == len(tau.space.points)

    def test_wr3x3_extras_are_three_k(self):
        # counted from orbits via the collinearity oracle
        for k in (1, 2, 3):
            tau = standard_flip("Wr3x3", k)
            dec = classify_orbits(tau.space, tau)
            assert len(dec.extras) == 3 * k


class TestFixedSubalgebra:
    @pytest.mark.parametrize("family", FLIP_FAMILIES)
    def test_fixed_span_closed(self, family):
        tau = standard_flip(family, 2)
        dec = classify_orbits(tau.space, tau)
        assert fixed_span_is_closed(tau.space, dec, SYM)

    def test_orbit_vectors_reduce_to_zero_after_products(self):
        tau = standard_flip("W3A", 2)
        sp = tau.space
        basis_vecs = fixed_subalgebra_basis(sp, tau)
        fixed = close(sp, basis_vecs, SYM)
        assert fixed.dimension == len(basis_vecs)
        assert fixed.is_closed()

    def test_basis_count_examples(self):
        assert len(fixed_subalgebra_basis(*_flip_pair("W2D", 2))) == 14
        assert len(fixed_subalgebra_basis(*_flip_pair("WrA4", 2))) == 40
        assert len(fixed_subalgebra_basis(*_flip_pair("WrA4o", 2))) == 42


def _flip_pair(family, k):
    tau = standard_flip(family, k)
    return tau.space, tau


class TestFlipSubalgebras:
    def test_w2a_flip_equals_fixed(self):
        sp, tau = _flip_pair("W2A", 2)
        assert flip_subalgebra(sp, tau, SYM).dimension == 8

    def test_w3a_flip_is_fixed_minus_one(self):
        sp, tau = _flip_pair("W3A", 2)
        alg = flip_subalgebra(sp, tau, SYM)
        assert alg.dimension == 9
        assert classify_orbits(sp, tau).orbit_count() == 10

    def test_w2d_flip_equals_fixed(self):
        sp, tau = _flip_pair("W2D", 2)
        assert flip_subalgebra(sp, tau, SYM).dimension == 14

    def test_generator_roles(self):
        sp, tau = _flip_pair("W2A", 2)
        alg = flip_subalgebra(sp, tau, SYM)
        roles = [role for _, role in alg.generators]
        assert roles.count("single") == 4 and roles.count("double") == 4

    def test_wr3x3_eta_two_drop(self):
        sp, tau = _flip_pair("Wr3x3", 2)
        assert flip_subalgebra(sp, tau, SYM).dimension == 30
        assert flip_subalgebra(sp, tau, ScalarMode.evaluated(2)).dimension == 29


class TestModeConsistency:
    def test_w3a_flip_generators_agree_at_safe_eta(self):
        from matsuo.closure import consistency_check

        sp, tau = _flip_pair("W3A", 2)
        dec = classify_orbits(sp, tau)
        gens = [{s: ONE} for s in dec.singles]
        gens += [{p: ONE, q: ONE} for p, q in dec.doubles]
        assert consistency_check(sp, gens, 5)

    def test_wr3p2_flip_generators_disagree_at_two(self):
        # eta = 2 is critical here: symbolic dimension 90, evaluated 89; the
        # comparison must be explicitly forced past the safety check
        from matsuo.closure import UnsafeEtaError, consistency_check

        sp, tau = _flip_pair("Wr3p2", 2)
        dec = classify_orbits(sp, tau)
        gens = [{s: ONE} for s in dec.singles]
        gens += [{p: ONE, q: ONE} for p, q in dec.doubles]
        with pytest.raises(UnsafeEtaError):
            consistency_check(sp, gens, 2)
        assert consistency_check(sp, gens, 2, allow_unsafe=True) is False


class TestFlipReport:
    def test_w3a_report(self):
        rep = flip_report("W3A", 2, etas=[Fraction(5)])
        assert rep["singles"] == 2 and rep["doubles"] == 6 and rep["extras"] == 2
        assert rep["fixed_dim"] == 10
        assert rep["flip_dim_symbolic"] == 9
        assert rep["flip_dims_at"] == {"5": 9}
        assert rep["flip_equals_fixed"] is False
        assert rep["provenance"] == "computed"

    def test_w2a_report_equality_flag(self):
        rep = flip_report("W2A", 2)
        assert rep["flip_equals_fixed"] is True and rep["flip_dim_symbolic"] == 8

    def test_wr3x3_double_entry_at_two(self):
        rep = flip_report("Wr3x3", 2, etas=[2])
        assert rep["flip_dim_symbolic"] == 30
        assert rep["flip_dims_at"] == {"2": 29}
        assert "extras_note" in rep
