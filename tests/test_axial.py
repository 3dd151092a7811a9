"""Eigenspaces, fusion laws, primitivity, Miyamoto involutions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matsuo.axial import (
    AdjointNotDiagonalizableError,
    ParameterDomainError,
    SpectrumCollisionError,
    adjoint_matrix,
    check_fusion,
    check_primitive,
    eigen_decompose,
    jordan_law,
    kernel_basis,
    law_by_name,
    miyamoto_algebra_map,
    miyamoto_point_map,
    monster_law,
    permutation_matrix_on,
    tau_composition_identity,
)
from matsuo.algebra import _int_matrix_rank, frobenius_value, vec_product, vec_scale
from matsuo.closure import ScalarMode, close
from matsuo.fischer import build_named_space, is_space_automorphism
from matsuo.flips import classify_orbits, fixed_subalgebra_basis, orbit_vector, standard_flip
from matsuo.scalars import EtaScalar

SYM = ScalarMode.symbolic()
ONE = SYM.one()


def line_algebra():
    sp = build_named_space("A", 3)
    return close(sp, [{0: ONE}, {1: ONE}, {2: ONE}], SYM)


def full_algebra(sp, mode=SYM):
    return close(sp, [{p: mode.one()} for p in range(len(sp.points))], mode)


class TestLaws:
    def test_jordan_cells(self):
        law = jordan_law(SYM)
        assert law.allowed(0, 1) == frozenset()          # 1 * 0 empty
        assert law.allowed(0, 2) == frozenset({2})       # 1 * eta = eta
        assert law.allowed(2, 2) == frozenset({0, 1})    # eta * eta = 1, 0

    def test_monster_cells(self):
        law = monster_law(SYM)
        assert law.eigenvalues[2] == EtaScalar.eta() + EtaScalar.eta()
        assert law.allowed(2, 2) == frozenset({0, 1})
        assert law.allowed(2, 3) == frozenset({3})
        assert law.allowed(3, 3) == frozenset({0, 1, 2})

    def test_monster_rejects_half(self):
        with pytest.raises(ParameterDomainError):
            monster_law(ScalarMode.evaluated(Fraction(1, 2)))

    def test_collision_detection(self):
        # alpha = 2*eta collides with 1 at eta = 1/2, caught by the domain
        # guard; a genuinely colliding spectrum raises too
        with pytest.raises((SpectrumCollisionError, ParameterDomainError)):
            monster_law(ScalarMode.evaluated(Fraction(1, 2)))
        assert law_by_name("J", SYM).name == "J"
        with pytest.raises(ValueError):
            law_by_name("X", SYM)


@st.composite
def small_int_matrices(draw):
    """Square integer matrices up to 5x5; about half are forced singular."""
    d = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d), min_size=d, max_size=d))
    if d >= 2 and draw(st.booleans()):
        rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
    return rows


class TestDenseElimination:
    QQ = ScalarMode.evaluated(2)  # any Q mode: the routines only use its zero and one

    @given(small_int_matrices())
    @settings(max_examples=80, deadline=None)
    def test_kernel_basis_over_q(self, rows):
        d = len(rows)
        m = [[Fraction(x) for x in row] for row in rows]
        kernel = kernel_basis(m, self.QQ)
        assert len(kernel) == d - _int_matrix_rank(rows)
        for vec in kernel:
            assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in m)
        # unit free variables: each vector has its own 1 where the others have 0
        frees = [next(c for c in reversed(range(d)) if vec[c]) for vec in kernel]
        for i, vec in enumerate(kernel):
            assert [vec[c] for c in frees] == [int(i == j) for j in range(len(kernel))]

    def test_shifted_adjoint_on_line_algebra(self):
        alg = line_algebra()
        mat = adjoint_matrix(alg, {0: ONE})
        d = alg.dimension
        eta = SYM.eta()
        for lam in (ONE, SYM.zero(), eta, eta + eta):
            shifted = [[mat[r][c] - lam if r == c else mat[r][c] for c in range(d)] for r in range(d)]
            kernel = kernel_basis(shifted, SYM)
            if lam == eta + eta:  # not an eigenvalue of a single axis
                assert kernel == []
            else:
                assert len(kernel) == 1
                vec = kernel[0]
                assert all(not sum((a * b for a, b in zip(row, vec)), SYM.zero()) for row in shifted)


class TestEigenDecompose:
    def test_line_multiplicities(self):
        alg = line_algebra()
        dec = eigen_decompose(alg, {0: ONE}, jordan_law(SYM).eigenvalues)
        assert dec.dims == (1, 1, 1)

    def test_single_axes_are_jordan(self):
        for family, n in [("A", 4), ("W2A", 3), ("W3A", 3), ("WrA4", 2)]:
            sp = build_named_space(family, n)
            alg = full_algebra(sp)
            dec = eigen_decompose(alg, {0: ONE}, jordan_law(SYM).eigenvalues)
            assert sum(dec.dims) == alg.dimension

    def test_double_axis_monster_spectrum(self):
        sp = build_named_space("A", 4)
        alg = full_algebra(sp)
        x = {sp.point_of_label("b(1,2)"): ONE, sp.point_of_label("b(3,4)"): ONE}
        dec = eigen_decompose(alg, x, monster_law(SYM).eigenvalues)
        assert sum(dec.dims) == alg.dimension

    def test_non_idempotent_rejected(self):
        alg = line_algebra()
        with pytest.raises(ValueError):
            eigen_decompose(alg, {0: ONE + ONE}, jordan_law(SYM).eigenvalues)

    def test_wrong_spectrum_detected(self):
        alg = line_algebra()
        with pytest.raises(AdjointNotDiagonalizableError):
            eigen_decompose(alg, {0: ONE}, (ONE, SYM.zero()))


class TestFusion:
    def test_line_jordan_passes(self):
        alg = line_algebra()
        report = check_fusion(alg, {0: ONE}, jordan_law(SYM))
        assert report.passed
        data = report.export()
        assert data["violations"] == []
        assert set(data["eigen_dims"].values()) == {1}

    def test_double_in_full_matsuo_passes_monster(self):
        sp = build_named_space("A", 4)
        alg = full_algebra(sp)
        x = {sp.point_of_label("b(1,2)"): ONE, sp.point_of_label("b(3,4)"): ONE}
        assert check_fusion(alg, x, monster_law(SYM)).passed

    def test_one_times_zero_cell_empty(self):
        law = jordan_law(SYM)
        assert law.allowed(0, 1) == frozenset()

    def test_violations_are_reported_not_raised(self):
        # tighten the eta*eta cell to {0}: the line algebra violates it and
        # the offending 1-component is reported as data
        from matsuo.axial import FusionLaw

        good = jordan_law(SYM)
        table = dict(good.table)
        table[(2, 2)] = frozenset({1})
        wrong = FusionLaw("J'", good.eigenvalues, table)
        alg = line_algebra()
        report = check_fusion(alg, {0: ONE}, wrong)
        assert not report.passed
        assert all(v.lam_index == 2 and v.mu_index == 2 for v in report.violations)
        assert {v.offending_part for v in report.violations} == {0}
        exported = report.export()
        assert exported["violations"][0]["lambda"] == "eta"

    def test_violations_on_multi_dimensional_eigenspaces(self):
        # tighten the eta*eta cell of M(2eta, eta) to {2eta}: the 1- and
        # eta-eigenspaces of a double axis are 2-dimensional, and each
        # violation carries the exact eigencomponent of the product
        from matsuo.axial import FusionLaw

        good = monster_law(SYM)
        table = dict(good.table)
        table[(3, 3)] = frozenset({2})
        wrong = FusionLaw("M'", good.eigenvalues, table)
        sp = build_named_space("A", 4)
        alg = full_algebra(sp)
        x = {sp.point_of_label("b(1,2)"): ONE, sp.point_of_label("b(3,4)"): ONE}
        report = check_fusion(alg, x, wrong)
        assert report.decomposition.dims == (2, 1, 1, 2)
        assert {v.offending_part for v in report.violations} == {0, 1}
        keys = [(v.pair, v.offending_part) for v in report.violations]
        assert len(keys) == len(set(keys))
        half = SYM.half_eta()
        for v in report.violations:
            assert (v.lam_index, v.mu_index) == (3, 3)
            lam = good.eigenvalues[v.offending_part]
            assert v.component
            assert vec_product(sp, x, v.component, half) == vec_scale(v.component, lam)


class TestPrimitivity:
    def test_single_axis_in_own_closure(self):
        sp = build_named_space("A", 3)
        alg = close(sp, [{0: ONE}], SYM)
        assert check_primitive(alg, {0: ONE})

    def test_double_axis_not_primitive_in_full_algebra(self):
        sp = build_named_space("A", 4)
        alg = full_algebra(sp)
        x = {sp.point_of_label("b(1,2)"): ONE, sp.point_of_label("b(3,4)"): ONE}
        assert not check_primitive(alg, x)

    @pytest.mark.parametrize("family", ["W2A", "W3A", "W2D"])
    def test_doubles_primitive_in_fixed_subalgebra(self, family):
        tau = standard_flip(family, 2)
        sp = tau.space
        fixed = close(sp, fixed_subalgebra_basis(sp, tau), SYM)
        dec = classify_orbits(sp, tau)
        for pair in dec.doubles:
            assert check_primitive(fixed, orbit_vector(pair, ONE))


class TestMiyamotoPointMap:
    def test_line_swap(self):
        sp = build_named_space("A", 3)
        assert miyamoto_point_map(sp, 0) == (0, 2, 1)

    def test_no_lines_identity(self):
        sp = build_named_space("W2D", 2)
        for p in range(len(sp.points)):
            assert miyamoto_point_map(sp, p) == tuple(range(len(sp.points)))

    @pytest.mark.parametrize("family,n", [("W3A", 3), ("W2D", 3), ("WrA4", 2), ("W3D", 2)])
    def test_always_involutive_automorphism(self, family, n):
        sp = build_named_space(family, n)
        for p in range(len(sp.points)):
            perm = miyamoto_point_map(sp, p)
            assert all(perm[perm[q]] == q for q in range(len(perm)))
            assert is_space_automorphism(sp, perm)


class TestMiyamotoAlgebraMap:
    def test_fixes_the_axis(self):
        alg = line_algebra()
        mm = miyamoto_algebra_map(alg, {0: ONE}, jordan_law(SYM))
        assert mm.apply_vec({0: ONE}) == {0: ONE}

    def test_matches_point_map_on_line(self):
        alg = line_algebra()
        mm = miyamoto_algebra_map(alg, {0: ONE}, jordan_law(SYM))
        perm = miyamoto_point_map(alg.space, 0)
        assert mm.matrix == permutation_matrix_on(alg, perm)

    def test_tau_of_double_is_composition_matrixwise(self):
        # one double axis of the full A:4 algebra, then every double of the
        # W2A and W3A k = 2 flip algebras: the projection-built map is the
        # composed point map
        from matsuo.flips import flip_subalgebra

        sp = build_named_space("A", 4)
        cases = [
            (full_algebra(sp), [(sp.point_of_label("b(1,2)"), sp.point_of_label("b(3,4)"))])
        ]
        for family in ("W2A", "W3A"):
            tau = standard_flip(family, 2)
            doubles = classify_orbits(tau.space, tau).doubles
            assert doubles
            cases.append((flip_subalgebra(tau.space, tau, SYM), doubles))
        for alg, doubles in cases:
            sp = alg.space
            for a, b in doubles:
                mm = miyamoto_algebra_map(alg, {a: ONE, b: ONE}, monster_law(SYM))
                pa = miyamoto_point_map(sp, a)
                pb = miyamoto_point_map(sp, b)
                composed = tuple(pb[pa[q]] for q in range(len(sp.points)))
                assert mm.matrix == permutation_matrix_on(alg, composed)

    def test_preserves_frobenius_form(self):
        alg = line_algebra()
        sp = alg.space
        mm = miyamoto_algebra_map(alg, {0: ONE}, jordan_law(SYM))
        rng = random.Random(2)
        half, one = SYM.half_eta(), ONE
        for _ in range(8):
            u = {rng.randrange(3): EtaScalar(rng.randint(1, 3))}
            v = {rng.randrange(3): EtaScalar(rng.randint(1, 3))}
            tu, tv = mm.apply_vec(u), mm.apply_vec(v)
            assert frobenius_value(sp, tu, tv, half, one) == frobenius_value(
                sp, u, v, half, one
            )


class TestTauComposition:
    @pytest.mark.parametrize("family,n", [("A", 4), ("W2A", 3), ("W3A", 3), ("W2D", 3)])
    def test_identity_on_all_orthogonal_pairs(self, family, n):
        sp = build_named_space(family, n)
        for a in range(len(sp.points)):
            for b in range(a + 1, len(sp.points)):
                if not sp.collinear(a, b):
                    assert tau_composition_identity(sp, a, b)

    def test_rejects_collinear_pair(self):
        sp = build_named_space("A", 3)
        with pytest.raises(ValueError):
            tau_composition_identity(sp, 0, 1)

    def test_wrong_point_map_fails(self, monkeypatch):
        # with tau_a replaced by the identity, P = tau_b is not the Miyamoto
        # map of a + b, since tau_a moves the points on the lines through a
        import matsuo.axial as axial

        sp = build_named_space("A", 4)
        a, b = sp.point_of_label("b(1,2)"), sp.point_of_label("b(3,4)")
        real = axial.miyamoto_point_map
        assert real(sp, a) != tuple(range(len(sp.points)))
        monkeypatch.setattr(
            axial,
            "miyamoto_point_map",
            lambda s, p: tuple(range(len(s.points))) if p == a else real(s, p),
        )
        assert not tau_composition_identity(sp, a, b)


class TestMinimalPolynomialDivisibility:
    def test_single_axis_min_poly(self):
        # (ad_p - 1) ad_p (ad_p - eta) kills every basis vector
        from matsuo.algebra import vec_sub

        for family, n in [("W3A", 3), ("WrA4", 2)]:
            sp = build_named_space(family, n)
            half = SYM.half_eta()
            eta = SYM.eta()
            x = {0: ONE}
            for q in range(len(sp.points)):
                v = {q: ONE}
                w = vec_sub(vec_product(sp, x, v, half), v)
                w = vec_product(sp, x, w, half)
                w = vec_sub(vec_product(sp, x, w, half), vec_scale(w, eta))
                assert w == {}

    def test_double_axis_min_poly_in_flip_subalgebra(self):
        from matsuo.flips import flip_subalgebra

        tau = standard_flip("W2A", 2)
        sp = tau.space
        alg = flip_subalgebra(sp, tau, SYM)
        dec = classify_orbits(sp, tau)
        eta = SYM.eta()
        two_eta = eta + eta
        for pair in dec.doubles:
            x = orbit_vector(pair, ONE)
            mat = adjoint_matrix(alg, x)
            d = alg.dimension
            # evaluate (M - 1) M (M - 2eta) (M - eta) on the identity matrix
            def matmul(a, b):
                return [
                    [sum((a[r][k] * b[k][c] for k in range(d)), SYM.zero()) for c in range(d)]
                    for r in range(d)
                ]

            def shift(m, lam):
                return [
                    [m[r][c] - lam if r == c else m[r][c] for c in range(d)]
                    for r in range(d)
                ]

            prod = matmul(shift(mat, ONE), mat)
            prod = matmul(prod, shift(mat, two_eta))
            prod = matmul(prod, shift(mat, eta))
            assert all(not prod[r][c] for r in range(d) for c in range(d))
