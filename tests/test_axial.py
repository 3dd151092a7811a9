"""Eigenspaces, fusion laws, primitivity, Miyamoto involutions."""

import math
import random
from fractions import Fraction

import pytest

import matsuo.axial as axial
from matsuo.axial import (
    AdjointNotDiagonalizableError,
    FusionLaw,
    ParameterDomainError,
    _ad_poly,
    _certificate_points,
    check_fusion,
    check_primitive,
    eigen_decompose,
    jordan_law,
    law_by_name,
    miyamoto_algebra_map,
    miyamoto_point_map,
    monster_law,
    permutation_matrix_on,
    tau_composition_identity,
)
from matsuo.algebra import frobenius_value, vec_product, vec_scale, vec_sub
from matsuo.classify import enumerate_configs
from matsuo.closure import (
    EchelonBasis,
    ScalarMode,
    Subalgebra,
    UnsafeEtaError,
    _close_over_qeta,
    close,
)
from matsuo.fischer import build_named_space, is_space_automorphism
from matsuo.flips import (
    classify_orbits,
    fixed_subalgebra_basis,
    flip_subalgebra,
    orbit_vector,
    standard_flip,
)
from matsuo.scalars import EtaScalar

from oracles import int_matrix_rank, reinserted_rows

SYM = ScalarMode.symbolic()
ONE = SYM.one()
EV7 = ScalarMode.evaluated(7)


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
        # guard; the values 0 and 1, at which eta collides with 0 or 1, are
        # refused by the mode before a law is built
        with pytest.raises(ParameterDomainError):
            monster_law(ScalarMode.evaluated(Fraction(1, 2)))
        for eta0 in (0, 1):
            with pytest.raises(UnsafeEtaError):
                ScalarMode.evaluated(eta0)
        assert law_by_name("J", SYM).name == "J"
        with pytest.raises(ValueError):
            law_by_name("X", SYM)


def assert_eigenbases(alg, x, spectrum):
    """Every vector of part k is a lambda_k-eigenvector, each part is in
    unit-free-variable form (1 at its own last nonzero column, 0 at the
    others', sorted by that column), and the dimensions sum to d."""
    dec = eigen_decompose(alg, x, spectrum)
    sp, half, d = alg.space, alg.mode.half_eta(), alg.dimension
    assert sum(dec.dims) == d
    for lam, part in zip(spectrum, dec.parts):
        for coords in part:
            vec = alg.row_vector(coords)
            assert vec_product(sp, x, vec, half) == vec_scale(vec, lam)
        frees = [max(c for c in range(d) if coords[c]) for coords in part]
        assert frees == sorted(set(frees))
        for i, coords in enumerate(part):
            assert [coords[f] for f in frees] == [int(i == j) for j in range(len(part))]
    return dec


def assert_canonical_images(alg, x, spectrum):
    """The reversed-column image spans behind eigen_decompose's parts have
    the canonical rows of re-insertion."""
    for k in range(len(spectrum)):
        image, _ = axial._image(alg, x, spectrum[:k] + spectrum[k + 1:])
        assert image.canonical_rows() == reinserted_rows(image)


class TestEigenDecompose:
    def test_line_multiplicities(self):
        alg = line_algebra()
        dec = eigen_decompose(alg, {0: ONE}, jordan_law(SYM).eigenvalues)
        assert dec.dims == (1, 1, 1)

    def test_monster_spectrum_on_line_algebra(self):
        # 2*eta is not an eigenvalue of a single axis: its part is empty
        dec = assert_eigenbases(line_algebra(), {0: ONE}, monster_law(SYM).eigenvalues)
        assert dec.dims == (1, 1, 0, 1)

    def test_single_axes_are_jordan(self):
        for family, n in [("A", 4), ("W2A", 3), ("W3A", 3), ("WrA4", 2)]:
            sp = build_named_space(family, n)
            alg, spectrum = full_algebra(sp), jordan_law(SYM).eigenvalues
            assert_eigenbases(alg, {0: ONE}, spectrum)
            assert_canonical_images(alg, {0: ONE}, spectrum)

    def test_double_axis_monster_spectrum(self):
        sp = build_named_space("A", 4)
        for mode in (SYM, ScalarMode.evaluated(5)):
            one = mode.one()
            x = {sp.point_of_label("b(1,2)"): one, sp.point_of_label("b(3,4)"): one}
            alg, spectrum = full_algebra(sp, mode), monster_law(mode).eigenvalues
            dec = assert_eigenbases(alg, x, spectrum)
            assert dec.dims == (2, 1, 1, 2)
            assert_canonical_images(alg, x, spectrum)

    @pytest.mark.parametrize("family", ["W2A", "W3A", "W2D"])
    def test_flip_double_eigenbases(self, family):
        tau = standard_flip(family, 2)
        alg = flip_subalgebra(tau.space, tau, SYM)
        for pair in classify_orbits(tau.space, tau).doubles:
            assert_eigenbases(alg, orbit_vector(pair, ONE), monster_law(SYM).eigenvalues)

    def test_non_idempotent_rejected(self):
        alg = line_algebra()
        with pytest.raises(ValueError):
            eigen_decompose(alg, {0: ONE + ONE}, jordan_law(SYM).eigenvalues)

    def test_wrong_spectrum_detected(self):
        alg = line_algebra()
        # the message gives the kernel dimensions of ad_x - lambda
        with pytest.raises(AdjointNotDiagonalizableError, match=r"\(1, 1\) sum to 2, expected 3"):
            eigen_decompose(alg, {0: ONE}, (ONE, SYM.zero()))

    def test_degenerate_spectrum_refused(self):
        alg = line_algebra()
        for spectrum in ((ONE,), (ONE, SYM.zero(), ONE)):
            with pytest.raises(ValueError, match="two or more distinct values"):
                eigen_decompose(alg, {0: ONE}, spectrum)

    def test_axis_outside_the_subalgebra(self):
        for mode in (SYM, EV7):
            alg = close(build_named_space("A", 3), [{0: mode.one()}], mode)
            x = {1: mode.one()}
            for call in (
                lambda: eigen_decompose(alg, x, jordan_law(mode).eigenvalues),
                lambda: check_primitive(alg, x),
            ):
                with pytest.raises(ValueError, match="does not lie in the subalgebra"):
                    call()

    def test_subalgebra_not_closed(self):
        # span(b0, b1) in the line algebra: b0 * b1 has a b2 component
        sp = build_named_space("A", 3)
        for mode in (SYM, EV7):
            basis = EchelonBasis(mode)
            basis.insert({0: mode.one()})
            basis.insert({1: mode.one()})
            alg = Subalgebra(sp, mode, [], basis)
            x = {0: mode.one()}
            for call in (
                lambda: eigen_decompose(alg, x, jordan_law(mode).eigenvalues),
                lambda: check_primitive(alg, x),
            ):
                with pytest.raises(ValueError, match="not closed"):
                    call()


def tightened(law, cell, allowed):
    """The law with one cell of its table replaced."""
    table = dict(law.table)
    table[cell] = frozenset(allowed)
    return FusionLaw(law.name + "'", law.eigenvalues, table)


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
        wrong = tightened(jordan_law(SYM), (2, 2), {1})
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
        good = monster_law(SYM)
        wrong = tightened(good, (3, 3), {2})
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


@pytest.fixture
def point_check(monkeypatch):
    """Spy on the integer-point certificate: the list of its verdicts, one
    per call, and a switch that forces it to report failure."""
    real = axial._cells_vanish_at_points
    verdicts = []

    def spy(*args):
        verdicts.append(False if spy.forced_off else real(*args))
        return verdicts[-1]

    spy.forced_off = False
    spy.verdicts = verdicts
    monkeypatch.setattr(axial, "_cells_vanish_at_points", spy)
    return spy


def exact_report(point_check, alg, x, law):
    """check_fusion with the point certificate forced off: the Q(eta) loop."""
    point_check.forced_off = True
    try:
        return check_fusion(alg, x, law)
    finally:
        point_check.forced_off = False


def violation_keys(report):
    return [
        (v.lam_index, v.mu_index, v.pair, v.offending_part, v.component)
        for v in report.violations
    ]


class TestFusionPointCertificate:
    """The certificate at integer points against the pair loop over Q(eta)."""

    @pytest.mark.parametrize(
        "family,limit", [("W2A", None), ("W3A", None), ("W2D", 2), ("Wr3x3", 1)]
    )
    def test_passing_doubles_match_exact_loop(self, family, limit, point_check):
        # every double of W2A and W3A, the first of W2D and of Wr3x3 (the
        # benchmark's algebra), whose Q(eta) loops take seconds per double
        tau = standard_flip(family, 2)
        alg = flip_subalgebra(tau.space, tau, SYM)
        law = monster_law(SYM)
        doubles = classify_orbits(tau.space, tau).doubles[:limit]
        assert doubles
        for pair in doubles:
            x = orbit_vector(pair, ONE)
            fast = check_fusion(alg, x, law)
            assert point_check.verdicts[-1] is True
            exact = exact_report(point_check, alg, x, law)
            assert fast.passed and exact.passed
            assert fast.decomposition.dims == exact.decomposition.dims
            assert fast.decomposition.parts == exact.decomposition.parts
            assert fast.export() == exact.export()

    @pytest.mark.parametrize("family,n", [("A", 4), ("W3A", 3)])
    def test_passing_single_axes_match_exact_loop(self, family, n, point_check):
        sp = build_named_space(family, n)
        alg = full_algebra(sp)
        law = jordan_law(SYM)
        for p in range(len(sp.points)):
            fast = check_fusion(alg, {p: ONE}, law)
            assert point_check.verdicts[-1] is True
            exact = exact_report(point_check, alg, {p: ONE}, law)
            assert fast.passed and exact.passed
            assert fast.decomposition.parts == exact.decomposition.parts
            assert fast.export() == exact.export()

    def test_tightened_laws_report_the_exact_violations(self, point_check):
        sp = build_named_space("A", 4)
        double = {sp.point_of_label("b(1,2)"): ONE, sp.point_of_label("b(3,4)"): ONE}
        tau = standard_flip("W2A", 2)
        flip = flip_subalgebra(tau.space, tau, SYM)
        flip_double = orbit_vector(classify_orbits(tau.space, tau).doubles[0], ONE)
        cases = [
            (full_algebra(sp), double, tightened(monster_law(SYM), (3, 3), {2})),
            (flip, flip_double, tightened(monster_law(SYM), (3, 3), {2})),
            (line_algebra(), {0: ONE}, tightened(jordan_law(SYM), (2, 2), {1})),
            (full_algebra(sp), {0: ONE}, tightened(jordan_law(SYM), (2, 2), {1})),
            # the 1 * eta cell emptied: x * v = eta v is not zero
            (full_algebra(sp), double, tightened(monster_law(SYM), (0, 3), ())),
        ]
        for alg, x, law in cases:
            report = check_fusion(alg, x, law)
            assert point_check.verdicts[-1] is False
            exact = exact_report(point_check, alg, x, law)
            assert not report.passed
            assert violation_keys(report) == violation_keys(exact)
            assert report.export() == exact.export()

    def test_cell_vanishing_at_the_first_points_is_caught(self, point_check):
        # spurious eigenvalues nu_i = eta + 1 - 2i (i = 2..5) have empty
        # eigenspaces; allowed in the eta * eta cell next to 0, they make its
        # polynomial on the line algebra eta (2 - eta) prod (2i - eta) times
        # the axis, zero at eta = 2, 4, ..., 10 but not identically
        law = jordan_law(SYM)
        spurious = tuple(SYM.eta() + (1 - 2 * i) for i in range(2, 6))
        table = dict(law.table)
        table[(2, 2)] = frozenset({1, 3, 4, 5, 6})
        for k in range(3, 7):
            for j in range(k + 1):
                table.setdefault((j, k), frozenset(range(7)))
        wide = FusionLaw("J+", law.eigenvalues + spurious, table)
        points = list(_certificate_points(wide))
        assert points[:5] == [2, 4, 6, 8, 10] and len(points) > 5
        report = check_fusion(line_algebra(), {0: ONE}, wide)
        assert point_check.verdicts == [False]
        assert report.decomposition.dims == (1, 1, 1, 0, 0, 0, 0)
        assert [(v.lam_index, v.mu_index, v.offending_part) for v in report.violations] == [
            (2, 2, 0)
        ]

    def test_product_leaving_the_subalgebra(self, point_check):
        # the 1- and eta-eigenspaces of b(1,2) + b(3,4) in the full A:4
        # algebra: a rational, ad_x-invariant span that is not closed, since
        # (b(1,3) - b(2,4))^2 = b(1,3) + b(2,4)
        sp = build_named_space("A", 4)
        pt = sp.point_of_label
        x = {pt("b(1,2)"): ONE, pt("b(3,4)"): ONE}
        basis = EchelonBasis(SYM)
        for vec in (
            {pt("b(1,2)"): ONE},
            {pt("b(3,4)"): ONE},
            {pt("b(1,3)"): ONE, pt("b(2,4)"): -ONE},
            {pt("b(1,4)"): ONE, pt("b(2,3)"): -ONE},
        ):
            basis.insert(vec)
        alg = Subalgebra(sp, SYM, [], basis)
        with pytest.raises(ValueError, match="left the subalgebra"):
            check_fusion(alg, x, monster_law(SYM))
        assert point_check.verdicts == [False]

    def test_certificate_points(self):
        # D + 1 points for the degree bound D = 2(m - 1) + 1 + largest cell
        assert list(_certificate_points(monster_law(SYM))) == list(range(2, 23, 2))
        assert list(_certificate_points(jordan_law(SYM))) == list(range(2, 17, 2))

    def test_degree_bound_holds_symbolically(self):
        # over Q(eta), the product of two source images and its cell image
        # are polynomial vectors within the bound D, also for the tightened
        # laws where the cell image is not zero; on the line algebra under
        # J with (2,2) -> {1} it has degree D, so D points would not do
        sp = build_named_space("A", 4)
        double = {sp.point_of_label("b(1,2)"): ONE, sp.point_of_label("b(3,4)"): ONE}
        tau = standard_flip("W2A", 2)
        flip_double = orbit_vector(classify_orbits(tau.space, tau).doubles[0], ONE)
        cases = [
            (full_algebra(sp), double, monster_law(SYM)),
            (full_algebra(sp), double, tightened(monster_law(SYM), (3, 3), {2})),
            (flip_subalgebra(tau.space, tau, SYM), flip_double, monster_law(SYM)),
            (line_algebra(), {0: ONE}, tightened(jordan_law(SYM), (2, 2), {1})),
        ]
        tops = []
        for alg, x, law in cases:
            bound = len(_certificate_points(law)) - 1
            values = law.eigenvalues
            dec = eigen_decompose(alg, x, values)
            half = SYM.half_eta()
            images = [
                [
                    _ad_poly(alg.space, x, alg.basis.rows[a], values[:k] + values[k + 1:], half)
                    for a in sources
                ]
                for k, sources in enumerate(dec.sources)
            ]
            top = 0
            for li in range(len(values)):
                for mi in range(li, len(values)):
                    roots = [values[k] for k in sorted(law.allowed(li, mi))]
                    for u in images[li]:
                        for v in images[mi]:
                            w = vec_product(alg.space, u, v, half)
                            for vec in (w, _ad_poly(alg.space, x, w, roots, half)):
                                for c in vec.values():
                                    assert c.den.degree == 0
                                    top = max(top, c.num.degree)
            assert 0 < top <= bound
            tops.append((top, bound))
        assert tops[-1] == (6, 6)

    def test_skipped_without_rational_inputs(self, point_check):
        sp = build_named_space("A", 4)
        # evaluated mode
        alg = full_algebra(sp, EV7)
        one = EV7.one()
        x = {sp.point_of_label("b(1,2)"): one, sp.point_of_label("b(3,4)"): one}
        assert check_fusion(alg, x, monster_law(EV7)).passed
        # an axis with an eta coefficient: the identity (a + b + c)/(1 + eta)
        # of the line algebra, all of which is its 1-eigenspace
        unit = EtaScalar.one() / (ONE + SYM.eta())
        report = check_fusion(line_algebra(), {0: unit, 1: unit, 2: unit}, jordan_law(SYM))
        assert report.passed and report.decomposition.dims == (3, 0, 0)
        # a Q(eta) closure whose rows involve eta: the idempotent
        # (a + b - eta c)/(1 + eta) on the line b(1,2), b(1,3), b(2,3) of A:5,
        # next to the orthogonal point b(4,5)
        sp5 = build_named_space("A", 5)
        a, b, c, p = (sp5.point_of_label(s) for s in ("b(1,2)", "b(1,3)", "b(2,3)", "b(4,5)"))
        e = {a: unit, b: unit, c: -SYM.eta() * unit}
        alg5 = _close_over_qeta(sp5, [e, {p: ONE}])
        assert alg5.dimension == 2
        assert not all(v.is_rational() for row in alg5.basis.rows for v in row.values())
        assert check_fusion(alg5, {p: ONE}, jordan_law(SYM)).passed
        assert point_check.verdicts == []


def shifted_adjoint_rank(alg, x) -> int:
    """Rank of b -> x*b - b on an evaluated-mode subalgebra, read from
    coordinates with denominators cleared column by column."""
    half = alg.mode.half_eta()
    columns = []
    for row in alg.basis.rows:
        image = vec_product(alg.space, x, row, half)
        coords = alg.coordinates(vec_sub(image, row))
        scale = math.lcm(*(c.denominator for c in coords))
        columns.append([int(c * scale) for c in coords])
    return int_matrix_rank(columns)


class TestPrimitivity:
    def test_matches_shifted_adjoint_rank(self):
        # the generators of the 45 A:5 configurations, the doubles of the
        # W2A, W3A and W2D k = 2 fixed subalgebras, and two idempotents with
        # fractional coefficients in the closure of a line {a, b, c} and a
        # point p orthogonal to it: u - a, primitive, and u - a + p, not,
        # with u = (a + b + c) / (1 + eta) the identity of the line; at
        # eta0 = n/d with d = 1, d > 1 and n < 0
        sp = build_named_space("A", 5)
        a, b, c, p = map(sp.point_of_label, ("b(1,2)", "b(1,3)", "b(2,3)", "b(4,5)"))
        for eta0 in (Fraction(7), Fraction(1, 3), Fraction(-5, 2)):
            mode = ScalarMode.evaluated(eta0)
            cases = []
            for cfg in enumerate_configs(sp, first_point=0):
                gens = cfg.generators(mode)
                cases.append((close(sp, gens, mode), gens))
            for family in ("W2A", "W3A", "W2D"):
                tau = standard_flip(family, 2)
                fixed = close(tau.space, fixed_subalgebra_basis(tau.space, tau, mode), mode)
                doubles = classify_orbits(tau.space, tau).doubles
                cases.append((fixed, [orbit_vector(pair, mode.one()) for pair in doubles]))
            line_and_point = close(sp, [{q: mode.one()} for q in (a, b, c, p)], mode)
            third = 1 / (1 + eta0)
            u_minus_a = {a: third - 1, b: third, c: third}
            u_minus_a_plus_p = {**u_minus_a, p: mode.one()}
            cases.append((line_and_point, [u_minus_a, u_minus_a_plus_p]))
            assert len(cases) == 49
            verdicts = set()
            for alg, axes in cases:
                for x in axes:
                    expected = alg.dimension - shifted_adjoint_rank(alg, x) == 1
                    assert check_primitive(alg, x) == expected
                    verdicts.add(expected)
            assert verdicts == {True, False}
            assert check_primitive(line_and_point, u_minus_a)
            assert not check_primitive(line_and_point, u_minus_a_plus_p)

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


class TestEvaluatedAxis:
    """Evaluated-mode axial functions take the axis at eta0."""

    def test_axis_with_eta_coefficients(self):
        alg = close(build_named_space("A", 4), [{0: ONE}, {1: ONE}], EV7)
        law = jordan_law(EV7)
        e0 = {0: EV7.one()}
        x = {0: EtaScalar.eta() - 6}  # e0 at eta = 7
        assert check_primitive(alg, x)
        assert eigen_decompose(alg, x, law.eigenvalues).parts == (
            eigen_decompose(alg, e0, law.eigenvalues).parts
        )
        assert check_fusion(alg, x, law).passed
        assert miyamoto_algebra_map(alg, x, law).matrix == (
            miyamoto_algebra_map(alg, e0, law).matrix
        )

    def test_axis_with_a_pole_refused(self):
        alg = close(build_named_space("A", 4), [{0: ONE}, {1: ONE}], EV7)
        law = jordan_law(EV7)
        x = {0: 1 / (EtaScalar.eta() - 7)}
        for call in (
            lambda: check_primitive(alg, x),
            lambda: eigen_decompose(alg, x, law.eigenvalues),
            lambda: check_fusion(alg, x, law),
            lambda: miyamoto_algebra_map(alg, x, law),
        ):
            with pytest.raises(UnsafeEtaError, match="pole"):
                call()


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

    def test_refuses_a_failing_law(self):
        # with the eta*eta cell tightened to {2eta}, the map I - 2 P_eta of
        # this double is still an involutive automorphism; only the fusion
        # guard refuses it
        sp = build_named_space("A", 4)
        alg = full_algebra(sp)
        x = {sp.point_of_label("b(1,2)"): ONE, sp.point_of_label("b(3,4)"): ONE}
        wrong = tightened(monster_law(SYM), (3, 3), {2})
        assert not check_fusion(alg, x, wrong).passed
        with pytest.raises(ValueError, match="no Miyamoto involution"):
            miyamoto_algebra_map(alg, x, wrong)

    def test_preserves_frobenius_form(self):
        alg = line_algebra()
        sp = alg.space
        mm = miyamoto_algebra_map(alg, {0: ONE}, jordan_law(SYM))
        rng = random.Random(2)
        half = SYM.half_eta()
        for _ in range(8):
            u = {rng.randrange(3): EtaScalar(rng.randint(1, 3))}
            v = {rng.randrange(3): EtaScalar(rng.randint(1, 3))}
            tu, tv = mm.apply_vec(u), mm.apply_vec(v)
            assert frobenius_value(sp, tu, tv, half) == frobenius_value(sp, u, v, half)


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
        tau = standard_flip("W2A", 2)
        sp = tau.space
        alg = flip_subalgebra(sp, tau, SYM)
        dec = classify_orbits(sp, tau)
        eta = SYM.eta()
        two_eta = eta + eta
        half = SYM.half_eta()
        for pair in dec.doubles:
            x = orbit_vector(pair, ONE)
            # (ad_x - 1) ad_x (ad_x - 2eta) (ad_x - eta) kills every basis row
            for row in alg.basis.rows:
                assert _ad_poly(sp, x, row, (ONE, SYM.zero(), two_eta, eta), half) == {}
