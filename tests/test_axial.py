"""Eigenspaces, fusion laws, primitivity, Miyamoto involutions."""

import math
import random
from fractions import Fraction

import pytest

import matsuo.axial as axial
import matsuo.closure as closure_module
from matsuo.axial import (
    AdjointNotDiagonalizableError,
    FusionLaw,
    ParameterDomainError,
    _ad_poly,
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
from matsuo.algebra import frobenius_value, vec_hadamard, vec_product, vec_scale, vec_sub
from matsuo.classify import enumerate_configs
from matsuo.closure import (
    EchelonBasis,
    ScalarMode,
    Subalgebra,
    UnsafeEtaError,
    close,
)
from matsuo.fischer import (
    NAMED_FAMILIES,
    build_named_space,
    is_space_automorphism,
    point_orbits,
)
from matsuo.flips import (
    FLIP_FAMILIES,
    classify_orbits,
    fixed_subalgebra_basis,
    flip_subalgebra,
    orbit_vector,
    standard_flip,
)
from matsuo.scalars import EtaScalar

from oracles import (
    ambient_image,
    close_over_qeta,
    given_by_hand,
    int_matrix_rank,
    product_verdicts,
    reinserted_rows,
)

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
    """The reversed-column image spans behind eigen_decompose's parts, read
    off Krylov vectors in coordinates, have the canonical rows of the
    ambient Lagrange images and of re-insertion."""
    x = alg.mode.vector(x, "axis")
    spectrum = tuple(spectrum)
    others = [spectrum[:k] + spectrum[k + 1:] for k in range(len(spectrum))]
    numerators = [axial._poly(roots) for roots in others]
    spans = axial._spans(alg, axial._adjoint(alg, x), numerators)
    for span, roots in zip(spans, others):
        image = ambient_image(alg, x, roots)
        assert span.canonical_rows() == image.canonical_rows() == reinserted_rows(span)


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
        law = jordan_law(SYM)
        for call in (
            lambda: eigen_decompose(alg, {0: ONE + ONE}, law.eigenvalues),
            lambda: check_primitive(alg, {0: ONE + ONE}),
            lambda: miyamoto_algebra_map(alg, {0: ONE + ONE}, law),
        ):
            with pytest.raises(ValueError, match="axis must be an idempotent"):
                call()

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
                lambda: miyamoto_algebra_map(alg, x, jordan_law(mode)),
            ):
                with pytest.raises(ValueError, match="does not lie in the subalgebra"):
                    call()

    def test_subalgebra_not_closed(self):
        # span(b0, b1) in the line algebra: b0 * b1 has a b2 component, and
        # b0 is an idempotent in the span, but no axial entry point can be
        # given the span: it never becomes a Subalgebra
        sp = build_named_space("A", 3)
        for mode in (SYM, EV7):
            basis = EchelonBasis(mode)
            basis.insert({0: mode.one()})
            basis.insert({1: mode.one()})
            assert basis.contains(vec_product(sp, {0: mode.one()}, {0: mode.one()}, mode.half_eta()))
            with pytest.raises(ValueError, match="basis is not closed under the product"):
                Subalgebra(sp, mode, [], basis)
            assert product_verdicts(sp, mode, basis, [])[0] is False


def invariant_span_not_closed(mode):
    """The 1- and eta-eigenspaces of x = b(1,2) + b(3,4) in the full A:4
    algebra, as a basis given by hand, with its space and x: a rational
    span, invariant under ad_x and under tau_x, that is not closed, since
    (b(1,3) - b(2,4))^2 = b(1,3) + b(2,4)."""
    sp = build_named_space("A", 4)
    pt, one = sp.point_of_label, mode.one()
    basis = EchelonBasis(mode)
    for vec in (
        {pt("b(1,2)"): one},
        {pt("b(3,4)"): one},
        {pt("b(1,3)"): one, pt("b(2,4)"): -one},
        {pt("b(1,4)"): one, pt("b(2,3)"): -one},
    ):
        basis.insert(vec)
    return sp, basis, {pt("b(1,2)"): one, pt("b(3,4)"): one}


def assert_refused_at_construction(mode, invariant):
    """invariant_span_not_closed(mode) keeps each of its rows inside it
    under invariant(space, x, row), yet never becomes a Subalgebra."""
    sp, basis, x = invariant_span_not_closed(mode)
    assert all(basis.contains(invariant(sp, x, row)) for row in basis.rows)
    with pytest.raises(ValueError, match="basis is not closed under the product"):
        Subalgebra(sp, mode, [], basis)


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
def restriction(monkeypatch):
    """Spy on the gate of the restriction routes, ``_ambient_law``: the
    list of its answers, one per call (a route is taken when the answer is
    the law asked for), and forced_off, the number of its next calls forced
    to answer None."""
    real = axial._ambient_law
    verdicts = []

    def spy(*args):
        verdicts.append(None if spy.forced_off else real(*args))
        spy.forced_off = max(spy.forced_off - 1, 0)
        return verdicts[-1]

    spy.forced_off = 0
    spy.verdicts = verdicts
    monkeypatch.setattr(axial, "_ambient_law", spy)
    return spy


@pytest.fixture
def calls(monkeypatch):
    """Spy on the calls that matsuo.axial makes of check_fusion and
    eigen_decompose: their results, by name."""
    results = {}
    for name in ("check_fusion", "eigen_decompose"):
        real, out = getattr(axial, name), results.setdefault(name, [])

        def spy(*args, real=real, out=out):
            out.append(real(*args))
            return out[-1]

        monkeypatch.setattr(axial, name, spy)
    return results


def counted_products(monkeypatch, module, name="vec_product"):
    """A list that grows by the arguments of each call of the product
    function name made through module."""
    real, made = getattr(module, name), []

    def spy(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return made


def forced_off(restriction, refusals, call, *args):
    """call(*args) with the next refusals restriction verdicts forced to None:
    one for check_fusion's pair loop, one for miyamoto_algebra_map's
    projection route, two for that route with the pair loop as its guard."""
    restriction.forced_off = refusals
    try:
        return call(*args)
    finally:
        restriction.forced_off = 0


def exact_report(restriction, alg, x, law):
    """check_fusion with the restriction route forced off: the pair loop."""
    return forced_off(restriction, 1, check_fusion, alg, x, law)


def violation_keys(report):
    return [
        (v.lam_index, v.mu_index, v.pair, v.offending_part, v.component)
        for v in report.violations
    ]


def orbit_axes(sp):
    """One point per point orbit, and the pairs of that point with its
    first orthogonal point, where there is one."""
    points, pairs = [], []
    for orbit in point_orbits(sp):
        p = orbit[0]
        points.append(p)
        q = next((q for q in range(len(sp.points)) if q != p and not sp.collinear(p, q)), None)
        if q is not None:
            pairs.append((p, q))
    return points, pairs


def small_spaces(limit):
    """(family, n) of every named space with at most limit points; the
    point count grows with n."""
    for family in NAMED_FAMILIES:
        n = 3 if family == "A" else 2
        while len(build_named_space(family, n).points) <= limit:
            yield family, n
            n += 1


SMALL_SPACES = list(small_spaces(20))
SMALL_SPACES_WITH_PAIRS = [s for s in SMALL_SPACES if orbit_axes(build_named_space(*s))[1]]


def assert_routes_agree(restriction, calls, alg, x, law):
    """x passes the law by restriction and by the pair loop alike, and its
    Miyamoto map from the composed point reflections is the projection
    route's, whose guard is that pair loop."""
    assert_canonical_images(alg, x, law.eigenvalues)
    fast = check_fusion(alg, x, law)
    composed = miyamoto_algebra_map(alg, x, law)
    assert restriction.verdicts[-2:] == [law, law]
    projected = forced_off(restriction, 2, miyamoto_algebra_map, alg, x, law)
    exact = calls["check_fusion"][-1]
    assert restriction.verdicts[-2:] == [None, None]
    assert fast.passed and exact.passed
    assert fast.decomposition.parts == exact.decomposition.parts
    assert fast.export() == exact.export()
    assert composed.matrix == projected.matrix


def assert_ambient_law(restriction, calls, sp, supports, law_of):
    """assert_routes_agree in the full algebra, symbolically and at eta = 7,
    for the sum of the points of each support."""
    for mode in (SYM, EV7):
        alg = full_algebra(sp, mode)
        for support in supports:
            x = {p: mode.one() for p in support}
            assert_routes_agree(restriction, calls, alg, x, law_of(mode))


class TestFusionPointCertificate:
    """The restriction route of check_fusion against the pair loop over
    Q(eta) and at eta = 7 (the class keeps the name of the integer-point
    certificate that the route replaced, so its test ids stay)."""

    @pytest.mark.parametrize(
        "family,limit", [("W2A", None), ("W3A", None), ("W2D", 2), ("Wr3x3", 1)]
    )
    def test_passing_doubles_match_exact_loop(self, family, limit, restriction, calls):
        # every double of W2A and W3A, the first two of W2D and the first of
        # Wr3x3 (the benchmark's algebra), whose Q(eta) loops take seconds
        # per double
        tau = standard_flip(family, 2)
        alg = flip_subalgebra(tau.space, tau, SYM)
        doubles = classify_orbits(tau.space, tau).doubles[:limit]
        assert doubles
        for pair in doubles:
            assert_routes_agree(restriction, calls, alg, orbit_vector(pair, ONE), monster_law(SYM))

    @pytest.mark.parametrize("family,n", SMALL_SPACES)
    def test_passing_single_axes_match_exact_loop(self, family, n, restriction, calls):
        # the ambient Jordan law itself, checked by the pair loop
        sp = build_named_space(family, n)
        points, _ = orbit_axes(sp)
        assert_ambient_law(restriction, calls, sp, [(p,) for p in points], jordan_law)

    @pytest.mark.parametrize("family,n", SMALL_SPACES_WITH_PAIRS)
    def test_passing_ambient_doubles_match_exact_loop(self, family, n, restriction, calls):
        # the ambient Monster law itself, checked by the pair loop
        sp = build_named_space(family, n)
        _, pairs = orbit_axes(sp)
        assert_ambient_law(restriction, calls, sp, pairs, monster_law)

    def test_tightened_laws_report_the_exact_violations(self, restriction):
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
            assert_canonical_images(alg, x, law.eigenvalues)
            report = check_fusion(alg, x, law)
            assert restriction.verdicts[-1] not in (None, law)
            exact = exact_report(restriction, alg, x, law)
            assert not report.passed
            assert violation_keys(report) == violation_keys(exact)
            assert report.export() == exact.export()

    def test_cell_vanishing_at_the_first_points_is_caught(self, restriction):
        # spurious eigenvalues nu_i = eta + 1 - 2i (i = 2..5) have empty
        # eigenspaces; allowed in the eta * eta cell next to 0, they make its
        # polynomial on the line algebra eta (2 - eta) prod (2i - eta) times
        # the axis, zero at eta = 2, 4, ..., 10 but not identically.  The
        # law is not J, so the pair loop finds the violation over Q(eta)
        law = jordan_law(SYM)
        spurious = tuple(SYM.eta() + (1 - 2 * i) for i in range(2, 6))
        table = dict(law.table)
        table[(2, 2)] = frozenset({1, 3, 4, 5, 6})
        for k in range(3, 7):
            for j in range(k + 1):
                table.setdefault((j, k), frozenset(range(7)))
        wide = FusionLaw("J+", law.eigenvalues + spurious, table)
        report = check_fusion(line_algebra(), {0: ONE}, wide)
        assert restriction.verdicts == [law]
        assert report.decomposition.dims == (1, 1, 1, 0, 0, 0, 0)
        assert [(v.lam_index, v.mu_index, v.offending_part) for v in report.violations] == [
            (2, 2, 0)
        ]

    def test_product_leaving_the_subalgebra(self, restriction):
        # x obeys M in the whole algebra and the span is ad_x-invariant, but
        # a product leaves it: construction refuses the span, so neither the
        # restriction gate nor the pair loop is asked
        for mode in (SYM, EV7):
            half = mode.half_eta()
            assert_refused_at_construction(mode, lambda sp, x, row: vec_product(sp, x, row, half))
        assert restriction.verdicts == []

    def test_skipped_without_rational_inputs(self, restriction):
        sp = build_named_space("A", 4)
        # evaluated mode: a double under M, by restriction
        alg = full_algebra(sp, EV7)
        one = EV7.one()
        x = {sp.point_of_label("b(1,2)"): one, sp.point_of_label("b(3,4)"): one}
        assert check_fusion(alg, x, monster_law(EV7)).passed
        # an axis with an eta coefficient: the identity (a + b + c)/(1 + eta)
        # of the line algebra, all of which is its 1-eigenspace; three
        # points, so the pair loop
        unit = EtaScalar.one() / (ONE + SYM.eta())
        report = check_fusion(line_algebra(), {0: unit, 1: unit, 2: unit}, jordan_law(SYM))
        assert report.passed and report.decomposition.dims == (3, 0, 0)
        # a Q(eta) closure whose rows involve eta: the idempotent
        # (a + b - eta c)/(1 + eta) on the line b(1,2), b(1,3), b(2,3) of A:5,
        # next to the orthogonal point b(4,5), which passes J by restriction
        sp5 = build_named_space("A", 5)
        a, b, c, p = (sp5.point_of_label(s) for s in ("b(1,2)", "b(1,3)", "b(2,3)", "b(4,5)"))
        e = {a: unit, b: unit, c: -SYM.eta() * unit}
        alg5 = close_over_qeta(sp5, [e, {p: ONE}])
        assert alg5.dimension == 2
        assert not all(v.is_rational() for row in alg5.basis.rows for v in row.values())
        assert check_fusion(alg5, {p: ONE}, jordan_law(SYM)).passed
        assert restriction.verdicts == [monster_law(EV7), None, jordan_law(SYM)]

    def test_point_under_monster_law_takes_the_pair_loop(self, restriction):
        # a point obeys M too (its 2eta part is empty), but M is not the
        # point's ambient law, so the rule does not apply
        sp = build_named_space("A", 4)
        report = check_fusion(full_algebra(sp), {0: ONE}, monster_law(SYM))
        assert restriction.verdicts == [jordan_law(SYM)]
        assert report.passed
        assert report.decomposition.dims == (1, 3, 0, 2)

    def test_double_under_jordan_law_at_one_half(self, restriction):
        # at eta = 1/2, where 2eta = 1, a double axis obeys J; M does not
        # exist there, so the rule says no and the pair loop decides
        mode = ScalarMode.evaluated(Fraction(1, 2))
        sp = build_named_space("A", 4)
        x = {sp.point_of_label("b(1,2)"): mode.one(), sp.point_of_label("b(3,4)"): mode.one()}
        report = check_fusion(full_algebra(sp, mode), x, jordan_law(mode))
        assert restriction.verdicts == [None]
        assert report.passed and report.decomposition.dims == (3, 1, 2)


def spans_dims(alg, x, values):
    """d minus the rank of ad_x - lambda over the mode's scalars, for each
    lambda in values: the kernel dimensions from ``_spans``."""
    adjoint = axial._adjoint(alg, x)
    kernels = axial._spans(alg, adjoint, [axial._poly((lam,)) for lam in values])
    return tuple(alg.dimension - len(span) for span in kernels)


def ambient_axes(points, pairs, mode):
    """(axis, law) for each point under J and each pair of orthogonal
    points under M."""
    one = mode.one()
    return [({p: one}, jordan_law(mode)) for p in points] + [
        ({p: one, q: one}, monster_law(mode)) for p, q in pairs
    ]


def flip_axes(family, mode):
    """The k = 2 flip algebra of family, with its first single under J and
    its first double under M."""
    tau = standard_flip(family, 2)
    orbits = classify_orbits(tau.space, tau)
    one = mode.one()
    axes = [(orbit_vector((orbits.singles[0],), one), jordan_law(mode))]
    axes.append((orbit_vector(orbits.doubles[0], one), monster_law(mode)))
    return flip_subalgebra(tau.space, tau, mode), axes


class TestIntegerEigenDims:
    """check_fusion's restricted route reads the eigenspace dimensions of a
    point under J or a double under M on a rational basis from integer
    ranks at one point eta1 (``closure.kernel_dims``);
    they must be the dimensions over the mode's scalars."""

    @pytest.mark.parametrize("family,n", SMALL_SPACES)
    def test_every_ambient_axis_matches_spans(self, family, n):
        # every point and orthogonal double at eta = 7; symbolically one
        # point per orbit and its pair with its first orthogonal point, as
        # the Q(eta) spans of every axis take about 12 s over these spaces
        sp = build_named_space(family, n)
        everywhere = range(len(sp.points))
        orthogonal = [(p, q) for p in everywhere for q in range(p) if not sp.collinear(p, q)]
        cases = [(EV7, ambient_axes(everywhere, orthogonal, EV7))]
        cases.append((SYM, ambient_axes(*orbit_axes(sp), SYM)))
        for mode, axes in cases:
            alg = full_algebra(sp, mode)
            for x, law in axes:
                dims = check_fusion(alg, x, law).decomposition.dims
                assert dims == spans_dims(alg, x, law.eigenvalues)

    @pytest.mark.parametrize("family", FLIP_FAMILIES)
    def test_flip_axes_match_spans(self, family):
        for mode in (SYM, EV7):
            alg, axes = flip_axes(family, mode)
            for x, law in axes:
                dims = check_fusion(alg, x, law).decomposition.dims
                assert dims == spans_dims(alg, x, law.eigenvalues)
                assert sum(dims) == alg.dimension

    def test_degenerate_point_raises(self, monkeypatch):
        # at eta1 = 1/2 the values 1 and 2eta of M coincide, so the kernel
        # dimensions there sum to more than d and are not the ones over
        # Q(eta): the route refuses them rather than report them
        sp = build_named_space("A", 4)
        x = {sp.point_of_label("b(1,2)"): ONE, sp.point_of_label("b(3,4)"): ONE}
        alg, law = full_algebra(sp), monster_law(SYM)
        assert check_fusion(alg, x, law).decomposition.dims == (2, 1, 1, 2)
        monkeypatch.setattr(closure_module, "_ETA1_START", Fraction(1, 2))
        with pytest.raises(RuntimeError, match=r"\(3, 1, 3, 2\) sum to 9"):
            check_fusion(alg, x, law)


@pytest.fixture
def inserts(monkeypatch):
    """The vectors given to EchelonBasis.insert so far."""
    made, real = [], EchelonBasis.insert

    def spy(self, vec):
        made.append(vec)
        return real(self, vec)

    monkeypatch.setattr(EchelonBasis, "insert", spy)
    return made


class TestRestrictedFastPath:
    def test_no_elimination_over_the_mode_scalars(self, inserts):
        # the fusion workload's check, and at eta = 7; check_primitive of an
        # evaluated axis outside the gate, a double at eta = 1/2
        for mode in (SYM, EV7):
            alg, axes = flip_axes("Wr3x3", mode)
            inserts.clear()
            for x, law in axes:
                assert check_fusion(alg, x, law).passed
            assert inserts == []
        half = ScalarMode.evaluated(Fraction(1, 2))
        tau = standard_flip("Wr3x3", 2)
        alg = flip_subalgebra(tau.space, tau, half)
        x = orbit_vector(classify_orbits(tau.space, tau).doubles[0], half.one())
        inserts.clear()
        assert axial._ambient_law(half, x) is None
        assert check_primitive(alg, x) is False
        assert inserts == []

    def test_coordinates_read_at_the_pivots(self, monkeypatch):
        # a point under M is outside the gate: _adjoint and the pair loop
        # read their products at the pivots, so the one reduction on the
        # subalgebra basis is _axis's membership check of the axis
        reduced, real = [], EchelonBasis.reduce

        def spy(self, vec):
            reduced.append((self, vec))
            return real(self, vec)

        monkeypatch.setattr(EchelonBasis, "reduce", spy)
        for mode in (SYM, EV7):
            alg, axes = flip_axes("Wr3x3", mode)
            x, law = axes[0][0], monster_law(mode)
            reduced.clear()
            axial._adjoint(alg, x)
            assert reduced == []
            assert check_fusion(alg, x, law).passed
            assert [vec for basis, vec in reduced if basis is alg.basis] == [x]

    def test_axis_checked_once_per_entry_point(self, monkeypatch):
        # the restricted routes and the pair loop alike, and the Miyamoto
        # map's I - 2 P_odd route through check_fusion
        sp = build_named_space("A", 4)
        alg, m = full_algebra(sp), monster_law(SYM)
        double = {sp.point_of_label("b(1,2)"): ONE, sp.point_of_label("b(3,4)"): ONE}
        checked = counted_products(monkeypatch, axial, "_axis")
        for x in (double, {0: ONE}):
            check_fusion(alg, x, m)
            miyamoto_algebra_map(alg, x, m)
        check_primitive(alg, double)
        assert len(checked) == 5

    def test_parts_built_once_when_read(self, monkeypatch):
        alg, axes = flip_axes("Wr3x3", SYM)
        x, law = axes[1]
        adjoints = counted_products(monkeypatch, axial, "_adjoint")
        spans = counted_products(monkeypatch, axial, "_spans")
        report = check_fusion(alg, x, law)
        assert adjoints == spans == []
        dec = report.decomposition
        parts, adjoint = dec.parts, dec.adjoint
        assert dec.parts is parts and dec.adjoint is adjoint
        assert len(adjoints) == len(spans) == 1
        eager = eigen_decompose(alg, x, law.eigenvalues)
        assert parts == eager.parts and adjoint == eager.adjoint
        assert dec.dims == eager.dims

    def test_parts_are_checked_against_dims(self):
        alg, axes = flip_axes("W3A", SYM)
        x, law = axes[1]
        dec = check_fusion(alg, x, law).decomposition
        dec.dims = dec.dims[::-1]
        with pytest.raises(RuntimeError, match="eigenvectors of dimensions"):
            dec.parts

    def test_basis_with_an_eta_entry_keeps_the_qeta_route(self, restriction, inserts):
        # the point b(4,5) next to the idempotent (a + b - eta c)/(1 + eta)
        # of a line of A:5, whose closure has a row in eta
        sp = build_named_space("A", 5)
        a, b, c, p = (sp.point_of_label(s) for s in ("b(1,2)", "b(1,3)", "b(2,3)", "b(4,5)"))
        unit = EtaScalar.one() / (ONE + SYM.eta())
        alg = close_over_qeta(sp, [{a: unit, b: unit, c: -SYM.eta() * unit}, {p: ONE}])
        x, law = {p: ONE}, jordan_law(SYM)
        inserts.clear()
        report = check_fusion(alg, x, law)
        assert inserts and restriction.verdicts == [law]
        eager = eigen_decompose(alg, x, law.eigenvalues)
        assert report.decomposition.parts == eager.parts
        assert report.export() == exact_report(restriction, alg, x, law).export()


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
        # eta0 = n/d with d = 1, d > 1 and n < 0, and at 1/2, where 2eta = 1
        # and the 2eta-eigenvectors of a double b + c join its 1-eigenspace,
        # so A_1(b + c) is larger than <b, c>
        sp = build_named_space("A", 5)
        a, b, c, p = map(sp.point_of_label, ("b(1,2)", "b(1,3)", "b(2,3)", "b(4,5)"))
        for eta0 in (Fraction(7), Fraction(1, 3), Fraction(-5, 2), Fraction(1, 2)):
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

    @pytest.mark.parametrize("family", ["W3A", "Wr3x3"])
    def test_flip_axes_match_symbolic_rank(self, family):
        # the first single and the first double of the k = 2 flip algebra
        # against d - rank over Q(eta) of {x*b - b}, b over the basis rows,
        # inserted into an EchelonBasis here
        tau = standard_flip(family, 2)
        alg = flip_subalgebra(tau.space, tau, SYM)
        dec = classify_orbits(tau.space, tau)
        half = SYM.half_eta()
        for orbit in ((dec.singles[0],), dec.doubles[0]):
            x = orbit_vector(orbit, ONE)
            span = EchelonBasis(SYM)
            for row in alg.basis.rows:
                span.insert(vec_sub(vec_product(alg.space, x, row, half), row))
            assert check_primitive(alg, x) == (alg.dimension - len(span) == 1)

    @pytest.mark.parametrize("family", ["W2A", "W3A", "W2D"])
    def test_doubles_primitive_in_fixed_subalgebra(self, family):
        tau = standard_flip(family, 2)
        sp = tau.space
        fixed = close(sp, fixed_subalgebra_basis(sp, tau), SYM)
        dec = classify_orbits(sp, tau)
        for pair in dec.doubles:
            assert check_primitive(fixed, orbit_vector(pair, ONE))

    def test_refuses_an_invariant_span_that_is_not_closed(self):
        # x would pass the gate, and the span is invariant under ad_x - 1,
        # but it is not closed: construction walks the basis given by hand
        # and finds the product
        for mode in (SYM, EV7):
            assert axial._ambient_law(mode, invariant_span_not_closed(mode)[2]) == monster_law(mode)
            half = mode.half_eta()
            assert_refused_at_construction(
                mode, lambda sp, x, row: vec_sub(vec_product(sp, x, row, half), row)
            )


class TestEvaluatedAxis:
    """The axial entry points take the axis through ScalarMode.vector: at
    eta0 in evaluated mode, zero coefficients dropped in both modes."""

    def test_zero_coefficients_are_dropped(self):
        # {0: 1, 1: 0} is the point 0, symbolically and at eta = 7
        for mode in (SYM, EV7):
            alg = close(build_named_space("A", 4), [{0: mode.one()}, {1: mode.one()}], mode)
            law = jordan_law(mode)
            point, padded = {0: mode.one()}, {0: mode.one(), 1: mode.zero()}
            assert check_primitive(alg, padded)
            assert eigen_decompose(alg, padded, law.eigenvalues).parts == (
                eigen_decompose(alg, point, law.eigenvalues).parts
            )
            assert check_fusion(alg, padded, law).export() == (
                check_fusion(alg, point, law).export()
            )
            assert miyamoto_algebra_map(alg, padded, law).matrix == (
                miyamoto_algebra_map(alg, point, law).matrix
            )

    def test_zero_axis_is_refused(self):
        # an axis is a nonzero idempotent: {}, {p: 0} and, at eta = 7,
        # {p: eta - 7} are zero after ScalarMode.vector
        sp = build_named_space("A", 4)
        p, q = sp.point_of_label("b(1,2)"), sp.point_of_label("b(3,4)")
        for mode in (SYM, EV7):
            alg = close(sp, [{p: mode.one()}, {q: mode.one()}], mode)
            law = monster_law(mode)
            zeros = [{}, {p: mode.zero()}] + ([{p: EtaScalar.eta() - 7}] if mode is EV7 else [])
            for x in zeros:
                for call in (
                    lambda: check_fusion(alg, x, law),
                    lambda: eigen_decompose(alg, x, law.eigenvalues),
                    lambda: check_primitive(alg, x),
                    lambda: miyamoto_algebra_map(alg, x, law),
                ):
                    with pytest.raises(ValueError, match="axis must be nonzero"):
                        call()

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

    def test_tau_of_double_is_composition_matrixwise(self, restriction):
        # every double of the W2A, W3A and Wr3x3 k = 2 flip algebras at
        # eta = 7 (over Q(eta), where the projection route takes about four
        # times as long, TestFusionPointCertificate compares the W2A and
        # W3A doubles and the first Wr3x3 one): the composed point
        # reflections give the projection route's matrix, whose guard passes
        # by restriction, and the Krylov eigenspace images are the ambient
        # ones
        law = monster_law(EV7)
        for family in ("W2A", "W3A", "Wr3x3"):
            tau = standard_flip(family, 2)
            alg = flip_subalgebra(tau.space, tau, EV7)
            doubles = classify_orbits(tau.space, tau).doubles
            assert doubles
            for pair in doubles:
                x = orbit_vector(pair, EV7.one())
                assert_canonical_images(alg, x, law.eigenvalues)
                composed = miyamoto_algebra_map(alg, x, law)
                projected = forced_off(restriction, 1, miyamoto_algebra_map, alg, x, law)
                assert restriction.verdicts[-3:] == [law, None, law]
                assert composed.matrix == projected.matrix, (family, pair)

    def test_route_of_the_fusion_workload(self, calls):
        # the first double of the Wr3x3 k = 2 flip algebra under M: no
        # fusion check and no eigenspaces
        tau = standard_flip("Wr3x3", 2)
        alg = flip_subalgebra(tau.space, tau, SYM)
        x = orbit_vector(classify_orbits(tau.space, tau).doubles[0], ONE)
        assert miyamoto_algebra_map(alg, x, monster_law(SYM)).is_involution()
        assert calls == {"check_fusion": [], "eigen_decompose": []}

    def test_products_on_the_fusion_workload(self, monkeypatch):
        # on the benchmark's input, eigen_decompose takes one product of the
        # axis per basis row beside its idempotency check; the restricted
        # map takes no product, since close proved the basis closed.  The
        # same basis given by hand is walked at construction: the coordinatewise
        # and line parts of each unordered pair of integer basis rows, no
        # product of images and none over Q(eta)
        tau = standard_flip("Wr3x3", 2)
        alg = flip_subalgebra(tau.space, tau, SYM)
        x = orbit_vector(classify_orbits(tau.space, tau).doubles[0], ONE)
        law, d = monster_law(SYM), alg.dimension
        assert d == 30
        adjoint_products = counted_products(monkeypatch, axial)
        eigen_decompose(alg, x, law.eigenvalues)
        assert len(adjoint_products) == d + 1
        line_parts = counted_products(monkeypatch, closure_module)
        coordinatewise_parts = counted_products(monkeypatch, closure_module, "vec_hadamard")
        tau_x = miyamoto_algebra_map(alg, x, law).matrix
        assert line_parts == coordinatewise_parts == []
        assert miyamoto_algebra_map(given_by_hand(alg), x, law).matrix == tau_x
        pairs = d * (d + 1) // 2
        assert len(line_parts) == len(coordinatewise_parts) == pairs == 465
        assert all(args[3:] == (1, 0) for args in line_parts)
        factors = [f for args in line_parts for f in args[1:3]]
        factors += [f for args in coordinatewise_parts for f in args]
        assert all(type(c) is int for f in factors for c in f.values())

    def test_point_under_monster_law_takes_the_guard(self, calls):
        # M is not a point's ambient law: the guard runs once, and the
        # projection gives the point's reflection all the same
        sp = build_named_space("A", 4)
        alg = full_algebra(sp)
        mm = miyamoto_algebra_map(alg, {0: ONE}, monster_law(SYM))
        assert len(calls["check_fusion"]) == 1 and calls["check_fusion"][0].passed
        assert len(calls["eigen_decompose"]) == 1
        assert mm.matrix == permutation_matrix_on(alg, miyamoto_point_map(sp, 0))

    def test_involution_guard(self, monkeypatch, restriction):
        # a map that is not an involution is refused on both routes: the
        # restricted double under M and the point under M, I - 2 P_odd
        sp = build_named_space("A", 4)
        alg = full_algebra(sp)
        double = {sp.point_of_label("b(1,2)"): ONE, sp.point_of_label("b(3,4)"): ONE}
        monkeypatch.setattr(axial.MiyamotoMap, "is_involution", lambda self: False)
        for x in (double, {0: ONE}):
            with pytest.raises(ValueError, match="not an algebra involution"):
                miyamoto_algebra_map(alg, x, monster_law(SYM))
        assert restriction.verdicts == [monster_law(SYM), jordan_law(SYM), jordan_law(SYM)]

    def test_invariant_span_fails_on_its_coordinatewise_part(self, monkeypatch):
        # the line parts of the span's products stay inside it, but the
        # coordinatewise square of b(1,3) - b(2,4) is b(1,3) + b(2,4): the
        # construction walk, over Z on the rational rows, stops at that
        # coordinatewise part
        for mode in (SYM, EV7):
            sp, basis, _ = invariant_span_not_closed(mode)
            rows = basis.rows
            assert all(basis.contains(vec_product(sp, u, v, 1, 0)) for u in rows for v in rows)
            assert not product_verdicts(sp, mode, basis, [])[0]
        sp, basis, _ = invariant_span_not_closed(SYM)
        coordinatewise_parts = counted_products(monkeypatch, closure_module, "vec_hadamard")
        with pytest.raises(ValueError, match="basis is not closed under the product"):
            Subalgebra(sp, SYM, [], basis)
        u, v = coordinatewise_parts[-1]
        assert u == v and not basis.contains(vec_hadamard(u, v))
        assert all(type(c) is int for c in u.values())

    def test_point_permutation_keeping_coordinatewise_products(self):
        # swapping the points b(1,2) and b(1,3) of A:4 sends the line
        # {b(1,2), b(1,4), b(2,4)} to a triple that is not a line: every
        # coordinatewise product is kept, the line parts are not
        sp = build_named_space("A", 4)
        p, q = sp.point_of_label("b(1,2)"), sp.point_of_label("b(1,3)")
        perm = list(range(len(sp.points)))
        perm[p], perm[q] = q, p
        assert not is_space_automorphism(sp, perm)
        for mode in (SYM, EV7):
            alg = full_algebra(sp, mode)
            matrix = permutation_matrix_on(alg, perm)
            assert not axial.MiyamotoMap(alg, matrix).preserves_products()
            assert product_verdicts(sp, mode, alg.basis, [matrix])[2] == [False]

    def test_checks_refuse_other_maps(self):
        # on the line algebra: b0 -> -b0 is an involution but sends b0 * b0
        # to b0, not -b0; the swap of b1 and b2 is both; doubling b0 neither
        alg = line_algebra()
        one, zero = ONE, SYM.zero()
        negate = [[-one, zero, zero], [zero, one, zero], [zero, zero, one]]
        swap = permutation_matrix_on(alg, (0, 2, 1))
        double = [[one + one, zero, zero], [zero, one, zero], [zero, zero, one]]
        verdicts = []
        for matrix in (negate, swap, double):
            mm = axial.MiyamotoMap(alg, matrix)
            verdicts.append((mm.is_involution(), mm.preserves_products()))
        assert verdicts == [(True, False), (True, True), (False, False)]

    def test_permutation_matrix_needs_invariance(self):
        # the closed span of point 0 of A:3, and the reflection of point 1,
        # which sends 0 to 2
        sp = build_named_space("A", 3)
        alg = close(sp, [{0: ONE}], SYM)
        perm = miyamoto_point_map(sp, 1)
        assert perm[0] == 2
        with pytest.raises(ValueError, match="not invariant"):
            permutation_matrix_on(alg, perm)

    def test_restricted_maps_preserve_products(self, restriction):
        # the restricted route takes no product of images: the composed
        # reflections are verified automorphisms of the space.  The product
        # check agrees on the points and doubles of A:4 and on the first
        # double of the W2A, W3A and Wr3x3 k = 2 flip algebras
        sp = build_named_space("A", 4)
        n = len(sp.points)
        points = [(p,) for p in range(n)]
        doubles = [(p, q) for p in range(n) for q in range(p + 1, n) if not sp.collinear(p, q)]
        assert (len(points), len(doubles)) == (6, 3)
        for mode in (SYM, EV7):
            algebras = [(full_algebra(sp, mode), points, jordan_law(mode))]
            algebras.append((algebras[0][0], doubles, monster_law(mode)))
            for family in ("W2A", "W3A", "Wr3x3"):
                tau = standard_flip(family, 2)
                alg = flip_subalgebra(tau.space, tau, mode)
                first = classify_orbits(tau.space, tau).doubles[:1]
                algebras.append((alg, first, monster_law(mode)))
            for alg, supports, law in algebras:
                assert supports
                for support in supports:
                    mm = miyamoto_algebra_map(alg, {p: mode.one() for p in support}, law)
                    assert restriction.verdicts[-1] == law
                    assert mm.preserves_products(), (support, law.name)

    def test_refuses_an_invariant_span_that_is_not_closed(self):
        # tau_x preserves the span, so its matrix would build, but a product
        # leaves it: construction refuses the span
        for mode in (SYM, EV7):
            assert_refused_at_construction(
                mode,
                lambda sp, x, row: {axial._composed_reflections(sp, x)[k]: c for k, c in row.items()},
            )

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
