"""Closure engine: spans, echelon invariants, structure constants,
direct sums, mode consistency."""

import random
from fractions import Fraction

import pytest

from matsuo import closure
from matsuo.algebra import _IntEchelon, vec_hadamard, vec_product
from matsuo.classify import enumerate_configs
from matsuo.closure import (
    EchelonBasis,
    ScalarMode,
    Subalgebra,
    UnsafeEtaError,
    _close_over_qeta,
    close,
    consistency_check,
    evaluate_vec,
    is_direct_sum,
    reclose,
    specialized_dimension,
)
from matsuo.fischer import build_named_space
from matsuo.flips import FLIP_FAMILIES, flip_subalgebra, standard_flip
from matsuo.scalars import ETA, EtaPoly, EtaScalar

from oracles import reinserted_rows

SYM = ScalarMode.symbolic()
ONE = SYM.one()


def line_space():
    return build_named_space("A", 3)


class TestScalarMode:
    def test_rejects_degenerate_eta(self):
        with pytest.raises(UnsafeEtaError):
            ScalarMode.evaluated(0)
        with pytest.raises(UnsafeEtaError):
            ScalarMode.evaluated(1)

    def test_safety_includes_critical_values(self):
        sp = line_space()
        assert not ScalarMode.evaluated(2).is_safe_for(sp)
        assert not ScalarMode.evaluated(-1).is_safe_for(sp)
        assert not ScalarMode.evaluated(Fraction(1, 2)).is_safe_for(sp)
        assert ScalarMode.evaluated(7).is_safe_for(sp)
        assert SYM.is_safe_for(sp)

    def test_domain_values(self):
        ev = ScalarMode.evaluated(Fraction(3, 2))
        assert ev.eta() == Fraction(3, 2)
        assert ev.half_eta() == Fraction(3, 4)
        assert SYM.eta() == EtaScalar.eta()


class TestEchelonBasis:
    def test_insert_and_reduce(self):
        basis = EchelonBasis(SYM)
        assert basis.insert({0: ONE, 1: ONE})
        assert basis.insert({1: ONE})
        assert not basis.insert({0: ONE + ONE, 1: ONE + ONE})
        assert basis.dimension == 2
        assert basis.reduce({0: ONE, 1: ONE, 2: ONE}) == {2: ONE}

    def test_pivot_columns_unit_and_eliminated(self):
        basis = EchelonBasis(SYM)
        basis.insert({0: ONE + ONE, 1: ONE})
        basis.insert({0: ONE, 2: ONE})
        for ridx, pivot in enumerate(basis.pivot_of_row):
            assert basis.rows[ridx][pivot] == ONE
            for other, row in enumerate(basis.rows):
                if other != ridx:
                    assert pivot not in row

    def test_coordinates(self):
        basis = EchelonBasis(SYM)
        basis.insert({0: ONE})
        basis.insert({1: ONE})
        coords = basis.coordinates({0: ONE + ONE, 1: -ONE})
        assert coords == [ONE + ONE, -ONE]
        assert basis.coordinates({2: ONE}) is None

    def test_canonical_rows_order_independent(self):
        # over Q(eta) and over Q, against re-insertion into a fresh basis;
        # the last vector is the sum of the first, second and fourth
        rng = random.Random(3)
        for mode in (SYM, ScalarMode.evaluated(Fraction(1, 3))):
            one, eta = mode.one(), mode.eta()
            vecs = [
                {0: one, 3: one, 5: eta},
                {1: one, 3: -one, 6: one},
                {0: one, 1: one, 5: one},
                {2: one + one, 4: eta, 6: -one},
                {0: one, 1: one, 2: one + one, 4: eta, 5: eta},
            ]
            reference = None
            for _ in range(6):
                shuffled = vecs[:]
                rng.shuffle(shuffled)
                basis = EchelonBasis(mode)
                for v in shuffled:
                    basis.insert(dict(v))
                canon = basis.canonical_rows()
                assert canon == reinserted_rows(basis)
                if reference is None:
                    reference = canon
                assert canon == reference
            assert len(reference) == 4


class TestClose:
    def test_single_idempotent(self):
        sp = line_space()
        assert close(sp, [{0: ONE}], SYM).dimension == 1

    def test_empty_generators(self):
        sp = line_space()
        assert close(sp, [], SYM).dimension == 0

    def test_zero_generator_rejected(self):
        sp = line_space()
        with pytest.raises(ValueError):
            close(sp, [{}], SYM)

    @pytest.mark.parametrize("mode,zero,coef,route", [
        (ScalarMode.evaluated(5), Fraction(0), Fraction(1), ScalarMode.evaluated(5)),
        (SYM, EtaScalar.zero(), EtaScalar.eta(), SYM),  # the Q(eta) worklist
        (SYM, EtaScalar.zero(), ONE, ScalarMode.evaluated(7)),  # the certified route
    ])
    def test_zero_coefficients_are_dropped(self, mode, zero, coef, route, worklist_modes):
        # an explicit zero coefficient must not become a pivot
        sp = build_named_space("A", 4)
        alg = close(sp, [{0: zero, 1: coef}], mode)
        assert worklist_modes == [route]
        assert alg.generators == [({1: coef}, "custom")]
        assert alg.basis.canonical_rows() == close(sp, [{1: coef}], mode).basis.canonical_rows()
        with pytest.raises(ValueError, match="generators must be nonzero"):
            close(sp, [{0: zero}], mode)

    def test_evaluated_generators_take_eta0(self):
        sp = build_named_space("W3A", 3)
        mode = ScalarMode.evaluated(7)
        alg = close(sp, [{0: ETA - 7, 4: ONE}], mode)
        assert alg.generators == [({4: Fraction(1)}, "custom")]
        assert alg.dimension == 1
        assert alg.basis.rows == close(sp, [{4: 1}], mode).basis.rows

    def test_evaluated_generator_pole_is_unsafe(self):
        sp = build_named_space("W3A", 3)
        with pytest.raises(UnsafeEtaError, match="pole"):
            close(sp, [{0: ONE / (ETA - 7)}], ScalarMode.evaluated(7))

    def test_evaluated_generator_vanishing_at_eta0_rejected(self):
        sp = build_named_space("W3A", 3)
        with pytest.raises(ValueError, match="generators must be nonzero"):
            close(sp, [{0: ETA - 7}, {4: ONE}], ScalarMode.evaluated(7))

    def test_line_spans_three_dims(self):
        sp = line_space()
        alg = close(sp, [{0: ONE}, {1: ONE}, {2: ONE}], SYM)
        assert alg.dimension == 3
        assert alg.is_closed()

    def test_two_points_generate_their_line(self):
        sp = line_space()
        alg = close(sp, [{0: ONE}, {1: ONE}], SYM)
        assert alg.dimension == 3

    def test_double_axis_alone(self):
        sp = build_named_space("A", 4)
        x = {sp.point_of_label("b(1,2)"): ONE, sp.point_of_label("b(3,4)"): ONE}
        assert close(sp, [x], SYM).dimension == 1

    def test_idempotent_closure_operator(self):
        sp = build_named_space("W3A", 3)
        gens = [{0: ONE}, {4: ONE}, {7: ONE}]
        alg = close(sp, gens, SYM)
        again = reclose(alg)
        assert again.dimension == alg.dimension
        assert again.basis.canonical_rows() == alg.basis.canonical_rows()

    def test_monotone_and_extensive(self):
        sp = build_named_space("W3A", 3)
        small = close(sp, [{0: ONE}], SYM)
        big = close(sp, [{0: ONE}, {4: ONE}], SYM)
        assert big.dimension >= small.dimension
        for row in small.basis.rows:
            assert big.contains(row)
        assert big.contains({0: ONE}) and big.contains({4: ONE})

    def test_generator_order_invariance(self):
        sp = build_named_space("W3A", 4)
        labels = ["b(1,2)", "c(1,3)", "c(2,4)", "b(3,4)"]
        gens = [{sp.point_of_label(lab): ONE} for lab in labels]
        rng = random.Random(5)
        reference = None
        for _ in range(5):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            alg = close(sp, shuffled, SYM)
            canon = alg.basis.canonical_rows()
            if reference is None:
                reference = (alg.dimension, canon)
            assert (alg.dimension, canon) == reference

    def test_evaluated_mode_agrees_on_line(self):
        sp = line_space()
        ev = ScalarMode.evaluated(7)
        alg = close(sp, [{0: ev.one()}, {1: ev.one()}], ev)
        assert alg.dimension == 3


class TestStructureConstants:
    def test_one_dimensional(self):
        sp = line_space()
        alg = close(sp, [{0: ONE}], SYM)
        tensor = alg.structure_constants()
        assert tensor[0][0] == {0: ONE}

    def test_line_algebra_constants(self):
        sp = line_space()
        alg = close(sp, [{0: ONE}, {1: ONE}, {2: ONE}], SYM)
        tensor = alg.structure_constants()
        half = SYM.half_eta()
        # distinct points multiply to (eta/2)(sum of the pair minus the third)
        assert tensor[0][1] == {0: half, 1: half, 2: -half}
        assert tensor[0][0] == {0: ONE}

    def test_symmetry(self):
        sp = build_named_space("W3A", 3)
        alg = close(sp, [{0: ONE}, {3: ONE}], SYM)
        tensor = alg.structure_constants()
        d = alg.dimension
        for i in range(d):
            for j in range(d):
                assert tensor[i][j] == tensor[j][i]

    def test_csv_export(self):
        sp = line_space()
        alg = close(sp, [{0: ONE}], SYM)
        csv = alg.multiplication_table_csv()
        assert csv.splitlines()[0] == "row,col,expansion"
        assert '"(1)*r0"' in csv


class TestDirectSums:
    def test_disjoint_supports(self):
        sp = build_named_space("A", 10)
        g1 = {sp.point_of_label("b(1,2)"): ONE}
        g2 = {sp.point_of_label("b(3,4)"): ONE}
        alg = close(sp, [g1, g2], SYM)
        assert is_direct_sum(alg, [[0], [1]])

    def test_line_split_fails(self):
        sp = line_space()
        alg = close(sp, [{0: ONE}, {1: ONE}, {2: ONE}], SYM)
        assert not is_direct_sum(alg, [[0], [1, 2]])

    def test_partition_must_cover(self):
        sp = line_space()
        alg = close(sp, [{0: ONE}, {1: ONE}], SYM)
        with pytest.raises(ValueError):
            is_direct_sum(alg, [[0]])


class TestConsistency:
    def test_single_generator_any_safe_eta(self):
        sp = line_space()
        assert consistency_check(sp, [{0: ONE}], Fraction(5))

    def test_unsafe_eta_rejected(self):
        sp = line_space()
        with pytest.raises(UnsafeEtaError):
            consistency_check(sp, [{0: ONE}], 2)

    def test_unsafe_eta_bypass(self):
        sp = line_space()
        assert consistency_check(sp, [{0: ONE}], 2, allow_unsafe=True)

    def test_evaluate_vec(self):
        vec = {0: EtaScalar.eta(), 1: EtaScalar(1, 2)}
        assert evaluate_vec(vec, 2) == {0: Fraction(2), 1: Fraction(1, 2)}

    def test_specialized_dimension_matches_at_safe_eta(self):
        sp = build_named_space("W3A", 3)
        gens = [{0: ONE}, {4: ONE}]
        alg = close(sp, gens, SYM)
        assert specialized_dimension(alg, 5) == alg.dimension


def reference_specialized_dimension(subalgebra, eta0) -> int:
    """Specialize-last over Q[eta]: the product tree kept as polynomial
    vectors next to a second, symbolic echelon.  Slow, independent oracle."""
    eta0 = Fraction(eta0)
    half_eta_poly = EtaPoly((0, Fraction(1, 2)))
    sym_rank = EchelonBasis(SYM)
    ev_basis = EchelonBasis(ScalarMode.evaluated(eta0))
    worklist = []

    def offer(pv):
        grew_sym = sym_rank.insert({k: EtaScalar(p) for k, p in pv.items()})
        grew_ev = ev_basis.insert(evaluate_vec(pv, eta0))
        if grew_sym or grew_ev:
            worklist.append(pv)

    for vec, _ in subalgebra.generators:
        offer(closure._poly_vec(vec))
    cursor = 0
    while cursor < len(worklist):
        left = worklist[cursor]
        for right in list(worklist):
            prod = vec_product(subalgebra.space, left, right, half_eta_poly)
            if prod:
                offer(prod)
        cursor += 1
    assert sym_rank.dimension == subalgebra.dimension
    return ev_basis.dimension


@pytest.fixture(scope="module")
def wr3x3_flip():
    tau = standard_flip("Wr3x3", 2)
    return flip_subalgebra(tau.space, tau, SYM)


class TestSpecializedDimension:
    @pytest.mark.parametrize("eta0", [2, 5, Fraction(1, 3), Fraction(-5, 2)])
    def test_matches_reference_on_w3a3(self, eta0):
        sp = build_named_space("W3A", 3)
        alg = close(sp, [{0: ONE}, {4: ONE}, {7: ONE}], SYM)
        expected = reference_specialized_dimension(alg, eta0)
        assert specialized_dimension(alg, eta0) == expected

    @pytest.mark.parametrize("eta0", [Fraction(1, 3), Fraction(-5, 2), Fraction(3, 2)])
    def test_matches_reference_with_eta_coefficients(self, eta0):
        sp = build_named_space("W3A", 3)
        gens = [{0: ONE, 4: ETA}, {7: EtaScalar(1, 2) - ETA}]
        alg = close(sp, gens, SYM)
        expected = reference_specialized_dimension(alg, eta0)
        assert specialized_dimension(alg, eta0) == expected

    @pytest.mark.parametrize("eta0,expected", [(2, 29), (7, 30)])
    def test_matches_reference_on_wr3x3_flip(self, wr3x3_flip, eta0, expected):
        assert wr3x3_flip.dimension == 30
        assert reference_specialized_dimension(wr3x3_flip, eta0) == expected
        assert specialized_dimension(wr3x3_flip, eta0) == expected

    @pytest.fixture
    def eta1_log(self, monkeypatch):
        """Start eta1 at the degenerate value 2 and log (eta1, rank) per walk."""
        seen = []
        walk = closure._walk_at

        def spy(sp, gens, modes):
            ranks = walk(sp, gens, modes)
            seen.append((modes[1].eta0, ranks[1]))
            return ranks

        monkeypatch.setattr(closure, "_ETA1_START", 2)
        monkeypatch.setattr(closure, "_walk_at", spy)
        return seen

    def test_degenerate_eta1_moves_on(self, wr3x3_flip, eta1_log):
        assert specialized_dimension(wr3x3_flip, 7) == 30
        assert eta1_log == [(2, 29), (3, 30)]

    def test_eta1_skips_eta0(self, wr3x3_flip, eta1_log):
        assert specialized_dimension(wr3x3_flip, 2) == 29
        assert eta1_log == [(3, 30)]

    def test_rejects_evaluated_closure_and_unsafe_eta(self):
        sp = line_space()
        ev = ScalarMode.evaluated(7)
        with pytest.raises(ValueError):
            specialized_dimension(close(sp, [{0: ev.one()}], ev), 5)
        alg = close(sp, [{0: ONE}], SYM)
        for eta0 in (0, 1):
            with pytest.raises(UnsafeEtaError):
                specialized_dimension(alg, eta0)

    def test_symbolic_dimension_too_high_fails(self):
        sp = line_space()
        alg = close(sp, [{0: ONE}], SYM)
        alg.basis.insert({1: ONE})
        # all 16 candidates 3, 4, 6, ..., 19 fall short; none certifies
        with pytest.raises(RuntimeError, match=r"rank 1 at eta1 = 19,"):
            specialized_dimension(alg, 5)

    def test_symbolic_dimension_too_low_fails(self):
        sp = line_space()
        basis = EchelonBasis(SYM)
        basis.insert({0: ONE})
        alg = Subalgebra(sp, SYM, [({0: ONE}, "a"), ({1: ONE}, "b")], basis)
        with pytest.raises(RuntimeError, match=r"rank 3 at eta1 = 3,"):
            specialized_dimension(alg, 5)


def as_fractions(canon) -> tuple:
    return tuple(tuple((k, v.as_fraction()) for k, v in row) for row in canon)


def assert_matches_oracle(alg):
    """alg equals the Q(eta) worklist's closure of its own generators."""
    gens = [g for g, _ in alg.generators]
    oracle = _close_over_qeta(alg.space, gens)
    assert alg.dimension == oracle.dimension
    assert alg.basis.canonical_rows() == reinserted_rows(alg.basis)
    assert as_fractions(alg.basis.canonical_rows()) == as_fractions(
        oracle.basis.canonical_rows()
    )
    return oracle


@pytest.fixture
def worklist_modes(monkeypatch):
    """Log the mode of every worklist run."""
    seen = []
    worklist = closure._worklist

    def spy(sp, vecs, mode):
        seen.append(mode)
        return worklist(sp, vecs, mode)

    monkeypatch.setattr(closure, "_worklist", spy)
    return seen


class TestCertifiedClosure:
    # the Wr3p2 oracle alone takes seconds; its flip is checked in the benchmark
    @pytest.mark.parametrize("family", [f for f in FLIP_FAMILIES if f != "Wr3p2"])
    def test_flip_closures_match_oracle(self, family, worklist_modes):
        tau = standard_flip(family, 2)
        alg = flip_subalgebra(tau.space, tau, SYM)
        assert worklist_modes == [ScalarMode.evaluated(7)]
        oracle = assert_matches_oracle(alg)
        # the benchmark's closure replay relies on equal product counts
        assert alg.products_computed == oracle.products_computed
        assert all(v.is_rational() for row in alg.basis.rows for v in row.values())

    def test_a5_configurations_match_oracle(self):
        sp = build_named_space("A", 5)
        configs = list(enumerate_configs(sp, first_point=0))
        assert len(configs) == 45
        for cfg in configs:
            assert_matches_oracle(close(sp, cfg.generators(SYM), SYM))

    @pytest.mark.parametrize("family,dim", [("Wr3x3", 29), ("Wr3p2", 89)])
    def test_knife_edge_closures_fail_the_check(self, family, dim):
        tau = standard_flip(family, 2)
        ev = flip_subalgebra(tau.space, tau, ScalarMode.evaluated(2))
        assert ev.dimension == dim
        span, _ = closure._worklist(tau.space, [g for g, _ in ev.generators], ev.mode)
        assert len(span.rows) == dim
        assert not closure._is_hadamard_closed(span)

    def test_failing_check_falls_back_to_oracle(self, worklist_modes, monkeypatch):
        monkeypatch.setattr(closure, "_is_hadamard_closed", lambda span: False)
        sp = build_named_space("W3A", 3)
        gens = [{0: ONE}, {4: ONE}, {7: ONE}]
        alg = close(sp, gens, SYM)
        assert worklist_modes == [ScalarMode.evaluated(7), SYM]
        oracle = _close_over_qeta(sp, gens)
        assert alg.basis.rows == oracle.basis.rows
        assert alg.products_computed == oracle.products_computed

    def test_eta_coefficients_take_the_fallback(self, worklist_modes):
        sp = build_named_space("W3A", 3)
        gens = [{0: ONE, 4: EtaScalar.eta()}, {7: ONE}]
        alg = close(sp, gens, SYM)
        assert worklist_modes == [SYM]
        assert alg.is_closed()
        assert alg.basis.canonical_rows() == _close_over_qeta(sp, gens).basis.canonical_rows()

    def test_rational_constants_in_any_form(self, worklist_modes):
        sp = line_space()
        alg = close(sp, [{0: EtaScalar(2, 3)}, {1: Fraction(-1)}, {2: 5}], SYM)
        assert worklist_modes == [ScalarMode.evaluated(7)]
        assert alg.dimension == 3 and alg.is_closed()

    def test_consistency_check_results(self, wr3x3_flip):
        gens = [g for g, _ in wr3x3_flip.generators]
        sp = wr3x3_flip.space
        assert consistency_check(sp, gens, 7)
        assert consistency_check(sp, gens, 2, allow_unsafe=True) is False


def reference_worklist(sp, gens, mode):
    """close()'s worklist over Q through the public EchelonBasis.insert and
    vec_product, step for step as perfbench's replay_close: the Fraction
    oracle of the integer closure."""
    basis = EchelonBasis(mode)
    half = mode.half_eta()
    for g in gens:
        basis.insert(dict(g))
    products = 0
    cursor = 0
    while cursor < len(basis.rows):
        new_row = basis.rows[cursor]
        for j in range(len(basis.rows)):
            prod = vec_product(sp, new_row, basis.rows[j], half)
            products += 1
            if prod:
                basis.insert(prod)
        cursor += 1
    return basis, products


def assert_matches_fraction_worklist(alg):
    """An evaluated closure equals the Fraction worklist of its generators:
    rows (values and key order), pivots in order, product count, canonical
    rows, and the Hadamard check on the integer rows."""
    gens = [g for g, _ in alg.generators]
    basis, products = reference_worklist(alg.space, gens, alg.mode)
    assert alg.basis.canonical_rows() == reinserted_rows(alg.basis)
    assert [list(r.items()) for r in alg.basis.rows] == [list(r.items()) for r in basis.rows]
    assert all(type(v) is Fraction for row in alg.basis.rows for v in row.values())
    assert alg.basis.pivot_of_row == basis.pivot_of_row
    assert alg.basis.row_of_pivot == basis.row_of_pivot
    assert alg.products_computed == products
    rows = basis.rows
    closed = all(
        not basis.reduce(vec_hadamard(u, v)) for i, u in enumerate(rows) for v in rows[i:]
    )
    span, _ = closure._worklist(alg.space, gens, alg.mode)
    assert closure._is_hadamard_closed(span) == closed


class TestIntegerClosure:
    # Wr3p2's Fraction worklist takes seconds; the benchmark's closure replays
    # check closures of its size (dimension 90) against the same public calls
    @pytest.mark.parametrize("eta0", [2, 7])
    @pytest.mark.parametrize("family", [f for f in FLIP_FAMILIES if f != "Wr3p2"])
    def test_flip_closures_match_fraction_worklist(self, family, eta0):
        tau = standard_flip(family, 2)
        alg = flip_subalgebra(tau.space, tau, ScalarMode.evaluated(eta0))
        assert_matches_fraction_worklist(alg)

    def test_w3a4_configurations_match_fraction_worklist(self):
        sp = build_named_space("W3A", 4)
        mode = ScalarMode.evaluated(7)
        configs = list(enumerate_configs(sp, first_point=0))
        for cfg in configs[::10]:
            assert_matches_fraction_worklist(close(sp, cfg.generators(mode), mode))

    @pytest.mark.parametrize("eta0", [Fraction(1, 3), Fraction(-5, 2)])
    def test_rows_are_divided_by_their_pivot_entries(self, eta0):
        # on the line {a, b, c}, v = a + b - eta c has v*v = (1 + eta) v, so
        # it spans its closure, and its integer row has pivot entry den(eta0)
        alg = close(line_space(), [{0: ONE, 1: ONE, 2: -ETA}], ScalarMode.evaluated(eta0))
        assert alg.basis.rows == [{0: 1, 1: 1, 2: -eta0}]
        assert_matches_fraction_worklist(alg)

    def test_symbolic_rows_are_shared_constants(self):
        span = _IntEchelon()
        span.insert({0: 3, 1: 3, 2: -1})
        basis = closure._unit_pivot_basis(span, SYM)
        assert basis.rows == [{0: ONE, 1: ONE, 2: EtaScalar(-1, 3)}]
        assert all(type(v) is EtaScalar for v in basis.rows[0].values())
        assert basis.rows[0][0] is basis.rows[0][1]
        assert basis.pivot_of_row == [0] and basis.canonical_rows() == reinserted_rows(basis)

    @pytest.mark.parametrize("eta0", [Fraction(1, 3), Fraction(-5, 2)])
    @pytest.mark.parametrize("family,n", [("W3A", 4), ("WrA4", 2)])
    def test_fractional_generators_match_fraction_worklist(self, family, n, eta0):
        sp = build_named_space(family, n)
        rng = random.Random(11)
        coefs = [Fraction(2, 3), Fraction(-5, 7), Fraction(3, 2), Fraction(-1, 4), 5]
        for _ in range(4):
            gens = [
                {rng.randrange(len(sp.points)): rng.choice(coefs) for _ in range(2)}
                for _ in range(2)
            ]
            assert_matches_fraction_worklist(close(sp, gens, ScalarMode.evaluated(eta0)))
