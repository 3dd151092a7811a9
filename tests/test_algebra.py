"""Matsuo products, the Frobenius form, Gram data, critical values."""

import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matsuo.algebra import (
    AlgebraVector,
    _det_of_factors,
    _gcd_multiplicities,
    _krylov_annihilator,
    _multiplicity_factors,
    _powers,
    adjacency_minimal_polynomial,
    adjacency_spectrum,
    axis_product,
    bareiss_det_int_poly,
    critical_values,
    eigenvalue_multiplicity,
    frobenius_value,
    gram,
    gram_det,
    radical_dim,
    vec_add_scaled,
    vec_product,
)
from matsuo.closure import ScalarMode
from matsuo.fischer import NAMED_FAMILIES, build_named_space
from matsuo.scalars import EtaPoly, EtaScalar, poly_lcm, square_free_part

from oracles import adjacency_corank, int_matrix_rank

SYM = ScalarMode.symbolic()
ONE = SYM.one()
HALF = SYM.half_eta()

SMALL_SPACES = [
    ("A", 4), ("W2A", 3), ("W2A", 4), ("W3A", 3), ("W3A", 4),
    ("W2D", 3), ("W3D", 2), ("W3D", 3), ("WrA4", 2), ("Wr3x3", 2), ("Wr3p2", 2),
]


def _rand_vec(sp, rng, width=3):
    vec = {}
    for _ in range(width):
        p = rng.randrange(len(sp.points))
        c = rng.randint(-3, 3)
        if c:
            vec[p] = vec.get(p, EtaScalar.zero()) + EtaScalar(c)
    return {k: v for k, v in vec.items() if v}


class TestProducts:
    def test_point_idempotent(self):
        sp = build_named_space("A", 3)
        assert axis_product(sp, 0, 0).coeffs == {0: EtaScalar.one()}

    def test_orthogonal_points_annihilate(self):
        sp = build_named_space("A", 4)
        b12 = sp.point_of_label("b(1,2)")
        b34 = sp.point_of_label("b(3,4)")
        assert axis_product(sp, b12, b34).is_zero()

    def test_line_product_formula(self):
        sp = build_named_space("A", 4)
        b12 = sp.point_of_label("b(1,2)")
        b13 = sp.point_of_label("b(1,3)")
        b23 = sp.point_of_label("b(2,3)")
        prod = axis_product(sp, b12, b13)
        assert prod.coeffs == {b12: HALF, b13: HALF, b23: -HALF}

    def test_double_axis_idempotent(self):
        sp = build_named_space("A", 4)
        x = {sp.point_of_label("b(1,2)"): ONE, sp.point_of_label("b(3,4)"): ONE}
        assert vec_product(sp, x, x, HALF) == x

    def test_sum_of_orthogonals_annihilates_third(self):
        sp = build_named_space("A", 10)
        a = sp.point_of_label("b(1,2)")
        b = sp.point_of_label("b(3,4)")
        c = sp.point_of_label("b(5,6)")
        lhs = vec_product(sp, {a: ONE, b: ONE}, {c: ONE}, HALF)
        assert lhs == {}

    @pytest.mark.parametrize("eta0", [2, Fraction(1, 3), Fraction(-5, 2)])
    def test_scaled_integer_product(self, eta0):
        # half_eta = n and diagonal = 2d give 2d times the product at n/d
        sp = build_named_space("W3A", 3)
        rng = random.Random(13)
        n, d = eta0.numerator, eta0.denominator
        for _ in range(25):
            u, v = ({p: rng.randint(-3, 3) or 1 for p in rng.sample(range(len(sp.points)), 3)}
                    for _ in range(2))
            exact = vec_product(sp, u, v, Fraction(eta0) / 2)
            assert vec_product(sp, u, v, n, 2 * d) == {k: 2 * d * c for k, c in exact.items()}

    def test_commutativity_randomized(self):
        sp = build_named_space("W3A", 3)
        rng = random.Random(7)
        for _ in range(25):
            u, v = _rand_vec(sp, rng), _rand_vec(sp, rng)
            assert vec_product(sp, u, v, HALF) == vec_product(sp, v, u, HALF)

    def test_bilinearity(self):
        sp = build_named_space("W3A", 3)
        rng = random.Random(11)
        alpha = EtaScalar(EtaPoly((1, 2)), 3)
        for _ in range(10):
            u, v, w = (_rand_vec(sp, rng) for _ in range(3))
            scaled = {k: alpha * c for k, c in v.items()}
            lhs = vec_product(sp, u, _vec_add(scaled, w), HALF)
            rhs = _vec_add(
                {k: alpha * c for k, c in vec_product(sp, u, v, HALF).items()},
                vec_product(sp, u, w, HALF),
            )
            assert lhs == rhs

    def test_vector_space_mismatch(self):
        sp1 = build_named_space("A", 3)
        sp2 = build_named_space("A", 4)
        u = AlgebraVector.from_point(sp1, 0)
        v = AlgebraVector.from_point(sp2, 0)
        with pytest.raises(ValueError):
            _ = u * v

    def test_vector_coefficients_are_lifted_to_q_eta(self):
        sp = build_named_space("A", 3)
        u = AlgebraVector(sp, {0: 1, 1: Fraction(0), 2: Fraction(1, 2)})
        assert u.coeffs == {0: EtaScalar.one(), 2: EtaScalar(1, 2)}
        assert all(type(c) is EtaScalar for c in u.coeffs.values())
        a, b = AlgebraVector.from_point(sp, 0), AlgebraVector.from_point(sp, 1)
        # (a0 + a2/2) * a1 on the line {0, 1, 2}
        quarter_eta = EtaScalar(EtaPoly.eta(), 4)
        assert (u * b).coeffs == {0: quarter_eta, 1: 3 * quarter_eta, 2: -quarter_eta}
        assert (a + a).form(b) == EtaScalar.eta()


def _vec_add(u, v):
    out = dict(u)
    for k, c in v.items():
        cur = out.get(k)
        new = c if cur is None else cur + c
        if new:
            out[k] = new
        elif cur is not None:
            del out[k]
    return out


_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
_SPARSE = st.dictionaries(st.integers(0, 7), _FRACTIONS, max_size=6)


@given(_SPARSE, _SPARSE, st.fractions(min_value=-3, max_value=3, max_denominator=4),
       st.sets(st.integers(0, 7)))
@settings(max_examples=100, deadline=None)
def test_vec_add_scaled_matches_dense(target, source, scale, cancel):
    # force exact cancellations on the chosen keys both vectors share
    for k in cancel & source.keys():
        if scale:
            target[k] = -scale * source[k]
    frozen = dict(source)
    dense = [target.get(k, 0) + scale * source.get(k, 0) for k in range(8)]
    vec_add_scaled(target, source, scale)
    assert target == {k: v for k, v in enumerate(dense) if v}
    assert all(target.values())
    assert source == frozen


class TestFrobenius:
    def test_basis_values(self):
        sp = build_named_space("A", 4)
        b12 = sp.point_of_label("b(1,2)")
        b13 = sp.point_of_label("b(1,3)")
        b34 = sp.point_of_label("b(3,4)")
        form = lambda u, v: frobenius_value(sp, u, v, HALF)
        assert form({b12: ONE}, {b12: ONE}) == ONE
        assert form({b12: ONE}, {b13: ONE}) == HALF
        assert form({b12: ONE}, {b34: ONE}) == EtaScalar.zero()

    def test_associativity_on_a_line(self):
        sp = build_named_space("A", 3)
        a, b, c = ({i: ONE} for i in range(3))
        ab = vec_product(sp, a, b, HALF)
        bc = vec_product(sp, b, c, HALF)
        lhs = frobenius_value(sp, ab, c, HALF)
        rhs = frobenius_value(sp, a, bc, HALF)
        assert lhs == rhs

    @pytest.mark.parametrize("family,n", [("W3A", 3), ("W2D", 3), ("WrA4", 2)])
    def test_associativity_randomized(self, family, n):
        sp = build_named_space(family, n)
        rng = random.Random(hash((family, n)) & 0xFFFF)
        for _ in range(12):
            u, v, w = (_rand_vec(sp, rng) for _ in range(3))
            uv = vec_product(sp, u, v, HALF)
            vw = vec_product(sp, v, w, HALF)
            assert frobenius_value(sp, uv, w, HALF) == frobenius_value(sp, u, vw, HALF)


def int_det(matrix: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss elimination
    with row swaps; every division is exact."""
    m = [list(row) for row in matrix]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, top = m[k][k], m[k]
        for i in range(k + 1, n):
            row, f = m[i], m[i][k]
            m[i] = [0] * (k + 1) + [
                (a * pivot - f * b) // prev for a, b in zip(row[k + 1:], top[k + 1:])
            ]
        prev = pivot
    return sign * m[n - 1][n - 1] if n else 1


def test_int_det_matches_bareiss_helper():
    # random small integer matrices, some singular and some needing a swap
    rng = random.Random(5)
    for n in range(1, 7):
        for _ in range(20):
            matrix = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            poly = bareiss_det_int_poly([[[v] if v else [] for v in row] for row in matrix])
            assert int_det(matrix) == (poly[0] if poly else 0)


class TestGram:
    def test_single_point(self):
        sp = build_named_space("A", 3)
        # restrict attention to the determinant of the one-line space below;
        # a space with a single point arises from W2D at n = 2 (no lines)
        nolines = build_named_space("W2D", 2)
        data = gram(nolines)
        assert data.det == EtaPoly.one()
        cv = critical_values(nolines)
        assert cv.roots == frozenset() and cv.certificate.degree <= 1

    def test_one_line_det(self):
        sp = build_named_space("A", 3)
        det = gram_det(sp)
        # det(2I + eta A) for a triangle, cleared to primitive form
        assert det == EtaPoly((4, 0, -3, 1))
        cv = critical_values(sp)
        assert cv.roots == frozenset({Fraction(-1), Fraction(2)})

    def test_matrix_shape(self):
        sp = build_named_space("W3A", 3)
        m = gram(sp).matrix
        n = len(sp.points)
        for i in range(n):
            assert m[i][i] == ONE
            for j in range(n):
                assert m[i][j] == m[j][i]
                if i != j:
                    assert m[i][j] in (EtaScalar.zero(), HALF)

    @pytest.mark.parametrize("family,n", SMALL_SPACES)
    def test_bareiss_matches_spectral(self, family, n):
        # every named space here has a rational spectrum, so gram_det takes
        # the spectral route; Bareiss on the Gram matrix is the oracle
        sp = build_named_space(family, n)
        assert adjacency_spectrum(sp) is not None
        npts = len(sp.points)
        matrix = [
            [[2] if i == j else ([0, 1] if sp.third[i][j] >= 0 else []) for j in range(npts)]
            for i in range(npts)
        ]
        det = EtaPoly(bareiss_det_int_poly(matrix))
        assert gram_det(sp) == (det.primitive() if det.leading > 0 else -det.primitive())

    @pytest.mark.parametrize("family,n", SMALL_SPACES + [("WrA4", 3), ("W3D", 4)])
    def test_spectrum_matches_integer_ranks(self, family, n):
        sp = build_named_space(family, n)
        spectrum = adjacency_spectrum(sp)
        for lam, mult in spectrum.items():
            assert adjacency_corank(sp, -lam.numerator, lam.denominator) == mult
        # the ranks leave no room for another eigenvalue
        assert sum(spectrum.values()) == len(sp.points)

    def test_spectrum_rational_up_to_180_points(self):
        # the README's claim: every named family at each n whose space has
        # at most 180 points (the first n is 3 for A, 2 for the others)
        sizes = []
        for family in NAMED_FAMILIES:
            n = 3 if family == "A" else 2
            while len((sp := build_named_space(family, n)).points) <= 180:
                spectrum = adjacency_spectrum(sp)
                assert spectrum is not None, (family, n)
                assert sum(spectrum.values()) == len(sp.points)
                sizes.append(len(sp.points))
                n += 1
        assert (len(sizes), max(sizes)) == (68, 180)

    def test_gram_det_never_calls_bareiss(self, monkeypatch):
        import matsuo.algebra as algebra_mod

        def refuse(matrix):
            raise AssertionError("gram_det called bareiss_det_int_poly")

        monkeypatch.setattr(algebra_mod, "bareiss_det_int_poly", refuse)
        sizes = []
        for family in NAMED_FAMILIES:
            n = 3 if family == "A" else 2
            while len((sp := build_named_space(family, n)).points) <= 64:
                assert gram_det(sp).degree <= len(sp.points)
                sizes.append(len(sp.points))
                n += 1
        assert (len(sizes), max(sizes)) == (37, 63)

    def test_det_beyond_64_points(self):
        # A:12 is the triangular graph T(12), 66 points with eigenvalues
        # 20, 8 and -2 of multiplicities 1, 11 and 54
        det = gram_det(build_named_space("A", 12))
        eta = EtaPoly.eta()
        assert det == ((1 + 10 * eta) * (1 + 4 * eta) ** 11 * (1 - eta) ** 54).primitive()

    @pytest.mark.parametrize("family,n", SMALL_SPACES)
    def test_det_degree_matches_gram_det(self, family, n):
        # WrA4:2 has eigenvalue 0 with multiplicity 9
        sp = build_named_space(family, n)
        assert critical_values(sp).det_degree == gram_det(sp).degree

    def test_large_space_det_against_integer_determinant(self):
        # the 162-point determinant goes through the spectral route; evaluate
        # it at two rationals and compare with direct integer elimination
        sp = build_named_space("Wr3p2", 4)
        det = gram_det(sp)
        assert det.degree == len(sp.points)
        n = len(sp.points)
        scale = None
        for eta0 in (3, 5):
            matrix = [
                [2 if i == j else (eta0 if sp.third[i][j] >= 0 else 0) for j in range(n)]
                for i in range(n)
            ]
            exact = Fraction(int_det(matrix))
            value = det.evaluate(eta0)
            assert value != 0
            ratio = exact / value  # the content cleared by normalization
            if scale is None:
                scale = ratio
                assert scale > 0
            else:
                assert ratio == scale

    def test_bareiss_helper(self):
        # det [[eta, 1], [1, eta]] = eta^2 - 1
        m = [[[0, 1], [1]], [[1], [0, 1]]]
        assert bareiss_det_int_poly(m) == [-1, 0, 1]

    def test_krylov_annihilator_is_minimal(self):
        # monic, annihilates the seed, and its degree is the Krylov rank
        for family, n in [("A", 4), ("W3A", 4), ("W2D", 3), ("Wr3x3", 2), ("Wr3p2", 2)]:
            sp = build_named_space(family, n)
            nbrs = [[q for q, r in enumerate(row) if r >= 0] for row in sp.third]
            seed = [int(q == 0) for q in range(len(nbrs))]
            ann = _krylov_annihilator(nbrs, seed)
            deg = len(ann) - 1
            assert ann[-1] == 1
            krylov = [v for _, v in zip(range(deg + 1), _powers(nbrs, seed))]
            combo = [sum(c * vec[i] for c, vec in zip(ann, krylov)) for i in range(len(nbrs))]
            assert not any(combo), family
            assert int_matrix_rank(krylov[:deg]) == deg, family

    def test_minimal_polynomial_annihilates(self):
        # the disconnected spaces have one orbit per component
        for family, n in SMALL_SPACES + [("W2A", 2), ("W2D", 2)]:
            sp = build_named_space(family, n)
            m = adjacency_minimal_polynomial(sp)
            # apply m(A) to every unit vector through the neighbour lists
            nbrs = [[q for q, r in enumerate(row) if r >= 0] for row in sp.third]
            ints = m.primitive_int_coeffs()
            npts = len(nbrs)
            for i in range(npts):
                vec = [0] * npts
                vec[i] = ints[-1]
                for coeff in reversed(ints[:-1]):
                    nxt = [0] * npts
                    for r, ns in enumerate(nbrs):
                        if vec[r]:
                            for cidx in ns:
                                nxt[cidx] += vec[r]
                    nxt[i] += coeff
                    vec = nxt
                assert not any(vec), (family, n, i)


def _graph(n: int, edges) -> list[list[int]]:
    nbrs = [[] for _ in range(n)]
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    return nbrs


def _random_graph(seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    return _graph(12, [(a, b) for a in range(12) for b in range(a) if rng.random() < 0.5])


# graphs that are not Fischer spaces (point_orbits refuses their tables), so
# the gcd route runs on their adjacency rows with every point its own orbit
HAND_GRAPHS = {
    "path4": _graph(4, [(0, 1), (1, 2), (2, 3)]),
    "cycle5": _graph(5, [(i, (i + 1) % 5) for i in range(5)]),
    "two_lines_through_a_point": _graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]),
    **{f"random12_{seed}": _random_graph(seed) for seed in range(4)},
}


def _hand_factors(nbrs: list[list[int]]) -> dict:
    n = len(nbrs)
    m = EtaPoly.one()
    for r in range(n):
        seed = [int(q == r) for q in range(n)]
        m = poly_lcm(m, EtaPoly(_krylov_annihilator(nbrs, seed))).monic()
    return _gcd_multiplicities(nbrs, [(r, 1) for r in range(n)], m)


class TestGcdMultiplicities:
    @pytest.mark.parametrize("name", sorted(HAND_GRAPHS))
    def test_det_matches_bareiss(self, name):
        nbrs = HAND_GRAPHS[name]
        n = len(nbrs)
        matrix = [
            [[2] if i == j else ([0, 1] if j in nbrs[i] else []) for j in range(n)]
            for i in range(n)
        ]
        det = EtaPoly(bareiss_det_int_poly(matrix))
        expected = det.primitive() if det.leading > 0 else -det.primitive()
        assert _det_of_factors(_hand_factors(nbrs)) == expected

    def test_irrational_factors(self):
        x = EtaPoly.eta()
        # cycle5: 2 once and (-1 +- sqrt 5)/2 twice each
        assert _hand_factors(HAND_GRAPHS["cycle5"]) == {1: x - 2, 2: x**2 + x - 1}
        # two lines through a point: (1 +- sqrt 17)/2 and 1 once, -1 twice
        assert _hand_factors(HAND_GRAPHS["two_lines_through_a_point"]) == {
            1: (x**2 - x - 4) * (x - 1),
            2: x + 1,
        }

    @pytest.mark.parametrize("name", ["cycle5", "two_lines_through_a_point"])
    def test_dropped_factor_fails_the_multiplicity_sum(self, name, monkeypatch):
        # a gcd that loses one g_k, in the loop or in the last root's check,
        # leaves points without a multiplicity
        import matsuo.algebra as algebra_mod

        nbrs = HAND_GRAPHS[name]
        for g in _hand_factors(nbrs).values():
            def dropping(a, b, real=algebra_mod.poly_gcd, lost=g.primitive()):
                found = real(a, b)
                return EtaPoly.one() if found == lost else found

            with monkeypatch.context() as patched:
                patched.setattr(algebra_mod, "poly_gcd", dropping)
                with pytest.raises(RuntimeError, match="cover"):
                    _hand_factors(nbrs)

    def test_factors_of_a_named_space(self):
        x = EtaPoly.eta()
        # A:4, the octahedron: 4 once, -2 twice, 0 three times (the last
        # root, whose multiplicity is the points left over)
        factors = _multiplicity_factors(build_named_space("A", 4))
        assert factors == {1: x - 4, 2: x + 2, 3: x}


class TestCriticalValues:
    def test_certificate_is_square_free_part_of_det(self):
        for family, n in [("A", 4), ("W3A", 3), ("W2D", 3), ("WrA4", 2)]:
            sp = build_named_space(family, n)
            cert = critical_values(sp).certificate
            assert cert == square_free_part(gram_det(sp))

    def test_eta_two_critical_for_eta_two_droppers(self):
        for family in ("Wr3x3", "Wr3p2"):
            sp = build_named_space(family, 4)
            assert Fraction(2) in critical_values(sp).roots

    def test_excluded_values_reported_separately(self):
        # the A:4 space has -2 in its adjacency spectrum, so eta = 1 is a
        # determinant root but not a reported critical value
        sp = build_named_space("A", 4)
        cv = critical_values(sp)
        assert Fraction(1) in cv.excluded
        assert Fraction(1) not in cv.roots

    def test_det_degree_without_the_spectrum(self, monkeypatch):
        # det_degree is n less the multiplicity of the eigenvalue 0, read off
        # the gcd factors, so critical_values never builds the spectrum
        import matsuo.algebra as algebra_mod

        def refuse(sp):
            raise AssertionError("critical_values read the adjacency spectrum")

        for family in NAMED_FAMILIES:
            n = 3 if family == "A" else 2
            while len((sp := build_named_space(family, n)).points) < 200:
                degree = gram_det(sp).degree
                with monkeypatch.context() as patched:
                    patched.setattr(algebra_mod, "adjacency_spectrum", refuse)
                    assert critical_values(sp).det_degree == degree, (family, n)
                n += 1

    def test_space_is_freed_without_a_collection(self):
        # the cached value names the space instead of holding it, so no
        # reference cycle keeps a space alive after its critical values
        gc.disable()
        try:
            sp = build_named_space("W3A", 3)
            critical_values(sp)
            freed = weakref.ref(sp)
            del sp
            assert freed() is None
        finally:
            gc.enable()

    def test_report_schema(self):
        rep = critical_values(build_named_space("A", 3)).report()
        assert set(rep) == {
            "space",
            "det_degree",
            "rational_roots",
            "excluded_parameter_values",
            "squarefree_certificate",
        }


class TestRadical:
    def test_spec_examples(self):
        sp = build_named_space("A", 3)
        assert radical_dim(sp, Fraction(1, 3)) == 0
        assert radical_dim(sp, 2) >= 1
        assert radical_dim(sp, -1) >= 1

    def test_rejects_excluded_eta(self):
        sp = build_named_space("A", 3)
        with pytest.raises(ValueError):
            radical_dim(sp, 0)
        with pytest.raises(ValueError):
            radical_dim(sp, 1)

    @pytest.mark.parametrize("family,n", [("A", 4), ("W3A", 3), ("WrA4", 2)])
    def test_positive_exactly_at_critical_values(self, family, n):
        sp = build_named_space(family, n)
        cv = critical_values(sp)
        for r in cv.roots:
            assert radical_dim(sp, r) > 0
        # a sampled non-root is non-degenerate
        probe = Fraction(5)
        while probe in cv.roots:
            probe += 1
        assert radical_dim(sp, probe) == 0

    @pytest.mark.parametrize("family,n", [
        ("A", 3), ("A", 4), ("A", 5), ("W3A", 4), ("WrA4", 2), ("Wr3x3", 4),
    ])
    def test_ranks_match_dense_oracle(self, family, n):
        # WrA4:2 has eigenvalue 0 with multiplicity 9: a zero diagonal
        sp = build_named_space(family, n)
        npts = len(sp.points)

        def dense_corank(diagonal, off):
            return npts - int_matrix_rank([
                [diagonal if i == j else (off if r >= 0 else 0) for j, r in enumerate(row)]
                for i, row in enumerate(sp.third)
            ])

        for lam in {*adjacency_spectrum(sp), Fraction(0)}:
            expected = dense_corank(-lam.numerator, lam.denominator)
            assert eigenvalue_multiplicity(sp, lam) == expected, lam
        for eta0 in (Fraction(2), Fraction(1, 3), Fraction(-1), Fraction(5)):
            expected = dense_corank(2 * eta0.denominator, eta0.numerator)
            assert radical_dim(sp, eta0) == expected, eta0

    def test_multiplicity_matches_radical(self):
        sp = build_named_space("A", 3)
        # eta = 2 corresponds to adjacency eigenvalue -1 with multiplicity 2
        assert eigenvalue_multiplicity(sp, Fraction(-1)) == 2
        assert radical_dim(sp, 2) == 2
