"""Field arithmetic over Q(eta): examples, canonical forms, root finding."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matsuo.scalars import (
    ETA,
    HALF_ETA,
    EtaPoly,
    EtaScalar,
    PoleError,
    as_eta_scalar,
    evaluate_vec,
    field_op,
    format_scalar,
    parse_scalar,
    poly_gcd,
    primitive_int_vec,
    rational_roots,
    rational_value,
    rational_vec,
    square_free_part,
)


def poly(*coeffs):
    return EtaPoly(coeffs)


class TestEtaPoly:
    def test_trailing_zeros_stripped(self):
        assert poly(1, 2, 0, 0).coeffs == (1, 2)
        assert poly(0, 0).coeffs == ()
        assert poly().degree == -1

    def test_ring_ops(self):
        p = poly(1, 1)          # 1 + eta
        q = poly(-1, 1)         # eta - 1
        assert p * q == poly(-1, 0, 1)
        assert p + q == poly(0, 2)
        assert p - p == EtaPoly.zero()

    def test_divmod_exact(self):
        p = poly(-4, 0, 1)      # eta^2 - 4
        d = poly(-2, 1)         # eta - 2
        q, r = divmod(p, d)
        assert q == poly(2, 1) and r.is_zero()

    def test_divmod_remainder(self):
        q, r = divmod(poly(1, 0, 1), poly(0, 1))
        assert q == poly(0, 1) and r == poly(1)

    def test_derivative_and_eval(self):
        p = poly(5, -3, 2)
        assert p.derivative() == poly(-3, 4)
        assert p.evaluate(Fraction(1, 2)) == 5 - Fraction(3, 2) + Fraction(1, 2)

    def test_content_and_primitive(self):
        p = poly(Fraction(2, 3), Fraction(4, 3))
        assert p.content() == Fraction(2, 3)
        assert p.primitive() == poly(1, 2)
        assert poly(-2, -4).primitive() == poly(1, 2)


class TestGcd:
    def test_common_factor(self):
        a = poly(-2, 1) * poly(1, 1)
        b = poly(-2, 1) * poly(3, 1)
        assert poly_gcd(a, b) == poly(-2, 1)

    def test_coprime(self):
        assert poly_gcd(poly(1, 1), poly(2, 1)) == poly(1)

    def test_degree_drop_in_remainder_sequence(self):
        # the first pseudo-remainder of these drops two degrees at once;
        # the full lc power must still be applied or the gcd degenerates
        assert poly_gcd(poly(0, 1, 2, 2), poly(0, 0, 0, 1, 1)) == poly(0, 1)
        a = EtaScalar(poly(1), poly(0, 1))
        b = EtaScalar(poly(1), poly(0, 1, 1))
        c = EtaScalar(poly(2))
        assert a * (b + c) == a * b + a * c

    def test_square_free_part_of_square(self):
        p = poly(-2, 1) ** 2
        assert square_free_part(p) == poly(-2, 1)

    def test_square_free_part_already_square_free(self):
        p = poly(0, 1) * poly(1, 1)
        assert square_free_part(p) == p.primitive()

    def test_square_free_part_mixed(self):
        # (1 + eta)(1 - eta/2)^2 has square-free part proportional to
        # (1 + eta)(eta - 2); derived by gcd with the derivative
        p = poly(1, 1) * poly(1, Fraction(-1, 2)) ** 2
        sf = square_free_part(p)
        expected = (poly(1, 1) * poly(-2, 1)).primitive()
        assert sf == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            square_free_part(EtaPoly.zero())


class TestRationalRoots:
    def test_spec_cases(self):
        p = poly(1, 1) * poly(1, Fraction(-1, 2)) ** 2
        assert rational_roots(p) == {Fraction(-1), Fraction(2)}
        assert rational_roots(poly(0, 1)) == {Fraction(0)}
        assert rational_roots(poly(1, 0, 1)) == set()

    def test_all_candidates_checked(self):
        # roots of (2*eta - 1)(3*eta + 2)(eta - 6) recovered exactly
        p = poly(-1, 2) * poly(2, 3) * poly(-6, 1)
        assert rational_roots(p) == {Fraction(1, 2), Fraction(-2, 3), Fraction(6)}

    def test_returned_roots_vanish(self):
        p = poly(-3, 1) * poly(5, 2) * poly(1, 0, 1)
        for r in rational_roots(p):
            assert p.evaluate(r) == 0

    def test_completeness_against_candidate_sweep(self):
        # every rational-root-theorem candidate outside the result is a non-root
        p = poly(12, -4, -3, 1)
        roots = rational_roots(p)
        prim = square_free_part(p).primitive_int_coeffs()
        trailing, leading = prim[0], prim[-1]
        for num in range(1, abs(trailing) + 1):
            if trailing % num:
                continue
            for den in range(1, abs(leading) + 1):
                if leading % den:
                    continue
                for cand in (Fraction(num, den), Fraction(-num, den)):
                    assert (p.evaluate(cand) == 0) == (cand in roots)

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            rational_roots(EtaPoly.zero())


class TestEtaScalar:
    def test_spec_field_examples(self):
        assert HALF_ETA + HALF_ETA == ETA
        quotient = field_op(
            EtaScalar(poly(-4, 0, 1)), EtaScalar(poly(-2, 1)), "div"
        )
        assert quotient == EtaScalar(poly(2, 1))
        assert HALF_ETA * HALF_ETA == EtaScalar(poly(0, 0, 1), 4)

    def test_canonical_form(self):
        s = EtaScalar(poly(0, 2), poly(0, 0, 4))
        # num/den reduced, denominator monic
        assert s.den.leading == 1
        assert s == EtaScalar(1, poly(0, 2))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            field_op(ETA, EtaScalar.zero(), "div")
        with pytest.raises(ZeroDivisionError):
            EtaScalar(1, EtaPoly.zero())

    def test_evaluate(self):
        assert HALF_ETA.evaluate(2) == 1
        assert HALF_ETA.evaluate(Fraction(1, 3)) == Fraction(1, 6)

    def test_evaluate_pole(self):
        s = EtaScalar(1, poly(-2, 1))
        with pytest.raises(PoleError):
            s.evaluate(2)

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            field_op(ETA, ETA, "pow")


def scalars(max_deg=2, lo=-4, hi=4):
    coeff = st.integers(lo, hi)
    num = st.lists(coeff, min_size=1, max_size=max_deg + 1)
    den = st.lists(coeff, min_size=1, max_size=max_deg + 1).filter(
        lambda c: any(c)
    )
    return st.builds(lambda n, d: EtaScalar(EtaPoly(n), EtaPoly(d)), num, den)


class TestCoefficientTypes:
    def test_as_eta_scalar(self):
        one = EtaScalar.one()
        assert as_eta_scalar(one) is one
        for v in (1, Fraction(1), EtaPoly.one()):
            assert type(as_eta_scalar(v)) is EtaScalar and as_eta_scalar(v) == one
        with pytest.raises(TypeError):
            as_eta_scalar("1")

    def test_rational_value(self):
        for v, want in [
            (3, 3), (Fraction(6, 2), 3), (EtaScalar(6, 2), 3), (poly(3), 3),
            (Fraction(1, 2), Fraction(1, 2)), (EtaScalar(1, 2), Fraction(1, 2)),
        ]:
            got = rational_value(v)
            assert got == want and type(got) is type(want), v
        for v in (ETA, HALF_ETA, poly(0, 1), EtaScalar(1, poly(1, 1))):
            assert rational_value(v) is None

    def test_rational_vec(self):
        vec = {0: EtaScalar.zero(), 1: EtaScalar(4, 2), 2: Fraction(1, 3), 3: 0}
        assert rational_vec(vec) == {1: 2, 2: Fraction(1, 3)}
        assert rational_vec({0: 1, 1: ETA}) is None
        assert rational_vec({}) == {}

    def test_primitive_int_vec(self):
        vec = {0: Fraction(2, 3), 1: Fraction(-4, 9), 2: 0, 3: EtaScalar(1, 3), 4: poly(-1)}
        got = primitive_int_vec(vec)
        assert got == {0: 6, 1: -4, 3: 3, 4: -9}
        assert all(type(c) is int for c in got.values())
        assert primitive_int_vec({0: 4, 1: -6}) == {0: 2, 1: -3}
        assert primitive_int_vec({5: Fraction(-7, 2)}) == {5: -1}
        assert primitive_int_vec({0: EtaScalar.zero()}) == {}
        with pytest.raises(ValueError, match="involves eta"):
            primitive_int_vec({0: 1, 1: ETA})

    @given(st.dictionaries(
        st.integers(0, 9), st.fractions(min_value=-5, max_value=5, max_denominator=12), max_size=6
    ))
    @settings(max_examples=60, deadline=None)
    def test_primitive_int_vec_is_a_positive_multiple(self, vec):
        ints = primitive_int_vec(vec)
        nonzero = {k: v for k, v in vec.items() if v}
        assert ints.keys() == nonzero.keys()
        if nonzero:
            assert math.gcd(*ints.values()) == 1
            ratios = {Fraction(c) / nonzero[k] for k, c in ints.items()}
            assert len(ratios) == 1 and ratios.pop() > 0

    def test_evaluate_vec(self):
        vec = {0: ETA, 1: EtaScalar(1, 2), 2: Fraction(3), 3: 4, 4: ETA - 2, 5: poly(1, 1)}
        got = evaluate_vec(vec, 2)
        assert got == {0: 2, 1: Fraction(1, 2), 2: 3, 3: 4, 5: 3}
        assert all(type(c) is Fraction for c in got.values())
        with pytest.raises(PoleError):
            evaluate_vec({0: EtaScalar.one() / (ETA - 2)}, 2)


class TestFieldAxioms:
    @given(scalars(), scalars(), scalars())
    @settings(max_examples=60, deadline=None)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(scalars())
    @settings(max_examples=60, deadline=None)
    def test_inverses(self, a):
        assert a + (-a) == EtaScalar.zero()
        if not a.is_zero():
            assert a * a.inverse() == EtaScalar.one()

    @given(scalars(), scalars())
    @settings(max_examples=60, deadline=None)
    def test_evaluation_is_a_homomorphism(self, a, b):
        point = Fraction(3, 7)
        try:
            va, vb = a.evaluate(point), b.evaluate(point)
            vab = (a * b).evaluate(point)
            vsum = (a + b).evaluate(point)
        except PoleError:
            return
        assert vab == va * vb
        assert vsum == va + vb

    @given(scalars(), st.sampled_from([EtaScalar.one(), EtaScalar(3, 3), 1, Fraction(1)]))
    @settings(max_examples=60, deadline=None)
    def test_unit_factor_fast_path(self, a, unit):
        general = EtaScalar(a.num * EtaPoly.one(), a.den * EtaPoly.one())
        for prod in (a * unit, unit * a):
            assert isinstance(prod, EtaScalar)
            assert (prod.num, prod.den) == (general.num, general.den)


class TestTextForm:
    def test_format_examples(self):
        s = EtaScalar(poly(-4, 0, 1), 2)
        assert format_scalar(s) == "(eta^2 - 4)/(2)"
        assert format_scalar(EtaScalar.zero()) == "0"
        assert format_scalar(ETA) == "eta"

    @given(scalars())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, s):
        assert parse_scalar(format_scalar(s)) == s

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_scalar("eta +")
        with pytest.raises(ValueError):
            parse_scalar("zeta")

    @pytest.mark.parametrize("text,message", [
        ("(eta", "unexpected end of scalar text"),
        ("(eta 2", "unbalanced parentheses"),
        ("eta^x", "cannot parse scalar text at: 'x'"),
        ("eta^eta", "bad exponent 'eta'"),
        ("2 3", "trailing input in scalar text"),
        (")", "unexpected token ')'"),
    ])
    def test_parse_refusals(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_scalar(text)
