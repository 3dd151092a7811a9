"""Exact arithmetic over Q and the rational-function field Q(eta).

Everything here is immutable and exact: rationals are ``fractions.Fraction``,
polynomials in eta keep Fraction coefficients, and rational functions are kept
in canonical form (reduced, monic denominator).  No floating point anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd as _int_gcd
from math import lcm as _int_lcm
from typing import Iterable, Iterator, Optional, Sequence, Union

Rational = Fraction

ScalarLike = Union[int, Fraction, "EtaPoly", "EtaScalar"]

_F_ZERO = Fraction(0)
_UNIT = (Fraction(1),)


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function at a root of its denominator."""


# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficient lists, index = degree)
# ---------------------------------------------------------------------------

def _int_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _int_trim(out)


def _int_content(a: Sequence[int]) -> int:
    g = 0
    for c in a:
        g = _int_gcd(g, abs(c))
    return g


def _int_primitive(a: Sequence[int]) -> list[int]:
    g = _int_content(a)
    if g <= 1:
        return list(a)
    return [c // g for c in a]


def _int_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """lc(b)^(deg a - deg b + 1) * a mod b, all over Z.

    The full power of lc(b) is applied even when the degree drops by more
    than one per step; the subresultant divisibility argument needs it.
    """
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    e = len(a) - len(b) + 1
    while len(r) - 1 >= db and r:
        dr = len(r) - 1
        lead = r[-1]
        r = [c * lb for c in r]
        shift = dr - db
        for k in range(len(b)):
            r[shift + k] -= lead * b[k]
        _int_trim(r)
        e -= 1
    if e > 0 and r:
        scale = lb**e
        r = [c * scale for c in r]
    return r


def _int_gcd_poly(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd over Z via the subresultant remainder sequence.

    The subresultant scheme keeps intermediate coefficients polynomially
    bounded, which matters for the Gram determinants of larger spaces.
    """
    a = _int_primitive(_int_trim(list(a)))
    b = _int_primitive(_int_trim(list(b)))
    if not a:
        return b
    if not b:
        return a
    if len(a) == 1 or len(b) == 1:
        return [1]
    if len(a) < len(b):
        a, b = b, a
    g = 1
    h = 1
    while True:
        delta = len(a) - len(b)
        r = _int_pseudo_rem(a, b)
        if not r:
            res = _int_primitive(b)
            if res[-1] < 0:
                res = [-c for c in res]
            return res
        if len(r) == 1:
            return [1]
        a = b
        divisor = g * h**delta
        b = []
        for c in r:
            q, rem = divmod(c, divisor)
            assert rem == 0, "subresultant division is exact by construction"
            b.append(q)
        _int_trim(b)
        g = a[-1]
        if delta > 0:
            h = g**delta // h ** (delta - 1) if delta > 1 else g


# ---------------------------------------------------------------------------
# polynomials over Q in the single variable eta
# ---------------------------------------------------------------------------

class EtaPoly:
    """Univariate polynomial in eta with Fraction coefficients.

    Coefficient sequence is indexed by degree and carries no trailing zeros;
    the empty sequence is the zero polynomial.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[ScalarLike] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _raw(cls, coeffs: tuple) -> "EtaPoly":
        # fast path for internal arithmetic: coeffs already Fractions, trimmed
        out = object.__new__(cls)
        object.__setattr__(out, "coeffs", coeffs)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("EtaPoly is immutable")

    def __reduce__(self):
        return (EtaPoly, (self.coeffs,))

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "EtaPoly":
        return cls(())

    @classmethod
    def one(cls) -> "EtaPoly":
        return cls((1,))

    @classmethod
    def constant(cls, c: ScalarLike) -> "EtaPoly":
        return cls((Fraction(c),))

    @classmethod
    def eta(cls) -> "EtaPoly":
        return cls((0, 1))

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("EtaPoly", self.coeffs))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "EtaPoly":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        while out and not out[-1]:
            out.pop()
        return EtaPoly._raw(tuple(out))

    __radd__ = __add__

    def __neg__(self) -> "EtaPoly":
        return EtaPoly._raw(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "EtaPoly":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "EtaPoly":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "EtaPoly":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return EtaPoly._raw(())
        out = [_F_ZERO] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        while out and not out[-1]:
            out.pop()
        return EtaPoly._raw(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "EtaPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = EtaPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other) -> tuple["EtaPoly", "EtaPoly"]:
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.degree
        lead = other.leading
        while len(rem) - 1 >= d and rem:
            shift = len(rem) - 1 - d
            q = rem[-1] / lead
            quo[shift] = q
            for k, c in enumerate(other.coeffs):
                rem[shift + k] -= q * c
            while rem and rem[-1] == 0:
                rem.pop()
        return EtaPoly(quo), EtaPoly(rem)

    def __floordiv__(self, other) -> "EtaPoly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "EtaPoly":
        return divmod(self, other)[1]

    # -- calculus and evaluation --------------------------------------------

    def derivative(self) -> "EtaPoly":
        return EtaPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def evaluate(self, x: ScalarLike) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- normal forms -------------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c with self/c integer-coefficient and primitive."""
        if not self.coeffs:
            return Fraction(1)
        num_gcd = 0
        den_lcm = 1
        for c in self.coeffs:
            num_gcd = _int_gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm * c.denominator // _int_gcd(den_lcm, c.denominator)
        return Fraction(num_gcd, den_lcm)

    def primitive_int_coeffs(self) -> list[int]:
        """Integer coefficients of self / content()."""
        c = self.content()
        if c == 0:
            return []
        return [int(x / c) for x in self.coeffs]

    def primitive(self) -> "EtaPoly":
        """Content-normalized copy with positive leading coefficient."""
        ints = self.primitive_int_coeffs()
        if ints and ints[-1] < 0:
            ints = [-x for x in ints]
        return EtaPoly(ints)

    def monic(self) -> "EtaPoly":
        if self.is_zero():
            return self
        lead = self.leading
        return EtaPoly(tuple(c / lead for c in self.coeffs))

    # -- display ------------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"EtaPoly({list(self.coeffs)!r})"


def _as_poly(x) -> EtaPoly | None:
    if isinstance(x, EtaPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return EtaPoly((x,))
    return None


def poly_gcd(a: EtaPoly, b: EtaPoly) -> EtaPoly:
    """Primitive gcd with positive leading coefficient."""
    res = _int_gcd_poly(
        [int(c) for c in a.primitive_int_coeffs()],
        [int(c) for c in b.primitive_int_coeffs()],
    )
    return EtaPoly(res)


def poly_lcm(a: EtaPoly, b: EtaPoly) -> EtaPoly:
    if a.is_zero() or b.is_zero():
        return EtaPoly.zero()
    g = poly_gcd(a, b)
    return ((a * b) // g).primitive()


def square_free_part(p: EtaPoly) -> EtaPoly:
    """p / gcd(p, p'), content-normalized with positive leading coefficient.

    Carries exactly the distinct roots of p.
    """
    if p.is_zero():
        raise ValueError("square-free part of the zero polynomial")
    if p.degree == 0:
        return EtaPoly.one()
    g = poly_gcd(p, p.derivative())
    q, r = divmod(p, g)
    assert r.is_zero()
    return q.primitive()


def _divisors(n: int) -> Iterator[int]:
    n = abs(n)
    i = 1
    while i * i <= n:
        if n % i == 0:
            yield i
            if i != n // i:
                yield n // i
        i += 1


def rational_roots(p: EtaPoly) -> set[Fraction]:
    """All rational roots of p, via the rational-root theorem.

    Candidates are tested on the square-free part: numerators divide its
    lowest nonzero coefficient, denominators divide its leading one.
    """
    if p.is_zero():
        raise ValueError("rational roots of the zero polynomial")
    sf = square_free_part(p).primitive_int_coeffs()
    roots: set[Fraction] = set()
    # strip the eta^k factor; it contributes the root 0
    k = 0
    while sf and sf[0] == 0:
        sf = sf[1:]
        k += 1
    if k:
        roots.add(Fraction(0))
    if len(sf) <= 1:
        return roots
    trailing = sf[0]
    leading = sf[-1]
    for num in _divisors(trailing):
        for den in _divisors(leading):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if cand in roots:
                    continue
                acc = Fraction(0)
                for c in reversed(sf):
                    acc = acc * cand + c
                if acc == 0:
                    roots.add(cand)
    return roots


# ---------------------------------------------------------------------------
# the field Q(eta)
# ---------------------------------------------------------------------------

class EtaScalar:
    """Element of Q(eta) in canonical form: reduced, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: ScalarLike, den: ScalarLike = 1):
        np = _as_poly(num)
        dp = _as_poly(den)
        if np is None or dp is None:
            raise TypeError(f"cannot build EtaScalar from {num!r}/{den!r}")
        if dp.is_zero():
            raise ZeroDivisionError("zero denominator in Q(eta)")
        if np.is_zero():
            np, dp = EtaPoly.zero(), EtaPoly.one()
        else:
            if dp.degree > 0 and np.degree > 0:
                g = poly_gcd(np, dp)
                if g.degree > 0:
                    np = np // g
                    dp = dp // g
            lead = dp.leading
            if lead != 1:
                inv = Fraction(1) / lead
                np = EtaPoly._raw(tuple(c * inv for c in np.coeffs))
                dp = EtaPoly._raw(tuple(c * inv for c in dp.coeffs))
        object.__setattr__(self, "num", np)
        object.__setattr__(self, "den", dp)

    def __setattr__(self, name, value):
        raise AttributeError("EtaScalar is immutable")

    def __reduce__(self):
        return (EtaScalar, (self.num, self.den))

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "EtaScalar":
        return cls(0)

    @classmethod
    def one(cls) -> "EtaScalar":
        return cls(1)

    @classmethod
    def eta(cls) -> "EtaScalar":
        return cls(EtaPoly.eta())

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def is_rational(self) -> bool:
        return self.num.degree <= 0 and self.den.degree <= 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not a rational constant")
        if self.num.is_zero():
            return Fraction(0)
        return self.num.coeffs[0]  # a constant monic denominator is 1

    def __eq__(self, other) -> bool:
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash(("EtaScalar", self.num.coeffs, self.den.coeffs))

    # -- field operations ---------------------------------------------------

    def __add__(self, other) -> "EtaScalar":
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return EtaScalar(self.num + other.num, self.den)
        return EtaScalar(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> "EtaScalar":
        return EtaScalar(-self.num, self.den)

    def __sub__(self, other) -> "EtaScalar":
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "EtaScalar":
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "EtaScalar":
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        # immutable values: a unit factor can hand back the other operand
        if self.num.coeffs == _UNIT and self.den.coeffs == _UNIT:
            return other
        if other.num.coeffs == _UNIT and other.den.coeffs == _UNIT:
            return self
        return EtaScalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "EtaScalar":
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Q(eta)")
        return EtaScalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "EtaScalar":
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> "EtaScalar":
        if n < 0:
            return EtaScalar.one() / self ** (-n)
        return EtaScalar(self.num**n, self.den**n)

    def inverse(self) -> "EtaScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(eta)")
        return EtaScalar(self.den, self.num)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, eta0: ScalarLike) -> Fraction:
        """Exact value at eta = eta0; PoleError at a denominator root."""
        eta0 = Fraction(eta0)
        d = self.den.evaluate(eta0)
        if d == 0:
            raise PoleError(f"pole of {self} at eta = {eta0}")
        return self.num.evaluate(eta0) / d

    # -- display ------------------------------------------------------------

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"EtaScalar({self.num!r}, {self.den!r})"


def _as_scalar(x) -> EtaScalar | None:
    if isinstance(x, EtaScalar):
        return x
    if isinstance(x, (int, Fraction, EtaPoly)):
        return EtaScalar(x)
    return None


ETA = EtaScalar.eta()
HALF_ETA = EtaScalar(EtaPoly.eta(), 2)


def field_op(a: EtaScalar, b: EtaScalar, op: str) -> EtaScalar:
    """Named field operation; op is one of add, sub, mul, div."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown field operation {op!r}")


# ---------------------------------------------------------------------------
# coefficient types: the one place that asks which kind a scalar is
# ---------------------------------------------------------------------------

def as_eta_scalar(v: ScalarLike) -> EtaScalar:
    """v as an element of Q(eta)."""
    return v if isinstance(v, EtaScalar) else EtaScalar(v)


def rational_value(v: ScalarLike) -> Union[int, Fraction, None]:
    """A constant as an int when it is integral, else as a Fraction; None
    when v involves eta."""
    if not isinstance(v, (int, Fraction)):
        v = as_eta_scalar(v)
        if not v.is_rational():
            return None
        v = v.as_fraction()
    return v.numerator if v.denominator == 1 else v


def rational_vec(vec: dict) -> Optional[dict]:
    """A sparse vector's nonzero coefficients as rational values; None when
    any coefficient involves eta."""
    out = {}
    for k, v in vec.items():
        c = rational_value(v)
        if c is None:
            return None
        if c:
            out[k] = c
    return out


def evaluate_vec(vec: dict, eta0: ScalarLike) -> dict:
    """A sparse vector's value at eta = eta0 over Q, zeros dropped; rational
    coefficients are taken as they are.  PoleError at a pole."""
    eta0 = Fraction(eta0)
    out = {}
    for k, v in vec.items():
        c = rational_value(v)
        if c is None:
            c = as_eta_scalar(v).evaluate(eta0)
        if c:
            out[k] = Fraction(c)
    return out


def primitive_int_vec(vec: dict) -> dict:
    """A sparse vector with rational coefficients, scaled to integers whose
    gcd is 1 (signs kept; zeros dropped).  ValueError when a coefficient
    involves eta."""
    out = {}
    for k, v in vec.items():
        c = rational_value(v)
        if c is None:
            raise ValueError(f"coefficient {v} involves eta")
        if c:
            out[k] = c
    # a list, not a generator: a tuple built from a generator is resized,
    # and each one freed is parked on the free list of its final size
    den = _int_lcm(*[c.denominator for c in out.values()])
    ints = {k: c.numerator * (den // c.denominator) for k, c in out.items()}
    g = _int_gcd(*ints.values())
    return {k: c // g for k, c in ints.items()}


def is_linear_in_eta(v: ScalarLike) -> bool:
    """True iff v = c0 + c1*eta with rational c0 and c1."""
    v = as_eta_scalar(v)
    return v.den.degree == 0 and v.num.degree <= 1


# ---------------------------------------------------------------------------
# text form: integer-coefficient polynomial fraction, e.g. "(eta^2 - 4)/(2)"
# ---------------------------------------------------------------------------

def format_poly(p: EtaPoly) -> str:
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            term = str(abs(c))
        elif i == 1:
            term = "eta" if abs(c) == 1 else f"{abs(c)}*eta"
        else:
            term = f"eta^{i}" if abs(c) == 1 else f"{abs(c)}*eta^{i}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


def format_scalar(s: EtaScalar) -> str:
    """Integer-coefficient fraction text, e.g. "(eta^2 - 4)/(2)"."""
    if s.is_zero():
        return "0"
    scale = s.den.content()
    num = s.num * EtaPoly.constant(1 / scale)
    den = s.den * EtaPoly.constant(1 / scale)
    extra = num.content()
    if extra.denominator != 1:
        num = num * EtaPoly.constant(extra.denominator)
        den = den * EtaPoly.constant(extra.denominator)
    if den == EtaPoly.one():
        return format_poly(num)
    return f"({format_poly(num)})/({format_poly(den)})"


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|(eta)|(\*\*|[-+*/^()]))")


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"cannot parse scalar text at: {text[pos:]!r}")
            break
        tokens.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of scalar text")
        self.pos += 1
        return tok

    def parse_expr(self) -> EtaScalar:
        value = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self) -> EtaScalar:
        value = self.parse_power()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.parse_power()
            value = value * rhs if op == "*" else value / rhs
        return value

    def parse_power(self) -> EtaScalar:
        base = self.parse_atom()
        if self.peek() in ("^", "**"):
            self.take()
            sign = 1
            while self.peek() == "-":
                self.take()
                sign = -sign
            exp_tok = self.take()
            if not exp_tok.isdigit():
                raise ValueError(f"bad exponent {exp_tok!r}")
            return base ** (sign * int(exp_tok))
        return base

    def parse_atom(self) -> EtaScalar:
        tok = self.take()
        if tok == "(":
            value = self.parse_expr()
            if self.take() != ")":
                raise ValueError("unbalanced parentheses in scalar text")
            return value
        if tok == "-":
            return -self.parse_power()
        if tok == "+":
            return self.parse_power()
        if tok == "eta":
            return EtaScalar.eta()
        if tok.isdigit():
            return EtaScalar(int(tok))
        raise ValueError(f"unexpected token {tok!r} in scalar text")


def parse_scalar(text: str) -> EtaScalar:
    """Parse the textual fraction grammar produced by format_scalar."""
    parser = _Parser(_tokenize(text))
    value = parser.parse_expr()
    if parser.peek() is not None:
        raise ValueError(f"trailing input in scalar text: {text!r}")
    return value
