"""The Matsuo algebra of a Fischer space over Q(eta).

Basis = points; the product of distinct collinear points c, d on the line
{c, d, e} is (eta/2)(c + d - e), orthogonal points multiply to zero, and each
point is an idempotent.  The Frobenius form takes values 1, 0, eta/2 on the
basis.  Vectors are sparse maps from point index to a scalar, either an
EtaScalar (symbolic mode) or a Fraction (evaluated mode).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import comb, gcd
from typing import Iterator, Optional, Sequence

from .fischer import FischerSpace, cached_on_space, point_orbits
from .scalars import (
    HALF_ETA,
    EtaPoly,
    EtaScalar,
    _int_mul,
    _int_trim,
    as_eta_scalar,
    poly_lcm,
    rational_roots,
)

Vec = dict  # point index -> scalar of the active mode

_ONE = EtaScalar.one()


class SpectrumNotRationalError(ValueError):
    """Exact determinant unavailable: irrational collinearity spectrum on a
    space too large for direct elimination."""


# ---------------------------------------------------------------------------
# sparse vector arithmetic
# ---------------------------------------------------------------------------

def vec_add_scaled(target: Vec, source: Vec, scale) -> None:
    """target += scale * source, dropping exact zeros in place."""
    for k, v in source.items():
        cur = target.get(k)
        if cur is None:
            val = scale * v
            if val:
                target[k] = val
        else:
            val = cur + scale * v
            if val:
                target[k] = val
            else:
                del target[k]


def vec_scale(u: Vec, scale) -> Vec:
    if not scale:
        return {}
    return {k: scale * v for k, v in u.items()}


def vec_sub(u: Vec, v: Vec) -> Vec:
    out = dict(u)
    vec_add_scaled(out, v, -1)
    return out


def vec_hadamard(u: Vec, v: Vec) -> Vec:
    """Coordinatewise product: the p == q terms of vec_product."""
    if len(v) < len(u):
        u, v = v, u
    return {k: c * v[k] for k, c in u.items() if k in v}


def vec_product(sp: FischerSpace, u: Vec, v: Vec, half_eta, diagonal=1) -> Vec:
    """Bilinear extension of the point product; commutative.

    The p == q (coordinatewise) terms are weighted by ``diagonal`` and the
    line terms by ``half_eta``.  With half_eta = n and diagonal = 2d the
    result is 2d times the product at eta = n/d, exactly over Z.
    """
    out: Vec = {}
    get = out.get
    third = sp.third
    v_items = list(v.items())
    # the three line updates are written out, not looped over a tuple, for
    # speed; their order fixes the key order of the result
    for p, cp in u.items():
        row = third[p]
        for q, cq in v_items:
            c = cp * cq
            if not c:
                continue
            if p == q:
                if diagonal != 1:
                    c *= diagonal
                cur = get(p)
                new = cur + c if cur is not None else c
                if new:
                    out[p] = new
                elif cur is not None:
                    del out[p]
                continue
            r = row[q]
            if r < 0:
                continue
            ch = c * half_eta
            cur = get(p)
            new = cur + ch if cur is not None else ch
            if new:
                out[p] = new
            elif cur is not None:
                del out[p]
            cur = get(q)
            new = cur + ch if cur is not None else ch
            if new:
                out[q] = new
            elif cur is not None:
                del out[q]
            ch = -ch
            cur = get(r)
            new = cur + ch if cur is not None else ch
            if new:
                out[r] = new
            elif cur is not None:
                del out[r]
    return out


def frobenius_value(sp: FischerSpace, u: Vec, v: Vec, half_eta):
    """Bilinear extension of the basis form (1 / 0 / eta/2); a zero of the
    type of half_eta when no term contributes."""
    total = None
    third = sp.third
    for p, cp in u.items():
        row = third[p]
        for q, cq in v.items():
            if p == q:
                term = cp * cq
            elif row[q] >= 0:
                term = cp * cq * half_eta
            else:
                continue
            total = term if total is None else total + term
    if total is None:
        return half_eta - half_eta
    return total


# ---------------------------------------------------------------------------
# fraction-free echelon rows over Z
# ---------------------------------------------------------------------------

def _eliminate(work: Vec, row: Vec, col: int) -> None:
    """work := (r/g) work - (w/g) row in place, with r > 0 and w the entries
    of row and work at col and g = gcd(r, w); clears col without fractions
    and keeps the sign of work."""
    r, w = row[col], work[col]
    g = gcd(r, w)
    if r != g:
        scale = r // g
        for k in work:
            work[k] *= scale
    vec_add_scaled(work, row, -(w // g))


def _make_primitive(vec: Vec) -> Vec:
    """Divide an integer vector by the gcd of its entries, in place."""
    g = gcd(*vec.values())
    if g > 1:
        for k in vec:
            vec[k] //= g
    return vec


class _IntEchelon:
    """Reduced echelon family of sparse integer rows, fraction-free.

    The pivot rule of ``closure.EchelonBasis``: leftmost pivot, each pivot
    column eliminated from every other row.  Rows are primitive integer
    vectors with a positive pivot entry, so each row is a positive multiple
    of the unit-pivot row that EchelonBasis keeps for the same inserts, and
    the two agree on spans, pivots and insertion order.
    """

    __slots__ = ("rows", "pivot_of_row", "row_of_pivot")

    def __init__(self):
        self.rows: list[Vec] = []
        self.pivot_of_row: list[int] = []
        self.row_of_pivot: dict[int, int] = {}

    def reduce(self, vec: Vec) -> Vec:
        """A positive multiple of vec's remainder modulo the span.

        As in EchelonBasis.reduce, one pass over the pivot columns in vec's
        support: scaling leaves zero and nonzero entries where they are."""
        work = dict(vec)
        for col in vec:
            ridx = self.row_of_pivot.get(col)
            if ridx is not None:
                _eliminate(work, self.rows[ridx], col)
        return work

    def insert(self, vec: Vec) -> bool:
        """Reduce and insert; True when the span grew."""
        row = self.reduce(vec)
        if not row:
            return False
        pivot = min(row)
        g = gcd(*row.values())
        if row[pivot] < 0:
            g = -g
        row = {k: c // g for k, c in row.items()}
        for other in self.rows:
            if pivot in other:
                _eliminate(other, row, pivot)
                _make_primitive(other)
        self.row_of_pivot[pivot] = len(self.rows)
        self.rows.append(row)
        self.pivot_of_row.append(pivot)
        return True


# ---------------------------------------------------------------------------
# public vector type
# ---------------------------------------------------------------------------

@dataclass
class AlgebraVector:
    """Sparse element of the Matsuo algebra over Q(eta), with EtaScalar values."""

    space: FischerSpace
    coeffs: Vec

    def __post_init__(self):
        self.coeffs = {k: as_eta_scalar(v) for k, v in self.coeffs.items() if v}

    @classmethod
    def from_point(cls, sp: FischerSpace, p: int) -> "AlgebraVector":
        return cls(sp, {p: _ONE})

    @classmethod
    def from_labels(cls, sp: FischerSpace, labels: Sequence[str]) -> "AlgebraVector":
        return cls(sp, {sp.point_of_label(lab): _ONE for lab in labels})

    def _check(self, other: "AlgebraVector") -> None:
        if other.space is not self.space:
            raise ValueError("vectors live in different spaces")

    def __add__(self, other: "AlgebraVector") -> "AlgebraVector":
        self._check(other)
        out = dict(self.coeffs)
        vec_add_scaled(out, other.coeffs, _ONE)
        return AlgebraVector(self.space, out)

    def __sub__(self, other: "AlgebraVector") -> "AlgebraVector":
        self._check(other)
        return AlgebraVector(self.space, vec_sub(self.coeffs, other.coeffs))

    def __mul__(self, other: "AlgebraVector") -> "AlgebraVector":
        self._check(other)
        product = vec_product(self.space, self.coeffs, other.coeffs, HALF_ETA)
        return AlgebraVector(self.space, product)

    def scaled(self, scalar) -> "AlgebraVector":
        return AlgebraVector(self.space, vec_scale(self.coeffs, scalar))

    def form(self, other: "AlgebraVector"):
        self._check(other)
        return frobenius_value(self.space, self.coeffs, other.coeffs, HALF_ETA)

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.coeffs))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            parts.append(f"({self.coeffs[k]})*{self.space.labels[k]}")
        return " + ".join(parts)


def axis_product(sp: FischerSpace, p: int, q: int) -> AlgebraVector:
    """Product of two basis points as a symbolic vector."""
    return AlgebraVector(sp, vec_product(sp, {p: _ONE}, {q: _ONE}, HALF_ETA))


# ---------------------------------------------------------------------------
# adjacency, minimal polynomial, determinants
# ---------------------------------------------------------------------------

def adjacency_rows(sp: FischerSpace) -> list[list[int]]:
    """Collinearity neighbour lists."""
    return [
        [q for q, r in enumerate(row) if r >= 0] for row in sp.third
    ]


def _powers(nbrs: list[list[int]], seed: list[int]) -> Iterator[list[int]]:
    """seed, A seed, A^2 seed, ... over Z, through the neighbour lists."""
    vec = seed
    while True:
        yield vec
        nxt = [0] * len(nbrs)
        for i, ns in enumerate(nbrs):
            vi = vec[i]
            if vi:
                for j in ns:
                    nxt[j] += vi
        vec = nxt


def _krylov_annihilator(nbrs: list[list[int]], seed: list[int]) -> list[Fraction]:
    """Monic annihilator polynomial of the seed vector under the adjacency map.

    Returns coefficients c_0..c_d (c_d = 1) with sum c_k A^k seed = 0.
    A^k seed is inserted with the tag e_{n+k}; the first remainder without
    support below column n is sum c_j e_{n+j}, with sum c_j A^j seed = 0.
    """
    n = len(nbrs)
    chain = _IntEchelon()
    for k, vec in enumerate(_powers(nbrs, seed)):
        tagged = {i: x for i, x in enumerate(vec) if x}
        tagged[n + k] = 1
        chain.insert(tagged)
        if chain.pivot_of_row[-1] >= n:
            row = chain.rows[-1]
            return [Fraction(row.get(n + j, 0), row[n + k]) for j in range(k + 1)]


@cached_on_space
def adjacency_minimal_polynomial(sp: FischerSpace) -> EtaPoly:
    """Exact monic minimal polynomial of the collinearity adjacency matrix.

    The lcm of the Krylov annihilators of one unit vector per point orbit.
    The orbits come from verified automorphisms g, which commute with A, so
    e_{g r} has the annihilator of e_r; the unit vectors span the space.
    Cached on the space.
    """
    nbrs = adjacency_rows(sp)
    minpoly = EtaPoly.one()
    for orbit in point_orbits(sp):
        seed = [int(q == orbit[0]) for q in range(len(nbrs))]
        ann = EtaPoly(_krylov_annihilator(nbrs, seed))
        minpoly = poly_lcm(minpoly, ann).monic()
    return minpoly


@cached_on_space
def adjacency_spectrum(sp: FischerSpace) -> Optional[dict[Fraction, int]]:
    """Eigenvalue multiplicities {lam: m} of the collinearity adjacency
    matrix A, or None when an eigenvalue is irrational.

    A is symmetric, so its distinct eigenvalues are the roots of the minimal
    polynomial and m_l = tr(L_l(A)) for the Lagrange polynomial L_l of lam_l
    on those roots.  The power traces are orbit sums,
    tr(A^j) = sum_r |orbit(r)| (A^j e_r)_r, because verified automorphisms
    permute the diagonal of A^j within each orbit.  Raises RuntimeError
    unless every m_l is a positive integer.  Cached on the space.
    """
    m = adjacency_minimal_polynomial(sp)
    roots = sorted(rational_roots(m))
    spectrum: Optional[dict[Fraction, int]] = None
    if len(roots) == m.degree:
        nbrs = adjacency_rows(sp)
        traces = [0] * m.degree
        for orbit in point_orbits(sp):
            r = orbit[0]
            seed = [int(q == r) for q in range(len(nbrs))]
            for j, vec in enumerate(islice(_powers(nbrs, seed), m.degree)):
                traces[j] += len(orbit) * vec[r]
        spectrum = {}
        for lam in roots:
            lagrange = m // EtaPoly((-lam, 1))
            mult = sum(c * t for c, t in zip(lagrange.coeffs, traces)) / lagrange.evaluate(lam)
            if mult.denominator != 1 or mult <= 0:
                raise RuntimeError(
                    f"eigenvalue {lam} of {sp.describe()} got multiplicity {mult}"
                )
            spectrum[lam] = int(mult)
    return spectrum


def _shifted_adjacency_rank(sp: FischerSpace, diagonal: int, off: int) -> int:
    """Rank over Z of diagonal*I + off*A, for A the collinearity adjacency
    matrix, by inserting its sparse rows into an integer echelon.  A zero
    diagonal entry is left out, since a stored zero could become a pivot."""
    span = _IntEchelon()
    for i, nbrs in enumerate(adjacency_rows(sp)):
        row = dict.fromkeys(nbrs, off)
        if diagonal:
            row[i] = diagonal
        span.insert(row)
    return len(span.rows)


def eigenvalue_multiplicity(sp: FischerSpace, lam: Fraction) -> int:
    """dim ker(A - lam I) for the collinearity adjacency matrix, exactly:
    the corank of q A - p I at lam = p/q."""
    return len(sp.points) - _shifted_adjacency_rank(sp, -lam.numerator, lam.denominator)


# -- fraction-free Bareiss determinant over Z[eta] ---------------------------

def _ip_sub(a: list[int], b: list[int]) -> list[int]:
    out = list(a)
    if len(out) < len(b):
        out.extend([0] * (len(b) - len(out)))
    for i, x in enumerate(b):
        out[i] -= x
    return _int_trim(out)


def _ip_div_exact(a: list[int], b: list[int]) -> list[int]:
    """Exact division in Z[eta]; the Bareiss invariant guarantees exactness."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    _int_trim(rem)
    if not rem:
        return []
    out = [0] * (len(rem) - len(b) + 1)
    lead = b[-1]
    while rem and len(rem) >= len(b):
        shift = len(rem) - len(b)
        q, r = divmod(rem[-1], lead)
        assert r == 0, "non-exact division in fraction-free elimination"
        out[shift] = q
        for k, c in enumerate(b):
            rem[shift + k] -= q * c
        _int_trim(rem)
    assert not rem, "non-exact division in fraction-free elimination"
    return out


def bareiss_det_int_poly(matrix: list[list[list[int]]]) -> list[int]:
    """Determinant of a matrix of integer polynomials, fraction-free."""
    n = len(matrix)
    if n == 0:
        return [1]
    m = [[list(e) for e in row] for row in matrix]
    sign = 1
    prev: list[int] = [1]
    for k in range(n - 1):
        if not _int_trim(m[k][k]):
            swap = next((r for r in range(k + 1, n) if _int_trim(m[r][k])), None)
            if swap is None:
                return []
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _ip_sub(_int_mul(m[i][j], m[k][k]), _int_mul(m[i][k], m[k][j]))
                m[i][j] = _ip_div_exact(num, prev)
            m[i][k] = []
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return [sign * c for c in det]


BAREISS_MAX_POINTS = 64


@dataclass
class GramData:
    """Gram matrix of the Frobenius form and its cleared determinant."""

    space: FischerSpace
    det: EtaPoly

    @property
    def matrix(self) -> list[list[EtaScalar]]:
        half = HALF_ETA
        one = EtaScalar.one()
        zero = EtaScalar.zero()
        out = []
        for p, row in enumerate(self.space.third):
            out.append(
                [one if p == q else (half if row[q] >= 0 else zero) for q in range(len(row))]
            )
        return out


def _det_via_spectrum(sp: FischerSpace) -> EtaPoly:
    """det(2I + eta*A) from the adjacency spectrum, when it is rational.

    Each eigenvalue lam = p/q of multiplicity m contributes (2q + p*eta)^m,
    expanded by the binomial theorem over Z.
    """
    spectrum = adjacency_spectrum(sp)
    if spectrum is None:
        raise SpectrumNotRationalError(
            f"adjacency spectrum of {sp.describe()} has irrational eigenvalues;"
            f" space too large ({len(sp.points)} points) for direct elimination"
        )
    det = [1]
    for lam, mult in sorted(spectrum.items()):
        a, b = 2 * lam.denominator, lam.numerator
        det = _int_mul(det, [comb(mult, i) * a ** (mult - i) * b**i for i in range(mult + 1)])
    return EtaPoly(det)


@cached_on_space
def gram_det(sp: FischerSpace) -> EtaPoly:
    """Cleared Gram determinant det(2I + eta*A), content-normalized.

    Spectral route whenever the adjacency spectrum is rational; direct
    fraction-free elimination otherwise, on spaces of at most
    BAREISS_MAX_POINTS points.  Cached on the space.
    """
    n = len(sp.points)
    if adjacency_spectrum(sp) is None and n <= BAREISS_MAX_POINTS:
        matrix = []
        for p, row in enumerate(sp.third):
            matrix.append(
                [[2] if p == q else ([0, 1] if row[q] >= 0 else []) for q in range(n)]
            )
        det = EtaPoly(bareiss_det_int_poly(matrix))
    else:
        det = _det_via_spectrum(sp)
    return det.primitive() if det.leading > 0 else -det.primitive()


def gram(sp: FischerSpace) -> GramData:
    return GramData(sp, gram_det(sp))


@dataclass
class CriticalValues:
    """Rational critical values plus the square-free certificate polynomial.
    ``space`` is the space's description: the value is cached on the space,
    and holding the space itself would make a reference cycle."""

    space: str
    roots: frozenset[Fraction]
    excluded: frozenset[Fraction]  # 1 when it is a determinant root (0 never is)
    certificate: EtaPoly
    det_degree: int

    def report(self) -> dict:
        return {
            "space": self.space,
            "det_degree": self.det_degree,
            "rational_roots": [str(r) for r in sorted(self.roots)],
            "excluded_parameter_values": [str(r) for r in sorted(self.excluded)],
            "squarefree_certificate": str(self.certificate),
        }


def _certificate_from_minpoly(m: EtaPoly) -> EtaPoly:
    """Transform x -> -2/eta: product of (2 + eta*lam) over distinct lam."""
    d = m.degree
    coeffs = [Fraction(0)] * (d + 1)
    sign_d = 1 if d % 2 == 0 else -1
    for k, a in enumerate(m.coeffs):
        coeffs[d - k] = a * (-2) ** k * sign_d
    poly = EtaPoly(coeffs)
    prim = poly.primitive()
    return prim


@cached_on_space
def critical_values(sp: FischerSpace) -> CriticalValues:
    """Values of eta where the Gram matrix of the form degenerates.

    eta = 1 is outside the parameter domain and reported separately when it
    is a determinant root (a root -2/lambda is never 0).  The determinant's
    degree is n less the integer corank of A.  Cached on the space.
    """
    m = adjacency_minimal_polynomial(sp)
    cert = _certificate_from_minpoly(m)
    all_roots = {Fraction(-2, 1) / lam for lam in rational_roots(m) if lam != 0}
    excluded = frozenset(r for r in all_roots if r == 1)
    roots = frozenset(all_roots - excluded)
    zero_mult = eigenvalue_multiplicity(sp, Fraction(0)) if m.evaluate(0) == 0 else 0
    det_degree = len(sp.points) - zero_mult
    return CriticalValues(sp.describe(), roots, excluded, cert, det_degree)


def radical_dim(sp: FischerSpace, eta0) -> int:
    """Kernel dimension of the Gram matrix at eta = eta0.

    The Gram matrix at p/q is (I + (p/2q) A); clearing denominators gives the
    integer matrix 2q I + p A, whose rank is computed fraction-free.
    """
    eta0 = Fraction(eta0)
    if eta0 in (Fraction(0), Fraction(1)):
        raise ValueError("eta = 0 and eta = 1 are outside the parameter domain")
    return len(sp.points) - _shifted_adjacency_rank(sp, 2 * eta0.denominator, eta0.numerator)
