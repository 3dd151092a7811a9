"""Axial verification: eigenspaces, fusion laws, primitivity, Miyamoto maps.

Single axes follow the Jordan-type law with eigenvalues (1, 0, eta); sums of
two orthogonal axes follow the Monster-type law with eigenvalues
(1, 0, 2*eta, eta).  The spectrum is known in advance from the law, so no
root-finding is involved, and everything is read off polynomials in ad_x
applied to sparse ambient vectors of a closed subalgebra; no adjoint matrix
is formed.  The eigenspace of lambda_k is the image of the Lagrange
projection P_k = prod over mu != lambda_k of (ad_x - mu) / (lambda_k - mu),
echelonized in coordinates on the subalgebra basis; primitivity is the rank
of b -> x*b - b.  A product of eigenvectors obeys a fusion cell iff prod
over allowed nu of (ad_x - nu) kills it, and its component on part k is its
image under P_k; the Miyamoto involution is I - 2 * P_odd for the eta part.

In evaluated mode at eta0 = n/d, every function first takes the axis at
eta0, and primitivity is an integer rank: the basis rows scaled to primitive
integer rows form an integer echelon as they stand, and the images, scaled
by 2d and the axis's denominators, are integer vectors (``check_primitive``).

Over Q(eta) with a rational axis, rational basis rows and eigenvalues of
degree <= 1 in eta (``scalars.rational_vec`` and ``is_linear_in_eta``
decide), every cell check is a vector of polynomials in eta of
bounded degree, so a passing law is certified by integer arithmetic at a
few even values of eta (see ``check_fusion``); violations are always found
and reported over Q(eta).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Optional, Sequence

from .algebra import Vec, _IntEchelon, vec_add_scaled, vec_product, vec_scale
from .closure import EchelonBasis, ScalarMode, Subalgebra, UnsafeEtaError
from .fischer import FischerSpace, verified_reflection
from .scalars import (
    HALF_ETA,
    EtaScalar,
    PoleError,
    as_eta_scalar,
    evaluate_vec,
    is_linear_in_eta,
    primitive_int_vec,
    rational_value,
    rational_vec,
)


class AdjointNotDiagonalizableError(ValueError):
    """Eigenspace dimensions fall short of the ambient dimension: the element
    is not an axis for the requested spectrum."""


class ParameterDomainError(ValueError):
    """Fusion law requested at an excluded parameter value."""


# ---------------------------------------------------------------------------
# fusion laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FusionLaw:
    """Eigenvalue set with a symmetric cell table, by eigenvalue position."""

    name: str
    eigenvalues: tuple
    table: dict

    def allowed(self, li: int, mi: int) -> frozenset[int]:
        return self.table[(li, mi)] if (li, mi) in self.table else self.table[(mi, li)]


def jordan_law(mode: ScalarMode) -> FusionLaw:
    """Jordan-type law on (1, 0, eta): eta is the odd part.  The values are
    distinct, since ScalarMode refuses eta = 0 and 1."""
    one, zero, eta = mode.one(), mode.zero(), mode.eta()
    values = (one, zero, eta)
    t = {
        (0, 0): frozenset({0}),
        (0, 1): frozenset(),
        (0, 2): frozenset({2}),
        (1, 1): frozenset({1}),
        (1, 2): frozenset({2}),
        (2, 2): frozenset({0, 1}),
    }
    return FusionLaw("J", values, t)


def monster_law(mode: ScalarMode) -> FusionLaw:
    """Monster-type law on (1, 0, 2*eta, eta): eta is the odd part."""
    # ScalarMode refuses eta = 0 and 1, so 1/2 (where 2*eta = 1) is the one
    # value left at which two eigenvalues coincide
    if mode.eta0 == Fraction(1, 2):
        raise ParameterDomainError(
            "Monster-type law at (2*eta, eta) needs eta outside {0, 1, 1/2}"
        )
    one, zero, eta = mode.one(), mode.zero(), mode.eta()
    alpha = eta + eta
    values = (one, zero, alpha, eta)
    t = {
        (0, 0): frozenset({0}),
        (0, 1): frozenset(),
        (0, 2): frozenset({2}),
        (0, 3): frozenset({3}),
        (1, 1): frozenset({1}),
        (1, 2): frozenset({2}),
        (1, 3): frozenset({3}),
        (2, 2): frozenset({0, 1}),
        (2, 3): frozenset({3}),
        (3, 3): frozenset({0, 1, 2}),
    }
    return FusionLaw("M", values, t)


def law_by_name(name: str, mode: ScalarMode) -> FusionLaw:
    if name == "J":
        return jordan_law(mode)
    if name == "M":
        return monster_law(mode)
    raise ValueError(f"unknown fusion law {name!r}; choose J or M")


# even/odd grading: the eta eigenspace is the odd part for both laws
def odd_part_index(law: FusionLaw) -> int:
    return len(law.eigenvalues) - 1


# ---------------------------------------------------------------------------
# adjoints and eigenspaces
# ---------------------------------------------------------------------------

def _axis_in_mode(algebra: Subalgebra, x: Vec) -> Vec:
    """The axis over the algebra's scalars: its value at eta0 in evaluated
    mode, where a pole raises UnsafeEtaError as for the generators of
    ``close``; x itself in symbolic mode."""
    if algebra.mode.is_symbolic:
        return x
    try:
        return evaluate_vec(x, algebra.mode.eta0)
    except PoleError as exc:
        raise UnsafeEtaError(f"axis with a pole: {exc}") from exc


def _ad_poly(sp: FischerSpace, x: Vec, w: Vec, roots: Iterable, half) -> Vec:
    """prod over nu in roots of (ad_x - nu), applied to w."""
    for nu in roots:
        image = vec_product(sp, x, w, half)
        if nu:
            vec_add_scaled(image, w, -nu)
        w = image
    return w


def _project(sp: FischerSpace, x: Vec, w: Vec, values: tuple, k: int, half) -> Vec:
    """Component of w on the values[k]-eigenspace of ad_x, for w in the sum
    of the eigenspaces on values (Lagrange projection)."""
    others = values[:k] + values[k + 1:]
    scale = 1 / math.prod(values[k] - mu for mu in others)
    return vec_scale(_ad_poly(sp, x, w, others, half), scale)


def _image(algebra: Subalgebra, x: Vec, roots: Sequence) -> tuple[EchelonBasis, list[int]]:
    """Span of prod over nu in roots of (ad_x - nu) on the subalgebra, and
    the basis rows whose images grew it.

    Each image enters as its coordinates on the subalgebra basis with the
    index reversed (c -> d - 1 - c).  EchelonBasis keeps leftmost pivots and
    fully reduced rows, so back in the basis order its rows are the unique
    reduced basis of the span with rightmost pivots.  The images of the
    recorded rows are independent and span it too.
    """
    if algebra.coordinates(x) is None:
        raise ValueError("the axis does not lie in the subalgebra")
    half = algebra.mode.half_eta()
    last = algebra.dimension - 1
    span = EchelonBasis(algebra.mode)
    sources = []
    for a, row in enumerate(algebra.basis.rows):
        coords = algebra.coordinates(_ad_poly(algebra.space, x, row, roots, half))
        if coords is None:
            raise ValueError("adjoint image left the subalgebra; not closed")
        if span.insert({last - c: v for c, v in enumerate(coords) if v}):
            sources.append(a)
    return span, sources


@dataclass
class EigenDecomposition:
    """Eigenvectors of an adjoint, grouped by the requested spectrum."""

    algebra: Subalgebra
    axis: Vec
    eigenvalues: tuple
    parts: list[list[list]]  # per eigenvalue: list of coordinate vectors
    # per eigenvalue: basis rows b_a whose images N_k(b_a) span the part
    sources: list[list[int]]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.parts)


def eigen_decompose(algebra: Subalgebra, x: Vec, spectrum: Sequence) -> EigenDecomposition:
    """Eigenvectors of ad_x per value of the spectrum, two or more distinct
    values, as coordinate vectors on the subalgebra basis.

    Part k spans the image of N_k = prod over mu != lambda_k of (ad_x - mu),
    the numerator of the Lagrange projection onto the lambda_k-eigenspace.
    The projections sum to the identity, so the images span the subalgebra,
    and the sum is direct exactly when ad_x is diagonalizable over the
    spectrum: otherwise the nonzero image of prod over lambda of
    (ad_x - lambda) lies in every image.  Each image is then an eigenspace,
    given by its unit-free-variable kernel basis (rightmost pivots), sorted
    by free column; ``sources[k]`` lists the basis rows b_a whose images
    N_k(b_a) form another basis of it.

    Raises when the image dimensions do not sum to the dimension of the
    subalgebra; the message gives the kernel dimensions of ad_x - lambda.
    """
    x = _axis_in_mode(algebra, x)
    if vec_product(algebra.space, x, x, algebra.mode.half_eta()) != x:
        raise ValueError("axis must be an idempotent")
    spectrum = tuple(spectrum)
    if len(spectrum) < 2 or len(set(spectrum)) < len(spectrum):
        raise ValueError("the spectrum needs two or more distinct values")
    d = algebra.dimension
    images, sources = [], []
    for k in range(len(spectrum)):
        image, rows = _image(algebra, x, spectrum[:k] + spectrum[k + 1:])
        images.append(image)
        sources.append(rows)
    if sum(map(len, images)) != d:
        dims = tuple(d - len(_image(algebra, x, (lam,))[0]) for lam in spectrum)
        raise AdjointNotDiagonalizableError(
            f"eigenspace dimensions {dims} sum to"
            f" {sum(dims)}, expected {d}; not an axis for this spectrum"
        )
    zero = algebra.mode.zero()
    parts = []
    for image in images:
        part = []
        pivots = image.pivot_of_row
        for r in sorted(range(len(image)), key=pivots.__getitem__, reverse=True):
            vec = [zero] * d
            for c, v in image.rows[r].items():
                vec[d - 1 - c] = v
            part.append(vec)
        parts.append(part)
    return EigenDecomposition(algebra, x, spectrum, parts, sources)


# ---------------------------------------------------------------------------
# fusion checking
# ---------------------------------------------------------------------------

@dataclass
class FusionViolation:
    """A product of the eigenvectors numbered pair with a nonzero component
    on a part its cell does not allow; component is that ambient vector."""

    lam_index: int
    mu_index: int
    pair: tuple[int, int]
    offending_part: int
    component: Vec


@dataclass
class FusionReport:
    law: FusionLaw
    decomposition: EigenDecomposition
    violations: list[FusionViolation]

    @property
    def passed(self) -> bool:
        return not self.violations

    def export(self) -> dict:
        dec = self.decomposition
        return {
            "axis": _vec_text(dec.algebra.space, dec.axis),
            "law": self.law.name,
            "eigen_dims": {
                str(dec.eigenvalues[i]): len(dec.parts[i])
                for i in range(len(dec.parts))
            },
            "violations": [
                {
                    "lambda": str(dec.eigenvalues[v.lam_index]),
                    "mu": str(dec.eigenvalues[v.mu_index]),
                    "pair": list(v.pair),
                    "offending_component": str(dec.eigenvalues[v.offending_part]),
                }
                for v in self.violations
            ],
        }


def _vec_text(sp: FischerSpace, vec: Vec) -> str:
    return " + ".join(
        (f"{sp.labels[k]}" if str(vec[k]) == "1" else f"({vec[k]})*{sp.labels[k]}")
        for k in sorted(vec)
    )


def check_fusion(algebra: Subalgebra, x: Vec, law: FusionLaw) -> FusionReport:
    """Verify every eigenspace product lands in the cells the law allows.

    Eigenvectors are numbered in part order; each pair passes iff the
    product of (ad_x - nu) over the allowed eigenvalues nu kills its product
    (an empty cell asks for zero).  A failing pair gives one violation per
    disallowed part on which the product has a nonzero component.

    In symbolic mode with a rational axis, rational basis rows and
    eigenvalues of degree <= 1 in eta, a passing law is certified at integer
    points first.  The images N_k(b_a) of the source rows of part k span it
    (``eigen_decompose``), so by bilinearity every pair passes iff, for all
    sources a of part lam and b of part mu, Q = N_lam(b_a) * N_mu(b_b) lies
    in the subalgebra and prod over allowed nu of (ad_x - nu) kills it.  With
    m eigenvalues, N_k has m - 1 factors of degree 1 in eta and the product
    adds one, so the cell image of Q is a vector of polynomials in eta of
    degree at most D = 2(m - 1) + 1 + the largest cell (10 for M, 7 for J);
    the residual of Q modulo the rational unit-pivot rows is one of no
    larger degree.  Both vanish identically iff they vanish at D + 1 points;
    at eta = 2, 4, ..., 2(D + 1) eta/2 is an integer and nothing divides, so
    the arithmetic stays in integers wherever the rows are integral.  If a
    point fails, or the inputs do not qualify, the pairs are checked over
    Q(eta), which alone reports violations.
    """
    x = _axis_in_mode(algebra, x)
    dec = eigen_decompose(algebra, x, law.eigenvalues)
    lowered = _rational_inputs(algebra, x, law)
    if lowered is not None and _cells_vanish_at_points(dec, law, *lowered):
        return FusionReport(law, dec, [])
    sp = algebra.space
    half = algebra.mode.half_eta()
    values = law.eigenvalues
    parts = [[algebra.row_vector(v) for v in part] for part in dec.parts]
    start = list(accumulate(map(len, parts), initial=0))
    violations: list[FusionViolation] = []
    for li, mi, a, b, w in _pair_products(sp, parts, half):
        if not algebra.contains(w):
            raise ValueError("eigenvector product left the subalgebra")
        allowed = law.allowed(li, mi)
        if not _ad_poly(sp, x, w, [values[k] for k in sorted(allowed)], half):
            continue
        for k in range(len(values)):
            if k not in allowed:
                component = _project(sp, x, w, values, k, half)
                if component:
                    pair = (start[li] + a, start[mi] + b)
                    violations.append(FusionViolation(li, mi, pair, k, component))
    return FusionReport(law, dec, violations)


def _pair_products(sp: FischerSpace, parts: Sequence[Sequence[Vec]], half):
    """Each unordered pair of vectors from parts li <= mi, as (li, mi, a, b,
    product) with a and b the positions of the factors in their parts."""
    for li, lpart in enumerate(parts):
        for mi in range(li, len(parts)):
            mpart = parts[mi]
            for a, u in enumerate(lpart):
                for b in range(a if li == mi else 0, len(mpart)):
                    yield li, mi, a, b, vec_product(sp, u, mpart[b], half)


def _rational_inputs(
    algebra: Subalgebra, x: Vec, law: FusionLaw
) -> Optional[tuple[EchelonBasis, Vec]]:
    """The subalgebra basis and the axis with rational coefficients, when
    the point certificate of ``check_fusion`` applies; else None."""
    if not algebra.mode.is_symbolic or not all(map(is_linear_in_eta, law.eigenvalues)):
        return None
    vecs = []
    for vec in (x, *algebra.basis.rows):
        lowered = rational_vec(vec)
        if lowered is None:
            return None
        vecs.append(lowered)
    # same pivots; constant rows reduce a vector evaluated at any eta
    basis = copy.copy(algebra.basis)
    basis.rows = vecs[1:]
    return basis, vecs[0]


def _certificate_points(law: FusionLaw) -> range:
    """D + 1 even values of eta, with D = 2(m - 1) + 1 + the largest cell
    bounding the eta-degree of every cell identity (see ``check_fusion``)."""
    degree = 2 * (len(law.eigenvalues) - 1) + 1 + max(map(len, law.table.values()))
    return range(2, 2 * (degree + 2), 2)


def _cells_vanish_at_points(
    dec: EigenDecomposition, law: FusionLaw, basis: EchelonBasis, x: Vec
) -> bool:
    """True iff at every certificate point each product of source images
    lies in the span of the rational basis and its cell kills it."""
    sp = dec.algebra.space
    rows = basis.rows
    for eta in _certificate_points(law):
        half = eta // 2
        values = [rational_value(as_eta_scalar(v).evaluate(eta)) for v in law.eigenvalues]
        images = []
        for k, sources in enumerate(dec.sources):
            others = values[:k] + values[k + 1:]
            images.append([_ad_poly(sp, x, rows[a], others, half) for a in sources])
        for li, mi, _, _, w in _pair_products(sp, images, half):
            roots = [values[k] for k in sorted(law.allowed(li, mi))]
            if basis.reduce(w) or _ad_poly(sp, x, w, roots, half):
                return False
    return True


def check_primitive(algebra: Subalgebra, x: Vec) -> bool:
    """True iff the 1-eigenspace of ad_x inside the subalgebra is a line,
    i.e. b -> x*b - b has rank d - 1 on the basis rows.

    In evaluated mode, at eta0 = n/d, the rank is taken over Z.  The
    unit-pivot basis rows, scaled to primitive integer rows, keep their
    pivots and stay zero at the other rows' pivots, so they form an integer
    echelon as they stand.  With L the lcm of the axis's denominators and
    xL = L*x, ``vec_product(xL, b, n, 2d) - 2dL*b`` is 2dL*(x*b - b): an
    integer vector with the span of x*b - b.
    """
    x = _axis_in_mode(algebra, x)
    mode = algebra.mode
    if mode.is_symbolic:
        span, _ = _image(algebra, x, (mode.one(),))
        return algebra.dimension - len(span) == 1
    if algebra.coordinates(x) is None:
        raise ValueError("the axis does not lie in the subalgebra")
    basis = _IntEchelon()
    basis.rows = [primitive_int_vec(row) for row in algebra.basis.rows]
    basis.pivot_of_row = algebra.basis.pivot_of_row
    basis.row_of_pivot = algebra.basis.row_of_pivot
    n, two_d = mode.product_weights()
    lcm = math.lcm(*[c.denominator for c in x.values()])  # a list: see primitive_int_vec
    x_lcm = {k: c.numerator * (lcm // c.denominator) for k, c in x.items()}
    span = _IntEchelon()
    for row in basis.rows:
        image = vec_product(algebra.space, x_lcm, row, n, two_d)
        vec_add_scaled(image, row, -two_d * lcm)
        if basis.reduce(image):
            raise ValueError("adjoint image left the subalgebra; not closed")
        span.insert(image)
    return algebra.dimension - len(span.rows) == 1


# ---------------------------------------------------------------------------
# Miyamoto maps
# ---------------------------------------------------------------------------

def miyamoto_point_map(sp: FischerSpace, p: int) -> tuple[int, ...]:
    """Point permutation of the Miyamoto involution of a single axis.

    Fixes p and everything non-collinear with p; on each line through p it
    swaps the other two points.  Raises ValueError unless it is a space
    automorphism.
    """
    return verified_reflection(sp, p)


def permutation_matrix_on(algebra: Subalgebra, perm: Sequence[int]) -> list[list]:
    """Matrix of the permutation-induced linear map restricted to a
    subalgebra; requires invariance."""
    d = algebra.dimension
    cols = []
    for row in algebra.basis.rows:
        image = {perm[k]: v for k, v in row.items()}
        coords = algebra.coordinates(image)
        if coords is None:
            raise ValueError("subalgebra is not invariant under the permutation")
        cols.append(coords)
    return [[cols[c][r] for c in range(d)] for r in range(d)]


@dataclass
class MiyamotoMap:
    """Involutive algebra automorphism acting as -1 on the odd part."""

    algebra: Subalgebra
    matrix: list[list]

    def apply_coords(self, coords: Sequence) -> list:
        out = [self.algebra.mode.zero()] * len(coords)
        for c, x in enumerate(coords):
            if x:
                for r, row in enumerate(self.matrix):
                    if row[c]:
                        out[r] = out[r] + row[c] * x
        return out

    def apply_vec(self, vec: Vec) -> Vec:
        coords = self.algebra.coordinates(vec)
        if coords is None:
            raise ValueError("vector outside the subalgebra")
        return self.algebra.row_vector(self.apply_coords(coords))

    def is_involution(self) -> bool:
        d = self.algebra.dimension
        mode = self.algebra.mode
        one, zero = mode.one(), mode.zero()
        for c in range(d):
            col = [self.matrix[r][c] for r in range(d)]
            image = self.apply_coords(col)
            for r in range(d):
                want = one if r == c else zero
                if image[r] != want:
                    return False
        return True

    def preserves_products(self) -> bool:
        alg = self.algebra
        half = alg.mode.half_eta()
        d = alg.dimension
        images = [
            alg.row_vector([self.matrix[r][c] for r in range(d)]) for c in range(d)
        ]
        for i in range(d):
            for j in range(i, d):
                lhs = vec_product(
                    alg.space,
                    alg.basis.rows[i],
                    alg.basis.rows[j],
                    half,
                )
                lhs_coords = alg.coordinates(lhs)
                mapped = self.apply_coords(lhs_coords)
                rhs = vec_product(alg.space, images[i], images[j], half)
                rhs_coords = alg.coordinates(rhs)
                if rhs_coords is None or mapped != rhs_coords:
                    return False
        return True


def miyamoto_algebra_map(algebra: Subalgebra, x: Vec, law: FusionLaw) -> MiyamotoMap:
    """Identity on the even part, negation on the odd (eta) part.

    Column c holds the coordinates of b_c - 2 * P_odd(b_c) for the basis
    row b_c and the Lagrange projection P_odd onto the odd part.
    """
    x = _axis_in_mode(algebra, x)
    if not check_fusion(algebra, x, law).passed:
        raise ValueError("fusion law fails; no Miyamoto involution")
    sp = algebra.space
    half = algebra.mode.half_eta()
    odd = odd_part_index(law)
    columns = []
    for row in algebra.basis.rows:
        image = dict(row)
        vec_add_scaled(image, _project(sp, x, row, law.eigenvalues, odd, half), -2)
        columns.append(algebra.coordinates(image))
    result = MiyamotoMap(algebra, [list(r) for r in zip(*columns)])
    if not result.is_involution() or not result.preserves_products():
        raise ValueError("constructed Miyamoto map is not an algebra involution")
    return result


def tau_composition_identity(sp: FischerSpace, a: int, b: int) -> bool:
    """Exact check that the double axis a+b has tau equal to tau_a tau_b.

    With P = tau_a tau_b and x = a + b, it verifies for every point q that
    q - q^P is annihilated by (ad_x - eta) and q + q^P by
    (ad_x - 1) ad_x (ad_x - 2 eta).  That both splits the space into the even
    and odd parts and identifies the Miyamoto action with P.
    """
    if sp.collinear(a, b) or a == b:
        raise ValueError("double axis needs two distinct orthogonal points")
    pa = miyamoto_point_map(sp, a)
    pb = miyamoto_point_map(sp, b)
    perm = tuple(pb[pa[q]] for q in range(len(sp.points)))
    one = EtaScalar.one()
    *even, odd = monster_law(ScalarMode.symbolic()).eigenvalues
    x: Vec = {a: one, b: one}
    for q in range(len(sp.points)):
        qp = perm[q]
        if qp == q:
            plus: Vec = {q: one + one}
            minus: Vec = {}
        else:
            plus = {q: one, qp: one}
            minus = {q: one, qp: -one}
        if _ad_poly(sp, x, minus, (odd,), HALF_ETA) or _ad_poly(sp, x, plus, even, HALF_ETA):
            return False
    return True
