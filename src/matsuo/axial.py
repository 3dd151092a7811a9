"""Axial verification: eigenspaces, fusion laws, primitivity, Miyamoto maps.

Single axes follow the Jordan-type law with eigenvalues (1, 0, eta); sums of
two orthogonal axes follow the Monster-type law with eigenvalues
(1, 0, 2*eta, eta).  The spectrum is known in advance from the law, so no
root-finding is involved.  ad_x on a subalgebra, closed as every
``Subalgebra`` is, is formed once, as sparse columns: column c holds the
coordinates of x*b_c on the basis, read at the pivots as x*b_c lies in B.
Every polynomial in ad_x is then read off the Krylov vectors w, A w,
A^2 w, ... of a coordinate vector w: the Lagrange projections P_k = prod
over mu != lambda_k of (ad_x - mu) / (lambda_k - mu), whose images are the
eigenspaces, ad_x - 1 for the primitivity of other axes, and the
polynomials of the fusion cells.  Every entry point takes the axis through
``_axis``: a nonzero idempotent of the subalgebra, over the mode's scalars.

In the whole Matsuo algebra a point obeys the Jordan law and a sum of two
orthogonal points the Monster law (``_ambient_law``).  A subalgebra is
closed by construction, so such an axis passes by restriction, is primitive
unless it is b + c with b in the subalgebra, and its Miyamoto involution
composes its points' reflections, each a verified automorphism of the Fischer space.
On a rational basis its eigenspace dimensions are integer ranks at one
point eta (``closure.kernel_dims``), and its eigenvectors and ad_x are
built only when read.
Every other axis or law is checked pair by pair over the eigenvectors,
which alone reports violations, its primitivity is the rank of ad_x - 1
(over Z at eta0 in evaluated mode), and its Miyamoto involution is
I - 2 * P_odd for the eta part, checked to preserve the products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Optional, Sequence

from .algebra import Vec, vec_add_scaled, vec_product, vec_scale
from .closure import EchelonBasis, ScalarMode, Subalgebra, _at_pivots, kernel_dims
from .closure import vec_combination
from .fischer import FischerSpace, verified_reflection
from .scalars import HALF_ETA, EtaScalar


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


# ---------------------------------------------------------------------------
# adjoints and eigenspaces
# ---------------------------------------------------------------------------

def _ad_poly(sp: FischerSpace, x: Vec, w: Vec, roots: Iterable, half) -> Vec:
    """prod over nu in roots of (ad_x - nu), applied to an ambient vector w."""
    for nu in roots:
        image = vec_product(sp, x, w, half)
        if nu:
            vec_add_scaled(image, w, -nu)
        w = image
    return w


def _axis(algebra: Subalgebra, x: Vec) -> Vec:
    """x over the mode's scalars (``ScalarMode.vector``), refused when it is
    zero, not an idempotent, or outside the subalgebra, in that order."""
    x = algebra.mode.vector(x, "axis")
    if not x:
        raise ValueError("axis must be nonzero")
    if vec_product(algebra.space, x, x, algebra.mode.half_eta()) != x:
        raise ValueError("axis must be an idempotent")
    if not algebra.contains(x):
        raise ValueError("the axis does not lie in the subalgebra")
    return x


def _adjoint(algebra: Subalgebra, x: Vec) -> list[Vec]:
    """ad_x on the subalgebra basis as sparse columns: column c holds the
    coordinates of x*b_c, one product each, read at the pivots; x*b_c lies
    in the closed subalgebra, as x does (``_axis``)."""
    half = algebra.mode.half_eta()
    columns, shared = [], {}  # equal entries share one scalar: few are distinct
    for row in algebra.basis.rows:
        coords = _at_pivots(algebra.basis, vec_product(algebra.space, x, row, half))
        columns.append({i: shared.setdefault(v, v) for i, v in coords.items()})
    return columns


def _poly(roots: Iterable, scale=1) -> list:
    """Coefficients, constant term first, of scale * prod over nu in roots
    of (t - nu)."""
    coefs = [scale]
    for nu in roots:
        coefs = [a - nu * b for a, b in zip([0, *coefs], [*coefs, 0])]
    return coefs


def _images(adjoint: Sequence[Vec], powers: list[Vec], polys: Sequence[list]) -> list[Vec]:
    """Each polynomial in ad_x (coefficients as ``_poly``) applied to the
    coordinate vector w = powers[0], through its Krylov vectors w, A w,
    A^2 w, ..., which extend powers in place."""
    while len(powers) < max(map(len, polys)):
        powers.append(vec_combination(map(adjoint.__getitem__, powers[-1]), powers[-1].values()))
    return [vec_combination(powers, coefs) for coefs in polys]


@dataclass
class EigenDecomposition:
    """Eigenvectors of an adjoint, grouped by the requested spectrum, and
    their dimensions.  Given the dimensions, the eigenvectors and the
    adjoint are built when first read, and checked against them; else they
    are built at once and the dimensions read off them."""

    algebra: Subalgebra
    axis: Vec
    eigenvalues: tuple
    dims: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if self.dims is None:
            self.dims = tuple(map(len, self.parts))

    @cached_property
    def adjoint(self) -> list[Vec]:
        """Column c: the coordinates of axis * b_c."""
        return _adjoint(self.algebra, self.axis)

    @cached_property
    def parts(self) -> list[list[list]]:
        """Per eigenvalue, its eigenvectors as coordinate vectors, built as
        ``eigen_decompose`` says."""
        algebra, spectrum, d = self.algebra, self.eigenvalues, self.algebra.dimension
        numerators = [_poly(spectrum[:k] + spectrum[k + 1:]) for k in range(len(spectrum))]
        images = _spans(algebra, self.adjoint, numerators)
        if sum(map(len, images)) != d:
            kernels = _spans(algebra, self.adjoint, [_poly((lam,)) for lam in spectrum])
            dims = tuple(d - len(span) for span in kernels)
            raise AdjointNotDiagonalizableError(
                f"eigenspace dimensions {dims} sum to"
                f" {sum(dims)}, expected {d}; not an axis for this spectrum"
            )
        zero = algebra.mode.zero()
        parts = []
        for image in images:
            order = sorted(range(len(image)), key=image.pivot_of_row.__getitem__, reverse=True)
            parts.append([[image.rows[r].get(d - 1 - c, zero) for c in range(d)] for r in order])
        dims = tuple(map(len, parts))
        if self.dims not in (None, dims):
            raise RuntimeError(f"eigenvectors of dimensions {dims}, not {self.dims}")
        return parts


def _spans(algebra: Subalgebra, adjoint: Sequence[Vec], polys: Sequence[list]) -> list:
    """The span of each polynomial in ad_x on the subalgebra, its images
    entered index-reversed (c -> d - 1 - c): back in the basis order the
    rows are the unique reduced basis with rightmost pivots, and on flip
    algebras they fill far less."""
    mode, last = algebra.mode, algebra.dimension - 1
    spans = [EchelonBasis(mode) for _ in polys]
    for c in range(algebra.dimension):
        for span, image in zip(spans, _images(adjoint, [{c: mode.one()}], polys)):
            span.insert({last - i: v for i, v in image.items()})
    return spans


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
    by free column.

    Raises when the image dimensions do not sum to the dimension of the
    subalgebra; the message gives the kernel dimensions of ad_x - lambda.
    """
    x = _axis(algebra, x)
    spectrum = tuple(spectrum)
    if len(spectrum) < 2 or len(set(spectrum)) < len(spectrum):
        raise ValueError("the spectrum needs two or more distinct values")
    return EigenDecomposition(algebra, x, spectrum)


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
            "eigen_dims": {str(lam): dim for lam, dim in zip(dec.eigenvalues, dec.dims)},
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
    disallowed part on which the product has a nonzero component.  Both are
    read off the Krylov vectors of the product's coordinates (at the pivots).

    An axis under its ambient law (a point under J, a double axis under M,
    ``_ambient_law``) passes without the pair loop, by restriction from the
    whole Matsuo algebra to the closed subalgebra, so ad_x is diagonalizable
    with the law's values and its kernel dimensions sum to d.  On a rational
    basis they are integer ranks at one point (``closure.kernel_dims``) and
    the eigenvectors are built only when read, else at once.  Evaluated mode
    ranks at eta0, exactly; symbolic mode where the values are distinct.
    There each kernel is at least the one over Q(eta), as rank only drops
    at a specialization, and kernels of distinct values sum to at most d,
    so a sum of d makes each the one over Q(eta); any other sum raises.
    """
    values = law.eigenvalues
    if law == _ambient_law(algebra.mode, algebra.mode.vector(x, "axis")):
        x = _axis(algebra, x)
        dims, d = kernel_dims(algebra, x, values), algebra.dimension
        if dims is not None and sum(dims) != d:
            raise RuntimeError(f"eigenspace dimensions {dims} sum to {sum(dims)}, not {d}")
        return FusionReport(law, EigenDecomposition(algebra, x, values, dims), [])
    dec = eigen_decompose(algebra, x, values)
    projections = []  # the Lagrange projection onto each part
    for k, lam in enumerate(values):
        others = values[:k] + values[k + 1:]
        projections.append(_poly(others, 1 / math.prod(lam - mu for mu in others)))
    rows = algebra.basis.rows
    parts = [[algebra.row_vector(v) for v in part] for part in dec.parts]
    start = list(accumulate(map(len, parts), initial=0))
    violations: list[FusionViolation] = []
    for li, mi, a, b, w in _pair_products(algebra.space, parts, algebra.mode.half_eta()):
        allowed = law.allowed(li, mi)
        powers = [_at_pivots(algebra.basis, w)]
        if not _images(dec.adjoint, powers, [_poly([values[k] for k in sorted(allowed)])])[0]:
            continue
        for k, component in enumerate(_images(dec.adjoint, powers, projections)):
            if k not in allowed and component:
                pair = (start[li] + a, start[mi] + b)
                ambient = vec_combination(map(rows.__getitem__, component), component.values())
                violations.append(FusionViolation(li, mi, pair, k, ambient))
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


def _ambient_law(mode: ScalarMode, x: Vec) -> Optional[FusionLaw]:
    """The law the axis x (as ``_axis`` passes it) obeys in the whole
    Matsuo algebra A; None when restriction does not decide it.  A point
    obeys J(eta) (Hall, Rehren and Shpectorov 2015), and a sum of two
    orthogonal points M(2eta, eta) at eta != 1/2 (Galt et al. 2021).  An
    idempotent with one point in its support is the point, and with two the
    points are orthogonal with unit coefficients, so the rule reads the
    support size and eta only: a caller may ask it before ``_axis`` checks
    x, if the route it picks then checks x.  B_lambda = B meet A_lambda, as
    the subalgebra B is closed (``Subalgebra``), so each caller's restricted
    route is ``law == _ambient_law(mode, x)`` alone.
    """
    ambient = {1: jordan_law, 2: monster_law}.get(len(x))
    if ambient is None:
        return None
    try:
        return ambient(mode)
    except ParameterDomainError:  # no Monster law at eta = 1/2
        return None


def check_primitive(algebra: Subalgebra, x: Vec) -> bool:
    """True iff the 1-eigenspace B_1 of ad_x in the subalgebra B is the
    line of x.

    B_1 = B meet A_1, with A_1 the 1-eigenspace in the whole Matsuo algebra
    A.  For an axis that ``_ambient_law`` passes, A_1 is known: A_1(a) =
    <a> for a point a (Hall, Rehren and Shpectorov, J. Algebra 2015), and
    A_1(b + c) = <b, c> for orthogonal points b and c when eta is outside
    {0, 1, 1/2} (Galt, Joshi, Mamontov, Shpectorov and Staroletov, Comm.
    Algebra 2021).  So a point is primitive, and b + c is iff b is not in B
    (else c = x - b is too), as B is closed (``Subalgebra``).  Any other
    axis is primitive iff ad_x - 1 has rank d - 1 on B: over Z at eta0 in
    evaluated mode (``closure.kernel_dims``), and over Q(eta) symbolically,
    as rank d - 1 at one point would prove it, but a lower one proves nothing.
    """
    x, mode = _axis(algebra, x), algebra.mode
    if _ambient_law(mode, x) is not None:
        return len(x) == 1 or not algebra.contains({min(x): mode.one()})
    if mode.is_symbolic:
        (image,) = _spans(algebra, _adjoint(algebra, x), [_poly((mode.one(),))])
        return algebra.dimension - len(image) == 1
    return kernel_dims(algebra, x, [1]) == (1,)


# ---------------------------------------------------------------------------
# Miyamoto maps
# ---------------------------------------------------------------------------

# the point permutation of the Miyamoto involution of a single axis p
miyamoto_point_map = verified_reflection


def permutation_matrix_on(algebra: Subalgebra, perm: Sequence[int]) -> list[list]:
    """Matrix of the permutation-induced linear map restricted to a
    subalgebra; requires invariance."""
    cols = []
    for row in algebra.basis.rows:
        coords = algebra.coordinates({perm[k]: v for k, v in row.items()})
        if coords is None:
            raise ValueError("subalgebra is not invariant under the permutation")
        cols.append(coords)
    return [list(r) for r in zip(*cols)]


@dataclass
class MiyamotoMap:
    """Involutive algebra automorphism acting as -1 on the odd part."""

    algebra: Subalgebra
    matrix: list[list]

    def apply_coords(self, coords: Sequence) -> list:
        terms = [(c, x) for c, x in enumerate(coords) if x]
        zero = self.algebra.mode.zero()
        return [sum((row[c] * x for c, x in terms if row[c]), zero) for row in self.matrix]

    def apply_vec(self, vec: Vec) -> Vec:
        coords = self.algebra.coordinates(vec)
        if coords is None:
            raise ValueError("vector outside the subalgebra")
        return self.algebra.row_vector(self.apply_coords(coords))

    def is_involution(self) -> bool:
        one, zero = self.algebra.mode.one(), self.algebra.mode.zero()
        return all(
            self.apply_coords(col) == [one if r == c else zero for r in range(len(col))]
            for c, col in enumerate(zip(*self.matrix))
        )

    def preserves_products(self) -> bool:
        """Whether the map phi preserves each b_i * b_j of the closed basis.
        On the walk ``Subalgebra._product_coordinates`` c_i c_j b_i b_j is
        the sum of scale * part(r_i, r_j), c_i the pivot entry of row
        r_i = c_i b_i, so phi preserves it iff the sum of
        scale * part(c_i phi b_i, c_j phi b_j) equals the sum of scale * sum
        of a_k phi(b_k), a the part's coordinates: one comparison in the
        mode's scalars.
        """
        alg = self.algebra
        span, parts, scales, pairs = alg._product_coordinates()
        images = [alg.row_vector(col) for col in zip(*self.matrix)]
        left = [vec_scale(t, row[p]) for t, row, p in zip(images, span.rows, span.pivot_of_row)]
        image = lambda a: vec_combination(map(images.__getitem__, a), a.values())  # phi(a)
        return all(
            vec_combination([part(left[i], left[j]) for part in parts], scales)
            == vec_combination(map(image, coords), scales)
            for i, j, coords in pairs
        )


def miyamoto_algebra_map(algebra: Subalgebra, x: Vec, law: FusionLaw) -> MiyamotoMap:
    """Identity on the even part, negation on the odd (eta) part.

    An axis under its ``_ambient_law`` (a point under J, Hall, Rehren and
    Shpectorov 2015; a double axis under M, Galt et al. 2021) has in the
    whole algebra A the involution that composes its points' reflections,
    each verified as a Fischer-space automorphism, so an automorphism of A.
    B_lambda = B meet A_lambda, so that permutation preserves B, closed by
    construction, and restricts to an automorphism of it: the route checks
    invariance (``permutation_matrix_on``) and the involution, and takes no
    product of images.  Any other axis or law is checked first, column c is
    e_c - 2 P_odd(e_c) in coordinates, and the map is checked to be an
    involution that preserves products.
    """
    restricted = law == _ambient_law(algebra.mode, algebra.mode.vector(x, "axis"))
    if restricted:
        perm = _composed_reflections(algebra.space, _axis(algebra, x))
        matrix = permutation_matrix_on(algebra, perm)
    elif (report := check_fusion(algebra, x, law)).passed:
        *even, odd = law.eigenvalues  # the eta part, last in both laws
        mirror = _poly(even, -2 / math.prod(odd - mu for mu in even))
        mirror[0] += 1  # I - 2 P_odd
        one, zero = algebra.mode.one(), algebra.mode.zero()
        adjoint = report.decomposition.adjoint
        columns = [_images(adjoint, [{c: one}], [mirror])[0] for c in range(algebra.dimension)]
        matrix = [[col.get(r, zero) for col in columns] for r in range(len(columns))]
    else:
        raise ValueError("fusion law fails; no Miyamoto involution")
    result = MiyamotoMap(algebra, matrix)
    if not result.is_involution() or not (restricted or result.preserves_products()):
        raise ValueError("constructed Miyamoto map is not an algebra involution")
    return result


def _composed_reflections(sp: FischerSpace, support: Iterable[int]) -> tuple[int, ...]:
    """The reflections of the points of support, composed in their order."""
    perm = tuple(range(len(sp.points)))
    for p in support:
        reflection = miyamoto_point_map(sp, p)
        perm = tuple(reflection[q] for q in perm)
    return perm


def tau_composition_identity(sp: FischerSpace, a: int, b: int) -> bool:
    """Exact check that the double axis a+b has tau equal to tau_a tau_b.

    With P = tau_a tau_b and x = a + b, it verifies for every point q that
    q - q^P is annihilated by (ad_x - eta) and q + q^P by
    (ad_x - 1) ad_x (ad_x - 2 eta).  That both splits the space into the even
    and odd parts and identifies the Miyamoto action with P.
    """
    if sp.collinear(a, b) or a == b:
        raise ValueError("double axis needs two distinct orthogonal points")
    perm = _composed_reflections(sp, (a, b))
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
