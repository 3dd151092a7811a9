"""Subalgebra generation: echelonized spans closed under the product.

The worklist multiplies each newly inserted basis row against every row
present at that moment, reduces the product, and inserts nonzero remainders;
bilinearity makes this cover all pairs of the final basis, so a terminated
run is a verified closure.  Everything works either over Q(eta) (symbolic
mode) or over Q at a fixed rational eta0 = n/d (evaluated mode).

Evaluated closures run over Z.  Generators are evaluated at eta0 and scaled
to primitive integer vectors, and the product is scaled by 2d to the integer
2d*H(u,v) + n*L(u,v), with H the coordinatewise (Hadamard) part and L the
line terms; scaling changes no span.  Each echelon row is then a positive
multiple of the unit-pivot row over Q, so pivots, row order and product
count are those over Q.  ``_unit_pivot_basis`` divides each integer row by
its pivot entry, once, when the closure is returned.  The specialize-last
walk runs over Z the same way.

A symbolic closure of generators with rational coefficients is certified
instead of run over Q(eta): the integer worklist runs at eta1 = 7, and if
the resulting span E is closed under the coordinatewise (Hadamard) product,
checked on the integer rows, E tensored with Q(eta) is the symbolic closure
(the proof is in ``close``); its unit-pivot rows become EtaScalar
constants.  eta1 need not be safe for the space, because ``vec_product`` has
no poles.  The Q(eta) worklist still runs when a generator coefficient
involves eta (``scalars.rational_vec`` decides), or when the check fails at
eta1.  Pivots are chosen in one place, ``EchelonBasis.insert``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, islice
from typing import Iterable, Optional, Sequence

from .algebra import (
    Vec,
    _IntEchelon,
    _make_primitive,
    critical_values,
    vec_add_scaled,
    vec_hadamard,
    vec_product,
)
from .fischer import FischerSpace
from .scalars import (
    HALF_ETA,
    EtaPoly,
    EtaScalar,
    PoleError,
    as_eta_scalar,
    evaluate_vec,
    poly_lcm,
    primitive_int_vec,
    rational_vec,
)


class UnsafeEtaError(ValueError):
    """Evaluated-mode eta that collides with a degenerate parameter value."""


# eta of the census search and the certifying point of symbolic closures
DEFAULT_SEARCH_ETA = Fraction(7)


# ---------------------------------------------------------------------------
# scalar modes
# ---------------------------------------------------------------------------

class ScalarMode:
    """Scalar domain of a computation: symbolic Q(eta) or evaluated at eta0."""

    __slots__ = ("eta0",)

    def __init__(self, eta0: Optional[Fraction] = None):
        if eta0 is not None:
            eta0 = Fraction(eta0)
            if eta0 in (Fraction(0), Fraction(1)):
                raise UnsafeEtaError("eta = 0 and eta = 1 are outside the parameter domain")
        self.eta0 = eta0

    @classmethod
    def symbolic(cls) -> "ScalarMode":
        return cls(None)

    @classmethod
    def evaluated(cls, eta0) -> "ScalarMode":
        return cls(Fraction(eta0))

    @property
    def is_symbolic(self) -> bool:
        return self.eta0 is None

    def one(self):
        return EtaScalar.one() if self.is_symbolic else Fraction(1)

    def zero(self):
        return EtaScalar.zero() if self.is_symbolic else Fraction(0)

    def eta(self):
        return EtaScalar.eta() if self.is_symbolic else self.eta0

    def half_eta(self):
        return HALF_ETA if self.is_symbolic else self.eta0 / 2

    def product_weights(self) -> tuple:
        """(half_eta, diagonal) arguments of ``vec_product`` for the rows of
        this mode's worklist: (eta/2, 1) over Q(eta); (n, 2d) over Z at
        eta0 = n/d, which gives 2d times the product."""
        if self.is_symbolic:
            return HALF_ETA, 1
        return self.eta0.numerator, 2 * self.eta0.denominator

    def is_safe_for(self, sp: FischerSpace) -> bool:
        """Safe evaluated mode: away from 1/2, 2, -1 and the rational
        critical values of the ambient space.  Symbolic mode is always safe."""
        if self.is_symbolic:
            return True
        if self.eta0 in (Fraction(1, 2), Fraction(2), Fraction(-1)):
            return False
        return self.eta0 not in critical_values(sp).roots

    def describe(self) -> str:
        return "symbolic" if self.is_symbolic else f"eta={self.eta0}"

    def __eq__(self, other):
        return isinstance(other, ScalarMode) and self.eta0 == other.eta0

    def __hash__(self):
        return hash(("ScalarMode", self.eta0))

    def __repr__(self):
        return f"ScalarMode({self.describe()})"


# ---------------------------------------------------------------------------
# echelon bases of sparse vectors
# ---------------------------------------------------------------------------

class EchelonBasis:
    """Reduced echelon family of sparse rows with unit pivots.

    Rows are stored in insertion order (the worklist order); the pivot map
    gives each pivot column's row.  Pivot columns are eliminated from every
    other row, so reduction is a single pass and coordinates can be read off
    at the pivots.
    """

    def __init__(self, mode: ScalarMode):
        self.mode = mode
        self.rows: list[Vec] = []
        self.pivot_of_row: list[int] = []
        self.row_of_pivot: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Vec) -> Vec:
        """Remainder of vec modulo the span.

        A row is zero at every other row's pivot, so subtracting it leaves
        the other pivot coefficients alone: one pass over the pivot columns
        in vec's support, with vec's own coefficients, reduces it.
        """
        work = dict(vec)
        for col, coef in vec.items():
            ridx = self.row_of_pivot.get(col)
            if ridx is not None:
                vec_add_scaled(work, self.rows[ridx], -coef)
        return work

    def coordinates(self, vec: Vec) -> Optional[list]:
        """Coefficients of vec on the rows, or None if vec is outside the span."""
        if self.reduce(vec):
            return None
        zero = self.mode.zero()
        return [vec.get(pivot, zero) for pivot in self.pivot_of_row]

    def contains(self, vec: Vec) -> bool:
        return not self.reduce(vec)

    def insert(self, vec: Vec) -> bool:
        """Reduce and insert; True when the span grew."""
        rem = self.reduce(vec)
        if not rem:
            return False
        pivot = min(rem)
        inv = self.mode.one() / rem[pivot]
        row = {k: v * inv for k, v in rem.items()}
        row[pivot] = self.mode.one()
        new_index = len(self.rows)
        # eliminate the new pivot column from the existing rows
        for other in self.rows:
            coef = other.get(pivot)
            if coef:
                vec_add_scaled(other, row, -coef)
        self.rows.append(row)
        self.pivot_of_row.append(pivot)
        self.row_of_pivot[pivot] = new_index
        return True

    def canonical_rows(self) -> tuple:
        """Unique reduced row echelon form of the span, leftmost pivots.

        Independent of insertion order and of the pivot choice; suitable
        for exact basis comparisons.  ``insert`` keeps two facts true: each
        row's leftmost entry is its unit pivot (a new row starts at its
        pivot p, and subtracting it changes only rows nonzero at p, at
        columns from p on, right of their own pivots), and every pivot
        column is zero in the other rows.  So the rows sorted by pivot
        already are that form.
        """
        order = sorted(range(len(self.rows)), key=self.pivot_of_row.__getitem__)
        return tuple(tuple(sorted(self.rows[r].items())) for r in order)


def _unit_pivot_basis(span: _IntEchelon, mode: ScalarMode) -> EchelonBasis:
    """The unit-pivot basis over Q of an integer echelon: each row divided by
    its pivot entry; same pivots, same order.  Entries are Fractions when
    the mode is evaluated and EtaScalar constants when symbolic; each
    distinct (entry, pivot entry) pair is divided once and its value shared,
    as scalars are immutable."""
    lift = EtaScalar if mode.is_symbolic else Fraction
    basis = EchelonBasis(mode)
    values: dict = {}
    for row, pivot in zip(span.rows, span.pivot_of_row):
        lead = row[pivot]
        unit = {}
        for k, c in row.items():
            v = values.get((c, lead))
            if v is None:
                v = values[c, lead] = lift(Fraction(c, lead))
            unit[k] = v
        basis.rows.append(unit)
    basis.pivot_of_row = span.pivot_of_row
    basis.row_of_pivot = span.row_of_pivot
    return basis


def _is_hadamard_closed(span: _IntEchelon) -> bool:
    """Whether the coordinatewise product of any two rows lies in the span;
    scaling rows changes neither the span nor the answer."""
    rows = span.rows
    for i, u in enumerate(rows):
        for v in rows[i:]:
            if span.reduce(vec_hadamard(u, v)):
                return False
    return True


# ---------------------------------------------------------------------------
# subalgebras
# ---------------------------------------------------------------------------

@dataclass
class Subalgebra:
    """Product-closed subspace with generator metadata."""

    space: FischerSpace
    mode: ScalarMode
    generators: list[tuple[Vec, str]]
    basis: EchelonBasis
    products_computed: int = 0
    _structure: Optional[list[list[Optional[dict[int, object]]]]] = field(
        default=None, repr=False
    )

    @property
    def dimension(self) -> int:
        return self.basis.dimension

    def contains(self, vec: Vec) -> bool:
        return self.basis.contains(vec)

    def coordinates(self, vec: Vec) -> Optional[list]:
        return self.basis.coordinates(vec)

    def row_vector(self, coords: Sequence) -> Vec:
        out: Vec = {}
        for c, row in zip(coords, self.basis.rows):
            if c:
                vec_add_scaled(out, row, c)
        return out

    def structure_constants(self) -> list[list[dict[int, object]]]:
        """Sparse tensor: entry [i][j] maps basis index k to the coefficient
        of basis_k in basis_i * basis_j.  Computed lazily, symmetric."""
        if self._structure is not None:
            return self._structure  # type: ignore[return-value]
        d = self.dimension
        half = self.mode.half_eta()
        tensor: list[list[dict[int, object]]] = [[None] * d for _ in range(d)]  # type: ignore[list-item]
        for i in range(d):
            for j in range(i, d):
                prod = vec_product(self.space, self.basis.rows[i], self.basis.rows[j], half)
                coords = self.basis.coordinates(prod)
                if coords is None:
                    raise ValueError("basis is not closed under the product")
                entry = {k: c for k, c in enumerate(coords) if c}
                tensor[i][j] = entry
                tensor[j][i] = entry
        self._structure = tensor
        return tensor

    def is_closed(self) -> bool:
        half = self.mode.half_eta()
        for i in range(self.dimension):
            for j in range(i, self.dimension):
                prod = vec_product(self.space, self.basis.rows[i], self.basis.rows[j], half)
                if self.basis.reduce(prod):
                    return False
        return True

    def export(self, include_structure: bool = False) -> dict:
        data = {
            "space": self.space.describe(),
            "mode": self.mode.describe(),
            "generators": [
                {"role": role, "vector": _vec_json(self.space, vec)}
                for vec, role in self.generators
            ],
            "dimension": self.dimension,
            "basis": [_vec_json(self.space, row) for row in self.basis.rows],
        }
        if include_structure:
            tensor = self.structure_constants()
            data["structure"] = [
                [{str(k): str(c) for k, c in cell.items()} for cell in row]
                for row in tensor
            ]
        return data

    def multiplication_table_csv(self) -> str:
        """CSV rows (row, col, expansion) of the basis products."""
        tensor = self.structure_constants()
        lines = ["row,col,expansion"]
        for i in range(self.dimension):
            for j in range(self.dimension):
                terms = " + ".join(
                    f"({c})*r{k}" for k, c in sorted(tensor[i][j].items())
                ) or "0"
                lines.append(f'{i},{j},"{terms}"')
        return "\n".join(lines) + "\n"


def _vec_json(sp: FischerSpace, vec: Vec) -> dict[str, str]:
    return {sp.labels[k]: str(vec[k]) for k in sorted(vec)}


def close(
    sp: FischerSpace,
    gens: Iterable[Vec],
    mode: ScalarMode,
    roles: Optional[Sequence[str]] = None,
) -> Subalgebra:
    """Smallest product-closed subspace containing the generators.

    In symbolic mode, generators with rational coefficients are certified
    rather than closed over Q(eta).  The product splits as
    u*v = H(u,v) + (eta/2) L(u,v), with H the coordinatewise (Hadamard)
    product and L the line terms, both rational.  Let E be the closure over
    Q at a rational eta1 != 0.  If H(E,E) lies in E, then so does
    L = (2/eta1)(*_eta1 - H), so E (x) Q(eta) is closed and contains the
    symbolic closure S.  E is spanned by product words in the generators
    whose values at eta1 are independent, hence independent over Q(eta),
    so S = E (x) Q(eta): the result carries E's rows and pivots, lifted to
    constants, and E's product count.  eta1 need not be safe for the space,
    since ``vec_product`` has no poles.  When the check fails (eta1
    degenerates the closure), or a generator coefficient involves eta, the
    Q(eta) worklist runs.  Zero coefficients are dropped from the
    generators, which must stay nonzero.  In evaluated mode the generators
    are evaluated at eta0 first; a pole there raises UnsafeEtaError.
    """
    gen_list = [{k: v for k, v in g.items() if v} for g in gens]
    if roles is None:
        roles = ["custom"] * len(gen_list)
    if not mode.is_symbolic:
        try:
            gen_list = [evaluate_vec(g, mode.eta0) for g in gen_list]
        except PoleError as exc:
            raise UnsafeEtaError(f"generator with a pole: {exc}") from exc
    if any(not g for g in gen_list):
        raise ValueError("generators must be nonzero")
    generators = list(zip(gen_list, roles))
    if mode.is_symbolic:
        lowered = [rational_vec(g) for g in gen_list]
        if all(g is not None for g in lowered):
            span, products = _worklist(sp, lowered, ScalarMode.evaluated(DEFAULT_SEARCH_ETA))
            if _is_hadamard_closed(span):
                return Subalgebra(sp, mode, generators, _unit_pivot_basis(span, mode), products)
        return Subalgebra(sp, mode, generators, *_worklist(sp, gen_list, mode))
    span, products = _worklist(sp, gen_list, mode)
    return Subalgebra(sp, mode, generators, _unit_pivot_basis(span, mode), products)


def _close_over_qeta(sp: FischerSpace, gens: Sequence[Vec]) -> Subalgebra:
    """The Q(eta) worklist without the certificate: the fallback of close,
    kept callable as the oracle for the certified route."""
    mode = ScalarMode.symbolic()
    return Subalgebra(sp, mode, [(g, "custom") for g in gens], *_worklist(sp, gens, mode))


def _worklist(
    sp: FischerSpace, vecs: Sequence[Vec], mode: ScalarMode
) -> tuple[EchelonBasis | _IntEchelon, int]:
    """Closed echelon basis of the vectors and the number of products taken.

    Symbolic mode runs over Q(eta) and returns an EchelonBasis; evaluated
    mode runs over Z, on rational vectors, and returns the _IntEchelon
    (module docstring)."""
    if mode.is_symbolic:
        basis = EchelonBasis(mode)
    else:
        basis = _IntEchelon()
        vecs = [primitive_int_vec(g) for g in vecs]
    weights = mode.product_weights()
    for g in vecs:
        basis.insert(g)
    products = 0
    cursor = 0
    while cursor < len(basis.rows):
        # rows are updated in place, so later products see new_row reduced
        new_row = basis.rows[cursor]
        limit = len(basis.rows)
        for j in range(limit):
            prod = vec_product(sp, new_row, basis.rows[j], *weights)
            products += 1
            if prod:
                basis.insert(prod)
        cursor += 1
    return basis, products


def reclose(subalgebra: Subalgebra) -> Subalgebra:
    """Close the basis rows again; a closure operator adds nothing."""
    return close(
        subalgebra.space,
        [dict(r) for r in subalgebra.basis.rows],
        subalgebra.mode,
    )


def is_direct_sum(subalgebra: Subalgebra, partition: Sequence[Sequence[int]]) -> bool:
    """True iff the closures of the generator groups meet only in 0, pairwise
    annihilate each other, and their dimensions add up."""
    gens = subalgebra.generators
    seen = sorted(i for part in partition for i in part)
    if seen != list(range(len(gens))):
        raise ValueError("partition must cover the generators exactly once")
    parts = [
        close(subalgebra.space, [gens[i][0] for i in part], subalgebra.mode)
        for part in partition
    ]
    if sum(p.dimension for p in parts) != subalgebra.dimension:
        return False
    half = subalgebra.mode.half_eta()
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            for u in parts[a].basis.rows:
                for v in parts[b].basis.rows:
                    if vec_product(subalgebra.space, u, v, half):
                        return False
    return True


def consistency_check(
    sp: FischerSpace,
    gens: Sequence[Vec],
    eta0,
    allow_unsafe: bool = False,
) -> bool:
    """Symbolic dimension equals the dimension evaluated at eta0.

    Generators are given symbolically; their evaluated twins are obtained by
    scalar evaluation.  For rational generators the symbolic side is the
    certificate of ``close``: a closure over Q at eta1 = 7 whose span is
    closed under the coordinatewise product (eta1 need not be safe, since
    ``vec_product`` has no poles); generators involving eta, or a failed
    check, are closed over Q(eta).
    """
    eta0 = Fraction(eta0)
    ev_mode = ScalarMode.evaluated(eta0)
    if not ev_mode.is_safe_for(sp) and not allow_unsafe:
        raise UnsafeEtaError(
            f"eta = {eta0} is a degenerate parameter for this space;"
            " pass allow_unsafe to compare anyway"
        )
    sym = close(sp, gens, ScalarMode.symbolic())
    ev = close(sp, gens, ev_mode)
    return sym.dimension == ev.dimension


# ---------------------------------------------------------------------------
# specialize-last dimensions
# ---------------------------------------------------------------------------

def _poly_vec(vec: Vec) -> dict[int, EtaPoly]:
    """Clear a sparse vector to polynomial coefficients (row-wise lcm)."""
    scalars = {k: as_eta_scalar(v) for k, v in vec.items()}
    lcm = EtaPoly.one()
    for v in scalars.values():
        lcm = poly_lcm(lcm, v.den)
    return {k: v.num * (lcm // v.den) for k, v in scalars.items()}


# Candidates for the certifying point eta1: integers from _ETA1_START up,
# skipping eta0.  Degenerate values are finitely many, so a correct symbolic
# dimension is reached within a few; _ETA1_ATTEMPTS misses mean it is wrong.
_ETA1_START = 3
_ETA1_ATTEMPTS = 16


def specialized_dimension(subalgebra: Subalgebra, eta0) -> int:
    """Specialize-last dimension of a symbolic closure at eta = eta0.

    Walks the division-free product tree of the generators (denominators
    cleared row-wise), carrying each Q[eta] node only as its values at eta0
    and at a second point eta1; evaluation is a ring homomorphism, so each
    product is taken in evaluated mode at both points.  A node joins the
    worklist when it grows either echelon.  On termination the eta0 span
    contains the evaluated generators and is product-closed, hence is the
    evaluated closure: its rank is the specialized dimension.

    Values independent at eta1 are independent over Q(eta), so the eta1
    rank is at most the Q(eta) rank of the nodes, which is at most the
    symbolic dimension.  Equality certifies that the nodes span the symbolic
    closure; a smaller rank marks eta1 degenerate, and the walk is repeated
    at the next candidate.
    """
    if not subalgebra.mode.is_symbolic:
        raise ValueError("specialization needs a symbolic closure")
    mode0 = ScalarMode.evaluated(eta0)
    gens = [_poly_vec(vec) for vec, _ in subalgebra.generators]
    candidates = (e for e in count(_ETA1_START) if e != mode0.eta0)
    for eta1 in islice(candidates, _ETA1_ATTEMPTS):
        modes = (mode0, ScalarMode.evaluated(eta1))
        rank0, rank1 = _walk_at(subalgebra.space, gens, modes)
        if rank1 >= subalgebra.dimension:
            break
    if rank1 != subalgebra.dimension:
        raise RuntimeError(
            f"division-free closure has rank {rank1} at eta1 = {eta1},"
            f" not the symbolic dimension {subalgebra.dimension}"
        )
    return rank0


def _walk_at(
    sp: FischerSpace, gens: Sequence[dict[int, EtaPoly]], modes: Sequence[ScalarMode]
) -> list[int]:
    """Ranks at each evaluated mode of the product tree of the generators.

    Runs over Z: at each point a node is kept as a primitive integer
    multiple of its value, and products are scaled products, so whether a
    node grows an echelon, and hence every rank, is unchanged."""
    bases = [_IntEchelon() for _ in modes]
    weights = [m.product_weights() for m in modes]
    worklist: list[tuple[Vec, ...]] = []

    def offer(node: tuple[Vec, ...]) -> None:
        grew = [basis.insert(v) for basis, v in zip(bases, node)]
        if any(grew):
            worklist.append(node)

    for g in gens:
        offer(tuple(primitive_int_vec(evaluate_vec(g, m.eta0)) for m in modes))
    # the worklist grows while it is walked; the product is commutative, so
    # each unordered pair is taken once, when its later node is the left one
    for i, left in enumerate(worklist):
        for right in worklist[: i + 1]:
            offer(tuple(
                _make_primitive(vec_product(sp, a, b, *w))
                for a, b, w in zip(left, right, weights)
            ))
    return [len(basis.rows) for basis in bases]

