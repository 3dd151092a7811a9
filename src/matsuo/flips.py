"""Flip involutions, orbit classification, fixed and flip subalgebras.

A flip is an involutive automorphism of a Fischer space.  Its point orbits
split the fixed subalgebra basis into singles (fixed points), doubles
(orthogonal orbit pairs), and extras (collinear orbit pairs); the flip
subalgebra is generated by the singles and doubles alone.  Inner flips are
realized by literal conjugation inside the wreath group; letter flips by a
validated base-group automorphism composed with the position involution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Optional, Sequence

from .algebra import Vec, vec_product
from .axial import check_primitive
from .closure import ScalarMode, Subalgebra, close, specialized_dimension
from .fischer import (
    FischerSpace,
    build_named_space,
    is_space_automorphism,
    make_point,
    w_conj,
)
from .groups import FiniteGroup, GroupAutomorphism, _cycle_label, e27_mul


FLIP_FAMILIES = ("W2A", "W3A", "W2D", "WrA4", "WrA4o", "Wr3p2", "Wr3x3")

_SPACE_OF_FLIP = {
    "W2A": "W2A",
    "W3A": "W3A",
    "W2D": "W2D",
    "WrA4": "WrA4",
    "WrA4o": "WrA4",
    "Wr3p2": "Wr3p2",
    "Wr3x3": "Wr3x3",
}

FIXED_DIM_FORMULA = {
    "W2A": lambda k: 2 * k * k,
    "W3A": lambda k: 3 * k * k - k,
    "W2D": lambda k: 4 * k * k - k,
    "WrA4": lambda k: 12 * k * k - 4 * k,
    "WrA4o": lambda k: 12 * k * k - 3 * k,
    "Wr3p2": lambda k: 27 * k * k - 9 * k,
    "Wr3x3": lambda k: 9 * k * k - 3 * k,
}

ORBIT_COUNT_FORMULA = {
    # family -> (singles, doubles, extras) as functions of k
    "W2A": (lambda k: 2 * k, lambda k: 2 * (k * k - k), lambda k: 0),
    "W3A": (lambda k: k, lambda k: 3 * (k * k - k), lambda k: k),
    "W2D": (lambda k: 2 * k, lambda k: 4 * k * k - 3 * k, lambda k: 0),
    "WrA4": (lambda k: 4 * k, lambda k: 12 * k * (k - 1), lambda k: 4 * k),
    "WrA4o": (lambda k: 6 * k, lambda k: 12 * k * k - 9 * k, lambda k: 0),
    "Wr3p2": (lambda k: 9 * k, lambda k: 27 * k * (k - 1), lambda k: 9 * k),
    "Wr3x3": (lambda k: 3 * k, lambda k: 9 * k * (k - 1), lambda k: 3 * k),
}


@dataclass
class FlipInvolution:
    """Involutive space automorphism with its construction provenance."""

    space: FischerSpace
    perm: tuple[int, ...]
    provenance: dict

    def __post_init__(self):
        n = len(self.space.points)
        if sorted(self.perm) != list(range(n)):
            raise ValueError("flip is not a permutation of the points")
        if any(self.perm[self.perm[q]] != q for q in range(n)):
            raise ValueError("flip is not an involution")
        if not is_space_automorphism(self.space, self.perm):
            raise ValueError("flip does not preserve the line set")

    def __call__(self, p: int) -> int:
        return self.perm[p]


@dataclass
class OrbitDecomposition:
    """Partition of the points of a flip into singles, doubles, extras."""

    space: FischerSpace
    singles: tuple[int, ...]
    doubles: tuple[tuple[int, int], ...]
    extras: tuple[tuple[int, int], ...]

    def counts(self) -> tuple[int, int, int]:
        return (len(self.singles), len(self.doubles), len(self.extras))

    def orbit_count(self) -> int:
        return len(self.singles) + len(self.doubles) + len(self.extras)

    def orbits(self) -> list[tuple[int, ...]]:
        out: list[tuple[int, ...]] = [(s,) for s in self.singles]
        out.extend(self.doubles)
        out.extend(self.extras)
        return out


def classify_orbits(sp: FischerSpace, tau: FlipInvolution) -> OrbitDecomposition:
    """Orbit kinds are decided by the collinearity oracle, never by formula."""
    if tau.space is not sp:
        raise ValueError("flip belongs to a different space")
    singles: list[int] = []
    doubles: list[tuple[int, int]] = []
    extras: list[tuple[int, int]] = []
    for p in range(len(sp.points)):
        q = tau.perm[p]
        if q == p:
            singles.append(p)
        elif p < q:
            if sp.collinear(p, q):
                extras.append((p, q))
            else:
                doubles.append((p, q))
    return OrbitDecomposition(sp, tuple(singles), tuple(doubles), tuple(extras))


# ---------------------------------------------------------------------------
# the standard constructions
# ---------------------------------------------------------------------------

def _position_involution(k: int) -> list[int]:
    """(1,2)(3,4)...(2k-1,2k) as a 1-based image list of length 2k."""
    pi = [0] * (2 * k + 1)
    for i in range(1, k + 1):
        pi[2 * i - 1] = 2 * i
        pi[2 * i] = 2 * i - 1
    return pi


def _conjugation_flip(sp: FischerSpace, welem) -> tuple[int, ...]:
    from .fischer import elem_to_point, point_to_elem

    group, n = sp.base, sp.n
    perm = []
    for p in sp.points:
        image = elem_to_point(group, w_conj(group, point_to_elem(group, n, p), welem))
        if image is None:
            raise ValueError("conjugation left the point class")
        perm.append(sp.index[image])
    return tuple(perm)


def _letter_flip(sp: FischerSpace, alpha: GroupAutomorphism, pi: Sequence[int]) -> tuple[int, ...]:
    perm = []
    for p in sp.points:
        image = make_point(sp.base, alpha(p.t), pi[p.i], pi[p.j])
        perm.append(sp.index[image])
    return tuple(perm)


def _w2a_style_flip(sp: FischerSpace, k: int) -> tuple[int, ...]:
    # conjugation by the product of the points b(1,2), b(3,4), ...
    base = [0] * sp.n
    pi = _position_involution(k)
    perm = tuple(pi[i + 1] - 1 for i in range(sp.n))
    return _conjugation_flip(sp, (tuple(base), perm))


def _a4_inner_flip(sp: FischerSpace) -> tuple[int, ...]:
    group = sp.base
    sigma = group.index_of("(1,2)(3,4)")
    k = sp.n // 2
    pi = _position_involution(k)
    perm = tuple(pi[i + 1] - 1 for i in range(sp.n))
    return _conjugation_flip(sp, (tuple([sigma] * sp.n), perm))


def _e27_swap_automorphism(group: FiniteGroup) -> GroupAutomorphism:
    """u <-> v; w = [u, v] goes to its inverse.

    The image of u^r v^s w^t is built by normal-form multiplication of the
    swapped generator powers v^r u^s w^-t, so no hand-derived exponent
    formula enters; the homomorphism check validates the result.
    """

    def image(t: int) -> int:
        r, rem = divmod(t, 9)
        s, tt = divmod(rem, 3)
        acc = (0, 0, 0)
        for _ in range(r):
            acc = e27_mul(acc, (0, 1, 0))  # v
        for _ in range(s):
            acc = e27_mul(acc, (1, 0, 0))  # u
        for _ in range((-tt) % 3):
            acc = e27_mul(acc, (0, 0, 1))  # w
        return acc[0] * 9 + acc[1] * 3 + acc[2]

    return GroupAutomorphism(group, tuple(image(t) for t in range(group.order)))


def _c3c3_swap_automorphism(group: FiniteGroup) -> GroupAutomorphism:
    def image(t: int) -> int:
        r, s = divmod(t, 3)
        return s * 3 + r

    return GroupAutomorphism(group, tuple(image(t) for t in range(group.order)))


def standard_flip(family: str, k: int) -> FlipInvolution:
    """The standard flip of a family at n = 2k positions."""
    if family not in FLIP_FAMILIES:
        raise ValueError(f"no standard flip for {family!r}; choose from {FLIP_FAMILIES}")
    if k < 1:
        raise ValueError("need k >= 1")
    n = 2 * k
    sp = build_named_space(_SPACE_OF_FLIP[family], n)
    pi = _position_involution(k)
    if family in ("W2A", "W3A"):
        perm = _w2a_style_flip(sp, k)
    elif family == "W2D":
        group = sp.base
        swap = {
            group.index_of("1"): group.index_of("1"),
            group.index_of("e"): group.index_of("f"),
            group.index_of("f"): group.index_of("e"),
            group.index_of("ef"): group.index_of("ef"),
        }
        alpha = GroupAutomorphism(group, tuple(swap[t] for t in range(group.order)))
        perm = _letter_flip(sp, alpha, pi)
    elif family == "WrA4":
        perm = _a4_inner_flip(sp)
    elif family == "WrA4o":
        # conjugation by the transposition (3,4); outer on A4
        by_label = {_cycle_label(p): p for p in permutations(range(4))}
        perms = [by_label[lab] for lab in sp.base.labels]
        index = {p: t for t, p in enumerate(perms)}
        swap = (0, 1, 3, 2)
        conj = tuple(index[tuple(swap[p[swap[i]]] for i in range(4))] for p in perms)
        alpha = GroupAutomorphism(sp.base, conj)
        perm = _letter_flip(sp, alpha, pi)
    elif family == "Wr3p2":
        alpha = _e27_swap_automorphism(sp.base)
        perm = _letter_flip(sp, alpha, pi)
    else:  # Wr3x3
        alpha = _c3c3_swap_automorphism(sp.base)
        perm = _letter_flip(sp, alpha, pi)
    return FlipInvolution(sp, perm, {"family": family, "k": k})


# ---------------------------------------------------------------------------
# fixed and flip subalgebras
# ---------------------------------------------------------------------------

def orbit_vector(orbit: Sequence[int], one) -> Vec:
    return {p: one for p in orbit}


def fixed_subalgebra_basis(
    sp: FischerSpace, tau: FlipInvolution, mode: Optional[ScalarMode] = None
) -> list[Vec]:
    """One orbit vector per orbit; the natural basis of the fixed subalgebra."""
    if mode is None:
        mode = ScalarMode.symbolic()
    dec = classify_orbits(sp, tau)
    one = mode.one()
    return [orbit_vector(orbit, one) for orbit in dec.orbits()]


def fixed_span_is_closed(sp: FischerSpace, dec: OrbitDecomposition, mode: ScalarMode) -> bool:
    """Products of orbit vectors stay in the orbit-vector span.

    A vector lies in the span iff its coefficients are constant along every
    orbit, which is checked directly on each pairwise product.
    """
    orbit_of = {}
    orbits = dec.orbits()
    for oi, orbit in enumerate(orbits):
        for p in orbit:
            orbit_of[p] = oi
    one = mode.one()
    half = mode.half_eta()
    vectors = [orbit_vector(o, one) for o in orbits]
    for i in range(len(vectors)):
        for j in range(i, len(vectors)):
            prod = vec_product(sp, vectors[i], vectors[j], half)
            by_orbit: dict[int, list] = {}
            for p, c in prod.items():
                by_orbit.setdefault(orbit_of[p], []).append((p, c))
            for oi, entries in by_orbit.items():
                if len(entries) != len(orbits[oi]):
                    return False
                vals = {str(c) for _, c in entries}
                if len(vals) != 1:
                    return False
    return True


def flip_subalgebra(sp: FischerSpace, tau: FlipInvolution, mode: ScalarMode) -> Subalgebra:
    """Closure of the singles and doubles orbit vectors."""
    dec = classify_orbits(sp, tau)
    one = mode.one()
    gens: list[Vec] = []
    roles: list[str] = []
    for s in dec.singles:
        gens.append({s: one})
        roles.append("single")
    for pair in dec.doubles:
        gens.append(orbit_vector(pair, one))
        roles.append("double")
    return close(sp, gens, mode, roles=roles)


def flip_report(
    family: str,
    k: int,
    etas: Sequence = (),
    check_doubles_primitive: bool = False,
) -> dict:
    """Counts, fixed dimension, and flip dimensions per requested mode.

    The symbolic flip dimension is always computed.  Each requested eta is
    entered twice and both entries must agree: the flip closure recomputed
    in evaluated mode, and the symbolic closure specialized last.  The
    second walks the product tree of the generators at eta and at a second
    point eta1, whose rank must reach the symbolic dimension; see
    ``specialized_dimension``.
    """
    tau = standard_flip(family, k)
    sp = tau.space
    dec = classify_orbits(sp, tau)
    singles, doubles, extras = dec.counts()
    fixed_dim = dec.orbit_count()
    symbolic = flip_subalgebra(sp, tau, ScalarMode.symbolic())
    report: dict = {
        "family": family,
        "k": k,
        "space": sp.describe(),
        "singles": singles,
        "doubles": doubles,
        "extras": extras,
        "fixed_dim": fixed_dim,
        "flip_dim_symbolic": symbolic.dimension,
        "flip_dims_at": {},
        "flip_equals_fixed": symbolic.dimension == fixed_dim,
        "provenance": "computed",
    }
    if family == "Wr3x3":
        report["extras_note"] = (
            "extras counted from orbits via the collinearity oracle;"
            " the closed-form count is 3k orbit pairs"
        )
    for eta0 in etas:
        eta0 = Fraction(eta0)
        ev = flip_subalgebra(sp, tau, ScalarMode.evaluated(eta0))
        spec_dim = specialized_dimension(symbolic, eta0)
        if spec_dim != ev.dimension:
            raise RuntimeError(
                f"double-entry mismatch at eta={eta0}: evaluated closure has"
                f" dimension {ev.dimension}, specialized symbolic basis has"
                f" rank {spec_dim}"
            )
        report["flip_dims_at"][str(eta0)] = ev.dimension
    if check_doubles_primitive:
        fixed = close(
            sp,
            fixed_subalgebra_basis(sp, tau),
            ScalarMode.symbolic(),
        )
        one = ScalarMode.symbolic().one()
        report["doubles_primitive_in_fixed"] = all(
            check_primitive(fixed, orbit_vector(pair, one)) for pair in dec.doubles
        )
    return report
