"""Flip involutions, orbit classification, fixed and flip subalgebras.

A flip is an involutive automorphism of a Fischer space.  Its point orbits
split the fixed subalgebra basis into singles (fixed points), doubles
(orthogonal orbit pairs), and extras (collinear orbit pairs); the flip
subalgebra is generated by the singles and doubles alone.  Every standard
flip is one pair (alpha, pi): a base-group automorphism alpha, given by the
images of its generators, acting on the letters of the points, and the
position involution pi = (1,2)(3,4)...; the inner flips are the pairs that
equal conjugation inside the wreath group.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import Vec, vec_product
from .closure import ScalarMode, Subalgebra, close, specialized_dimension
from .fischer import FischerSpace, build_named_space, is_space_automorphism, make_point
from .groups import automorphism_by_images


# family -> (ambient named family, images of the base-group generators under
# alpha).  WrA4's alpha is conjugation by (1,2)(3,4), so that flip is
# conjugation by the constant base element (1,2)(3,4) times pi; WrA4o's is
# conjugation by (3,4), outer on A4.
_FLIPS = {
    "W2A": ("W2A", {"g": "g"}),
    "W3A": ("W3A", {"g": "g"}),
    "W2D": ("W2D", {"e": "f", "f": "e"}),
    "WrA4": ("WrA4", {"(1,2,3)": "(1,4,2)", "(1,2)(3,4)": "(1,2)(3,4)"}),
    "WrA4o": ("WrA4", {"(1,2,3)": "(1,2,4)", "(1,2)(3,4)": "(1,2)(3,4)"}),
    "Wr3p2": ("Wr3p2", {"u": "v", "v": "u"}),
    "Wr3x3": ("Wr3x3", {"u": "v", "v": "u"}),
}

FLIP_FAMILIES = tuple(_FLIPS)

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

def standard_flip(family: str, k: int) -> FlipInvolution:
    """The standard flip of a family at n = 2k positions.

    It sends t.(i,j) to alpha(t).(pi(i), pi(j)), where pi = (1,2)(3,4)...
    swaps the positions in pairs and alpha is the automorphism of the base
    group given by the generator images in _FLIPS.  FlipInvolution checks
    that the result is an involutive automorphism of the space.
    """
    if family not in _FLIPS:
        raise ValueError(f"no standard flip for {family!r}; choose from {FLIP_FAMILIES}")
    if k < 1:
        raise ValueError("need k >= 1")
    ambient, images = _FLIPS[family]
    sp = build_named_space(ambient, 2 * k)
    alpha = automorphism_by_images(sp.base, images)

    def pi(i: int) -> int:
        return i + 1 if i % 2 else i - 1

    perm = tuple(
        sp.index[make_point(sp.base, alpha(p.t), pi(p.i), pi(p.j))] for p in sp.points
    )
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
    return report
