"""Fischer spaces as labelled third-point tables.

A ``FischerSpace`` is its points, their labels and its third-point table,
the engine's one definition of a line; it does no group arithmetic, and
``subspace`` gives the space on a point set closed under third points.
``build_wreath_space`` builds the space of Wr(T, n), whose points t.(i,j) =
t_i t_j^-1 (i,j) are collinear when their product has order three, the
third point being the conjugate of one by the other.  It fills the table
from the closed formulas, block by block; literal conjugation inside the
wreath group is the test suite's independent per-pair oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .groups import FiniteGroup, builtin_group, validate_orders


class ThreeTranspositionError(ValueError):
    """Base group with an element of order > 3."""


class InvalidConfigurationError(ValueError):
    """A diagram request violating the double-axis orthogonality constraints."""


# A point t.(i,j): group element index t, positions 1 <= i < j <= n.
@dataclass(frozen=True, order=True)
class Point:
    i: int
    j: int
    t: int

    def __post_init__(self):
        if not (1 <= self.i < self.j):
            raise ValueError(f"positions must satisfy i < j, got ({self.i}, {self.j})")


def make_point(group: FiniteGroup, t: int, i: int, j: int) -> Point:
    """Normalized point; t.(i,j) and t^-1.(j,i) are the same element."""
    if i == j:
        raise ValueError("point positions must differ")
    if i > j:
        return Point(j, i, group.inverse(t))
    return Point(i, j, t)


# ---------------------------------------------------------------------------
# the space
# ---------------------------------------------------------------------------

def components(n: int, adjacent: Callable[[int, int], bool]) -> list[list[int]]:
    """Connected components of the graph on 0..n-1 whose edges are the pairs
    v, w with adjacent(v, w), which must be symmetric.  Each component is
    sorted, and they come in the order of their least vertex."""
    seen = [False] * n
    comps = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        comp = [root]
        for v in comp:  # grows while iterating: a breadth-first search
            for w in range(n):
                if not seen[w] and adjacent(v, w):
                    seen[w] = True
                    comp.append(w)
        comps.append(sorted(comp))
    return comps


def _lines(third: Sequence[Sequence[int]]) -> Iterator[tuple[int, int, int]]:
    """Each line of a third-point table once, as its sorted triple p < q < r,
    in lexicographic order; raise unless the table is a symmetric set of
    lines: every r = third[p][q] >= 0 has third[q][p] = r, third[p][r] = q."""
    for p, row in enumerate(third):
        for q, r in enumerate(row):
            if r >= 0 and (third[q][p] != r or row[r] != q):
                raise ThreeTranspositionError(
                    f"third-point table is not a line set at points {p}, {q}"
                )
            if p < q < r:
                yield p, q, r


class FischerSpace:
    """Indexed point set with its third-point table and line list.

    third[p][q] is the third point of the line through p and q, or -1.
    base, n and family name the wreath product Wr(base, n) whose space this
    is or lies in, for ``describe``, ``export`` and the standard flips.  Data
    derived from the space is kept in ``derived`` by ``cached_on_space``.
    """

    def __init__(
        self,
        third: list[list[int]],
        points: Sequence[Point],
        labels: Sequence[str],
        base: FiniteGroup,
        n: int,
        family: Optional[str] = None,
    ):
        if {len(labels), len(third), *map(len, third)} != {len(points)}:
            raise ValueError("a space needs one label, one table row and one column per point")
        self.lines: tuple[tuple[int, int, int], ...] = tuple(_lines(third))
        self.third = third
        self.points: tuple[Point, ...] = tuple(points)
        self.labels: tuple[str, ...] = tuple(labels)
        self.base, self.n, self.family = base, n, family
        self.derived: dict = {}
        self.index: dict[Point, int] = {p: k for k, p in enumerate(self.points)}
        self.label_index: dict[str, int] = {lab: k for k, lab in enumerate(self.labels)}

    # -- lines ---------------------------------------------------------------

    def iter_lines(self) -> Iterator[tuple[int, int, int]]:
        return iter(self.lines)

    def line_count(self) -> int:
        return len(self.lines)

    def has_line(self, line: tuple[int, int, int]) -> bool:
        p, q, r = line
        return self.third[p][q] == r

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.points)

    def collinear(self, p: int, q: int) -> bool:
        return self.third[p][q] >= 0

    def degree(self, p: int) -> int:
        """Number of lines through point p."""
        partners = sum(1 for r in self.third[p] if r >= 0)
        assert partners % 2 == 0
        return partners // 2

    def is_connected(self) -> bool:
        return len(components(len(self.points), self.collinear)) == 1

    def point_of_label(self, label: str) -> int:
        try:
            return self.label_index[label.replace(" ", "")]
        except KeyError:
            raise KeyError(f"no point labelled {label!r} in this space") from None

    def describe(self) -> str:
        fam = self.family or f"Wr({self.base.name},{self.n})"
        return f"{fam}: {len(self.points)} points, {self.line_count()} lines"

    def export(self) -> dict:
        """JSON-ready space description."""
        return {
            "family": self.family,
            "n": self.n,
            "base_group": self.base.name,
            "points": [
                {"label": self.labels[k], "t": p.t, "i": p.i, "j": p.j}
                for k, p in enumerate(self.points)
            ],
            "lines": [list(line) for line in self.iter_lines()],
        }


def build_wreath_space(
    base: FiniteGroup, n: int, family: Optional[str] = None, letters: Optional[dict] = None
) -> FischerSpace:
    """The Fischer space of Wr(base, n): |T| * n(n-1)/2 points t.(i,j) in
    lexicographic order of (i, j, t-index), the basis order of the Matsuo
    algebra and every export.  t.(i,j) is labelled letter(i,j), letter =
    letters[label of t], or letter(j,i) when the letter is primed, and
    "t.(i,j)" without letters.

    The table is filled block by block: the block of position pairs P, Q
    holds the entries between t.P and s.Q.  Disjoint P and Q commute, so
    their block stays -1.  On P = Q, t and s are joined, with third point
    s t^-1 s, exactly when s t^-1 has order three.  Otherwise P and Q share
    one position m, and a.(x,m), b.(m,y) are joined, with third point
    (ab).(x,y).  Entries are shared int objects of one list, not copies.
    """
    if n < 2:
        raise ValueError("need at least two positions")
    if not validate_orders(base):
        raise ThreeTranspositionError(
            f"{base.name} has an element of order > 3; the class of a"
            " transposition is not a set of 3-transpositions"
        )
    order, mul, inv = base.order, base.table, base.inv
    ident = range(order)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    points = [Point(i, j, t) for i, j in pairs for t in ident]
    ids = list(range(len(points)))
    third = [[-1] * len(points) for _ in ids]
    offset = {pair: k * order for k, pair in enumerate(pairs)}  # index of 0.P
    # same[t][s]: the r with r.P the third point of t.P and s.P, or -1
    same = [[-1] * order for _ in ident]
    for t in ident:
        for s in ident:
            d = mul[s][inv[t]]
            if base.element_order(d) == 3:
                same[t][s] = mul[d][s]
    for P in pairs:
        p0 = offset[P]
        for Q in pairs:
            q0, shared = offset[Q], set(P) & set(Q)
            if P == Q:
                for t in ident:
                    third[p0 + t][q0:q0 + order] = [-1 if r < 0 else ids[p0 + r] for r in same[t]]
            elif shared:
                # orient t.P as a.(x, m) and s.Q as b.(m, y)
                (m,) = shared
                amap, x = (ident, P[0]) if P[1] == m else (inv, P[1])
                bmap, y = (ident, Q[1]) if Q[0] == m else (inv, Q[0])
                r0, cmap = (offset[x, y], ident) if x < y else (offset[y, x], inv)
                for t in ident:
                    row_a = mul[amap[t]]
                    third[p0 + t][q0:q0 + order] = [ids[r0 + cmap[row_a[b]]] for b in bmap]

    def label(p: Point) -> str:
        letter = letters[base.labels[p.t]] if letters else f"{base.labels[p.t]}."
        if letter.endswith("'"):
            return f"{letter[:-1]}({p.j},{p.i})"
        return f"{letter}({p.i},{p.j})"

    return FischerSpace(third, points, [label(p) for p in points], base, n, family)


def subspace(sp: FischerSpace, support: Iterable[int]) -> tuple[FischerSpace, tuple[int, ...]]:
    """The space induced on a point set closed under third points, and its
    embedding: point k of the subspace is point embedding[k] of sp, with its
    labels and aliases, and sp's base, n and family.  ValueError when the
    set is not closed or not a set of points of sp."""
    embedding = tuple(sorted(set(support)))
    if embedding and (embedding[0] < 0 or embedding[-1] >= len(sp.points)):
        raise ValueError("support names a point outside the space")
    local = dict(zip(embedding, range(len(embedding))))
    local[-1] = -1  # not collinear
    try:
        third = [[local[r] for r in map(sp.third[p].__getitem__, embedding)] for p in embedding]
    except KeyError as exc:
        raise ValueError(f"support is not closed under third points: misses {exc}") from None
    points = list(map(sp.points.__getitem__, embedding))
    labels = list(map(sp.labels.__getitem__, embedding))
    sub = FischerSpace(third, points, labels, sp.base, sp.n, sp.family)
    sub.label_index.update((lab, local[k]) for lab, k in sp.label_index.items() if k in local)
    return sub, embedding


def cached_on_space(build: Callable[[FischerSpace], object]):
    """build(sp), computed once per space and kept in ``sp.derived`` under
    build's name; a build that raises stores nothing."""
    name = build.__name__

    @functools.wraps(build)
    def cached(sp: FischerSpace):
        if name not in sp.derived:
            sp.derived[name] = build(sp)
        return sp.derived[name]

    return cached


def third_point(sp: FischerSpace, p: Point, q: Point) -> Optional[Point]:
    """Third point of the line through p and q, or None if not collinear."""
    if p == q:
        raise ValueError("third point needs two distinct points")
    r = sp.third[sp.index[p]][sp.index[q]]
    return sp.points[r] if r >= 0 else None


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------

# family -> (base group, point letter by element label).  A letter names
# t.(i,j) as letter(i,j); a primed letter shows the positions swapped, so
# W3A's "g2": "c'" reads c(j,i).  A family without letters keeps the generic
# labels t.(i,j).
_NAMED = {
    "A": ("C1", {"1": "b"}),
    "W2A": ("C2", {"1": "b", "g": "c"}),
    "W3A": ("C3", {"1": "b", "g": "c", "g2": "c'"}),
    "W2D": ("V4", {"1": "b", "e": "c", "f": "d", "ef": "e"}),
    "W3D": ("S3", {"1": "b", "e": "c", "f": "d", "f^2": "d'", "f*e": "e", "f^2*e": "f"}),
    "WrA4": ("A4", {}),
    "Wr3p2": ("E27", {}),
    "Wr3x3": ("C3xC3", {}),
}

NAMED_FAMILIES = tuple(_NAMED)


def build_named_space(family: str, n: int) -> FischerSpace:
    """Named family with the conventional point labels attached."""
    if family not in NAMED_FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {NAMED_FAMILIES}")
    if family == "A" and n < 3:
        raise ValueError("family A needs n >= 3")
    group, letters = _NAMED[family]
    sp = build_wreath_space(builtin_group(group), n, family, letters)
    if family == "W3D":
        # Accept the alternative name g(j,i) for the point labelled d(i,j).
        for k, lab in enumerate(sp.labels):
            if lab.startswith("d("):
                i, j = lab[2:-1].split(",")
                sp.label_index[f"g({j},{i})"] = k
    return sp


def parse_space_spec(spec: str) -> FischerSpace:
    """Build a named space from a "FAMILY:n" string, e.g. "W3A:4"."""
    try:
        family, n_text = spec.split(":")
        n = int(n_text)
    except ValueError:
        raise ValueError(f"bad space spec {spec!r}; expected FAMILY:n") from None
    return build_named_space(family, n)


# ---------------------------------------------------------------------------
# automorphisms and diagrams
# ---------------------------------------------------------------------------

def is_space_automorphism(sp: FischerSpace, perm: Sequence[int]) -> bool:
    """True iff perm is a bijection on points mapping lines to lines."""
    npts = len(sp.points)
    if len(perm) != npts or sorted(perm) != list(range(npts)):
        return False
    third = sp.third
    return all(third[perm[p]][perm[q]] == perm[r] for p, q, r in sp.iter_lines())


def reflection_map(sp: FischerSpace, c: int) -> tuple[int, ...]:
    """Point permutation of the Miyamoto reflection tau_c (conjugation by c).

    Fixes c and every point not collinear with c; on each line through c it
    swaps the other two points.  Unchecked: see verified_reflection.
    """
    return tuple(q if r < 0 else r for q, r in enumerate(sp.third[c]))


def verified_reflection(sp: FischerSpace, c: int) -> tuple[int, ...]:
    """reflection_map(sp, c), raising ValueError unless it maps lines to lines."""
    perm = reflection_map(sp, c)
    if not is_space_automorphism(sp, perm):
        raise ValueError(f"reflection of point {c} failed the automorphism check")
    return perm


@cached_on_space
def point_orbits(sp: FischerSpace) -> tuple[tuple[int, ...], ...]:
    """Point orbits under a group generated by verified reflections.

    Each orbit is sorted and starts with its representative, its least point.
    An orbit grows by the reflection tau_{third(p, x)}, which swaps a member p
    with a collinear outsider x, and is closed under every reflection taken so
    far.  It stops growing once no outsider is collinear with a member, so
    the orbits are the connected components, each certified transitive.
    Every generator passes is_space_automorphism, hence commutes with the
    collinearity adjacency matrix.  Cached on the space.
    """
    third = sp.third
    npts = len(sp.points)
    orbit_of = [-1] * npts
    gens: list[tuple[int, ...]] = []
    orbits = []
    for rep in range(npts):
        if orbit_of[rep] >= 0:
            continue
        k = len(orbits)
        orbit_of[rep] = k
        orbit = [rep]
        while True:
            for p in orbit:  # grows while iterating: a breadth-first closure
                for g in gens:
                    if orbit_of[g[p]] != k:
                        orbit_of[g[p]] = k
                        orbit.append(g[p])
            edge = next(
                ((p, x) for p in orbit for x, c in enumerate(third[p])
                 if c >= 0 and orbit_of[x] != k),
                None,
            )
            if edge is None:
                break
            p, x = edge
            g = verified_reflection(sp, third[p][x])
            if g[p] != x:
                raise ValueError(f"reflection of point {third[p][x]} does not swap {p} and {x}")
            gens.append(g)
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


@dataclass(frozen=True)
class Diagram:
    """Collinearity graph on an ordered support (a, b, c, d, e).

    The pairs (b, c) and (d, e) are the double-axis constituents and must be
    non-edges.
    """

    adjacency: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        adj = self.adjacency
        if len(adj) != 5 or any(len(row) != 5 for row in adj):
            raise InvalidConfigurationError("diagram needs a 5x5 adjacency matrix")
        for v in range(5):
            if adj[v][v]:
                raise InvalidConfigurationError("diagram has a loop")
            for w in range(5):
                if adj[v][w] != adj[w][v]:
                    raise InvalidConfigurationError("diagram adjacency not symmetric")
        if adj[1][2] or adj[3][4]:
            raise InvalidConfigurationError(
                "double-axis constituents must be orthogonal (no b-c or d-e edge)"
            )

    def edges(self) -> list[tuple[int, int]]:
        return [(v, w) for v in range(5) for w in range(v + 1, 5) if self.adjacency[v][w]]

    def is_connected(self) -> bool:
        return len(components(5, lambda v, w: self.adjacency[v][w])) == 1


def diagram_of(sp: FischerSpace, a: int, bc: tuple[int, int], de: tuple[int, int]) -> Diagram:
    """Diagram on the support of a type-D generating configuration."""
    support = (a, *bc, *de)
    if len(set(support)) != 5:
        raise InvalidConfigurationError("support points must be distinct")
    # from lists, not generators: see scalars.primitive_int_vec
    adj = tuple([
        tuple([v != w and sp.collinear(support[v], support[w]) for w in range(5)])
        for v in range(5)
    ])
    return Diagram(adj)


# the order-8 relabelling group: b<->c, d<->e, and (b,c)<->(d,e); a is fixed
_DIAGRAM_SYMMETRIES: tuple[tuple[int, ...], ...] = tuple(
    tuple(perm)
    for perm in (
        (0, 1, 2, 3, 4),
        (0, 2, 1, 3, 4),
        (0, 1, 2, 4, 3),
        (0, 2, 1, 4, 3),
        (0, 3, 4, 1, 2),
        (0, 4, 3, 1, 2),
        (0, 3, 4, 2, 1),
        (0, 4, 3, 2, 1),
    )
)

_EDGE_BITS = [(v, w) for v in range(5) for w in range(v + 1, 5)]


def canonical_diagram(d: Diagram) -> int:
    """Lexicographically minimal 10-bit adjacency code over the 8 symmetries."""
    best = None
    for sym in _DIAGRAM_SYMMETRIES:
        code = 0
        for bit, (v, w) in enumerate(_EDGE_BITS):
            if d.adjacency[sym[v]][sym[w]]:
                code |= 1 << bit
        if best is None or code < best:
            best = code
    assert best is not None
    return best


def diagram_code_edges(code: int) -> list[str]:
    """Human-readable edge list of a canonical code."""
    names = "abcde"
    out = []
    for bit, (v, w) in enumerate(_EDGE_BITS):
        if code & (1 << bit):
            out.append(f"{names[v]}{names[w]}")
    return out
