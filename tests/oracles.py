"""Slow, independent references shared by several test modules."""

from typing import Optional

from matsuo import closure
from matsuo.algebra import Vec, _IntEchelon, adjacency_rows, vec_product
from matsuo.axial import MiyamotoMap, _ad_poly
from matsuo.classify import (
    KNOWN_CONNECTED_DIMS,
    ClassificationReport,
    TypeDConfig,
    enumerate_configs,
    evaluate_config,
)
from matsuo.closure import (
    DEFAULT_SEARCH_ETA,
    EchelonBasis,
    ScalarMode,
    Subalgebra,
    close,
    vec_combination,
)
from matsuo.fischer import (
    FischerSpace,
    Point,
    ThreeTranspositionError,
    canonical_diagram,
    point_orbits,
)
from matsuo.groups import FiniteGroup, GroupAutomorphism


def int_matrix_rank(rows: list[list[int]]) -> int:
    """Exact rank of a dense integer matrix by fraction-free (Bareiss)
    elimination."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(row, nrows):
            if m[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        pv = m[row][col]
        for r in range(row + 1, nrows):
            factor = m[r][col]
            # rows with a zero factor still need the pivot scaling to keep
            # the fraction-free divisibility invariant
            for cc in range(col, ncols):
                m[r][cc] = (m[r][cc] * pv - factor * m[row][cc]) // prev
        prev = pv
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def adjacency_corank(sp: FischerSpace, diagonal: int, off: int) -> int:
    """Corank over Z of diagonal*I + off*A, for A the collinearity adjacency
    matrix, by inserting its sparse rows into an integer echelon; a zero
    diagonal entry is left out, since a stored zero could become a pivot.
    The reference for ``eigenvalue_multiplicity`` at -diagonal/off."""
    span = _IntEchelon()
    for i, nbrs in enumerate(adjacency_rows(sp)):
        row = dict.fromkeys(nbrs, off)
        if diagonal:
            row[i] = diagonal
        span.insert(row)
    return len(sp.points) - len(span.rows)


def reinserted_rows(basis: EchelonBasis) -> tuple:
    """Reduced row echelon form of a basis's span by re-inserting its rows
    into a fresh basis of the same mode, sorted by pivot: the reference for
    ``EchelonBasis.canonical_rows``."""
    canon = EchelonBasis(basis.mode)
    for row in basis.rows:
        canon.insert(row)
    order = sorted(range(len(canon)), key=canon.pivot_of_row.__getitem__)
    return tuple(tuple(sorted(canon.rows[r].items())) for r in order)


def ambient_image(algebra: Subalgebra, x: Vec, roots) -> EchelonBasis:
    """Span of prod over nu in roots of (ad_x - nu) on a subalgebra, applied
    to each basis row as an ambient vector, with its coordinates entered
    index-reversed (c -> d - 1 - c): the reference for the Krylov route of
    ``axial._spans``."""
    half = algebra.mode.half_eta()
    last = algebra.dimension - 1
    span = EchelonBasis(algebra.mode)
    for row in algebra.basis.rows:
        coords = algebra.coordinates(_ad_poly(algebra.space, x, row, roots, half))
        span.insert({last - c: v for c, v in enumerate(coords) if v})
    return span


def product_coordinates(space: FischerSpace, mode: ScalarMode, basis: EchelonBasis):
    """(i, j, coordinates of basis_i * basis_j) for each i <= j, each product
    taken over the mode's scalars and reduced by the basis; ValueError when
    a product leaves the span: the reference for the part walk of
    ``Subalgebra._product_coordinates``."""
    half = mode.half_eta()
    rows = basis.rows
    for i, u in enumerate(rows):
        for j in range(i, len(rows)):
            coords = basis.coordinates(vec_product(space, u, rows[j], half))
            if coords is None:
                raise ValueError("basis is not closed under the product")
            yield i, j, coords


def product_verdicts(space: FischerSpace, mode: ScalarMode, basis: EchelonBasis, matrices) -> tuple:
    """By ``product_coordinates``: whether the basis is closed, its
    structure constants (None when not closed), and per matrix whether the
    map preserves the products ("not closed" when the basis is not)."""
    try:
        tensor = [[{}] * len(basis) for _ in range(len(basis))]
        for i, j, coords in product_coordinates(space, mode, basis):
            tensor[i][j] = tensor[j][i] = {k: c for k, c in enumerate(coords) if c}
    except ValueError:
        return False, None, ["not closed"] * len(matrices)
    half, preserved = mode.half_eta(), []
    for matrix in matrices:
        images = [vec_combination(basis.rows, col) for col in zip(*matrix)]
        preserved.append(all(
            vec_product(space, images[i], images[j], half)
            == vec_combination(map(images.__getitem__, cell), cell.values())
            for i, row in enumerate(tensor)
            for j, cell in enumerate(row[i:], i)
        ))
    return True, tensor, preserved


def given_by_hand(algebra: Subalgebra) -> Subalgebra:
    """The same basis and generators with products_computed = 0, as a basis
    given by hand: its construction walks it, and raises when it is not
    closed."""
    return Subalgebra(algebra.space, algebra.mode, algebra.generators, algebra.basis)


def walk_verdicts(space: FischerSpace, mode: ScalarMode, basis: EchelonBasis, matrices) -> tuple:
    """The verdicts of ``product_verdicts`` from the engine: whether the
    basis given by hand becomes a ``Subalgebra``, whose construction walks
    it, and that subalgebra's ``structure_constants`` and
    ``preserves_products``."""
    try:
        algebra = Subalgebra(space, mode, [], basis)
    except ValueError:
        return False, None, ["not closed"] * len(matrices)
    preserved = [MiyamotoMap(algebra, matrix).preserves_products() for matrix in matrices]
    return True, algebra.structure_constants(), preserved


def close_over_qeta(sp: FischerSpace, gens: list[Vec]) -> Subalgebra:
    """The Q(eta) worklist of ``close`` without its certificate: the
    reference for the certified route."""
    mode = ScalarMode.symbolic()
    span, products = closure._worklist(sp, gens, mode)
    return Subalgebra(sp, mode, [(g, "custom") for g in gens], span, products)


def generator_partition(sp: FischerSpace, cfg: TypeDConfig) -> list[list[int]]:
    """Generator groups of a configuration by a search on its own 3 x 3
    adjacency: the reference for ``TypeDConfig.generator_partition``."""
    supports = [(cfg.a,), cfg.bc, cfg.de]
    adjacency = [[False] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            if any(sp.collinear(p, q) for p in supports[i] for q in supports[j]):
                adjacency[i][j] = adjacency[j][i] = True
    part_of = [-1, -1, -1]
    parts: list[list[int]] = []
    for i in range(3):
        if part_of[i] >= 0:
            continue
        comp = [i]
        part_of[i] = len(parts)
        stack = [i]
        while stack:
            v = stack.pop()
            for w in range(3):
                if adjacency[v][w] and part_of[w] < 0:
                    part_of[w] = len(parts)
                    comp.append(w)
                    stack.append(w)
        parts.append(sorted(comp))
    return parts


def census_closing_each(
    sp: FischerSpace,
    mode: Optional[ScalarMode] = None,
    sampling: Optional[tuple[int, int]] = None,
) -> ClassificationReport:
    """The census loop that closes every configuration of the sweep, with no
    orbits and no process pool: the reference for ``classify``."""
    if mode is None:
        eta = DEFAULT_SEARCH_ETA
        mode = ScalarMode.evaluated(eta)
        while not mode.is_safe_for(sp):
            eta += 1
            mode = ScalarMode.evaluated(eta)
    first_point = 0 if sampling is None and len(point_orbits(sp)) == 1 else None
    buckets: dict[int, dict] = {}
    for cfg in enumerate_configs(sp, sampling=sampling, first_point=first_point):
        data = evaluate_config(sp, cfg, mode)
        diagram = cfg.diagram(sp)
        bucket = buckets.setdefault(canonical_diagram(diagram), {
            "connected": diagram.is_connected(),
            "examined": 0,
            "dims": {},
            "primitive_dims": {},
            "samples": {},
            "certified": {},
        })
        bucket["examined"] += 1
        dim = data["dim"]
        bucket["dims"][dim] = bucket["dims"].get(dim, 0) + 1
        if data["primitive"]:
            bucket["primitive_dims"][dim] = bucket["primitive_dims"].get(dim, 0) + 1
        bucket["samples"].setdefault(dim, cfg)
    sym_mode = ScalarMode.symbolic()
    for bucket in buckets.values():
        for dim, cfg in bucket["samples"].items():
            sym = close(sp, cfg.generators(sym_mode), sym_mode)
            bucket["certified"][dim] = sym.dimension == dim
        if not bucket["connected"]:
            bucket["classification"] = "disconnected"
        elif set(bucket["primitive_dims"]) <= KNOWN_CONNECTED_DIMS:
            bucket["classification"] = "classified"
        else:
            bucket["classification"] = "unclassified_d8_d9_candidate"
    seed = sampling[1] if sampling else None
    return ClassificationReport(sp, mode, seed, first_point is not None, buckets)


def naive_config_count(sp: FischerSpace) -> int:
    """Independent five-loop count of ordered tuples; 8 per configuration."""
    n = len(sp.points)
    count = 0
    for a in range(n):
        for b in range(n):
            if b == a:
                continue
            for c in range(n):
                if c in (a, b) or sp.collinear(b, c):
                    continue
                for d in range(n):
                    if d in (a, b, c):
                        continue
                    for e in range(n):
                        if e in (a, b, c, d) or sp.collinear(d, e):
                            continue
                        count += 1
    return count


def dump_cayley_table(group: FiniteGroup) -> str:
    """A group's table in the text format ``load_cayley_table`` reads."""
    lines = [f"order {group.order}", " ".join(group.labels)]
    for row in group.table:
        lines.append(" ".join(group.labels[x] for x in row))
    return "\n".join(lines) + "\n"


def identity_automorphism(group: FiniteGroup) -> GroupAutomorphism:
    return GroupAutomorphism(group, tuple(range(group.order)))


# wreath group elements: (base tuple of T-indices, permutation tuple)
# acting on pairs (x, pos) by (x, pos) . (b, s) = (x * b[pos], s[pos])

WElem = tuple[tuple[int, ...], tuple[int, ...]]


def w_identity(group: FiniteGroup, n: int) -> WElem:
    return (tuple([0] * n), tuple(range(n)))


def w_mul(group: FiniteGroup, a: WElem, b: WElem) -> WElem:
    ab, ap = a
    bb, bp = b
    base = tuple(group.mul(ab[i], bb[ap[i]]) for i in range(len(ab)))
    perm = tuple(bp[ap[i]] for i in range(len(ap)))
    return (base, perm)


def w_inv(group: FiniteGroup, a: WElem) -> WElem:
    ab, ap = a
    n = len(ab)
    inv_perm = [0] * n
    for i, img in enumerate(ap):
        inv_perm[img] = i
    base = tuple(group.inverse(ab[inv_perm[i]]) for i in range(n))
    return (base, tuple(inv_perm))


def w_conj(group: FiniteGroup, x: WElem, y: WElem) -> WElem:
    """x conjugated by y, i.e. y^-1 * x * y."""
    return w_mul(group, w_mul(group, w_inv(group, y), x), y)


def w_order(group: FiniteGroup, x: WElem, cap: int = 8) -> int:
    ident = w_identity(group, len(x[0]))
    acc = x
    for k in range(1, cap + 1):
        if acc == ident:
            return k
        acc = w_mul(group, acc, x)
    raise ThreeTranspositionError(f"element order exceeds {cap}")


def point_to_elem(group: FiniteGroup, n: int, p: Point) -> WElem:
    base = [0] * n
    base[p.i - 1] = p.t
    base[p.j - 1] = group.inverse(p.t)
    perm = list(range(n))
    perm[p.i - 1], perm[p.j - 1] = p.j - 1, p.i - 1
    return (tuple(base), tuple(perm))


def elem_to_point(group: FiniteGroup, e: WElem) -> Optional[Point]:
    base, perm = e
    moved = [i for i, img in enumerate(perm) if img != i]
    if len(moved) != 2:
        return None
    i, j = moved
    if perm[i] != j or perm[j] != i:
        return None
    t = base[i]
    if base[j] != group.inverse(t):
        return None
    for k in range(len(base)):
        if k not in (i, j) and base[k] != 0:
            return None
    return Point(i + 1, j + 1, t)


def third_point_by_conjugation(sp: FischerSpace, p: Point, q: Point) -> Optional[Point]:
    """Third point by literal conjugation in the wreath group: the reference
    for the closed-formula table of ``FischerSpace``.

    p and q are joined iff their product has order three, and then the
    third point is p conjugated by q.
    """
    if p == q:
        raise ValueError("third point needs two distinct points")
    group, n = sp.base, sp.n
    ep, eq = point_to_elem(group, n, p), point_to_elem(group, n, q)
    order = w_order(group, w_mul(group, ep, eq))
    if order > 3:
        raise ThreeTranspositionError(
            f"points {p} and {q} generate an element of order {order}"
        )
    if order < 3:
        return None
    r = elem_to_point(group, w_conj(group, ep, eq))
    if r is None:
        raise ThreeTranspositionError("conjugate left the transposition class")
    return r
