"""Slow, independent references shared by several test modules."""

from matsuo import closure
from matsuo.algebra import Vec, vec_product
from matsuo.axial import MiyamotoMap, _ad_poly
from matsuo.classify import TypeDConfig
from matsuo.closure import EchelonBasis, ScalarMode, Subalgebra, vec_combination
from matsuo.fischer import FischerSpace
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


def product_coordinates(algebra: Subalgebra):
    """(i, j, coordinates of basis_i * basis_j) for each i <= j, each product
    taken over the mode's scalars and reduced by the basis; ValueError when
    a product leaves the span: the reference for the part walk of
    ``Subalgebra._product_coordinates``."""
    half = algebra.mode.half_eta()
    rows = algebra.basis.rows
    for i, u in enumerate(rows):
        for j in range(i, len(rows)):
            coords = algebra.basis.coordinates(vec_product(algebra.space, u, rows[j], half))
            if coords is None:
                raise ValueError("basis is not closed under the product")
            yield i, j, coords


def product_verdicts(algebra: Subalgebra, matrices) -> tuple:
    """By ``product_coordinates``: whether the basis is closed, its
    structure constants (None when not closed), and per matrix whether the
    map preserves the products ("not closed" when the walk raises first)."""
    try:
        tensor = [[{}] * algebra.dimension for _ in range(algebra.dimension)]
        for i, j, coords in product_coordinates(algebra):
            tensor[i][j] = tensor[j][i] = {k: c for k, c in enumerate(coords) if c}
    except ValueError:
        tensor = None
    half, preserved = algebra.mode.half_eta(), []
    for matrix in matrices:
        images = [algebra.row_vector(col) for col in zip(*matrix)]
        try:
            preserved.append(all(
                vec_product(algebra.space, images[i], images[j], half)
                == vec_combination(images, coords)
                for i, j, coords in product_coordinates(algebra)
            ))
        except ValueError:
            preserved.append("not closed")
    return tensor is not None, tensor, preserved


def walk_verdicts(algebra: Subalgebra, matrices) -> tuple:
    """The verdicts of ``product_verdicts`` from the engine's own
    ``is_closed``, ``structure_constants`` and ``preserves_products``."""
    closed = algebra.is_closed()
    tensor = algebra.structure_constants() if closed else None
    preserved = []
    for matrix in matrices:
        try:
            preserved.append(MiyamotoMap(algebra, matrix).preserves_products())
        except ValueError:
            preserved.append("not closed")
    return closed, tensor, preserved


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


def dump_cayley_table(group: FiniteGroup) -> str:
    """A group's table in the text format ``load_cayley_table`` reads."""
    lines = [f"order {group.order}", " ".join(group.labels)]
    for row in group.table:
        lines.append(" ".join(group.labels[x] for x in row))
    return "\n".join(lines) + "\n"


def identity_automorphism(group: FiniteGroup) -> GroupAutomorphism:
    return GroupAutomorphism(group, tuple(range(group.order)))
