"""Slow, independent references shared by several test modules."""

from matsuo.closure import EchelonBasis


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
