"""Exact dense linear algebra over a coefficient field.

Matrices are lists of row lists holding field elements.  Everything here is
Gauss-Jordan with exact arithmetic; no floating point anywhere.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Sequence, Tuple

from .groebner import _check_deadline

__all__ = ["row_reduce", "solve_columns"]


def row_reduce(rows: Sequence[Sequence], field) -> Tuple[List[list], List[int]]:
    """Reduced row echelon form, by Gauss-Jordan elimination.

    Returns (nonzero rows, pivot column indices); zero rows are dropped.
    The clock is read once per column, so a deadline scope bounds it.
    """
    # rows are replaced by new lists, never written in place; dropping
    # ``rows`` lets a temporary matrix from the caller go row by row
    mat = list(rows)
    del rows
    ncols = len(mat[0]) if mat else 0
    for r in mat:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
    pivots: List[int] = []
    zero, one = field.zero, field.one
    lead = 0
    for col in range(ncols):
        _check_deadline()
        piv = None
        for i in range(lead, len(mat)):
            if mat[i][col] != zero:
                piv = i
                break
        if piv is None:
            continue
        mat[lead], mat[piv] = mat[piv], mat[lead]
        row = mat[lead]
        if row[col] != one:
            inv = field.inv(row[col])
            mat[lead] = [field.mul(inv, v) for v in row]
        else:
            mat[lead] = list(row)  # no input row is returned
        for i in range(len(mat)):
            if i != lead and mat[i][col] != zero:
                c = mat[i][col]
                mat[i] = [
                    field.sub(a, field.mul(c, b)) for a, b in zip(mat[i], mat[lead])
                ]
        pivots.append(col)
        lead += 1
        if lead == len(mat):
            break
    return mat[:lead], pivots


def solve_columns(
    columns: Sequence[Sequence], targets: Sequence[Sequence], field
) -> Tuple[int, List[Optional[list]]]:
    """Express each target as a combination of ``columns``.

    Returns the rank of ``columns`` and, per target, its coefficients over
    ``columns`` or None when the target lies outside their span; free
    coefficients are zero.  One elimination of ``[columns | targets]``
    serves every target: the pivots among ``columns`` do not depend on the
    columns to their right, and a target lies in the span of ``columns``
    exactly when it is no pivot and is zero on every row whose pivot is a
    target.
    """
    vectors = list(columns) + list(targets)
    if vectors:
        n = len(vectors[0])
        for v in vectors:
            if len(v) != n:
                raise ValueError("column length mismatch")
    k = len(columns)
    reduced, pivots = row_reduce(list(zip(*vectors)), field)
    r = bisect_left(pivots, k)
    zero, one = field.zero, field.one
    solutions: List[Optional[list]] = []
    for col in range(k, len(vectors)):
        if col in pivots[r:] or any(row[col] != zero for row in reduced[r:]):
            solutions.append(None)
            continue
        x = [zero] * k
        for row, p in zip(reduced, pivots[:r]):
            x[p] = row[col]
        solutions.append(x)
    return r, solutions
