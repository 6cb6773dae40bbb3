"""Exact sparse linear algebra over a coefficient field.

A sparse row is a dict from column index to a nonzero field element; a
column the row does not hold is zero there.  Everything here is
Gauss-Jordan with exact arithmetic; no floating point anywhere.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .groebner import _check_deadline

__all__ = ["row_reduce", "solve_columns"]


def row_reduce(rows: Sequence[Mapping], field) -> Tuple[List[dict], List[int]]:
    """Reduced row echelon form of sparse rows.

    Returns (nonzero rows in pivot order, pivot column indices); zero rows
    and stored zero entries are dropped.  Each row is cleared of the pivots
    found so far, whose rows stay fully reduced; its lowest column becomes
    a new pivot, which an index from each column to the pivot rows holding
    it clears from the earlier rows.  The RREF is unique, so this is the
    dense Gauss-Jordan result.  No input dict is changed or returned.  The
    clock is read once per input row, so a deadline scope bounds it.
    """
    zero, one = field.zero, field.one
    mul, sub = field.mul, field.sub
    pivot_rows: Dict[int, dict] = {}  # pivot column -> its row, one there
    holders: Dict[int, Set[int]] = {}  # column -> pivots whose rows hold it
    for given in rows:
        _check_deadline()
        row = {c: v for c, v in given.items() if v}
        # pivot rows are zero on each other's pivots, so clearing one
        # pivot brings in no other
        for p in [c for c in row if c in pivot_rows]:
            f = row.pop(p)
            for c, v in pivot_rows[p].items():
                if c != p:
                    w = sub(row.get(c, zero), mul(f, v))
                    if w:
                        row[c] = w
                    else:
                        del row[c]
        if not row:
            continue
        q = min(row)
        if row[q] != one:
            s = field.inv(row[q])
            row = {c: mul(s, v) for c, v in row.items()}
        for c in row:
            if c != q:
                holders.setdefault(c, set()).add(q)
        for p in holders.pop(q, ()):
            prow = pivot_rows[p]
            f = prow.pop(q)
            for c, v in row.items():
                if c == q:
                    continue
                w = sub(prow.get(c, zero), mul(f, v))
                if w:
                    prow[c] = w
                    holders[c].add(p)
                else:
                    del prow[c]
                    holders[c].discard(p)
        pivot_rows[q] = row
    pivots = sorted(pivot_rows)
    return [pivot_rows[p] for p in pivots], pivots


def solve_columns(
    columns: Sequence[Mapping], targets: Sequence[Mapping], field
) -> Tuple[int, List[Optional[list]]]:
    """Express each target as a combination of ``columns``.

    Columns and targets are sparse vectors, dicts from row index to field
    element.  Returns the rank of ``columns`` and, per target, its dense
    coefficients over ``columns`` or None when the target lies outside
    their span; free coefficients are zero.  One elimination of
    ``[columns | targets]`` serves every target: the pivots among
    ``columns`` do not depend on the columns to their right, and a target
    lies in the span of ``columns`` exactly when it is no pivot and is zero
    on every row whose pivot is a target.
    """
    vectors = list(columns) + list(targets)
    k = len(columns)
    by_row: Dict[int, dict] = {}
    for j, vec in enumerate(vectors):
        for i, v in vec.items():
            by_row.setdefault(i, {})[j] = v
    reduced, pivots = row_reduce([by_row[i] for i in sorted(by_row)], field)
    r = bisect_left(pivots, k)
    # every pivot row holds its pivot, so this covers the target pivots too
    outside = set().union(*reduced[r:])
    solutions = {j: [field.zero] * k for j in range(k, len(vectors)) if j not in outside}
    for row, p in zip(reduced, pivots[:r]):
        for j, v in row.items():
            if j in solutions:
                solutions[j][p] = v
    return r, [solutions.get(j) for j in range(k, len(vectors))]
