"""Ideals of minors and Pfaffians with block constraints.

Three matrix shapes share one interface: a generic m x n matrix of
independent entries ``x[i,j]``, a symmetric n x n matrix over ``y[i,j]``
(i <= j), and a skew-symmetric n x n matrix over ``z[i,j]`` (i < j) with
zero diagonal.  Variables are ordered row-major, earlier rows first, so
``x[1,1]`` is the greatest variable.

Row constraints are given as two equal-length tuples ``R`` and ``r``:
``R`` lists nested row-block cutoffs (strictly increasing) and ``r[i]``
asks for at least ``r[i]`` rows inside the first ``R[i]`` rows.  Column
constraints ``C`` / ``c`` mirror this on columns of the generic shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .combinat import MinorIndex, PfaffianIndex
from .groebner import IdealHandle
from .linalg import row_reduce
from .poly import (
    GradingSpec,
    Monomial,
    PolyRing,
    VariableTable,
    order_from_name,
    weighted_degree,
)

__all__ = [
    "MatrixSpec",
    "generic_matrix",
    "symmetric_matrix",
    "skew_matrix",
    "variable_table",
    "matrix_ring",
    "entry",
    "entry_poly",
    "minor_poly",
    "pfaffian_poly",
    "ideal_of_minors",
    "ideal_of_pfaffians",
    "pfaffian_row_component",
    "constrained_minor_ideal",
    "minor_components",
    "constrained_symmetric_ideal",
    "symmetric_components",
    "constrained_pfaffian_ideal",
    "pfaffian_components",
    "column_grading",
    "skew_block_grading",
    "truncated_ideal",
    "truncated_ideal_graded",
    "coefficient_matrix",
    "monomials_of_weighted_degree",
    "truncation_rank",
]


@dataclass(frozen=True)
class MatrixSpec:
    kind: str  # "generic" | "symmetric" | "skew"
    m: int
    n: int

    def __post_init__(self):
        if self.kind not in ("generic", "symmetric", "skew"):
            raise ValueError(f"unknown matrix kind {self.kind!r}")
        if self.m < 1 or self.n < 1:
            raise ValueError("matrix dimensions must be positive")
        if self.kind != "generic" and self.m != self.n:
            raise ValueError(f"{self.kind} matrix must be square")


def generic_matrix(m: int, n: int) -> MatrixSpec:
    return MatrixSpec("generic", m, n)


def symmetric_matrix(n: int) -> MatrixSpec:
    return MatrixSpec("symmetric", n, n)


def skew_matrix(n: int) -> MatrixSpec:
    if n < 2:
        raise ValueError("skew matrix needs size >= 2")
    return MatrixSpec("skew", n, n)


@lru_cache(maxsize=None)
def _layout(ms: MatrixSpec) -> Tuple[Tuple[str, ...], Dict[Tuple[int, int], int]]:
    names: List[str] = []
    pos: Dict[Tuple[int, int], int] = {}
    if ms.kind == "generic":
        for i in range(1, ms.m + 1):
            for j in range(1, ms.n + 1):
                pos[(i, j)] = len(names)
                names.append(f"x[{i},{j}]")
    elif ms.kind == "symmetric":
        for i in range(1, ms.n + 1):
            for j in range(i, ms.n + 1):
                pos[(i, j)] = len(names)
                names.append(f"y[{i},{j}]")
    else:
        for i in range(1, ms.n + 1):
            for j in range(i + 1, ms.n + 1):
                pos[(i, j)] = len(names)
                names.append(f"z[{i},{j}]")
    return tuple(names), pos


def variable_table(ms: MatrixSpec) -> VariableTable:
    return VariableTable(_layout(ms)[0])


def matrix_ring(ms: MatrixSpec, field, order: str = "grevlex") -> PolyRing:
    table = variable_table(ms)
    return PolyRing(table, order_from_name(order, table), field)


def entry(ms: MatrixSpec, i: int, j: int) -> Tuple[int, Optional[int]]:
    """(sign, variable position) of the (i, j) entry; sign 0 marks a zero."""
    if not (1 <= i <= ms.m and 1 <= j <= ms.n):
        raise ValueError(f"entry ({i},{j}) outside {ms.m}x{ms.n}")
    pos = _layout(ms)[1]
    if ms.kind == "generic":
        return 1, pos[(i, j)]
    if ms.kind == "symmetric":
        return (1, pos[(i, j)]) if i <= j else (1, pos[(j, i)])
    if i == j:
        return 0, None
    return (1, pos[(i, j)]) if i < j else (-1, pos[(j, i)])


def entry_poly(ring: PolyRing, ms: MatrixSpec, i: int, j: int):
    sign, p = entry(ms, i, j)
    if sign == 0:
        return ring.zero
    f = ring.var(p)
    return f if sign > 0 else -f


# ---------------------------------------------------------------------------
# minors and Pfaffians


def minor_poly(ring: PolyRing, ms: MatrixSpec, ix: MinorIndex):
    """Determinant of the submatrix on ``ix.rows`` x ``ix.cols``, by
    cofactor expansion along the first column with memoized subminors."""
    if ix.rows[-1] > ms.m or ix.cols[-1] > ms.n:
        raise ValueError(f"minor {ix} does not fit a {ms.m}x{ms.n} matrix")
    fld = ring.field
    memo: dict = {}

    def rec(rows: tuple, cols: tuple):
        if not rows:
            return ring.one
        got = memo.get((rows, cols))
        if got is not None:
            return got
        col = cols[0]
        rest = cols[1:]
        total = ring.zero
        for k, row in enumerate(rows):
            sign, p = entry(ms, row, col)
            if sign == 0:
                continue
            sub = rec(rows[:k] + rows[k + 1 :], rest)
            if not sub:
                continue
            c = fld.one if (k % 2 == 0) == (sign > 0) else fld.neg(fld.one)
            total = total + sub.term_mul(Monomial(((p, 1),)), c)
        memo[(rows, cols)] = total
        return total

    return rec(ix.rows, ix.cols)


def pfaffian_poly(ring: PolyRing, ms: MatrixSpec, ix: PfaffianIndex):
    """Pfaffian of the principal skew submatrix on ``ix.rows``."""
    if ms.kind != "skew":
        raise ValueError("Pfaffians require a skew matrix")
    if ix.rows[-1] > ms.n:
        raise ValueError(f"Pfaffian {ix} does not fit size {ms.n}")
    fld = ring.field
    pos = _layout(ms)[1]
    memo: dict = {(): ring.one}

    def rec(rows: tuple):
        got = memo.get(rows)
        if got is not None:
            return got
        a = rows[0]
        total = ring.zero
        for idx in range(1, len(rows)):
            b = rows[idx]
            sub = rec(rows[1:idx] + rows[idx + 1 :])
            if not sub:
                continue
            c = fld.one if idx % 2 == 1 else fld.neg(fld.one)
            total = total + sub.term_mul(Monomial(((pos[(a, b)], 1),)), c)
        memo[rows] = total
        return total

    return rec(ix.rows)


def _unit_handle(ring: PolyRing) -> IdealHandle:
    return IdealHandle(ring, (ring.one,))


def ideal_of_minors(
    ring: PolyRing,
    ms: MatrixSpec,
    size: int,
    row_limit: Optional[int] = None,
    col_limit: Optional[int] = None,
) -> IdealHandle:
    """Ideal of all ``size``-minors, optionally of the submatrix on the
    first ``row_limit`` rows and/or first ``col_limit`` columns.

    Size 0 or below gives the unit ideal; a size too large for the
    (restricted) shape gives the zero ideal.
    """
    if size <= 0:
        return _unit_handle(ring)
    rows_avail = range(1, (ms.m if row_limit is None else min(row_limit, ms.m)) + 1)
    cols_avail = range(1, (ms.n if col_limit is None else min(col_limit, ms.n)) + 1)
    if size > len(rows_avail) or size > len(cols_avail):
        return IdealHandle(ring, ())
    gens = []
    for rows in combinations(rows_avail, size):
        for cols in combinations(cols_avail, size):
            gens.append(minor_poly(ring, ms, MinorIndex(rows, cols)))
    return IdealHandle(ring, gens)


def ideal_of_pfaffians(
    ring: PolyRing,
    ms: MatrixSpec,
    size: int,
    rows: Optional[Sequence[int]] = None,
) -> IdealHandle:
    """Ideal of ``size``-Pfaffians (size even) drawn from ``rows``."""
    if size <= 0:
        return _unit_handle(ring)
    if size % 2:
        raise ValueError("Pfaffian size must be even")
    avail = tuple(rows) if rows is not None else tuple(range(1, ms.n + 1))
    if size > len(avail):
        return IdealHandle(ring, ())
    gens = [
        pfaffian_poly(ring, ms, PfaffianIndex(rs)) for rs in combinations(avail, size)
    ]
    return IdealHandle(ring, gens)


def pfaffian_row_component(ring: PolyRing, ms: MatrixSpec, r: int, R: int) -> IdealHandle:
    """The component attached to a row block (R, r) of a skew matrix.

    Even ``r``: the r-Pfaffians of the first R rows.  Odd ``r``: the
    (r+1)-Pfaffians using at least r rows from the first R, which is the sum
    over k > R of the (r+1)-Pfaffian ideals on rows [1..R] + {k}.
    """
    if r <= 0:
        return _unit_handle(ring)
    if r % 2 == 0:
        return ideal_of_pfaffians(ring, ms, r, rows=range(1, R + 1))
    gens = []
    for rs in combinations(range(1, ms.n + 1), r + 1):
        inside = sum(1 for a in rs if a <= R)
        if inside >= r:
            gens.append(pfaffian_poly(ring, ms, PfaffianIndex(rs)))
    return IdealHandle(ring, gens)


# ---------------------------------------------------------------------------
# block-constrained ideals and their decomposition components


def _validate_blocks(R: Sequence[int], r: Sequence[int], limit: int, label: str):
    R, r = tuple(R), tuple(r)
    if len(R) != len(r):
        raise ValueError(f"{label}: cutoff and count lists differ in length")
    if any(a >= b for a, b in zip(R, R[1:])):
        raise ValueError(f"{label}: cutoffs must be strictly increasing")
    if R and not (1 <= R[0] and R[-1] <= limit):
        raise ValueError(f"{label}: cutoffs must lie in 1..{limit}")
    return R, r


def _rows_pass(rows: Sequence[int], R: Sequence[int], r: Sequence[int]) -> bool:
    for cut, need in zip(R, r):
        if sum(1 for a in rows if a <= cut) < need:
            return False
    return True


def constrained_minor_ideal(
    ring: PolyRing,
    ms: MatrixSpec,
    t: int,
    R: Sequence[int] = (),
    r: Sequence[int] = (),
    C: Sequence[int] = (),
    c: Sequence[int] = (),
) -> IdealHandle:
    """Ideal generated by the t-minors with at least ``r[i]`` rows among the
    first ``R[i]`` and at least ``c[j]`` columns among the first ``C[j]``."""
    if t <= 0:
        return _unit_handle(ring)
    R, r = _validate_blocks(R, r, ms.m, "rows")
    C, c = _validate_blocks(C, c, ms.n, "cols")
    if t > min(ms.m, ms.n):
        return IdealHandle(ring, ())
    gens = []
    for rows in combinations(range(1, ms.m + 1), t):
        if not _rows_pass(rows, R, r):
            continue
        for cols in combinations(range(1, ms.n + 1), t):
            if not _rows_pass(cols, C, c):
                continue
            gens.append(minor_poly(ring, ms, MinorIndex(rows, cols)))
    return IdealHandle(ring, gens)


def minor_components(
    ring: PolyRing,
    ms: MatrixSpec,
    t: int,
    R: Sequence[int] = (),
    r: Sequence[int] = (),
    C: Sequence[int] = (),
    c: Sequence[int] = (),
) -> List[Tuple[str, IdealHandle]]:
    """Named intersectands: the plain t-minor ideal, then one minor ideal
    per row block and per column block."""
    R, r = _validate_blocks(R, r, ms.m, "rows")
    C, c = _validate_blocks(C, c, ms.n, "cols")
    out = [(f"minors({t})", ideal_of_minors(ring, ms, t))]
    for cut, need in zip(R, r):
        out.append(
            (f"minors({need},rows<={cut})", ideal_of_minors(ring, ms, need, row_limit=cut))
        )
    for cut, need in zip(C, c):
        out.append(
            (f"minors({need},cols<={cut})", ideal_of_minors(ring, ms, need, col_limit=cut))
        )
    return out


def constrained_symmetric_ideal(
    ring: PolyRing,
    ms: MatrixSpec,
    t: int,
    R: Sequence[int] = (),
    r: Sequence[int] = (),
    doset_only: bool = False,
) -> IdealHandle:
    """Row-constrained t-minors of a symmetric matrix.

    With ``doset_only`` the generator list keeps only indices whose row list
    is dominated entrywise by the column list; both lists are expected to
    generate the same ideal, which the harness checks.
    """
    if ms.kind != "symmetric":
        raise ValueError("symmetric matrix required")
    if t <= 0:
        return _unit_handle(ring)
    R, r = _validate_blocks(R, r, ms.n, "rows")
    if t > ms.n:
        return IdealHandle(ring, ())
    gens = []
    for rows in combinations(range(1, ms.n + 1), t):
        if not _rows_pass(rows, R, r):
            continue
        for cols in combinations(range(1, ms.n + 1), t):
            if doset_only and any(a > b for a, b in zip(rows, cols)):
                continue
            gens.append(minor_poly(ring, ms, MinorIndex(rows, cols)))
    return IdealHandle(ring, gens)


def symmetric_components(
    ring: PolyRing,
    ms: MatrixSpec,
    t: int,
    R: Sequence[int] = (),
    r: Sequence[int] = (),
) -> List[Tuple[str, IdealHandle]]:
    if ms.kind != "symmetric":
        raise ValueError("symmetric matrix required")
    return minor_components(ring, ms, t, R=R, r=r)


def constrained_pfaffian_ideal(
    ring: PolyRing,
    ms: MatrixSpec,
    two_t: int,
    R: Sequence[int] = (),
    r: Sequence[int] = (),
) -> IdealHandle:
    """Ideal generated by the 2t-Pfaffians with at least ``r[i]`` rows among
    the first ``R[i]``."""
    if ms.kind != "skew":
        raise ValueError("skew matrix required")
    if two_t <= 0:
        return _unit_handle(ring)
    if two_t % 2:
        raise ValueError("Pfaffian size must be even")
    R, r = _validate_blocks(R, r, ms.n, "rows")
    if two_t > ms.n:
        return IdealHandle(ring, ())
    gens = []
    for rows in combinations(range(1, ms.n + 1), two_t):
        if _rows_pass(rows, R, r):
            gens.append(pfaffian_poly(ring, ms, PfaffianIndex(rows)))
    return IdealHandle(ring, gens)


def pfaffian_components(
    ring: PolyRing,
    ms: MatrixSpec,
    two_t: int,
    R: Sequence[int] = (),
    r: Sequence[int] = (),
) -> List[Tuple[str, IdealHandle]]:
    if ms.kind != "skew":
        raise ValueError("skew matrix required")
    if two_t % 2:
        raise ValueError("Pfaffian size must be even")
    R, r = _validate_blocks(R, r, ms.n, "rows")
    out = [(f"pfaffians({two_t})", ideal_of_pfaffians(ring, ms, two_t))]
    for cut, need in zip(R, r):
        out.append(
            (
                f"pfaffians({need},rows<={cut})",
                pfaffian_row_component(ring, ms, need, cut),
            )
        )
    return out


# ---------------------------------------------------------------------------
# gradings and degree truncation


def column_grading(ms: MatrixSpec, a: int, p: int, q: int) -> GradingSpec:
    """Weight p on entries in the first ``a`` columns, q elsewhere."""
    if not 0 < p < q:
        raise ValueError("weights must satisfy 0 < p < q")
    if not 0 <= a <= ms.n:
        raise ValueError("column split out of range")
    table = variable_table(ms)
    if ms.kind != "generic":
        raise ValueError("column grading applies to the generic shape")
    weights = []
    for name in table.names:
        j = int(name[name.index(",") + 1 : -1])
        weights.append(p if j <= a else q)
    return GradingSpec(table, weights)


def skew_block_grading(ms: MatrixSpec, R: int, p: int, q: int) -> GradingSpec:
    """Weight 2p inside the first ``R`` rows, p+q straddling, 2q outside."""
    if ms.kind != "skew":
        raise ValueError("skew matrix required")
    if not 0 < p < q:
        raise ValueError("weights must satisfy 0 < p < q")
    if not 0 <= R <= ms.n:
        raise ValueError("row split out of range")
    table = variable_table(ms)
    weights = []
    for name in table.names:
        body = name[2:-1]
        i, j = (int(s) for s in body.split(","))
        if j <= R:
            weights.append(2 * p)
        elif i <= R:
            weights.append(p + q)
        else:
            weights.append(2 * q)
    return GradingSpec(table, weights)


def truncated_ideal(I: IdealHandle, grading: GradingSpec, d: int) -> IdealHandle:
    """Ideal generated by the listed generators of weighted degree <= d."""
    kept = []
    for g in I.gens:
        e = weighted_degree(grading, g)
        if e is None:
            raise ValueError("generator is not homogeneous for this grading")
        if e <= d:
            kept.append(g)
    return IdealHandle(I.ring, kept)


def monomials_of_weighted_degree(grading: GradingSpec, e: int) -> List[Monomial]:
    """All monomials of exact weighted degree ``e``, deterministically
    ordered."""
    weights = grading.weights
    n = len(weights)
    out: List[Monomial] = []

    def rec(pos: int, remaining: int, pairs: list):
        if remaining == 0:
            out.append(Monomial(tuple(pairs)))
            return
        if pos == n:
            return
        w = weights[pos]
        rec(pos + 1, remaining, pairs)
        for k in range(1, remaining // w + 1):
            rec(pos + 1, remaining - k * w, pairs + [(pos, k)])

    rec(0, e, [])
    return out


def coefficient_matrix(ring: PolyRing, polys: Sequence) -> Tuple[List[list], List[Monomial]]:
    """Dense coefficient rows of ``polys`` over the monomials they use.

    Returns ``(rows, monomials)``; the columns follow ``monomials``, which
    are sorted greatest first under the ring's order.
    """
    monos = sorted(
        {m for f in polys for m, _ in f.terms}, key=ring.order.key, reverse=True
    )
    index = {m.exps: i for i, m in enumerate(monos)}
    rows = []
    for f in polys:
        vec = [ring.field.zero] * len(monos)
        for m, c in f.terms:
            vec[index[m.exps]] = c
        rows.append(vec)
    return rows, monos


def truncated_ideal_graded(I: IdealHandle, grading: GradingSpec, d: int) -> IdealHandle:
    """The true degree-<= d truncation, built piece by piece.

    Each weighted-degree slice of the ideal is the span of monomial
    multiples of the generators; a row reduction turns every slice into an
    explicit basis, and all slices up to d generate the truncation.  This
    construction only assumes the generators generate, so it serves as an
    independent reference for :func:`truncated_ideal`.
    """
    ring = I.ring
    if not I.gens:
        return IdealHandle(ring, ())
    degs = []
    for g in I.gens:
        e = weighted_degree(grading, g)
        if e is None:
            raise ValueError("generator is not homogeneous for this grading")
        degs.append(e)
    out_gens = []
    for e in range(min(degs), d + 1):
        slice_polys = []
        for g, eg in zip(I.gens, degs):
            if eg > e:
                continue
            for mono in monomials_of_weighted_degree(grading, e - eg):
                slice_polys.append(g.term_mul(mono))
        if not slice_polys:
            continue
        mat, monos = coefficient_matrix(ring, slice_polys)
        reduced, _ = row_reduce(mat, ring.field)
        for rvec in reduced:
            out_gens.append(
                ring.from_terms(
                    (monos[i], coeff) for i, coeff in enumerate(rvec) if coeff != 0
                )
            )
    return IdealHandle(ring, out_gens)


def truncation_rank(size: int, p: int, q: int, d: int) -> int:
    """Least r with some size-step generator of weighted degree <= d, from
    size*q - r*(q - p) <= d: the ceiling of (size*q - d) / (q - p).

    ``size`` is t for minors under a column grading and 2t for Pfaffians
    under a block grading.
    """
    if not 0 < p < q:
        raise ValueError("weights must satisfy 0 < p < q")
    num = size * q - d
    den = q - p
    return -((-num) // den)
