"""Ideals of minors and Pfaffians with block constraints.

Three matrix shapes share one interface: a generic m x n matrix of
independent entries ``x[i,j]``, a symmetric n x n matrix over ``y[i,j]``
(i <= j), and a skew-symmetric n x n matrix over ``z[i,j]`` (i < j) with
zero diagonal.  Variables are ordered row-major, earlier rows first, so
``x[1,1]`` is the greatest variable.

Row constraints are given as two equal-length tuples ``R`` and ``r``:
``R`` lists nested row-block cutoffs (strictly increasing) and ``r[i]``
asks for at least ``r[i]`` rows inside the first ``R[i]`` rows.  Column
constraints ``C`` / ``c`` mirror this on columns; Pfaffians take none.

The generators are the minors of a generic or symmetric matrix and the
Pfaffians of a skew one; only this module makes that choice.  Each is one
signed sum of Laplace products or perfect matchings, merged and sorted once
by int keys read off the weights that the order keeps per base
(:func:`_signed_sum`), and each build reads the clock of
:func:`~detkit.groebner.deadline_scope`.  The ideal builders and
:func:`generator` take each generator's terms from the ring's
``generators`` table, so each is built once per ring and shape, and the
ideals and witnesses of a case share them.  The factors of a product are
read off a table of :func:`entry` values built once per shape, so the
signs, the zeros, the symmetric mirror and the skew sign stay
:func:`entry`'s.  The signed permutations or matchings of each size are
enumerated once and cached, as the entry tables are.
:func:`constrained_ideal` and :func:`components` build the constrained ideal
and its named intersectands for every shape; the per-shape names
(``constrained_pfaffian_ideal``, ``minor_components`` ...) check the shape
and delegate to them.

A handle that is a plain ideal of a submatrix carries its closed-form
Hilbert numerator as its ``series`` (:func:`_series`): the unblocked
generators of every shape, the generic row and column components, and the
skew row components of even ``need``.  Its basis run reads that series
once, off the generators' leads before any pair, and ends there when the
reading meets it, which it does when the generators are already a Groebner
basis.  Symmetric row components, odd-``need`` skew components and
``keep``-filtered lists carry none.

A truncation keeps the generators of weighted degree <= d under a grading
(:func:`truncated_ideal`).  Its reference, :func:`truncated_ideal_graded`,
lists the monomial multiples of the generators up to that degree and
leaves their elimination to the basis run; this module does no linear
algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import combinations
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .combinat import MinorIndex, PfaffianIndex, _unchecked, determinantal_numerator, in_doset
from .groebner import IdealHandle, _check_deadline
from .poly import (
    GradingSpec,
    Monomial,
    PolyRing,
    Polynomial,
    VariableTable,
    _mk,
    _unit_pairs,
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
    "minor_poly",
    "pfaffian_poly",
    "generator",
    "check_blocks",
    "constrained_ideal",
    "components",
    "block_component",
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
        if self.kind == "skew" and self.n < 2:
            raise ValueError("skew matrix needs size >= 2")


def generic_matrix(m: int, n: int) -> MatrixSpec:
    return MatrixSpec("generic", m, n)


def symmetric_matrix(n: int) -> MatrixSpec:
    return MatrixSpec("symmetric", n, n)


def skew_matrix(n: int) -> MatrixSpec:
    return MatrixSpec("skew", n, n)


@lru_cache(maxsize=None)
def _layout(ms: MatrixSpec) -> Tuple[Tuple[str, ...], Dict[Tuple[int, int], int]]:
    """Names and positions of the stored entries: all of a generic matrix,
    those on or above the diagonal of a symmetric one, those above it of a
    skew one."""
    letter = {"generic": "x", "symmetric": "y", "skew": "z"}[ms.kind]
    names: List[str] = []
    pos: Dict[Tuple[int, int], int] = {}
    for i in range(1, ms.m + 1):
        first = {"generic": 1, "symmetric": i, "skew": i + 1}[ms.kind]
        for j in range(first, ms.n + 1):
            pos[(i, j)] = len(names)
            names.append(f"{letter}[{i},{j}]")
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
    if (i, j) in pos:
        return 1, pos[(i, j)]
    if (j, i) in pos:
        return (1 if ms.kind == "symmetric" else -1), pos[(j, i)]
    return 0, None


@lru_cache(maxsize=None)
def _entry_table(ms: MatrixSpec) -> tuple:
    """:func:`entry` of every ``(i, j)`` at ``[i][j]``, built once per shape;
    row 0 and column 0 are padding."""
    pad = (0, None)
    return ((pad,) * (ms.n + 1),) + tuple(
        (pad,) + tuple(entry(ms, i, j) for j in range(1, ms.n + 1)) for i in range(1, ms.m + 1)
    )


# ---------------------------------------------------------------------------
# minors and Pfaffians


@lru_cache(maxsize=None)
def _laplace(size: int) -> tuple:
    """``(sign, perm)`` for each term of a ``size``-determinant expanded
    along its first column: ``perm[c]`` is the row offset in column ``c``.
    Row ``k`` in the first column has sign ``(-1)^k``."""
    if not size:
        return ((1, ()),)
    sub = _laplace(size - 1)
    out = []
    for k in range(size):
        rest = [r for r in range(size) if r != k]
        for s, perm in sub:
            out.append((-s if k % 2 else s, (k, *map(rest.__getitem__, perm))))
    return tuple(out)


@lru_cache(maxsize=None)
def _matchings(size: int) -> tuple:
    """``(sign, pairs)`` for each perfect matching of ``range(size)``, the
    Pfaffian expanded along its first row: ``pairs`` lists the matched
    offsets flat, each pair in increasing order, and the term pairing ``0``
    with ``k`` has sign ``(-1)^(k+1)``."""
    if not size:
        return ((1, ()),)
    sub = _matchings(size - 2)
    out = []
    for k in range(1, size):
        rest = [r for r in range(1, size) if r != k]
        for s, pairs in sub:
            out.append((s if k % 2 else -s, (0, k, *map(rest.__getitem__, pairs))))
    return tuple(out)


def _signed_sum(ring: PolyRing, products: list, deg: int):
    """The polynomial of ``(sign, positions)`` products of degree ``deg``,
    sorted once; the one clock read of a generator build.  A product's key
    is the dot product of its exponents with the order's weights at base
    ``deg + 1``, which no exponent reaches, so keys sort like the order and
    equal keys are equal monomials: those merge, and a sum that is zero in
    the field drops."""
    _check_deadline()
    weights = ring.order.weights(deg + 1)
    pairs = _unit_pairs(len(weights))
    sums: dict = {}
    monos: dict = {}
    for sign, ps in products:
        k = sum(map(weights.__getitem__, ps))
        if k in sums:
            sums[k] += sign
            continue
        sums[k] = sign
        exps: dict = {}
        for p in sorted(ps):
            exps[p] = exps.get(p, 0) + 1
        monos[k] = _mk(tuple([pairs[p] if e == 1 else (p, e) for p, e in exps.items()]), deg)
    of_int = ring.field.of_int
    terms = []
    for k in sorted(sums, reverse=True):
        c = of_int(sums[k])
        if c:
            terms.append((monos[k], c))
    return Polynomial(ring, tuple(terms))


def minor_poly(ring: PolyRing, ms: MatrixSpec, ix: MinorIndex):
    """Determinant of the submatrix on ``ix.rows`` x ``ix.cols``: the
    signed sum of its Laplace products along the first column, each factor
    read off the entry table, which supplies the symmetric mirror, the skew
    sign and the skew zero diagonal."""
    if ix.rows[-1] > ms.m or ix.cols[-1] > ms.n:
        raise ValueError(f"minor {ix} does not fit a {ms.m}x{ms.n} matrix")
    table, cols = _entry_table(ms), ix.cols
    rows = [table[i] for i in ix.rows]
    products = []
    for sign, perm in _laplace(len(cols)):
        ps = []
        for k, j in zip(perm, cols):
            s, p = rows[k][j]
            if not s:
                break
            sign *= s
            ps.append(p)
        else:
            products.append((sign, ps))
    return _signed_sum(ring, products, len(cols))


def pfaffian_poly(ring: PolyRing, ms: MatrixSpec, ix: PfaffianIndex):
    """Pfaffian of the principal skew submatrix on ``ix.rows``: the signed
    sum over its perfect matchings, each factor the position of the entry
    above the diagonal, read off the entry table."""
    if ms.kind != "skew":
        raise ValueError("Pfaffians require a skew matrix")
    if ix.rows[-1] > ms.n:
        raise ValueError(f"Pfaffian {ix} does not fit size {ms.n}")
    table, idx = _entry_table(ms), ix.rows
    rows = [table[i] for i in idx]
    products = []
    for sign, pairs in _matchings(len(idx)):
        ps = []
        it = iter(pairs)
        for a in it:
            ps.append(rows[a][idx[next(it)]][1])
        products.append((sign, ps))
    return _signed_sum(ring, products, len(idx) // 2)


def generator(ring: PolyRing, ms: MatrixSpec, rows: Sequence[int], cols: Sequence[int]):
    """``(index, polynomial)`` of the Pfaffian on ``rows`` of a skew matrix,
    or of the minor on ``rows`` x ``cols`` of another shape."""
    ix = PfaffianIndex(rows) if ms.kind == "skew" else MinorIndex(rows, cols)
    return ix, _generator(ring, ms, ix)


def _generator(ring: PolyRing, ms: MatrixSpec, ix) -> Polynomial:
    """The generator at ``ix``, whose terms the ring's ``generators`` table
    keeps: a polynomial's ``ring`` would make a cycle outliving the case."""
    built = ring.generators.setdefault(ms, {})
    terms = built.get(ix)
    if terms is None:
        poly = pfaffian_poly if ms.kind == "skew" else minor_poly
        terms = built[ix] = poly(ring, ms, ix).terms
    return Polynomial(ring, terms)


# ---------------------------------------------------------------------------
# block-constrained ideals and their decomposition components


def _require(ms: MatrixSpec, *kinds: str) -> None:
    if ms.kind not in kinds:
        raise ValueError(f"{' or '.join(kinds)} matrix required")


_FAMILY = {"generic": "minors", "symmetric": "minors", "skew": "pfaffians"}


def check_blocks(ms: MatrixSpec, R, r, C=(), c=()) -> list:
    """``[R, r, C, c]`` as tuples, after checking that both block lists fit
    ``ms``; errors name the offending list."""
    if ms.kind == "skew" and (C or c):
        raise ValueError("C: Pfaffians take no column blocks")
    out = []
    for label, cuts, needs, limit in (("R", R, r, ms.m), ("C", C, c, ms.n)):
        cuts, needs = tuple(cuts), tuple(needs)
        if len(cuts) != len(needs):
            raise ValueError(f"{label}: cutoff and count lists differ in length")
        if any(a >= b for a, b in zip(cuts, cuts[1:])):
            raise ValueError(f"{label}: cutoffs must be strictly increasing")
        if cuts and not (1 <= cuts[0] and cuts[-1] <= limit):
            raise ValueError(f"{label}: cutoffs must lie in 1..{limit}")
        if any(x < 0 for x in needs):
            raise ValueError(f"{label}: counts must be >= 0")
        out += [cuts, needs]
    return out


def _block(cut: Optional[int], need: int) -> tuple:
    """Cutoff and count lists of one block; no cutoff gives no block."""
    return ((), ()) if cut is None else ((cut,), (need,))


def _passes(ix: Sequence[int], cuts: Sequence[int], needs: Sequence[int]) -> bool:
    return all(sum(1 for a in ix if a <= cut) >= need for cut, need in zip(cuts, needs))


def _block_indices(ms: MatrixSpec, size: int, R=(), r=(), C=(), c=()) -> Iterator:
    """Indices of the ``size``-Pfaffians of a skew matrix, or of the
    ``size``-minors of another shape, that pass the row blocks ``R``/``r``
    and the column blocks ``C``/``c``; rows vary slowest, and row and column
    lists each come in lexicographic order.  ``combinations`` yields only
    valid index lists, so the indices skip their checks."""
    for rows in combinations(range(1, ms.m + 1), size):
        _check_deadline()
        if not _passes(rows, R, r):
            continue
        if ms.kind == "skew":
            yield _unchecked(PfaffianIndex, rows)
            continue
        for cols in combinations(range(1, ms.n + 1), size):
            if _passes(cols, C, c):
                yield _unchecked(MinorIndex, rows, cols)


def _series(ms: MatrixSpec, size: int, R=(), r=(), C=(), c=()) -> Optional[tuple]:
    """The closed-form Hilbert numerator of the ideal of the ``size``
    generators that pass the blocks, when that ideal is a plain one of a
    submatrix: every generator without blocks, those of the first ``cut``
    rows or columns of a generic matrix, or the Pfaffians of the first
    ``cut`` rows of a skew one.  The entries outside the submatrix are free
    variables, which leave the numerator as it is.  Other ideals, symmetric
    row blocks among them, get ``None``."""
    dims = [ms.m, ms.n]
    for axis, (cuts, needs) in enumerate(((R, r), (C, c))):
        if cuts:
            if ms.kind == "symmetric" or len(cuts) > 1 or needs[0] != size:
                return None
            dims[axis] = cuts[0]
    m, n = dims
    return determinantal_numerator(ms.kind, m, m if ms.kind == "skew" else n, size)


def _ideal(ring: PolyRing, ms: MatrixSpec, size: int, *blocks, keep=None) -> IdealHandle:
    """Ideal of the generators (:func:`_generator`) at ``_block_indices(ms,
    size, *blocks)`` that ``keep`` (when given) accepts, with its
    :func:`_series` when it has one and ``keep`` is not given.  Size 0 or
    below gives the unit ideal, no index the zero ideal."""
    if size <= 0:
        return IdealHandle(ring, (ring.one,))
    if ms.kind == "skew" and size % 2:
        raise ValueError("Pfaffian size must be even")
    ixs = _block_indices(ms, size, *blocks)
    gens = [_generator(ring, ms, ix) for ix in ixs if keep is None or keep(ix)]
    return IdealHandle(ring, gens, _series(ms, size, *blocks) if keep is None else None)


def constrained_ideal(
    ring: PolyRing,
    ms: MatrixSpec,
    size: int,
    R: Sequence[int] = (),
    r: Sequence[int] = (),
    C: Sequence[int] = (),
    c: Sequence[int] = (),
) -> IdealHandle:
    """Ideal of the ``size``-minors (``size``-Pfaffians on a skew matrix)
    with at least ``r[i]`` rows among the first ``R[i]`` and at least
    ``c[j]`` columns among the first ``C[j]``.  Size 0 or below gives the
    unit ideal; a size too large for the shape gives the zero ideal."""
    return _ideal(ring, ms, size, *check_blocks(ms, R, r, C, c))


def block_component(
    ring: PolyRing, ms: MatrixSpec, need: int, cut: int, axis: str = "rows"
) -> Tuple[str, IdealHandle]:
    """The named component of one block: the generators with at least
    ``need`` rows (or columns, for ``axis="cols"``) among the first ``cut``.

    Minors have size ``need``.  Pfaffians have size ``need + need % 2``: for
    even ``need`` the Pfaffians of the first ``cut`` rows, for odd ``need``
    those with one row past the cutoff.
    """
    if axis not in ("rows", "cols") or (axis == "cols" and ms.kind == "skew"):
        raise ValueError(f"no {axis!r} blocks on a {ms.kind} matrix")
    size = need + need % 2 if ms.kind == "skew" else need
    block, free = _block(cut, need), _block(None, need)
    rows, cols = (block, free) if axis == "rows" else (free, block)
    name = f"{_FAMILY[ms.kind]}({need},{axis}<={cut})"
    return name, _ideal(ring, ms, size, *rows, *cols)


def components(
    ring: PolyRing,
    ms: MatrixSpec,
    size: int,
    R: Sequence[int] = (),
    r: Sequence[int] = (),
    C: Sequence[int] = (),
    c: Sequence[int] = (),
) -> List[Tuple[str, IdealHandle]]:
    """Named intersectands: the plain ``size``-generator ideal, then one
    :func:`block_component` per row block and per column block."""
    R, r, C, c = check_blocks(ms, R, r, C, c)
    out = [(f"{_FAMILY[ms.kind]}({size})", _ideal(ring, ms, size))]
    out += [block_component(ring, ms, need, cut, "rows") for cut, need in zip(R, r)]
    out += [block_component(ring, ms, need, cut, "cols") for cut, need in zip(C, c)]
    return out


# -- the per-shape names --------------------------------------------------------


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
    _require(ms, "generic", "symmetric")
    return _ideal(ring, ms, size, *_block(row_limit, size), *_block(col_limit, size))


def ideal_of_pfaffians(
    ring: PolyRing,
    ms: MatrixSpec,
    size: int,
    row_limit: Optional[int] = None,
) -> IdealHandle:
    """Ideal of ``size``-Pfaffians (size even), optionally of the first
    ``row_limit`` rows."""
    _require(ms, "skew")
    return _ideal(ring, ms, size, *_block(row_limit, size))


def pfaffian_row_component(ring: PolyRing, ms: MatrixSpec, r: int, R: int) -> IdealHandle:
    """The component attached to a row block (R, r) of a skew matrix.

    Even ``r``: the r-Pfaffians of the first R rows.  Odd ``r``: the
    (r+1)-Pfaffians using at least r rows from the first R, which is the sum
    over k > R of the (r+1)-Pfaffian ideals on rows [1..R] + {k}.
    """
    _require(ms, "skew")
    return block_component(ring, ms, r, R)[1]


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
    _require(ms, "symmetric")
    keep = in_doset if doset_only else None
    return _ideal(ring, ms, t, *check_blocks(ms, R, r), keep=keep)


def _shape_checked(builder, *kinds: str):
    """``builder`` behind a check that the matrix shape is one of ``kinds``."""

    @wraps(builder)
    def checked(ring: PolyRing, ms: MatrixSpec, *args, **kwargs):
        _require(ms, *kinds)
        return builder(ring, ms, *args, **kwargs)

    return checked


constrained_minor_ideal = _shape_checked(constrained_ideal, "generic", "symmetric")
minor_components = _shape_checked(components, "generic", "symmetric")
symmetric_components = _shape_checked(components, "symmetric")
constrained_pfaffian_ideal = _shape_checked(constrained_ideal, "skew")
pfaffian_components = _shape_checked(components, "skew")


# ---------------------------------------------------------------------------
# gradings and degree truncation


def column_grading(ms: MatrixSpec, a: int, p: int, q: int) -> GradingSpec:
    """Weight p on entries in the first ``a`` columns, q elsewhere."""
    if not 0 < p < q:
        raise ValueError("weights must satisfy 0 < p < q")
    if not 0 <= a <= ms.n:
        raise ValueError("column split out of range")
    _require(ms, "generic")
    weights = [p if j <= a else q for _, j in _layout(ms)[1]]
    return GradingSpec(variable_table(ms), weights)


def skew_block_grading(ms: MatrixSpec, R: int, p: int, q: int) -> GradingSpec:
    """Weight 2p inside the first ``R`` rows, p+q straddling, 2q outside."""
    _require(ms, "skew")
    if not 0 < p < q:
        raise ValueError("weights must satisfy 0 < p < q")
    if not 0 <= R <= ms.n:
        raise ValueError("row split out of range")
    # each index of an entry weighs p inside the block and q outside it
    weights = [sum(p if k <= R else q for k in ij) for ij in _layout(ms)[1]]
    return GradingSpec(variable_table(ms), weights)


def _weighted_degrees(I: IdealHandle, grading: GradingSpec) -> List[int]:
    """The weighted degree of each generator; all must be homogeneous."""
    degs = [weighted_degree(grading, g) for g in I.gens]
    if None in degs:
        raise ValueError("generator is not homogeneous for this grading")
    return degs


def truncated_ideal(I: IdealHandle, grading: GradingSpec, d: int) -> IdealHandle:
    """Ideal generated by the listed generators of weighted degree <= d."""
    degs = _weighted_degrees(I, grading)
    return IdealHandle(I.ring, [g for g, e in zip(I.gens, degs) if e <= d])


def monomials_of_weighted_degree(grading: GradingSpec, e: int) -> List[Monomial]:
    """All monomials of exact weighted degree ``e``, deterministically
    ordered."""
    out: List[Monomial] = []
    _weighted_monomials(grading.weights, 0, e, [], out)
    return out


def _weighted_monomials(weights: tuple, pos: int, remaining: int, pairs: list, out: list) -> None:
    """Append to ``out`` the monomial ``pairs`` times each monomial of
    weighted degree ``remaining`` in the variables from ``pos`` on."""
    if remaining == 0:
        out.append(Monomial(tuple(pairs)))
        return
    if pos == len(weights):
        return
    w = weights[pos]
    _weighted_monomials(weights, pos + 1, remaining, pairs, out)
    for k in range(1, remaining // w + 1):
        _weighted_monomials(weights, pos + 1, remaining - k * w, pairs + [(pos, k)], out)


def truncated_ideal_graded(I: IdealHandle, grading: GradingSpec, d: int) -> IdealHandle:
    """The true degree-<= d truncation, built piece by piece: the ideal of
    every monomial multiple of a generator of weighted degree <= d, listed
    slice by slice, lightest first.  Each slice goes to the basis run, whose
    generator pass is the elimination: it reduces each multiple by the ones
    before it, so a slice adds one element per pivot of its row echelon
    form that no lighter slice's lead divides.  This construction only
    assumes the generators generate, so it serves as an independent
    reference for :func:`truncated_ideal`.  The clock is read once per
    generator and slice.
    """
    degs = _weighted_degrees(I, grading)
    gens = []
    for e in range(min(degs, default=d + 1), d + 1):
        for g, eg in zip(I.gens, degs):
            if eg <= e:
                _check_deadline()
                gens += map(g.term_mul, monomials_of_weighted_degree(grading, e - eg))
    return IdealHandle(I.ring, gens)


def truncation_rank(size: int, p: int, q: int, d: int) -> int:
    """Least r >= 0 with some size-step generator of weighted degree <= d,
    from size*q - r*(q - p) <= d: the ceiling of (size*q - d) / (q - p).

    ``size`` is t for t-minors under a column grading and for t-Pfaffians
    under a block grading: a term of either covers t column or row indices.
    """
    if not 0 < p < q:
        raise ValueError("weights must satisfy 0 < p < q")
    num = size * q - d
    den = q - p
    return max(0, -((-num) // den))
