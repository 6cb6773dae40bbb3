"""Index combinatorics: minor and Pfaffian index sets, their partial orders,
generated / cogenerated order ideals, and the closed-form Hilbert series of
the plain determinantal and Pfaffian ideals.

A minor index ``[a_1..a_s | b_1..b_s]`` pairs strictly increasing row and
column lists of equal length.  A Pfaffian index is a single strictly
increasing row list of even length.  Smaller (fewer, later) indices cut out
larger varieties, so the order puts ``[1..t|1..t]``-style corners at the
bottom and short indices on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Sequence, Tuple

from .groebner import _check_deadline

__all__ = [
    "subset_leq",
    "MinorIndex",
    "PfaffianIndex",
    "minor_leq",
    "in_doset",
    "doset_leq",
    "PosetUniverse",
    "minors_universe",
    "order_ideal_generated",
    "order_ideal_cogenerated",
    "format_bracket",
    "partitions",
    "schur_dimension",
    "determinantal_numerator",
]


def _check_increasing(seq: Sequence[int], label: str) -> Tuple[int, ...]:
    seq = tuple(seq)
    if any(a < 1 for a in seq):
        raise ValueError(f"{label} entries must be >= 1")
    if any(a >= b for a, b in zip(seq, seq[1:])):
        raise ValueError(f"{label} must be strictly increasing")
    return seq


def subset_leq(a: Sequence[int], b: Sequence[int]) -> bool:
    """Order on strictly increasing integer tuples: a <= b when a is at
    least as long as b and a_i <= b_i entrywise on b's length.  The empty
    tuple is the unique maximum."""
    if len(a) < len(b):
        return False
    return all(x <= y for x, y in zip(a, b))


@dataclass(frozen=True)
class MinorIndex:
    rows: Tuple[int, ...]
    cols: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", _check_increasing(self.rows, "rows"))
        object.__setattr__(self, "cols", _check_increasing(self.cols, "cols"))
        if len(self.rows) != len(self.cols):
            raise ValueError("row and column lists must have equal length")
        if not self.rows:
            raise ValueError("empty minor index")

    @property
    def size(self) -> int:
        return len(self.rows)

    def __str__(self) -> str:
        return format_bracket(self)


@dataclass(frozen=True)
class PfaffianIndex:
    rows: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", _check_increasing(self.rows, "rows"))
        if not self.rows or len(self.rows) % 2:
            raise ValueError("Pfaffian index needs a nonempty even row list")

    @property
    def size(self) -> int:
        return len(self.rows)

    def __str__(self) -> str:
        return format_bracket(self)


def _unchecked(cls, *lists):
    """An index of ``cls`` (:class:`MinorIndex` or :class:`PfaffianIndex`)
    over tuples already strictly increasing, positive and of a valid length,
    as ``combinations`` of ``range(1, k)`` yields them: built without the
    checks of ``__post_init__``, which indices from user input keep."""
    ix = object.__new__(cls)
    for name, val in zip(("rows", "cols"), lists):
        object.__setattr__(ix, name, val)
    return ix


def minor_leq(a: MinorIndex, b: MinorIndex) -> bool:
    return subset_leq(a.rows, b.rows) and subset_leq(a.cols, b.cols)


def in_doset(a: MinorIndex) -> bool:
    """Row list dominated by the column list entrywise."""
    return all(r <= c for r, c in zip(a.rows, a.cols))


def doset_leq(a: MinorIndex, b: MinorIndex) -> bool:
    """Comparison used on doset indices: only the row lists are compared.

    This is a preorder on the doset (distinct indices with equal rows are
    equivalent, not incomparable).
    """
    return subset_leq(a.rows, b.rows)


class PosetUniverse:
    """All indices of one kind that fit inside an m x n (or n x n) matrix,
    together with the matching comparison."""

    def __init__(self, kind: str, m: int, n: int):
        if kind not in ("minors", "doset_minors", "pfaffians"):
            raise ValueError(f"unknown poset kind {kind!r}")
        if kind != "minors" and m != n:
            raise ValueError("square shape required")
        self.kind = kind
        self.m = m
        self.n = n

    def elements(self) -> tuple:
        return _universe_elements(self.kind, self.m, self.n)

    def leq(self, a, b) -> bool:
        if self.kind == "minors":
            return minor_leq(a, b)
        if self.kind == "doset_minors":
            return doset_leq(a, b)
        return subset_leq(a.rows, b.rows)

    def __repr__(self) -> str:
        return f"PosetUniverse({self.kind!r}, {self.m}, {self.n})"


@lru_cache(maxsize=None)
def _universe_elements(kind: str, m: int, n: int) -> tuple:
    out = []
    if kind == "pfaffians":
        for s in range(2, n + 1, 2):
            out.extend(PfaffianIndex(rows) for rows in combinations(range(1, n + 1), s))
        return tuple(out)
    for s in range(1, min(m, n) + 1):
        for rows in combinations(range(1, m + 1), s):
            for cols in combinations(range(1, n + 1), s):
                ix = MinorIndex(rows, cols)
                if kind == "doset_minors" and not in_doset(ix):
                    continue
                out.append(ix)
    return tuple(out)


def minors_universe(m: int, n: int) -> PosetUniverse:
    return PosetUniverse("minors", m, n)


def order_ideal_generated(universe: PosetUniverse, gens: Iterable) -> tuple:
    """Down-set generated by ``gens``: everything below some generator."""
    gens = tuple(gens)
    return tuple(
        a for a in universe.elements() if any(universe.leq(a, s) for s in gens)
    )


def order_ideal_cogenerated(universe: PosetUniverse, cogens: Iterable) -> tuple:
    """Largest down-set avoiding ``cogens``: everything that lies above no
    cogenerator."""
    cogens = tuple(cogens)
    return tuple(
        a
        for a in universe.elements()
        if not any(universe.leq(s, a) for s in cogens)
    )


# -- bracket notation ----------------------------------------------------------


def format_bracket(ix) -> str:
    if isinstance(ix, MinorIndex):
        return "[{}|{}]".format(
            ",".join(map(str, ix.rows)), ",".join(map(str, ix.cols))
        )
    return "[{}]".format(",".join(map(str, ix.rows)))


# -- Hilbert series of determinantal and Pfaffian ideals --------------------------


def partitions(d: int, k: int) -> Iterator[Tuple[int, ...]]:
    """The partitions of ``d`` into at most ``k`` parts, each a
    non-increasing tuple, in decreasing lexicographic order."""
    return _partitions(d, k, d)


def _partitions(rest: int, parts: int, top: int) -> Iterator[Tuple[int, ...]]:
    """:func:`partitions` of ``rest`` into at most ``parts`` parts, none above ``top``."""
    if not rest:
        yield ()
    elif parts:
        # the first part is at least the average of what remains
        for first in range(min(rest, top), -(-rest // parts) - 1, -1):
            for tail in _partitions(rest - first, parts - 1, first):
                yield (first,) + tail


def schur_dimension(shape: Sequence[int], k: int) -> int:
    """``s_shape(1^k)``, the semistandard tableaux of ``shape`` with entries
    in ``1..k``, by Weyl's product over the ``r`` nonzero parts from 0:
    ``prod_{i<j<r} (mu_i-mu_j+j-i)/(j-i) * prod_{i<r} C(mu_i+k-1-i, k-r) /
    C(k-1-i, k-r)``, the last factor for the zero parts; 0 when ``r > k``."""
    mu = [a for a in shape if a]
    r = len(mu)
    if r > k:
        return 0
    num = den = 1
    for i, a in enumerate(mu):
        for j in range(i + 1, r):
            num *= a - mu[j] + j - i
            den *= j - i
        num *= comb(a + k - 1 - i, k - r)
        den *= comb(k - 1 - i, k - r)
    return num // den


def _numerator_degree(kind: str, m: int, n: int, t: int) -> Tuple[int, int]:
    """``(nvars, deg N)`` for the size-``t`` ideal of ``kind`` on ``m x n``,
    ``m <= n``: ``deg N = nvars + a`` with ``a`` the a-invariant of the
    quotient and ``r`` its rank bound (Bruns and Herzog, *Cohen-Macaulay
    Rings*, 7.3, for the generic case).  The oracle test checks all three
    rules against numerators read off Groebner bases.  A zero ideal has
    ``N = 1``."""
    if kind == "generic":
        nvars, r = m * n, t - 1
        a = -r * n
    elif kind == "skew":
        nvars, r = n * (n - 1) // 2, t // 2 - 1
        a = -r * n
    else:
        nvars, r = n * (n + 1) // 2, t - 1
        a = -(r * n // 2) if (n - r) % 2 else -(r * (n + 1) // 2)
    return nvars, max(0, nvars + a)


def _hilbert_function(kind: str, m: int, n: int, t: int, d: int) -> int:
    """``HF(S/I)(d)`` as a sum over the Schur modules of degree ``d`` that
    survive the rank bound: standard bitableaux for the generic and
    symmetric minors (De Concini, Eisenbud and Procesi, Invent. Math. 1980;
    Conca, J. Algebra 1994), standard Pfaffian tableaux for the skew
    Pfaffians (Herzog and Trung, Adv. Math. 1992)."""
    if kind == "generic":
        return sum(schur_dimension(mu, m) * schur_dimension(mu, n) for mu in partitions(d, t - 1))
    if kind == "symmetric":
        return sum(schur_dimension([2 * a for a in mu], n) for mu in partitions(d, t - 1))
    return sum(
        schur_dimension([a for a in mu for _ in (0, 1)], n) for mu in partitions(d, t // 2 - 1)
    )


@lru_cache(maxsize=None)
def determinantal_numerator(kind: str, m: int, n: int, t: int) -> Tuple[int, ...]:
    """The numerator ``N(t)`` of ``HS(S/I) = N(t)/(1-t)^nvars``, trailing
    zeros dropped, where ``I`` is the ideal of the ``t``-minors of a generic
    ``m x n`` or symmetric ``n x n`` matrix, or of the ``t``-Pfaffians of a
    skew ``n x n`` one (``kind`` ``"generic"``, ``"symmetric"`` or
    ``"skew"``), over any field.  The clock of
    :func:`~detkit.groebner.deadline_scope` is read once per degree."""
    if kind == "generic" and m > n:
        m, n = n, m
    nvars, top = _numerator_degree(kind, m, n, t)
    hf = []
    num = []
    for d in range(top + 1):
        _check_deadline()
        hf.append(_hilbert_function(kind, m, n, t, d))
        # N = HF(t) * (1 - t)^nvars, up to its degree
        num.append(sum((-1) ** i * comb(nvars, i) * hf[d - i] for i in range(d + 1)))
    while len(num) > 1 and not num[-1]:
        num.pop()
    return tuple(num)
