"""Index combinatorics: minor and Pfaffian index sets, their partial orders,
and generated / cogenerated order ideals.

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
from typing import Iterable, Sequence, Tuple

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
