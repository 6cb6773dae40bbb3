import random
from fractions import Fraction
from time import monotonic

import pytest

from detkit.groebner import BudgetExceeded, deadline_scope
from detkit.linalg import row_reduce, solve_columns
from detkit.poly import QQ, PrimeField
from helpers import expire_in_elimination


def test_row_reduce_known():
    rows = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(4), Fraction(6)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]
    red, piv = row_reduce(rows, QQ)
    assert piv == [0, 1]
    assert red == [
        [Fraction(1), Fraction(0), Fraction(1)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]
    assert len(row_reduce(rows, QQ)[0]) == 2


def test_row_reduce_identity_and_empty():
    red, piv = row_reduce([], QQ)
    assert red == [] and piv == []
    rows = [[Fraction(0), Fraction(5)], [Fraction(3), Fraction(0)]]
    red, piv = row_reduce(rows, QQ)
    assert piv == [0, 1]
    assert red == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    with pytest.raises(ValueError):
        row_reduce([[Fraction(1)], [Fraction(1), Fraction(2)]], QQ)


def test_rank_random_products():
    # rank of an outer product bounded by 1; sums of k outer products by k
    rng = random.Random(3)
    fp = PrimeField(32003)
    for _ in range(20):
        n, m = rng.randint(2, 5), rng.randint(2, 5)
        k = rng.randint(1, 2)
        mat = [[fp.zero] * m for _ in range(n)]
        for _ in range(k):
            u = [fp.of_int(rng.randint(0, 10)) for _ in range(n)]
            v = [fp.of_int(rng.randint(0, 10)) for _ in range(m)]
            for i in range(n):
                for j in range(m):
                    mat[i][j] = fp.add(mat[i][j], fp.mul(u[i], v[j]))
        assert len(row_reduce(mat, fp)[0]) <= k


def test_rref_is_projection():
    rng = random.Random(8)
    fp = PrimeField(101)
    for _ in range(20):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[fp.of_int(rng.randint(-5, 5)) for _ in range(m)] for _ in range(n)]
        before = [list(r) for r in rows]
        red, piv = row_reduce(rows, fp)
        again, piv2 = row_reduce(red, fp)
        assert again == red and piv2 == piv
        # the input stays as it was, and no output row is an input row, even
        # where the input is already reduced
        assert rows == before
        assert not any(r is s for r in red for s in rows)
        assert not any(r is s for r in again for s in red)
        for r, c in zip(red, piv):
            assert r[c] == fp.one
            for other in red:
                if other is not r:
                    assert other[c] == fp.zero


def test_solve_column():
    cols = [
        [Fraction(1), Fraction(0), Fraction(1)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]
    targets = [
        [Fraction(2), Fraction(3), Fraction(5)],
        [Fraction(1), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(0)],
    ]
    r, xs = solve_columns(cols, targets, QQ)
    assert r == 2
    assert xs == [[Fraction(2), Fraction(3)], None, [Fraction(0), Fraction(0)]]
    # underdetermined: free variable pinned to zero, residual still exact
    cols2 = [[Fraction(1)], [Fraction(2)]]
    r2, (x2,) = solve_columns(cols2, [[Fraction(4)]], QQ)
    assert r2 == 1
    assert x2 == [Fraction(4), Fraction(0)]
    with pytest.raises(ValueError):
        solve_columns(cols, [[Fraction(1)]], QQ)


def test_solve_columns_matches_rank():
    # a target the columns reach must be solved exactly, one they miss must
    # raise the rank; an earlier target outside the span must not let a
    # later one through on its account
    rng = random.Random(5)
    fp = PrimeField(7)
    for _ in range(60):
        n, k, t = rng.randint(1, 5), rng.randint(0, 4), rng.randint(1, 4)
        cols = [[fp.of_int(rng.randint(0, 2)) for _ in range(n)] for _ in range(k)]
        targets = []
        for _ in range(t):
            if cols and rng.random() < 0.5:
                mix = [fp.of_int(rng.randint(0, 6)) for _ in cols]
                targets.append([sum(c * v[i] for c, v in zip(mix, cols)) % 7 for i in range(n)])
            else:
                targets.append([fp.of_int(rng.randint(0, 6)) for _ in range(n)])
        r, xs = solve_columns(cols, targets, fp)
        base = len(row_reduce([list(row) for row in zip(*cols)], fp)[0]) if cols else 0
        assert r == base
        for target, x in zip(targets, xs):
            grown = row_reduce([list(row) for row in zip(*cols, target)], fp)[0]
            reachable = len(grown) == base
            assert (x is not None) == reachable
            if x is not None:
                got = [sum(c * v[i] for c, v in zip(x, cols)) % 7 for i in range(n)]
                assert got == target


def test_solve_columns_checks_the_deadline(monkeypatch):
    # a clock that passes the deadline once the elimination has started
    # must stop it at its first column
    started = expire_in_elimination(monkeypatch)
    fp = PrimeField(101)
    cols = [[fp.one, fp.zero], [fp.zero, fp.one]]
    with deadline_scope(monotonic() + 60), pytest.raises(BudgetExceeded) as info:
        solve_columns(cols, [[fp.one, fp.one]], fp)
    assert len(started) == 1
    assert [entry.name for entry in info.traceback][-2:] == ["row_reduce", "_check_deadline"]
