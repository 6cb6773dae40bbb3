import random
from fractions import Fraction
from time import monotonic

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detkit import linalg
from detkit.groebner import BudgetExceeded, deadline_scope
from detkit.harness import CaseSpec, run_case
from detkit.linalg import row_reduce, solve_columns
from detkit.poly import QQ, PrimeField, field_from_name
from helpers import dense_row_reduce, dense_solve_columns, expire_in_elimination


def sparse(vec):
    return {c: v for c, v in enumerate(vec) if v}


def densify(rows, ncols, field):
    return [[row.get(c, field.zero) for c in range(ncols)] for row in rows]


def test_row_reduce_known():
    rows = [
        {0: Fraction(1), 1: Fraction(2), 2: Fraction(3)},
        {0: Fraction(2), 1: Fraction(4), 2: Fraction(6)},
        {1: Fraction(1), 2: Fraction(1)},
    ]
    red, piv = row_reduce(rows, QQ)
    assert piv == [0, 1]
    assert red == [
        {0: Fraction(1), 2: Fraction(1)},
        {1: Fraction(1), 2: Fraction(1)},
    ]
    assert len(row_reduce(rows, QQ)[0]) == 2


def test_row_reduce_identity_and_empty():
    red, piv = row_reduce([], QQ)
    assert red == [] and piv == []
    red, piv = row_reduce([{}, {}], QQ)
    assert red == [] and piv == []
    rows = [{1: Fraction(5)}, {0: Fraction(3)}]
    red, piv = row_reduce(rows, QQ)
    assert piv == [0, 1]
    assert red == [{0: Fraction(1)}, {1: Fraction(1)}]


def test_stored_zero_is_never_a_pivot():
    # a stored zero entry is no entry: it is dropped, so the row's lowest
    # nonzero column is its pivot, and a row of stored zeros is a zero row
    fp = PrimeField(7)
    red, piv = row_reduce([{0: 0, 2: 3}, {1: 0}], fp)
    assert piv == [2]
    assert red == [{2: 1}]
    rows = [{0: Fraction(0), 1: Fraction(2)}]
    red, piv = row_reduce(rows, QQ)
    assert piv == [1] and red == [{1: Fraction(1)}]
    assert rows == [{0: Fraction(0), 1: Fraction(2)}]


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
        assert len(row_reduce([sparse(r) for r in mat], fp)[0]) <= k


def test_rref_is_projection():
    rng = random.Random(8)
    fp = PrimeField(101)
    for _ in range(20):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        rows = [sparse(fp.of_int(rng.randint(-5, 5)) for _ in range(m)) for _ in range(n)]
        before = [dict(r) for r in rows]
        red, piv = row_reduce(rows, fp)
        again, piv2 = row_reduce(red, fp)
        assert again == red and piv2 == piv
        # the input stays as it was, and no output row is an input row, even
        # where the input is already reduced
        assert rows == before
        assert not any(r is s for r in red for s in rows)
        assert not any(r is s for r in again for s in red)
        for r, c in zip(red, piv):
            assert r[c] == fp.one and min(r) == c
            for other in red:
                if other is not r:
                    assert c not in other


def test_solve_column():
    cols = [
        {0: Fraction(1), 2: Fraction(1)},
        {1: Fraction(1), 2: Fraction(1)},
    ]
    targets = [
        {0: Fraction(2), 1: Fraction(3), 2: Fraction(5)},
        {0: Fraction(1), 1: Fraction(1)},
        {},
    ]
    r, xs = solve_columns(cols, targets, QQ)
    assert r == 2
    assert xs == [[Fraction(2), Fraction(3)], None, [Fraction(0), Fraction(0)]]
    # underdetermined: free variable pinned to zero, residual still exact
    cols2 = [{0: Fraction(1)}, {0: Fraction(2)}]
    r2, (x2,) = solve_columns(cols2, [{0: Fraction(4)}], QQ)
    assert r2 == 1
    assert x2 == [Fraction(4), Fraction(0)]


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
        r, xs = solve_columns([sparse(c) for c in cols], [sparse(v) for v in targets], fp)
        base = len(row_reduce([sparse(row) for row in zip(*cols)], fp)[0]) if cols else 0
        assert r == base
        for target, x in zip(targets, xs):
            grown = row_reduce([sparse(row) for row in zip(*cols, target)], fp)[0]
            reachable = len(grown) == base
            assert (x is not None) == reachable
            if x is not None:
                got = [sum(c * v[i] for c, v in zip(x, cols)) % 7 for i in range(n)]
                assert got == target


@st.composite
def _matrices(draw):
    """(field, dense rows, column count): small entries, mostly zero, with
    rows that may repeat an earlier row."""
    field = field_from_name(draw(st.sampled_from(["fp:7", "fp:32003", "qq"])))
    m = draw(st.integers(1, 6))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, 3, -5])
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        if rows and draw(st.booleans()):
            rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
        else:
            rows.append([field.of_int(draw(entry)) for _ in range(m)])
    return field, rows, m


def _identity(field, m):
    return [[field.one if i == j else field.zero for j in range(m)] for i in range(m)]


@settings(max_examples=150, deadline=None)
@given(_matrices())
@example((PrimeField(7), [], 3))
@example((QQ, [[Fraction(0)] * 3] * 2, 3))
@example((PrimeField(32003), [[1, 2, 0], [1, 2, 0], [0, 0, 4]], 3))
@example((QQ, _identity(QQ, 4)[::-1], 4))
@example((PrimeField(7), [[3, 1, 4, 1], [0, 5, 2, 6], [0, 0, 5, 3]], 4))
def test_sparse_elimination_matches_dense_reference(case):
    field, rows, m = case
    given_rows = [sparse(r) for r in rows]
    before = [dict(r) for r in given_rows]
    red, piv = row_reduce(given_rows, field)
    assert (densify(red, m, field), piv) == dense_row_reduce(rows, field)
    assert given_rows == before
    assert not any(r is s for r in red for s in given_rows)
    # the rows' entries as columns: the first half solve for the rest
    cols = [list(c) for c in zip(*rows)] if rows else []
    half = len(cols) // 2
    sparse_cols = [sparse(c) for c in cols]
    before = [dict(c) for c in sparse_cols]
    got = solve_columns(sparse_cols[:half], sparse_cols[half:], field)
    assert got == dense_solve_columns(cols[:half], cols[half:], field)
    assert sparse_cols == before


class _CountingField:
    """A field that counts its ``mul`` calls and defers the rest."""

    def __init__(self, field):
        self._field = field
        self.muls = 0

    def __getattr__(self, name):
        return getattr(self._field, name)

    def mul(self, a, b):
        self.muls += 1
        return self._field.mul(a, b)


def test_asl_elimination_mul_ceiling(monkeypatch):
    # the asl 3x3 d4 check eliminates once per degree 0 to 4; the five
    # eliminations take 638 field multiplications, where the dense sweep
    # took 378,972
    real, fields = linalg.row_reduce, []

    def counted(rows, field):
        fields.append(_CountingField(field))
        return real(rows, fields[-1])

    monkeypatch.setattr(linalg, "row_reduce", counted)
    spec = CaseSpec(case="asl-3x3-d4", check="asl", m=3, n=3, d=4)
    spec.validate("asl-3x3-d4")
    assert run_case(spec).verdict == "EQUAL"
    assert len(fields) == 5
    assert sum(f.muls for f in fields) <= 638


def test_solve_columns_checks_the_deadline(monkeypatch):
    # a clock that passes the deadline once the elimination has started
    # must stop it at its first row
    started = expire_in_elimination(monkeypatch)
    fp = PrimeField(101)
    cols = [{0: fp.one}, {1: fp.one}]
    with deadline_scope(monotonic() + 60), pytest.raises(BudgetExceeded) as info:
        solve_columns(cols, [{0: fp.one, 1: fp.one}], fp)
    assert len(started) == 1
    assert [entry.name for entry in info.traceback][-2:] == ["row_reduce", "_check_deadline"]
