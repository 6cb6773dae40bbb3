"""The closed-form Hilbert series of the plain determinantal and Pfaffian
ideals, and the basis runs that check it at their first reading.

A series that is too large could pass a generator list that is not a
Groebner basis, so the formulas and their degree rules are trusted code:
the oracle tests compare them with numerators read off full Buchberger
runs over every shape in range, and the mutation test shows that a series
off by one changes nothing in the run."""

from itertools import combinations_with_replacement, product
from time import monotonic

import pytest

from detkit import detideals, groebner
from detkit.combinat import (
    _numerator_degree,
    determinantal_numerator,
    partitions,
    schur_dimension,
)
from detkit.detideals import (
    MatrixSpec,
    block_component,
    constrained_ideal,
    constrained_symmetric_ideal,
    ideal_of_minors,
    matrix_ring,
)
from detkit.groebner import (
    BudgetExceeded,
    IdealHandle,
    buchberger,
    deadline_scope,
    hilbert_numerator,
)
from detkit.harness import CaseSpec, run_case
from detkit.poly import field_from_name

GENERIC = [
    (m, n, t) for m in range(1, 6) for n in range(m, 31) if m * n <= 30 for t in range(1, m + 2)
]
SKEW = [(n, t) for n in range(2, 9) for t in range(2, n + 2, 2)]
SYMMETRIC = [(n, t) for n in range(1, 6) for t in range(1, n + 2)]


def _oracle(handle) -> list:
    """The numerator read off a full run on the same generators, with no
    series to check."""
    return hilbert_numerator(IdealHandle(handle.ring, handle.gens))


def _check_shape(kind, m, n, t, order, field):
    ms = MatrixSpec(kind, m, n)
    ring = matrix_ring(ms, field_from_name(field), order)
    I = constrained_ideal(ring, ms, t)
    assert I.series == determinantal_numerator(kind, m, n, t)
    assert list(I.series) == _oracle(I), (kind, m, n, t)
    # the degree rule gives the exact degree, not a bound
    assert len(I.series) - 1 == _numerator_degree(kind, min(m, n), max(m, n), t)[1]


# -- the formulas -----------------------------------------------------------------


def test_partitions_match_a_filter_of_all_compositions():
    for d in range(8):
        for k in range(5):
            brute = {
                tuple(sorted((a for a in c if a), reverse=True))
                for c in product(range(d + 1), repeat=k)
                if sum(c) == d
            }
            assert sorted(partitions(d, k), reverse=True) == list(partitions(d, k))
            assert set(partitions(d, k)) == brute


def _tableaux(shape, k):
    """Semistandard tableaux of ``shape`` with entries in 1..k, counted by
    filling the cells row by row: rows weakly and columns strictly increase."""
    count = 0
    rows = [list(combinations_with_replacement(range(1, k + 1), a)) for a in shape]
    for filling in product(*rows):
        pairs = zip(filling, filling[1:])
        if all(upper[j] < lower[j] for upper, lower in pairs for j in range(len(lower))):
            count += 1
    return count


def test_schur_dimension_counts_tableaux():
    for d in range(6):
        for shape in partitions(d, d):
            for k in range(5):
                assert schur_dimension(shape, k) == _tableaux(shape, k), (shape, k)


# -- the oracle -------------------------------------------------------------------


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_generic_series_matches_the_basis(order):
    for m, n, t in GENERIC:
        _check_shape("generic", m, n, t, order, "fp:32003")


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_skew_and_symmetric_series_match_the_basis(order):
    for n, t in SKEW:
        _check_shape("skew", n, n, t, order, "fp:32003")
    for n, t in SYMMETRIC:
        _check_shape("symmetric", n, n, t, order, "fp:32003")


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_series_match_the_basis_over_the_rationals(order):
    for m, n, t in [(2, 3, 2), (3, 3, 2), (3, 4, 3), (4, 4, 3), (2, 6, 2)]:
        _check_shape("generic", m, n, t, order, "qq")
    for n, t in [(5, 4), (6, 4), (6, 6)]:
        _check_shape("skew", n, n, t, order, "qq")
    for n, t in [(3, 2), (4, 3), (4, 2)]:
        _check_shape("symmetric", n, n, t, order, "qq")


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_block_series_match_the_basis(order):
    # a block that asks for every row (or column) of a generator in the
    # first cut is the plain ideal of that submatrix, the other entries
    # free; the other blocks and the filtered doset list get no series
    fp = field_from_name("fp:32003")
    gen, skw = MatrixSpec("generic", 4, 5), MatrixSpec("skew", 7, 7)
    sym = MatrixSpec("symmetric", 4, 4)
    ring = matrix_ring(gen, fp, order)
    blocks = [(2, 2, "rows"), (2, 3, "rows"), (3, 3, "rows"), (2, 2, "cols"), (3, 4, "cols")]
    handles = [block_component(ring, gen, need, cut, axis)[1] for need, cut, axis in blocks]
    handles.append(block_component(ring, gen, 1, 2)[1])
    handles.append(ideal_of_minors(ring, gen, 2, row_limit=3, col_limit=4))
    assert [h.series for h in handles[:2]] == [
        determinantal_numerator("generic", 2, 5, 2),
        determinantal_numerator("generic", 3, 5, 2),
    ]
    zring = matrix_ring(skw, fp, order)
    handles += [block_component(zring, skw, need, cut)[1] for need, cut in ((2, 3), (4, 5), (4, 6))]
    assert handles[-1].series == determinantal_numerator("skew", 6, 6, 4)
    for h in handles:
        assert list(h.series) == _oracle(h)

    yring = matrix_ring(sym, fp, order)
    unseries = [
        block_component(zring, skw, 3, 4)[1],
        block_component(yring, sym, 2, 2)[1],
        constrained_ideal(ring, gen, 3, R=(2,), r=(1,)),
        constrained_symmetric_ideal(yring, sym, 2, doset_only=True),
        IdealHandle(ring, handles[0].gens),
    ]
    assert all(h.series is None for h in unseries)


# -- the check at the first reading -------------------------------------------------


def _counted(monkeypatch, fn, *args):
    """``(result, calls)``: ``fn(*args)`` and its calls of ``groebner._update``,
    ``groebner._scaled_sub`` and ``groebner._lead_numerator``."""
    calls = {"_update": 0, "_scaled_sub": 0, "_lead_numerator": 0}
    for name in calls:
        real = getattr(groebner, name)

        def counting(*a, name=name, real=real):
            calls[name] += 1
            return real(*a)

        monkeypatch.setattr(groebner, name, counting)
    try:
        return fn(*args), calls
    finally:
        monkeypatch.undo()


def test_a_met_series_ends_the_run_at_its_first_reading(monkeypatch):
    # the 15 4-Pfaffians of a skew 6x6 are their own reduced basis: the run
    # forms no pair, and its reading is the basis's numerator
    ms = MatrixSpec("skew", 6, 6)
    ring = matrix_ring(ms, field_from_name("fp:32003"))
    I = constrained_ideal(ring, ms, 4)
    G, calls = _counted(monkeypatch, I.groebner)
    assert calls == {"_update": 0, "_scaled_sub": 0, "_lead_numerator": 1}
    assert G == buchberger(I.gens) and len(G) == 15
    assert G.numerator() == list(I.series) == _oracle(I)


def test_a_met_cover_comes_before_the_series(monkeypatch):
    # the generators' leads already meet the cover, so the run ends before
    # its one series reading: the basis reads its numerator on demand
    ms = MatrixSpec("skew", 6, 6)
    ring = matrix_ring(ms, field_from_name("fp:32003"))
    I = constrained_ideal(ring, ms, 4)
    full = buchberger(I.gens)
    G, calls = _counted(monkeypatch, I.groebner, [g.lm for g in full])
    assert calls == {"_update": 0, "_scaled_sub": 0, "_lead_numerator": 0}
    assert G == full
    assert G.numerator() == list(I.series)


@pytest.mark.parametrize(
    "kind, n, t, R, r",
    [
        ("skew", 6, 4, (), ()),
        ("generic", 4, 3, (), ()),
        ("symmetric", 4, 3, (), ()),
        # generators that are no basis: after the miss the run inserts new
        # elements and leaves more degrees with updates waiting
        ("generic", 3, 2, (1,), (1,)),
        ("skew", 6, 4, (3,), (2,)),
    ],
)
def test_a_series_off_by_one_changes_nothing(monkeypatch, kind, n, t, R, r):
    # each coefficient of the series moved by +1 and by -1: the first
    # reading misses, and the run reads no other, forms the same pairs,
    # takes the same reduction steps and returns the same basis, with the
    # same numerator, as a run without a series
    ms = MatrixSpec(kind, n, n)
    ring = matrix_ring(ms, field_from_name("fp:32003"))
    gens = constrained_ideal(ring, ms, t, R, r).gens
    plain, plain_calls = _counted(monkeypatch, buchberger, gens)
    assert plain_calls["_update"]
    series = plain.numerator()
    for i, delta in product(range(len(series)), (1, -1)):
        wrong = list(series)
        wrong[i] += delta
        monkeypatch.setattr(detideals, "_series", lambda *shape: tuple(wrong))
        I = constrained_ideal(ring, ms, t, R, r)
        monkeypatch.undo()
        assert list(I.series) == wrong
        G, calls = _counted(monkeypatch, I.groebner)
        assert G == plain and calls == {**plain_calls, "_lead_numerator": 1}, (i, delta)
        assert G.numerator() == series


def test_an_expired_deadline_in_the_series_skips_the_case(monkeypatch):
    # the series reads the clock once per degree; a clock past the deadline
    # from the series' first reading on skips the case before any basis run
    real = determinantal_numerator.__wrapped__
    started = []
    real_clock = groebner.monotonic

    def uncached_then_expire(*shape):
        started.append(shape)
        return real(*shape)

    monkeypatch.setattr(detideals, "determinantal_numerator", uncached_then_expire)
    monkeypatch.setattr(groebner, "monotonic", lambda: float("inf") if started else real_clock())
    rep = run_case(CaseSpec(case="hs", check="heights", kind="skew", n=6, t=4))
    assert started == [("skew", 6, 6, 4)]
    assert rep.verdict == "SKIPPED" and rep.reason == "budget exceeded"
    assert rep.stats == {"lhs_gens": None, "rhs_gb_size": None}
    monkeypatch.undo()
    with deadline_scope(monotonic() - 1), pytest.raises(BudgetExceeded):
        real("generic", 3, 3, 2)
