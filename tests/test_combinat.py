import random
from itertools import combinations

import pytest

from detkit.combinat import (
    MinorIndex,
    PfaffianIndex,
    PosetUniverse,
    doset_leq,
    format_bracket,
    in_doset,
    minor_leq,
    minors_universe,
    order_ideal_cogenerated,
    order_ideal_generated,
    subset_leq,
)


def brute_subset_leq(a, b):
    # a <= b iff a extends-or-matches b with entrywise domination on b's span
    if len(a) < len(b):
        return False
    for i in range(len(b)):
        if a[i] > b[i]:
            return False
    return True


def test_subset_leq_random_agrees_with_direct_check():
    rng = random.Random(5)
    pool = []
    for _ in range(80):
        k = rng.randint(0, 4)
        pool.append(tuple(sorted(rng.sample(range(1, 9), k))))
    for a in pool:
        for b in pool:
            assert subset_leq(a, b) == brute_subset_leq(a, b)


def test_subset_leq_axioms():
    elems = [tuple(c) for k in range(0, 4) for c in combinations(range(1, 6), k)]
    for a in elems:
        assert subset_leq(a, a)
        assert subset_leq(a, ())
        for b in elems:
            if subset_leq(a, b) and subset_leq(b, a):
                assert a == b
            for c in elems:
                if subset_leq(a, b) and subset_leq(b, c):
                    assert subset_leq(a, c)


def test_minor_index_validation():
    MinorIndex((1, 3), (2, 4))
    with pytest.raises(ValueError):
        MinorIndex((3, 1), (1, 2))
    with pytest.raises(ValueError):
        MinorIndex((1,), (1, 2))
    with pytest.raises(ValueError):
        MinorIndex((0,), (1,))
    with pytest.raises(ValueError):
        MinorIndex((), ())


def test_pfaffian_index_validation():
    PfaffianIndex((1, 4))
    with pytest.raises(ValueError):
        PfaffianIndex((1, 2, 3))
    with pytest.raises(ValueError):
        PfaffianIndex(())
    with pytest.raises(ValueError):
        PfaffianIndex((2, 2))


def test_minor_leq_componentwise():
    a = MinorIndex((1, 2), (2, 3))
    b = MinorIndex((2,), (3,))
    c = MinorIndex((2,), (1,))
    assert minor_leq(a, b)
    assert not minor_leq(b, a)
    assert not minor_leq(a, c)  # rows pass, cols fail: 2 > 1
    assert minor_leq(a, a)


def test_doset_membership_and_row_comparison():
    assert in_doset(MinorIndex((1, 2), (1, 3)))
    assert not in_doset(MinorIndex((2,), (1,)))
    # rows decide alone: equal rows, different cols are order-equivalent
    a = MinorIndex((1, 2), (1, 3))
    b = MinorIndex((1, 2), (2, 4))
    assert doset_leq(a, b) and doset_leq(b, a) and a != b


def test_universe_enumeration_counts():
    u = minors_universe(2, 2)
    # 4 one-by-one + 1 two-by-two
    assert len(u.elements()) == 5
    d = PosetUniverse("doset_minors", 2, 2)
    # [1|1], [1|2], [2|2], [1,2|1,2]
    assert len(d.elements()) == 4
    p = PosetUniverse("pfaffians", 4, 4)
    # six pairs + one quadruple
    assert len(p.elements()) == 7
    sizes = [ix.size for ix in u.elements()]
    assert sizes == sorted(sizes)


def test_universe_shape_checks():
    with pytest.raises(ValueError):
        PosetUniverse("pfaffians", 3, 4)
    with pytest.raises(ValueError):
        PosetUniverse("blah", 2, 2)


def test_generated_ideal_is_down_closed_and_minimal():
    u = minors_universe(3, 3)
    gens = [MinorIndex((1, 3), (2, 3))]
    ideal = set(order_ideal_generated(u, gens))
    for a in ideal:
        for b in u.elements():
            if u.leq(b, a):
                assert b in ideal
    for a in u.elements():
        if a in ideal:
            assert any(u.leq(a, s) for s in gens)


def test_cogenerated_ideal_is_complement_maximal():
    u = minors_universe(3, 3)
    cogens = [MinorIndex((3,), (1,))]
    ideal = set(order_ideal_cogenerated(u, cogens))
    # down-closed
    for a in ideal:
        for b in u.elements():
            if u.leq(b, a):
                assert b in ideal
    # avoids the cogenerators and everything above them
    for s in cogens:
        assert s not in ideal
        for a in ideal:
            assert not u.leq(s, a)
    # maximality: anything outside sits above some cogenerator
    for a in u.elements():
        if a not in ideal:
            assert any(u.leq(s, a) for s in cogens)


def test_cogenerated_matches_row_bound_description():
    # in the 3x3 minor poset, [3|1] sits below exactly the 1x1 minors in
    # row 3, so cogenerating by it removes [3|1], [3|2], [3|3] and nothing
    # else
    u = minors_universe(3, 3)
    kept = set(order_ideal_cogenerated(u, [MinorIndex((3,), (1,))]))
    for a in u.elements():
        expected = a.size >= 2 or a.rows[0] <= 2
        assert (a in kept) == expected, a


def test_pfaffian_cogenerated_ideal():
    # [1,2,3,4] lies below every index of size 2 or 4 (entrywise bounds are
    # automatic for increasing lists), so only the full size-6 index stays
    u = PosetUniverse("pfaffians", 6, 6)
    kept = set(order_ideal_cogenerated(u, [PfaffianIndex((1, 2, 3, 4))]))
    assert kept == {PfaffianIndex((1, 2, 3, 4, 5, 6))}
    for a in u.elements():
        above = subset_leq((1, 2, 3, 4), a.rows)
        assert (a in kept) == (not above)


def test_bracket_round_trip():
    m = MinorIndex((1, 2), (1, 3))
    assert format_bracket(m) == "[1,2|1,3]"
    p = PfaffianIndex((2, 5))
    assert format_bracket(p) == "[2,5]"
