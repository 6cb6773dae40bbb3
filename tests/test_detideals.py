import random
from itertools import combinations
from time import monotonic

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detkit.combinat import (
    MinorIndex,
    PfaffianIndex,
    PosetUniverse,
    in_doset,
    minors_universe,
)
from detkit import detideals
from detkit.detideals import (
    MatrixSpec,
    column_grading,
    components,
    constrained_ideal,
    constrained_minor_ideal,
    constrained_pfaffian_ideal,
    constrained_symmetric_ideal,
    entry,
    generic_matrix,
    ideal_of_minors,
    ideal_of_pfaffians,
    matrix_ring,
    minor_components,
    minor_poly,
    monomials_of_weighted_degree,
    pfaffian_components,
    pfaffian_poly,
    pfaffian_row_component,
    generator,
    skew_block_grading,
    skew_matrix,
    symmetric_components,
    symmetric_matrix,
    truncated_ideal,
    truncated_ideal_graded,
    truncation_rank,
    variable_table,
)
from detkit.groebner import (
    BudgetExceeded,
    deadline_scope,
    ideal_equal,
    ideal_height,
    ideal_member,
    intersect_all,
    krull_dimension,
    normal_form,
)
from detkit.poly import (
    QQ,
    MonomialOrder,
    PolyRing,
    Polynomial,
    PrimeField,
    field_from_name,
    weighted_degree,
)
from helpers import (
    assert_reduced_basis,
    det_by_permanents,
    pfaffian_by_matchings,
    reference_signed_sum,
)

FP = PrimeField(32003)


# -- layout and entries -----------------------------------------------------------


def test_variable_layout():
    assert variable_table(generic_matrix(2, 3)).names == (
        "x[1,1]", "x[1,2]", "x[1,3]", "x[2,1]", "x[2,2]", "x[2,3]",
    )
    assert variable_table(symmetric_matrix(3)).names == (
        "y[1,1]", "y[1,2]", "y[1,3]", "y[2,2]", "y[2,3]", "y[3,3]",
    )
    assert variable_table(skew_matrix(4)).names == (
        "z[1,2]", "z[1,3]", "z[1,4]", "z[2,3]", "z[2,4]", "z[3,4]",
    )


def test_matrix_spec_validation():
    with pytest.raises(ValueError):
        generic_matrix(0, 2)
    with pytest.raises(ValueError):
        symmetric_matrix(0)
    with pytest.raises(ValueError):
        skew_matrix(1)
    from detkit.detideals import MatrixSpec

    with pytest.raises(ValueError):
        MatrixSpec("symmetric", 2, 3)
    with pytest.raises(ValueError):
        MatrixSpec("hermitian", 2, 2)


def test_entry_mirroring_and_signs():
    sym = symmetric_matrix(3)
    assert entry(sym, 2, 1) == entry(sym, 1, 2)
    skw = skew_matrix(3)
    s12 = entry(skw, 1, 2)
    s21 = entry(skw, 2, 1)
    assert s12[0] == 1 and s21 == (-1, s12[1])
    assert entry(skw, 2, 2) == (0, None)
    with pytest.raises(ValueError):
        entry(sym, 4, 1)


# -- minors against the permutation-sum oracle ---------------------------------------


def _entry_poly(ring, ms, i, j):
    sign, p = entry(ms, i, j)
    if sign == 0:
        return ring.zero
    return ring.var(p) if sign > 0 else -ring.var(p)


def _entries(ring, ms, rows, cols):
    return [[_entry_poly(ring, ms, i, j) for j in cols] for i in rows]


# per shape: a small matrix for the sizes 1 to 3, one with room for size 4,
# and one with room for size 5
MINOR_SHAPES = {
    "generic": (generic_matrix(3, 4), generic_matrix(4, 5), generic_matrix(5, 6)),
    "symmetric": (symmetric_matrix(4), symmetric_matrix(5), symmetric_matrix(6)),
    "skew": (skew_matrix(4), skew_matrix(5), skew_matrix(6)),
}


@pytest.mark.parametrize("shape", sorted(MINOR_SHAPES))
def test_minor_poly_matches_permutation_sum(shape):
    small, large, five = MINOR_SHAPES[shape]
    rng = random.Random(17)
    seen = 0
    for ms, sizes, draws in ((small, (1, 2, 3), 4), (large, (4,), 4), (five, (5,), 1)):
        ring = matrix_ring(ms, QQ)
        for size in sizes:
            for _ in range(draws):
                rows = tuple(sorted(rng.sample(range(1, ms.m + 1), size)))
                cols = tuple(sorted(rng.sample(range(1, ms.n + 1), size)))
                got = minor_poly(ring, ms, MinorIndex(rows, cols))
                want = det_by_permanents(_entries(ring, ms, rows, cols))
                assert got == want, (rows, cols)
                seen += 1
    assert seen == 17


def test_two_by_two_dets_written_out():
    gen = generic_matrix(2, 2)
    ring = matrix_ring(gen, QQ)
    x11, x12, x21, x22 = (ring.var(i) for i in range(4))
    d = minor_poly(ring, gen, MinorIndex((1, 2), (1, 2)))
    assert d == x11 * x22 - x12 * x21
    sym = symmetric_matrix(2)
    sring = matrix_ring(sym, QQ)
    y11, y12, y22 = (sring.var(i) for i in range(3))
    assert minor_poly(sring, sym, MinorIndex((1, 2), (1, 2))) == y11 * y22 - y12 * y12
    skw = skew_matrix(2)
    zring = matrix_ring(skw, QQ)
    z12 = zring.var(0)
    assert minor_poly(zring, skw, MinorIndex((1, 2), (1, 2))) == z12 * z12


def test_symmetric_minor_transpose_equal():
    sym = symmetric_matrix(4)
    ring = matrix_ring(sym, QQ)
    ix = MinorIndex((1, 3), (2, 4))
    assert minor_poly(ring, sym, ix) == minor_poly(ring, sym, MinorIndex(ix.cols, ix.rows))


def test_skew_odd_principal_minors_vanish():
    skw = skew_matrix(5)
    ring = matrix_ring(skw, QQ)
    for rows in combinations(range(1, 6), 3):
        assert not minor_poly(ring, skw, MinorIndex(rows, rows))


def test_minor_out_of_range():
    ms = generic_matrix(2, 2)
    ring = matrix_ring(ms, QQ)
    with pytest.raises(ValueError):
        minor_poly(ring, ms, MinorIndex((1, 3), (1, 2)))


# -- Pfaffians -------------------------------------------------------------------------


def test_pfaffian_written_out():
    ms = skew_matrix(4)
    ring = matrix_ring(ms, QQ)
    z12, z13, z14, z23, z24, z34 = (ring.var(i) for i in range(6))
    pf = pfaffian_poly(ring, ms, PfaffianIndex((1, 2, 3, 4)))
    assert pf == z12 * z34 - z13 * z24 + z14 * z23
    assert pfaffian_poly(ring, ms, PfaffianIndex((2, 4))) == z24


def test_pfaffian_matches_matching_sum():
    for n, draws in (
        (6, [(1, 2, 3, 4), (2, 3, 5, 6), (1, 3, 4, 6), (1, 2, 3, 4, 5, 6)]),
        (8, [tuple(range(1, 9))]),
        (11, [(1, 2, 3, 5, 6, 7, 8, 9, 10, 11)]),
    ):
        ms = skew_matrix(n)
        ring = matrix_ring(ms, FP)
        for rows in draws:
            got = pfaffian_poly(ring, ms, PfaffianIndex(rows))
            want = pfaffian_by_matchings(rows, lambda i, j: _entry_poly(ring, ms, i, j))
            assert got == want, rows


def test_pfaffian_squares_to_determinant():
    ms = skew_matrix(6)
    ring = matrix_ring(ms, FP)
    for rows in [(1, 2), (1, 2, 3, 4), (2, 3, 4, 6), (1, 2, 3, 4, 5, 6)]:
        pf = pfaffian_poly(ring, ms, PfaffianIndex(rows))
        det = minor_poly(ring, ms, MinorIndex(rows, rows))
        assert pf * pf == det, rows


@pytest.mark.parametrize(
    "ms, build, ix",
    [
        (generic_matrix(3, 3), minor_poly, MinorIndex((1, 2, 3), (1, 2, 3))),
        (generic_matrix(4, 4), minor_poly, MinorIndex((1, 2, 3, 4), (1, 2, 3, 4))),
        (symmetric_matrix(4), minor_poly, MinorIndex((1, 2, 3), (2, 3, 4))),
        (skew_matrix(6), pfaffian_poly, PfaffianIndex((1, 2, 3, 4, 5, 6))),
    ],
    ids=["minor-3x3", "minor-4x4", "symmetric-3x3", "pfaffian-6"],
)
def test_each_generator_is_canonicalized_once(monkeypatch, ms, build, ix):
    # one polynomial per generator, sorted by its int keys: none for a
    # sub-minor or a sub-Pfaffian, and no term goes through from_terms or
    # an order key
    ring = matrix_ring(ms, FP)
    calls = {"Polynomial": 0, "from_terms": 0, "key": 0}

    def count(cls, name, label):
        real = getattr(cls, name)

        def counting(*args):
            calls[label] += 1
            return real(*args)

        monkeypatch.setattr(cls, name, counting)

    count(Polynomial, "__init__", "Polynomial")
    count(PolyRing, "from_terms", "from_terms")
    count(MonomialOrder, "key", "key")
    assert build(ring, ms, ix)
    assert calls == {"Polynomial": 1, "from_terms": 0, "key": 0}


def _build_with_products(ring, ms, ix):
    """``(polynomial, products)``: the build of ``ix`` and the ``(sign,
    positions)`` products it summed."""
    seen = []
    real = detideals._signed_sum

    def spy(ring, products, deg):
        seen.append(products)
        return real(ring, products, deg)

    detideals._signed_sum = spy
    try:
        f = (pfaffian_poly if isinstance(ix, PfaffianIndex) else minor_poly)(ring, ms, ix)
    finally:
        detideals._signed_sum = real
    [products] = seen
    return f, products


@st.composite
def _builds(draw):
    """A shape and the index of one of its minors, or on a skew shape
    possibly of one of its Pfaffians."""
    kind = draw(st.sampled_from(("generic", "symmetric", "skew")))
    n = draw(st.integers(2, 6))
    ms = MatrixSpec(kind, draw(st.integers(1, 6)) if kind == "generic" else n, n)

    def subset(top, size):
        return tuple(sorted(draw(st.sets(st.integers(1, top), min_size=size, max_size=size))))

    if kind == "skew" and draw(st.booleans()):
        return ms, PfaffianIndex(subset(n, 2 * draw(st.integers(1, n // 2))))
    size = draw(st.integers(1, min(ms.m, n, 4)))
    return ms, MinorIndex(subset(ms.m, size), subset(n, size))


def _assert_matches_from_terms(ms, ix, order, field):
    # the build's sort by int weights gives the terms, degrees and
    # coefficient types that from_terms gives the same products
    ring = matrix_ring(ms, field_from_name(field), order)
    got, products = _build_with_products(ring, ms, ix)
    want = reference_signed_sum(ring, products)

    def terms(f):
        return [(m.exps, m.deg, c, type(c)) for m, c in f.terms]

    assert terms(got) == terms(want)
    assert all(c for _, c in got.terms)
    return got, products


# fp:2 sends the merged coefficient 2 to zero, which the build must drop
_ORDERS_AND_FIELDS = [(o, f) for o in ("lex", "grevlex") for f in ("fp:2", "fp:32003", "qq")]


@settings(max_examples=200, deadline=None)
@given(_builds(), st.sampled_from(_ORDERS_AND_FIELDS))
def test_weight_keyed_build_matches_from_terms(case, order_field):
    _assert_matches_from_terms(*case, *order_field)


@pytest.mark.parametrize("order, field", _ORDERS_AND_FIELDS)
def test_merging_builds_match_from_terms(order, field):
    # a symmetric minor with a squared entry, y[1,2]^2; a symmetric
    # principal minor whose products merge, 2*y[1,2]*y[1,3]*y[2,3], a term
    # that vanishes over fp:2; and skew minors whose products cancel, the
    # principal 3x3 one to zero
    sym, skw, skw5 = symmetric_matrix(4), skew_matrix(4), skew_matrix(5)
    square, _ = _assert_matches_from_terms(sym, MinorIndex((1, 2), (1, 2)), order, field)
    assert any(e == 2 for m, _ in square.terms for _, e in m.exps)
    merged, products = _assert_matches_from_terms(sym, MinorIndex((1, 2, 3), (1, 2, 3)), order, field)
    if field == "fp:2":
        assert len(merged.terms) < len({tuple(sorted(ps)) for _, ps in products})
    else:
        assert any(c == 2 for _, c in merged.terms)
    for ms, ix in ((skw, MinorIndex((1, 2, 3), (1, 2, 3))), (skw5, MinorIndex((1, 2, 3, 4), (1, 2, 3, 5)))):
        f, products = _assert_matches_from_terms(ms, ix, order, field)
        assert len(f.terms) < len({tuple(sorted(ps)) for _, ps in products})
    assert not _build_with_products(matrix_ring(skw, FP), skw, MinorIndex((1, 2, 3), (1, 2, 3)))[0]


def test_generator_builds_read_the_clock():
    gen, skw = generic_matrix(3, 3), skew_matrix(4)
    ring, zring = matrix_ring(gen, FP), matrix_ring(skw, FP)
    with deadline_scope(monotonic() - 1):
        with pytest.raises(BudgetExceeded):
            minor_poly(ring, gen, MinorIndex((1, 2), (1, 2)))
        with pytest.raises(BudgetExceeded):
            pfaffian_poly(zring, skw, PfaffianIndex((1, 2, 3, 4)))
        with pytest.raises(BudgetExceeded):
            constrained_ideal(ring, gen, 2)
        # a column block that rejects every index builds nothing, and the
        # scan over the row lists still stops
        with pytest.raises(BudgetExceeded):
            constrained_ideal(ring, gen, 2, C=(1,), c=(2,))


def test_pfaffian_requires_skew():
    ms = generic_matrix(4, 4)
    ring = matrix_ring(ms, QQ)
    with pytest.raises(ValueError):
        pfaffian_poly(ring, ms, PfaffianIndex((1, 2)))


# -- ideal builders ---------------------------------------------------------------------


def test_ideal_of_minors_edges_and_counts():
    ms = generic_matrix(2, 3)
    ring = matrix_ring(ms, QQ)
    assert ideal_of_minors(ring, ms, 0).groebner() == (ring.one,)
    assert not ideal_of_minors(ring, ms, 3).groebner()
    I = ideal_of_minors(ring, ms, 2)
    assert len(I.gens) == 3
    assert_reduced_basis(I.groebner())
    # the three 2-minors already form the reduced basis; leads are the
    # antidiagonal products
    names = ring.table.names
    lead_strs = {
        "*".join(names[p] for p, _ in g.lm.exps) for g in I.groebner()
    }
    assert lead_strs == {"x[1,2]*x[2,1]", "x[1,3]*x[2,1]", "x[1,3]*x[2,2]"}


def test_ideal_of_minors_with_limits():
    ms = generic_matrix(3, 3)
    ring = matrix_ring(ms, QQ)
    I = ideal_of_minors(ring, ms, 1, row_limit=2)
    assert len(I.gens) == 6
    J = ideal_of_minors(ring, ms, 2, row_limit=2, col_limit=2)
    assert len(J.gens) == 1
    assert not ideal_of_minors(ring, ms, 2, row_limit=1).groebner()


def test_ideal_of_pfaffians_edges():
    ms = skew_matrix(5)
    ring = matrix_ring(ms, QQ)
    assert ideal_of_pfaffians(ring, ms, 0).groebner() == (ring.one,)
    assert not ideal_of_pfaffians(ring, ms, 6).groebner()
    with pytest.raises(ValueError):
        ideal_of_pfaffians(ring, ms, 3)
    I = ideal_of_pfaffians(ring, ms, 4)
    assert len(I.gens) == 5
    # the 4-subsets of the first four rows: just [1,2,3,4]
    assert len(ideal_of_pfaffians(ring, ms, 4, row_limit=4).gens) == 1
    assert not ideal_of_pfaffians(ring, ms, 4, row_limit=3).groebner()


def test_pfaffian_row_component_even_and_odd():
    ms = skew_matrix(4)
    ring = matrix_ring(ms, QQ)
    even = pfaffian_row_component(ring, ms, 2, 2)
    assert [str(g) for g in even.gens] == ["z[1,2]"]
    odd = pfaffian_row_component(ring, ms, 1, 2)
    got = {str(g) for g in odd.gens}
    assert got == {"z[1,2]", "z[1,3]", "z[1,4]", "z[2,3]", "z[2,4]"}
    assert pfaffian_row_component(ring, ms, 0, 2).groebner() == (ring.one,)
    # even r=4 with R=2: no 4-subset of the first two rows, so nothing
    assert not pfaffian_row_component(ring, ms, 4, 2).groebner()


def test_odd_component_equals_union_over_extra_row():
    # the odd-r component has two equivalent descriptions; check they agree
    ms = skew_matrix(6)
    ring = matrix_ring(ms, QQ)
    r, R = 3, 4
    built = {str(g) for g in pfaffian_row_component(ring, ms, r, R).gens}
    union = set()
    for k in range(R + 1, ms.n + 1):
        avail = tuple(range(1, R + 1)) + (k,)
        for rs in combinations(sorted(avail), r + 1):
            union.add(str(pfaffian_poly(ring, ms, PfaffianIndex(rs))))
    assert built == union


# -- constrained ideals -------------------------------------------------------------------


def test_constrained_minor_ideal_counts_and_membership():
    ms = generic_matrix(3, 3)
    ring = matrix_ring(ms, QQ)
    J = constrained_minor_ideal(ring, ms, 2, R=(1,), r=(1,))
    # rows must include row 1: (1,2) and (1,3) with all 3 column pairs
    assert len(J.gens) == 6
    full = constrained_minor_ideal(ring, ms, 2)
    assert len(full.gens) == 9
    assert ideal_equal(full, ideal_of_minors(ring, ms, 2))
    outside = minor_poly(ring, ms, MinorIndex((2, 3), (1, 2)))
    assert ideal_member(outside, full)
    assert not ideal_member(outside, J)
    assert constrained_minor_ideal(ring, ms, 0).groebner() == (ring.one,)
    assert not constrained_minor_ideal(ring, ms, 4).groebner()


def test_constrained_ideal_block_validation():
    ms = generic_matrix(3, 3)
    ring = matrix_ring(ms, QQ)
    with pytest.raises(ValueError):
        constrained_minor_ideal(ring, ms, 2, R=(2, 2), r=(1, 1))
    with pytest.raises(ValueError):
        constrained_minor_ideal(ring, ms, 2, R=(4,), r=(1,))
    with pytest.raises(ValueError):
        constrained_minor_ideal(ring, ms, 2, R=(2,), r=(1, 1))


def test_small_decomposition_by_hand():
    # 3x3, t=2, one row block (R=1, r=1): the constrained ideal must be the
    # intersection of all 2-minors with the entries of row 1
    ms = generic_matrix(3, 3)
    ring = matrix_ring(ms, FP)
    J = constrained_minor_ideal(ring, ms, 2, R=(1,), r=(1,))
    comps = minor_components(ring, ms, 2, R=(1,), r=(1,))
    assert [name for name, _ in comps] == ["minors(2)", "minors(1,rows<=1)"]
    rhs = intersect_all(ring, [h for _, h in comps])
    assert ideal_equal(J, rhs)


def _lead_shapes(ms, field, t, R, r):
    ring = matrix_ring(ms, field)
    lhs = constrained_ideal(ring, ms, t, (R,), (r,))
    rhs = intersect_all(ring, [h for _, h in components(ring, ms, t, (R,), (r,))])
    return [[g.lm.exps for g in I.groebner()] for I in (lhs, rhs)]


def test_lead_terms_agree_over_fp_and_qq():
    # a verdict over fp:p must not depend on p: the reduced bases of both
    # sides of every one-block decomposition on these shapes have the same
    # lead monomials over fp:32003 and over the rationals.  Symmetric 4 and
    # the single 6-Pfaffian are left out to keep the test near 1.5 s.
    shapes = [
        (generic_matrix(3, 3), range(1, 4)),
        (generic_matrix(3, 4), range(1, 4)),
        (symmetric_matrix(3), range(1, 4)),
        (skew_matrix(5), (2, 4)),
        (skew_matrix(6), (2, 4)),
    ]
    cases = 0
    for ms, sizes in shapes:
        for t in sizes:
            for R in range(1, ms.m + 1):
                for r in range(1, t + 1):
                    fp = _lead_shapes(ms, FP, t, R, r)
                    assert fp == _lead_shapes(ms, QQ, t, R, r), (ms, t, R, r)
                    cases += 1
    assert cases == 120


def test_component_names():
    ms = generic_matrix(3, 4)
    ring = matrix_ring(ms, QQ)
    comps = minor_components(ring, ms, 2, R=(1, 2), r=(1, 2), C=(3,), c=(1,))
    assert [name for name, _ in comps] == [
        "minors(2)",
        "minors(1,rows<=1)",
        "minors(2,rows<=2)",
        "minors(1,cols<=3)",
    ]
    sk = skew_matrix(5)
    sring = matrix_ring(sk, QQ)
    pcomps = pfaffian_components(sring, sk, 4, R=(2,), r=(2,))
    assert [name for name, _ in pcomps] == ["pfaffians(4)", "pfaffians(2,rows<=2)"]


def test_constrained_symmetric_doset_filter():
    ms = symmetric_matrix(3)
    ring = matrix_ring(ms, FP)
    full = constrained_symmetric_ideal(ring, ms, 2, R=(2,), r=(1,))
    doset = constrained_symmetric_ideal(ring, ms, 2, R=(2,), r=(1,), doset_only=True)
    assert len(doset.gens) < len(full.gens)
    assert ideal_equal(full, doset)
    names = [n for n, _ in symmetric_components(ring, ms, 2, R=(2,), r=(1,))]
    assert names == ["minors(2)", "minors(1,rows<=2)"]
    with pytest.raises(ValueError):
        constrained_symmetric_ideal(ring, generic_matrix(3, 3), 2)


def test_constrained_pfaffian_ideal():
    ms = skew_matrix(5)
    ring = matrix_ring(ms, FP)
    J = constrained_pfaffian_ideal(ring, ms, 4, R=(2,), r=(2,))
    # 4-subsets containing both rows 1 and 2: {1,2,a,b} with a<b in 3..5
    assert len(J.gens) == 3
    with pytest.raises(ValueError):
        constrained_pfaffian_ideal(ring, ms, 3)
    assert not constrained_pfaffian_ideal(ring, ms, 6).groebner()
    assert constrained_pfaffian_ideal(ring, ms, 0).groebner() == (ring.one,)


def test_ideals_of_a_ring_share_their_generators():
    # the constrained ideal, its plain component and a prefix claim take
    # each generator's terms from the ring's table, so they hold the same
    # objects; a fresh ring builds its own.  The table holds no polynomial,
    # so a case's ring is freed without the cycle collector
    import gc

    def terms(I):
        return {id(f.terms) for f in I.gens}

    ms = generic_matrix(5, 5)
    ring = matrix_ring(ms, FP)
    lhs = constrained_ideal(ring, ms, 3, R=(2, 3), r=(1, 2))
    plain = components(ring, ms, 3, R=(2, 3), r=(1, 2))[0][1]
    claim = constrained_ideal(ring, ms, 3, R=(2,), r=(1,))
    assert terms(lhs) < terms(claim) < terms(plain)
    again = constrained_ideal(matrix_ring(ms, FP), ms, 3, R=(2, 3), r=(1, 2))
    assert again.gens == lhs.gens
    assert not terms(again) & terms(lhs)
    gc.collect()
    del ring, lhs, plain, claim, again
    assert gc.collect() == 0


@pytest.mark.parametrize(
    "spec, builds",
    [
        pytest.param(dict(case=case, **params), builds, id=case)
        for case, params, builds in (
            ("minors-5x5-t3-R23-r12", dict(m=5, n=5, t=3, R=(2, 3), r=(1, 2)), 140),
            ("pfaffian-8-t4-R2-r1", dict(kind="skew", n=8, t=4, R=(2,), r=(1,)), 83),
            ("symmetric-5-t3-R2-r1", dict(kind="symmetric", n=5, t=3, R=(2,), r=(1,)), 110),
            ("pfaffian-7-t4-R3-r2", dict(kind="skew", n=7, t=4, R=(3,), r=(2,)), 38),
            ("irredundancy-4x3-t2-R2-r1", dict(check="irredundancy", m=4, n=3, t=2, R=(2,), r=(1,)), 24),
            (
                "irredundancy-sym4-t2-R2-r1",
                dict(check="irredundancy", kind="symmetric", n=4, t=2, R=(2,), r=(1,)),
                44,
            ),
            (
                "irredundancy-pfaff6-t4-R2-r2",
                dict(check="irredundancy", kind="skew", n=6, t=4, R=(2,), r=(2,)),
                16,
            ),
        )
    ],
)
def test_decomposition_builds_each_generator_once(monkeypatch, spec, builds):
    # each benchmark decomposition case builds each distinct generator once:
    # the LHS, the components and the prefix claims share the case ring's
    # table.  Rebuilding per ideal made 300 / 138 / 249 / 60.  The
    # irredundancy suite cases' witnesses take their generators from the
    # same table; building them apart made 26 / 46 / 18.  A second run of
    # the same case builds as many again, so no table outlives its case
    from detkit.harness import CaseSpec, run_case

    calls = [0]
    real = detideals._signed_sum

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(detideals, "_signed_sum", counting)
    for _ in range(2):
        calls[0] = 0
        run_case(CaseSpec(**spec))
        assert calls[0] == builds


# -- the block-index enumerator against a brute-force filter --------------------


@st.composite
def _block_lists(draw, limit, top):
    cuts = sorted(draw(st.sets(st.integers(1, limit), max_size=2)))
    needs = draw(st.lists(st.integers(0, top), min_size=len(cuts), max_size=len(cuts)))
    return tuple(cuts), tuple(needs)


@st.composite
def _constrained_cases(draw):
    kind = draw(st.sampled_from(["generic", "symmetric", "skew"]))
    if kind == "generic":
        ms = generic_matrix(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
        t = draw(st.integers(1, min(ms.m, ms.n) + 1))
    elif kind == "symmetric":
        ms = symmetric_matrix(draw(st.integers(1, 5)))
        t = draw(st.integers(1, ms.n + 1))
    else:
        ms = skew_matrix(draw(st.integers(2, 5)))
        t = draw(st.sampled_from(range(2, ms.n + 2, 2)))
    R, r = draw(_block_lists(ms.m, t))
    C, c = draw(_block_lists(ms.n, t)) if kind == "generic" else ((), ())
    return ms, t, R, r, C, c


def _reference(ring, ms, size, rows=((), ()), cols=((), ()), keep=lambda ix: True):
    """Generators of the universe elements of ``size`` that pass the blocks,
    in universe order; None stands for the unit ideal."""
    if size <= 0:
        return None
    if ms.kind == "skew":
        universe, poly = PosetUniverse("pfaffians", ms.n, ms.n).elements(), pfaffian_poly
    else:
        universe, poly = minors_universe(ms.m, ms.n).elements(), minor_poly

    def passes(seq, cuts, needs):
        return all(len([a for a in seq if a <= k]) >= need for k, need in zip(cuts, needs))

    return tuple(
        poly(ring, ms, ix)
        for ix in universe
        if ix.size == size
        and passes(ix.rows, *rows)
        and passes(getattr(ix, "cols", ()), *cols)
        and keep(ix)
    )


def _gens(I):
    return None if I.gens == (I.ring.one,) else I.gens


@settings(max_examples=60, deadline=None)
@given(_constrained_cases())
def test_constrained_builders_match_brute_force(case):
    ms, t, R, r, C, c = case
    ring = matrix_ring(ms, FP)
    skew = ms.kind == "skew"
    want = _reference(ring, ms, t, (R, r), (C, c))
    assert constrained_ideal(ring, ms, t, R, r, C, c).gens == want
    if ms.kind == "generic":
        assert constrained_minor_ideal(ring, ms, t, R=R, r=r, C=C, c=c).gens == want
    elif ms.kind == "symmetric":
        assert constrained_symmetric_ideal(ring, ms, t, R=R, r=r).gens == want
        doset = constrained_symmetric_ideal(ring, ms, t, R=R, r=r, doset_only=True)
        assert doset.gens == _reference(ring, ms, t, (R, r), keep=in_doset)
    else:
        assert constrained_pfaffian_ideal(ring, ms, t, R=R, r=r).gens == want

    family = "pfaffians" if skew else "minors"
    expected = [(f"{family}({t})", _reference(ring, ms, t))]
    for axis, cuts, needs in (("rows", R, r), ("cols", C, c)):
        for cut, need in zip(cuts, needs):
            size = need + need % 2 if skew else need
            block = ((cut,), (need,))
            sides = (block, ((), ())) if axis == "rows" else (((), ()), block)
            expected.append((f"{family}({need},{axis}<={cut})", _reference(ring, ms, size, *sides)))
    if ms.kind == "generic":
        shaped = minor_components(ring, ms, t, R=R, r=r, C=C, c=c)
    elif ms.kind == "symmetric":
        shaped = symmetric_components(ring, ms, t, R=R, r=r)
    else:
        shaped = pfaffian_components(ring, ms, t, R=R, r=r)
    for built in (components(ring, ms, t, R, r, C, c), shaped):
        assert [(name, _gens(h)) for name, h in built] == expected
    if skew:
        for cut, need in zip(R, r):
            assert _gens(pfaffian_row_component(ring, ms, need, cut)) == expected[1 + R.index(cut)][1]


def test_generator_follows_the_shape():
    sk = skew_matrix(4)
    ix, f = generator(matrix_ring(sk, QQ), sk, (1, 2), (3, 4))
    assert ix == PfaffianIndex((1, 2)) and str(f) == "z[1,2]"
    gen = generic_matrix(4, 4)
    ix, f = generator(matrix_ring(gen, QQ), gen, (1, 2), (3, 4))
    assert ix == MinorIndex((1, 2), (3, 4))
    assert f == minor_poly(matrix_ring(gen, QQ), gen, ix)


def test_shape_checked_builders_reject_other_shapes():
    gen, sym, sk = generic_matrix(3, 3), symmetric_matrix(3), skew_matrix(4)
    with pytest.raises(ValueError, match="skew matrix required"):
        constrained_pfaffian_ideal(matrix_ring(gen, QQ), gen, 2)
    with pytest.raises(ValueError, match="skew matrix required"):
        ideal_of_pfaffians(matrix_ring(sym, QQ), sym, 2)
    with pytest.raises(ValueError, match="generic or symmetric matrix required"):
        ideal_of_minors(matrix_ring(sk, QQ), sk, 2)
    with pytest.raises(ValueError, match="C: Pfaffians take no column blocks"):
        constrained_ideal(matrix_ring(sk, QQ), sk, 2, C=(1,), c=(1,))
    with pytest.raises(ValueError, match="counts must be >= 0"):
        constrained_ideal(matrix_ring(gen, QQ), gen, 2, R=(1,), r=(-1,))


# -- classical heights -----------------------------------------------------------------


def test_heights_of_unconstrained_ideals():
    cases = [
        (generic_matrix(2, 2), 2, 1),
        (generic_matrix(2, 3), 2, 2),
        (generic_matrix(3, 3), 2, 4),
        (generic_matrix(3, 3), 3, 1),
    ]
    for ms, t, expected in cases:
        ring = matrix_ring(ms, FP)
        I = ideal_of_minors(ring, ms, t)
        assert ideal_height(I) == expected, (ms, t)
        assert expected == (ms.m - t + 1) * (ms.n - t + 1)


def test_height_of_symmetric_minors():
    ms = symmetric_matrix(3)
    ring = matrix_ring(ms, FP)
    assert ideal_height(ideal_of_minors(ring, ms, 2)) == 3
    assert ideal_height(ideal_of_minors(ring, ms, 3)) == 1


def test_height_of_pfaffians():
    for n, size, expected in [(4, 4, 1), (5, 4, 3), (4, 2, 6), (5, 2, 10)]:
        ms = skew_matrix(n)
        ring = matrix_ring(ms, FP)
        I = ideal_of_pfaffians(ring, ms, size)
        assert ideal_height(I) == expected, (n, size)
        p = size // 2
        assert expected == (n - 2 * p + 1) * (n - 2 * p + 2) // 2


def test_dimension_of_generic_minors():
    ms = generic_matrix(2, 3)
    ring = matrix_ring(ms, FP)
    assert krull_dimension(ideal_of_minors(ring, ms, 2)) == 4


# -- gradings and truncation ----------------------------------------------------------


def test_column_grading_weights():
    ms = generic_matrix(2, 3)
    g = column_grading(ms, 1, 1, 2)
    assert g.weights == (1, 2, 2, 1, 2, 2)
    with pytest.raises(ValueError):
        column_grading(ms, 1, 2, 2)
    with pytest.raises(ValueError):
        column_grading(ms, 4, 1, 2)
    with pytest.raises(ValueError):
        column_grading(skew_matrix(3), 1, 1, 2)


def test_minor_weighted_degree_formula():
    ms = generic_matrix(3, 4)
    ring = matrix_ring(ms, QQ)
    a, p, q = 2, 1, 3
    g = column_grading(ms, a, p, q)
    rng = random.Random(23)
    for _ in range(10):
        size = rng.randint(1, 3)
        rows = tuple(sorted(rng.sample(range(1, 4), size)))
        cols = tuple(sorted(rng.sample(range(1, 5), size)))
        f = minor_poly(ring, ms, MinorIndex(rows, cols))
        inside = sum(1 for j in cols if j <= a)
        assert weighted_degree(g, f) == p * inside + q * (size - inside)


def test_skew_grading_weights_and_pfaffian_degree():
    ms = skew_matrix(5)
    ring = matrix_ring(ms, QQ)
    R, p, q = 2, 1, 2
    g = skew_block_grading(ms, R, p, q)
    # z[1,2] inside, z[1,3] straddles, z[3,4] outside
    t = variable_table(ms)
    assert g.weights[t.position("z[1,2]")] == 2 * p
    assert g.weights[t.position("z[1,3]")] == p + q
    assert g.weights[t.position("z[3,4]")] == 2 * q
    for rows in [(1, 2, 3, 4), (1, 3, 4, 5), (2, 3, 4, 5), (3, 4), (1, 2)]:
        f = pfaffian_poly(ring, ms, PfaffianIndex(rows))
        inside = sum(1 for i in rows if i <= R)
        assert weighted_degree(g, f) == p * inside + q * (len(rows) - inside)


def test_truncation_rank_values():
    assert truncation_rank(2, 1, 2, 2) == 2
    assert truncation_rank(2, 1, 2, 3) == 1
    assert truncation_rank(2, 1, 2, 4) == 0
    assert truncation_rank(4, 1, 2, 7) == 1
    # a 4-Pfaffian under a block grading weighs 4*q - r*(q - p) with r of
    # its row indices in the block, so degree 6 needs r = 2
    assert truncation_rank(4, 1, 2, 6) == 2
    # d past size*q: every generator fits, and no count goes below 0
    assert truncation_rank(2, 1, 2, 100) == 0
    with pytest.raises(ValueError):
        truncation_rank(2, 2, 2, 3)


def test_truncated_ideal_filter_vs_graded_reference():
    ms = generic_matrix(2, 3)
    ring = matrix_ring(ms, FP)
    I = ideal_of_minors(ring, ms, 2)
    g = column_grading(ms, 1, 1, 2)
    for d in (2, 3, 4, 5):
        fast = truncated_ideal(I, g, d)
        slow = truncated_ideal_graded(I, g, d)
        assert ideal_equal(fast, slow), d
    assert not truncated_ideal(I, g, 2).groebner()
    assert len(truncated_ideal(I, g, 3).gens) == 2
    assert len(truncated_ideal(I, g, 4).gens) == 3


@st.composite
def _truncations(draw):
    """A generic ideal of minors (m, n <= 3) under a column grading, or a
    skew ideal of Pfaffians (n <= 5) under a block grading, with weights
    ``0 < p < q`` and a bound ``d`` from below the lightest generator to
    past the heaviest."""
    p = draw(st.integers(1, 2))
    q = draw(st.integers(p + 1, 3))
    if draw(st.booleans()):
        ms = generic_matrix(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
        size = draw(st.integers(1, min(ms.m, ms.n)))
        grading = column_grading(ms, draw(st.integers(0, ms.n)), p, q)
    else:
        ms = skew_matrix(draw(st.integers(2, 5)))
        size = draw(st.sampled_from([k for k in (2, 4) if k <= ms.n]))
        grading = skew_block_grading(ms, draw(st.integers(0, ms.n)), p, q)
    d = draw(st.integers(size * p - 1, size * q + 1))
    return ms, size, grading, d


@settings(max_examples=40, deadline=None)
@given(_truncations())
def test_truncation_reference_matches_the_filter(case):
    # the reference's basis run row-reduces each slice of multiples, most
    # of them linearly dependent, in its generator pass; its reduced basis
    # is the filtered generators'
    ms, size, grading, d = case
    ring = matrix_ring(ms, FP)
    I = constrained_ideal(ring, ms, size)
    graded = truncated_ideal_graded(I, grading, d)
    assert graded.groebner() == truncated_ideal(I, grading, d).groebner()


def test_truncation_reference_checks_the_deadline(monkeypatch):
    # the reference reads the clock once per generator and slice, before it
    # forms that generator's multiples; a clock that passes the deadline
    # once the first multiple is formed must stop it at the next reading,
    # with no other multiple formed
    from detkit import groebner

    real_clock, real_term_mul = groebner.monotonic, Polynomial.term_mul
    formed = []

    def term_mul(f, m):
        formed.append(m)
        return real_term_mul(f, m)

    monkeypatch.setattr(Polynomial, "term_mul", term_mul)
    monkeypatch.setattr(groebner, "monotonic", lambda: float("inf") if formed else real_clock())
    ms = generic_matrix(2, 3)
    ring = matrix_ring(ms, FP)
    I = ideal_of_minors(ring, ms, 2)
    grading = column_grading(ms, 1, 1, 2)
    with deadline_scope(monotonic() + 60), pytest.raises(BudgetExceeded) as info:
        truncated_ideal_graded(I, grading, 5)
    assert len(formed) == 1
    assert [entry.name for entry in info.traceback][-2:] == [
        "truncated_ideal_graded",
        "_check_deadline",
    ]
    # unbounded, the reference forms every multiple of weighted degree <= 5
    monkeypatch.setattr(groebner, "monotonic", real_clock)
    formed.clear()
    assert len(truncated_ideal_graded(I, grading, 5).gens) == len(formed) > 1


def test_truncation_rejects_inhomogeneous_generator():
    ms = generic_matrix(2, 2)
    ring = matrix_ring(ms, QQ)
    g = column_grading(ms, 1, 1, 2)
    from detkit.groebner import IdealHandle

    bad = IdealHandle(ring, [ring.var(0) + ring.var(1)])
    with pytest.raises(ValueError):
        truncated_ideal(bad, g, 5)
    with pytest.raises(ValueError):
        truncated_ideal_graded(bad, g, 5)


def test_monomials_of_weighted_degree():
    ms = generic_matrix(2, 2)
    g = column_grading(ms, 1, 1, 2)
    for e in range(5):
        monos = monomials_of_weighted_degree(g, e)
        assert len(set(monos)) == len(monos)
        for m in monos:
            assert g.monomial_degree(m) == e
    from detkit.poly import GradingSpec

    table = variable_table(ms)
    uni = GradingSpec(table, (1,) * len(table))
    # stars and bars: C(e + 3, 3) monomials of degree e in 4 variables
    from math import comb

    for e in range(4):
        assert len(monomials_of_weighted_degree(uni, e)) == comb(e + 3, 3)