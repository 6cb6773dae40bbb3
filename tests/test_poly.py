import random
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detkit.harness import coefficient_matrix
from detkit.poly import (
    QQ,
    GradingSpec,
    GrevlexOrder,
    LexOrder,
    MINUS_INFINITY,
    Monomial,
    MONOMIAL_ONE,
    PolyRing,
    PrimeField,
    VariableTable,
    field_from_name,
    format_polynomial,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    order_from_name,
    weighted_degree,
)
from helpers import (
    all_monomials,
    dense,
    evaluate,
    grevlex_greater,
    lex_greater,
    naive_mul,
    order_compare,
    poly_to_dict,
    random_monomial,
    random_poly,
)


# -- fields -------------------------------------------------------------------


def test_prime_field_rejects_composites():
    for bad in (0, 1, 4, 9, 32001):
        with pytest.raises(ValueError):
            PrimeField(bad)
    PrimeField(2)
    PrimeField(32003)


def test_prime_field_primality_at_large_moduli():
    # 2^61 - 1 is prime; trial division up to its square root never returns
    PrimeField(2**61 - 1)
    # 2^61 + 1 (divisible by 3), the Carmichael number 561 and the strong
    # pseudoprime to base 2, 2047 = 23 * 89, are composite
    for bad in (2**61 + 1, 561, 2047, 3215031751, (2**61 - 1) * (2**31 - 1)):
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(bad)


def test_prime_field_axioms_random():
    fp = PrimeField(32003)
    rng = random.Random(101)
    for _ in range(200):
        a, b, c = (fp.of_int(rng.randint(-10**6, 10**6)) for _ in range(3))
        assert fp.add(a, fp.add(b, c)) == fp.add(fp.add(a, b), c)
        assert fp.mul(a, fp.mul(b, c)) == fp.mul(fp.mul(a, b), c)
        assert fp.mul(a, fp.add(b, c)) == fp.add(fp.mul(a, b), fp.mul(a, c))
        assert fp.sub(a, b) == fp.add(a, fp.neg(b))
        if a != 0:
            assert fp.mul(a, fp.inv(a)) == fp.one
            assert fp.div(b, a) == fp.mul(b, fp.inv(a))


def test_rational_field_basics():
    assert QQ.of_int(3) == Fraction(3)
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert QQ.is_negative(Fraction(-1, 7))
    assert not QQ.is_negative(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_field_from_name():
    assert field_from_name("qq") is QQ
    assert field_from_name("fp:32003") == PrimeField(32003)
    with pytest.raises(ValueError):
        field_from_name("fp:10")
    with pytest.raises(ValueError):
        field_from_name("gf:7")


# -- variable tables ------------------------------------------------------------


def test_variable_table_positions():
    t = VariableTable(["a", "b", "c"])
    assert t.position("b") == 1
    assert t.name(2) == "c"
    with pytest.raises(ValueError):
        VariableTable(["a", "a"])


# -- monomials -------------------------------------------------------------------


def test_monomial_canonical_form():
    m = Monomial([(2, 1), (0, 2), (2, 1)])
    assert m.exps == ((0, 2), (2, 2))
    assert m.deg == 4
    assert Monomial([(1, 0)]) == MONOMIAL_ONE
    assert not MONOMIAL_ONE
    with pytest.raises(ValueError):
        Monomial([(0, -1)])


def test_monomial_ops_against_dense_vectors():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 6)
        u = random_monomial(rng, n, 6)
        v = random_monomial(rng, n, 6)
        du, dv = dense(u, n), dense(v, n)
        prod = mono_mul(u, v)
        assert dense(prod, n) == [a + b for a, b in zip(du, dv)]
        assert prod.deg == u.deg + v.deg
        lcm = mono_lcm(u, v)
        assert dense(lcm, n) == [max(a, b) for a, b in zip(du, dv)]
        divides = all(a <= b for a, b in zip(du, dv))
        assert mono_divides(u, v) == divides
        if divides:
            q = mono_div(v, u)
            assert dense(q, n) == [b - a for a, b in zip(du, dv)]
        assert mono_divides(u, prod) and mono_divides(v, prod)
        assert mono_div(prod, u) == v


def test_mono_div_requires_divisibility():
    x0 = Monomial([(0, 1)])
    x1 = Monomial([(1, 2)])
    with pytest.raises(ValueError):
        mono_div(x0, x1)


# -- monomial orders --------------------------------------------------------------
#
# Exhaustive cross-check on all pairs of monomials with 3 variables and
# exponents up to 2 (27 monomials, 729 ordered pairs) against dense-vector
# comparators written independently above.


def _assert_order_matches(order, oracle_greater, nvars, maxexp):
    monos = all_monomials(nvars, maxexp)
    for u in monos:
        for v in monos:
            got = order_compare(order, u, v)
            du, dv = dense(u, nvars), dense(v, nvars)
            if du == dv:
                assert got == 0
            elif oracle_greater(du, dv):
                assert got == 1, (du, dv)
            else:
                assert got == -1, (du, dv)


def test_lex_order_exhaustive():
    t = VariableTable(["a", "b", "c"])
    _assert_order_matches(LexOrder(t), lex_greater, 3, 2)


def test_grevlex_order_exhaustive():
    t = VariableTable(["a", "b", "c"])
    _assert_order_matches(GrevlexOrder(t), grevlex_greater, 3, 2)


def test_grevlex_order_four_vars():
    t = VariableTable(["a", "b", "c", "d"])
    _assert_order_matches(GrevlexOrder(t), grevlex_greater, 4, 2)


def test_order_weights_exhaustive():
    # the dot product with the weights sorts like the dense comparators for
    # every exponent below the base, here the smallest base that holds 2
    t = VariableTable(["a", "b", "c"])
    vecs = [dense(m, 3) for m in all_monomials(3, 2)]
    for order, greater in ((LexOrder(t), lex_greater), (GrevlexOrder(t), grevlex_greater)):
        weights = order.weights(3)
        keys = [sum(e * w for e, w in zip(u, weights)) for u in vecs]
        for u, ku in zip(vecs, keys):
            for v, kv in zip(vecs, keys):
                assert (ku > kv) == greater(u, v), (u, v)


@st.composite
def _term_streams(draw):
    """A ring over 1 to 4 variables and three raw term streams on a few
    exponent vectors of mixed degree, entries up to 12: vectors repeat, and
    a term may be followed by its negation, so some sums cancel to zero."""
    n = draw(st.integers(1, 4))
    vecs = draw(st.lists(st.lists(st.integers(0, 12), min_size=n, max_size=n), min_size=1, max_size=8))
    term = st.tuples(st.sampled_from(vecs), st.integers(-3, 3))
    streams = []
    for _ in range(3):
        stream = draw(st.lists(term, max_size=12))
        if stream and draw(st.booleans()):
            stream.append((stream[0][0], -stream[0][1]))
        streams.append(stream)
    order = draw(st.sampled_from(("lex", "grevlex")))
    t = VariableTable([f"v{i}" for i in range(n)])
    ring = PolyRing(t, order_from_name(order, t), field_from_name(draw(st.sampled_from(("fp:32003", "qq")))))
    return ring, streams


_AB = VariableTable(["a", "b"])


@settings(max_examples=200, deadline=None)
@given(_term_streams())
# b^2 and a share a key at base 2, the largest degree, so the base must
# pass the largest degree
@example((PolyRing(_AB, LexOrder(_AB), QQ), [[([0, 2], 1), ([1, 0], 1)], [], []]))
def test_sorts_match_the_dense_comparators(case):
    # from_terms merges like monomials, drops the zero sums and puts the
    # rest in the order the dense comparators give; coefficient_matrix puts
    # its columns in that order too
    ring, streams = case
    greater = lex_greater if ring.order.kind == "lex" else grevlex_greater
    n, fld = len(ring.table), ring.field

    def descending(vecs):
        return sorted(vecs, key=cmp_to_key(lambda u, v: greater(u, v) - greater(v, u)), reverse=True)

    polys = []
    for stream in streams:
        sums = {}
        for vec, c in stream:
            sums[tuple(vec)] = fld.add(sums.get(tuple(vec), fld.zero), fld.of_int(c))
        f = ring.from_terms((Monomial(enumerate(vec)), c) for vec, c in stream)
        want = [(list(v), sums[v]) for v in descending([v for v in sums if sums[v] != 0])]
        assert [(dense(m, n), c) for m, c in f.terms] == want
        polys.append(f)
    rows, monos = coefficient_matrix(ring, polys)
    used = {tuple(dense(m, n)) for f in polys for m, _ in f.terms}
    assert [dense(m, n) for m in monos] == [list(v) for v in descending(used)]
    assert [{monos[i]: c for i, c in row.items()} for row in rows] == [dict(f.terms) for f in polys]


def test_grevlex_tiebreak_examples():
    # equal degree: the variable later in the table is penalized, so
    # a*c < b^2 and the antidiagonal of a 2x2 grid beats the diagonal
    t = VariableTable(["a", "b", "c"])
    o = GrevlexOrder(t)
    ac = Monomial([(0, 1), (2, 1)])
    bb = Monomial([(1, 2)])
    assert order_compare(o, ac, bb) == -1
    t4 = VariableTable(["x[1,1]", "x[1,2]", "x[2,1]", "x[2,2]"])
    o4 = GrevlexOrder(t4)
    diag = Monomial([(0, 1), (3, 1)])
    anti = Monomial([(1, 1), (2, 1)])
    assert order_compare(o4, anti, diag) == 1


def test_order_from_name():
    t = VariableTable(["a", "b"])
    assert isinstance(order_from_name("lex", t), LexOrder)
    assert isinstance(order_from_name("grevlex", t), GrevlexOrder)
    with pytest.raises(ValueError):
        order_from_name("grlex", t)


def test_ring_rejects_foreign_monomial():
    t = VariableTable(["a", "b"])
    ring = PolyRing(t, GrevlexOrder(t), QQ)
    with pytest.raises(ValueError):
        ring.from_terms([(Monomial([(5, 1)]), 1)])


# -- gradings ---------------------------------------------------------------------


def test_grading_weights_validated():
    t = VariableTable(["a", "b"])
    GradingSpec(t, (1, 2))
    with pytest.raises(ValueError):
        GradingSpec(t, (1,))
    with pytest.raises(ValueError):
        GradingSpec(t, (0, 1))


def test_weighted_degree_signals():
    t = VariableTable(["a", "b"])
    ring = PolyRing(t, GrevlexOrder(t), QQ)
    g = GradingSpec(t, (1, 2))
    a, b = ring.var(0), ring.var(1)
    assert weighted_degree(g, ring.zero) == MINUS_INFINITY
    assert weighted_degree(g, a * a) == 2
    assert weighted_degree(g, b) == 2
    assert weighted_degree(g, a * a + b) == 2
    assert weighted_degree(g, a + b) is None
    assert weighted_degree(GradingSpec(t, (1,) * len(t)), a + b) == 1


# -- polynomials ------------------------------------------------------------------


@pytest.fixture
def rings():
    t = VariableTable(["a", "b", "c"])
    return (
        PolyRing(t, GrevlexOrder(t), PrimeField(32003)),
        PolyRing(t, GrevlexOrder(t), QQ),
        PolyRing(t, LexOrder(t), QQ),
    )


def _check_invariants(f):
    key = f.ring.order.key
    keys = [key(m) for m, _ in f.terms]
    assert keys == sorted(keys, reverse=True)
    assert len(set(keys)) == len(keys)
    assert all(c != 0 for _, c in f.terms)


def test_arithmetic_matches_naive_dicts(rings):
    rng = random.Random(42)
    fld_cases = rings
    for ring in fld_cases:
        fld = ring.field
        for _ in range(60):
            f = random_poly(ring, rng, rng.randint(0, 6), 4)
            g = random_poly(ring, rng, rng.randint(0, 6), 4)
            for h in (f + g, f - g, f * g, -f):
                _check_invariants(h)
            fd, gd = poly_to_dict(f), poly_to_dict(g)
            assert poly_to_dict(f * g) == naive_mul(fd, gd, fld)
            sum_d = dict(fd)
            for k, c in gd.items():
                sum_d[k] = fld.add(sum_d.get(k, fld.zero), c)
            assert poly_to_dict(f + g) == {k: c for k, c in sum_d.items() if c != 0}
            assert f - g == f + (-g)
            assert (f + g) - g == f


def test_ring_algebra_identities(rings):
    rng = random.Random(9)
    for ring in rings:
        for _ in range(25):
            f = random_poly(ring, rng, 4, 3)
            g = random_poly(ring, rng, 4, 3)
            h = random_poly(ring, rng, 4, 3)
            assert f * (g + h) == f * g + f * h
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f + ring.zero == f
            assert f * ring.one == f
            assert f * ring.zero == ring.zero


def test_pow_and_scale(rings):
    ring = rings[1]
    a, b = ring.var(0), ring.var(1)
    f = a + b
    assert f**0 == ring.one
    assert f**1 == f
    assert f**3 == f * f * f
    assert f.scale(Fraction(0)) == ring.zero
    assert f.scale(Fraction(2)) == f + f
    with pytest.raises(ValueError):
        f ** (-1)


def test_term_mul_matches_general_mul(rings):
    rng = random.Random(13)
    for ring in rings:
        for _ in range(40):
            f = random_poly(ring, rng, 5, 4)
            m = random_monomial(rng, 3, 3)
            assert f.term_mul(m) == f * ring.monomial_poly(m)
            _check_invariants(f.term_mul(m))


def test_monic_and_leading_data(rings):
    for ring in rings:
        a, b = ring.var(0), ring.var(1)
        f = (a + b) * (a + b)
        assert f.lm == Monomial([(0, 2)])
        g = f.scale(ring.field.of_int(7)).monic()
        assert g.lc == ring.field.one
        assert g == f
    with pytest.raises(ValueError):
        _ = rings[0].zero.lm


def test_degree_scans_all_terms():
    # under lex the leading term can have lower total degree than a later one
    t = VariableTable(["a", "b"])
    ring = PolyRing(t, LexOrder(t), QQ)
    a, b = ring.var(0), ring.var(1)
    f = a + b**5
    assert f.lm == Monomial([(0, 1)])
    assert f.degree() == 5
    assert ring.zero.degree() == MINUS_INFINITY


def test_evaluate_is_ring_morphism(rings):
    rng = random.Random(77)
    for ring in rings:
        fld = ring.field
        for _ in range(30):
            f = random_poly(ring, rng, 4, 3)
            g = random_poly(ring, rng, 4, 3)
            pt = [fld.of_int(rng.randint(-9, 9)) for _ in range(3)]
            assert evaluate(f * g, pt) == fld.mul(evaluate(f, pt), evaluate(g, pt))
            assert evaluate(f + g, pt) == fld.add(evaluate(f, pt), evaluate(g, pt))


def test_from_terms_accumulates_and_drops_zeros(rings):
    ring = rings[1]
    m = Monomial([(0, 1)])
    f = ring.from_terms([(m, Fraction(2)), (m, Fraction(-2)), (MONOMIAL_ONE, 3)])
    assert f == ring.const(3)
    assert ring.from_terms([]) == ring.zero


def test_from_terms_rejects_position_past_table(rings):
    for ring in rings:
        with pytest.raises(ValueError, match="outside variable table"):
            ring.from_terms([(MONOMIAL_ONE, 1), (Monomial([(3, 1)]), 1)])


def test_cross_ring_arithmetic_rejected():
    t = VariableTable(["a"])
    r1 = PolyRing(t, GrevlexOrder(t), QQ)
    r2 = PolyRing(t, GrevlexOrder(t), PrimeField(7))
    with pytest.raises(ValueError):
        _ = r1.var(0) + r2.var(0)


# -- text form ---------------------------------------------------------------------


def test_format_over_rationals():
    t = VariableTable(["x[1,1]", "x[1,2]", "x[2,1]", "x[2,2]"])
    ring = PolyRing(t, GrevlexOrder(t), QQ)
    x11, x12, x21, x22 = (ring.var(i) for i in range(4))
    det = x11 * x22 - x12 * x21
    # antidiagonal leads under grevlex with row-major variables
    assert format_polynomial(det) == "-x[1,2]*x[2,1] + x[1,1]*x[2,2]"
    f = x11 * x11 * 3 - ring.const(Fraction(1, 2))
    assert format_polynomial(f) == "3*x[1,1]^2 - 1/2"
    assert format_polynomial(ring.zero) == "0"
    assert format_polynomial(-x11) == "-x[1,1]"


def test_format_over_prime_field():
    t = VariableTable(["a", "b"])
    ring = PolyRing(t, GrevlexOrder(t), PrimeField(7))
    a, b = ring.var(0), ring.var(1)
    f = a * a - b
    # residues print as-is: -1 is 6 mod 7
    assert format_polynomial(f) == "a^2 + 6*b"
    assert format_polynomial(ring.const(5)) == "5"
