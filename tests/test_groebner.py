import random
from fractions import Fraction
from time import monotonic

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from detkit.groebner import (
    BudgetExceeded,
    IdealHandle,
    UnitIdealError,
    _Packing,
    _support,
    buchberger,
    deadline_scope,
    hilbert_numerator,
    ideal_equal,
    ideal_height,
    ideal_intersect,
    ideal_member,
    intersect_all,
    krull_dimension,
    normal_form,
    s_polynomial,
)
from detkit.poly import (
    QQ,
    LexOrder,
    Monomial,
    PolyRing,
    PrimeField,
    VariableTable,
    field_from_name,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    order_from_name,
)
from helpers import (
    assert_reduced_basis,
    brute_force_dimension,
    brute_force_hilbert_function,
    expire_after_basis,
    random_poly,
    series_from_numerator,
    textbook_buchberger,
)


def mkring(names, field=QQ, order="grevlex"):
    t = VariableTable(list(names))
    return PolyRing(t, order_from_name(order, t), field)


# -- frozen small bases --------------------------------------------------------


def test_basis_of_classic_pair():
    ring = mkring("xy")
    x, y = ring.var(0), ring.var(1)
    G = buchberger([x * x + y * y, x * y])
    assert G == (y**3, x * x + y * y, x * y)
    assert_reduced_basis(G)


def test_basis_of_linear_system():
    ring = mkring("xyz", order="lex")
    x, y, z = (ring.var(i) for i in range(3))
    G = buchberger([x + y + z - 6, x - y, z - x * 2])
    assert G == (
        x - ring.const(Fraction(3, 2)),
        y - ring.const(Fraction(3, 2)),
        z - 3,
    )


def test_unit_and_zero_ideals():
    ring = mkring("xy")
    x = ring.var(0)
    assert buchberger([]) == ()
    assert buchberger([ring.zero]) == ()
    assert buchberger([x, x + 1]) == (ring.one,)
    assert IdealHandle(ring, [x, x + 1]).groebner() == (ring.one,)
    assert not IdealHandle(ring, []).groebner()
    assert IdealHandle(ring, [x]).groebner() != (ring.one,)


def test_duplicate_and_redundant_generators_collapse():
    ring = mkring("xy")
    x, y = ring.var(0), ring.var(1)
    G1 = buchberger([x + y, x + y, (x + y) * y, x + y])
    G2 = buchberger([x + y])
    assert G1 == G2 == (x + y,)


# -- definitional property checks on random ideals ------------------------------


def test_random_bases_are_reduced_and_contain_generators():
    rng = random.Random(2024)
    ring = mkring("abc", field=PrimeField(32003))
    for _ in range(12):
        gens = [random_poly(ring, rng, rng.randint(1, 3), 2) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if g]
        G = buchberger(gens)
        assert_reduced_basis(G)
        for g in gens:
            assert not normal_form(g, G)


def test_determinism_across_fresh_runs():
    def build():
        ring = mkring("abcd", field=PrimeField(32003))
        a, b, c, d = (ring.var(i) for i in range(4))
        gens = [a * b - c * d, a * c - b * d, a * d - b * c]
        return tuple(str(g) for g in buchberger(gens))

    assert build() == build()


def test_groebner_invariance_under_generator_scaling():
    ring = mkring("xy")
    x, y = ring.var(0), ring.var(1)
    f, g = x * x - y, x * y - 1
    G1 = buchberger([f, g])
    G2 = buchberger([f.scale(Fraction(7, 3)), g.scale(Fraction(-2))])
    assert G1 == G2


# -- normal forms ----------------------------------------------------------------


def test_normal_form_is_canonical_and_linear():
    ring = mkring("xyz", field=PrimeField(32003))
    x, y, z = (ring.var(i) for i in range(3))
    I = IdealHandle(ring, [x * y - z, y * y - 1])
    G = I.groebner()
    rng = random.Random(11)
    for _ in range(20):
        f = random_poly(ring, rng, 5, 3)
        g = random_poly(ring, rng, 5, 3)
        rf, rg = normal_form(f, G), normal_form(g, G)
        assert normal_form(f + g, G) == rf + rg
        assert ideal_member(f - rf, I)
        assert normal_form(rf, G) == rf


@pytest.mark.parametrize("field", [PrimeField(32003), QQ])
def test_normal_form_ignores_divisor_scaling(field):
    # divisors are made monic first, so scaling one by a non-unit constant
    # leaves the remainder as it was, for a basis and for a plain list
    ring = mkring("xyz", field=field)
    rng = random.Random(23)
    for _ in range(10):
        F = [random_poly(ring, rng, 3, 3) for _ in range(3)]
        F = [f for f in F if f]
        for G in (F, buchberger(F)):
            for c in (field.of_int(7), field.div(field.of_int(-2), field.of_int(5))):
                f = random_poly(ring, rng, 6, 4)
                assert normal_form(f, [g.scale(c) for g in G]) == normal_form(f, G)


def test_normal_form_rejects_zero_divisor():
    ring = mkring("x")
    with pytest.raises(ValueError):
        normal_form(ring.var(0), [ring.zero])


def test_membership():
    ring = mkring("xy")
    x, y = ring.var(0), ring.var(1)
    I = IdealHandle(ring, [x + y])
    assert ideal_member((x + y) ** 3, I)
    assert ideal_member(ring.zero, I)
    assert not ideal_member(x, I)
    J = IdealHandle(ring, [x * x, y])
    assert not ideal_member(x, J)
    assert ideal_member(x * x + y * y, J)
    with pytest.raises(ValueError):
        ideal_member(mkring("xy", order="lex").var(0), J)


def test_membership_packs_the_basis_once(monkeypatch):
    from detkit import groebner

    packed = []
    real_rows = groebner._Packing.rows

    def counting_rows(pk, f):
        packed.append(f)
        return real_rows(pk, f)

    monkeypatch.setattr(groebner._Packing, "rows", counting_rows)
    ring = mkring("xyz")
    x, y, z = (ring.var(i) for i in range(3))
    I = IdealHandle(ring, [x * y - z * z, y * z - x * x, x * z - y * y])
    G = I.groebner()
    packed.clear()
    tests = [x**3 - y * y * x, x * y, (x * y - z * z) * z, (y * z - x * x) * (x + y)]
    assert [ideal_member(f, I) for f in tests] == [False, False, True, True]
    # each basis element once, then one row list per tested polynomial
    assert len(packed) == len(G) + len(tests)


def test_s_polynomial_cancels_heads():
    ring = mkring("xy")
    x, y = ring.var(0), ring.var(1)
    f = (x * x + y).scale(Fraction(3))
    g = x * y - x
    s = s_polynomial(f, g)
    # heads scale to x^2*y on both sides and cancel
    lcm = (x * x * y).lm
    assert all(m != lcm for m, _ in s.terms)
    assert s == y * f.monic() - x * g.monic()


def test_ideal_equality():
    ring = mkring("xy")
    x, y = ring.var(0), ring.var(1)
    assert ideal_equal(IdealHandle(ring, [x, y]), IdealHandle(ring, [x + y, y]))
    assert not ideal_equal(IdealHandle(ring, [x]), IdealHandle(ring, [x, y]))
    other = mkring("xz")
    with pytest.raises(ValueError):
        ideal_equal(IdealHandle(ring, [x]), IdealHandle(other, [other.var(0)]))


# -- elimination orders and intersections ------------------------------------------


def test_lex_basis_from_grevlex_generators_eliminates():
    ring = mkring("xyz", order="grevlex")
    x, y, z = (ring.var(i) for i in range(3))
    lring = PolyRing(ring.table, LexOrder(ring.table), ring.field)
    G = buchberger([lring.from_terms(f.terms) for f in (y - x * x, z - x * x * x)])
    assert G and isinstance(G[0].ring.order, LexOrder)
    # the x-free part must contain the relation y^3 = z^2
    ly, lz = lring.var(1), lring.var(2)
    xfree = [g for g in G if all(pos != 0 for m, _ in g.terms for pos, _ in m.exps)]
    assert xfree
    assert not normal_form(ly**3 - lz**2, G)


def test_monomial_ideal_intersections():
    ring = mkring("xyz")
    x, y, z = (ring.var(i) for i in range(3))
    I = IdealHandle(ring, [x])
    J = IdealHandle(ring, [y])
    K = ideal_intersect(I, J)
    assert K.groebner() == (x * y,)
    L = ideal_intersect(IdealHandle(ring, [x * x, x * y]), IdealHandle(ring, [y * y]))
    assert L.groebner() == (x * y * y,)
    M = intersect_all(ring, [I, J, IdealHandle(ring, [z])])
    assert M.groebner() == (x * y * z,)
    assert intersect_all(ring, [I]) is I


def test_intersect_all_keeps_only_a_certified_expectation():
    ring = mkring("xyz")
    x, y, z = (ring.var(i) for i in range(3))
    I, J = IdealHandle(ring, [x]), IdealHandle(ring, [y])
    right = IdealHandle(ring, [x * y])
    assert intersect_all(ring, [I, J], expect=[right]) is right
    # inside I ∩ J with a smaller series, and not inside J: both eliminate
    for wrong in ([x * x * y], [x]):
        K = intersect_all(ring, [I, J], expect=[IdealHandle(ring, wrong)])
        assert K.groebner() == (x * y,)
    # a refused first step leaves the second to be certified from its result
    Z = IdealHandle(ring, [z])
    both = [IdealHandle(ring, [x]), IdealHandle(ring, [x * y * z])]
    assert intersect_all(ring, [I, J, Z], expect=both) is both[1]


def test_univariate_intersection_is_lcm():
    ring = mkring("x")
    x = ring.var(0)
    f = x * x * (x + 1)
    K = ideal_intersect(IdealHandle(ring, [x * (x + 1)]), IdealHandle(ring, [x * x]))
    assert K.groebner() == (f.monic(),)


def test_intersection_double_inclusion_random():
    rng = random.Random(31)
    ring = mkring("abc", field=PrimeField(32003))
    for _ in range(6):
        I = IdealHandle(ring, [random_poly(ring, rng, 3, 2) for _ in range(2)])
        J = IdealHandle(ring, [random_poly(ring, rng, 3, 2) for _ in range(2)])
        K = ideal_intersect(I, J)
        for g in K.gens:
            assert ideal_member(g, I) and ideal_member(g, J)
        for f in I.gens:
            for g in J.gens:
                assert ideal_member(f * g, K)


# -- property tests on random homogeneous ideals -----------------------------------

_EXPONENTS = {
    d: [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)] for d in (1, 2, 3)
}


@st.composite
def _homogeneous_gens(draw, count):
    """``count`` nonzero homogeneous polynomials in three variables, as
    ``[(exponents, coefficient), ...]`` term lists."""
    out = []
    for _ in range(count):
        exps = draw(st.lists(st.sampled_from(_EXPONENTS[draw(st.integers(1, 3))]),
                             min_size=1, max_size=3, unique=True))
        coeffs = st.integers(-7, 7).filter(bool)
        out.append([(e, draw(coeffs)) for e in exps])
    return out


def _ring_and_polys(field, *term_lists, order="grevlex"):
    ring = mkring("abc", field=field_from_name(field), order=order)
    polys = [
        [ring.from_terms((Monomial([(i, k) for i, k in enumerate(e) if k]),
                          ring.field.of_int(c)) for e, c in terms) for terms in tl]
        for tl in term_lists
    ]
    return ring, polys


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["fp:32003", "qq"]), _homogeneous_gens(3))
def test_buchberger_property_reduced_basis(field, terms):
    _, (gens,) = _ring_and_polys(field, terms)
    G = buchberger(gens)
    assert_reduced_basis(G)
    for g in gens:
        assert not normal_form(g, G)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["fp:32003", "qq"]), _homogeneous_gens(2), _homogeneous_gens(2))
def test_intersection_property_members_of_both(field, i_terms, j_terms):
    ring, (i_gens, j_gens) = _ring_and_polys(field, i_terms, j_terms)
    I, J = IdealHandle(ring, i_gens), IdealHandle(ring, j_gens)
    for g in ideal_intersect(I, J).groebner():
        assert ideal_member(g, I) and ideal_member(g, J)


@st.composite
def _binomial_terms(draw):
    """Squarefree binomials ``u - c*v`` in three to five variables, and at
    times the product of the first two.  Their leads share variables and
    their S-pairs share lcms, so criteria B, M and F and the product
    criterion all fire."""
    nvars = draw(st.integers(3, 5))
    support = st.frozensets(st.integers(0, nvars - 1), min_size=1, max_size=3)
    count = draw(st.integers(3, 5))
    terms = [(draw(support), draw(support), draw(st.integers(-2, 2))) for _ in range(count)]
    return nvars, terms, draw(st.booleans())


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["fp:32003", "qq"]), st.sampled_from(["grevlex", "lex"]), _binomial_terms())
# criterion B applied when only one of the two chain pairs has a smaller lcm
# goes wrong here
@example("fp:32003", "grevlex",
         (4, [({0}, {0, 1, 2}, 1), ({0}, {0, 1}, 1), ({1, 2, 3}, {0}, 0)], False))
def test_buchberger_matches_textbook_engine(field, order, drawn):
    nvars, terms, with_product = drawn
    ring = mkring("abcde"[:nvars], field=field_from_name(field), order=order)

    def monomial(support):
        return ring.monomial_poly(Monomial([(pos, 1) for pos in support]))

    gens = [monomial(u) - monomial(v).scale(ring.field.of_int(c)) for u, v, c in terms]
    if with_product:
        gens.append(gens[0] * gens[1])
    # the reference forms every S-pair; about 1 draw in 100 needs more than
    # 500 and some need over 10,000, which takes seconds, so those are dropped
    expected = textbook_buchberger(gens, max_pairs=500)
    if expected is None:
        reject()
    assert buchberger(gens) == expected


@st.composite
def _packed_pairs(draw):
    """An order (lex or grevlex), a field width, whether the packing has the
    elimination field ``w`` past the order's variables, and two exponent
    vectors below the guard bits, with the ``w`` exponent last."""
    n = draw(st.integers(2, 6))
    table = VariableTable([f"v{i}" for i in range(n)])
    order = order_from_name(draw(st.sampled_from(["lex", "grevlex"])), table)
    width = draw(st.sampled_from([8, 16]))
    elim = draw(st.booleans())
    top = (1 << (width - 1)) - 1
    size = n + elim
    exps = st.lists(st.one_of(st.integers(0, 3), st.integers(0, top)), min_size=size, max_size=size)
    return order, width, elim, draw(exps), draw(exps)


def _elim_case(order, ue, ve):
    table = VariableTable([f"v{i}" for i in range(len(ue) - 1)])
    return order_from_name(order, table), 8, True, ue, ve


@settings(max_examples=300, deadline=None)
@given(_packed_pairs())
# w beats the w-free monomial with every exponent at its maximum
@example(_elim_case("lex", [127, 127, 127, 0], [0, 0, 0, 1]))
@example(_elim_case("grevlex", [127, 127, 127, 0], [0, 0, 0, 1]))
def test_packed_monomials_match_poly(case):
    order, width, elim, ue, ve = case
    n = len(order.table)
    ring = PolyRing(order.table, order, QQ)
    pk = _Packing(order, width, elim)
    u = Monomial([(p, e) for p, e in enumerate(ue) if e])
    v = Monomial([(p, e) for p, e in enumerate(ve) if e])
    ((ku, pu, _, su),) = pk.rows(ring.monomial_poly(u))
    ((kv, pv, _, _),) = pk.rows(ring.monomial_poly(v))
    assert pk.monomial(pu) == u and pk.degree(pu) == u.deg
    assert su == _support(u) == pk.support(pu)
    # the key is linear and sorts by the w exponent, then like the order
    assert pk.key(pu) == ku
    if ue[n:] != ve[n:]:
        assert (ku > kv) == (ue[n:] > ve[n:])
    else:
        u_ring = Monomial([(p, e) for p, e in enumerate(ue[:n]) if e])
        v_ring = Monomial([(p, e) for p, e in enumerate(ve[:n]) if e])
        assert (ku > kv) - (ku < kv) == order.compare(u_ring, v_ring)
    # a guard bit stays clear exactly when no exponent carries out
    prod = pu + pv
    fits = all(a + b < 1 << (width - 1) for a, b in zip(ue, ve))
    assert (not prod & pk.guards) == fits
    if fits:
        assert pk.monomial(prod) == mono_mul(u, v)
        assert pk.key(prod) == ku + kv
    divides = not (pv - pu) & pk.guards
    assert divides == mono_divides(u, v)
    if divides:
        assert pk.monomial(pv - pu) == mono_div(v, u)
    assert pk.monomial(pk.lcm(pu, pv)) == mono_lcm(u, v)


@pytest.mark.parametrize("order", ["lex", "grevlex"])
def test_exponents_past_the_first_field_width(order):
    # 8-bit fields hold exponents up to 127: x^300 cannot be packed at all,
    # and the last pair packs but has a basis element past 127 (y^160 - 1
    # under lex, an exponent of 179 under grevlex), so the engine must widen
    # before the first generator or halfway through
    ring = mkring("xyz", order=order)
    x, y, z = (ring.var(i) for i in range(3))
    late = [x - y**60, x * y**100 - 1] if order == "lex" else [x**90 * y - z, x * y**90 - 1]
    for gens in ([x**300 - y**299 * z], [x**300 - y**299 * z, y * y - z], late):
        G = buchberger(gens)
        assert G == textbook_buchberger(gens)
        assert_reduced_basis(G)
    assert max(e for g in G for m, _ in g.terms for _, e in m.exps) > 127
    # reductions widen too, in a bare normal form and against a cached basis
    assert normal_form(x**200 * z, [x - y]) == y**200 * z
    I = IdealHandle(ring, [x - y])
    assert ideal_member(x**100 - y**100, I)
    assert ideal_member(x**200 - y**200, I)
    assert not ideal_member(x**200 - y**199, I)


def test_buchberger_matches_textbook_beyond_64_variables():
    # the leads sit on positions 64-69, so support masks need more than 64 bits
    ring = mkring([f"v{i}" for i in range(70)], field=PrimeField(32003))
    v = ring.var
    gens = [
        v(64) * v(69) - v(65) * v(68),
        v(64) * v(67) - v(65) * v(66),
        v(66) * v(69) - v(67) * v(68),
        v(0) * v(69) - v(1) * v(66),
    ]
    G = buchberger(gens)
    assert G == textbook_buchberger(gens)
    assert any(pos >= 64 for g in G for pos, _ in g.lm.exps)
    assert_reduced_basis(G)


def test_intersection_caches_reduced_basis_under_grevlex():
    ring = mkring("xyz")
    x, y, z = (ring.var(i) for i in range(3))
    I = IdealHandle(ring, [x * y - z * z, x - y])
    J = IdealHandle(ring, [x * z - y, y * y - z])
    K = ideal_intersect(I, J)
    assert K._gb is not None
    fresh = buchberger(K.gens)
    assert K._gb == fresh


def test_intersection_caches_reduced_basis_under_lex(monkeypatch):
    # the elimination order breaks ties by the ring's own order, so under
    # lex as well the w-free part is the reduced basis and the handle needs
    # no second engine run
    from detkit import groebner

    ring = mkring("xyz", order="lex")
    x, y, z = (ring.var(i) for i in range(3))
    I = IdealHandle(ring, [x * y - z * z, x - y])
    J = IdealHandle(ring, [x * z - y, y * y - z])
    calls = []
    run = groebner._basis_rows

    def counting(*args):
        calls.append(None)
        return run(*args)

    monkeypatch.setattr(groebner, "_basis_rows", counting)
    K = ideal_intersect(I, J)
    G = K.groebner()
    assert len(calls) == 1
    assert G == buchberger(K.gens)
    assert_reduced_basis(G)


def test_intersection_with_the_unit_ideal_is_the_other_handle():
    # the other side's cached basis is kept, not recomputed on a copy
    ring = mkring("xy")
    I = IdealHandle(ring, [ring.var(0)])
    unit = IdealHandle(ring, [ring.one])
    assert ideal_intersect(unit, I) is I
    assert ideal_intersect(I, unit) is I


def test_intersection_shortcuts():
    ring = mkring("xy")
    x = ring.var(0)
    I = IdealHandle(ring, [x])
    zero = IdealHandle(ring, [])
    unit = IdealHandle(ring, [ring.one])
    assert not ideal_intersect(I, zero).groebner()
    assert not ideal_intersect(zero, I).groebner()
    assert ideal_intersect(unit, I).gens == I.gens
    assert ideal_intersect(I, unit).gens == I.gens
    assert intersect_all(ring, []).groebner() == (ring.one,)


def test_intersection_rejects_malformed_elimination_basis(monkeypatch):
    # a basis element whose w-free lead sits above a w term breaks the
    # elimination order; the check must hold under python -O as well
    from detkit import groebner

    def bad_basis(pk, pack, fld):
        # x^2 + w, with w the field past the ring's variables x and y
        x2, w = 2, 1 << (2 * pk.width)
        return pk, [[(pk.key(x2), x2, fld.one, 0b001), (pk.key(w), w, fld.one, 0b100)]], False

    monkeypatch.setattr(groebner, "_basis_rows", bad_basis)
    ring = mkring("xy")
    x, y = ring.var(0), ring.var(1)
    with pytest.raises(RuntimeError, match="w-free lead"):
        ideal_intersect(IdealHandle(ring, [x]), IdealHandle(ring, [y]))


@pytest.mark.parametrize("order", ["lex", "grevlex"])
def test_intersection_of_coprime_principal_ideals(order):
    # every variable has exponent 2 or more, so w-free keys reach far past
    # the sum of the weights, and x^130 makes the engine widen its fields;
    # the w field must still outweigh every w-free key
    ring = mkring("xyz", order=order)
    x, y, z = (ring.var(i) for i in range(3))
    f = x**2 * y**2 * z**2 + y**2
    g = x**130 * y**2 * z**2 + z**2
    K = ideal_intersect(IdealHandle(ring, [f]), IdealHandle(ring, [g]))
    assert K.groebner() == buchberger([f * g])


def test_intersection_with_aux_name_collision():
    t = VariableTable(["w", "x"])
    ring = PolyRing(t, order_from_name("grevlex", t), QQ)
    w, x = ring.var(0), ring.var(1)
    K = ideal_intersect(IdealHandle(ring, [w]), IdealHandle(ring, [x]))
    assert K.groebner() == (w * x,)


# -- dimension -----------------------------------------------------------------------


def test_krull_dimension_known_cases():
    ring = mkring("xyz")
    x, y, z = (ring.var(i) for i in range(3))
    assert krull_dimension(IdealHandle(ring, [])) == 3
    assert krull_dimension(IdealHandle(ring, [x])) == 2
    assert krull_dimension(IdealHandle(ring, [x, y])) == 1
    assert krull_dimension(IdealHandle(ring, [x, y, z])) == 0
    assert krull_dimension(IdealHandle(ring, [x * y, x * z])) == 2
    assert ideal_height(IdealHandle(ring, [x * y, x * z])) == 1
    with pytest.raises(UnitIdealError):
        krull_dimension(IdealHandle(ring, [ring.one]))


def test_dimension_of_hypersurface():
    ring = mkring("abcd")
    a, b, c, d = (ring.var(i) for i in range(4))
    assert krull_dimension(IdealHandle(ring, [a * d - b * c])) == 3
    assert ideal_height(IdealHandle(ring, [a * d - b * c])) == 1


@st.composite
def _monomial_ideals(draw):
    """(n, generators) with each generator a dict position -> exponent;
    about half the draws also contain a bare variable."""
    n = draw(st.integers(1, 12))
    support = st.dictionaries(st.integers(0, n - 1), st.integers(1, 3), min_size=1, max_size=5)
    gens = draw(st.lists(support, min_size=1, max_size=15))
    if draw(st.booleans()):
        gens.append({draw(st.integers(0, n - 1)): 1})
    return n, gens


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["fp:32003", "qq"]), _monomial_ideals())
@example("qq", (5, []))
@example("fp:32003", (4, [{2: 1}]))
@example("qq", (3, [{0: 2}, {0: 1, 1: 1}]))
def test_krull_dimension_matches_subset_scan(field, ideal):
    n, gens = ideal
    ring = mkring([f"x{i}" for i in range(n)], field_from_name(field))
    polys = [
        ring.monomial_poly(Monomial(sorted(g.items())), 2 * i - 7) for i, g in enumerate(gens)
    ]
    I = IdealHandle(ring, polys)
    assert krull_dimension(I) == brute_force_dimension(gens, n)


def test_dimension_pivot_ceiling(monkeypatch):
    # the numerator reads the deadline once per pivot; on the 70 lead
    # supports of the 4-Pfaffians of a generic 8x8 skew matrix the pivot on
    # the variable in the most generators reads it 34 times, and a pivot on
    # the lowest variable 89 times
    from detkit import groebner
    from detkit.detideals import MatrixSpec, constrained_ideal, matrix_ring

    ms = MatrixSpec("skew", 8, 8)
    ring = matrix_ring(ms, PrimeField(32003))
    I = constrained_ideal(ring, ms, 4)
    assert len(I.groebner()) == 70
    pivots = [0]
    real_check = groebner._check_deadline

    def counting():
        pivots[0] += 1
        if pivots[0] > 50:
            raise AssertionError("Hilbert numerator passed 50 pivots")
        real_check()

    monkeypatch.setattr(groebner, "_check_deadline", counting)
    assert ideal_height(I) == 15
    assert pivots[0] == 34


# -- budget ---------------------------------------------------------------------------


def test_expired_deadline_raises():
    ring = mkring("xy")
    x, y = ring.var(0), ring.var(1)
    with deadline_scope(monotonic() - 1), pytest.raises(BudgetExceeded):
        buchberger([x * x + y * y, x * y])
    I = IdealHandle(ring, [x * x + y * y, x * y])
    with deadline_scope(monotonic() - 1), pytest.raises(BudgetExceeded):
        I.groebner()
    # a failed run must not poison the cache, and outside the scope no
    # clock reading raises
    assert I.groebner() == (y**3, x * x + y * y, x * y)
    # a scope inside another never extends the outer deadline
    with deadline_scope(monotonic() - 1), deadline_scope(monotonic() + 60):
        with pytest.raises(BudgetExceeded):
            buchberger([x * x + y * y, x * y])


def test_pair_update_checks_the_deadline(monkeypatch):
    # the criterion-B pass of the pair update walks every pending pair, so
    # the update reads the clock itself; a clock past the deadline from its
    # first reading must stop the run inside the update
    from detkit import groebner

    readings = []

    def late_clock():
        readings.append(None)
        return 2.0

    monkeypatch.setattr(groebner, "monotonic", late_clock)
    ring = mkring("xyz")
    x, y, z = (ring.var(i) for i in range(3))
    with deadline_scope(1.0), pytest.raises(BudgetExceeded) as info:
        buchberger([x * y - z * z, y * z - x * x, x * z - y * y])
    assert len(readings) == 1
    assert [entry.name for entry in info.traceback][-2:] == ["_update", "_check_deadline"]


def test_dimension_search_checks_the_deadline(monkeypatch):
    # a clock that passes the deadline only after the basis is computed
    # must stop the numerator's pivot recursion itself; leads that share a
    # variable need a pivot
    deadline = monotonic() + 60
    done = expire_after_basis(monkeypatch)
    ring = mkring("abcd")
    a, b, c, d = (ring.var(i) for i in range(4))
    I = IdealHandle(ring, [a * b, b * c, c * d])
    with deadline_scope(deadline), pytest.raises(BudgetExceeded) as info:
        krull_dimension(I)
    assert len(done) == 1
    assert [entry.name for entry in info.traceback][-2:] == [
        "_pivot_numerator",
        "_check_deadline",
    ]


# -- work counts ----------------------------------------------------------------------


def _intersection_calls(monkeypatch, name):
    """Calls of ``groebner.<name>`` made by the elimination inside
    ideal_intersect for the components of minors 4x5 t3 R2 r1."""
    from detkit import groebner
    from detkit.detideals import MatrixSpec, components, matrix_ring

    ms = MatrixSpec("generic", 4, 5)
    ring = matrix_ring(ms, PrimeField(32003))
    (_, I), (_, J) = components(ring, ms, 3, R=(2,), r=(1,))
    calls = [0]
    fn = getattr(groebner, name)

    def counting(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(groebner, name, counting)
    assert len(ideal_intersect(I, J).groebner()) == 40
    return calls[0]


# The engine forms the same S-pairs and takes the same reduction steps as
# the tuple-row engine it replaced, which made exactly these counts: one
# _scaled_sub per reduction step and per S-polynomial, one _update per new
# basis element.  A run without a target, as an elimination is, updates at
# every insert; under a target an update waits, and may never run.


def test_scaled_sub_call_ceiling(monkeypatch):
    assert _intersection_calls(monkeypatch, "_scaled_sub") <= 1178


def test_update_call_ceiling(monkeypatch):
    assert _intersection_calls(monkeypatch, "_update") <= 90


def test_pair_degree_past_the_field_sum():
    # the pair update reads an lcm's degree as the packed int modulo
    # 2**width - 1, which is exact only while the two leads' degrees sum
    # below it.  At width 4 that is 15: x^3*y^3 and x^3*z^3 stay below it,
    # and x^7*y^7 and x^7*z^7, whose lcm of degree 21 reads 6 modulo 15,
    # take the fallback
    from detkit.groebner import _BasisElem, _Minimal, _Pending, _update

    ring = mkring("xyz")
    x, y, z = (ring.var(i) for i in range(3))
    pk = _Packing(ring.order, 4)
    for e, degree in ((3, 9), (7, 21)):
        elems = [_BasisElem(pk.rows(f), f.degree(), pk) for f in (x**e * y**e, x**e * z**e)]
        active, pending, heap = _Minimal(pk.n), _Pending(pk.n), []
        for hi in range(2):
            _update(elems, hi, active, pending, heap, pk)
        (pair,) = heap
        assert pair[0] == pk.degree(pair[-1]) == degree
        assert list(active.members) == [0, 1]


# -- Hilbert numerators and the stop at a target -------------------------------------


@st.composite
def _monomial_ideals_for_series(draw):
    """(n, generators) in 1 to 6 variables, each generator a dict position ->
    exponent; the draw is squarefree throughout or has exponents up to 3."""
    n = draw(st.integers(1, 6))
    top = 1 if draw(st.booleans()) else 3
    support = st.dictionaries(st.integers(0, n - 1), st.integers(1, top), min_size=1, max_size=3)
    return n, draw(st.lists(support, max_size=6))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["fp:32003", "qq"]), _monomial_ideals_for_series())
@example("qq", (3, []))
@example("fp:32003", (2, [{}]))
def test_hilbert_numerator_counts_standard_monomials(field, ideal):
    n, gens = ideal
    ring = mkring([f"x{i}" for i in range(n)], field_from_name(field))
    polys = [
        ring.monomial_poly(Monomial(sorted(g.items())), 2 * i - 7) for i, g in enumerate(gens)
    ]
    num = hilbert_numerator(IdealHandle(ring, polys))
    if not gens:
        assert num == [1]
    if {} in gens:
        assert num == [0]
    # the numerator has degree at most that of the lcm of all generators
    # (Taylor's resolution), so counting up to that degree pins it
    lcm_degree = sum(max((g.get(p, 0) for g in gens), default=0) for p in range(n))
    assert len(num) - 1 <= lcm_degree
    top = min(lcm_degree, 9)
    assert series_from_numerator(num, n, top) == brute_force_hilbert_function(gens, n, top)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["fp:32003", "qq"]), _homogeneous_gens(3))
def test_hilbert_numerator_ignores_the_order(field, terms):
    # a homogeneous ideal and its lead ideal share their series under any order
    nums = []
    for order in ("lex", "grevlex"):
        ring, (gens,) = _ring_and_polys(field, terms, order=order)
        nums.append(hilbert_numerator(IdealHandle(ring, gens)))
    assert nums[0] == nums[1]


def test_hilbert_numerator_is_cached_and_copied(monkeypatch):
    from detkit import groebner

    ring = mkring("xyz")
    x, y, z = (ring.var(i) for i in range(3))
    I = IdealHandle(ring, [x * x, x * y, y * z])
    calls = []
    real = groebner._lead_numerator
    monkeypatch.setattr(
        groebner, "_lead_numerator", lambda *args: calls.append(None) or real(*args)
    )
    hilbert_numerator(I).append(99)
    # inclusion-exclusion over the lcms: three of degree 2, x^2*y and x*y*z
    # of degree 3, and x^2*y*z twice with opposite signs
    assert hilbert_numerator(I) == [1, 0, -3, 2]
    assert len(calls) == 1


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["fp:32003", "qq"]),
    st.sampled_from(["grevlex", "lex"]),
    _homogeneous_gens(4),
)
# the later lead a*b, of lower degree, divides the earlier lead a^2*b: the
# minimal leads the run reads must lose it before any update has run
@example(
    "qq",
    "grevlex",
    [[((2, 1, 0), 1), ((0, 0, 3), 1)], [((1, 1, 0), 1), ((0, 1, 1), 2)], [((0, 0, 2), 3)]],
)
@example("fp:32003", "lex", [[((2, 1, 0), 1), ((0, 0, 3), 1)], [((1, 1, 0), 1), ((0, 1, 1), 2)]])
# already a Groebner basis: the first reading meets the full series, and
# no pair is ever formed
@example("qq", "grevlex", [[((1, 1, 0), 1)], [((1, 0, 1), 1)], [((0, 1, 1), 1), ((0, 0, 2), 3)]])
@example("fp:32003", "lex", [[((1, 1, 0), 1)], [((1, 0, 1), 1)], [((0, 1, 1), 1), ((0, 0, 2), 3)]])
def test_stop_at_the_full_series_gives_the_full_basis(field, order, terms):
    ring, (gens,) = _ring_and_polys(field, terms, order=order)
    full = buchberger(gens)
    target = hilbert_numerator(IdealHandle(ring, full))
    assert buchberger(gens, target=target) == full
    # adding c^d gives a larger ideal whose series agrees below degree d
    # only: those degrees drop their pairs once met, and the run never
    # reaches the full series
    c = ring.var(2)
    for d in range(1, 6):
        lower = hilbert_numerator(IdealHandle(ring, gens + [c**d]))
        assert buchberger(gens, target=lower) == full


@pytest.mark.parametrize("field", ["fp:32003", "qq"])
@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_unreachable_target_gives_the_full_basis(field, order):
    # the series of a strictly larger ideal lies below every partial series
    # of the smaller one, so the run never stops early
    ring = mkring("xyz", field_from_name(field), order)
    x, y, z = (ring.var(i) for i in range(3))
    gens = [x * x + y * y, x * y]
    full = buchberger(gens)
    assert len(full) == 3
    target = hilbert_numerator(IdealHandle(ring, gens + [z]))
    assert buchberger(gens, target=target) == full
    # a handle whose run missed its target reads its own numerator
    I = IdealHandle(ring, gens)
    assert I.groebner(target) == full
    assert hilbert_numerator(I) == hilbert_numerator(IdealHandle(ring, full)) != target


def _lhs_4x5():
    """``(ring, lhs, full, target)``: the minors 4x5 t3 R2 r1 ideal, its
    reduced basis and the target its components give."""
    from detkit.detideals import MatrixSpec, components, constrained_ideal, matrix_ring

    ms = MatrixSpec("generic", 4, 5)
    ring = matrix_ring(ms, PrimeField(32003))
    lhs = constrained_ideal(ring, ms, 3, R=(2,), r=(1,))
    full = buchberger(lhs.gens)
    (_, I), (_, J) = components(ring, ms, 3, R=(2,), r=(1,))
    # HS(S/(I∩J)) = HS(S/I) + HS(S/J) - HS(S/(I+J))
    parts = [hilbert_numerator(h) for h in (I, J, IdealHandle(ring, I.gens + J.gens))]
    target = [0] * max(map(len, parts))
    for sign, num in zip((1, 1, -1), parts):
        for d, c in enumerate(num):
            target[d] += sign * c
    while target[-1] == 0:
        target.pop()
    assert target == hilbert_numerator(IdealHandle(ring, full))
    return ring, lhs, full, target


def _calls(monkeypatch, name, fn, *args, **kwargs):
    """``(result, count)``: ``fn(*args, **kwargs)`` and the calls of
    ``groebner.<name>`` it made."""
    from detkit import groebner

    calls = [0]
    real = getattr(groebner, name)

    def counting(*a):
        calls[0] += 1
        return real(*a)

    monkeypatch.setattr(groebner, name, counting)
    try:
        return fn(*args, **kwargs), calls[0]
    finally:
        monkeypatch.undo()


def test_stop_saves_reductions_on_a_decomposition_lhs(monkeypatch):
    # every 3-minor of a 4x5 matrix meets the first two rows, and the
    # 3-minors already form a Groebner basis: the stop fires before the
    # first pair, where the full run reduces 528 S-polynomials to zero
    _, lhs, full, target = _lhs_4x5()
    G, stopped = _calls(monkeypatch, "_scaled_sub", buchberger, lhs.gens, target=target)
    assert G == full
    G, unstopped = _calls(monkeypatch, "_scaled_sub", buchberger, lhs.gens)
    assert G == full
    assert stopped < unstopped
    assert stopped <= 0


def test_stop_defers_the_pair_updates(monkeypatch):
    # under a target a pair update waits until the run leaves its degree,
    # and a run that meets the target there never makes it.  The 3-minors
    # of 4x5 are a Groebner basis, so the first reading stops the run
    # before any update, where updating at every insert makes 40.
    # minors-5x5-t3-R23-r12 makes 385 updates, 553 when each insert makes
    # its own
    from detkit.harness import CaseSpec, run_case

    _, lhs, full, target = _lhs_4x5()
    G, updates = _calls(monkeypatch, "_update", buchberger, lhs.gens, target=target)
    assert G == full
    assert updates == 0
    spec = CaseSpec(case="minors-5x5-t3-R23-r12", m=5, n=5, t=3, R=(2, 3), r=(1, 2))
    report, updates = _calls(monkeypatch, "_update", run_case, spec)
    assert report.verdict == "EQUAL"
    assert updates <= 385


def test_a_met_target_is_the_numerator(monkeypatch):
    # the run that stops on the target has read it off its leads; the
    # handle keeps it, so the numerator costs no second reading
    ring, lhs, full, target = _lhs_4x5()
    step = IdealHandle(ring, lhs.gens)
    assert step.groebner(target) == full
    num, readings = _calls(monkeypatch, "_lead_numerator", hilbert_numerator, step)
    assert num == target
    assert readings == 0
    # a handle whose basis came without a target reads it once
    I = IdealHandle(ring, lhs.gens)
    num, readings = _calls(monkeypatch, "_lead_numerator", hilbert_numerator, I)
    assert num == target
    assert readings == 1


def test_a_missed_target_keeps_the_read_numerator(monkeypatch):
    # a run that misses its target has still read its final leads; the
    # handle keeps that reading, which is its own series, not the target
    ring = mkring("xyz")
    x, y, z = (ring.var(i) for i in range(3))
    gens = [x * x + y * y, x * y]
    target = hilbert_numerator(IdealHandle(ring, gens + [z]))
    I = IdealHandle(ring, gens)
    full = I.groebner(target)
    num, readings = _calls(monkeypatch, "_lead_numerator", hilbert_numerator, I)
    assert readings == 0
    assert num == hilbert_numerator(IdealHandle(ring, full)) != target


@pytest.mark.parametrize("where", ["_pivot_numerator", "_update"])
def test_a_flush_checks_the_deadline(monkeypatch, where):
    # a clock that passes the deadline at the first reading of the leads
    # stops the run inside that reading when the leads share a variable,
    # and otherwise inside the first waiting update, which runs because the
    # target is out of reach
    from detkit import groebner

    ring = mkring("xyz")
    x, y, z = (ring.var(i) for i in range(3))
    if where == "_pivot_numerator":
        gens = [x * y - z * z, y * z - x * x, x * z - y * y]
        target = hilbert_numerator(IdealHandle(ring, buchberger(gens)))
    else:
        gens = [x * x + y * z, y * y + x * z]
        target = hilbert_numerator(IdealHandle(ring, gens + [z]))
    real = groebner._lead_numerator
    readings = []

    def reading(*args):
        readings.append(None)
        return real(*args)

    monkeypatch.setattr(groebner, "_lead_numerator", reading)
    monkeypatch.setattr(groebner, "monotonic", lambda: 2.0 if readings else 0.0)
    with deadline_scope(1.0), pytest.raises(BudgetExceeded) as info:
        buchberger(gens, target=target)
    assert len(readings) == 1
    assert [entry.name for entry in info.traceback][-2:] == [where, "_check_deadline"]


def test_unreachable_target_skips_no_pair(monkeypatch):
    # with one variable added the series lies below the ideal's own in
    # every positive degree, so no degree is met and every pair is reduced
    ring, lhs, full, _ = _lhs_4x5()
    lower = hilbert_numerator(IdealHandle(ring, lhs.gens + (ring.var(0),)))
    G, skipping = _calls(monkeypatch, "_scaled_sub", buchberger, lhs.gens, target=lower)
    assert G == full
    G, plain = _calls(monkeypatch, "_scaled_sub", buchberger, lhs.gens)
    assert G == full
    assert skipping == plain > 500


# -- extending a known basis ---------------------------------------------------------


_UNIT = [[((0, 0, 0), 1)]]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["fp:32003", "qq"]),
    st.sampled_from(["grevlex", "lex"]),
    st.one_of(st.integers(0, 2).flatmap(_homogeneous_gens), st.just(_UNIT)),
    st.integers(0, 2).flatmap(_homogeneous_gens),
)
# the new lead a divides the old lead a^2, which leaves the minimal basis
@example("qq", "grevlex", [[((2, 0, 0), 1), ((0, 1, 1), 1)]], [[((1, 0, 0), 1), ((0, 0, 1), 1)]])
@example("fp:32003", "lex", [[((2, 0, 0), 1), ((0, 1, 1), 1)]], [[((1, 0, 0), 1), ((0, 0, 1), 1)]])
@example("fp:32003", "lex", _UNIT, [[((1, 0, 0), 1)]])
@example("qq", "grevlex", [[((1, 1, 0), 1)]], _UNIT)
@example("fp:32003", "grevlex", [], [[((0, 1, 0), 2)]])
def test_extending_a_reduced_basis_gives_the_full_basis(field, order, old_terms, new_terms):
    ring, (old, new) = _ring_and_polys(field, old_terms, new_terms, order=order)
    known = buchberger(old)
    assert buchberger(new, known=known) == buchberger(old + new)
    assert buchberger([], known=known) == known


def test_decomposition_reduction_ceiling(monkeypatch):
    # minors-5x5-t3-R23-r12 makes 8,622 _scaled_sub calls: one per
    # reduction step and per S-polynomial.  Re-pairing K_1's basis inside
    # the basis of K_1 + J_2 makes 11,958, reducing the pairs of a met
    # degree 10,150, and both 13,486
    from detkit.harness import CaseSpec, run_case

    spec = CaseSpec(case="minors-5x5-t3-R23-r12", m=5, n=5, t=3, R=(2, 3), r=(1, 2))
    report, calls = _calls(monkeypatch, "_scaled_sub", run_case, spec)
    assert report.verdict == "EQUAL"
    assert calls <= 8622


def test_decomposition_reducer_builds(monkeypatch):
    # minors-5x5-t3-R23-r12 packs two bases as divisors: those of J_1 and
    # J_2, which K_i and K_{i-1} are tested against.  Testing J_i ⊆ K_{i-1}
    # as well packs K_0's and K_1's, 4 in all
    from detkit.harness import CaseSpec, run_case

    spec = CaseSpec(case="minors-5x5-t3-R23-r12", m=5, n=5, t=3, R=(2, 3), r=(1, 2))
    report, calls = _calls(monkeypatch, "_Reducer", run_case, spec)
    assert report.verdict == "EQUAL"
    assert calls == 2
