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
    _BasisElem,
    _lead_numerator,
    _minimal_lcms,
    _Packing,
    _pivot_numerator,
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
)
from detkit.harness import CaseSpec
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
    order_compare,
    random_poly,
    reference_lead_numerator,
    s_polynomial,
    series_from_numerator,
    textbook_buchberger,
    textbook_remainder,
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
    # the basis's run packed it, and membership reduces against those rows:
    # only the tested polynomials are packed
    assert len(packed) == len(tests)


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
    # inside I ∩ J with a smaller lead ideal, not inside J, and not inside
    # I though every minimal lcm, x*y, is a lead: all three eliminate
    for wrong in ([x * x * y], [x], [x * y, z]):
        K = intersect_all(ring, [I, J], expect=[IdealHandle(ring, wrong)])
        assert K.groebner() == (x * y,)
    # no lcm at all: the claim (0) for I ∩ (0) holds with nothing to cover
    zero = IdealHandle(ring, ())
    assert intersect_all(ring, [I, zero], expect=[zero]) is zero
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
    vectors with the ``w`` exponent last, each of a degree that the packing
    takes: below ``2**(width - 1)``, one less with ``w``."""
    n = draw(st.integers(2, 6))
    table = VariableTable([f"v{i}" for i in range(n)])
    order = order_from_name(draw(st.sampled_from(["lex", "grevlex"])), table)
    width = draw(st.sampled_from([8, 16]))
    elim = draw(st.booleans())
    top = (1 << (width - 1)) - elim
    size = n + elim
    exps = st.lists(st.one_of(st.integers(0, 3), st.integers(0, top)), min_size=size, max_size=size)

    def capped(vector):
        # each exponent is cut to what the earlier ones leave of top - 1
        left, out = top - 1, []
        for e in vector:
            out.append(min(e, left))
            left -= out[-1]
        return out

    return order, width, elim, capped(draw(exps)), capped(draw(exps))


def _elim_case(order, ue, ve):
    table = VariableTable([f"v{i}" for i in range(len(ue) - 1)])
    return order_from_name(order, table), 8, True, ue, ve


@settings(max_examples=300, deadline=None)
@given(_packed_pairs())
# w beats the greatest w-free monomial that an elimination packing takes
@example(_elim_case("lex", [126, 0, 0, 0], [0, 0, 0, 1]))
@example(_elim_case("grevlex", [126, 0, 0, 0], [0, 0, 0, 1]))
# the sum of two packed monomials carries out of the first field
@example(_elim_case("lex", [100, 20, 0, 0], [60, 0, 1, 0]))
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
    assert su == sum(1 << p for p, _ in u.exps) == pk.support(pu)
    # the key is linear and sorts by the w exponent, then like the order
    assert pk.key(pu) == ku
    if ue[n:] != ve[n:]:
        assert (ku > kv) == (ue[n:] > ve[n:])
    else:
        u_ring = Monomial([(p, e) for p, e in enumerate(ue[:n]) if e])
        v_ring = Monomial([(p, e) for p, e in enumerate(ve[:n]) if e])
        assert (ku > kv) - (ku < kv) == order_compare(order, u_ring, v_ring)
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


def _remainders(G, polys):
    """``(pk, rows)`` of each of ``polys`` reduced as membership reduces it:
    against the divisor index that ``G``'s run built."""
    from detkit.groebner import _remainder

    return [_remainder(f, G, G._pk, G._divs) for f in polys]


@pytest.mark.parametrize("order", ["lex", "grevlex"])
def test_membership_reduces_against_the_rows_of_a_widened_run(order):
    # the late generators above widen their run to 16-bit fields, and
    # membership reduces against the rows that run ended with: it must
    # answer as a bare normal form by the textbook basis, for exponents
    # below 127 and past it
    ring = mkring("xyz", order=order)
    x, y, z = (ring.var(i) for i in range(3))
    gens = [x - y**60, x * y**100 - 1] if order == "lex" else [x**90 * y - z, x * y**90 - 1]
    I = IdealHandle(ring, gens)
    assert I.groebner()._pk.width == 16
    textbook = textbook_buchberger(gens)
    tests = [
        x * y,
        gens[0] * z + gens[1],
        gens[1] * (x + z**3),
        gens[0] * y**130 - gens[1] * x**140,
        x**200 - y**199,
        gens[0] * z**150 + y,
    ]
    member = [ideal_member(f, I) for f in tests]
    assert member == [not normal_form(f, textbook) for f in tests]
    assert member == [False, True, True, True, False, False]
    G = I.groebner()
    assert [pk.poly(ring, rows) for pk, rows in _remainders(G, tests)] == [
        normal_form(f, textbook) for f in tests
    ]


@pytest.mark.parametrize("field", ["fp:32003", "qq"])
def test_membership_past_the_run_width_keeps_the_run_rows(field):
    # a basis run at 8-bit fields, whose guard bit is 128, then tested on
    # polynomials past it: each reduction widens against a throwaway
    # packing, answers as the textbook basis does, and leaves the basis
    # with the packing, the element list and the lead keys its run left
    ring = mkring("xyz", field=field_from_name(field))
    x, y, z = (ring.var(i) for i in range(3))
    gens = [x * y - z * z, y * y - x * z]
    I = IdealHandle(ring, gens)
    G = I.groebner()
    pk, elems, keys = G._pk, G._elems, [e.lmkey for e in G._elems]
    assert pk.width == 8
    textbook = textbook_buchberger(gens)
    tests = [x**200 * z, gens[0] * x**150 + gens[1] * z**140, x**150 * y - z**151]
    member = [ideal_member(f, I) for f in tests]
    assert member == [not textbook_remainder(f, textbook) for f in tests]
    assert member == [False, True, False]
    assert G._pk is pk and G._elems is elems and [e.lmkey for e in elems] == keys
    assert ideal_member(gens[0] * x, I) and G == textbook


def test_membership_in_an_intersection_reduces_against_its_elimination_rows():
    # an intersection's basis keeps the rows of its elimination, which
    # carry the auxiliary w field; f lies in it exactly when it lies in
    # both sides
    ring = mkring("xyz")
    x, y, z = (ring.var(i) for i in range(3))
    I = IdealHandle(ring, [x * y - z * z, y * y - x * z])
    J = IdealHandle(ring, [x - y, z**3])
    K = ideal_intersect(I, J)
    assert K.groebner()._pk.elim
    monomials = [x**a * y**b * z**c for a in range(3) for b in range(3) for c in range(4)]
    tests = monomials + [f * g for f in I.gens for g in J.gens] + [
        f * m + g for f in I.gens for g in J.gens for m in monomials[:6]
    ]
    both = [ideal_member(f, I) and ideal_member(f, J) for f in tests]
    assert [ideal_member(f, K) for f in tests] == both
    assert True in both and False in both


def test_membership_leaves_no_monomial_behind():
    # membership decides on the remainder's rows, and a remainder unpacks
    # into the bare normal form: the 36 2-minors of a generic 4x4 tested
    # against its 3-minors
    from detkit.detideals import MatrixSpec, constrained_ideal, matrix_ring

    ms = MatrixSpec("generic", 4, 4)
    ring = matrix_ring(ms, PrimeField(32003))
    I = constrained_ideal(ring, ms, 3)
    G = I.groebner()
    twos = constrained_ideal(ring, ms, 2).gens
    assert len(twos) == 36
    assert not any(ideal_member(f, I) for f in twos)
    assert [pk.poly(ring, rows) for pk, rows in _remainders(G, twos)] == [
        normal_form(f, G) for f in twos
    ]


def test_series_stopped_basis_holds_the_generators_monomials():
    # the 70 4-Pfaffians of a skew 8x8 are their own reduced basis, and the
    # run that its first reading stops hands back the generators' monomials
    from detkit.detideals import MatrixSpec, constrained_ideal, matrix_ring

    ms = MatrixSpec("skew", 8, 8)
    ring = matrix_ring(ms, PrimeField(32003))
    I = constrained_ideal(ring, ms, 4)
    G = I.groebner()
    by_lead = {f.lm: f for f in I.gens}
    assert len(G) == len(by_lead) == 70
    for g in G:
        assert [m for m, _ in g.terms] == [m for m, _ in by_lead[g.lm].terms]


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
        rows = [(pk.key(x2), x2, fld.one, 0b001), (pk.key(w), w, fld.one, 0b100)]
        return pk, [groebner._BasisElem(rows, 2, pk)], None, None

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
    # the lowest variable 89 times.  The handle has no series, so its basis
    # run reads no numerator and the pivots all come after it
    from detkit import groebner
    from detkit.detideals import MatrixSpec, constrained_ideal, matrix_ring

    ms = MatrixSpec("skew", 8, 8)
    ring = matrix_ring(ms, PrimeField(32003))
    I = IdealHandle(ring, constrained_ideal(ring, ms, 4).gens)
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


def _late_after(monkeypatch, reads):
    """Readings of a clock, patched into ``groebner``, that passes the
    deadline of ``deadline_scope(1.0)`` from its ``reads + 1``-th reading."""
    from detkit import groebner

    readings = []

    def late_clock():
        readings.append(None)
        return 2.0 if len(readings) > reads else 0.0

    monkeypatch.setattr(groebner, "monotonic", late_clock)
    return readings


def test_pair_update_checks_the_deadline(monkeypatch):
    # criterion M of the pair update is quadratic in the new pairs, so the
    # update reads the clock itself; a clock past the deadline from the
    # first reading after the generator pass, which reads it once per
    # generator, must stop the run inside the update
    readings = _late_after(monkeypatch, 3)
    ring = mkring("xyz")
    x, y, z = (ring.var(i) for i in range(3))
    with deadline_scope(1.0), pytest.raises(BudgetExceeded) as info:
        buchberger([x * y - z * z, y * z - x * x, x * z - y * y])
    assert len(readings) == 4
    assert [entry.name for entry in info.traceback][-2:] == ["_update", "_check_deadline"]


def test_generator_pass_checks_the_deadline(monkeypatch):
    # the generator pass reads the clock once per generator, since its
    # reductions rarely take the steps after which _reduce_rows reads it:
    # a clock past the deadline at the second generator stops the run there
    readings = _late_after(monkeypatch, 1)
    ring = mkring("xyz")
    x, y, z = (ring.var(i) for i in range(3))
    with deadline_scope(1.0), pytest.raises(BudgetExceeded) as info:
        buchberger([x * y - z * z, y * z - x * x, x * z - y * y])
    assert len(readings) == 2
    assert [entry.name for entry in info.traceback][-2:] == ["_buchberger", "_check_deadline"]


def test_minimal_lcms_checks_the_deadline(monkeypatch):
    # the lcms of two bases' leads are quadratic in the leads, and no other
    # clock read bounds them: a clock past the deadline from the first
    # reading after both bases are computed must stop inside _minimal_lcms
    from detkit.groebner import _minimal_lcms

    ring = mkring("xyz")
    x, y, z = (ring.var(i) for i in range(3))
    A, B = buchberger([x * y, y * z]), buchberger([x * z, y * y])
    readings = _late_after(monkeypatch, 0)
    with deadline_scope(1.0), pytest.raises(BudgetExceeded) as info:
        _minimal_lcms(A, B)
    assert len(readings) == 1
    assert [entry.name for entry in info.traceback][-2:] == ["_minimal_lcms", "_check_deadline"]


def test_cover_packing_checks_the_deadline(monkeypatch):
    # a cover may be as long as a basis, and a covered run's ``left`` and
    # _Basis.has_leads pack it with no reduction between to read the clock:
    # keys_by_degree reads it every 256 monomials, so a clock past the
    # deadline from its second reading stops the packing at monomial 256
    ring = mkring([f"v{i}" for i in range(30)])
    cover = [Monomial([(i, 1), (j, 1)]) for i in range(30) for j in range(i, 30)]
    assert len(cover) == 465
    G = buchberger([ring.var(0)])
    for pack in (lambda: G.has_leads(cover), lambda: buchberger([ring.var(0)], cover)):
        readings = _late_after(monkeypatch, 1)
        with deadline_scope(1.0), pytest.raises(BudgetExceeded) as info:
            pack()
        assert len(readings) == 2
        assert [entry.name for entry in info.traceback][-2:] == ["keys_by_degree", "_check_deadline"]
        assert info.traceback[-2].frame.f_locals["k"] == 256


def test_interreduction_checks_the_deadline(monkeypatch):
    # the interreduction reads the clock before each tail, since a tail
    # takes too few reduction steps for _reduce_rows to read it.  Those are
    # the run's last reads, one per element of the basis: a clock that
    # passes the deadline at the read before tail k stops the run there,
    # inside the interreduction, with k tails reduced
    from detkit import groebner

    tails = []
    real_reduce = groebner._reduce_rows

    def counting(*args):
        tails.append(None)
        return real_reduce(*args)

    monkeypatch.setattr(groebner, "_reduce_rows", counting)
    ring = mkring("xyz")
    x, y, z = (ring.var(i) for i in range(3))
    gens = [x * y - z * z, y * z - x * x, x * z - y * y]
    readings = _late_after(monkeypatch, float("inf"))
    size = len(buchberger(gens))
    reads, calls = len(readings), len(tails)
    assert size == 3
    for k in range(size):
        tails.clear()
        readings = _late_after(monkeypatch, reads - size + k)
        with deadline_scope(1.0), pytest.raises(BudgetExceeded) as info:
            buchberger(gens)
        assert len(readings) == reads - size + k + 1
        assert len(tails) == calls - size + k
        assert [entry.name for entry in info.traceback][-2:] == ["reduced", "_check_deadline"]


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
# basis element.  Every update waits until the run leaves its element's
# degree; under a cover it may never run.


def test_scaled_sub_call_ceiling(monkeypatch):
    assert _intersection_calls(monkeypatch, "_scaled_sub") <= 1178


def test_update_call_ceiling(monkeypatch):
    assert _intersection_calls(monkeypatch, "_update") <= 90


def test_pair_degree_past_the_field_sum():
    # the pair update reads an lcm's degree as the packed int modulo
    # 2**width - 1, exact while the two leads' degrees sum below it.  Every
    # packed lead lies below the guard bit, so no pair gets past that sum:
    # at width 4 the leads x^3*y^4 and x^3*z^4 of degree 7 give the widest
    # lcm, of degree 11 below 15, and read it exactly.  Its sugar reaches
    # the guard bit, 8, so the run raises _Overflow when it takes the pair
    from detkit.groebner import _Basis, _basis_rows, _buchberger, _Divisors, _Overflow, _update

    ring = mkring("xyz")
    x, y, z = (ring.var(i) for i in range(3))
    pk = _Packing(ring.order, 4)
    for e, degree in ((2, 7), (4, 11)):
        gens = [x**3 * y**e, x**3 * z**e]
        divs = _Divisors(pk.n, [_BasisElem(pk.rows(f), f.degree(), pk) for f in gens])
        minimal, heap = {}, []
        for hi in range(2):
            _update(divs, hi, minimal, heap, pk)
        ((sugar, _, _, _, lcm, _),) = heap
        assert sugar == pk.degree(lcm) == degree
        assert list(minimal) == [0, 1]
    with pytest.raises(_Overflow):
        _buchberger([(pk.rows(f), f.degree()) for f in gens], ring.field, pk)
    # the rerun at wider fields gives the basis
    run = _basis_rows(pk, lambda pk: [(pk.rows(f), f.degree()) for f in gens], ring.field)
    assert run[0].width > 4 and _Basis(ring, *run) == buchberger(gens)


@st.composite
def _lead_runs(draw):
    """``(order, elim, n, leads)``: 2 to 40 leads as dicts position ->
    exponent over the positions of a packing of ``n``, 2 to 12, variables,
    the elimination packing's ``w`` among them.  The leads are squarefree, or, in a mixed
    run, mostly squarefree with some exponents of 2 or 3, so that updates
    meet squarefree and packed lcms alike."""
    order = draw(st.sampled_from(["lex", "grevlex"]))
    elim = draw(st.booleans())
    n = draw(st.integers(2, 12))
    exps = st.just(1) if draw(st.booleans()) else st.sampled_from([1, 1, 1, 2, 3])
    lead = st.dictionaries(st.integers(0, n - 1 + elim), exps, min_size=1, max_size=4)
    return order, elim, n, draw(st.lists(lead, min_size=2, max_size=40))


@settings(max_examples=200, deadline=None)
@given(_lead_runs(), st.randoms(use_true_random=False))
# x0*x2 and x1*x2 meet x0*x1 at one lcm, of which the pair with the
# earlier element, x0*x2, is kept
@example(("grevlex", False, 3, [{0: 1, 2: 1}, {1: 1, 2: 1}, {0: 1, 1: 1}]), random.Random(0))
# the squarefree lcm x0*x1*x2 is kept first and divides x0^2*x1*x2 by its
# support alone, in an update that holds a lead with a square
@example(("lex", True, 3, [{1: 1, 2: 1}, {0: 2, 2: 1}, {0: 1, 1: 1}]), random.Random(0))
def test_pair_update_matches_the_reference(run, rnd):
    # every update of a run of leads, each dropped when an earlier lead
    # divides it, pushes the pairs that the packed update pushed, in the
    # same order, and leaves the same minimal leads
    from detkit.groebner import _Divisors, _update
    from helpers import reference_update

    order, elim, n, leads = run
    table = VariableTable([f"x{i}" for i in range(n)])
    pk = _Packing(order_from_name(order, table), 8, elim)
    taken: list = []
    for lead in leads:
        if not any(all(lead.get(p, 0) >= e for p, e in t.items()) for t in taken):
            taken.append(lead)
    elems = []
    for lead in taken:
        key = sum(e * pk.weights[p] for p, e in lead.items())
        packed = sum(e << (p * pk.width) for p, e in lead.items())
        mask = sum(1 << p for p in lead)
        sugar = sum(lead.values()) + rnd.randrange(3)
        elems.append(_BasisElem([(key, packed, 1, mask)], sugar, pk))
    divs = _Divisors(pk.n, elems)
    got, want = ({}, []), ({}, [])
    for hi in range(len(elems)):
        _update(divs, hi, *got, pk)
        reference_update(divs, hi, *want, pk)
        assert got[1] == want[1]
        assert list(got[0]) == list(want[0])


def test_quotient_degree_past_the_field_sum():
    # a reduction step reads its quotient's degree as the packed int modulo
    # 2**width - 1, exact since every packed term lies below the guard bit.
    # At width 4 that bit is 8: x^2*y^2*z^2 (sugar 6) by x of sugar 2 leaves
    # x*y^2*z^2 of degree 5, a step of sugar 7, which shows in the sugar
    # returned; x^3*y^3*z (sugar 7) leaves x^2*y^3*z of degree 6, a step of
    # sugar 8, and raises _Overflow before it forms a product
    from detkit.groebner import _BasisElem, _Divisors, _Overflow, _reduce_rows

    ring = mkring("xyz")
    x, y, z = (ring.var(i) for i in range(3))
    pk = _Packing(ring.order, 4)
    divs = _Divisors(pk.n, [_BasisElem(pk.rows(x), 2, pk)])
    f = x**2 * y**2 * z**2
    rows, sugar = _reduce_rows(pk.rows(f), f.degree(), divs, ring.field, pk)
    assert rows == [] and sugar == 5 + 2
    f = x**3 * y**3 * z
    with pytest.raises(_Overflow):
        _reduce_rows(pk.rows(f), f.degree(), divs, ring.field, pk)


@st.composite
def _deep_gens(draw):
    """Two or three polynomials in three variables of degree 2 to 9, each
    with one or two terms, as ``[(exponents, coefficient), ...]`` term
    lists: at 4-bit fields, whose guard bit is 8, a run may overflow at a
    generator term, at a reduction step, at an S-pair or nowhere."""
    coeffs = st.integers(-7, 7).filter(bool)
    out = []
    for _ in range(draw(st.integers(2, 3))):
        deg = draw(st.integers(2, 9))
        exps = set()
        for d in [deg] + draw(st.lists(st.integers(0, deg), max_size=1)):
            i = draw(st.integers(0, d))
            j = draw(st.integers(0, d - i))
            exps.add((i, j, d - i - j))
        out.append([(e, draw(coeffs)) for e in sorted(exps)])
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["fp:32003", "qq"]), st.sampled_from(["grevlex", "lex"]), _deep_gens())
# the first overflow at a generator term: z^9 packs, and the guard bits would
# then read z^9 as not divisible by z
@example("qq", "lex", [[((0, 0, 1), 1), ((0, 0, 0), -1)], [((1, 1, 0), 1), ((0, 0, 9), 1)]])
# at a reduction step: x*y^2 - x less y*(x*y - y^7) has sugar 8, and at
# 4-bit fields y^8 would take the key of x and cancel it
@example("fp:32003", "lex", [[((1, 1, 0), 1), ((0, 7, 0), -1)], [((1, 2, 0), 1), ((1, 0, 0), -1)]])
# at an S-pair: the same two generators the other way round, so that
# neither reduces the other and their pair has sugar 8
@example("qq", "lex", [[((1, 2, 0), 1), ((1, 0, 0), -1)], [((1, 1, 0), 1), ((0, 7, 0), -1)]])
def test_a_run_refuses_every_product_past_its_sugar(field, order, terms):
    # a run started at 4-bit fields forms no product whose sugar reaches the
    # guard bit, 8: a generator term of that degree, or a reduction step or
    # an S-pair of that sugar, reruns it wider.  Its basis is the one a run
    # at 8-bit fields gives, and every row's sugar stays below its
    # packing's guard bit
    from detkit.groebner import _Basis, _basis_rows

    ring, (gens,) = _ring_and_polys(field, terms, order=order)
    run = _basis_rows(
        _Packing(ring.order, 4), lambda pk: [(pk.rows(g), g.degree()) for g in gens], ring.field
    )
    pk, elems = run[:2]
    for e in elems:
        _check_rows(e.rows, e.sugar, pk)
    G = _Basis(ring, *run)
    assert G == buchberger(gens)
    # the reference forms every S-pair, far too many on some draws
    expected = textbook_buchberger(gens, max_pairs=100)
    if expected is not None:
        assert G == expected


@st.composite
def _mixed_gens(draw, count):
    """``count`` nonzero polynomials in three variables with terms of
    degree 0 to 3, so that under lex a tail may outweigh its lead and the
    sugar exceed the lead's degree, as ``[(exponents, coefficient), ...]``
    term lists."""
    exps = st.sampled_from([(0, 0, 0)] + [e for d in (1, 2, 3) for e in _EXPONENTS[d]])
    coeffs = st.integers(-7, 7).filter(bool)
    return [
        [(e, draw(coeffs)) for e in draw(st.lists(exps, min_size=1, max_size=3, unique=True))]
        for _ in range(count)
    ]


def _check_rows(rows, sugar, pk):
    """A row's stored support is the support of its packed monomial, and
    the sugar is at least the degree of every term and below the guard bit."""
    assert sugar < 2 ** (pk.width - 1)
    for _, p, _, s in rows:
        assert s == pk.support(p)
        assert pk.degree(p) <= sugar


# a - b^60 and a*b^100 - 1 under lex, a^90*b - c and a*b^90 - 1 under
# grevlex: each run outgrows the 8-bit fields and reruns at width 16
_WIDENING = {
    "lex": [[((1, 0, 0), 1), ((0, 60, 0), -1)], [((1, 100, 0), 1), ((0, 0, 0), -1)]],
    "grevlex": [[((90, 1, 0), 1), ((0, 0, 1), -1)], [((1, 90, 0), 1), ((0, 0, 0), -1)]],
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["fp:32003", "qq"]), st.sampled_from(["grevlex", "lex"]), _mixed_gens(3))
@example("fp:32003", "lex", _WIDENING["lex"] + [[((0, 2, 0), 1), ((0, 0, 2), 3)]])
@example("qq", "lex", _WIDENING["lex"] + [[((0, 2, 0), 1), ((0, 0, 2), 3)]])
@example("fp:32003", "grevlex", _WIDENING["grevlex"] + [[((0, 2, 0), 1), ((0, 0, 2), 3)]])
@example("qq", "grevlex", _WIDENING["grevlex"] + [[((0, 2, 0), 1), ((0, 0, 2), 3)]])
# a reduction by a*b whose quotient keeps a: a^2*b less a*b is a, so a
# support that drops every lead variable would lose it
@example("qq", "grevlex", [[((1, 1, 0), 1)], [((2, 1, 0), 1), ((0, 0, 3), 1)], [((0, 0, 1), 1)]])
# a^127 - 1 packs at 8-bit fields, but w*(a^127 - 1) in the elimination
# would have sugar 128, the guard bit, so the elimination packs wider
@example("qq", "lex", [[((127, 0, 0), 1), ((0, 0, 0), -1)], [((0, 1, 0), 1)], [((0, 0, 1), 1)]])
def test_rows_keep_their_support_and_sugar(field, order, terms):
    # every reduction's input and output rows, in basis runs, their final
    # interreduction, an elimination and membership tests, keep the two
    # invariants that let a reduction step skip unpacking its quotient
    from detkit import groebner

    real = groebner._reduce_rows
    widths = set()

    def checking(rows, sugar, divs, field, pk, floor=-1):
        _check_rows(rows, sugar, pk)
        out, sugar = real(rows, sugar, divs, field, pk, floor)
        _check_rows(out, sugar, pk)
        widths.add(pk.width)
        return out, sugar

    ring, (gens,) = _ring_and_polys(field, terms, order=order)
    a, b, c = (ring.var(i) for i in range(3))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groebner, "_reduce_rows", checking)
        I = IdealHandle(ring, gens)
        # (g0) ∩ (g1): eliminating from three inhomogeneous generators can
        # take minutes over the rationals under lex
        K = ideal_intersect(IdealHandle(ring, gens[:1]), IdealHandle(ring, gens[1:2]))
        for G in (I.groebner(), K.groebner()):
            for e in G._elems:
                _check_rows(e.rows, e.sugar, G._pk)
        for f in [a * b * c, a**2 - b * c] + [g * (a + c) for g in gens]:
            ideal_member(f, I)
            ideal_member(f, K)
    assert 8 in widths
    if terms[:2] in _WIDENING.values():
        assert 16 in widths and I.groebner()._pk.width == 16


# -- Hilbert numerators and the stop at a cover --------------------------------------


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
# exponents past 127 outgrow the 8-bit fields: the run packs its leads at
# width 16, and the pivot on the second variable must shift by that width
@example("fp:32003", (2, [{1: 130}, {0: 1, 1: 129}]))
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


def _lead_elems(n, gens):
    """The packing and the elements whose leads are the monomials ``gens``
    (dicts position -> exponent) in ``n`` variables."""
    ring = mkring([f"x{i}" for i in range(n)])
    pk = _Packing(ring.order, 8)
    polys = [ring.monomial_poly(Monomial(sorted(g.items()))) for g in gens]
    return pk, [_BasisElem(pk.rows(f), f.degree(), pk) for f in polys]


@st.composite
def _squarefree_leads(draw):
    """(n, generators): 8 to 60 squarefree monomials of degree 1 to 7 in up
    to 20 variables, enough for the subset walk and the scan of the cut
    both to run."""
    n = draw(st.integers(2, 20))
    support = st.sets(st.integers(0, n - 1), min_size=1, max_size=min(7, n))
    return n, [dict.fromkeys(s, 1) for s in draw(st.lists(support, min_size=8, max_size=60))]


@settings(max_examples=150, deadline=None)
@given(_squarefree_leads())
# x0 is a generator, so the cut holds the constant (mask 0) and x1, free
# of x0, is dropped by it in the subset walk
@example((4, [{0: 1}, {0: 1, 3: 1}, {1: 1}]))
# the pivot x0 turns x0*x1 into x1, equal to the free generator x1
@example((3, [{0: 1, 1: 1}, {1: 1}, {0: 1, 2: 1}]))
def test_lead_numerator_matches_the_reference_on_squarefree_leads(ideal):
    pk, elems = _lead_elems(*ideal)
    assert _lead_numerator(elems, pk) == reference_lead_numerator(elems, pk)


@settings(max_examples=60, deadline=None)
@given(_monomial_ideals_for_series())
@example((2, [{}, {0: 2}, {1: 1}]))
# x0^9 polarizes into a field of 9 bits, wider than the byte that packs it
@example((3, [{0: 9}, {0: 4, 1: 1}, {1: 2, 2: 1}, {0: 1, 2: 3}]))
# squarefree leads among non-squarefree ones
@example((4, [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 2, 3: 1}, {2: 1, 3: 2}, {1: 3}]))
def test_lead_numerator_matches_the_reference_on_packed_leads(ideal):
    pk, elems = _lead_elems(*ideal)
    assert _lead_numerator(elems, pk) == reference_lead_numerator(elems, pk)


@st.composite
def _masks_with_supersets(draw):
    """``(masks, more)``: squarefree masks in up to 12 bits, and ``more``,
    the same masks with supersets of some of them added, shuffled."""
    n = draw(st.integers(1, 12))
    mask = st.integers(1, (1 << n) - 1)
    masks = draw(st.lists(mask, min_size=1, max_size=10))
    picks = draw(st.lists(st.tuples(st.integers(0, len(masks) - 1), mask), max_size=8))
    more = draw(st.permutations(masks + [masks[i] | extra for i, extra in picks]))
    return masks, more


def _trimmed(num):
    while len(num) > 1 and not num[-1]:
        num.pop()
    return num


@settings(max_examples=200, deadline=None)
@given(_masks_with_supersets())
# x0*x1 over x0 and x1 alone; x0 twice
@example(([0b01, 0b10], [0b11, 0b01, 0b10]))
@example(([0b01], [0b01, 0b01]))
def test_pivot_numerator_ignores_non_minimal_generators(case):
    # the recursion holds on any generating set of a monomial ideal, so a
    # basis run may read the series off all its generators' leads, minimal
    # or not
    masks, more = case
    assert _trimmed(_pivot_numerator(list(more))) == _trimmed(_pivot_numerator(masks))


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


def test_numerator_of_an_intersection_reads_its_elimination_leads():
    # (x^2) ∩ (y^3) = (x^2*y^3): its basis comes out of the elimination,
    # whose packing has the auxiliary field, and its lead is not squarefree
    ring = mkring("xyz")
    x, y = ring.var(0), ring.var(1)
    K = ideal_intersect(IdealHandle(ring, [x**2]), IdealHandle(ring, [y**3]))
    assert K.groebner() == (x**2 * y**3,)
    assert hilbert_numerator(K) == hilbert_numerator(IdealHandle(ring, K.groebner()))
    assert hilbert_numerator(K) == [1, 0, 0, 0, 0, -1]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["fp:32003", "qq"]),
    st.sampled_from(["grevlex", "lex"]),
    _homogeneous_gens(4),
)
# the later lead a*b, of lower degree, divides the earlier lead a^2*b: the
# minimal leads must lose it before any update has run
@example(
    "qq",
    "grevlex",
    [[((2, 1, 0), 1), ((0, 0, 3), 1)], [((1, 1, 0), 1), ((0, 1, 1), 2)], [((0, 0, 2), 3)]],
)
@example("fp:32003", "lex", [[((2, 1, 0), 1), ((0, 0, 3), 1)], [((1, 1, 0), 1), ((0, 1, 1), 2)]])
# already a Groebner basis: the generators' leads are the cover, and no
# pair is ever formed
@example("qq", "grevlex", [[((1, 1, 0), 1)], [((1, 0, 1), 1)], [((0, 1, 1), 1), ((0, 0, 2), 3)]])
@example("fp:32003", "lex", [[((1, 1, 0), 1)], [((1, 0, 1), 1)], [((0, 1, 1), 1), ((0, 0, 2), 3)]])
def test_stop_at_a_full_cover_gives_the_full_basis(field, order, terms):
    ring, (gens,) = _ring_and_polys(field, terms, order=order)
    full = buchberger(gens)
    assert buchberger(gens, [g.lm for g in full]) == full
    # adding c^d gives a larger ideal whose leads agree with the ideal's
    # below degree d only: those degrees drop their pairs once met, and the
    # run never reaches the whole cover
    c = ring.var(2)
    for d in range(1, 6):
        larger = [g.lm for g in buchberger(gens + [c**d])]
        assert buchberger(gens, larger) == full


@pytest.mark.parametrize("field", ["fp:32003", "qq"])
@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_unreachable_cover_gives_the_full_basis(field, order):
    # a cover that holds z, which no lead of the smaller ideal reaches, never
    # ends the run early
    ring = mkring("xyz", field_from_name(field), order)
    x, y, z = (ring.var(i) for i in range(3))
    gens = [x * x + y * y, x * y]
    full = buchberger(gens)
    assert len(full) == 3
    cover = [g.lm for g in buchberger(gens + [z])]
    assert buchberger(gens, cover) == full
    I = IdealHandle(ring, gens)
    assert I.groebner(cover) == full
    assert hilbert_numerator(I) == hilbert_numerator(IdealHandle(ring, full))


@pytest.mark.parametrize("field", ["fp:32003", "qq"])
@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_a_unit_from_a_pair_ends_the_run(field, order):
    # x*y - 1 and x^2 form the pair x, and x with x*y - 1 forms 1: the
    # insert of the constant hands back the unit basis, with or without a
    # cover, which can only be the unit monomial
    ring = mkring("xy", field_from_name(field), order)
    x, y = ring.var(0), ring.var(1)
    gens = [x * y - 1, x**2]
    assert buchberger(gens) == (ring.one,)
    assert buchberger(gens, [ring.one.lm]) == (ring.one,)
    assert hilbert_numerator(IdealHandle(ring, gens)) == [0]


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from(["fp:32003", "qq"]),
    st.sampled_from(["grevlex", "lex"]),
    _homogeneous_gens(2),
    _homogeneous_gens(2),
)
# the S-polynomial of the one degree-3 pair has its head at b^2*c, the one
# cover monomial left at that degree, and its remainder's lead is b^2*c: a
# pair or a reduction cut at a head equal to the floor loses that element
@example(
    "fp:32003",
    "grevlex",
    [
        [((1, 1, 0), 6), ((0, 0, 2), 6), ((0, 1, 1), 1)],
        [((1, 0, 0), -4), ((0, 0, 1), 5), ((0, 1, 0), -1)],
    ],
    [[((0, 0, 3), 4)], [((0, 0, 1), -4)]],
)
def test_a_covered_claim_run_gives_the_plain_basis(field, order, k_terms, j_terms):
    # the products of the generators of K and J lie in K ∩ J, so the minimal
    # lcms of in(K) and in(J) cover their run: the pairs whose head bound
    # lies below the cover's floor are dropped, and the reductions that sink
    # below it cut, yet the basis is the plain run's and the textbook one
    ring, (k_gens, j_gens) = _ring_and_polys(field, k_terms, j_terms, order=order)
    claim = [f * g for f in k_gens for g in j_gens]
    K, J = IdealHandle(ring, k_gens), IdealHandle(ring, j_gens)
    cover = _minimal_lcms(K.groebner(), J.groebner())
    full = buchberger(claim)
    assert buchberger(claim, cover) == full
    textbook = textbook_buchberger(claim, max_pairs=100)
    if textbook is not None:
        assert full == textbook


def _lhs_4x5():
    """``(ring, lhs, full, cover)``: the minors 4x5 t3 R2 r1 ideal, its
    reduced basis and the minimal lcms of its two components' leads."""
    from detkit.detideals import MatrixSpec, components, constrained_ideal, matrix_ring

    ms = MatrixSpec("generic", 4, 5)
    ring = matrix_ring(ms, PrimeField(32003))
    lhs = constrained_ideal(ring, ms, 3, R=(2,), r=(1,))
    full = buchberger(lhs.gens)
    (_, I), (_, J) = components(ring, ms, 3, R=(2,), r=(1,))
    cover = _minimal_lcms(I.groebner(), J.groebner())
    # the lhs is the intersection, so the minimal lcms are its leads
    assert sorted(m.exps for m in cover) == sorted(g.lm.exps for g in full)
    return ring, lhs, full, cover


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
    # 3-minors already form a Groebner basis: their leads are the whole
    # cover, so the run ends before the first pair, where the full run
    # reduces 528 S-polynomials to zero
    _, lhs, full, cover = _lhs_4x5()
    G, stopped = _calls(monkeypatch, "_scaled_sub", buchberger, lhs.gens, cover)
    assert G == full
    G, unstopped = _calls(monkeypatch, "_scaled_sub", buchberger, lhs.gens)
    assert G == full
    assert stopped < unstopped
    assert stopped <= 0


def test_stop_defers_the_pair_updates(monkeypatch):
    # a pair update waits until the run leaves its degree, and a run whose
    # leads reach the whole cover there never makes it.  The 3-minors of
    # 4x5 are a Groebner basis, so the run ends before any update, where
    # updating at every insert makes 40.  minors-5x5-t3-R23-r12 makes 205
    # updates (385 before its claims' runs stopped at a cover)
    from detkit.harness import CaseSpec, run_case

    _, lhs, full, cover = _lhs_4x5()
    G, updates = _calls(monkeypatch, "_update", buchberger, lhs.gens, cover)
    assert G == full
    assert updates == 0
    spec = CaseSpec(case="minors-5x5-t3-R23-r12", m=5, n=5, t=3, R=(2, 3), r=(1, 2))
    report, updates = _calls(monkeypatch, "_update", run_case, spec)
    assert report.verdict == "EQUAL"
    assert updates <= 205


def test_a_covered_run_reads_no_numerator(monkeypatch):
    # a step certified on its leads reads no Hilbert numerator, in the
    # claim's run or in the check; the handle reads its leads once, on
    # demand
    from detkit.detideals import MatrixSpec, components
    from detkit.harness import CaseSpec, run_case

    ring, lhs, full, _ = _lhs_4x5()
    parts = [h for _, h in components(ring, MatrixSpec("generic", 4, 5), 3, R=(2,), r=(1,))]
    for h in parts:
        h.groebner()
    step = IdealHandle(ring, lhs.gens)
    kept, readings = _calls(monkeypatch, "_lead_numerator", intersect_all, ring, parts, [step])
    assert kept is step and step.groebner() == full
    assert readings == 0
    num, readings = _calls(monkeypatch, "_lead_numerator", hilbert_numerator, step)
    assert num == hilbert_numerator(IdealHandle(ring, full))
    assert readings == 1
    # minors-5x5-t3-R23-r12 reads the first leads of its three components
    # alone, each against its closed-form series
    spec = CaseSpec(case="minors-5x5-t3-R23-r12", m=5, n=5, t=3, R=(2, 3), r=(1, 2))
    report, readings = _calls(monkeypatch, "_lead_numerator", run_case, spec)
    assert report.verdict == "EQUAL"
    assert readings == 3


def test_the_symmetric_reading_is_polarized(monkeypatch):
    # symmetric-5-t3-R2-r1 reads one numerator, the first reading of its
    # plain minors(3) component, whose leads repeat a variable: the pivot
    # recursion runs on their polarization, in 43 calls, and meets the
    # closed-form series
    from detkit import groebner
    from detkit.combinat import determinantal_numerator
    from detkit.harness import CaseSpec, run_case

    readings, packed = [], []
    real = groebner._lead_numerator

    def reading(elems, pk):
        elems = list(elems)
        packed.append(any(e.mask.bit_count() != e.deg for e in elems))
        readings.append(real(elems, pk))
        return readings[-1]

    monkeypatch.setattr(groebner, "_lead_numerator", reading)
    spec = CaseSpec(case="symmetric-5-t3-R2-r1", kind="symmetric", n=5, t=3, R=(2,), r=(1,))
    report, pivots = _calls(monkeypatch, "_pivot_numerator", run_case, spec)
    assert report.verdict == "EQUAL"
    assert readings == [list(determinantal_numerator("symmetric", 5, 5, 3))]
    assert packed == [True]
    assert pivots == 43


@pytest.mark.parametrize("where", ["_pivot_numerator", "_update"])
def test_a_flush_checks_the_deadline(monkeypatch, where):
    # a clock that passes the deadline at the first reading of the leads,
    # which a series asks for, stops the run inside that reading when the
    # leads share a variable, and otherwise inside the first waiting
    # update, which runs because the series is missed
    from detkit import groebner

    ring = mkring("xyz")
    x, y, z = (ring.var(i) for i in range(3))
    if where == "_pivot_numerator":
        gens = [x * y - z * z, y * z - x * x, x * z - y * y]
    else:
        gens = [x * x + y * z, y * y + x * z]
    series = hilbert_numerator(IdealHandle(ring, gens + [z]))
    real = groebner._lead_numerator
    readings = []

    def reading(*args):
        readings.append(None)
        return real(*args)

    monkeypatch.setattr(groebner, "_lead_numerator", reading)
    monkeypatch.setattr(groebner, "monotonic", lambda: 2.0 if readings else 0.0)
    with deadline_scope(1.0), pytest.raises(BudgetExceeded) as info:
        buchberger(gens, series=series)
    assert len(readings) == 1
    assert [entry.name for entry in info.traceback][-2:] == [where, "_check_deadline"]


def test_unreachable_cover_skips_no_pair(monkeypatch):
    # with one variable added the cover holds x[1,1], of degree 1, which is
    # never a lead: no degree is met, and every pair is reduced
    ring, lhs, full, _ = _lhs_4x5()
    lower = [g.lm for g in buchberger(lhs.gens + (ring.var(0),))]
    assert min(m.deg for m in lower) == 1
    G, skipping = _calls(monkeypatch, "_scaled_sub", buchberger, lhs.gens, lower)
    assert G == full
    G, plain = _calls(monkeypatch, "_scaled_sub", buchberger, lhs.gens)
    assert G == full
    assert skipping == plain > 500


@st.composite
def _one_block_cases(draw):
    """``(kind, m, n, t, R, r)`` for a small one-block decomposition: a
    generic shape with m, n <= 4, or a skew one with n <= 6."""
    if draw(st.booleans()):
        m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        t = draw(st.integers(1, min(m, n)))
        R = draw(st.integers(1, m))
        return "generic", m, n, t, R, draw(st.integers(1, min(R, t)))
    n = draw(st.integers(2, 6))
    t = draw(st.sampled_from([s for s in (2, 4, 6) if s <= n]))
    R = draw(st.integers(1, n))
    return "skew", n, n, t, R, draw(st.integers(1, min(R, t)))


@settings(max_examples=60, deadline=None)
@given(_one_block_cases())
# two skew claims that membership refuses, and a kept generic one
@example(("skew", 6, 6, 6, 3, 3))
@example(("skew", 5, 5, 4, 2, 2))
@example(("generic", 4, 4, 3, 2, 1))
def test_a_kept_claim_is_the_elimination(case):
    # whenever intersect_all keeps the constrained ideal as the intersection
    # of its two components, its reduced basis is the elimination's; and a
    # run stopped by the minimal lcms ends at the basis a plain run gives
    from detkit.detideals import MatrixSpec, components, constrained_ideal, matrix_ring
    from detkit.groebner import _inside

    kind, m, n, t, R, r = case
    ms = MatrixSpec(kind, m, n)
    ring = matrix_ring(ms, PrimeField(32003))
    (_, K), (_, J) = components(ring, ms, t, R=(R,), r=(r,))
    claim = constrained_ideal(ring, ms, t, R=(R,), r=(r,))
    kept = intersect_all(ring, [K, J], [claim]) is claim
    fresh = [IdealHandle(ring, h.gens) for h in (K, J)]
    if kept:
        assert claim.groebner() == ideal_intersect(*fresh).groebner()
    if _inside(claim, K) and _inside(claim, J):
        cover = _minimal_lcms(K.groebner(), J.groebner())
        assert buchberger(claim.gens, cover) == buchberger(claim.gens)
        assert kept == (set(cover) <= {g.lm for g in claim.groebner()})


def _check_kept_index(I, tests):
    """``I``'s basis keeps the divisor index its run built: the set bits of
    its ``every`` are exactly the basis's elements, or for an intersection
    the elements whose lead is free of ``w``, its tables set no other bit,
    and membership of each of ``tests`` answers as its remainder against
    the basis indexed afresh."""
    from detkit.groebner import _Divisors, _positions, _remainder

    G = I.groebner()
    pk, divs = G._pk, G._divs
    wbit = 1 << (pk.n - 1) if pk.elim else 0
    kept = [divs.elems[k] for k in _positions(divs.every)]
    assert sorted((e for e in kept if not e.mask & wbit), key=lambda e: -e.lmkey) == list(G._elems)
    assert not any(b & ~divs.every for table in divs.tables for b in table)
    fresh = _Divisors(pk.n, G._elems)
    for f in tests:
        rows = _remainder(f, G, pk, fresh)[1]
        assert _remainder(f, G, pk, divs)[1] == rows
        assert ideal_member(f, I) == (not rows)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["fp:32003", "qq"]),
    st.sampled_from(["grevlex", "lex"]),
    _homogeneous_gens(4),
    st.integers(0, 4),
    _one_block_cases(),
)
# a claim that the minimal lcms cover, a skew one that membership refuses,
# and plain components that meet their series
@example("fp:32003", "grevlex", [[((1, 1, 0), 1)]] * 4, 0, ("generic", 4, 4, 3, 2, 1))
@example("qq", "lex", [[((1, 1, 0), 1)]] * 4, 4, ("skew", 5, 5, 4, 2, 2))
@example("fp:32003", "grevlex", [[((1, 1, 0), 1)]] * 4, 2, ("skew", 6, 6, 4, 4, 2))
def test_a_basis_keeps_the_index_its_run_built(field, order, terms, unit_at, case):
    # every kind of run hands its index to its basis: a plain run, one that
    # reaches the unit ideal, a plain component that meets its series, a
    # claim run under its cover, and an elimination, whose index keeps the
    # elements whose lead uses w
    from detkit.detideals import MatrixSpec, components, constrained_ideal, matrix_ring

    ring, (gens,) = _ring_and_polys(field, terms, order=order)
    a, b, c = (ring.var(i) for i in range(3))
    I, J = IdealHandle(ring, gens[:2]), IdealHandle(ring, gens[2:])
    tests = gens + [f * g + h for f in gens[:2] for g in gens[2:] for h in (a * c, b)] + [a, b, c]
    handles = [
        I,
        J,
        ideal_intersect(I, J),
        IdealHandle(ring, gens[:unit_at] + [ring.one] + gens[unit_at:]),
        # the unit ideal reached in the pair loop: a*(a*b - 1) - b*a^2 = -a
        # joins, and b*a - (a*b - 1) = 1
        IdealHandle(ring, [a * b - 1, a * a]),
    ]
    for h in handles:
        _check_kept_index(h, tests)
    kind, m, n, t, R, r = case
    ms = MatrixSpec(kind, m, n)
    mring = matrix_ring(ms, field_from_name(field), order)
    (_, K), (_, B) = components(mring, ms, t, R=(R,), r=(r,))
    claim = constrained_ideal(mring, ms, t, R=(R,), r=(r,))
    L = intersect_all(mring, [K, B], [claim])
    mtests = [*K.gens[:4], *B.gens[:4], *claim.gens[:4]] + [f * g for f in K.gens[:2] for g in B.gens[:2]]
    for h in (K, B, claim, L):
        _check_kept_index(h, mtests)


def test_has_leads_compares_keys():
    # the claim check of intersect_all: every monomial must be a lead, read
    # as a key of the basis's packing; a monomial that does not fit the
    # packing is no lead, and the zero ideal's basis has none
    ring = mkring("xyz")
    x, y, z = (ring.var(i) for i in range(3))
    G = buchberger([x * y - z * z, y * y])
    leads = G.leads()
    assert G.has_leads(leads) and G.has_leads(leads[1:]) and G.has_leads([])
    assert not G.has_leads(leads + [Monomial([(2, 5)])])
    assert not G.has_leads([Monomial([(0, 200)])])
    assert buchberger([]).has_leads([]) and not buchberger([]).has_leads(leads)


_DECOMPOSE_CASES = [
    pytest.param(spec, verdict, scaled_subs, updates, id=spec.case)
    for spec, verdict, scaled_subs, updates in (
        (CaseSpec(case="minors-5x5-t3-R23-r12", m=5, n=5, t=3, R=(2, 3), r=(1, 2)), "EQUAL", 1645, 205),
        (CaseSpec(case="pfaffian-8-t4-R2-r1", kind="skew", n=8, t=4, R=(2,), r=(1,)), "EQUAL", 762, 68),
        (CaseSpec(case="symmetric-5-t3-R2-r1", kind="symmetric", n=5, t=3, R=(2,), r=(1,)), "EQUAL", 745, 107),
        (CaseSpec(case="pfaffian-7-t4-R3-r2", kind="skew", n=7, t=4, R=(3,), r=(2,)), "NOT_EQUAL", 5777, 203),
    )
]


@pytest.mark.parametrize("spec, verdict, scaled_subs, updates", _DECOMPOSE_CASES)
def test_decomposition_reduction_ceiling(monkeypatch, spec, verdict, scaled_subs, updates):
    # each decomposition case of the benchmark makes at most these
    # _scaled_sub calls, one per reduction step and per S-polynomial, and
    # these _update calls, one per new element whose update runs.  On
    # minors-5x5-t3-R23-r12 the components' runs meet their series at the
    # first reading and form no pair, and the claims' runs end once their
    # leads reach the minimal lcms, their cover.  Below the cover's floor a
    # claim's pair is dropped unformed and a reduction cut short; without
    # the floor the runs made 3,438, and certifying each step by the series
    # of a basis of K_{i-1} + J_i made 6,040
    from detkit.harness import run_case

    report, calls = _calls(monkeypatch, "_scaled_sub", run_case, spec)
    assert report.verdict == verdict
    assert calls <= scaled_subs
    assert _calls(monkeypatch, "_update", run_case, spec)[1] <= updates


def test_decomposition_floor_scan_ceiling(monkeypatch):
    # minors-5x5-t3-R23-r12 scans a degree's cover keys for the floor 289
    # times: a covered run keeps the least key left at its degree and scans
    # again only once that key is no longer left there, after it is struck,
    # when the degree moves on, or while no key is left at it.  Scanning on
    # every popped pair made 799 scans here, and 60,326 on the 8x8 t3 R2 r1
    # rung, which no test runs
    import builtins

    from detkit import groebner
    from detkit.harness import CaseSpec, run_case

    scans = [0]

    def counting_min(*args, **kwargs):
        # the floor scan is the engine's one min call with a default
        scans[0] += "default" in kwargs
        return builtins.min(*args, **kwargs)

    monkeypatch.setattr(groebner, "min", counting_min, raising=False)
    spec = CaseSpec(case="minors-5x5-t3-R23-r12", m=5, n=5, t=3, R=(2, 3), r=(1, 2))
    assert run_case(spec).verdict == "EQUAL"
    assert scans[0] <= 289


def test_an_equal_decomposition_unpacks_no_basis(monkeypatch):
    # minors-5x5-t3-R23-r12 reads its bases' sizes, leads and rows only: the
    # minimal lcms read lead masks, the lead check reads lead keys, membership
    # reduces against rows and ideal_equal compares rows, so no basis
    # polynomial is built
    from detkit import groebner
    from detkit.harness import CaseSpec, run_case

    calls = [0]
    real = groebner._Packing.poly

    def counting(*a):
        calls[0] += 1
        return real(*a)

    monkeypatch.setattr(groebner._Packing, "poly", counting)
    spec = CaseSpec(case="minors-5x5-t3-R23-r12", m=5, n=5, t=3, R=(2, 3), r=(1, 2))
    assert run_case(spec).verdict == "EQUAL"
    assert calls[0] == 0


def test_decomposition_unpack_ceiling(monkeypatch):
    # minors-5x5-t3-R23-r12 unpacks no monomial: intersect_all's lead check
    # compares the minimal lcms with its claims' leads as packed keys, where
    # unpacking the leads of the two claims' bases, 150 and 223, made 373.
    # symmetric-5-t3-R2-r1 polarizes its non-squarefree leads from their
    # packed fields, where unpacking them made 109 more; its 56 are the
    # leads of the full basis that cover the doset run
    from detkit import groebner
    from detkit.harness import CaseSpec, run_case

    calls = [0]
    real = groebner._Packing.monomial

    def counting(*a):
        calls[0] += 1
        return real(*a)

    monkeypatch.setattr(groebner._Packing, "monomial", counting)
    for spec, unpacks in (
        (CaseSpec(case="minors-5x5-t3-R23-r12", m=5, n=5, t=3, R=(2, 3), r=(1, 2)), 0),
        (CaseSpec(case="symmetric-5-t3-R2-r1", kind="symmetric", n=5, t=3, R=(2,), r=(1,)), 56),
    ):
        calls[0] = 0
        assert run_case(spec).verdict == "EQUAL"
        assert calls[0] == unpacks


def test_squarefree_pairs_unpack_no_lcm(monkeypatch):
    # every lead of the minors-5x5 and pfaffian-8 runs is squarefree, so each
    # pair's lcm is an OR of packed leads, its key the sum of h's and the
    # weights of the variables it adds, and criterion B compares ORs of
    # supports: no packed lcm is formed or unpacked for its key.  The
    # symmetric-5 runs hold leads with squares, whose lcms take the packed
    # path, so the count there shows that the counters see that path
    from detkit import groebner
    from detkit.harness import CaseSpec, run_case

    calls = [0]

    def counting(name):
        real = getattr(groebner._Packing, name)

        def count(*a):
            calls[0] += 1
            return real(*a)

        monkeypatch.setattr(groebner._Packing, name, count)

    counting("key")
    counting("lcm")
    for spec, packed in (
        (CaseSpec(case="minors-5x5-t3-R23-r12", m=5, n=5, t=3, R=(2, 3), r=(1, 2)), False),
        (CaseSpec(case="pfaffian-8-t4-R2-r1", kind="skew", n=8, t=4, R=(2,), r=(1,)), False),
        (CaseSpec(case="symmetric-5-t3-R2-r1", kind="symmetric", n=5, t=3, R=(2,), r=(1,)), True),
    ):
        calls[0] = 0
        assert run_case(spec).verdict == "EQUAL"
        assert bool(calls[0]) == packed


def test_heights_update_count(monkeypatch):
    # heights-pfaff-8-t4: the 70 4-Pfaffians meet their series at the first
    # reading, so the run makes no pair update; without the series it makes
    # 70, one per generator, and forms every S-pair only to reduce it to zero
    from detkit.harness import CaseSpec, run_case

    spec = CaseSpec(case="heights-pfaff-8-t4", check="heights", kind="skew", n=8, t=4)
    report, calls = _calls(monkeypatch, "_update", run_case, spec)
    assert report.verdict == "EQUAL" and report.height == 15
    assert calls == 0


def test_decomposition_reducer_builds(monkeypatch):
    # minors-5x5-t3-R23-r12 tests membership in the bases of J_1 and J_2,
    # which K_i and K_{i-1} are tested against, each against the divisor
    # index its run built, so no membership test builds one.  Indexing each
    # of the two bases again on its first test made 2
    from detkit import groebner
    from detkit.harness import CaseSpec, run_case

    inside, built, tests = [False], [0], [0]
    real_divisors, real_remainder = groebner._Divisors, groebner._remainder

    def divisors(*args):
        built[0] += inside[0]
        return real_divisors(*args)

    def remainder(*args):
        inside[0] = True
        tests[0] += 1
        try:
            return real_remainder(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(groebner, "_Divisors", divisors)
    monkeypatch.setattr(groebner, "_remainder", remainder)
    spec = CaseSpec(case="minors-5x5-t3-R23-r12", m=5, n=5, t=3, R=(2, 3), r=(1, 2))
    assert run_case(spec).verdict == "EQUAL"
    assert tests[0] and built[0] == 0


def test_each_basis_run_builds_one_index(monkeypatch):
    # minors-5x5-t3-R23-r12: each basis run builds one divisor index, which
    # its interreduction narrows to the reduced basis and the basis keeps
    # for membership.  The interreduction and membership built their own
    from detkit import groebner
    from detkit.harness import CaseSpec, run_case

    calls = {"_Divisors": 0, "_basis_rows": 0}

    def counting(name):
        real = getattr(groebner, name)

        def count(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(groebner, name, count)

    for name in calls:
        counting(name)
    spec = CaseSpec(case="minors-5x5-t3-R23-r12", m=5, n=5, t=3, R=(2, 3), r=(1, 2))
    assert run_case(spec).verdict == "EQUAL"
    assert calls["_basis_rows"] and calls["_Divisors"] == calls["_basis_rows"]
