"""Layer micro-benchmarks: the generator builds, alone and as the five
ideals of one decomposition case in a fresh ring, the canonicalization of
the asl 3x3 d4 chain products by ``from_terms``, the packed monomial
primitives, one reduction over a prime field and over the rationals, one
elimination, one Hilbert numerator read as a dimension and two read off
leads (the 1,225 of the 7x7 3-minors, and the 490 of the symmetric 7x7
3-minors, 105 of them not squarefree), the closed-form series of two plain
ideals and a basis run that ends at its first reading because it meets that
series, a basis run that neither a series nor a cover stops (the
intersection of two components by elimination), and the steps that
certify a decomposition block: the minimal lcms of the components' leads
looked up among the claim's leads (on the 7x7 step, 14,875 lcms), the
claim's basis run that those lcms cover, through its handle and as the
packed run alone, the membership of its generators, and the 875 pair
updates of the 7x7 claim's run, replayed and checked against the packed
reference of the Tier-1 tests; and the truncation reference of one skew
case, multiples and basis run.

Run them from the repository root with

    python -m pytest bench --benchmark-only

Tier-1 collects only ``tests/``, so these never run there.  Every input is
built once, outside the timed call, and each bench checks its result, so a
broken layer fails instead of timing nonsense.
"""

import sys
from functools import lru_cache
from itertools import accumulate, combinations, permutations
from pathlib import Path

import pytest

from detkit.combinat import MinorIndex, PfaffianIndex, determinantal_numerator, minors_universe
from detkit.detideals import (
    MatrixSpec,
    components,
    constrained_ideal,
    entry,
    matrix_ring,
    minor_poly,
    pfaffian_poly,
    skew_block_grading,
    truncated_ideal,
    truncated_ideal_graded,
)
from detkit import groebner
from detkit.groebner import (
    _Basis,
    _BasisElem,
    _Divisors,
    _Packing,
    _basis_rows,
    _lead_numerator,
    _minimal_lcms,
    _reduce_rows,
    _update,
    buchberger,
    ideal_height,
    ideal_intersect,
    ideal_member,
)
from detkit.harness import coefficient_matrix, standard_products
from detkit.linalg import row_reduce
from detkit.poly import PrimeField, field_from_name, mono_div, mono_lcm, mono_mul

# the reference implementations of the Tier-1 tests
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import reference_update  # noqa: E402

FP = PrimeField(32003)


def _det_by_permutations(ring, ms, ix):
    """The determinant of a generic or symmetric minor as a sum over
    permutations, with the sign read off the inversion count."""
    total = ring.zero
    for perm in permutations(ix.cols):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        term = ring.const(-1 if inversions % 2 else 1)
        for i, j in zip(ix.rows, perm):
            term = term * ring.var(entry(ms, i, j)[1])
        total = total + term
    return total


def test_generator_build(benchmark):
    # the 100 3-minors of a generic 5x5 and of a symmetric 5x5, whose
    # entries are mirrored and may repeat in a product, checked against the
    # permutation sum, and the 70 4-Pfaffians of a skew 8, checked against
    # Pf^2 = det
    gen, sym = MatrixSpec("generic", 5, 5), MatrixSpec("symmetric", 5, 5)
    skw = MatrixSpec("skew", 8, 8)
    ring, sring, zring = matrix_ring(gen, FP), matrix_ring(sym, FP), matrix_ring(skw, FP)
    three = list(combinations(range(1, 6), 3))
    minors = [MinorIndex(r, c) for r in three for c in three]
    pfaffians = [PfaffianIndex(r) for r in combinations(range(1, 9), 4)]

    def build():
        dets = [minor_poly(ring, gen, ix) for ix in minors]
        sdets = [minor_poly(sring, sym, ix) for ix in minors]
        return dets, sdets, [pfaffian_poly(zring, skw, ix) for ix in pfaffians]

    dets, sdets, pfs = benchmark(build)
    assert len(dets) == len(sdets) == 100 and len(pfs) == 70
    assert all(f == _det_by_permutations(ring, gen, ix) for f, ix in zip(dets, minors))
    assert all(f == _det_by_permutations(sring, sym, ix) for f, ix in zip(sdets, minors))
    for pf, ix in zip(pfs, pfaffians):
        assert pf * pf == minor_poly(zring, skw, MinorIndex(ix.rows, ix.rows))


def test_decomposition_ideals_5x5(benchmark):
    # the five ideals of minors 5x5 t3 R2,3 r1,2, each round in a fresh
    # ring: the LHS (70 generators), the plain 3-minors (100), the block
    # components on the first two and three rows (10 and 30) and the claim
    # K_1 (90).  The 3-minors ideals share the ring's table, so 140 distinct
    # generators are built
    ms = MatrixSpec("generic", 5, 5)

    def build():
        ring = matrix_ring(ms, FP)
        lhs = constrained_ideal(ring, ms, 3, R=(2, 3), r=(1, 2))
        comps = [h for _, h in components(ring, ms, 3, R=(2, 3), r=(1, 2))]
        return [lhs, *comps, constrained_ideal(ring, ms, 3, R=(2,), r=(1,))]

    lhs, plain, first, second, claim = benchmark(build)
    assert [len(h.gens) for h in (lhs, plain, first, second, claim)] == [70, 100, 10, 30, 90]
    assert set(lhs.gens) < set(claim.gens) < set(plain.gens)


@lru_cache(maxsize=None)
def _minors55(field):
    """The reduced grevlex basis of the 4-minors of a generic 5x5 matrix
    (25 elements) over ``field``, packed as divisors."""
    ms = MatrixSpec("generic", 5, 5)
    ring = matrix_ring(ms, field_from_name(field))
    G = constrained_ideal(ring, ms, 4).groebner()
    pk = _Packing(ring.order, 8)
    divs = _Divisors(pk.n, [_BasisElem(pk.rows(g), g.degree(), pk) for g in G])
    return ring, G, pk, divs


@pytest.fixture(scope="module")
def minors55():
    return _minors55("fp:32003")


@pytest.fixture(scope="module")
def leads(minors55):
    """Every pair of lead monomials of that basis, packed, with their keys."""
    _, _, pk, divs = minors55
    return pk, list(combinations([(e.lmkey, e.lm) for e in divs.elems], 2))


def test_packed_product(benchmark, leads):
    # a product and its key are one addition each
    pk, pairs = leads
    out = benchmark(lambda: [(ku + kv, u + v) for (ku, u), (kv, v) in pairs])
    assert all(k == pk.key(m) for k, m in out[:50])


def test_packed_key(benchmark, leads):
    # the key of an lcm, read off its fields
    pk, pairs = leads
    key = pk.key
    out = benchmark(lambda: [key(u) for (_, u), _ in pairs])
    assert out[0] == pairs[0][0][0]


def test_packed_divides(benchmark, leads):
    pk, pairs = leads
    guards = pk.guards
    hits = benchmark(lambda: sum(not (v - u) & guards for (_, u), (_, v) in pairs))
    assert hits == 0  # the leads of a reduced basis divide no other lead


def test_packed_lcm(benchmark, leads):
    pk, pairs = leads
    lcm = pk.lcm
    out = benchmark(lambda: [lcm(u, v) for (_, u), (_, v) in pairs])
    g = pk.guards
    assert all(not (w - u) & g and not (w - v) & g for w, ((_, u), (_, v)) in zip(out, pairs))


@pytest.mark.parametrize("field", ["fp:32003", "qq"])
def test_reduce_rows_5x5_s_polynomial(benchmark, field):
    # the longest S-polynomial of the first basis element with another whose
    # lead shares a variable: 46 terms, 15 reduction steps down to zero; over
    # the rationals each coefficient is a Fraction
    ring, G, pk, divs = _minors55(field)
    f = G[0]
    first = set(dict(f.lm.exps))

    def s_polynomial(g):
        # both are monic: shift each to the lcm of the leads and subtract
        lcm = mono_lcm(f.lm, g.lm)
        return f.term_mul(mono_div(lcm, f.lm)) - g.term_mul(mono_div(lcm, g.lm))

    s = max(
        (s_polynomial(g) for g in G[1:] if first & set(dict(g.lm.exps))),
        key=lambda s: len(s.terms),
    )
    rows = pk.rows(s)
    out, _ = benchmark(_reduce_rows, rows, s.degree(), divs, ring.field, pk)
    assert rows and out == []


def test_row_reduce_asl_degree_4(benchmark):
    # the degree-4 elimination of the asl 3x3 d4 check: its 495 chain
    # products, which span the degree-4 slice, as sparse rows over the
    # monomials; each chain's product is its prefix's times one minor
    ms = MatrixSpec("generic", 3, 3)
    ring = matrix_ring(ms, FP)
    minors = {ix: minor_poly(ring, ms, ix) for ix in minors_universe(3, 3).elements()}
    products = {(): ring.one}
    for ch in standard_products(3, 3, 4)[1:]:
        products[ch] = products[ch[:-1]] * minors[ch[-1]]
    chains = [ch for ch in products if sum(ix.size for ix in ch) == 4]
    vectors, monos = coefficient_matrix(ring, [products[ch] for ch in chains])
    rows = [{} for _ in monos]
    for j, vec in enumerate(vectors):
        for i, v in vec.items():
            rows[i][j] = v
    reduced, pivots = benchmark(row_reduce, rows, ring.field)
    assert len(pivots) == len(chains) == len(monos) == 495


def test_from_terms_asl_chain_products(benchmark):
    # the canonicalization of the asl 3x3 d4 check's chain products: each
    # chain's raw term stream, its prefix's product times one minor, merged
    # and sorted by the order's int weights.  Checked against the products
    # that Polynomial.__mul__ gives and against the order's tuple key
    ms = MatrixSpec("generic", 3, 3)
    ring = matrix_ring(ms, FP)
    minors = {ix: minor_poly(ring, ms, ix) for ix in minors_universe(3, 3).elements()}
    products, streams = {(): ring.one}, []
    for ch in standard_products(3, 3, 4)[1:]:
        f, g = products[ch[:-1]], minors[ch[-1]]
        products[ch] = f * g
        streams.append([(mono_mul(a, b), ring.field.mul(c, d)) for a, c in f.terms for b, d in g.terms])
    out = benchmark(lambda: [ring.from_terms(terms) for terms in streams])
    assert len(out) == 714 and out == list(products.values())[1:]
    key = ring.order.key
    assert all([key(m) for m, _ in f.terms] == sorted((key(m) for m, _ in f.terms), reverse=True) for f in out)


def test_krull_dimension_pfaffians_8x8(benchmark):
    # the height of the 4-Pfaffians of a generic 8x8 skew matrix, basis
    # cached: their run meets their series at its first reading and caches
    # that reading as the basis's numerator, so each round clears it and
    # only the numerator read off the leads and the division by 1 - t are
    # timed
    ms = MatrixSpec("skew", 8, 8)
    ring = matrix_ring(ms, FP)
    I = constrained_ideal(ring, ms, 4)
    I.groebner()

    def uncache():
        I._gb._num = None

    assert benchmark.pedantic(ideal_height, (I,), setup=uncache, rounds=50) == 15


def test_lead_numerator_minors_7x7(benchmark):
    # the Hilbert numerator read off the leads of the 1,225 3-minors of a
    # generic 7x7, which are their own reduced basis: the leads are packed
    # straight from the generators, with no basis run, and all squarefree.
    # Checked against the closed-form series of the ideal
    ms = MatrixSpec("generic", 7, 7)
    ring = matrix_ring(ms, FP)
    I = constrained_ideal(ring, ms, 3)
    pk = _Packing(ring.order, 8)
    elems = [_BasisElem(pk.rows(g), g.degree(), pk) for g in I.gens]
    assert len(elems) == 1225
    assert benchmark(_lead_numerator, elems, pk) == list(I.series)


def test_lead_numerator_symmetric_7(benchmark):
    # the Hilbert numerator read off the 490 leads of the basis of the
    # 3-minors of a symmetric 7x7, whose run ends at this first reading;
    # 105 leads repeat a variable, so the recursion runs on the leads'
    # polarization.  Checked against the closed-form series of the ideal
    ms = MatrixSpec("symmetric", 7, 7)
    ring = matrix_ring(ms, FP)
    G = constrained_ideal(ring, ms, 3).groebner()
    elems, pk = G._elems, G._pk
    assert len(elems) == 490
    assert sum(e.mask.bit_count() != e.deg for e in elems) == 105
    expected = list(determinantal_numerator("symmetric", 7, 7, 3))
    assert benchmark(_lead_numerator, elems, pk) == expected


@pytest.mark.parametrize(
    "kind, n, t, degree, dimension",
    [
        # matrices of rank at most 2: dimension 2 * (8 + 8 - 2)
        ("generic", 8, 3, 48, 28),
        # skew matrices of rank at most 4: height (10 - 6 + 1)(10 - 6 + 2)/2
        ("skew", 10, 6, 25, 30),
    ],
)
def test_closed_form_series(benchmark, kind, n, t, degree, dimension):
    # the series of the 3-minors of a generic 8x8 and of the 6-Pfaffians of
    # a skew 10x10, uncached; checked by its degree and by the dimension
    # read off it: the number of variables less the times 1 - t divides it
    num = benchmark(determinantal_numerator.__wrapped__, kind, n, n, t)
    assert len(num) - 1 == degree
    nvars = len(matrix_ring(MatrixSpec(kind, n, n), FP).table)
    num, height = list(num), 0
    while not sum(num):
        num, height = list(accumulate(num))[:-1], height + 1
    assert nvars - height == dimension


def test_series_stopped_basis_pfaffians_8x8(benchmark):
    # the basis run of the 70 4-Pfaffians of a skew 8x8, which ends at its
    # first reading: the series of their leads meets the closed form; each
    # round clears the cached basis
    ms = MatrixSpec("skew", 8, 8)
    ring = matrix_ring(ms, FP)
    I = constrained_ideal(ring, ms, 4)
    full = buchberger(I.gens)

    def uncache():
        I._gb = None

    G = benchmark.pedantic(I.groebner, setup=uncache, rounds=10)
    assert G == full and G.numerator() == list(I.series)


def test_uncovered_intersection_4x5(benchmark):
    # the elimination that intersects the two components of minors 4x5 t3
    # R2 r1, the 3-minors and the variables of the first two rows: a run
    # with no cover and no series, which forms, drops and reduces its pairs
    # to the end.  It keeps the 40 w-free elements, the 3-minors; each round
    # runs it afresh, since only the returned handle caches its basis
    ms = MatrixSpec("generic", 4, 5)
    ring = matrix_ring(ms, FP)
    (_, I), (_, J) = components(ring, ms, 3, R=(2,), r=(1,))
    K = benchmark(ideal_intersect, I, J)
    assert len(K.groebner()) == 40
    assert K.groebner() == buchberger(constrained_ideal(ring, ms, 3, R=(2,), r=(1,)).gens)


def test_truncation_reference_skew6(benchmark):
    # the truncation reference of truncation-skew6-t4-R3-d7: the 24
    # multiples of weighted degree <= 7 of the 4-Pfaffians of a skew 6x6,
    # weight 1 in the first three rows and 2 past them, and their basis
    # run, whose generator pass row-reduces each slice.  Each round builds
    # a fresh handle; the basis is the filtered generators'
    ms = MatrixSpec("skew", 6, 6)
    ring = matrix_ring(ms, FP)
    base = constrained_ideal(ring, ms, 4)
    grading = skew_block_grading(ms, 3, 1, 2)

    def reference():
        H = truncated_ideal_graded(base, grading, 7)
        return H, H.groebner()

    H, G = benchmark(reference)
    assert len(H.gens) == 24 and len(G) == 15
    assert G == buchberger(truncated_ideal(base, grading, 7).gens)


@pytest.fixture(scope="module")
def block55():
    """The second block of minors 5x5 t3 R2,3 r1,2: ``K_1`` (t3 R2 r1,
    basis cached), the component ``J_2`` and the ideal ``K_2``, which is
    the LHS, with its full reduced basis."""
    ms = MatrixSpec("generic", 5, 5)
    ring = matrix_ring(ms, FP)
    k1 = constrained_ideal(ring, ms, 3, R=(2,), r=(1,))
    k1.groebner()
    j2 = components(ring, ms, 3, R=(2, 3), r=(1, 2))[2][1]
    lhs = constrained_ideal(ring, ms, 3, R=(2, 3), r=(1, 2))
    return k1, j2, lhs, buchberger(lhs.gens)


def test_cover_check_7x7(benchmark):
    # the certificate of the one step of minors 7x7 t3 R2 r1: the minimal
    # lcms of the leads of the 3-minors (1,225) and of the 14 variables of
    # the first two rows, 3,675 of the 14,875 lcms, each looked up among
    # the leads of the claim's cached basis
    ms = MatrixSpec("generic", 7, 7)
    ring = matrix_ring(ms, FP)
    (_, K), (_, J) = components(ring, ms, 3, R=(2,), r=(1,))
    A, B = K.groebner(), J.groebner()
    lhs = constrained_ideal(ring, ms, 3, R=(2,), r=(1,))
    G = lhs.groebner(_minimal_lcms(A, B))
    # every lead is squarefree, so an lcm is the union of two supports
    assert len({frozenset(a.lm.exps) | frozenset(b.lm.exps) for a in A for b in B}) == 14875
    assert benchmark(lambda: set(_minimal_lcms(A, B)) <= {g.lm for g in G})
    assert len(_minimal_lcms(A, B)) == len(G) == 3675


@pytest.fixture(scope="module")
def updates77():
    """The pair updates of the LHS basis run of minors 7x7 t3 R2 r1 under
    its cover: the run's packing, its elements indexed afresh, and the
    order in which their updates ran (875 of them)."""
    ms = MatrixSpec("generic", 7, 7)
    ring = matrix_ring(ms, FP)
    (_, K), (_, J) = components(ring, ms, 3, R=(2,), r=(1,))
    lhs = constrained_ideal(ring, ms, 3, R=(2,), r=(1,))
    cover = _minimal_lcms(K.groebner(), J.groebner())
    order, runs = [], []

    def recording(divs, hi, minimal, heap, pk):
        order.append(hi)
        runs.append((divs, pk))
        return _update(divs, hi, minimal, heap, pk)

    def pack(pk):
        return [(pk.rows(g), g.degree()) for g in lhs.gens]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "_update", recording)
        _basis_rows(_Packing(ring.order, 8), pack, ring.field, cover)
    divs, pk = runs[-1]
    return _Divisors(pk.n, divs.elems), pk, order


def _replay(update, divs, pk, order):
    minimal, heap = {}, []
    for hi in order:
        update(divs, hi, minimal, heap, pk)
    return list(minimal), heap


def test_pair_updates_minors_7x7(benchmark, updates77):
    # the 875 updates of the 7x7 claim's run, replayed in order from no
    # minimal lead: every lead is squarefree, so each lcm is an OR and
    # criterion M walks or scans the parts of the kept lcms outside the new
    # lead.  The pairs pushed and the minimal leads left are the packed
    # reference's
    divs, pk, order = updates77
    assert len(order) == 875
    got = benchmark(_replay, _update, divs, pk, order)
    assert got == _replay(reference_update, divs, pk, order)


def test_cover_stopped_lhs_basis_5x5(benchmark, block55):
    # K_2's basis run, covered by the minimal lcms of the leads of K_1 and
    # J_2; each round clears the cached basis
    k1, j2, lhs, full = block55
    cover = _minimal_lcms(k1.groebner(), j2.groebner())

    def uncache():
        lhs._gb = None

    assert benchmark.pedantic(lhs.groebner, (cover,), setup=uncache, rounds=10) == full


def test_covered_run_rows_5x5(benchmark, block55):
    # the packed run of K_2 under its cover, without the handle or the
    # hand-back: the generator pass and the pair loop, in which the pairs
    # whose head bound lies below the cover's floor are dropped unformed and
    # the reductions that sink below it end at zero.  Its rows are those of
    # the full basis
    k1, j2, lhs, full = block55
    cover = _minimal_lcms(k1.groebner(), j2.groebner())
    ring = lhs.ring

    def pack(pk):
        return [(pk.rows(g), g.degree()) for g in lhs.gens]

    run = benchmark(_basis_rows, _Packing(ring.order, 8), pack, ring.field, cover)
    assert _Basis(ring, *run) == full


def test_membership_5x5(benchmark, block55):
    # the certification of K_2 in intersect_all: each generator of K_2
    # tested against J_2's cached basis, reducing against the rows its run
    # packed
    _, j2, lhs, _ = block55
    j2.groebner()
    assert all(benchmark(lambda: [ideal_member(g, j2) for g in lhs.gens]))
