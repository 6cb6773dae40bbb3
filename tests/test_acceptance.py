"""End-to-end certification suite.

Every test prints one PASS/FAIL line naming the claim it certifies, so a
``pytest tests/test_acceptance.py -s -q`` run reads as a checklist.  All
equalities are exact; there are no tolerances anywhere.
"""

import json
import random
from itertools import combinations
from pathlib import Path

from detkit.combinat import (
    MinorIndex,
    PfaffianIndex,
    PosetUniverse,
    minors_universe,
    order_ideal_cogenerated,
    order_ideal_generated,
)
from detkit.detideals import matrix_ring, minor_poly, pfaffian_poly, skew_matrix
from detkit.harness import (
    CaseSpec,
    load_suite_config,
    run_case,
    run_suite,
    suite_document,
)
from detkit.poly import QQ, PrimeField
from helpers import evaluate

ROOT = Path(__file__).resolve().parent.parent


def _report(label, failures):
    ok = not failures
    print(("PASS: " if ok else "FAIL: ") + label)
    assert ok, f"{label}: {failures[:8]}"


def _case(case, **kw):
    spec = CaseSpec(case=case, **kw)
    spec.validate(case)
    return spec


def _decomp(case, **kw):
    return run_case(_case(case, check="decomposition", **kw))


# -- block-constrained minors equal their component intersection ---------------------


def test_generic_decomposition_sweep():
    failures = []
    for m in range(1, 4):
        for n in range(1, 4):
            for t in range(1, min(m, n) + 1):
                profiles = [dict()]
                profiles += [
                    dict(R=(R,), r=(ri,))
                    for R in range(1, m + 1)
                    for ri in range(0, t + 1)
                ]
                profiles += [
                    dict(C=(C,), c=(ci,))
                    for C in range(1, n + 1)
                    for ci in range(0, t + 1)
                ]
                for prof in profiles:
                    rep = _decomp("sweep", kind="generic", m=m, n=n, t=t, **prof)
                    if rep.verdict != "EQUAL":
                        failures.append((m, n, t, prof, rep.verdict))

    two_block = [
        (R, rr)
        for R in [(1, 2), (1, 3), (2, 3)]
        for rr in [(1, 1), (1, 2), (2, 2), (0, 1)]
    ]
    assert len(two_block) >= 10
    for R, rr in two_block:
        rep = _decomp("two-block", kind="generic", m=3, n=4, t=2, R=R, r=rr)
        if rep.verdict != "EQUAL":
            failures.append((3, 4, 2, R, rr, rep.verdict))

    rep = _decomp(
        "row-and-col", kind="generic", m=3, n=4, t=2, R=(2,), r=(1,), C=(2,), c=(1,)
    )
    if rep.verdict != "EQUAL":
        failures.append(("row-and-col", rep.verdict))

    _report(
        "generic minors with row/column block constraints equal the intersection "
        "of one-condition ideals (all shapes up to 3x3, 12 two-block and one "
        "mixed case on 3x4)",
        failures,
    )


def test_symmetric_decomposition_with_doset_generators():
    cases = [
        (2, 2, 1, 1),
        (3, 2, 1, 1),
        (3, 2, 2, 1),
        (3, 2, 2, 2),
        (3, 3, 2, 1),
        (4, 2, 2, 1),
        (4, 2, 3, 2),
        (4, 3, 2, 1),
        (4, 3, 3, 2),
    ]
    failures = []
    for n, t, R, r in cases:
        rep = _decomp("sym", kind="symmetric", n=n, t=t, R=(R,), r=(r,))
        if rep.verdict != "EQUAL":
            failures.append((n, t, R, r, rep.verdict))
        if rep.doset_generators_equal is not True:
            failures.append((n, t, R, r, "doset generators differ"))
    _report(
        "symmetric minors with row blocks equal the component intersection and "
        "the doset-restricted generators span the same ideal (9 cases, n <= 4)",
        failures,
    )


def test_pfaffian_decomposition_both_parities():
    even = [(4, 2, 2, 2), (6, 2, 3, 2), (5, 4, 4, 2)]
    odd = [(5, 4, 2, 1), (6, 2, 2, 1), (5, 4, 3, 3), (6, 4, 3, 1)]
    failures = []
    for n, t, R, r in even + odd:
        rep = _decomp("pf", kind="skew", n=n, t=t, R=(R,), r=(r,))
        if rep.verdict != "EQUAL":
            failures.append((n, t, R, r, rep.verdict))
    _report(
        "pfaffian ideals with row blocks equal the parity-split component "
        "intersection (3 even-count and 4 odd-count cases, n <= 6)",
        failures,
    )


# -- degree truncation ----------------------------------------------------------------


def test_truncation_sweeps():
    from detkit.detideals import truncation_rank

    failures = []
    ranks = set()
    for m, n, a in [(2, 3, 1), (3, 3, 2)]:
        for d in (2, 3, 4):
            ranks.add(truncation_rank(2, 1, 2, d))
            rep = run_case(
                _case(
                    "trunc", check="truncation", kind="generic",
                    m=m, n=n, t=2, C=(a,), p=1, q=2, d=d,
                )
            )
            if rep.verdict != "EQUAL":
                failures.append((m, n, a, d, rep.verdict))
    if ranks != {0, 1, 2}:
        failures.append(("rank sweep incomplete", sorted(ranks)))
    rep = run_case(
        _case(
            "trunc-skew", check="truncation", kind="skew",
            n=5, t=4, R=(2,), p=1, q=2, d=7,
        )
    )
    if rep.verdict != "EQUAL":
        failures.append(("skew", rep.verdict))
    if truncation_rank(4, 1, 2, 7) % 2 != 1:
        failures.append(("skew case does not exercise an odd count",))
    _report(
        "degree-d truncations of minor and pfaffian ideals equal the one extra "
        "block component, filtered and graded-slice constructions agreeing, "
        "across d sweeps hitting every cutoff count 0..t",
        failures,
    )


# -- irredundancy --------------------------------------------------------------------


def test_irredundancy_certified_and_violations_flagged():
    good = [
        dict(kind="generic", m=4, n=3, t=2, R=(2,), r=(1,)),
        dict(kind="generic", m=3, n=4, t=2, C=(2,), c=(1,)),
        dict(kind="generic", m=3, n=4, t=2, R=(1,), r=(1,)),
        dict(kind="generic", m=4, n=4, t=2, R=(2,), r=(1,)),
        dict(kind="symmetric", n=4, t=2, R=(2,), r=(1,)),
        dict(kind="skew", n=6, t=4, R=(2,), r=(2,)),
    ]
    failures = []
    for kw in good:
        rep = run_case(_case("irr", check="irredundancy", **kw))
        if rep.verdict != "EQUAL":
            failures.append((kw, rep.verdict, rep.reason))
            continue
        if not all(c["irredundant"] for c in rep.components):
            failures.append((kw, "component flagged redundant"))
        if len(rep.witnesses) != len(rep.components):
            failures.append((kw, "missing separating witness"))

    violations = [
        (dict(kind="generic", m=3, n=3, t=2, R=(2,), r=(2,)),
         "mins_strict", "minors(2)"),
        (dict(kind="generic", m=3, n=3, t=2, R=(2,), r=(1,)),
         "slack_strict", "minors(1,rows<=2)"),
        (dict(kind="generic", m=4, n=3, t=3, R=(1, 2), r=(1, 2)),
         "slack_strict", "minors(1,rows<=1)"),
    ]
    for kw, hyp, lazy_name in violations:
        rep = run_case(_case("irr-v", check="irredundancy", **kw))
        if rep.verdict != "SKIPPED" or hyp not in (rep.reason or ""):
            failures.append((kw, rep.verdict, rep.reason))
            continue
        flags = {c["name"]: c["irredundant"] for c in rep.components}
        if flags.get(lazy_name) is not False:
            failures.append((kw, "expected redundancy not observed", flags))
    _report(
        "every component is certified irredundant by a closed-form witness on "
        "6 hypothesis-satisfying cases; on 3 violating cases the drop-one "
        "probes observe the predicted component redundant",
        failures,
    )


# -- heights --------------------------------------------------------------------------


def test_pfaffian_heights():
    # the last three are out of reach of a scan over variable subsets
    expected = {(4, 2): 6, (5, 4): 3, (6, 4): 6, (5, 2): 10, (8, 4): 15, (8, 6): 6, (9, 4): 21}
    failures = []
    for (n, t), h in expected.items():
        rep = run_case(_case("h", check="heights", kind="skew", n=n, t=t))
        if rep.verdict != "EQUAL" or rep.height != h:
            failures.append((n, t, rep.verdict, rep.height))
    _report(
        "height of the even-size pfaffian ideal matches "
        "(n-2p+1)(n-2p+2)/2 on all seven shapes",
        failures,
    )


# -- pfaffian squared is the determinant ----------------------------------------------


def test_pfaffian_square_is_determinant():
    failures = []
    for n in (2, 3, 4):
        ms = skew_matrix(n)
        ring = matrix_ring(ms, QQ)
        sizes = [2, 4] if n == 4 else [2]
        for size in sizes:
            for rows in combinations(range(1, n + 1), size):
                pf = pfaffian_poly(ring, ms, PfaffianIndex(rows))
                det = minor_poly(ring, ms, MinorIndex(rows, rows))
                if pf * pf != det:
                    failures.append((n, rows))

    ms = skew_matrix(6)
    ring = matrix_ring(ms, PrimeField(32003))
    full = tuple(range(1, 7))
    pf = pfaffian_poly(ring, ms, PfaffianIndex(full))
    det = minor_poly(ring, ms, MinorIndex(full, full))
    rng = random.Random(60606)
    for trial in range(20):
        point = [rng.randrange(32003) for _ in range(len(ring.table.names))]
        pv = evaluate(pf, point)
        if ring.field.mul(pv, pv) != evaluate(det, point):
            failures.append(("eval", trial))
    _report(
        "the pfaffian squares to the determinant: symbolically for every even "
        "index set with n <= 4 and at 20 seeded random points for n = 6",
        failures,
    )


# -- order ideal combinatorics ---------------------------------------------------------


def _complement_minimals(univ, subset):
    comp = [e for e in univ.elements() if e not in subset]
    return [
        e for e in comp if not any(o != e and univ.leq(o, e) for o in comp)
    ]


def _is_down_closed(univ, subset):
    return all(
        (b in subset) or not univ.leq(b, a)
        for a in subset
        for b in univ.elements()
    )


def test_order_ideal_descriptions_exhaustive():
    failures = []
    for m in range(1, 5):
        for n in range(1, 5):
            univ = minors_universe(m, n)
            elems = univ.elements()
            up = {a: {b for b in elems if univ.leq(a, b)} for a in elems}
            for a in elems:
                if not univ.leq(a, a):
                    failures.append((m, n, "reflexivity", a))
                for b in up[a]:
                    if a != b and univ.leq(b, a):
                        failures.append((m, n, "antisymmetry", a, b))
                    if not up[b] <= up[a]:
                        failures.append((m, n, "transitivity", a, b))

            for t in range(1, min(m, n) + 1):
                want = {e for e in elems if e.size >= t}
                gen = MinorIndex(
                    tuple(range(m - t + 1, m + 1)), tuple(range(n - t + 1, n + 1))
                )
                if set(order_ideal_generated(univ, [gen])) != want:
                    failures.append((m, n, t, "size generated"))
                cogens = (
                    [MinorIndex(tuple(range(1, t)), tuple(range(1, t)))]
                    if t > 1
                    else []
                )
                if set(order_ideal_cogenerated(univ, cogens)) != want:
                    failures.append((m, n, t, "size cogenerated"))
                if not _is_down_closed(univ, want):
                    failures.append((m, n, t, "size not down-closed"))

            for R in range(1, m + 1):
                for r in range(1, min(R, n) + 1):
                    want = {
                        e
                        for e in elems
                        if sum(1 for a in e.rows if a <= R) >= r
                    }
                    gen = MinorIndex(
                        tuple(range(R - r + 1, R + 1)),
                        tuple(range(n - r + 1, n + 1)),
                    )
                    if set(order_ideal_generated(univ, [gen])) != want:
                        failures.append((m, n, R, r, "row generated"))
                    mins = _complement_minimals(univ, want)
                    if set(order_ideal_cogenerated(univ, mins)) != want:
                        failures.append((m, n, R, r, "row cogenerated"))
                    # single cogenerator, rows [1..r-1, R+1..], length capped
                    # by both the column count and the row count
                    L = min(n, (r - 1) + (m - R))
                    if L >= 1:
                        rows = tuple(range(1, r)) + tuple(
                            range(R + 1, R + 1 + (L - r + 1))
                        )
                        expect = [MinorIndex(rows, tuple(range(1, L + 1)))]
                    else:
                        expect = []
                    if mins != expect:
                        failures.append((m, n, R, r, "row cogen form", mins))

            for C in range(1, n + 1):
                for c in range(1, min(C, m) + 1):
                    want = {
                        e
                        for e in elems
                        if sum(1 for b in e.cols if b <= C) >= c
                    }
                    gen = MinorIndex(
                        tuple(range(m - c + 1, m + 1)),
                        tuple(range(C - c + 1, C + 1)),
                    )
                    if set(order_ideal_generated(univ, [gen])) != want:
                        failures.append((m, n, C, c, "col generated"))
                    mins = _complement_minimals(univ, want)
                    if set(order_ideal_cogenerated(univ, mins)) != want:
                        failures.append((m, n, C, c, "col cogenerated"))
                    L = min(m, (c - 1) + (n - C))
                    if L >= 1:
                        cols = tuple(range(1, c)) + tuple(
                            range(C + 1, C + 1 + (L - c + 1))
                        )
                        expect = [MinorIndex(tuple(range(1, L + 1)), cols)]
                    else:
                        expect = []
                    if mins != expect:
                        failures.append((m, n, C, c, "col cogen form", mins))

    for n in range(2, 5):
        univ = PosetUniverse("doset_minors", n, n)
        elems = univ.elements()
        for a in elems:
            for b in elems:
                if univ.leq(a, b) and univ.leq(b, a) and a.rows != b.rows:
                    failures.append((n, "doset tie across row sets", a, b))
        for t in range(1, n + 1):
            want = {e for e in elems if e.size >= t}
            gen = MinorIndex(
                tuple(range(n - t + 1, n + 1)), tuple(range(n - t + 1, n + 1))
            )
            if set(order_ideal_generated(univ, [gen])) != want:
                failures.append((n, t, "doset size generated"))
            cogens = (
                [MinorIndex(tuple(range(1, t)), tuple(range(1, t)))]
                if t > 1
                else []
            )
            if set(order_ideal_cogenerated(univ, cogens)) != want:
                failures.append((n, t, "doset size cogenerated"))
        for R in range(1, n + 1):
            for r in range(1, R + 1):
                want = {
                    e for e in elems if sum(1 for a in e.rows if a <= R) >= r
                }
                gen = MinorIndex(
                    tuple(range(R - r + 1, R + 1)), tuple(range(n - r + 1, n + 1))
                )
                if set(order_ideal_generated(univ, [gen])) != want:
                    failures.append((n, R, r, "doset row generated"))
                wit = tuple(range(1, r)) + tuple(range(R + 1, n + 1))
                if wit:
                    cogens = [MinorIndex(wit, wit)]
                    if set(order_ideal_cogenerated(univ, cogens)) != want:
                        failures.append((n, R, r, "doset row cogenerated"))

    for n in (4, 6):
        univ = PosetUniverse("pfaffians", n, n)
        elems = univ.elements()
        up = {a: {b for b in elems if univ.leq(a, b)} for a in elems}
        for a in elems:
            for b in up[a]:
                if a != b and univ.leq(b, a):
                    failures.append((n, "pfaffian antisymmetry", a, b))
                if not up[b] <= up[a]:
                    failures.append((n, "pfaffian transitivity", a, b))
        for t2 in range(2, n + 1, 2):
            want = {e for e in elems if len(e.rows) >= t2}
            gen = PfaffianIndex(tuple(range(n - t2 + 1, n + 1)))
            if set(order_ideal_generated(univ, [gen])) != want:
                failures.append((n, t2, "pfaffian size generated"))
            cogens = [PfaffianIndex(tuple(range(1, t2 - 1)))] if t2 > 2 else []
            if set(order_ideal_cogenerated(univ, cogens)) != want:
                failures.append((n, t2, "pfaffian size cogenerated"))
        for R in range(1, n + 1):
            for r in range(1, R + 1):
                want = {
                    e for e in elems if sum(1 for a in e.rows if a <= R) >= r
                }
                if not want:
                    continue
                if r % 2 == 0:
                    gens = [PfaffianIndex(tuple(range(R - r + 1, R + 1)))]
                elif R < n:
                    gens = [
                        PfaffianIndex(
                            tuple(range(R - r + 1, R + 1)) + (n,)
                        )
                    ]
                else:
                    # an odd count over the whole index range just bounds the
                    # size, so the top size-(r+1) index generates the set
                    gens = [PfaffianIndex(tuple(range(n - r, n + 1)))]
                if set(order_ideal_generated(univ, gens)) != want:
                    failures.append((n, R, r, "pfaffian row generated"))
                long_wit = tuple(range(1, r)) + tuple(range(R + 1, n + 1))
                short_wit = long_wit[:-1]
                wit = long_wit if len(long_wit) % 2 == 0 else short_wit
                if wit:
                    cogens = [PfaffianIndex(wit)]
                    if set(order_ideal_cogenerated(univ, cogens)) != want:
                        failures.append((n, R, r, "pfaffian row cogenerated"))

    _report(
        "order-ideal combinatorics: poset axioms hold exhaustively; the "
        "generated-by, cogenerated-by, and direct-filter descriptions of every "
        "size/row/column constraint set coincide for minors (m,n <= 4), doset "
        "minors (n <= 4), and pfaffians (n <= 6)",
        failures,
    )


# -- straightening-law spot checks ----------------------------------------------------


def test_standard_monomials_and_straightening():
    failures = []
    for m, n in [(2, 2), (2, 3)]:
        rep = run_case(_case("asl", check="asl", kind="generic", m=m, n=n, d=2))
        if rep.verdict != "EQUAL":
            failures.append((m, n, rep.verdict, rep.reason))

    from detkit.detideals import generic_matrix

    ms = generic_matrix(2, 2)
    ring = matrix_ring(ms, QQ)
    x12 = minor_poly(ring, ms, MinorIndex((1,), (2,)))
    x21 = minor_poly(ring, ms, MinorIndex((2,), (1,)))
    x11 = minor_poly(ring, ms, MinorIndex((1,), (1,)))
    x22 = minor_poly(ring, ms, MinorIndex((2,), (2,)))
    det = minor_poly(ring, ms, MinorIndex((1, 2), (1, 2)))
    if x12 * x21 != x11 * x22 - det:
        failures.append(("straightening identity",))
    _report(
        "chain products of minors form a basis of the degree <= 2 slice for "
        "2x2 and 2x3 matrices, and the incomparable product x[1,2]*x[2,1] "
        "straightens through the smaller factor x[1,1]",
        failures,
    )


# -- determinism across reruns and fields ----------------------------------------------


def test_suite_determinism_and_field_agreement():
    failures = []
    shipped = str(ROOT / "suites" / "acceptance.json")
    reports1, ok1 = run_suite(load_suite_config(shipped))
    reports2, ok2 = run_suite(load_suite_config(shipped))
    doc1 = json.dumps(suite_document(reports1, include_timing=False), indent=2)
    doc2 = json.dumps(suite_document(reports2, include_timing=False), indent=2)
    if not (ok1 and ok2):
        failures.append(("shipped suite not fully EQUAL",))
    if doc1 != doc2:
        failures.append(("reruns differ",))

    small = [
        dict(check="decomposition", kind="generic", m=2, n=2, t=2, R=(1,), r=(1,)),
        dict(check="decomposition", kind="symmetric", n=2, t=2, R=(1,), r=(1,)),
        dict(check="decomposition", kind="skew", n=4, t=2, R=(1,), r=(1,)),
        dict(check="truncation", kind="generic", m=2, n=3, t=2, C=(1,),
             p=1, q=2, d=3),
    ]
    for kw in small:
        verdicts = set()
        for field in ("fp:32003", "qq"):
            rep = run_case(_case("fieldcmp", field=field, **kw))
            verdicts.add(rep.verdict)
        if verdicts != {"EQUAL"}:
            failures.append((kw, verdicts))
    _report(
        "rerunning the shipped suite is byte-identical without timing fields, "
        "and the smallest cases agree between F_32003 and the rationals",
        failures,
    )