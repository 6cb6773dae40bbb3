import gc
import json
from pathlib import Path

import pytest

from detkit.combinat import partitions
from detkit.detideals import (
    MatrixSpec,
    components,
    constrained_ideal,
    matrix_ring,
    monomials_of_weighted_degree,
)
from detkit.groebner import IdealHandle, ideal_member, intersect_all
from detkit.harness import (
    CaseError,
    CaseSpec,
    _flip_blocks,
    check_irredundancy_hypotheses,
    load_suite_config,
    run_case,
    run_suite,
    standard_products,
    suite_document,
)
from detkit.poly import GradingSpec, VariableTable, field_from_name, mono_divides
from helpers import expire_after_basis, expire_in_elimination, unpolarized

ROOT = Path(__file__).resolve().parent.parent


def mk(case="case", **kw):
    spec = CaseSpec(case=case, **kw)
    spec.validate(case)
    return spec


# -- validation -------------------------------------------------------------------


def test_spec_validation_messages():
    with pytest.raises(CaseError, match="case"):
        CaseSpec(case="").validate()
    with pytest.raises(CaseError, match="check"):
        CaseSpec(case="x", check="nope").validate()
    with pytest.raises(CaseError, match="kind"):
        CaseSpec(case="x", kind="nope").validate()
    with pytest.raises(CaseError, match="x.t"):
        CaseSpec(case="x", m=2, n=2, t=None).validate("x")
    with pytest.raises(CaseError, match="x.R"):
        CaseSpec(case="x", m=3, n=3, t=2, R=(2, 2), r=(1, 1)).validate("x")
    with pytest.raises(CaseError, match="x.R"):
        CaseSpec(case="x", m=3, n=3, t=2, R=(2,), r=()).validate("x")
    with pytest.raises(CaseError, match="x.t"):
        CaseSpec(case="x", kind="skew", n=4, t=3).validate("x")
    with pytest.raises(CaseError, match="x.field"):
        CaseSpec(case="x", m=2, n=2, t=1, field="fp:9").validate("x")
    with pytest.raises(CaseError, match="x.order"):
        CaseSpec(case="x", m=2, n=2, t=1, order="grlex").validate("x")
    with pytest.raises(CaseError, match="x.mutate"):
        CaseSpec(case="x", m=2, n=2, t=1, mutate="evil").validate("x")
    with pytest.raises(CaseError, match="mutate"):
        CaseSpec(
            case="x", check="heights", kind="skew", n=4, t=2, mutate="flip-block"
        ).validate("x")
    with pytest.raises(CaseError, match="x.C"):
        CaseSpec(
            case="x", check="truncation", m=2, n=3, t=2, p=1, q=2, d=3
        ).validate("x")
    with pytest.raises(CaseError, match="x.p"):
        CaseSpec(
            case="x", check="truncation", m=2, n=3, t=2, C=(1,), p=2, q=2, d=3
        ).validate("x")
    with pytest.raises(CaseError, match="kind"):
        CaseSpec(
            case="x", check="truncation", kind="symmetric", n=3, t=2,
            R=(1,), p=1, q=2, d=3,
        ).validate("x")
    with pytest.raises(CaseError, match="kind"):
        CaseSpec(case="x", check="heights", kind="generic", m=2, n=2, t=2).validate("x")
    with pytest.raises(CaseError, match="kind"):
        CaseSpec(case="x", check="asl", kind="skew", n=4, d=2).validate("x")
    with pytest.raises(CaseError, match="C"):
        CaseSpec(case="x", kind="symmetric", n=3, t=2, C=(1,), c=(1,)).validate("x")


def test_from_dict():
    spec = CaseSpec.from_dict(
        {"case": "a", "m": 3, "n": 3, "t": 2, "R": [1], "r": [1]}, "cases[0]"
    )
    assert spec.R == (1,) and spec.r == (1,)
    with pytest.raises(CaseError, match="unknown keys"):
        CaseSpec.from_dict({"case": "a", "m": 2, "n": 2, "t": 1, "bogus": 1})
    with pytest.raises(CaseError, match=r"cases\[3\].R"):
        CaseSpec.from_dict({"case": "a", "m": 2, "n": 2, "t": 1, "R": "2"}, "cases[3]")


# -- decomposition ------------------------------------------------------------------


def test_decomposition_equal_small():
    rep = run_case(mk("d1", m=3, n=3, t=2, R=(1,), r=(1,)))
    assert rep.verdict == "EQUAL"
    assert rep.reason is None
    assert [c["name"] for c in rep.components] == ["minors(2)", "minors(1,rows<=1)"]
    assert rep.stats["lhs_gens"] == 6
    assert rep.stats["rhs_gb_size"] >= 1
    assert rep.doset_generators_equal is None
    assert isinstance(rep.millis, int)


def _assert_separates(spec, rep):
    """The reason of a failed decomposition names a reduced-basis element of
    one side; rebuild both sides and check that the other lacks it."""
    head, _, text = rep.reason.partition(": ")
    side, other = head.split(" basis element not in ")
    ms = MatrixSpec(spec.kind, spec.rows, spec.n)
    ring = matrix_ring(ms, field_from_name(spec.field), order=spec.order)
    lhs = constrained_ideal(ring, ms, spec.t, spec.R, spec.r, spec.C, spec.c)
    if spec.mutate == "drop-generator":
        lhs = IdealHandle(ring, lhs.gens[1:])
    R, C = _flip_blocks(spec) if spec.mutate == "flip-block" else (spec.R, spec.C)
    comps = components(ring, ms, spec.t, R, spec.r, C, spec.c)
    sides = {"lhs": lhs, "rhs": intersect_all(ring, [h for _, h in comps])}
    named = [g for g in sides[side].groebner() if str(g) == text]
    assert len(named) == 1, rep.reason
    assert not ideal_member(named[0], sides[other])


def test_decomposition_canaries_fail():
    base = dict(m=3, n=3, t=2, R=(1,), r=(1,))
    reasons = {
        "drop-generator": "x[1,1]*x[2,2]*x[3,1] + 32002*x[1,1]*x[2,1]*x[3,2]",
        "flip-block": "x[2,2]*x[3,1] + 32002*x[2,1]*x[3,2]",
    }
    for mutate, element in reasons.items():
        spec = mk(mutate, mutate=mutate, **base)
        rep = run_case(spec)
        assert rep.verdict == "NOT_EQUAL"
        assert rep.reason == "rhs basis element not in lhs: " + element
        _assert_separates(spec, rep)


def test_flip_block_without_room():
    spec = mk("c3", m=3, n=3, t=2, R=(3,), r=(1,), mutate="flip-block")
    with pytest.raises(CaseError, match="flip-block"):
        run_case(spec)


def test_decomposition_symmetric_sets_doset_flag():
    rep = run_case(mk("s1", kind="symmetric", n=3, t=2, R=(2,), r=(1,)))
    assert rep.verdict == "EQUAL"
    assert rep.doset_generators_equal is True


def test_decomposition_pfaffian_odd_count():
    rep = run_case(mk("p1", kind="skew", n=5, t=4, R=(2,), r=(1,)))
    assert rep.verdict == "EQUAL"
    assert [c["name"] for c in rep.components] == [
        "pfaffians(4)",
        "pfaffians(1,rows<=2)",
    ]


def test_decomposition_pfaffian_even_count():
    # with the split at n-1 every generator keeps more than half its rows in
    # the corner, so each expansion term carries a corner entry
    rep = run_case(mk("p2", kind="skew", n=5, t=4, R=(4,), r=(2,)))
    assert rep.verdict == "EQUAL"
    rep2 = run_case(mk("p3", kind="skew", n=5, t=4, R=(3,), r=(3,)))
    assert rep2.verdict == "EQUAL"


def test_decomposition_pfaffian_corner_component_too_small():
    # an even count with room to escape: [1,2,3,4] meets two rows of the
    # leading 2x2 corner, yet the term z13*z24 avoids z12 entirely, so the
    # corner component misses it and the constrained generators do not lie
    # in the stated intersection
    spec = mk("p4", kind="skew", n=5, t=4, R=(2,), r=(2,))
    rep = run_case(spec)
    assert rep.verdict == "NOT_EQUAL"
    assert rep.reason.startswith("lhs basis element not in rhs: ")
    _assert_separates(spec, rep)


def test_not_equal_survives_budget_during_separator_search(monkeypatch):
    # the verdict is settled once the bases differ; a clock that passes the
    # deadline only after ideal_equal has returned stops the search for a
    # separating element, not the verdict
    from detkit import groebner, harness

    real_clock, real_equal = groebner.monotonic, harness.ideal_equal
    compared = []

    def equal_then_expire(*args):
        result = real_equal(*args)
        compared.append(result)
        return result

    monkeypatch.setattr(harness, "ideal_equal", equal_then_expire)
    monkeypatch.setattr(
        groebner, "monotonic", lambda: float("inf") if compared else real_clock()
    )
    base = dict(m=3, n=3, t=2, R=(1,), r=(1,))
    rep = run_case(mk("c2", mutate="flip-block", **base))
    assert compared == [False]
    assert rep.verdict == "NOT_EQUAL"
    assert rep.reason == "separating element not computed: budget exceeded"
    assert rep.failed


def test_decomposition_budget_skip(monkeypatch):
    # the deadline passes once the first component basis is done
    expire_after_basis(monkeypatch)
    rep = run_case(mk("b1", m=3, n=4, t=2, R=(2,), r=(1,)))
    assert rep.verdict == "SKIPPED"
    assert rep.reason == "budget exceeded"
    # what the check filled in before the deadline stays in the report
    assert [c["name"] for c in rep.components] == ["minors(2)", "minors(1,rows<=2)"]
    assert rep.stats == {"lhs_gens": 18, "rhs_gb_size": None}


def test_budget_bounds_the_generator_build():
    # a deadline past before the first generator stops the build itself
    rep = run_case(mk("b1", m=3, n=4, t=2, R=(2,), r=(1,), budget_sec=1e-6))
    assert rep.verdict == "SKIPPED"
    assert rep.reason == "budget exceeded"
    assert rep.components == []
    assert rep.stats == {"lhs_gens": None, "rhs_gb_size": None}


def test_decomposition_over_rationals_and_lex():
    rep = run_case(mk("q1", m=2, n=3, t=2, R=(1,), r=(1,), field="qq"))
    assert rep.verdict == "EQUAL"
    rep2 = run_case(mk("q2", m=2, n=3, t=2, R=(1,), r=(1,), order="lex"))
    assert rep2.verdict == "EQUAL"


# -- decomposition certified by Hilbert series ------------------------------------------

# the EQUAL cases of the decompose benchmark workload
DECOMPOSE_EQUAL = [
    dict(case="minors-5x5-t3-R23-r12", m=5, n=5, t=3, R=(2, 3), r=(1, 2)),
    dict(case="pfaffian-8-t4-R2-r1", kind="skew", n=8, t=4, R=(2,), r=(1,)),
    dict(case="symmetric-5-t3-R2-r1", kind="symmetric", n=5, t=3, R=(2,), r=(1,)),
]


def _count_intersections(monkeypatch):
    """A list that gains one entry per call of ``groebner.ideal_intersect``,
    which every elimination goes through."""
    from detkit import groebner

    calls = []
    real = groebner.ideal_intersect

    def counting(*args):
        calls.append("ideal_intersect")
        return real(*args)

    monkeypatch.setattr(groebner, "ideal_intersect", counting)
    return calls


def _one_block_decompositions():
    specs = load_suite_config(str(ROOT / "suites" / "acceptance.json"))
    return [s for s in specs if s.check == "decomposition" and len(s.R + s.C) == 1]


def test_equal_decompositions_run_no_elimination(monkeypatch):
    calls = _count_intersections(monkeypatch)
    specs = [mk(**kw) for kw in DECOMPOSE_EQUAL] + _one_block_decompositions()
    assert len(specs) == 10
    for spec in specs:
        rep = run_case(spec)
        assert rep.verdict == "EQUAL", spec.case
        assert calls == [], spec.case


def test_not_equal_decomposition_falls_back_to_elimination(monkeypatch):
    calls = _count_intersections(monkeypatch)
    rep = run_case(mk("p7", kind="skew", n=7, t=4, R=(3,), r=(2,)))
    assert calls
    assert rep.verdict == "NOT_EQUAL"
    assert rep.stats == {"lhs_gens": 22, "rhs_gb_size": 81}
    assert rep.reason == (
        "rhs basis element not in lhs: z[1,2]*z[4,7]*z[5,6]"
        " + 32002*z[1,2]*z[4,6]*z[5,7] + z[1,2]*z[4,5]*z[6,7]"
    )


def _wrong_linear_leads(monkeypatch):
    """Give the first linear component whose leads a certificate folds one
    lead too many, the last variable, wherever its minimal lcms are formed:
    that lcm is no lead of a claim of degree 2 or more, so the whole fold
    and each step that folds that component refuse.  Returns the list that
    gains the component's basis."""
    from detkit import groebner

    real = groebner._minimal_lcms
    moved = []

    def moving(*bases):
        width, masks = real(*bases)
        if not moved:
            moved.extend([B for B in bases if B and all(g.degree() == 1 for g in B)][:1])
        if moved and any(B is moved[0] for B in bases):
            # the last variable, polarized
            masks = [*masks, 1 << ((len(moved[0][0].ring.table) - 1) * width)]
        return width, masks

    monkeypatch.setattr(groebner, "_minimal_lcms", moving)
    return moved


def test_wrong_component_leads_make_the_chain_refuse(monkeypatch):
    # a wrong lead of the linear component puts a monomial in the cover
    # that no lead of the claim reaches, so the run goes on to the full
    # basis and the certificate refuses; the intersection then comes from
    # the elimination
    moved = _wrong_linear_leads(monkeypatch)
    calls = _count_intersections(monkeypatch)
    rep = run_case(mk("d1", m=3, n=3, t=2, R=(1,), r=(1,)))
    assert moved and calls
    assert rep.verdict == "EQUAL"
    assert rep.stats == {"lhs_gens": 6, "rhs_gb_size": 10}


def test_refused_step_eliminates_only_itself(monkeypatch):
    # the wrong linear lead refuses the whole fold and the first of two
    # steps; that step is eliminated, and the second is still certified
    # from its result
    spec = mk("d2", m=3, n=4, t=2, R=(1, 2), r=(1, 1))
    recorded = run_case(spec).to_dict(include_timing=False)
    moved = _wrong_linear_leads(monkeypatch)
    calls = _count_intersections(monkeypatch)
    rep = run_case(spec)
    assert moved
    assert calls == ["ideal_intersect"]
    assert rep.to_dict(include_timing=False) == recorded


def test_no_cover_before_membership(monkeypatch):
    # a cover is sound only for an ideal inside the intersection: when a
    # generator of the constrained ideal misses a component, no basis run
    # gets one
    from detkit import groebner

    real = groebner.buchberger
    covers = []

    def recording(gens, cover=None, series=None):
        covers.append(cover)
        return real(gens, cover, series)

    monkeypatch.setattr(groebner, "buchberger", recording)
    calls = _count_intersections(monkeypatch)
    rep = run_case(mk("p4", kind="skew", n=5, t=4, R=(2,), r=(2,)))
    assert rep.verdict == "NOT_EQUAL" and calls
    assert covers and not any(covers)
    covers.clear()
    # pfaffian-7-t4-R3-r2's claim fails membership the same way
    rep = run_case(mk("p7", kind="skew", n=7, t=4, R=(3,), r=(2,)))
    assert rep.verdict == "NOT_EQUAL"
    assert covers and not any(covers)
    covers.clear()
    assert run_case(mk("d1", m=3, n=3, t=2, R=(1,), r=(1,))).verdict == "EQUAL"
    assert any(covers)


def test_the_not_equal_families_keep_their_separators():
    # the 4x4 mixed case and skew (6, 6, 3, 3) keep the verdicts and
    # separators they had under the series certificate.  The mixed case's
    # second step passes membership and is refused on its leads: not all
    # of the 57 minimal lcms are leads of the LHS.  On the skew case
    # every lcm of the components' leads is divisible by the LHS's one
    # lead, yet the LHS is not inside the pfaffians(3,rows<=3) component,
    # so membership refuses it
    from detkit.groebner import _inside, _minimal_lcms

    rep = run_case(mk("mixed", m=4, n=4, t=2, R=(2,), r=(1,), C=(2,), c=(1,)))
    assert rep.verdict == "NOT_EQUAL"
    assert rep.stats == {"lhs_gens": 25, "rhs_gb_size": 57}
    assert rep.reason == (
        "rhs basis element not in lhs: x[1,1]*x[3,4]*x[4,3] + 32002*x[1,1]*x[3,3]*x[4,4]"
    )
    spec = mk("skew6", kind="skew", n=6, t=6, R=(3,), r=(3,))
    rep = run_case(spec)
    assert rep.verdict == "NOT_EQUAL"
    assert rep.stats == {"lhs_gens": 1, "rhs_gb_size": 3}
    assert rep.reason.startswith("lhs basis element not in rhs: z[1,6]*z[2,5]*z[3,4] + ")
    ms = MatrixSpec("skew", 6, 6)
    ring = matrix_ring(ms, field_from_name("fp:32003"))
    (_, K), (_, J) = components(ring, ms, 6, R=(3,), r=(3,))
    lhs = constrained_ideal(ring, ms, 6, R=(3,), r=(3,))
    (g,) = lhs.groebner()
    cover = unpolarized(*_minimal_lcms(K.groebner(), J.groebner()))
    assert all(mono_divides(g.lm, m) for m in cover)
    assert _inside(lhs, K) and not _inside(lhs, J)


def test_chain_reuses_the_lhs_for_a_prefix_with_its_generators(monkeypatch):
    # on minors-3x3-t3-R12-r12 the first block already gives the 3x3
    # determinant, so K_1 is the LHS: one basis each for the LHS and the
    # three components, and the report is the recorded one
    from detkit import groebner

    real = groebner.buchberger
    calls = []

    def counting(gens, cover=None, series=None):
        calls.append(cover)
        return real(gens, cover, series)

    monkeypatch.setattr(groebner, "buchberger", counting)
    specs = load_suite_config(str(ROOT / "suites" / "acceptance.json"))
    (spec,) = [s for s in specs if s.case == "minors-3x3-t3-R12-r12"]
    golden = json.loads((ROOT / "tests" / "golden" / "acceptance-no-timing.json").read_text())
    (recorded,) = [c for c in golden["cases"] if c["case"] == spec.case]
    assert run_case(spec).to_dict(include_timing=False) == recorded
    assert len(calls) == 4


# -- truncation ----------------------------------------------------------------------


def test_truncation_generic_sweep(monkeypatch):
    calls = _count_intersections(monkeypatch)
    for d, expected in [(2, "EQUAL"), (3, "EQUAL"), (4, "EQUAL"), (5, "EQUAL")]:
        rep = run_case(
            mk(f"t{d}", check="truncation", m=2, n=3, t=2, C=(1,), p=1, q=2, d=d)
        )
        assert rep.verdict == expected, d
        assert calls == [], d


def test_truncation_skew(monkeypatch):
    calls = _count_intersections(monkeypatch)
    rep = run_case(
        mk("ts", check="truncation", kind="skew", n=5, t=4, R=(2,), p=1, q=2, d=7)
    )
    assert rep.verdict == "EQUAL"
    assert calls == []


# the truncation cases of the linear benchmark workload
LINEAR_TRUNCATIONS = [
    dict(case="truncation-3x4-t2-a2-d3", check="truncation", m=3, n=4, t=2, C=(2,), p=1, q=2, d=3),
    dict(
        case="truncation-skew6-t4-R3-d7", check="truncation", kind="skew",
        n=6, t=4, R=(3,), p=1, q=2, d=7,
    ),
]


def test_equal_truncations_run_no_elimination(monkeypatch):
    # the filtered generators are the claimed intersection, and membership
    # and the Hilbert series certify it
    calls = _count_intersections(monkeypatch)
    specs = load_suite_config(str(ROOT / "suites" / "acceptance.json"))
    specs = [mk(**kw) for kw in LINEAR_TRUNCATIONS] + [s for s in specs if s.check == "truncation"]
    assert len(specs) == 5
    for spec in specs:
        assert run_case(spec).verdict == "EQUAL", spec.case
        assert calls == [], spec.case


def _truncation_sides(spec, d):
    """The filtered generators of degree <= d and ``base ∩ extra`` by
    elimination, rebuilt for a truncation case."""
    from detkit.detideals import (
        block_component,
        skew_block_grading,
        truncated_ideal,
        truncation_rank,
    )

    ms = MatrixSpec(spec.kind, spec.rows, spec.n)
    ring = matrix_ring(ms, field_from_name(spec.field), order=spec.order)
    base = constrained_ideal(ring, ms, spec.t)
    grading = skew_block_grading(ms, spec.R[0], spec.p, spec.q)
    _, extra = block_component(ring, ms, truncation_rank(spec.t, spec.p, spec.q, d), spec.R[0])
    return truncated_ideal(base, grading, d), intersect_all(ring, [base, extra])


def test_failed_truncation_names_a_separating_element(monkeypatch):
    # truncation_rank gives 2 here, so the extra component is the even-r
    # Pfaffian one, z[1,2] alone, and the filtered 4-Pfaffian of rows 1..4
    # lies outside base ∩ extra
    calls = _count_intersections(monkeypatch)
    spec = mk("ts6", check="truncation", kind="skew", n=5, t=4, R=(2,), p=1, q=2, d=6)
    rep = run_case(spec)
    assert calls == ["ideal_intersect"]
    assert rep.verdict == "NOT_EQUAL"
    assert rep.stats == {"lhs_gens": 3, "rhs_gb_size": 5}
    assert rep.reason == (
        "lhs basis element not in rhs: z[1,4]*z[2,3] + 32002*z[1,3]*z[2,4] + z[1,2]*z[3,4]"
    )
    head, _, text = rep.reason.partition(": ")
    side, other = head.split(" basis element not in ")
    filtered, rhs = _truncation_sides(spec, spec.d)
    sides = {"lhs": filtered, "rhs": rhs}
    named = [g for g in sides[side].groebner() if str(g) == text]
    assert len(named) == 1
    assert not ideal_member(named[0], sides[other])


def test_truncation_names_a_graded_reference_mismatch(monkeypatch):
    # a reference built one degree short misses the filtered generators of
    # degree d, while the intersection still certifies the filtered ideal;
    # the reference equals the filter at d - 1
    from detkit import harness

    real = harness.truncated_ideal_graded
    monkeypatch.setattr(harness, "truncated_ideal_graded", lambda I, g, d: real(I, g, d - 1))
    spec = mk("ts7", check="truncation", kind="skew", n=5, t=4, R=(2,), p=1, q=2, d=7)
    rep = run_case(spec)
    assert rep.verdict == "NOT_EQUAL"
    side, _, text = rep.reason.partition(" basis element not in graded: ")
    assert side == "lhs"
    filtered, _ = _truncation_sides(spec, spec.d)
    short, _ = _truncation_sides(spec, spec.d - 1)
    named = [g for g in filtered.groebner() if str(g) == text]
    assert len(named) == 1
    assert not ideal_member(named[0], short)


# -- irredundancy --------------------------------------------------------------------


def test_hypotheses_checker():
    good = mk("h1", check="irredundancy", m=4, n=3, t=2, R=(2,), r=(1,))
    assert all(check_irredundancy_hypotheses(good).values())
    # r equal to t breaks the strict chain of counts
    v1 = mk("h2", check="irredundancy", m=3, n=3, t=2, R=(2,), r=(2,))
    flags = check_irredundancy_hypotheses(v1)
    assert not flags["mins_strict"]
    # cutoff minus count leaves no room on a 3x3
    v2 = mk("h3", check="irredundancy", m=3, n=3, t=2, R=(2,), r=(1,))
    assert not check_irredundancy_hypotheses(v2)["slack_strict"]
    # equal slacks across two blocks
    v3 = mk("h4", check="irredundancy", m=4, n=3, t=3, R=(1, 2), r=(1, 2))
    assert not check_irredundancy_hypotheses(v3)["slack_strict"]
    # column side participates for generic
    v4 = mk("h5", check="irredundancy", m=4, n=3, t=2, R=(2,), r=(1,), C=(2,), c=(2,))
    assert not check_irredundancy_hypotheses(v4)["mins_strict"]


def test_irredundancy_good_case():
    rep = run_case(mk("i1", check="irredundancy", m=4, n=3, t=2, R=(2,), r=(1,)))
    assert rep.verdict == "EQUAL"
    assert all(c["irredundant"] for c in rep.components)
    assert len(rep.witnesses) == 2
    for w in rep.witnesses:
        assert set(w["memberships"]) == {"minors(2)", "minors(1,rows<=2)"}
    assert rep.stats["rhs_gb_size"] >= 1


def test_irredundancy_violation_skips_with_probes():
    rep = run_case(mk("v1", check="irredundancy", m=3, n=3, t=2, R=(2,), r=(2,)))
    assert rep.verdict == "SKIPPED"
    assert "mins_strict" in rep.reason
    flags = {c["name"]: c["irredundant"] for c in rep.components}
    assert flags["minors(2)"] is False  # the size component adds nothing here
    rep2 = run_case(mk("v2", check="irredundancy", m=3, n=3, t=2, R=(2,), r=(1,)))
    assert rep2.verdict == "SKIPPED"
    assert "slack_strict" in rep2.reason
    flags2 = {c["name"]: c["irredundant"] for c in rep2.components}
    assert flags2["minors(1,rows<=2)"] is False


def test_irredundancy_size_one_block_edge():
    # stated conditions hold, yet the full-size component is swallowed by an
    # odd-count block one step below it; the probes must catch this
    rep = run_case(mk("edge", check="irredundancy", kind="skew", n=5, t=2,
                      R=(2,), r=(1,)))
    assert all(check_irredundancy_hypotheses(
        mk("edge2", check="irredundancy", kind="skew", n=5, t=2, R=(2,), r=(1,))
    ).values())
    assert rep.verdict == "NOT_EQUAL"
    assert "pfaffians(2)" in rep.reason


def test_irredundancy_reuses_the_component_bases(monkeypatch):
    # one basis per component and the claim's basis certify the full
    # intersection, and each witness proves its component with the
    # component bases alone.  The Pfaffian claim is refused by membership,
    # so that case runs one elimination in place of the claim's basis
    from detkit import groebner

    real = groebner._basis_rows
    runs = []

    def counting(*args):
        runs.append(1)
        return real(*args)

    monkeypatch.setattr(groebner, "_basis_rows", counting)
    calls = _count_intersections(monkeypatch)
    specs = load_suite_config(str(ROOT / "suites" / "acceptance.json"))
    golden = json.loads((ROOT / "tests" / "golden" / "acceptance-no-timing.json").read_text())
    recorded = {c["case"]: c for c in golden["cases"]}
    expected = {
        "irredundancy-4x3-t2-R2-r1": (3, 0),
        "irredundancy-sym4-t2-R2-r1": (3, 0),
        "irredundancy-pfaff6-t4-R2-r2": (3, 1),
    }
    cases = [s for s in specs if s.check == "irredundancy"]
    assert sorted(s.case for s in cases) == sorted(expected)
    for spec in cases:
        runs.clear()
        calls.clear()
        assert run_case(spec).to_dict(include_timing=False) == recorded[spec.case]
        assert (len(runs), len(calls)) == expected[spec.case], spec.case


def test_irredundancy_witnesses_replace_the_drop_one_intersections(monkeypatch):
    # three components, each proved by its witness: the full intersection is
    # certified against its claim and no drop-one intersection runs
    calls = _count_intersections(monkeypatch)
    rep = run_case(mk("w3", check="irredundancy", m=5, n=4, t=3, R=(1, 3), r=(1, 2)))
    assert rep.verdict == "EQUAL"
    assert [c["irredundant"] for c in rep.components] == [True, True, True]
    assert len(rep.witnesses) == 3
    assert rep.stats == {"lhs_gens": 92, "rhs_gb_size": 92}
    assert calls == []


def test_irredundancy_probes_a_component_its_witness_does_not_prove(monkeypatch):
    # a size witness inside both components proves nothing: that component
    # alone gets its drop-one intersection, which still finds it irredundant
    from detkit import harness
    from detkit.detideals import generator

    real_witness, real_intersect = harness._witness_for, harness.intersect_all
    folds = []

    def inside_both(spec, ms, ring, i):
        if i == 0:
            ix, f = generator(ring, ms, (1, 2), (1, 2))
            return str(ix), f
        return real_witness(spec, ms, ring, i)

    def counting(ring, handles, expect=()):
        folds.append(len(handles))
        return real_intersect(ring, handles, expect)

    monkeypatch.setattr(harness, "_witness_for", inside_both)
    monkeypatch.setattr(harness, "intersect_all", counting)
    rep = run_case(mk("wbad", check="irredundancy", m=4, n=3, t=2, R=(2,), r=(1,)))
    assert folds == [2, 1]  # the full intersection, then minors(2) dropped
    assert rep.witnesses[0]["memberships"] == {"minors(2)": True, "minors(1,rows<=2)": True}
    assert [c["irredundant"] for c in rep.components] == [True, True]
    assert rep.verdict == "NOT_EQUAL"
    assert rep.reason == "witness memberships disagree with drop-one probes"


def test_irredundancy_unit_component_counts_the_reduced_basis():
    # r = 0 makes the block component the unit ideal; lhs_gens counts the
    # reduced basis of the intersection, not the size component's generators
    rep = run_case(mk("unit", check="irredundancy", kind="symmetric", n=4, t=2, R=(2,), r=(0,)))
    assert rep.stats == {"lhs_gens": 20, "rhs_gb_size": 20}


def test_irredundancy_pfaffian_good():
    rep = run_case(mk("ip", check="irredundancy", kind="skew", n=6, t=4,
                      R=(2,), r=(2,)))
    assert rep.verdict == "EQUAL"
    assert all(c["irredundant"] for c in rep.components)


# -- heights and asl -----------------------------------------------------------------


def test_heights_cases():
    rep = run_case(mk("hh", check="heights", kind="skew", n=5, t=4))
    assert rep.verdict == "EQUAL" and rep.height == 3
    rep2 = run_case(mk("hh2", check="heights", kind="skew", n=4, t=2))
    assert rep2.verdict == "EQUAL" and rep2.height == 6


def test_heights_budget_skip_in_dimension_search(monkeypatch):
    # the Pfaffians' basis run reads the Hilbert numerator itself, to check
    # their series: a clock that passes the deadline once that reading
    # starts skips the case before the basis is done
    from detkit import detideals, groebner

    real_clock, real_numerator = groebner.monotonic, groebner._lead_numerator
    started = []

    def numerator_then_expire(*args):
        started.append(None)
        return real_numerator(*args)

    monkeypatch.setattr(groebner, "_lead_numerator", numerator_then_expire)
    monkeypatch.setattr(groebner, "monotonic", lambda: float("inf") if started else real_clock())
    rep = run_case(mk("hb", check="heights", kind="skew", n=6, t=4))
    assert len(started) == 1
    assert rep.verdict == "SKIPPED" and rep.reason == "budget exceeded"
    assert rep.stats == {"lhs_gens": 15, "rhs_gb_size": None}
    assert rep.height is None
    monkeypatch.undo()

    # a series that misses leaves the run without a series: the basis is
    # done when the clock passes the deadline, so the skip comes from the
    # Hilbert numerator and the basis stats stay
    monkeypatch.setattr(detideals, "determinantal_numerator", lambda *shape: (1,))
    done = expire_after_basis(monkeypatch)
    rep = run_case(mk("hb", check="heights", kind="skew", n=6, t=4))
    assert len(done) == 1
    assert rep.verdict == "SKIPPED" and rep.reason == "budget exceeded"
    assert rep.stats == {"lhs_gens": 15, "rhs_gb_size": 15}
    assert rep.height is None


def test_asl_cases():
    rep = run_case(mk("a1", check="asl", m=2, n=2, d=2))
    assert rep.verdict == "EQUAL", rep.reason
    assert rep.stats["lhs_gens"] == 15
    rep2 = run_case(mk("a2", check="asl", m=2, n=3, d=2))
    assert rep2.verdict == "EQUAL", rep2.reason
    assert rep2.stats["lhs_gens"] == 28


def test_asl_failure_reasons(monkeypatch):
    # a chain list with one product missing or one repeated must name the
    # count, the dependence and each pair that no longer straightens, in
    # that order
    from detkit import harness

    real = harness.standard_products
    monkeypatch.setattr(harness, "standard_products", lambda m, n, d: real(m, n, d)[:9] + real(m, n, d)[10:])
    rep = run_case(mk("a5", check="asl", m=2, n=3, d=2))
    assert rep.verdict == "NOT_EQUAL"
    assert rep.reason == (
        "chain count 27 != dim 28 of the <=d slice; [1|2] * [2|1] does not straighten"
    )
    monkeypatch.setattr(harness, "standard_products", lambda m, n, d: real(m, n, d) + real(m, n, d)[7:8])
    rep = run_case(mk("a6", check="asl", m=2, n=3, d=2))
    assert rep.reason == (
        "chain count 29 != dim 28 of the <=d slice; chain products are linearly dependent"
    )


def test_asl_budget_stops_the_elimination(monkeypatch):
    # the budget bounds the linear algebra, not only the product build: a
    # clock that passes the deadline inside the first elimination ends the
    # case there, with no later degree eliminated
    started = expire_in_elimination(monkeypatch)
    rep = run_case(mk("a4", check="asl", m=2, n=3, d=2))
    assert len(started) == 1
    assert rep.verdict == "SKIPPED" and rep.reason == "budget exceeded"
    assert rep.stats["lhs_gens"] == 28


def test_asl_budget_skip():
    rep = run_case(mk("a3", check="asl", m=2, n=3, d=2, budget_sec=1e-6))
    assert rep.verdict == "SKIPPED"
    assert rep.reason == "budget exceeded"
    assert rep.stats["lhs_gens"] == 28


# -- suites, reports, determinism ------------------------------------------------------


def _tiny_specs():
    return [
        mk("one", m=2, n=2, t=2),
        mk("two", kind="symmetric", n=2, t=2),
        mk("three", check="heights", kind="skew", n=4, t=4),
    ]


def test_suite_document_layout_and_determinism():
    reports1, ok1 = run_suite(_tiny_specs())
    reports2, ok2 = run_suite(_tiny_specs())
    assert ok1 and ok2
    doc1 = suite_document(reports1, include_timing=False)
    doc2 = suite_document(reports2, include_timing=False)
    assert json.dumps(doc1) == json.dumps(doc2)
    assert doc1["summary"] == {
        "total": 3, "equal": 3, "not_equal": 0, "skipped": 0, "ok": True,
    }
    case0 = doc1["cases"][0]
    assert list(case0) == [
        "case", "params", "field", "order", "verdict", "reason",
        "components", "witnesses", "stats", "height", "doset_generators_equal",
    ]
    timed = suite_document(reports1, include_timing=True)
    assert "millis" in timed["cases"][0]


def test_suite_flags_failures():
    specs = [mk("bad", m=2, n=2, t=2, R=(1,), r=(1,), mutate="drop-generator")]
    reports, ok = run_suite(specs)
    assert not ok
    assert reports[0].verdict == "NOT_EQUAL"


def test_load_suite_config(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(
        json.dumps(
            {
                "budget_sec": 5,
                "cases": [
                    {"case": "a", "m": 2, "n": 2, "t": 2},
                    {"case": "b", "kind": "skew", "check": "heights", "n": 4, "t": 2,
                     "budget_sec": 9},
                ],
            }
        )
    )
    specs = load_suite_config(str(path))
    assert [s.case for s in specs] == ["a", "b"]
    assert specs[0].budget_sec == 5
    assert specs[1].budget_sec == 9

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(CaseError, match="line 1"):
        load_suite_config(str(bad))

    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps({"cases": [
        {"case": "a", "m": 2, "n": 2, "t": 2},
        {"case": "a", "m": 2, "n": 2, "t": 2},
    ]}))
    with pytest.raises(CaseError, match="duplicate"):
        load_suite_config(str(dup))

    with pytest.raises(CaseError, match="cases"):
        nolist = tmp_path / "nolist.json"
        nolist.write_text(json.dumps({"cases": 3}))
        load_suite_config(str(nolist))
    with pytest.raises(CaseError):
        load_suite_config(str(tmp_path / "missing.json"))


def test_report_params_echo():
    rep = run_case(mk("e1", m=3, n=3, t=2, R=(1,), r=(1,)))
    assert rep.params["m"] == 3
    assert rep.params["R"] == [1]
    assert rep.params["check"] == "decomposition"
    assert rep.field == "fp:32003"
    assert rep.order == "grevlex"


def test_recursive_enumerations_leave_no_cycle():
    # each recursion is a module function, not a closure that reaches itself
    # through its own cell, so a call leaves nothing for the cyclic collector
    # and its output is freed as soon as it is dropped
    grading = GradingSpec(VariableTable(["a", "b", "c"]), (1, 2, 3))
    gc.collect()
    gc.disable()
    try:
        assert len(standard_products(3, 3, 4)) == 715
        assert len(monomials_of_weighted_degree(grading, 6)) == 7
        assert len(list(partitions(6, 3))) == 7
    finally:
        gc.enable()
    assert gc.collect() == 0


def test_cases_leave_no_cycle():
    # a case's rings, handles and bases are freed by reference counting as
    # soon as its report is built: a basis keeps its run's divisor index,
    # which holds the run's elements but not the basis, and a ring's
    # generator table holds terms, not polynomials.  Checked with the cycle
    # collector off, after each acceptance case and each benchmark
    # decomposition case
    specs = load_suite_config(str(ROOT / "suites" / "acceptance.json")) + [
        mk("minors-5x5-t3-R23-r12", m=5, n=5, t=3, R=(2, 3), r=(1, 2)),
        mk("pfaffian-8-t4-R2-r1", kind="skew", n=8, t=4, R=(2,), r=(1,)),
        mk("symmetric-5-t3-R2-r1", kind="symmetric", n=5, t=3, R=(2,), r=(1,)),
        mk("pfaffian-7-t4-R3-r2", kind="skew", n=7, t=4, R=(3,), r=(2,)),
    ]
    assert len(specs) == 22
    gc.collect()
    for spec in specs:
        gc.disable()
        try:
            run_case(spec)
        finally:
            gc.enable()
        assert gc.collect() == 0, spec.case
