"""Case runner: structural checks wired to the exact engine.

A :class:`CaseSpec` names one verification job.  Five checks exist:

- ``decomposition``: the ideal generated by block-constrained minors or
  Pfaffians equals the intersection of the per-block component ideals.
  The ideals constrained by the first ``i`` blocks are the expected
  results of the steps of :func:`~detkit.groebner.intersect_all`, which
  certifies the last with no elimination when it lies in every component
  by membership and its leads divide every lcm of a lead of each
  component; then no other claim is read.  Refused, it is tried as a step
  from the intersection of the components before it, found the same way,
  and a step that is refused too is eliminated alone.  The verdict comes
  from comparing reduced bases.
- ``truncation``: dropping generators above a weighted-degree bound yields
  the honest degree truncation, and that truncation matches an intersection
  with one extra block component.
- ``irredundancy``: no component of the intersection can be dropped.  A
  closed-form witness inside every other component but outside one proves
  that one irredundant.  A component no witness proves gets its drop-one
  intersection, and a witness whose memberships miss fails the verdict.
- ``heights``: the Pfaffian ideal has the expected codimension.
- ``asl``: products of minors indexed by poset chains form a basis in low
  degree, and products of incomparable pairs straighten into such chains.

The three checks that intersect do so through ``intersect_all`` and pass
the ideals they claim, so they eliminate only a step whose claim is refused
both over all its components and as a step.

:func:`run_case` is the only runner.  It validates the spec, starts the
clock, builds the ring and an empty :class:`Report`, and runs the check
registered for ``spec.check`` on them inside a ``deadline_scope``.  A check
fills the report in place (components, stats, witnesses, height) and settles
the verdict last.  When the deadline passes, the engine raises
:class:`BudgetExceeded`; the runner then marks the report ``SKIPPED``
("budget exceeded") and keeps whatever the check had filled in so far.
The one exception is a decomposition or truncation already shown
``NOT_EQUAL``: its separator search may run out of budget, and the verdict
stays.

Reports serialize to a stable JSON layout; the wall-clock field ``millis``
is the only nondeterministic entry and can be excluded.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, fields
from itertools import combinations
from math import comb
from time import monotonic
from typing import Dict, List, Optional, Sequence, Tuple

from .combinat import MinorIndex, minor_leq, minors_universe
from .detideals import (
    MatrixSpec,
    block_component,
    check_blocks,
    column_grading,
    components,
    constrained_ideal,
    constrained_symmetric_ideal,
    generator,
    matrix_ring,
    minor_poly,
    skew_block_grading,
    truncated_ideal,
    truncated_ideal_graded,
    truncation_rank,
)
from .groebner import (
    BudgetExceeded,
    IdealHandle,
    _check_deadline,
    deadline_scope,
    ideal_equal,
    ideal_height,
    ideal_member,
    intersect_all,
)
from .linalg import solve_columns
from .poly import field_from_name

__all__ = [
    "CaseError",
    "CaseSpec",
    "Report",
    "run_case",
    "run_suite",
    "suite_document",
    "load_suite_config",
]

KINDS = ("generic", "symmetric", "skew")
MUTATIONS = ("drop-generator", "flip-block")
SHAPE = ("m", "n", "t", "R", "r", "C", "c")
# the size, block and weight fields each check reads; truncation has its
# own rule in CaseSpec.validate
READS = {
    "decomposition": SHAPE,
    "irredundancy": SHAPE,
    "heights": ("n", "t"),
    "asl": ("m", "n", "d"),
}


class CaseError(ValueError):
    """A case specification that cannot be run."""


@dataclass
class CaseSpec:
    case: str
    check: str = "decomposition"
    kind: str = "generic"
    m: Optional[int] = None
    n: Optional[int] = None
    t: Optional[int] = None
    R: Tuple[int, ...] = ()
    r: Tuple[int, ...] = ()
    C: Tuple[int, ...] = ()
    c: Tuple[int, ...] = ()
    p: Optional[int] = None
    q: Optional[int] = None
    d: Optional[int] = None
    field: str = "fp:32003"
    order: str = "grevlex"
    budget_sec: float = 60.0
    mutate: Optional[str] = None

    @classmethod
    def from_dict(cls, doc: dict, where: str = "case") -> "CaseSpec":
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise CaseError(f"{where}: unknown keys {sorted(unknown)}")
        # JSON lists become tuples; a missing id reads as empty, which
        # validate rejects
        kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()}
        spec = cls(**{"case": "", **kwargs})
        spec.validate(where)
        return spec

    # -- validation --------------------------------------------------------

    def _need(self, where: str, **named):
        for name, val in named.items():
            if val is None:
                raise CaseError(f"{where}.{name}: required for check={self.check!r}")

    def validate(self, where: str = "case") -> None:
        if not self.case or not isinstance(self.case, str):
            raise CaseError(f"{where}.case: nonempty string required")
        for name in ("check", "kind", "field", "order"):
            if not isinstance(getattr(self, name), str):
                raise CaseError(f"{where}.{name}: expected a string")
        for name in ("m", "n", "t", "p", "q", "d"):
            val = getattr(self, name)
            if val is not None and type(val) is not int:
                raise CaseError(f"{where}.{name}: expected an integer")
        for name in ("R", "r", "C", "c"):
            val = getattr(self, name)
            if type(val) is not tuple or any(type(x) is not int for x in val):
                raise CaseError(f"{where}.{name}: expected a list of integers")
        # exact types keep bools out; NaN fails every comparison, and a NaN
        # deadline would never pass
        budget = self.budget_sec
        if type(budget) not in (int, float) or not 0 < budget <= sys.float_info.max:
            raise CaseError(f"{where}.budget_sec: must be a positive finite number")
        if self.check not in CHECKS:
            raise CaseError(f"{where}.check: must be one of {tuple(CHECKS)}")
        if self.kind not in KINDS:
            raise CaseError(f"{where}.kind: must be one of {KINDS}")
        if self.kind != "generic" and self.m not in (None, self.n):
            raise CaseError(f"{where}.m: a square shape takes only n")
        if self.mutate is not None:
            if self.mutate not in MUTATIONS:
                raise CaseError(f"{where}.mutate: must be one of {MUTATIONS}")
            if self.check != "decomposition":
                raise CaseError(f"{where}.mutate: only decomposition cases mutate")
        try:
            field_from_name(self.field)
        except ValueError as e:
            raise CaseError(f"{where}.field: {e}") from None
        if self.order not in ("grevlex", "lex"):
            raise CaseError(f"{where}.order: must be 'grevlex' or 'lex'")

        if self.check in ("decomposition", "irredundancy"):
            self._validate_shape(where)
        elif self.check == "truncation":
            if self.kind == "symmetric":
                raise CaseError(f"{where}.kind: no truncation for symmetric")
            self._validate_size(where)
            self._need(where, p=self.p, q=self.q, d=self.d)
            if not 0 < self.p < self.q:
                raise CaseError(f"{where}.p: weights must satisfy 0 < p < q")
            name, axis = ("C", "column") if self.kind == "generic" else ("R", "row")
            split = getattr(self, name)
            if len(split) != 1 or not 0 <= split[0] <= self.n:
                raise CaseError(f"{where}.{name}: one {axis} split in 0..n required")
            if len(self.R + self.r + self.C + self.c) != 1:
                raise CaseError(
                    f"{where}: truncation uses only the {name} split and p, q, d"
                )
        elif self.check == "heights":
            if self.kind != "skew":
                raise CaseError(f"{where}.kind: heights applies to skew")
            self._validate_size(where)
            if self.t > self.n:
                raise CaseError(f"{where}.t: even size in 2..n required")
        elif self.check == "asl":
            if self.kind != "generic":
                raise CaseError(f"{where}.kind: asl applies to generic")
            self._need(where, m=self.m, n=self.n, d=self.d)
            if self.m < 1 or self.n < 1 or self.d < 1:
                raise CaseError(f"{where}: m, n, d must be positive")
        for name in (*SHAPE, "p", "q", "d"):
            unread = self.check in READS and name not in READS[self.check]
            if unread and getattr(self, name) not in (None, ()):
                raise CaseError(f"{where}.{name}: not used by check={self.check}")

    def _validate_size(self, where: str) -> None:
        """Dimensions and generator size: m (generic only), n and t, with
        n >= 2 and an even t on the skew shape."""
        if self.kind == "generic":
            self._need(where, m=self.m)
        self._need(where, n=self.n, t=self.t)
        if self.rows < 1 or self.n < 1:
            raise CaseError(f"{where}.n: dimensions must be positive")
        if self.kind == "skew":
            if self.n < 2:
                raise CaseError(f"{where}.n: need n >= 2")
            if self.t % 2 or self.t < 2:
                raise CaseError(f"{where}.t: even size >= 2 required for skew")
        elif self.t < 1:
            raise CaseError(f"{where}.t: must be positive")

    def _validate_shape(self, where: str) -> None:
        self._validate_size(where)
        if self.kind != "generic" and (self.C or self.c):
            raise CaseError(f"{where}.C: column blocks are generic-only")
        ms = MatrixSpec(self.kind, self.rows, self.n)
        try:
            check_blocks(ms, self.R, self.r, self.C, self.c)
        except ValueError as e:
            raise CaseError(f"{where}.{e}") from None

    # -- helpers ------------------------------------------------------------

    @property
    def rows(self) -> Optional[int]:
        """Row count: ``m`` on the generic shape, ``n`` on the square ones."""
        return self.m if self.kind == "generic" else self.n

    def params_dict(self) -> dict:
        return {
            "check": self.check,
            "kind": self.kind,
            "m": self.rows,
            "n": self.n,
            "t": self.t,
            "R": list(self.R),
            "r": list(self.r),
            "C": list(self.C),
            "c": list(self.c),
            "p": self.p,
            "q": self.q,
            "d": self.d,
            "mutate": self.mutate,
        }


@dataclass
class Report:
    case: str
    params: dict
    field: str
    order: str
    verdict: str
    reason: Optional[str]
    components: List[dict]
    witnesses: List[dict]
    stats: dict
    height: Optional[int]
    doset_generators_equal: Optional[bool]
    millis: int

    def to_dict(self, include_timing: bool = True) -> dict:
        doc = asdict(self)
        if not include_timing:
            del doc["millis"]
        return doc

    @property
    def failed(self) -> bool:
        """A failed check: NOT_EQUAL, or unequal symmetric generator lists."""
        return self.verdict == "NOT_EQUAL" or self.doset_generators_equal is False

    def settle(self, reason: Optional[str]) -> None:
        """Set the final verdict: ``EQUAL`` without a reason, else ``NOT_EQUAL``."""
        self.verdict = "NOT_EQUAL" if reason else "EQUAL"
        self.reason = reason or None


def _flip_blocks(spec: CaseSpec) -> Tuple[tuple, tuple]:
    """Bump the first usable block cutoff by one; a mutation canary."""
    R, C = spec.R, spec.C
    if R:
        bumped = R[0] + 1
        if bumped <= spec.rows and (len(R) < 2 or bumped < R[1]):
            return (bumped,) + R[1:], C
    if C:
        bumped = C[0] + 1
        if bumped <= spec.n and (len(C) < 2 or bumped < C[1]):
            return R, (bumped,) + C[1:]
    raise CaseError(f"{spec.case}: flip-block has no room to move a cutoff")


# ---------------------------------------------------------------------------
# checks: each fills ``report`` in place and settles it last


def _check_decomposition(spec: CaseSpec, ms, ring, report: Report) -> None:
    lhs = full = constrained_ideal(ring, ms, spec.t, spec.R, spec.r, spec.C, spec.c)
    if spec.mutate == "drop-generator":
        if not lhs.gens:
            raise CaseError(f"{spec.case}: no generator to drop")
        lhs = IdealHandle(ring, lhs.gens[1:])
    report.stats["lhs_gens"] = len(lhs.gens)
    R, C, last = spec.R, spec.C, full
    if spec.mutate == "flip-block":
        (R, C), last = _flip_blocks(spec), None
    _, rhs = _intersect_components(spec, ms, ring, report, R, C, last)
    if spec.kind == "symmetric":
        doset_lhs = constrained_symmetric_ideal(
            ring, ms, spec.t, R=spec.R, r=spec.r, doset_only=True
        )
        # the doset generators are some of full's, so full's leads may cover
        # their basis run (see groebner.buchberger's cover)
        doset_lhs.groebner(full.groebner().lead_masks())
        report.doset_generators_equal = ideal_equal(lhs, doset_lhs)
    report.settle(_separating_element(lhs, ("rhs", rhs)))


def _intersect_components(spec: CaseSpec, ms, ring, report: Report, R, C, last):
    """The components over ``R``/``C``, listed in ``report``, and their
    intersection under the claims of :func:`_prefix_ideals`, whose reduced
    basis size is ``rhs_gb_size``."""
    comps = components(ring, ms, spec.t, R, spec.r, C, spec.c)
    report.components = [{"name": name, "irredundant": None} for name, _ in comps]
    claims = _prefix_ideals(ring, ms, spec, R, C, last)
    rhs = intersect_all(ring, [h for _, h in comps], claims)
    report.stats["rhs_gb_size"] = len(rhs.groebner())
    return comps, rhs


def _prefix_ideals(ring, ms, spec: CaseSpec, R, C, last) -> List[IdealHandle]:
    """``K_1..K_k``: ``K_i`` is the constrained ideal over the first ``i``
    blocks ``R``/``C``, row blocks first, and the expected intersection of
    the first ``i + 1`` components.  ``last``, when given, is ``K_k``
    already built, and any ``K_i`` with its generators is ``last`` itself,
    so one basis serves both."""
    k = len(R) + len(C)
    out = []
    for i in range(1, k + 1):
        if i == k and last is not None:
            step = last
        else:
            j = max(0, i - len(R))
            step = constrained_ideal(ring, ms, spec.t, R[:i], spec.r[:i], C[:j], spec.c[:j])
            if last is not None and step.gens == last.gens:
                step = last
        out.append(step)
    return out


def _separating_element(lhs: IdealHandle, *others: Tuple[str, IdealHandle]) -> Optional[str]:
    """None when ``lhs`` equals each ``(name, ideal)`` of ``others``.  For
    the first that differs, a reason naming a reduced-basis element of one
    side outside the other, which unequal ideals always have, the named
    side searched first.  The bases already differ, so a budget that runs
    out during the search gives a reason that says so."""
    for name, rhs in others:
        if ideal_equal(lhs, rhs):
            continue
        try:
            for side, I, other, J in ((name, rhs, "lhs", lhs), ("lhs", lhs, name, rhs)):
                for g in I.groebner():
                    if not ideal_member(g, J):
                        return f"{side} basis element not in {other}: {g}"
        except BudgetExceeded:
            return "separating element not computed: budget exceeded"
        raise RuntimeError("unequal ideals without a separating basis element")
    return None


def _check_truncation(spec: CaseSpec, ms, ring, report: Report) -> None:
    rk = truncation_rank(spec.t, spec.p, spec.q, spec.d)
    if spec.kind == "generic":
        axis, cut = "cols", spec.C[0]
        grading = column_grading(ms, cut, spec.p, spec.q)
    else:
        axis, cut = "rows", spec.R[0]
        grading = skew_block_grading(ms, cut, spec.p, spec.q)
    base = constrained_ideal(ring, ms, spec.t)
    extra = block_component(ring, ms, rk, cut, axis)
    filtered = truncated_ideal(base, grading, spec.d)
    report.components = [
        {"name": "base", "irredundant": None},
        {"name": extra[0], "irredundant": None},
    ]
    report.stats["lhs_gens"] = len(filtered.gens)
    graded = truncated_ideal_graded(base, grading, spec.d)
    rhs = intersect_all(ring, [base, extra[1]], [filtered])
    report.stats["rhs_gb_size"] = len(rhs.groebner())
    report.settle(_separating_element(filtered, ("rhs", rhs), ("graded", graded)))


def check_irredundancy_hypotheses(spec: CaseSpec) -> Dict[str, bool]:
    """The four stated conditions, each over every row (and column) block.

    blocks_strict: cutoffs strictly increase and start at 1 or later.
    mins_strict: counts strictly increase, start at 1 or more, and stay
    below the generator size.
    mins_bounded: each count fits inside its block.
    slack_strict: cutoff-minus-count strictly increases and leaves room for
    a full-size generator avoiding the block remainder.
    """
    groups = ((spec.R, spec.r, spec.rows), (spec.C, spec.c, spec.n))
    size = spec.t
    out = {
        "blocks_strict": True,
        "mins_strict": True,
        "mins_bounded": True,
        "slack_strict": True,
    }
    for cuts, needs, limit in groups:
        if not cuts:
            continue
        if not all(a < b for a, b in zip(cuts, cuts[1:])) or cuts[0] < 1:
            out["blocks_strict"] = False
        if (
            not all(a < b for a, b in zip(needs, needs[1:]))
            or needs[0] < 1
            or needs[-1] >= size
        ):
            out["mins_strict"] = False
        if any(need > cut for cut, need in zip(cuts, needs)):
            out["mins_bounded"] = False
        slacks = [cut - need for cut, need in zip(cuts, needs)]
        if not all(a < b for a, b in zip(slacks, slacks[1:])) or (
            slacks and slacks[-1] >= limit - size
        ):
            out["slack_strict"] = False
    return out


def _block_escape(t: int, cut: int, need: int, limit: int):
    """t indices with only ``need - 1`` inside the first ``cut``, the rest
    just past it; None when they do not fit as t increasing indices."""
    if need < 1:
        return None
    top = t + cut - need + 1
    if top > limit:
        return None
    ix = tuple(range(1, need)) + tuple(range(cut + 1, top + 1))
    if len(ix) != t or any(a >= b for a, b in zip(ix, ix[1:])):
        return None
    return ix


def _witness_for(spec: CaseSpec, ms, ring, i: int):
    """Explicit element expected inside every component except the ``i``-th:
    the size component, then the row blocks, then the column blocks.

    Returns (label, polynomial) or None when the closed form does not fit
    the shape.  A Pfaffian witness uses the row list only.
    """
    t = spec.t
    full = tuple(range(1, t + 1))
    col = i - 1 - len(spec.R)
    if i == 0:
        # the corner generator one size step down; Pfaffian sizes step by 2
        step = 2 if spec.kind == "skew" else 1
        rows = cols = full[: t - step] if t - step >= step else None
    elif col < 0:
        rows = _block_escape(t, spec.R[i - 1], spec.r[i - 1], spec.rows)
        # mirrored entries put any column inside the block under symmetry, so
        # the separating minor must be principal on the shifted row set
        cols = rows if spec.kind == "symmetric" else full
    else:
        cols = _block_escape(t, spec.C[col], spec.c[col], spec.n)
        rows = full
    if rows is None or cols is None:
        return None
    ix, f = generator(ring, ms, rows, cols)
    return str(ix), f


def _check_irredundancy(spec: CaseSpec, ms, ring, report: Report) -> None:
    comps, J = _intersect_components(spec, ms, ring, report, spec.R, spec.C, None)
    report.stats["lhs_gens"] = len(J.groebner())

    # a witness in every other component but not in component i lies in the
    # drop-one intersection and not in J, so it proves i irredundant; the
    # drop-one intersection runs only for a component no witness proves
    agree = True
    for i, doc in enumerate(report.components):
        built = _witness_for(spec, ms, ring, i)
        irredundant = False
        if built is not None:
            label, w = built
            memberships = {name: ideal_member(w, h) for name, h in comps}
            report.witnesses.append({"element": label, "memberships": memberships})
            irredundant = memberships == {name: name != doc["name"] for name, _ in comps}
            agree = agree and irredundant
        if not irredundant:
            without = intersect_all(ring, [h for k, (_, h) in enumerate(comps) if k != i])
            irredundant = not ideal_equal(without, J)
        doc["irredundant"] = irredundant

    hypotheses = check_irredundancy_hypotheses(spec)
    failed = sorted(name for name, ok in hypotheses.items() if not ok)
    if failed:
        report.verdict = "SKIPPED"
        report.reason = "hypotheses not satisfied: " + ", ".join(failed)
        return
    lazy = [cd["name"] for cd in report.components if not cd["irredundant"]]
    if lazy:
        report.settle("redundant components: " + ", ".join(lazy))
    else:
        report.settle(None if agree else "witness memberships disagree with drop-one probes")


def _check_heights(spec: CaseSpec, ms, ring, report: Report) -> None:
    I = constrained_ideal(ring, ms, spec.t)
    report.stats["lhs_gens"] = len(I.gens)
    report.stats["rhs_gb_size"] = len(I.groebner())
    h = ideal_height(I)
    gap = spec.n - spec.t
    expected = (gap + 1) * (gap + 2) // 2
    report.height = h
    report.settle(None if h == expected else f"height {h}, expected {expected}")


# -- chain monomials and straightening -----------------------------------------


def standard_products(m: int, n: int, d: int) -> List[Tuple[MinorIndex, ...]]:
    """All poset chains of minor indices (repeats allowed) with total size
    at most d, each listed once in linear-extension order."""
    universe = sorted(minors_universe(m, n).elements(), key=lambda ix: (-ix.size, ix.rows, ix.cols))
    out: List[Tuple[MinorIndex, ...]] = [()]
    _extend_chains(universe, 0, d, (), out)
    return out


def _extend_chains(universe: list, start: int, room: int, acc: tuple, out: list) -> None:
    """Append to ``out`` each chain that extends ``acc`` from ``universe[start:]``
    within ``room`` more size, and then its own extensions."""
    for j in range(start, len(universe)):
        e = universe[j]
        if e.size <= room and (not acc or minor_leq(acc[-1], e)):
            out.append(acc + (e,))
            _extend_chains(universe, j, room - e.size, acc + (e,), out)


def coefficient_matrix(ring, polys: Sequence) -> Tuple[List[dict], list]:
    """Sparse coefficient rows of ``polys`` over the monomials they use.

    Returns ``(rows, monomials)``; each row maps a column index to a
    nonzero coefficient, and the columns follow ``monomials``, sorted
    greatest first by :meth:`~detkit.poly.MonomialOrder.descending`, as
    ``from_terms`` sorts terms.  The elimination takes its pivots in column
    order, so the sort sets its fill-in: columns in first-seen order cost
    the asl check more multiplications.
    """
    monos = ring.order.descending({m for f in polys for m, _ in f.terms})
    index = {m.exps: i for i, m in enumerate(monos)}
    return [{index[m.exps]: c for m, c in f.terms} for f in polys], monos


def _check_asl(spec: CaseSpec, ms, ring, report: Report) -> None:
    m, n, d = spec.m, spec.n, spec.d
    chains = standard_products(m, n, d)
    report.stats["lhs_gens"] = len(chains)
    # the one-minor chains are the minors that fit, in extension order
    universe = [ch[0] for ch in chains if len(ch) == 1]
    minors = {ix: minor_poly(ring, ms, ix) for ix in universe}
    # each chain follows the chain it extends, so its product is that
    # product times one minor; every product is homogeneous, so the slice
    # splits by degree: ``slices[deg]`` holds its chains and its pairs
    products = {(): ring.one}
    slices: Dict[int, tuple] = {}
    for ch in chains:
        _check_deadline()
        if ch:
            products[ch] = products[ch[:-1]] * minors[ch[-1]]
        slices.setdefault(sum(ix.size for ix in ch), ([], []))[0].append((ch, products[ch]))

    # straightening: an incomparable pair rewrites into chains through
    # lower-bounded leading factors
    pairs = []
    for a, b in combinations(universe, 2):
        if a.size + b.size > d or minor_leq(a, b) or minor_leq(b, a):
            continue
        _check_deadline()
        pairs.append((a, b))
        slices.setdefault(a.size + b.size, ([], []))[1].append((a, b, minors[a] * minors[b]))

    # one elimination per degree: the chain products, then the pair products
    slice_rank = 0
    solved = {}
    for deg in sorted(slices):
        basis, prods = slices[deg]
        vectors, _ = coefficient_matrix(ring, [f for _, f in basis] + [f for _, _, f in prods])
        rk, coeffs = solve_columns(vectors[: len(basis)], vectors[len(basis) :], ring.field)
        slice_rank += rk
        for (a, b, _), x in zip(prods, coeffs):
            solved[a, b] = (basis, x)

    problems = []
    # basis of the degree-<=d slice: the count matches the monomial count
    # and the products are linearly independent
    expected_dim = comb(m * n + d, d)
    if len(chains) != expected_dim:
        problems.append(
            f"chain count {len(chains)} != dim {expected_dim} of the <=d slice"
        )
    if slice_rank != len(chains):
        problems.append("chain products are linearly dependent")
    checked = 0
    for a, b in pairs:
        basis, coeffs = solved[a, b]
        if coeffs is None:
            problems.append(f"{a} * {b} does not straighten")
            continue
        for (ch, _), coeff in zip(basis, coeffs):
            if coeff == ring.field.zero:
                continue
            head = ch[0]
            if not (minor_leq(head, a) and minor_leq(head, b)):
                problems.append(
                    f"straightening of {a} * {b} uses {head} not below both"
                )
        checked += 1
    if checked == 0:
        problems.append("no incomparable pair fits the degree bound")
    report.settle("; ".join(problems))


# ---------------------------------------------------------------------------
# the runner and suites

CHECKS = {
    "decomposition": _check_decomposition,
    "truncation": _check_truncation,
    "irredundancy": _check_irredundancy,
    "heights": _check_heights,
    "asl": _check_asl,
}


def run_case(spec: CaseSpec) -> Report:
    """Run one case; the module docstring gives the contract with the checks."""
    spec.validate(spec.case)
    start = monotonic()
    ms = MatrixSpec(spec.kind, spec.rows, spec.n)
    ring = matrix_ring(ms, field_from_name(spec.field), order=spec.order)
    report = Report(
        case=spec.case,
        params=spec.params_dict(),
        field=spec.field,
        order=spec.order,
        verdict="SKIPPED",
        reason=None,
        components=[],
        witnesses=[],
        stats={"lhs_gens": None, "rhs_gb_size": None},
        height=None,
        doset_generators_equal=None,
        millis=0,
    )
    try:
        with deadline_scope(start + spec.budget_sec):
            CHECKS[spec.check](spec, ms, ring, report)
    except BudgetExceeded:
        report.verdict = "SKIPPED"
        report.reason = "budget exceeded"
    report.millis = int((monotonic() - start) * 1000)
    return report


def run_suite(specs: Sequence[CaseSpec]) -> Tuple[List[Report], bool]:
    reports = [run_case(s) for s in specs]
    return reports, not any(r.failed for r in reports)


def suite_document(reports: Sequence[Report], include_timing: bool = True) -> dict:
    counts = {"EQUAL": 0, "NOT_EQUAL": 0, "SKIPPED": 0}
    for r in reports:
        counts[r.verdict] += 1
    return {
        "cases": [r.to_dict(include_timing) for r in reports],
        "summary": {
            "total": len(reports),
            "equal": counts["EQUAL"],
            "not_equal": counts["NOT_EQUAL"],
            "skipped": counts["SKIPPED"],
            "ok": not any(r.failed for r in reports),
        },
    }


def load_suite_config(path: str) -> List[CaseSpec]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise CaseError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}")
    except UnicodeDecodeError:
        raise CaseError(f"{path}: not UTF-8 text")
    except OSError as e:
        raise CaseError(f"{path}: {e.strerror or e}")
    if not isinstance(doc, dict) or "cases" not in doc:
        raise CaseError(f"{path}: expected an object with a 'cases' list")
    cases = doc["cases"]
    if not isinstance(cases, list):
        raise CaseError(f"{path}: 'cases' must be a list")
    default_budget = doc.get("budget_sec")
    specs = []
    seen = set()
    for i, entry in enumerate(cases):
        if not isinstance(entry, dict):
            raise CaseError(f"cases[{i}]: expected an object")
        if default_budget is not None and "budget_sec" not in entry:
            entry = dict(entry, budget_sec=default_budget)
        spec = CaseSpec.from_dict(entry, where=f"cases[{i}]")
        if spec.case in seen:
            raise CaseError(f"cases[{i}].case: duplicate id {spec.case!r}")
        seen.add(spec.case)
        specs.append(spec)
    return specs
