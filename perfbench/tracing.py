"""Per-layer instruments for the detkit benchmark, applied from outside the package.

Two instruments, never active in the same pass:

- Spans time the layer entry points.  Each span records its name, the case
  it belongs to (the id of the enclosing ``run_case`` span), its parent span,
  and its start and end.  Spans stay in memory until the run writes them out.
- Counters count calls of the same entry points plus the hot ``poly``
  primitives.  Those primitives run millions of times per case, so a
  counting wrapper costs more than the work it wraps; they are never
  wrapped while spans are timed, or every self time would be inflated.

A function is replaced in every detkit namespace that binds it, not only in
the module that defines it: ``groebner`` binds the monomial primitives,
``harness`` and ``detideals`` bind ``ideal_intersect``, and so on.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

CHECKS = ("decomposition", "truncation", "irredundancy", "heights", "asl")

BUILDERS = (
    "constrained_minor_ideal",
    "constrained_symmetric_ideal",
    "constrained_pfaffian_ideal",
    "minor_components",
    "symmetric_components",
    "pfaffian_components",
    "ideal_of_minors",
    "ideal_of_pfaffians",
    "pfaffian_row_component",
    "truncated_ideal",
    "truncated_ideal_graded",
)

# (defining module, attribute, metric group); a dotted attribute is a method
SPANNED = [
    ("harness", "run_case", "harness.run_case"),
    ("groebner", "ideal_intersect", "groebner.ideal_intersect"),
    ("groebner", "buchberger", "groebner.buchberger"),
    ("groebner", "krull_dimension", "groebner.krull_dimension"),
    ("groebner", "normal_form", "groebner.normal_form"),
    ("linalg", "row_reduce", "linalg.row_reduce"),
    ("poly", "Polynomial.__mul__", "poly.Polynomial.mul"),
    ("poly", "Polynomial.__rmul__", "poly.Polynomial.mul"),
] + [("detideals", fn, "detideals.build") for fn in BUILDERS]

COUNTED = [t for t in SPANNED if t[2] != "detideals.build"] + [
    ("poly", "mono_divides", "poly.mono_divides"),
    ("poly", "mono_mul", "poly.mono_mul"),
    ("poly", "mono_lcm", "poly.mono_lcm"),
    ("poly", "mono_div", "poly.mono_div"),
    ("poly", "MonomialOrder.key", "poly.order_key"),
    ("detideals", "minor_poly", "detideals.minor_poly"),
    ("detideals", "pfaffian_poly", "detideals.pfaffian_poly"),
]

# groups whose time is reported per top-level phase of a case
PHASES = (
    "groebner.ideal_intersect",
    "groebner.buchberger",
    "groebner.krull_dimension",
    "groebner.normal_form",
    "linalg.row_reduce",
    "poly.Polynomial.mul",
    "detideals.build",
)

SPAN_METRICS = (
    [(f"{g}.s", "s") for g in (
        "groebner.ideal_intersect", "groebner.buchberger", "groebner.normal_form",
        "poly.Polynomial.mul", "linalg.row_reduce", "detideals.build",
    )]
    + [("groebner.krull_dimension.self_s", "s")]
    + [(f"harness.run_case.{c}.s", "s") for c in CHECKS]
    + [("harness.self_s", "s")]
    + [(f"share.{g}", "ratio") for g in PHASES]
    + [("share.harness.self", "ratio")]
)

COUNT_METRICS = [
    "groebner.ideal_intersect.calls",
    "groebner.buchberger.calls",
    "groebner.buchberger.basis_out",
    "groebner.krull_dimension.calls",
    "groebner.normal_form.calls",
    "poly.mono_divides.calls",
    "poly.mono_divides.hit_ratio",
    "poly.mono_mul.calls",
    "poly.mono_lcm.calls",
    "poly.mono_div.calls",
    "poly.order_key.calls",
    "poly.Polynomial.mul.calls",
    "linalg.row_reduce.calls",
    "linalg.row_reduce.cells",
    "detideals.minor_poly.calls",
    "detideals.pfaffian_poly.calls",
]


def _sites(module: str, attr: str):
    """The original object and every (namespace, name) that binds it."""
    defining = sys.modules[f"detkit.{module}"]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(defining, cls_name)
        return cls.__dict__[meth], [(cls, meth)]
    orig = getattr(defining, attr)
    sites = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "detkit" or name.startswith("detkit.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                sites.append((mod, key))
    return orig, sites


@contextmanager
def _patched(targets, make_wrapper):
    """Swap each target for ``make_wrapper(group, original)`` everywhere it is
    bound; the originals come back on exit."""
    undo = []
    try:
        for module, attr, group in targets:
            orig, sites = _sites(module, attr)
            wrapper = make_wrapper(group, attr, orig)
            for holder, name in sites:
                undo.append((holder, name, getattr(holder, name)))
                setattr(holder, name, wrapper)
        yield
    finally:
        for holder, name, orig in reversed(undo):
            setattr(holder, name, orig)


class SpanRecorder:
    """Spans as ``[name, case, parent, start, end]`` lists; ids are indexes."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, group, attr, fn):
        spans, stack = self.spans, self._stack
        name = group if group != "detideals.build" else f"{group}:{attr}"
        per_check = group == "harness.run_case"

        def wrapper(*args, **kwargs):
            sid = len(spans)
            label = f"{name}.{args[0].check}" if per_check else name
            rec = [label, stack[0] if stack else sid, stack[-1] if stack else -1,
                   perf_counter(), None]
            spans.append(rec)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()

        return wrapper

    def active(self):
        return _patched(SPANNED, self._wrap)


def _group(name: str) -> str:
    if name.startswith("harness.run_case."):
        return "harness.run_case"
    return name.split(":", 1)[0]


def _inside(spans, sid, group) -> bool:
    """Whether span ``sid`` or one of its ancestors belongs to ``group``."""
    while sid >= 0:
        if _group(spans[sid][0]) == group:
            return True
        sid = spans[sid][2]
    return False


def span_metrics(spans, factors=None) -> dict:
    """Per-layer times from one pass of spans.

    ``factors`` maps a case id to the factor that scales its wall seconds
    to the reference speed (see ``hostspeed.py``); by default 1.

    ``<group>.s`` sums the outermost spans of a group (a nested span of the
    same group is already inside its parent).  Self time is a span's duration
    minus that of its direct children.  ``share.<group>`` is the group's part
    of the time of the spans directly under ``run_case``, against all
    ``run_case`` time; ``share.harness.self`` is the rest.
    """
    factors = factors or {}
    durations = [(end - start) * factors.get(case, 1.0) for _, case, _, start, end in spans]
    child_time = [0.0] * len(spans)
    for (_, _, parent, _, _), dur in zip(spans, durations):
        if parent >= 0:
            child_time[parent] += dur
    out = {name: 0.0 for name, _ in SPAN_METRICS}
    case_total = 0.0
    for sid, (name, _, parent, _, _) in enumerate(spans):
        group = _group(name)
        dur = durations[sid]
        if group == "harness.run_case":
            case_total += dur
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + dur
            out["harness.self_s"] += dur - child_time[sid]
            continue
        if group == "groebner.krull_dimension":
            out["groebner.krull_dimension.self_s"] += dur - child_time[sid]
        elif not _inside(spans, parent, group):
            out[f"{group}.s"] += dur
        if parent >= 0 and _group(spans[parent][0]) == "harness.run_case":
            out[f"share.{group}"] += dur
    for group in PHASES:
        out[f"share.{group}"] = out[f"share.{group}"] / case_total if case_total else 0.0
    out["share.harness.self"] = out["harness.self_s"] / case_total if case_total else 0.0
    return out


class CallCounter:
    """Exact call counts; ``row_reduce`` also sums rows x cols passed in,
    ``buchberger`` the sizes of the bases it returns and ``mono_divides``
    the calls that found a divisor."""

    def __init__(self):
        self.counts = defaultdict(int)

    def _wrap(self, group, attr, fn):
        counts = self.counts
        calls = f"{group}.calls"
        if group == "poly.mono_divides":
            def wrapper(d, m):
                counts[calls] += 1
                if fn(d, m):
                    counts["poly.mono_divides.hits"] += 1
                    return True
                return False
        elif group.startswith("poly.mono_"):
            def wrapper(u, v):
                counts[calls] += 1
                return fn(u, v)
        elif group == "poly.order_key":
            def wrapper(order, m):
                counts[calls] += 1
                return fn(order, m)
        elif group == "linalg.row_reduce":
            def wrapper(rows, field):
                counts[calls] += 1
                counts["linalg.row_reduce.cells"] += len(rows) * (len(rows[0]) if rows else 0)
                return fn(rows, field)
        elif group == "groebner.buchberger":
            def wrapper(*args, **kwargs):
                counts[calls] += 1
                basis = fn(*args, **kwargs)
                counts["groebner.buchberger.basis_out"] += len(basis)
                return basis
        else:
            def wrapper(*args, **kwargs):
                counts[calls] += 1
                return fn(*args, **kwargs)
        return wrapper

    def active(self):
        return _patched(COUNTED, self._wrap)

    def metrics(self) -> dict:
        c = self.counts
        out = {name: c.get(name, 0) for name in COUNT_METRICS}
        tests = c.get("poly.mono_divides.calls", 0)
        out["poly.mono_divides.hit_ratio"] = (
            c.get("poly.mono_divides.hits", 0) / tests if tests else 0.0
        )
        return out
