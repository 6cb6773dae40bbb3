"""The detkit benchmark: fixed case lists run through ``detkit.harness.run_case``.

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seconds 15

Run from the root of a checkout; the program under test is imported from
its ``src`` directory and nowhere else.  Each workload is a frozen case list
under ``perfbench/workloads``.  The seed only permutes the case order of each
pass; every case builds its own rings, so order changes no work.  Every
report is checked against ``perfbench/reference``.

``--trace 0`` measures the end-to-end metrics: set-up time of fresh
interpreters, then passes over the case list until ``--seconds`` have gone
by.  Times are scaled to a reference host speed (see ``hostspeed.py``).  ``--trace 1`` gives the per-layer metrics from instrumented passes (see
``tracing.py``) and their overhead against untraced passes of the same run.
The last line of standard output is one JSON object with the result; a
record of the run goes to ``perfbench/results``.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed
from tracing import COUNT_METRICS, SPAN_METRICS, CallCounter, SpanRecorder, span_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("decompose", "dimension", "linear", "suite")

# One start is 45-90 ms and varies too much to stand alone.
SETUP_STARTS = 15
SETUP_CODE = (
    "import sys\n"
    "import detkit.cli\n"
    "from detkit.harness import load_suite_config\n"
    "load_suite_config(sys.argv[1])\n"
    "print(detkit.cli.__file__)\n"
)
LOAD_REPEATS = 5
MAX_PROBLEMS = 20
# medians need two samples; a decompose pass alone can outlast --seconds
MIN_PASSES = 2


class BenchError(Exception):
    """The benchmark cannot run here; nothing is measured."""


def host_info(seed: int) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg": list(os.getloadavg()),
        "seed": seed,
    }


def import_harness():
    """``detkit.harness`` from this checkout's sources, never an installed copy."""
    pkg = SRC / "detkit"
    if not (pkg / "__init__.py").is_file():
        raise BenchError(f"no detkit sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import detkit.harness

    if Path(detkit.harness.__file__).resolve().parent != pkg.resolve():
        raise BenchError(f"imported detkit from {detkit.harness.__file__}, not {pkg}")
    return detkit.harness


def measure_setup(case_path: Path, probe: HostSpeed) -> list:
    """``(start, end)`` of fresh interpreters importing the CLI and loading
    the case list, with host-speed samples between them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    cmd = [sys.executable, "-c", SETUP_CODE, str(case_path)]
    spans = []
    for i in range(SETUP_STARTS + 1):
        probe.sample()
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        t1 = perf_counter()
        if proc.returncode != 0:
            raise BenchError(f"set-up start failed: {proc.stderr.strip()[-400:]}")
        if Path(proc.stdout.strip()).resolve().parent != (SRC / "detkit").resolve():
            raise BenchError(f"set-up imported {proc.stdout.strip()}, not {SRC}")
        if i:  # the first start may compile bytecode; later ones reuse it
            spans.append((t0, t1))
    probe.sample()
    return spans


# ---------------------------------------------------------------------------
# checking reports


def mismatch(ref, got, where="report"):
    """Where ``got`` departs from ``ref``, or None.

    Every key of a reference object must be present with an equal value;
    keys only the report has are allowed, so a report may gain fields
    without losing its reference.  Lists match element by element.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return f"{where}: expected an object, got {got!r}"
        for key, val in ref.items():
            if key not in got:
                return f"{where}.{key}: missing"
            found = mismatch(val, got[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{where}: expected {ref!r}, got {got!r}"
        for i, (a, b) in enumerate(zip(ref, got)):
            found = mismatch(a, b, f"{where}[{i}]")
            if found:
                return found
        return None
    if type(ref) is not type(got) or ref != got:
        return f"{where}: expected {ref!r}, got {got!r}"
    return None


class Checker:
    """Judges each report against the recorded reference of its case.

    A known-defect case (listed with its reason in the workload file) has
    no settled right answer yet: it must keep its identity and return either
    the recorded verdict or a certified ``EQUAL``.
    """

    IDENTITY = ("case", "params", "field", "order")

    def __init__(self, refs: dict, defects: dict):
        self.refs = refs
        self.defects = defects

    def problem(self, case: str, doc, ref=None):
        ref = self.refs[case] if ref is None else ref
        if doc is None:
            return "no report"
        if case not in self.defects:
            return mismatch(ref, doc)
        for key in self.IDENTITY:
            found = mismatch(ref[key], doc.get(key), f"report.{key}")
            if found:
                return found
        if doc.get("verdict") not in (ref["verdict"], "EQUAL"):
            return f"report.verdict: expected {ref['verdict']!r} or 'EQUAL', got {doc.get('verdict')!r}"
        return None


def _leaves(doc, path=()):
    if isinstance(doc, dict) and doc:
        for key, val in doc.items():
            yield from _leaves(val, path + (key,))
    elif isinstance(doc, list) and doc:
        for i, val in enumerate(doc):
            yield from _leaves(val, path + (i,))
    else:
        yield path


def _tampered(doc, path):
    doc = copy.deepcopy(doc)
    holder = doc
    for step in path[:-1]:
        holder = holder[step]
    val = holder[path[-1]]
    if isinstance(val, bool):
        val = not val
    elif isinstance(val, (int, float)):
        val = val + 1
    elif isinstance(val, str):
        val = val + "~"
    elif val is None:
        val = 0
    else:
        val = [val]
    holder[path[-1]] = val
    return doc


def self_check(checker: Checker, docs: dict, rng: random.Random):
    """A report and a reference, each tampered at one seed-chosen leaf, must
    both be caught; returns a description of any miss."""
    case = next(c for c in sorted(docs) if c not in checker.defects)
    doc, ref = docs[case], checker.refs[case]
    path = rng.choice(list(_leaves(ref)))
    if checker.problem(case, doc) is not None:
        return f"{case}: untampered report fails its check"
    if checker.problem(case, _tampered(doc, path)) is None:
        return f"{case}: report tampered at {path} passed its check"
    if checker.problem(case, doc, _tampered(ref, path)) is None:
        return f"{case}: reference tampered at {path} passed its check"
    return None


# ---------------------------------------------------------------------------
# passes


def one_pass(harness, specs, rng=None):
    """Run every case once, in a seed-chosen order when ``rng`` is given:
    ``[(spec, start, end, doc)]``.

    ``doc`` is the deterministic report, or None when the case raised.
    """
    order = list(specs)
    if rng is not None:
        rng.shuffle(order)
    out = []
    for spec in order:
        t0 = perf_counter()
        try:
            report = harness.run_case(spec)
        except Exception:  # a raising case is a failed run, not a crash
            out.append((spec, t0, perf_counter(), None))
            print(f"error: {spec.case} raised\n{traceback.format_exc()}", file=sys.stderr)
            continue
        out.append((spec, t0, perf_counter(), report.to_dict(include_timing=False)))
    return out


def ref_factor(probe: HostSpeed, spec, t0: float, t1: float) -> float:
    """Reference-speed seconds per wall second for one timed interval."""
    if spec is not None and t1 - t0 >= spec.budget_sec:
        return 1.0  # the case ended by its wall-clock budget, not by its work
    return probe.scale(t0, t1)


def ref_seconds(probe: HostSpeed, results) -> list:
    return [(t1 - t0) * ref_factor(probe, spec, t0, t1) for spec, t0, t1, _ in results]


class Tally:
    """Case runs attempted, failed (raised or wrong report) and certified."""

    def __init__(self, checker: Checker):
        self.checker = checker
        self.attempted = self.failed = self.certified = 0
        self.problems = []
        self.first_docs = None

    def add(self, results):
        if self.first_docs is None:
            self.first_docs = {spec.case: doc for spec, _, _, doc in results}
        for spec, _, _, doc in results:
            self.attempted += 1
            problem = self.checker.problem(spec.case, doc)
            if problem:
                self.failed += 1
                self.problems.append(f"{spec.case}: {problem}")
            elif doc["verdict"] == "EQUAL":
                self.certified += 1


def _canon(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def _summary(values) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def run_untraced(harness, specs, tally, rng, seconds, case_path) -> dict:
    """Set-up starts, then passes for ``seconds`` (at least ``MIN_PASSES``),
    all under the host-speed probe; times are at the reference speed."""
    passes = []
    probe = HostSpeed()
    setup = measure_setup(case_path, probe)
    with probe:
        start = perf_counter()
        while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
            # peak memory depends on the order of allocations, so it is read
            # after a first pass in the listed order
            results = one_pass(harness, specs, rng if passes else None)
            tally.add(results)
            passes.append(results)
            if len(passes) == 1:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    per_case = {}
    batches, slowest, raw = [], [], []
    for results in passes:
        times = ref_seconds(probe, results)
        batches.append(sum(times))
        slowest.append(max(times))
        raw.append(sum(t1 - t0 for _, t0, t1, _ in results))
        for (spec, _, _, _), dt in zip(results, times):
            per_case.setdefault(spec.case, []).append(dt)
    setup_times = [(t1 - t0) * ref_factor(probe, None, t0, t1) for t0, t1 in setup]
    return {
        "values": {
            "setup_s": statistics.median(setup_times),
            "batch_s": statistics.median(batches),
            "slowest_case_s": statistics.median(slowest),
            "peak_rss_mb": peak_rss_mb,
            "certified_frac": tally.certified / tally.attempted,
        },
        "record": {
            "setup_seconds": _summary(setup_times),
            "setup_wall_seconds": _summary([t1 - t0 for t0, t1 in setup]),
            "batch_seconds": _summary(batches),
            "batch_wall_seconds": _summary(raw),
            "slowest_case_seconds": _summary(slowest),
            "case_seconds": {c: _summary(v) for c, v in sorted(per_case.items())},
            "probe_kernel_median_s": probe.kernel_median_s(),
        },
    }


def run_traced(harness, specs, tally, rng, seconds, case_path):
    """Alternate untraced and span-timed passes for ``seconds``, then make
    two counting passes.  Every instrumented report must equal the
    untraced one byte for byte, and the two counting passes must agree.
    Times are scaled to the reference speed case by case."""
    plain, timed, counted, layer_runs, counts = [], [], [], [], []
    first_spans, mismatches = None, []

    def compare(results, label):
        for spec, _, _, doc in results:
            if _canon(doc) != _canon(tally.first_docs.get(spec.case)):
                mismatches.append(f"{spec.case}: {label} report differs from the untraced one")

    with HostSpeed() as probe:
        start = perf_counter()
        while True:
            results = one_pass(harness, specs, rng)
            tally.add(results)
            plain.append(results)
            recorder = SpanRecorder()
            with recorder.active():
                results = one_pass(harness, specs, rng)
            compare(results, "span-timed")
            timed.append((results, recorder.spans))
            if first_spans is None:
                first_spans = recorder.spans
            if perf_counter() - start >= seconds:
                break
        for _ in range(2):
            counter = CallCounter()
            with counter.active():
                results = one_pass(harness, specs, rng)
            compare(results, "counted")
            counted.append(results)
            counts.append(counter.metrics())
        loads = []
        for _ in range(LOAD_REPEATS):
            t0 = perf_counter()
            harness.load_suite_config(str(case_path))
            loads.append((t0, perf_counter()))
    if counts[0] != counts[1]:
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        mismatches.append(f"counters differ between two counting passes: {differ}")

    for results, spans in timed:
        # each case is one root span, in the order the cases ran
        roots = [sid for sid, span in enumerate(spans) if span[2] < 0]
        factors = {
            sid: ref_factor(probe, spec, t0, t1)
            for sid, (spec, t0, t1, _) in zip(roots, results)
        }
        layer_runs.append(span_metrics(spans, factors))
    metrics = {
        name: statistics.median(run[name] for run in layer_runs)
        for name, _ in SPAN_METRICS
    }
    metrics.update(counts[0])
    metrics["harness.load_suite_config.s"] = statistics.median(
        (t1 - t0) * ref_factor(probe, None, t0, t1) for t0, t1 in loads
    )
    seconds_of = {
        label: [sum(ref_seconds(probe, r)) for r in runs]
        for label, runs in (
            ("untraced", plain),
            ("span_timed", [r for r, _ in timed]),
            ("counted", counted),
        )
    }
    base = statistics.median(seconds_of["untraced"])
    metrics["trace.untraced_batch_s"] = base
    metrics["trace.span_overhead"] = statistics.median(seconds_of["span_timed"]) / base
    metrics["trace.count_overhead"] = statistics.median(seconds_of["counted"]) / base
    return metrics, seconds_of, first_spans, mismatches


# ---------------------------------------------------------------------------
# units of the reported metrics


END_TO_END_UNITS = {
    "setup_s": "s",
    "batch_s": "s",
    "slowest_case_s": "s",
    "peak_rss_mb": "MB",
    "certified_frac": "ratio",
}


def per_layer_units() -> dict:
    units = {name: unit for name, unit in SPAN_METRICS}
    for name in COUNT_METRICS:
        units[name] = "ratio" if name.endswith("hit_ratio") else "count"
    units["harness.load_suite_config.s"] = "s"
    units["trace.untraced_batch_s"] = "s"
    units["trace.span_overhead"] = "ratio"
    units["trace.count_overhead"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# one workload


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    info = host_info(seed)
    case_path = HERE / "workloads" / f"{name}.json"
    workload = json.loads(case_path.read_text(encoding="utf-8"))
    refs = json.loads((HERE / "reference" / f"{name}.json").read_text(encoding="utf-8"))
    harness = import_harness()
    specs = harness.load_suite_config(str(case_path))
    missing = sorted({s.case for s in specs} ^ set(refs))
    if missing:
        raise BenchError(f"cases and references differ: {missing}")

    try:
        # the probe must sample the core the work runs on, set-up starts included
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:
        pass
    checker = Checker(refs, workload.get("known_defects", {}))
    tally = Tally(checker)
    rng = random.Random(seed)
    record = {"workload": name, "host": info, "seconds": seconds, "trace": trace}
    problems = []
    if trace:
        values, timings, spans, problems = run_traced(
            harness, specs, tally, rng, seconds, case_path
        )
        units = per_layer_units()
        record["pass_seconds"] = timings
        stored = HERE / "counts" / f"{name}.json"
        if stored.is_file():
            stored_counts = json.loads(stored.read_text(encoding="utf-8"))
            record["count_delta_vs_stored"] = {
                k: values[k] - v for k, v in stored_counts.items()
                if k in values and values[k] != v
            }
        write_spans(name, seed, spans)
    else:
        measured = run_untraced(harness, specs, tally, rng, seconds, case_path)
        values = measured["values"]
        units = END_TO_END_UNITS
        record.update(measured["record"])

    tamper = self_check(checker, tally.first_docs, rng)
    if tamper:
        problems.append(f"self-check: {tamper}")
    problems = tally.problems + problems
    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record["problems"] = problems[:MAX_PROBLEMS]
    record["result"] = result
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{name}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {name}: python {info['python']}, nproc {info['nproc']}, "
          f"cpu {info['cpu_model']}, loadavg {info['loadavg'][0]:.2f}, seed {seed}")
    for problem in problems[:MAX_PROBLEMS]:
        print(f"  problem: {problem}")
    if len(problems) > MAX_PROBLEMS:
        print(f"  ... {len(problems) - MAX_PROBLEMS} more problems")
    for key, delta in record.get("count_delta_vs_stored", {}).items():
        print(f"  count delta against perfbench/counts: {key} {delta:+}")
    for key, val in result["metrics"].items():
        print(f"  {key:38s} {val['value']:>14.6g} {val['unit']}")
    print(f"  {tally.attempted} case runs, {tally.failed} failed; record in {out.relative_to(ROOT)}")
    return result


def write_spans(name: str, seed: int, spans) -> None:
    """The first span-timed pass, times relative to its first span."""
    t0 = spans[0][3] if spans else 0.0
    doc = {
        "fields": ["name", "case", "parent", "start_s", "end_s"],
        "spans": [[n, c, p, s - t0, e - t0] for n, c, p, s, e in spans],
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{name}-seed{seed}-spans.json"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Each workload in its own process, so peak memory stays its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            raise BenchError(f"workload {name} failed: {proc.stderr.strip()[-400:]}")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = val
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
