"""Every case of the benchmark's workloads (``perfbench/workloads``) must
pass the benchmark's own check against its recorded reference
(``perfbench/reference``), so that a change to a recorded report field
fails here before the benchmark ever runs.  ``perfbench/run.py`` is loaded
read-only; nothing under ``perfbench/`` is written."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from detkit import harness

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ("decompose", "dimension", "linear", "suite")


@pytest.fixture(scope="module")
def bench_run():
    # run.py imports its sibling modules by their bare names; they leave
    # sys.modules again with the path entry
    siblings = ("hostspeed", "tracing")
    assert not any(name in sys.modules for name in siblings)
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
        for name in siblings:
            sys.modules.pop(name, None)
    return module


def test_workload_list_matches(bench_run):
    assert tuple(bench_run.WORKLOADS) == WORKLOADS


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_reports_match_the_references(bench_run, name):
    path = BENCH / "workloads" / f"{name}.json"
    workload = json.loads(path.read_text(encoding="utf-8"))
    refs = json.loads((BENCH / "reference" / f"{name}.json").read_text(encoding="utf-8"))
    checker = bench_run.Checker(refs, workload.get("known_defects", {}))
    specs = harness.load_suite_config(str(path))
    assert sorted(s.case for s in specs) == sorted(refs)
    found = {
        spec.case: checker.problem(spec.case, doc)
        for spec, _, _, doc in bench_run.one_pass(harness, specs)
    }
    assert {case: problem for case, problem in found.items() if problem} == {}
