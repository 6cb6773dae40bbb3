"""The layer micro-benches (``bench/test_layers.py``) reach into private
engine names such as ``_Packing`` and ``_reduce_rows`` and call them
positionally.  Only ``tests/`` is collected here, so one test imports the
bench module without running it, and another runs every bench once with
timing off: a rename or a changed signature in detkit must not leave the
benches pointing at nothing or calling with the wrong arguments.  The
ladder (``bench/ladder.py``) runs for minutes, so its rungs are only
checked to be valid cases."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from detkit.harness import CaseSpec

ROOT = Path(__file__).resolve().parent.parent


def test_layer_benches_import():
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "bench" / "test_layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert any(name.startswith("test_") for name in vars(module))


def test_layer_benches_run():
    pytest.importorskip("pytest_benchmark")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "bench", "--benchmark-disable", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_ladder_rungs_are_valid_cases():
    spec = importlib.util.spec_from_file_location("bench_ladder", ROOT / "bench" / "ladder.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    cases = [rung.case for rung in module.RUNGS]
    assert len(set(cases)) == len(cases) == 12
    for rung in module.RUNGS:
        assert isinstance(rung, CaseSpec)
        rung.validate(rung.case)
