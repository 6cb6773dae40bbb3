"""The layer micro-benches (``bench/test_layers.py``) reach into private
engine names such as ``_Packing`` and ``_reduce_rows``.  Only ``tests/`` is
collected here, so this imports the bench module without running it: a
rename in detkit must not leave the benches pointing at nothing."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_layer_benches_import():
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "bench" / "test_layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert any(name.startswith("test_") for name in vars(module))
