"""The benchmark's tracer (``perfbench/tracing.py``) patches detkit functions
by module and attribute name; a rename in detkit must not leave it pointing
at nothing, or ``perfbench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_resolves():
    tracing = _load_tracing()
    targets = {(module, attr) for module, attr, _ in tracing.SPANNED + tracing.COUNTED}
    missing = []
    for module, attr in sorted(targets):
        holder = importlib.import_module(f"detkit.{module}")
        if "." in attr:
            # the tracer swaps a method in the class's own namespace
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(holder, cls_name, object))
        else:
            found = callable(getattr(holder, attr, None))
        if not found:
            missing.append(f"detkit.{module}.{attr}")
    assert len(targets) > 20
    assert missing == []
