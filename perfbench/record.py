"""Record the reference reports and the counters of each workload.

    python3 perfbench/record.py [workload ...]

References hold each case's deterministic report
(``Report.to_dict(include_timing=False)``); ``run.py`` checks every report
against them.  Counters are one counting pass; traced runs print their
deltas against them.  Re-record only when a change of verdicts or reports
is intended, and say why in the change that does it.
"""

from __future__ import annotations

import json
import sys

from run import HERE, WORKLOADS, import_harness
from tracing import CallCounter


def record(name: str, harness) -> None:
    specs = harness.load_suite_config(str(HERE / "workloads" / f"{name}.json"))
    refs = {s.case: harness.run_case(s).to_dict(include_timing=False) for s in specs}
    counter = CallCounter()
    with counter.active():
        for spec in specs:
            harness.run_case(spec)
    for folder, doc in (("reference", refs), ("counts", counter.metrics())):
        path = HERE / folder / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(HERE.parent)}")


def main() -> int:
    names = sys.argv[1:] or list(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        print(f"error: unknown workloads {unknown}", file=sys.stderr)
        return 2
    harness = import_harness()
    for name in names:
        record(name, harness)
    return 0


if __name__ == "__main__":
    sys.exit(main())
