"""The bench ladder: the cases of the ladder table in ``ROADMAP.md``, from
a decomposition of about 50 ms up to the 9x9 one, run in-process through
``run_case`` in three rounds of every rung.  It takes no options and
prints one JSON object to standard output: the Python version, the
platform, the CPU count, the peak resident set size of the process in
MB (``ru_maxrss``, read after the last round), and for each rung the
verdict, the wall seconds of each round and their median, and the peak
resident set size read after the rung's first round, so that a change
that keeps more memory shows at the rung where the peak moved.

Run it from the repository root with

    python bench/ladder.py

The program under test is imported from this checkout's ``src``.  The 9x9
rung runs under a 30 s budget, about its wall time on a 2-vCPU Xeon with
Python 3.11.7 (27.6 to 32.1 s a round), so a round there reads ``EQUAL``
or ``SKIPPED`` and a slower engine reads ``SKIPPED``; the others keep the
default 60 s.  Wall time swings between bursts on a shared host, so
compare two trees with ladders run alternately on the same machine.
"""

import json
import os
import platform
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from detkit.harness import CaseSpec, run_case  # noqa: E402

ROUNDS = 3

RUNGS = (
    CaseSpec(case="minors-5x5-t3-R23-r12", m=5, n=5, t=3, R=(2, 3), r=(1, 2)),
    CaseSpec(case="minors-6x6-t3-R2-r1", m=6, n=6, t=3, R=(2,), r=(1,)),
    CaseSpec(case="minors-6x6-t4-R3-r2", m=6, n=6, t=4, R=(3,), r=(2,)),
    CaseSpec(case="minors-6x6-t3-R23-r12", m=6, n=6, t=3, R=(2, 3), r=(1, 2)),
    CaseSpec(case="minors-7x7-t3-R2-r1", m=7, n=7, t=3, R=(2,), r=(1,)),
    CaseSpec(case="minors-8x8-t3-R2-r1", m=8, n=8, t=3, R=(2,), r=(1,)),
    CaseSpec(case="minors-9x9-t3-R2-r1", m=9, n=9, t=3, R=(2,), r=(1,), budget_sec=30.0),
    CaseSpec(case="symmetric-6-t3-R2-r1", kind="symmetric", n=6, t=3, R=(2,), r=(1,)),
    CaseSpec(case="pfaffian-9-t4-R2-r1", kind="skew", n=9, t=4, R=(2,), r=(1,)),
    CaseSpec(case="pfaffian-7-t4-R3-r2", kind="skew", n=7, t=4, R=(3,), r=(2,)),
    CaseSpec(case="heights-pfaff-10-t6", check="heights", kind="skew", n=10, t=6),
    CaseSpec(case="asl-3x3-d5", check="asl", m=3, n=3, d=5),
)


def peak_rss_mb() -> float:
    # ru_maxrss is in KB on Linux
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def main() -> None:
    verdicts = {spec.case: [] for spec in RUNGS}
    seconds = {spec.case: [] for spec in RUNGS}
    peaks = {}
    for _ in range(ROUNDS):
        for spec in RUNGS:
            start = perf_counter()
            verdicts[spec.case].append(run_case(spec).verdict)
            seconds[spec.case].append(round(perf_counter() - start, 4))
            peaks.setdefault(spec.case, peak_rss_mb())
    rungs = [
        {
            "case": spec.case,
            # every round's verdict, in case one ran into the budget
            "verdict": "/".join(sorted(set(verdicts[spec.case]))),
            "seconds": seconds[spec.case],
            "median_s": median(seconds[spec.case]),
            "peak_rss_mb": peaks[spec.case],
        }
        for spec in RUNGS
    ]
    doc = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "rounds": ROUNDS,
        "peak_rss_mb": peak_rss_mb(),
        "rungs": rungs,
    }
    print(json.dumps(doc, indent=2))


if __name__ == "__main__":
    main()
