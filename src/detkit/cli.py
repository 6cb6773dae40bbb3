"""Command-line front end.

Exit codes: 0 when every requested check passes or is skipped, 1 when any
check reports NOT_EQUAL (or a symmetric generator comparison fails), 2 for
usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import fields
from typing import List, Optional

from .harness import (
    CaseError,
    CaseSpec,
    Report,
    load_suite_config,
    run_case,
    run_suite,
    suite_document,
)

# a subcommand's kind name, as its flags or defaults give it, to a CaseSpec kind
KIND_BY_NAME = {"minors": "generic", "symmetric": "symmetric", "pfaffian": "skew",
                "generic": "generic", "skew": "skew"}
SPEC_FIELDS = {f.name for f in fields(CaseSpec)}


def _int_list(text: str) -> tuple:
    if not text.strip():
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}")


def _add_shape_args(p: argparse.ArgumentParser, with_cols: bool):
    p.add_argument("--m", type=int, help="rows (generic only)")
    p.add_argument("--n", type=int, required=True, help="columns, or size when square")
    p.add_argument("--t", type=int, required=True,
                   help="minor size, or even Pfaffian size")
    p.add_argument("--R", type=_int_list, default=(),
                   help="row block cutoffs, comma-separated")
    p.add_argument("--r", type=_int_list, default=(),
                   help="row block counts, comma-separated")
    if with_cols:
        p.add_argument("--C", type=_int_list, default=(),
                       help="column block cutoffs (generic only)")
        p.add_argument("--c", type=_int_list, default=(),
                       help="column block counts (generic only)")


def _add_common_args(p: argparse.ArgumentParser):
    p.add_argument("--field", default="fp:32003",
                   help="coefficient field: fp:<prime> or qq")
    p.add_argument("--order", default="grevlex", choices=["grevlex", "lex"])
    p.add_argument("--budget-sec", type=float, default=60.0,
                   help="per-case time budget in seconds")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="print the full report as JSON")
    p.add_argument("--case", help="override the generated case id")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="detkit",
        description="exact checks for ideals of block-constrained minors and Pfaffians",
    )
    sub = top.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="constrained ideal vs component intersection")
    vsub = verify.add_subparsers(dest="family", required=True)
    for fam in ("minors", "symmetric", "pfaffian"):
        p = vsub.add_parser(fam)
        p.set_defaults(check="decomposition", kind=fam, prefix=fam)
        _add_shape_args(p, with_cols=(fam == "minors"))
        _add_common_args(p)

    trunc = sub.add_parser("truncation", help="degree truncation vs extra component")
    trunc.set_defaults(check="truncation", prefix="truncation-{kind}")
    trunc.add_argument("--kind", default="generic", choices=["generic", "skew"])
    _add_shape_args(trunc, with_cols=True)
    trunc.add_argument("--p", type=int, required=True, help="light weight")
    trunc.add_argument("--q", type=int, required=True, help="heavy weight")
    trunc.add_argument("--d", type=int, required=True, help="degree bound")
    _add_common_args(trunc)

    irr = sub.add_parser("irredundancy", help="no intersection component can be dropped")
    irr.set_defaults(check="irredundancy", prefix="irredundancy-{kind}")
    irr.add_argument("--kind", default="minors",
                     choices=["minors", "symmetric", "pfaffian"])
    _add_shape_args(irr, with_cols=True)
    _add_common_args(irr)

    heights = sub.add_parser("heights", help="codimension of a Pfaffian ideal")
    heights.set_defaults(check="heights", kind="skew", prefix="heights")
    heights.add_argument("--n", type=int, required=True)
    heights.add_argument("--t", type=int, required=True, help="even Pfaffian size")
    _add_common_args(heights)

    asl = sub.add_parser("asl-check", help="chain products form a low-degree basis")
    asl.set_defaults(check="asl", kind="generic", prefix="asl")
    asl.add_argument("--m", type=int, required=True)
    asl.add_argument("--n", type=int, required=True)
    asl.add_argument("--d", type=int, required=True, help="degree bound")
    _add_common_args(asl)

    suite = sub.add_parser("suite", help="run a JSON suite configuration")
    suite.add_argument("config", help="path to a JSON file with a 'cases' list")
    suite.add_argument("--out", help="write the JSON report here instead of stdout")
    suite.add_argument("--no-timing", action="store_true",
                       help="omit wall-clock fields for byte-stable output")
    suite.add_argument("--budget-sec", type=float, default=None,
                       help="override the per-case budget")

    return top


def _default_case_id(prefix: str, doc: dict) -> str:
    bits = [prefix]
    bits += [f"{k}{doc[k]}" for k in ("m", "n", "t") if doc.get(k)]
    bits += [k + "_".join(map(str, doc[k])) for k in ("R", "r", "C", "c") if doc.get(k)]
    bits += [f"{k}{doc[k]}" for k in ("p", "q", "d") if k in doc]
    return "-".join(bits)


def _spec_from_args(args) -> CaseSpec:
    """The case a subcommand runs: its flags as a suite entry, so a
    subcommand is a suite of one."""
    doc = {k: v for k, v in vars(args).items() if k in SPEC_FIELDS and v is not None}
    doc["kind"] = KIND_BY_NAME[args.kind]
    doc["case"] = args.case or _default_case_id(args.prefix.format(kind=args.kind), doc)
    return CaseSpec.from_dict(doc, where=doc["case"])


def _open_out(path: str):
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as e:
        raise CaseError(f"{path}: {e.strerror or e}") from None


def _print_human(report: Report) -> None:
    line = f"{report.case}: {report.verdict}"
    if report.reason:
        line += f" ({report.reason})"
    line += f" [{report.millis} ms]"
    print(line)
    for comp in report.components:
        flag = comp["irredundant"]
        if flag is None:
            print(f"  component {comp['name']}")
        else:
            word = "irredundant" if flag else "REDUNDANT"
            print(f"  component {comp['name']}: {word}")
    for w in report.witnesses:
        inside = [k for k, v in w["memberships"].items() if v]
        outside = [k for k, v in w["memberships"].items() if not v]
        print(f"  witness {w['element']}: in {inside}, not in {outside}")
    if report.height is not None:
        print(f"  height {report.height}")
    if report.doset_generators_equal is not None:
        print(f"  doset generators equal: {report.doset_generators_equal}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    code = 0
    try:
        if args.command == "suite":
            specs = load_suite_config(args.config)
            if args.budget_sec is not None:
                for s in specs:
                    s.budget_sec = args.budget_sec
                    s.validate(s.case)
            # open the report first, so an unwritable path fails before any run
            with _open_out(args.out) if args.out else nullcontext() as out:
                reports, ok = run_suite(specs)
                code = 0 if ok else 1
                doc = suite_document(reports, include_timing=not args.no_timing)
                text = json.dumps(doc, indent=2)
                if out:
                    out.write(text + "\n")
                    print(
                        "suite: {total} cases, {equal} equal, {not_equal} not equal, "
                        "{skipped} skipped".format(**doc["summary"])
                    )
                else:
                    print(text)
        else:
            report = run_case(_spec_from_args(args))
            code = 1 if report.failed else 0
            if args.as_json:
                print(json.dumps(report.to_dict(), indent=2))
            else:
                _print_human(report)
        sys.stdout.flush()
    except CaseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early; aim it at devnull so the flush at
        # interpreter exit cannot raise again, and keep the verdict's code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
