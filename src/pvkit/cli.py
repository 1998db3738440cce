"""Command-line interface.

Subcommands: list, run, run-all, diagram, table1.  The exit code is 0 iff
every selected check passed, 1 when a check failed, and 2 on a usage
error: an unknown entry or bad parameter, bad arguments, or a PVKIT_SEED
that is not an integer.  PVKIT_SEED overrides the default seed.
"""

from __future__ import annotations

import argparse
import os
import sys

from .catalog import catalog, get_entry, run, run_all, summary_json
from .grading import compute_grading, irreducible_components, render_diagram, verify_table1
from .rootsystems import WeightedDiagram, build_root_system


def _default_seed() -> int | None:
    """PVKIT_SEED as an integer, 0 when unset, None when not an integer."""
    value = os.environ.get("PVKIT_SEED", "0")
    try:
        return int(value)
    except ValueError:
        print(f"PVKIT_SEED must be an integer, got {value!r}", file=sys.stderr)
        return None


def _cmd_list(args) -> int:
    for entry in catalog():
        params = ",".join(entry.params) if entry.params else "-"
        defaults = "; ".join(
            ",".join(f"{k}={v}" for k, v in sorted(d.items())) or "-"
            for d in entry.defaults
        )
        expected = f"char={entry.expected_character_dim}"
        if entry.expected_regular is not None:
            expected += f" regular={entry.expected_regular}"
        if entry.mf_rank:
            expected += f" rank={entry.mf_rank}"
        print(f"{entry.id:13s} {params:6s} [{defaults}]  {expected}")
        print(f"{'':13s} {entry.title}")
    return 0


def _parse_params(items) -> dict:
    out = {}
    for item in items or ():
        key, _, val = item.partition("=")
        if not val:
            raise ValueError(f"--param expects name=value, got {item!r}")
        if key in out:
            raise ValueError(f"--param {key} given more than once")
        out[key] = int(val)
    return out


def _print_report(report, fmt: str) -> None:
    if fmt == "json":
        print(report.to_json())
        return
    print(f"entry        {report.entry}")
    print(f"params       {report.params or '-'}")
    print(f"seed         {report.seed}")
    print(f"status       {report.status}")
    print(f"dims         algebra={report.dims.get('algebra')} "
          f"space={report.dims.get('space')} isotropy={report.dims.get('isotropy')}")
    print(f"character    {report.character_dim}  (qd1={report.qd1})")
    print(f"regular      {report.regular}")
    for inv in report.invariants:
        print(f"invariant    {inv['name']}: verified={inv['verified']} "
              f"nontrivial={inv['lambda_nonzero']} points={inv['points']}")
    if report.diagram is not None:
        print(f"diagram      {report.diagram}  ok={report.diagram_ok}")
    if report.expected_diff:
        print(f"diff         {report.expected_diff}")
    print(f"elapsed      {report.elapsed_s:.3f}s")


def _cmd_run(args) -> int:
    try:
        get_entry(args.entry)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    try:
        report = run(args.entry, _parse_params(args.param), seed=args.seed)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    _print_report(report, args.format)
    return 0 if report.status == "pass" else 1


def _cmd_run_all(args) -> int:
    summary, reports = run_all(args.filter, seed=args.seed)
    if args.format == "json":
        for report in reports:
            print(report.to_json())
        print(summary_json(summary))
    else:
        for report in reports:
            params = ",".join(f"{k}={v}" for k, v in sorted(report.params.items())) or "-"
            print(f"{report.entry:13s} {params:10s} {report.status:12s} "
                  f"char={report.character_dim} regular={report.regular} "
                  f"({report.elapsed_s:.2f}s)")
        counts = summary["counts"]
        print(f"total: {sum(counts.values())}  " +
              "  ".join(f"{k}={v}" for k, v in counts.items()))
    bad = summary["counts"]["fail"] + summary["counts"]["inconclusive"]
    return 0 if bad == 0 else 1


def _cmd_diagram(args) -> int:
    try:
        rs = build_root_system(args.type, args.rank)
        circled = [int(tok) - 1 for tok in args.circle.split(",")]
        if len(set(circled)) != len(circled):
            raise ValueError(f"--circle {args.circle} repeats a vertex")
        wd = WeightedDiagram(rs, frozenset(circled))
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(render_diagram(wd))
    grading = compute_grading(wd)
    print(f"levi: {grading.levi_name()}")
    dims = grading.dimensions()
    print("piece dims:", {p: dims[p] for p in sorted(dims)})
    for comp in irreducible_components(grading):
        print(f"component at vertex {comp.circled_root + 1}: "
              f"highest weight {comp.label}, dim {comp.dimension}")
    return 0


def _cmd_table1(args) -> int:
    result = verify_table1()
    for row in result["rows"]:
        status = "ok" if row["ok"] else "FAIL"
        note = f"  [{row['note']}]" if row["note"] else ""
        print(f"{status:4s} {row['row']:38s} {row['ambient']:4s} "
              f"levi={row['levi']} dim(d1)={row['dim_d1']}{note}")
    print("table1:", "pass" if result["ok"] else "fail")
    return 0 if result["ok"] else 1


def main(argv=None) -> int:
    seed = _default_seed()
    if seed is None:
        return 2
    parser = argparse.ArgumentParser(
        prog="pvkit",
        description="Exact verification of the multiplicity-free catalog "
        "with one-dimensional quotient.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list catalog entries")

    p_run = sub.add_parser("run", help="verify one entry")
    p_run.add_argument("--entry", required=True)
    p_run.add_argument("--param", action="append", metavar="NAME=VALUE")
    p_run.add_argument("--seed", type=int, default=seed)
    p_run.add_argument("--format", choices=("text", "json"), default="text")

    p_all = sub.add_parser("run-all", help="verify a whole slice of the catalog")
    p_all.add_argument(
        "--filter", choices=("table2", "table3", "negatives", "all"), default="all"
    )
    p_all.add_argument("--seed", type=int, default=seed)
    p_all.add_argument("--format", choices=("text", "json"), default="text")

    p_diag = sub.add_parser("diagram", help="render a weighted diagram and its grading")
    p_diag.add_argument("--type", required=True, choices=list("ABCDEFG"))
    p_diag.add_argument("--rank", required=True, type=int)
    p_diag.add_argument("--circle", required=True, help="1-based vertices, comma separated")

    sub.add_parser("table1", help="check the commutative-parabolic rows")

    args = parser.parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "run-all": _cmd_run_all,
        "diagram": _cmd_diagram,
        "table1": _cmd_table1,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
