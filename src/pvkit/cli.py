"""Command-line interface.

Subcommands: list, run, run-all, diagram, table1, each with the options in
COMMANDS, which `getopt` reads as `--name value`, `--name=value` or a unique
prefix of the name; `-h`/`--help` prints the usage from the same table.
The exit code is 0 iff every selected check passed (or for --help), 1 when a
check failed, and 2 on a usage error, reported as one line "pvkit COMMAND:
message" on stderr: bad arguments, an unknown entry, a parameter outside the
entry's domain (which `list` prints), a run that runs out of memory, or a
PVKIT_SEED that is not an integer.  A reader that closes stdout early ends
the command quietly with 1.  PVKIT_SEED overrides the default seed.
"""

from __future__ import annotations

import getopt
import os
import sys
from types import SimpleNamespace

from .catalog import catalog, get_entry, run, run_all, summary_json
from .grading import compute_grading, irreducible_components, render_diagram, verify_table1
from .rootsystems import WeightedDiagram, build_root_system


def _int(value: str, name: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _params_text(params) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(params.items())) or "-"


def _cmd_list(args) -> int:
    for entry in catalog():
        domain = entry.domain_text or "-"
        defaults = "; ".join(_params_text(d) for d in entry.defaults)
        expected = f"char={entry.expected_character_dim}"
        if entry.expected_regular is not None:
            expected += f" regular={entry.expected_regular}"
        if entry.mf_rank:
            expected += f" rank={entry.mf_rank}"
        print(f"{entry.id:13s} {domain:9s} [{defaults}]  {expected}")
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
        out[key] = _int(val, f"--param {key}")
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
        entry = get_entry(args.entry)
    except KeyError as exc:
        print(f"pvkit run: {exc.args[0]}", file=sys.stderr)
        return 2
    try:
        params = _parse_params(args.param) or entry.defaults[0]
        report = run(entry.id, params, seed=args.seed)
    except ValueError as exc:
        print(f"pvkit run: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # numpy's _ArrayMemoryError included
        print(f"pvkit run: out of memory verifying {entry.id} at {_params_text(params)}",
              file=sys.stderr)
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
            params = _params_text(report.params)
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
        circled = [_int(tok, "--circle vertex") - 1 for tok in args.circle.split(",")]
        if len(set(circled)) != len(circled):
            raise ValueError(f"--circle {args.circle} repeats a vertex")
        wd = WeightedDiagram(rs, frozenset(circled))
    except ValueError as exc:
        print(f"pvkit diagram: {exc}", file=sys.stderr)
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


# Each subcommand's handler, summary and options, name -> (kind, default).  A
# kind is int, a tuple of choices or a free-text value's name.  A default of
# None marks a required option, () a repeatable one, "PVKIT_SEED" the env seed.
COMMANDS = {
    "list": (_cmd_list, "list catalog entries", {}),
    "run": (_cmd_run, "verify one entry", {
        "entry": ("ID", None), "param": ("NAME=VALUE", ()),
        "seed": (int, "PVKIT_SEED"), "format": (("text", "json"), "text"),
    }),
    "run-all": (_cmd_run_all, "verify a whole slice of the catalog", {
        "filter": (("table2", "table3", "negatives", "all"), "all"),
        "seed": (int, "PVKIT_SEED"), "format": (("text", "json"), "text"),
    }),
    "diagram": (_cmd_diagram, "render a weighted diagram and its grading", {
        "type": (tuple("ABCDEFG"), None), "rank": (int, None),
        "circle": ("I,J,... (1-based vertices)", None),
    }),
    "table1": (_cmd_table1, "check the commutative-parabolic rows", {}),
}


def _help(command: str) -> str:
    if not command:
        lines = ["usage: pvkit COMMAND [OPTIONS]; pvkit COMMAND --help lists them"]
        lines += [f"  {name:8s} {summary}" for name, (_, summary, _) in COMMANDS.items()]
        return "\n".join(lines)
    lines = [f"usage: pvkit {command} [OPTIONS]: {COMMANDS[command][1]}"]
    for name, (kind, default) in COMMANDS[command][2].items():
        value = "INT" if kind is int else "|".join(kind) if isinstance(kind, tuple) else kind
        note = ("required" if default is None else "repeatable" if default == ()
                else f"default {default}")
        lines.append(f"  --{name} {value}  ({note})")
    return "\n".join(lines)


def _parse(command: str, argv: list, seed: int):
    """The handler's arguments, or None for --help; raises on a usage error."""
    options = COMMANDS[command][2] if command else {}
    pairs, rest = getopt.getopt(argv, "h", ["help", *(f"{name}=" for name in options)])
    if any(opt in ("-h", "--help") for opt, _ in pairs):
        return None
    if rest or not command:
        raise getopt.GetoptError(f"unexpected argument {rest[0]!r}" if command
                                 else f"expected a command: {', '.join(COMMANDS)}")
    values = {}
    for opt, val in pairs:
        name = opt[2:]
        kind, default = options[name]
        if kind is int:
            val = _int(val, f"--{name}")
        elif isinstance(kind, tuple) and val not in kind:
            raise getopt.GetoptError(f"--{name} must be one of {', '.join(kind)}, got {val!r}")
        values[name] = values.get(name, ()) + (val,) if default == () else val
    for name, (_, default) in options.items():
        if name not in values and default is None:
            raise getopt.GetoptError(f"--{name} is required")
        values.setdefault(name, seed if default == "PVKIT_SEED" else default)
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else ""
    try:
        seed = _int(os.environ.get("PVKIT_SEED", "0"), "PVKIT_SEED")
        args = _parse(command, argv[1:] if command else argv, seed)
    except (getopt.GetoptError, ValueError) as exc:
        print(f"pvkit{' ' + command if command else ''}: {exc}", file=sys.stderr)
        return 2
    try:
        if args is None:
            print(_help(command))
        code = 0 if args is None else COMMANDS[command][0](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: devnull takes the rest, so the exit flush is quiet
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
