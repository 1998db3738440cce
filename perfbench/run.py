"""pvkit benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload cold-catalog --seed 3 --seconds 15 --trace 0

Run it from the repository root.  Each workload runs in fresh worker
processes (perfbench/worker.py) that import pvkit from ./src and drive it
through its public entry points only, with jobs=1.  The last line of
stdout is one JSON object {correct, attempted, failed, metrics}; the lines
before it are the human-readable report.  The exit code is 0 only when
every verification run passed and matched its golden digest.

A plain run (--trace 0) repeats a fixed unit of work; the number of units
is --seconds divided by the unit's time at the baseline commit, so a run
does the same work on every commit.  A traced run (--trace 1) does one
plain unit, then the same unit with every public pvkit function wrapped,
and reports per-layer numbers plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import SpanTable, layer_metrics, share_tables, write_spans  # noqa: E402

DEADLINE_S = 170.0
RESEED_STRIDE = 1000  # reseed-warm unit k verifies at seed * RESEED_STRIDE + k

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "run_p50_s": "s",
    "run_tail_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class BenchError(RuntimeError):
    """A worker crashed, timed out or printed no result."""


@dataclass(frozen=True)
class Workload:
    """A fixed unit of verification runs and how it is executed.

    kind "cold": every run is one fresh process calling `pvkit.cli.main`
    with `run --entry ... --format json`; set-up is import plus catalog.
    kind "warm": `setup_repeats` processes each verify the runs at the
    workload seed (set-up, which fills the build and structure-tensor
    caches), then verify them once per unit at a derived seed; the units
    are dealt round-robin to the processes so they spread over the run.
    """

    name: str
    kind: str
    runs: tuple
    unit_s: float
    setup_repeats: int

    def units(self, seconds: float) -> int:
        return max(1, round(seconds / self.unit_s))


def _runs(*items):
    return tuple((entry, dict(params)) for entry, params in items)


# Sizes are set by the time budget of one run (see perfbench/README.md).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cold-catalog", "cold",
            _runs(
                ("T2.1", {"n": 3}), ("T2.1", {"n": 4}), ("T2.2", {"n": 2}),
                ("T2.2", {"n": 3}), ("T2.3", {"n": 4}), ("T2.3", {"n": 6}),
                ("T2.4", {"n": 2}), ("T2.4", {"n": 3}), ("T2.6", {"n": 2}),
                ("T2.6", {"n": 3}), ("T2.7", {}), ("T2.8", {}), ("T2.9", {}),
                ("T2.10", {}),
            ),
            unit_s=16.0, setup_repeats=5,
        ),
        Workload(
            "reseed-warm", "warm",
            _runs(
                ("T3.2a", {"n": 4}), ("T3.3", {"n": 4}), ("T3.4a", {"n": 3}),
                ("T3.4b", {"n": 3}), ("T3.5", {"n": 3}), ("T3.6", {"n": 2}),
                ("T3.7", {"n": 3}), ("T3.7", {"n": 4}), ("T3.9", {"n": 3}),
                ("NEG-4.1.3", {"n": 3}), ("NEG-4.1.6", {"n": 3, "m": 2}),
                ("NEG-4.1.8", {"n": 2}), ("NEG-4.2.1", {"n": 4}),
                ("NEG-4.2.5", {"n": 4, "m": 2}),
            ),
            unit_s=2.0, setup_repeats=3,
        ),
        Workload(
            "large-params", "cold",
            _runs(("T2.3", {"n": 8}), ("T2.4", {"n": 4})),
            unit_s=28.0, setup_repeats=5,
        ),
    )
}


def digest(reports) -> str:
    """sha256 of the canonical JSON of a list of timing-free reports."""
    text = json.dumps(reports, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden() -> dict:
    with open(HERE / "golden.json") as fh:
        return json.load(fh)


@dataclass
class Tally:
    """Everything one benchmark run measured."""

    attempted: int = 0
    failed: int = 0
    walls: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    rss: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    traced_wall: float = 0.0
    tables: list = field(default_factory=list)
    spans: list = field(default_factory=list)

    def gate(self, workload: Workload, golden: dict, seed: int, reports, exits=None):
        """Count the unit's runs; fail those not `pass` or, on a digest
        mismatch, the whole unit."""
        exits = exits or [0] * len(reports)
        bad = {i for i, (r, code) in enumerate(zip(reports, exits))
               if r.get("status") != "pass" or code != 0}
        got = digest(reports)
        self.digests[seed] = got
        want = golden.get(workload.name, {}).get(str(seed))
        if want is None:
            note = f"digest {workload.name} seed={seed} {got} (no golden)"
            if note not in self.notes:
                self.notes.append(note)
        elif want != got:
            self.notes.append(f"digest mismatch {workload.name} seed={seed}: {got} != golden {want}")
            bad = set(range(len(reports)))
        for i in sorted(bad):
            self.notes.append(f"failed: {workload.name} seed={seed} {reports[i].get('entry')} "
                              f"{reports[i].get('params')} status={reports[i].get('status')}")
        self.attempted += len(reports)
        self.failed += len(bad)

    def add_spans(self, spans) -> None:
        proc = len(self.tables)
        self.tables.append(SpanTable(spans))
        self.spans.extend([proc] + s for s in spans)


class Runner:
    """Spawns workers under one deadline."""

    def __init__(self):
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        paths = [str(ROOT / "src")] + [p for p in self.env.get("PYTHONPATH", "").split(os.pathsep) if p]
        self.env["PYTHONPATH"] = os.pathsep.join(paths)
        self.env["PYTHONHASHSEED"] = "0"

    def spawn(self, spec: dict) -> dict:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time before starting a worker")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=left,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker timed out: {spec.get('mode')} {spec.get('argv', '')}") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
        return json.loads(lines[-1])


def _cli_argv(entry: str, params: dict, seed: int) -> list:
    argv = ["run", "--entry", entry]
    for key, val in sorted(params.items()):
        argv += ["--param", f"{key}={val}"]
    return argv + ["--seed", str(seed), "--format", "json"]


def _session_spec(workload: Workload, seed: int, unit_seeds, trace=False) -> dict:
    runs = [list(r) for r in workload.runs] if workload.kind == "warm" else []
    return {"mode": "session", "runs": runs, "seed": seed,
            "unit_seeds": list(unit_seeds), "trace": trace}


def _measure_cold(workload, seed, units, trace, golden, runner, tally):
    for _ in range(0 if trace else workload.setup_repeats):
        res = runner.spawn(_session_spec(workload, seed, []))
        tally.setups.append(res["setup_s"])
        tally.rss.append(res["peak_rss_mb"])
    for traced in ([False, True] if trace else [False] * units):
        begin = time.perf_counter()
        reports, exits, latencies = [], [], []
        for entry, params in workload.runs:
            res = runner.spawn({
                "mode": "cli", "argv": _cli_argv(entry, params, seed), "trace": traced,
                "run_id": f"{entry}:{json.dumps(params, sort_keys=True)}@{seed}",
            })
            reports.append(res["report"])
            exits.append(res["exit"])
            latencies.append(res["latency_s"])
            tally.setups.append(res["setup_s"])
            tally.rss.append(res["peak_rss_mb"])
            if traced:
                tally.add_spans(res["spans"])
        wall = time.perf_counter() - begin
        tally.gate(workload, golden, seed, reports, exits)
        if traced:
            tally.traced_wall = wall
        else:
            tally.walls.append(wall)
            tally.latencies.extend(latencies)


def _measure_warm(workload, seed, units, trace, golden, runner, tally):
    """`setup_repeats` sessions, each filling its caches at seed S and then
    verifying its share of the unit seeds, so the units spread over the run."""
    unit_seeds = [seed * RESEED_STRIDE + k for k in range(1, units + 1)]
    plan = ([unit_seeds[:1]] if trace else
            [unit_seeds[i::workload.setup_repeats] for i in range(workload.setup_repeats)])
    results = [runner.spawn(_session_spec(workload, seed, share, trace)) for share in plan]
    for res in results:
        tally.setups.append(res["setup_s"])
        tally.rss.append(res["peak_rss_mb"])
        tally.gate(workload, golden, seed, res["setup_reports"])
        for unit in res["units"]:
            tally.gate(workload, golden, unit["seed"], unit["reports"])
            tally.walls.append(unit["wall_s"])
            tally.latencies.extend(unit["latencies"])
    if trace:
        traced = results[0]["traced"]
        tally.gate(workload, golden, traced["seed"], traced["reports"])
        tally.traced_wall = traced["wall_s"]
        tally.add_spans(results[0]["spans"])


def measure(workload: Workload, seed: int, seconds: float, trace: bool, golden: dict) -> Tally:
    tally = Tally()
    fn = _measure_cold if workload.kind == "cold" else _measure_warm
    fn(workload, seed, workload.units(seconds), trace, golden, Runner(), tally)
    return tally


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def tail(values) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    That percentile is above the median only from 21 samples on; with fewer
    the slowest sample is reported instead, and the label says which.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return ordered[-1], f"max of {n}"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.0f} of {n}"


def end_to_end(tally: Tally) -> tuple[dict, list]:
    """(metric -> value, printable lines)."""
    lines = []
    values = {}
    for name, samples in (("wall_s", tally.walls), ("setup_s", tally.setups),
                          ("run_p50_s", tally.latencies)):
        q1, med, q3 = quartiles(samples)
        values[name] = med
        lines.append(f"{name:12s} {med:10.4f} {END_TO_END[name]:3s} "
                     f"median, q1 {q1:.4f}, q3 {q3:.4f}, n {len(samples)}")
    values["run_tail_s"], label = tail(tally.latencies)
    lines.append(f"{'run_tail_s':12s} {values['run_tail_s']:10.4f} s   {label}")
    values["peak_rss_mb"] = max(tally.rss)
    lines.append(f"{'peak_rss_mb':12s} {values['peak_rss_mb']:10.1f} MB  "
                 f"max over {len(tally.rss)} processes")
    return values, lines


def per_layer(tally: Tally) -> tuple[dict, list]:
    values = layer_metrics(tally.tables)
    values["trace.overhead_s"] = tally.traced_wall - tally.walls[0]
    lines = [f"{name:44s} {val:14.6g} {layer_unit(name)}" for name, val in values.items()]
    stages, names = share_tables(tally.tables)
    lines.append("")
    lines.append("stage shares of traced self time (spans nest; each instant counted once):")
    lines += [f"  {stage:40s} {sec:9.3f} s {share:7.1%}" for stage, sec, share in stages]
    lines.append("largest self times by span:")
    lines += [f"  {name:40s} {sec:9.3f} s {share:7.1%}" for name, sec, share in names[:15]]
    return values, lines


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def render(workload: Workload, tally: Tally, trace: bool) -> tuple[list, dict]:
    """(report lines, result object) for one measured run."""
    lines = [f"workload {workload.name} trace {int(trace)} units {len(tally.walls)} "
             f"runs/unit {len(workload.runs)}"]
    lines += tally.notes
    if trace:
        values, body = per_layer(tally)
        units = {name: layer_unit(name) for name in values}
    else:
        values, body = end_to_end(tally)
        units = END_TO_END
    lines += body
    lines.append(f"{'fail_share':12s} {tally.failed / tally.attempted:10.4f} 1   "
                 f"{tally.failed} of {tally.attempted} verification runs")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    return lines, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pvkit" / "__init__.py").is_file():
        print(f"pvkit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(ROOT / "src" / "pvkit"), quiet=1)
    workload = WORKLOADS[args.workload]
    try:
        tally = measure(workload, args.seed, args.seconds, bool(args.trace), load_golden())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    lines, result = render(workload, tally, bool(args.trace))
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{workload.name}-{args.seed}.jsonl"
        write_spans(path, tally.spans)
        lines.append(f"spans written to {path.relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
