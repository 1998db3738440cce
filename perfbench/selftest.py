"""Self-test of the benchmark on a tiny input (T2.1 n=3, NEG-4.1.3 n=2).

    python3 perfbench/selftest.py

Checks, for a cold and a warm tiny workload, that every end-to-end and
per-layer metric of BENCHMARK.json is printed by name with its unit, that
matching golden digests pass, that a deliberately wrong golden digest is
counted as failed runs, and that run.py exits non-zero without printing a
result when the pvkit sources are missing.  Takes about ten seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, Workload, layer_unit, measure, render  # noqa: E402

TINY_RUNS = (("T2.1", {"n": 3}), ("NEG-4.1.3", {"n": 2}))
TINY = (
    Workload("tiny-cold", "cold", TINY_RUNS, unit_s=1.0, setup_repeats=1),
    Workload("tiny-warm", "warm", TINY_RUNS, unit_s=1.0, setup_repeats=2),
)


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def check_printed(lines, result, metrics, what: str) -> None:
    """Every metric is in the result and on a printed line, with its unit."""
    missing = []
    for m in metrics:
        name, unit = m["name"], m["unit"]
        got = result["metrics"].get(name)
        printed = [ln for ln in lines if ln.split()[:1] == [name]]
        if got is None or got["unit"] != unit or not printed or f" {unit}" not in printed[0]:
            missing.append(name)
    check(not missing, f"{what}: all {len(metrics)} metrics printed with their units {missing or ''}")
    check(set(result["metrics"]) == {m["name"] for m in metrics},
          f"{what}: the result holds exactly the BENCHMARK.json metrics")


def check_gate(workload: Workload, bench: dict) -> None:
    first = measure(workload, 0, 2.0, False, {})
    check(first.failed == 0 and first.attempted > 0, f"{workload.name}: every run passes")
    golden = {workload.name: {str(seed): d for seed, d in first.digests.items()}}
    lines, result = render(workload, measure(workload, 0, 2.0, False, golden), False)
    check(result["correct"] and result["failed"] == 0, f"{workload.name}: golden digests match")
    check_printed(lines, result, bench["end_to_end"], f"{workload.name} plain")
    check(any(ln.startswith("fail_share") for ln in lines), f"{workload.name}: fail_share printed")

    wrong = {workload.name: {seed: "0" * 64 for seed in golden[workload.name]}}
    bad = measure(workload, 0, 2.0, False, wrong)
    _, result = render(workload, bad, False)
    check(not result["correct"] and bad.failed == bad.attempted,
          f"{workload.name}: a wrong golden digest fails every run it covers")

    traced = measure(workload, 0, 2.0, True, golden)
    lines, result = render(workload, traced, True)
    check(result["correct"], f"{workload.name}: traced run passes the gate")
    check_printed(lines, result, bench["per_layer"], f"{workload.name} traced")
    check(result["metrics"]["catalog.run.calls"]["value"] == len(TINY_RUNS),
          f"{workload.name}: one catalog.run span per verification run")


def check_missing_sources() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    shutil.copy(HERE / "golden.json", bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-catalog", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "run.py without pvkit sources exits non-zero and prints no result")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END,
          "BENCHMARK.json end-to-end metrics match run.py")
    check(all(layer_unit(m["name"]) == m["unit"] for m in bench["per_layer"]),
          "BENCHMARK.json per-layer units match run.py")
    for workload in TINY:
        check_gate(workload, bench)
    check_missing_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
