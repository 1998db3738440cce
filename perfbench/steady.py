"""Steadiness check: run one workload N times and compare spreads to bounds.

    python3 perfbench/steady.py --workload reseed-warm --runs 10 [--first-seed 1] [--sets 2]

Each run is `perfbench/run.py` with its own seed (first-seed, first-seed+1,
...) and BENCHMARK.json's run_seconds.  Per end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound; the target is a spread below
a third of the bound.  With --sets 2 it repeats the same seeds and prints
how far the second median moved from the first, which must stay within the
bound.  All results are saved to perfbench/out/steady-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1])


def summarize(results: list, metrics: list) -> dict:
    out = {}
    for m in metrics:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        out[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med, "values": vals}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    sets, ok = [], True
    for k in range(args.sets):
        results = []
        for seed in seeds:
            res = run_once(args.workload, seed, bench["run_seconds"], 0)
            ok = ok and res["correct"]
            results.append(res)
            print(f"set {k + 1} seed {seed}: " + "  ".join(
                f"{n}={v['value']:.4g}" for n, v in res["metrics"].items()), flush=True)
        sets.append(summarize(results, metrics))
    print(f"\n{args.workload}: {args.runs} runs per set, run_seconds {bench['run_seconds']}")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        for k, summary in enumerate(sets):
            s = summary[name]
            gated = name != "setup_s"
            verdict = ("ok" if s["spread"] < bound / 3 else
                       "within bound" if s["spread"] <= bound else "TOO WIDE")
            print(f"{name:12s} set {k + 1}: median {s['median']:.4f} {m['unit']}  "
                  f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  spread {s['spread']:.3f} "
                  f"bound {bound}  {verdict if gated else '(not gated)'}")
            ok = ok and (not gated or s["spread"] <= bound)
        for k in range(1, len(sets)):
            first, later = sets[0][name]["median"], sets[k][name]["median"]
            worse = (later - first) / first if m["better"] == "lower" else (first - later) / first
            print(f"{name:12s} set {k + 1} vs set 1: worse by {worse:+.3f} (bound {bound})")
            ok = ok and worse <= bound
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"steady-{args.workload}.json").write_text(json.dumps(sets, indent=1))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
