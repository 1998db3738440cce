"""Record golden digests of the timing-free reports for a range of seeds.

    python3 perfbench/make_golden.py --seeds 0-19 [--workload NAME]

Verifies each workload's runs in this process, at exactly the seeds a
benchmark run of BENCHMARK.json's run_seconds uses, and merges the sha256
digests into perfbench/golden.json.  Regenerate only when a change alters
the report schema on purpose; otherwise a new digest means a changed result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from run import RESEED_STRIDE, WORKLOADS, digest  # noqa: E402


def unit_seeds(workload, seed: int, seconds: int) -> list:
    if workload.kind == "cold":
        return [seed]
    return [seed] + [seed * RESEED_STRIDE + k for k in range(1, workload.units(seconds) + 1)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-19", help="inclusive range, e.g. 0-19")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    import pvkit

    path = HERE / "golden.json"
    for workload in WORKLOADS.values():
        if args.workload and workload.name != args.workload:
            continue
        table = {}
        for seed in seeds:
            for s in unit_seeds(workload, seed, seconds):
                reports = [pvkit.run(e, p, s).to_dict(with_elapsed=False) for e, p in workload.runs]
                bad = [r["entry"] for r in reports if r["status"] != "pass"]
                if bad:
                    raise SystemExit(f"{workload.name} seed {s}: not pass: {bad}")
                table[str(s)] = digest(reports)
            print(f"{workload.name} seed {seed} recorded", flush=True)
        golden = json.loads(path.read_text())  # re-read: another run may have recorded meanwhile
        table = {**golden.get(workload.name, {}), **table}
        golden[workload.name] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
        path.write_text(json.dumps(dict(sorted(golden.items())), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
