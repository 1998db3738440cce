"""One benchmark process: drives pvkit through its public entry points.

Run as `python3 worker.py '<json spec>'`; the spec's "mode" is

* "cli": import pvkit, build the catalog, then call
  `pvkit.cli.main(spec["argv"])` once (a cold `pvkit run`);
* "session": import pvkit, build the catalog and verify spec["runs"] at
  spec["seed"] (the cache-filling pass); then re-verify the same runs once
  per seed in spec["unit_seeds"].  With tracing, one more pass repeats the
  first unit seed with the wrappers installed.

The last line of stdout is one JSON object with the timings, the timing-free
reports and, when traced, the spans.  The caller puts pvkit on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

from spans import Tracer


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cli(spec: dict, out: dict) -> None:
    start = time.perf_counter()
    import pvkit.cli

    pvkit.catalog()
    out["setup_s"] = time.perf_counter() - start
    tracer = Tracer() if spec.get("trace") else None
    if tracer:
        tracer.install()
        tracer.run_id = spec["run_id"]
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        out["exit"] = pvkit.cli.main(spec["argv"])
    out["latency_s"] = time.perf_counter() - start
    report = json.loads(buf.getvalue().strip().splitlines()[-1])
    report.pop("elapsed_s")
    out["report"] = report
    if tracer:
        out["spans"] = tracer.dump()


def _verify(run, runs, seed, tracer=None):
    """Verify every (entry, params) at seed; return (wall, latencies, reports)."""
    latencies, reports = [], []
    begin = time.perf_counter()
    for entry, params in runs:
        if tracer:
            tracer.run_id = f"{entry}:{json.dumps(params, sort_keys=True)}@{seed}"
        start = time.perf_counter()
        report = run(entry, params, seed)
        latencies.append(time.perf_counter() - start)
        reports.append(report.to_dict(with_elapsed=False))
    return time.perf_counter() - begin, latencies, reports


def _session(spec: dict, out: dict) -> None:
    start = time.perf_counter()
    import pvkit

    pvkit.catalog()
    runs = spec["runs"]
    _, _, out["setup_reports"] = _verify(pvkit.run, runs, spec["seed"])
    out["setup_s"] = time.perf_counter() - start
    out["units"] = []
    for seed in spec["unit_seeds"]:
        wall, latencies, reports = _verify(pvkit.run, runs, seed)
        out["units"].append(
            {"seed": seed, "wall_s": wall, "latencies": latencies, "reports": reports}
        )
    if spec.get("trace"):
        tracer = Tracer()
        tracer.install()
        seed = spec["unit_seeds"][0]
        wall, latencies, reports = _verify(pvkit.run, runs, seed, tracer)
        out["traced"] = {"seed": seed, "wall_s": wall, "latencies": latencies,
                         "reports": reports}
        out["spans"] = tracer.dump()


def main(argv) -> int:
    spec = json.loads(argv[1])
    out: dict = {}
    {"cli": _cli, "session": _session}[spec["mode"]](spec, out)
    out["peak_rss_mb"] = _peak_rss_mb()
    sys.stdout.write(json.dumps(out, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
