"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch_sift65k --seed 1 --seconds 20 --trace 0

The workloads, metrics and their meaning are listed in ``BENCHMARK.json``
and ``perfbench/METRICS.md``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (every
end-to-end metric with ``--trace 0``, every per-layer metric of
``BENCHMARK.json`` with ``--trace 1``; the lines before it also give the
workload's own per-layer numbers).  A metric of ``BENCHMARK.json`` that a
run cannot measure fails the run.  Spans of a traced run are written to
``.perfbench/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
OUT = ROOT / ".perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print("run from the root of a repro checkout (src/repro and BENCHMARK.json "
              "not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import harness
    import wl_batch
    import wl_cluster
    import wl_serve

    workloads = {
        "batch_sift65k": wl_batch,
        "serve_sift8k": wl_serve,
        "cluster_rw_sift16k": wl_cluster,
    }
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; known: {', '.join(workloads)}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = [m["name"] for m in spec["end_to_end" if args.trace == 0 else "per_layer"]]

    tracer = harness.Tracer(args.trace == 1)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    steal_tic, total_tic = harness.cpu_ticks()
    try:
        metrics, checker = workloads[args.workload].run(
            args.seed, args.seconds, tracer, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # CPU time the hypervisor gave to other machines: when it is high, the
    # machine, not the system under test, set the numbers of this run.
    steal_toc, total_toc = harness.cpu_ticks()
    metrics.add("bench.steal_frac", (steal_toc - steal_tic) / max(1, total_toc - total_tic),
                "fraction")
    if tracer.enabled:
        self_seconds = tracer.self_seconds()
        for layer, seconds in sorted(self_seconds.items()):
            metrics.add(f"{layer}.self_s", seconds, "s")
        front = workloads[args.workload].FRONT_LAYER
        if front in self_seconds:
            metrics.add("front.self_s", self_seconds[front], "s")
        metrics.add("bench.span_cost_us", harness.span_cost_seconds() * 1e6, "us")
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")

    for name, entry in metrics.values.items():
        print(f"{name:40s} {entry['value']:14.6f} {entry['unit']:9s} "
              f"n={entry['samples']}")
    for message in checker.wrong:
        print(f"WRONG: {message}")
    missing = [name for name in wanted if name not in metrics.values]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    broken = [name for name in wanted if not math.isfinite(metrics.values[name]["value"])]
    if broken:
        print(f"metrics not finite: {broken}", file=sys.stderr)
        return 1
    result = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": metrics.values[name]["value"], "unit": metrics.values[name]["unit"]}
            for name in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
