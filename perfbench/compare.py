#!/usr/bin/env python3
"""Compare two sets of benchmark run records, metric by metric.

Each argument is a directory of ``run.py`` records (``.bench_out/results``
of a checkout, copied aside).  Per workload and end-to-end metric it
prints both medians, their ratio and whether B stays within the metric's
bound from ``BENCHMARK.json``::

    python3 perfbench/compare.py parent-results/ change-results/

Records made under a different environment (``PYTHONHASHSEED``,
``REPRO_FASTPATH``, ``REPRO_SETTLE_TIMEOUT``, Python version, ``nproc``)
are not compared: the script refuses and names the difference.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(directory: str) -> dict:
    runs: dict = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        record = json.loads(path.read_text())
        runs.setdefault(record["workload"], []).append(record)
    return runs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    a, b = load(args.a), load(args.b)
    envs = {json.dumps(r["env"], sort_keys=True) for runs in (a, b) for rs in runs.values() for r in rs}
    if len(envs) > 1:
        print("refusing to compare records made under different environments:", file=sys.stderr)
        for env in sorted(envs):
            print(f"  {env}", file=sys.stderr)
        return 2
    worse = 0
    for workload in sorted(set(a) & set(b)):
        print(f"== {workload} ({len(a[workload])} vs {len(b[workload])} runs)")
        for name, spec_m in metrics.items():
            ma = statistics.median(r["metrics"][name]["value"] for r in a[workload])
            mb = statistics.median(r["metrics"][name]["value"] for r in b[workload])
            ratio = mb / ma if ma else float("inf")
            change = ratio - 1 if spec_m["better"] == "lower" else 1 - ratio
            verdict = "worse beyond bound" if change > spec_m["bound"] else "within bound"
            worse += change > spec_m["bound"]
            print(f"  {name:22s} {ma:12.5g} -> {mb:12.5g}  x{ratio:6.3f}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
