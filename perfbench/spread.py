#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against their bounds.

Runs ``run.py`` once per seed for each named workload (one at a time)
and prints, per metric, the median and the inter-quartile distance as a
share of the median next to the metric's bound from ``BENCHMARK.json``::

    python3 perfbench/spread.py --seeds 1-10 steady-sim churn-tcp

A spread above a third of its bound is flagged; ``setup_s`` is exempt
from the spread rule (its medians are compared instead).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from pb_stats import iqr_share

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads:
        values: dict = {}
        for seed in seeds_of(args.seeds):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: not correct: {out.stderr.strip()}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"== {workload} ({len(seeds_of(args.seeds))} seeds, {seconds:g} s)")
        for name, series in values.items():
            spread = iqr_share(series)
            bound = bounds.get(name, float("nan"))
            flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- above bound/3"
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:22s} median {statistics.median(series):12.5g}  "
                  f"spread {spread:7.4f}  bound {bound:5.3f}{flag}")
    print(f"worst spread/bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
