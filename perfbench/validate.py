"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/validate.py --workloads traffic,roles,topics --seeds 1-10 \
        [--baseline perfbench/baseline.json]

For every workload and end-to-end metric, prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the interquartile
spread as a share of the median, next to the metric's bound from
BENCHMARK.json. With --baseline, also writes those figures with the
seeds, nproc and the Python and numpy versions to that file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)

    summary: dict[str, dict] = {}
    ok = True
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, args.seconds) for seed in seeds]
        ok &= all(r["correct"] for r in results)
        summary[workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            summary[workload]["metrics"][name] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": spread, "bound": metric["bound"], "values": values,
            }
            print(f"{workload:<8} {name:<12} median {median:10.4f} {metric['unit']:<3} "
                  f"q1 {q1:.4f} q3 {q3:.4f} spread {spread:.3f} (bound {metric['bound']})",
                  flush=True)

    if args.baseline:
        doc = {
            "seeds": seeds,
            "run_seconds": args.seconds,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "workloads": summary,
        }
        args.baseline.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
