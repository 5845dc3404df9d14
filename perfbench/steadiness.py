"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads auth_hub_hbc,...]
        [--seconds 30] [-o perfbench/baseline.json]

Runs are sequential, one process at a time.  For every workload and metric it
prints the median and the quartiles of the per-seed values (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, which is
the distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  It also prints each seed's digest of
simulated statistics, which must not change between runs of the same code.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(lines[-1])
    return {"details": json.loads(lines[-2])["details"], "result": result}


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", type=_seeds)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("-o", "--output", type=Path)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"host": {"machine": platform.machine(), "processor": platform.processor(),
                       "python": platform.python_version()},
              "seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            run = run_once(workload, seed, args.seconds)
            r = run["result"]
            print(f"{workload} seed {seed}: {time.perf_counter() - t0:.1f} s wall, "
                  f"correct={r['correct']} attempted={r['attempted']} failed={r['failed']} "
                  f"decisions={run['details']['decisions']} "
                  f"digest={run['details']['digest']['sha256'][:16]}", flush=True)
            runs.append(run)
        metrics = {}
        for name in bounds:
            values = [run["result"]["metrics"][name]["value"] for run in runs]
            stats = {**summarise(values), "values": values}
            metrics[name] = stats
            print(f"  {name:20s} median {stats['median']:<12.6g} q1 {stats['q1']:<12.6g} "
                  f"q3 {stats['q3']:<12.6g} spread {stats['spread']:.4f} "
                  f"(bound {bounds[name]})", flush=True)
        report["workloads"][workload] = {
            "metrics": metrics,
            "decisions": {str(run["details"]["seed"]): run["details"]["decisions"]
                          for run in runs},
            "digests": {str(run["details"]["seed"]): run["details"]["digest"]["sha256"]
                        for run in runs},
        }
    if args.output:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
