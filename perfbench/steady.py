#!/usr/bin/env python3
"""Steadiness helper: runs one workload k times and summarises each metric.

    python3 perfbench/steady.py --workload analyst-remote --runs 10 \
        [--first-seed 1] [--seconds 10] [--trace 0]

Each run uses its own seed (first-seed, first-seed+1, ...). For every metric
it prints the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, and
whether the spread stays within a tenth of the median. Those spreads are
what the bounds in BENCHMARK.json were set from. --json writes the per-run
values and the summary to a file as well.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: run.py exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: incorrect result ({result['failed']} failed)")
    return result


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        result = run_once(args.workload, seed, args.seconds, args.trace)
        runs.append({"seed": seed, "metrics": result["metrics"]})
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)

    summary = {}
    print(f"\n{args.workload}: {args.runs} runs of {args.seconds:g} s")
    print(f"{'metric':38} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, first in runs[0]["metrics"].items():
        s = summarise([r["metrics"][name]["value"] for r in runs])
        s["unit"] = first["unit"]
        summary[name] = s
        flag = "" if s["spread"] <= 0.1 else "  > 0.1"
        print(f"{name:38} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
              f"{s['spread']:8.4f}{flag}")
    if args.json:
        args.json.write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds,
             "trace": args.trace, "runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
