#!/usr/bin/env python3
"""Builds the PerfTrack workflow benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark binary is built with CMake under $CARGO_TARGET_DIR (default
.bench_build) at the repository root; stores, inputs and span files go to
<build root>/work. The binary runs with PT_EXEC_THREADS=1, since it pins
itself to one CPU. Build output goes to stderr. The binary's report goes to
stdout, and its last line is the JSON result (see perfbench/README.md).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["analyst-remote", "analyst-local", "ingest-wal"]
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    """Configures (once) and builds the ptbench target; returns the binary."""
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "ptbench",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)
    return build_dir / "ptbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    try:
        binary = build(build_root / "perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    proc = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--workdir", str(build_root / "work")],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        env=dict(os.environ, PT_EXEC_THREADS="1"))
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except ValueError:
        result = {}
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        print("perfbench: no result line", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
