#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `waterfall` program (library
sources from src/, see perfbench/CMakeLists.txt) under .bench_build/,
runs one workload with the given seed for the given number of seconds,
and prints its metric table as '#' lines followed, on the last line, by
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones. A run whose metric names or units differ from
BENCHMARK.json prints no result and exits 1, as does a run whose outputs
fail their checks. Environment variables that would change a workload
are removed before the program starts.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "waterfall")

# Library knobs read from the environment that would silently change
# what a workload runs (precision, kernels, trial counts, thread pools).
NEUTRALISED = (
    "SPINAL_COST_PRECISION",
    "SPINAL_BACKEND",
    "SPINAL_BENCH_TRIALS",
    "SPINAL_BENCH_FULL",
    "SPINAL_BENCH_THREADS",
)

RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def expected_metrics(spec, trace):
    """name -> unit of the metrics a run in this trace mode must print."""
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def build():
    """Configures (first time) and builds the waterfall program."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "waterfall", "-j",
         str(min(4, os.cpu_count() or 1))],
        stdout=sys.stderr, check=True)


def names_mismatch(got, want):
    """Human-readable differences between two name -> unit maps."""
    problems = []
    for name in sorted(set(want) - set(got)):
        problems.append(f"missing metric {name}")
    for name in sorted(set(got) - set(want)):
        problems.append(f"metric {name} is not in BENCHMARK.json")
    for name in sorted(set(got) & set(want)):
        if got[name] != want[name]:
            problems.append(f"metric {name}: unit {got[name]} != {want[name]}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        print(f"unknown workload {args.workload}; BENCHMARK.json lists "
              f"{', '.join(workloads)}", file=sys.stderr)
        return 2

    build()
    env = {k: v for k, v in os.environ.items() if k not in NEUTRALISED}
    proc = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if not lines:
        print(f"waterfall printed nothing (exit {proc.returncode})", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    problems = names_mismatch(got, expected_metrics(spec, args.trace))
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, subprocess.SubprocessError, ValueError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        sys.exit(1)
