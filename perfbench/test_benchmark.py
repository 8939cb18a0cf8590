#!/usr/bin/env python3
"""Consistency test of the benchmark against BENCHMARK.json.

    python3 perfbench/test_benchmark.py          # names only (seconds)
    python3 perfbench/test_benchmark.py --run    # also a 1 s run of every
                                                 # workload in both modes

Fails when a workload or metric the program prints is missing from
BENCHMARK.json, or the reverse, or a unit differs. With --run, every
workload must also pass its output checks and print exactly the
metrics of its mode through run.py.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # keep perfbench/ free of build litter
sys.path.insert(0, HERE)
import run  # noqa: E402


def listed_names():
    """(workloads, end_to_end name->unit, per_layer name->unit) of the program."""
    out = subprocess.run([run.BINARY, "--list"], stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    workloads, sections = [], {"end_to_end": {}, "per_layer": {}}
    for line in out.splitlines():
        kind, name, *unit = line.split()
        if kind == "workload":
            workloads.append(name)
        else:
            sections[kind][name] = unit[0]
    return workloads, sections["end_to_end"], sections["per_layer"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--run", action="store_true")
    args = parser.parse_args()

    spec = run.load_spec()
    run.build()
    workloads, e2e, layers = listed_names()
    problems = []
    want_workloads = [w["name"] for w in spec["workloads"]]
    if sorted(workloads) != sorted(want_workloads):
        problems.append(f"workloads {workloads} != BENCHMARK.json {want_workloads}")
    problems += run.names_mismatch(e2e, run.expected_metrics(spec, 0))
    problems += run.names_mismatch(layers, run.expected_metrics(spec, 1))

    if args.run:
        for workload in want_workloads:
            for trace in (0, 1):
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                     "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                if proc.returncode != 0:
                    problems.append(f"{workload} trace={trace}: exit {proc.returncode}: "
                                    f"{proc.stderr.strip()[-300:]}")
                    continue
                result = json.loads(proc.stdout.splitlines()[-1])
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{workload} trace={trace}: keys {sorted(result)}")

    for p in problems:
        print(f"FAIL: {p}")
    print("ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
