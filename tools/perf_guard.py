#!/usr/bin/env python3
"""Perf-regression guard: compare a quick-mode Google-Benchmark run
against a checked-in baseline snapshot and fail on real regressions.

Usage:
    perf_guard.py CURRENT_BENCH_JSON BASELINE_SNAPSHOT_JSON
                  [--also EXTRA_BENCH_JSON ...] [--tolerance 0.25]
                  [--expect-ratio NUM_BENCH DEN_BENCH MIN ...]

CURRENT is the raw --benchmark_out JSON of the run under test;
BASELINE is a perf_snapshot.py document checked into the repo
(bench/perf_baseline_quick.json). --also merges additional current-run
JSON files (e.g. bench_runtime_throughput's quick-mode output) into the
comparison; their points only gate when the baseline carries matching
names, so machine-shape-dependent benches can ride along for the
artifact trail before they are baselined.

CI machines differ in absolute speed from the machine the baseline was
recorded on, and differ run to run. A naive absolute comparison would
flag every slow runner, so the guard normalises by the *median ratio*
of each backend group: a uniformly slower machine moves every
benchmark by the same factor and normalises away, while a genuine
regression shows up as one benchmark falling more than the tolerance
below the rest of its group. The groups are the cases pinned to one
kernel backend (a `backend:<name>` suffix) and the cases on the run's
default backend: a runner whose default backend is wider than the
baseline's (AVX-512 vs AVX2) speeds up only the default group, so one
median over both would push the pinned cases under the floor. A group
needs >= 3 shared benchmarks for a meaningful median; a smaller one is
skipped. The tolerance is generous (25% by default) — this gate
exists to catch 2x cliffs (a kernel knocked off its fast path, a debug
build leaking into the bench), not 5% drift.

--expect-ratio gates a *within-run* speed ratio: current[NUM] /
current[DEN] must be >= MIN. Both points come from the same binary and
the same run, so machine speed cancels exactly — this is how the
quantized narrow-metric path's speedup over the f32 reference
(BM_DecodeAwgnQuant/prec:1/d:1 vs BM_DecodeAwgn/n:256/k:4/B:256/d:1)
is enforced without trusting cross-machine absolutes. Since PR 7 the
baseline also carries the d=2 reference-geometry point and the
quantized (u16/u8) decode points, so those gate through the median
check like everything else.
"""

import argparse
import json
import pathlib
import statistics
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from perf_snapshot import distill  # one name-normalisation, shared with the snapshot


def backend_group(name):
    """'pinned' for a case pinned to one backend, else 'default'."""
    return "pinned" if "/backend:" in name else "default"


def load_current(path):
    with open(path) as f:
        raw = json.load(f)
    return distill(raw, [])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("current")
    ap.add_argument("baseline")
    ap.add_argument("--also", action="append", default=[],
                    help="additional current-run --benchmark_out JSON files "
                         "to merge (e.g. bench_runtime_throughput quick mode)")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed fractional drop below the run's median ratio")
    ap.add_argument("--expect-ratio", nargs=3, action="append", default=[],
                    metavar=("NUM_BENCH", "DEN_BENCH", "MIN"),
                    help="require current[NUM]/current[DEN] >= MIN "
                         "(a within-run ratio: machine speed cancels)")
    args = ap.parse_args()

    # Unreadable inputs are hard failures: the CI step that runs this
    # guard is already gated on the bench-producing step's success, so
    # a missing/corrupt file here means the producer lied or the repo's
    # baseline is broken — exactly what a gate must not shrug off.
    try:
        current = load_current(args.current)
        for path in args.also:
            for name, ips in load_current(path).items():
                current[name] = max(current.get(name, 0.0), ips)
    except (OSError, json.JSONDecodeError) as e:
        print(f"perf_guard: FAIL — cannot read current run ({e})", file=sys.stderr)
        return 2
    try:
        with open(args.baseline) as f:
            baseline = json.load(f)["points"]
    except (OSError, json.JSONDecodeError, KeyError) as e:
        print(f"perf_guard: FAIL — cannot read baseline ({e})", file=sys.stderr)
        return 2

    groups = {}
    for n in sorted(set(current) & set(baseline)):
        groups.setdefault(backend_group(n), []).append(n)

    failures = []
    for group, shared in sorted(groups.items()):
        if len(shared) < 3:
            print(f"perf_guard: {group} group has only {len(shared)} shared "
                  "benchmarks; need >= 3 for a meaningful median — skipping it",
                  file=sys.stderr)
            continue
        ratios = {n: current[n] / baseline[n] for n in shared}
        median = statistics.median(ratios.values())
        floor = median * (1.0 - args.tolerance)
        print(f"perf_guard: {group} group, {len(shared)} shared benchmarks, "
              f"median speed ratio {median:.3f}, floor {floor:.3f}")
        for n in shared:
            flag = ""
            if ratios[n] < floor:
                failures.append(n)
                flag = "  <-- REGRESSION"
            print(f"  {n:48s} {baseline[n] / 1e3:9.1f}k -> {current[n] / 1e3:9.1f}k "
                  f"(x{ratios[n]:.2f}){flag}")

    ratio_failures = []
    for num, den, min_s in args.expect_ratio:
        if num not in current or den not in current:
            # A missing point means the producing bench didn't run the
            # case — that's a broken producer, not a soft skip.
            print(f"perf_guard: FAIL — --expect-ratio point missing from "
                  f"current run ({num if num not in current else den})",
                  file=sys.stderr)
            return 2
        ratio = current[num] / current[den]
        ok = ratio >= float(min_s)
        print(f"  ratio {num} / {den} = x{ratio:.2f} "
              f"(require >= x{float(min_s):.2f}){'' if ok else '  <-- BELOW FLOOR'}")
        if not ok:
            ratio_failures.append(num)

    if failures:
        print(f"perf_guard: FAIL — {len(failures)} benchmark(s) regressed more than "
              f"{args.tolerance:.0%} against their group's median", file=sys.stderr)
        return 1
    if ratio_failures:
        print(f"perf_guard: FAIL — {len(ratio_failures)} within-run speed "
              "ratio(s) below the required floor", file=sys.stderr)
        return 1
    print("perf_guard: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
