#!/usr/bin/env python3
"""Self-test of tools/perf_guard.py on synthetic inputs.

Each case writes a baseline snapshot and a current Google-Benchmark run
into a temporary directory, runs the guard on them and checks its exit
code. Run directly (`python3 tools/test_perf_guard.py`) or via ctest.
"""

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

GUARD = pathlib.Path(__file__).resolve().parent / "perf_guard.py"

# Cases on the run's default backend, and cases pinned to one backend.
DEFAULT = ["BM_DecodeAwgn/n:256/k:4/B:256/d:1/passes:2",
           "BM_DecodeAwgn/n:256/k:4/B:64/d:1/passes:2",
           "BM_DecodeAwgnQuant/prec:1/d:1",
           "BM_DecodeBsc/B:256/passes:6",
           "BM_DecodeBsc/B:64/passes:6"]
PINNED = ["BM_DecodeAwgn/backend:scalar", "BM_DecodeAwgn/backend:sse42",
          "BM_DecodeAwgnQuant/backend:scalar", "BM_DecodeBsc/backend:sse42"]


def run_guard(speedups):
    """Runs the guard on a baseline of 1000 items/s per case and a
    current run at baseline * speedups[name]; returns its exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        base = pathlib.Path(tmp, "baseline.json")
        cur = pathlib.Path(tmp, "current.json")
        base.write_text(json.dumps({"points": {n: 1000.0 for n in speedups}}))
        cur.write_text(json.dumps({"benchmarks": [
            {"name": n, "run_type": "iteration", "items_per_second": 1000.0 * s}
            for n, s in speedups.items()]}))
        return subprocess.run([sys.executable, str(GUARD), str(cur), str(base)],
                              capture_output=True, text=True).returncode


def shape(default, pinned):
    """Every default case at x@p default, every pinned case at x@p pinned."""
    out = {n: default for n in DEFAULT}
    out.update({n: pinned for n in PINNED})
    return out


class PerfGuardSelfTest(unittest.TestCase):
    def test_wider_default_backend_passes(self):
        # A runner whose default backend moved to a wider lane: the
        # default cases gain x1.5, the pinned ones only x1.1. One median
        # over both groups (x1.5) would floor the pinned cases at x1.125.
        self.assertEqual(run_guard(shape(1.5, 1.1)), 0)

    def test_uniform_speed_passes(self):
        self.assertEqual(run_guard(shape(0.7, 0.7)), 0)

    def test_default_case_at_half_its_group_fails(self):
        speedups = shape(1.5, 1.1)
        speedups[DEFAULT[0]] = 0.75
        self.assertEqual(run_guard(speedups), 1)

    def test_pinned_case_at_half_its_group_fails(self):
        speedups = shape(1.5, 1.1)
        speedups[PINNED[0]] = 0.55
        self.assertEqual(run_guard(speedups), 1)


if __name__ == "__main__":
    unittest.main()
