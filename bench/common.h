#pragma once
// Shared helpers for the per-figure benchmark binaries.
//
// Every bench prints the rows/series of one table or figure from the
// paper as comment-prefixed text plus CSV rows, sized so the whole
// suite finishes on a single-core box. Monte-Carlo trials run on a
// deterministic DecodeService (sim::measure_rate, sim::run_trials);
// per-trial seeding keeps every CSV row byte-identical at any thread
// count. Environment knobs:
//   SPINAL_BENCH_TRIALS=<n>   override per-point trial counts
//   SPINAL_BENCH_FULL=1       8x trials and the fine SNR grid
//   SPINAL_BENCH_THREADS=<n>  worker threads (default: all cores)

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "util/math.h"

namespace benchutil {

inline bool full_mode() {
  const char* env = std::getenv("SPINAL_BENCH_FULL");
  return env != nullptr && std::string(env) == "1";
}

/// SNR grid: coarse step by default, fine step with SPINAL_BENCH_FULL=1.
inline std::vector<double> snr_grid(double lo, double hi, double coarse,
                                    double fine = 1.0) {
  const double step = full_mode() ? fine : coarse;
  std::vector<double> out;
  for (double s = lo; s <= hi + 1e-9; s += step) out.push_back(s);
  return out;
}

inline int trials(int base) { return spinal::sim::scaled_trials(base); }

inline void banner(const char* what, const char* paper_ref) {
  std::printf("# %s\n# reproduces: %s\n", what, paper_ref);
  std::printf("# trials scale: SPINAL_BENCH_TRIALS / SPINAL_BENCH_FULL=1; "
              "threads: SPINAL_BENCH_THREADS\n");
}

/// Fraction of Shannon capacity achieved at snr_db by a code at `rate`.
inline double capacity_fraction(double rate, double snr_db) {
  const double cap = spinal::util::awgn_capacity(spinal::util::db_to_lin(snr_db));
  return cap > 0 ? rate / cap : 0.0;
}

}  // namespace benchutil
