#pragma once
// Experiment sweeps shared by the benchmark binaries: rate-vs-SNR
// measurement for any rateless session, fixed-rate (rated) operation
// for the hedging study, and environment-based trial scaling so the
// same binaries serve quick CI runs and full paper-fidelity runs.

#include <functional>
#include <memory>

#include "sim/channel_sim.h"
#include "sim/engine.h"
#include "sim/session.h"
#include "spinal/params.h"
#include "util/stats.h"

namespace spinal::sim {

using SessionFactory = std::function<std::unique_ptr<RatelessSession>()>;

struct SweepOptions {
  int trials = 4;                            ///< messages per SNR point
  std::uint64_t seed = 1;                    ///< base seed (trial t adds t)
  int attempt_every = 1;                     ///< chunks between decode attempts
  double attempt_growth = 1.0;               ///< geometric attempt back-off
  ChannelKind channel = ChannelKind::kAwgn;  ///< channel model
  int coherence = 1;                         ///< fading tau (symbols)
};

struct RateMeasurement {
  double snr_db = 0;
  double rate = 0;          ///< goodput: decoded bits / transmitted symbols
  double gap_db = 0;        ///< gap to capacity per §8.1
  double success_rate = 0;  ///< fraction of messages decoded before give-up
  double avg_symbols = 0;   ///< mean symbols per *successful* decode
  util::SampleSet symbols_to_decode;  ///< per-success symbol counts (Fig 8-11)
};

/// Streams @p opt.trials random messages through fresh sessions at one
/// SNR and aggregates rate = sum(decoded bits) / sum(symbols sent).
/// Each trial is one session on a deterministic runtime::DecodeService
/// of SPINAL_BENCH_THREADS workers (at most one per trial), seeded from
/// its index alone; the reports are reduced in trial order, so the
/// measurement is bit-identical to a sequential run_message loop at any
/// thread count. The factory runs on the calling thread, once per trial.
RateMeasurement measure_rate(const SessionFactory& make_session, double snr_db,
                             const SweepOptions& opt);

/// Runs body(t) once for every t in [0, trials) as tasks posted to a
/// deterministic DecodeService of SPINAL_BENCH_THREADS workers (at most
/// one per trial), and returns when all have run; the first exception a
/// body throws is rethrown here. body(t) may only write state owned by
/// trial t, so a reduction in trial order afterwards is bit-identical at
/// any thread count.
void run_trials(int trials, const std::function<void(int)>& body);

/// Throughput of a *rated* spinal code that always transmits exactly
/// @p symbols symbols (the schedule prefix) and decodes once:
/// (n/symbols) * P(success), the ARQ goodput of a fixed-rate code
/// (Fig 8-2's "Spinal, fixed rate" curves).
double fixed_rate_throughput(const CodeParams& params, int symbols, double snr_db,
                             int trials, std::uint64_t seed);

/// Trial scaling for benches: returns @p base, overridden by the
/// SPINAL_BENCH_TRIALS environment variable, multiplied by 8 when
/// SPINAL_BENCH_FULL=1.
int scaled_trials(int base);

}  // namespace spinal::sim
