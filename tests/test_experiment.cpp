// Tests for the experiment sweeps: measure_rate on the deterministic
// DecodeService must be bit-identical to a sequential run_sequential
// loop over the same specs, run_trials must run every trial once, and
// the parameter guards must fire before any downstream construction
// happens.

#include "sim/experiment.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/runtime.h"
#include "sim/spinal_session.h"
#include "spinal/decoder.h"
#include "spinal/encoder.h"
#include "util/math.h"
#include "util/prng.h"

namespace spinal {
namespace {

CodeParams small_params() {
  CodeParams p;
  p.n = 64;
  p.k = 4;
  p.c = 6;
  p.B = 16;
  p.max_passes = 12;
  return p;
}

/// Sets SPINAL_BENCH_THREADS for one scope and restores the previous
/// value (or its absence) afterwards.
class ScopedBenchThreads {
 public:
  explicit ScopedBenchThreads(const char* value) {
    if (const char* prev = std::getenv("SPINAL_BENCH_THREADS")) saved_ = prev;
    if (value)
      setenv("SPINAL_BENCH_THREADS", value, 1);
    else
      unsetenv("SPINAL_BENCH_THREADS");
  }
  ~ScopedBenchThreads() {
    if (saved_)
      setenv("SPINAL_BENCH_THREADS", saved_->c_str(), 1);
    else
      unsetenv("SPINAL_BENCH_THREADS");
  }

 private:
  std::optional<std::string> saved_;
};

// ---- runtime == sequential, bit for bit ------------------------------

TEST(Experiment, ParallelMeasureRateIsBitIdenticalToSequential) {
  const CodeParams p = small_params();
  const auto make = [&] { return std::make_unique<sim::SpinalSession>(p); };

  for (const sim::ChannelKind kind :
       {sim::ChannelKind::kAwgn, sim::ChannelKind::kRayleighCsi}) {
    sim::SweepOptions opt;
    opt.trials = 8;
    opt.seed = 42;
    opt.attempt_growth = 1.04;
    opt.channel = kind;
    opt.coherence = 4;
    const double snr = 8.0;

    // The reference: the same per-trial specs through run_sequential on
    // this thread, reduced in trial order.
    sim::RateMeasurement seq;
    long total_symbols = 0, decoded_bits = 0;
    int successes = 0;
    double success_symbols = 0;
    for (int t = 0; t < opt.trials; ++t) {
      const std::uint64_t seed = opt.seed + 0x1000003 * static_cast<std::uint64_t>(t);
      runtime::SessionSpec spec;
      spec.make_session = make;
      util::Xoshiro256 prng(seed ^ 0xC0FFEE);
      spec.message = prng.random_bits(p.n);
      spec.channel.kind = kind;
      spec.channel.snr_db = snr;
      spec.channel.coherence = opt.coherence;
      spec.channel.seed = seed;
      spec.engine.attempt_growth = opt.attempt_growth;
      const runtime::SessionReport r = runtime::run_sequential(spec);
      total_symbols += r.run.symbols;
      if (r.run.success) {
        ++successes;
        decoded_bits += r.message_bits;
        success_symbols += static_cast<double>(r.run.symbols);
        seq.symbols_to_decode.add(static_cast<double>(r.run.symbols));
      }
    }
    ASSERT_GT(successes, 0) << "test wants at least one success";
    seq.rate = static_cast<double>(decoded_bits) / total_symbols;
    seq.gap_db = util::gap_to_capacity_db(seq.rate, snr);
    seq.success_rate = static_cast<double>(successes) / opt.trials;
    seq.avg_symbols = success_symbols / successes;

    for (const char* threads : {"1", "2", "4"}) {
      const ScopedBenchThreads env(threads);
      const sim::RateMeasurement par = sim::measure_rate(make, snr, opt);
      EXPECT_EQ(seq.rate, par.rate) << "threads=" << threads;
      EXPECT_EQ(seq.gap_db, par.gap_db) << "threads=" << threads;
      EXPECT_EQ(seq.success_rate, par.success_rate) << "threads=" << threads;
      EXPECT_EQ(seq.avg_symbols, par.avg_symbols) << "threads=" << threads;
      // Sample order feeds the Fig 8-11 CDF; it must match exactly too.
      EXPECT_EQ(seq.symbols_to_decode.samples(), par.symbols_to_decode.samples())
          << "threads=" << threads;
    }
  }
}

TEST(Experiment, MeasureRateRefusesBscSweeps) {
  const CodeParams p = small_params();
  sim::SweepOptions opt;
  opt.channel = sim::ChannelKind::kBsc;
  EXPECT_THROW(sim::measure_rate([&] { return std::make_unique<sim::SpinalSession>(p); },
                                 8.0, opt),
               std::invalid_argument);
}

TEST(Experiment, FixedRateThroughputIsDeterministic) {
  const CodeParams p = small_params();
  const int symbols = p.symbols_per_pass() * 2;
  const double a = sim::fixed_rate_throughput(p, symbols, 10.0, 6, 99);
  const ScopedBenchThreads env("1");
  const double b = sim::fixed_rate_throughput(p, symbols, 10.0, 6, 99);
  EXPECT_EQ(a, b);
}

// ---- run_trials ------------------------------------------------------

TEST(Experiment, RunTrialsRunsEveryIndexOnceAndRethrows) {
  const ScopedBenchThreads env("4");
  const int n = 257;
  std::vector<std::atomic<int>> hits(n);
  sim::run_trials(n, [&](int t) { hits[t].fetch_add(1); });
  for (int t = 0; t < n; ++t) EXPECT_EQ(hits[t].load(), 1) << "t=" << t;

  EXPECT_THROW(sim::run_trials(64,
                               [](int t) {
                                 if (t == 13) throw std::runtime_error("boom");
                               }),
               std::runtime_error);
}

TEST(Experiment, BenchThreadsHonorsEnvOverride) {
  {
    const ScopedBenchThreads env("3");
    EXPECT_EQ(runtime::bench_threads(), 3);
  }
  {
    const ScopedBenchThreads env("0");
    EXPECT_GE(runtime::bench_threads(), 1);  // invalid values fall back
  }
  const ScopedBenchThreads env(nullptr);
  EXPECT_GE(runtime::bench_threads(), 1);
}

// ---- constructor / overflow guards -----------------------------------

TEST(ParamGuards, ConstructorsValidateBeforeUse) {
  CodeParams bad = small_params();
  bad.k = 0;  // would reach Constellation/Schedule/spine if not validated first
  EXPECT_THROW(SpinalDecoder{bad}, std::invalid_argument);
  EXPECT_THROW(BscSpinalDecoder{bad}, std::invalid_argument);
  EXPECT_THROW(SpinalEncoder(bad, util::BitVec(64)), std::invalid_argument);
  EXPECT_THROW(BscSpinalEncoder(bad, util::BitVec(64)), std::invalid_argument);

  bad = small_params();
  bad.c = 16;
  EXPECT_THROW(SpinalDecoder{bad}, std::invalid_argument);
}

TEST(ParamGuards, RejectsPathWordOverflow) {
  // k*d > 32 would overflow BeamSearch's 32-bit packed subtree paths.
  CodeParams p = small_params();
  p.k = 8;
  p.d = 5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  EXPECT_THROW(SpinalDecoder{p}, std::invalid_argument);
  EXPECT_THROW(SpinalEncoder(p, util::BitVec(64)), std::invalid_argument);
}

}  // namespace
}  // namespace spinal
