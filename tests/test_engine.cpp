#include "sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>

#include "ldpc/ldpc_session.h"
#include "sim/bsc_session.h"
#include "sim/experiment.h"
#include "sim/spinal_session.h"
#include "util/math.h"
#include "util/prng.h"

namespace spinal::sim {
namespace {

CodeParams fast_params() {
  CodeParams p;
  p.n = 64;
  p.k = 4;
  p.B = 64;
  p.max_passes = 24;
  return p;
}

TEST(Engine, DecodesAtHighSnrWithFewSymbols) {
  const CodeParams p = fast_params();
  SpinalSession session(p);
  ChannelSim channel(ChannelKind::kAwgn, 25.0, 1, 42);
  util::Xoshiro256 prng(1);
  const util::BitVec msg = prng.random_bits(p.n);
  const RunResult r = run_message(session, channel, msg);
  EXPECT_TRUE(r.success);
  EXPECT_GT(r.symbols, 0);
  // 25 dB -> capacity ~8.3 b/s; even a loose decoder should use far
  // fewer symbols than 2 full passes (36 symbols).
  EXPECT_LE(r.symbols, 2 * p.symbols_per_pass());
}

TEST(Engine, UsesMoreSymbolsAtLowerSnr) {
  const CodeParams p = fast_params();
  util::Xoshiro256 prng(2);
  const util::BitVec msg = prng.random_bits(p.n);

  SpinalSession s_high(p), s_low(p);
  ChannelSim ch_high(ChannelKind::kAwgn, 25.0, 1, 7);
  ChannelSim ch_low(ChannelKind::kAwgn, 3.0, 1, 7);
  const RunResult high = run_message(s_high, ch_high, msg);
  const RunResult low = run_message(s_low, ch_low, msg);
  ASSERT_TRUE(high.success);
  ASSERT_TRUE(low.success);
  EXPECT_GT(low.symbols, high.symbols);
}

TEST(Engine, GivesUpAtHopelessSnr) {
  CodeParams p = fast_params();
  p.max_passes = 4;  // cap channel use
  SpinalSession session(p);
  ChannelSim channel(ChannelKind::kAwgn, -15.0, 1, 8);
  util::Xoshiro256 prng(3);
  const RunResult r = run_message(session, channel, prng.random_bits(p.n));
  EXPECT_FALSE(r.success);
  EXPECT_LE(r.chunks, session.max_chunks());
}

TEST(Engine, AttemptEveryReducesAttempts) {
  const CodeParams p = fast_params();
  util::Xoshiro256 prng(4);
  const util::BitVec msg = prng.random_bits(p.n);

  SpinalSession s1(p), s4(p);
  ChannelSim ch1(ChannelKind::kAwgn, 10.0, 1, 9);
  ChannelSim ch4(ChannelKind::kAwgn, 10.0, 1, 9);
  EngineOptions o1, o4;
  o1.attempt_every = 1;
  o4.attempt_every = 4;
  const RunResult r1 = run_message(s1, ch1, msg, o1);
  const RunResult r4 = run_message(s4, ch4, msg, o4);
  EXPECT_TRUE(r1.success);
  EXPECT_TRUE(r4.success);
  EXPECT_LE(r4.attempts, r1.attempts);
  EXPECT_GE(r4.symbols, r1.symbols);  // coarser attempts can't use fewer symbols
}

TEST(Engine, SymbolGranularChunksDecodeToo) {
  const CodeParams p = fast_params();
  SpinalSession session(p, /*symbols_per_chunk=*/1);
  ChannelSim channel(ChannelKind::kAwgn, 20.0, 1, 10);
  util::Xoshiro256 prng(5);
  const util::BitVec msg = prng.random_bits(p.n);
  const RunResult r = run_message(session, channel, msg);
  EXPECT_TRUE(r.success);
}

TEST(Engine, RayleighWithCsiDecodes) {
  const CodeParams p = fast_params();
  SpinalSession session(p);
  ChannelSim channel(ChannelKind::kRayleighCsi, 20.0, 10, 11);
  util::Xoshiro256 prng(6);
  const RunResult r = run_message(session, channel, prng.random_bits(p.n));
  EXPECT_TRUE(r.success);
}

TEST(Engine, RayleighWithoutCsiStillDecodes) {
  // Fig 8-5: the AWGN decoder is resilient to missing fading info (at a
  // rate penalty).
  const CodeParams p = fast_params();
  SpinalSession session(p);
  ChannelSim channel(ChannelKind::kRayleighNoCsi, 22.0, 100, 12);
  util::Xoshiro256 prng(7);
  const RunResult r = run_message(session, channel, prng.random_bits(p.n));
  EXPECT_TRUE(r.success);
}

TEST(Engine, RejectsInvalidOptions) {
  // Regression: attempt_every <= 0 used to silently stall the attempt
  // schedule (next_attempt never advanced past the chunk count), and
  // attempt_growth < 1 shrank it. Both must fail loudly instead.
  const CodeParams p = fast_params();
  SpinalSession session(p);
  ChannelSim channel(ChannelKind::kAwgn, 20.0, 1, 21);
  util::Xoshiro256 prng(8);
  const util::BitVec msg = prng.random_bits(p.n);

  EngineOptions bad_every;
  bad_every.attempt_every = 0;
  EXPECT_THROW(run_message(session, channel, msg, bad_every), std::invalid_argument);
  EngineOptions negative_every;
  negative_every.attempt_every = -3;
  EXPECT_THROW(run_message(session, channel, msg, negative_every),
               std::invalid_argument);
  EngineOptions bad_growth;
  bad_growth.attempt_growth = 0.99;
  EXPECT_THROW(run_message(session, channel, msg, bad_growth), std::invalid_argument);
  // NaN compares false against every bound, and an infinite growth
  // overflows the next attempt's step: both are rejected too.
  EngineOptions nan_growth;
  nan_growth.attempt_growth = std::nan("");
  EXPECT_THROW(run_message(session, channel, msg, nan_growth), std::invalid_argument);
  EngineOptions inf_growth;
  inf_growth.attempt_growth = std::numeric_limits<double>::infinity();
  EXPECT_THROW(run_message(session, channel, msg, inf_growth), std::invalid_argument);

  // A finite but huge growth is valid: the back-off clamps instead of
  // overflowing, so the schedule is due once, at the first non-empty
  // chunk (where the capacity gate may hold the attempt back), and the
  // run then streams to completion without another.
  EngineOptions huge_growth;
  huge_growth.attempt_growth = 1e300;
  const RunResult huge = run_message(session, channel, msg, huge_growth);
  EXPECT_LE(huge.attempts, 1);
  EXPECT_TRUE(huge.success || huge.chunks == session.max_chunks());

  EngineOptions ok;
  ok.attempt_every = 2;
  ok.attempt_growth = 1.5;
  EXPECT_NO_THROW(ok.validate());
  EXPECT_TRUE(run_message(session, channel, msg, ok).success);
}

TEST(Engine, GatedScheduleKeepsTheUngatedSteps) {
  // With the gate lifting at any step, the gated schedule attempts at
  // exactly the ungated schedule's steps from there on, with or without
  // the geometric back-off.
  for (double growth : {1.0, 1.04, 1.1, 1.5})
    for (int every : {1, 4})
      for (int lift = 1; lift <= 200; ++lift) {
        AttemptSchedule gated(every, growth);
        AttemptSchedule ungated(every, growth);
        for (int step = 1; step <= 400; ++step) {
          const bool want = ungated.due(step, step, 0) && step >= lift;
          // One symbol per step; the gate wants `lift` of them.
          ASSERT_EQ(gated.due(step, step, lift), want)
              << "growth " << growth << " every " << every << " lift " << lift
              << " step " << step;
        }
      }
}

TEST(Engine, MessageRunStepperMatchesRunMessage) {
  // The non-blocking stepper is the entry point the decode runtime
  // drives; a hand-rolled feed/attempt loop over it must reproduce
  // run_message exactly (same channel-noise draws via identical seeds).
  const CodeParams p = fast_params();
  util::Xoshiro256 prng(9);
  const util::BitVec msg = prng.random_bits(p.n);
  EngineOptions opt;
  opt.attempt_every = 2;
  opt.attempt_growth = 1.25;

  SpinalSession s1(p);
  ChannelSim ch1(ChannelKind::kAwgn, 9.0, 1, 33);
  const RunResult direct = run_message(s1, ch1, msg, opt);

  SpinalSession s2(p);
  ChannelSim ch2(ChannelKind::kAwgn, 9.0, 1, 33);
  MessageRun run(s2, ch2, msg, opt);
  while (run.feed_to_attempt()) run.record_attempt(s2.try_decode());
  ASSERT_TRUE(run.finished());

  EXPECT_EQ(direct.success, run.result().success);
  EXPECT_EQ(direct.symbols, run.result().symbols);
  EXPECT_EQ(direct.chunks, run.result().chunks);
  EXPECT_EQ(direct.attempts, run.result().attempts);
}

/// The engine's loop before the capacity gate: stream every chunk and
/// attempt a decode at the @p every-th non-empty one, then, after an
/// attempt at non-empty chunk s, at non-empty chunk
/// max(s + every, floor(s * growth)).
RunResult ungated_run(RatelessSession& session, ChannelSim& channel,
                      const util::BitVec& message, int every, double growth) {
  RunResult r;
  session.start(message);
  session.set_noise_hint(channel.noise_variance());
  std::vector<std::complex<float>> csi;
  long nonempty = 0;
  long next = every;
  for (int chunk = 0; chunk < session.max_chunks(); ++chunk) {
    std::vector<std::complex<float>> x = session.next_chunk();
    ++r.chunks;
    if (x.empty()) continue;
    csi.clear();
    channel.transmit(x, csi);
    session.receive_chunk(x, csi);
    r.symbols += static_cast<long>(x.size());
    if (++nonempty < next) continue;
    next = std::max(nonempty + every, static_cast<long>(static_cast<double>(nonempty) * growth));
    ++r.attempts;
    const std::optional<util::BitVec> candidate = session.try_decode();
    if (candidate && *candidate == message) {
      r.success = true;
      break;
    }
  }
  return r;
}

/// One run of the gate's safety grid.
struct GateCase {
  std::string label;
  std::function<std::unique_ptr<RatelessSession>()> make_session;
  std::function<ChannelSim()> make_channel;
  int message_bits = 0;
  int every = 1;
  double growth = 1.0;
  bool gated = true;  ///< false: Rayleigh or n <= 16, where the gate never fires
};

TEST(Engine, CapacityGateNeverDelaysADecode) {
  // The capacity gate only removes attempts that cannot succeed: every
  // run must succeed with exactly the symbols of the ungated loop, and
  // never attempt more often, with or without the geometric back-off
  // (the paper-figure benches run at growth 1.04 to 1.10).
  std::vector<GateCase> cases;
  std::uint64_t seed = 1000;
  const auto spinal_case = [&](double snr_db, double crossover, int n, int B,
                               CostPrecision prec, int every, double growth) {
    CodeParams p;
    p.n = n;
    p.B = B;
    p.cost_precision = prec;
    p.max_passes = 48;
    const bool bsc = crossover > 0.0;
    if (bsc) p.c = 1;
    const std::uint64_t s = ++seed;
    GateCase g;
    g.label = (bsc ? "bsc p=" + std::to_string(crossover)
                   : "awgn " + std::to_string(snr_db) + " dB") +
              " n=" + std::to_string(n) + " B=" + std::to_string(B) +
              " prec=" + std::to_string(static_cast<int>(prec)) +
              " every=" + std::to_string(every) + " growth=" + std::to_string(growth);
    g.make_session = [p, bsc]() -> std::unique_ptr<RatelessSession> {
      if (bsc) return std::make_unique<BscSession>(p);
      return std::make_unique<SpinalSession>(p);
    };
    g.make_channel = [bsc, snr_db, crossover, s] {
      return bsc ? ChannelSim::bsc(crossover, s)
                 : ChannelSim(ChannelKind::kAwgn, snr_db, 1, s);
    };
    g.message_bits = n;
    g.every = every;
    g.growth = growth;
    cases.push_back(std::move(g));
  };
  for (int every : {1, 4})
    for (int n : {64, 256})
      for (int B : {16, 64, 256})
        for (CostPrecision prec :
             {CostPrecision::kFloat32, CostPrecision::kU16, CostPrecision::kU8}) {
          for (double snr_db : {0.0, 5.0, 10.0, 20.0})
            spinal_case(snr_db, 0.0, n, B, prec, every, 1.0);
          for (double crossover : {0.02, 0.1})
            spinal_case(0.0, crossover, n, B, prec, every, 1.0);
        }
  // The geometric back-off: a gated step must move it exactly as the
  // ungated attempt there would, or the attempts after the gate lifts
  // fall on other chunks than the ungated loop's. The back-off outgrows
  // the linear floor only past chunk (every + 1) / (growth - 1), so the
  // SNRs below 0 dB keep the gate up long enough to reach it.
  for (double growth : {1.04, 1.10})
    for (int every : {1, 4})
      for (int B : {16, 64})
        for (double snr_db : {-10.0, -7.0, -5.0, 0.0, 5.0, 10.0})
          spinal_case(snr_db, 0.0, 256, B, CostPrecision::kFloat32, every, growth);
  for (double growth : {1.04, 1.10})
    for (int every : {1, 4})
      spinal_case(0.0, 0.02, 256, 64, CostPrecision::kU16, every, growth);

  // Where the gate never fires: Rayleigh fading, and n <= 16.
  for (ChannelKind kind : {ChannelKind::kRayleighCsi, ChannelKind::kRayleighNoCsi}) {
    const std::uint64_t s = ++seed;
    GateCase g;
    g.label = "rayleigh " + std::to_string(static_cast<int>(kind));
    g.make_session = [] { return std::make_unique<SpinalSession>(fast_params()); };
    g.make_channel = [kind, s] { return ChannelSim(kind, 10.0, 10, s); };
    g.message_bits = fast_params().n;
    g.gated = false;
    cases.push_back(std::move(g));
  }
  for (int n : {8, 16}) {
    CodeParams p = fast_params();
    p.n = n;
    const std::uint64_t s = ++seed;
    GateCase g;
    g.label = "n=" + std::to_string(n);
    g.make_session = [p] { return std::make_unique<SpinalSession>(p); };
    g.make_channel = [s] { return ChannelSim(ChannelKind::kAwgn, 0.0, 1, s); };
    g.message_bits = n;
    g.gated = false;
    cases.push_back(std::move(g));
  }

  // One baseline codec: LDPC rounds through the same gate.
  {
    ldpc::LdpcSessionConfig cfg;
    cfg.bp_iterations = 20;
    const auto ctx = ldpc::LdpcSession::make_context(cfg);
    const std::uint64_t s = ++seed;
    GateCase g;
    g.label = "ldpc 5 dB";
    g.make_session = [cfg, ctx] { return std::make_unique<ldpc::LdpcSession>(cfg, ctx); };
    g.make_channel = [s] { return ChannelSim(ChannelKind::kAwgn, 5.0, 1, s); };
    g.message_bits = ctx->encoder.info_bits();
    cases.push_back(std::move(g));
  }

  int fewer = 0;
  for (const GateCase& g : cases) {
    util::Xoshiro256 prng(++seed);
    const util::BitVec msg = prng.random_bits(static_cast<std::size_t>(g.message_bits));
    EngineOptions opt;
    opt.attempt_every = g.every;
    opt.attempt_growth = g.growth;
    const auto s1 = g.make_session();
    ChannelSim ch1 = g.make_channel();
    const RunResult gated = run_message(*s1, ch1, msg, opt);
    const auto s2 = g.make_session();
    ChannelSim ch2 = g.make_channel();
    const RunResult ungated = ungated_run(*s2, ch2, msg, g.every, g.growth);

    EXPECT_EQ(gated.success, ungated.success) << g.label;
    EXPECT_EQ(gated.symbols, ungated.symbols) << g.label;
    EXPECT_LE(gated.attempts, ungated.attempts) << g.label;
    if (!g.gated) {
      EXPECT_EQ(gated.attempts, ungated.attempts) << g.label;
    }
    fewer += gated.attempts < ungated.attempts;
  }
  EXPECT_GT(fewer, 0);  // the gate fired somewhere: the test is not vacuous
}

TEST(Engine, RefinedGateDelaysNoDecodeAtTheBenchmarkPoints) {
  // The gate's third-order term sits closest to the decoder's earliest
  // successes at the fleet's reference points: AWGN at 10 dB, and the
  // BSC at p = 0.02 attempting every half pass. Over 64 seeds each, no
  // run may decode later than in the ungated loop.
  struct Point {
    bool bsc;
    int every;
  };
  int fewer = 0;
  for (const Point pt : {Point{false, 1}, Point{true, 4}}) {
    CodeParams p;
    p.n = 256;
    p.B = 64;
    p.max_passes = 48;
    if (pt.bsc) p.c = 1;
    EngineOptions opt;
    opt.attempt_every = pt.every;
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
      const auto make_session = [&]() -> std::unique_ptr<RatelessSession> {
        if (pt.bsc) return std::make_unique<BscSession>(p);
        return std::make_unique<SpinalSession>(p);
      };
      const auto make_channel = [&] {
        return pt.bsc ? ChannelSim::bsc(0.02, 5000 + seed)
                      : ChannelSim(ChannelKind::kAwgn, 10.0, 1, 5000 + seed);
      };
      util::Xoshiro256 prng(seed);
      const util::BitVec msg = prng.random_bits(static_cast<std::size_t>(p.n));
      const auto s1 = make_session();
      ChannelSim ch1 = make_channel();
      const RunResult gated = run_message(*s1, ch1, msg, opt);
      const auto s2 = make_session();
      ChannelSim ch2 = make_channel();
      const RunResult ungated = ungated_run(*s2, ch2, msg, pt.every, 1.0);
      const std::string label =
          std::string(pt.bsc ? "bsc" : "awgn") + " seed " + std::to_string(seed);
      EXPECT_EQ(gated.success, ungated.success) << label;
      EXPECT_EQ(gated.symbols, ungated.symbols) << label;
      EXPECT_LE(gated.attempts, ungated.attempts) << label;
      fewer += gated.attempts < ungated.attempts;
    }
  }
  EXPECT_EQ(fewer, 128);  // the gate fired in every run
}

TEST(Engine, BscSessionDecodesThroughEngine) {
  // The BSC construction behind the same engine as AWGN (§3.3/§4.1):
  // bits ride the real axis and ChannelSim::bsc flips them.
  CodeParams p = fast_params();
  p.c = 1;
  p.max_passes = 32;
  BscSession session(p);
  ChannelSim channel = ChannelSim::bsc(0.03, 77);
  EXPECT_EQ(channel.kind(), ChannelKind::kBsc);
  EXPECT_DOUBLE_EQ(channel.noise_variance(), 0.03);
  util::Xoshiro256 prng(10);
  const RunResult r = run_message(session, channel, prng.random_bits(p.n));
  EXPECT_TRUE(r.success);
  EXPECT_GT(r.symbols, 0);
}

TEST(Engine, BscChannelKindRequiresFactory) {
  EXPECT_THROW(ChannelSim(ChannelKind::kBsc, 10.0, 1, 1), std::invalid_argument);
}

TEST(Experiment, MeasuredRateBelowCapacityAboveHalf) {
  const CodeParams p = fast_params();
  SweepOptions opt;
  opt.trials = 6;
  const auto m = measure_rate([&] { return std::make_unique<SpinalSession>(p); },
                              15.0, opt);
  const double cap = util::awgn_capacity(util::db_to_lin(15.0));
  EXPECT_EQ(m.success_rate, 1.0);
  EXPECT_LT(m.rate, cap);
  EXPECT_GT(m.rate, 0.5 * cap);
  EXPECT_LT(m.gap_db, 0.0);
}

TEST(Experiment, RateIncreasesWithSnr) {
  const CodeParams p = fast_params();
  SweepOptions opt;
  opt.trials = 4;
  double prev = 0.0;
  for (double snr : {0.0, 10.0, 20.0}) {
    const auto m = measure_rate([&] { return std::make_unique<SpinalSession>(p); },
                                snr, opt);
    EXPECT_GT(m.rate, prev) << snr;
    prev = m.rate;
  }
}

TEST(Experiment, FixedRateThroughputBoundedByRate) {
  CodeParams p = fast_params();
  p.tail_symbols = 2;
  const int symbols = 2 * p.symbols_per_pass();
  const double tput = fixed_rate_throughput(p, symbols, 12.0, 8, 3);
  EXPECT_GE(tput, 0.0);
  EXPECT_LE(tput, static_cast<double>(p.n) / symbols + 1e-9);
  // At 12 dB (capacity ~4.07) a rate-1.78 code should succeed always.
  EXPECT_NEAR(tput, static_cast<double>(p.n) / symbols, 0.2);
}

TEST(Experiment, ScaledTrialsDefaultsToBase) {
  // Environment-independent check: without env overrides the base is
  // returned (the test runner does not set SPINAL_BENCH_*).
  if (!std::getenv("SPINAL_BENCH_TRIALS") && !std::getenv("SPINAL_BENCH_FULL")) {
    EXPECT_EQ(scaled_trials(5), 5);
  }
}

}  // namespace
}  // namespace spinal::sim
