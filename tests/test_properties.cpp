// Parameterised property sweeps over the code's configuration space:
// every (k, c, puncturing, map, hash) combination must satisfy the
// invariants the paper's construction promises — prefix property,
// deterministic symbol addressing, decode-at-high-SNR, and monotone
// behaviour in the resource knobs.

#include <gtest/gtest.h>

#include <tuple>

#include "backend/backend.h"
#include "channel/awgn.h"
#include "channel/bsc.h"
#include "raptor/precode.h"
#include "raptor/raptor_session.h"
#include "sim/channel_sim.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "sim/spinal_session.h"
#include "spinal/cost_model.h"
#include "spinal/decoder.h"
#include "spinal/encoder.h"
#include "util/prng.h"

namespace spinal {
namespace {

// ---------------------------------------------------------------------
// Sweep 1: (k, puncture_ways) grid — full rateless round trips.
// ---------------------------------------------------------------------

class KWaysSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

INSTANTIATE_TEST_SUITE_P(Grid, KWaysSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 6),
                                            ::testing::Values(1, 2, 4, 8)),
                         [](const auto& info) {
                           return "k" + std::to_string(std::get<0>(info.param)) +
                                  "_w" + std::to_string(std::get<1>(info.param));
                         });

TEST_P(KWaysSweep, RoundTripAtModerateSnr) {
  CodeParams p;
  p.n = 60;  // exercises short final chunks for k=7 etc.
  p.k = std::get<0>(GetParam());
  p.puncture_ways = std::get<1>(GetParam());
  p.B = 64;
  p.max_passes = 32;

  sim::SpinalSession session(p);
  sim::ChannelSim channel(sim::ChannelKind::kAwgn, 12.0, 1,
                          0xAB + p.k * 8 + p.puncture_ways);
  util::Xoshiro256 prng(p.k * 131 + p.puncture_ways);
  const util::BitVec msg = prng.random_bits(p.n);
  const sim::RunResult r = run_message(session, channel, msg);
  EXPECT_TRUE(r.success) << "k=" << p.k << " ways=" << p.puncture_ways;
}

TEST_P(KWaysSweep, ScheduleCoversEverySymbolExactlyOnce) {
  CodeParams p;
  p.n = 60;
  p.k = std::get<0>(GetParam());
  p.puncture_ways = std::get<1>(GetParam());
  const PuncturingSchedule sched(p);

  // Across 3 passes: every (spine, ordinal<3) id appears exactly once
  // for non-last spine values; the last spine value advances 1+tail per
  // pass.
  std::vector<std::vector<int>> seen(p.spine_length());
  for (auto& v : seen) v.assign(3 * (1 + p.tail_symbols) + 1, 0);
  for (int sp = 0; sp < 3 * sched.subpasses_per_pass(); ++sp)
    for (const SymbolId& id : sched.subpass(sp)) {
      ASSERT_LT(id.ordinal, static_cast<int>(seen[id.spine_index].size()));
      ++seen[id.spine_index][id.ordinal];
    }
  const int last = p.spine_length() - 1;
  for (int i = 0; i < p.spine_length(); ++i) {
    const int per_pass = (i == last) ? (1 + p.tail_symbols) : 1;
    for (int o = 0; o < 3 * per_pass; ++o)
      EXPECT_EQ(seen[i][o], 1) << "spine " << i << " ordinal " << o;
  }
}

// ---------------------------------------------------------------------
// Sweep 2: (c, map) grid — constellation invariants.
// ---------------------------------------------------------------------

class CMapSweep
    : public ::testing::TestWithParam<std::tuple<int, modem::MapKind>> {};

INSTANTIATE_TEST_SUITE_P(
    Grid, CMapSweep,
    ::testing::Combine(::testing::Values(1, 2, 4, 6, 8),
                       ::testing::Values(modem::MapKind::kUniform,
                                         modem::MapKind::kTruncatedGaussian)),
    [](const auto& info) {
      return "c" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == modem::MapKind::kUniform ? "_uni" : "_gau");
    });

TEST_P(CMapSweep, EncoderPowerIsP) {
  CodeParams p;
  p.n = 512;
  p.c = std::get<0>(GetParam());
  p.map = std::get<1>(GetParam());
  util::Xoshiro256 prng(std::get<0>(GetParam()) * 7 + 1);
  const SpinalEncoder enc(p, prng.random_bits(p.n));
  double power = 0;
  int count = 0;
  for (int i = 0; i < p.spine_length(); ++i)
    for (int j = 0; j < 6; ++j) {
      power += std::norm(enc.symbol({i, j}));
      ++count;
    }
  // The paper's uniform formula under-delivers by the quantisation
  // factor (1 - 2^-2c), noticeable at small c ("very small corrections
  // to P are omitted", §3.3); the Gaussian map is renormalised exactly.
  const double expected = p.map == modem::MapKind::kUniform
                              ? 1.0 - std::pow(2.0, -2.0 * p.c)
                              : 1.0;
  EXPECT_NEAR(power / count, expected, 0.06);
}

TEST_P(CMapSweep, NoiselessDecodeEnoughPasses) {
  CodeParams p;
  p.n = 32;
  p.c = std::get<0>(GetParam());
  p.map = std::get<1>(GetParam());
  p.B = 32;
  // Low c carries few bits per symbol: send enough passes that
  // 2c * passes comfortably exceeds k.
  const int passes = 2 + 2 * p.k / std::max(1, 2 * p.c - 1);
  util::Xoshiro256 prng(std::get<0>(GetParam()) * 11 + 2);
  const util::BitVec msg = prng.random_bits(p.n);
  const SpinalEncoder enc(p, msg);
  SpinalDecoder dec(p);
  const PuncturingSchedule sched(p);
  for (int sp = 0; sp < passes * sched.subpasses_per_pass(); ++sp)
    for (const SymbolId& id : sched.subpass(sp)) dec.add_symbol(id, enc.symbol(id));
  EXPECT_EQ(dec.decode().message, msg);
}

// ---------------------------------------------------------------------
// Sweep 3: prefix property across every configuration axis at once.
// ---------------------------------------------------------------------

TEST(Properties, SymbolsIndependentOfTransmissionHistory) {
  // Rateless addressing: symbol(id) must be a pure function of the
  // message and id, regardless of what was generated before — this is
  // what lets receivers skip erased frames (§7.1).
  CodeParams p;
  p.n = 64;
  util::Xoshiro256 prng(3);
  const util::BitVec msg = prng.random_bits(p.n);
  const SpinalEncoder fresh(p, msg);
  const SpinalEncoder used(p, msg);
  const PuncturingSchedule sched(p);
  // Exhaust three passes on `used`.
  std::vector<SymbolId> ids;
  std::vector<std::complex<float>> out;
  for (int sp = 0; sp < 24; ++sp) used.encode_subpass(sp, ids, out);
  // Probe arbitrary ids on both.
  for (const SymbolId probe : {SymbolId{0, 7}, SymbolId{15, 0}, SymbolId{9, 3}})
    EXPECT_EQ(fresh.symbol(probe), used.symbol(probe));
}

TEST(Properties, DecoderImprovesMonotonicallyWithSymbols) {
  // More received symbols never hurt: track decode success over
  // increasing prefixes of the stream.
  CodeParams p;
  p.n = 64;
  p.B = 64;
  util::Xoshiro256 prng(4);
  const util::BitVec msg = prng.random_bits(p.n);
  const SpinalEncoder enc(p, msg);
  SpinalDecoder dec(p);
  channel::AwgnChannel ch(8.0, 99);
  const PuncturingSchedule sched(p);

  bool ever_decoded = false;
  int flips_back = 0;
  for (int sp = 0; sp < 24; ++sp) {
    for (const SymbolId& id : sched.subpass(sp))
      dec.add_symbol(id, ch.transmit(enc.symbol(id)));
    const bool ok = dec.decode().message == msg;
    if (ever_decoded && !ok) ++flips_back;
    ever_decoded |= ok;
  }
  EXPECT_TRUE(ever_decoded);
  // Success may flicker once near the threshold but not repeatedly.
  EXPECT_LE(flips_back, 1);
}

TEST(Properties, PathCostDecreasesTowardTruth) {
  // The winning path cost of the TRUE message is chi^2-distributed
  // around N*sigma^2; a competing wrong message should cost more.
  CodeParams p;
  p.n = 48;
  p.B = 64;
  util::Xoshiro256 prng(5);
  const util::BitVec msg = prng.random_bits(p.n);
  const SpinalEncoder enc(p, msg);
  SpinalDecoder dec(p);
  channel::AwgnChannel ch(15.0, 7);
  const PuncturingSchedule sched(p);
  int n_symbols = 0;
  for (int sp = 0; sp < 2 * sched.subpasses_per_pass(); ++sp)
    for (const SymbolId& id : sched.subpass(sp)) {
      dec.add_symbol(id, ch.transmit(enc.symbol(id)));
      ++n_symbols;
    }
  const DecodeResult r = dec.decode();
  ASSERT_EQ(r.message, msg);
  // E[cost] = N sigma^2; allow generous slack.
  const double expected = n_symbols * ch.noise_variance();
  EXPECT_LT(r.path_cost, 3 * expected);
}

TEST(Properties, SessionSeedsAreReproducible) {
  CodeParams p;
  p.n = 64;
  for (int run = 0; run < 2; ++run) {
    // identical seeds -> identical outcomes
    sim::SweepOptions opt;
    opt.trials = 2;
    opt.seed = 77;
    static double first_rate = 0;
    const auto m = sim::measure_rate(
        [&] { return std::make_unique<sim::SpinalSession>(p); }, 10.0, opt);
    if (run == 0)
      first_rate = m.rate;
    else
      EXPECT_DOUBLE_EQ(m.rate, first_rate);
  }
}

// ---------------------------------------------------------------------
// Sweep 4: randomized CodeParams round-trip fuzz, on every kernel
// backend. Each trial draws a random configuration (k, B, d, n,
// channel, puncturing, hash kind, salt/s0), encodes a random message,
// feeds it through a noiseless channel and requires exact recovery —
// on every backend in backend::available(), which must also agree with
// each other bit-for-bit. Every assertion message carries the trial
// seed: to reproduce a failure, plug the printed seed into one
// Xoshiro256 and re-derive the same configuration.
// ---------------------------------------------------------------------

TEST(Properties, FuzzRandomParamsRoundTripOnEveryBackend) {
  constexpr std::uint64_t kMasterSeed = 0x51A7C0DE2026ull;
  constexpr int kTrials = 16;
  util::Xoshiro256 master(kMasterSeed);
  const char* const original = backend::active().name;

  for (int trial = 0; trial < kTrials; ++trial) {
    const std::uint64_t seed = master.next_u64();
    util::Xoshiro256 prng(seed);

    CodeParams p;
    p.k = 1 + static_cast<int>(prng.next_below(6));  // 1..6
    // Keep the per-step working set (B * 2^(k*d)) test-sized: depth 2
    // only for narrow chunks.
    p.d = p.k <= 4 ? 1 + static_cast<int>(prng.next_below(2)) : 1;
    p.n = 2 * p.k + static_cast<int>(prng.next_below(48));  // 2k .. 2k+47
    p.B = 16 << prng.next_below(3);                         // 16/32/64
    constexpr int kWays[] = {1, 2, 4, 8};
    p.puncture_ways = kWays[prng.next_below(4)];
    p.hash_kind = static_cast<hash::Kind>(prng.next_below(3));
    p.salt = static_cast<std::uint32_t>(prng.next_u64());
    p.s0 = static_cast<std::uint32_t>(prng.next_u64());
    const bool bsc = prng.next_below(2) == 1;
    p.c = bsc ? 1 : 2 + static_cast<int>(prng.next_below(5));  // AWGN: 2..6
    ASSERT_NO_THROW(p.validate()) << "seed=" << seed;

    const util::BitVec msg = prng.random_bits(p.n);
    const PuncturingSchedule sched(p);
    // Noiseless margin: AWGN symbols carry 2c >= 4 discriminating bits,
    // two passes suffice; BSC carries one bit per symbol, so feed
    // enough passes that wrong branches collect nonzero Hamming cost.
    const int passes = bsc ? p.k + 8 : 2;

    double first_cost = 0.0;
    util::BitVec first_message;
    for (const backend::Backend* b : backend::available()) {
      ASSERT_TRUE(backend::force(b->name));
      DecodeResult r;
      if (bsc) {
        const BscSpinalEncoder enc(p, msg);
        BscSpinalDecoder dec(p);
        for (int sp = 0; sp < passes * sched.subpasses_per_pass(); ++sp)
          for (const SymbolId& id : sched.subpass(sp)) dec.add_symbol(id, enc.symbol(id));
        r = dec.decode();
      } else {
        const SpinalEncoder enc(p, msg);
        SpinalDecoder dec(p);
        for (int sp = 0; sp < passes * sched.subpasses_per_pass(); ++sp)
          for (const SymbolId& id : sched.subpass(sp)) dec.add_symbol(id, enc.symbol(id));
        r = dec.decode();
      }
      EXPECT_EQ(r.message, msg)
          << "backend=" << b->name << " seed=" << seed << " trial=" << trial
          << " (k=" << p.k << " B=" << p.B << " d=" << p.d << " n=" << p.n
          << " ways=" << p.puncture_ways << " hash=" << hash::kind_name(p.hash_kind)
          << " channel=" << (bsc ? "bsc" : "awgn") << " c=" << p.c << ")";
      if (b == backend::available().front()) {
        first_cost = r.path_cost;
        first_message = r.message;
      } else {
        // Backends must agree bit-for-bit, not just decode correctly.
        EXPECT_EQ(r.message, first_message) << "backend=" << b->name << " seed=" << seed;
        EXPECT_EQ(r.path_cost, first_cost) << "backend=" << b->name << " seed=" << seed;
      }
    }
  }
  backend::force(original);
}

// ---------------------------------------------------------------------
// Sweep 5: streaming-prune admissibility fuzz. The streamed decode
// pipeline prunes candidates online against a running B-th-best bound;
// admissibility says the kept set — and through it the decoded message
// and the exact path-cost bits — must equal the full expand+select
// reference on every backend. Unlike the noiseless round-trip fuzz
// above, these trials run at marginal SNR / crossover with random
// configurations, so prune decisions constantly straddle near-ties.
// Assertion messages carry the trial seed for replay.
// ---------------------------------------------------------------------

TEST(Properties, FuzzStreamingPruneMatchesReferenceOnEveryBackend) {
  constexpr std::uint64_t kMasterSeed = 0x5EEDFACE2026ull;
  constexpr int kTrials = 12;
  util::Xoshiro256 master(kMasterSeed);
  const char* const original = backend::active().name;

  for (int trial = 0; trial < kTrials; ++trial) {
    const std::uint64_t seed = master.next_u64();
    util::Xoshiro256 prng(seed);

    CodeParams p;
    p.k = 2 + static_cast<int>(prng.next_below(3));  // 2..4
    p.d = p.k <= 3 ? 1 + static_cast<int>(prng.next_below(2)) : 1;
    p.n = 4 * p.k + static_cast<int>(prng.next_below(40));
    p.B = 8 << prng.next_below(4);  // 8..64
    p.hash_kind = static_cast<hash::Kind>(prng.next_below(3));
    p.salt = static_cast<std::uint32_t>(prng.next_u64());
    const bool bsc = prng.next_below(2) == 1;
    p.c = bsc ? 1 : 2 + static_cast<int>(prng.next_below(4));
    ASSERT_NO_THROW(p.validate()) << "seed=" << seed;

    const util::BitVec msg = prng.random_bits(p.n);
    const PuncturingSchedule sched(p);
    const int passes = bsc ? 5 : 2;
    const int subpasses =
        1 + static_cast<int>(prng.next_below(
                static_cast<std::uint32_t>(passes * sched.subpasses_per_pass())));

    const double snr_db = 5.0 + static_cast<double>(prng.next_below(6));
    util::BitVec ref_message;
    double ref_cost = 0.0;
    for (const backend::Backend* b : backend::available()) {
      ASSERT_TRUE(backend::force(b->name));
      DecodeResult streamed, reference;
      bool compare_reference = false;
      // The channel reseeds per backend from the trial seed, so every
      // backend decodes the identical received sequence.
      if (bsc) {
        const BscSpinalEncoder enc(p, msg);
        BscSpinalDecoder dec(p);
        channel::BscChannel ch(0.06, static_cast<std::uint64_t>(seed ^ 0xB5Cu));
        for (int sp = 0; sp < subpasses; ++sp)
          for (const SymbolId& id : sched.subpass(sp))
            dec.add_symbol(id, ch.transmit(enc.symbol(id)));
        streamed = dec.decode();
        reference = dec.decode_reference();
        compare_reference = true;
      } else {
        const SpinalEncoder enc(p, msg);
        SpinalDecoder dec(p);
        channel::AwgnChannel ch(snr_db, static_cast<std::uint64_t>(seed ^ 0xA36Eu));
        for (int sp = 0; sp < subpasses; ++sp)
          for (const SymbolId& id : sched.subpass(sp))
            dec.add_symbol(id, ch.transmit(enc.symbol(id)));
        streamed = dec.decode();
        reference = dec.decode_reference();
        // Under a narrow-precision override (the CI quantized lane)
        // decode() runs the integer path, which is only statistically
        // equivalent to the f32 per-node reference — the cross-backend
        // identity checks below are the oracle then.
        compare_reference = dec.active_precision() == CostPrecision::kFloat32;
      }
      // The streamed pipeline against the per-node reference: same
      // message, same exact cost bits (kept sets and packed-key order
      // carried through every prune decision).
      if (compare_reference) {
        EXPECT_EQ(streamed.message, reference.message)
            << "backend=" << b->name << " seed=" << seed << " trial=" << trial
            << " (k=" << p.k << " d=" << p.d << " B=" << p.B << " n=" << p.n
            << " hash=" << hash::kind_name(p.hash_kind)
            << " channel=" << (bsc ? "bsc" : "awgn") << " subpasses=" << subpasses << ")";
        EXPECT_EQ(streamed.path_cost, reference.path_cost)
            << "backend=" << b->name << " seed=" << seed << " trial=" << trial;
      }
      if (b == backend::available().front()) {
        ref_message = streamed.message;
        ref_cost = streamed.path_cost;
      } else {
        EXPECT_EQ(streamed.message, ref_message)
            << "backend=" << b->name << " seed=" << seed;
        EXPECT_EQ(streamed.path_cost, ref_cost)
            << "backend=" << b->name << " seed=" << seed;
      }
    }
  }
  backend::force(original);
}

// ---------------------------------------------------------------------
// Sweep 6: Raptor precode / LT round-trip on every kernel backend. The
// precode's expand() routes its parity accumulation through the
// backend xor_rows kernel; GF(2) exactness means every backend must
// produce the identical intermediate block, and a full seeded Raptor
// session round-trip at high SNR must succeed (and match) regardless
// of which backend is forced. Assertion messages carry the seed.
// ---------------------------------------------------------------------

TEST(Properties, RaptorPrecodeAndRoundTripAgreeOnEveryBackend) {
  constexpr std::uint64_t kMasterSeed = 0x4A97042026ull;
  const char* const original = backend::active().name;

  // Part 1: expand() bit-identity across backends, at sizes whose
  // parity word counts straddle the vector strides (r ~ k/19).
  for (const int info_bits : {40, 150, 400, 1300, 5000}) {
    util::Xoshiro256 prng(kMasterSeed ^ static_cast<std::uint64_t>(info_bits));
    const raptor::RaptorPrecode pre(info_bits, 0.95, 4, prng.next_u64());
    const util::BitVec info = prng.random_bits(info_bits);
    util::BitVec first;
    for (const backend::Backend* b : backend::available()) {
      ASSERT_TRUE(backend::force(b->name));
      const util::BitVec block = pre.expand(info);
      ASSERT_EQ(static_cast<int>(block.size()), pre.intermediate_bits());
      // Every check XORs to zero over a valid block, by construction.
      for (const auto& check : pre.checks()) {
        int acc = 0;
        for (int v : check) acc ^= block.get(v) ? 1 : 0;
        EXPECT_EQ(acc, 0) << b->name << " k=" << info_bits;
      }
      if (b == backend::available().front()) {
        first = block;
      } else {
        EXPECT_TRUE(block == first) << b->name << " k=" << info_bits;
      }
    }
  }

  // Part 2: seeded LT round trip through the session layer at high
  // SNR, identical run shape (symbols, chunks, attempts) per backend.
  raptor::RaptorSessionConfig cfg;
  cfg.info_bits = 400;
  cfg.chunk_symbols = 24;
  util::Xoshiro256 prng(kMasterSeed);
  const util::BitVec msg = prng.random_bits(cfg.info_bits);
  long first_symbols = -1;
  for (const backend::Backend* b : backend::available()) {
    ASSERT_TRUE(backend::force(b->name));
    raptor::RaptorSession session(cfg);
    sim::ChannelSim channel(sim::ChannelKind::kAwgn, 22.0, 1, 0x4A97);
    const sim::RunResult r = run_message(session, channel, msg);
    EXPECT_TRUE(r.success) << b->name;
    if (first_symbols < 0) {
      first_symbols = r.symbols;
    } else {
      EXPECT_EQ(r.symbols, first_symbols) << b->name;
    }
  }
  backend::force(original);
}

// ---------------------------------------------------------------------
// Sweep 7: quantized-path coding performance. The narrow-metric
// decode (CostPrecision::kU16/kU8, spinal/cost_model.h) trades the
// f32 metric for a 2^-4 / 2^-3 integer grid; it is NOT bit-identical
// to the float path, so its accuracy contract is statistical: over a
// seeded batch of marginal-SNR blocks, the block-error rate may not
// degrade materially. This is the gate that lets the quantized
// kernels ship as a speed knob rather than a different code.
// ---------------------------------------------------------------------

TEST(Properties, QuantizedBlerMatchesFloatWithinDelta) {
  CodeParams base;
  base.n = 64;
  base.k = 4;
  base.B = 16;  // small beam at marginal SNR: real pruning pressure
  const PuncturingSchedule sched(base);
  constexpr int kTrials = 150;
  constexpr double kSnrDb = 5.0;  // marginal: f32 itself fails a chunk of blocks
  constexpr int kSubpasses = 2 * 8;

  auto bler = [&](CostPrecision prec) {
    CodeParams p = base;
    p.cost_precision = prec;
    int errors = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      // Same seeds across precisions: each trial decodes the identical
      // received block, so the comparison is paired, not two samples.
      util::Xoshiro256 prng(0xB1E52026ull + static_cast<std::uint64_t>(trial));
      const util::BitVec msg = prng.random_bits(p.n);
      const SpinalEncoder enc(p, msg);
      SpinalDecoder dec(p);
      channel::AwgnChannel ch(kSnrDb, 0xC0FFEEull + static_cast<std::uint64_t>(trial));
      for (int sp = 0; sp < kSubpasses; ++sp)
        for (const SymbolId& id : sched.subpass(sp))
          dec.add_symbol(id, ch.transmit(enc.symbol(id)));
      if (dec.decode().message != msg) ++errors;
    }
    return static_cast<double>(errors) / kTrials;
  };

  const double f32 = bler(CostPrecision::kFloat32);
  const double u16 = bler(CostPrecision::kU16);
  const double u8 = bler(CostPrecision::kU8);
  // The regime must be marginal enough to be informative.
  EXPECT_GT(f32, 0.02) << "SNR too benign to measure a BLER delta";
  EXPECT_LT(f32, 0.80) << "SNR too harsh to measure a BLER delta";
  // u16's 2^-4 grid is finer than the channel noise at any operating
  // SNR: its BLER must track f32 tightly. u8's coarse clamp-at-255
  // grid gets a looser budget (it is the "saturation allows" tier).
  EXPECT_NEAR(u16, f32, 0.05) << "f32=" << f32 << " u16=" << u16;
  EXPECT_NEAR(u8, f32, 0.12) << "f32=" << f32 << " u8=" << u8;
}

TEST(Properties, LargerBNeverIncreasesSymbolsNeededNoiseless) {
  // Noiseless channel: every beam width decodes after one pass; beam
  // size cannot change that (sanity anchor for the B knob). A float-
  // path property: on the quantized metric grid, distinct-but-close
  // constellation points can tie at cost 0, and a B=1 greedy walk may
  // take the wrong tied branch — so skip under a narrow override.
  if (resolve_cost_precision(CostPrecision::kFloat32) != CostPrecision::kFloat32)
    GTEST_SKIP() << "SPINAL_COST_PRECISION override forces the integer grid";
  for (int B : {1, 4, 16, 64}) {
    CodeParams p;
    p.n = 64;
    p.B = B;
    util::Xoshiro256 prng(6);
    const util::BitVec msg = prng.random_bits(p.n);
    const SpinalEncoder enc(p, msg);
    SpinalDecoder dec(p);
    const PuncturingSchedule sched(p);
    for (int sp = 0; sp < sched.subpasses_per_pass(); ++sp)
      for (const SymbolId& id : sched.subpass(sp)) dec.add_symbol(id, enc.symbol(id));
    EXPECT_EQ(dec.decode().message, msg) << "B=" << B;
  }
}

}  // namespace
}  // namespace spinal
