#include "spinal/decoder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <string>

#include "channel/awgn.h"
#include "channel/bsc.h"
#include "channel/rayleigh.h"
#include "spinal/cost_model.h"
#include "spinal/encoder.h"
#include "util/prng.h"

namespace spinal {
namespace {

CodeParams basic(int n = 64, int k = 4, int B = 64, int d = 1) {
  CodeParams p;
  p.n = n;
  p.k = k;
  p.B = B;
  p.d = d;
  p.c = 6;
  return p;
}

/// Sends `passes` unpunctured passes through a channel into the decoder.
void feed_awgn(const CodeParams& p, const SpinalEncoder& enc, SpinalDecoder& dec,
               double snr_db, int passes, std::uint64_t seed) {
  channel::AwgnChannel ch(snr_db, seed);
  const PuncturingSchedule sched(p);
  const int per_pass = sched.subpasses_per_pass();
  for (int sp = 0; sp < passes * per_pass; ++sp) {
    for (const SymbolId& id : sched.subpass(sp))
      dec.add_symbol(id, ch.transmit(enc.symbol(id)));
  }
}

TEST(Decoder, NoiselessSinglePassDecodes) {
  const CodeParams p = basic();
  util::Xoshiro256 prng(1);
  const util::BitVec msg = prng.random_bits(p.n);
  const SpinalEncoder enc(p, msg);
  SpinalDecoder dec(p);
  const PuncturingSchedule sched(p);
  for (int sp = 0; sp < sched.subpasses_per_pass(); ++sp)
    for (const SymbolId& id : sched.subpass(sp)) dec.add_symbol(id, enc.symbol(id));
  const DecodeResult r = dec.decode();
  EXPECT_EQ(r.message, msg);
  EXPECT_NEAR(r.path_cost, 0.0, 1e-6);
}

TEST(Decoder, HighSnrOnePassDecodes) {
  const CodeParams p = basic();
  util::Xoshiro256 prng(2);
  const util::BitVec msg = prng.random_bits(p.n);
  const SpinalEncoder enc(p, msg);
  SpinalDecoder dec(p);
  feed_awgn(p, enc, dec, 25.0, 1, 77);
  EXPECT_EQ(dec.decode().message, msg);
}

TEST(Decoder, ModerateSnrNeedsMorePassesAndDecodes) {
  const CodeParams p = basic();
  util::Xoshiro256 prng(3);
  const util::BitVec msg = prng.random_bits(p.n);
  const SpinalEncoder enc(p, msg);
  SpinalDecoder dec(p);
  feed_awgn(p, enc, dec, 5.0, 4, 78);  // capacity ~2.06 b/s, rate 1 b/s
  EXPECT_EQ(dec.decode().message, msg);
}

TEST(Decoder, LowSnrManyPassesDecodes) {
  const CodeParams p = basic(32, 4, 64);
  util::Xoshiro256 prng(4);
  const util::BitVec msg = prng.random_bits(p.n);
  const SpinalEncoder enc(p, msg);
  SpinalDecoder dec(p);
  feed_awgn(p, enc, dec, -3.0, 16, 79);  // capacity ~0.58, rate 0.25
  EXPECT_EQ(dec.decode().message, msg);
}

TEST(Decoder, MatchesExhaustiveMlOnTinyCode) {
  // Asserts f32-exact results.
  if (resolve_cost_precision(CostPrecision::kFloat32) !=
      CostPrecision::kFloat32)
    GTEST_SKIP() << "SPINAL_COST_PRECISION override replaces f32";
  // With d = n/k and B >= 2^k the bubble decoder explores the full tree:
  // its answer must equal brute-force ML over all 2^n messages.
  CodeParams p;
  p.n = 8;
  p.k = 2;
  p.B = 16;
  p.d = 4;  // = spine length -> exact ML
  p.c = 4;
  p.tail_symbols = 0;
  p.puncture_ways = 1;

  util::Xoshiro256 prng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const util::BitVec msg = prng.random_bits(p.n);
    const SpinalEncoder enc(p, msg);
    SpinalDecoder dec(p);

    // Collect noisy symbols (1 pass at low SNR so ML is non-trivial).
    channel::AwgnChannel ch(2.0, 1000 + trial);
    const PuncturingSchedule sched(p);
    std::vector<std::pair<SymbolId, std::complex<float>>> rx;
    for (const SymbolId& id : sched.subpass(0)) {
      const auto y = ch.transmit(enc.symbol(id));
      rx.push_back({id, y});
      dec.add_symbol(id, y);
    }
    const DecodeResult got = dec.decode();

    // Brute force.
    double best_cost = std::numeric_limits<double>::infinity();
    util::BitVec best(p.n);
    for (std::uint32_t m = 0; m < (1u << p.n); ++m) {
      util::BitVec cand(p.n);
      cand.set_bits(0, p.n, m);
      const SpinalEncoder ce(p, cand);
      double cost = 0;
      for (const auto& [id, y] : rx) cost += std::norm(y - ce.symbol(id));
      if (cost < best_cost) {
        best_cost = cost;
        best = cand;
      }
    }
    EXPECT_EQ(got.message, best) << "trial " << trial;
    EXPECT_NEAR(got.path_cost, best_cost, 1e-3) << "trial " << trial;
  }
}

class DecoderDepths : public ::testing::TestWithParam<std::pair<int, int>> {};
INSTANTIATE_TEST_SUITE_P(BD, DecoderDepths,
                         ::testing::Values(std::pair{512, 1}, std::pair{64, 2},
                                           std::pair{8, 3}, std::pair{4, 4}),
                         [](const auto& info) {
                           return "B" + std::to_string(info.param.first) + "d" +
                                  std::to_string(info.param.second);
                         });

TEST_P(DecoderDepths, AllBubbleConfigsDecodeAtHighSnr) {
  // The Fig 8-7 configurations (equal hash budget, varying d).
  CodeParams p = basic(60, 3);
  p.B = GetParam().first;
  p.d = GetParam().second;
  util::Xoshiro256 prng(6);
  const util::BitVec msg = prng.random_bits(p.n);
  const SpinalEncoder enc(p, msg);
  SpinalDecoder dec(p);
  feed_awgn(p, enc, dec, 18.0, 2, 80);
  EXPECT_EQ(dec.decode().message, msg);
}

TEST(Decoder, KNotDividingNDecodes) {
  const CodeParams p = basic(62, 4, 64);  // 62 = 15*4 + 2
  EXPECT_EQ(p.spine_length(), 16);
  EXPECT_EQ(p.chunk_bits(15), 2);
  util::Xoshiro256 prng(7);
  const util::BitVec msg = prng.random_bits(p.n);
  const SpinalEncoder enc(p, msg);
  SpinalDecoder dec(p);
  feed_awgn(p, enc, dec, 20.0, 2, 81);
  EXPECT_EQ(dec.decode().message, msg);
}

TEST(Decoder, KNotDividingNDeepBubbleDecodes) {
  CodeParams p = basic(62, 4, 16, 3);  // short final chunk with d > 1
  util::Xoshiro256 prng(8);
  const util::BitVec msg = prng.random_bits(p.n);
  const SpinalEncoder enc(p, msg);
  SpinalDecoder dec(p);
  feed_awgn(p, enc, dec, 20.0, 2, 82);
  EXPECT_EQ(dec.decode().message, msg);
}

TEST(Decoder, PuncturedPrefixDecodesAtHighSnr) {
  // Asserts f32-exact results.
  if (resolve_cost_precision(CostPrecision::kFloat32) !=
      CostPrecision::kFloat32)
    GTEST_SKIP() << "SPINAL_COST_PRECISION override replaces f32";
  // Half an 8-way pass at high SNR should decode: every other spine
  // value observed, the rest bridged by the beam (the >k bits/symbol
  // regime of §5). Runs of >log_2k(B) consecutive unobserved spine
  // values would exceed the beam, so we send subpasses 0-3 (residues
  // 7,3,5,1), leaving only isolated gaps.
  CodeParams p = basic(64, 4, 256);
  p.puncture_ways = 8;
  util::Xoshiro256 prng(9);
  const util::BitVec msg = prng.random_bits(p.n);
  const SpinalEncoder enc(p, msg);
  SpinalDecoder dec(p);
  const PuncturingSchedule sched(p);
  channel::AwgnChannel ch(35.0, 83);
  for (int sp = 0; sp < 4; ++sp)
    for (const SymbolId& id : sched.subpass(sp))
      dec.add_symbol(id, ch.transmit(enc.symbol(id)));
  EXPECT_EQ(dec.decode().message, msg);
}

TEST(Decoder, FadingWithCsiDecodes) {
  const CodeParams p = basic(64, 4, 256);
  util::Xoshiro256 prng(10);
  const util::BitVec msg = prng.random_bits(p.n);
  const SpinalEncoder enc(p, msg);
  SpinalDecoder dec(p);
  channel::RayleighChannel ch(20.0, 10, 84);
  const PuncturingSchedule sched(p);
  for (int sp = 0; sp < 4 * sched.subpasses_per_pass(); ++sp) {
    const auto ids = sched.subpass(sp);
    std::vector<std::complex<float>> x;
    for (const auto& id : ids) x.push_back(enc.symbol(id));
    std::vector<std::complex<float>> csi;
    ch.apply(x, csi);
    for (std::size_t i = 0; i < ids.size(); ++i) dec.add_symbol(ids[i], x[i], csi[i]);
  }
  EXPECT_EQ(dec.decode().message, msg);
}

TEST(Decoder, RepeatedSymbolsActAsExtraObservations) {
  CodeParams p = basic();
  p.puncture_ways = 1;  // subpass 0 then covers the whole spine
  util::Xoshiro256 prng(11);
  const util::BitVec msg = prng.random_bits(p.n);
  const SpinalEncoder enc(p, msg);
  SpinalDecoder dec(p);
  // Repeating the same symbols is repetition coding of each symbol, not
  // fresh information: 8 copies at 6 dB give an effective per-symbol SNR
  // of ~15 dB, i.e. ~5 bits/symbol of mutual information > k = 4.
  channel::AwgnChannel ch(6.0, 85);
  const PuncturingSchedule sched(p);
  for (int rep = 0; rep < 8; ++rep)
    for (const SymbolId& id : sched.subpass(0))
      dec.add_symbol(id, ch.transmit(enc.symbol(id)));
  EXPECT_EQ(dec.decode().message, msg);
  EXPECT_EQ(dec.symbols_received(), 8u * sched.subpass(0).size());
}

TEST(Decoder, ResetClearsState) {
  const CodeParams p = basic();
  util::Xoshiro256 prng(12);
  const util::BitVec msg = prng.random_bits(p.n);
  const SpinalEncoder enc(p, msg);
  SpinalDecoder dec(p);
  feed_awgn(p, enc, dec, 20.0, 1, 86);
  EXPECT_GT(dec.symbols_received(), 0u);
  dec.reset();
  EXPECT_EQ(dec.symbols_received(), 0u);
}

TEST(Decoder, RejectsOutOfRangeSpineIndex) {
  const CodeParams p = basic();
  SpinalDecoder dec(p);
  EXPECT_THROW(dec.add_symbol({p.spine_length(), 0}, {0, 0}), std::out_of_range);
  EXPECT_THROW(dec.add_symbol({-1, 0}, {0, 0}), std::out_of_range);
}

TEST(Decoder, BiggerBeamNeverLosesToSmallerOnAverage) {
  // Fig 8-6's premise: more compute (larger B) helps. Count decode
  // successes at a marginal SNR/pass budget.
  const double snr_db = 8.0;
  int ok_small = 0, ok_big = 0;
  util::Xoshiro256 prng(13);
  for (int t = 0; t < 12; ++t) {
    const util::BitVec msg = prng.random_bits(64);
    for (int variant = 0; variant < 2; ++variant) {
      CodeParams p = basic(64, 4, variant == 0 ? 2 : 128);
      const SpinalEncoder enc(p, msg);
      SpinalDecoder dec(p);
      feed_awgn(p, enc, dec, snr_db, 2, 900 + t);
      const bool ok = dec.decode().message == msg;
      (variant == 0 ? ok_small : ok_big) += ok;
    }
  }
  EXPECT_GE(ok_big, ok_small);
  EXPECT_GT(ok_big, 8);
}

TEST(BscDecoder, NoiselessDecodes) {
  CodeParams p = basic();
  p.c = 1;
  util::Xoshiro256 prng(14);
  const util::BitVec msg = prng.random_bits(p.n);
  const BscSpinalEncoder enc(p, msg);
  BscSpinalDecoder dec(p);
  const PuncturingSchedule sched(p);
  // k = 4 bits per spine value need at least 4 coded bits each even on a
  // noiseless channel (rate k/L <= BSC capacity of 1): send 6 passes.
  for (int sp = 0; sp < 6 * sched.subpasses_per_pass(); ++sp)
    for (const SymbolId& id : sched.subpass(sp)) dec.add_symbol(id, enc.symbol(id));
  const DecodeResult r = dec.decode();
  EXPECT_EQ(r.message, msg);
  EXPECT_NEAR(r.path_cost, 0.0, 1e-9);
}

TEST(BscDecoder, DecodesThroughBitFlips) {
  CodeParams p = basic(64, 4, 128);
  p.c = 1;
  util::Xoshiro256 prng(15);
  const util::BitVec msg = prng.random_bits(p.n);
  const BscSpinalEncoder enc(p, msg);
  BscSpinalDecoder dec(p);
  channel::BscChannel ch(0.05, 87);  // capacity ~0.71 bits/use
  const PuncturingSchedule sched(p);
  // 8 passes -> rate 0.5 bits/channel use, safely below capacity.
  for (int sp = 0; sp < 8 * sched.subpasses_per_pass(); ++sp)
    for (const SymbolId& id : sched.subpass(sp)) dec.add_symbol(id, ch.transmit(enc.symbol(id)));
  EXPECT_EQ(dec.decode().message, msg);
}

TEST(BscDecoder, HarshBscFailsGracefully) {
  // p = 0.4 with one pass cannot decode; the decoder must still return a
  // well-formed n-bit message (no crashes, no partial output).
  CodeParams p = basic(64, 4, 32);
  p.c = 1;
  util::Xoshiro256 prng(16);
  const util::BitVec msg = prng.random_bits(p.n);
  const BscSpinalEncoder enc(p, msg);
  BscSpinalDecoder dec(p);
  channel::BscChannel ch(0.4, 88);
  const PuncturingSchedule sched(p);
  for (const SymbolId& id : sched.subpass(0)) dec.add_symbol(id, ch.transmit(enc.symbol(id)));
  const DecodeResult r = dec.decode();
  EXPECT_EQ(r.message.size(), static_cast<std::size_t>(p.n));
}

TEST(Decoder, GaussianConstellationDecodes) {
  CodeParams p = basic();
  p.map = modem::MapKind::kTruncatedGaussian;
  util::Xoshiro256 prng(17);
  const util::BitVec msg = prng.random_bits(p.n);
  const SpinalEncoder enc(p, msg);
  SpinalDecoder dec(p);
  feed_awgn(p, enc, dec, 15.0, 2, 89);
  EXPECT_EQ(dec.decode().message, msg);
}

TEST(Decoder, AllHashKindsDecode) {
  for (auto kind : {hash::Kind::kOneAtATime, hash::Kind::kLookup3, hash::Kind::kSalsa20}) {
    CodeParams p = basic();
    p.hash_kind = kind;
    util::Xoshiro256 prng(18);
    const util::BitVec msg = prng.random_bits(p.n);
    const SpinalEncoder enc(p, msg);
    SpinalDecoder dec(p);
    feed_awgn(p, enc, dec, 15.0, 2, 90);
    EXPECT_EQ(dec.decode().message, msg) << hash::kind_name(kind);
  }
}

TEST(Decoder, NonFiniteSymbolsAreErasures) {
  // A NaN or infinite sample in y or in the CSI must act exactly like a
  // punctured symbol: dropped on arrival, so the decode equals that of a
  // decoder that never saw it — right message, finite cost — on the f32
  // path and on both quantized grids.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const SymbolId bad{3, 0};  // spine 3, pass 0
  for (const CostPrecision prec :
       {CostPrecision::kFloat32, CostPrecision::kU16, CostPrecision::kU8}) {
    CodeParams p = basic();
    p.cost_precision = prec;
    util::Xoshiro256 prng(19);
    const util::BitVec msg = prng.random_bits(p.n);
    const SpinalEncoder enc(p, msg);
    const PuncturingSchedule sched(p);

    SpinalDecoder erased(p);  // never receives the bad symbol
    for (int sp = 0; sp < 3 * sched.subpasses_per_pass(); ++sp)
      for (const SymbolId& id : sched.subpass(sp))
        if (!(id == bad)) erased.add_symbol(id, enc.symbol(id));
    const DecodeResult want = erased.decode();
    ASSERT_EQ(want.message, msg);

    for (const float v : {nan, inf, -inf}) {
      for (const bool in_csi : {false, true}) {
        SpinalDecoder dec(p);
        for (int sp = 0; sp < 3 * sched.subpasses_per_pass(); ++sp) {
          for (const SymbolId& id : sched.subpass(sp)) {
            if (!(id == bad))
              dec.add_symbol(id, enc.symbol(id));
            else if (in_csi)
              dec.add_symbol(id, enc.symbol(id), {v, v});
            else
              dec.add_symbol(id, {v, v});
          }
        }
        const char* where = in_csi ? "csi" : "y";
        EXPECT_EQ(dec.symbols_received(), erased.symbols_received()) << v << " " << where;
        EXPECT_EQ(dec.active_precision(), erased.active_precision()) << v << " " << where;
        const DecodeResult got = dec.decode();
        EXPECT_EQ(got.message, msg) << v << " " << where;
        EXPECT_TRUE(std::isfinite(got.path_cost)) << v << " " << where;
        EXPECT_EQ(got.path_cost, want.path_cost) << v << " " << where;
      }
    }
  }
}

TEST(Decoder, QuantizedOutlierPathCostsMatchCombinedRows) {
  // The outlier case of the clipped-metric study: n=64, k=4, c=6,
  // B=64, d=1, three noiseless passes with symbol (spine 3, ordinal 0)
  // replaced by (v, v). On both integer grids the reported path cost
  // must be the decoded message's cost under the combined-row metric,
  // computed here from scratch: per symbol
  //   min(round(min(S*dr^2, cap)) + round(min(S*di^2, cap)), cap),
  // summed and divided by S. Where the study measured every message
  // seed failing (u16 at v = 10 and 30) or none (u16 from v = 100, u8
  // from v = 10), the decode's outcome is pinned too.
  const SymbolId bad{3, 0};
  for (const CostPrecision prec : {CostPrecision::kU16, CostPrecision::kU8}) {
    for (const float v : {3.0f, 10.0f, 30.0f, 100.0f, 3000.0f}) {
      CodeParams p = basic();
      p.cost_precision = prec;
      util::Xoshiro256 prng(23);
      const util::BitVec msg = prng.random_bits(p.n);
      const SpinalEncoder enc(p, msg);
      const PuncturingSchedule sched(p);
      SpinalDecoder dec(p);
      const auto received = [&](const SymbolId& id) {
        return id == bad ? std::complex<float>{v, v} : enc.symbol(id);
      };
      for (int sp = 0; sp < 3 * sched.subpasses_per_pass(); ++sp)
        for (const SymbolId& id : sched.subpass(sp)) dec.add_symbol(id, received(id));
      const CostPrecision q = dec.active_precision();
      if (q == CostPrecision::kFloat32)
        GTEST_SKIP() << "SPINAL_COST_PRECISION override replaces the integer grid";

      const DecodeResult got = dec.decode();
      const float scale = cost_quant_scale(q);
      const std::uint32_t cap = cost_quant_cap(q);
      const float capf = static_cast<float>(cap);
      const auto grid = [&](float d) {
        return static_cast<std::uint32_t>(std::lrintf(std::min(d * d * scale, capf)));
      };
      const SpinalEncoder decoded(p, got.message);
      std::uint64_t sum = 0;
      for (int sp = 0; sp < 3 * sched.subpasses_per_pass(); ++sp)
        for (const SymbolId& id : sched.subpass(sp)) {
          const std::complex<float> y = received(id), x = decoded.symbol(id);
          sum += std::min(grid(y.real() - x.real()) + grid(y.imag() - x.imag()), cap);
        }
      const std::string where = std::string(q == CostPrecision::kU8 ? "u8" : "u16") +
                                " v=" + std::to_string(v);
      EXPECT_EQ(got.path_cost, static_cast<double>(sum) / static_cast<double>(scale))
          << where;
      if (q == CostPrecision::kU16 && (v == 10.0f || v == 30.0f)) {
        EXPECT_NE(got.message, msg) << where;
      } else if (v >= 10.0f) {
        EXPECT_EQ(got.message, msg) << where;
      }
    }
  }
}

}  // namespace
}  // namespace spinal
