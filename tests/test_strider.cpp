#include <gtest/gtest.h>

#include <cmath>

#include "channel/awgn.h"
#include "sim/engine.h"
#include "strider/strider_codec.h"
#include "strider/strider_session.h"
#include "util/prng.h"

namespace spinal::strider {
namespace {

StriderConfig small_config() {
  StriderConfig c;
  c.layers = 6;         // small for unit tests; benches use 33
  c.layer_bits = 120;
  c.max_passes = 20;
  c.turbo_iterations = 8;
  return c;
}

TEST(Strider, CoefficientsUnitMagnitudeOverLayers) {
  const StriderConfig cfg = small_config();
  const StriderEncoder enc(cfg);
  double power = 0;
  for (int m = 0; m < 4; ++m)
    for (int k = 0; k < cfg.layers; ++k) power += std::norm(enc.coefficient(m, k));
  EXPECT_NEAR(power / 4.0, 1.0, 1e-5);  // sum over layers = 1 per pass
}

TEST(Strider, CoefficientsVaryAcrossPasses) {
  const StriderConfig cfg = small_config();
  const StriderEncoder enc(cfg);
  int same = 0;
  for (int k = 0; k < cfg.layers; ++k)
    same += (enc.coefficient(0, k) == enc.coefficient(1, k));
  EXPECT_LE(same, 1);
}

TEST(Strider, TransmittedPowerNearUnit) {
  const StriderConfig cfg = small_config();
  StriderEncoder enc(cfg);
  util::Xoshiro256 prng(1);
  enc.load(prng.random_bits(cfg.message_bits()));
  std::vector<std::complex<float>> pass;
  enc.emit(0, 0, enc.symbols_per_pass(), pass);
  double p = 0;
  for (const auto& s : pass) p += std::norm(s);
  p /= pass.size();
  EXPECT_NEAR(p, 1.0, 0.15);  // random-phase sum of unit-power layers
}

TEST(Strider, DecodesAtHighSnrWithinFewPasses) {
  const StriderConfig cfg = small_config();
  StriderSessionConfig scfg;
  scfg.code = cfg;
  StriderSession session(scfg);
  sim::ChannelSim channel(sim::ChannelKind::kAwgn, 22.0, 1, 2);
  util::Xoshiro256 prng(3);
  const util::BitVec msg = prng.random_bits(cfg.message_bits());
  const sim::RunResult r = run_message(session, channel, msg);
  EXPECT_TRUE(r.success);
  // Rate staircase: (1/5 * 2 bits) * layers / passes; at 22 dB Strider
  // should need only a few passes.
  const double rate = static_cast<double>(cfg.message_bits()) / r.symbols;
  EXPECT_GT(rate, 0.5);
}

TEST(Strider, DecodesAtLowSnrWithMorePasses) {
  const StriderConfig cfg = small_config();
  StriderSessionConfig scfg;
  scfg.code = cfg;
  StriderSession s_low(scfg), s_high(scfg);
  sim::ChannelSim ch_low(sim::ChannelKind::kAwgn, -5.0, 1, 4);
  sim::ChannelSim ch_high(sim::ChannelKind::kAwgn, 20.0, 1, 4);
  util::Xoshiro256 prng(5);
  const util::BitVec msg = prng.random_bits(cfg.message_bits());
  const auto low = run_message(s_low, ch_low, msg);
  const auto high = run_message(s_high, ch_high, msg);
  ASSERT_TRUE(low.success);
  ASSERT_TRUE(high.success);
  EXPECT_GT(low.symbols, high.symbols);
}

TEST(StriderPlus, PuncturedChunksAreFractionsOfAPass) {
  const StriderConfig cfg = small_config();
  StriderSessionConfig scfg;
  scfg.code = cfg;
  scfg.punctured = true;
  scfg.subpasses = 8;
  StriderSession session(scfg);
  util::Xoshiro256 prng(6);
  session.start(prng.random_bits(cfg.message_bits()));
  auto chunk = session.next_chunk();
  const int frac = (StriderEncoder(cfg).symbols_per_pass() + 7) / 8;
  EXPECT_LE(static_cast<int>(chunk.size()), frac);
  EXPECT_GT(chunk.size(), 0u);
}

TEST(StriderPlus, FinerRatesThanPlainStrider) {
  // With puncturing the decode can stop mid-pass, so symbols-to-decode
  // is never more than plain Strider's (same seed/channel).
  const StriderConfig cfg = small_config();
  StriderSessionConfig plain, plus;
  plain.code = cfg;
  plus.code = cfg;
  plus.punctured = true;
  StriderSession s_plain(plain), s_plus(plus);
  sim::ChannelSim ch1(sim::ChannelKind::kAwgn, 14.0, 1, 7);
  sim::ChannelSim ch2(sim::ChannelKind::kAwgn, 14.0, 1, 7);
  util::Xoshiro256 prng(8);
  const util::BitVec msg = prng.random_bits(cfg.message_bits());
  const auto r_plain = run_message(s_plain, ch1, msg);
  const auto r_plus = run_message(s_plus, ch2, msg);
  ASSERT_TRUE(r_plain.success);
  ASSERT_TRUE(r_plus.success);
  EXPECT_LE(r_plus.symbols, r_plain.symbols);
}

TEST(Strider, FadingWithCsiDecodes) {
  const StriderConfig cfg = small_config();
  StriderSessionConfig scfg;
  scfg.code = cfg;
  StriderSession session(scfg);
  sim::ChannelSim channel(sim::ChannelKind::kRayleighCsi, 18.0, 10, 9);
  util::Xoshiro256 prng(10);
  const util::BitVec msg = prng.random_bits(cfg.message_bits());
  const sim::RunResult r = run_message(session, channel, msg);
  EXPECT_TRUE(r.success);
}

TEST(Strider, DeepFadedPassIsErased) {
  // modem::equalize's deep-fade rule in the Strider receiver: a pass
  // received wholly in a deep fade carries zero weight, so its received
  // values cannot matter. Two decoders that differ only in that pass —
  // a faint copy of the signal vs wild garbage — decode alike, from the
  // clean passes that follow.
  const StriderConfig cfg = small_config();
  StriderEncoder enc(cfg);
  util::Xoshiro256 prng(14);
  const util::BitVec msg = prng.random_bits(cfg.message_bits());
  enc.load(msg);
  const int n = enc.symbols_per_pass();
  channel::AwgnChannel awgn(22.0, 15);
  StriderDecoder faint(cfg), garbage(cfg);
  for (StriderDecoder* d : {&faint, &garbage}) d->set_noise_variance(awgn.noise_variance());

  std::vector<std::complex<float>> x;
  enc.emit(0, 0, n, x);
  const std::vector<std::complex<float>> deep(n, {1e-5f, 0.0f});  // |h|^2 = 1e-10
  std::vector<std::complex<float>> wild(n, {1e3f, -1e3f});
  for (auto& v : x) v *= 1e-5f;
  faint.add_symbols(x, deep);
  garbage.add_symbols(wild, deep);
  const std::vector<std::complex<float>> unit(n, {1.0f, 0.0f});
  for (int pass = 1; pass < 8; ++pass) {
    x.clear();
    enc.emit(pass, 0, n, x);
    awgn.apply(x);
    faint.add_symbols(x, unit);
    garbage.add_symbols(x, unit);
  }
  const auto a = faint.decode();
  const auto b = garbage.decode();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_TRUE(*a == msg);
  EXPECT_TRUE(*b == msg);
}

TEST(Strider, GivesUpGracefullyAtTerribleSnr) {
  StriderConfig cfg = small_config();
  cfg.max_passes = 3;
  StriderSessionConfig scfg;
  scfg.code = cfg;
  StriderSession session(scfg);
  sim::ChannelSim channel(sim::ChannelKind::kAwgn, -15.0, 1, 11);
  util::Xoshiro256 prng(12);
  const sim::RunResult r = run_message(session, channel, prng.random_bits(cfg.message_bits()));
  EXPECT_FALSE(r.success);
}

TEST(Strider, RejectsWrongMessageLength) {
  const StriderConfig cfg = small_config();
  StriderEncoder enc(cfg);
  EXPECT_THROW(enc.load(util::BitVec(10)), std::invalid_argument);
}

}  // namespace
}  // namespace spinal::strider
