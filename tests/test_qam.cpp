#include "modem/qam.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "channel/awgn.h"
#include "util/prng.h"

namespace spinal::modem {
namespace {

TEST(Gray, RoundTrip) {
  for (std::uint32_t x = 0; x < 256; ++x)
    EXPECT_EQ(gray_to_binary(binary_to_gray(x)), x);
}

TEST(Gray, AdjacentCodesDifferInOneBit) {
  for (std::uint32_t x = 1; x < 256; ++x)
    EXPECT_EQ(__builtin_popcount(binary_to_gray(x) ^ binary_to_gray(x - 1)), 1);
}

TEST(Qam, RejectsOddBitsAboveOne) {
  EXPECT_THROW(QamModem(3), std::invalid_argument);
  EXPECT_THROW(QamModem(0), std::invalid_argument);
  EXPECT_NO_THROW(QamModem(1));
  EXPECT_NO_THROW(QamModem(8));
}

class QamAllSizes : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Sizes, QamAllSizes, ::testing::Values(1, 2, 4, 6, 8),
                         [](const auto& info) {
                           return "bps" + std::to_string(info.param);
                         });

TEST_P(QamAllSizes, UnitAveragePower) {
  const QamModem qam(GetParam());
  util::Xoshiro256 prng(5);
  const util::BitVec bits = prng.random_bits(GetParam() * 4096);
  const auto symbols = qam.modulate(bits);
  double p = 0;
  for (const auto& s : symbols) p += std::norm(s);
  p /= symbols.size();
  EXPECT_NEAR(p, 1.0, 0.05);
}

TEST_P(QamAllSizes, NoiselessDemapRecoversBits) {
  const QamModem qam(GetParam());
  util::Xoshiro256 prng(6);
  const util::BitVec bits = prng.random_bits(GetParam() * 64);
  const auto symbols = qam.modulate(bits);
  std::vector<float> llrs;
  for (const auto& s : symbols) qam.demap_soft(s, 0.01, llrs);
  ASSERT_EQ(llrs.size(), bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    // LLR convention: positive = bit 0.
    EXPECT_EQ(llrs[i] < 0, bits.get(i)) << i;
  }
}

TEST_P(QamAllSizes, DemapSignsMostlyCorrectAtHighSnr) {
  const QamModem qam(GetParam());
  util::Xoshiro256 prng(7);
  channel::AwgnChannel ch(30.0, 99);
  const util::BitVec bits = prng.random_bits(GetParam() * 512);
  auto symbols = qam.modulate(bits);
  ch.apply(symbols);
  std::vector<float> llrs;
  for (const auto& s : symbols) qam.demap_soft(s, ch.noise_variance(), llrs);
  int errors = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) errors += ((llrs[i] < 0) != bits.get(i));
  EXPECT_LT(errors, static_cast<int>(bits.size()) / 50);
}

TEST(Qam, Qpsk4PointsAreUnitCircleCorners) {
  const QamModem qam(2);
  util::BitVec bits(2);
  for (int v = 0; v < 4; ++v) {
    bits.set_bits(0, 2, v);
    const auto s = qam.map(bits, 0);
    EXPECT_NEAR(std::abs(s), 1.0, 1e-6);
    EXPECT_NEAR(std::abs(s.real()), std::sqrt(0.5), 1e-6);
  }
}

TEST(Qam, Qam256Has16LevelsPerAxis) {
  const QamModem qam(8);
  EXPECT_EQ(qam.levels().size(), 16u);
}

TEST(Qam, LlrMagnitudeScalesWithSnr) {
  const QamModem qam(2);
  util::BitVec bits(2);  // symbol for 00
  const auto s = qam.map(bits, 0);
  std::vector<float> llr_low, llr_high;
  qam.demap_soft(s, 1.0, llr_low);
  qam.demap_soft(s, 0.1, llr_high);
  EXPECT_GT(llr_high[0], llr_low[0]);
}

TEST(Qam, EqualizeErasesDeepFades) {
  // The one deep-fade rule: at |h|^2 <= kDeepFadeGain2 the symbol is
  // erased (zero value, zero precision gain); above it, y/h and |h|^2.
  const std::complex<float> y{3.0f, -2.0f};
  float gain2 = -1.0f;
  EXPECT_EQ(equalize(y, {0.0f, 0.0f}, gain2), std::complex<float>{});
  EXPECT_EQ(gain2, 0.0f);
  EXPECT_EQ(equalize(y, {1e-5f, 0.0f}, gain2), std::complex<float>{});  // |h|^2 = 1e-10
  EXPECT_EQ(gain2, 0.0f);
  const std::complex<float> h{0.6f, -0.8f};
  const std::complex<float> v = equalize(y, h, gain2);
  EXPECT_EQ(gain2, std::norm(h));
  EXPECT_NEAR(std::abs(v * h - y), 0.0f, 1e-5f);
}

TEST(Qam, DeepFadeDemapsAsAnErasure) {
  // demap_soft with CSI: a deep-faded symbol yields all-zero LLRs, however
  // large its received value; one above the threshold is equalised
  // and demapped to confident LLRs.
  const QamModem qam(4);
  const std::complex<float> y[] = {{3.0f, -2.0f}, {3.0f, -2.0f}, {3.0f, -2.0f}};
  const std::complex<float> csi[] = {{1e-5f, 0.0f}, {0.0f, 0.0f}, {1e-4f, 0.0f}};
  std::vector<float> llrs;
  qam.demap_soft(y, csi, 1e-9, llrs);
  ASSERT_EQ(llrs.size(), 12u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(llrs[i], 0.0f) << i;
  float mag = 0.0f;
  for (int i = 8; i < 12; ++i) mag += std::fabs(llrs[i]);
  EXPECT_GT(mag, 1.0f);
}

}  // namespace
}  // namespace spinal::modem
