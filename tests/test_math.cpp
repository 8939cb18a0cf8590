#include "util/math.h"

#include <gtest/gtest.h>

#include <cmath>

namespace spinal::util {
namespace {

TEST(Math, DbConversionsRoundTrip) {
  for (double db : {-10.0, -3.0, 0.0, 7.5, 20.0, 35.0})
    EXPECT_NEAR(lin_to_db(db_to_lin(db)), db, 1e-12);
  EXPECT_DOUBLE_EQ(db_to_lin(0.0), 1.0);
  EXPECT_NEAR(db_to_lin(10.0), 10.0, 1e-12);
  EXPECT_NEAR(db_to_lin(3.0), 1.995262, 1e-5);
}

TEST(Math, AwgnCapacityKnownValues) {
  EXPECT_DOUBLE_EQ(awgn_capacity(0.0), 0.0);
  EXPECT_DOUBLE_EQ(awgn_capacity(1.0), 1.0);   // 0 dB -> 1 bit/symbol
  EXPECT_DOUBLE_EQ(awgn_capacity(3.0), 2.0);
  EXPECT_DOUBLE_EQ(awgn_capacity(15.0), 4.0);
  EXPECT_DOUBLE_EQ(awgn_capacity_real(3.0), 1.0);
}

TEST(Math, CapacityInverseRoundTrip) {
  for (double rate : {0.25, 1.0, 3.0, 6.0, 9.0})
    EXPECT_NEAR(awgn_capacity(awgn_snr_for_rate(rate)), rate, 1e-12);
}

TEST(Math, PaperGapToCapacityExample) {
  // §8.1: "a code achieves a rate of 3 bits/symbol at an SNR of 12 dB.
  // Because the Shannon capacity is 3 bits/symbol at 8.45 dB, the gap to
  // capacity is 8.45 - 12 = -3.55 dB."
  EXPECT_NEAR(lin_to_db(awgn_snr_for_rate(3.0)), 8.45, 0.01);
  EXPECT_NEAR(gap_to_capacity_db(3.0, 12.0), -3.55, 0.01);
}

TEST(Math, GapIsZeroAtCapacity) {
  const double snr_db = 10.0;
  const double cap = awgn_capacity(db_to_lin(snr_db));
  EXPECT_NEAR(gap_to_capacity_db(cap, snr_db), 0.0, 1e-9);
}

TEST(Math, BinaryEntropyProperties) {
  EXPECT_DOUBLE_EQ(binary_entropy(0.0), 0.0);
  EXPECT_DOUBLE_EQ(binary_entropy(1.0), 0.0);
  EXPECT_DOUBLE_EQ(binary_entropy(0.5), 1.0);
  EXPECT_NEAR(binary_entropy(0.11), binary_entropy(0.89), 1e-12);  // symmetry
  EXPECT_NEAR(binary_entropy(0.11), 0.499916, 1e-5);
}

TEST(Math, BscCapacity) {
  EXPECT_DOUBLE_EQ(bsc_capacity(0.0), 1.0);
  EXPECT_DOUBLE_EQ(bsc_capacity(0.5), 0.0);
  EXPECT_NEAR(bsc_capacity(0.11), 0.5, 1e-4);
}

TEST(Math, AwgnDispersionClosedForm) {
  // V = SNR (SNR + 2) / (SNR + 1)^2 log2(e)^2 per complex symbol.
  const double log2e_sq = 1.0 / (std::log(2.0) * std::log(2.0));
  EXPECT_DOUBLE_EQ(awgn_dispersion(0.0), 0.0);
  EXPECT_NEAR(awgn_dispersion(1.0), 0.75 * log2e_sq, 1e-12);
  EXPECT_NEAR(awgn_dispersion(10.0), 120.0 / 121.0 * log2e_sq, 1e-12);
  // It saturates at log2(e)^2 as SNR grows.
  EXPECT_NEAR(awgn_dispersion(1e9), log2e_sq, 1e-8);
  EXPECT_LT(awgn_dispersion(1e3), log2e_sq);
}

TEST(Math, BscDispersionClosedForm) {
  // V = p (1 - p) log2((1 - p) / p)^2, symmetric in p <-> 1 - p.
  EXPECT_DOUBLE_EQ(bsc_dispersion(0.0), 0.0);
  EXPECT_DOUBLE_EQ(bsc_dispersion(1.0), 0.0);
  EXPECT_DOUBLE_EQ(bsc_dispersion(0.5), 0.0);
  EXPECT_NEAR(bsc_dispersion(0.02), 0.02 * 0.98 * std::pow(std::log2(49.0), 2), 1e-12);
  EXPECT_NEAR(bsc_dispersion(0.11), bsc_dispersion(0.89), 1e-12);
  EXPECT_NEAR(bsc_dispersion(0.2), 0.16 * 4.0, 1e-12);  // log2(0.8/0.2) = 2
}

TEST(Math, PhiKnownValues) {
  EXPECT_NEAR(phi(0.0), 0.5, 1e-12);
  EXPECT_NEAR(phi(1.0), 0.841345, 1e-6);
  EXPECT_NEAR(phi(-1.0), 0.158655, 1e-6);
  EXPECT_NEAR(phi(1.959964), 0.975, 1e-6);
}

TEST(Math, PhiInverseRoundTrip) {
  for (double p : {0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999})
    EXPECT_NEAR(phi(phi_inverse(p)), p, 1e-10) << p;
}

TEST(Math, PhiInverseKnownValues) {
  EXPECT_NEAR(phi_inverse(0.5), 0.0, 1e-12);
  EXPECT_NEAR(phi_inverse(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(phi_inverse(0.841345), 1.0, 1e-5);
}

}  // namespace
}  // namespace spinal::util
