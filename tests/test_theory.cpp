#include "spinal/theory.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "util/math.h"

namespace spinal::theory {
namespace {

TEST(Theory, ShapingLossMatchesPaperConstant) {
  // §4.6: "within 1/2 log2(pi e / 6) ~ 0.25 of capacity".
  EXPECT_NEAR(uniform_shaping_loss_real(), 0.2546, 0.001);
}

TEST(Theory, DeltaShrinksWithC) {
  const double snr = util::db_to_lin(10.0);
  double prev = 1e9;
  for (int c = 1; c <= 10; ++c) {
    const double d = theorem1_delta_real(c, snr);
    EXPECT_LT(d, prev);
    prev = d;
  }
  // Quantisation term vanishes; only the shaping loss remains.
  EXPECT_NEAR(theorem1_delta_real(24, snr), uniform_shaping_loss_real(), 1e-4);
}

TEST(Theory, DeltaGrowsWithSnrAtFixedC) {
  // The 3(1+SNR)2^-c term: fixed c quantisation hurts more at high SNR
  // — exactly why §4.6 wants c = Omega(log(1+SNR)).
  EXPECT_LT(theorem1_delta_real(6, util::db_to_lin(0.0)),
            theorem1_delta_real(6, util::db_to_lin(30.0)));
}

TEST(Theory, RateBoundBelowCapacityAndNonNegative) {
  for (double snr_db : {-5.0, 0.0, 10.0, 25.0, 35.0}) {
    const double bound = theorem1_rate_bound(6, snr_db);
    EXPECT_GE(bound, 0.0);
    EXPECT_LE(bound, util::awgn_capacity(util::db_to_lin(snr_db)));
  }
}

TEST(Theory, RateBoundApproachesShapingGapForLargeC) {
  const double snr_db = 20.0;
  const double cap = util::awgn_capacity(util::db_to_lin(snr_db));
  const double bound = theorem1_rate_bound(20, snr_db);
  EXPECT_NEAR(cap - bound, 2 * uniform_shaping_loss_real(), 1e-3);
}

TEST(Theory, MinPassesMatchesRateBound) {
  for (double snr_db : {0.0, 5.0, 10.0}) {
    const int L = theorem1_min_passes(4, 6, snr_db);
    ASSERT_GT(L, 0) << snr_db;
    const double per_pass = theorem1_rate_bound(6, snr_db);
    EXPECT_GT(L * per_pass, 4.0);            // L satisfies the theorem
    if (L > 1) {
      EXPECT_LE((L - 1) * per_pass, 4.0);  // and is minimal
    }
  }
}

TEST(Theory, C6TheoremInfeasibleAtHighSnrThoughPracticeWorks) {
  // The conservative quantisation term 3(1+SNR)2^-c exceeds capacity
  // for c=6 at 20 dB, so Theorem 1 gives no finite L there — yet §8.4
  // measures c=6 working fine to 35 dB. The theorem's c rule is
  // sufficient, not necessary.
  EXPECT_EQ(theorem1_min_passes(4, 6, 20.0), -1);
  EXPECT_GT(theorem1_min_passes(4, recommended_c(20.0), 20.0), 0);
}

TEST(Theory, MinPassesInfeasibleBelowDeltaFloor) {
  // With c=1 the quantisation penalty exceeds capacity at high SNR:
  // no L works.
  EXPECT_EQ(theorem1_min_passes(4, 1, 30.0), -1);
}

TEST(Theory, RecommendedCGrowsLogarithmically) {
  const int c0 = recommended_c(0.0);
  const int c20 = recommended_c(20.0);
  const int c35 = recommended_c(35.0);
  EXPECT_LT(c0, c20);
  EXPECT_LT(c20, c35);
  // 35 dB needs roughly log2(3*3163/0.25) ~ 15-16 bits; 0 dB a handful.
  EXPECT_GE(c0, 3);
  EXPECT_LE(c35, 17);
}

TEST(Theory, MinAttemptSymbolsPinned) {
  // N C + 4 sqrt(N V) + 16 >= n at its smallest N, for n = 256.
  const auto awgn = [](int n, double snr_db) {
    const double snr = util::db_to_lin(snr_db);
    return min_attempt_symbols(n, util::awgn_capacity(snr), util::awgn_dispersion(snr));
  };
  EXPECT_EQ(awgn(256, 10.0), 57);
  EXPECT_EQ(awgn(256, 0.0), 175);
  const double p = 0.02;
  EXPECT_EQ(min_attempt_symbols(256, util::bsc_capacity(p), util::bsc_dispersion(p)), 225);
  // The 16 bits of slack: the gate never fires for n <= 16.
  for (int n = 0; n <= 16; ++n) {
    EXPECT_EQ(awgn(n, 0.0), 0) << n;
    EXPECT_EQ(min_attempt_symbols(n, 0.0, 0.0), 0) << n;
  }
  EXPECT_GT(awgn(17, 0.0), 0);
  // It is the smallest such N: one symbol fewer falls short.
  for (double snr_db : {-5.0, 0.0, 5.0, 10.0, 20.0}) {
    const double snr = util::db_to_lin(snr_db);
    const double C = util::awgn_capacity(snr), V = util::awgn_dispersion(snr);
    const auto N = static_cast<double>(min_attempt_symbols(256, C, V));
    EXPECT_GE(N * C + 4.0 * std::sqrt(N * V) + 16.0, 256.0) << snr_db;
    EXPECT_LT((N - 1) * C + 4.0 * std::sqrt((N - 1) * V) + 16.0, 256.0)
        << snr_db;
  }
  // A channel that carries nothing never opens the gate.
  EXPECT_EQ(min_attempt_symbols(256, util::bsc_capacity(0.5), util::bsc_dispersion(0.5)),
            std::numeric_limits<std::int64_t>::max());
}

TEST(Theory, PaperC6Choice) {
  // §8.4 finds c=6 adequate up to ~35 dB in practice; the theorem's
  // conservative rule agrees c=6 suffices through mid SNRs.
  EXPECT_LE(recommended_c(8.0), 8);
}

}  // namespace
}  // namespace spinal::theory
