#include "spinal/theory.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

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

TEST(Theory, AttemptGateSymbolsPinned) {
  // N C + 4 sqrt(N V) + (1/2) log2 N >= n at its smallest N >= the
  // 16-bit-slack converse, for n = 256.
  const auto awgn = [](int n, double snr_db) {
    const double snr = util::db_to_lin(snr_db);
    return attempt_gate_symbols(n, util::awgn_capacity(snr), util::awgn_dispersion(snr));
  };
  EXPECT_EQ(awgn(256, 10.0), 61);
  EXPECT_EQ(awgn(256, 0.0), 185);
  const double p = 0.02;
  EXPECT_EQ(attempt_gate_symbols(256, util::bsc_capacity(p), util::bsc_dispersion(p)), 238);
  // The converse's rules pass through: 0 for n <= 16, and a channel
  // that carries nothing never opens the gate.
  for (int n = 0; n <= 16; ++n) {
    EXPECT_EQ(awgn(n, 0.0), 0) << n;
    EXPECT_EQ(attempt_gate_symbols(n, 0.0, 0.0), 0) << n;
  }
  EXPECT_GT(awgn(17, 0.0), 0);
  constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(attempt_gate_symbols(256, 0.0, 0.0), kNever);
  EXPECT_EQ(attempt_gate_symbols(256, util::bsc_capacity(0.5), util::bsc_dispersion(0.5)),
            kNever);
}

TEST(Theory, AttemptGateIsTheSmallestNAboveTheConverse) {
  const auto bound = [](double N, double C, double V) {
    return N * C + 4.0 * std::sqrt(N * V) + 0.5 * std::log2(N);
  };
  const auto check = [&](int n, double C, double V, const std::string& label) {
    const std::int64_t floor = min_attempt_symbols(n, C, V);
    const std::int64_t N = attempt_gate_symbols(n, C, V);
    ASSERT_GE(N, floor) << label;
    const auto x = static_cast<double>(N);
    ASSERT_GE(bound(x, C, V), n) << label;
    // One symbol fewer falls short, or falls below the converse.
    if (N - 1 >= floor) {
      ASSERT_LT(bound(x - 1.0, C, V), n) << label;
    }
  };
  for (int n = 17; n <= 4096; ++n) {
    for (double snr_db = -10.0; snr_db <= 30.0; snr_db += 2.5) {
      const double snr = util::db_to_lin(snr_db);
      check(n, util::awgn_capacity(snr), util::awgn_dispersion(snr),
            "n=" + std::to_string(n) + " snr " + std::to_string(snr_db));
    }
    for (double p : {0.001, 0.003, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.49})
      check(n, util::bsc_capacity(p), util::bsc_dispersion(p),
            "n=" + std::to_string(n) + " p=" + std::to_string(p));
  }
}

TEST(Theory, AttemptGateIsBoundedTimeNearZeroCapacity) {
  // At p = 0.4999, C ~ 3e-8: walking N up from the converse one symbol
  // at a time would take about 16 / C steps. Bisection takes ~40.
  const double p = 0.4999;
  const double C = util::bsc_capacity(p), V = util::bsc_dispersion(p);
  const auto start = std::chrono::steady_clock::now();
  const std::int64_t N = attempt_gate_symbols(4096, C, V);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(N, min_attempt_symbols(4096, C, V));
  EXPECT_LT(N, std::numeric_limits<std::int64_t>::max());
  EXPECT_GE(static_cast<double>(N) * C + 4.0 * std::sqrt(static_cast<double>(N) * V) +
                0.5 * std::log2(static_cast<double>(N)),
            4096.0);
  EXPECT_LT(elapsed, std::chrono::milliseconds(100));
}

TEST(Theory, PaperC6Choice) {
  // §8.4 finds c=6 adequate up to ~35 dB in practice; the theorem's
  // conservative rule agrees c=6 suffices through mid SNRs.
  EXPECT_LE(recommended_c(8.0), 8);
}

}  // namespace
}  // namespace spinal::theory
