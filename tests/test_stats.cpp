#include "util/stats.h"

#include <atomic>
#include <cmath>
#include <thread>

#include <gtest/gtest.h>

#include "util/prng.h"

namespace spinal::util {
namespace {

TEST(SampleSet, QuantilesOfKnownSet) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_NEAR(s.quantile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(s.mean(), 50.5, 1e-9);
}

TEST(SampleSet, AddAfterQueryStillCorrect) {
  SampleSet s;
  s.add(3);
  s.add(1);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 3.0);
  s.add(10);  // invalidates sort
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 10.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 3.0);
}

TEST(SampleSet, EmptyReturnsZero) {
  SampleSet s;
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(LatencyHistogram, EmptyReturnsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(LatencyHistogram, QuantilesWithinBinResolutionOfExact) {
  // Log-spaced bins with 8 sub-bins per octave: any quantile must land
  // within one bin width (a factor of 2^(1/8)) of the exact sample
  // quantile, across several orders of magnitude.
  Xoshiro256 r(123);
  LatencyHistogram h;
  SampleSet exact;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform latencies spanning ~0.1 .. 1e5 "microseconds".
    const double u = static_cast<double>(r.next_u64() >> 11) / 9007199254740992.0;
    const double x = std::pow(10.0, -1.0 + 6.0 * u);
    h.add(x);
    exact.add(x);
  }
  EXPECT_EQ(h.count(), 20000u);
  const double tol = std::pow(2.0, 1.0 / 8.0) + 1e-9;
  for (double q : {0.1, 0.5, 0.9, 0.95, 0.99}) {
    const double approx = h.quantile(q);
    const double truth = exact.quantile(q);
    EXPECT_LE(approx / truth, tol) << q;
    EXPECT_GE(approx / truth, 1.0 / tol) << q;
  }
  EXPECT_NEAR(h.mean(), exact.mean(), exact.mean() * 1e-9);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), h.min());
  EXPECT_DOUBLE_EQ(h.quantile(1.0), h.max());
}

TEST(LatencyHistogram, MergeEqualsCombinedAdds) {
  Xoshiro256 r(55);
  LatencyHistogram a, b, combined;
  for (int i = 0; i < 500; ++i) {
    const double x = 1.0 + static_cast<double>(r.next_u64() % 100000);
    if (i % 3 == 0) {
      a.add(x);
    } else {
      b.add(x);
    }
    combined.add(x);
  }
  LatencyHistogram merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.count(), combined.count());
  EXPECT_DOUBLE_EQ(merged.min(), combined.min());
  EXPECT_DOUBLE_EQ(merged.max(), combined.max());
  EXPECT_DOUBLE_EQ(merged.mean(), combined.mean());
  for (double q : {0.05, 0.25, 0.5, 0.75, 0.95, 0.99})
    EXPECT_DOUBLE_EQ(merged.quantile(q), combined.quantile(q)) << q;
  // Merging an empty histogram is a no-op in both directions.
  LatencyHistogram empty;
  merged.merge(empty);
  EXPECT_EQ(merged.count(), combined.count());
  empty.merge(combined);
  EXPECT_EQ(empty.count(), combined.count());
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), combined.quantile(0.5));
}

TEST(LatencyHistogram, OutOfRangeValuesClampToEdgeBins) {
  LatencyHistogram h;
  h.add(1e-9);  // far below the smallest bin
  h.add(1e12);  // far above the largest
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), 1e-9);
  EXPECT_DOUBLE_EQ(h.max(), 1e12);
  // Quantiles stay clamped to the observed range.
  EXPECT_GE(h.quantile(0.01), 1e-9);
  EXPECT_LE(h.quantile(0.99), 1e12);
}

TEST(LatencyHistogram, AddNMatchesRepeatedAddAndZeroIsNoOp) {
  LatencyHistogram batched, looped;
  batched.add_n(42.0, 5);
  for (int i = 0; i < 5; ++i) looped.add(42.0);
  EXPECT_EQ(batched.count(), looped.count());
  EXPECT_DOUBLE_EQ(batched.mean(), looped.mean());
  EXPECT_DOUBLE_EQ(batched.min(), looped.min());
  EXPECT_DOUBLE_EQ(batched.max(), looped.max());
  EXPECT_DOUBLE_EQ(batched.quantile(0.5), looped.quantile(0.5));
  // n=0 records nothing — not even min/max (an empty batch has no
  // observation to contribute).
  LatencyHistogram h;
  h.add_n(17.0, 0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  h.add(3.0);
  h.add_n(9.0, 0);  // still a no-op after real samples exist
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.max(), 3.0);
}

TEST(LatencyHistogram, MergeOfTwoEmptiesStaysEmpty) {
  LatencyHistogram a, b;
  a.merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.max(), 0.0);
  // ...and a later add still behaves as if freshly constructed.
  a.add(7.0);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.min(), 7.0);
  EXPECT_DOUBLE_EQ(a.max(), 7.0);
}

TEST(LatencyHistogram, QuantilesAtBinBoundaries) {
  // Samples sitting exactly on bin lower edges must round-trip: the
  // bin index derived from bin_lo(i) is i itself, and quantiles clamp
  // to the exact observed extremes even though interpolation happens
  // in log space inside the bin.
  for (int i : {0, 1, 8, 77, LatencyHistogram::bin_count() - 1}) {
    const double edge = LatencyHistogram::bin_lo(i);
    EXPECT_EQ(LatencyHistogram::bin_index(edge), i) << i;
    LatencyHistogram h;
    h.add(edge);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), edge) << i;
    EXPECT_DOUBLE_EQ(h.quantile(0.5), edge) << i;
    EXPECT_DOUBLE_EQ(h.quantile(1.0), edge) << i;
  }
  // Two samples one bin apart: every quantile stays inside [lo, hi].
  const double lo = LatencyHistogram::bin_lo(40);
  const double hi = LatencyHistogram::bin_lo(41);
  LatencyHistogram h;
  h.add(lo);
  h.add(hi);
  for (double q = 0.0; q <= 1.0; q += 0.125) {
    EXPECT_GE(h.quantile(q), lo) << q;
    EXPECT_LE(h.quantile(q), hi) << q;
  }
  EXPECT_DOUBLE_EQ(h.quantile(1.0), hi);
}

TEST(AtomicLatencyHistogram, SnapshotMatchesPlainHistogram) {
  Xoshiro256 r(31);
  AtomicLatencyHistogram atomic;
  LatencyHistogram plain;
  for (int i = 0; i < 2000; ++i) {
    const double x = 0.25 + static_cast<double>(r.next_u64() % 1000000);
    atomic.add(x);
    plain.add(x);
  }
  atomic.add_n(5.5, 3);
  plain.add_n(5.5, 3);
  atomic.add_n(1.0, 0);  // no-op, same as the plain histogram
  plain.add_n(1.0, 0);
  const LatencyHistogram snap = atomic.snapshot();
  EXPECT_EQ(snap.count(), plain.count());
  EXPECT_DOUBLE_EQ(snap.mean(), plain.mean());
  EXPECT_DOUBLE_EQ(snap.min(), plain.min());
  EXPECT_DOUBLE_EQ(snap.max(), plain.max());
  for (double q : {0.1, 0.5, 0.9, 0.99})
    EXPECT_DOUBLE_EQ(snap.quantile(q), plain.quantile(q)) << q;
}

TEST(AtomicLatencyHistogram, EmptySnapshotIsEmpty) {
  AtomicLatencyHistogram h;
  const LatencyHistogram snap = h.snapshot();
  EXPECT_EQ(snap.count(), 0u);
  EXPECT_DOUBLE_EQ(snap.min(), 0.0);
  EXPECT_DOUBLE_EQ(snap.max(), 0.0);
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), 0.0);
}

TEST(AtomicLatencyHistogram, ConcurrentSnapshotWhileRecording) {
  // Writers hammer adds while a reader snapshots continuously. Every
  // snapshot must be self-consistent: count equals the bin total by
  // construction (from_bins recomputes it), quantiles stay inside the
  // recorded value range, and the final drained snapshot is exact.
  AtomicLatencyHistogram h;
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 20000;
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&h, w] {
      Xoshiro256 r(1000 + w);
      for (int i = 0; i < kPerWriter; ++i)
        h.add(1.0 + static_cast<double>(r.next_u64() % 4096));
    });
  }
  std::thread reader([&h, &done] {
    while (!done.load(std::memory_order_relaxed)) {
      const LatencyHistogram snap = h.snapshot();
      ASSERT_LE(snap.count(),
                static_cast<std::uint64_t>(kWriters) * kPerWriter);
      if (snap.count() > 0) {
        ASSERT_GE(snap.quantile(0.5), 1.0);
        ASSERT_LE(snap.quantile(0.5), 4097.0);
      }
    }
  });
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();
  const LatencyHistogram final_snap = h.snapshot();
  EXPECT_EQ(final_snap.count(),
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
  EXPECT_DOUBLE_EQ(final_snap.min(), 1.0);
  EXPECT_LE(final_snap.max(), 4096.0);
}

TEST(LatencyHistogram, QuantileIsMonotoneInQ) {
  Xoshiro256 r(9);
  LatencyHistogram h;
  for (int i = 0; i < 3000; ++i)
    h.add(0.5 + static_cast<double>(r.next_u64() % 10000000));
  double prev = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev) << q;
    prev = v;
  }
}

}  // namespace
}  // namespace spinal::util
