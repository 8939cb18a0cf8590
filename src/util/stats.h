#pragma once
// Lightweight statistics accumulators for the experiment harness and
// the decode runtime's telemetry.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace spinal::util {

/// Collects samples and answers quantile queries (used for the
/// symbols-to-decode CDF of Fig 8-11 and the PAPR tail of Table 8.1).
class SampleSet {
 public:
  void add(double x) { samples_.push_back(x); }
  std::size_t count() const noexcept { return samples_.size(); }
  double mean() const noexcept;
  /// Quantile q in [0,1] by linear interpolation; empty set returns 0.
  double quantile(double q) const;
  const std::vector<double>& samples() const noexcept { return samples_; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

/// Streaming latency histogram with *fixed* log-spaced bins: 8 sub-bins
/// per octave covering [2^-10, 2^22) in whatever unit the caller feeds
/// (the runtime uses microseconds, so ~1 ms-resolution tails out to
/// ~70 minutes). The layout is a compile-time constant, so histograms
/// recorded independently — one per decode worker — merge by elementwise
/// addition, unlike SampleSet which must retain every sample. Relative
/// bin width is 2^(1/8) ≈ 9%, the quantile error bound.
class LatencyHistogram {
 public:
  void add(double x) noexcept;
  /// Records @p n observations of the same value under one bin update —
  /// the batched-decode runtime attributes a batch's latency evenly
  /// across its jobs, so the n samples really are identical.
  void add_n(double x, std::uint64_t n) noexcept;
  /// Elementwise merge (identical fixed layout on both sides).
  void merge(const LatencyHistogram& other) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double mean() const noexcept;
  double min() const noexcept { return count_ ? min_ : 0.0; }
  double max() const noexcept { return count_ ? max_ : 0.0; }

  /// Quantile q in [0, 1], interpolated log-linearly inside the bin and
  /// clamped to the exact observed [min, max]; empty histogram returns 0.
  double quantile(double q) const noexcept;

  static constexpr int bin_count() noexcept { return kBins; }

  /// Bin that value @p x lands in — public so lock-free recorders
  /// (AtomicLatencyHistogram) can share the exact layout.
  static int bin_index(double x) noexcept;
  /// Lower edge of bin @p i: 2^(kMinExp + i / kSubBins).
  static double bin_lo(int i) noexcept;

  /// Rebuilds a histogram from raw bin counts in this fixed layout
  /// (count is recomputed as the bin total, so a slightly torn
  /// concurrent read still yields a self-consistent histogram).
  static LatencyHistogram from_bins(const std::uint64_t* bins, double sum,
                                    double min, double max) noexcept;

 private:
  static constexpr int kSubBins = 8;    // bins per octave
  static constexpr int kMinExp = -10;   // smallest resolved value: 2^-10
  static constexpr int kMaxExp = 22;    // everything >= 2^22 lands in the last bin
  static constexpr int kBins = (kMaxExp - kMinExp) * kSubBins;

  std::array<std::uint64_t, kBins> bins_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Lock-free companion to LatencyHistogram for single-writer-many-reader
/// (or many-writer) recording: every field is an atomic updated with
/// relaxed ordering, so steady-state recording never takes a lock and a
/// concurrent snapshot() is race-free (TSan-clean). Values must be
/// non-negative (latencies/durations); the min/max tracking relies on
/// the IEEE-754 property that non-negative doubles order identically to
/// their bit patterns. A snapshot taken mid-add may lag individual
/// fields by one update but is always self-consistent (its count is the
/// bin total at read time).
class AtomicLatencyHistogram {
 public:
  void add(double x) noexcept { add_n(x, 1); }
  void add_n(double x, std::uint64_t n) noexcept;

  /// Current contents as a plain mergeable histogram.
  LatencyHistogram snapshot() const noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, LatencyHistogram::bin_count()> bins_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // Bit patterns of the running min/max (non-negative doubles compare
  // like their bit patterns); kEmptyMin/kEmptyMax mark "no samples yet".
  std::atomic<std::uint64_t> min_bits_{kEmptyMin};
  std::atomic<std::uint64_t> max_bits_{kEmptyMax};
  static constexpr std::uint64_t kEmptyMin = ~std::uint64_t{0};
  static constexpr std::uint64_t kEmptyMax = 0;
};

}  // namespace spinal::util
