#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace spinal::util {

void SampleSet::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::mean() const noexcept {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double SampleSet::quantile(double q) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

// ---------------------------------------------------- LatencyHistogram

int LatencyHistogram::bin_index(double x) noexcept {
  if (!(x > 0.0)) return 0;  // non-positive / NaN: underflow bin
  const double pos = (std::log2(x) - kMinExp) * kSubBins;
  if (pos < 0.0) return 0;
  if (pos >= kBins) return kBins - 1;
  return static_cast<int>(pos);
}

double LatencyHistogram::bin_lo(int i) noexcept {
  return std::exp2(kMinExp + static_cast<double>(i) / kSubBins);
}

void LatencyHistogram::add(double x) noexcept {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  ++bins_[static_cast<std::size_t>(bin_index(x))];
}

void LatencyHistogram::add_n(double x, std::uint64_t n) noexcept {
  if (n == 0) return;
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  count_ += n;
  sum_ += x * static_cast<double>(n);
  bins_[static_cast<std::size_t>(bin_index(x))] += n;
}

void LatencyHistogram::merge(const LatencyHistogram& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (int i = 0; i < kBins; ++i) bins_[i] += other.bins_[i];
}

LatencyHistogram LatencyHistogram::from_bins(const std::uint64_t* bins,
                                             double sum, double min,
                                             double max) noexcept {
  LatencyHistogram h;
  for (int i = 0; i < kBins; ++i) {
    h.bins_[static_cast<std::size_t>(i)] = bins[i];
    h.count_ += bins[i];
  }
  if (h.count_ > 0) {
    h.sum_ = sum;
    h.min_ = min;
    h.max_ = max;
  }
  return h;
}

double LatencyHistogram::mean() const noexcept {
  return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double LatencyHistogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-quantile sample (1-based, nearest-rank with ceil).
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                     std::ceil(q * static_cast<double>(count_))));
  std::uint64_t cum = 0;
  for (int i = 0; i < kBins; ++i) {
    if (bins_[i] == 0) continue;
    if (cum + bins_[i] < rank) {
      cum += bins_[i];
      continue;
    }
    // Log-linear interpolation of the rank's position inside the bin.
    const double frac = static_cast<double>(rank - cum) /
                        static_cast<double>(bins_[i]);
    const double lo = bin_lo(i), hi = bin_lo(i + 1);
    const double v = lo * std::exp2(std::log2(hi / lo) * frac);  // lo * (hi/lo)^frac
    return std::clamp(v, min_, max_);
  }
  return max_;  // unreachable when counts are consistent
}

// ---------------------------------------------- AtomicLatencyHistogram

namespace {

std::uint64_t double_bits(double x) noexcept {
  std::uint64_t b;
  static_assert(sizeof(b) == sizeof(x));
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

double bits_double(std::uint64_t b) noexcept {
  double x;
  std::memcpy(&x, &b, sizeof(x));
  return x;
}

/// Monotonic fetch-min/-max on bit patterns (relaxed CAS loop).
void store_min(std::atomic<std::uint64_t>& t, std::uint64_t v) noexcept {
  std::uint64_t cur = t.load(std::memory_order_relaxed);
  while (v < cur &&
         !t.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void store_max(std::atomic<std::uint64_t>& t, std::uint64_t v) noexcept {
  std::uint64_t cur = t.load(std::memory_order_relaxed);
  while (v > cur &&
         !t.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

void AtomicLatencyHistogram::add_n(double x, std::uint64_t n) noexcept {
  if (n == 0) return;
  if (!(x >= 0.0)) x = 0.0;  // negative / NaN: clamp into the underflow bin
  const int bin = LatencyHistogram::bin_index(x);
  bins_[static_cast<std::size_t>(bin)].fetch_add(n, std::memory_order_relaxed);
  count_.fetch_add(n, std::memory_order_relaxed);
  sum_.fetch_add(x * static_cast<double>(n), std::memory_order_relaxed);
  const std::uint64_t b = double_bits(x);
  store_min(min_bits_, b);
  store_max(max_bits_, b);
}

LatencyHistogram AtomicLatencyHistogram::snapshot() const noexcept {
  std::array<std::uint64_t, LatencyHistogram::bin_count()> bins;
  for (int i = 0; i < LatencyHistogram::bin_count(); ++i)
    bins[static_cast<std::size_t>(i)] =
        bins_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  const std::uint64_t min_b = min_bits_.load(std::memory_order_relaxed);
  const std::uint64_t max_b = max_bits_.load(std::memory_order_relaxed);
  // add_n bumps a bin before it records min and max, so a snapshot can
  // catch counts whose value range is not recorded yet (an unset max
  // reads below any min). Report such a snapshot as empty: every
  // quantile of a non-empty one then lies inside a recorded range.
  if (min_b == kEmptyMin || max_b < min_b) return LatencyHistogram{};
  return LatencyHistogram::from_bins(
      bins.data(), sum_.load(std::memory_order_relaxed),
      bits_double(min_b), bits_double(max_b));
}

}  // namespace spinal::util
