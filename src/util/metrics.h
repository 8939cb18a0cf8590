#pragma once
// A small metrics-export layer over the runtime's telemetry: named
// counter / gauge / histogram handles registered once, updated from hot
// or refresh paths, and exposed as Prometheus text or JSON. The
// registry is the seam between "the runtime measured something"
// (runtime/telemetry.h) and "an operator can scrape it":
// runtime::export_metrics writes a TelemetrySnapshot into handles here
// (any service can call it; the decode server passes it to its sampler)
// and a PeriodicSampler turns the stream into time-sliced snapshots
// (per-interval counter deltas), so overload transients — the adaptive-
// effort valve kicking in, a shard backing up — are visible instead of
// averaged away over a whole run. Values print as the shortest text
// that reads back exactly, so counters keep every digit.
//
// Concurrency: handle updates are lock-free (atomics; histograms record
// through util::AtomicLatencyHistogram). Registration and exposition
// take the registry mutex — both are off the hot path by design.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/stats.h"

namespace spinal::util::metrics {

/// Monotonically increasing value. set() exists for mirror counters
/// that track an externally accumulated total (e.g. a telemetry
/// snapshot's lifetime counter) — the exported value is still expected
/// to be monotonic.
class Counter {
 public:
  void inc(double n = 1.0) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Point-in-time value.
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double n) noexcept { v_.fetch_add(n, std::memory_order_relaxed); }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Latency/size distribution. add() records lock-free; assign()
/// replaces the contents wholesale with an externally built histogram
/// (the mirror-from-telemetry path). Exposed as a Prometheus summary
/// (p50/p95/p99 + _sum/_count) and as quantiles + stats in JSON.
class Histogram {
 public:
  void add(double x) noexcept { live_.add(x); }
  void assign(const util::LatencyHistogram& h);
  util::LatencyHistogram snapshot() const;

 private:
  util::AtomicLatencyHistogram live_;
  mutable std::mutex m_;  // guards assigned_ only
  util::LatencyHistogram assigned_;
  std::atomic<bool> has_assigned_{false};
};

enum class Kind { kCounter, kGauge, kHistogram };

/// One exported sample (histograms flatten to quantiles separately).
struct Sample {
  std::string name;    ///< metric family name
  std::string labels;  ///< Prometheus label body, e.g. codec="bsc" (may be empty)
  Kind kind = Kind::kGauge;
  double value = 0.0;                 ///< counters/gauges
  util::LatencyHistogram histogram;   ///< histograms
};

class Registry {
 public:
  /// Get-or-create: the same (name, labels) pair always returns the
  /// same handle, so refresh loops can re-resolve by name. Kind
  /// mismatches on an existing name throw std::logic_error.
  Counter& counter(const std::string& name, const std::string& help,
                   const std::string& labels = "");
  Gauge& gauge(const std::string& name, const std::string& help,
               const std::string& labels = "");
  Histogram& histogram(const std::string& name, const std::string& help,
                       const std::string& labels = "");

  /// Every registered handle's current value, registration-ordered.
  std::vector<Sample> collect() const;

  /// Prometheus text exposition (counters/gauges as their type,
  /// histograms as summaries with quantile labels).
  std::string prometheus_text() const;

  /// JSON exposition: {"counters": {...}, "gauges": {...},
  /// "histograms": {name{labels}: {count, mean, min, max, p50, p95,
  /// p99}}}. Stable key = name{labels}.
  std::string json() const;

 private:
  struct Entry {
    std::string name, labels, help;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry& find_or_create(const std::string& name, const std::string& help,
                        const std::string& labels, Kind kind);

  mutable std::mutex m_;
  std::vector<std::unique_ptr<Entry>> entries_;       // registration order
  std::map<std::string, std::size_t> index_;          // name{labels} -> entry
};

/// Background sampler: every @p interval it runs @p refresh (so pull-
/// style metrics can mirror fresh values into the registry), collects
/// the registry, and stores a time slice — counters as per-interval
/// deltas, gauges as point values, histogram counts as deltas. stop()
/// (or destruction) takes a final slice and joins.
class PeriodicSampler {
 public:
  struct Slice {
    double t_ms = 0.0;  ///< slice end, milliseconds since sampler start
    std::vector<std::pair<std::string, double>> counters;  ///< deltas
    std::vector<std::pair<std::string, double>> gauges;    ///< values
  };

  PeriodicSampler(Registry& reg, std::chrono::milliseconds interval,
                  std::function<void()> refresh);
  ~PeriodicSampler();

  void stop();
  std::vector<Slice> slices() const;
  /// The slices as a JSON array (one object per slice).
  std::string slices_json() const;

 private:
  void sample();

  Registry& reg_;
  std::function<void()> refresh_;
  std::chrono::steady_clock::time_point start_;
  mutable std::mutex m_;
  std::vector<Slice> slices_;
  std::map<std::string, double> last_counters_;
  std::atomic<bool> stop_{false};
  std::mutex wake_m_;
  std::condition_variable wake_cv_;
  std::thread thread_;
};

}  // namespace spinal::util::metrics
