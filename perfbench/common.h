#pragma once
// Shared pieces of the layer-waterfall benchmark: sample sets with the
// quartile spread the benchmark reports, the metric table every workload
// fills, and process-level probes (clock, resident memory).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A set of measurements. Quantiles interpolate linearly between order
/// statistics; spread() is the distance between the first and third
/// quartile (Python's statistics.quantiles(n=4), "exclusive" method) as
/// a share of the median.
class Samples {
 public:
  void add(double x) { v_.push_back(x); }
  void append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  std::size_t size() const { return v_.size(); }

  /// q in [0, 1]; 0 for an empty set.
  double quantile(double q) const {
    if (v_.empty()) return 0.0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const double pos = q * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (pos - static_cast<double>(lo)) * (s[hi] - s[lo]);
  }
  double median() const { return quantile(0.5); }

  double spread() const {
    if (v_.size() < 2) return 0.0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const double m = static_cast<double>(s.size()) + 1.0;
    auto at = [&](double pos) {  // 1-based position, clamped
      pos = std::clamp(pos, 1.0, static_cast<double>(s.size()));
      const auto j = static_cast<std::size_t>(pos);
      const double d = pos - static_cast<double>(j);
      return j >= s.size() ? s.back() : s[j - 1] + d * (s[j] - s[j - 1]);
    };
    const double med = median();
    return med != 0.0 ? (at(0.75 * m) - at(0.25 * m)) / med : 0.0;
  }

 private:
  std::vector<double> v_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  double spread = 0;        ///< quartile spread / median of the samples
  std::size_t samples = 1;  ///< observations behind the value
};

/// What one workload run reports: the verdict of its output checks and
/// the metrics of the selected mode (end-to-end or per-layer).
struct Result {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable lines ('#'-prefixed)

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit), 0.0, 1});
  }
  /// Median of @p s, with its spread and sample count.
  void add_median(std::string name, const Samples& s, std::string unit) {
    metrics.push_back({std::move(name), s.median(), std::move(unit), s.spread(),
                       s.size()});
  }
};

/// Decoder family of a session, the split of spinal.decode_*.
enum class Family { kF32 = 0, kU16 = 1, kBsc = 2 };
inline constexpr int kFamilies = 3;
inline constexpr const char* kFamilyName[kFamilies] = {"f32", "u16", "bsc"};

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// The figures behind the end-to-end metrics (untraced run).
struct EndToEnd {
  Samples goodput_bps;  ///< one sample per timed round
  double rate_bits_per_symbol = 0;
  double delivered_fraction = 0;
  Samples setup_s;  ///< one sample per set-up repetition
  double peak_rss_mib = 0;
  /// Per timed round, the p50 and p99 of its ACK latencies; the metrics
  /// are their medians over the rounds, so one round slowed by the host
  /// does not set the tail. ack_samples counts the latencies behind them.
  Samples round_p50_ms, round_p99_ms;
  std::size_t ack_samples = 0;

  void add_round_latencies(const Samples& ms) {
    ack_samples += ms.size();
    round_p50_ms.add(ms.quantile(0.5));
    round_p99_ms.add(ms.quantile(0.99));
  }
};

/// The figures behind the per-layer metrics (traced run). A field a
/// workload's path does not cross stays 0. Counts are per round.
struct Layers {
  double decode_calls[kFamilies] = {0, 0, 0};
  double decode_us_p50[kFamilies] = {0, 0, 0}, decode_us_p99[kFamilies] = {0, 0, 0};
  double decode_calls_all = 0, decode_us_p50_all = 0, decode_us_p99_all = 0;
  double decode_share = 0;
  Samples replay_bps;
  double next_chunk_ns_per_symbol = 0, receive_chunk_ns_per_symbol = 0;
  double feed_share = 0;
  Samples sequential_bps;
  double attempts_per_session = 0, useful_attempt_ratio = 0;
  Samples goodput_untraced_bps, goodput_traced_bps;
  Samples drain_ms, submit_us;
  double jobs = 0, claims = 0;
  double queue_wait_us_p50 = 0, queue_wait_us_p99 = 0;
  double batch_assembly_us_p50 = 0, batch_assembly_us_p99 = 0;
  double decode_service_us_p50 = 0;
  double rss_growth_mib_per_round = 0;
  double steals = 0, reduced_effort_attempts = 0, full_effort_retries = 0,
         unpinned_decodes = 0;
  double mux_ingest_ns_per_symbol = 0;
  Samples mux_pause_point_us, mux_wait_idle_ms, mux_poll_acks_us;
  double mux_frames = 0, mux_attempts_per_block = 0,
         mux_useful_attempt_ratio = 0, mux_stale_symbols = 0;
  double reference_redraws = 0;  ///< links redrawn for a reference false accept
};

/// Timed rounds of an untraced run: a fixed count for a given --seconds
/// (a nominal round length sets it), never the deadline, so a faster
/// program runs the same rounds and its end-to-end figures come from
/// the same work.
inline int timed_rounds(double seconds, double nominal_round_s, int min_rounds) {
  return std::max(min_rounds, static_cast<int>(seconds / nominal_round_s + 0.5));
}

/// Fills @p out's metric table from the figures, in the order (and
/// under the names and units) BENCHMARK.json lists them.
void emit(const EndToEnd& e, Result& out);
void emit(const Layers& l, Result& out);

/// Resident-set figures from /proc/self/status, in MiB (0 where the
/// platform has no procfs).
double rss_mib();       ///< VmRSS: current
double peak_rss_mib();  ///< VmHWM: high-water mark of the process

/// SplitMix64 step: derives independent per-item seeds from one
/// workload seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a,
                              std::uint64_t b = 0) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + a * 0xBF58476D1CE4E5B9ull +
                    b * 0x94D049BB133111EBull + 0x2545F4914F6CDD1Dull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Fleet workloads ("fleet_small_b", "fleet_reference") and the link
/// workload ("link_mux"). Each builds its inputs from cfg.seed, checks
/// every output and fills the metrics of the mode cfg.trace selects.
Result run_fleet(const std::string& workload, const RunConfig& cfg);
Result run_link(const RunConfig& cfg);

}  // namespace perfbench
