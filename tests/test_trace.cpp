// The observability seams on their own, away from the decode runtime:
// the event tracer's ring-buffer + seqlock export contract
// (runtime/trace.h) and the metrics registry / sampler
// (util/metrics.h). test_runtime covers the wired-up end (stage
// histograms and traces produced by a live DecodeService).

#include "runtime/trace.h"

#include <atomic>
#include <cctype>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/metrics.h"

namespace spinal {
namespace {

// Minimal JSON syntax checker: enough to prove an exposition string is
// well-formed (what Perfetto or a scraper would require) without a JSON
// library. Returns true iff the whole input is one valid JSON value.
class JsonChecker {
 public:
  static bool valid(const std::string& s) {
    JsonChecker c(s);
    c.ws();
    if (!c.value()) return false;
    c.ws();
    return c.p_ == s.size();
  }

 private:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  void ws() {
    while (p_ < s_.size() && (s_[p_] == ' ' || s_[p_] == '\n' ||
                              s_[p_] == '\r' || s_[p_] == '\t'))
      ++p_;
  }
  bool lit(const char* t) {
    const std::size_t n = std::string(t).size();
    if (s_.compare(p_, n, t) != 0) return false;
    p_ += n;
    return true;
  }
  bool string() {
    if (p_ >= s_.size() || s_[p_] != '"') return false;
    for (++p_; p_ < s_.size(); ++p_) {
      if (s_[p_] == '\\') {
        ++p_;
      } else if (s_[p_] == '"') {
        ++p_;
        return true;
      }
    }
    return false;
  }
  bool number() {
    const std::size_t start = p_;
    if (p_ < s_.size() && s_[p_] == '-') ++p_;
    while (p_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[p_])) ||
            s_[p_] == '.' || s_[p_] == 'e' || s_[p_] == 'E' ||
            s_[p_] == '+' || s_[p_] == '-'))
      ++p_;
    return p_ > start;
  }
  bool members(char close, bool keyed) {
    ws();
    if (p_ < s_.size() && s_[p_] == close) {
      ++p_;
      return true;
    }
    while (true) {
      ws();
      if (keyed) {
        if (!string()) return false;
        ws();
        if (p_ >= s_.size() || s_[p_++] != ':') return false;
        ws();
      }
      if (!value()) return false;
      ws();
      if (p_ >= s_.size()) return false;
      const char c = s_[p_++];
      if (c == close) return true;
      if (c != ',') return false;
    }
  }
  bool value() {
    if (p_ >= s_.size()) return false;
    switch (s_[p_]) {
      case '{': ++p_; return members('}', true);
      case '[': ++p_; return members(']', false);
      case '"': return string();
      case 't': return lit("true");
      case 'f': return lit("false");
      case 'n': return lit("null");
      default: return number();
    }
  }

  const std::string& s_;
  std::size_t p_ = 0;
};

TEST(JsonChecker, SelfTest) {
  EXPECT_TRUE(JsonChecker::valid("{}"));
  EXPECT_TRUE(JsonChecker::valid("{\"a\": [1, 2.5, \"x\"], \"b\": {}}"));
  EXPECT_TRUE(JsonChecker::valid("[{\"k\": -1e3}, true, null]"));
  EXPECT_FALSE(JsonChecker::valid("{\"a\": }"));
  EXPECT_FALSE(JsonChecker::valid("{\"a\": 1,}"));
  EXPECT_FALSE(JsonChecker::valid("{} trailing"));
  EXPECT_FALSE(JsonChecker::valid("{\"a\" 1}"));
}

#if SPINAL_RUNTIME_TRACE

std::size_t count_occurrences(const std::string& hay, const std::string& n) {
  std::size_t count = 0;
  for (std::size_t p = hay.find(n); p != std::string::npos;
       p = hay.find(n, p + n.size()))
    ++count;
  return count;
}

using runtime::TraceBuffer;
using runtime::TraceKind;
using runtime::TraceOptions;
using runtime::Tracer;

TraceOptions small_trace(std::size_t events) {
  TraceOptions opt;
  opt.enabled = true;
  opt.buffer_events = events;
  return opt;
}

TEST(Tracer, ExportsRecordedSpansAndInstants) {
  Tracer tracer(small_trace(1 << 10));
  TraceBuffer* b = tracer.register_buffer("worker 0");
  ASSERT_NE(b, nullptr);
  b->record(TraceKind::kDecode, 1000, 5000, 3, 7);
  b->instant(TraceKind::kComplete, 6000, 42, 1);
  std::ostringstream os;
  tracer.export_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker::valid(json)) << json;
  EXPECT_NE(json.find("\"worker 0\""), std::string::npos);
  EXPECT_NE(json.find("\"decode\""), std::string::npos);
  EXPECT_NE(json.find("\"complete\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);  // the span
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);  // the instant
  // Timestamps export in microseconds: 1000 ns -> ts 1, dur 4.
  EXPECT_NE(json.find("\"dur\": 4"), std::string::npos);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, RingWrapDropsOldestAndCountsThem) {
  // Capacity rounds up to a power of two (>= 64). 100 events into a
  // 64-slot ring: 36 oldest overwritten, the newest 64 exported.
  Tracer tracer(small_trace(64));
  TraceBuffer* b = tracer.register_buffer("w");
  for (std::uint64_t i = 0; i < 100; ++i)
    b->record(TraceKind::kTask, i * 10, i * 10 + 5, i);
  EXPECT_EQ(b->dropped(), 36u);
  EXPECT_EQ(tracer.dropped(), 36u);
  std::ostringstream os;
  tracer.export_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker::valid(json)) << json;
  EXPECT_EQ(count_occurrences(json, "\"task\""), 64u);
  // The survivors are exactly events 36..99.
  EXPECT_NE(json.find("\"a0\": 36"), std::string::npos);
  EXPECT_NE(json.find("\"a0\": 99"), std::string::npos);
  EXPECT_EQ(json.find("\"a0\": 35,"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\": 36"), std::string::npos);
}

TEST(Tracer, ThreadBufferIsCachedPerThread) {
  Tracer tracer(small_trace(64));
  TraceBuffer* mine = tracer.thread_buffer();
  ASSERT_NE(mine, nullptr);
  EXPECT_EQ(tracer.thread_buffer(), mine);  // cached, not re-registered
  TraceBuffer* theirs = nullptr;
  std::thread t([&] { theirs = tracer.thread_buffer(); });
  t.join();
  ASSERT_NE(theirs, nullptr);
  EXPECT_NE(theirs, mine);
  // A second tracer must not see the first one's cached buffer.
  Tracer other(small_trace(64));
  TraceBuffer* other_buf = other.thread_buffer();
  ASSERT_NE(other_buf, nullptr);
  EXPECT_NE(other_buf, mine);
}

TEST(Tracer, ExportDuringLiveRecordingIsWellFormed) {
  // The seqlock contract: a reader racing writers may *skip* torn
  // slots but never emits garbage. Run under TSan in CI.
  Tracer tracer(small_trace(256));
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&tracer, &stop] {
      TraceBuffer* b = tracer.thread_buffer();
      std::uint64_t t = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        b->record(TraceKind::kDecode, t, t + 3, 1, 2);
        t += 10;
      }
    });
  }
  for (int i = 0; i < 20; ++i) {
    std::ostringstream os;
    tracer.export_json(os);
    EXPECT_TRUE(JsonChecker::valid(os.str()));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();
}

#endif  // SPINAL_RUNTIME_TRACE

TEST(MetricsRegistry, HandlesAreStableAndKindChecked) {
  util::metrics::Registry reg;
  util::metrics::Counter& c = reg.counter("jobs_total", "jobs");
  c.inc();
  c.inc(2.0);
  EXPECT_DOUBLE_EQ(reg.counter("jobs_total", "jobs").value(), 3.0);
  // Same name, different labels: a distinct handle.
  util::metrics::Counter& tagged =
      reg.counter("jobs_total", "jobs", "codec=\"bsc\"");
  tagged.inc(7.0);
  EXPECT_DOUBLE_EQ(c.value(), 3.0);
  EXPECT_DOUBLE_EQ(tagged.value(), 7.0);
  reg.gauge("depth", "queue depth").set(5.0);
  EXPECT_THROW(reg.gauge("jobs_total", "jobs"), std::logic_error);
  EXPECT_THROW(reg.counter("depth", "queue depth"), std::logic_error);
  EXPECT_THROW(reg.histogram("depth", "queue depth"), std::logic_error);
}

TEST(MetricsRegistry, HistogramMergesLiveAndAssigned) {
  util::metrics::Registry reg;
  util::metrics::Histogram& h = reg.histogram("lat_us", "latency");
  h.add(10.0);
  h.add(20.0);
  util::LatencyHistogram external;
  external.add(30.0);
  h.assign(external);
  const util::LatencyHistogram snap = h.snapshot();
  EXPECT_EQ(snap.count(), 3u);
  EXPECT_DOUBLE_EQ(snap.min(), 10.0);
  EXPECT_DOUBLE_EQ(snap.max(), 30.0);
  // assign replaces the assigned baseline, not the live adds.
  util::LatencyHistogram replacement;
  replacement.add(40.0);
  h.assign(replacement);
  EXPECT_EQ(h.snapshot().count(), 3u);
  EXPECT_DOUBLE_EQ(h.snapshot().max(), 40.0);
}

TEST(MetricsRegistry, PrometheusTextExposition) {
  util::metrics::Registry reg;
  reg.counter("spinal_jobs_total", "jobs executed").set(12.0);
  reg.gauge("spinal_depth", "queue depth").set(3.0);
  util::metrics::Histogram& h =
      reg.histogram("spinal_lat_us", "latency", "stage=\"decode\"");
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# HELP spinal_jobs_total jobs executed\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE spinal_jobs_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("spinal_jobs_total 12\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE spinal_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("spinal_depth 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE spinal_lat_us summary\n"), std::string::npos);
  EXPECT_NE(text.find("spinal_lat_us{stage=\"decode\",quantile=\"0.5\"} "),
            std::string::npos);
  EXPECT_NE(text.find("spinal_lat_us{stage=\"decode\",quantile=\"0.95\"} "),
            std::string::npos);
  EXPECT_NE(text.find("spinal_lat_us{stage=\"decode\",quantile=\"0.99\"} "),
            std::string::npos);
  EXPECT_NE(text.find("spinal_lat_us_sum{stage=\"decode\"} 5050\n"),
            std::string::npos);
  EXPECT_NE(text.find("spinal_lat_us_count{stage=\"decode\"} 100\n"),
            std::string::npos);
}

TEST(MetricsRegistry, JsonExpositionIsWellFormed) {
  util::metrics::Registry reg;
  reg.counter("c_total", "c").inc(4.0);
  reg.gauge("g", "g", "shard=\"0\"").set(-1.5);
  reg.histogram("h_us", "h").add(2.0);
  const std::string json = reg.json();
  EXPECT_TRUE(JsonChecker::valid(json)) << json;
  EXPECT_NE(json.find("\"c_total\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"g{shard=\\\"0\\\"}\": -1.5"), std::string::npos);
  EXPECT_NE(json.find("\"h_us\": {\"count\": 1"), std::string::npos);
}

TEST(MetricsRegistry, CountersKeepIntegerPrecision) {
  // A long-running service's totals and a slice's deltas export every
  // digit, and non-integer values read back exactly.
  util::metrics::Registry reg;
  util::metrics::Counter& bits =
      reg.counter("spinal_bits_decoded_total", "bits");
  bits.set(12345678.0);
  reg.gauge("g", "g").set(0.1);
  EXPECT_NE(reg.prometheus_text().find("spinal_bits_decoded_total 12345678\n"),
            std::string::npos);
  const std::string json = reg.json();
  EXPECT_NE(json.find("\"spinal_bits_decoded_total\": 12345678}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"g\": 0.1}"), std::string::npos) << json;

  // One slice (the interval never elapses; stop() takes the final one).
  util::metrics::PeriodicSampler sampler(reg, std::chrono::hours(1),
                                         [&] { bits.inc(1.0); });
  sampler.stop();
  EXPECT_NE(sampler.slices_json().find(
                "\"spinal_bits_decoded_total\": 12345679}"),
            std::string::npos)
      << sampler.slices_json();
}

TEST(PeriodicSampler, SlicesCarryCounterDeltas) {
  util::metrics::Registry reg;
  util::metrics::Counter& jobs = reg.counter("jobs_total", "jobs");
  reg.gauge("depth", "depth").set(9.0);
  util::metrics::Histogram& lat = reg.histogram("lat_us", "latency");
  {
    util::metrics::PeriodicSampler sampler(
        reg, std::chrono::milliseconds(5), [&] {
          jobs.inc(10.0);
          lat.add(1.0);
        });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    sampler.stop();
    const auto slices = sampler.slices();
    ASSERT_FALSE(slices.empty());
    double total = 0.0;
    double hist_total = 0.0;
    double prev_t = 0.0;
    for (const auto& slice : slices) {
      EXPECT_GE(slice.t_ms, prev_t);
      prev_t = slice.t_ms;
      for (const auto& [key, delta] : slice.counters) {
        if (key == "jobs_total") total += delta;
        if (key == "lat_us_count") hist_total += delta;
      }
      bool saw_depth = false;
      for (const auto& [key, v] : slice.gauges)
        if (key == "depth") {
          saw_depth = true;
          EXPECT_DOUBLE_EQ(v, 9.0);
        }
      EXPECT_TRUE(saw_depth);
    }
    // Deltas telescope back to the lifetime totals.
    EXPECT_DOUBLE_EQ(total, jobs.value());
    EXPECT_DOUBLE_EQ(hist_total,
                     static_cast<double>(lat.snapshot().count()));
    EXPECT_TRUE(JsonChecker::valid(sampler.slices_json()));
    // stop() is idempotent; a second call must not add a slice.
    sampler.stop();
    EXPECT_EQ(sampler.slices().size(), slices.size());
  }
}

}  // namespace
}  // namespace spinal
