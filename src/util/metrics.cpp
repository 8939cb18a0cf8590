#include "util/metrics.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace spinal::util::metrics {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// The shortest text that reads back as exactly @p v; integer values
/// (counters, counts) print every digit rather than an exponent.
std::string fmt(double v) {
  char buf[64];
  const bool integer = v == std::trunc(v) && std::fabs(v) < 1e17;
  const std::to_chars_result r =
      integer ? std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed)
              : std::to_chars(buf, buf + sizeof buf, v);
  return {buf, r.ptr};
}

std::string qualified(const std::string& name, const std::string& labels) {
  return labels.empty() ? name : name + "{" + labels + "}";
}

/// name{labels} with an extra label appended (quantile="...").
std::string with_label(const std::string& name, const std::string& labels,
                       const std::string& extra) {
  std::string body = labels.empty() ? extra : labels + "," + extra;
  return name + "{" + body + "}";
}

void append_histogram_json(std::string& out, const util::LatencyHistogram& h) {
  out += "{\"count\": " + fmt(static_cast<double>(h.count()));
  out += ", \"mean\": " + fmt(h.mean());
  out += ", \"min\": " + fmt(h.min());
  out += ", \"max\": " + fmt(h.max());
  out += ", \"p50\": " + fmt(h.quantile(0.50));
  out += ", \"p95\": " + fmt(h.quantile(0.95));
  out += ", \"p99\": " + fmt(h.quantile(0.99));
  out += "}";
}

}  // namespace

// ------------------------------------------------------------ Histogram

void Histogram::assign(const util::LatencyHistogram& h) {
  std::lock_guard lock(m_);
  assigned_ = h;
  has_assigned_.store(true, std::memory_order_relaxed);
}

util::LatencyHistogram Histogram::snapshot() const {
  util::LatencyHistogram out = live_.snapshot();
  if (has_assigned_.load(std::memory_order_relaxed)) {
    std::lock_guard lock(m_);
    out.merge(assigned_);
  }
  return out;
}

// ------------------------------------------------------------- Registry

Registry::Entry& Registry::find_or_create(const std::string& name,
                                          const std::string& help,
                                          const std::string& labels,
                                          Kind kind) {
  std::lock_guard lock(m_);
  const std::string key = qualified(name, labels);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    Entry& e = *entries_[it->second];
    if (e.kind != kind)
      throw std::logic_error("metrics: kind mismatch re-registering " + key);
    return e;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->labels = labels;
  entry->help = help;
  entry->kind = kind;
  switch (kind) {
    case Kind::kCounter: entry->counter = std::make_unique<Counter>(); break;
    case Kind::kGauge: entry->gauge = std::make_unique<Gauge>(); break;
    case Kind::kHistogram:
      entry->histogram = std::make_unique<Histogram>();
      break;
  }
  index_[key] = entries_.size();
  entries_.push_back(std::move(entry));
  return *entries_.back();
}

Counter& Registry::counter(const std::string& name, const std::string& help,
                           const std::string& labels) {
  return *find_or_create(name, help, labels, Kind::kCounter).counter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help,
                       const std::string& labels) {
  return *find_or_create(name, help, labels, Kind::kGauge).gauge;
}

Histogram& Registry::histogram(const std::string& name,
                               const std::string& help,
                               const std::string& labels) {
  return *find_or_create(name, help, labels, Kind::kHistogram).histogram;
}

std::vector<Sample> Registry::collect() const {
  std::lock_guard lock(m_);
  std::vector<Sample> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) {
    Sample s;
    s.name = e->name;
    s.labels = e->labels;
    s.kind = e->kind;
    switch (e->kind) {
      case Kind::kCounter: s.value = e->counter->value(); break;
      case Kind::kGauge: s.value = e->gauge->value(); break;
      case Kind::kHistogram: s.histogram = e->histogram->snapshot(); break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::string Registry::prometheus_text() const {
  // Collect under the lock, format outside it; HELP/TYPE lines are
  // emitted once per family (first occurrence wins).
  struct Meta {
    std::string help;
    Kind kind;
  };
  std::map<std::string, Meta> families;
  {
    std::lock_guard lock(m_);
    for (const auto& e : entries_)
      families.try_emplace(e->name, Meta{e->help, e->kind});
  }
  const std::vector<Sample> samples = collect();
  std::string out;
  for (const auto& [name, meta] : families) {
    out += "# HELP " + name + " " + meta.help + "\n";
    out += "# TYPE " + name + " ";
    out += meta.kind == Kind::kCounter
               ? "counter"
               : (meta.kind == Kind::kGauge ? "gauge" : "summary");
    out += "\n";
    for (const Sample& s : samples) {
      if (s.name != name) continue;
      if (s.kind == Kind::kHistogram) {
        const util::LatencyHistogram& h = s.histogram;
        for (const auto& [q, label] :
             {std::pair{0.50, "0.5"}, {0.95, "0.95"}, {0.99, "0.99"}}) {
          out += with_label(name, s.labels,
                            std::string("quantile=\"") + label + "\"") +
                 " " + fmt(h.quantile(q)) + "\n";
        }
        out += qualified(name + "_sum", s.labels) + " " +
               fmt(h.mean() * static_cast<double>(h.count())) + "\n";
        out += qualified(name + "_count", s.labels) + " " +
               fmt(static_cast<double>(h.count())) + "\n";
      } else {
        out += qualified(name, s.labels) + " " + fmt(s.value) + "\n";
      }
    }
  }
  return out;
}

std::string Registry::json() const {
  const std::vector<Sample> samples = collect();
  std::string counters, gauges, histograms;
  for (const Sample& s : samples) {
    const std::string key =
        "\"" + json_escape(qualified(s.name, s.labels)) + "\": ";
    switch (s.kind) {
      case Kind::kCounter:
        if (!counters.empty()) counters += ", ";
        counters += key + fmt(s.value);
        break;
      case Kind::kGauge:
        if (!gauges.empty()) gauges += ", ";
        gauges += key + fmt(s.value);
        break;
      case Kind::kHistogram:
        if (!histograms.empty()) histograms += ", ";
        histograms += key;
        append_histogram_json(histograms, s.histogram);
        break;
    }
  }
  return "{\"counters\": {" + counters + "}, \"gauges\": {" + gauges +
         "}, \"histograms\": {" + histograms + "}}";
}

// ------------------------------------------------------ PeriodicSampler

PeriodicSampler::PeriodicSampler(Registry& reg,
                                 std::chrono::milliseconds interval,
                                 std::function<void()> refresh)
    : reg_(reg),
      refresh_(std::move(refresh)),
      start_(std::chrono::steady_clock::now()) {
  thread_ = std::thread([this, interval] {
    std::unique_lock lock(wake_m_);
    while (!stop_.load()) {
      if (wake_cv_.wait_for(lock, interval, [&] { return stop_.load(); }))
        break;
      lock.unlock();
      sample();
      lock.lock();
    }
  });
}

PeriodicSampler::~PeriodicSampler() { stop(); }

void PeriodicSampler::stop() {
  bool expected = false;
  if (!stop_.compare_exchange_strong(expected, true)) return;
  {
    std::lock_guard lock(wake_m_);
    wake_cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
  sample();  // final slice: the tail since the last tick
}

void PeriodicSampler::sample() {
  if (refresh_) refresh_();
  const std::vector<Sample> samples = reg_.collect();
  Slice slice;
  slice.t_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start_)
                   .count();
  std::lock_guard lock(m_);
  for (const Sample& s : samples) {
    const std::string key = qualified(s.name, s.labels);
    switch (s.kind) {
      case Kind::kCounter: {
        double& last = last_counters_[key];
        slice.counters.emplace_back(key, s.value - last);
        last = s.value;
        break;
      }
      case Kind::kGauge:
        slice.gauges.emplace_back(key, s.value);
        break;
      case Kind::kHistogram: {
        // Histogram activity per slice: the count delta rides along as a
        // synthetic counter.
        double& last = last_counters_[key + "_count"];
        const double count = static_cast<double>(s.histogram.count());
        slice.counters.emplace_back(key + "_count", count - last);
        last = count;
        break;
      }
    }
  }
  slices_.push_back(std::move(slice));
}

std::vector<PeriodicSampler::Slice> PeriodicSampler::slices() const {
  std::lock_guard lock(m_);
  return slices_;
}

std::string PeriodicSampler::slices_json() const {
  const std::vector<Slice> all = slices();
  std::string out = "[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Slice& sl = all[i];
    if (i) out += ", ";
    out += "{\"t_ms\": " + fmt(sl.t_ms) + ", \"counters\": {";
    for (std::size_t j = 0; j < sl.counters.size(); ++j) {
      if (j) out += ", ";
      out += "\"" + json_escape(sl.counters[j].first) +
             "\": " + fmt(sl.counters[j].second);
    }
    out += "}, \"gauges\": {";
    for (std::size_t j = 0; j < sl.gauges.size(); ++j) {
      if (j) out += ", ";
      out += "\"" + json_escape(sl.gauges[j].first) +
             "\": " + fmt(sl.gauges[j].second);
    }
    out += "}}";
  }
  out += "]";
  return out;
}

}  // namespace spinal::util::metrics
