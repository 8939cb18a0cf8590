#include "runtime/telemetry.h"

#include "util/metrics.h"

namespace spinal::runtime {

void Counters::merge(const Counters& o) noexcept {
#define SPINAL_COUNTER_MERGE(name, help) name += o.name;
  SPINAL_RUNTIME_COUNTERS(SPINAL_COUNTER_MERGE)
#undef SPINAL_COUNTER_MERGE
}

void LaneTelemetry::merge(const LaneTelemetry& o) noexcept {
  counters.merge(o.counters);
  decode_latency_us.merge(o.decode_latency_us);
  stages.queue_wait_us.merge(o.stages.queue_wait_us);
  stages.batch_assembly_us.merge(o.stages.batch_assembly_us);
  stages.decode_service_us.merge(o.stages.decode_service_us);
}

LaneTelemetry TagStats::load() const {
  LaneTelemetry t;
#define SPINAL_COUNTER_LOAD(name, help) \
  t.counters.name = name.load(std::memory_order_relaxed);
  SPINAL_RUNTIME_COUNTERS(SPINAL_COUNTER_LOAD)
#undef SPINAL_COUNTER_LOAD
  t.decode_latency_us = decode_latency_us.snapshot();
  t.stages.queue_wait_us = queue_wait_us.snapshot();
  t.stages.batch_assembly_us = batch_assembly_us.snapshot();
  t.stages.decode_service_us = decode_service_us.snapshot();
  return t;
}

// ------------------------------------------------------ TagStatsRegistry

void TagStatsRegistry::register_tag(std::int32_t tag, std::string label) {
  if (tag < 0 || static_cast<std::size_t>(tag) >= kMaxTracked) return;
  std::atomic<TagStats*>& slot = lanes_[static_cast<std::size_t>(tag)];
  if (slot.load(std::memory_order_relaxed) != nullptr) return;
  std::lock_guard lock(m_);
  owned_.push_back(std::make_unique<Entry>());
  owned_.back()->label = std::move(label);
  slot.store(&owned_.back()->stats, std::memory_order_release);
}

void TagStatsRegistry::append_lane(TelemetrySnapshot& out,
                                   const std::string& label,
                                   const TagStats& s) {
  const LaneTelemetry lane = s.load();
  if (lane.counters.jobs == 0) return;  // idle: every record follows a claim
  out.merge(lane);
  out.tags.push_back({lane, label});
}

void TagStatsRegistry::snapshot_into(TelemetrySnapshot& out) const {
  {
    std::lock_guard lock(m_);
    for (const auto& e : owned_) append_lane(out, e->label, e->stats);
  }
  append_lane(out, "untagged", untagged_);
  append_lane(out, "overflow", overflow_);
}

// --------------------------------------------------------- export_metrics

namespace {

std::string label_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void export_metrics(const TelemetrySnapshot& snap,
                    util::metrics::Registry& reg) {
  const auto set = [&](const char* name, const char* help, std::uint64_t v) {
    reg.counter(name, help).set(static_cast<double>(v));
  };
#define SPINAL_COUNTER_EXPORT(name, help) \
  set("spinal_" #name "_total", help, snap.counters.name);
  SPINAL_RUNTIME_COUNTERS(SPINAL_COUNTER_EXPORT)
#undef SPINAL_COUNTER_EXPORT
  set("spinal_queue_steals_total", "Batches claimed off sibling shards",
      snap.queue.steals);
  set("spinal_queue_stolen_jobs_total", "Jobs inside stolen batches",
      snap.queue.stolen_jobs);
  set("spinal_queue_cross_shard_submits_total",
      "Pushes landing off the pusher's shard", snap.queue.cross_shard_submits);

  std::size_t depth = 0;
  for (std::size_t d : snap.queue.shard_depths) depth += d;
  reg.gauge("spinal_queue_depth", "Total queued jobs")
      .set(static_cast<double>(depth));
  for (std::size_t s = 0; s < snap.queue.shard_depths.size(); ++s)
    reg.gauge("spinal_shard_depth", "Per-shard queue depth",
              "shard=\"" + std::to_string(s) + "\"")
        .set(static_cast<double>(snap.queue.shard_depths[s]));

  reg.histogram("spinal_decode_latency_us", "Per-attempt decode latency")
      .assign(snap.decode_latency_us);
  reg.histogram("spinal_stage_queue_wait_us", "Stage: enqueue to claim")
      .assign(snap.stages.queue_wait_us);
  reg.histogram("spinal_stage_batch_assembly_us",
                "Stage: claim to decode dispatch")
      .assign(snap.stages.batch_assembly_us);
  reg.histogram("spinal_stage_decode_service_us", "Stage: fused decode span")
      .assign(snap.stages.decode_service_us);
  for (const TagTelemetry& t : snap.tags) {
    const std::string label = "tag=\"" + label_escape(t.label) + "\"";
    reg.counter("spinal_tag_jobs_total", "Jobs claimed under this tag", label)
        .set(static_cast<double>(t.counters.jobs));
    reg.counter("spinal_tag_attempts_total", "Attempts under this tag", label)
        .set(static_cast<double>(t.counters.decode_attempts));
    reg.histogram("spinal_tag_queue_wait_us", "Per-tag queue wait", label)
        .assign(t.stages.queue_wait_us);
    reg.histogram("spinal_tag_decode_service_us",
                  "Per-tag per-attempt decode latency", label)
        .assign(t.decode_latency_us);
  }
}

}  // namespace spinal::runtime
