#include "runtime/telemetry.h"

namespace spinal::runtime {

void Counters::merge(const Counters& o) noexcept {
  jobs += o.jobs;
  symbols_fed += o.symbols_fed;
  decode_attempts += o.decode_attempts;
  reduced_effort_attempts += o.reduced_effort_attempts;
  full_effort_retries += o.full_effort_retries;
  unpinned_decodes += o.unpinned_decodes;
  sessions_completed += o.sessions_completed;
  sessions_failed += o.sessions_failed;
  bits_decoded += o.bits_decoded;
}

void StageTelemetry::merge(const StageTelemetry& o) noexcept {
  queue_wait_us.merge(o.queue_wait_us);
  batch_assembly_us.merge(o.batch_assembly_us);
  decode_service_us.merge(o.decode_service_us);
}

void WorkerTelemetry::record_attempt(double micros, bool reduced_effort,
                                     bool full_retry, bool unpinned) noexcept {
  c_.decode_attempts.fetch_add(1, std::memory_order_relaxed);
  if (reduced_effort)
    c_.reduced_effort_attempts.fetch_add(1, std::memory_order_relaxed);
  if (full_retry) c_.full_effort_retries.fetch_add(1, std::memory_order_relaxed);
  if (unpinned) c_.unpinned_decodes.fetch_add(1, std::memory_order_relaxed);
  latency_us_.add(micros);
}

void WorkerTelemetry::record_attempts(std::uint64_t n, double micros,
                                      bool reduced_effort,
                                      bool unpinned) noexcept {
  if (n == 0) return;
  c_.decode_attempts.fetch_add(n, std::memory_order_relaxed);
  if (reduced_effort)
    c_.reduced_effort_attempts.fetch_add(n, std::memory_order_relaxed);
  if (unpinned) c_.unpinned_decodes.fetch_add(n, std::memory_order_relaxed);
  latency_us_.add_n(micros, n);
}

void WorkerTelemetry::record_session_done(bool success,
                                          int message_bits) noexcept {
  if (success) {
    c_.sessions_completed.fetch_add(1, std::memory_order_relaxed);
    c_.bits_decoded.fetch_add(static_cast<std::uint64_t>(message_bits),
                              std::memory_order_relaxed);
  } else {
    c_.sessions_failed.fetch_add(1, std::memory_order_relaxed);
  }
}

void WorkerTelemetry::merge_into(TelemetrySnapshot& out) const {
  Counters c;
  c.jobs = c_.jobs.load(std::memory_order_relaxed);
  c.symbols_fed = c_.symbols_fed.load(std::memory_order_relaxed);
  c.decode_attempts = c_.decode_attempts.load(std::memory_order_relaxed);
  c.reduced_effort_attempts =
      c_.reduced_effort_attempts.load(std::memory_order_relaxed);
  c.full_effort_retries = c_.full_effort_retries.load(std::memory_order_relaxed);
  c.unpinned_decodes = c_.unpinned_decodes.load(std::memory_order_relaxed);
  c.sessions_completed = c_.sessions_completed.load(std::memory_order_relaxed);
  c.sessions_failed = c_.sessions_failed.load(std::memory_order_relaxed);
  c.bits_decoded = c_.bits_decoded.load(std::memory_order_relaxed);
  out.counters.merge(c);
  out.decode_latency_us.merge(latency_us_.snapshot());
  out.stages.queue_wait_us.merge(queue_wait_us_.snapshot());
  out.stages.batch_assembly_us.merge(batch_assembly_us_.snapshot());
  out.stages.decode_service_us.merge(decode_service_us_.snapshot());
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

void TagStatsRegistry::append_lane(std::vector<TagTelemetry>& out,
                                   const std::string& label,
                                   const TagStats& s) {
  TagTelemetry t;
  t.label = label;
  t.jobs = s.jobs.load(std::memory_order_relaxed);
  t.attempts = s.attempts.load(std::memory_order_relaxed);
  if (t.jobs == 0 && t.attempts == 0) return;
  t.queue_wait_us = s.queue_wait_us.snapshot();
  t.decode_service_us = s.decode_service_us.snapshot();
  out.push_back(std::move(t));
}

void TagStatsRegistry::snapshot_into(std::vector<TagTelemetry>& out) const {
  {
    std::lock_guard lock(m_);
    for (const auto& e : owned_) append_lane(out, e->label, e->stats);
  }
  append_lane(out, "untagged", untagged_);
  append_lane(out, "overflow", overflow_);
}

}  // namespace spinal::runtime
