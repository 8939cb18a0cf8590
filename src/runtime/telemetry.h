#pragma once
// Runtime telemetry: throughput counters, decode-latency histograms and
// a stage-level latency decomposition (queue-wait / batch-assembly /
// decode-service, overall and per interned batch tag), all with
// p50/p95/p99 via util::LatencyHistogram's fixed log-spaced bins.
//
// Each worker records into its own WorkerTelemetry; per-tag stats live
// in a shared TagStatsRegistry whose lanes are published once at intern
// time. Every record path is lock-free — plain relaxed atomics and
// util::AtomicLatencyHistogram — so a live snapshot (merge_into /
// snapshot_into) is race-free under TSan without a single hot-path
// mutex. Snapshots merge the per-worker histograms, which the fixed bin
// layout makes a plain elementwise add; counters read relaxed, so a
// live snapshot is a consistent-enough view (exact once quiesced).

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/stats.h"

namespace spinal::runtime {

struct Counters {
  std::uint64_t jobs = 0;                     ///< queue pops executed
  std::uint64_t symbols_fed = 0;              ///< channel symbols streamed
  std::uint64_t decode_attempts = 0;          ///< decode invocations (incl. retries)
  std::uint64_t reduced_effort_attempts = 0;  ///< attempts shrunk by load
  std::uint64_t full_effort_retries = 0;      ///< idle retries of failed shrunk attempts
  /// Attempts that ran without a worker-pinned workspace (the session
  /// reports no WorkspaceKey — Raptor/Strider allocate inside the
  /// decode). Visible in snapshots so the pinning gap per codec is
  /// measurable until each codec pins its scratch.
  std::uint64_t unpinned_decodes = 0;
  std::uint64_t sessions_completed = 0;  ///< decoded successfully
  std::uint64_t sessions_failed = 0;     ///< hit the give-up bound
  std::uint64_t bits_decoded = 0;        ///< message bits of successful sessions

  void merge(const Counters& o) noexcept;
};

/// Where a job's wall time went between submission and completion, as
/// three disjoint stages (all microseconds):
///   queue_wait     enqueue -> claim. Attributed per claimed batch: the
///                  head job's wait is recorded once per job in the
///                  claim (add_n), so the histogram count equals jobs
///                  without paying a clock read per enqueue.
///   batch_assembly claim -> decode dispatch: regrouping the claim,
///                  per-session symbol feeds, workspace resolve. One
///                  record per claim.
///   decode_service the decode attempt itself. One record per (fused)
///                  attempt span — the per-attempt view stays in
///                  TelemetrySnapshot::decode_latency_us.
struct StageTelemetry {
  util::LatencyHistogram queue_wait_us;
  util::LatencyHistogram batch_assembly_us;
  util::LatencyHistogram decode_service_us;

  void merge(const StageTelemetry& o) noexcept;
};

/// Stage latencies broken down by one interned batch tag (one
/// WorkspaceKey, i.e. one codec + parameter set).
struct TagTelemetry {
  std::string label;           ///< "codec/params" (or "untagged"/"overflow")
  std::uint64_t jobs = 0;      ///< jobs claimed under this tag
  std::uint64_t attempts = 0;  ///< decode attempts attributed to it
  util::LatencyHistogram queue_wait_us;      ///< per-job (batch-attributed)
  util::LatencyHistogram decode_service_us;  ///< per-attempt (batch split evenly)
};

/// Sharded-queue view: where jobs sit and how they moved between
/// shards. Depths are instantaneous (exact at the moment of the read,
/// like queue_depth()); the counters are lifetime totals.
struct QueueTelemetry {
  std::vector<std::size_t> shard_depths;  ///< per-shard depth at snapshot time
  std::uint64_t steals = 0;               ///< batches claimed off sibling shards
  std::uint64_t stolen_jobs = 0;          ///< jobs inside stolen batches
  std::uint64_t cross_shard_submits = 0;  ///< pushes that crossed off the
                                          ///< pusher's own shard (all external
                                          ///< submits + off-home worker pushes)
};

/// Aggregate view across workers.
struct TelemetrySnapshot {
  Counters counters;
  util::LatencyHistogram decode_latency_us;  ///< per-attempt decode latency
  StageTelemetry stages;                     ///< stage decomposition, all tags
  std::vector<TagTelemetry> tags;            ///< per-batch-tag breakdown
  QueueTelemetry queue;                      ///< sharded job-queue state
  int workers_pinned = 0;  ///< workers whose core-affinity pin succeeded
};

/// One per worker; all-atomic so the owning worker records lock-free
/// and a live snapshot reads race-free (relaxed loads — counts may be
/// an instruction apart, exact once quiesced).
class WorkerTelemetry {
 public:
  void record_job() noexcept { record_jobs(1); }
  /// @p n jobs popped as one batch.
  void record_jobs(std::uint64_t n) noexcept {
    c_.jobs.fetch_add(n, std::memory_order_relaxed);
  }
  void record_feed(long symbols) noexcept {
    c_.symbols_fed.fetch_add(static_cast<std::uint64_t>(symbols),
                             std::memory_order_relaxed);
  }
  void record_attempt(double micros, bool reduced_effort, bool full_retry,
                      bool unpinned = false) noexcept;
  /// @p n batched attempts sharing one latency attribution (the fused
  /// decode's wall time split evenly): one histogram update.
  void record_attempts(std::uint64_t n, double micros, bool reduced_effort,
                       bool unpinned) noexcept;
  void record_session_done(bool success, int message_bits) noexcept;

  /// Stage decomposition (see StageTelemetry for attribution rules).
  void record_queue_wait(double micros, std::uint64_t jobs) noexcept {
    queue_wait_us_.add_n(micros, jobs);
  }
  void record_batch_assembly(double micros) noexcept {
    batch_assembly_us_.add(micros);
  }
  void record_decode_service(double micros) noexcept {
    decode_service_us_.add(micros);
  }

  void merge_into(TelemetrySnapshot& out) const;

 private:
  struct AtomicCounters {
    std::atomic<std::uint64_t> jobs{0};
    std::atomic<std::uint64_t> symbols_fed{0};
    std::atomic<std::uint64_t> decode_attempts{0};
    std::atomic<std::uint64_t> reduced_effort_attempts{0};
    std::atomic<std::uint64_t> full_effort_retries{0};
    std::atomic<std::uint64_t> unpinned_decodes{0};
    std::atomic<std::uint64_t> sessions_completed{0};
    std::atomic<std::uint64_t> sessions_failed{0};
    std::atomic<std::uint64_t> bits_decoded{0};
  };

  AtomicCounters c_;
  util::AtomicLatencyHistogram latency_us_;
  util::AtomicLatencyHistogram queue_wait_us_;
  util::AtomicLatencyHistogram batch_assembly_us_;
  util::AtomicLatencyHistogram decode_service_us_;
};

/// Per-tag stage stats lane; recorded into by whichever worker serves
/// the tag's jobs (multi-writer, hence fully atomic).
struct TagStats {
  std::atomic<std::uint64_t> jobs{0};
  std::atomic<std::uint64_t> attempts{0};
  util::AtomicLatencyHistogram queue_wait_us;
  util::AtomicLatencyHistogram decode_service_us;

  void record_queue_wait(double micros, std::uint64_t n) noexcept {
    jobs.fetch_add(n, std::memory_order_relaxed);
    queue_wait_us.add_n(micros, n);
  }
  void record_attempts(std::uint64_t n, double micros) noexcept {
    attempts.fetch_add(n, std::memory_order_relaxed);
    decode_service_us.add_n(micros, n);
  }
};

/// Maps interned batch tags (dense small ints) to TagStats lanes.
/// Registration rides the existing tag-interning path (serialized by
/// the service's state lock); the hot-path lookup is a single acquire
/// load of a published pointer. Tags beyond kMaxTracked share one
/// overflow lane, untagged jobs (kNoTag) one "untagged" lane — bounded
/// memory, nothing dropped.
class TagStatsRegistry {
 public:
  static constexpr std::size_t kMaxTracked = 256;

  /// Publishes the lane for @p tag (idempotent; callers serialized by
  /// the interning lock). Tags >= kMaxTracked fold into overflow.
  void register_tag(std::int32_t tag, std::string label);

  /// Lock-free lane for the hot path. Never nullptr.
  TagStats& lane(std::int32_t tag) noexcept {
    if (tag < 0) return untagged_;
    if (static_cast<std::size_t>(tag) >= kMaxTracked) return overflow_;
    TagStats* s =
        lanes_[static_cast<std::size_t>(tag)].load(std::memory_order_acquire);
    return s ? *s : overflow_;
  }

  /// Appends a TagTelemetry per active lane (jobs or attempts > 0).
  void snapshot_into(std::vector<TagTelemetry>& out) const;

 private:
  struct Entry {
    std::string label;
    TagStats stats;
  };
  static void append_lane(std::vector<TagTelemetry>& out,
                          const std::string& label, const TagStats& s);

  std::array<std::atomic<TagStats*>, kMaxTracked> lanes_{};
  TagStats untagged_, overflow_;
  mutable std::mutex m_;  ///< guards owned_ (registration + snapshot only)
  std::vector<std::unique_ptr<Entry>> owned_;
};

}  // namespace spinal::runtime
