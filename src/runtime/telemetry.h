#pragma once
// Runtime telemetry: throughput counters, decode-latency histograms and
// a stage-level latency decomposition (queue-wait / batch-assembly /
// decode-service), all with p50/p95/p99 via util::LatencyHistogram's
// fixed log-spaced bins.
//
// One store: every value lives in the TagStats lane of the interned
// batch tag whose claim produced it (a claim is single-tag by
// construction). The snapshot's totals are the merge of the lanes, so
// the per-tag breakdown partitions them exactly. Lanes are published
// once at intern time and recorded into lock-free — relaxed atomics and
// util::AtomicLatencyHistogram — by whichever worker serves the tag, so
// a live snapshot is race-free under TSan without a hot-path mutex
// (a consistent-enough view, exact once quiesced).
//
// One recording point per stage: StageRecorder takes a stage's clock
// pair and updates the stage's histogram, its counters and its trace
// span in one call; with SPINAL_RUNTIME_TRACE=0 the span write compiles
// away and only the histogram and counter updates remain.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/trace.h"
#include "util/stats.h"

namespace spinal::util::metrics {
class Registry;
}  // namespace spinal::util::metrics

namespace spinal::runtime {

/// The counter table: (field, help) per row. Generates the fields of
/// Counters, the lane's atomic storage, the merge, the relaxed snapshot
/// load and the exported spinal_<field>_total family.
///
/// unpinned_decodes counts attempts that ran without a worker-pinned
/// workspace (the session reports no WorkspaceKey — Raptor, turbo and
/// Strider allocate inside the decode), so the pinning gap per codec
/// stays measurable until each codec pins its scratch.
#define SPINAL_RUNTIME_COUNTERS(X)                                   \
  X(jobs, "Queue pops executed")                                     \
  X(symbols_fed, "Channel symbols streamed")                         \
  X(decode_attempts, "Decode invocations incl. retries")             \
  X(reduced_effort_attempts, "Attempts shrunk by load")              \
  X(full_effort_retries, "Idle full-effort retries")                 \
  X(unpinned_decodes, "Attempts without a pinned workspace")         \
  X(sessions_completed, "Sessions decoded successfully")             \
  X(sessions_failed, "Sessions that hit the give-up bound")          \
  X(bits_decoded, "Message bits of successful sessions")

struct Counters {
#define SPINAL_COUNTER_FIELD(name, help) std::uint64_t name = 0;
  SPINAL_RUNTIME_COUNTERS(SPINAL_COUNTER_FIELD)
#undef SPINAL_COUNTER_FIELD

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
///                  record per claim that reaches a decode.
///   decode_service the decode attempt itself. One record per (fused)
///                  attempt span — the per-attempt view stays in
///                  decode_latency_us.
struct StageTelemetry {
  util::LatencyHistogram queue_wait_us;
  util::LatencyHistogram batch_assembly_us;
  util::LatencyHistogram decode_service_us;
};

/// What one tag lane holds — and, merged over every lane, the totals.
struct LaneTelemetry {
  Counters counters;
  util::LatencyHistogram decode_latency_us;  ///< per-attempt decode latency
  StageTelemetry stages;                     ///< stage decomposition

  void merge(const LaneTelemetry& o) noexcept;
};

/// One interned batch tag's lane (one WorkspaceKey, i.e. one codec +
/// parameter set).
struct TagTelemetry : LaneTelemetry {
  std::string label;  ///< "codec/params" (or "untagged"/"overflow")
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

/// The service-wide view: the lanes' merge plus the per-lane breakdown.
struct TelemetrySnapshot : LaneTelemetry {
  std::vector<TagTelemetry> tags;  ///< per-batch-tag breakdown
  QueueTelemetry queue;            ///< sharded job-queue state
};

/// Per-tag store; recorded into by whichever worker serves the tag's
/// jobs (multi-writer, hence fully atomic).
struct TagStats {
#define SPINAL_COUNTER_ATOMIC(name, help) std::atomic<std::uint64_t> name{0};
  SPINAL_RUNTIME_COUNTERS(SPINAL_COUNTER_ATOMIC)
#undef SPINAL_COUNTER_ATOMIC
  util::AtomicLatencyHistogram decode_latency_us;
  util::AtomicLatencyHistogram queue_wait_us;
  util::AtomicLatencyHistogram batch_assembly_us;
  util::AtomicLatencyHistogram decode_service_us;

  /// Relaxed loads of every field.
  LaneTelemetry load() const;
};

/// The one recording point per runtime stage for one claim: its tag's
/// lane (resolved once per claim) and the worker's trace timeline (null
/// when not tracing). Each stage call takes the stage's clock pair.
struct StageRecorder {
  TagStats& lane;
  TraceBuffer* tb;

  /// enqueue -> claim of @p jobs claimed together (head-attributed).
  void queue_wait(std::uint64_t enqueue_ns, std::uint64_t claim_ns,
                  std::uint64_t jobs, std::int32_t tag) noexcept {
    add(lane.jobs, jobs);
    lane.queue_wait_us.add_n(us(enqueue_ns, claim_ns), jobs);
    if (tb)
      tb->record(TraceKind::kQueueWait, enqueue_ns, claim_ns, jobs,
                 tag < 0 ? 0 : static_cast<std::uint32_t>(tag));
  }

  /// claim -> decode dispatch of @p units, which streamed @p symbols.
  void batch_assembly(std::uint64_t claim_ns, std::uint64_t d0,
                      std::uint64_t units, std::uint64_t symbols) noexcept {
    add(lane.symbols_fed, symbols);
    lane.batch_assembly_us.add(us(claim_ns, d0));
    if (tb) tb->record(TraceKind::kFeed, claim_ns, d0, units);
  }

  /// One (fused) decode span over @p n attempts: the stage keeps the
  /// span whole (one decode-service record), decode_latency_us splits
  /// its wall time evenly over the attempts. Returns that per-attempt
  /// share (us).
  double decode(std::uint64_t d0, std::uint64_t d1, std::uint64_t n,
                int effort, bool reduced, bool full_retry,
                bool unpinned) noexcept {
    const double span = us(d0, d1);
    const double per = span / static_cast<double>(n);
    add(lane.decode_attempts, n);
    if (reduced) add(lane.reduced_effort_attempts, n);
    if (full_retry) add(lane.full_effort_retries, n);
    if (unpinned) add(lane.unpinned_decodes, n);
    lane.decode_latency_us.add_n(per, n);
    lane.decode_service_us.add(span);
    if (tb)
      tb->record(TraceKind::kDecode, d0, d1, n,
                 static_cast<std::uint64_t>(effort));
    return per;
  }

  /// A session's end: the symbols streamed since its last attempt (the
  /// give-up tail) and its outcome.
  void session_done(std::uint64_t tail_symbols, bool success,
                    int message_bits) noexcept {
    add(lane.symbols_fed, tail_symbols);
    if (success) {
      add(lane.sessions_completed, 1);
      add(lane.bits_decoded, static_cast<std::uint64_t>(message_bits));
    } else {
      add(lane.sessions_failed, 1);
    }
  }

 private:
  static double us(std::uint64_t t0, std::uint64_t t1) noexcept {
    return static_cast<double>(t1 - t0) / 1000.0;
  }
  static void add(std::atomic<std::uint64_t>& c, std::uint64_t n) noexcept {
    if (n) c.fetch_add(n, std::memory_order_relaxed);
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

  /// Merges every lane into @p out's totals and appends a TagTelemetry
  /// per active lane (one that claimed jobs).
  void snapshot_into(TelemetrySnapshot& out) const;

 private:
  struct Entry {
    std::string label;
    TagStats stats;
  };
  static void append_lane(TelemetrySnapshot& out, const std::string& label,
                          const TagStats& s);

  std::array<std::atomic<TagStats*>, kMaxTracked> lanes_{};
  TagStats untagged_, overflow_;
  mutable std::mutex m_;  ///< guards owned_ (registration + snapshot only)
  std::vector<std::unique_ptr<Entry>> owned_;
};

/// Writes @p snap into @p reg as the spinal_* families: one
/// spinal_<counter>_total per counter-table row, the queue counters and
/// gauges, the decode-latency and stage summaries, and per-tag jobs,
/// attempts, queue-wait and per-attempt decode latency. Get-or-create
/// throughout, so a PeriodicSampler's refresh hook can call it on every
/// tick.
void export_metrics(const TelemetrySnapshot& snap,
                    util::metrics::Registry& reg);

}  // namespace spinal::runtime
