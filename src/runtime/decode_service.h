#pragma once
// The concurrent decode service: multiplexes thousands (10k+) of
// rateless sessions onto a small worker pool.
//
//   submit(spec) ──► [ ShardedJobQueue ] ──► worker threads
//                      │ shard per worker,     │ pinned CodecWorkspaces,
//                      │ key-affine routing,   │ keyed by WorkspaceKey
//                      │ batch stealing        │ (codec tag + params)
//                      └─ depth ──► adaptive-effort policy
//                 session jobs repost themselves (push_many onto the
//                 worker's own shard) until done
//
// Each session runs as a self-contained state machine (sim::MessageRun):
// one job streams channel symbols until the engine's attempt schedule
// fires, performs the decode attempt on the worker's pinned workspace
// (sessions without one — today Raptor, turbo and Strider — run
// unpinned, which telemetry counts), and reposts itself until the
// message decodes or the give-up bound hits. At most one job per
// session exists at a time, so sessions need no locking of their own;
// the queue's shard mutexes provide the happens-before edge between the
// workers that successively advance a session. Every claim, a solo one
// included, is served by one step path (step_sessions).
//
// Memory model: O(in flight), not O(submitted). An admitted session
// lives in a slot of a table bounded by max_in_flight; jobs point at
// the slot, whose address never changes, so the job hop and the step
// reach a session without a lock. When the run finishes, the
// session, channel, spec and MessageRun are all freed at once (the
// session's destructor runs at that moment), and the slot returns to a
// free list for the next admission. Only the 48-byte SessionReport per
// session outlives its run, in an append-only log: drain() returns every
// report since construction, so the log is the one O(submitted) part.
//
// Queue sharding: submissions route by the job's interned batch tag, so
// same-WorkspaceKey jobs colocate on one shard and a worker's dequeue
// finds long same-tag runs without widening its scan window; a worker
// whose shard runs dry steals a whole batch from the deepest sibling
// shard before sleeping. The queue has no bound of its own: admission
// (max_in_flight sessions) and kExtTaskCap (posted work) bound what is
// in it, so a push never blocks.
//
// Admission control: at most max_in_flight sessions run concurrently —
// submit() blocks (backpressure), try_submit() refuses. The in-flight
// count is an atomic, so admission and slot release stay lock-free
// unless a submitter is actually blocked. Load adaptation: when the
// queue backs up, attempts run with shrunk effort (beam width / BP
// iterations / turbo iterations, per the session's EffortProfile); when
// it drains, failed shrunk attempts retry at full effort before
// spending more channel symbols (adaptive.h).
//
// Deterministic mode pins every attempt at the configured effort,
// disables idle retries, and drains through a single ordered shard
// regardless of the configured shard count; each session's outcome then
// depends only on its own spec (per-session seeded channel), and
// drain() returns reports in submission order — bit-identical to a
// sequential run_message loop at any worker count. The Monte-Carlo
// sweeps (sim/experiment.h) run on this mode.
//
// The link-symbol SessionMux (session_mux.h) posts its per-block decode
// attempts as BlockUnits, which the service steps on the sessions' path:
// the same claims, effort policy, pinned workspaces, fused
// try_decode_batch, idle full-effort retry, repost and telemetry. Only
// the feed (a no-op for a block) and the completion (the mux's) differ
// by kind. Plain post(Task) runs a closure on a worker — callers use it
// to park a worker behind a gate.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "runtime/adaptive.h"
#include "runtime/job_queue.h"
#include "runtime/runtime.h"
#include "runtime/telemetry.h"
#include "runtime/trace.h"
#include "sim/session.h"

namespace spinal::runtime {

/// A decode unit owned outside the service: one of SessionMux's code
/// blocks. DecodeService::post() steps it like a session under its own
/// batch_key(); its feed is a no-op (the owner ingests symbols), and
/// between attempts the owner decides whether it goes on.
class BlockUnit : public sim::DecodeTarget {
 public:
  /// Applies one attempt's candidate; true when it decoded the block.
  /// Runs twice in a step whose shrunk attempt failed and got the idle
  /// full-effort retry.
  virtual bool record_attempt(
      const std::optional<util::BitVec>& candidate) = 0;
  /// Ends the unit's step: true reposts it for another attempt now,
  /// false settles it, after which the service no longer touches it.
  virtual bool complete() = 0;
  /// Settles the unit without another attempt (its decode threw, or
  /// the queue refused it).
  virtual void abandon() noexcept = 0;
};

struct RuntimeOptions {
  int workers = 0;        ///< worker threads; 0 = bench_threads()
  int max_in_flight = 0;  ///< session admission cap; 0 = max(64, 4 * workers)
  /// Fixed (configured) effort + no idle retries + per-session-only
  /// state: makes results bit-identical to sequential run_message at any
  /// worker count.
  bool deterministic = false;
  AdaptiveEffortOptions adapt;  ///< load policy (ignored when deterministic)
  /// Cross-session batch aggregation: a worker's dequeue claims up to
  /// max_batch already-queued jobs sharing a batch_key() — scanning at
  /// most `window` queue entries — and decodes them as one batched pass
  /// (sessions' try_decode_batch). Aggregation is opportunistic at
  /// dequeue only, so it never adds queueing latency; max_batch <= 1
  /// disables it. Stays on in deterministic mode: each batched block is
  /// bit-identical to its solo decode by construction.
  struct BatchOptions {
    int max_batch = 16;
    int window = 64;
  } batch;
  /// Job-queue shards. 0 = one shard per worker. May exceed the worker
  /// count (extra shards keep key-affine routing meaningful on small
  /// pools; they are served through the steal path). Deterministic mode
  /// forces a single ordered shard regardless of this knob.
  int shards = 0;
  /// Runtime event tracing (trace.h): when enabled (and compiled in),
  /// every stage of every job records into per-worker ring buffers,
  /// exported via tracer()->export_json. Off by default — the stage
  /// latency histograms in telemetry() are always on regardless.
  TraceOptions trace;
};

class DecodeService {
 public:
  class WorkerScope;
  /// A closure run on some worker (post(Task)). Must not block on the
  /// external-work cap (a post() from inside a task can).
  using Task = std::function<void(WorkerScope&)>;

  explicit DecodeService(const RuntimeOptions& opt = {});
  /// Waits for all submitted sessions and posted work, then joins.
  ~DecodeService();

  DecodeService(const DecodeService&) = delete;
  DecodeService& operator=(const DecodeService&) = delete;

  int workers() const noexcept { return static_cast<int>(workers_.size()); }
  int max_in_flight() const noexcept { return max_in_flight_; }

  /// Admits one session, blocking while max_in_flight are running
  /// (backpressure toward the traffic source). Returns the session id:
  /// a dense index in submission order. Throws std::invalid_argument on
  /// an invalid spec (e.g. bad EngineOptions).
  std::size_t submit(SessionSpec spec);

  /// Non-blocking admission probe; std::nullopt when at capacity.
  std::optional<std::size_t> try_submit(SessionSpec spec);

  /// Waits for every submitted session (and posted work) to finish and
  /// returns all reports so far, ordered by session id — the ordered
  /// completion drain. Callable repeatedly; the service stays usable.
  std::vector<SessionReport> drain();

  /// Counters, decode-latency histogram and stage decomposition per
  /// batch tag, with their merge as the totals. Callable concurrently
  /// with running work (lock-free recording; relaxed reads, exact once
  /// quiesced).
  TelemetrySnapshot telemetry() const;

  /// The event tracer, or nullptr when RuntimeOptions::trace.enabled is
  /// false or tracing is compiled out (SPINAL_RUNTIME_TRACE=0).
  Tracer* tracer() const noexcept { return tracer_.get(); }

  std::size_t queue_depth() const { return queue_.depth(); }
  /// High-water mark of concurrently admitted sessions (observes the
  /// admission-control contract in tests).
  int peak_in_flight() const;

  /// Posted work — tasks and block units alike — is admitted against
  /// one external-work cap (kExtTaskCap outstanding), and post() blocks
  /// while it is reached: with session admission, the cap is what
  /// bounds the job queue.
  ///
  /// Enqueues @p task, run once on some worker.
  void post(Task task);

  /// Enqueues one decode attempt for @p block, stepped like a session
  /// and batched with the queued units that share its batch_key(). The
  /// unit holds its external-work slot until it settles (complete()
  /// returns false, or abandon()); the caller keeps it alive until then.
  void post(BlockUnit& block);

 private:
  struct Slot;
  /// One queue entry: a session step (slot != nullptr), a block step
  /// (block != nullptr) or a posted task. A session step points at the
  /// session's slot, whose address is stable, so a worker reaches the
  /// session without a lock. Jobs carry their interned tag and enqueue
  /// timestamp so the claim can attribute queue-wait per tag without a
  /// state lookup.
  struct QueueJob {
    Task task;
    Slot* slot = nullptr;
    BlockUnit* block = nullptr;
    std::int32_t tag = -1;          ///< == ShardedJobQueue kNoTag
    std::uint64_t enqueue_ns = 0;   ///< now_ns() at push
  };

  struct Worker {
    int index = 0;  ///< dense worker id: the queue consumer id
    std::map<WorkspaceKey, std::unique_ptr<sim::CodecWorkspace>> pinned;
    TraceBuffer* trace = nullptr;  ///< the worker's trace timeline (or null)
    std::thread thread;
    // Step scratch, reused across claims so a step allocates nothing
    // once these reach the worker's high-water claim size.
    std::vector<const QueueJob*> live;
    std::vector<Slot*> retired;
    std::vector<std::optional<util::BitVec>> candidates;
    std::vector<sim::BatchDecodeJob> decode_jobs;
    std::vector<QueueJob> repost;
  };
  struct SessionState;
  struct SessionKind;
  struct BlockKind;

  void worker_loop(Worker& w);
  /// Advances every unit of one claim (a batch of one included) — all
  /// sessions or all blocks, as @p kind says: feeds each to its attempt
  /// point, runs one fused decode attempt over the live ones, records
  /// each outcome and reposts the unfinished as one queue transaction.
  /// @p rec: the claim's stage recorder. @p claim_ns: now_ns() when the
  /// claim landed (start of the batch-assembly stage).
  template <class Kind>
  void step(Kind& kind, WorkerScope& scope, StageRecorder& rec,
            const std::vector<QueueJob>& claim, std::uint64_t claim_ns);
  /// Admits @p spec into a free slot under an admission reservation
  /// already taken (@p reserved: the post-reservation in-flight count)
  /// and enqueues its first job; returns the session id.
  std::size_t admit(SessionSpec spec, int reserved);
  /// Pops a free slot, allocating a new one when none is free. The
  /// caller holds an admission reservation, which bounds the table at
  /// max_in_flight_.
  Slot& acquire_slot();
  /// Ends the run in @p slot: writes its final report, records the
  /// completion (into @p rec's lane and trace, when a worker's claim
  /// retires it) and destroys the session state — the moment the
  /// session is done. A non-null @p err becomes the drain() error and
  /// marks the report failed explicitly (a throwing step may have left
  /// the MessageRun mid-feed, so its success flag is not re-derived
  /// from the torn run).
  /// The slot itself is recycled by a later release_slots().
  void retire(StageRecorder* rec, Slot& slot,
              std::exception_ptr err = nullptr);
  /// Returns retired slots to the free list, then releases their
  /// admission reservations and counts them completed (in that order,
  /// so a reservation always finds a slot).
  void release_slots(std::span<Slot* const> slots);
  /// Reserves an external-work slot (blocking at kExtTaskCap) and
  /// enqueues @p job under it.
  void push_external(QueueJob job);
  /// Releases @p n external-work slots.
  void release_ext(std::size_t n);
  /// Wakes drain() and the destructor once nothing is left in flight.
  void notify_if_quiet();
  /// Keeps @p err as the error drain() rethrows, unless one is pending.
  void note_error(std::exception_ptr err);
  /// CAS-reserves one admission against max_in_flight_; lock-free.
  /// Returns the post-reservation in-flight count, or -1 at capacity.
  int try_reserve_admission();
  /// Interns @p key into the dense batch-tag space the queue aggregates
  /// and routes on (and registers its TagStats lane); kNoTag for invalid
  /// keys. Caller holds state_m_.
  std::int32_t intern_tag_locked(const sim::WorkspaceKey& key);
  /// Monotonic ns on the trace timebase (the tracer's clock when
  /// tracing, the service's own construction-epoch clock otherwise).
  std::uint64_t now_ns() const noexcept;

  RuntimeOptions opt_;
  int max_in_flight_;
  std::chrono::steady_clock::time_point base_;  ///< now_ns() epoch (no tracer)
  std::unique_ptr<Tracer> tracer_;              ///< null unless tracing is on
  TagStatsRegistry tag_stats_;
  ShardedJobQueue<QueueJob> queue_;
  std::vector<std::unique_ptr<Worker>> workers_;

  // Admission control and completion tracking are atomics: submit /
  // try_submit / slot release never touch state_m_ unless a waiter is
  // actually blocked (the *_waiters_ counts gate every notify, and the
  // notify itself runs under state_m_ so a woken thread can never see
  // the condvar destroyed — see release_slots).
  std::atomic<int> in_flight_{0};
  std::atomic<int> peak_in_flight_{0};
  std::atomic<std::size_t> submitted_{0};  ///< == reports_.size(), lock-free
  std::atomic<std::size_t> completed_{0};
  std::atomic<std::size_t> ext_pending_{0};
  std::atomic<int> admit_waiters_{0}, done_waiters_{0}, ext_waiters_{0};

  // The slot table: every slot allocated so far, at most one per
  // session admitted at once (so never more than max_in_flight_).
  // Slots are heap-allocated, so their addresses survive the table's
  // growth: workers reach them through their jobs' pointers, never
  // through the table (the queue's shard mutex orders a slot's filling
  // before the claim of its job). Finished sessions' slots are recycled
  // through free_slots_.
  std::mutex slots_m_;  ///< guards slots_ and free_slots_
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<Slot*> free_slots_;

  mutable std::mutex state_m_;
  std::condition_variable cv_admit_;  ///< in_flight_ dropped below the cap
  std::condition_variable cv_done_;   ///< a session or posted work finished
  std::condition_variable cv_ext_;    ///< ext_pending_ dropped below its cap
  /// The report log, indexed by session id: appended under state_m_ at
  /// admission, written in place by the session's worker (deque
  /// appends never move existing entries), read by drain().
  std::deque<SessionReport> reports_;
  std::map<sim::WorkspaceKey, std::int32_t> batch_tags_;  ///< key interning
  std::exception_ptr first_error_;

  static constexpr std::size_t kExtTaskCap = 1024;

  friend struct DecodeServiceTestHook;
};

/// White-box seam for the runtime regression tests: lets a test force
/// failure modes (a queue closed with work outstanding) that no public
/// API path reaches deterministically, and observe the slot table.
struct DecodeServiceTestHook {
  static void close_queue(DecodeService& s) { s.queue_.close(); }
  /// Session slots allocated so far (never more than max_in_flight()).
  static std::size_t slot_capacity(DecodeService& s) {
    std::lock_guard lock(s.slots_m_);
    return s.slots_.size();
  }
};

/// Worker-side view handed to every step and task: the pinned
/// per-WorkspaceKey decode scratch plus the load signals the adaptive
/// policy reads.
class DecodeService::WorkerScope {
 public:
  /// The worker's pinned workspace for @p target's workspace_key()
  /// (created on first use via the target's factory, reused —
  /// allocation-free in steady state — across all targets with equal
  /// keys). Returns nullptr when the target reports no key or no
  /// factory: the attempt then runs unpinned, which the caller records.
  sim::CodecWorkspace* workspace(const sim::DecodeTarget& target);

  /// Effort for an attempt under the current load (0 = configured
  /// effort: deterministic mode, adaptation disabled, idle queue, or a
  /// target without a knob).
  int pick_effort(const sim::EffortProfile& profile) const;

  std::size_t queue_depth() const { return svc_->queue_.depth(); }
  bool idle() const { return svc_->queue_.depth() <= kIdleDepth; }

 private:
  friend class DecodeService;
  WorkerScope(DecodeService* svc, Worker* w) : svc_(svc), w_(w) {}

  DecodeService* svc_;
  Worker* w_;
};

}  // namespace spinal::runtime
