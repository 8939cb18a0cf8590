#include "runtime/decode_service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

namespace spinal::runtime {

namespace {

/// Monotonic max on an atomic (the peak-in-flight high-water mark).
void store_max(std::atomic<int>& target, int value) {
  int cur = target.load(std::memory_order_relaxed);
  while (cur < value &&
         !target.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

/// The error a session fails with when the queue, closed, refuses its
/// next job.
std::exception_ptr queue_closed_error() {
  return std::make_exception_ptr(std::runtime_error(
      "DecodeService: job queue closed with session in flight"));
}

}  // namespace

/// One admitted session: the spec (owning the message), the live
/// session/channel pair, the MessageRun state machine over them, and
/// where the session's report goes. Lives in a slot from admission until
/// the run finishes, advanced by exactly one job at a time; destroying
/// it (retire) releases everything the session held.
struct DecodeService::SessionState {
  explicit SessionState(SessionSpec s)
      : spec(std::move(s)),
        session(spec.make_session()),
        channel(spec.channel.make()),
        run(*session, channel, spec.message, spec.engine) {}

  SessionSpec spec;
  std::unique_ptr<sim::RatelessSession> session;
  sim::ChannelSim channel;
  sim::MessageRun run;
  SessionReport* report = nullptr;  ///< this session's reports_ entry
  std::size_t id = 0;               ///< session id: its index in reports_
  long symbols_seen = 0;            ///< feed-telemetry watermark
};

/// A reusable home for one in-flight session (engaged from admission to
/// retirement, empty while on the free list).
struct DecodeService::Slot {
  std::optional<SessionState> state;
};

// The two kinds of unit step() advances. Each maps the step's phases onto
// its unit: feed returns the channel symbols streamed (-1 when the unit
// ended instead), record applies one attempt's candidate and says
// whether the unit finished, keep decides whether it is reposted, and
// finish ends a unit whose step failed. release() closes the step's
// accounting.

/// An admitted session: feed = MessageRun::feed_to_attempt, record =
/// MessageRun::record_attempt, and a finished run retires its slot.
struct DecodeService::SessionKind {
  sim::DecodeTarget& target(const QueueJob& j) {
    return *j.slot->state->session;
  }

  long feed(const QueueJob& j) {
    SessionState& s = *j.slot->state;
    if (!s.run.feed_to_attempt()) {  // budget exhausted -> failed run
      finish(j, nullptr);
      return -1;
    }
    const long symbols = s.run.result().symbols;
    const long fed = symbols - s.symbols_seen;
    s.symbols_seen = symbols;
    return fed;
  }

  bool record(const QueueJob& j, const std::optional<util::BitVec>& candidate,
              double micros, bool reduced, bool full_retry) {
    SessionState& s = *j.slot->state;
    s.report->decode_micros += micros;
    if (reduced) ++s.report->reduced_effort_attempts;
    if (full_retry) ++s.report->full_effort_retries;
    s.run.record_attempt(candidate);
    return s.run.finished();
  }

  bool keep(const QueueJob& j, bool finished) {
    if (finished) finish(j, nullptr);
    return !finished;
  }

  void finish(const QueueJob& j, std::exception_ptr err) {
    svc.retire(&rec, *j.slot, err);
    retired.push_back(j.slot);
  }

  void release() {
    svc.release_slots(retired);
    retired.clear();
  }

  DecodeService& svc;
  StageRecorder& rec;
  std::vector<Slot*>& retired;  ///< the worker's scratch, empty between steps
};

/// A posted BlockUnit: nothing to feed, and the owner's completion
/// decides between repost and settling; a settled unit frees its
/// external-work slot.
struct DecodeService::BlockKind {
  sim::DecodeTarget& target(const QueueJob& j) { return *j.block; }
  long feed(const QueueJob&) { return 0; }
  bool record(const QueueJob& j, const std::optional<util::BitVec>& candidate,
              double, bool, bool) {
    return j.block->record_attempt(candidate);
  }
  bool keep(const QueueJob& j, bool) {
    if (j.block->complete()) return true;
    ++settled;
    return false;
  }
  void finish(const QueueJob& j, std::exception_ptr err) {
    j.block->abandon();
    svc.note_error(err);
    ++settled;
  }
  void release() { svc.release_ext(settled); }

  DecodeService& svc;
  std::size_t settled = 0;
};

std::uint64_t DecodeService::now_ns() const noexcept {
  if (tracer_) return tracer_->now_ns();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - base_)
          .count());
}

DecodeService::DecodeService(const RuntimeOptions& opt)
    : opt_(opt),
      max_in_flight_(opt.max_in_flight > 0
                         ? opt.max_in_flight
                         : std::max(64, 4 * (opt.workers > 0
                                                 ? opt.workers
                                                 : bench_threads()))),
      base_(std::chrono::steady_clock::now()),
      tracer_(kRuntimeTraceCompiled && opt.trace.enabled
                  ? std::make_unique<Tracer>(opt.trace)
                  : nullptr),
      // The queue has no bound of its own: admission bounds it. Session
      // jobs in the queue are at most max_in_flight_ (one job per
      // session exists at a time) and posted tasks and blocks at most
      // kExtTaskCap (one job per posted block), so a push never blocks
      // and backpressure lives at admission.
      //
      // Deterministic mode drains through a single ordered shard: with
      // one shard the sharded queue degenerates to exactly the
      // single-queue FIFO + windowed-claim semantics, which the ordered
      // bit-identity guarantee is stated against.
      queue_(opt.deterministic
                 ? 1
                 : (opt.shards > 0 ? opt.shards
                                   : (opt.workers > 0 ? opt.workers
                                                      : bench_threads()))) {
  const int n = opt.workers > 0 ? opt.workers : bench_threads();
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    Worker* w = workers_.back().get();
    w->index = i;
    w->thread = std::thread([this, w] { worker_loop(*w); });
  }
}

DecodeService::~DecodeService() {
  {
    std::unique_lock lock(state_m_);
    ++done_waiters_;
    cv_done_.wait(lock, [&] {
      return completed_.load() == submitted_.load() &&
             ext_pending_.load() == 0;
    });
    --done_waiters_;
  }
  queue_.close();
  for (auto& w : workers_)
    if (w->thread.joinable()) w->thread.join();
  // An error drain() never collected must not vanish silently: the
  // caller skipped the rethrow point, so the last-resort channel is a
  // loud stderr line at teardown.
  if (first_error_) {
    try {
      std::rethrow_exception(first_error_);
    } catch (const std::exception& e) {
      std::fprintf(
          stderr,
          "DecodeService: swallowing undrained error at destruction: %s\n",
          e.what());
    } catch (...) {
      std::fprintf(stderr,
                   "DecodeService: swallowing undrained non-std exception at "
                   "destruction\n");
    }
  }
}

void DecodeService::worker_loop(Worker& w) {
  WorkerScope scope(this, &w);
  if (tracer_)
    w.trace = tracer_->register_buffer("worker " + std::to_string(w.index));
  const std::size_t max_batch =
      opt_.batch.max_batch > 1 ? static_cast<std::size_t>(opt_.batch.max_batch)
                               : 1;
  const std::size_t window =
      opt_.batch.window > 0 ? static_cast<std::size_t>(opt_.batch.window) : 0;
  std::vector<QueueJob> batch;
  ShardedClaimInfo cinfo;
  std::uint64_t idle_since = w.trace ? now_ns() : 0;
  while (queue_.pop_batch(w.index, batch, max_batch, window, &cinfo)) {
    // Queue-wait is attributed per claim: the head job's wait stands in
    // for the whole batch (add_n), so the stage histogram counts jobs
    // at the cost of one clock read + one record per claim instead of
    // per job. claim_ns then anchors the batch-assembly stage.
    const std::uint64_t claim_ns = now_ns();
    const QueueJob& head = batch.front();
    // A multi-entry claim is same-tag by construction, so one lane
    // takes every record of the claim.
    StageRecorder rec{tag_stats_.lane(head.tag), w.trace};
    // The claim span doubles as the worker's idle/occupancy signal: it
    // covers everything since the last job finished, including the
    // blocking wait inside pop_batch.
    if (w.trace)
      w.trace->record(TraceKind::kClaim, idle_since, claim_ns, batch.size(),
                      cinfo.shard);
    rec.queue_wait(head.enqueue_ns, claim_ns, batch.size(), head.tag);
    if (w.trace && cinfo.stolen)
      w.trace->instant(TraceKind::kSteal, claim_ns, batch.size(), cinfo.shard);
    // Blocks batch under keys no session reports (the mux's
    // "spinal.link" codec), so every claim holds one kind of unit; tasks
    // are untagged and never share a claim.
    if (head.slot) {
      SessionKind kind{*this, rec, w.retired};
      step(kind, scope, rec, batch, claim_ns);
    } else if (head.block) {
      BlockKind kind{*this};
      step(kind, scope, rec, batch, claim_ns);
    } else {
      for (QueueJob& j : batch) j.task(scope);
      if (w.trace)
        w.trace->record(TraceKind::kTask, claim_ns, now_ns(), batch.size());
    }
    if (w.trace) idle_since = now_ns();
  }
}

std::int32_t DecodeService::intern_tag_locked(const sim::WorkspaceKey& key) {
  if (!key.valid()) return ShardedJobQueue<QueueJob>::kNoTag;
  const auto [it, inserted] =
      batch_tags_.try_emplace(key, static_cast<std::int32_t>(batch_tags_.size()));
  if (inserted) {
    // "codec/w0;w1;..." up to the last nonzero word, rendered once.
    std::size_t n = key.words.size();
    while (n > 0 && key.words[n - 1] == 0) --n;
    std::string label = sim::codec_name(key.codec);
    for (std::size_t i = 0; i < n; ++i)
      label += (i == 0 ? "/" : ";") + std::to_string(key.words[i]);
    tag_stats_.register_tag(it->second, std::move(label));
  }
  return it->second;
}

int DecodeService::try_reserve_admission() {
  int cur = in_flight_.load();
  while (cur < max_in_flight_) {
    if (in_flight_.compare_exchange_weak(cur, cur + 1)) return cur + 1;
  }
  return -1;
}

std::size_t DecodeService::submit(SessionSpec spec) {
  // Admission: lock-free CAS in the common case; fall back to a condvar
  // wait only once the cap is actually hit. The waiter registers under
  // state_m_ before re-probing, and the release side (an atomic
  // decrement) re-checks admit_waiters_ after decrementing — seq_cst
  // order makes one of the two sides see the other, so the wakeup
  // cannot be lost.
  int reserved = try_reserve_admission();
  if (reserved < 0) {
    std::unique_lock lock(state_m_);
    ++admit_waiters_;
    cv_admit_.wait(lock,
                   [&] { return (reserved = try_reserve_admission()) >= 0; });
    --admit_waiters_;
  }
  return admit(std::move(spec), reserved);
}

std::optional<std::size_t> DecodeService::try_submit(SessionSpec spec) {
  // The reservation comes before the session is built: the point of
  // the non-blocking probe is sustained overload, where constructing an
  // encoder + decoder + channel just to throw them away on a refusal
  // would burn exactly the compute the caller is trying to shed.
  const int reserved = try_reserve_admission();
  if (reserved < 0) return std::nullopt;
  return admit(std::move(spec), reserved);
}

std::size_t DecodeService::admit(SessionSpec spec, int reserved) {
  Slot& slot = acquire_slot();
  std::optional<SessionState>& st = slot.state;
  // Build the session (encoder, channel, engine validation) outside any
  // lock; MessageRun's constructor throws on invalid EngineOptions, and
  // the admission is then rolled back without counting a completion.
  try {
    st.emplace(std::move(spec));
  } catch (...) {
    {
      std::lock_guard lock(slots_m_);
      free_slots_.push_back(&slot);
    }
    in_flight_.fetch_sub(1);
    if (admit_waiters_.load() > 0) {
      std::lock_guard lock(state_m_);
      cv_admit_.notify_one();
    }
    throw;
  }
  // The high-water mark moves only once the session is actually
  // admitted, so a reservation rolled back above never counts. (A
  // concurrent submitter's peak update can still observe another
  // caller's transient reservation; the mark is a bound on
  // reservations, exact over admissions.)
  store_max(peak_in_flight_, reserved);
  SessionState& s = *st;
  // Tags are interned even when batching is off: routing and the
  // per-tag stage stats want the per-codec identity either way (with
  // one shard — deterministic mode, single-worker configs — routing is
  // unaffected).
  const sim::WorkspaceKey bkey = s.session->batch_key();
  QueueJob job;
  job.slot = &slot;
  std::size_t id;
  {
    std::lock_guard lock(state_m_);
    job.tag = intern_tag_locked(bkey);
    s.id = id = reports_.size();
    s.report = &reports_.emplace_back();
    submitted_.fetch_add(1);  // under the lock: tracks reports_.size()
  }
  job.enqueue_ns = now_ns();
  if (tracer_) {
    // The shard arg mirrors the queue's tag-hash routing.
    tracer_->thread_buffer()->instant(
        TraceKind::kSubmit, job.enqueue_ns, id,
        job.tag < 0 ? 0
                    : static_cast<std::uint32_t>(job.tag) %
                          static_cast<std::uint32_t>(queue_.shards()));
  }
  // From the push on, a worker may finish the session at any time: `s`
  // is not touched again unless the queue refuses the job.
  const std::int32_t tag = job.tag;
  if (!queue_.push(std::move(job), tag)) {
    // Closed with the session admitted: silently returning would leak
    // it (no job ever finishes it, so drain() would deadlock), so it
    // fails loudly instead.
    retire(nullptr, slot, queue_closed_error());
    Slot* const refused = &slot;
    release_slots({&refused, 1});
  }
  return id;
}

DecodeService::Slot& DecodeService::acquire_slot() {
  std::lock_guard lock(slots_m_);
  if (!free_slots_.empty()) {
    Slot* const slot = free_slots_.back();
    free_slots_.pop_back();
    return *slot;
  }
  // No free slot: every allocated slot holds a session whose admission
  // reservation is still outstanding (release_slots frees the slot
  // before the reservation), so with our own reservation counted, the
  // table holds fewer than max_in_flight_ slots here.
  return *slots_.emplace_back(std::make_unique<Slot>());
}

template <class Kind>
void DecodeService::step(Kind& kind, WorkerScope& scope, StageRecorder& rec,
                         const std::vector<QueueJob>& claim,
                         std::uint64_t claim_ns) {
  Worker& w = *scope.w_;
  std::vector<const QueueJob*>& live = w.live;
  live.clear();

  // Phase 1 — stream each unit to its attempt point individually (feeds
  // are per-unit work; only the decode attempt batches). The accounting
  // batches too: the batch-assembly record counts the claim's symbols,
  // and one deferred release covers the whole claim.
  long fed = 0;
  for (const QueueJob& j : claim) {
    try {
      const long symbols = kind.feed(j);
      if (symbols < 0) continue;
      fed += symbols;
      live.push_back(&j);
    } catch (...) {
      kind.finish(j, std::current_exception());
    }
  }
  if (live.empty()) {  // fed == 0: only live units count their feed
    kind.release();
    return;
  }

  // Phase 2 — one fused decode attempt over every live unit. Equal
  // batch tags mean equal specs where it matters (profile, workspace
  // key), so the claim shares one effort pick, one workspace resolve
  // and one latency clock pair — exactly the per-job overhead the
  // batching exists to amortize.
  sim::DecodeTarget& lead = kind.target(*live.front());
  const std::int32_t tag = live.front()->tag;
  const sim::EffortProfile profile = lead.effort_profile();
  const int effort = scope.pick_effort(profile);
  const bool reduced = effort > 0 && effort < profile.full;
  sim::CodecWorkspace* ws = scope.workspace(lead);

  const std::size_t n = live.size();
  if (w.candidates.size() < n) w.candidates.resize(n);
  w.decode_jobs.clear();
  for (std::size_t i = 0; i < n; ++i)
    w.decode_jobs.push_back({&kind.target(*live[i]), effort, &w.candidates[i]});
  // One clock read ends batch-assembly and starts the fused decode.
  const std::uint64_t d0 = now_ns();
  rec.batch_assembly(claim_ns, d0, n, static_cast<std::uint64_t>(fed));
  try {
    lead.try_decode_batch(ws, w.decode_jobs);
  } catch (...) {
    // A torn batched attempt taints every unit in it: which ones hold
    // valid candidates is unknowable, so all of them fail loudly rather
    // than any continuing on garbage.
    const std::exception_ptr err = std::current_exception();
    for (const QueueJob* j : live) kind.finish(*j, err);
    kind.release();
    return;
  }
  const std::uint64_t d1 = now_ns();
  const double per =
      rec.decode(d0, d1, n, effort, reduced, false, ws == nullptr);

  // Phase 3 — per-unit accounting and continuation (latency attributed
  // evenly across the claim). The units that go on are collected and
  // reposted as one queue transaction at the end: paying a lock +
  // notify per continuation would hand back a large slice of the
  // overhead the batch just saved.
  w.repost.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const QueueJob& j = *live[i];
    try {
      bool finished = kind.record(j, w.candidates[i], per, reduced, false);

      // A shrunk attempt that failed gets one full-effort retry on the
      // same symbols when the queue has drained: compute is free when
      // idle, channel symbols never are.
      if (!finished && reduced && scope.idle()) {
        const std::uint64_t r0 = now_ns();
        const std::optional<util::BitVec> cand =
            kind.target(j).try_decode_with(ws, 0);
        const double us =
            rec.decode(r0, now_ns(), 1, 0, false, true, ws == nullptr);
        finished = kind.record(j, cand, us, false, true);
      }
      if (!kind.keep(j, finished)) continue;
    } catch (...) {
      kind.finish(j, std::current_exception());
      continue;
    }
    QueueJob job;
    job.slot = j.slot;
    job.block = j.block;
    job.tag = tag;
    w.repost.push_back(std::move(job));
  }
  // All units in the claim carry the same interned tag, so one shared
  // tag covers the repost — onto this worker's own shard, where the
  // units' state is hot in this core's cache and the next claim finds
  // the whole run contiguous at the head. One enqueue timestamp covers
  // the lot (queue-wait is head-attributed at the claim anyway).
  if (!w.repost.empty()) {
    const std::uint64_t p0 = now_ns();
    for (QueueJob& job : w.repost) job.enqueue_ns = p0;
    if (queue_.push_many(w.repost, tag, w.index)) {
      if (rec.tb)
        rec.tb->record(TraceKind::kRepost, p0, now_ns(), w.repost.size());
    } else {
      // Closed queue: see the refused-admission path in admit().
      const std::exception_ptr err = queue_closed_error();
      for (const QueueJob& job : w.repost) kind.finish(job, err);
    }
  }
  kind.release();
}

void DecodeService::retire(StageRecorder* rec, Slot& slot,
                           std::exception_ptr err) {
  std::optional<SessionState>& st = slot.state;
  if (err) note_error(err);
  SessionReport& r = *st->report;
  r.run = st->run.result();
  if (err) r.run.success = false;
  r.message_bits = st->session->message_bits();
  if (rec) {
    // Symbols streamed after the last attempt (the give-up tail) have
    // not hit the feed counter yet.
    rec->session_done(
        static_cast<std::uint64_t>(r.run.symbols - st->symbols_seen),
        r.run.success, r.message_bits);
    // The instant lands before the slot's release, which can wake
    // drain() — after which the caller may export the trace.
    if (rec->tb)
      rec->tb->instant(TraceKind::kComplete, now_ns(), st->id,
                       r.run.success ? 1 : 0);
  }
  // Release everything the session held (spec, decoder symbol stores,
  // channel RNGs) now rather than at drain: only the report outlives
  // the run, which keeps memory O(in flight), not O(submitted).
  st.reset();
}

void DecodeService::release_slots(std::span<Slot* const> slots) {
  if (slots.empty()) return;
  {
    std::lock_guard lock(slots_m_);
    free_slots_.insert(free_slots_.end(), slots.begin(), slots.end());
  }
  const std::size_t n = slots.size();
  in_flight_.fetch_sub(static_cast<int>(n));
  completed_.fetch_add(n);
  // Both notify paths are gated on atomic waiter counts, so in steady
  // state (no submitter blocked, no drain in progress) releasing a
  // batch of slots is one short free-list lock plus two atomic RMWs and
  // two loads. When a waiter does exist, the notify runs under
  // state_m_: a woken thread may destroy the condvar as soon as it can
  // observe the updated counters, which it cannot do before this mutex
  // is released. The waiter side registers its count under state_m_
  // *before* re-checking the counters, so whichever of (counter update,
  // waiter registration) comes first in the seq_cst order, one side
  // sees the other — the wakeup cannot be lost.
  if (admit_waiters_.load() > 0) {
    std::lock_guard lock(state_m_);
    if (n > 1)
      cv_admit_.notify_all();
    else
      cv_admit_.notify_one();
  }
  notify_if_quiet();
}

void DecodeService::notify_if_quiet() {
  if (done_waiters_.load() > 0 && completed_.load() == submitted_.load() &&
      ext_pending_.load() == 0) {
    std::lock_guard lock(state_m_);
    cv_done_.notify_all();
  }
}

void DecodeService::note_error(std::exception_ptr err) {
  std::lock_guard lock(state_m_);
  if (!first_error_) first_error_ = err;
}

std::vector<SessionReport> DecodeService::drain() {
  std::unique_lock lock(state_m_);
  ++done_waiters_;
  cv_done_.wait(lock, [&] {
    return completed_.load() == submitted_.load() && ext_pending_.load() == 0;
  });
  --done_waiters_;
  if (first_error_) {
    std::exception_ptr e = std::exchange(first_error_, nullptr);
    std::rethrow_exception(e);
  }
  return {reports_.begin(), reports_.end()};
}

TelemetrySnapshot DecodeService::telemetry() const {
  TelemetrySnapshot snap;
  tag_stats_.snapshot_into(snap);
  const ShardedQueueStats qs = queue_.stats();
  snap.queue.steals = qs.steals;
  snap.queue.stolen_jobs = qs.stolen_jobs;
  snap.queue.cross_shard_submits = qs.cross_shard_submits;
  snap.queue.shard_depths.resize(static_cast<std::size_t>(queue_.shards()));
  for (std::size_t s = 0; s < snap.queue.shard_depths.size(); ++s)
    snap.queue.shard_depths[s] = queue_.shard_depth(s);
  return snap;
}

int DecodeService::peak_in_flight() const { return peak_in_flight_.load(); }

void DecodeService::post(Task task) {
  QueueJob job;
  job.task = [this, t = std::move(task)](WorkerScope& scope) {
    try {
      t(scope);
    } catch (...) {
      note_error(std::current_exception());
    }
    release_ext(1);
  };
  push_external(std::move(job));
}

void DecodeService::post(BlockUnit& block) {
  const sim::WorkspaceKey key = block.batch_key();
  QueueJob job;
  job.block = &block;
  {
    std::lock_guard lock(state_m_);
    job.tag = intern_tag_locked(key);
  }
  push_external(std::move(job));
}

void DecodeService::push_external(QueueJob job) {
  // Same lock-free-reserve / waiter-gated-sleep shape as session
  // admission, against the external-work cap.
  auto try_reserve_ext = [&] {
    std::size_t cur = ext_pending_.load();
    while (cur < kExtTaskCap) {
      if (ext_pending_.compare_exchange_weak(cur, cur + 1)) return true;
    }
    return false;
  };
  if (!try_reserve_ext()) {
    std::unique_lock lock(state_m_);
    ++ext_waiters_;
    cv_ext_.wait(lock, [&] { return try_reserve_ext(); });
    --ext_waiters_;
  }
  job.enqueue_ns = now_ns();
  const std::int32_t tag = job.tag;
  if (tracer_)
    tracer_->thread_buffer()->instant(
        TraceKind::kCrossShard, job.enqueue_ns, 0,
        tag < 0 ? 0
                : static_cast<std::uint32_t>(tag) %
                      static_cast<std::uint32_t>(queue_.shards()));
  BlockUnit* const block = job.block;
  if (queue_.push(std::move(job), tag)) return;
  // Closed queue: the work will never run — settle the block, undo the
  // pending count so drain()/teardown don't wait on it, and surface the
  // loss.
  if (block) block->abandon();
  note_error(std::make_exception_ptr(std::runtime_error(
      "DecodeService: job queue closed with task pending")));
  release_ext(1);
}

void DecodeService::release_ext(std::size_t n) {
  if (n == 0) return;
  ext_pending_.fetch_sub(n);
  // Waiter-gated notifies under state_m_: see release_slots.
  if (ext_waiters_.load() > 0) {
    std::lock_guard lock(state_m_);
    cv_ext_.notify_all();
  }
  notify_if_quiet();
}

sim::CodecWorkspace* DecodeService::WorkerScope::workspace(
    const sim::DecodeTarget& target) {
  const WorkspaceKey key = target.workspace_key();
  if (!key.valid()) return nullptr;
  std::unique_ptr<sim::CodecWorkspace>& slot = w_->pinned[key];
  if (!slot) slot = target.make_workspace();
  return slot.get();
}

int DecodeService::WorkerScope::pick_effort(
    const sim::EffortProfile& profile) const {
  if (svc_->opt_.deterministic || !svc_->opt_.adapt.enabled) return 0;
  const int e = runtime::pick_effort(profile.full, profile.floor,
                                     queue_depth());
  return e >= profile.full ? 0 : e;
}

}  // namespace spinal::runtime
