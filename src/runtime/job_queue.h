#pragma once
// The decode runtime's job queue.
//
// ShardedJobQueue: one unbounded deque per shard (by default one shard
// per worker), submissions routed by hashing the job's aggregation tag
// so same-key jobs colocate — pop_batch then finds long same-tag runs
// at a shard's head instead of scanning past interleaved strangers —
// worker self-reposts land on the worker's own shard (push_many with a
// home shard: locality, no cross-shard hop), and an idle worker steals
// a whole batch from the deepest sibling shard before sleeping. The
// queue holds no bound of its own: its owner bounds what it pushes
// (DecodeService admits at most max_in_flight sessions and kExtTaskCap
// posted units), so a push never blocks and fails only on a closed
// queue. Producers contend only on the shard they route to; the sleep/
// wake path uses a shared mutex + condvar gated on an atomic sleeper
// count, so in steady state (busy workers, queue non-empty) no push or
// pop touches a global lock. With one shard it is a plain FIFO with
// windowed batch claims — the single-queue baseline the benches compare
// against and the ordered queue deterministic mode drains through.
//
// Entries carry an optional aggregation tag (an interned batch key):
// pop_batch() claims the oldest entry plus any same-tag entries within
// a bounded scan window, so a consumer can serve jobs that share decode
// state as one batch without ever waiting for a batch to fill.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace spinal::runtime {

/// Counters a ShardedJobQueue accumulates over its lifetime, snapshotted
/// into the runtime telemetry.
struct ShardedQueueStats {
  std::uint64_t steals = 0;        ///< batches claimed off a sibling shard
  std::uint64_t stolen_jobs = 0;   ///< jobs inside those batches
  /// Pushes that landed on a shard other than the pusher's own — every
  /// external submission (submitters have no shard) plus any worker push
  /// routed off its home shard. Measures the cross-core handoff rate
  /// against the self-repost fast path.
  std::uint64_t cross_shard_submits = 0;
};

/// Where a ShardedJobQueue claim came from — filled in by pop_batch for
/// callers that trace steal activity (the claim already knows; plumbing
/// it out costs nothing on the hot path).
struct ShardedClaimInfo {
  std::size_t shard = 0;  ///< shard the batch was claimed from
  bool stolen = false;    ///< true when that was a sibling's shard
};

/// Sharded MPMC job queue: see the header comment. Consumers are
/// identified by a small integer (the worker index); consumer w owns
/// shard w % shards() and always serves it first, so a worker's
/// self-reposted continuations never migrate unless a sibling runs dry
/// and steals them. Shard count may exceed the consumer count — the
/// extra shards keep key-affine routing meaningful on small pools and
/// are served through the steal path.
template <class T>
class ShardedJobQueue {
 public:
  /// Tag of entries that must never be batched together.
  static constexpr std::int32_t kNoTag = -1;
  /// `home` value of producers that own no shard (external submitters).
  static constexpr int kNoShard = -1;

  explicit ShardedJobQueue(int shards)
      : shards_(static_cast<std::size_t>(shards > 0 ? shards : 1)) {
    shard_ = std::make_unique<Shard[]>(shards_);
  }

  /// Enqueues @p item without blocking. Returns false when the queue
  /// was closed (the item is dropped). Tagged items route to shard
  /// tag % shards() — interned tags are dense, so the modulo spreads
  /// keys evenly while keeping every same-tag job on one shard — unless
  /// @p home names the pusher's own shard, which wins (worker
  /// continuations stay local). Untagged, homeless items round-robin.
  bool push(T item, std::int32_t tag = kNoTag, int home = kNoShard) {
    return enqueue(&item, &item + 1, tag, home);
  }

  /// Pushes every item as one shard transaction under a single shared
  /// tag — the continuation-repost companion to pop_batch(). Never
  /// blocks; returns false when the queue was closed (all items
  /// dropped); never partially pushes.
  bool push_many(std::vector<T>& items, std::int32_t tag = kNoTag,
                 int home = kNoShard) {
    return enqueue(items.data(), items.data() + items.size(), tag, home);
  }

  /// Batch-aggregating pop for consumer @p worker: serves the worker's
  /// own shard first; when it is empty, steals a batch from the deepest
  /// sibling shard; when every shard is empty, sleeps until a push or
  /// close(). A claim on one shard takes the oldest entry plus same-tag
  /// entries within a scan window of @p window, order preserved, batch
  /// capped at @p max_batch; it never waits for a batch to fill, so
  /// batching adds no queueing latency. Returns false (out left
  /// empty) once closed *and* drained — pending items in any shard are
  /// still handed out after close(). @p info, when given, reports which
  /// shard served the claim and whether it was a steal.
  bool pop_batch(int worker, std::vector<T>& out, std::size_t max_batch,
                 std::size_t window, ShardedClaimInfo* info = nullptr) {
    out.clear();
    const std::size_t own =
        worker >= 0 ? static_cast<std::size_t>(worker) % shards_ : 0;
    for (;;) {
      if (claim(own, out, max_batch, window, info)) return true;
      // Register as a sleeper, then scan once more: a pusher that read
      // sleepers_ == 0 (and so skipped its notify) enqueued before our
      // registration, which makes its item visible to this re-scan.
      std::unique_lock lock(sleep_m_);
      sleepers_.fetch_add(1);
      lock.unlock();
      const bool found = claim(own, out, max_batch, window, info);
      lock.lock();
      if (found) {
        sleepers_.fetch_sub(1);
        return true;
      }
      if (size_.load() == 0) {
        if (closed_.load()) {
          sleepers_.fetch_sub(1);
          return false;
        }
        cv_items_.wait(lock);
      } else {
        // size_ > 0 but no shard yielded: a push has counted its items
        // and is mid-enqueue (or a racing thief claimed what we saw). Yield
        // and re-scan rather than sleeping past it.
        lock.unlock();
        std::this_thread::yield();
      }
      sleepers_.fetch_sub(1);
    }
  }

  /// Instantaneous total depth across shards (a push counts its items
  /// while it is mid-flight). Lock-free.
  std::size_t depth() const { return size_.load(std::memory_order_relaxed); }

  /// Instantaneous depth of one shard (for telemetry / steal-victim
  /// selection). Lock-free.
  std::size_t shard_depth(std::size_t s) const {
    return shard_[s % shards_].depth.load(std::memory_order_relaxed);
  }

  ShardedQueueStats stats() const {
    ShardedQueueStats out;
    out.steals = steals_.load(std::memory_order_relaxed);
    out.stolen_jobs = stolen_jobs_.load(std::memory_order_relaxed);
    out.cross_shard_submits =
        cross_shard_submits_.load(std::memory_order_relaxed);
    return out;
  }

  void close() {
    closed_.store(true);
    std::lock_guard lock(sleep_m_);
    cv_items_.notify_all();
  }

  int shards() const noexcept { return static_cast<int>(shards_); }

 private:
  struct Slot {
    T item;
    std::int32_t tag;
  };
  /// One deque + its lock, padded so neighbouring shards' locks
  /// never share a cache line. `depth` mirrors q.size() so steal-victim
  /// scans and telemetry read it without the lock.
  struct alignas(64) Shard {
    std::mutex m;
    std::deque<Slot> q;
    std::atomic<std::size_t> depth{0};
  };

  std::size_t route(std::int32_t tag, int home) const {
    if (home >= 0) return static_cast<std::size_t>(home) % shards_;
    if (tag != kNoTag) return static_cast<std::uint32_t>(tag) % shards_;
    return rr_.fetch_add(1, std::memory_order_relaxed) % shards_;
  }

  /// Moves [first, last) onto one shard under one lock, then wakes
  /// sleeping consumers; false (nothing moved) when closed.
  bool enqueue(T* first, T* last, std::int32_t tag, int home) {
    if (first == last) return true;
    if (closed_.load()) return false;
    const std::size_t n = static_cast<std::size_t>(last - first);
    size_.fetch_add(n);
    const std::size_t dest = route(tag, home);
    if (static_cast<int>(dest) != home)
      cross_shard_submits_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard lock(shard_[dest].m);
      for (; first != last; ++first)
        shard_[dest].q.push_back({std::move(*first), tag});
      shard_[dest].depth.fetch_add(n, std::memory_order_relaxed);
    }
    notify_items();
    return true;
  }

  /// Wakes sleeping consumers after an enqueue. Gated on the atomic
  /// sleeper count: in steady state (no one asleep) a push pays one
  /// atomic load here, no lock and no condvar signal — the notify path
  /// only runs when someone is actually waiting.
  void notify_items() {
    if (sleepers_.load() > 0) {
      std::lock_guard lock(sleep_m_);
      cv_items_.notify_all();
    }
  }

  /// One claim attempt: own shard first, then the deepest sibling (a
  /// steal). Returns false only when every shard looked empty.
  bool claim(std::size_t own, std::vector<T>& out, std::size_t max_batch,
             std::size_t window, ShardedClaimInfo* info = nullptr) {
    if (claim_from(own, out, max_batch, window)) {
      if (info) *info = {own, false};
      return true;
    }
    while (shards_ > 1) {
      std::size_t best = own, best_depth = 0;
      for (std::size_t s = 0; s < shards_; ++s) {
        if (s == own) continue;
        const std::size_t d = shard_[s].depth.load(std::memory_order_relaxed);
        if (d > best_depth) {
          best_depth = d;
          best = s;
        }
      }
      if (best == own) return false;  // every sibling reported empty
      if (claim_from(best, out, max_batch, window)) {
        steals_.fetch_add(1, std::memory_order_relaxed);
        stolen_jobs_.fetch_add(out.size(), std::memory_order_relaxed);
        if (info) *info = {best, true};
        return true;
      }
      // Lost the victim to a racing thief; re-pick from fresh depths.
    }
    return false;
  }

  /// The claim algorithm on one shard: head entry plus same-tag entries
  /// within the scan window, order preserved. Claims
  /// from the front, so per-tag FIFO holds across claims (and steals) as
  /// long as a tag routes to a single shard — which tag-hashed routing
  /// guarantees.
  bool claim_from(std::size_t s, std::vector<T>& out, std::size_t max_batch,
                  std::size_t window) {
    Shard& sh = shard_[s];
    std::unique_lock lock(sh.m);
    if (sh.q.empty()) return false;
    const std::int32_t tag = sh.q.front().tag;
    out.push_back(std::move(sh.q.front().item));
    sh.q.pop_front();
    if (tag != kNoTag && max_batch > 1) {
      std::size_t scanned = 0;
      for (auto it = sh.q.begin();
           it != sh.q.end() && out.size() < max_batch && scanned < window;
           ++scanned) {
        if (it->tag == tag) {
          out.push_back(std::move(it->item));
          it = sh.q.erase(it);
        } else {
          ++it;
        }
      }
    }
    sh.depth.fetch_sub(out.size(), std::memory_order_relaxed);
    lock.unlock();
    size_.fetch_sub(out.size());
    return true;
  }

  std::size_t shards_;
  std::unique_ptr<Shard[]> shard_;
  std::atomic<std::size_t> size_{0};
  std::atomic<bool> closed_{false};
  mutable std::atomic<std::uint32_t> rr_{0};
  std::atomic<std::uint64_t> steals_{0}, stolen_jobs_{0},
      cross_shard_submits_{0};

  // Sleep/wake machinery, touched only when a consumer sleeps (the
  // atomic count gates the notify path) or runs dry.
  std::mutex sleep_m_;
  std::condition_variable cv_items_;
  std::atomic<int> sleepers_{0};
};

}  // namespace spinal::runtime
