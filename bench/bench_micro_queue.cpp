// Microbenchmarks for the runtime job queue (src/runtime/job_queue.h):
// the ShardedJobQueue with one shard — the single MPMC queue baseline —
// against the four-shard layout the DecodeService scales onto. Four
// shapes, each run on both:
//
//   PushClaim     — per-op cost of the uncontended push -> claim cycle
//                   (the floor both layouts pay with one producer).
//   ClaimBatch    — a mixed-key fleet's dequeue: fill with K interleaved
//                   tags, then drain with batching claims. One shard
//                   scans past strangers and erases mid-deque; four
//                   shards colocated each tag at fill time.
//   RepostCycle   — the worker self-repost loop: push_many a same-tag
//                   batch (home shard) and claim it back contiguously.
//   Contended     — producers x consumers on one queue, with
//                   close-and-drain termination; measures lock/notify
//                   contention, which sharding splits per shard.
//
// Names are stable perf-snapshot keys (BM_Queue* with queue:single /
// queue:sharded variants), consumed by tools/perf_snapshot.py and the
// perf-guard's within-run expectations.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "runtime/job_queue.h"

using namespace spinal::runtime;

namespace {

constexpr int kTags = 8;
using Queue = ShardedJobQueue<int>;

void BM_QueuePushClaim(benchmark::State& state, int shards) {
  Queue q(shards);
  std::vector<int> out;
  for (auto _ : state) {
    q.push(1, /*tag=*/3, /*home=*/0);
    q.pop_batch(0, out, 1, 0);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_QueueClaimBatch(benchmark::State& state, int shards) {
  constexpr int kFill = 512;
  Queue q(shards);
  std::vector<int> out;
  for (auto _ : state) {
    // Fill round-robin over kTags interned tags — the arrival order of a
    // mixed-key fleet — then drain with batching claims from worker 0.
    for (int i = 0; i < kFill; ++i) q.push(i, i % kTags, Queue::kNoShard);
    int drained = 0;
    while (drained < kFill) {
      q.pop_batch(0, out, 64, 128);
      drained += static_cast<int>(out.size());
    }
    benchmark::DoNotOptimize(drained);
  }
  state.SetItemsProcessed(state.iterations() * kFill);
}

void BM_QueueRepostCycle(benchmark::State& state, int shards) {
  constexpr int kBatch = 64;
  Queue q(shards);
  std::vector<int> items(kBatch, 7);
  std::vector<int> out;
  for (auto _ : state) {
    q.push_many(items, /*tag=*/3, /*home=*/0);
    int drained = 0;
    while (drained < kBatch) {
      q.pop_batch(0, out, kBatch, 128);
      drained += static_cast<int>(out.size());
    }
    items.assign(static_cast<std::size_t>(kBatch), 7);  // push_many moves out
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}

void BM_QueueContended(benchmark::State& state, int shards) {
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;
  constexpr int kPerProducer = 4096;
  for (auto _ : state) {
    // Producers push the whole burst without waiting while consumers
    // claim it, so the shard locks and the sleep/wake path see both
    // sides at once; termination is close-and-drain (the service
    // teardown shape).
    Queue q(shards);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&q, p] {
        for (int i = 0; i < kPerProducer; ++i)
          q.push(i, /*tag=*/p * (kTags / kProducers) + i % (kTags / kProducers),
                 Queue::kNoShard);
      });
    }
    std::atomic<int> received{0};
    std::vector<std::thread> consumers;
    for (int w = 0; w < kConsumers; ++w) {
      consumers.emplace_back([&q, &received, w] {
        std::vector<int> out;
        while (q.pop_batch(w, out, 16, 64))
          received.fetch_add(static_cast<int>(out.size()),
                             std::memory_order_relaxed);
      });
    }
    for (auto& t : producers) t.join();
    q.close();
    for (auto& t : consumers) t.join();
    if (received.load() != kProducers * kPerProducer)
      state.SkipWithError("lost jobs");
  }
  state.SetItemsProcessed(state.iterations() * kProducers * kPerProducer);
}

}  // namespace

BENCHMARK_CAPTURE(BM_QueuePushClaim, queue:single, 1);
BENCHMARK_CAPTURE(BM_QueuePushClaim, queue:sharded/shards:4, 4);
BENCHMARK_CAPTURE(BM_QueueClaimBatch, queue:single/tags:8, 1);
BENCHMARK_CAPTURE(BM_QueueClaimBatch, queue:sharded/shards:4/tags:8, 4);
BENCHMARK_CAPTURE(BM_QueueRepostCycle, queue:single, 1);
BENCHMARK_CAPTURE(BM_QueueRepostCycle, queue:sharded/shards:4, 4);
BENCHMARK_CAPTURE(BM_QueueContended, queue:single, 1);
BENCHMARK_CAPTURE(BM_QueueContended, queue:sharded/shards:4, 4);

BENCHMARK_MAIN();
