// Job-queue tests (src/runtime/job_queue.h): the ShardedJobQueue that
// DecodeService runs on — with one shard, the single-queue reference
// semantics (FIFO, tagged batch aggregation, close drain); with several,
// tag-affine routing, home-shard self-reposts, batch stealing from the
// deepest sibling, per-tag FIFO across steals, the closed-queue drain of
// non-empty shards (the PR 8 job-loss regression re-stated under
// sharding), a seeded randomized producer/consumer/steal stress, and
// pushes that never block (the queue holds no bound of its own).
// This suite runs under the ThreadSanitizer CI lane.

#include <algorithm>
#include <cstdint>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/job_queue.h"
#include "util/prng.h"

namespace spinal::runtime {
namespace {

// -------------------------------- one shard: the single-queue baseline
// With one shard the queue is a plain FIFO with windowed batch
// claims — the deterministic mode's ordered drain is stated against
// exactly these semantics.

TEST(ShardedJobQueue, SingleShardFifoPushAndClose) {
  ShardedJobQueue<int> q(1);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_EQ(q.depth(), 2u);
  std::vector<int> batch;
  EXPECT_TRUE(q.pop_batch(0, batch, 1, 0));
  EXPECT_EQ(batch, (std::vector<int>{1}));
  EXPECT_TRUE(q.push(3));
  q.close();
  EXPECT_FALSE(q.push(4));  // closed
  std::vector<int> more = {5, 6};
  EXPECT_FALSE(q.push_many(more));  // closed: nothing pushed
  EXPECT_EQ(more, (std::vector<int>{5, 6}));
  EXPECT_TRUE(q.pop_batch(0, batch, 1, 0));  // drains pending items after close
  EXPECT_EQ(batch, (std::vector<int>{2}));
  EXPECT_TRUE(q.pop_batch(0, batch, 1, 0));
  EXPECT_EQ(batch, (std::vector<int>{3}));
  EXPECT_FALSE(q.pop_batch(0, batch, 1, 0));
}

TEST(ShardedJobQueue, SingleShardAggregatesSameTagOnly) {
  ShardedJobQueue<int> q(1);
  EXPECT_TRUE(q.push(1, 7));
  EXPECT_TRUE(q.push(2, 9));
  EXPECT_TRUE(q.push(3, 7));
  EXPECT_TRUE(q.push(4, 7));
  std::vector<int> batch;
  // Claims the head plus the same-tag entries behind it; the other tag
  // keeps its place at the new head.
  EXPECT_TRUE(q.pop_batch(0, batch, 8, 16));
  EXPECT_EQ(batch, (std::vector<int>{1, 3, 4}));
  EXPECT_TRUE(q.pop_batch(0, batch, 8, 16));
  EXPECT_EQ(batch, (std::vector<int>{2}));
  EXPECT_EQ(q.stats().steals, 0u);  // one shard: nothing to steal from

  // Untagged entries never aggregate, even with untagged neighbours.
  EXPECT_TRUE(q.push(5));
  EXPECT_TRUE(q.push(6));
  EXPECT_TRUE(q.pop_batch(0, batch, 8, 16));
  EXPECT_EQ(batch, (std::vector<int>{5}));
  EXPECT_TRUE(q.pop_batch(0, batch, 8, 16));
  EXPECT_EQ(batch, (std::vector<int>{6}));
}

TEST(ShardedJobQueue, SingleShardHonorsMaxBatchAndWindow) {
  ShardedJobQueue<int> q(1);
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(q.push(10 + i, 3));
  std::vector<int> batch;
  EXPECT_TRUE(q.pop_batch(0, batch, 3, 16));  // max_batch bounds the claim
  EXPECT_EQ(batch, (std::vector<int>{10, 11, 12}));
  EXPECT_TRUE(q.pop_batch(0, batch, 8, 1));   // window bounds the scan
  EXPECT_EQ(batch, (std::vector<int>{13, 14}));
  EXPECT_TRUE(q.pop_batch(0, batch, 8, 16));
  EXPECT_EQ(batch, (std::vector<int>{15}));
  EXPECT_EQ(q.depth(), 0u);
}

TEST(ShardedJobQueue, SingleShardDrainsAfterClose) {
  ShardedJobQueue<int> q(1);
  EXPECT_TRUE(q.push(1, 2));
  EXPECT_TRUE(q.push(2, 2));
  q.close();
  EXPECT_FALSE(q.push(3, 2));
  std::vector<int> batch;
  EXPECT_TRUE(q.pop_batch(0, batch, 4, 8));
  EXPECT_EQ(batch, (std::vector<int>{1, 2}));
  EXPECT_FALSE(q.pop_batch(0, batch, 4, 8));
  EXPECT_TRUE(batch.empty());
}

// ------------------------------------------------------- several shards

TEST(ShardedJobQueue, TagRoutingColocatesSameTag) {
  ShardedJobQueue<int> q(4);
  // Tags are dense interned ids; tag t routes to shard t % 4.
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(q.push(100 + i, /*tag=*/1));
  for (int i = 0; i < 2; ++i) EXPECT_TRUE(q.push(200 + i, /*tag=*/5));
  EXPECT_TRUE(q.push(300, /*tag=*/2));
  EXPECT_EQ(q.shard_depth(1), 5u);  // tags 1 and 5 share shard 1
  EXPECT_EQ(q.shard_depth(2), 1u);
  EXPECT_EQ(q.depth(), 6u);

  // Worker 1 serves its own shard: head tag 1 plus same-tag entries,
  // tag 5 stays behind despite sharing the shard.
  std::vector<int> batch;
  EXPECT_TRUE(q.pop_batch(1, batch, 8, 16));
  EXPECT_EQ(batch, (std::vector<int>{100, 101, 102}));
  EXPECT_TRUE(q.pop_batch(1, batch, 8, 16));
  EXPECT_EQ(batch, (std::vector<int>{200, 201}));
  EXPECT_EQ(q.stats().steals, 0u);  // own-shard claims are not steals
}

TEST(ShardedJobQueue, HomeShardWinsOverTagRouting) {
  ShardedJobQueue<int> q(4);
  // A worker's self-repost (home >= 0) stays on its shard even when the
  // tag hashes elsewhere — and is not counted as a cross-shard submit.
  EXPECT_TRUE(q.push(1, /*tag=*/3, /*home=*/2));
  EXPECT_EQ(q.shard_depth(2), 1u);
  EXPECT_EQ(q.shard_depth(3), 0u);
  EXPECT_EQ(q.stats().cross_shard_submits, 0u);

  // External submitters own no shard: every push of theirs crosses.
  EXPECT_TRUE(q.push(2, /*tag=*/3));
  EXPECT_EQ(q.shard_depth(3), 1u);
  EXPECT_EQ(q.stats().cross_shard_submits, 1u);
}

TEST(ShardedJobQueue, PushManyLandsContiguousOnOneShard) {
  ShardedJobQueue<int> q(4);
  EXPECT_TRUE(q.push(7, /*tag=*/1));
  std::vector<int> items = {10, 11, 12, 13};
  EXPECT_TRUE(q.push_many(items, /*tag=*/1, /*home=*/1));
  EXPECT_EQ(q.shard_depth(1), 5u);
  std::vector<int> batch;
  EXPECT_TRUE(q.pop_batch(1, batch, 8, 16));
  EXPECT_EQ(batch, (std::vector<int>{7, 10, 11, 12, 13}));
}

TEST(ShardedJobQueue, StealsBatchFromDeepestSibling) {
  ShardedJobQueue<int> q(4);
  for (int i = 0; i < 2; ++i) EXPECT_TRUE(q.push(100 + i, /*tag=*/1));
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(200 + i, /*tag=*/2));
  // Worker 0's own shard is empty; shard 2 is deepest, so the whole
  // head batch there is stolen in one claim.
  std::vector<int> batch;
  EXPECT_TRUE(q.pop_batch(0, batch, 8, 16));
  EXPECT_EQ(batch, (std::vector<int>{200, 201, 202, 203, 204}));
  const ShardedQueueStats stats = q.stats();
  EXPECT_EQ(stats.steals, 1u);
  EXPECT_EQ(stats.stolen_jobs, 5u);
  // Next claim steals the remaining shard-1 run.
  EXPECT_TRUE(q.pop_batch(0, batch, 8, 16));
  EXPECT_EQ(batch, (std::vector<int>{100, 101}));
  EXPECT_EQ(q.stats().steals, 2u);
}

TEST(ShardedJobQueue, ClosedQueueDrainsEveryNonEmptyShard) {
  // The PR 8 no-silent-job-loss guarantee under sharding: close() with
  // items spread across several shards must still hand every item out
  // before pop_batch returns false.
  ShardedJobQueue<int> q(4);
  for (int tag = 0; tag < 4; ++tag)
    for (int i = 0; i < 3; ++i)
      EXPECT_TRUE(q.push(tag * 10 + i, tag));
  q.close();
  EXPECT_FALSE(q.push(99, 0));

  std::vector<int> got;
  std::vector<int> batch;
  while (q.pop_batch(0, batch, 4, 16)) got.insert(got.end(), batch.begin(), batch.end());
  EXPECT_EQ(got.size(), 12u);
  std::sort(got.begin(), got.end());
  std::vector<int> want;
  for (int tag = 0; tag < 4; ++tag)
    for (int i = 0; i < 3; ++i) want.push_back(tag * 10 + i);
  EXPECT_EQ(got, want);
  EXPECT_EQ(q.depth(), 0u);
}

TEST(ShardedJobQueue, FifoPerTagHoldsAcrossSteals) {
  // A tag routes to exactly one shard and claims take the shard's head,
  // so per-tag FIFO survives even when every claim is a steal. One
  // consumer drains a 3-shard queue seeded with interleaved tags from
  // the "wrong" worker index.
  ShardedJobQueue<std::pair<int, int>> q(3);
  std::map<int, int> next_seq;
  util::Xoshiro256 prng(0x5EEDFACE);
  for (int i = 0; i < 120; ++i) {
    const int tag = static_cast<int>(prng.next_u64() % 6);
    EXPECT_TRUE(q.push({tag, next_seq[tag]++}, tag));
  }
  q.close();
  std::map<int, int> seen_seq;
  std::vector<std::pair<int, int>> batch;
  std::size_t total = 0;
  while (q.pop_batch(/*worker=*/7, batch, 4, 8)) {
    for (const auto& [tag, seq] : batch) {
      EXPECT_EQ(tag, batch.front().first);  // claims are same-tag only
      EXPECT_EQ(seq, seen_seq[tag]++) << "tag " << tag;
      ++total;
    }
  }
  EXPECT_EQ(total, 120u);
}

TEST(ShardedJobQueue, RandomizedSubmitStealStress) {
  // Seeded randomized stress: 3 producers × 2000 items over 6 tags into
  // a 4-shard queue, 3 consumers claiming with batching while stealing.
  // Invariants: exactly-once delivery, every claimed batch homogeneous
  // in tag, intra-batch sequence numbers strictly increasing (per-tag
  // FIFO of each claim), and the queue fully drained at close.
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 2000;
  ShardedJobQueue<std::pair<int, int>> q(4);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      util::Xoshiro256 prng(0xBEEF0000u + static_cast<std::uint64_t>(p));
      for (int i = 0; i < kPerProducer; ++i) {
        // Tags are partitioned per producer (p and p+3) so each tag has
        // a single writer and per-tag sequence numbers stay verifiable;
        // seq is the per-producer submission index, shared by both of
        // its tags — still strictly increasing within either.
        const int tag = p + kProducers * static_cast<int>(prng.next_u64() % 2);
        EXPECT_TRUE(q.push({tag, i}, tag));
      }
    });
  }

  std::mutex got_m;
  std::vector<std::vector<std::pair<int, int>>> got_batches;
  std::vector<std::thread> consumers;
  for (int w = 0; w < 3; ++w) {
    consumers.emplace_back([&q, &got_m, &got_batches, w] {
      std::vector<std::pair<int, int>> batch;
      while (q.pop_batch(w, batch, 8, 32)) {
        std::lock_guard lock(got_m);
        got_batches.push_back(batch);
      }
    });
  }

  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(q.depth(), 0u);

  std::size_t total = 0;
  std::map<int, std::vector<int>> per_tag;
  for (const auto& batch : got_batches) {
    ASSERT_FALSE(batch.empty());
    const int tag = batch.front().first;
    int prev = -1;
    for (const auto& [t, seq] : batch) {
      EXPECT_EQ(t, tag);         // homogeneous claim
      EXPECT_GT(seq, prev);      // intra-batch per-tag FIFO
      prev = seq;
      per_tag[tag].push_back(seq);
      ++total;
    }
  }
  EXPECT_EQ(total, static_cast<std::size_t>(kProducers * kPerProducer));
  // Exactly-once: each tag's multiset of sequence numbers matches what
  // its (single) producer pushed.
  for (auto& [tag, seqs] : per_tag) {
    std::sort(seqs.begin(), seqs.end());
    for (std::size_t i = 1; i < seqs.size(); ++i)
      EXPECT_NE(seqs[i - 1], seqs[i]) << "duplicate delivery, tag " << tag;
  }
}

TEST(ShardedJobQueue, PushesNeverBlockWithoutAConsumer) {
  // The queue has no bound of its own (its owner bounds what it
  // pushes): with no consumer running, 10k jobs over several tags and
  // shards go in through push and push_many without blocking, and the
  // claims then hand each tag's jobs back in push order.
  constexpr int kTags = 7;
  constexpr int kJobs = 10000;
  ShardedJobQueue<std::pair<int, int>> q(4);
  std::map<int, int> next_seq;
  std::vector<std::pair<int, int>> run;
  for (int i = 0; i < kJobs;) {
    const int tag = i % kTags;
    if (i % 3 == 0) {
      EXPECT_TRUE(q.push({tag, next_seq[tag]++}, tag));
      ++i;
    } else {
      // A same-tag run, on the tag's shard or on a worker's home shard.
      run.clear();
      for (int r = 0; r < 5 && i < kJobs; ++r, ++i)
        run.push_back({tag, next_seq[tag]++});
      const int home = i % 2 ? ShardedJobQueue<int>::kNoShard : tag % 4;
      EXPECT_TRUE(q.push_many(run, tag, home));
    }
  }
  EXPECT_EQ(q.depth(), static_cast<std::size_t>(kJobs));

  std::map<int, int> seen_seq;
  std::vector<std::pair<int, int>> batch;
  std::size_t total = 0;
  for (int w = 0; total < static_cast<std::size_t>(kJobs); w = (w + 1) % 4) {
    ASSERT_TRUE(q.pop_batch(w, batch, 16, 64));
    for (const auto& [tag, seq] : batch) {
      EXPECT_EQ(tag, batch.front().first);  // claims are same-tag only
      EXPECT_EQ(seq, seen_seq[tag]++) << "tag " << tag;
      ++total;
    }
  }
  EXPECT_EQ(q.depth(), 0u);

  q.close();
  EXPECT_FALSE(q.push({0, 0}, 0));
  run.assign(3, {1, 0});
  EXPECT_FALSE(q.push_many(run, 1));
  EXPECT_FALSE(q.pop_batch(0, batch, 16, 64));
}

}  // namespace
}  // namespace spinal::runtime
