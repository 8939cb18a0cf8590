// Direct tests of the bubble search core (spinal/beam_search.h) using
// synthetic environments with hand-crafted costs — no hashing, no
// channel — so the tree mechanics (expansion, grouping, selection,
// backtracking) are pinned down independently of the codec.

#include "spinal/beam_search.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "backend/backend.h"
#include "util/prng.h"

namespace spinal::detail {
namespace {

/// Environment whose "hash" packs the path into the state (k bits per
/// level) and whose node costs charge 1 for every chunk that differs
/// from a fixed target path, 0 otherwise. The unique zero-cost leaf is
/// the target.
struct TargetEnv {
  std::vector<std::uint32_t> target;  // chunk value per spine index
  int k;

  std::uint32_t child(std::uint32_t state, std::uint32_t chunk) const noexcept {
    return (state << k) | chunk;  // state encodes the path suffix
  }
  float node_cost(int spine_idx, std::uint32_t state) const noexcept {
    const std::uint32_t chunk = state & ((1u << k) - 1u);
    return chunk == target[spine_idx] ? 0.0f : 1.0f;
  }
};

CodeParams params_for(int chunks, int k, int B, int d) {
  CodeParams p;
  p.n = chunks * k;
  p.k = k;
  p.B = B;
  p.d = d;
  p.s0 = 0;
  return p;
}

class AllDepths : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(D, AllDepths, ::testing::Values(1, 2, 3, 4),
                         [](const auto& info) {
                           return "d" + std::to_string(info.param);
                         });

TEST_P(AllDepths, FindsUniqueZeroCostPath) {
  const int k = 2, chunks = 8;
  TargetEnv env{{3, 1, 0, 2, 2, 1, 3, 0}, k};
  const CodeParams p = params_for(chunks, k, /*B=*/4, GetParam());
  const BeamSearch<TargetEnv> search;
  const SearchResult r = search.run(env, p);
  EXPECT_EQ(r.chunks, env.target);
  EXPECT_FLOAT_EQ(r.best_cost, 0.0f);
}

TEST_P(AllDepths, CostAccumulatesAlongPath) {
  // With a beam wide enough to hold everything, the reported best cost
  // must be exactly 0 and any single-chunk perturbation of the target
  // costs exactly 1 (checked via a tie among all-but-one matches).
  const int k = 1, chunks = 6;
  TargetEnv env{{1, 0, 1, 1, 0, 1}, k};
  const CodeParams p = params_for(chunks, k, /*B=*/64, GetParam());
  const BeamSearch<TargetEnv> search;
  const SearchResult r = search.run(env, p);
  EXPECT_EQ(r.chunks, env.target);
  EXPECT_FLOAT_EQ(r.best_cost, 0.0f);
}

TEST(BeamSearch, BeamWidthOneIsGreedy) {
  // B=1, d=1 commits greedily chunk by chunk. Costs that mislead the
  // first step (cheap wrong chunk, expensive later) defeat it — the
  // classic sequential-decoding failure the beam exists to fix.
  struct GreedyTrapEnv {
    // chunk 0: wrong value 0 costs 0.1, right value 1 costs 0.2.
    // chunk 1: conditioned on a prefix-encoded state, punish the trap.
    std::uint32_t child(std::uint32_t state, std::uint32_t chunk) const noexcept {
      return (state << 1) | chunk;
    }
    float node_cost(int spine_idx, std::uint32_t state) const noexcept {
      if (spine_idx == 0) return (state & 1) ? 0.2f : 0.1f;
      // paths: state bits = (chunk0, chunk1). True path 1,1.
      const bool took_trap = ((state >> 1) & 1) == 0;
      if (spine_idx == 1) return took_trap ? 5.0f : ((state & 1) ? 0.0f : 1.0f);
      return 0.0f;
    }
  };
  GreedyTrapEnv env;
  CodeParams greedy = params_for(2, 1, 1, 1);
  CodeParams wide = params_for(2, 1, 4, 1);
  const BeamSearch<GreedyTrapEnv> search;
  const SearchResult r_greedy = search.run(env, greedy);
  const SearchResult r_wide = search.run(env, wide);
  // Greedy falls for the trap at chunk 0 (total 0.1+5.0; chunk 1 is a
  // tie on the trap branch); the wide beam recovers (total 0.2+0.0).
  EXPECT_EQ(r_greedy.chunks[0], 0u);
  EXPECT_FLOAT_EQ(r_greedy.best_cost, 5.1f);
  EXPECT_EQ(r_wide.chunks, (std::vector<std::uint32_t>{1, 1}));
  EXPECT_FLOAT_EQ(r_wide.best_cost, 0.2f);
}

TEST(BeamSearch, DeeperBubbleSeesPastOneStepTraps) {
  // The same trap, B=1 but d=2: the lookahead spans both chunks, so
  // even a single-subtree beam finds the cheaper total (Fig 4-1's
  // motivation for depth).
  struct TrapEnv {
    std::uint32_t child(std::uint32_t state, std::uint32_t chunk) const noexcept {
      return (state << 1) | chunk;
    }
    float node_cost(int spine_idx, std::uint32_t state) const noexcept {
      if (spine_idx == 0) return (state & 1) ? 0.2f : 0.1f;
      const bool took_trap = ((state >> 1) & 1) == 0;
      return took_trap ? 5.0f : 0.0f;
    }
  };
  TrapEnv env;
  const CodeParams p = params_for(2, 1, 1, 2);
  const BeamSearch<TrapEnv> search;
  const SearchResult r = search.run(env, p);
  EXPECT_EQ(r.chunks[0], 1u);
  EXPECT_FLOAT_EQ(r.best_cost, 0.2f);
}

TEST(BeamSearch, ZeroCostSpinePositionsAreNeutral) {
  // Punctured positions contribute zero cost; the search must still
  // find the target determined by the sampled positions (§5).
  struct PuncturedEnv {
    std::vector<std::uint32_t> target;
    std::vector<bool> sampled;
    std::uint32_t child(std::uint32_t state, std::uint32_t chunk) const noexcept {
      return (state * 37u) ^ chunk;  // arbitrary injective-ish update
    }
    float node_cost(int spine_idx, std::uint32_t) const noexcept {
      return sampled[spine_idx] ? -1.0f : 0.0f;  // see note below
    }
  };
  // A cost of -1 at sampled positions rewards every path equally, so
  // the result is a pure tie — the point is that the search completes
  // and returns a well-formed chunk sequence.
  PuncturedEnv env{{0, 0, 0, 0}, {true, false, true, false}};
  const CodeParams p = params_for(4, 2, 8, 1);
  const BeamSearch<PuncturedEnv> search;
  const SearchResult r = search.run(env, p);
  EXPECT_EQ(r.chunks.size(), 4u);
  EXPECT_FLOAT_EQ(r.best_cost, -2.0f);
}

TEST(BeamSearch, ShortFinalChunkLimitsFanout) {
  // n not divisible by k: the final chunk has fewer bits, so the
  // decoded value there must stay below 2^chunk_bits.
  const int k = 3;
  CodeParams p;
  p.n = 10;  // chunks: 3,3,3,1
  p.k = k;
  p.B = 8;
  p.d = 1;
  struct AnyEnv {
    std::uint32_t child(std::uint32_t s, std::uint32_t c) const noexcept {
      return s * 31 + c;
    }
    float node_cost(int, std::uint32_t s) const noexcept {
      return static_cast<float>(s % 7) * 0.01f;
    }
  };
  const BeamSearch<AnyEnv> search;
  const SearchResult r = search.run(AnyEnv{}, p);
  ASSERT_EQ(r.chunks.size(), 4u);
  EXPECT_LT(r.chunks[3], 2u);  // 1-bit final chunk
  for (int i = 0; i < 3; ++i) EXPECT_LT(r.chunks[i], 8u);
}

TEST(BeamSearch, SingleChunkMessage) {
  // Degenerate n <= k: one chunk, pure argmin over 2^n values.
  TargetEnv env{{2}, 2};
  const CodeParams p = params_for(1, 2, 4, 1);
  const BeamSearch<TargetEnv> search;
  const SearchResult r = search.run(env, p);
  EXPECT_EQ(r.chunks, env.target);
}

/// A synthetic Env with the batched expand_all kernel: hash-mixed
/// states and pseudo-random non-negative node costs (the streamed
/// pipeline's admissibility contract). Wrapping the same cost function
/// with and without the kernel routes one search through the streaming
/// expand-prune pipeline and the other through the reference
/// materialize-then-select path — results must be bit-identical.
struct SyntheticEnv {
  std::uint32_t salt;
  std::uint32_t child(std::uint32_t state, std::uint32_t chunk) const noexcept {
    std::uint32_t x = (state ^ (chunk * 0x9E3779B9u)) + salt;
    x ^= x >> 16;
    x *= 0x7FEB352Du;
    x ^= x >> 15;
    return x;
  }
  float node_cost(int spine_idx, std::uint32_t state) const noexcept {
    const std::uint32_t h = child(state, static_cast<std::uint32_t>(spine_idx) + 77u);
    return static_cast<float>(h >> 8) * (1.0f / (1u << 24));  // [0, 1), never -0
  }
};

struct BatchedSyntheticEnv : SyntheticEnv {
  void expand_all(int spine_idx, const std::uint32_t* states, std::size_t count,
                  int fanout, std::uint32_t* out_states, float* out_costs) const {
    for (std::size_t i = 0; i < count; ++i)
      for (int v = 0; v < fanout; ++v) {
        const std::uint32_t st = child(states[i], static_cast<std::uint32_t>(v));
        out_states[i * fanout + v] = st;
        out_costs[i * fanout + v] = node_cost(spine_idx, st);
      }
  }
};

/// SyntheticEnv with the shapes a punctured, integer-metric decode
/// gives a level: spine positions whose index is a multiple of three
/// received nothing (every node costs 0, so each child costs exactly
/// its parent), the rest charge small integers that tie beam-wide.
struct PuncturedTieEnv : SyntheticEnv {
  float node_cost(int spine_idx, std::uint32_t state) const noexcept {
    if (spine_idx % 3 == 0) return 0.0f;
    return SyntheticEnv::node_cost(spine_idx, state) < 0.5f
               ? 0.0f
               : static_cast<float>(1 + (state & 3));
  }
};

struct BatchedPuncturedTieEnv : PuncturedTieEnv {
  void expand_all(int spine_idx, const std::uint32_t* states, std::size_t count,
                  int fanout, std::uint32_t* out_states, float* out_costs) const {
    for (std::size_t i = 0; i < count; ++i)
      for (int v = 0; v < fanout; ++v) {
        const std::uint32_t st = child(states[i], static_cast<std::uint32_t>(v));
        out_states[i * fanout + v] = st;
        out_costs[i * fanout + v] = node_cost(spine_idx, st);
      }
  }
};

/// One search down the reference path (RefEnv) and down the streamed
/// pipeline (BatchedEnv, same costs) on every kernel backend (the
/// streamed path routes its prune/regroup/selection through the active
/// table): identical chunks, exact-bit costs and the same final beam —
/// states and costs in kept order, which a candidate lost at any level
/// would change.
template <class RefEnv, class BatchedEnv>
void expect_streamed_matches_reference(const CodeParams& p, std::uint32_t salt,
                                       const std::string& where) {
  RefEnv ref_env{};
  ref_env.salt = salt;
  BatchedEnv env{};
  env.salt = salt;
  SearchWorkspace ref_ws;
  SearchResult ref;
  BeamSearch<RefEnv>().run(ref_env, p, ref_ws, ref);
  for (const backend::Backend* b : backend::available()) {
    ASSERT_TRUE(backend::force(b->name));
    SearchWorkspace ws;
    SearchResult got;
    BeamSearch<BatchedEnv>().run(env, p, ws, got);
    EXPECT_EQ(got.chunks, ref.chunks) << where << " backend=" << b->name;
    EXPECT_EQ(got.best_cost, ref.best_cost) << where << " backend=" << b->name;
    EXPECT_EQ(ws.leaf_state, ref_ws.leaf_state) << where << " backend=" << b->name;
    EXPECT_EQ(ws.f32.leaf_cost, ref_ws.f32.leaf_cost) << where << " backend=" << b->name;
  }
}

TEST(BeamSearch, StreamedPipelineMatchesReferencePath) {
  // Across depths, beam widths and chunk sizes, with continuous costs
  // and then with zero-symbol levels and exact integer ties (where the
  // seeded bound and the sorted-leaf cutoff end levels early and cut
  // on ties; pruning must stay admissible there).
  const char* const original = backend::active().name;
  util::Xoshiro256 prng(77);
  for (int d = 1; d <= 3; ++d) {
    for (int k : {2, 3}) {
      for (int B : {4, 16, 64}) {
        CodeParams p = params_for(10, k, B, d);
        p.s0 = static_cast<std::uint32_t>(prng.next_u64());
        expect_streamed_matches_reference<SyntheticEnv, BatchedSyntheticEnv>(
            p, static_cast<std::uint32_t>(prng.next_u64()),
            "d=" + std::to_string(d) + " k=" + std::to_string(k) + " B=" + std::to_string(B));
      }
    }
  }
  for (int trial = 0; trial < 16; ++trial) {
    for (int d = 1; d <= 2; ++d) {
      for (int k : {2, 4}) {
        for (int B : {1, 2, 3, 4, 16, 64}) {
          CodeParams p = params_for(9, k, B, d);
          p.s0 = static_cast<std::uint32_t>(prng.next_u64());
          expect_streamed_matches_reference<PuncturedTieEnv, BatchedPuncturedTieEnv>(
              p, static_cast<std::uint32_t>(prng.next_u64()),
              "ties trial=" + std::to_string(trial) + " d=" + std::to_string(d) +
                  " k=" + std::to_string(k) + " B=" + std::to_string(B));
        }
      }
    }
  }
  backend::force(original);
}

TEST(BeamSearch, DepthCappedToSpineLength) {
  // d larger than the spine: must behave as exact search, not crash.
  TargetEnv env{{1, 3, 2}, 2};
  CodeParams p = params_for(3, 2, 16, 1);
  p.d = 10;  // > spine length 3
  const BeamSearch<TargetEnv> search;
  const SearchResult r = search.run(env, p);
  EXPECT_EQ(r.chunks, env.target);
}

}  // namespace
}  // namespace spinal::detail
