#pragma once
// The bubble decoder's tree search core (§4.3, Fig 4-1).
//
// Beam entries are subtrees: a root at depth t plus all descendants out
// to depth t+d-1 (the "partial trees of depth d-1" of Fig 4-1a). One
// step expands every leaf by one level (B·2^(kd) new nodes, §4.5),
// regroups the expanded nodes into the 2^k child subtrees of each root
// (Fig 4-1b/c), and keeps the B best-scoring subtrees (Fig 4-1d).
// With d=1 this is exactly the classical M-algorithm; with d = n/k and
// B >= 2^k it degenerates to exact ML over the full tree.
//
// The Env policy supplies the code structure and branch metric:
//   std::uint32_t child(std::uint32_t state, std::uint32_t chunk) const;
//   float node_cost(int spine_idx, std::uint32_t state) const;
// node_cost must return 0 for spine values with no received symbols, so
// puncturing needs no special handling here (§5).
//
// An Env may additionally provide the fused batched expansion kernel
//   void expand_all(int spine_idx, const std::uint32_t* states,
//                   std::size_t count, int fanout,
//                   std::uint32_t* out_states, float* out_costs) const;
// computing, child-major, out_states[i*fanout + v] = child(states[i], v)
// and out_costs[i*fanout + v] = node_cost(spine_idx, out_states[...])
// for every chunk value v < fanout over a contiguous leaf block. When
// present, the search runs as a *streaming expand–prune pipeline*
// instead of the historical materialize-then-select contract:
//
//   - leaves are expanded in blocks (a few hundred children at a
//     time), never into a monolithic [leaf][fanout] candidate buffer;
//   - an online pruning threshold — an upper bound on the B-th-best
//     candidate key — discards losing children as each block's costs
//     come out of the kernel, without writing them anywhere. At d=1 a
//     pruning level seeds it without any select: its first block is
//     just the ceil(B / 2^k) leaves that hold B candidates, and the
//     largest of their keys is admissible (B candidates sit at or
//     below it). The backend's tighten then lowers it block by block
//     to a sampled pivot over the small survivor set — admissible, not
//     exact: at least B survivors sit at or below it, and the exact
//     select runs once, at the end of the level;
//   - because kept beams are sorted by (cost, index), whole trailing
//     leaf blocks (d=1) or entries (d>1) are skipped outright once
//     their key floor — parent cost, plus the first candidate index
//     so that exact cost ties cut too — exceeds the bound. A level
//     with no received symbols (every child costs its parent) thus
//     ends right after its seed block; and
//   - at d>1 the regroup runs as a backend kernel over whole child
//     rows (every child of a leaf shares its root group), replacing
//     the old scalar scatter.
//
// Pruning is admissible, not approximate: a candidate is discarded
// only when its cost provably exceeds the current keep-th-best bound,
// so the kept set — and, through the packed (cost, index) keys, every
// deterministic tie-break — is bit-identical to full expand+select and
// to the retained scalar reference path (see test_decoder_golden.cpp
// and the streaming property tests). This leans on the batched Env
// contract that node costs are non-negative (all channel metrics are)
// and never -0.0f. The search allocates nothing once its
// SearchWorkspace buffers reach steady-state capacity, so repeated
// decode attempts are allocation-free.
//
// The streamed pipeline is written once and instantiated per *cost
// lane* (backend::F32Lane, backend::U16Lane): the lane traits carry the
// cost and key words, key pack/unpack, plain vs saturating add,
// renormalization, refinement cadence and per-level floor. An Env
// opts into the U16Lane by also providing lane overloads of its
// batched contract (see QuantizedSearchEnv).

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "backend/backend.h"
#include "spinal/params.h"

namespace spinal::detail {

using backend::F32Lane;
using backend::U16Lane;

struct SearchResult {
  std::vector<std::uint32_t> chunks;  ///< decoded chunk values, index 0 .. n/k-1
  double best_cost = 0.0;             ///< path cost of the returned leaf
};

/// Backtracking arena entry: one node per selected subtree per step.
struct ArenaNode {
  std::int32_t parent;
  std::uint32_t chunk;
};

/// The cost- and key-typed buffers of one cost lane. Candidate *costs*
/// only ever exist one expansion block at a time (child_cost);
/// candidate *keys* only as the pruned survivor set.
template <class Lane>
struct LaneBuffers {
  using cost_t = typename Lane::cost_t;
  std::vector<cost_t> leaf_cost, next_cost;
  std::vector<cost_t> child_cost;  ///< one expansion block, child-major
  std::vector<typename Lane::key_t> keys;  ///< survivor keys (cost, cand index)
  std::vector<cost_t> surv_cost;   ///< d>1 leaf rows, candidate-indexed
  std::vector<cost_t> row_min;     ///< d>1: per-leaf row minima (block)
  std::vector<cost_t> group_min;   ///< d>1: per-entry group minima
};

/// Scratch buffers for BeamSearch::run. Reusing one workspace across
/// attempts keeps the steady state allocation-free: every buffer is
/// sized by assign/resize, which only touch the heap while the high-water
/// capacity is still growing (sizes depend only on the CodeParams, so
/// after the first full run they never grow again). The streamed path
/// materializes candidate *costs* one expansion block at a time and
/// candidate *keys* only for bound survivors, where the retired
/// materialize-then-select contract wrote the full B·2^k cost and key
/// arrays every level.
///
/// Member order is a cache decision: every buffer a d=1 level touches
/// comes first, ahead of the f32 lane's buffers, so a small decode
/// reads as few vector headers' cache lines as it can. A worker runs
/// every block of a batch back to back in its one pinned workspace, so
/// after the first block those header lines are hits.
struct SearchWorkspace {
  std::vector<std::uint32_t> leaf_state, leaf_path, next_state, next_path;
  std::vector<std::int32_t> entry_arena, next_entry_arena;
  std::vector<ArenaNode> arena;
  /// Streamed pipeline: child states (d=1: whole level; d>1: one block)
  /// land in a candidate-indexed buffer, so the writeback needs no
  /// bookkeeping beyond the candidate index in each survivor key.
  std::vector<std::uint32_t> child_state;

  // One buffer set per cost lane. A decode only touches its own lane's
  // set, so the f32 path's steady-state footprint is unchanged by the
  // quantized one.
  LaneBuffers<F32Lane> f32;
  LaneBuffers<U16Lane> u16;

  // ---- d>1 streamed regroup: surviving group rows, candidate-indexed ----
  std::vector<std::uint32_t> surv_state, surv_path;
  std::vector<std::int32_t> group_rowbase;  ///< group -> arena rows, -1 pruned

  template <class Lane>
  LaneBuffers<Lane>& lane() noexcept {
    if constexpr (std::is_same_v<Lane, F32Lane>)
      return f32;
    else
      return u16;
  }

  // ---- Reference (per-node Env) path: materialized candidate set ----
  std::vector<std::uint32_t> cand_state, cand_path;
  std::vector<float> cand_cost, cand_min;
  std::vector<int> fill;
};

template <class Env>
concept BatchedSearchEnv = requires(const Env& e, const std::uint32_t* st,
                                    std::uint32_t* os, float* oc) {
  e.expand_all(0, st, std::size_t{0}, 0, os, oc);
};

/// An Env may pin the kernel backend its batched kernels run on; the
/// search then routes its own lane-parallel pieces (the streaming
/// prune and regroup kernels) through the same backend table.
template <class Env>
concept BackendSearchEnv = requires(const Env& e) {
  { e.search_backend() } -> std::convertible_to<const backend::Backend&>;
};

/// An Env may further fuse expansion and prune into one kernel call
/// per lane (LaneKernels::awgn_expand_prune in Backend::f32 / u16): the
/// d=1 search then hands it the parent costs, the bound and the key
/// buffer instead of splitting the block into expand_all + d1_prune,
/// and the kernel narrows its metric sweeps to partial-cost survivors
/// after the first symbol. Must be bit-identical to the split pair.
template <class Env, class Lane>
concept FusedPruneSearchEnv = requires(const Env& e, const std::uint32_t* st,
                                       const typename Lane::cost_t* pc,
                                       std::uint32_t* os, typename Lane::key_t* ok) {
  {
    e.expand_prune(0, st, pc, std::size_t{0}, 0, std::uint32_t{0},
                   typename Lane::key_t{0}, os, ok)
  } -> std::convertible_to<std::size_t>;
};

/// An Env may additionally run the U16Lane (quantized path metric).
/// quantized() is a *runtime* switch: the Env checks per-decode
/// eligibility (precision knob, channel kind, geometry bounds) and the
/// search falls back to the F32Lane when it returns false. Quantized
/// path costs ride a 2^-quant_scale() metric grid with saturation at
/// 65535 and per-level renormalization (see spinal/cost_model.h). Such
/// an Env supplies U16Lane overloads of the batched contract —
/// expand_all with u16 costs, expand_prune with u16 parents and u32
/// keys, node_cost(spine, state, U16Lane{}) — plus level_floor(spine),
/// the level's admissible per-child cost floor.
template <class Env>
concept QuantizedSearchEnv = requires(const Env& e) {
  { e.quantized() } -> std::convertible_to<bool>;
  { e.quant_scale() } -> std::convertible_to<float>;
};

template <class Env>
class BeamSearch {
 public:
  /// Convenience overload with throwaway scratch (tests, one-shot use).
  SearchResult run(const Env& env, const CodeParams& p) const {
    SearchWorkspace ws;
    SearchResult out;
    run(env, p, ws, out);
    return out;
  }

  /// Runs one full decode attempt over the received data captured in
  /// @p env, reusing @p ws scratch and writing into @p out. The tree is
  /// rebuilt from scratch every attempt (§7.1 explains why caching
  /// between attempts does not pay off). Envs with the batched
  /// expand_all kernel take the streaming expand–prune pipeline; plain
  /// per-node Envs take the retained materialize-then-select reference
  /// path — both produce bit-identical results.
  void run(const Env& env, const CodeParams& p, SearchWorkspace& ws,
           SearchResult& out) const {
    if constexpr (BatchedSearchEnv<Env>)
      run_streamed(env, p, ws, out);
    else
      run_reference(env, p, ws, out);
  }

 private:
  /// Cross-level state of one search: fixed at its start (depth,
  /// backend, path tracking) or carried from one level to the next
  /// (leaf grouping, sort order, renormalization offset).
  struct SearchCursor {
    const backend::Backend* be = nullptr;
    int d = 1;                  ///< effective bubble depth, min(p.d, S)
    int leaves_per_entry = 1;
    std::uint32_t group_mask = 0;
    bool use_paths = false;
    bool leaves_sorted = false;
    std::uint64_t offset = 0;   ///< U16Lane renormalization offset
  };

  /// Children per expansion block: small enough that a block's states,
  /// costs and kernel scratch stay cache-resident across the per-symbol
  /// metric sweeps, large enough to amortize the kernel dispatch. A
  /// pruning d=1 level's first block is its bound seed instead, sized
  /// to keep candidates.
  static constexpr int kBlockChildren = 512;

  static void init_cursor(const Env& env, const CodeParams& p, SearchCursor& cur) {
    const int S = p.spine_length();
    cur = SearchCursor{};
    cur.d = std::min(p.d, S);
    // The lane-parallel kernels route through a backend table; envs
    // that pin one override the process-wide default. All backends are
    // bit-identical, so the choice never changes results.
    cur.be = &backend::active();
    if constexpr (BackendSearchEnv<Env>) cur.be = &env.search_backend();
    cur.group_mask = (p.k < 32) ? ((1u << p.k) - 1u) : ~0u;
    // With d == 1 every partial path is empty (ext = v, ext >> k = 0),
    // so the path arrays would hold nothing but zeroes — skip them.
    cur.use_paths = cur.d > 1;
  }

  /// The Env's per-node metric in lane @p Lane's cost word.
  template <class Lane>
  static auto node_cost(const Env& env, int spine_idx, std::uint32_t state) {
    if constexpr (std::is_same_v<Lane, F32Lane>)
      return env.node_cost(spine_idx, state);
    else
      return env.node_cost(spine_idx, state, Lane{});
  }

  /// ---- Shared prologue: single root s0, leaves out to depth d-1 ----
  /// (path chunks 0 .. d-2; all full k bits since d-2 <= S-2). This
  /// touches at most 2^(k(d-1)) nodes, so it stays scalar.
  template <class Lane>
  static void build_prologue(const Env& env, const CodeParams& p, int d,
                             SearchWorkspace& ws) {
    using cost_t = typename Lane::cost_t;
    LaneBuffers<Lane>& lw = ws.lane<Lane>();
    const int k = p.k;
    ws.leaf_state.assign(1, p.s0);
    lw.leaf_cost.assign(1, cost_t{0});
    ws.leaf_path.assign(1, 0);
    for (int lvl = 0; lvl <= d - 2; ++lvl) {
      const int fanout = 1 << p.chunk_bits(lvl);
      const std::size_t n = ws.leaf_state.size();
      ws.next_state.resize(n * fanout);
      lw.next_cost.resize(n * fanout);
      ws.next_path.resize(n * fanout);
      std::size_t w = 0;
      for (std::size_t i = 0; i < n; ++i) {
        for (int v = 0; v < fanout; ++v, ++w) {
          const std::uint32_t st = env.child(ws.leaf_state[i], static_cast<std::uint32_t>(v));
          ws.next_state[w] = st;
          lw.next_cost[w] = static_cast<cost_t>(
              Lane::add(lw.leaf_cost[i], node_cost<Lane>(env, lvl, st)));
          ws.next_path[w] = ws.leaf_path[i] | (static_cast<std::uint32_t>(v) << (k * lvl));
        }
      }
      ws.leaf_state.swap(ws.next_state);
      lw.leaf_cost.swap(lw.next_cost);
      ws.leaf_path.swap(ws.next_path);
    }
    ws.arena.clear();
    ws.arena.push_back({-1, 0});  // virtual node for the depth-0 root
    ws.entry_arena.assign(1, 0);  // arena node of each beam entry
  }

  /// ---- Shared epilogue: global best leaf, then backtrack (§4.4: tail
  /// symbols make the lowest-cost candidate the right one to validate).
  /// A renormalizing lane folds the accumulated offset back in and
  /// rescales to the f32 metric's units, so callers compare like with
  /// like.
  template <class Lane>
  static void backtrack(const Env& env, const CodeParams& p, const SearchCursor& cur,
                        SearchWorkspace& ws, SearchResult& out) {
    const auto& cost = ws.lane<Lane>().leaf_cost;
    std::size_t best = 0;
    for (std::size_t i = 1; i < cost.size(); ++i)
      if (cost[i] < cost[best]) best = i;
    if constexpr (Lane::kRenormalize)
      out.best_cost = static_cast<double>(cur.offset + cost[best]) /
                      static_cast<double>(env.quant_scale());
    else
      out.best_cost = cost[best];

    const int S = p.spine_length();
    const int k = p.k;
    const int d = cur.d;
    out.chunks.assign(S, 0);

    // Leaf path covers chunks S-d+1 .. S-1 (slots 0 .. d-2).
    const int entry_of_best = static_cast<int>(best) / std::max(cur.leaves_per_entry, 1);
    for (int j = 0; j <= d - 2; ++j)
      out.chunks[S - d + 1 + j] = (ws.leaf_path[best] >> (k * j)) & cur.group_mask;

    // Arena covers chunks S-d .. 0, innermost last.
    std::int32_t node = ws.entry_arena[entry_of_best];
    int chunk_idx = S - d;
    while (node >= 0 && ws.arena[node].parent >= 0) {
      out.chunks[chunk_idx--] = ws.arena[node].chunk;
      node = ws.arena[node].parent;
    }
  }

  /// Sorts the final survivor keys of one level into the kept order the
  /// historical full select produced: ascending (cost, candidate index)
  /// whenever pruning was possible (keep < cand_total), untouched
  /// append order — the historical candidate-index layout — when
  /// nothing could be pruned. Survivor keys are bit-for-bit the keys
  /// the old full build would have produced (just a filtered subset
  /// that provably contains the kept set), so this is the same
  /// selection, run over far fewer keys.
  template <class Lane>
  static void finalize_keys(const backend::LaneKernels<Lane>& kern, LaneBuffers<Lane>& lw,
                            std::size_t sc, int keep, int cand_total) {
    if (keep >= cand_total) return;  // no pruning: candidate order is the contract
    kern.select(lw.keys.data(), sc, static_cast<std::size_t>(keep));
  }

  /// Tightens the online pruning bound — the block-local refinement
  /// that replaced the global select. The backend's tighten returns an
  /// admissible bound (at least keep survivors at or below it) and
  /// truncates the buffer to the survivors that clear it: survivors
  /// past the bound can never be kept, and keys are pure (cost,
  /// candidate index) values, so no record gathering is involved.
  template <class Lane>
  static void tighten(const backend::LaneKernels<Lane>& kern, LaneBuffers<Lane>& lw,
                      int keep, std::size_t& sc, typename Lane::key_t& bound_key) {
    if (sc <= static_cast<std::size_t>(keep)) return;
    sc = kern.tighten(lw.keys.data(), sc, static_cast<std::size_t>(keep), &bound_key);
  }

  /// ---- Streaming expand–prune pipeline (batched Envs) ----
  /// Runs in the U16Lane when the Env's per-decode eligibility says so
  /// (Env::quantized()); Envs without the quantized contract never
  /// instantiate it.
  void run_streamed(const Env& env, const CodeParams& p, SearchWorkspace& ws,
                    SearchResult& out) const
    requires BatchedSearchEnv<Env>
  {
    if constexpr (QuantizedSearchEnv<Env>) {
      if (env.quantized()) return run_lane<U16Lane>(env, p, ws, out);
    }
    run_lane<F32Lane>(env, p, ws, out);
  }

  /// Prologue, one step per level t = 0 .. S-d, epilogue.
  template <class Lane>
  void run_lane(const Env& env, const CodeParams& p, SearchWorkspace& ws,
                SearchResult& out) const {
    SearchCursor cur;
    init_cursor(env, p, cur);
    build_prologue<Lane>(env, p, cur.d, ws);
    cur.leaves_per_entry = static_cast<int>(ws.leaf_state.size());
    for (int t = 0; t <= p.spine_length() - cur.d; ++t)
      step_streamed<Lane>(env, p, ws, cur, t);
    backtrack<Lane>(env, p, cur, ws, out);
  }

  /// One level of the streamed pipeline in cost lane @p Lane, with the
  /// cross-level state read from and written back to the cursor. Kept
  /// beams come out cost-sorted whenever the level could prune (keep <
  /// cand_total) — only then may trailing leaves/entries be cut off
  /// wholesale on the parent cost alone.
  template <class Lane>
  void step_streamed(const Env& env, const CodeParams& p, SearchWorkspace& ws,
                     SearchCursor& cur, int t) const
    requires BatchedSearchEnv<Env>
  {
    using cost_t = typename Lane::cost_t;
    using key_t = typename Lane::key_t;
    LaneBuffers<Lane>& lw = ws.lane<Lane>();
    const backend::LaneKernels<Lane>& kern = cur.be->template lane<Lane>();
    const int d = cur.d;
    const int k = p.k;
    const int B = p.B;
    const std::uint32_t group_mask = cur.group_mask;
    const bool leaves_sorted = cur.leaves_sorted;
    const int leaves_per_entry = cur.leaves_per_entry;

    // ---- One step t of 0 .. S-d, expansion chunk e = t+d-1 ----
    const int e = t + d - 1;                    // chunk evaluated this step
    const int fanout = 1 << p.chunk_bits(e);    // children per expanded leaf
    const int group_bits = p.chunk_bits(t);
    const int group_count = 1 << group_bits;    // candidate subtrees per entry
    const int entries = static_cast<int>(ws.entry_arena.size());
    const int rows = (leaves_per_entry * fanout) >> group_bits;  // leaves per candidate
    const int cand_total = entries * group_count;
    const std::size_t total_leaves = ws.leaf_state.size();

    const int keep = std::min(B, cand_total);
    const std::size_t trigger = Lane::kRefine * static_cast<std::size_t>(keep);
    // The online pruning threshold: the running keep-th-best *packed
    // key* (cost word plus candidate-index tie-break, so exact cost
    // ties past the bound prune too — decisive for integer metrics).
    key_t bound_key = Lane::kKeepAll;  // no bound until seeded
    std::size_t sc = 0;                // survivors appended so far
    // Survivor keys carry the global candidate index; worst case
    // every candidate survives (+ slack for SIMD compress stores).
    lw.keys.resize(static_cast<std::size_t>(cand_total) + backend::kCompressSlack);

    // The admissible key floor of every candidate at index >= cand
    // under a parent of cost c. Lanes with a level floor add the
    // level's summed per-symbol row minima, so the sorted-prefix
    // cutoffs below skip whole leaves *before hashing them* — the
    // spine-hash chains are the latency wall, so rows gated here are
    // the cheapest rows of all. The index word makes the floor cut on
    // exact cost ties too: sorted parents ascend in (cost, index), and
    // a later parent's candidates carry higher indices.
    std::uint32_t lvl_floor = 0;
    if constexpr (Lane::kLevelFloor) lvl_floor = env.level_floor(e);
    const auto floor_key = [&](cost_t c, std::size_t cand) -> key_t {
      const auto ci = static_cast<std::uint32_t>(cand);
      if constexpr (Lane::kLevelFloor)
        return Lane::key(Lane::add(c, lvl_floor), ci);
      else
        return Lane::key(c, ci);
    };

    if (d == 1) {
      // One leaf per candidate: the child-major kernel output of each
      // block IS a candidate slice (cand = leaf*fanout + v), streamed
      // through the fused finalize+prune kernel. States land in a
      // level-wide candidate-indexed buffer (the writeback reads them
      // by key); costs only ever exist one block at a time.
      // A pruning level first expands just the ceil(keep / fanout)
      // leaves that hold keep candidates, as a seed block of its own:
      // the largest of those keys is an admissible bound — at least
      // keep candidates sit at or below it — set without any select.
      // On a level with received symbols that bound is loose (it is
      // the worst child of the best parents), and the refinement after
      // the next full block does the tightening. On a level with none,
      // every child costs its parent, so the seed holds the kept set
      // and the sorted-leaf cutoff ends the level right after it.
      const std::size_t fan = static_cast<std::size_t>(fanout);
      const std::size_t block_leaves = std::max<std::size_t>(1, kBlockChildren / fan);
      const bool prune = keep < cand_total;
      const std::size_t seed_leaves = (static_cast<std::size_t>(keep) + fan - 1) / fan;
      ws.child_state.resize(static_cast<std::size_t>(cand_total));
      if constexpr (!FusedPruneSearchEnv<Env, Lane>)
        lw.child_cost.resize(std::max(block_leaves, seed_leaves) * fan);

      std::size_t L = 0;
      while (L < total_leaves) {
        std::size_t end =
            std::min(total_leaves, L + (prune && L == 0 ? seed_leaves : block_leaves));
        if (leaves_sorted) {
          // Ascending parents: every candidate of a leaf keys at least
          // its floor, so the first leaf past the bound ends the level
          // (and back-trimming skips a partial tail block).
          if (floor_key(lw.leaf_cost[L], L * fan) > bound_key) break;
          while (end > L + 1 && floor_key(lw.leaf_cost[end - 1], (end - 1) * fan) > bound_key)
            --end;
        }
        const std::size_t nblk = end - L;
        if constexpr (FusedPruneSearchEnv<Env, Lane>) {
          sc += env.expand_prune(
              e, ws.leaf_state.data() + L, lw.leaf_cost.data() + L, nblk, fanout,
              static_cast<std::uint32_t>(L) * fanout, bound_key,
              ws.child_state.data() + L * static_cast<std::size_t>(fanout),
              lw.keys.data() + sc);
        } else {
          env.expand_all(e, ws.leaf_state.data() + L, nblk, fanout,
                         ws.child_state.data() + L * static_cast<std::size_t>(fanout),
                         lw.child_cost.data());
          sc += kern.d1_prune(lw.leaf_cost.data() + L, lw.child_cost.data(), nblk,
                              static_cast<std::uint32_t>(fanout),
                              static_cast<std::uint32_t>(L) * fanout, bound_key,
                              lw.keys.data() + sc);
        }
        L = end;
        if (L == total_leaves) break;
        if (prune && bound_key == Lane::kKeepAll)
          bound_key = *std::max_element(lw.keys.data(), lw.keys.data() + sc);  // the seed
        else if (sc >= trigger)
          tighten<Lane>(kern, lw, keep, sc, bound_key);
      }

      finalize_keys<Lane>(kern, lw, sc, keep, cand_total);

      ws.next_entry_arena.resize(keep);
      ws.next_state.resize(keep);
      lw.next_cost.resize(keep);
      for (int j = 0; j < keep; ++j) {
        const key_t key = lw.keys[j];
        const int cand = static_cast<int>(Lane::cand_of(key));
        const int en = cand >> group_bits;
        const std::uint32_t g = static_cast<std::uint32_t>(cand & (group_count - 1));
        ws.arena.push_back({ws.entry_arena[en], g});
        ws.next_entry_arena[j] = static_cast<std::int32_t>(ws.arena.size() - 1);
        ws.next_state[j] = ws.child_state[cand];
        // The key round-trips the kept cost bit-for-bit, so no
        // candidate-cost array is needed.
        lw.next_cost[j] = Lane::cost_of(key);
      }
    } else {
      // Multi-leaf candidates: entries stream through expand ->
      // row_mins -> group filter -> regroup_emit. Only groups whose
      // minimum clears the bound get their leaf rows copied (the
      // vectorized replacement for the old scalar regroup scatter),
      // into a candidate-indexed arena the writeback reads directly.
      const int lpe = leaves_per_entry;
      const std::size_t entry_children = static_cast<std::size_t>(lpe) * fanout;
      const int block_entries =
          std::max<int>(1, static_cast<int>(kBlockChildren / entry_children));
      const std::size_t arena_rows =
          static_cast<std::size_t>(cand_total) * static_cast<std::size_t>(rows);
      ws.surv_state.resize(arena_rows);
      lw.surv_cost.resize(arena_rows);
      ws.surv_path.resize(arena_rows);
      ws.child_state.resize(static_cast<std::size_t>(block_entries) * entry_children);
      lw.child_cost.resize(static_cast<std::size_t>(block_entries) * entry_children);
      lw.row_min.resize(static_cast<std::size_t>(block_entries) * lpe);
      lw.group_min.resize(group_count);
      ws.group_rowbase.resize(group_count);

      int en0 = 0;
      bool cutoff = false;
      while (en0 < entries && !cutoff) {
        int eb = std::min(block_entries, entries - en0);
        if (leaves_sorted && bound_key != Lane::kKeepAll) {
          // Entry minima ascend (they are the previous level's kept
          // candidate scores): the first entry past the bound ends
          // the level — its groups, and every later entry's, cost at
          // least the entry minimum's floor.
          int ok = 0;
          for (; ok < eb; ++ok) {
            const cost_t* lc =
                lw.leaf_cost.data() + static_cast<std::size_t>(en0 + ok) * lpe;
            cost_t emin = lc[0];
            for (int l = 1; l < lpe; ++l)
              if (lc[l] < emin) emin = lc[l];
            if (floor_key(emin, static_cast<std::size_t>(en0 + ok) * group_count) > bound_key) {
              cutoff = true;
              break;
            }
          }
          if (ok == 0) break;
          eb = ok;
        }
        env.expand_all(e, ws.leaf_state.data() + static_cast<std::size_t>(en0) * lpe,
                       static_cast<std::size_t>(eb) * lpe, fanout, ws.child_state.data(),
                       lw.child_cost.data());
        kern.row_mins(lw.leaf_cost.data() + static_cast<std::size_t>(en0) * lpe,
                      lw.child_cost.data(), static_cast<std::size_t>(eb) * lpe,
                      static_cast<std::uint32_t>(fanout), lw.row_min.data());
        for (int i = 0; i < eb; ++i) {
          const int en = en0 + i;
          const std::uint32_t* lp = ws.leaf_path.data() + static_cast<std::size_t>(en) * lpe;
          const cost_t* rm = lw.row_min.data() + static_cast<std::size_t>(i) * lpe;
          for (int g = 0; g < group_count; ++g) lw.group_min[g] = Lane::kWorst;
          for (int lf = 0; lf < lpe; ++lf) {
            const std::uint32_t g = lp[lf] & group_mask;
            if (rm[lf] < lw.group_min[g]) lw.group_min[g] = rm[lf];
          }
          for (int g = 0; g < group_count; ++g) {
            const std::uint32_t cand =
                static_cast<std::uint32_t>(en) * group_count + static_cast<std::uint32_t>(g);
            const key_t key = Lane::key(lw.group_min[g], cand);
            if (key > bound_key) {
              ws.group_rowbase[g] = -1;
              continue;
            }
            lw.keys[sc++] = key;
            ws.group_rowbase[g] =
                static_cast<std::int32_t>(cand * static_cast<std::uint32_t>(rows));
          }
          kern.regroup_emit(ws.child_state.data() + static_cast<std::size_t>(i) * entry_children,
                            lw.child_cost.data() + static_cast<std::size_t>(i) * entry_children,
                            lw.leaf_cost.data() + static_cast<std::size_t>(en) * lpe, lp,
                            static_cast<std::size_t>(lpe), static_cast<std::uint32_t>(fanout),
                            k, d, group_mask, ws.group_rowbase.data(), ws.surv_state.data(),
                            lw.surv_cost.data(), ws.surv_path.data());
        }
        en0 += eb;
        if (sc >= trigger && en0 < entries && !cutoff)
          tighten<Lane>(kern, lw, keep, sc, bound_key);
      }

      finalize_keys<Lane>(kern, lw, sc, keep, cand_total);

      ws.next_entry_arena.resize(keep);
      ws.next_state.resize(static_cast<std::size_t>(keep) * rows);
      lw.next_cost.resize(static_cast<std::size_t>(keep) * rows);
      ws.next_path.resize(static_cast<std::size_t>(keep) * rows);
      for (int j = 0; j < keep; ++j) {
        const int cand = static_cast<int>(Lane::cand_of(lw.keys[j]));
        const int en = cand >> group_bits;
        const std::uint32_t g = static_cast<std::uint32_t>(cand & (group_count - 1));
        ws.arena.push_back({ws.entry_arena[en], g});
        ws.next_entry_arena[j] = static_cast<std::int32_t>(ws.arena.size() - 1);
        const std::size_t src = static_cast<std::size_t>(cand) * rows;
        const std::size_t dst = static_cast<std::size_t>(j) * rows;
        for (int l = 0; l < rows; ++l) {
          ws.next_state[dst + l] = ws.surv_state[src + l];
          lw.next_cost[dst + l] = lw.surv_cost[src + l];
          ws.next_path[dst + l] = ws.surv_path[src + l];
        }
      }
    }

    if constexpr (Lane::kRenormalize) {
      // Per-level renormalization: shift every kept cost down by the
      // level minimum so the lanes track each level's spread, not the
      // monotonically growing path sum. Pure subtraction of the common
      // minimum preserves every comparison (and the arena / tie-break
      // structure) exactly; the offset restores absolute cost at the
      // epilogue.
      cost_t mn = Lane::kWorst;
      for (const cost_t c : lw.next_cost)
        if (c < mn) mn = c;
      if (mn != 0) {
        for (cost_t& c : lw.next_cost) c = static_cast<cost_t>(c - mn);
        cur.offset += mn;
      }
    }

    ws.entry_arena.swap(ws.next_entry_arena);
    ws.leaf_state.swap(ws.next_state);
    lw.leaf_cost.swap(lw.next_cost);
    if (cur.use_paths) ws.leaf_path.swap(ws.next_path);
    cur.leaves_per_entry = rows;
    cur.leaves_sorted = keep < cand_total;
  }

  /// ---- Retained reference path (per-node Envs): materialize every
  /// candidate, then select. This is the pre-streaming semantics the
  /// golden suite pins the pipeline against; it is not a hot path.
  void run_reference(const Env& env, const CodeParams& p, SearchWorkspace& ws,
                     SearchResult& out) const {
    const int S = p.spine_length();
    const int k = p.k;
    const int B = p.B;
    SearchCursor cur;
    init_cursor(env, p, cur);
    const int d = cur.d;
    const std::uint32_t group_mask = cur.group_mask;
    const bool use_paths = cur.use_paths;
    LaneBuffers<F32Lane>& lw = ws.f32;

    build_prologue<F32Lane>(env, p, d, ws);
    int leaves_per_entry = static_cast<int>(ws.leaf_state.size());

    // ---- Main loop: steps t = 0 .. S-d, expansion chunk e = t+d-1 ----
    for (int t = 0; t <= S - d; ++t) {
      const int e = t + d - 1;                    // chunk evaluated this step
      const int fanout = 1 << p.chunk_bits(e);    // children per expanded leaf
      const int group_bits = p.chunk_bits(t);
      const int group_count = 1 << group_bits;    // candidate subtrees per entry
      const int entries = static_cast<int>(ws.entry_arena.size());
      const int new_leaves_per_cand = (leaves_per_entry * fanout) >> group_bits;
      const int cand_total = entries * group_count;

      ws.cand_state.resize(static_cast<std::size_t>(cand_total) * new_leaves_per_cand);
      ws.cand_cost.resize(static_cast<std::size_t>(cand_total) * new_leaves_per_cand);
      if (use_paths)
        ws.cand_path.resize(static_cast<std::size_t>(cand_total) * new_leaves_per_cand);
      lw.keys.resize(cand_total);

      ws.cand_min.assign(cand_total, std::numeric_limits<float>::infinity());
      ws.fill.assign(cand_total, 0);
      for (int en = 0; en < entries; ++en) {
        const std::size_t base = static_cast<std::size_t>(en) * leaves_per_entry;
        for (int lf = 0; lf < leaves_per_entry; ++lf) {
          const std::uint32_t st = ws.leaf_state[base + lf];
          const float pc = lw.leaf_cost[base + lf];
          const std::uint32_t path = use_paths ? ws.leaf_path[base + lf] : 0;
          for (int v = 0; v < fanout; ++v) {
            const std::uint32_t child_state = env.child(st, static_cast<std::uint32_t>(v));
            const float cost = pc + env.node_cost(e, child_state);
            // Extended path = path chunks (t..t+d-2) then v at slot d-1;
            // the slot-0 chunk picks the candidate subtree.
            const std::uint32_t ext =
                path | (static_cast<std::uint32_t>(v) << (k * (d - 1)));
            const std::uint32_t g = ext & group_mask;
            const int cand = en * group_count + static_cast<int>(g);
            const std::size_t slot =
                static_cast<std::size_t>(cand) * new_leaves_per_cand + ws.fill[cand]++;
            ws.cand_state[slot] = child_state;
            ws.cand_cost[slot] = cost;
            if (use_paths)
              ws.cand_path[slot] = ext >> k;  // drop slot 0: chunks t+1..t+d-1
            if (cost < ws.cand_min[cand]) ws.cand_min[cand] = cost;
          }
        }
      }
      backend::build_keys(ws.cand_min.data(), static_cast<std::size_t>(cand_total),
                          lw.keys.data());

      // ---- Select the B best subtrees (ties broken by index) ----
      // Keys order exactly like the float comparator (cost, then
      // candidate index); see LaneKernels::select for the determinism
      // contract. With no pruning the keys stay in candidate-index
      // order, the historical (and deterministic) layout.
      const int keep = std::min(B, cand_total);
      if (keep < cand_total)
        cur.be->f32.select(lw.keys.data(), static_cast<std::size_t>(cand_total),
                           static_cast<std::size_t>(keep));

      ws.next_entry_arena.resize(keep);
      ws.next_state.resize(static_cast<std::size_t>(keep) * new_leaves_per_cand);
      lw.next_cost.resize(static_cast<std::size_t>(keep) * new_leaves_per_cand);
      if (use_paths)
        ws.next_path.resize(static_cast<std::size_t>(keep) * new_leaves_per_cand);
      for (int j = 0; j < keep; ++j) {
        const int cand = static_cast<int>(F32Lane::cand_of(lw.keys[j]));
        const int en = cand >> group_bits;
        const std::uint32_t g = static_cast<std::uint32_t>(cand & (group_count - 1));
        ws.arena.push_back({ws.entry_arena[en], g});
        ws.next_entry_arena[j] = static_cast<std::int32_t>(ws.arena.size() - 1);
        const std::size_t src = static_cast<std::size_t>(cand) * new_leaves_per_cand;
        const std::size_t dst = static_cast<std::size_t>(j) * new_leaves_per_cand;
        for (int l = 0; l < new_leaves_per_cand; ++l) {
          ws.next_state[dst + l] = ws.cand_state[src + l];
          lw.next_cost[dst + l] = ws.cand_cost[src + l];
        }
        if (use_paths)
          for (int l = 0; l < new_leaves_per_cand; ++l)
            ws.next_path[dst + l] = ws.cand_path[src + l];
      }
      ws.entry_arena.swap(ws.next_entry_arena);
      ws.leaf_state.swap(ws.next_state);
      lw.leaf_cost.swap(lw.next_cost);
      if (use_paths) ws.leaf_path.swap(ws.next_path);
      leaves_per_entry = new_leaves_per_cand;
    }

    cur.leaves_per_entry = leaves_per_entry;
    backtrack<F32Lane>(env, p, cur, ws, out);
  }
};

}  // namespace spinal::detail
