#pragma once
// Portable scalar kernels — the reference semantics every SIMD backend
// must reproduce bit-for-bit, and the tail loops those backends run on
// the last count % lanes elements. All kernels are elementwise over the
// lane index, so a tail is just the same function on offset pointers.
// The float expressions here are the single source of truth for the
// metric shapes: a SIMD backend may reorder *lanes* but never the
// per-lane sequence of adds/mults (and never contract them into FMAs —
// the build pins -ffp-contract=off).
//
// The kernels are the static members of ScalarOps, the Ops policy the
// expansion drivers (expand.h) call and the scalar backend's table
// points at. It sits in an anonymous namespace: every translation unit
// gets its own copy with internal linkage, so a copy compiled inside a
// SIMD-flagged TU can never be vague-linkage-merged into the baseline
// binary and run on a CPU without that ISA (the check_backend_linkage
// test, tools/check_backend_linkage.py, reads the objects to hold this).
// For the same reason no std:: template is called here (popcount via
// builtin, min via ternary).

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "backend/backend.h"
#include "hash/jenkins.h"
#include "hash/salsa20.h"

namespace spinal::backend {
namespace {

struct ScalarOps {
  /// The one-at-a-time seed derivation shared by every backend (folds
  /// the salt into the initial value; see SpineHash::operator()).
  static std::uint32_t oaat_seed(std::uint32_t salt) noexcept {
    return salt ^ 0x2545F491u;
  }

  static void hash_n(hash::Kind kind, std::uint32_t salt, const std::uint32_t* states,
                     std::size_t count, std::uint32_t data, std::uint32_t* out) noexcept {
    switch (kind) {
      case hash::Kind::kOneAtATime: {
        const std::uint32_t seed = oaat_seed(salt);
        for (std::size_t i = 0; i < count; ++i)
          out[i] =
              hash::one_at_a_time_word(hash::one_at_a_time_word(seed, states[i]), data);
        break;
      }
      case hash::Kind::kLookup3:
        for (std::size_t i = 0; i < count; ++i)
          out[i] = hash::lookup3_pair(states[i], data, salt);
        break;
      case hash::Kind::kSalsa20:
        for (std::size_t i = 0; i < count; ++i)
          out[i] = hash::salsa20_pair(states[i], data, salt);
        break;
    }
  }

  static void premix_n(std::uint32_t salt, const std::uint32_t* states,
                       std::size_t count, std::uint32_t* out) noexcept {
    const std::uint32_t seed = oaat_seed(salt);
    for (std::size_t i = 0; i < count; ++i)
      out[i] = hash::one_at_a_time_word(seed, states[i]);
  }

  static void hash_premixed_n(const std::uint32_t* premixed, std::size_t count,
                              std::uint32_t data, std::uint32_t* out) noexcept {
    for (std::size_t i = 0; i < count; ++i)
      out[i] = hash::one_at_a_time_word(premixed[i], data);
  }

  /// Child-major (out[i*fanout + v] = h(states[i], v)): a leaf's
  /// children are contiguous, so the d=1 search consumes the output
  /// with no scatter (see Backend::hash_children).
  static void hash_children(hash::Kind kind, std::uint32_t salt,
                            const std::uint32_t* states, std::size_t count,
                            std::uint32_t fanout, std::uint32_t* out) noexcept {
    if (kind == hash::Kind::kOneAtATime) {
      // The state pre-mix is chunk-independent: one mix per leaf, then
      // fanout data mixes writing the leaf's contiguous child row.
      const std::uint32_t seed = oaat_seed(salt);
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint32_t premix = hash::one_at_a_time_word(seed, states[i]);
        std::uint32_t* row = out + i * static_cast<std::size_t>(fanout);
        for (std::uint32_t v = 0; v < fanout; ++v)
          row[v] = hash::one_at_a_time_word(premix, v);
      }
      return;
    }
    for (std::size_t i = 0; i < count; ++i) {
      std::uint32_t* row = out + i * static_cast<std::size_t>(fanout);
      for (std::uint32_t v = 0; v < fanout; ++v)
        row[v] = kind == hash::Kind::kLookup3 ? hash::lookup3_pair(states[i], v, salt)
                                              : hash::salsa20_pair(states[i], v, salt);
    }
  }

  /// Fused child hash + RNG-lane derivation for the streaming pipeline:
  /// writes every child state AND its RNG hash input. The RNG lane is
  /// the shared one-at-a-time pre-mix when @p premix is set
  /// (kOneAtATime, several symbols), the raw child state otherwise —
  /// exactly what the split hash_children + premix_n (or state copy)
  /// sequence produces.
  static void hash_children_premix(hash::Kind kind, std::uint32_t salt, bool premix,
                                   const std::uint32_t* states, std::size_t count,
                                   std::uint32_t fanout, std::uint32_t* out_states,
                                   std::uint32_t* out_lanes) noexcept {
    // Split passes on purpose: each plain loop auto-vectorizes with
    // baseline instructions, which is where the scalar backend's
    // throughput comes from. Explicit-SIMD backends fuse the passes
    // instead (see simd_kernels.h).
    hash_children(kind, salt, states, count, fanout, out_states);
    const std::size_t total = count * static_cast<std::size_t>(fanout);
    if (kind == hash::Kind::kOneAtATime && premix) {
      premix_n(salt, out_states, total, out_lanes);
    } else {
      for (std::size_t i = 0; i < total; ++i) out_lanes[i] = out_states[i];
    }
  }

  /// One symbol's RNG draw + AWGN l2 metric over the constellation
  /// table: acc[i] += |y - x(w[i])|^2, or with @p kStore (the first
  /// symbol) acc[i] = |y - x(w[i])|^2 — 0 + x == x exactly, so the
  /// store form equals zero-fill + add. Split passes (hash into @p w,
  /// then the metric) so both loops auto-vectorize; explicit-SIMD
  /// backends fuse them instead.
  template <bool kStore>
  static void awgn_sweep(hash::Kind kind, std::uint32_t salt, bool premixed,
                         const std::uint32_t* lanes, std::size_t count,
                         std::uint32_t data, const float* table, std::uint32_t mask,
                         int cbits, float yr, float yi, std::uint32_t* w,
                         float* acc) noexcept {
    if (premixed)
      hash_premixed_n(lanes, count, data, w);
    else
      hash_n(kind, salt, lanes, count, data, w);
    const float* const __restrict t = table;
    float* const __restrict oc = acc;
    for (std::size_t i = 0; i < count; ++i) {
      const float xr = t[w[i] & mask];
      const float xi = t[(w[i] >> cbits) & mask];
      const float dr = yr - xr, di = yi - xi;
      if constexpr (kStore)
        oc[i] = dr * dr + di * di;
      else
        oc[i] += dr * dr + di * di;
    }
  }

  /// acc[i] += |y - h·x(w[i])|^2 (coherent CSI metric, §8.3).
  static void awgn_csi_accum(const std::uint32_t* w, std::size_t count,
                             const float* table, std::uint32_t mask, int cbits, float yr,
                             float yi, float hr, float hi, float* acc) noexcept {
    const float* const __restrict t = table;
    float* const __restrict oc = acc;
    for (std::size_t i = 0; i < count; ++i) {
      const float xr = t[w[i] & mask];
      const float xi = t[(w[i] >> cbits) & mask];
      const float rr = hr * xr - hi * xi;
      const float ri = hr * xi + hi * xr;
      const float dr = yr - rr, di = yi - ri;
      oc[i] += dr * dr + di * di;
    }
  }

  /// Appendix-B grid quantisation; nearbyintf under the (default)
  /// round-to-nearest-even mode, which SIMD backends match with a
  /// current-rounding-direction round instruction.
  static float fx_quantise(float v, float scale) noexcept {
    return std::nearbyintf(v * scale) / scale;
  }

  /// CSI + fixed point: h·x quantised to the Appendix-B grid in-kernel.
  static void awgn_csi_fx_accum(const std::uint32_t* w, std::size_t count,
                                const float* table, std::uint32_t mask, int cbits,
                                float yr, float yi, float hr, float hi, float fx_scale,
                                float* acc) noexcept {
    const float* const __restrict t = table;
    float* const __restrict oc = acc;
    for (std::size_t i = 0; i < count; ++i) {
      const float xr = t[w[i] & mask];
      const float xi = t[(w[i] >> cbits) & mask];
      const float rr = fx_quantise(hr * xr - hi * xi, fx_scale);
      const float ri = fx_quantise(hr * xi + hi * xr, fx_scale);
      const float dr = yr - rr, di = yi - ri;
      oc[i] += dr * dr + di * di;
    }
  }

  /// One symbol's RNG draw + quantized metric: acc[i] += qtab[w[i] &
  /// qmask] (or = with @p kStore), split passes exactly as awgn_sweep.
  template <bool kStore>
  static void awgn_q_sweep(hash::Kind kind, std::uint32_t salt, bool premixed,
                           const std::uint32_t* lanes, std::size_t count,
                           std::uint32_t data, const std::uint16_t* qtab,
                           std::uint32_t qmask, std::uint32_t* w,
                           std::uint32_t* acc) noexcept {
    if (premixed)
      hash_premixed_n(lanes, count, data, w);
    else
      hash_n(kind, salt, lanes, count, data, w);
    const std::uint16_t* const __restrict t = qtab;
    std::uint32_t* const __restrict oc = acc;
    for (std::size_t i = 0; i < count; ++i) {
      if constexpr (kStore)
        oc[i] = t[w[i] & qmask];
      else
        oc[i] += t[w[i] & qmask];
    }
  }

  /// acc[i] |= (w[i] & 1) << j — gathers one coded bit per child into
  /// the packed 64-symbol accumulator.
  static void bsc_gather_bit(const std::uint32_t* w, std::size_t count, std::uint32_t j,
                             std::uint64_t* acc) noexcept {
    std::uint64_t* const __restrict a = acc;
    for (std::size_t i = 0; i < count; ++i)
      a[i] |= static_cast<std::uint64_t>(w[i] & 1u) << j;
  }

  /// costs[i] += popcount(acc[i] ^ rx_word) — the Hamming metric per
  /// 64-symbol block (small exact integers, so float addition is exact).
  static void bsc_hamming_add(const std::uint64_t* acc, std::size_t count,
                              std::uint64_t rx_word, float* costs) noexcept {
    float* const __restrict oc = costs;
    for (std::size_t i = 0; i < count; ++i)
      oc[i] += static_cast<float>(__builtin_popcountll(acc[i] ^ rx_word));
  }

  /// Streaming fused d=1 finalize+prune (see LaneKernels::d1_prune):
  /// one sweep over a child-major expansion block that appends only the
  /// candidates whose key clears the running bound. Whole rows
  /// short-circuit on the parent cost (children cost at least the
  /// parent: child costs >= 0 by contract). @p Child is the child-cost
  /// word: the lane's cost word, or the fused expansion's accumulator
  /// word Lane::acc_t (Lane::add saturates either way). Never inlined:
  /// it is also the fused drivers' cold exit (keep-all bound, level
  /// without symbols), and inlined there it slowed their hot
  /// partial-prune phase (the AVX2 u16 fused kernel measured 7-10%
  /// slower).
  template <class Lane, class Child = typename Lane::cost_t>
  [[gnu::noinline]] static std::size_t d1_prune(const typename Lane::cost_t* parent_cost,
                              const Child* child_cost, std::size_t count,
                              std::uint32_t fanout, std::uint32_t cand_base,
                              typename Lane::key_t bound_key,
                              typename Lane::key_t* out_keys) noexcept {
    std::size_t sc = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const auto pc = parent_cost[i];
      // Every child key >= Lane::key(pc, 0): row skip on the parent.
      if (Lane::key(pc, 0) > bound_key) continue;
      const std::size_t row = i * static_cast<std::size_t>(fanout);
      for (std::uint32_t v = 0; v < fanout; ++v) {
        const typename Lane::key_t key =
            Lane::key(Lane::add(pc, child_cost[row + v]),
                      cand_base + static_cast<std::uint32_t>(row + v));
        // Branchless append (prune outcomes are data-random, poison for
        // the predictor): always write, advance on survival. The slot
        // past the last survivor is scratch — hence the contract's
        // out_keys slack.
        out_keys[sc] = key;
        sc += key <= bound_key;
      }
    }
    return sc;
  }

  /// The partial-prune base of a leaf with parent cost @p pc: false when
  /// even the row's floor exceeds the bound (costs only grow, so the row
  /// skips whole); otherwise @p base is what each lane's swept partial
  /// metric adds to — the parent plus the unswept symbols' floor.
  template <class Lane>
  static bool partial_base(typename Lane::acc_t pc, PruneFloors floors,
                           typename Lane::key_t bound_key,
                           typename Lane::acc_t& base) noexcept {
    if constexpr (Lane::kLevelFloor) {
      base = Lane::add(pc, floors.rest);
      return Lane::key(Lane::add(pc, floors.row), 0) <= bound_key;
    } else {
      base = pc;
      return Lane::key(pc, 0) <= bound_key;
    }
  }

  /// Partial-cost survivor compression for the fused streaming
  /// expansion (see LaneKernels::awgn_expand_prune): children whose
  /// partial key already exceeds the bound leave the pipeline. Survivor
  /// lanes of acc and lanes compact in place (front-packed, order
  /// preserved — write index never passes read index) and idx_out
  /// records each survivor's child index. Returns the survivor count.
  template <class Lane>
  static std::size_t partial_compress(const typename Lane::cost_t* parent_cost,
                                      typename Lane::acc_t* acc, std::size_t count,
                                      std::uint32_t fanout, PruneFloors floors,
                                      typename Lane::key_t bound_key,
                                      std::uint32_t* lanes,
                                      std::uint32_t* idx_out) noexcept {
    std::size_t n = 0;
    for (std::size_t i = 0; i < count; ++i) {
      typename Lane::acc_t base;
      if (!partial_base<Lane>(parent_cost[i], floors, bound_key, base)) continue;
      const std::size_t row = i * static_cast<std::size_t>(fanout);
      for (std::uint32_t v = 0; v < fanout; ++v) {
        const std::size_t c = row + v;
        // Branchless compaction: the write cursor trails the read index,
        // so unconditional writes are self-overwriting, never clobbering.
        acc[n] = acc[c];
        lanes[n] = lanes[c];
        idx_out[n] = static_cast<std::uint32_t>(c);
        // Partial key (block-local index low word) <= final key, so this
        // admits every candidate the full-cost filter would keep.
        const typename Lane::key_t pkey =
            Lane::key(Lane::add(base, acc[n]), static_cast<std::uint32_t>(c));
        n += pkey <= bound_key;
      }
    }
    return n;
  }

  /// Final key build over the compressed survivor lanes (see
  /// LaneKernels::awgn_expand_prune): finalizes cost = Lane::add(parent,
  /// metric), filters against the bound once more (partial survivors
  /// can still lose on the full cost) and appends packed keys in
  /// candidate order. @p parent holds the block's parent costs in
  /// accumulator words (the driver widens u16 parents, so SIMD
  /// backends gather plain 32-bit lanes).
  template <class Lane>
  static std::size_t final_prune(const typename Lane::acc_t* parent,
                                 const typename Lane::acc_t* acc,
                                 const std::uint32_t* idx, std::size_t n,
                                 int log2_fanout, std::uint32_t cand_base,
                                 typename Lane::key_t bound_key,
                                 typename Lane::key_t* out_keys) noexcept {
    std::size_t sc = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const typename Lane::key_t key =
          Lane::key(Lane::add(parent[idx[j] >> log2_fanout], acc[j]), cand_base + idx[j]);
      out_keys[sc] = key;
      sc += key <= bound_key;  // branchless append, see d1_prune
    }
    return sc;
  }

  /// Per-leaf row minima folded with the parent cost (see
  /// LaneKernels::row_mins). The running strict-less min over the row
  /// in v order is the reference semantics SIMD backends must match.
  template <class Lane>
  static void row_mins(const typename Lane::cost_t* leaf_cost,
                       const typename Lane::cost_t* child_cost, std::size_t leaves,
                       std::uint32_t fanout, typename Lane::cost_t* out) noexcept {
    for (std::size_t i = 0; i < leaves; ++i) {
      const std::size_t row = i * static_cast<std::size_t>(fanout);
      typename Lane::cost_t m = child_cost[row];
      for (std::uint32_t v = 1; v < fanout; ++v)
        if (child_cost[row + v] < m) m = child_cost[row + v];
      out[i] = static_cast<typename Lane::cost_t>(Lane::add(leaf_cost[i], m));
    }
  }

  /// Survivor-group row emit (see LaneKernels::regroup_emit): the
  /// scalar reference for the vectorized d>1 regroup. Kernel-local fill
  /// counters reproduce the old scatter's leaf-major fill order.
  template <class Lane>
  static void regroup_emit(const std::uint32_t* child_state,
                           const typename Lane::cost_t* child_cost,
                           const typename Lane::cost_t* leaf_cost,
                           const std::uint32_t* leaf_path, std::size_t leaves,
                           std::uint32_t fanout, int k, int d, std::uint32_t group_mask,
                           const std::int32_t* group_rowbase, std::uint32_t* out_state,
                           typename Lane::cost_t* out_cost,
                           std::uint32_t* out_path) noexcept {
    std::uint32_t next[256];  // group_count <= 2^k <= 256 (CodeParams)
    const std::uint32_t group_count = group_mask + 1;
    for (std::uint32_t g = 0; g < group_count; ++g)
      next[g] = group_rowbase[g] < 0 ? 0 : static_cast<std::uint32_t>(group_rowbase[g]);
    const int shift = k * (d - 2);
    for (std::size_t i = 0; i < leaves; ++i) {
      const std::uint32_t g = leaf_path[i] & group_mask;
      if (group_rowbase[g] < 0) continue;
      const auto pc = leaf_cost[i];
      const std::uint32_t pbase = leaf_path[i] >> k;
      const std::size_t src = i * static_cast<std::size_t>(fanout);
      const std::size_t dst = next[g];
      next[g] += fanout;
      for (std::uint32_t v = 0; v < fanout; ++v) {
        out_state[dst + v] = child_state[src + v];
        out_cost[dst + v] =
            static_cast<typename Lane::cost_t>(Lane::add(pc, child_cost[src + v]));
        out_path[dst + v] = pbase | (v << shift);
      }
    }
  }

  /// Dense GF(2) row combine (see Backend::xor_rows): dst ^= src over
  /// 64-bit words. Word-at-a-time is the reference semantics; SIMD
  /// backends widen the stride but XOR is exact, so outputs are
  /// bit-identical by construction.
  static void xor_rows(std::uint64_t* dst, const std::uint64_t* src,
                       std::size_t words) noexcept {
    for (std::size_t w = 0; w < words; ++w) dst[w] ^= src[w];
  }
};

}  // namespace
}  // namespace spinal::backend
