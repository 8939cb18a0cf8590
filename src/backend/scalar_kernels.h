#pragma once
// Portable scalar kernel primitives — the reference semantics every
// SIMD backend must reproduce bit-for-bit, and the tail loops those
// backends run on the last count % lanes elements. All kernels are
// elementwise over the lane index, so a tail is just the same function
// on offset pointers. The float expressions here are the single source
// of truth for the metric shapes: a SIMD backend may reorder *lanes*
// but never the per-lane sequence of adds/mults (and never contract
// them into FMAs — the build pins -ffp-contract=off).
//
// Everything is `static inline` (internal linkage): each translation
// unit gets its own copy, so a copy compiled inside a SIMD-flagged TU
// can never be vague-linkage-merged into the baseline binary and run
// on a CPU without that ISA. For the same reason no std:: template is
// called here (popcount via builtin, min via ternary).

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "backend/backend.h"
#include "hash/jenkins.h"
#include "hash/salsa20.h"

namespace spinal::backend::scalar {

/// The one-at-a-time seed derivation shared by every backend (folds the
/// salt into the initial value; see SpineHash::operator()).
static inline std::uint32_t oaat_seed(std::uint32_t salt) noexcept {
  return salt ^ 0x2545F491u;
}

static inline void hash_n(hash::Kind kind, std::uint32_t salt,
                          const std::uint32_t* states, std::size_t count,
                          std::uint32_t data, std::uint32_t* out) noexcept {
  switch (kind) {
    case hash::Kind::kOneAtATime: {
      const std::uint32_t seed = oaat_seed(salt);
      for (std::size_t i = 0; i < count; ++i)
        out[i] = hash::one_at_a_time_word(hash::one_at_a_time_word(seed, states[i]), data);
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

static inline void premix_n(std::uint32_t salt, const std::uint32_t* states,
                            std::size_t count, std::uint32_t* out) noexcept {
  const std::uint32_t seed = oaat_seed(salt);
  for (std::size_t i = 0; i < count; ++i) out[i] = hash::one_at_a_time_word(seed, states[i]);
}

static inline void hash_premixed_n(const std::uint32_t* premixed, std::size_t count,
                                   std::uint32_t data, std::uint32_t* out) noexcept {
  for (std::size_t i = 0; i < count; ++i)
    out[i] = hash::one_at_a_time_word(premixed[i], data);
}

/// Child-major (out[i*fanout + v] = h(states[i], v)): a leaf's children
/// are contiguous, so the d=1 search consumes the output with no
/// scatter (see Backend::hash_children).
static inline void hash_children(hash::Kind kind, std::uint32_t salt,
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
/// writes every child state AND its RNG hash input in one pass, while
/// the child state is still in a register. The RNG lane is the shared
/// one-at-a-time pre-mix when @p premix is set (kOneAtATime, several
/// symbols), the raw child state otherwise — exactly what the split
/// hash_children + premix_n (or state copy) sequence produces.
static inline void hash_children_premix(hash::Kind kind, std::uint32_t salt,
                                        bool premix, const std::uint32_t* states,
                                        std::size_t count, std::uint32_t fanout,
                                        std::uint32_t* out_states,
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

/// Appendix-B grid quantisation; nearbyintf under the (default)
/// round-to-nearest-even mode, which SIMD backends match with a
/// current-rounding-direction round instruction.
static inline float fx_quantise(float v, float scale) noexcept {
  return std::nearbyintf(v * scale) / scale;
}

/// acc[i] += |y - x(w[i])|^2 over the constellation table.
static inline void awgn_accum(const std::uint32_t* w, std::size_t count,
                              const float* table, std::uint32_t mask, int cbits,
                              float yr, float yi, float* acc) noexcept {
  const float* const __restrict t = table;
  float* const __restrict oc = acc;
  for (std::size_t i = 0; i < count; ++i) {
    const float xr = t[w[i] & mask];
    const float xi = t[(w[i] >> cbits) & mask];
    const float dr = yr - xr, di = yi - xi;
    oc[i] += dr * dr + di * di;
  }
}

/// acc[i] = |y - x(w[i])|^2: the store form of awgn_accum for the
/// first symbol (0 + x == x exactly, so this equals zero-fill + add).
static inline void awgn_accum0(const std::uint32_t* w, std::size_t count,
                               const float* table, std::uint32_t mask, int cbits,
                               float yr, float yi, float* acc) noexcept {
  const float* const __restrict t = table;
  float* const __restrict oc = acc;
  for (std::size_t i = 0; i < count; ++i) {
    const float xr = t[w[i] & mask];
    const float xi = t[(w[i] >> cbits) & mask];
    const float dr = yr - xr, di = yi - xi;
    oc[i] = dr * dr + di * di;
  }
}

/// One symbol's RNG draw + AWGN l2 accumulation. Split passes (hash
/// into @p w, then accumulate) so both loops auto-vectorize; lane
/// semantics exactly match hash_premixed_n/hash_n + awgn_accum.
/// Explicit-SIMD backends fuse the passes instead.
static inline void awgn_sweep(hash::Kind kind, std::uint32_t salt, bool premixed,
                              const std::uint32_t* lanes, std::size_t count,
                              std::uint32_t data, const float* table,
                              std::uint32_t mask, int cbits, float yr, float yi,
                              std::uint32_t* w, float* acc) noexcept {
  if (premixed)
    hash_premixed_n(lanes, count, data, w);
  else
    hash_n(kind, salt, lanes, count, data, w);
  awgn_accum(w, count, table, mask, cbits, yr, yi, acc);
}

/// First-symbol variant of awgn_sweep: *stores* the metric instead of
/// accumulating, replacing the zero-fill + add round-trip.
static inline void awgn_sweep0(hash::Kind kind, std::uint32_t salt, bool premixed,
                               const std::uint32_t* lanes, std::size_t count,
                               std::uint32_t data, const float* table,
                               std::uint32_t mask, int cbits, float yr, float yi,
                               std::uint32_t* w, float* acc) noexcept {
  if (premixed)
    hash_premixed_n(lanes, count, data, w);
  else
    hash_n(kind, salt, lanes, count, data, w);
  awgn_accum0(w, count, table, mask, cbits, yr, yi, acc);
}

/// acc[i] += |y - h·x(w[i])|^2 (coherent CSI metric, §8.3).
static inline void awgn_csi_accum(const std::uint32_t* w, std::size_t count,
                                  const float* table, std::uint32_t mask, int cbits,
                                  float yr, float yi, float hr, float hi,
                                  float* acc) noexcept {
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

/// CSI + fixed point: h·x quantised to the Appendix-B grid in-kernel.
static inline void awgn_csi_fx_accum(const std::uint32_t* w, std::size_t count,
                                     const float* table, std::uint32_t mask, int cbits,
                                     float yr, float yi, float hr, float hi,
                                     float fx_scale, float* acc) noexcept {
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

/// acc[i] |= (w[i] & 1) << j — gathers one coded bit per child into the
/// packed 64-symbol accumulator.
static inline void bsc_gather_bit(const std::uint32_t* w, std::size_t count,
                                  std::uint32_t j, std::uint64_t* acc) noexcept {
  std::uint64_t* const __restrict a = acc;
  for (std::size_t i = 0; i < count; ++i)
    a[i] |= static_cast<std::uint64_t>(w[i] & 1u) << j;
}

/// costs[i] += popcount(acc[i] ^ rx_word) — the Hamming metric per
/// 64-symbol block (small exact integers, so float addition is exact).
static inline void bsc_hamming_add(const std::uint64_t* acc, std::size_t count,
                                   std::uint64_t rx_word, float* costs) noexcept {
  float* const __restrict oc = costs;
  for (std::size_t i = 0; i < count; ++i)
    oc[i] += static_cast<float>(__builtin_popcountll(acc[i] ^ rx_word));
}

/// Streaming fused d=1 finalize+prune (see LaneKernels::d1_prune): one
/// sweep over a child-major expansion block that appends only the
/// candidates whose key clears the running bound. Whole rows
/// short-circuit on the parent cost (children cost at least the
/// parent: child costs >= 0 by contract). @p Child is the child-cost
/// word: the lane's cost word, or the fused quantized kernel's
/// unclamped u32 accumulator (Lane::add saturates either way).
template <class Lane, class Child = typename Lane::cost_t>
static inline std::size_t d1_prune(const typename Lane::cost_t* parent_cost,
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

/// Partial-cost survivor compression for the fused streaming expansion
/// (see Backend::awgn_expand_prune): children whose parent + partial
/// metric already exceeds the bound leave the pipeline. Survivor lanes
/// of acc and lanes compact in place (front-packed, order preserved —
/// write index never passes read index) and idx_out records each
/// survivor's child index. Returns the survivor count.
static inline std::size_t partial_compress(const float* parent_cost, float* acc,
                                           std::size_t count, std::uint32_t fanout,
                                           std::uint64_t bound_key, std::uint32_t* lanes,
                                           std::uint32_t* idx_out) noexcept {
  std::size_t n = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const float pc = parent_cost[i];
    if ((static_cast<std::uint64_t>(monotone_key(pc)) << 32) > bound_key)
      continue;  // costs only grow
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
      const std::uint64_t pkey =
          (static_cast<std::uint64_t>(monotone_key(pc + acc[n])) << 32) |
          static_cast<std::uint32_t>(c);
      n += pkey <= bound_key;
    }
  }
  return n;
}

/// Final key build over the compressed survivor lanes (see
/// Backend::awgn_expand_prune): finalizes cost = parent + metric with
/// the exact scalar expression, filters against the bound once more
/// (partial survivors can still lose on the full cost) and appends
/// packed keys in candidate order.
static inline std::size_t final_prune(const float* parent_cost, const float* acc,
                                      const std::uint32_t* idx, std::size_t n,
                                      int log2_fanout, std::uint32_t cand_base,
                                      std::uint64_t bound_key,
                                      std::uint64_t* out_keys) noexcept {
  std::size_t sc = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const float cost = parent_cost[idx[j] >> log2_fanout] + acc[j];
    const std::uint64_t key = (static_cast<std::uint64_t>(monotone_key(cost)) << 32) |
                              (cand_base + idx[j]);
    out_keys[sc] = key;
    sc += key <= bound_key;  // branchless append, see d1_prune
  }
  return sc;
}

/// Per-leaf row minima folded with the parent cost (see
/// LaneKernels::row_mins). The running strict-less min over the row in
/// v order is the reference semantics SIMD backends must match.
template <class Lane>
static inline void row_mins(const typename Lane::cost_t* leaf_cost,
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

/// Survivor-group row emit (see LaneKernels::regroup_emit): the scalar
/// reference for the vectorized d>1 regroup. Kernel-local fill
/// counters reproduce the old scatter's leaf-major fill order.
template <class Lane>
static inline void regroup_emit(const std::uint32_t* child_state,
                                const typename Lane::cost_t* child_cost,
                                const typename Lane::cost_t* leaf_cost,
                                const std::uint32_t* leaf_path, std::size_t leaves,
                                std::uint32_t fanout, int k, int d,
                                std::uint32_t group_mask,
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
static inline void xor_rows(std::uint64_t* dst, const std::uint64_t* src,
                            std::size_t words) noexcept {
  for (std::size_t w = 0; w < words; ++w) dst[w] ^= src[w];
}

// --- Quantized (u16/u8-grid) kernels ----------------------------------
// Integer mirrors of the float kernels above. The channel metric is a
// pre-tabulated combined re+im integer (AwgnLevelQ::qtab), so one
// symbol's per-child work is a gather plus an add; costs are
// min(sum, 65535) everywhere (quant_sat_add chains ≡ plain u32 sums
// clamped once, since every table entry is <= 65535 and nsym is
// bounded far below 2^16). All pure integer: SIMD lanes are trivially
// bit-identical, so these loops are both the reference semantics and
// the conformance oracle for the awgn_*_u16 backend entries. (The
// prune/regroup kernels above serve this lane too, as U16Lane
// instantiations.)

static inline std::uint32_t quant_clamp(std::uint32_t sum) noexcept {
  return sum > 65535u ? 65535u : sum;
}

/// acc[i] += qtab[w[i] & qmask] — the quantized metric accumulation.
static inline void awgn_q_accum(const std::uint32_t* w, std::size_t count,
                                const std::uint16_t* qtab, std::uint32_t qmask,
                                std::uint32_t* acc) noexcept {
  const std::uint16_t* const __restrict t = qtab;
  std::uint32_t* const __restrict oc = acc;
  for (std::size_t i = 0; i < count; ++i) oc[i] += t[w[i] & qmask];
}

/// Store form of awgn_q_accum for the first symbol.
static inline void awgn_q_accum0(const std::uint32_t* w, std::size_t count,
                                 const std::uint16_t* qtab, std::uint32_t qmask,
                                 std::uint32_t* acc) noexcept {
  const std::uint16_t* const __restrict t = qtab;
  std::uint32_t* const __restrict oc = acc;
  for (std::size_t i = 0; i < count; ++i) oc[i] = t[w[i] & qmask];
}

/// One symbol's RNG draw + quantized metric accumulation (split passes
/// so both loops auto-vectorize, exactly as awgn_sweep).
static inline void awgn_q_sweep(hash::Kind kind, std::uint32_t salt, bool premixed,
                                const std::uint32_t* lanes, std::size_t count,
                                std::uint32_t data, const std::uint16_t* qtab,
                                std::uint32_t qmask, std::uint32_t* w,
                                std::uint32_t* acc) noexcept {
  if (premixed)
    hash_premixed_n(lanes, count, data, w);
  else
    hash_n(kind, salt, lanes, count, data, w);
  awgn_q_accum(w, count, qtab, qmask, acc);
}

/// First-symbol variant of awgn_q_sweep (stores instead of accumulating).
static inline void awgn_q_sweep0(hash::Kind kind, std::uint32_t salt, bool premixed,
                                 const std::uint32_t* lanes, std::size_t count,
                                 std::uint32_t data, const std::uint16_t* qtab,
                                 std::uint32_t qmask, std::uint32_t* w,
                                 std::uint32_t* acc) noexcept {
  if (premixed)
    hash_premixed_n(lanes, count, data, w);
  else
    hash_n(kind, salt, lanes, count, data, w);
  awgn_q_accum0(w, count, qtab, qmask, acc);
}

/// Quantized partial-cost survivor compression (see
/// Backend::awgn_expand_prune_u16). Sharper than the float twin thanks
/// to the pre-tabulated metric floors: rows skip before any metric
/// work when even parent + row_floor (the guaranteed whole-level
/// minimum, min_rest[0]) exceeds the bound, and each lane's partial
/// key adds lane_rest (min_rest[1], the floor of the unswept symbols).
/// Both floors are admissible — the final cost can only be larger.
static inline std::size_t partial_compress_u16(const std::uint16_t* parent_cost,
                                               std::uint32_t* acc, std::size_t count,
                                               std::uint32_t fanout,
                                               std::uint32_t row_floor,
                                               std::uint32_t lane_rest,
                                               std::uint32_t bound_key,
                                               std::uint32_t* lanes,
                                               std::uint32_t* idx_out) noexcept {
  std::size_t n = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t pc = parent_cost[i];
    if ((quant_clamp(pc + row_floor) << 16) > bound_key) continue;
    const std::size_t row = i * static_cast<std::size_t>(fanout);
    for (std::uint32_t v = 0; v < fanout; ++v) {
      const std::size_t c = row + v;
      acc[n] = acc[c];
      lanes[n] = lanes[c];
      idx_out[n] = static_cast<std::uint32_t>(c);
      const std::uint32_t pkey = (quant_clamp(pc + acc[n] + lane_rest) << 16) |
                                 static_cast<std::uint32_t>(c);
      n += pkey <= bound_key;
    }
  }
  return n;
}

/// Quantized final key build over compressed survivor lanes.
/// @p parent32 is the block's parent costs widened to u32 by the
/// driver (so SIMD backends gather with plain 32-bit gathers).
static inline std::size_t final_prune_u16(const std::uint32_t* parent32,
                                          const std::uint32_t* acc,
                                          const std::uint32_t* idx, std::size_t n,
                                          int log2_fanout, std::uint32_t cand_base,
                                          std::uint32_t bound_key,
                                          std::uint32_t* out_keys) noexcept {
  std::size_t sc = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint32_t cost = quant_clamp(parent32[idx[j] >> log2_fanout] + acc[j]);
    const std::uint32_t key = (cost << 16) | (cand_base + idx[j]);
    out_keys[sc] = key;
    sc += key <= bound_key;
  }
  return sc;
}

}  // namespace spinal::backend::scalar
