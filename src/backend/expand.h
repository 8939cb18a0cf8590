#pragma once
// The fused per-level expansion drivers, shared by every backend. A
// backend supplies an Ops policy (static member functions with the
// scalar_kernels.h signatures); the drivers contribute the level
// orchestration — child hashing, the shared one-at-a-time pre-mix, the
// per-symbol RNG draws, and the channel metric accumulation — so the
// symbol/block loop structure (and with it the float accumulation
// order) is identical across backends by construction. Only the lane
// loops inside Ops differ.
//
// Deliberately freestanding: no std:: algorithm or container calls.
// These templates are instantiated inside SIMD-flagged translation
// units, where any vague-linkage std instantiation could be compiled
// with wide instructions and then be the copy the linker keeps for the
// whole (baseline) binary. Scratch is sized by the caller (see the
// *Level structs); loops are hand-rolled.

#include <cstddef>
#include <cstdint>

#include "backend/backend.h"

namespace spinal::backend {

template <class Ops>
void awgn_expand_all_t(const AwgnLevel& L, const std::uint32_t* states,
                       std::size_t count, std::uint32_t fanout,
                       std::uint32_t* out_states, float* out_costs) {
  Ops::hash_children(L.kind, L.salt, states, count, fanout, out_states);
  const std::size_t total = count * static_cast<std::size_t>(fanout);
  for (std::size_t i = 0; i < total; ++i) out_costs[i] = 0.0f;
  if (L.nsym == 0 || total == 0) return;
  std::uint32_t* const w = L.rng_scratch;

  // One state pre-mix shared by every symbol's RNG draw (when the hash
  // kind factors; one-at-a-time does, saving half the mixes).
  const bool premixed =
      L.kind == hash::Kind::kOneAtATime && L.nsym > 1 && L.premix_scratch != nullptr;
  if (premixed) Ops::premix_n(L.salt, out_states, total, L.premix_scratch);

  for (std::uint32_t s = 0; s < L.nsym; ++s) {
    const std::uint32_t data = L.ord[s] ^ 0x80000000u;  // RNG domain separation
    if (premixed)
      Ops::hash_premixed_n(L.premix_scratch, total, data, w);
    else
      Ops::hash_n(L.kind, L.salt, out_states, total, data, w);
    if (!L.use_csi) {
      // y was quantised in the SoA build and the table entries are
      // pre-quantised, so fixed-point and float share one loop.
      Ops::awgn_accum(w, total, L.table, L.mask, L.cbits, L.y_re[s], L.y_im[s],
                      out_costs);
    } else if (L.fx_scale <= 0.0f) {
      Ops::awgn_csi_accum(w, total, L.raw_table, L.mask, L.cbits, L.y_re[s], L.y_im[s],
                          L.h_re[s], L.h_im[s], out_costs);
    } else {
      Ops::awgn_csi_fx_accum(w, total, L.raw_table, L.mask, L.cbits, L.y_re[s],
                             L.y_im[s], L.h_re[s], L.h_im[s], L.fx_scale, out_costs);
    }
  }
}

/// One AWGN metric sweep (symbol s) over lanes [0, total): RNG draw +
/// channel-mode accumulate. Shared between the full-width and the
/// compressed phases of the fused kernel so the per-lane op sequence —
/// and with it the float result — is identical by construction.
template <class Ops>
static inline void awgn_symbol_sweep(const AwgnLevel& L, std::uint32_t s,
                                     const std::uint32_t* lanes, bool premixed,
                                     std::size_t total, std::uint32_t* w,
                                     float* acc) {
  const std::uint32_t data = L.ord[s] ^ 0x80000000u;  // RNG domain separation
  if (!L.use_csi) {
    // Plain l2: the RNG draw feeds the metric expression directly, no
    // scratch round-trip (per-lane ops identical to the split form).
    Ops::awgn_sweep(L.kind, L.salt, premixed, lanes, total, data, L.table, L.mask,
                    L.cbits, L.y_re[s], L.y_im[s], w, acc);
    return;
  }
  if (premixed)
    Ops::hash_premixed_n(lanes, total, data, w);
  else
    Ops::hash_n(L.kind, L.salt, lanes, total, data, w);
  if (L.fx_scale <= 0.0f) {
    Ops::awgn_csi_accum(w, total, L.raw_table, L.mask, L.cbits, L.y_re[s], L.y_im[s],
                        L.h_re[s], L.h_im[s], acc);
  } else {
    Ops::awgn_csi_fx_accum(w, total, L.raw_table, L.mask, L.cbits, L.y_re[s], L.y_im[s],
                           L.h_re[s], L.h_im[s], L.fx_scale, acc);
  }
}

/// The fused streaming expansion+prune head of the d=1 search (see
/// Backend::awgn_expand_prune). Phase 1 runs child hashing, the shared
/// pre-mix and the first symbol's metric full-width; phase 2 compresses
/// to the partial-cost survivors and finishes the remaining symbols on
/// the compressed lanes only. With no live bound (or a single symbol)
/// it degenerates to expand_all + d1_prune in one pass.
template <class Ops>
std::size_t awgn_expand_prune_t(const AwgnLevel& L, const std::uint32_t* states,
                                const float* parent_cost, std::size_t count,
                                std::uint32_t fanout, std::uint32_t cand_base,
                                std::uint64_t bound_key, std::uint32_t* out_states,
                                std::uint64_t* out_keys) {
  const std::size_t total = count * static_cast<std::size_t>(fanout);
  if (L.nsym == 0 || total == 0) {
    Ops::hash_children(L.kind, L.salt, states, count, fanout, out_states);
    float* const acc0 = L.acc_scratch;
    for (std::size_t i = 0; i < total; ++i) acc0[i] = 0.0f;
    return Ops::template d1_prune<F32Lane>(parent_cost, acc0, count, fanout, cand_base,
                                           bound_key, out_keys);
  }
  float* const acc = L.acc_scratch;
  std::uint32_t* const w = L.rng_scratch;

  // Child states and their RNG hash inputs in one fused pass: the
  // shared one-at-a-time pre-mix when the kind factors, the raw child
  // state otherwise. Either way the lane array is mutable scratch, so
  // phase 2 can compress it in place.
  const bool premixed = L.kind == hash::Kind::kOneAtATime && L.nsym > 1;
  std::uint32_t* const lanes = L.premix_scratch;
  Ops::hash_children_premix(L.kind, L.salt, premixed, states, count, fanout,
                            out_states, lanes);

  // First symbol *stores* its metric (0 + x == x exactly), replacing
  // the zero-fill + accumulate round-trip; CSI modes keep the
  // accumulate shape and pre-zero instead.
  if (!L.use_csi) {
    Ops::awgn_sweep0(L.kind, L.salt, premixed, lanes, total, L.ord[0] ^ 0x80000000u,
                     L.table, L.mask, L.cbits, L.y_re[0], L.y_im[0], w, acc);
  } else {
    for (std::size_t i = 0; i < total; ++i) acc[i] = 0.0f;
    awgn_symbol_sweep<Ops>(L, 0, lanes, premixed, total, w, acc);
  }
  if (L.nsym == 1 || bound_key == ~0ull) {
    // No pruning leverage: finish full-width, filter once at the end.
    for (std::uint32_t s = 1; s < L.nsym; ++s)
      awgn_symbol_sweep<Ops>(L, s, lanes, premixed, total, w, acc);
    return Ops::template d1_prune<F32Lane>(parent_cost, acc, count, fanout, cand_base,
                                           bound_key, out_keys);
  }

  // Partial-cost prune: only survivors get the remaining symbols.
  const std::size_t n =
      Ops::partial_compress(parent_cost, acc, count, fanout, bound_key, lanes,
                            L.idx_scratch);
  for (std::uint32_t s = 1; s < L.nsym; ++s)
    awgn_symbol_sweep<Ops>(L, s, lanes, premixed, n, w, acc);
  int log2_fanout = 0;
  while ((1u << log2_fanout) < fanout) ++log2_fanout;
  return Ops::final_prune(parent_cost, acc, L.idx_scratch, n, log2_fanout, cand_base,
                          bound_key, out_keys);
}

/// Quantized awgn_expand_all (see Backend::awgn_expand_all_u16): the
/// metric is one pre-tabulated gather per symbol per child, accumulated
/// in u32 lanes and clamped to the u16 saturation point once at the
/// end (≡ a per-step saturating chain; see AwgnLevelQ).
template <class Ops>
void awgn_expand_all_u16_t(const AwgnLevelQ& L, const std::uint32_t* states,
                           std::size_t count, std::uint32_t fanout,
                           std::uint32_t* out_states, std::uint16_t* out_costs) {
  Ops::hash_children(L.kind, L.salt, states, count, fanout, out_states);
  const std::size_t total = count * static_cast<std::size_t>(fanout);
  if (L.nsym == 0 || total == 0) {
    for (std::size_t i = 0; i < total; ++i) out_costs[i] = 0;
    return;
  }
  std::uint32_t* const w = L.rng_scratch;
  std::uint32_t* const acc = L.acc_scratch;

  const bool premixed =
      L.kind == hash::Kind::kOneAtATime && L.nsym > 1 && L.premix_scratch != nullptr;
  if (premixed) Ops::premix_n(L.salt, out_states, total, L.premix_scratch);

  for (std::uint32_t s = 0; s < L.nsym; ++s) {
    const std::uint32_t data = L.ord[s] ^ 0x80000000u;  // RNG domain separation
    const std::uint16_t* const row = L.qtab + s * static_cast<std::size_t>(L.qstride);
    if (s == 0) {
      Ops::awgn_q_sweep0(L.kind, L.salt, premixed,
                         premixed ? L.premix_scratch : out_states, total, data, row,
                         L.qmask, w, acc);
    } else {
      Ops::awgn_q_sweep(L.kind, L.salt, premixed,
                        premixed ? L.premix_scratch : out_states, total, data, row,
                        L.qmask, w, acc);
    }
  }
  for (std::size_t i = 0; i < total; ++i)
    out_costs[i] = static_cast<std::uint16_t>(acc[i] > 65535u ? 65535u : acc[i]);
}

/// Quantized fused streaming expansion+prune (see
/// Backend::awgn_expand_prune_u16). Same phase structure as
/// awgn_expand_prune_t with two integer-only sharpenings: the level's
/// pre-tabulated metric floors gate whole rows before any hashing
/// (min_rest[0]) and tighten the partial-cost filter (min_rest[1]).
template <class Ops>
std::size_t awgn_expand_prune_u16_t(const AwgnLevelQ& L, const std::uint32_t* states,
                                    const std::uint16_t* parent_cost, std::size_t count,
                                    std::uint32_t fanout, std::uint32_t cand_base,
                                    std::uint32_t bound_key, std::uint32_t* out_states,
                                    std::uint32_t* out_keys) {
  const std::size_t total = count * static_cast<std::size_t>(fanout);
  std::uint32_t* const acc = L.acc_scratch;
  if (L.nsym == 0 || total == 0) {
    Ops::hash_children(L.kind, L.salt, states, count, fanout, out_states);
    for (std::size_t i = 0; i < total; ++i) acc[i] = 0;
    return Ops::template d1_prune<U16Lane, std::uint32_t>(parent_cost, acc, count, fanout,
                                                          cand_base, bound_key, out_keys);
  }
  std::uint32_t* const w = L.rng_scratch;

  const bool premixed = L.kind == hash::Kind::kOneAtATime && L.nsym > 1;
  std::uint32_t* const lanes = L.premix_scratch;
  Ops::hash_children_premix(L.kind, L.salt, premixed, states, count, fanout,
                            out_states, lanes);

  Ops::awgn_q_sweep0(L.kind, L.salt, premixed, lanes, total, L.ord[0] ^ 0x80000000u,
                     L.qtab, L.qmask, w, acc);
  if (L.nsym == 1 || bound_key == 0xFFFFFFFFu) {
    for (std::uint32_t s = 1; s < L.nsym; ++s)
      Ops::awgn_q_sweep(L.kind, L.salt, premixed, lanes, total,
                        L.ord[s] ^ 0x80000000u,
                        L.qtab + s * static_cast<std::size_t>(L.qstride), L.qmask, w,
                        acc);
    return Ops::template d1_prune<U16Lane, std::uint32_t>(parent_cost, acc, count, fanout,
                                                          cand_base, bound_key, out_keys);
  }

  // Partial-cost prune with the remaining-symbol floors folded in.
  const std::size_t n = Ops::partial_compress_u16(
      parent_cost, acc, count, fanout, L.min_rest[0], L.min_rest[1], bound_key, lanes,
      L.idx_scratch);
  for (std::uint32_t s = 1; s < L.nsym; ++s)
    Ops::awgn_q_sweep(L.kind, L.salt, premixed, lanes, n, L.ord[s] ^ 0x80000000u,
                      L.qtab + s * static_cast<std::size_t>(L.qstride), L.qmask, w,
                      acc);
  int log2_fanout = 0;
  while ((1u << log2_fanout) < fanout) ++log2_fanout;
  // Widen the block's parent costs once so the final gather is a plain
  // 32-bit gather on every backend; w is free after the last sweep.
  std::uint32_t* const parent32 = w;
  for (std::size_t i = 0; i < count; ++i) parent32[i] = parent_cost[i];
  return Ops::final_prune_u16(parent32, acc, L.idx_scratch, n, log2_fanout, cand_base,
                              bound_key, out_keys);
}

template <class Ops>
void bsc_expand_all_t(const BscLevel& L, const std::uint32_t* states, std::size_t count,
                      std::uint32_t fanout, std::uint32_t* out_states, float* out_costs) {
  Ops::hash_children(L.kind, L.salt, states, count, fanout, out_states);
  const std::size_t total = count * static_cast<std::size_t>(fanout);
  for (std::size_t i = 0; i < total; ++i) out_costs[i] = 0.0f;
  if (L.nsym == 0 || total == 0) return;
  std::uint32_t* const w = L.rng_scratch;
  std::uint64_t* const acc = L.acc_scratch;

  const bool premixed =
      L.kind == hash::Kind::kOneAtATime && L.nsym > 1 && L.premix_scratch != nullptr;
  if (premixed) Ops::premix_n(L.salt, out_states, total, L.premix_scratch);

  // Coded bits for 64 received symbols at a time are packed into one
  // word per child; the Hamming metric is XOR + popcount per block.
  for (std::uint32_t blk = 0; blk * 64 < L.nsym; ++blk) {
    const std::uint32_t rem = L.nsym - blk * 64;
    const std::uint32_t jmax = rem < 64 ? rem : 64;
    for (std::size_t i = 0; i < total; ++i) acc[i] = 0;
    for (std::uint32_t j = 0; j < jmax; ++j) {
      const std::uint32_t data = L.ord[blk * 64 + j] ^ 0x80000000u;
      if (premixed)
        Ops::hash_premixed_n(L.premix_scratch, total, data, w);
      else
        Ops::hash_n(L.kind, L.salt, out_states, total, data, w);
      Ops::bsc_gather_bit(w, total, j, acc);
    }
    Ops::bsc_hamming_add(acc, total, L.rx_words[blk], out_costs);
  }
}

/// A backend's LaneKernels table for cost lane @p Lane: the single
/// instantiation of the Ops prune/regroup templates each backend TU
/// lists, once per lane.
template <class Ops, class Lane>
constexpr LaneKernels<Lane> lane_kernels_t() noexcept {
  return {Ops::template d1_prune<Lane>, Ops::template row_mins<Lane>,
          Ops::template regroup_emit<Lane>};
}

}  // namespace spinal::backend
