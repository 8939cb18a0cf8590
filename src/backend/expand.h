#pragma once
// The fused per-level expansion drivers, shared by every backend. A
// backend supplies an Ops policy (ScalarOps in scalar_kernels.h, or
// SimdOps<V> in simd_kernels.h: static member kernels with one set of
// signatures); the drivers contribute the level orchestration — child
// hashing, the shared one-at-a-time pre-mix, the per-symbol RNG draws,
// the channel metric accumulation and the streaming prune — so the
// symbol/block loop structure (and with it the float accumulation
// order) is identical across backends by construction. Only the lane
// loops inside Ops differ.
//
// The AWGN drivers are written once per *cost lane* (backend.h): the
// lane supplies its level struct (Lane::Level), its accumulator word
// (Lane::acc_t), its metric sweep and its admissible prune floors
// (awgn_level_sweep and prune_floors below, one overload per level
// struct); everything else is shared.
//
// Deliberately freestanding: no std:: algorithm or container calls,
// and everything sits in an anonymous namespace. These templates are
// instantiated inside SIMD-flagged translation units, where any
// vague-linkage instantiation could be compiled with wide instructions
// and then be the copy the linker keeps for the whole (baseline)
// binary; the check_backend_linkage test
// (tools/check_backend_linkage.py) holds the objects to that. Scratch
// is sized by the caller (see the *Level structs); loops are
// hand-rolled.

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "backend/backend.h"

namespace spinal::backend {
namespace {

/// One symbol's F32Lane metric sweep over lanes [0, n): RNG draw +
/// channel-mode l2 accumulation. @p kStore makes it the first symbol's
/// sweep (the plain metric stores, 0 + x == x exactly; the CSI modes
/// keep the accumulate shape and pre-zero instead). Shared by every
/// phase of both drivers, so the per-lane op sequence — and with it the
/// float result — is identical by construction.
template <class Ops, bool kStore>
void awgn_level_sweep(const AwgnLevel& L, std::uint32_t s, const std::uint32_t* lanes,
                      bool premixed, std::size_t n, std::uint32_t* w, float* acc) {
  const std::uint32_t data = L.ord[s] ^ 0x80000000u;  // RNG domain separation
  if (!L.use_csi) {
    // y was quantised in the SoA build and the table entries are
    // pre-quantised, so fixed-point and float share one loop; the RNG
    // draw feeds the metric expression directly.
    Ops::template awgn_sweep<kStore>(L.kind, L.salt, premixed, lanes, n, data, L.table,
                                     L.mask, L.cbits, L.y_re[s], L.y_im[s], w, acc);
    return;
  }
  if constexpr (kStore)
    for (std::size_t i = 0; i < n; ++i) acc[i] = 0.0f;
  if (premixed)
    Ops::hash_premixed_n(lanes, n, data, w);
  else
    Ops::hash_n(L.kind, L.salt, lanes, n, data, w);
  if (L.fx_scale <= 0.0f) {
    Ops::awgn_csi_accum(w, n, L.raw_table, L.mask, L.cbits, L.y_re[s], L.y_im[s],
                        L.h_re[s], L.h_im[s], acc);
  } else {
    Ops::awgn_csi_fx_accum(w, n, L.raw_table, L.mask, L.cbits, L.y_re[s], L.y_im[s],
                           L.h_re[s], L.h_im[s], L.fx_scale, acc);
  }
}

/// One symbol's U16Lane metric sweep: the clamped sum of two
/// per-dimension lookups per child from symbol s's metric rows,
/// accumulated unclamped in u32.
template <class Ops, bool kStore>
void awgn_level_sweep(const AwgnLevelQ& L, std::uint32_t s, const std::uint32_t* lanes,
                      bool premixed, std::size_t n, std::uint32_t* w,
                      std::uint32_t* acc) {
  Ops::template awgn_q_sweep<kStore>(L.kind, L.salt, premixed, lanes, n,
                                     L.ord[s] ^ 0x80000000u,
                                     L.qtab + (static_cast<std::size_t>(s) << (L.cbits + 1)),
                                     L.cbits, L.cap, w, acc);
}

/// The f32 metric tabulates no floors (F32Lane::kLevelFloor is false).
inline PruneFloors prune_floors(const AwgnLevel&) { return {}; }
/// The quantized rows' minima: the whole-level floor gates rows, the
/// floor of symbols 1.. tightens the partial keys.
inline PruneFloors prune_floors(const AwgnLevelQ& L) { return {L.min_rest[0], L.min_rest[1]}; }

/// LaneKernels::awgn_expand_all: the metric accumulates in
/// Lane::acc_t — straight into out_costs for F32Lane, in
/// level.acc_scratch clamped once to the u16 saturation point at the
/// end for U16Lane (≡ a per-step saturating chain; see AwgnLevelQ).
template <class Ops, class Lane>
void awgn_expand_all_t(const typename Lane::Level& L, const std::uint32_t* states,
                       std::size_t count, std::uint32_t fanout,
                       std::uint32_t* out_states, typename Lane::cost_t* out_costs) {
  using acc_t = typename Lane::acc_t;
  Ops::hash_children(L.kind, L.salt, states, count, fanout, out_states);
  const std::size_t total = count * static_cast<std::size_t>(fanout);
  if (L.nsym == 0 || total == 0) {
    for (std::size_t i = 0; i < total; ++i) out_costs[i] = 0;
    return;
  }
  acc_t* acc;
  if constexpr (std::is_same_v<acc_t, typename Lane::cost_t>)
    acc = out_costs;
  else
    acc = L.acc_scratch;

  // One state pre-mix shared by every symbol's RNG draw (when the hash
  // kind factors; one-at-a-time does, saving half the mixes).
  const bool premixed =
      L.kind == hash::Kind::kOneAtATime && L.nsym > 1 && L.premix_scratch != nullptr;
  if (premixed) Ops::premix_n(L.salt, out_states, total, L.premix_scratch);
  const std::uint32_t* const lanes = premixed ? L.premix_scratch : out_states;
  awgn_level_sweep<Ops, true>(L, 0, lanes, premixed, total, L.rng_scratch, acc);
  for (std::uint32_t s = 1; s < L.nsym; ++s)
    awgn_level_sweep<Ops, false>(L, s, lanes, premixed, total, L.rng_scratch, acc);
  if constexpr (!std::is_same_v<acc_t, typename Lane::cost_t>)
    for (std::size_t i = 0; i < total; ++i)
      out_costs[i] = static_cast<typename Lane::cost_t>(acc[i] > 65535u ? 65535u : acc[i]);
}

/// LaneKernels::awgn_expand_prune, the fused streaming expansion+prune
/// head of the d=1 search. Phase 1 runs child hashing, the shared
/// pre-mix and the first symbol's metric full-width; phase 2 compresses
/// to the partial-cost survivors (sharpened by the lane's prune floors)
/// and finishes the remaining symbols on the compressed lanes only.
/// With no live bound (or a single symbol) it degenerates to expand_all
/// + d1_prune in one pass.
template <class Ops, class Lane>
std::size_t awgn_expand_prune_t(const typename Lane::Level& L, const std::uint32_t* states,
                                const typename Lane::cost_t* parent_cost,
                                std::size_t count, std::uint32_t fanout,
                                std::uint32_t cand_base, typename Lane::key_t bound_key,
                                std::uint32_t* out_states,
                                typename Lane::key_t* out_keys) {
  using acc_t = typename Lane::acc_t;
  const std::size_t total = count * static_cast<std::size_t>(fanout);
  acc_t* const acc = L.acc_scratch;
  if (L.nsym == 0 || total == 0) {
    Ops::hash_children(L.kind, L.salt, states, count, fanout, out_states);
    for (std::size_t i = 0; i < total; ++i) acc[i] = 0;
    return Ops::template d1_prune<Lane, acc_t>(parent_cost, acc, count, fanout,
                                               cand_base, bound_key, out_keys);
  }
  std::uint32_t* const w = L.rng_scratch;

  // Child states and their RNG hash inputs in one fused pass: the
  // shared one-at-a-time pre-mix when the kind factors, the raw child
  // state otherwise. Either way the lane array is mutable scratch, so
  // phase 2 can compress it in place.
  const bool premixed = L.kind == hash::Kind::kOneAtATime && L.nsym > 1;
  std::uint32_t* const lanes = L.premix_scratch;
  Ops::hash_children_premix(L.kind, L.salt, premixed, states, count, fanout,
                            out_states, lanes);
  awgn_level_sweep<Ops, true>(L, 0, lanes, premixed, total, w, acc);
  if (L.nsym == 1 || bound_key == Lane::kKeepAll) {
    // No pruning leverage: finish full-width, filter once at the end.
    for (std::uint32_t s = 1; s < L.nsym; ++s)
      awgn_level_sweep<Ops, false>(L, s, lanes, premixed, total, w, acc);
    return Ops::template d1_prune<Lane, acc_t>(parent_cost, acc, count, fanout,
                                               cand_base, bound_key, out_keys);
  }

  // Partial-cost prune: only survivors get the remaining symbols.
  const std::size_t n = Ops::template partial_compress<Lane>(
      parent_cost, acc, count, fanout, prune_floors(L), bound_key, lanes, L.idx_scratch);
  for (std::uint32_t s = 1; s < L.nsym; ++s)
    awgn_level_sweep<Ops, false>(L, s, lanes, premixed, n, w, acc);
  int log2_fanout = 0;
  while ((1u << log2_fanout) < fanout) ++log2_fanout;
  // The final gather reads parent costs in accumulator words: u16
  // parents widen once into w (free after the last sweep), so every
  // backend gathers plain 32-bit lanes.
  const acc_t* parent;
  if constexpr (std::is_same_v<acc_t, typename Lane::cost_t>) {
    parent = parent_cost;
  } else {
    for (std::size_t i = 0; i < count; ++i) w[i] = parent_cost[i];
    parent = w;
  }
  return Ops::template final_prune<Lane>(parent, acc, L.idx_scratch, n, log2_fanout,
                                         cand_base, bound_key, out_keys);
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
/// instantiation of the Ops lane templates, once per lane.
template <class Ops, class Lane>
constexpr LaneKernels<Lane> lane_kernels_t() noexcept {
  return {Ops::template d1_prune<Lane>, Ops::template row_mins<Lane>,
          Ops::template regroup_emit<Lane>, awgn_expand_all_t<Ops, Lane>,
          awgn_expand_prune_t<Ops, Lane>, Ops::template tighten<Lane>,
          Ops::template select<Lane>};
}

/// The whole kernel table of the backend whose kernels are @p Ops.
template <class Ops>
constexpr Backend backend_t(const char* name, int lanes) noexcept {
  return {name,
          lanes,
          Ops::hash_n,
          Ops::hash_children,
          Ops::premix_n,
          Ops::hash_premixed_n,
          bsc_expand_all_t<Ops>,
          Ops::xor_rows,
          lane_kernels_t<Ops, F32Lane>(),
          lane_kernels_t<Ops, U16Lane>()};
}

}  // namespace
}  // namespace spinal::backend
