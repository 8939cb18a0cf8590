#pragma once
// The decoder cost model of §4.5, as code: per-decode-attempt counts of
// hash/RNG evaluations, selection comparisons and storage, so designers
// can budget hardware the way §7/§8.4 do (B chosen "subject to a
// compute budget"; the Fig 8-6 x-axis is branch evaluations per bit).
//
// This header also defines the *quantized* cost representation used by
// the narrow-metric decode path (CostPrecision::kU16 / kU8):
//
//   Scaling.  A per-symbol branch metric |y - x|^2 is mapped to an
//   integer grid q = min(round(|y - x|^2 * S), cap) with
//     u16:  S = 2^4 = 16,  cap = 65535  (per-dimension and combined)
//     u8:   S = 2^3 = 8,   cap = 255    (coarser grid, 8-bit clamp)
//   The u16 scale is deliberately modest: after per-level
//   renormalization a level's surviving cost spread stays within a
//   byte of the packed (cost << 16 | candidate) selection key. With
//   the byte-radix select this scale was chosen under, S = 2^6 spilled
//   the spread into a second key byte and the selection phases
//   measurably outweighed the finer grid's (unmeasurable) BLER gain.
//   Per received symbol the decoder pre-tabulates the metric of each
//   dimension over the 2^c constellation coordinates (two u16 rows,
//   256 B at c=6), each entry clamped at cap before rounding; the hot
//   kernel adds one entry of each row, clamps the sum at cap and
//   accumulates it, per child per symbol. That is the same integer a
//   table over all 2^(2c) index pairs would hold, at 1/32 of its
//   memory (8 KiB per symbol at c=6), and small enough that on
//   AVX-512 both rows sit in registers. The u8 mode narrows only the
//   per-symbol grid and clamp; path accumulation always rides the 16-bit saturating lanes
//   (a true 8-bit path accumulator would wrap within a handful of
//   symbols at B=256 cost spreads — see README "Performance").
//
//   Saturation.  Path metrics accumulate with saturating adds, so a
//   path cost is exactly min(sum of scaled branch metrics, 65535) at
//   every point of the pipeline. Saturating adds are monotone
//   (satadd(p, m) >= p), which keeps every admissible-bound prune of
//   the streaming search exact in the quantized domain.
//
//   Renormalization (offset scheme).  After each beam step the decoder
//   subtracts the minimum surviving path metric from all survivors and
//   accumulates the subtracted offsets in a wide integer. Relative
//   order — all the beam search looks at — is unchanged, metrics never
//   wrap, and the reported float path cost is reconstructed as
//   (offset_sum + best_metric) / S.
//
// The f32 path stays the golden reference; quantized decodes are
// bit-identical across backends (pure integer kernels) and only
// statistically equivalent to f32 (BLER-delta gated).

#include <cstdint>

#include "spinal/params.h"

namespace spinal {

/// Fixed-point scale S = 2^frac applied to |y - x|^2 before rounding
/// to the integer metric grid.
constexpr float cost_quant_scale(CostPrecision p) noexcept {
  return p == CostPrecision::kU8 ? 8.0f : 16.0f;
}

/// Per-symbol metric clamp, applied to each dimension and to their
/// sum: 255 for the u8 grid, 65535 for u16.
constexpr std::uint32_t cost_quant_cap(CostPrecision p) noexcept {
  return p == CostPrecision::kU8 ? 255u : 65535u;
}

/// Resolves the effective cost precision for a decode: the
/// SPINAL_COST_PRECISION environment override ("f32", "u16", "u8" —
/// read once, mirroring SPINAL_BACKEND) wins over the per-params knob;
/// an unrecognised value warns once on stderr and falls back to
/// @p configured.
CostPrecision resolve_cost_precision(CostPrecision configured) noexcept;

struct DecodeCost {
  long steps;             ///< beam advances: n/k - d + 1
  int bits_per_step;      ///< message bits committed per step (= k)
  long nodes_explored;    ///< B 2^(kd) per step, summed
  long hash_evals;        ///< one spine-hash per explored node
  long rng_evals;         ///< L per explored node (L = passes received)
  long comparisons;       ///< selection work: ~B 2^k per step
  long beam_storage_bits; ///< leaves: B 2^(k(d-1)) x (state+cost+path)
  long backtrack_bits;    ///< arena: (n/k) B (k + log2 B)

  /// §4.5's headline number: branch evaluations per message bit,
  /// ~ B 2^k / k per pass (the Fig 8-6 budget axis for L = 1).
  double branch_evals_per_bit() const noexcept;
};

/// Cost of one decode attempt with @p passes_received passes buffered.
DecodeCost decode_attempt_cost(const CodeParams& params, int passes_received);

}  // namespace spinal
