#pragma once
// Bubble decoders (§4): rateless receivers that store every received
// symbol (keyed by SymbolId) and, on request, run the bubble tree
// search against everything received so far. Decode attempts are
// idempotent — per §7.1 the tree is rebuilt each attempt rather than
// cached, because new symbols change pruning decisions.
//
// SpinalDecoder handles the AWGN channel (§4.1's l2 metric) and, when
// symbols arrive with CSI, the coherent fading metric |y - h·x|^2
// (§8.3). BscSpinalDecoder uses Hamming distance (§4.1).
//
// The hot path is batched: each decode flattens the received symbols
// into per-spine SoA arrays once, then the search expands whole leaf
// arrays through the fused child-hash + cost kernels of the active
// SIMD backend (backend/backend.h: scalar, SSE4.2, AVX2 or NEON,
// captured per decode from backend::active()). decode()/decode_into()
// run in a private DecodeWorkspace the decoder allocates on its first
// such call (runtime-served decoders, which always decode in a
// worker-pinned workspace, never pay for one), so repeated decode
// attempts are allocation-free after the first. A workspace holds
// nothing between attempts (the tree is rebuilt each time), so one
// workspace serves any sequence of blocks, of any geometry, back to
// back. The output is bit-identical to the retained scalar reference
// (decode_reference()) under every backend.
// One decoder instance must not run decode() concurrently from two
// threads (the workspace is shared); distinct instances are fine.

#include <complex>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "backend/backend.h"
#include "hash/spine_hash.h"
#include "modem/constellation.h"
#include "spinal/beam_search.h"
#include "spinal/params.h"
#include "spinal/schedule.h"
#include "util/bitvec.h"

namespace spinal {

/// Outcome of one decode attempt.
struct DecodeResult {
  util::BitVec message;  ///< most likely message (approximate ML)
  double path_cost;      ///< its total path cost under the metric
};

namespace detail {

/// All per-decoder scratch: the search buffers plus the SoA image of
/// the received symbols. Sized by assign/resize only, so the steady
/// state (same params, no new symbols) never touches the heap.
struct DecodeWorkspace {
  SearchWorkspace search;
  SearchResult result;

  // Received symbols flattened per spine: symbols of spine s occupy
  // [soa_off[s], soa_off[s+1]) of ord / y_re / y_im / h_re / h_im
  // (AWGN; y pre-quantised in fixed-point mode) or of the packed
  // rx_bits words (BSC: bit j of word soa_word_off[s] + j/64).
  std::vector<std::uint32_t> soa_off;
  std::vector<std::uint32_t> ord;
  std::vector<float> y_re, y_im, h_re, h_im;
  std::vector<std::uint32_t> soa_word_off;
  std::vector<std::uint64_t> rx_bits;

  // Quantized decode path (CostPrecision != kFloat32, see
  // spinal/cost_model.h): each level's admissible remaining-cost
  // floors (nsym+1 suffix sums of per-symbol row minima; level s's
  // slice starts at soa_off[s] + s). The metric rows themselves live
  // on the decoder (built once per received symbol, not per attempt).
  std::vector<std::uint16_t> qmin_rest;

  /// Scratch the backend expansion kernels use (RNG draws, shared hash
  /// pre-mix / compacted lanes, metric accumulator, BSC bit
  /// accumulator, partial-prune survivor indices); sized here, in
  /// baseline code, before each kernel call.
  backend::ExpandScratch expand;
};

/// The decode_with body both decoders share (defined in decoder.cpp).
struct DecodeDriver;

}  // namespace detail

struct AwgnBatchEnv;
struct BscBatchEnv;

class SpinalDecoder {
 public:
  /// Throws std::invalid_argument on invalid parameters.
  explicit SpinalDecoder(const CodeParams& params);

  const CodeParams& params() const noexcept { return params_; }

  /// Stores one received symbol (AWGN: unit channel gain assumed).
  void add_symbol(SymbolId id, std::complex<float> y);

  /// Stores one received symbol with its fading coefficient (exact CSI,
  /// Fig 8-4). Pass h=(1,0) to ignore fading (Fig 8-5's AWGN decoder).
  /// A symbol whose y or csi has a NaN or infinite component is an
  /// erasure: it is dropped and not counted in symbols_received().
  void add_symbol(SymbolId id, std::complex<float> y, std::complex<float> csi);

  std::size_t symbols_received() const noexcept { return count_; }

  /// The cost representation decode() will actually use for the
  /// symbols received so far: the constructor-resolved precision knob
  /// (SPINAL_COST_PRECISION included), downgraded to kFloat32 when the
  /// decode is ineligible — non-eligible geometry, or CSI symbols
  /// received (see CodeParams::cost_precision).
  CostPrecision active_precision() const noexcept {
    return (q_build_ && !any_csi_) ? resolved_precision_ : CostPrecision::kFloat32;
  }

  /// Runs the bubble search over everything received so far.
  DecodeResult decode() const;

  /// Like decode(), but writes into @p out, reusing its storage — the
  /// allocation-free form for repeated attempts on a hot link.
  void decode_into(DecodeResult& out) const;

  /// Like decode_into(), but runs the search in caller-owned scratch
  /// @p ws instead of the decoder's internal workspace, optionally with
  /// a narrower beam: @p beam_width in [1, params().B) overrides B for
  /// this attempt (values <= 0 or >= params().B use the configured
  /// width). This is the decode runtime's entry point: worker threads
  /// pin one workspace per CodeParams and share it across thousands of
  /// sessions, and the load-adaptive policy trades accuracy for compute
  /// by shrinking the beam under queue pressure (the Fig 8-6 knob). A
  /// batch of blocks is a loop of these calls in one workspace: the
  /// result never depends on what @p ws decoded before (any decoder,
  /// beam width, symbol count or cost precision).
  /// Thread-safe for concurrent calls on one decoder with distinct
  /// workspaces as long as no symbols are added concurrently.
  void decode_with(detail::DecodeWorkspace& ws, DecodeResult& out,
                   int beam_width = 0) const;

  /// The retained scalar reference decode: per-node child() + node_cost()
  /// calls, no batching, no workspace reuse. Exists so the golden
  /// equivalence suite can pin the batched kernel bit-for-bit against
  /// the pre-batching search; not a hot-path API.
  DecodeResult decode_reference() const;

  /// Drops all received symbols (new code block).
  void reset();

 private:
  struct RxSymbol {
    std::int32_t ordinal;
    std::complex<float> y;
    std::complex<float> h;
  };

  CodeParams params_;
  hash::SpineHash hash_;
  modem::SpinalConstellation constellation_;
  float fx_scale_ = 0.0f;           // 2^frac_bits, or 0 in full float mode
  std::vector<float> fx_table_;     // constellation table pre-quantised to fx_scale_
  std::vector<std::vector<RxSymbol>> rx_;  // per spine index
  std::size_t count_ = 0;
  bool any_csi_ = false;

  // Quantized-path state (spinal/cost_model.h). The precision knob
  // (including the SPINAL_COST_PRECISION override) is resolved at
  // construction; when it lands on a narrow type and the geometry is
  // eligible, add_symbol builds the symbol's combined 2^(2c)-entry
  // metric row up front — one table build per received symbol, shared
  // by every subsequent decode attempt, mirroring the SoA flatten's
  // receiver-side precompute.
  CostPrecision resolved_precision_ = CostPrecision::kFloat32;
  bool q_build_ = false;        // build metric rows on arrival
  float q_scale_ = 0.0f;        // metric grid scale (2^4 u16, 2^3 u8)
  std::uint32_t q_cap_ = 0;     // per-symbol metric clamp
  std::uint32_t q_stride_ = 0;  // combined row length, 2^(2c)
  std::vector<std::vector<std::uint16_t>> qtab_;     // per spine: nsym rows (+1 gather sentinel)
  std::vector<std::vector<std::uint16_t>> qrow_min_;  // per spine: row minima

  /// decode()/decode_into() scratch, allocated on first use.
  mutable std::unique_ptr<detail::DecodeWorkspace> ws_;

  /// Flattens the AoS symbol store into @p ws's per-spine SoA arrays
  /// and (when the quantized path is eligible) rebuilds the per-level
  /// remaining-cost floors — everything decode_with does before the
  /// search proper.
  void flatten_soa(detail::DecodeWorkspace& ws) const;
  /// Builds the batched search environment over a flattened @p ws.
  AwgnBatchEnv batch_env(detail::DecodeWorkspace& ws) const;

  friend struct AwgnEnv;
  friend struct AwgnBatchEnv;
  friend struct detail::DecodeDriver;
};

class BscSpinalDecoder {
 public:
  explicit BscSpinalDecoder(const CodeParams& params);

  const CodeParams& params() const noexcept { return params_; }

  /// Stores one received (possibly flipped) coded bit.
  void add_bit(SymbolId id, std::uint8_t bit);

  std::size_t bits_received() const noexcept { return count_; }

  /// Runs the bubble search with the Hamming metric.
  DecodeResult decode() const;

  /// Allocation-free form of decode() (see SpinalDecoder::decode_into).
  void decode_into(DecodeResult& out) const;

  /// Caller-workspace + beam-override form (see SpinalDecoder::decode_with).
  void decode_with(detail::DecodeWorkspace& ws, DecodeResult& out,
                   int beam_width = 0) const;

  /// Scalar reference decode (see SpinalDecoder::decode_reference).
  DecodeResult decode_reference() const;

  void reset();

 private:
  struct RxBit {
    std::int32_t ordinal;
    std::uint8_t bit;
  };

  CodeParams params_;
  hash::SpineHash hash_;
  std::vector<std::vector<RxBit>> rx_;
  std::size_t count_ = 0;
  /// decode()/decode_into() scratch, allocated on first use.
  mutable std::unique_ptr<detail::DecodeWorkspace> ws_;

  /// Per-spine bit flatten + packed received words (see
  /// SpinalDecoder::flatten_soa).
  void flatten_soa(detail::DecodeWorkspace& ws) const;
  /// Builds the batched search environment over a flattened @p ws.
  BscBatchEnv batch_env(detail::DecodeWorkspace& ws) const;

  friend struct BscEnv;
  friend struct BscBatchEnv;
  friend struct detail::DecodeDriver;
};

}  // namespace spinal
