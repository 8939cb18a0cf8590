#pragma once
// Bubble decoder (§4): a rateless receiver that stores every received
// symbol (keyed by SymbolId) and, on request, runs the bubble tree
// search against everything received so far. Decode attempts are
// idempotent — per §7.1 the tree is rebuilt each attempt rather than
// cached, because new symbols change pruning decisions.
//
// One class template, Decoder<Metric>, serves both channels of the
// paper; the channel metric is its policy:
//
//   SpinalDecoder     Decoder<AwgnMetric>: §4.1's l2 metric over I/Q
//                     samples and, when symbols arrive with CSI, the
//                     coherent fading metric |y - h·x|^2 (§8.3).
//   BscSpinalDecoder  Decoder<BscMetric>: Hamming distance over coded
//                     bits (§4.1, the c=1 map of §3.3).
//
// The receive store, validation, the workspace and every decode entry
// point are written once; a metric supplies only its sample type, its
// per-arrival precompute, its SoA flatten and its search environments.
//
// The hot path is batched: each decode flattens the received symbols
// into per-spine SoA arrays once, then the search expands whole leaf
// arrays through the fused child-hash + cost kernels of the active
// SIMD backend (backend/backend.h: scalar, SSE4.2, AVX2, AVX-512 or
// NEON, captured per decode from backend::active()). decode()/decode_into()
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
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "backend/backend.h"
#include "hash/spine_hash.h"
#include "modem/constellation.h"
#include "spinal/beam_search.h"
#include "spinal/encoder.h"
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

}  // namespace detail

struct AwgnEnv;
struct AwgnBatchEnv;
struct BscEnv;
struct BscBatchEnv;

/// The AWGN / fading metric (§4.1's l2, §8.3's |y - h·x|^2): I/Q
/// samples, optionally with CSI. Holds the receiver-side precompute
/// every decode attempt on the received symbols shares.
struct AwgnMetric {
  using Sample = std::complex<float>;
  using Map = modem::SpinalConstellation;
  using Env = AwgnEnv;
  using BatchEnv = AwgnBatchEnv;

  struct Rx {
    std::int32_t ordinal;
    std::complex<float> y;
    std::complex<float> h{1.0f, 0.0f};  // unit channel gain without CSI
  };

 protected:  // the state and hooks of Decoder<AwgnMetric>
  explicit AwgnMetric(const CodeParams& params);
  /// The arrival precompute of @p r on spine @p spine (CSI flag,
  /// quantized metric row); false when @p r is an erasure: a NaN or
  /// infinite component in y or h carries no information about x.
  bool arrive(int spine, const Rx& r);
  void reset();

  modem::SpinalConstellation constellation_;
  float fx_scale_ = 0.0f;        // 2^frac_bits, or 0 in full float mode
  std::vector<float> fx_table_;  // constellation table pre-quantised to fx_scale_
  bool any_csi_ = false;

  // Quantized-path state (spinal/cost_model.h). The precision knob
  // (including the SPINAL_COST_PRECISION override) is resolved at
  // construction; when it lands on a narrow type and the geometry is
  // eligible, arrive() builds the symbol's two per-dimension metric
  // rows (2^c entries each, I then Q) up front — one table build per
  // received symbol, shared by every subsequent decode attempt,
  // mirroring the SoA flatten's receiver-side precompute.
  CostPrecision resolved_precision_ = CostPrecision::kFloat32;
  bool q_build_ = false;        // build metric rows on arrival
  float q_scale_ = 0.0f;        // metric grid scale (2^4 u16, 2^3 u8)
  std::uint32_t q_cap_ = 0;     // per-symbol metric clamp
  std::uint32_t q_stride_ = 0;  // per-symbol row pair length, 2 * 2^c
  std::vector<std::vector<std::uint16_t>> qtab_;      // per spine: nsym row pairs (+1 gather sentinel)
  std::vector<std::vector<std::uint16_t>> qrow_min_;  // per spine: row minima
};

/// The BSC metric (§4.1's Hamming distance): received coded bits. No
/// arrival precompute and no state.
struct BscMetric {
  using Sample = std::uint8_t;
  using Map = BitMap;
  using Env = BscEnv;
  using BatchEnv = BscBatchEnv;

  struct Rx {
    Rx(std::int32_t ord, Sample b) noexcept
        : ordinal(ord), bit(static_cast<std::uint8_t>(b & 1u)) {}
    std::int32_t ordinal;
    std::uint8_t bit;
  };

 protected:
  explicit BscMetric(const CodeParams& /*params*/) {}
  static bool arrive(int /*spine*/, const Rx& /*r*/) noexcept { return true; }
  static void reset() noexcept {}
};

/// The bubble decoder over @p Metric (AwgnMetric or BscMetric).
/// Explicitly instantiated for both in decoder.cpp.
template <class Metric>
class Decoder : private Metric {
 public:
  using Sample = typename Metric::Sample;

  /// Throws std::invalid_argument on invalid parameters.
  explicit Decoder(const CodeParams& params);

  const CodeParams& params() const noexcept { return params_; }

  /// Stores one received sample: an I/Q symbol (AWGN: unit channel gain
  /// assumed) or a possibly flipped coded bit (BSC). Throws
  /// std::out_of_range when @p id's spine index is outside the code.
  void add_symbol(SymbolId id, Sample y) { add(id, Rx{id.ordinal, y}); }

  /// AWGN only: stores one received symbol with its fading coefficient
  /// (exact CSI, Fig 8-4). Pass h=(1,0) to ignore fading (Fig 8-5's
  /// AWGN decoder). A symbol whose y or csi has a NaN or infinite
  /// component is an erasure: it is dropped and not counted in
  /// symbols_received().
  void add_symbol(SymbolId id, std::complex<float> y, std::complex<float> csi)
    requires std::is_same_v<Metric, AwgnMetric>
  {
    add(id, Rx{id.ordinal, y, csi});
  }

  std::size_t symbols_received() const noexcept { return count_; }

  /// AWGN only: the cost representation decode() will actually use for
  /// the symbols received so far: the constructor-resolved precision
  /// knob (SPINAL_COST_PRECISION included), downgraded to kFloat32 when
  /// the decode is ineligible — non-eligible geometry, or CSI symbols
  /// received (see CodeParams::cost_precision).
  CostPrecision active_precision() const noexcept
    requires std::is_same_v<Metric, AwgnMetric>
  {
    return (this->q_build_ && !this->any_csi_) ? this->resolved_precision_
                                               : CostPrecision::kFloat32;
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
  using Rx = typename Metric::Rx;

  CodeParams params_;
  hash::SpineHash hash_;
  std::vector<std::vector<Rx>> rx_;  // per spine index
  std::size_t count_ = 0;

  /// decode()/decode_into() scratch, allocated on first use.
  mutable std::unique_ptr<detail::DecodeWorkspace> ws_;

  /// Validates @p id's spine index, runs the metric's arrival
  /// precompute and stores @p r unless it is an erasure. Inline: a BSC
  /// symbol then reaches its store without a call.
  void add(SymbolId id, const Rx& r) {
    if (id.spine_index < 0 || id.spine_index >= static_cast<std::int32_t>(rx_.size()))
      throw std::out_of_range("Decoder::add_symbol: spine index out of range");
    if (!Metric::arrive(id.spine_index, r)) return;
    rx_[id.spine_index].push_back(r);
    ++count_;
  }

  // The per-metric pieces (specialized below).
  /// Flattens the AoS symbol store into @p ws's per-spine SoA arrays
  /// (plus, on the AWGN quantized path, the per-level remaining-cost
  /// floors) — everything decode_with does before the search proper.
  void flatten_soa(detail::DecodeWorkspace& ws) const;
  /// The scalar reference environment (decode_reference).
  typename Metric::Env reference_env() const;
  /// The batched search environment over a flattened @p ws.
  typename Metric::BatchEnv batch_env(detail::DecodeWorkspace& ws) const;

  friend typename Metric::Env;
  friend typename Metric::BatchEnv;
};

template <>
void Decoder<AwgnMetric>::flatten_soa(detail::DecodeWorkspace& ws) const;
template <>
AwgnEnv Decoder<AwgnMetric>::reference_env() const;
template <>
AwgnBatchEnv Decoder<AwgnMetric>::batch_env(detail::DecodeWorkspace& ws) const;
template <>
void Decoder<BscMetric>::flatten_soa(detail::DecodeWorkspace& ws) const;
template <>
BscEnv Decoder<BscMetric>::reference_env() const;
template <>
BscBatchEnv Decoder<BscMetric>::batch_env(detail::DecodeWorkspace& ws) const;

extern template class Decoder<AwgnMetric>;
extern template class Decoder<BscMetric>;

using SpinalDecoder = Decoder<AwgnMetric>;
using BscSpinalDecoder = Decoder<BscMetric>;

}  // namespace spinal
