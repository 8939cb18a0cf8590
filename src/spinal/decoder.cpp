#include "spinal/decoder.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <type_traits>

#include "modem/qam.h"
#include "spinal/cost_model.h"

namespace spinal {
namespace {

/// Converts decoded chunk values back into an n-bit message, reusing
/// @p msg storage (allocation-free once capacity is established).
void chunks_to_message(const CodeParams& p, const std::vector<std::uint32_t>& chunks,
                       util::BitVec& msg) {
  msg.reset(static_cast<std::size_t>(p.n));
  for (int i = 0; i < p.spine_length(); ++i)
    msg.set_bits(static_cast<std::size_t>(i) * p.k,
                 static_cast<unsigned>(p.chunk_bits(i)), chunks[i]);
}

/// Appendix-B grid quantisation. One definition shared by the scalar
/// reference, the batched kernel and the pre-quantised table so all
/// three stay bit-identical.
inline float fx_quantise(float v, float scale) noexcept {
  return std::nearbyintf(v * scale) / scale;
}

/// Builds one symbol's quantized per-dimension metric rows
/// (spinal/cost_model.h): row[j] = min(round(S*(yr-x_j)^2), cap) and
/// row[dim + j] = min(round(S*(yi-x_j)^2), cap) for every constellation
/// coordinate x_j of @p table (dim entries) — exactly the table the f32
/// kernels read, so fixed-point mode composes. The kernels add one
/// entry of each and clamp the sum to cap. Returns the minimum of that
/// clamped sum over all index pairs, which factors per dimension
/// (min_w min(cap, qre+qim) == min(cap, min qre + min qim)).
/// Runs once per *received symbol* (add_symbol), not per decode
/// attempt; baseline scalar code shared by every backend, so the
/// quantized kernels' inputs are bit-identical by construction.
std::uint16_t build_quant_rows(float yr, float yi, const float* table, std::uint32_t dim,
                               float qs, std::uint32_t cap, std::uint16_t* row) {
  const float capf = static_cast<float>(cap);
  std::uint32_t minre = ~0u, minim = ~0u;
  for (std::uint32_t j = 0; j < dim; ++j) {
    const float dr = yr - table[j];
    const float di = yi - table[j];
    // Clamped before rounding: a far-off y would otherwise overflow
    // lrintf's range (an unspecified result).
    const auto qre = static_cast<std::uint32_t>(std::lrintf(std::min(dr * dr * qs, capf)));
    const auto qim = static_cast<std::uint32_t>(std::lrintf(std::min(di * di * qs, capf)));
    row[j] = static_cast<std::uint16_t>(qre);
    row[dim + j] = static_cast<std::uint16_t>(qim);
    minre = std::min(minre, qre);
    minim = std::min(minim, qim);
  }
  return static_cast<std::uint16_t>(std::min(minre + minim, cap));
}

}  // namespace

// ---------------------------------------------------------------- AWGN

/// The cost lane whose path-cost word is @p Cost: the search picks a
/// lane per decode and calls the Env's batched contract in its words.
template <class Cost>
using lane_of =
    std::conditional_t<std::is_same_v<Cost, float>, backend::F32Lane, backend::U16Lane>;

/// Retained scalar reference environment: per-node child() + node_cost()
/// exactly as the pre-batching decoder computed them. The golden
/// equivalence suite pins the batched kernel against this.
struct AwgnEnv {
  const SpinalDecoder& dec;
  bool use_csi;
  // Fixed-point model (Appendix B): quantise coordinates to a grid of
  // 2^-frac_bits before the subtract-square-accumulate, as an FPGA
  // datapath would. scale == 0 disables (full float).
  float fx_scale;

  std::uint32_t child(std::uint32_t state, std::uint32_t chunk) const noexcept {
    return dec.hash_(state, chunk);
  }

  float quantise(float v) const noexcept { return fx_quantise(v, fx_scale); }

  float node_cost(int spine_idx, std::uint32_t state) const noexcept {
    float acc = 0.0f;
    for (const auto& r : dec.rx_[spine_idx]) {
      const std::uint32_t w = dec.hash_.rng(state, static_cast<std::uint32_t>(r.ordinal));
      const std::complex<float> x = dec.constellation_.symbol(w);
      std::complex<float> ref = use_csi ? r.h * x : x;
      std::complex<float> y = r.y;
      if (fx_scale > 0.0f) {
        ref = {quantise(ref.real()), quantise(ref.imag())};
        y = {quantise(y.real()), quantise(y.imag())};
      }
      acc += std::norm(y - ref);
    }
    return acc;
  }
};

/// Batched environment: fuses child hashing, RNG draws, constellation
/// lookup and the l2 metric into per-level sweeps over contiguous SoA
/// arrays, all running in the pinned kernel backend (scalar / SSE4.2 /
/// AVX2 / AVX-512 / NEON — see backend/backend.h). Bit-identical to AwgnEnv
/// whichever backend runs: same hash composition, the same per-symbol
/// accumulation order, and the same float expression shapes (never
/// contracted — the build pins -ffp-contract=off everywhere).
struct AwgnBatchEnv : AwgnEnv {
  detail::DecodeWorkspace* ws;
  const backend::Backend* be;
  const float* table;      // pre-quantised in fixed-point mode
  const float* raw_table;  // unquantised (CSI path quantises after h·x)
  std::uint32_t mask;
  int cbits;

  const backend::Backend& search_backend() const noexcept { return *be; }

  // ---- U16Lane (quantized path metric) ----
  // Active only when decode_with resolved the precision knob to a
  // narrow type AND the decode is eligible (AWGN without CSI, c <= 6
  // so each per-dimension row fits the AVX-512 register tables, B·2^k
  // <= 65536 so candidate indices fit the u32 packed key's low half).
  // The search checks quantized() per run and silently stays on the
  // F32Lane otherwise.
  bool q_on = false;              ///< this decode runs the quantized pipeline
  float q_scale_v = 0.0f;         ///< metric grid scale (2^4 u16, 2^3 u8)
  std::uint32_t q_cap = 0;        ///< per-symbol metric clamp

  bool quantized() const noexcept { return q_on; }
  float quant_scale() const noexcept { return q_scale_v; }

  using AwgnEnv::node_cost;

  /// Scalar per-node metric on the quantized grid (prologue levels):
  /// the saturating-add chain over the symbols' clamped per-dimension
  /// sums, identical to the kernels' accumulate+clamp.
  std::uint32_t node_cost(int spine_idx, std::uint32_t state,
                          backend::U16Lane) const noexcept {
    const std::uint32_t begin = ws->soa_off[spine_idx];
    const std::uint32_t nsym = ws->soa_off[spine_idx + 1] - begin;
    const std::uint16_t* row = dec.qtab_[spine_idx].data();
    std::uint32_t acc = 0;
    for (std::uint32_t i = 0; i < nsym; ++i, row += 2 * (mask + 1u)) {
      const std::uint32_t w = dec.hash_.rng(state, ws->ord[begin + i]);
      const std::uint32_t m = row[w & mask] + row[mask + 1u + ((w >> cbits) & mask)];
      acc = backend::quant_sat_add(acc, std::min(m, q_cap));
    }
    return acc;
  }

  /// The level's admissible per-child cost floor: min_rest[0], the
  /// saturated sum of this level's per-symbol row minima (0 for levels
  /// with no received symbols). The search adds it to sorted parent
  /// costs to cut leaves before they are ever hashed.
  std::uint32_t level_floor(int spine_idx) const noexcept {
    return ws->qmin_rest[ws->soa_off[spine_idx] + static_cast<std::uint32_t>(spine_idx)];
  }

  /// Cost lane @p Lane's kernel inputs for one spine level over @p total
  /// children. Scratch is sized here, in baseline code, so the kernels
  /// (possibly compiled with wide-ISA flags) never touch std::vector
  /// internals; @p fused also sizes the streaming pipeline's survivor
  /// scratch (see LaneKernels::awgn_expand_prune).
  template <class Lane>
  typename Lane::Level level(int spine_idx, std::size_t total, bool fused) const {
    const std::uint32_t begin = ws->soa_off[spine_idx];
    const std::uint32_t nsym = ws->soa_off[spine_idx + 1] - begin;
    backend::ExpandScratch& sc = ws->expand;
    sc.rng_words.resize(total);
    sc.premix.resize(total);  // pre-mix or compacted RNG lanes
    if (fused) sc.idx.resize(total);
    std::uint32_t* const idx = fused ? sc.idx.data() : nullptr;
    if constexpr (std::is_same_v<Lane, backend::F32Lane>) {
      // expand_all accumulates straight into its output costs.
      if (fused) sc.acc.resize(total);
      return {dec.hash_.kind(),
              dec.hash_.salt(),
              ws->ord.data() + begin,
              nsym,
              ws->y_re.data() + begin,
              ws->y_im.data() + begin,
              ws->h_re.data() + begin,
              ws->h_im.data() + begin,
              use_csi,
              fx_scale,
              table,
              raw_table,
              mask,
              cbits,
              sc.rng_words.data(),
              sc.premix.data(),
              fused ? sc.acc.data() : nullptr,
              idx};
    } else {
      sc.acc_q.resize(total);
      return {dec.hash_.kind(),
              dec.hash_.salt(),
              ws->ord.data() + begin,
              nsym,
              dec.qtab_[spine_idx].data(),
              cbits,
              q_cap,
              ws->qmin_rest.data() + begin + spine_idx,
              sc.rng_words.data(),
              sc.premix.data(),
              sc.acc_q.data(),
              idx};
    }
  }

  /// The batched expansion in the lane whose cost word is @p Cost.
  template <class Cost, class Lane = lane_of<Cost>>
  void expand_all(int spine_idx, const std::uint32_t* states, std::size_t count,
                  int fanout, std::uint32_t* out_states, Cost* out_costs) const {
    const auto f = static_cast<std::uint32_t>(fanout);
    be->lane<Lane>().awgn_expand_all(level<Lane>(spine_idx, count * f, false), states,
                                     count, f, out_states, out_costs);
  }

  /// The streaming d=1 pipeline head (see LaneKernels::awgn_expand_prune):
  /// expansion, metric sweeps and the online prune in one kernel call,
  /// with the post-first-symbol sweeps narrowed to partial-cost
  /// survivors. Bit-identical to expand_all + the generic prune.
  template <class Cost, class Lane = lane_of<Cost>>
  std::size_t expand_prune(int spine_idx, const std::uint32_t* states,
                           const Cost* parent_cost, std::size_t count, int fanout,
                           std::uint32_t cand_base, typename Lane::key_t bound_key,
                           std::uint32_t* out_states,
                           typename Lane::key_t* out_keys) const {
    const auto f = static_cast<std::uint32_t>(fanout);
    return be->lane<Lane>().awgn_expand_prune(level<Lane>(spine_idx, count * f, true),
                                              states, parent_cost, count, f, cand_base,
                                              bound_key, out_states, out_keys);
  }
};

AwgnMetric::AwgnMetric(const CodeParams& params)
    : constellation_(symbol_map<Map>(params)) {
  if (params.fixed_point_frac_bits > 0) {
    fx_scale_ = static_cast<float>(1 << params.fixed_point_frac_bits);
    fx_table_.resize(constellation_.table().size());
    for (std::size_t i = 0; i < fx_table_.size(); ++i)
      fx_table_[i] = fx_quantise(constellation_.table()[i], fx_scale_);
  }
  // Quantized-path eligibility that is a construction-time fact:
  // precision knob (env override included), metric-row size (2c <= 12:
  // each per-dimension row has at most 64 entries, one AVX-512
  // register table), candidate-index width (B·2^k <= 65536 so indices
  // fit the u32 packed key's low half; a per-attempt beam override
  // only shrinks B). CSI symbols can still veto at decode time.
  resolved_precision_ = resolve_cost_precision(params.cost_precision);
  q_build_ = resolved_precision_ != CostPrecision::kFloat32 && 2 * params.c <= 12 &&
             (static_cast<std::uint64_t>(params.B) << params.k) <= 65536u;
  if (q_build_) {
    q_scale_ = cost_quant_scale(resolved_precision_);
    q_cap_ = cost_quant_cap(resolved_precision_);
    q_stride_ = 2u * (constellation_.mask() + 1u);
    qtab_.resize(static_cast<std::size_t>(params.spine_length()));
    qrow_min_.resize(static_cast<std::size_t>(params.spine_length()));
  }
}

bool AwgnMetric::arrive(int spine, const Rx& r) {
  // A non-finite sample carries no information about x: treat it as an
  // erasure (not stored, counted or tabulated), exactly like a
  // punctured symbol, instead of letting NaN/Inf poison every path cost.
  if (modem::non_finite(r.y, r.h)) return false;
  if (r.h != std::complex<float>{1.0f, 0.0f}) any_csi_ = true;
  if (q_build_ && !any_csi_) {
    // Metric-row precompute on arrival (amortized across every decode
    // attempt on this symbol set). Uses the same quantised y and table
    // the f32 kernels see, so fixed-point mode composes.
    float yr = r.y.real(), yi = r.y.imag();
    if (fx_scale_ > 0.0f) {
      yr = fx_quantise(yr, fx_scale_);
      yi = fx_quantise(yi, fx_scale_);
    }
    const float* table = fx_scale_ > 0.0f ? fx_table_.data() : constellation_.data();
    // Rows append behind a one-u16 sentinel: the 32-bit SIMD gather of
    // a row's last entry reads two bytes past it (AwgnLevelQ::qtab
    // contract), so the table always keeps one zero entry of slack.
    std::vector<std::uint16_t>& rows = qtab_[spine];
    const std::size_t off = rows.empty() ? 0 : rows.size() - 1;
    rows.resize(off + q_stride_ + 1);
    rows.back() = 0;
    qrow_min_[spine].push_back(build_quant_rows(yr, yi, table, q_stride_ / 2, q_scale_,
                                                q_cap_, rows.data() + off));
  }
  return true;
}

void AwgnMetric::reset() {
  for (auto& v : qtab_) v.clear();
  for (auto& v : qrow_min_) v.clear();
  any_csi_ = false;
}

template <>
void SpinalDecoder::flatten_soa(detail::DecodeWorkspace& ws) const {
  // ---- Flatten the AoS symbol store into per-spine SoA arrays ----
  // (once per decode; fixed-point quantisation of y hoisted out of the
  // search inner loop here).
  const int S = params_.spine_length();
  ws.soa_off.resize(S + 1);
  ws.ord.resize(count_);
  ws.y_re.resize(count_);
  ws.y_im.resize(count_);
  ws.h_re.resize(count_);
  ws.h_im.resize(count_);
  std::uint32_t off = 0;
  for (int s = 0; s < S; ++s) {
    ws.soa_off[s] = off;
    for (const Rx& r : rx_[s]) {
      ws.ord[off] = static_cast<std::uint32_t>(r.ordinal);
      float yr = r.y.real(), yi = r.y.imag();
      if (fx_scale_ > 0.0f) {
        yr = fx_quantise(yr, fx_scale_);
        yi = fx_quantise(yi, fx_scale_);
      }
      ws.y_re[off] = yr;
      ws.y_im[off] = yi;
      ws.h_re[off] = r.h.real();
      ws.h_im[off] = r.h.imag();
      ++off;
    }
  }
  ws.soa_off[S] = off;

  // ---- Quantized-path eligibility (see AwgnBatchEnv) ----
  // Construction already resolved the precision knob and built the
  // metric rows on symbol arrival; CSI symbols veto here. Ineligible
  // decodes silently take the f32 pipeline, which stays the golden
  // reference. Only each level's remaining-cost floors (suffix sums of
  // the precomputed row minima) are rebuilt per attempt.
  if (q_build_ && !any_csi_) {
    ws.qmin_rest.resize(count_ + static_cast<std::size_t>(S));
    for (int s = 0; s < S; ++s) {
      const std::uint32_t begin = ws.soa_off[s];
      const std::uint32_t nsym = ws.soa_off[s + 1] - begin;
      std::uint16_t* mr = ws.qmin_rest.data() + begin + s;
      std::uint32_t rest = 0;
      mr[nsym] = 0;
      for (std::uint32_t j = nsym; j-- > 0;) {
        rest = backend::quant_sat_add(rest, qrow_min_[s][j]);
        mr[j] = static_cast<std::uint16_t>(rest);
      }
    }
  }
}

template <>
AwgnEnv SpinalDecoder::reference_env() const {
  return {*this, any_csi_, fx_scale_};
}

template <>
AwgnBatchEnv SpinalDecoder::batch_env(detail::DecodeWorkspace& ws) const {
  AwgnBatchEnv env{reference_env(),
                   &ws,
                   &backend::active(),
                   fx_scale_ > 0.0f ? fx_table_.data() : constellation_.data(),
                   constellation_.data(),
                   constellation_.mask(),
                   constellation_.c()};
  env.q_on = q_build_ && !any_csi_;
  env.q_scale_v = q_scale_;
  env.q_cap = q_cap_;
  return env;
}

// ----------------------------------------------------------------- BSC

/// Retained scalar reference (see AwgnEnv).
struct BscEnv {
  const BscSpinalDecoder& dec;

  std::uint32_t child(std::uint32_t state, std::uint32_t chunk) const noexcept {
    return dec.hash_(state, chunk);
  }

  float node_cost(int spine_idx, std::uint32_t state) const noexcept {
    float acc = 0.0f;
    for (const auto& r : dec.rx_[spine_idx]) {
      const std::uint8_t coded = static_cast<std::uint8_t>(
          dec.hash_.rng(state, static_cast<std::uint32_t>(r.ordinal)) & 1u);
      acc += static_cast<float>(coded != r.bit);
    }
    return acc;
  }
};

/// Batched BSC environment: coded bits for 64 received symbols at a time
/// are packed into one word per candidate child, and the Hamming metric
/// becomes XOR + popcount against the packed received word (all in the
/// pinned kernel backend). The counts are small exact integers, so the
/// float costs match the scalar one-bit-at-a-time accumulation exactly.
struct BscBatchEnv : BscEnv {
  detail::DecodeWorkspace* ws;
  const backend::Backend* be;

  const backend::Backend& search_backend() const noexcept { return *be; }

  void expand_all(int spine_idx, const std::uint32_t* states, std::size_t count,
                  int fanout, std::uint32_t* out_states, float* out_costs) const {
    const std::size_t total = count * static_cast<std::size_t>(fanout);
    const std::uint32_t begin = ws->soa_off[spine_idx];
    const std::uint32_t nsym = ws->soa_off[spine_idx + 1] - begin;
    backend::ExpandScratch& sc = ws->expand;
    sc.rng_words.resize(total);
    sc.acc_bits.resize(total);
    const bool premixed = dec.hash_.has_premix() && nsym > 1;
    if (premixed) sc.premix.resize(total);
    const backend::BscLevel level{dec.hash_.kind(),
                                  dec.hash_.salt(),
                                  ws->ord.data() + begin,
                                  nsym,
                                  ws->rx_bits.data() + ws->soa_word_off[spine_idx],
                                  sc.rng_words.data(),
                                  premixed ? sc.premix.data() : nullptr,
                                  sc.acc_bits.data()};
    be->bsc_expand_all(level, states, count, static_cast<std::uint32_t>(fanout),
                       out_states, out_costs);
  }
};

template <>
void BscSpinalDecoder::flatten_soa(detail::DecodeWorkspace& ws) const {
  // ---- Flatten per-spine bits: ordinals SoA + packed received words ----
  const int S = params_.spine_length();
  ws.soa_off.resize(S + 1);
  ws.soa_word_off.resize(S + 1);
  ws.ord.resize(count_);
  std::uint32_t off = 0, woff = 0;
  for (int s = 0; s < S; ++s) {
    ws.soa_off[s] = off;
    ws.soa_word_off[s] = woff;
    off += static_cast<std::uint32_t>(rx_[s].size());
    woff += static_cast<std::uint32_t>((rx_[s].size() + 63) / 64);
  }
  ws.soa_off[S] = off;
  ws.soa_word_off[S] = woff;
  ws.rx_bits.assign(woff, 0);
  for (int s = 0; s < S; ++s) {
    std::uint32_t o = ws.soa_off[s];
    const std::uint32_t wbase = ws.soa_word_off[s];
    std::uint32_t j = 0;
    for (const Rx& r : rx_[s]) {
      ws.ord[o++] = static_cast<std::uint32_t>(r.ordinal);
      ws.rx_bits[wbase + j / 64] |= static_cast<std::uint64_t>(r.bit & 1u) << (j % 64);
      ++j;
    }
  }
}

template <>
BscEnv BscSpinalDecoder::reference_env() const {
  return {*this};
}

template <>
BscBatchEnv BscSpinalDecoder::batch_env(detail::DecodeWorkspace& ws) const {
  return {reference_env(), &ws, &backend::active()};
}

// ------------------------------------------------- the decoder, once

template <class Metric>
Decoder<Metric>::Decoder(const CodeParams& params)
    : Metric(validated(params)),
      params_(params),
      hash_(params.hash_kind, params.salt),
      rx_(static_cast<std::size_t>(params.spine_length())) {}

template <class Metric>
DecodeResult Decoder<Metric>::decode() const {
  DecodeResult out;
  decode_into(out);
  return out;
}

template <class Metric>
void Decoder<Metric>::decode_into(DecodeResult& out) const {
  if (!ws_) ws_ = std::make_unique<detail::DecodeWorkspace>();
  decode_with(*ws_, out);
}

template <class Metric>
void Decoder<Metric>::decode_with(detail::DecodeWorkspace& ws, DecodeResult& out,
                                  int beam_width) const {
  using BatchEnv = typename Metric::BatchEnv;
  flatten_soa(ws);
  CodeParams p = params_;
  if (beam_width > 0 && beam_width < p.B) p.B = beam_width;
  const BatchEnv env = batch_env(ws);
  const detail::BeamSearch<BatchEnv> search;
  search.run(env, p, ws.search, ws.result);
  chunks_to_message(params_, ws.result.chunks, out.message);
  out.path_cost = ws.result.best_cost;
}

template <class Metric>
DecodeResult Decoder<Metric>::decode_reference() const {
  const detail::BeamSearch<typename Metric::Env> search;
  const detail::SearchResult r = search.run(reference_env(), params_);
  DecodeResult out{{}, r.best_cost};
  chunks_to_message(params_, r.chunks, out.message);
  return out;
}

template <class Metric>
void Decoder<Metric>::reset() {
  for (auto& v : rx_) v.clear();
  count_ = 0;
  Metric::reset();
}

template class Decoder<AwgnMetric>;
template class Decoder<BscMetric>;

}  // namespace spinal
