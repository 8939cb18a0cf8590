#include "strider/strider_codec.h"

#include <cmath>
#include <stdexcept>

#include "hash/jenkins.h"
#include "util/crc.h"

namespace spinal::strider {

std::vector<std::vector<float>> pass_layer_powers(const StriderConfig& config) {
  const int K = config.layers;
  const int M = config.max_passes;
  const double bs = config.beta_star;

  // Cumulative energy target after m passes: E_k(m) = alpha_m *
  // exp(-bs*k/m), alpha_m normalising the total to m (unit power per
  // pass). Per-pass gains are the increments, clamped at zero and
  // renormalised (increments are non-negative in practice because both
  // alpha_m and exp(-bs*k/m) grow with m).
  auto cumulative = [&](int m, int k) {
    double denom = 0.0;
    for (int j = 0; j < K; ++j) denom += std::exp(-bs * j / m);
    return m / denom * std::exp(-bs * k / m);
  };

  std::vector<std::vector<float>> g2(M, std::vector<float>(K, 0.0f));
  std::vector<double> prev(K, 0.0);
  for (int m = 1; m <= M; ++m) {
    double row_sum = 0.0;
    for (int k = 0; k < K; ++k) {
      const double e = cumulative(m, k);
      const double inc = std::max(0.0, e - prev[k]);
      g2[m - 1][k] = static_cast<float>(inc);
      row_sum += inc;
      prev[k] = std::max(prev[k], e);
    }
    // Unit transmit power per pass.
    if (row_sum > 0)
      for (int k = 0; k < K; ++k)
        g2[m - 1][k] = static_cast<float>(g2[m - 1][k] / row_sum);
  }
  return g2;
}

namespace {

/// Deterministic coefficient for (pass, layer): pseudo-random phase from
/// a hash, magnitude sqrt(P_layer) so E|y|^2 = sum of layer powers = 1.
std::complex<float> make_coefficient(std::uint64_t seed, int pass, int layer,
                                     float amplitude) {
  const std::uint32_t h = hash::one_at_a_time_word(
      static_cast<std::uint32_t>(seed) ^ (static_cast<std::uint32_t>(pass) * 2654435761u),
      static_cast<std::uint32_t>(layer) + 0x9E37u);
  const float phase = static_cast<float>(h) * (2.0f * static_cast<float>(M_PI) /
                                               4294967296.0f);
  return {amplitude * std::cos(phase), amplitude * std::sin(phase)};
}

int qpsk_symbols_for(const StriderConfig& c, const turbo::TurboCodec& t) {
  (void)c;
  return (t.coded_bits() + 1) / 2;  // 2 bits per QPSK symbol, zero-padded
}

}  // namespace

// ------------------------------------------------------------- encoder

StriderEncoder::StriderEncoder(const StriderConfig& config)
    : config_(config),
      turbo_(config.turbo_input_bits(), config.turbo_iterations, config.seed),
      qpsk_(2),
      symbols_per_pass_(qpsk_symbols_for(config, turbo_)) {
  if (config.layers < 1) throw std::invalid_argument("Strider: layers must be >= 1");
  if (config.layer_bits < 1)
    throw std::invalid_argument("Strider: layer_bits must be >= 1");
  if (config.beta_star <= 0)
    throw std::invalid_argument("Strider: beta_star must be positive");
  for (const auto& row : pass_layer_powers(config)) {
    amplitude_.emplace_back();
    for (float p : row) amplitude_.back().push_back(std::sqrt(p));
  }
}

void StriderEncoder::load(const util::BitVec& message) {
  if (message.size() != static_cast<std::size_t>(config_.message_bits()))
    throw std::invalid_argument("StriderEncoder::load: wrong message length");

  layer_symbols_.assign(config_.layers, {});
  for (int k = 0; k < config_.layers; ++k) {
    util::BitVec payload(config_.layer_bits);
    for (int i = 0; i < config_.layer_bits; ++i)
      payload.set(i, message.get(static_cast<std::size_t>(k) * config_.layer_bits + i));
    const util::BitVec with_crc = util::crc32_append(payload);
    const util::BitVec coded = turbo_.encode(with_crc);
    layer_symbols_[k] = qpsk_.modulate(coded);
  }
}

std::complex<float> StriderEncoder::coefficient(int pass, int layer) const {
  const int m = std::min<int>(pass, static_cast<int>(amplitude_.size()) - 1);
  return make_coefficient(config_.seed, pass, layer, amplitude_[m][layer]);
}

void StriderEncoder::emit(int pass, int begin, int end,
                          std::vector<std::complex<float>>& out) const {
  for (int t = begin; t < end; ++t) {
    std::complex<float> acc{0.0f, 0.0f};
    for (int k = 0; k < config_.layers; ++k)
      acc += coefficient(pass, k) * layer_symbols_[k][t];
    out.push_back(acc);
  }
}

// ------------------------------------------------------------- decoder

StriderDecoder::StriderDecoder(const StriderConfig& config)
    : config_(config),
      turbo_(config.turbo_input_bits(), config.turbo_iterations, config.seed),
      qpsk_(2),
      symbols_per_pass_(qpsk_symbols_for(config, turbo_)),
      power_(pass_layer_powers(config)),
      layer_done_(config.layers, false),
      layer_bits_(config.layers),
      layer_symbol_cache_(config.layers) {
  for (const auto& row : power_) {
    amplitude_.emplace_back();
    for (float p : row) amplitude_.back().push_back(std::sqrt(p));
  }
}

std::complex<float> StriderDecoder::coefficient(int pass, int layer) const {
  const int m = std::min<int>(pass, static_cast<int>(amplitude_.size()) - 1);
  return make_coefficient(config_.seed, pass, layer, amplitude_[m][layer]);
}

void StriderDecoder::add_symbols(std::span<const std::complex<float>> y,
                                 std::span<const std::complex<float>> csi) {
  if (!csi.empty() && csi.size() != y.size())
    throw std::invalid_argument("StriderDecoder::add_symbols: csi does not match y");
  for (std::size_t i = 0; i < y.size(); ++i) {
    const long pos = total_symbols_++;
    const int pass = static_cast<int>(pos / symbols_per_pass_);
    if (pass >= static_cast<int>(rx_.size())) {
      rx_.emplace_back();
      rx_.back().reserve(symbols_per_pass_);
      inv_noise_.emplace_back();
      inv_noise_.back().reserve(symbols_per_pass_);
    }
    std::complex<float> v = y[i];
    float inv_nv = static_cast<float>(1.0 / noise_var_);
    if (modem::non_finite(v, csi.empty() ? std::complex<float>{1.0f, 0.0f} : csi[i])) {
      // Erased: the symbol keeps its position with zero symbol and weight.
      v = {};
      inv_nv = 0.0f;
    } else if (!csi.empty()) {
      // Coherent equalise; a deep fade is erased (zero symbol, zero weight).
      float gain2 = 0.0f;
      v = modem::equalize(y[i], csi[i], gain2);
      inv_nv = static_cast<float>(gain2 / noise_var_);  // noise grew by 1/|h|^2
    }
    // Subtract already-decoded layers from the incoming symbol so late
    // passes join a clean residual.
    const int t = static_cast<int>(pos % symbols_per_pass_);
    for (int k = 0; k < config_.layers; ++k)
      if (layer_done_[k]) v -= coefficient(pass, k) * layer_symbol_cache_[k][t];
    rx_[pass].push_back(v);
    inv_noise_[pass].push_back(inv_nv);
  }
}

bool StriderDecoder::try_layer(int layer, int turbo_iterations) {
  const int P = static_cast<int>(rx_.size());
  if (P == 0) return false;

  // Residual interference and signal power per pass (the gain schedule
  // varies across passes).
  std::vector<float> pass_interference(P, 0.0f);
  std::vector<float> pass_signal(P, 0.0f);
  for (int m = 0; m < P; ++m) {
    const int row = std::min<int>(m, static_cast<int>(power_.size()) - 1);
    pass_signal[m] = power_[row][layer];
    float i_sum = 0.0f;
    for (int k = 0; k < config_.layers; ++k)
      if (!layer_done_[k] && k != layer) i_sum += power_[row][k];
    pass_interference[m] = i_sum;
  }

  // Weighted MRC across passes, per symbol position.
  std::vector<float> llrs;
  llrs.reserve(static_cast<std::size_t>(symbols_per_pass_) * 2);

  for (int t = 0; t < symbols_per_pass_; ++t) {
    std::complex<float> z{0.0f, 0.0f};
    float weight_sum = 0.0f;
    for (int m = 0; m < P; ++m) {
      if (t >= static_cast<int>(rx_[m].size())) continue;  // partial pass
      if (inv_noise_[m][t] == 0.0f) continue;              // erased (deep fade)
      const float nv = 1.0f / inv_noise_[m][t];            // per-symbol noise
      const float w = 1.0f / (nv + pass_interference[m]);  // MMSE-ish weight
      z += w * std::conj(coefficient(m, layer)) * rx_[m][t];
      weight_sum += w * pass_signal[m];
    }
    if (weight_sum <= 0.0f) {
      llrs.push_back(0.0f);
      llrs.push_back(0.0f);
      continue;
    }
    // z/weight_sum estimates the QPSK symbol with effective noise
    // variance 1/weight_sum (standard MRC algebra).
    const std::complex<float> est = z / weight_sum;
    qpsk_.demap_soft(est, 1.0 / weight_sum, llrs);
  }

  llrs.resize(static_cast<std::size_t>(turbo_.coded_bits()));
  const util::BitVec decoded = turbo_.decode(llrs, turbo_iterations);
  if (!util::crc32_check(decoded)) return false;

  // CRC ok: record payload and cancel this layer from every pass.
  util::BitVec payload(config_.layer_bits);
  for (int i = 0; i < config_.layer_bits; ++i) payload.set(i, decoded.get(i));
  layer_bits_[layer] = payload;
  layer_done_[layer] = true;

  const util::BitVec coded = turbo_.encode(decoded);
  layer_symbol_cache_[layer] = qpsk_.modulate(coded);
  const auto& symbols = layer_symbol_cache_[layer];
  for (int m = 0; m < static_cast<int>(rx_.size()); ++m) {
    const std::complex<float> c = coefficient(m, layer);
    const int valid = static_cast<int>(rx_[m].size());
    for (int t = 0; t < valid; ++t) rx_[m][t] -= c * symbols[t];
  }
  return true;
}

std::optional<util::BitVec> StriderDecoder::decode(int turbo_iterations) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (int k = 0; k < config_.layers; ++k) {
      if (layer_done_[k]) continue;
      if (try_layer(k, turbo_iterations)) progress = true;
    }
  }

  for (bool done : layer_done_)
    if (!done) return std::nullopt;

  util::BitVec message(config_.message_bits());
  for (int k = 0; k < config_.layers; ++k)
    for (int i = 0; i < config_.layer_bits; ++i)
      message.set(static_cast<std::size_t>(k) * config_.layer_bits + i,
                  layer_bits_[k].get(i));
  return message;
}

void StriderDecoder::reset() {
  rx_.clear();
  inv_noise_.clear();
  total_symbols_ = 0;
  std::fill(layer_done_.begin(), layer_done_.end(), false);
  for (auto& cache : layer_symbol_cache_) cache.clear();
}

}  // namespace spinal::strider
