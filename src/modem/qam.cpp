#include "modem/qam.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace spinal::modem {

std::uint32_t gray_to_binary(std::uint32_t g) noexcept {
  std::uint32_t b = g;
  for (std::uint32_t shift = 1; shift < 32; shift <<= 1) b ^= b >> shift;
  return b;
}

QamModem::QamModem(int bits_per_symbol) : bps_(bits_per_symbol) {
  if (bps_ < 1 || bps_ > 20 || (bps_ > 1 && bps_ % 2 != 0))
    throw std::invalid_argument("QamModem: bits_per_symbol must be 1 or even in [2,20]");
  bpsk_ = (bps_ == 1);
  m_ = bpsk_ ? 1 : bps_ / 2;

  const std::uint32_t levels_per_axis = 1u << m_;
  // Odd-integer grid ..., -3, -1, +1, +3, ... normalised to unit average
  // symbol power. BPSK concentrates all power on the I axis.
  double e_axis = 0.0;
  std::vector<double> raw(levels_per_axis);
  for (std::uint32_t i = 0; i < levels_per_axis; ++i) {
    raw[i] = 2.0 * static_cast<double>(i) - static_cast<double>(levels_per_axis - 1);
    e_axis += raw[i] * raw[i];
  }
  e_axis /= levels_per_axis;
  const double symbol_power = bpsk_ ? e_axis : 2.0 * e_axis;
  const double scale = 1.0 / std::sqrt(symbol_power);

  levels_.resize(levels_per_axis);
  gray_.resize(levels_per_axis);
  for (std::uint32_t i = 0; i < levels_per_axis; ++i) {
    levels_[i] = static_cast<float>(raw[i] * scale);
    gray_[i] = binary_to_gray(i);
  }
}

float QamModem::axis_level(std::uint32_t bits) const noexcept {
  // bits are the Gray label; find the level whose Gray code matches.
  return levels_[gray_to_binary(bits & ((1u << m_) - 1))];
}

std::complex<float> QamModem::map(const util::BitVec& bits, std::size_t pos) const noexcept {
  if (bpsk_) {
    const bool b = pos < bits.size() && bits.get(pos);
    return {b ? -levels_[1] : levels_[1], 0.0f};
  }
  const std::uint32_t i_bits = bits.get_bits(pos, static_cast<unsigned>(m_));
  const std::uint32_t q_bits = bits.get_bits(pos + m_, static_cast<unsigned>(m_));
  return {axis_level(i_bits), axis_level(q_bits)};
}

std::vector<std::complex<float>> QamModem::modulate(const util::BitVec& bits) const {
  const std::size_t nsym = (bits.size() + bps_ - 1) / bps_;
  std::vector<std::complex<float>> out(nsym);
  for (std::size_t s = 0; s < nsym; ++s) out[s] = map(bits, s * bps_);
  return out;
}

void QamModem::demap_axis(float y, double sigma2_axis, float* out) const {
  const std::uint32_t levels_per_axis = 1u << m_;
  // Per-level metric exp(-(y-l)^2 / (2 sigma2_axis)); accumulate log-sum
  // per bit value with the max-trick for stability.
  double metric[1u << 10];  // m_ <= 10 per axis
  double best = -1e300;
  for (std::uint32_t i = 0; i < levels_per_axis; ++i) {
    const double d = static_cast<double>(y) - levels_[i];
    metric[i] = -d * d / (2.0 * sigma2_axis);
    best = std::max(best, metric[i]);
  }
  for (int b = 0; b < m_; ++b) {
    double sum0 = 0.0, sum1 = 0.0;
    for (std::uint32_t i = 0; i < levels_per_axis; ++i) {
      const std::uint32_t label = gray_[i];  // Gray label of this level
      const double w = std::exp(metric[i] - best);
      if ((label >> b) & 1u)
        sum1 += w;
      else
        sum0 += w;
    }
    const double eps = 1e-300;
    out[b] = static_cast<float>(std::log(sum0 + eps) - std::log(sum1 + eps));
  }
}

void QamModem::demap_symbol(std::complex<float> y, double noise_var, float* out) const {
  if (bpsk_) {
    // Noise variance on the single used dimension is noise_var/2 when the
    // channel is complex; LLR = 2*y*a / (noise_var/2) with a = |level|.
    const double a = levels_[1] < 0 ? -levels_[1] : levels_[1];
    out[0] = static_cast<float>(4.0 * a * y.real() / noise_var);
    return;
  }
  const double sigma2_axis = noise_var / 2.0;  // per-dimension variance
  demap_axis(y.real(), sigma2_axis, out);
  demap_axis(y.imag(), sigma2_axis, out + m_);
}

void QamModem::demap_soft(std::complex<float> y, double noise_var,
                          std::vector<float>& llrs_out) const {
  demap_soft(std::span(&y, 1), {}, noise_var, llrs_out);
}

void QamModem::demap_soft(std::span<const std::complex<float>> y,
                          std::span<const std::complex<float>> csi, double noise_var,
                          std::vector<float>& llrs_out) const {
  if (!csi.empty() && csi.size() != y.size())
    throw std::invalid_argument("QamModem::demap_soft: csi does not match y");
  const std::size_t base = llrs_out.size();
  llrs_out.resize(base + y.size() * static_cast<std::size_t>(bps_));
  float* out = llrs_out.data() + base;
  for (std::size_t i = 0; i < y.size(); ++i, out += bps_) {
    std::complex<float> v = y[i];
    double nv = noise_var;
    float gain2 = 1.0f;
    if (non_finite(v, csi.empty() ? std::complex<float>{1.0f, 0.0f} : csi[i]))
      gain2 = 0.0f;
    else if (!csi.empty())
      v = equalize(v, csi[i], gain2);
    if (gain2 == 0.0f) {  // erased: a non-finite sample or a deep fade
      std::fill(out, out + bps_, 0.0f);
      continue;
    }
    nv /= gain2;  // the noise grew by 1/|h|^2
    demap_symbol(v, nv, out);
  }
}

}  // namespace spinal::modem
