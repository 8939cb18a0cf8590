#pragma once
// Gray-coded square QAM modulation and soft demodulation for the
// baseline codes (§8: LDPC runs over the 802.11 BPSK/QPSK/16/64-QAM
// sets; Raptor over QAM-64 and dense QAM-256).
//
// Square QAM-2^(2m) is separable: m Gray bits select the I level and m
// the Q level, so demapping runs per axis in Theta(2^m) — the
// Theta(2^(alpha/2)) cost for QAM-2^alpha the paper quotes for its
// "careful demapping scheme that preserves soft information".

#include <cmath>
#include <complex>
#include <cstdint>
#include <span>
#include <vector>

#include "util/bitvec.h"

namespace spinal::modem {

/// Gray-coded modulator/demodulator for BPSK and square QAM.
class QamModem {
 public:
  /// @param bits_per_symbol 1 (BPSK), 2 (QPSK), 4 (QAM-16), 6 (QAM-64),
  ///        8 (QAM-256), ... any even value above 1; unit average power.
  explicit QamModem(int bits_per_symbol);

  int bits_per_symbol() const noexcept { return bps_; }

  /// Maps the next bits_per_symbol() bits of @p bits at @p pos to one
  /// symbol. Bits past bits.size() are treated as zero padding.
  std::complex<float> map(const util::BitVec& bits, std::size_t pos) const noexcept;

  /// Modulates a whole bit vector (zero-padded to a symbol boundary).
  std::vector<std::complex<float>> modulate(const util::BitVec& bits) const;

  /// Appends exact per-bit LLRs log(P(b=0)/P(b=1)) for one received
  /// symbol @p y under complex AWGN with noise variance @p noise_var
  /// (total, both dimensions): bits_per_symbol() values. Separable
  /// per-axis log-sum-exp over the 2^(bps/2) levels (BPSK uses the
  /// single real axis).
  void demap_soft(std::complex<float> y, double noise_var,
                  std::vector<float>& llrs_out) const;

  /// Appends the LLRs of every symbol of @p y, y.size() *
  /// bits_per_symbol() values. With a non-empty @p csi each y[i] is
  /// first equalised coherently by its fading coefficient h = csi[i]
  /// (see equalize): y[i] is divided by h and the noise variance by
  /// |h|^2. A deep fade or a non-finite y[i] or h (non_finite) is an
  /// erasure, all its LLRs zero. Throws
  /// std::invalid_argument, before appending anything, unless @p csi
  /// is empty or matches @p y.
  void demap_soft(std::span<const std::complex<float>> y,
                  std::span<const std::complex<float>> csi, double noise_var,
                  std::vector<float>& llrs_out) const;

  /// Per-axis amplitude levels (for tests / PAPR studies).
  const std::vector<float>& levels() const noexcept { return levels_; }

 private:
  int bps_;          // bits per complex symbol
  int m_;            // bits per axis (bps/2, or 1 for BPSK)
  bool bpsk_;        // true => one real dimension only
  std::vector<float> levels_;          // level for each m-bit Gray index
  std::vector<std::uint32_t> gray_;    // gray code of each natural index

  float axis_level(std::uint32_t bits) const noexcept;
  /// Writes the bits_per_symbol() LLRs of @p y to @p out.
  void demap_symbol(std::complex<float> y, double noise_var, float* out) const;
  void demap_axis(float y, double sigma2_axis, float* out) const;
};

/// The one erasure rule for non-finite input: a received sample @p y or
/// fading coefficient @p h with a NaN or infinite part says nothing
/// about the symbol sent, so every receiver drops it like a punctured
/// symbol instead of letting it poison its soft state for good.
inline bool non_finite(std::complex<float> y,
                       std::complex<float> h = {1.0f, 0.0f}) noexcept {
  return !std::isfinite(y.real()) || !std::isfinite(y.imag()) ||
         !std::isfinite(h.real()) || !std::isfinite(h.imag());
}

/// |h|^2 at or below which a coherent receiver treats a symbol as
/// erased: a fade this deep leaves only noise, and dividing by h would
/// turn that noise into confident soft values.
inline constexpr float kDeepFadeGain2 = 1e-9f;

/// Coherent equalisation by the fading coefficient @p h, the one
/// deep-fade rule of every CSI receiver: returns y/h and sets @p gain2
/// to |h|^2, the factor the symbol's precision (1/noise variance)
/// scales by. A deep fade (|h|^2 <= kDeepFadeGain2) is an erasure:
/// returns 0 with gain2 = 0, so the symbol carries no weight.
inline std::complex<float> equalize(std::complex<float> y, std::complex<float> h,
                                    float& gain2) noexcept {
  gain2 = std::norm(h);
  if (gain2 <= kDeepFadeGain2) {
    gain2 = 0.0f;
    return {};
  }
  return y * std::conj(h) / gain2;
}

/// Binary-reflected Gray code of @p x.
inline std::uint32_t binary_to_gray(std::uint32_t x) noexcept { return x ^ (x >> 1); }

/// Inverse of binary_to_gray.
std::uint32_t gray_to_binary(std::uint32_t g) noexcept;

}  // namespace spinal::modem
