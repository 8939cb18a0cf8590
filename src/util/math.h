#pragma once
// Information-theoretic and numeric helpers used by the evaluation
// framework (§8.1) and the Gaussian constellation map (§3.3).

#include <cmath>

namespace spinal::util {

/// dB -> linear power ratio.
inline double db_to_lin(double db) noexcept { return std::pow(10.0, db / 10.0); }

/// Linear power ratio -> dB.
inline double lin_to_db(double lin) noexcept { return 10.0 * std::log10(lin); }

/// Shannon capacity of the complex AWGN channel, bits per (complex)
/// symbol: C = log2(1 + SNR). This is the "Shannon bound" the paper
/// plots (e.g. 3 bits/symbol at 8.45 dB, §8.1).
double awgn_capacity(double snr_linear) noexcept;

/// Capacity of the real AWGN channel per real symbol: 0.5*log2(1+SNR).
double awgn_capacity_real(double snr_linear) noexcept;

/// Channel dispersion of the complex AWGN channel in bits^2 per
/// (complex) symbol: V = SNR (SNR + 2) / (SNR + 1)^2 * log2(e)^2, twice
/// the real channel's (Polyanskiy, Poor and Verdu, 2010). With C it sets
/// the normal approximation n ~ N C - sqrt(N V) Q^-1(eps).
double awgn_dispersion(double snr_linear) noexcept;

/// SNR (linear) at which the complex AWGN capacity equals @p rate
/// bits/symbol: the inverse of awgn_capacity.
double awgn_snr_for_rate(double rate_bits_per_symbol) noexcept;

/// Gap to capacity in dB per §8.1: for a code achieving @p rate at
/// @p snr_db, gap = snr_needed_db - snr_db (negative when the code needs
/// more SNR than the Shannon minimum). Example from the paper: rate 3 at
/// 12 dB -> 8.45 - 12 = -3.55 dB.
double gap_to_capacity_db(double rate_bits_per_symbol, double snr_db) noexcept;

/// Binary entropy H(p) in bits; H(0)=H(1)=0.
double binary_entropy(double p) noexcept;

/// Capacity of the binary symmetric channel with crossover @p p:
/// 1 - H(p) bits per channel use.
double bsc_capacity(double p) noexcept;

/// Channel dispersion of the binary symmetric channel in bits^2 per
/// channel use: V = p (1 - p) log2((1 - p) / p)^2; 0 at p = 0, 1/2, 1.
double bsc_dispersion(double p) noexcept;

/// Standard normal CDF Φ(x).
double phi(double x) noexcept;

/// Inverse standard normal CDF Φ⁻¹(p), p in (0,1). Acklam's rational
/// approximation refined with one Halley step; |error| < 1e-13.
double phi_inverse(double p) noexcept;

}  // namespace spinal::util
