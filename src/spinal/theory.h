#pragma once
// Analytical results from §4.6 and Appendix A (Theorem 1): the rate a
// polynomial bubble decoder provably achieves with the uniform
// constellation, and the constant gap 1/2 log2(pi e / 6) it pays for
// the uniform (rather than Gaussian) shaping.
//
// The theorem is stated for the real AWGN channel with capacity
// (1/2) log2(1+SNR) per real symbol; our symbols are complex with one
// c-bit draw per dimension, so the per-complex-symbol forms double both
// the capacity and the penalty.

#include <cstdint>

namespace spinal::theory {

/// Shaping loss of the uniform constellation: (1/2) log2(pi e / 6)
/// bits per real dimension (~0.2546).
double uniform_shaping_loss_real();

/// Theorem 1's delta(c, SNR) per real symbol:
/// 3 (1+SNR) 2^-c + (1/2) log2(pi e / 6).
double theorem1_delta_real(int c, double snr_linear);

/// Achievable rate bound per COMPLEX symbol: C(SNR) - 2 delta, floored
/// at zero. This is what the measured spinal rate should approach from
/// below as B grows.
double theorem1_rate_bound(int c, double snr_db);

/// Smallest pass count L satisfying L (C - delta) > k for the complex
/// channel, i.e. the decodable-pass bound of Appendix A; returns -1
/// when no finite L suffices (SNR below the delta floor).
int theorem1_min_passes(int k, int c, double snr_db);

/// c large enough that the 3(1+SNR)2^-c quantisation term stays below
/// @p epsilon bits at @p snr_db — the Omega(log(1+SNR)) rule of §4.6.
int recommended_c(double snr_db, double epsilon = 0.25);

/// The normal-approximation converse with 16 bits of slack: the fewest
/// received symbols N with N C + 4 sqrt(N V) + 16 >= @p n, for a channel
/// of capacity @p C and dispersion @p V per symbol (bits, bits^2).
/// 4 sqrt(N V) is the second-order term of Polyanskiy, Poor and Verdu
/// (2010) at z = 4. 0 for every n <= 16; INT64_MAX when C and V are both
/// 0 (nothing gets through).
std::int64_t min_attempt_symbols(int n, double C, double V);

/// The rateless receiver's capacity gate: the fewest N >=
/// min_attempt_symbols(n, C, V) with N C + 4 sqrt(N V) + (1/2) log2 N
/// >= @p n. This is the same normal approximation with its third-order
/// term in place of the flat slack (about 3-4 bits at the block lengths
/// here, against 16). Below it no decoder recovers n bits except by
/// luck: z = 4 keeps the odds that a skipped attempt would have
/// succeeded near the CRC-16's own 2^-16 false-accept rate. Starting
/// from min_attempt_symbols keeps its 0 for n <= 16 and its INT64_MAX;
/// the root is found by bisection, in O(log N) steps however close C is
/// to 0.
std::int64_t attempt_gate_symbols(int n, double C, double V);

}  // namespace spinal::theory
