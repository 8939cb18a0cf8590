#pragma once
// Quasi-cyclic LDPC construction in the style of the IEEE 802.11n
// codes the paper benchmarks against (§8: n = 648, rates 1/2, 2/3,
// 3/4, 5/6, 40-iteration BP).
//
// Substitution note (see DESIGN.md): the standard's circulant-shift
// tables are not available offline, so we build codes with the same
// skeleton — block length 648, circulant size Z = 27, 24 block-columns,
// dual-diagonal parity structure for the parity part and pseudo-random
// shifts with 4-cycle avoidance for the information part. The BP
// waterfall sits within a few tenths of a dB of the standard's codes,
// preserving the "LDPC envelope" shape of Fig 8-1.

#include <cstdint>

#include "ldpc/matrix.h"

namespace spinal::ldpc {

/// Supported 802.11n code rates.
enum class Rate { kHalf, kTwoThirds, kThreeQuarters, kFiveSixths };

double rate_value(Rate r) noexcept;

/// The shift-selection seed of this library's standard codes.
constexpr std::uint64_t kWifiMatrixSeed = 0x802011;

/// Builds the n=648, Z=27 parity-check matrix for @p rate.
/// @param seed  shift-selection seed (both ends must agree).
ParityMatrix make_wifi_style_matrix(Rate rate, std::uint64_t seed = kWifiMatrixSeed);

/// Block length shared by all rates.
constexpr int kWifiBlockBits = 648;
constexpr int kWifiCirculant = 27;

}  // namespace spinal::ldpc
