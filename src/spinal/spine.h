#pragma once
// Spine construction (§3.1): s_i = h(s_{i-1}, m̄_i), s_0 given, where
// m̄_i is the i-th k-bit chunk of the message.

#include <cstdint>
#include <vector>

#include "hash/spine_hash.h"
#include "spinal/params.h"
#include "util/bitvec.h"

namespace spinal {

/// Computes the spine values s_1 .. s_{n/k} for @p message (element 0 of
/// the result is s_1). The message must have exactly params.n bits.
/// Throws std::invalid_argument on a size mismatch.
std::vector<std::uint32_t> compute_spine(const CodeParams& params,
                                         const hash::SpineHash& h,
                                         const util::BitVec& message);

}  // namespace spinal
