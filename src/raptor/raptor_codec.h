#pragma once
// Raptor codec: LT inner code over a rate-0.95 LDGM precode, decoded by
// joint belief propagation over the combined factor graph with soft
// channel input (the Palanki-Yedidia style AWGN extension of §8).

#include <cstdint>
#include <optional>
#include <vector>

#include "raptor/lt.h"
#include "raptor/precode.h"
#include "util/bitvec.h"

namespace spinal::raptor {

class RaptorEncoder {
 public:
  RaptorEncoder(int info_bits, std::uint64_t seed = 0x5053);

  int info_bits() const noexcept { return precode_.info_bits(); }
  const RaptorPrecode& precode() const noexcept { return precode_; }
  const LtGenerator& lt() const noexcept { return lt_; }

  /// Prepares the intermediate block for @p info.
  void load(const util::BitVec& info);

  /// Rateless coded bit stream: bit @p index (any index, any order).
  int coded_bit(std::uint32_t index) const {
    return lt_.output_bit(index, intermediate_);
  }

 private:
  RaptorPrecode precode_;
  LtGenerator lt_;
  util::BitVec intermediate_;
};

/// Joint BP decoder. Received coded bits arrive as LLRs keyed by their
/// LT output index; decode attempts run over everything so far.
class RaptorDecoder {
 public:
  /// @param iterations  BP iterations per attempt (40, as for LDPC §8)
  RaptorDecoder(int info_bits, std::uint64_t seed = 0x5053, int iterations = 40);

  int info_bits() const noexcept { return precode_.info_bits(); }
  std::size_t bits_received() const noexcept { return rx_index_.size(); }

  /// Adds one received coded bit (LLR = log P(0)/P(1)).
  void add_coded_bit(std::uint32_t lt_index, float llr);

  /// One BP decode attempt, capped at @p iterations (the runtime's
  /// effort knob; <= 0 runs the configured count). Returns the info-bit
  /// estimate; nullopt when the posterior fails the precode checks or
  /// the correlation test (caller may also CRC-check).
  std::optional<util::BitVec> decode(int iterations = 0);

  void reset();

 private:
  RaptorPrecode precode_;
  LtGenerator lt_;
  int iterations_;

  std::vector<std::uint32_t> rx_index_;
  std::vector<float> rx_llr_;
};

}  // namespace spinal::raptor
