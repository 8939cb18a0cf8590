#pragma once
// RatelessSession adapter for the plain rate-1/5 turbo code (Strider's
// base code, §8): a ChaseSession whose whole coded block rides
// QPSK-modulated rounds, the receiver chase-combining LLRs across
// retransmissions. Its effort knob is the iteration budget. The BCJR
// scratch lives inside TurboCodec::decode, so there is no workspace to
// pin: runtime attempts run unpinned, and telemetry counts them.

#include <algorithm>
#include <cstdint>

#include "sim/chase_session.h"
#include "turbo/turbo_codec.h"

namespace spinal::turbo {

struct TurboSessionConfig {
  int info_bits = 1024;
  int iterations = 8;       ///< decoder iterations (two BCJR passes each)
  int bits_per_symbol = 2;  ///< QPSK, as in Strider's base code
  int max_rounds = 30;      ///< block retransmissions before giving up
  std::uint64_t interleaver_seed = 0xC0DE2012;
};

class TurboSession : public sim::ChaseSession {
 public:
  explicit TurboSession(const TurboSessionConfig& cfg)
      : ChaseSession("TurboSession", cfg.bits_per_symbol, cfg.max_rounds),
        config_(cfg),
        codec_(cfg.info_bits, cfg.iterations, cfg.interleaver_seed) {}

  int message_bits() const override { return config_.info_bits; }
  sim::EffortProfile effort_profile() const override {
    return {config_.iterations, std::min(2, config_.iterations)};
  }

 private:
  util::BitVec encode(const util::BitVec& message) const override {
    return codec_.encode(message);
  }
  /// Effort = decoder iteration cap (@p ws is ignored). The turbo
  /// decoder always yields a hard decision; the engine's validation
  /// against the transmitted message plays the link-layer CRC (as it
  /// does for spinal's candidates).
  std::optional<util::BitVec> decode(std::span<const float> llrs, int effort,
                                     sim::CodecWorkspace* /*ws*/) override {
    return codec_.decode(llrs, effort);
  }

  TurboSessionConfig config_;
  TurboCodec codec_;
};

}  // namespace spinal::turbo
