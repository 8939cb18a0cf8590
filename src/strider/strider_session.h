#pragma once
// RatelessSession adapter for Strider. Plain Strider transmits whole
// passes (decode attempts at pass boundaries only); "Strider+" is the
// paper's puncturing enhancement — passes stream in subpass fractions
// and decode attempts may happen after each fraction, producing the
// finer-grained achievable rates of Fig 8-1.

#include <algorithm>

#include "sim/session.h"
#include "strider/strider_codec.h"

namespace spinal::strider {

struct StriderSessionConfig {
  StriderConfig code;
  bool punctured = false;  ///< true = Strider+ (8 chunks per pass)
  int subpasses = 8;
};

class StriderSession : public sim::RatelessSession {
 public:
  explicit StriderSession(const StriderSessionConfig& config);

  int message_bits() const override { return config_.code.message_bits(); }
  void start(const util::BitVec& message) override;
  std::vector<std::complex<float>> next_chunk() override;
  void receive_chunk(std::span<const std::complex<float>> y,
                     std::span<const std::complex<float>> csi) override;
  /// Effort = per-layer turbo iteration cap. The SIC decoder's state
  /// (residuals, decoded-layer caches) lives in the session, so there is
  /// no pinnable workspace yet (@p ws is ignored; the runtime counts
  /// these attempts as unpinned).
  std::optional<util::BitVec> try_decode_with(sim::CodecWorkspace* ws,
                                              int effort) override;
  sim::EffortProfile effort_profile() const override {
    return {config_.code.turbo_iterations,
            std::min(2, config_.code.turbo_iterations)};
  }
  int max_chunks() const override;
  void set_noise_hint(double noise_variance) override {
    decoder_.set_noise_variance(noise_variance);
  }

 private:
  StriderSessionConfig config_;
  StriderEncoder encoder_;
  StriderDecoder decoder_;
  long tx_symbols_ = 0;
};

}  // namespace spinal::strider
