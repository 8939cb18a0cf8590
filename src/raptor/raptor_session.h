#pragma once
// RatelessSession adapter for the Raptor baseline over dense QAM (§8:
// "results for the dense QAM-256 constellation as well as QAM-64").
// Coded bits are packed bits_per_symbol at a time into Gray-mapped QAM
// symbols; the receiver demaps to per-bit LLRs and runs joint BP.

#include <algorithm>
#include <cstdint>

#include "modem/qam.h"
#include "raptor/raptor_codec.h"
#include "sim/session.h"

namespace spinal::raptor {

struct RaptorSessionConfig {
  int info_bits = 9500;        ///< paper's Raptor block size (Fig 8-1)
  int bits_per_symbol = 8;     ///< 8 = QAM-256, 6 = QAM-64
  int chunk_symbols = 64;      ///< symbols per engine chunk
  int bp_iterations = 40;
  int max_passes_equiv = 60;   ///< give-up bound, in multiples of k bits
  std::uint64_t seed = 0x5053;
};

class RaptorSession : public sim::RatelessSession {
 public:
  explicit RaptorSession(const RaptorSessionConfig& config);

  int message_bits() const override { return config_.info_bits; }
  void start(const util::BitVec& message) override;
  std::vector<std::complex<float>> next_chunk() override;
  /// Throws std::invalid_argument, before any state changes, unless
  /// @p csi is empty or matches @p y.
  void receive_chunk(std::span<const std::complex<float>> y,
                     std::span<const std::complex<float>> csi) override;
  /// Effort = BP iteration cap. Raptor rebuilds the joint factor graph
  /// per attempt, so there is no pinnable workspace yet (@p ws is
  /// ignored; the runtime counts these attempts as unpinned).
  std::optional<util::BitVec> try_decode_with(sim::CodecWorkspace* ws,
                                              int effort) override;
  sim::EffortProfile effort_profile() const override {
    return {config_.bp_iterations, std::min(4, config_.bp_iterations)};
  }
  int max_chunks() const override;
  void set_noise_hint(double noise_variance) override { noise_var_ = noise_variance; }

 private:
  RaptorSessionConfig config_;
  RaptorEncoder encoder_;
  RaptorDecoder decoder_;
  modem::QamModem qam_;
  std::uint32_t next_bit_ = 0;      // next LT output index to transmit
  std::uint32_t rx_bit_ = 0;        // next LT output index at the receiver
  std::vector<float> chunk_llrs_;   // one received chunk's demapped LLRs
  double noise_var_ = 1.0;          // demapper noise estimate (engine SNR)
  std::size_t min_bits_to_try_ = 0; // skip hopeless BP runs
};

}  // namespace spinal::raptor
