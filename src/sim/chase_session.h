#pragma once
// The chase-combining RatelessSession the fixed-block baselines share
// (LDPC and turbo). The whole coded block, Gray-mapped onto QAM, is
// retransmitted round after round; the receiver demaps each round to
// per-bit LLRs, equalising by the CSI when the channel hands it over,
// and adds them to the rounds before it. That makes a fixed-rate code
// rateless, attempting at round boundaries behind the same engine and
// decode runtime as the rateless codes. A codec supplies its encoder,
// its decoder and (optionally) its workspace and effort knob.

#include <complex>
#include <optional>
#include <span>
#include <vector>

#include "modem/qam.h"
#include "sim/session.h"

namespace spinal::sim {

class ChaseSession : public RatelessSession {
 public:
  void start(const util::BitVec& message) override;
  /// One whole coded block per chunk.
  std::vector<std::complex<float>> next_chunk() override { return tx_symbols_; }
  /// Throws std::invalid_argument, before any state changes, unless
  /// @p csi is empty or matches @p y. LLRs past the coded block (the
  /// last symbol's padding) are dropped.
  void receive_chunk(std::span<const std::complex<float>> y,
                     std::span<const std::complex<float>> csi) override;
  /// nullopt before the first round; else decode() over the combined LLRs.
  std::optional<util::BitVec> try_decode_with(CodecWorkspace* ws, int effort) override;
  int max_chunks() const override { return max_rounds_; }
  void set_noise_hint(double noise_variance) override { noise_var_ = noise_variance; }

 protected:
  /// Throws std::invalid_argument, prefixed by @p codec, unless
  /// max_rounds >= 1.
  ChaseSession(const char* codec, int bits_per_symbol, int max_rounds);

 private:
  /// The coded block carrying @p message.
  virtual util::BitVec encode(const util::BitVec& message) const = 0;
  /// One attempt over the chase-combined per-coded-bit @p llrs at
  /// @p effort (<= 0: the configured full effort) in the pinned @p ws
  /// (nullptr: none pinned).
  virtual std::optional<util::BitVec> decode(std::span<const float> llrs, int effort,
                                             CodecWorkspace* ws) = 0;

  modem::QamModem qam_;
  int max_rounds_;
  std::vector<std::complex<float>> tx_symbols_;  ///< one coded block, modulated
  std::vector<float> llr_;           ///< chase-combined per-coded-bit LLRs
  std::vector<float> chunk_llrs_;    ///< one received chunk's demapped LLRs
  bool any_rx_ = false;              ///< at least one round received
  double noise_var_ = 1.0;
};

}  // namespace spinal::sim
