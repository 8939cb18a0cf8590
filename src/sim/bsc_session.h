#pragma once
// RatelessSession adapter for spinal codes over the binary symmetric
// channel (§3.3's trivial c=1 mapping, §4.1's Hamming metric): coded
// bits ride the real axis of the engine's complex-symbol interface
// (0.0 / 1.0) and ChannelSim::bsc() flips them. This puts the BSC
// construction behind the same execution engine — run_message,
// MessageRun, the experiment sweeps and the decode runtime — as the
// AWGN/fading sessions, with one chunk per puncturing subpass.

#include <algorithm>
#include <optional>

#include "sim/session.h"
#include "sim/spinal_workspace.h"
#include "spinal/decoder.h"
#include "spinal/encoder.h"
#include "spinal/schedule.h"

namespace spinal::sim {

/// Decodes through SpinalTarget under the kSpinalBsc batch key (it
/// shares SpinalSession's workspace key, never its batches).
class BscSession : public SpinalTarget<RatelessSession, BscSpinalDecoder> {
 public:
  explicit BscSession(const CodeParams& params);

  int message_bits() const override { return params_.n; }
  void start(const util::BitVec& message) override;
  std::vector<std::complex<float>> next_chunk() override;
  void receive_chunk(std::span<const std::complex<float>> y,
                     std::span<const std::complex<float>> csi) override;
  std::optional<util::BitVec> try_decode() override;
  int max_chunks() const override;

  const CodeParams& params() const noexcept { return params_; }

 private:
  const CodeParams& spinal_params() const override { return params_; }
  const BscSpinalDecoder& spinal_decoder() const override { return decoder_; }
  KeyCodec batch_flavor() const override { return KeyCodec::kSpinalBsc; }

  CodeParams params_;
  PuncturingSchedule schedule_;
  std::optional<BscSpinalEncoder> encoder_;
  BscSpinalDecoder decoder_;

  int subpass_ = 0;
  std::vector<SymbolId> chunk_ids_;  // ids of the chunk in flight
};

}  // namespace spinal::sim
