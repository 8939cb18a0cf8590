#pragma once
// RatelessSession adapter for spinal codes: subpass-granular streaming
// with optional finer chunking (down to one symbol per chunk) so the
// engine can attempt decodes "after roughly every received symbol"
// (Fig 8-10/8-11's aggressive schedule).

#include <algorithm>
#include <optional>

#include "sim/session.h"
#include "sim/spinal_workspace.h"
#include "spinal/decoder.h"
#include "spinal/encoder.h"
#include "spinal/schedule.h"

namespace spinal::sim {

/// Decodes through SpinalTarget: effort = beam width, batched under the
/// kSpinalAwgn batch key.
class SpinalSession : public SpinalTarget<RatelessSession, SpinalDecoder> {
 public:
  /// @param symbols_per_chunk 0 = one chunk per subpass (default);
  ///        otherwise chunks carry at most this many symbols.
  explicit SpinalSession(const CodeParams& params, int symbols_per_chunk = 0);

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
  const SpinalDecoder& spinal_decoder() const override { return decoder_; }
  KeyCodec batch_flavor() const override { return KeyCodec::kSpinalAwgn; }

  CodeParams params_;
  int symbols_per_chunk_;
  PuncturingSchedule schedule_;
  std::optional<SpinalEncoder> encoder_;
  SpinalDecoder decoder_;

  int subpass_ = 0;
  std::vector<SymbolId> queue_;      // remaining ids of the current subpass
  std::size_t queue_pos_ = 0;
  std::vector<SymbolId> chunk_ids_;  // ids of the chunk in flight
};

}  // namespace spinal::sim
