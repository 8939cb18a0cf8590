#pragma once
// RatelessSession adapter for spinal codes. One class template,
// MetricSession<Metric>, serves both channels of the paper:
//
//   SpinalSession  MetricSession<AwgnMetric>: I/Q symbols through the
//                  AWGN / fading channels, batched under kSpinalAwgn.
//   BscSession     MetricSession<BscMetric>: coded bits on the real
//                  axis of the engine's complex-symbol interface (0.0 /
//                  1.0), flipped by ChannelSim::bsc(), batched under
//                  kSpinalBsc (sharing the AWGN workspace key).
//
// Both stream subpass-granular chunks, optionally chunked finer (down
// to one symbol per chunk) so the engine can attempt decodes "after
// roughly every received symbol" (Fig 8-10/8-11's aggressive
// schedule). The metric supplies only the two maps between its samples
// and the engine's complex symbols: sample-to-complex in next_chunk()
// and complex-to-sample in receive_chunk(), where a sample with a NaN or
// infinite component is an erasure under either metric.

#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "sim/session.h"
#include "sim/spinal_workspace.h"
#include "spinal/decoder.h"
#include "spinal/encoder.h"
#include "spinal/schedule.h"

namespace spinal::sim {

/// Decodes through SpinalTarget: effort = beam width.
template <class Metric>
class MetricSession : public SpinalTarget<RatelessSession, Decoder<Metric>> {
 public:
  /// @param symbols_per_chunk 0 = one chunk per subpass (default);
  ///        otherwise chunks carry at most this many symbols.
  explicit MetricSession(const CodeParams& params, int symbols_per_chunk = 0);

  int message_bits() const override { return params_.n; }
  void start(const util::BitVec& message) override;
  std::vector<std::complex<float>> next_chunk() override;
  /// Throws std::invalid_argument, before touching the decoder, unless
  /// @p y matches the chunk in flight in size and @p csi is empty or
  /// matches @p y.
  void receive_chunk(std::span<const std::complex<float>> y,
                     std::span<const std::complex<float>> csi) override;
  int max_chunks() const override;

  const CodeParams& params() const noexcept { return params_; }

 private:
  const CodeParams& spinal_params() const override { return params_; }
  const Decoder<Metric>& spinal_decoder() const override { return decoder_; }
  KeyCodec batch_flavor() const override {
    return std::is_same_v<Metric, BscMetric> ? KeyCodec::kSpinalBsc : KeyCodec::kSpinalAwgn;
  }

  CodeParams params_;
  int symbols_per_chunk_;
  int subpass_ = 0;
  PuncturingSchedule schedule_;
  std::optional<Encoder<typename Metric::Map>> encoder_;
  Decoder<Metric> decoder_;

  std::vector<SymbolId> queue_;  // ids of the current subpass
  // The chunk in flight: queue_[chunk_begin_, chunk_end_). 32-bit: a
  // subpass holds at most PuncturingSchedule::max_subpass_symbols().
  std::uint32_t chunk_begin_ = 0, chunk_end_ = 0;
};

extern template class MetricSession<AwgnMetric>;
extern template class MetricSession<BscMetric>;

using SpinalSession = MetricSession<AwgnMetric>;
using BscSession = MetricSession<BscMetric>;

}  // namespace spinal::sim
