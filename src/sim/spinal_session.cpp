#include "sim/spinal_session.h"

#include <algorithm>
#include <stdexcept>

#include "modem/qam.h"

namespace spinal::sim {
namespace {

// The metrics' maps between their samples and the engine's symbols.

std::complex<float> to_complex(std::complex<float> x) { return x; }
std::complex<float> to_complex(std::uint8_t bit) { return {static_cast<float>(bit), 0.0f}; }

void receive(SpinalDecoder& dec, SymbolId id, std::complex<float> y, std::complex<float> h) {
  dec.add_symbol(id, y, h);
}
void receive(BscSpinalDecoder& dec, SymbolId id, std::complex<float> y,
             std::complex<float> /*h*/) {
  // The erasure rule of every receiver: a non-finite sample is dropped.
  if (!modem::non_finite(y))
    dec.add_symbol(id, y.real() >= 0.5f ? 1 : 0);
}

}  // namespace

template <class Metric>
MetricSession<Metric>::MetricSession(const CodeParams& params, int symbols_per_chunk)
    : params_(validated(params)),
      symbols_per_chunk_(symbols_per_chunk),
      schedule_(params),
      decoder_(params) {}

template <class Metric>
void MetricSession<Metric>::start(const util::BitVec& message) {
  encoder_.emplace(params_, message);
  decoder_.reset();
  subpass_ = 0;
  queue_.clear();
  chunk_begin_ = chunk_end_ = 0;
}

template <class Metric>
std::vector<std::complex<float>> MetricSession<Metric>::next_chunk() {
  if (chunk_end_ >= queue_.size()) {
    queue_.clear();
    queue_.reserve(static_cast<std::size_t>(schedule_.max_subpass_symbols()));
    schedule_.subpass(subpass_++, queue_);
    chunk_end_ = 0;
  }
  const auto left = static_cast<std::uint32_t>(queue_.size() - chunk_end_);
  chunk_begin_ = chunk_end_;
  chunk_end_ += symbols_per_chunk_ > 0
                    ? std::min(static_cast<std::uint32_t>(symbols_per_chunk_), left)
                    : left;
  std::vector<std::complex<float>> out;
  out.reserve(chunk_end_ - chunk_begin_);
  for (std::uint32_t i = chunk_begin_; i < chunk_end_; ++i)
    out.push_back(to_complex(encoder_->symbol(queue_[i])));
  return out;
}

template <class Metric>
void MetricSession<Metric>::receive_chunk(std::span<const std::complex<float>> y,
                                          std::span<const std::complex<float>> csi) {
  if (y.size() != chunk_end_ - chunk_begin_ || (!csi.empty() && csi.size() != y.size()))
    throw std::invalid_argument("receive_chunk: spans do not match the chunk in flight");
  for (std::size_t i = 0; i < y.size(); ++i)
    receive(decoder_, queue_[chunk_begin_ + i], y[i],
            csi.empty() ? std::complex<float>{1.0f, 0.0f} : csi[i]);
}

template <class Metric>
int MetricSession<Metric>::max_chunks() const {
  const int subpasses = params_.max_passes * schedule_.subpasses_per_pass();
  if (symbols_per_chunk_ <= 0) return subpasses;
  const int per_subpass =
      (schedule_.symbols_per_pass() / schedule_.subpasses_per_pass()) /
          symbols_per_chunk_ +
      2;
  return subpasses * per_subpass;
}

template class MetricSession<AwgnMetric>;
template class MetricSession<BscMetric>;

}  // namespace spinal::sim
