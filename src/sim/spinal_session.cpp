#include "sim/spinal_session.h"

namespace spinal::sim {

SpinalSession::SpinalSession(const CodeParams& params, int symbols_per_chunk)
    : params_(params),
      symbols_per_chunk_(symbols_per_chunk),
      schedule_(params),
      decoder_(params) {
  params_.validate();
}

void SpinalSession::start(const util::BitVec& message) {
  encoder_.emplace(params_, message);
  decoder_.reset();
  subpass_ = 0;
  queue_.clear();
  queue_pos_ = 0;
  chunk_ids_.clear();
}

std::vector<std::complex<float>> SpinalSession::next_chunk() {
  if (queue_pos_ >= queue_.size()) {
    queue_.clear();
    queue_.reserve(static_cast<std::size_t>(schedule_.max_subpass_symbols()));
    schedule_.subpass(subpass_++, queue_);
    queue_pos_ = 0;
  }
  chunk_ids_.clear();
  std::vector<std::complex<float>> out;
  const std::size_t take =
      symbols_per_chunk_ > 0
          ? std::min<std::size_t>(symbols_per_chunk_, queue_.size() - queue_pos_)
          : queue_.size() - queue_pos_;
  out.reserve(take);
  chunk_ids_.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    const SymbolId id = queue_[queue_pos_++];
    chunk_ids_.push_back(id);
    out.push_back(encoder_->symbol(id));
  }
  return out;
}

void SpinalSession::receive_chunk(std::span<const std::complex<float>> y,
                                  std::span<const std::complex<float>> csi) {
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (csi.empty())
      decoder_.add_symbol(chunk_ids_[i], y[i]);
    else
      decoder_.add_symbol(chunk_ids_[i], y[i], csi[i]);
  }
}

std::optional<util::BitVec> SpinalSession::try_decode() {
  return decoder_.decode().message;
}

int SpinalSession::max_chunks() const {
  const int subpasses = params_.max_passes * schedule_.subpasses_per_pass();
  if (symbols_per_chunk_ <= 0) return subpasses;
  const int per_subpass =
      (schedule_.symbols_per_pass() / schedule_.subpasses_per_pass()) /
          symbols_per_chunk_ +
      2;
  return subpasses * per_subpass;
}

}  // namespace spinal::sim
