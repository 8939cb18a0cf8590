#include "sim/bsc_session.h"

namespace spinal::sim {

BscSession::BscSession(const CodeParams& params)
    : params_(params), schedule_(params), decoder_(params) {
  params_.validate();
}

void BscSession::start(const util::BitVec& message) {
  encoder_.emplace(params_, message);
  decoder_.reset();
  subpass_ = 0;
  chunk_ids_.clear();
}

std::vector<std::complex<float>> BscSession::next_chunk() {
  chunk_ids_.clear();
  chunk_ids_.reserve(static_cast<std::size_t>(schedule_.max_subpass_symbols()));
  schedule_.subpass(subpass_++, chunk_ids_);
  std::vector<std::complex<float>> out;
  out.reserve(chunk_ids_.size());
  for (const SymbolId& id : chunk_ids_)
    out.emplace_back(static_cast<float>(encoder_->bit(id)), 0.0f);
  return out;
}

void BscSession::receive_chunk(std::span<const std::complex<float>> y,
                               std::span<const std::complex<float>> /*csi*/) {
  for (std::size_t i = 0; i < y.size(); ++i)
    decoder_.add_bit(chunk_ids_[i], y[i].real() >= 0.5f ? 1 : 0);
}

std::optional<util::BitVec> BscSession::try_decode() {
  return decoder_.decode().message;
}

int BscSession::max_chunks() const {
  return params_.max_passes * schedule_.subpasses_per_pass();
}

}  // namespace spinal::sim
