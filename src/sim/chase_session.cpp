#include "sim/chase_session.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace spinal::sim {

ChaseSession::ChaseSession(const char* codec, int bits_per_symbol, int max_rounds)
    : qam_(bits_per_symbol), max_rounds_(max_rounds) {
  if (max_rounds < 1)
    throw std::invalid_argument(std::string(codec) + ": max_rounds must be >= 1");
}

void ChaseSession::start(const util::BitVec& message) {
  const util::BitVec coded = encode(message);
  tx_symbols_ = qam_.modulate(coded);
  llr_.assign(coded.size(), 0.0f);
  any_rx_ = false;
}

void ChaseSession::receive_chunk(std::span<const std::complex<float>> y,
                                 std::span<const std::complex<float>> csi) {
  chunk_llrs_.clear();
  qam_.demap_soft(y, csi, noise_var_, chunk_llrs_);
  // Chase combining: repeated observations of the same coded bit add
  // in the LLR domain.
  const std::size_t n = std::min(chunk_llrs_.size(), llr_.size());
  for (std::size_t b = 0; b < n; ++b) llr_[b] += chunk_llrs_[b];
  any_rx_ = true;
}

std::optional<util::BitVec> ChaseSession::try_decode_with(CodecWorkspace* ws, int effort) {
  if (!any_rx_) return std::nullopt;
  return decode(llr_, effort, ws);
}

}  // namespace spinal::sim
