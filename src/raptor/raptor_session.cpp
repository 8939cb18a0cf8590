#include "raptor/raptor_session.h"

#include "util/bitvec.h"

namespace spinal::raptor {

RaptorSession::RaptorSession(const RaptorSessionConfig& config)
    : config_(config),
      encoder_(config.info_bits, config.seed),
      decoder_(config.info_bits, config.seed, config.bp_iterations),
      qam_(config.bits_per_symbol) {}

void RaptorSession::start(const util::BitVec& message) {
  encoder_.load(message);
  decoder_.reset();
  next_bit_ = 0;
  rx_bit_ = 0;
  // BP cannot possibly succeed before the intermediate block is covered;
  // skip attempts below ~85% of that many received bits.
  min_bits_to_try_ =
      static_cast<std::size_t>(0.85 * encoder_.precode().intermediate_bits());
}

std::vector<std::complex<float>> RaptorSession::next_chunk() {
  std::vector<std::complex<float>> out;
  out.reserve(config_.chunk_symbols);
  util::BitVec bits(static_cast<std::size_t>(config_.bits_per_symbol));
  for (int s = 0; s < config_.chunk_symbols; ++s) {
    for (int b = 0; b < config_.bits_per_symbol; ++b)
      bits.set(b, encoder_.coded_bit(next_bit_++));
    out.push_back(qam_.map(bits, 0));
  }
  return out;
}

void RaptorSession::receive_chunk(std::span<const std::complex<float>> y,
                                  std::span<const std::complex<float>> csi) {
  chunk_llrs_.clear();
  qam_.demap_soft(y, csi, noise_var_, chunk_llrs_);
  for (float l : chunk_llrs_) decoder_.add_coded_bit(rx_bit_++, l);
}

std::optional<util::BitVec> RaptorSession::try_decode_with(
    sim::CodecWorkspace* /*ws*/, int effort) {
  if (decoder_.bits_received() < min_bits_to_try_) return std::nullopt;
  return decoder_.decode(effort);
}

int RaptorSession::max_chunks() const {
  const long max_bits =
      static_cast<long>(config_.info_bits) * config_.max_passes_equiv;
  const long bits_per_chunk =
      static_cast<long>(config_.chunk_symbols) * config_.bits_per_symbol;
  return static_cast<int>(max_bits / bits_per_chunk + 1);
}

}  // namespace spinal::raptor
