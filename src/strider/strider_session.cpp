#include "strider/strider_session.h"

namespace spinal::strider {

StriderSession::StriderSession(const StriderSessionConfig& config)
    : config_(config), encoder_(config.code), decoder_(config.code) {}

void StriderSession::start(const util::BitVec& message) {
  encoder_.load(message);
  decoder_.reset();
  tx_symbols_ = 0;
}

std::vector<std::complex<float>> StriderSession::next_chunk() {
  const int per_pass = encoder_.symbols_per_pass();
  const int pass = static_cast<int>(tx_symbols_ / per_pass);
  const int offset = static_cast<int>(tx_symbols_ % per_pass);

  int take = per_pass - offset;
  if (config_.punctured) {
    const int frac = (per_pass + config_.subpasses - 1) / config_.subpasses;
    take = std::min(take, frac);
  }

  std::vector<std::complex<float>> out;
  out.reserve(take);
  encoder_.emit(pass, offset, offset + take, out);
  tx_symbols_ += take;
  return out;
}

void StriderSession::receive_chunk(std::span<const std::complex<float>> y,
                                   std::span<const std::complex<float>> csi) {
  decoder_.add_symbols(y, csi);
}

std::optional<util::BitVec> StriderSession::try_decode_with(
    sim::CodecWorkspace* /*ws*/, int effort) {
  return decoder_.decode(effort);
}

int StriderSession::max_chunks() const {
  const int per_pass_chunks = config_.punctured ? config_.subpasses : 1;
  return config_.code.max_passes * per_pass_chunks;
}

}  // namespace spinal::strider
