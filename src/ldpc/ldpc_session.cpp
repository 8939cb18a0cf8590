#include "ldpc/ldpc_session.h"

#include <cmath>
#include <complex>
#include <stdexcept>

namespace spinal::ldpc {

LdpcSession::LdpcSession(const LdpcSessionConfig& cfg,
                         std::shared_ptr<const LdpcContext> ctx)
    : config_(cfg), ctx_(std::move(ctx)), qam_(cfg.bits_per_symbol) {
  if (!ctx_) throw std::invalid_argument("LdpcSession: null context");
  if (cfg.max_rounds < 1)
    throw std::invalid_argument("LdpcSession: max_rounds must be >= 1");
}

void LdpcSession::start(const util::BitVec& message) {
  tx_symbols_ = qam_.modulate(ctx_->encoder.encode(message));
  llr_.assign(static_cast<std::size_t>(ctx_->encoder.codeword_bits()), 0.0f);
  any_rx_ = false;
}

std::vector<std::complex<float>> LdpcSession::next_chunk() {
  // One whole codeword per chunk: the fixed-rate code made rateless by
  // retransmission, decode attempts at round boundaries.
  return tx_symbols_;
}

void LdpcSession::receive_chunk(std::span<const std::complex<float>> y,
                                std::span<const std::complex<float>> csi) {
  std::vector<float> llrs;
  llrs.reserve(y.size() * static_cast<std::size_t>(config_.bits_per_symbol));
  for (std::size_t i = 0; i < y.size(); ++i) {
    std::complex<float> yi = y[i];
    if (!csi.empty()) {
      // Coherent equalisation with known h: divide out the channel and
      // scale the noise variance accordingly (same as RaptorSession).
      const float mag2 = std::norm(csi[i]);
      if (mag2 > 1e-12f) {
        yi = y[i] * std::conj(csi[i]) / mag2;
        std::vector<float> tmp;
        qam_.demap_soft(yi, noise_var_ / mag2, tmp);
        for (float l : tmp) llrs.push_back(l);
        continue;
      }
    }
    qam_.demap_soft(yi, noise_var_, llrs);
  }
  // Chase combining: repeated observations of the same coded bit add in
  // the LLR domain (padding bits past the codeword are dropped).
  const std::size_t n = llr_.size();
  for (std::size_t b = 0; b < llrs.size() && b < n; ++b) llr_[b] += llrs[b];
  any_rx_ = true;
}

std::optional<util::BitVec> LdpcSession::decode_attempt(int effort,
                                                        BpWork& work) {
  if (!any_rx_) return std::nullopt;
  const BpResult r = ctx_->decoder.decode(llr_, effort, work);
  // checks_satisfied is the code's own consistency signal (a real
  // codeword); the engine still validates the info bits against the
  // transmitted message, as it does for every code.
  if (!r.checks_satisfied) return std::nullopt;
  return ctx_->encoder.extract_info(r.codeword);
}

std::optional<util::BitVec> LdpcSession::try_decode() {
  return decode_attempt(0, own_work_);
}

std::optional<util::BitVec> LdpcSession::try_decode_with(
    sim::CodecWorkspace* ws, int effort) {
  auto* lw = static_cast<LdpcWorkspace*>(ws);
  return decode_attempt(effort, lw != nullptr ? lw->work : own_work_);
}

}  // namespace spinal::ldpc
