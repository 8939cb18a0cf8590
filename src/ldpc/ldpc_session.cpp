#include "ldpc/ldpc_session.h"

#include <stdexcept>

namespace spinal::ldpc {

LdpcSession::LdpcSession(const LdpcSessionConfig& cfg,
                         std::shared_ptr<const LdpcContext> ctx)
    : ChaseSession("LdpcSession", cfg.bits_per_symbol, cfg.max_rounds),
      config_(cfg),
      ctx_(std::move(ctx)) {
  if (!ctx_) throw std::invalid_argument("LdpcSession: null context");
}

std::optional<util::BitVec> LdpcSession::decode(std::span<const float> llrs, int effort,
                                                sim::CodecWorkspace* ws) {
  auto* lw = static_cast<LdpcWorkspace*>(ws);
  const BpResult r = ctx_->decoder.decode(llrs, effort, lw != nullptr ? lw->work : own_work_);
  // checks_satisfied is the code's own consistency signal (a real
  // codeword); the engine still validates the info bits against the
  // transmitted message, as it does for every code.
  if (!r.checks_satisfied) return std::nullopt;
  return ctx_->encoder.extract_info(r.codeword);
}

}  // namespace spinal::ldpc
