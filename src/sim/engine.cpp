#include "sim/engine.h"

#include "util/math.h"

namespace spinal::sim {
namespace {

/// The capacity gate of a run over @p channel (0 = ungated: Rayleigh).
std::int64_t capacity_gate(const ChannelSim& channel, int n) {
  switch (channel.kind()) {
    case ChannelKind::kAwgn:
      return AttemptSchedule::awgn_gate(n, util::db_to_lin(channel.snr_db()));
    case ChannelKind::kBsc:
      return AttemptSchedule::bsc_gate(n, channel.noise_variance());
    default:
      return 0;
  }
}

}  // namespace

void EngineOptions::validate() const { schedule(); }

AttemptSchedule EngineOptions::schedule() const {
  return AttemptSchedule(attempt_every, attempt_growth);
}

MessageRun::MessageRun(RatelessSession& session, ChannelSim& channel,
                       const util::BitVec& message, const EngineOptions& opt)
    : session_(&session),
      channel_(&channel),
      message_(&message),
      schedule_(opt.schedule()),
      gate_(capacity_gate(channel, static_cast<int>(message.size()))),
      limit_(session.max_chunks()) {
  session_->start(message);
  session_->set_noise_hint(channel_->noise_variance());
}

bool MessageRun::feed_to_attempt() {
  if (done_) return false;
  while (chunk_ < limit_) {
    ++chunk_;
    std::vector<std::complex<float>> x = session_->next_chunk();
    ++result_.chunks;
    if (x.empty()) continue;

    csi_.clear();
    channel_->transmit(x, csi_);
    session_->receive_chunk(x, csi_);
    result_.symbols += static_cast<long>(x.size());
    ++nonempty_;

    if (!schedule_.due(nonempty_, result_.symbols, gate_)) continue;
    ++result_.attempts;
    return true;
  }
  done_ = true;
  return false;
}

void MessageRun::record_attempt(const std::optional<util::BitVec>& candidate) {
  if (done_) return;
  if (candidate && *candidate == *message_) {
    result_.success = true;
    done_ = true;
  }
}

RunResult run_message(RatelessSession& session, ChannelSim& channel,
                      const util::BitVec& message, const EngineOptions& opt) {
  MessageRun run(session, channel, message, opt);
  while (run.feed_to_attempt()) run.record_attempt(session.try_decode());
  return run.result();
}

}  // namespace spinal::sim
