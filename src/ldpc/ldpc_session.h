#pragma once
// RatelessSession adapter for the fixed-rate 802.11n-style LDPC codes:
// a ChaseSession (whole-codeword rounds, chase-combined LLRs), which
// puts the Fig 8-1 LDPC baseline behind the same execution engine and
// decode runtime as the rateless codes. Decode effort is BpDecoder's
// iteration cap, and the BP message scratch (BpWork) is the session's
// pinnable CodecWorkspace.
//
// The heavy immutable state (parity matrix, RREF encoder, BP edge
// layout) lives in a shared LdpcContext so that session factories are
// cheap and thread-safe: BpDecoder::decode is const and BpWork carries
// all mutable message state.

#include <algorithm>
#include <cstdint>
#include <memory>

#include "ldpc/wifi_envelope.h"
#include "sim/chase_session.h"

namespace spinal::ldpc {

struct LdpcSessionConfig {
  Rate rate = Rate::kHalf;
  int bits_per_symbol = 2;  ///< 2 = QPSK (802.11n's lowest dense MCS here)
  int bp_iterations = 40;   ///< §8: forty full iterations
  int max_rounds = 30;      ///< codeword retransmissions before giving up
  std::uint64_t matrix_seed = kWifiMatrixSeed;  ///< make_wifi_style_matrix seed
};

/// The pinned scratch: BP message buffers, reusable bit-safely (decode
/// fully reinitializes them from the accumulated channel LLRs).
struct LdpcWorkspace final : sim::CodecWorkspace {
  BpWork work;
};

class LdpcSession : public sim::ChaseSession {
 public:
  explicit LdpcSession(const LdpcSessionConfig& cfg)
      : LdpcSession(cfg, make_context(cfg)) {}
  LdpcSession(const LdpcSessionConfig& cfg,
              std::shared_ptr<const LdpcContext> ctx);

  /// Builds (once) the shareable heavy context for @p cfg; pass it to
  /// every session of a fleet so factories don't re-run the GF(2)
  /// elimination per submit.
  static std::shared_ptr<const LdpcContext> make_context(
      const LdpcSessionConfig& cfg) {
    return std::make_shared<const LdpcContext>(cfg.rate, cfg.bp_iterations, cfg.matrix_seed);
  }

  int message_bits() const override { return ctx_->encoder.info_bits(); }
  /// Keyed by what sizes the BP scratch: the rate and matrix seed.
  sim::WorkspaceKey workspace_key() const override {
    return sim::WorkspaceKey::of(sim::KeyCodec::kLdpc, config_.rate, config_.matrix_seed);
  }
  std::unique_ptr<sim::CodecWorkspace> make_workspace() const override {
    return std::make_unique<LdpcWorkspace>();
  }
  sim::EffortProfile effort_profile() const override {
    return {config_.bp_iterations, std::min(4, config_.bp_iterations)};
  }

 private:
  util::BitVec encode(const util::BitVec& message) const override {
    return ctx_->encoder.encode(message);
  }
  /// Effort = BP iteration cap; @p ws (an LdpcWorkspace) carries the
  /// message-passing scratch. Null ws uses session-owned scratch —
  /// bit-identical either way.
  std::optional<util::BitVec> decode(std::span<const float> llrs, int effort,
                                     sim::CodecWorkspace* ws) override;

  LdpcSessionConfig config_;
  std::shared_ptr<const LdpcContext> ctx_;
  BpWork own_work_;  ///< fallback scratch for unpinned decodes
};

}  // namespace spinal::ldpc
