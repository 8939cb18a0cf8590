#pragma once
// RatelessSession adapter for the fixed-rate 802.11n-style LDPC codes:
// the whole codeword is retransmitted round after round and the
// receiver chase-combines (per-variable LLRs add across rounds), which
// puts the Fig 8-1 LDPC baseline behind the same execution engine and
// decode runtime as the rateless codes. Decode effort is BpDecoder's
// iteration cap, and the BP message scratch (BpWork) is the session's
// pinnable CodecWorkspace — the first non-spinal pinned codec.
//
// The heavy immutable state (parity matrix, RREF encoder, BP edge
// layout) lives in a shared LdpcContext so that session factories are
// cheap and thread-safe: BpDecoder::decode is const and BpWork carries
// all mutable message state.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "ldpc/bp_decoder.h"
#include "ldpc/encoder.h"
#include "ldpc/qc_ldpc.h"
#include "modem/qam.h"
#include "sim/session.h"

namespace spinal::ldpc {

struct LdpcSessionConfig {
  Rate rate = Rate::kHalf;
  int bits_per_symbol = 2;  ///< 2 = QPSK (802.11n's lowest dense MCS here)
  int bp_iterations = 40;   ///< §8: forty full iterations
  int max_rounds = 30;      ///< codeword retransmissions before giving up
  std::uint64_t matrix_seed = 0x802011;  ///< make_wifi_style_matrix seed
};

/// Immutable per-(rate, seed, iterations) decode context, shareable
/// across sessions and worker threads. H must outlive encoder/decoder
/// (both keep references), so the members are built in declaration
/// order inside one heap-pinned block — same pattern as WifiLdpcFamily.
struct LdpcContext {
  ParityMatrix H;
  LdpcEncoder encoder;
  BpDecoder decoder;

  explicit LdpcContext(const LdpcSessionConfig& cfg)
      : H(make_wifi_style_matrix(cfg.rate, cfg.matrix_seed)),
        encoder(H),
        decoder(H, cfg.bp_iterations) {}
};

/// The pinned scratch: BP message buffers, reusable bit-safely (decode
/// fully reinitializes them from the accumulated channel LLRs).
struct LdpcWorkspace final : sim::CodecWorkspace {
  BpWork work;
};

class LdpcSession : public sim::RatelessSession {
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
    return std::make_shared<const LdpcContext>(cfg);
  }

  int message_bits() const override { return ctx_->encoder.info_bits(); }
  void start(const util::BitVec& message) override;
  std::vector<std::complex<float>> next_chunk() override;
  void receive_chunk(std::span<const std::complex<float>> y,
                     std::span<const std::complex<float>> csi) override;
  std::optional<util::BitVec> try_decode() override;
  /// Effort = BP iteration cap; @p ws (an LdpcWorkspace) carries the
  /// message-passing scratch. Null ws uses session-owned scratch —
  /// bit-identical either way.
  std::optional<util::BitVec> try_decode_with(sim::CodecWorkspace* ws,
                                              int effort) override;
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
  int max_chunks() const override { return config_.max_rounds; }
  void set_noise_hint(double noise_variance) override {
    noise_var_ = noise_variance;
  }

 private:
  std::optional<util::BitVec> decode_attempt(int effort, BpWork& work);

  LdpcSessionConfig config_;
  std::shared_ptr<const LdpcContext> ctx_;
  modem::QamModem qam_;
  std::vector<std::complex<float>> tx_symbols_;  ///< one codeword, modulated
  std::vector<float> llr_;   ///< chase-combined per-variable LLRs
  bool any_rx_ = false;      ///< at least one full codeword received
  double noise_var_ = 1.0;
  BpWork own_work_;          ///< fallback scratch for unpinned decodes
};

}  // namespace spinal::ldpc
