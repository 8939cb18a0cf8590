#pragma once
// SessionMux: the link-layer face of the decode runtime (§6). Ingests
// tagged LinkSymbol streams for many concurrent datagram sessions,
// decides per code block at burst pause points whether to attempt a
// decode, and emits ACK-bitmap feedback events as blocks decode.
//
// The decisions are the link's own: each session is a LinkReceiver, and
// pause_point runs its pause() — the same AttemptSchedule per block
// (linear floor, geometric back-off, capacity gate; see
// spinal/attempt_schedule.h) that the inline LinkReceiver::make_ack
// loop runs, so a lock-step mux and that loop make the same attempts by
// construction. The gate's noise estimate is per link: the median of
// path_cost / N over the link's blocks, from each block's latest
// full-effort attempt (a shrunk beam reads high and never updates it),
// snapshotted at the pause point before any of its attempts.
//
// Each due block is a BlockUnit (decode_service.h): pause_point claims
// its symbol store (LinkReceiver::claim_block) and posts it, and the
// DecodeService steps it exactly like a session — batched with the
// other queued blocks of equal CodeParams under the "spinal.link" batch
// key, at the service's effort policy, with the sessions' telemetry and
// trace spans. The block's completion hands the candidate and its path
// cost back (LinkReceiver::complete_block) and releases the claim.
//
// Control-plane calls (open/ingest/poll_acks) never block and may come
// from any thread; one mux-wide mutex guards the session table, and
// decode attempts never run under it. pause_point blocks only while the
// service already holds its cap of posted work (kExtTaskCap block
// attempts outstanding) and waits for one to settle. While a block's
// decode attempt is in flight its receiver buffers newly arriving
// symbols and applies them at release (the symbol store is being read
// on a worker thread), exactly the receive-while-decoding overlap a
// half-duplex radio sees between a pause point and its ACK. If the
// schedule makes those symbols' attempt due at release, the block is
// reposted at once rather than waiting for a pause point the sender may
// never send.

#include <complex>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "runtime/decode_service.h"
#include "sim/engine.h"
#include "sim/spinal_workspace.h"
#include "spinal/link.h"

namespace spinal::runtime {

class SessionMux {
 public:
  using SessionId = std::size_t;

  struct Options {
    /// Per-block attempt schedule, in units of symbol-carrying bursts
    /// (the mux's analogue of the engine's non-empty chunks): attempt
    /// after every attempt_every such bursts, backed off geometrically
    /// by attempt_growth, and gated on capacity. Validated at
    /// construction.
    sim::EngineOptions attempt;
  };

  struct AckEvent {
    SessionId session;
    AckBitmap ack;
  };

  /// @p service must outlive the mux.
  explicit SessionMux(DecodeService& service, const Options& opt = {});
  /// Waits for in-flight decode attempts (the service steps the mux's
  /// blocks).
  ~SessionMux();

  SessionMux(const SessionMux&) = delete;
  SessionMux& operator=(const SessionMux&) = delete;

  /// Opens a datagram session of @p block_count code blocks.
  SessionId open(const CodeParams& params, int block_count);

  /// Ingests one tagged symbol. Symbols for already-ACKed blocks are
  /// dropped and counted (stale_symbols). Throws std::out_of_range on a
  /// bad session id or block index.
  void ingest(SessionId id, const LinkSymbol& symbol,
              std::complex<float> csi = {1.0f, 0.0f});

  /// Marks a burst boundary (the half-duplex pause, §6): every block
  /// that received symbols and whose attempt schedule fires is posted
  /// to the service for a decode attempt — at most one in flight per
  /// block.
  void pause_point(SessionId id);

  /// Drains pending feedback events (one per newly decoded block).
  std::vector<AckEvent> poll_acks();

  /// The session's ACK bitmap as decoded so far (non-blocking).
  AckBitmap current_ack(SessionId id) const;

  bool done(SessionId id) const;

  /// The reassembled datagram once every block decoded.
  std::optional<std::vector<std::uint8_t>> datagram(SessionId id) const;

  /// Blocks until no decode attempt is in flight (drains the feedback
  /// path; pair with poll_acks in lock-step drivers and tests).
  void wait_idle();

  /// Symbols dropped because their block had already decoded.
  std::uint64_t stale_symbols() const;

  /// The link's noise estimate, which gates its blocks' attempts
  /// (LinkReceiver::noise_estimate; 0: none yet).
  double noise_estimate(SessionId id) const;

  /// Decode attempts completed for the link's blocks so far.
  std::int64_t attempts(SessionId id) const;

 private:
  struct Sess;
  /// One code block of a session, and the unit the service steps for
  /// its decode attempts. Its address is stable (Sess is pinned behind a
  /// unique_ptr and sizes its block array once).
  struct Block final : sim::SpinalTarget<BlockUnit, SpinalDecoder> {
    Block() = default;
    Block(const Block&) = delete;
    Block& operator=(const Block&) = delete;

    bool record_attempt(const std::optional<util::BitVec>& candidate) override;
    bool complete() override;
    void abandon() noexcept override;
    const CodeParams& spinal_params() const override;
    const SpinalDecoder& spinal_decoder() const override { return *decoder; }
    sim::KeyCodec batch_flavor() const override { return sim::KeyCodec::kSpinalLink; }
    void attempt_result(const DecodeResult& r, bool full) override;

    SessionMux* mux = nullptr;
    Sess* sess = nullptr;
    int index = 0;
    /// The claimed symbol store while an attempt is in flight (stable:
    /// the receiver sizes its decoder array once).
    const SpinalDecoder* decoder = nullptr;
    /// The last attempt's path cost, when it ran at full effort.
    std::optional<double> path_cost;
  };
  struct Sess {
    Sess(SessionMux* mux, SessionId id, const CodeParams& p, int blocks_n,
         const AttemptSchedule& schedule);
    SessionId id;
    CodeParams params;
    LinkReceiver receiver;
    std::vector<Block> blocks;
  };

  /// Ends a block's attempt (outstanding_ drops; wait_idle may wake).
  /// Caller holds m_.
  void settle_locked();
  Sess& at(SessionId id);
  const Sess& at(SessionId id) const;

  DecodeService* service_;
  Options opt_;

  mutable std::mutex m_;
  std::condition_variable cv_idle_;
  std::vector<std::unique_ptr<Sess>> sessions_;
  std::vector<AckEvent> acks_;
  int outstanding_ = 0;
};

}  // namespace spinal::runtime
