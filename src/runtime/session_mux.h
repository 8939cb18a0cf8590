#pragma once
// SessionMux: the link-layer face of the decode runtime (§6). Ingests
// tagged LinkSymbol streams for many concurrent datagram sessions,
// applies the engine's attempt/back-off policy per code block at burst
// pause points, and emits ACK-bitmap feedback events as blocks decode.
//
// Each code block is a BlockUnit (decode_service.h): pause_point claims
// its symbol store (LinkReceiver::claim_block) and posts it, and the
// DecodeService steps it exactly like a session — batched with the
// other queued blocks of equal CodeParams under the "spinal.link" batch
// key, at the service's effort policy, with the sessions' telemetry and
// trace spans. The block's completion hands the candidate back
// (LinkReceiver::complete_block) and either settles the block or
// reposts it.
//
// Control-plane calls (open/ingest/poll_acks) never block and may come
// from any thread; one mux-wide mutex guards the session table, and
// decode attempts never run under it. pause_point blocks only while the
// service already holds its cap of posted work (kExtTaskCap block
// attempts outstanding) and waits for one to settle. While a block's
// decode attempt is in flight its newly arriving symbols are buffered
// and applied at completion (the symbol store is being read on a worker
// thread), exactly the receive-while-decoding overlap a half-duplex
// radio sees between a pause point and its ACK.

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
    /// by attempt_growth. Validated at construction.
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
  /// that received symbols and whose attempt policy fires is posted to
  /// the service for a decode attempt — at most one in flight per block.
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

  std::uint64_t stale_symbols() const;

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
    const char* batch_flavor() const override { return "spinal.link"; }

    SessionMux* mux = nullptr;
    Sess* sess = nullptr;
    int index = 0;
    int fed_bursts = 0;        ///< symbol-carrying bursts so far
    int next_attempt = 0;      ///< fed_bursts threshold for the next attempt
    bool got_symbols = false;  ///< since the last pause point
    bool outstanding = false;  ///< decode attempt in flight
    /// The claimed symbol store while outstanding (stable: the
    /// receiver sizes its decoder array once).
    const SpinalDecoder* decoder = nullptr;
    /// Symbols that arrived while a decode was in flight.
    std::vector<std::pair<LinkSymbol, std::complex<float>>> pending;
  };
  struct Sess {
    Sess(SessionMux* mux, SessionId id, const CodeParams& p, int blocks_n,
         int first_attempt);
    SessionId id;
    CodeParams params;
    LinkReceiver receiver;
    std::vector<Block> blocks;
  };

  /// Ends a block's attempt (outstanding_ drops; wait_idle may wake).
  /// Caller holds m_.
  void settle_locked(Block& blk);
  Sess& at(SessionId id);
  const Sess& at(SessionId id) const;

  DecodeService* service_;
  Options opt_;

  mutable std::mutex m_;
  std::condition_variable cv_idle_;
  std::vector<std::unique_ptr<Sess>> sessions_;
  std::vector<AckEvent> acks_;
  int outstanding_ = 0;
  std::uint64_t stale_ = 0;
};

}  // namespace spinal::runtime
