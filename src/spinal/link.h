#pragma once
// Link-layer session machinery (§6): everything between "the network
// layer hands us a datagram" and "symbols on the air".
//
// The sender splits a datagram into CRC-sealed code blocks, encodes
// each block independently, and transmits symbols round-robin across
// the blocks that have not been ACKed yet. Because the radio is
// half-duplex, the sender transmits a bounded burst and then pauses for
// feedback; the receiver replies with the per-block ACK bitmap (§6).
// The pause-point heuristic follows the paper's pointer to [16]: start
// with an optimistic burst sized by the best prior rate, then back off
// multiplicatively while blocks remain undecoded.

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "spinal/attempt_schedule.h"
#include "spinal/decoder.h"
#include "spinal/encoder.h"
#include "spinal/framing.h"
#include "spinal/params.h"
#include "spinal/schedule.h"

namespace spinal {

/// One symbol on the air, tagged with the code block it belongs to.
struct LinkSymbol {
  std::int32_t block;
  SymbolId id;
  std::complex<float> value;
};

/// Sender half of a link-layer session.
class LinkSender {
 public:
  /// @param params    per-block code parameters (params.n = block bits)
  /// @param datagram  payload bytes
  LinkSender(const CodeParams& params, const std::vector<std::uint8_t>& datagram);

  int block_count() const noexcept { return static_cast<int>(encoders_.size()); }

  /// True when every block has been ACKed.
  bool done() const noexcept { return ack_.all_decoded(); }

  /// Produces the next burst of symbols (round-robin over unACKed
  /// blocks, one subpass per block per turn), then the sender pauses.
  /// Burst size shrinks as fewer blocks remain.
  std::vector<LinkSymbol> next_burst();

  /// Applies receiver feedback.
  void handle_ack(const AckBitmap& ack);

  /// Total symbols transmitted so far.
  long symbols_sent() const noexcept { return symbols_sent_; }

  /// Gives up when a block exceeded params.max_passes (link reset).
  bool gave_up() const noexcept { return gave_up_; }

 private:
  CodeParams params_;
  std::vector<SpinalEncoder> encoders_;
  std::vector<int> next_subpass_;
  PuncturingSchedule schedule_;
  std::vector<SymbolId> ids_;  ///< one block's subpass, reused per burst
  AckBitmap ack_;
  long symbols_sent_ = 0;
  bool gave_up_ = false;
};

/// Receiver half: accumulates symbols per block, decides at each pause
/// point which blocks to attempt, and issues ACK bitmaps.
///
/// Every block follows one AttemptSchedule (spinal/attempt_schedule.h),
/// stepped once per symbol-carrying burst. Its capacity gate
/// (AttemptSchedule::awgn_gate: N C + 4 sqrt(N V) + (1/2) log2 N >= n)
/// takes its SNR from a decision-directed noise estimate kept per link:
/// the median over the link's blocks of path_cost / N from each block's
/// latest full-effort attempt. A failed search below capacity fits the
/// noise and reads low, which only loosens the gate; the median keeps
/// one corrupted block from raising it. The gate is snapshotted by pause(),
/// before any of that pause's attempts, so the inline make_ack() loop
/// and SessionMux (which drives pause/claim/complete/release) decide
/// alike. Links that received fading CSI are not gated.
class LinkReceiver {
 public:
  /// @p schedule is every block's attempt schedule, in bursts; the
  /// default attempts at every burst.
  LinkReceiver(const CodeParams& params, int block_count,
               const AttemptSchedule& schedule = AttemptSchedule());

  /// Ingests one received symbol (optionally with fading CSI). Returns
  /// false when the symbol was dropped: stale (its block already
  /// decoded; counted in stale_symbols()) or erased (a NaN or infinite
  /// value or CSI, modem::non_finite; changes nothing). A symbol for a
  /// claimed block is buffered until release_block(). Throws
  /// std::out_of_range, changing nothing, for a bad block or spine
  /// index.
  bool receive(const LinkSymbol& symbol, std::complex<float> csi = {1.0f, 0.0f});

  /// A pause point with inline decodes: pause(), then attempt every due
  /// block through claim/complete/release — so it is scheduled and
  /// gated exactly like SessionMux. Every block decodes in the one
  /// receiver-owned workspace. Returns the current ACK bitmap (§6:
  /// "the ACK contains one bit per code block").
  AckBitmap make_ack();

  /// The pause point (§6) every driver runs: snapshots the capacity
  /// gate from noise_estimate(), counts a burst for each block that
  /// received symbols since the last one, and returns the blocks whose
  /// attempt is due now (valid until the next pause). A claimed block's
  /// check is deferred to release_block().
  std::span<const int> pause();

  // ---- Non-blocking, mux-driven entry points ----------------------
  // The decode runtime (runtime/session_mux.h) offloads attempts to a
  // worker pool instead of running them inline in make_ack(): claim a
  // due block's symbol store, decode it on any thread with caller
  // scratch (SpinalDecoder::decode_with), report the candidate back,
  // then release the block. None of these calls block or decode.

  /// The bitmap as decoded so far, without attempting anything.
  AckBitmap current_ack() const;

  bool block_decoded(int b) const;

  /// True when block @p b has received symbols since its last decode
  /// attempt (or claim) and is still undecoded.
  bool block_dirty(int b) const;

  /// Claims block @p b for an external decode attempt: clears its dirty
  /// flag and returns its symbol-store decoder. Until release_block(),
  /// symbols received for the block are buffered (the store may be
  /// read on another thread).
  const SpinalDecoder& claim_block(int b);

  /// Reports an external decode candidate for block @p b. Returns true
  /// when the candidate passes its CRC and the block transitions to
  /// decoded; false for CRC failures or a block that already decoded
  /// (a stale completion — ignored, the §6 feedback edge case).
  /// @p path_cost is the attempt's DecodeResult::path_cost; pass it for
  /// full-effort attempts only (a narrower beam reads high), and it
  /// becomes the block's sample of the noise estimate.
  bool complete_block(int b, const util::BitVec& candidate,
                      std::optional<double> path_cost = std::nullopt);

  /// Ends a claim: applies the symbols buffered meanwhile (dropped as
  /// stale if the block decoded). Returns true when they make an attempt
  /// due now — the check a pause passed during the claim deferred, or
  /// one for the buffered burst itself, since a sender that paused for
  /// good never triggers another pause() — in which case the caller
  /// claims the block again.
  bool release_block(int b);

  /// The link's noise variance estimate sigma^2 (0: none yet).
  double noise_estimate() const;

  /// Symbols dropped because their block had already decoded.
  std::uint64_t stale_symbols() const noexcept { return stale_; }

  /// Decode attempts reported so far (complete_block calls).
  std::int64_t attempts() const noexcept { return attempts_; }

  /// Reassembles the datagram once every block's CRC passes.
  std::optional<std::vector<std::uint8_t>> datagram() const;

 private:
  struct Block {
    explicit Block(const AttemptSchedule& s) : schedule(s) {}
    AttemptSchedule schedule;
    int bursts = 0;        ///< schedule steps so far
    bool decoded = false;
    bool dirty = false;    ///< symbols since the last attempt (or claim)
    bool fresh = false;    ///< symbols since the last burst was counted
    bool claimed = false;  ///< store on loan (claim_block .. release_block)
    /// path_cost / N of the latest full-effort attempt; NaN: none yet.
    double noise = std::numeric_limits<double>::quiet_NaN();
    util::BitVec message;
    std::vector<std::pair<LinkSymbol, std::complex<float>>> pending;
  };

  void check_block(int b) const;
  /// One schedule check for block @p b at the current gate.
  bool attempt_due(int b);

  CodeParams params_;
  std::vector<SpinalDecoder> decoders_;
  std::vector<Block> blocks_;
  std::vector<int> due_;              // pause()'s result
  mutable std::vector<double> noise_;  // noise_estimate() scratch
  std::int64_t gate_ = 0;             // capacity gate of the current pause
  bool fading_ = false;               // CSI received: never gated
  std::uint64_t stale_ = 0;
  std::int64_t attempts_ = 0;
  detail::DecodeWorkspace ws_;  // make_ack()'s search scratch, all blocks
  DecodeResult scratch_;        // recycled across decode attempts (no allocs)
};

}  // namespace spinal
