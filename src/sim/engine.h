#pragma once
// The rateless execution engine (§8.1): regulates the streaming of
// symbols from the encoder through the channel to the decoder, meters
// channel usage, and reports when (and with how many symbols) each
// message decodes.
//
// Two entry points share one implementation:
//   - run_message(): the blocking loop (stream, attempt, repeat) used by
//     the Monte-Carlo sweeps; and
//   - MessageRun: the non-blocking stepper behind it, which separates
//     "feed symbols until a decode attempt is due" from "apply an
//     attempt's outcome" so a runtime worker pool can interleave
//     thousands of runs and execute the decode attempts wherever it
//     likes (src/runtime/decode_service.h). Because run_message is
//     itself written over MessageRun, a deterministic runtime drive is
//     bit-identical to the sequential loop by construction.
//
// When to attempt is one AttemptSchedule (spinal/attempt_schedule.h),
// stepped once per non-empty chunk: the linear floor attempt_every, the
// geometric back-off attempt_growth, and a capacity gate. The gate makes
// no attempt while the N symbols received cannot carry the n message
// bits: it waits for N C + 4 sqrt(N V) + (1/2) log2 N >= n, with C and
// V the capacity and dispersion per symbol of the run's channel,
// computed once per run (AWGN: log2(1 + SNR) at the channel's SNR,
// under the repo's unit-power convention, awgn.h; BSC: 1 - H(p)). This
// is the normal approximation (Polyanskiy, Poor and Verdu, 2010) with
// its third-order term, at z = 4: the odds that a skipped attempt would
// have succeeded stay near the CRC-16's own 2^-16 false-accept rate. It
// never opens below the 16-bit-slack converse, so it never fires for
// n <= 16 (theory::min_attempt_symbols). Spinal codes run close to
// capacity ("De-randomizing Shannon"), so below n / C every attempt is
// wasted compute. The constants are fixed, not options. Rayleigh runs
// are not gated. A gated step still moves the back-off as the ungated
// attempt there would, so at any attempt_growth the gate only removes
// attempts from the ungated schedule and never changes a decode; it
// applies to every codec alike, so the baseline comparisons stay fair.

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/channel_sim.h"
#include "sim/session.h"
#include "spinal/attempt_schedule.h"

namespace spinal::sim {

struct RunResult {
  bool success = false;   ///< decoded correctly before the give-up bound
  long symbols = 0;       ///< symbols transmitted until success (or give-up)
  int chunks = 0;         ///< chunks transmitted
  int attempts = 0;       ///< decode attempts performed
};

struct EngineOptions {
  /// Attempt a decode after every this-many non-empty chunks.
  int attempt_every = 1;
  /// Geometric back-off: after each attempt the next one waits until the
  /// chunk count has grown by this factor (1.0 = attempt every
  /// attempt_every chunks). Caps decode-attempt cost at low SNR at a
  /// small rate penalty (a failed attempt wastes only compute; a late
  /// attempt wastes channel symbols).
  double attempt_growth = 1.0;

  /// Throws std::invalid_argument unless attempt_every >= 1 and
  /// attempt_growth is finite and >= 1.0. Out-of-range values would
  /// silently stall the attempt schedule (attempt_every <= 0 makes the
  /// next attempt never advance past the current chunk count;
  /// attempt_growth < 1 would shrink it, and a NaN or infinite one
  /// would overflow it), so every engine entry point validates up front.
  void validate() const;

  /// A fresh schedule with these settings (validates, like validate()).
  AttemptSchedule schedule() const;
};

/// One message's streaming state machine, advanced cooperatively:
///
///   MessageRun run(session, channel, message, opt);
///   while (run.feed_to_attempt())
///     run.record_attempt(session.try_decode());   // or on a worker
///   use(run.result());
///
/// feed_to_attempt() streams chunks through the channel into the session
/// until the attempt schedule fires (gate included); the caller then
/// performs the decode attempt however it likes (inline, or on a pool
/// worker with pooled scratch via RatelessSession::try_decode_with) and
/// reports the candidate back. Holds references only — the caller owns
/// session, channel and message and must keep them alive for the run's
/// lifetime.
class MessageRun {
 public:
  /// Starts the run (validates @p opt, then session.start + noise hint).
  MessageRun(RatelessSession& session, ChannelSim& channel,
             const util::BitVec& message, const EngineOptions& opt = {});

  /// Streams chunks until a decode attempt is due. Returns true when an
  /// attempt should be performed now; false when the run finished first
  /// (success already recorded, or the chunk budget ran out).
  bool feed_to_attempt();

  /// Applies the outcome of the decode attempt requested by the last
  /// feed_to_attempt(). The engine validates the candidate against the
  /// transmitted message, standing in for the link-layer CRC of §6 (a
  /// 16-bit CRC's 2^-16 false-accept rate is negligible at the trial
  /// counts used here).
  void record_attempt(const std::optional<util::BitVec>& candidate);

  bool finished() const noexcept { return done_; }
  const RunResult& result() const noexcept { return result_; }
  RatelessSession& session() noexcept { return *session_; }
  const util::BitVec& message() const noexcept { return *message_; }

 private:
  RatelessSession* session_;
  ChannelSim* channel_;
  const util::BitVec* message_;
  AttemptSchedule schedule_;  ///< steps = non-empty chunks
  std::int64_t gate_;         ///< capacity gate, computed once per run

  RunResult result_;
  std::vector<std::complex<float>> csi_;
  int limit_;
  int chunk_ = 0;
  int nonempty_ = 0;
  bool done_ = false;
};

/// Streams one message through the session/channel until it decodes or
/// the session's give-up bound is hit (the blocking loop over
/// MessageRun). Throws std::invalid_argument on invalid @p opt.
RunResult run_message(RatelessSession& session, ChannelSim& channel,
                      const util::BitVec& message, const EngineOptions& opt = {});

}  // namespace spinal::sim
