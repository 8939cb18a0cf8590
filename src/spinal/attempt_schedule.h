#pragma once
// When a rateless receiver attempts a decode (§6, §8.1). Every driver
// consults this one type: the engine's MessageRun once per non-empty
// chunk, and the link receiver (inline make_ack, or SessionMux through
// it) once per code block per symbol-carrying burst. It combines:
//
//   - a linear floor: attempt after every `every` steps;
//   - a geometric back-off: after an attempt at step s, wait until step
//     max(s + every, s * growth) (growth 1 = the linear floor alone);
//   - a capacity gate: no attempt while the symbols received cannot
//     carry the message, that is while N C + 4 sqrt(N V) + (1/2) log2 N
//     < n (theory::attempt_gate_symbols: the normal approximation at
//     z = 4 with its third-order term). A gated step
//     does not count as an attempt, but moves the back-off exactly as
//     the ungated attempt there would, so the gated attempts are always
//     a subset of the ungated schedule's (for a fixed gate, a suffix of
//     it) at any growth: the gate can drop an attempt but never move one
//     to another step.

#include <cstdint>

namespace spinal {

class AttemptSchedule {
 public:
  /// Throws std::invalid_argument unless @p every >= 1 and @p growth is
  /// finite and >= 1 (smaller values would stall or shrink the
  /// schedule; NaN compares false against every bound).
  explicit AttemptSchedule(int every = 1, double growth = 1.0);

  /// Asked once per step: @p step counts the steps so far (1-based),
  /// @p symbols the symbols received, @p gate the fewest symbols an
  /// attempt needs (0: ungated). True when an attempt is due now. When
  /// the ungated schedule is due at @p step, the back-off advances past
  /// it whether or not the gate holds the attempt back.
  bool due(int step, std::int64_t symbols, std::int64_t gate);

  /// The gate for an n-bit message over complex AWGN at linear SNR
  /// @p snr (unit-power symbols: SNR = 1 / sigma^2). 0 (ungated) unless
  /// @p snr is finite and positive.
  static std::int64_t awgn_gate(int n, double snr);
  /// The gate for an n-bit message over a BSC with crossover @p p.
  static std::int64_t bsc_gate(int n, double p);

 private:
  int every_;
  double growth_;
  std::int64_t next_;  ///< the first step at which an attempt is due
};

}  // namespace spinal
