#pragma once
// Transmission order for rateless symbol generation, with puncturing
// (§3.3, §5, Fig 5-1).
//
// A *pass* sends one symbol per spine value plus tail symbols from the
// last spine value (§4.4). With w-way puncturing a pass is divided into
// w subpasses; subpass j of a pass sends only the spine values whose
// index is congruent to perm_w[j] (mod w), where perm_w is the
// bit-reversed ordering (e.g. 8-way: 0,4,2,6,1,5,3,7) so coverage
// spreads evenly. Tail symbols ride in the final subpass of each pass.
// Decode attempts may happen after any subpass, giving rates as fine as
// one symbol apart and as high as 8k bits/symbol.

#include <cstdint>
#include <vector>

#include "spinal/params.h"

namespace spinal {

/// Identifies one transmitted symbol: which spine value generated it and
/// which of that spine value's outputs it is (the RNG index, §3.3).
struct SymbolId {
  std::int32_t spine_index;  ///< 0-based spine value index in [0, n/k)
  std::int32_t ordinal;      ///< 0-based output index from that spine value

  bool operator==(const SymbolId&) const = default;
};

/// Deterministic, unbounded transmission schedule; both ends derive it
/// from the shared CodeParams.
class PuncturingSchedule {
 public:
  /// Throws std::invalid_argument unless params.puncture_ways is 1, 2,
  /// 4 or 8.
  explicit PuncturingSchedule(const CodeParams& params);

  int subpasses_per_pass() const noexcept { return ways_; }
  int symbols_per_pass() const noexcept { return spine_len_ + tail_; }
  /// A bound on the symbols of any one subpass: a sender sizes its
  /// reused subpass buffer by it.
  int max_subpass_symbols() const noexcept { return (spine_len_ + ways_ - 1) / ways_ + tail_; }

  /// Appends the symbols of global subpass @p sp (sp >= 0, unbounded:
  /// subpass sp belongs to pass sp / ways) to @p out, caller-owned
  /// storage a sender reuses so its steady state never allocates. May
  /// append nothing when the spine is shorter than the stride.
  void subpass(int sp, std::vector<SymbolId>& out) const;

  /// The symbols of subpass @p sp as a fresh vector (tests, one-shot use).
  std::vector<SymbolId> subpass(int sp) const {
    std::vector<SymbolId> out;
    subpass(sp, out);
    return out;
  }

  /// Flattened prefix of the schedule: the first @p count symbols in
  /// transmission order (for tests and the fixed-rate variant).
  std::vector<SymbolId> prefix(int count) const;

  /// Bit-reversed subpass ordering for @p ways: the generator behind the
  /// table subpass() reads (exposed for tests).
  static std::vector<int> strided_order(int ways);

 private:
  int spine_len_;
  int ways_;
  int tail_;
  const int* order_;  ///< strided_order(ways_), from the static table
};

}  // namespace spinal
