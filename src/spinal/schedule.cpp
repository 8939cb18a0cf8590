#include "spinal/schedule.h"

#include <stdexcept>

namespace spinal {

namespace {

/// strided_order(ways) for every legal puncture_ways, one row per
/// log2(ways): subpass() reads its residue here instead of rebuilding
/// the order on every call. test_schedule checks each row against the
/// generator.
constexpr int kStridedOrder[4][8] = {
    {0}, {1, 0}, {3, 1, 2, 0}, {7, 3, 5, 1, 6, 2, 4, 0}};

const int* strided_row(int ways) {
  switch (ways) {
    case 1: return kStridedOrder[0];
    case 2: return kStridedOrder[1];
    case 4: return kStridedOrder[2];
    case 8: return kStridedOrder[3];
    default:
      throw std::invalid_argument(
          "PuncturingSchedule: puncture_ways must be 1, 2, 4 or 8");
  }
}

}  // namespace

PuncturingSchedule::PuncturingSchedule(const CodeParams& params)
    : spine_len_(params.spine_length()),
      ways_(params.puncture_ways),
      tail_(params.tail_symbols),
      order_(strided_row(ways_)) {}

std::vector<int> PuncturingSchedule::strided_order(int ways) {
  // Bit-reversal of (ways-1-j): 8 -> 7,3,5,1,6,2,4,0. Residue ways-1
  // comes first so the *last* spine value is observed in the very first
  // subpass of every pass — without end-of-spine information the final
  // chunk is a 2^k-way tie and no mid-pass decode attempt could ever
  // succeed (§5's fine-grained rates, Fig 8-11's mid-pass successes).
  // Early spine values, by contrast, are recoverable from later symbols
  // through the hash chain's memory, so covering them last is cheap.
  std::vector<int> order(ways);
  int bits = 0;
  while ((1 << bits) < ways) ++bits;
  for (int j = 0; j < ways; ++j) {
    const int x = ways - 1 - j;
    int r = 0;
    for (int b = 0; b < bits; ++b)
      if (x & (1 << b)) r |= 1 << (bits - 1 - b);
    order[j] = r;
  }
  return order;
}

void PuncturingSchedule::subpass(int sp, std::vector<SymbolId>& out) const {
  const int pass = sp / ways_;
  const int sub = sp % ways_;
  const int residue = order_[sub];

  for (int i = residue; i < spine_len_; i += ways_) {
    // Every spine value except the last emits one symbol per pass, so
    // its ordinal in pass `pass` is simply `pass`. The last spine value
    // also emits the tail symbols, so it advances by (1 + tail) per pass.
    const bool is_last = (i == spine_len_ - 1);
    const int ordinal = is_last ? pass * (1 + tail_) : pass;
    out.push_back({i, ordinal});
  }

  if (sub == 0) {
    // Tail symbols from s_{n/k} ride the first subpass of each pass,
    // alongside the last spine value's strided symbol, so every decode
    // attempt has fresh end-of-spine observations (§4.4).
    const int last = spine_len_ - 1;
    for (int t = 0; t < tail_; ++t)
      out.push_back({last, pass * (1 + tail_) + 1 + t});
  }
}

std::vector<SymbolId> PuncturingSchedule::prefix(int count) const {
  std::vector<SymbolId> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int sp = 0; static_cast<int>(out.size()) < count; ++sp) subpass(sp, out);
  out.resize(static_cast<std::size_t>(count));
  return out;
}

}  // namespace spinal
