#pragma once
// Spinal encoder (§3): spine values seed the hash-derived RNG, whose
// outputs pass through the channel's symbol map. One class template,
// Encoder<Map>, serves both channels of the paper:
//
//   SpinalEncoder     Encoder<modem::SpinalConstellation>: I/Q symbols,
//                     c RNG bits per dimension (two draws per symbol).
//   BscSpinalEncoder  Encoder<BitMap>: §3.3's trivial c=1 map, one
//                     coded bit per channel use.
//
// The encoder is rateless: symbol(id) is defined for every ordinal, and
// symbols are randomly addressable (§7.1), so any transmission schedule
// — punctured or not — just asks for the SymbolIds it wants.

#include <complex>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "hash/spine_hash.h"
#include "modem/constellation.h"
#include "spinal/params.h"
#include "spinal/schedule.h"
#include "spinal/spine.h"
#include "util/bitvec.h"

namespace spinal {

/// The BSC's symbol map (§3.3: "For the BSC, the constellation mapping
/// is trivial: c = 1, and the sender transmits b"): the RNG word's low
/// bit.
struct BitMap {
  std::uint8_t symbol(std::uint32_t word) const noexcept {
    return static_cast<std::uint8_t>(word & 1u);
  }
};

/// The symbol map @p Map of a code with parameters @p p.
template <class Map>
Map symbol_map(const CodeParams& p) {
  if constexpr (std::is_same_v<Map, modem::SpinalConstellation>)
    return {p.map, p.c, p.power, p.beta};
  else
    return {};
}

template <class Map>
class Encoder {
 public:
  /// What one channel use carries (std::complex<float> or a bit).
  using Symbol = decltype(std::declval<const Map&>().symbol(0u));

  /// Builds the spine for @p message (must be params.n bits).
  /// Throws std::invalid_argument on bad params or size mismatch.
  Encoder(const CodeParams& params, const util::BitVec& message)
      : params_(validated(params)),
        h_(params.hash_kind, params.salt),
        map_(symbol_map<Map>(params)),
        schedule_(params),
        spine_(compute_spine(params, h_, message)) {}

  const CodeParams& params() const noexcept { return params_; }
  const std::vector<std::uint32_t>& spine() const noexcept { return spine_; }

  /// The symbol identified by @p id: the map applied to
  /// RNG(s_{id.spine_index}, id.ordinal). For I/Q symbols, I comes from
  /// the low c bits and Q from the next c bits.
  Symbol symbol(SymbolId id) const noexcept {
    return map_.symbol(
        h_.rng(spine_[id.spine_index], static_cast<std::uint32_t>(id.ordinal)));
  }

  /// Encodes a whole subpass of the shared schedule, appending to @p out
  /// and recording which symbols were produced in @p ids_out.
  void encode_subpass(int sp, std::vector<SymbolId>& ids_out,
                      std::vector<Symbol>& out) const {
    const std::size_t first = ids_out.size();
    schedule_.subpass(sp, ids_out);
    for (std::size_t i = first; i < ids_out.size(); ++i) out.push_back(symbol(ids_out[i]));
  }

  const Map& constellation() const noexcept { return map_; }

 private:
  CodeParams params_;
  hash::SpineHash h_;
  [[no_unique_address]] Map map_;
  PuncturingSchedule schedule_;
  std::vector<std::uint32_t> spine_;
};

using SpinalEncoder = Encoder<modem::SpinalConstellation>;
using BscSpinalEncoder = Encoder<BitMap>;

}  // namespace spinal
