#include "hash/spine_hash.h"

#include "hash/jenkins.h"
#include "hash/salsa20.h"

namespace spinal::hash {

std::string kind_name(Kind kind) {
  switch (kind) {
    case Kind::kOneAtATime: return "one-at-a-time";
    case Kind::kLookup3: return "lookup3";
    case Kind::kSalsa20: return "salsa20";
  }
  return "unknown";
}

std::uint32_t SpineHash::operator()(std::uint32_t state,
                                    std::uint32_t data) const noexcept {
  switch (kind_) {
    case Kind::kOneAtATime:
      // Fold the salt into the initial value, then mix state and data.
      return one_at_a_time_word(one_at_a_time_word(salt_ ^ 0x2545F491u, state), data);
    case Kind::kLookup3:
      return lookup3_pair(state, data, salt_);
    case Kind::kSalsa20:
      return salsa20_pair(state, data, salt_);
  }
  return 0;
}

}  // namespace spinal::hash
