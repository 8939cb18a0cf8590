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

namespace {

// N independent one-at-a-time chains, software-pipelined: per step the
// N state pre-mixes issue together, then the N data mixes. N is a
// compile-time constant so the short loops fully unroll and the
// independent mix chains interleave in the pipeline; the serial
// dependency is per chain only. Bit-identical to SpineHash::operator()
// per chain by construction (same two-word mix, same seed fold).
template <int N>
void walk_oaat(std::uint32_t seed, const std::uint32_t* seeds,
               const std::uint32_t* data, std::size_t length,
               std::uint32_t* out) noexcept {
  std::uint32_t s[N];
  for (int j = 0; j < N; ++j) s[j] = seeds[j];
  for (std::size_t t = 0; t < length; ++t) {
    std::uint32_t pre[N];
    for (int j = 0; j < N; ++j) pre[j] = one_at_a_time_word(seed, s[j]);
    for (int j = 0; j < N; ++j)
      s[j] = one_at_a_time_word(pre[j], data[j * length + t]);
    for (int j = 0; j < N; ++j) out[j * length + t] = s[j];
  }
}

}  // namespace

void SpineHash::spine_walk_n(const std::uint32_t* seeds, std::size_t chains,
                             const std::uint32_t* data, std::size_t length,
                             std::uint32_t* out) const noexcept {
  if (kind_ == Kind::kOneAtATime) {
    const std::uint32_t seed = salt_ ^ 0x2545F491u;  // operator()'s seed fold
    std::size_t j = 0;
    for (; j + 4 <= chains; j += 4)
      walk_oaat<4>(seed, seeds + j, data + j * length, length, out + j * length);
    switch (chains - j) {
      case 3: walk_oaat<3>(seed, seeds + j, data + j * length, length, out + j * length); break;
      case 2: walk_oaat<2>(seed, seeds + j, data + j * length, length, out + j * length); break;
      case 1: walk_oaat<1>(seed, seeds + j, data + j * length, length, out + j * length); break;
      default: break;
    }
    return;
  }
  // lookup3 / Salsa20 do not factor into premix + data mix; their wider
  // internal state already fills the pipeline, so walk chain-by-chain.
  for (std::size_t j = 0; j < chains; ++j) {
    std::uint32_t s = seeds[j];
    for (std::size_t t = 0; t < length; ++t) {
      s = (*this)(s, data[j * length + t]);
      out[j * length + t] = s;
    }
  }
}

}  // namespace spinal::hash
