#include "spinal/spine.h"

#include <stdexcept>

namespace spinal {

std::vector<std::uint32_t> compute_spine(const CodeParams& params,
                                         const hash::SpineHash& h,
                                         const util::BitVec& message) {
  if (message.size() != static_cast<std::size_t>(params.n))
    throw std::invalid_argument("compute_spine: message length != params.n");

  const int s_len = params.spine_length();
  std::vector<std::uint32_t> spine(s_len);
  std::uint32_t state = params.s0;
  for (int i = 0; i < s_len; ++i) {
    const std::uint32_t chunk =
        message.get_bits(static_cast<std::size_t>(i) * params.k,
                         static_cast<unsigned>(params.chunk_bits(i)));
    state = h(state, chunk);
    spine[i] = state;
  }
  return spine;
}

}  // namespace spinal
