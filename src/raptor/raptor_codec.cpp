#include "raptor/raptor_codec.h"

#include <cmath>

#include "ldpc/bp_decoder.h"

namespace spinal::raptor {

RaptorEncoder::RaptorEncoder(int info_bits, std::uint64_t seed)
    : precode_(info_bits),
      lt_(precode_.intermediate_bits(), seed),
      intermediate_(precode_.intermediate_bits()) {}

void RaptorEncoder::load(const util::BitVec& info) {
  intermediate_ = precode_.expand(info);
}

RaptorDecoder::RaptorDecoder(int info_bits, std::uint64_t seed, int iterations)
    : precode_(info_bits), lt_(precode_.intermediate_bits(), seed),
      iterations_(iterations) {}

void RaptorDecoder::add_coded_bit(std::uint32_t lt_index, float llr) {
  rx_index_.push_back(lt_index);
  rx_llr_.push_back(ldpc::clamp_llr(llr));
}

void RaptorDecoder::reset() {
  rx_index_.clear();
  rx_llr_.clear();
}

std::optional<util::BitVec> RaptorDecoder::decode(int iterations) {
  if (iterations <= 0) iterations = iterations_;
  const int m = precode_.intermediate_bits();
  const int n_out = static_cast<int>(rx_index_.size());

  // Factors: [0, n_out) LT output nodes, seeded with the received coded
  // bit's tanh(L/2), then the precode's zero checks.
  ldpc::SumProductGraph graph;
  std::vector<float> seeds(static_cast<std::size_t>(n_out));
  for (int f = 0; f < n_out; ++f) {
    graph.add_factor(lt_.neighbors(rx_index_[f]));
    seeds[f] = std::tanh(0.5f * rx_llr_[f]);
  }
  for (const std::vector<int>& check : precode_.checks()) graph.add_factor(check);
  graph.index_variables(m);

  util::BitVec intermediate(m);
  const auto precode_satisfied = [&] {
    for (const std::vector<int>& check : precode_.checks()) {
      int acc = 0;
      for (int v : check) acc ^= intermediate.get(v) ? 1 : 0;
      if (acc != 0) return false;
    }
    return true;
  };

  // No intrinsic term: intermediate bits are never transmitted directly.
  ldpc::BpWork work;
  graph.init({}, work);
  for (int it = 0; it < iterations; ++it) {
    graph.iterate({}, seeds, work);
    for (int v = 0; v < m; ++v) intermediate.set(v, work.posterior[v] < 0);
    // Early exit once the hard decision satisfies the precode; channel
    // bits may genuinely be noisy, so the LT factors are not required to.
    if (it >= 1 && precode_satisfied()) break;
  }

  // Verify the precode; it acts as the decoder's internal consistency
  // check (§8's framework validates against the transmitted message).
  if (!precode_satisfied()) return std::nullopt;

  // Correlation test against the received soft bits: a correct decode
  // predicts coded bits that agree with the channel LLRs far beyond
  // chance; an under-determined all-zeros "solution" does not. 5-sigma
  // threshold under the null (random signs).
  double corr = 0.0, energy = 0.0;
  for (int f = 0; f < n_out; ++f) {
    int predicted = 0;
    for (int v : graph.vars_of(f)) predicted ^= intermediate.get(v) ? 1 : 0;
    corr += (predicted ? -1.0 : 1.0) * rx_llr_[f];
    energy += static_cast<double>(rx_llr_[f]) * rx_llr_[f];
  }
  if (corr < 5.0 * std::sqrt(energy)) return std::nullopt;

  util::BitVec info(precode_.info_bits());
  for (int i = 0; i < precode_.info_bits(); ++i) info.set(i, intermediate.get(i));
  return info;
}

}  // namespace spinal::raptor
