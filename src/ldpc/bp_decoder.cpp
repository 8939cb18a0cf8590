#include "ldpc/bp_decoder.h"

#include <cmath>
#include <stdexcept>

namespace spinal::ldpc {

void SumProductGraph::add_factor(std::span<const int> vars) {
  edge_var_.insert(edge_var_.end(), vars.begin(), vars.end());
  offset_.push_back(static_cast<int>(edge_var_.size()));
}

void SumProductGraph::index_variables(int variables) {
  var_edges_.assign(static_cast<std::size_t>(variables), {});
  for (int e = 0; e < static_cast<int>(edge_var_.size()); ++e)
    var_edges_[edge_var_[e]].push_back(e);
}

void SumProductGraph::init(std::span<const float> intrinsic, BpWork& work) const {
  const std::size_t n_edges = edge_var_.size();
  // Every buffer is fully (re)written here or before it is read, so a
  // recycled BpWork produces bit-identical messages to fresh allocations.
  work.check_msg.assign(n_edges, 0.0f);
  work.var_msg.resize(n_edges);
  for (std::size_t e = 0; e < n_edges; ++e)
    work.var_msg[e] = intrinsic.empty() ? 0.0f : clamp_llr(intrinsic[edge_var_[e]]);
  work.posterior.assign(var_edges_.size(), 0.0f);
}

void SumProductGraph::iterate(std::span<const float> intrinsic,
                              std::span<const float> seeds, BpWork& work) const {
  std::vector<float>& check_msg = work.check_msg;
  std::vector<float>& var_msg = work.var_msg;

  // Factor update (tanh rule), per factor.
  for (int f = 0; f < factors(); ++f) {
    const int begin = offset_[f], end = offset_[f + 1];
    // Product of tanh(m/2) with exclusion via sign/magnitude split.
    float prod = f < static_cast<int>(seeds.size()) ? seeds[f] : 1.0f;
    int zero_count = 0;
    int zero_edge = -1;
    for (int e = begin; e < end; ++e) {
      const float t = std::tanh(0.5f * var_msg[e]);
      if (std::fabs(t) < 1e-12f) {
        ++zero_count;
        zero_edge = e;
      } else {
        prod *= t;
      }
    }
    for (int e = begin; e < end; ++e) {
      float t_excl;
      if (zero_count == 0) {
        const float t = std::tanh(0.5f * var_msg[e]);
        t_excl = prod / t;
      } else if (zero_count == 1) {
        t_excl = (e == zero_edge) ? prod : 0.0f;
      } else {
        t_excl = 0.0f;
      }
      t_excl = std::clamp(t_excl, -0.999999f, 0.999999f);
      check_msg[e] = clamp_llr(2.0f * std::atanh(t_excl));
    }
  }

  // Variable update + posterior.
  for (std::size_t v = 0; v < var_edges_.size(); ++v) {
    float sum = intrinsic.empty() ? 0.0f : clamp_llr(intrinsic[v]);
    for (int e : var_edges_[v]) sum += check_msg[e];
    work.posterior[v] = sum;
    for (int e : var_edges_[v]) var_msg[e] = clamp_llr(sum - check_msg[e]);
  }
}

BpDecoder::BpDecoder(const ParityMatrix& H, int iterations)
    : H_(H), iterations_(iterations) {
  if (iterations < 1) throw std::invalid_argument("BpDecoder: iterations must be >= 1");
  for (int c = 0; c < H.checks(); ++c) graph_.add_factor(H.vars_of_check(c));
  graph_.index_variables(H.variables());
}

BpResult BpDecoder::decode(std::span<const float> channel_llrs) const {
  BpWork work;
  return decode(channel_llrs, iterations_, work);
}

BpResult BpDecoder::decode(std::span<const float> channel_llrs, int iterations,
                           BpWork& work) const {
  if (channel_llrs.size() != static_cast<std::size_t>(H_.variables()))
    throw std::invalid_argument("BpDecoder::decode: wrong LLR length");
  if (iterations <= 0) iterations = iterations_;

  graph_.init(channel_llrs, work);
  std::vector<std::uint8_t>& hard = work.hard;
  hard.assign(static_cast<std::size_t>(H_.variables()), 0);

  BpResult result;
  result.codeword = util::BitVec(H_.variables());
  result.checks_satisfied = false;
  result.iterations_used = 0;

  for (int it = 0; it < iterations; ++it) {
    result.iterations_used = it + 1;
    graph_.iterate(channel_llrs, {}, work);
    for (int v = 0; v < H_.variables(); ++v) hard[v] = work.posterior[v] < 0 ? 1 : 0;
    if (H_.satisfied(hard)) {
      result.checks_satisfied = true;
      break;
    }
  }

  for (int v = 0; v < H_.variables(); ++v) result.codeword.set(v, hard[v]);
  return result;
}

}  // namespace spinal::ldpc
