#pragma once
// Sum-product belief propagation: one tanh-rule engine over a flattened
// factor graph (SumProductGraph), and the LDPC decoder on it (the
// paper's LDPC baseline uses "a belief propagation decoder that uses
// forty full iterations with a floating point representation", §8).
// Raptor's joint LT + precode decoder runs the same engine.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "ldpc/matrix.h"
#include "util/bitvec.h"

namespace spinal::ldpc {

struct BpResult {
  util::BitVec codeword;   ///< hard decision after the final iteration
  bool checks_satisfied;   ///< H c^T == 0 (early exit when reached)
  int iterations_used;
};

/// The clamp on every BP message and received LLR: keeps tanh/atanh
/// numerically sane.
inline float clamp_llr(float x) noexcept { return std::clamp(x, -20.0f, 20.0f); }

/// Caller-owned message-passing scratch, reusable across decodes of any
/// graph (buffers are resized and fully (re)initialized from the channel
/// LLRs each call, so reuse cannot change results bit-wise). The decode
/// runtime pins one per worker per LDPC WorkspaceKey.
struct BpWork {
  std::vector<float> check_msg;  ///< factor -> variable
  std::vector<float> var_msg;    ///< variable -> factor
  std::vector<float> posterior;
  std::vector<std::uint8_t> hard;
};

/// A factor graph flattened for tanh-rule sum-product message passing.
/// A factor is a parity constraint over its variables, optionally seeded
/// with an observation (Raptor's LT output nodes carry the received
/// coded bit's tanh(L/2)); a variable may carry an intrinsic channel LLR.
class SumProductGraph {
 public:
  /// Appends a factor over @p vars.
  void add_factor(std::span<const int> vars);
  /// Indexes each variable's edges; call once, after the last factor.
  void index_variables(int variables);

  int factors() const noexcept { return static_cast<int>(offset_.size()) - 1; }
  std::span<const int> vars_of(int f) const noexcept {
    return std::span(edge_var_).subspan(static_cast<std::size_t>(offset_[f]),
                                        static_cast<std::size_t>(offset_[f + 1] - offset_[f]));
  }

  /// Sizes @p work to this graph and seeds the variable-to-factor
  /// messages with the clamped @p intrinsic LLRs (zero when empty).
  void init(std::span<const float> intrinsic, BpWork& work) const;

  /// One iteration. Factors: the tanh rule, factor f's product seeded
  /// with @p seeds[f] (1.0f past the end of @p seeds: a plain check).
  /// Variables: posterior = clamped @p intrinsic LLR (zero when empty)
  /// + every incoming factor message; each message back to a factor is
  /// the posterior less that factor's own message.
  void iterate(std::span<const float> intrinsic, std::span<const float> seeds,
               BpWork& work) const;

 private:
  std::vector<int> edge_var_;                // variable of each edge, factor-major
  std::vector<int> offset_{0};               // per-factor slice into edge_var_
  std::vector<std::vector<int>> var_edges_;  // edges touching each variable
};

class BpDecoder {
 public:
  /// @param iterations  full BP iterations (default 40 as in §8)
  explicit BpDecoder(const ParityMatrix& H, int iterations = 40);

  int iterations() const noexcept { return iterations_; }

  /// Decodes from per-variable channel LLRs (log P(0)/P(1)).
  BpResult decode(std::span<const float> channel_llrs) const;

  /// Caller-workspace + iteration-cap form (the runtime's effort knob):
  /// @p iterations <= 0 runs the configured count, making effort 0
  /// bit-identical to the plain decode().
  BpResult decode(std::span<const float> channel_llrs, int iterations,
                  BpWork& work) const;

 private:
  const ParityMatrix& H_;
  int iterations_;
  SumProductGraph graph_;  // one factor per check
};

}  // namespace spinal::ldpc
