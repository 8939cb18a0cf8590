#pragma once
// Sparse binary parity-check matrix for LDPC codes, stored as one
// adjacency list per check (check -> variables) — the layout belief
// propagation and the syndrome check walk.

#include <cstdint>
#include <vector>

namespace spinal::ldpc {

class ParityMatrix {
 public:
  ParityMatrix(int checks, int variables);

  int checks() const noexcept { return static_cast<int>(check_to_var_.size()); }
  int variables() const noexcept { return variables_; }
  int edges() const noexcept { return edges_; }

  /// Adds an edge (idempotence is the caller's responsibility). Throws
  /// std::out_of_range when @p check or @p var is outside the matrix.
  void add_edge(int check, int var);

  const std::vector<int>& vars_of_check(int c) const noexcept { return check_to_var_[c]; }

  /// True when H * codeword^T = 0 (codeword as 0/1 per variable).
  bool satisfied(const std::vector<std::uint8_t>& codeword) const noexcept;

 private:
  std::vector<std::vector<int>> check_to_var_;
  int variables_;
  int edges_ = 0;
};

}  // namespace spinal::ldpc
