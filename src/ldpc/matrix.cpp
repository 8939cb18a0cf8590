#include "ldpc/matrix.h"

#include <stdexcept>

namespace spinal::ldpc {

ParityMatrix::ParityMatrix(int checks, int variables) : variables_(variables) {
  if (checks < 1 || variables < 1)
    throw std::invalid_argument("ParityMatrix: dimensions must be positive");
  check_to_var_.resize(checks);
}

void ParityMatrix::add_edge(int check, int var) {
  if (var < 0 || var >= variables_)
    throw std::out_of_range("ParityMatrix::add_edge: variable out of range");
  check_to_var_.at(check).push_back(var);
  ++edges_;
}

bool ParityMatrix::satisfied(const std::vector<std::uint8_t>& codeword) const noexcept {
  if (codeword.size() != static_cast<std::size_t>(variables())) return false;
  for (const auto& row : check_to_var_) {
    int parity = 0;
    for (int v : row) parity ^= codeword[v] & 1;
    if (parity) return false;
  }
  return true;
}

}  // namespace spinal::ldpc
