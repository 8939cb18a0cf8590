#pragma once
// Systematic LDPC encoder via one-time GF(2) elimination of H.
//
// At construction we row-reduce H to find a set of pivot (parity)
// columns; encoding places information bits on the non-pivot columns
// and back-substitutes the parity bits so that H c^T = 0. This works
// for any full-row-rank H (rank deficiencies shrink the parity count
// and grow the information set accordingly).

#include <cstdint>
#include <vector>

#include "ldpc/matrix.h"
#include "util/bitvec.h"

namespace spinal::ldpc {

class LdpcEncoder {
 public:
  explicit LdpcEncoder(const ParityMatrix& H);

  int codeword_bits() const noexcept { return n_; }
  int info_bits() const noexcept { return static_cast<int>(info_cols_.size()); }

  /// Encodes @p info (info_bits() bits) into a codeword (codeword_bits()
  /// bits) satisfying every parity check.
  util::BitVec encode(const util::BitVec& info) const;

  /// Extracts the information bits back out of a codeword.
  util::BitVec extract_info(const util::BitVec& codeword) const;

 private:
  int n_;
  std::vector<int> info_cols_;               // non-pivot columns
  std::vector<int> pivot_cols_;              // one per reduced row
  std::vector<std::vector<std::uint64_t>> reduced_;  // RREF rows, bit-packed
};

}  // namespace spinal::ldpc
