#include "ldpc/qc_ldpc.h"

#include <stdexcept>
#include <vector>

#include "util/prng.h"

namespace spinal::ldpc {

double rate_value(Rate r) noexcept {
  switch (r) {
    case Rate::kHalf: return 1.0 / 2.0;
    case Rate::kTwoThirds: return 2.0 / 3.0;
    case Rate::kThreeQuarters: return 3.0 / 4.0;
    case Rate::kFiveSixths: return 5.0 / 6.0;
  }
  return 0;
}

namespace {

constexpr int kBlockCols = 24;  // 24 circulant columns of Z=27 -> n=648
constexpr int kNoEdge = -1;

int parity_block_rows(Rate r) {
  switch (r) {
    case Rate::kHalf: return 12;
    case Rate::kTwoThirds: return 8;
    case Rate::kThreeQuarters: return 6;
    case Rate::kFiveSixths: return 4;
  }
  return 0;
}

/// Detects whether adding shift s at (row, col) creates a length-4 cycle
/// with existing entries: a 4-cycle among circulants exists between rows
/// r1,r2 and cols c1,c2 iff shift differences match:
/// s(r1,c1) - s(r1,c2) == s(r2,c1) - s(r2,c2) (mod Z).
bool creates_4cycle(const std::vector<std::vector<int>>& shifts, int row, int col,
                    int cand) {
  const int mb = static_cast<int>(shifts.size());
  for (int r2 = 0; r2 < mb; ++r2) {
    if (r2 == row) continue;
    if (shifts[r2][col] == kNoEdge) continue;
    for (int c2 = 0; c2 < kBlockCols; ++c2) {
      if (c2 == col) continue;
      if (shifts[row][c2] == kNoEdge || shifts[r2][c2] == kNoEdge) continue;
      const int d1 = (cand - shifts[row][c2] + kWifiCirculant) % kWifiCirculant;
      const int d2 = (shifts[r2][col] - shifts[r2][c2] + kWifiCirculant) % kWifiCirculant;
      if (d1 == d2) return true;
    }
  }
  return false;
}

}  // namespace

ParityMatrix make_wifi_style_matrix(Rate rate, std::uint64_t seed) {
  const int mb = parity_block_rows(rate);  // block rows
  const int kb = kBlockCols - mb;          // information block columns
  const int Z = kWifiCirculant;

  // Base matrix of circulant shifts; kNoEdge = zero block.
  std::vector<std::vector<int>> shifts(mb, std::vector<int>(kBlockCols, kNoEdge));

  // Parity part (last mb block-columns): 802.11n-style dual diagonal.
  // Column kb has entries in rows 0, mb/2 and mb-1 (the "accumulator
  // anchor"); column kb+j (j>=1) has the double diagonal at rows j-1, j.
  shifts[0][kb] = 1;
  shifts[mb / 2][kb] = 0;
  shifts[mb - 1][kb] = 1;
  for (int j = 1; j < mb; ++j) {
    shifts[j - 1][kb + j] = 0;
    shifts[j][kb + j] = 0;
  }

  // Information part: column weight 3 for most columns, 4 for the first
  // two (mild irregularity improves the waterfall), rows chosen evenly,
  // shifts random with 4-cycle avoidance.
  util::Xoshiro256 rng(seed ^ (static_cast<std::uint64_t>(mb) << 32));
  std::vector<int> row_load(mb, 0);
  for (int c = 0; c < kb; ++c) {
    const int weight = (c < 2) ? std::min(4, mb) : std::min(3, mb);
    for (int w = 0; w < weight; ++w) {
      // Pick the least-loaded row without an entry in this column.
      int best_row = -1;
      for (int pass = 0; pass < 2 && best_row < 0; ++pass) {
        int best_load = 1 << 30;
        for (int r = 0; r < mb; ++r) {
          if (shifts[r][c] != kNoEdge) continue;
          // Add tie-break jitter so construction is not row-ordered.
          const int load = row_load[r] * 8 + static_cast<int>(rng.next_below(8));
          if (load < best_load) {
            best_load = load;
            best_row = r;
          }
        }
      }
      if (best_row < 0) break;
      int shift = static_cast<int>(rng.next_below(Z));
      int tries = 0;
      while (creates_4cycle(shifts, best_row, c, shift) && tries < 4 * Z) {
        shift = (shift + 1) % Z;
        ++tries;
      }
      shifts[best_row][c] = shift;
      ++row_load[best_row];
    }
  }

  // Expand circulants into the bit-level matrix.
  ParityMatrix H(mb * Z, kBlockCols * Z);
  for (int br = 0; br < mb; ++br)
    for (int bc = 0; bc < kBlockCols; ++bc) {
      const int s = shifts[br][bc];
      if (s == kNoEdge) continue;
      for (int z = 0; z < Z; ++z)
        H.add_edge(br * Z + z, bc * Z + (z + s) % Z);
    }
  return H;
}

}  // namespace spinal::ldpc
