#include "spinal/schedule.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

namespace spinal {
namespace {

CodeParams params_with(int n, int k, int ways, int tail) {
  CodeParams p;
  p.n = n;
  p.k = k;
  p.puncture_ways = ways;
  p.tail_symbols = tail;
  return p;
}

TEST(Schedule, StridedOrderIsReversedBitReversal) {
  // Residue ways-1 first (covers the last spine value immediately), then
  // maximally-spread coverage of the rest.
  EXPECT_EQ(PuncturingSchedule::strided_order(1), (std::vector<int>{0}));
  EXPECT_EQ(PuncturingSchedule::strided_order(2), (std::vector<int>{1, 0}));
  EXPECT_EQ(PuncturingSchedule::strided_order(4), (std::vector<int>{3, 1, 2, 0}));
  EXPECT_EQ(PuncturingSchedule::strided_order(8),
            (std::vector<int>{7, 3, 5, 1, 6, 2, 4, 0}));
}

TEST(Schedule, SubpassResiduesFollowStridedOrder) {
  // subpass() reads residues from a precomputed table; it must agree
  // with the generator for every legal puncture_ways, in every pass.
  for (int ways : {1, 2, 4, 8}) {
    const std::vector<int> order = PuncturingSchedule::strided_order(ways);
    const PuncturingSchedule s(params_with(256, 4, ways, 0));
    for (int sp = 0; sp < 2 * ways; ++sp)
      EXPECT_EQ(s.subpass(sp).front().spine_index,
                order[static_cast<std::size_t>(sp % ways)])
          << "ways=" << ways << " sp=" << sp;
  }
  EXPECT_THROW(PuncturingSchedule(params_with(64, 4, 3, 0)), std::invalid_argument);
}

TEST(Schedule, LastSpineValueObservedInFirstSubpass) {
  // Without end-of-spine observations the final chunk is a 2^k-way tie,
  // so the schedule must deliver the last spine value (or its tails)
  // before the first decode attempt.
  for (int ways : {1, 2, 4, 8}) {
    const CodeParams p = params_with(256, 4, ways, 0);
    const PuncturingSchedule s(p);
    bool found = false;
    for (const auto& id : s.subpass(0)) found |= (id.spine_index == 63);
    EXPECT_TRUE(found) << "ways=" << ways;
  }
}

TEST(Schedule, UnpuncturedPassCoversEverySpineValueOnce) {
  const CodeParams p = params_with(64, 4, 1, 0);  // 16 spine values
  const PuncturingSchedule s(p);
  const auto pass = s.subpass(0);
  ASSERT_EQ(pass.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(pass[i].spine_index, i);
    EXPECT_EQ(pass[i].ordinal, 0);
  }
}

TEST(Schedule, EightWayPassPartitionsSpine) {
  const CodeParams p = params_with(256, 4, 8, 0);  // 64 spine values
  const PuncturingSchedule s(p);
  std::set<int> seen;
  for (int sub = 0; sub < 8; ++sub) {
    const auto ids = s.subpass(sub);
    EXPECT_EQ(ids.size(), 8u) << sub;  // 64/8 per subpass (Fig 8-11)
    for (const auto& id : ids) {
      EXPECT_TRUE(seen.insert(id.spine_index).second)
          << "duplicate spine " << id.spine_index;
      EXPECT_EQ(id.ordinal, 0);
    }
  }
  EXPECT_EQ(seen.size(), 64u);
}

TEST(Schedule, OrdinalsAdvancePerPass) {
  const CodeParams p = params_with(64, 4, 2, 0);
  const PuncturingSchedule s(p);
  // Pass 1 = subpasses 2 and 3; every non-last spine value at ordinal 1.
  for (int sub = 2; sub < 4; ++sub) {
    for (const auto& id : s.subpass(sub)) {
      if (id.spine_index != 15) {
        EXPECT_EQ(id.ordinal, 1);
      }
    }
  }
}

TEST(Schedule, TailSymbolsRideFirstSubpassOfEachPass) {
  const CodeParams p = params_with(64, 4, 8, 2);
  const PuncturingSchedule s(p);
  // Subpass 0 carries residue 7 (spine indices 7, 15) plus 2 tails.
  const auto sub0 = s.subpass(0);
  ASSERT_EQ(sub0.size(), 4u);
  EXPECT_EQ(sub0[0].spine_index, 7);
  EXPECT_EQ(sub0[1].spine_index, 15);
  EXPECT_EQ(sub0[1].ordinal, 0);
  EXPECT_EQ(sub0[2].spine_index, 15);
  EXPECT_EQ(sub0[2].ordinal, 1);
  EXPECT_EQ(sub0[3].spine_index, 15);
  EXPECT_EQ(sub0[3].ordinal, 2);
  // No tail symbols elsewhere in the pass.
  for (int sub = 1; sub < 8; ++sub) {
    for (const auto& id : s.subpass(sub)) EXPECT_NE(id.spine_index, 15) << sub;
  }
  // Second pass: ordinals continue (strided = 3, tails = 4, 5).
  const auto pass1_sub0 = s.subpass(8);
  ASSERT_EQ(pass1_sub0.size(), 4u);
  EXPECT_EQ(pass1_sub0[1].ordinal, 3);
  EXPECT_EQ(pass1_sub0[2].ordinal, 4);
  EXPECT_EQ(pass1_sub0[3].ordinal, 5);
}

TEST(Schedule, NoSymbolIdRepeatsAcrossPasses) {
  const CodeParams p = params_with(32, 4, 4, 2);
  const PuncturingSchedule s(p);
  std::set<std::pair<int, int>> seen;
  for (int sub = 0; sub < 4 * 5; ++sub) {  // five passes
    for (const auto& id : s.subpass(sub)) {
      EXPECT_TRUE(seen.insert({id.spine_index, id.ordinal}).second)
          << "duplicate (" << id.spine_index << "," << id.ordinal << ")";
    }
  }
}

TEST(Schedule, SymbolsPerPassMatchesParams) {
  for (int tail : {0, 1, 2, 5}) {
    const CodeParams p = params_with(256, 4, 8, tail);
    const PuncturingSchedule s(p);
    std::size_t count = 0;
    for (int sub = 0; sub < 8; ++sub) count += s.subpass(sub).size();
    EXPECT_EQ(count, static_cast<std::size_t>(64 + tail));
    EXPECT_EQ(s.symbols_per_pass(), 64 + tail);
  }
}

TEST(Schedule, SubpassAppendsWithinTheBound) {
  // The buffer form appends to caller storage (the value form wraps
  // it), and no subpass outgrows max_subpass_symbols().
  for (int n : {4, 8, 60, 256})
    for (int ways : {1, 2, 4, 8})
      for (int tail : {0, 2}) {
        const PuncturingSchedule s(params_with(n, 4, ways, tail));
        std::vector<SymbolId> buf{{-1, -1}};
        for (int sp = 0; sp < 2 * ways; ++sp) {
          const auto ids = s.subpass(sp);
          EXPECT_LE(ids.size(), static_cast<std::size_t>(s.max_subpass_symbols()));
          buf.resize(1);
          s.subpass(sp, buf);
          ASSERT_EQ(buf.size(), ids.size() + 1);
          EXPECT_TRUE(std::equal(ids.begin(), ids.end(), buf.begin() + 1));
        }
      }
}

TEST(Schedule, PrefixFlattensInOrder) {
  const CodeParams p = params_with(64, 4, 2, 1);
  const PuncturingSchedule s(p);
  const auto first = s.subpass(0);
  const auto prefix = s.prefix(static_cast<int>(first.size()) + 3);
  ASSERT_EQ(prefix.size(), first.size() + 3);
  for (std::size_t i = 0; i < first.size(); ++i) EXPECT_EQ(prefix[i], first[i]);
  EXPECT_EQ(prefix.back().spine_index, s.subpass(1)[2].spine_index);
}

TEST(Schedule, ShortSpineDeepPuncturingHasEmptySubpasses) {
  const CodeParams p = params_with(16, 4, 8, 0);  // 4 spine values, 8-way
  const PuncturingSchedule s(p);
  int nonempty = 0, total = 0;
  for (int sub = 0; sub < 8; ++sub) {
    total += static_cast<int>(s.subpass(sub).size());
    nonempty += !s.subpass(sub).empty();
  }
  EXPECT_EQ(total, 4);
  EXPECT_EQ(nonempty, 4);
}

TEST(Schedule, MaxRateIs8kWithAggressiveDecoding) {
  // After one 8-way subpass of n=256, k=4: 8 symbols carry 256 bits ->
  // nominal 8k = 32 bits/symbol (§5: "nominally permits rates as high
  // as 8k bits per symbol").
  const CodeParams p = params_with(256, 4, 8, 0);
  const PuncturingSchedule s(p);
  const auto sub0 = s.subpass(0);
  EXPECT_EQ(static_cast<double>(p.n) / sub0.size(), 8.0 * p.k);
}

}  // namespace
}  // namespace spinal
