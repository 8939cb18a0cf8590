#include "spinal/spine.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "util/prng.h"

namespace spinal {
namespace {

CodeParams small_params() {
  CodeParams p;
  p.n = 32;
  p.k = 4;
  return p;
}

TEST(Spine, LengthIsNOverK) {
  const CodeParams p = small_params();
  const hash::SpineHash h(p.hash_kind, p.salt);
  util::Xoshiro256 prng(1);
  const auto spine = compute_spine(p, h, prng.random_bits(p.n));
  EXPECT_EQ(spine.size(), 8u);
}

TEST(Spine, RoundsUpWhenKDoesNotDivideN) {
  CodeParams p;
  p.n = 256;
  p.k = 3;  // 256 = 85*3 + 1
  EXPECT_EQ(p.spine_length(), 86);
  EXPECT_EQ(p.chunk_bits(84), 3);
  EXPECT_EQ(p.chunk_bits(85), 1);
  const hash::SpineHash h(p.hash_kind, p.salt);
  util::Xoshiro256 prng(2);
  EXPECT_EQ(compute_spine(p, h, prng.random_bits(p.n)).size(), 86u);
}

TEST(Spine, RejectsWrongMessageLength) {
  const CodeParams p = small_params();
  const hash::SpineHash h(p.hash_kind, p.salt);
  EXPECT_THROW(compute_spine(p, h, util::BitVec(p.n + 1)), std::invalid_argument);
}

TEST(Spine, SequentialStructureSharedPrefix) {
  // Messages sharing a prefix share the spine up to (and only up to) the
  // chunk where they diverge — the property §4.2's tree search exploits.
  const CodeParams p = small_params();
  const hash::SpineHash h(p.hash_kind, p.salt);
  util::Xoshiro256 prng(3);
  util::BitVec a = prng.random_bits(p.n);
  util::BitVec b = a;
  b.set(17, !b.get(17));  // differs in chunk 4 (bits 16..19)

  const auto sa = compute_spine(p, h, a);
  const auto sb = compute_spine(p, h, b);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(sa[i], sb[i]) << i;
  for (int i = 4; i < 8; ++i) EXPECT_NE(sa[i], sb[i]) << i;
}

TEST(Spine, InitialValueChangesWholeSpine) {
  CodeParams p = small_params();
  const hash::SpineHash h(p.hash_kind, p.salt);
  util::Xoshiro256 prng(4);
  const util::BitVec msg = prng.random_bits(p.n);
  const auto s1 = compute_spine(p, h, msg);
  p.s0 = 0xDEADBEEF;
  const auto s2 = compute_spine(p, h, msg);
  for (std::size_t i = 0; i < s1.size(); ++i) EXPECT_NE(s1[i], s2[i]) << i;
}

TEST(Spine, DependsOnEveryChunkBeforeIt) {
  // Flipping any bit changes every subsequent spine value ("constraint
  // length goes all the way back to the start", §3.1).
  const CodeParams p = small_params();
  const hash::SpineHash h(p.hash_kind, p.salt);
  util::Xoshiro256 prng(5);
  const util::BitVec base = prng.random_bits(p.n);
  const auto s_base = compute_spine(p, h, base);
  for (int bit = 0; bit < p.n; bit += 5) {
    util::BitVec m = base;
    m.set(bit, !m.get(bit));
    const auto s = compute_spine(p, h, m);
    const int chunk = bit / p.k;
    for (int i = chunk; i < 8; ++i) EXPECT_NE(s[i], s_base[i]) << bit << ":" << i;
  }
}

TEST(Spine, AllHashKindsProduceValidSpines) {
  for (auto kind : {hash::Kind::kOneAtATime, hash::Kind::kLookup3, hash::Kind::kSalsa20}) {
    CodeParams p = small_params();
    p.hash_kind = kind;
    const hash::SpineHash h(kind, p.salt);
    util::Xoshiro256 prng(6);
    const auto spine = compute_spine(p, h, prng.random_bits(p.n));
    // No repeated consecutive states (would signal a broken update).
    for (std::size_t i = 1; i < spine.size(); ++i) EXPECT_NE(spine[i], spine[i - 1]);
  }
}

}  // namespace
}  // namespace spinal
