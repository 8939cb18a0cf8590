#include "hash/spine_hash.h"

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <vector>

#include "backend/backend.h"
#include "hash/jenkins.h"
#include "hash/salsa20.h"

namespace spinal::hash {
namespace {

TEST(Jenkins, OneAtATimeKnownVector) {
  // Jenkins' published example: one-at-a-time("a", seed 0) with the
  // canonical finalisation = 0xCA2E9442.
  const std::uint8_t key[] = {'a'};
  EXPECT_EQ(one_at_a_time(key, 1, 0), 0xCA2E9442u);
}

TEST(Jenkins, OneAtATimeWordMatchesByteVersion) {
  for (std::uint32_t word : {0u, 1u, 0xDEADBEEFu, 0x12345678u}) {
    std::uint8_t bytes[4];
    for (int i = 0; i < 4; ++i) bytes[i] = (word >> (8 * i)) & 0xFF;
    EXPECT_EQ(one_at_a_time(bytes, 4, 99u), one_at_a_time_word(99u, word));
  }
}

TEST(Jenkins, Lookup3Deterministic) {
  EXPECT_EQ(lookup3_pair(1, 2, 3), lookup3_pair(1, 2, 3));
  EXPECT_NE(lookup3_pair(1, 2, 3), lookup3_pair(1, 2, 4));
  EXPECT_NE(lookup3_pair(1, 2, 3), lookup3_pair(2, 1, 3));
}

TEST(Salsa20, CoreChangesInput) {
  std::uint32_t in[16] = {};
  std::uint32_t out[16];
  salsa20_core(in, out);
  // All-zero input is a fixed point of the permutation, out = perm + in = 0.
  for (int i = 0; i < 16; ++i) EXPECT_EQ(out[i], 0u);

  in[0] = 1;
  salsa20_core(in, out);
  int nonzero = 0;
  for (int i = 0; i < 16; ++i) nonzero += (out[i] != 0);
  EXPECT_GE(nonzero, 14);  // avalanche from one bit
}

TEST(Salsa20, PairHashSensitiveToAllInputs) {
  const std::uint32_t base = salsa20_pair(10, 20, 30);
  EXPECT_NE(base, salsa20_pair(11, 20, 30));
  EXPECT_NE(base, salsa20_pair(10, 21, 30));
  EXPECT_NE(base, salsa20_pair(10, 20, 31));
}

class SpineHashAllKinds : public ::testing::TestWithParam<Kind> {};

INSTANTIATE_TEST_SUITE_P(AllKinds, SpineHashAllKinds,
                         ::testing::Values(Kind::kOneAtATime, Kind::kLookup3,
                                           Kind::kSalsa20),
                         [](const auto& info) {
                           std::string name = kind_name(info.param);
                           std::erase(name, '-');
                           return name;
                         });

TEST_P(SpineHashAllKinds, Deterministic) {
  const SpineHash h(GetParam(), 42);
  EXPECT_EQ(h(1, 2), h(1, 2));
  EXPECT_EQ(h.rng(7, 3), h.rng(7, 3));
}

TEST_P(SpineHashAllKinds, SaltSelectsDifferentFunction) {
  const SpineHash h1(GetParam(), 1), h2(GetParam(), 2);
  int same = 0;
  for (std::uint32_t i = 0; i < 64; ++i) same += (h1(i, i * 3) == h2(i, i * 3));
  EXPECT_LE(same, 1);
}

TEST_P(SpineHashAllKinds, SingleBitInputAvalanche) {
  // Flipping one input bit should flip ~16 of 32 output bits on average.
  const SpineHash h(GetParam(), 7);
  double total_flips = 0;
  int cases = 0;
  for (std::uint32_t s = 0; s < 32; ++s) {
    for (int bit = 0; bit < 8; ++bit) {
      const std::uint32_t a = h(s * 2654435761u, 0x5A);
      const std::uint32_t b = h(s * 2654435761u, 0x5A ^ (1u << bit));
      total_flips += __builtin_popcount(a ^ b);
      ++cases;
    }
  }
  const double avg = total_flips / cases;
  EXPECT_GT(avg, 12.0);
  EXPECT_LT(avg, 20.0);
}

TEST_P(SpineHashAllKinds, OutputBitsUnbiased) {
  const SpineHash h(GetParam(), 3);
  std::array<int, 32> ones{};
  const int n = 4096;
  for (int i = 0; i < n; ++i) {
    const std::uint32_t v = h(static_cast<std::uint32_t>(i), 0xAB);
    for (int b = 0; b < 32; ++b) ones[b] += (v >> b) & 1;
  }
  for (int b = 0; b < 32; ++b) {
    EXPECT_GT(ones[b], n / 2 - 300) << "bit " << b;
    EXPECT_LT(ones[b], n / 2 + 300) << "bit " << b;
  }
}

TEST_P(SpineHashAllKinds, FewCollisionsOnSequentialInputs) {
  const SpineHash h(GetParam(), 11);
  std::set<std::uint32_t> outputs;
  const int n = 1 << 16;
  for (int i = 0; i < n; ++i) outputs.insert(h(static_cast<std::uint32_t>(i), 0));
  // Birthday bound: expected collisions ~ n^2 / 2^33 ~ 0.5.
  EXPECT_GE(static_cast<int>(outputs.size()), n - 8);
}

TEST_P(SpineHashAllKinds, RngIsDomainSeparatedFromHash) {
  const SpineHash h(GetParam(), 5);
  // rng(s, t) should not systematically equal h(s, t).
  int same = 0;
  for (std::uint32_t t = 0; t < 64; ++t) same += (h.rng(123, t) == h(123, t));
  EXPECT_LE(same, 1);
}

// The batched kernels live in the backend table: every available
// backend (the portable scalar one included) must equal looping
// SpineHash::operator().

std::vector<const backend::Backend*> kernel_tables() {
  std::vector<const backend::Backend*> tables = backend::available();
  EXPECT_NE(backend::find("scalar"), nullptr);
  EXPECT_EQ(tables.front(), backend::find("scalar"));
  return tables;
}

TEST_P(SpineHashAllKinds, HashNMatchesLoopedSingleShot) {
  const SpineHash h(GetParam(), 17);
  for (const backend::Backend* b : kernel_tables()) {
    // Sizes straddling the internal blocking (0, 1, partial, full, >block).
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                          std::size_t{256}, std::size_t{300}}) {
      std::vector<std::uint32_t> states(n), got(n);
      for (std::size_t i = 0; i < n; ++i)
        states[i] = static_cast<std::uint32_t>(i) * 2654435761u + 99u;
      for (std::uint32_t data : {0u, 5u, 0x80000003u}) {
        b->hash_n(h.kind(), h.salt(), states.data(), n, data, got.data());
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(got[i], h(states[i], data)) << b->name << " n=" << n << " i=" << i;
      }
      // The RNG draws of §7.1 are hash_n over the domain-separated index.
      b->hash_n(h.kind(), h.salt(), states.data(), n, 7u ^ 0x80000000u, got.data());
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(got[i], h.rng(states[i], 7u)) << b->name << " n=" << n;
    }
  }
}

TEST_P(SpineHashAllKinds, HashChildrenMatchesLoopedSingleShot) {
  const SpineHash h(GetParam(), 31);
  for (const backend::Backend* b : kernel_tables()) {
    for (std::size_t n : {std::size_t{1}, std::size_t{37}, std::size_t{260}}) {
      const std::uint32_t fanout = 16;
      std::vector<std::uint32_t> states(n), got(n * fanout);
      for (std::size_t i = 0; i < n; ++i)
        states[i] = static_cast<std::uint32_t>(i) * 40503u + 1u;
      b->hash_children(h.kind(), h.salt(), states.data(), n, fanout, got.data());
      for (std::size_t i = 0; i < n; ++i)
        for (std::uint32_t v = 0; v < fanout; ++v)
          ASSERT_EQ(got[i * fanout + v], h(states[i], v))
              << b->name << " n=" << n << " v=" << v;
    }
  }
}

TEST_P(SpineHashAllKinds, PremixedHashingMatchesDirect) {
  const SpineHash h(GetParam(), 37);
  if (!h.has_premix()) return;  // factorisation only exists for one-at-a-time
  std::vector<std::uint32_t> states(100), premixed(100), got(100);
  for (std::size_t i = 0; i < states.size(); ++i)
    states[i] = static_cast<std::uint32_t>(i * 7919);
  for (const backend::Backend* b : kernel_tables()) {
    b->premix_n(h.salt(), states.data(), states.size(), premixed.data());
    for (std::uint32_t data : {0u, 42u, 0x80000001u, 9u ^ 0x80000000u}) {
      b->hash_premixed_n(premixed.data(), states.size(), data, got.data());
      for (std::size_t i = 0; i < states.size(); ++i)
        ASSERT_EQ(got[i], h(states[i], data)) << b->name << " data=" << data;
    }
  }
}

TEST(SpineHash, OnlyOneAtATimeHasPremix) {
  EXPECT_TRUE(SpineHash(Kind::kOneAtATime, 1).has_premix());
  EXPECT_FALSE(SpineHash(Kind::kLookup3, 1).has_premix());
  EXPECT_FALSE(SpineHash(Kind::kSalsa20, 1).has_premix());
}

TEST(SpineHash, KindNames) {
  EXPECT_EQ(kind_name(Kind::kOneAtATime), "one-at-a-time");
  EXPECT_EQ(kind_name(Kind::kLookup3), "lookup3");
  EXPECT_EQ(kind_name(Kind::kSalsa20), "salsa20");
}

}  // namespace
}  // namespace spinal::hash
