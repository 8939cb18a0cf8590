#include "spinal/encoder.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/prng.h"

namespace spinal {
namespace {

CodeParams default_small() {
  CodeParams p;
  p.n = 64;
  p.k = 4;
  p.c = 6;
  return p;
}

TEST(Encoder, RejectsWrongMessageSize) {
  const CodeParams p = default_small();
  EXPECT_THROW(SpinalEncoder(p, util::BitVec(p.n - 1)), std::invalid_argument);
}

TEST(Encoder, DeterministicSymbols) {
  const CodeParams p = default_small();
  util::Xoshiro256 prng(1);
  const util::BitVec msg = prng.random_bits(p.n);
  const SpinalEncoder e1(p, msg), e2(p, msg);
  for (int i = 0; i < p.spine_length(); ++i)
    for (int j = 0; j < 4; ++j)
      EXPECT_EQ(e1.symbol({i, j}), e2.symbol({i, j}));
}

TEST(Encoder, RatelessPrefixProperty) {
  // The symbols at any rate are a prefix of the symbols at lower rates:
  // asking for more passes never changes earlier symbols (§3: "The
  // sequence of coded bits or symbols generated at a higher code rate is
  // a prefix of that generated at all lower code rates").
  const CodeParams p = default_small();
  util::Xoshiro256 prng(2);
  const SpinalEncoder enc(p, prng.random_bits(p.n));
  const PuncturingSchedule sched(p);

  const auto short_run = sched.prefix(20);
  const auto long_run = sched.prefix(100);
  for (std::size_t i = 0; i < short_run.size(); ++i) {
    EXPECT_EQ(short_run[i], long_run[i]);
    EXPECT_EQ(enc.symbol(short_run[i]), enc.symbol(long_run[i]));
  }
}

TEST(Encoder, MessagesDivergeAfterDifferingBit) {
  // §3: "two input messages differing in even a single bit result in
  // independent, seemingly random symbols after the point at which they
  // differ".
  const CodeParams p = default_small();
  util::Xoshiro256 prng(3);
  util::BitVec a = prng.random_bits(p.n);
  util::BitVec b = a;
  const int flip_bit = 24;  // chunk 6
  b.set(flip_bit, !b.get(flip_bit));

  const SpinalEncoder ea(p, a), eb(p, b);
  const int diverge_chunk = flip_bit / p.k;
  int same_after = 0, total_after = 0;
  for (int i = 0; i < p.spine_length(); ++i) {
    for (int j = 0; j < 8; ++j) {
      const bool equal = ea.symbol({i, j}) == eb.symbol({i, j});
      if (i < diverge_chunk) {
        EXPECT_TRUE(equal) << "prefix symbol changed at spine " << i;
      } else {
        ++total_after;
        same_after += equal;
      }
    }
  }
  // Symbols after divergence collide only by chance (64^2 grid per dim).
  EXPECT_LT(same_after, total_after / 16);
}

TEST(Encoder, SymbolPowerNearP) {
  CodeParams p = default_small();
  p.n = 1024;
  util::Xoshiro256 prng(4);
  const SpinalEncoder enc(p, prng.random_bits(p.n));
  double power = 0;
  int count = 0;
  for (int i = 0; i < p.spine_length(); ++i)
    for (int j = 0; j < 8; ++j) {
      power += std::norm(enc.symbol({i, j}));
      ++count;
    }
  EXPECT_NEAR(power / count, p.power, 0.05);
}

TEST(Encoder, GaussianMapSymbolsBounded) {
  CodeParams p = default_small();
  p.map = modem::MapKind::kTruncatedGaussian;
  p.beta = 2.0;
  util::Xoshiro256 prng(5);
  const SpinalEncoder enc(p, prng.random_bits(p.n));
  const float bound = enc.constellation().max_amplitude();
  for (int i = 0; i < p.spine_length(); ++i)
    for (int j = 0; j < 16; ++j) {
      const auto s = enc.symbol({i, j});
      EXPECT_LE(std::abs(s.real()), bound + 1e-6);
      EXPECT_LE(std::abs(s.imag()), bound + 1e-6);
    }
}

TEST(Encoder, EncodeSubpassMatchesSymbolLookup) {
  const CodeParams p = default_small();
  util::Xoshiro256 prng(6);
  const SpinalEncoder enc(p, prng.random_bits(p.n));
  std::vector<SymbolId> ids;
  std::vector<std::complex<float>> symbols;
  enc.encode_subpass(0, ids, symbols);
  ASSERT_EQ(ids.size(), symbols.size());
  for (std::size_t i = 0; i < ids.size(); ++i)
    EXPECT_EQ(symbols[i], enc.symbol(ids[i]));
}

TEST(BscEncoder, ProducesBits) {
  CodeParams p = default_small();
  p.c = 1;
  util::Xoshiro256 prng(7);
  const BscSpinalEncoder enc(p, prng.random_bits(p.n));
  int ones = 0, total = 0;
  for (int i = 0; i < p.spine_length(); ++i)
    for (int j = 0; j < 32; ++j) {
      const auto b = enc.symbol({i, j});
      EXPECT_LE(b, 1);
      ones += b;
      ++total;
    }
  // Coded bits should be roughly balanced (hash-RNG output).
  EXPECT_NEAR(static_cast<double>(ones) / total, 0.5, 0.08);
}

TEST(Encoder, DifferentSaltsDifferentCodewords) {
  CodeParams p1 = default_small(), p2 = default_small();
  p2.salt = p1.salt + 1;
  util::Xoshiro256 prng(8);
  const util::BitVec msg = prng.random_bits(p1.n);
  const SpinalEncoder e1(p1, msg), e2(p2, msg);
  int same = 0;
  for (int i = 0; i < p1.spine_length(); ++i) same += (e1.symbol({i, 0}) == e2.symbol({i, 0}));
  EXPECT_LE(same, 1);
}

}  // namespace
}  // namespace spinal
