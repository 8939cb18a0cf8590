// Golden equivalence: the batched SoA decode kernel (decode / decode_into)
// must produce *identical* results — message bits and exact path-cost
// bits — to the retained per-node scalar reference (decode_reference)
// across every hash kind, both channels, CSI, puncturing, fixed-point
// mode and bubble depths — under EVERY kernel backend the machine
// offers (scalar / SSE4.2 / AVX2 / NEON). The reference env computes
// per-node child() + node_cost() with plain scalar calls, so this suite
// is the conformance oracle for the whole backend layer: any lane,
// reduction-order or rounding divergence in a SIMD kernel shows up as a
// message or exact-float-cost mismatch here.

#include "spinal/decoder.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "backend/backend.h"
#include "channel/awgn.h"
#include "channel/bsc.h"
#include "channel/rayleigh.h"
#include "spinal/cost_model.h"
#include "spinal/encoder.h"
#include "util/prng.h"

namespace spinal {
namespace {

CodeParams base_params(hash::Kind kind) {
  CodeParams p;
  p.n = 64;
  p.k = 4;
  p.B = 16;  // small beam: pruning and near-ties exercised
  p.d = 1;
  p.hash_kind = kind;
  return p;
}

/// Pins backend::active() to @p name for one test body, restoring the
/// previous backend on scope exit.
class ScopedBackend {
 public:
  explicit ScopedBackend(const char* name) : prev_(backend::active().name) {
    EXPECT_TRUE(backend::force(name)) << name;
  }
  ~ScopedBackend() { backend::force(prev_); }

 private:
  const char* prev_;
};

void expect_identical(const SpinalDecoder& dec, const char* label) {
  const DecodeResult batched = dec.decode();
  // The per-node f32 reference is only the oracle when the decode
  // actually runs the float path. Under a narrow-precision override
  // (SPINAL_COST_PRECISION=u16 on the CI quantized lane) the oracle is
  // cross-backend bit identity instead — the QuantGolden matrix below —
  // so the f32 comparison is skipped, not failed.
  if (dec.active_precision() == CostPrecision::kFloat32) {
    const DecodeResult reference = dec.decode_reference();
    EXPECT_EQ(batched.message, reference.message) << label;
    EXPECT_EQ(batched.path_cost, reference.path_cost) << label;  // exact bits
  }

  DecodeResult into;
  dec.decode_into(into);
  EXPECT_EQ(into.message, batched.message) << label;
  EXPECT_EQ(into.path_cost, batched.path_cost) << label;
}

void expect_identical(const BscSpinalDecoder& dec, const char* label) {
  const DecodeResult batched = dec.decode();
  const DecodeResult reference = dec.decode_reference();
  EXPECT_EQ(batched.message, reference.message) << label;
  EXPECT_EQ(batched.path_cost, reference.path_cost) << label;

  DecodeResult into;
  dec.decode_into(into);
  EXPECT_EQ(into.message, batched.message) << label;
  EXPECT_EQ(into.path_cost, batched.path_cost) << label;
}

/// hash kind × every backend in backend::available().
class GoldenAllKinds
    : public ::testing::TestWithParam<std::tuple<hash::Kind, const backend::Backend*>> {
 public:
  hash::Kind kind() const { return std::get<0>(GetParam()); }
  const char* backend_name() const { return std::get<1>(GetParam())->name; }
};

INSTANTIATE_TEST_SUITE_P(
    AllKindsAllBackends, GoldenAllKinds,
    ::testing::Combine(::testing::Values(hash::Kind::kOneAtATime,
                                         hash::Kind::kLookup3,
                                         hash::Kind::kSalsa20),
                       ::testing::ValuesIn(backend::available())),
    [](const auto& info) {
      std::string name = hash::kind_name(std::get<0>(info.param));
      std::erase(name, '-');
      return name + "_" + std::get<1>(info.param)->name;
    });

TEST_P(GoldenAllKinds, AwgnMatchesScalarReference) {
  const ScopedBackend scoped(backend_name());
  const CodeParams p = base_params(kind());
  util::Xoshiro256 prng(21);
  const SpinalEncoder enc(p, prng.random_bits(p.n));
  SpinalDecoder dec(p);
  channel::AwgnChannel ch(6.0, 121);  // marginal SNR: wrong paths stay live
  const PuncturingSchedule sched(p);
  for (int sp = 0; sp < 3 * sched.subpasses_per_pass(); ++sp)
    for (const SymbolId& id : sched.subpass(sp))
      dec.add_symbol(id, ch.transmit(enc.symbol(id)));
  expect_identical(dec, "awgn");
}

TEST_P(GoldenAllKinds, AwgnCsiMatchesScalarReference) {
  const ScopedBackend scoped(backend_name());
  const CodeParams p = base_params(kind());
  util::Xoshiro256 prng(22);
  const SpinalEncoder enc(p, prng.random_bits(p.n));
  SpinalDecoder dec(p);
  channel::RayleighChannel ch(10.0, 8, 122);
  const PuncturingSchedule sched(p);
  for (int sp = 0; sp < 2 * sched.subpasses_per_pass(); ++sp) {
    const auto ids = sched.subpass(sp);
    std::vector<std::complex<float>> x;
    for (const auto& id : ids) x.push_back(enc.symbol(id));
    std::vector<std::complex<float>> csi;
    ch.apply(x, csi);
    for (std::size_t i = 0; i < ids.size(); ++i) dec.add_symbol(ids[i], x[i], csi[i]);
  }
  expect_identical(dec, "awgn-csi");
}

TEST_P(GoldenAllKinds, AwgnFixedPointMatchesScalarReference) {
  const ScopedBackend scoped(backend_name());
  CodeParams p = base_params(kind());
  p.fixed_point_frac_bits = 6;
  util::Xoshiro256 prng(23);
  const SpinalEncoder enc(p, prng.random_bits(p.n));
  SpinalDecoder dec(p);
  channel::AwgnChannel ch(8.0, 123);
  const PuncturingSchedule sched(p);
  for (int sp = 0; sp < 2 * sched.subpasses_per_pass(); ++sp)
    for (const SymbolId& id : sched.subpass(sp))
      dec.add_symbol(id, ch.transmit(enc.symbol(id)));
  expect_identical(dec, "awgn-fx");
}

TEST_P(GoldenAllKinds, AwgnCsiFixedPointMatchesScalarReference) {
  const ScopedBackend scoped(backend_name());
  // CSI + fixed point: quantisation cannot be hoisted into the table, so
  // this pins the in-kernel h·x quantisation against the scalar one.
  CodeParams p = base_params(kind());
  p.fixed_point_frac_bits = 6;
  util::Xoshiro256 prng(24);
  const SpinalEncoder enc(p, prng.random_bits(p.n));
  SpinalDecoder dec(p);
  channel::RayleighChannel ch(12.0, 8, 124);
  const PuncturingSchedule sched(p);
  for (int sp = 0; sp < 2 * sched.subpasses_per_pass(); ++sp) {
    const auto ids = sched.subpass(sp);
    std::vector<std::complex<float>> x;
    for (const auto& id : ids) x.push_back(enc.symbol(id));
    std::vector<std::complex<float>> csi;
    ch.apply(x, csi);
    for (std::size_t i = 0; i < ids.size(); ++i) dec.add_symbol(ids[i], x[i], csi[i]);
  }
  expect_identical(dec, "awgn-csi-fx");
}

TEST_P(GoldenAllKinds, PuncturedPrefixMatchesScalarReference) {
  const ScopedBackend scoped(backend_name());
  // Half a pass: some spine values have zero received symbols, so the
  // batched kernel's empty-spine early-out is on the decode path, and
  // those levels end right after their seed block (every child costs
  // its parent).
  CodeParams p = base_params(kind());
  p.B = 64;
  {
    util::Xoshiro256 prng(25);
    const SpinalEncoder enc(p, prng.random_bits(p.n));
    SpinalDecoder dec(p);
    channel::AwgnChannel ch(20.0, 125);
    const PuncturingSchedule sched(p);
    for (int sp = 0; sp < 4; ++sp)
      for (const SymbolId& id : sched.subpass(sp))
        dec.add_symbol(id, ch.transmit(enc.symbol(id)));
    expect_identical(dec, "awgn-punctured");
  }
  // The BSC metric over the same half pass, at every attempt point:
  // integer costs also tie across the whole beam.
  p.c = 1;
  util::Xoshiro256 prng(34);
  const BscSpinalEncoder enc(p, prng.random_bits(p.n));
  BscSpinalDecoder dec(p);
  channel::BscChannel ch(0.02, 134);
  const PuncturingSchedule sched(p);
  for (int sp = 0; sp < sched.subpasses_per_pass() / 2; ++sp) {
    for (const SymbolId& id : sched.subpass(sp)) dec.add_symbol(id, ch.transmit(enc.symbol(id)));
    expect_identical(dec, ("bsc-punctured sp=" + std::to_string(sp)).c_str());
  }
}

TEST_P(GoldenAllKinds, TinyBeamMatchesScalarReference) {
  const ScopedBackend scoped(backend_name());
  // B=2, the beam of many-small-session fleets: each level keeps two of
  // a few dozen candidates. Checked at every attempt point of two BSC
  // block lengths and of a punctured AWGN block.
  for (int n : {8, 64}) {
    CodeParams p = base_params(kind());
    p.n = n;
    p.B = 2;
    p.c = 1;
    util::Xoshiro256 prng(35);
    const BscSpinalEncoder enc(p, prng.random_bits(p.n));
    BscSpinalDecoder dec(p);
    channel::BscChannel ch(0.02, 135);
    const PuncturingSchedule sched(p);
    for (int sp = 0; sp < 4 * sched.subpasses_per_pass(); ++sp) {
      for (const SymbolId& id : sched.subpass(sp)) dec.add_symbol(id, ch.transmit(enc.symbol(id)));
      expect_identical(dec, ("bsc-b2 n=" + std::to_string(n) + " sp=" + std::to_string(sp)).c_str());
    }
  }
  CodeParams p = base_params(kind());
  p.B = 2;
  util::Xoshiro256 prng(36);
  const SpinalEncoder enc(p, prng.random_bits(p.n));
  SpinalDecoder dec(p);
  channel::AwgnChannel ch(10.0, 136);
  const PuncturingSchedule sched(p);
  for (int sp = 0; sp < 2 * sched.subpasses_per_pass(); ++sp) {
    for (const SymbolId& id : sched.subpass(sp))
      dec.add_symbol(id, ch.transmit(enc.symbol(id)));
    expect_identical(dec, ("awgn-b2 sp=" + std::to_string(sp)).c_str());
  }
}

TEST_P(GoldenAllKinds, BubbleD2MatchesScalarReference) {
  const ScopedBackend scoped(backend_name());
  // d=2: the streamed multi-leaf path — vectorized regroup_emit rows,
  // group-minimum pruning, entry-level cutoffs — against the per-node
  // reference, at a marginal SNR so near-ties cross the prune bound.
  CodeParams p = base_params(kind());
  p.n = 64;
  p.k = 4;
  p.B = 16;
  p.d = 2;
  util::Xoshiro256 prng(32);
  const SpinalEncoder enc(p, prng.random_bits(p.n));
  SpinalDecoder dec(p);
  channel::AwgnChannel ch(6.0, 132);
  const PuncturingSchedule sched(p);
  for (int sp = 0; sp < 3 * sched.subpasses_per_pass(); ++sp)
    for (const SymbolId& id : sched.subpass(sp))
      dec.add_symbol(id, ch.transmit(enc.symbol(id)));
  expect_identical(dec, "awgn-d2");
}

TEST_P(GoldenAllKinds, BscBubbleD2MatchesScalarReference) {
  const ScopedBackend scoped(backend_name());
  // The BSC metric through the streamed d>1 path: integer Hamming
  // costs tie constantly, so the deterministic tie-breaks inside the
  // pruned regroup are fully on the line.
  CodeParams p = base_params(kind());
  p.n = 48;
  p.k = 3;
  p.B = 8;
  p.d = 2;
  p.c = 1;
  util::Xoshiro256 prng(33);
  const BscSpinalEncoder enc(p, prng.random_bits(p.n));
  BscSpinalDecoder dec(p);
  channel::BscChannel ch(0.1, 133);
  const PuncturingSchedule sched(p);
  for (int sp = 0; sp < 10 * sched.subpasses_per_pass(); ++sp)
    for (const SymbolId& id : sched.subpass(sp)) dec.add_symbol(id, ch.transmit(enc.symbol(id)));
  expect_identical(dec, "bsc-d2");
}

TEST_P(GoldenAllKinds, DeepBubbleMatchesScalarReference) {
  const ScopedBackend scoped(backend_name());
  CodeParams p = base_params(kind());
  p.n = 60;
  p.k = 3;
  p.B = 8;
  p.d = 3;  // multi-leaf candidates: grouping + fill-order on the line
  util::Xoshiro256 prng(26);
  const SpinalEncoder enc(p, prng.random_bits(p.n));
  SpinalDecoder dec(p);
  channel::AwgnChannel ch(6.0, 126);
  const PuncturingSchedule sched(p);
  for (int sp = 0; sp < 2 * sched.subpasses_per_pass(); ++sp)
    for (const SymbolId& id : sched.subpass(sp))
      dec.add_symbol(id, ch.transmit(enc.symbol(id)));
  expect_identical(dec, "awgn-d3");
}

TEST_P(GoldenAllKinds, ShortFinalChunkMatchesScalarReference) {
  const ScopedBackend scoped(backend_name());
  CodeParams p = base_params(kind());
  p.n = 62;  // 15*4 + 2: final fanout is 4, not 16
  util::Xoshiro256 prng(27);
  const SpinalEncoder enc(p, prng.random_bits(p.n));
  SpinalDecoder dec(p);
  channel::AwgnChannel ch(10.0, 127);
  const PuncturingSchedule sched(p);
  for (int sp = 0; sp < 2 * sched.subpasses_per_pass(); ++sp)
    for (const SymbolId& id : sched.subpass(sp))
      dec.add_symbol(id, ch.transmit(enc.symbol(id)));
  expect_identical(dec, "awgn-short-chunk");
}

TEST_P(GoldenAllKinds, BscMatchesScalarReference) {
  const ScopedBackend scoped(backend_name());
  CodeParams p = base_params(kind());
  p.c = 1;
  util::Xoshiro256 prng(28);
  const BscSpinalEncoder enc(p, prng.random_bits(p.n));
  BscSpinalDecoder dec(p);
  channel::BscChannel ch(0.08, 128);
  const PuncturingSchedule sched(p);
  for (int sp = 0; sp < 8 * sched.subpasses_per_pass(); ++sp)
    for (const SymbolId& id : sched.subpass(sp)) dec.add_symbol(id, ch.transmit(enc.symbol(id)));
  expect_identical(dec, "bsc");
}

TEST_P(GoldenAllKinds, BscManyPassesMatchesScalarReference) {
  const ScopedBackend scoped(backend_name());
  // > 64 bits per spine value: the packed-word accumulator spans
  // multiple blocks, including a partial final block.
  CodeParams p = base_params(kind());
  p.c = 1;
  p.B = 8;
  p.n = 32;
  util::Xoshiro256 prng(29);
  const BscSpinalEncoder enc(p, prng.random_bits(p.n));
  BscSpinalDecoder dec(p);
  channel::BscChannel ch(0.2, 129);
  const PuncturingSchedule sched(p);
  for (int sp = 0; sp < 70 * sched.subpasses_per_pass(); ++sp)
    for (const SymbolId& id : sched.subpass(sp)) dec.add_symbol(id, ch.transmit(enc.symbol(id)));
  expect_identical(dec, "bsc-multiblock");
}

// ---- Quantized (narrow-metric) decode matrix. The integer path is
// only statistically equivalent to f32 (BLER-gated in
// test_properties), so the golden contract here is *cross-backend*:
// every SIMD backend's quantized decode must be bit-identical to the
// scalar backend's quantized decode — message bits and the exact
// rescaled path cost.

/// precision × bubble depth.
class QuantGolden
    : public ::testing::TestWithParam<std::tuple<CostPrecision, int>> {};

INSTANTIATE_TEST_SUITE_P(
    PrecisionsAndDepths, QuantGolden,
    ::testing::Combine(::testing::Values(CostPrecision::kU16, CostPrecision::kU8),
                       ::testing::Values(1, 2)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == CostPrecision::kU16 ? "u16"
                                                                        : "u8") +
             "_d" + std::to_string(std::get<1>(info.param));
    });

TEST_P(QuantGolden, QuantizedDecodeBitIdenticalAcrossBackends) {
  const auto [prec, d] = GetParam();
  CodeParams p = base_params(hash::Kind::kOneAtATime);
  p.d = d;
  p.cost_precision = prec;
  const PuncturingSchedule sched(p);
  // Three passes, and half of one: then most levels have no received
  // symbol, so each child costs its parent and renormalized integer
  // costs tie beam-wide.
  for (int subpasses : {3 * sched.subpasses_per_pass(), sched.subpasses_per_pass() / 2}) {
    util::Xoshiro256 prng(41);
    const SpinalEncoder enc(p, prng.random_bits(p.n));
    channel::AwgnChannel ch(6.0, 141);  // marginal SNR: near-ties on the line
    std::vector<std::pair<SymbolId, std::complex<float>>> rx;
    for (int sp = 0; sp < subpasses; ++sp)
      for (const SymbolId& id : sched.subpass(sp))
        rx.emplace_back(id, ch.transmit(enc.symbol(id)));

    auto decode_on = [&](const char* backend_name) {
      const ScopedBackend scoped(backend_name);
      SpinalDecoder dec(p);
      for (const auto& [id, y] : rx) dec.add_symbol(id, y);
      // Really engaged (modulo the env override, which wins by design).
      EXPECT_EQ(dec.active_precision(), resolve_cost_precision(prec)) << backend_name;
      return dec.decode();
    };

    const DecodeResult want = decode_on("scalar");
    for (const backend::Backend* b : backend::available()) {
      if (std::string_view(b->name) == "scalar") continue;
      const DecodeResult got = decode_on(b->name);
      EXPECT_EQ(got.message, want.message)
          << b->name << " d=" << d << " subpasses=" << subpasses;
      EXPECT_EQ(got.path_cost, want.path_cost)  // exact bits
          << b->name << " d=" << d << " subpasses=" << subpasses;
    }
  }
}

// ---- Pinned quantized decisions. QuantGolden only compares backends
// with each other, so a change that moved every backend's u16/u8
// decode the same way would pass it. These constants were recorded
// from the quantized pipeline and pin its absolute output: an FNV-1a
// digest of the decoded message bytes and the exact bits of the
// rescaled path cost, on every available backend.

struct QuantPin {
  CostPrecision prec;
  int d;
  hash::Kind kind;
  std::uint64_t seed;
  std::uint64_t message_digest;
  std::uint64_t cost_bits;
};

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ull;
  return h;
}

constexpr hash::Kind kOaat = hash::Kind::kOneAtATime;
constexpr hash::Kind kL3 = hash::Kind::kLookup3;
constexpr hash::Kind kSalsa = hash::Kind::kSalsa20;
constexpr CostPrecision kU16 = CostPrecision::kU16;
constexpr CostPrecision kU8 = CostPrecision::kU8;

const QuantPin kQuantPins[] = {
    {kU16, 1, kOaat, 51, 0xe3c534a58eac5697ull, 0x402c600000000000ull},
    {kU16, 1, kOaat, 52, 0x47b1da8322f2dc5full, 0x402ee00000000000ull},
    {kU16, 1, kL3, 51, 0xfd296c1d72d83ed1ull, 0x402c600000000000ull},
    {kU16, 1, kL3, 52, 0x2630bdf2e55ebfa3ull, 0x402fa00000000000ull},
    {kU16, 1, kSalsa, 51, 0x7eac69c18d8f82b9ull, 0x4035100000000000ull},
    {kU16, 1, kSalsa, 52, 0x48435c83236df462ull, 0x4028a00000000000ull},
    {kU16, 2, kOaat, 51, 0xe3c534a58eac5697ull, 0x402c600000000000ull},
    {kU16, 2, kOaat, 52, 0x48435c83236df462ull, 0x4028a00000000000ull},
    {kU16, 2, kL3, 51, 0xb16429857acf387bull, 0x402ae00000000000ull},
    {kU16, 2, kL3, 52, 0x48435c83236df462ull, 0x4028a00000000000ull},
    {kU16, 2, kSalsa, 51, 0x3e245e97dd026683ull, 0x4031000000000000ull},
    {kU16, 2, kSalsa, 52, 0x48435c83236df462ull, 0x4028a00000000000ull},
    {kU16, 3, kOaat, 51, 0xe3c534a58eac5697ull, 0x402c600000000000ull},
    {kU16, 3, kOaat, 52, 0x48435c83236df462ull, 0x4028a00000000000ull},
    {kU16, 3, kL3, 51, 0xf6034ea81a25725eull, 0x402ae00000000000ull},
    {kU16, 3, kL3, 52, 0x48435c83236df462ull, 0x4028a00000000000ull},
    {kU16, 3, kSalsa, 51, 0x3e245e97dd026683ull, 0x4031000000000000ull},
    {kU16, 3, kSalsa, 52, 0x48435c83236df462ull, 0x4028a00000000000ull},
    {kU8, 1, kOaat, 51, 0xe3c521a58eac364eull, 0x402bc00000000000ull},
    {kU8, 1, kOaat, 52, 0x47b1da8322f2dc5full, 0x402f000000000000ull},
    {kU8, 1, kL3, 51, 0xf6034ea81a25725eull, 0x402a000000000000ull},
    {kU8, 1, kL3, 52, 0x48435c83236df462ull, 0x4028c00000000000ull},
    {kU8, 1, kSalsa, 51, 0x7e75cfc18d60ed9bull, 0x4034e00000000000ull},
    {kU8, 1, kSalsa, 52, 0x48435c83236df462ull, 0x4028c00000000000ull},
    {kU8, 2, kOaat, 51, 0xe3c521a58eac364eull, 0x402bc00000000000ull},
    {kU8, 2, kOaat, 52, 0x48435c83236df462ull, 0x4028c00000000000ull},
    {kU8, 2, kL3, 51, 0xb16429857acf387bull, 0x402ac00000000000ull},
    {kU8, 2, kL3, 52, 0x48435c83236df462ull, 0x4028c00000000000ull},
    {kU8, 2, kSalsa, 51, 0x3e245e97dd026683ull, 0x4030800000000000ull},
    {kU8, 2, kSalsa, 52, 0x48435c83236df462ull, 0x4028c00000000000ull},
    {kU8, 3, kOaat, 51, 0xe3c521a58eac364eull, 0x402bc00000000000ull},
    {kU8, 3, kOaat, 52, 0x48435c83236df462ull, 0x4028c00000000000ull},
    {kU8, 3, kL3, 51, 0xf6034ea81a25725eull, 0x402a000000000000ull},
    {kU8, 3, kL3, 52, 0x48435c83236df462ull, 0x4028c00000000000ull},
    {kU8, 3, kSalsa, 51, 0x3e245e97dd026683ull, 0x4030800000000000ull},
    {kU8, 3, kSalsa, 52, 0x48435c83236df462ull, 0x4028c00000000000ull},
};

class QuantPinned : public ::testing::TestWithParam<QuantPin> {};

INSTANTIATE_TEST_SUITE_P(
    PrecisionsDepthsKindsSeeds, QuantPinned, ::testing::ValuesIn(kQuantPins),
    [](const auto& info) {
      std::string kind = hash::kind_name(info.param.kind);
      std::erase(kind, '-');
      return std::string(info.param.prec == kU16 ? "u16" : "u8") + "_d" +
             std::to_string(info.param.d) + "_" + kind + "_s" +
             std::to_string(info.param.seed);
    });

TEST_P(QuantPinned, DecodeMatchesRecordedConstants) {
  const QuantPin& pin = GetParam();
  if (resolve_cost_precision(pin.prec) != pin.prec)
    GTEST_SKIP() << "SPINAL_COST_PRECISION override replaces the pinned precision";
  CodeParams p = base_params(pin.kind);
  p.d = pin.d;
  p.cost_precision = pin.prec;
  util::Xoshiro256 prng(pin.seed);
  const SpinalEncoder enc(p, prng.random_bits(p.n));
  channel::AwgnChannel ch(5.0, pin.seed + 100);  // capacity just above the 2-pass rate
  const PuncturingSchedule sched(p);
  std::vector<std::pair<SymbolId, std::complex<float>>> rx;
  for (int sp = 0; sp < 2 * sched.subpasses_per_pass(); ++sp)
    for (const SymbolId& id : sched.subpass(sp))
      rx.emplace_back(id, ch.transmit(enc.symbol(id)));

  for (const backend::Backend* b : backend::available()) {
    const ScopedBackend scoped(b->name);
    SpinalDecoder dec(p);
    for (const auto& [id, y] : rx) dec.add_symbol(id, y);
    ASSERT_EQ(dec.active_precision(), pin.prec) << b->name;
    const DecodeResult r = dec.decode();
    EXPECT_EQ(fnv1a(r.message.to_bytes()), pin.message_digest)
        << b->name << std::hex << " digest 0x" << fnv1a(r.message.to_bytes());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.path_cost), pin.cost_bits)
        << b->name << std::hex << " cost bits 0x"
        << std::bit_cast<std::uint64_t>(r.path_cost);
  }
}

TEST(QuantGoldenFallback, CsiSymbolsFallBackToGoldenFloatPath) {
  // CSI makes the quantized table ineligible; the decode must silently
  // run the f32 path and therefore stay bit-identical to the scalar
  // per-node reference.
  CodeParams p = base_params(hash::Kind::kOneAtATime);
  p.cost_precision = CostPrecision::kU16;
  util::Xoshiro256 prng(42);
  const SpinalEncoder enc(p, prng.random_bits(p.n));
  SpinalDecoder dec(p);
  channel::RayleighChannel ch(10.0, 8, 142);
  const PuncturingSchedule sched(p);
  for (int sp = 0; sp < 2 * sched.subpasses_per_pass(); ++sp) {
    const auto ids = sched.subpass(sp);
    std::vector<std::complex<float>> x;
    for (const auto& id : ids) x.push_back(enc.symbol(id));
    std::vector<std::complex<float>> csi;
    ch.apply(x, csi);
    for (std::size_t i = 0; i < ids.size(); ++i) dec.add_symbol(ids[i], x[i], csi[i]);
  }
  EXPECT_EQ(dec.active_precision(), CostPrecision::kFloat32);
  expect_identical(dec, "quant-csi-fallback");
}

TEST(QuantGoldenFallback, FloatPrecisionStaysGoldenReference) {
  // The default f32 knob must keep the exact decode_reference contract
  // (the quantized machinery must not perturb the float path at all).
  CodeParams p = base_params(hash::Kind::kOneAtATime);
  p.cost_precision = CostPrecision::kFloat32;
  if (resolve_cost_precision(p.cost_precision) != CostPrecision::kFloat32)
    GTEST_SKIP() << "SPINAL_COST_PRECISION override forces a narrow path";
  util::Xoshiro256 prng(43);
  const SpinalEncoder enc(p, prng.random_bits(p.n));
  SpinalDecoder dec(p);
  channel::AwgnChannel ch(6.0, 143);
  const PuncturingSchedule sched(p);
  for (int sp = 0; sp < 3 * sched.subpasses_per_pass(); ++sp)
    for (const SymbolId& id : sched.subpass(sp))
      dec.add_symbol(id, ch.transmit(enc.symbol(id)));
  EXPECT_EQ(dec.active_precision(), CostPrecision::kFloat32);
  expect_identical(dec, "f32-golden");
}

// ---- Cross-block batches: one shared workspace serving a sequence of
// blocks back to back, as a runtime worker's pinned workspace serves a
// batch. The contract is per-block bit-identity against a fresh solo
// decode_with over every composition a worker can form: mixed beam
// widths, mixed params (n/k/d, hash kind), mixed cost precisions (f32
// blocks between quantized u16 blocks), per-block beam overrides, every
// backend, every batch size, and successive batches of different sizes
// and orders through the same workspace.

struct BatchBlockSpec {
  CodeParams p;
  int passes;
  std::uint64_t seed;
  int beam;  // per-block beam override handed to decode_with
};

std::vector<std::unique_ptr<SpinalDecoder>> build_awgn_blocks(
    const std::vector<BatchBlockSpec>& specs) {
  std::vector<std::unique_ptr<SpinalDecoder>> decs;
  for (const BatchBlockSpec& bs : specs) {
    util::Xoshiro256 prng(bs.seed);
    const SpinalEncoder enc(bs.p, prng.random_bits(bs.p.n));
    auto dec = std::make_unique<SpinalDecoder>(bs.p);
    channel::AwgnChannel ch(6.0, bs.seed + 100);  // marginal SNR: near-ties
    const PuncturingSchedule sched(bs.p);
    for (int sp = 0; sp < bs.passes * sched.subpasses_per_pass(); ++sp)
      for (const SymbolId& id : sched.subpass(sp))
        dec->add_symbol(id, ch.transmit(enc.symbol(id)));
    decs.push_back(std::move(dec));
  }
  return decs;
}

TEST(BatchGolden, AwgnMixedBatchBitIdenticalToSoloAcrossBackends) {
  std::vector<BatchBlockSpec> specs;
  {  // plain f32 baseline block
    specs.push_back({base_params(hash::Kind::kOneAtATime), 3, 200, 0});
  }
  {  // different n/k/d/hash: distinct step count and leaf geometry
    CodeParams p = base_params(hash::Kind::kLookup3);
    p.B = 8;
    p.n = 60;
    p.k = 3;
    p.d = 2;
    specs.push_back({p, 2, 201, 0});
  }
  {  // quantized u16 block between the f32 ones
    CodeParams p = base_params(hash::Kind::kOneAtATime);
    p.cost_precision = CostPrecision::kU16;
    specs.push_back({p, 3, 202, 0});
  }
  {  // second quantized block at another width: each block's
     // renormalization offset starts afresh in the shared workspace
    CodeParams p = base_params(hash::Kind::kOneAtATime);
    p.B = 64;
    p.cost_precision = CostPrecision::kU16;
    specs.push_back({p, 2, 204, 0});
  }
  {  // beam override narrower than the configured width
    CodeParams p = base_params(hash::Kind::kOneAtATime);
    p.B = 32;
    specs.push_back({p, 4, 203, 12});
  }
  const auto decs = build_awgn_blocks(specs);

  for (const backend::Backend* b : backend::available()) {
    const ScopedBackend scoped(b->name);
    std::vector<DecodeResult> want(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      detail::DecodeWorkspace solo;
      decs[i]->decode_with(solo, want[i], specs[i].beam);
    }

    detail::DecodeWorkspace shared;
    for (std::size_t size = 1; size <= specs.size(); ++size) {
      std::vector<DecodeResult> got(size);
      for (std::size_t i = 0; i < size; ++i)
        decs[i]->decode_with(shared, got[i], specs[i].beam);
      for (std::size_t i = 0; i < size; ++i) {
        EXPECT_EQ(got[i].message, want[i].message)
            << b->name << " size=" << size << " block=" << i;
        EXPECT_EQ(got[i].path_cost, want[i].path_cost)
            << b->name << " size=" << size << " block=" << i;  // exact bits
      }
    }

    // Reversed composition through the now-warm shared workspace: what
    // the workspace decoded before must not matter.
    std::vector<DecodeResult> got(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const std::size_t j = specs.size() - 1 - i;
      decs[j]->decode_with(shared, got[i], specs[j].beam);
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const std::size_t j = specs.size() - 1 - i;
      EXPECT_EQ(got[i].message, want[j].message) << b->name << " rev block=" << i;
      EXPECT_EQ(got[i].path_cost, want[j].path_cost) << b->name << " rev block=" << i;
    }
  }
}

TEST(BatchGolden, BscMixedBatchBitIdenticalToSoloAcrossBackends) {
  struct Spec {
    CodeParams p;
    int passes;
    std::uint64_t seed;
  };
  std::vector<Spec> specs;
  {
    CodeParams p = base_params(hash::Kind::kOneAtATime);
    p.c = 1;
    specs.push_back({p, 8, 300});
  }
  {  // deep packed-word accumulators (multi-block bit words)
    CodeParams p = base_params(hash::Kind::kOneAtATime);
    p.c = 1;
    p.B = 8;
    p.n = 32;
    specs.push_back({p, 40, 301});
  }
  {  // d=2: integer Hamming ties through the prune
    CodeParams p = base_params(hash::Kind::kLookup3);
    p.c = 1;
    p.n = 48;
    p.k = 3;
    p.B = 8;
    p.d = 2;
    specs.push_back({p, 10, 302});
  }
  std::vector<std::unique_ptr<BscSpinalDecoder>> decs;
  for (const Spec& bs : specs) {
    util::Xoshiro256 prng(bs.seed);
    const BscSpinalEncoder enc(bs.p, prng.random_bits(bs.p.n));
    auto dec = std::make_unique<BscSpinalDecoder>(bs.p);
    channel::BscChannel ch(0.08, bs.seed + 100);
    const PuncturingSchedule sched(bs.p);
    for (int sp = 0; sp < bs.passes * sched.subpasses_per_pass(); ++sp)
      for (const SymbolId& id : sched.subpass(sp))
        dec->add_symbol(id, ch.transmit(enc.symbol(id)));
    decs.push_back(std::move(dec));
  }

  for (const backend::Backend* b : backend::available()) {
    const ScopedBackend scoped(b->name);
    std::vector<DecodeResult> want(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      detail::DecodeWorkspace solo;
      decs[i]->decode_with(solo, want[i]);
    }
    detail::DecodeWorkspace shared;
    for (std::size_t size = 1; size <= specs.size(); ++size) {
      std::vector<DecodeResult> got(size);
      for (std::size_t i = 0; i < size; ++i) decs[i]->decode_with(shared, got[i]);
      for (std::size_t i = 0; i < size; ++i) {
        EXPECT_EQ(got[i].message, want[i].message)
            << b->name << " size=" << size << " block=" << i;
        EXPECT_EQ(got[i].path_cost, want[i].path_cost)
            << b->name << " size=" << size << " block=" << i;
      }
    }
  }
}

TEST(BatchGolden, BatchedDecodeLeavesSoloWorkspaceUsable) {
  // A workspace that has served a batch must still serve a plain solo
  // decode_with call bit-identically (the runtime mixes both freely on
  // one pinned workspace).
  const CodeParams p = base_params(hash::Kind::kOneAtATime);
  const auto decs = build_awgn_blocks({{p, 3, 400, 0}, {p, 2, 401, 0}});
  detail::DecodeWorkspace solo0, solo1, shared;
  DecodeResult want0, want1;
  decs[0]->decode_with(solo0, want0);
  decs[1]->decode_with(solo1, want1);

  std::vector<DecodeResult> got(2);
  for (std::size_t i = 0; i < 2; ++i) decs[i]->decode_with(shared, got[i]);
  DecodeResult after;
  decs[1]->decode_with(shared, after);
  EXPECT_EQ(got[0].message, want0.message);
  EXPECT_EQ(got[0].path_cost, want0.path_cost);
  EXPECT_EQ(after.message, want1.message);
  EXPECT_EQ(after.path_cost, want1.path_cost);
}

TEST(Golden, RepeatedDecodeAttemptsAreStable) {
  // Workspace reuse across attempts and across symbol arrivals must not
  // leak state between decodes: each attempt equals a fresh reference.
  const CodeParams p = base_params(hash::Kind::kOneAtATime);
  util::Xoshiro256 prng(30);
  const SpinalEncoder enc(p, prng.random_bits(p.n));
  SpinalDecoder dec(p);
  channel::AwgnChannel ch(6.0, 130);
  const PuncturingSchedule sched(p);
  for (int sp = 0; sp < 4 * sched.subpasses_per_pass(); ++sp) {
    for (const SymbolId& id : sched.subpass(sp))
      dec.add_symbol(id, ch.transmit(enc.symbol(id)));
    expect_identical(dec, "incremental");
  }
}

TEST(Golden, GaussianConstellationMatchesScalarReference) {
  CodeParams p = base_params(hash::Kind::kOneAtATime);
  p.map = modem::MapKind::kTruncatedGaussian;
  util::Xoshiro256 prng(31);
  const SpinalEncoder enc(p, prng.random_bits(p.n));
  SpinalDecoder dec(p);
  channel::AwgnChannel ch(8.0, 131);
  const PuncturingSchedule sched(p);
  for (int sp = 0; sp < 2 * sched.subpasses_per_pass(); ++sp)
    for (const SymbolId& id : sched.subpass(sp))
      dec.add_symbol(id, ch.transmit(enc.symbol(id)));
  expect_identical(dec, "gaussian");
}

}  // namespace
}  // namespace spinal
