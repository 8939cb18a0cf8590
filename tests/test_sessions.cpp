// Session-interface contract tests: every RatelessSession implementation
// must honour the engine's expectations (chunk accounting, restart
// semantics, give-up bounds) — the glue §8.1's framework relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "ldpc/ldpc_session.h"
#include "raptor/raptor_session.h"
#include "sim/bsc_session.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "sim/spinal_session.h"
#include "strider/strider_session.h"
#include "util/prng.h"

namespace spinal::sim {
namespace {

TEST(Sessions, SpinalChunksMatchScheduleSizes) {
  CodeParams p;
  p.n = 256;  // 64 spine values, 8-way: first subpass 8+2 tail, rest 8
  SpinalSession s(p);
  util::Xoshiro256 prng(1);
  s.start(prng.random_bits(p.n));
  EXPECT_EQ(s.next_chunk().size(), 10u);
  for (int i = 1; i < 8; ++i) EXPECT_EQ(s.next_chunk().size(), 8u) << i;
  EXPECT_EQ(s.next_chunk().size(), 10u);  // pass 2 begins
}

TEST(Sessions, SpinalRestartResetsEverything) {
  CodeParams p;
  p.n = 64;
  SpinalSession s(p);
  util::Xoshiro256 prng(2);
  const util::BitVec m1 = prng.random_bits(p.n);
  const util::BitVec m2 = prng.random_bits(p.n);

  s.start(m1);
  const auto chunk1 = s.next_chunk();
  s.start(m2);
  const auto chunk2 = s.next_chunk();
  ASSERT_EQ(chunk1.size(), chunk2.size());
  int same = 0;
  for (std::size_t i = 0; i < chunk1.size(); ++i) same += (chunk1[i] == chunk2[i]);
  EXPECT_LT(same, static_cast<int>(chunk1.size()));  // different message

  // Restarting with m1 again reproduces the original chunk exactly.
  s.start(m1);
  const auto chunk1b = s.next_chunk();
  for (std::size_t i = 0; i < chunk1.size(); ++i) EXPECT_EQ(chunk1[i], chunk1b[i]);
}

TEST(Sessions, SpinalMaxChunksBoundsChannelUse) {
  CodeParams p;
  p.n = 64;
  p.max_passes = 5;
  SpinalSession s(p);
  EXPECT_EQ(s.max_chunks(), 5 * 8);
}

template <class Session>
void expect_granular_chunking_conserves_symbols(const CodeParams& p) {
  Session whole(p), granular(p, /*symbols_per_chunk=*/1);
  util::Xoshiro256 prng(3);
  const util::BitVec msg = prng.random_bits(p.n);
  whole.start(msg);
  granular.start(msg);

  // One full pass worth of symbols must match element-wise.
  std::vector<std::complex<float>> a, b;
  while (a.size() < static_cast<std::size_t>(p.symbols_per_pass())) {
    for (const auto& v : whole.next_chunk()) a.push_back(v);
  }
  while (b.size() < a.size()) {
    for (const auto& v : granular.next_chunk()) b.push_back(v);
  }
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;
}

TEST(Sessions, SymbolGranularChunkingConservesSymbols) {
  // Both metrics share the chunking path.
  CodeParams p;
  p.n = 64;
  expect_granular_chunking_conserves_symbols<SpinalSession>(p);
  p.c = 1;
  expect_granular_chunking_conserves_symbols<BscSession>(p);
}

/// receive_chunk() must reject spans that do not match the chunk in
/// flight, before touching the decoder: after the rejected calls, the
/// session decodes exactly like one that only ever saw the valid chunk.
template <class Session>
void expect_mismatched_spans_rejected(const CodeParams& p) {
  util::Xoshiro256 prng(21);
  const util::BitVec msg = prng.random_bits(p.n);
  Session s(p), clean(p);
  s.start(msg);
  clean.start(msg);
  const std::vector<std::complex<float>> one(1);
  EXPECT_THROW(s.receive_chunk(one, {}), std::invalid_argument);  // no chunk in flight

  const std::vector<std::complex<float>> x = s.next_chunk();
  ASSERT_EQ(clean.next_chunk(), x);
  ASSERT_GT(x.size(), 1u);
  // A noisy channel output, so stray or repeated symbols move the cost.
  std::vector<std::complex<float>> y = x;
  for (std::size_t i = 0; i < y.size(); i += 2) y[i] = {1.0f - y[i].real(), y[i].imag()};
  std::vector<std::complex<float>> longer = y;
  longer.push_back(y.front());
  const std::vector<std::complex<float>> shorter(y.begin(), y.end() - 1);
  EXPECT_THROW(s.receive_chunk(longer, {}), std::invalid_argument);
  EXPECT_THROW(s.receive_chunk(shorter, {}), std::invalid_argument);
  EXPECT_THROW(s.receive_chunk(y, shorter), std::invalid_argument);
  EXPECT_THROW(s.receive_chunk(y, longer), std::invalid_argument);

  s.receive_chunk(y, {});
  clean.receive_chunk(y, {});
  SpinalWorkspace got, want;
  s.try_decode_with(&got, 0);
  clean.try_decode_with(&want, 0);
  EXPECT_EQ(got.out.message, want.out.message);
  EXPECT_EQ(got.out.path_cost, want.out.path_cost);
}

TEST(Sessions, ReceiveChunkRejectsMismatchedSpans) {
  CodeParams p;
  p.n = 64;
  expect_mismatched_spans_rejected<SpinalSession>(p);
  p.c = 1;
  expect_mismatched_spans_rejected<BscSession>(p);
}

TEST(Sessions, BscNonFiniteSamplesAreErasures) {
  // The AWGN metric's erasure rule under the BSC metric: a NaN or
  // infinite sample is dropped like a punctured symbol, so the decode
  // equals that of a decoder that never saw it. The erased symbol
  // carries a 1, which a NaN read as a bit would flip.
  CodeParams p;
  p.n = 64;
  p.c = 1;
  util::Xoshiro256 prng(22);
  const util::BitVec msg = prng.random_bits(p.n);
  const BscSpinalEncoder enc(p, msg);
  const PuncturingSchedule sched(p);
  const std::vector<SymbolId> first = sched.subpass(0);
  const auto bad = std::find_if(first.begin(), first.end(),
                                [&](const SymbolId& id) { return enc.symbol(id) == 1; });
  ASSERT_NE(bad, first.end());
  for (const float v : {std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity()}) {
    BscSession s(p);
    s.start(msg);
    BscSpinalDecoder erased(p);  // never receives the bad symbol
    for (int sp = 0; sp < 6 * sched.subpasses_per_pass(); ++sp) {
      const std::vector<SymbolId> ids = sched.subpass(sp);
      std::vector<std::complex<float>> y = s.next_chunk();
      ASSERT_EQ(y.size(), ids.size());
      for (std::size_t i = 0; i < ids.size(); ++i) {
        if (ids[i] == *bad)
          y[i] = {v, 0.0f};
        else
          erased.add_symbol(ids[i], enc.symbol(ids[i]));
      }
      s.receive_chunk(y, {});
    }
    const DecodeResult want = erased.decode();
    ASSERT_EQ(want.message, msg);
    SpinalWorkspace got;
    s.try_decode_with(&got, 0);
    EXPECT_EQ(got.out.message, want.message) << v;
    EXPECT_EQ(got.out.path_cost, want.path_cost) << v;
  }
}

TEST(Sessions, RaptorChunkSizeIsConfigured) {
  raptor::RaptorSessionConfig cfg;
  cfg.info_bits = 400;
  cfg.chunk_symbols = 17;
  raptor::RaptorSession s(cfg);
  util::Xoshiro256 prng(4);
  s.start(prng.random_bits(cfg.info_bits));
  EXPECT_EQ(s.next_chunk().size(), 17u);
  EXPECT_EQ(s.message_bits(), 400);
}

TEST(Sessions, RaptorSkipsHopelessAttempts) {
  // try_decode must return nullopt cheaply before the intermediate
  // block could possibly be covered.
  raptor::RaptorSessionConfig cfg;
  cfg.info_bits = 800;
  cfg.chunk_symbols = 8;
  raptor::RaptorSession s(cfg);
  util::Xoshiro256 prng(5);
  s.start(prng.random_bits(cfg.info_bits));
  s.set_noise_hint(0.1);
  auto x = s.next_chunk();
  std::vector<std::complex<float>> csi;
  s.receive_chunk(x, csi);
  EXPECT_FALSE(s.try_decode().has_value());  // 64 bits << 842 intermediate
}

TEST(Sessions, StriderPlainChunksAreWholePasses) {
  strider::StriderConfig code;
  code.layers = 4;
  code.layer_bits = 60;
  strider::StriderSessionConfig cfg;
  cfg.code = code;
  strider::StriderSession s(cfg);
  util::Xoshiro256 prng(6);
  s.start(prng.random_bits(code.message_bits()));
  const auto chunk = s.next_chunk();
  EXPECT_EQ(static_cast<int>(chunk.size()),
            strider::StriderEncoder(code).symbols_per_pass());
}

TEST(Sessions, StriderPuncturedChunksTileThePass) {
  strider::StriderConfig code;
  code.layers = 4;
  code.layer_bits = 60;
  strider::StriderSessionConfig cfg;
  cfg.code = code;
  cfg.punctured = true;
  cfg.subpasses = 8;
  strider::StriderSession s(cfg);
  util::Xoshiro256 prng(7);
  s.start(prng.random_bits(code.message_bits()));

  const int per_pass = strider::StriderEncoder(code).symbols_per_pass();
  int collected = 0;
  for (int i = 0; i < 8; ++i) collected += static_cast<int>(s.next_chunk().size());
  EXPECT_EQ(collected, per_pass);  // 8 subpasses = exactly one pass
}

TEST(Sessions, NoiseHintDefaultIsHarmlessForSpinal) {
  // The spinal decoder ignores the hint (pure min-distance metric):
  // decoding works whether or not set_noise_hint is called.
  CodeParams p;
  p.n = 64;
  SpinalSession s(p);
  s.set_noise_hint(123.0);  // nonsense value on purpose
  ChannelSim ch(ChannelKind::kAwgn, 15.0, 1, 8);
  util::Xoshiro256 prng(9);
  const util::BitVec msg = prng.random_bits(p.n);
  EXPECT_TRUE(run_message(s, ch, msg).success);
}

TEST(Sessions, TryDecodeWithExternalWorkspaceMatchesTryDecode) {
  // The runtime decodes with worker-pinned scratch; with no beam
  // override the candidate must be bit-identical to the session's own
  // try_decode (which uses the decoder's internal workspace).
  CodeParams p;
  p.n = 64;
  SpinalSession s(p);
  ChannelSim ch(ChannelKind::kAwgn, 6.0, 1, 13);
  util::Xoshiro256 prng(14);
  const util::BitVec msg = prng.random_bits(p.n);
  s.start(msg);
  s.set_noise_hint(ch.noise_variance());
  ASSERT_TRUE(s.workspace_key().valid());
  const auto ws = s.make_workspace();
  for (int chunk = 0; chunk < 6; ++chunk) {
    auto x = s.next_chunk();
    if (x.empty()) continue;
    std::vector<std::complex<float>> csi;
    ch.transmit(x, csi);
    s.receive_chunk(x, csi);
    const auto internal = s.try_decode();
    const auto external = s.try_decode_with(ws.get(), 0);
    ASSERT_TRUE(internal.has_value());
    ASSERT_TRUE(external.has_value());
    EXPECT_TRUE(*internal == *external) << chunk;
  }
  // An unpinnable session (no workspace key) ignores the workspace and
  // decodes all the same — the null-ws call is the sequential path.
  raptor::RaptorSessionConfig cfg;
  cfg.info_bits = 400;
  raptor::RaptorSession rs(cfg);
  EXPECT_FALSE(rs.workspace_key().valid());
  EXPECT_EQ(rs.make_workspace(), nullptr);
  util::Xoshiro256 prng2(15);
  rs.start(prng2.random_bits(cfg.info_bits));
  EXPECT_FALSE(rs.try_decode_with(nullptr, 0).has_value());
}

TEST(Sessions, WorkspaceKeysAreExactValues) {
  // Keys compare every parameter exactly: nearly equal doubles (which a
  // six-decimal rendering would round together) get distinct keys, and
  // each flavor, precision and LDPC parameter separates keys.
  CodeParams p;
  p.n = 64;
  const auto ws_key = [](const CodeParams& q) { return SpinalSession(q).workspace_key(); };
  EXPECT_EQ(ws_key(p), ws_key(p));
  CodeParams q = p;
  q.beta = 2.0000001;
  EXPECT_NE(ws_key(p), ws_key(q));
  q = p;
  q.power = 1.0000001;
  EXPECT_NE(ws_key(p), ws_key(q));

  // AWGN and BSC sessions share scratch but never a batch.
  CodeParams b = p;
  b.c = 1;
  const SpinalSession awgn(b);
  const BscSession bsc(b);
  EXPECT_EQ(awgn.workspace_key(), bsc.workspace_key());
  EXPECT_NE(awgn.batch_key(), bsc.batch_key());
  EXPECT_NE(awgn.batch_key(), awgn.workspace_key());
  const WorkspaceKey link = spinal_batch_key(b, KeyCodec::kSpinalLink);
  EXPECT_NE(link, awgn.batch_key());
  EXPECT_NE(link, bsc.batch_key());

  // Precision is keyed as resolved (SPINAL_COST_PRECISION included).
  q = p;
  q.cost_precision = CostPrecision::kU16;
  EXPECT_EQ(ws_key(p) == ws_key(q),
            resolve_cost_precision(p.cost_precision) ==
                resolve_cost_precision(q.cost_precision));

  ldpc::LdpcSessionConfig l;
  const WorkspaceKey ldpc_key = ldpc::LdpcSession(l).workspace_key();
  EXPECT_TRUE(ldpc_key.valid());
  EXPECT_EQ(ldpc_key, ldpc::LdpcSession(l).workspace_key());
  ldpc::LdpcSessionConfig l2 = l;
  l2.rate = ldpc::Rate::kThreeQuarters;
  EXPECT_NE(ldpc_key, ldpc::LdpcSession(l2).workspace_key());
  l2 = l;
  l2.matrix_seed = l.matrix_seed + 1;
  EXPECT_NE(ldpc_key, ldpc::LdpcSession(l2).workspace_key());

  EXPECT_FALSE(WorkspaceKey{}.valid());
  EXPECT_TRUE(ws_key(p).valid());
}

TEST(Sessions, BscChunksFollowTheSchedule) {
  CodeParams p;
  p.n = 256;  // 64 spine values, 8-way: first subpass 8+2 tail, rest 8
  p.c = 1;
  BscSession s(p);
  util::Xoshiro256 prng(16);
  s.start(prng.random_bits(p.n));
  EXPECT_EQ(s.next_chunk().size(), 10u);
  for (int i = 1; i < 8; ++i) EXPECT_EQ(s.next_chunk().size(), 8u) << i;
  EXPECT_EQ(s.next_chunk().size(), 10u);  // pass 2 begins
  EXPECT_EQ(s.max_chunks(), p.max_passes * 8);
  EXPECT_TRUE(s.workspace_key().valid());
  EXPECT_EQ(s.effort_profile().full, p.B);
}

TEST(Sessions, BscChunksCarryBits) {
  CodeParams p;
  p.n = 64;
  p.c = 1;
  BscSession s(p);
  util::Xoshiro256 prng(17);
  s.start(prng.random_bits(p.n));
  int ones = 0, total = 0;
  for (int i = 0; i < 8; ++i)
    for (const auto& v : s.next_chunk()) {
      EXPECT_TRUE(v.real() == 0.0f || v.real() == 1.0f);
      EXPECT_EQ(v.imag(), 0.0f);
      ones += v.real() == 1.0f;
      ++total;
    }
  EXPECT_GT(ones, 0);          // a hash-derived bit stream is not constant
  EXPECT_LT(ones, total);
}

TEST(Sessions, BscRestartReproducesChunks) {
  CodeParams p;
  p.n = 64;
  p.c = 1;
  BscSession s(p);
  util::Xoshiro256 prng(18);
  const util::BitVec m = prng.random_bits(p.n);
  s.start(m);
  const auto chunk1 = s.next_chunk();
  s.start(m);
  const auto chunk1b = s.next_chunk();
  ASSERT_EQ(chunk1.size(), chunk1b.size());
  for (std::size_t i = 0; i < chunk1.size(); ++i) EXPECT_EQ(chunk1[i], chunk1b[i]);
}

TEST(Sessions, EngineCountsChunksAndAttempts) {
  CodeParams p;
  p.n = 64;
  SpinalSession s(p);
  ChannelSim ch(ChannelKind::kAwgn, 25.0, 1, 10);
  util::Xoshiro256 prng(11);
  EngineOptions opt;
  opt.attempt_every = 2;
  const RunResult r = run_message(s, ch, prng.random_bits(p.n), opt);
  EXPECT_TRUE(r.success);
  EXPECT_GE(r.chunks, r.attempts * 2 - 1);
}

}  // namespace
}  // namespace spinal::sim
