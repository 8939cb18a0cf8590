// Session-interface contract tests: every RatelessSession implementation
// must honour the engine's expectations (chunk accounting, restart
// semantics, give-up bounds) — the glue §8.1's framework relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "channel/awgn.h"
#include "ldpc/ldpc_session.h"
#include "modem/qam.h"
#include "raptor/raptor_session.h"
#include "sim/bsc_session.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "sim/spinal_session.h"
#include "strider/strider_session.h"
#include "turbo/turbo_session.h"
#include "util/crc.h"
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

/// receive_chunk() must reject a csi span that does not match y, and a
/// session that tracks its chunk in flight (@p tracks_chunk: the spinal
/// ones) also a y that does not match that chunk, before any state
/// changes: after the rejected calls, the session decodes exactly like
/// one that only ever saw the valid chunks, all the way to the message.
template <class Make>
void expect_mismatched_spans_rejected(Make make, bool tracks_chunk) {
  const std::unique_ptr<RatelessSession> s = make(), clean = make();
  util::Xoshiro256 prng(21);
  const util::BitVec msg = prng.random_bits(static_cast<std::size_t>(s->message_bits()));
  s->start(msg);
  clean->start(msg);
  s->set_noise_hint(1e-3);
  clean->set_noise_hint(1e-3);
  const std::vector<std::complex<float>> one(1);
  if (tracks_chunk) {  // no chunk in flight
    EXPECT_THROW(s->receive_chunk(one, {}), std::invalid_argument);
  }

  // A noisy channel output, so stray or repeated symbols move the cost,
  // yet mild enough for every codec to decode in a few chunks.
  const auto noisy = [](std::vector<std::complex<float>> x) {
    for (std::size_t i = 0; i < x.size(); ++i)
      x[i] += std::complex<float>(i % 2 ? 0.02f : -0.02f, 0.01f);
    return x;
  };
  const std::vector<std::complex<float>> x = s->next_chunk();
  ASSERT_EQ(clean->next_chunk(), x);
  ASSERT_GT(x.size(), 1u);
  const std::vector<std::complex<float>> y = noisy(x);
  std::vector<std::complex<float>> longer = y;
  longer.push_back(y.front());
  const std::vector<std::complex<float>> shorter(y.begin(), y.end() - 1);
  if (tracks_chunk) {
    EXPECT_THROW(s->receive_chunk(longer, {}), std::invalid_argument);
    EXPECT_THROW(s->receive_chunk(shorter, {}), std::invalid_argument);
  }
  EXPECT_THROW(s->receive_chunk(y, shorter), std::invalid_argument);
  EXPECT_THROW(s->receive_chunk(y, longer), std::invalid_argument);

  s->receive_chunk(y, {});
  clean->receive_chunk(y, {});
  const auto got = s->make_workspace(), want = clean->make_workspace();
  for (int chunks = 1;; ++chunks) {
    const std::optional<util::BitVec> decoded = clean->try_decode_with(want.get(), 0);
    EXPECT_EQ(s->try_decode_with(got.get(), 0), decoded) << "after " << chunks << " chunks";
    if (decoded == msg) break;
    ASSERT_LT(chunks, clean->max_chunks()) << "the clean session never decoded";
    const std::vector<std::complex<float>> more = noisy(clean->next_chunk());
    ASSERT_EQ(noisy(s->next_chunk()), more);
    s->receive_chunk(more, {});
    clean->receive_chunk(more, {});
  }
  if (const auto* g = dynamic_cast<const SpinalWorkspace*>(got.get())) {
    EXPECT_EQ(g->out.path_cost, static_cast<const SpinalWorkspace&>(*want).out.path_cost);
  }
}

TEST(Sessions, ReceiveChunkRejectsMismatchedSpans) {
  CodeParams p;
  p.n = 64;
  expect_mismatched_spans_rejected([p] { return std::make_unique<SpinalSession>(p); }, true);
  p.c = 1;
  expect_mismatched_spans_rejected([p] { return std::make_unique<BscSession>(p); }, true);

  // The baselines take any y; they check only the csi against it.
  expect_mismatched_spans_rejected(
      [] { return std::make_unique<ldpc::LdpcSession>(ldpc::LdpcSessionConfig{}); }, false);
  turbo::TurboSessionConfig turbo;
  turbo.info_bits = 256;
  expect_mismatched_spans_rejected([turbo] { return std::make_unique<turbo::TurboSession>(turbo); },
                                   false);
  raptor::RaptorSessionConfig raptor;
  raptor.info_bits = 400;
  expect_mismatched_spans_rejected(
      [raptor] { return std::make_unique<raptor::RaptorSession>(raptor); }, false);
  strider::StriderSessionConfig strider;
  strider.code.layers = 4;
  strider.code.layer_bits = 60;
  expect_mismatched_spans_rejected(
      [strider] { return std::make_unique<strider::StriderSession>(strider); }, false);
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

TEST(Sessions, BaselineNonFiniteInputIsErasure) {
  // One NaN sample, or one NaN or infinite fading coefficient, in the
  // first chunk must be erased like a punctured symbol: the LLR
  // combiners and Strider's pass store otherwise keep the NaN for good
  // and the session never decodes. Clean runs decode in 1-6 chunks.
  const auto make = [](int codec) -> std::unique_ptr<RatelessSession> {
    switch (codec) {
      case 0:
        return std::make_unique<ldpc::LdpcSession>(ldpc::LdpcSessionConfig{});
      case 1: {
        turbo::TurboSessionConfig cfg;
        cfg.info_bits = 256;
        return std::make_unique<turbo::TurboSession>(cfg);
      }
      case 2: {
        raptor::RaptorSessionConfig cfg;
        cfg.info_bits = 400;
        return std::make_unique<raptor::RaptorSession>(cfg);
      }
      default: {
        strider::StriderSessionConfig cfg;
        cfg.code.layers = 4;
        cfg.code.layer_bits = 60;
        return std::make_unique<strider::StriderSession>(cfg);
      }
    }
  };
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  struct Poison {
    const char* what;
    bool with_csi;     // pass unit CSI (the equalising path) or none
    bool on_h;         // poison the CSI value instead of the sample
    float value;
  };
  const Poison poisons[] = {{"NaN y, no CSI", false, false, kNaN},
                            {"NaN y, unit CSI", true, false, kNaN},
                            {"NaN h", true, true, kNaN},
                            {"infinite h", true, true, kInf}};
  for (int codec = 0; codec < 4; ++codec) {
    for (const Poison& poison : poisons) {
      const auto s = make(codec);
      channel::AwgnChannel awgn(13.0, 7 + codec);
      s->set_noise_hint(awgn.noise_variance());
      util::Xoshiro256 prng(5 + codec);
      const util::BitVec msg = prng.random_bits(s->message_bits());
      s->start(msg);
      bool decoded = false;
      for (int chunk = 0; chunk < 60 && !decoded; ++chunk) {
        std::vector<std::complex<float>> y = s->next_chunk();
        awgn.apply(y);
        std::vector<std::complex<float>> csi(poison.with_csi ? y.size() : 0,
                                             {1.0f, 0.0f});
        if (chunk == 0) (poison.on_h ? csi[0] : y[0]) = {poison.value, 0.0f};
        s->receive_chunk(y, csi);
        decoded = s->try_decode() == msg;
      }
      EXPECT_TRUE(decoded) << "codec " << codec << ": " << poison.what;
    }
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

/// The baseline codecs' engine runs, pinned: success, symbols and
/// attempts of LDPC, turbo and Raptor sessions over AWGN and over
/// Rayleigh fading with CSI (the soft demapper's equalising path), and
/// one fixed LDPC LLR vector's BP decode at full and at capped effort,
/// down to the capped decode's posterior LLRs bit for bit.
TEST(Sessions, BaselineRunsPinned) {
  const auto ldpc_ctx = ldpc::LdpcSession::make_context(ldpc::LdpcSessionConfig{});
  const auto make = [&](int codec) -> std::unique_ptr<RatelessSession> {
    switch (codec) {
      case 0:
        return std::make_unique<ldpc::LdpcSession>(ldpc::LdpcSessionConfig{}, ldpc_ctx);
      case 1: {
        turbo::TurboSessionConfig cfg;
        cfg.info_bits = 256;
        cfg.iterations = 4;
        return std::make_unique<turbo::TurboSession>(cfg);
      }
      default: {
        raptor::RaptorSessionConfig cfg;
        cfg.info_bits = 400;
        cfg.chunk_symbols = 24;
        cfg.bp_iterations = 30;
        return std::make_unique<raptor::RaptorSession>(cfg);
      }
    }
  };
  struct Pin {
    int codec;  // 0 LDPC, 1 turbo, 2 Raptor
    ChannelKind kind;
    double snr_db;
    std::uint64_t seed;
    bool success;
    long symbols;
    int attempts;
  };
  constexpr ChannelKind kAwgn = ChannelKind::kAwgn, kCsi = ChannelKind::kRayleighCsi;
  const Pin pins[] = {
      {0, kAwgn, -5.0, 1, true, 1296, 3}, {0, kAwgn, -4.0, 2, true, 1296, 3},
      {0, kCsi, -3.0, 3, true, 1296, 4},  {0, kCsi, -1.0, 4, true, 972, 3},
      {1, kAwgn, -5.0, 5, true, 1290, 2}, {1, kAwgn, -8.0, 6, true, 1935, 2},
      {1, kCsi, -6.0, 7, true, 1290, 2},  {1, kCsi, -4.0, 8, true, 1290, 2},
      {2, kAwgn, 10.0, 9, true, 168, 3},  {2, kAwgn, 15.0, 10, true, 120, 3},
      {2, kCsi, 12.0, 11, true, 192, 8},  {2, kCsi, 18.0, 12, true, 96, 4},
  };
  for (const Pin& pin : pins) {
    const auto s = make(pin.codec);
    ChannelSim ch(pin.kind, pin.snr_db, /*coherence=*/8, pin.seed);
    util::Xoshiro256 prng(pin.seed);
    const RunResult r = run_message(*s, ch, prng.random_bits(s->message_bits()));
    EXPECT_EQ(r.success, pin.success) << pin.codec << " seed " << pin.seed;
    EXPECT_EQ(r.symbols, pin.symbols) << pin.codec << " seed " << pin.seed;
    EXPECT_EQ(r.attempts, pin.attempts) << pin.codec << " seed " << pin.seed;
  }

  // One fixed LLR vector: a QPSK codeword through AWGN at 1.5 dB.
  util::Xoshiro256 prng(13);
  const util::BitVec cw = ldpc_ctx->encoder.encode(prng.random_bits(ldpc_ctx->encoder.info_bits()));
  const modem::QamModem qpsk(2);
  channel::AwgnChannel awgn(1.5, 14);
  std::vector<std::complex<float>> x = qpsk.modulate(cw);
  awgn.apply(x);
  std::vector<float> llrs;
  for (const auto& y : x) qpsk.demap_soft(y, awgn.noise_variance(), llrs);
  ASSERT_EQ(llrs.size(), cw.size());
  ldpc::BpWork work;
  const ldpc::BpResult full = ldpc_ctx->decoder.decode(llrs, 0, work);
  EXPECT_TRUE(full.checks_satisfied);
  EXPECT_EQ(full.iterations_used, 33);
  EXPECT_EQ(full.codeword, cw);
  const ldpc::BpResult capped = ldpc_ctx->decoder.decode(llrs, 3, work);
  EXPECT_FALSE(capped.checks_satisfied);
  EXPECT_EQ(capped.iterations_used, 3);
  EXPECT_EQ(capped.codeword.hamming_distance(cw), 40u);
  EXPECT_EQ(util::crc32(capped.codeword), 3242863341u);
  std::uint64_t posterior_hash = 0xcbf29ce484222325u;  // FNV-1a over the float bits
  for (const float l : work.posterior)
    posterior_hash = (posterior_hash ^ std::bit_cast<std::uint32_t>(l)) * 0x100000001b3u;
  EXPECT_EQ(posterior_hash, 10218704385854761962u);
}

}  // namespace
}  // namespace spinal::sim
