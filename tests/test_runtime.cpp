// Decode-runtime tests (src/runtime/): the deterministic mode's
// bit-identity against sequential run_message loops at several worker
// counts — over heterogeneous spinal CodeParams and channels AND over
// the non-spinal codec families (Strider, Raptor, LDPC, Turbo) —
// adaptive-effort correctness under load, admission-control
// backpressure, slot recycling (session memory bounded by the admission
// cap across many drain rounds), telemetry consistency (including the
// unpinned-decode counter), and the link-symbol SessionMux (against the
// inline link loop, and on the sessions' step path). These suites (plus
// test_experiment) also run under the ThreadSanitizer CI lane.

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "channel/awgn.h"
#include "ldpc/ldpc_session.h"
#include "raptor/raptor_session.h"
#include "runtime/adaptive.h"
#include "runtime/decode_service.h"
#include "runtime/session_mux.h"
#include "sim/bsc_session.h"
#include "sim/spinal_session.h"
#include "spinal/link.h"
#include "strider/strider_session.h"
#include "turbo/turbo_session.h"
#include "util/metrics.h"
#include "util/prng.h"

namespace spinal::runtime {
namespace {

// ---------------------------------------------------------- fixtures

CodeParams awgn_params() {
  CodeParams p;
  p.n = 64;
  p.B = 64;
  p.max_passes = 24;
  return p;
}

CodeParams narrow_params() {
  CodeParams p;
  p.n = 96;
  p.k = 3;
  p.B = 32;
  p.max_passes = 24;
  return p;
}

RuntimeOptions det_opts(int workers) {
  RuntimeOptions opt;
  opt.workers = workers;
  opt.deterministic = true;
  return opt;
}

RuntimeOptions basic_opts(int workers) {
  RuntimeOptions opt;
  opt.workers = workers;
  return opt;
}

CodeParams bsc_params() {
  CodeParams p;
  p.n = 64;
  p.c = 1;
  p.B = 64;
  p.max_passes = 32;
  return p;
}

/// One spec per index, cycling through heterogeneous params × channels
/// (AWGN at two SNRs, Rayleigh-with-CSI, BSC) with per-session seeds.
SessionSpec make_spec(int i) {
  util::Xoshiro256 prng(0x5EED0000u + static_cast<std::uint64_t>(i));
  SessionSpec spec;
  spec.channel.seed = 0xC0DE0000u + static_cast<std::uint64_t>(i);
  switch (i % 4) {
    case 0: {
      const CodeParams p = awgn_params();
      spec.make_session = [p] { return std::make_unique<sim::SpinalSession>(p); };
      spec.channel.kind = sim::ChannelKind::kAwgn;
      spec.channel.snr_db = 15.0;
      spec.message = prng.random_bits(p.n);
      break;
    }
    case 1: {
      const CodeParams p = narrow_params();
      spec.make_session = [p] { return std::make_unique<sim::SpinalSession>(p); };
      spec.channel.kind = sim::ChannelKind::kAwgn;
      spec.channel.snr_db = 8.0;
      spec.message = prng.random_bits(p.n);
      break;
    }
    case 2: {
      const CodeParams p = awgn_params();
      spec.make_session = [p] { return std::make_unique<sim::SpinalSession>(p); };
      spec.channel.kind = sim::ChannelKind::kRayleighCsi;
      spec.channel.snr_db = 18.0;
      spec.channel.coherence = 10;
      spec.message = prng.random_bits(p.n);
      break;
    }
    default: {
      const CodeParams p = bsc_params();
      spec.make_session = [p] { return std::make_unique<sim::BscSession>(p); };
      spec.channel.kind = sim::ChannelKind::kBsc;
      spec.channel.crossover = 0.03;
      spec.message = prng.random_bits(p.n);
      break;
    }
  }
  return spec;
}

/// The tag lanes are the only telemetry store: every counter of the
/// table and every histogram's count in the totals is the sum over
/// snap.tags.
void expect_lanes_partition_totals(const TelemetrySnapshot& snap) {
  Counters sum;
  std::uint64_t latency = 0, queue_wait = 0, assembly = 0, service = 0;
  for (const TagTelemetry& t : snap.tags) {
#define SPINAL_TEST_SUM(name, help) sum.name += t.counters.name;
    SPINAL_RUNTIME_COUNTERS(SPINAL_TEST_SUM)
#undef SPINAL_TEST_SUM
    latency += t.decode_latency_us.count();
    queue_wait += t.stages.queue_wait_us.count();
    assembly += t.stages.batch_assembly_us.count();
    service += t.stages.decode_service_us.count();
  }
#define SPINAL_TEST_EQ(name, help) \
  EXPECT_EQ(sum.name, snap.counters.name) << #name;
  SPINAL_RUNTIME_COUNTERS(SPINAL_TEST_EQ)
#undef SPINAL_TEST_EQ
  EXPECT_EQ(latency, snap.decode_latency_us.count());
  EXPECT_EQ(queue_wait, snap.stages.queue_wait_us.count());
  EXPECT_EQ(assembly, snap.stages.batch_assembly_us.count());
  EXPECT_EQ(service, snap.stages.decode_service_us.count());
}

// -------------------------------------------------- deterministic mode

TEST(Runtime, DeterministicBitIdenticalToSequential) {
  constexpr int kSessions = 16;
  std::vector<SessionReport> reference;
  for (int i = 0; i < kSessions; ++i)
    reference.push_back(run_sequential(make_spec(i)));

  for (int workers : {1, 2, 5, 8}) {
    RuntimeOptions opt;
    opt.workers = workers;
    opt.deterministic = true;
    DecodeService service(opt);
    for (int i = 0; i < kSessions; ++i) service.submit(make_spec(i));
    const std::vector<SessionReport> got = service.drain();

    ASSERT_EQ(got.size(), reference.size()) << "workers=" << workers;
    for (int i = 0; i < kSessions; ++i) {
      const sim::RunResult& a = reference[static_cast<std::size_t>(i)].run;
      const sim::RunResult& b = got[static_cast<std::size_t>(i)].run;
      EXPECT_EQ(a.success, b.success) << "workers=" << workers << " session=" << i;
      EXPECT_EQ(a.symbols, b.symbols) << "workers=" << workers << " session=" << i;
      EXPECT_EQ(a.chunks, b.chunks) << "workers=" << workers << " session=" << i;
      EXPECT_EQ(a.attempts, b.attempts)
          << "workers=" << workers << " session=" << i;
      EXPECT_EQ(got[static_cast<std::size_t>(i)].reduced_effort_attempts, 0);
      EXPECT_EQ(got[static_cast<std::size_t>(i)].full_effort_retries, 0);
    }
  }
}

// ----------------------------------------- cross-session batched decode

/// A same-key fleet (every session shares CodeParams, hence one batch
/// tag), so dequeue aggregation actually forms multi-session batches.
SessionSpec same_key_spec(int i) {
  const CodeParams p = awgn_params();
  util::Xoshiro256 prng(0xBA7C0000u + static_cast<std::uint64_t>(i));
  SessionSpec spec;
  spec.make_session = [p] { return std::make_unique<sim::SpinalSession>(p); };
  spec.channel.kind = sim::ChannelKind::kAwgn;
  spec.channel.snr_db = 12.0;
  spec.channel.seed = 0xBA7C1000u + static_cast<std::uint64_t>(i);
  spec.message = prng.random_bits(p.n);
  return spec;
}

TEST(Runtime, BatchedDeterministicBitIdenticalToSequential) {
  constexpr int kSessions = 32;
  std::vector<SessionReport> reference;
  for (int i = 0; i < kSessions; ++i)
    reference.push_back(run_sequential(same_key_spec(i)));

  // workers × {batching off, small batches + tiny window, full batches}:
  // ordered drain and every per-run counter must match the sequential
  // loop bit-for-bit in all of them.
  const std::vector<std::tuple<int, int, int>> grid = {
      {1, 1, 64}, {1, 4, 8}, {1, 16, 64}, {2, 5, 3}, {3, 16, 64}};
  for (const auto& [workers, max_batch, window] : grid) {
    RuntimeOptions opt;
    opt.workers = workers;
    opt.deterministic = true;
    opt.batch.max_batch = max_batch;
    opt.batch.window = window;
    DecodeService service(opt);
    for (int i = 0; i < kSessions; ++i) service.submit(same_key_spec(i));
    const std::vector<SessionReport> got = service.drain();

    ASSERT_EQ(got.size(), reference.size());
    std::uint64_t attempts = 0;
    for (int i = 0; i < kSessions; ++i) {
      const sim::RunResult& a = reference[static_cast<std::size_t>(i)].run;
      const sim::RunResult& b = got[static_cast<std::size_t>(i)].run;
      const auto label = [&] {
        return ::testing::Message() << "workers=" << workers << " max_batch="
                                    << max_batch << " window=" << window
                                    << " session=" << i;
      };
      EXPECT_EQ(a.success, b.success) << label();
      EXPECT_EQ(a.symbols, b.symbols) << label();
      EXPECT_EQ(a.chunks, b.chunks) << label();
      EXPECT_EQ(a.attempts, b.attempts) << label();
      EXPECT_GT(got[static_cast<std::size_t>(i)].decode_micros, 0.0) << label();
      attempts += static_cast<std::uint64_t>(b.attempts);
    }
    // Batched attempts keep the per-job telemetry contract: one latency
    // sample and one attempt count per session job, not per batch.
    const TelemetrySnapshot snap = service.telemetry();
    EXPECT_EQ(snap.counters.decode_attempts, attempts);
    EXPECT_EQ(snap.decode_latency_us.count(), attempts);
  }
}

TEST(Runtime, MixedKeyFleetBatchesStayDeterministic) {
  // Heterogeneous keys (two spinal AWGN layouts + Rayleigh-CSI + BSC):
  // aggregation must only ever group same-key jobs, and the result must
  // still match the sequential loop exactly — batch tags are per-params
  // AND per-channel-flavor (AWGN vs BSC share a workspace layout but
  // must not share batches).
  constexpr int kSessions = 24;
  std::vector<SessionReport> reference;
  for (int i = 0; i < kSessions; ++i)
    reference.push_back(run_sequential(make_spec(i)));

  RuntimeOptions opt;
  opt.workers = 2;
  opt.deterministic = true;
  opt.batch.max_batch = 8;
  DecodeService service(opt);
  for (int i = 0; i < kSessions; ++i) service.submit(make_spec(i));
  const std::vector<SessionReport> got = service.drain();
  ASSERT_EQ(got.size(), reference.size());
  for (int i = 0; i < kSessions; ++i) {
    const sim::RunResult& a = reference[static_cast<std::size_t>(i)].run;
    const sim::RunResult& b = got[static_cast<std::size_t>(i)].run;
    EXPECT_EQ(a.success, b.success) << i;
    EXPECT_EQ(a.symbols, b.symbols) << i;
    EXPECT_EQ(a.chunks, b.chunks) << i;
    EXPECT_EQ(a.attempts, b.attempts) << i;
  }
}

TEST(Runtime, AdaptiveModeBatchedFleetStillDecodes) {
  // Batching composes with the load-adaptive policy: a same-key flood
  // on few workers must still decode every session.
  RuntimeOptions opt;
  opt.workers = 2;
  opt.batch.max_batch = 8;
  DecodeService service(opt);
  constexpr int kSessions = 48;
  for (int i = 0; i < kSessions; ++i) {
    SessionSpec spec = same_key_spec(i);
    spec.channel.snr_db = 18.0;
    service.submit(std::move(spec));
  }
  const std::vector<SessionReport> got = service.drain();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kSessions));
  for (int i = 0; i < kSessions; ++i)
    EXPECT_TRUE(got[static_cast<std::size_t>(i)].run.success) << i;
}

// --------------------------------------------- error-path regressions

TEST(Runtime, ClosedQueueFailsSessionsInsteadOfLosingThem) {
  // Regression: the admission push used to ignore the queue's false
  // return, so a queue closed with a session mid-flight lost the
  // session silently and drain() deadlocked on completed_.
  DecodeService service(det_opts(1));
  DecodeServiceTestHook::close_queue(service);
  service.submit(make_spec(0));
  EXPECT_THROW(service.drain(), std::runtime_error);
  const auto got = service.drain();  // error already surfaced above
  ASSERT_EQ(got.size(), 1u);
  EXPECT_FALSE(got[0].run.success);
}

TEST(Runtime, TrySubmitThrowDoesNotInflatePeak) {
  // Regression: peak_in_flight_ counted the reservation of a session
  // whose construction then threw — the high-water mark must only ever
  // reflect admitted sessions.
  DecodeService service(det_opts(1));
  SessionSpec bad = make_spec(0);
  bad.engine.attempt_every = 0;  // MessageRun construction throws
  EXPECT_THROW(service.try_submit(std::move(bad)), std::invalid_argument);
  EXPECT_EQ(service.peak_in_flight(), 0);
  ASSERT_TRUE(service.try_submit(make_spec(0)).has_value());
  EXPECT_EQ(service.drain().size(), 1u);
  EXPECT_EQ(service.peak_in_flight(), 1);
}

/// A session whose decode always throws, for the error-path contract.
class ThrowingSession final : public sim::RatelessSession {
 public:
  int message_bits() const override { return 8; }
  void start(const util::BitVec&) override {}
  std::vector<std::complex<float>> next_chunk() override {
    return {std::complex<float>(1.0f, 0.0f)};
  }
  void receive_chunk(std::span<const std::complex<float>>,
                     std::span<const std::complex<float>>) override {}
  std::optional<util::BitVec> try_decode_with(sim::CodecWorkspace*, int) override {
    throw std::runtime_error("decoder blew up");
  }
  int max_chunks() const override { return 4; }
};

TEST(Runtime, ThrowingDecodeMarksReportFailedAndSurfacesError) {
  // Regression: the step's catch block used to re-derive the report from
  // the torn MessageRun (the finish path re-read result() mid-step); the
  // report must be marked failed explicitly and the error must reach
  // drain().
  DecodeService service(det_opts(1));
  SessionSpec spec;
  spec.make_session = [] { return std::make_unique<ThrowingSession>(); };
  spec.channel.kind = sim::ChannelKind::kAwgn;
  spec.channel.snr_db = 20.0;
  spec.channel.seed = 1;
  util::Xoshiro256 prng(2);
  spec.message = prng.random_bits(8);
  service.submit(std::move(spec));
  service.submit(make_spec(0));  // a healthy session still completes
  EXPECT_THROW(service.drain(), std::runtime_error);
  const auto got = service.drain();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_FALSE(got[0].run.success);
  EXPECT_EQ(got[0].message_bits, 8);
  EXPECT_TRUE(got[1].run.success);
  EXPECT_GE(service.telemetry().counters.sessions_failed, 1u);
}

// ------------------------------------------ non-spinal codec families

/// Shared heavy LDPC state: built once for the whole test binary so
/// spec factories stay cheap (and to exercise cross-thread sharing).
std::shared_ptr<const ldpc::LdpcContext> shared_ldpc_context() {
  static const std::shared_ptr<const ldpc::LdpcContext> ctx = [] {
    ldpc::LdpcSessionConfig cfg;
    cfg.bp_iterations = 30;
    return ldpc::LdpcSession::make_context(cfg);
  }();
  return ctx;
}

/// One spec per index, cycling Strider / Raptor / LDPC / Turbo with
/// per-session seeds — every family the runtime serves beyond spinal.
SessionSpec make_codec_spec(int i) {
  util::Xoshiro256 prng(0xC0DEC000u + static_cast<std::uint64_t>(i));
  SessionSpec spec;
  spec.channel.kind = sim::ChannelKind::kAwgn;
  spec.channel.seed = 0xC0DEC100u + static_cast<std::uint64_t>(i);
  switch (i % 4) {
    case 0: {  // Strider: small config (test_strider scale), SIC + turbo
      strider::StriderSessionConfig cfg;
      cfg.code.layers = 4;
      cfg.code.layer_bits = 60;
      cfg.code.turbo_iterations = 4;
      spec.make_session = [cfg] {
        return std::make_unique<strider::StriderSession>(cfg);
      };
      spec.channel.snr_db = 10.0;
      spec.message = prng.random_bits(cfg.code.message_bits());
      break;
    }
    case 1: {  // Raptor over QAM-256: LT + precode joint BP
      raptor::RaptorSessionConfig cfg;
      cfg.info_bits = 400;
      cfg.chunk_symbols = 24;
      cfg.bp_iterations = 30;
      spec.make_session = [cfg] {
        return std::make_unique<raptor::RaptorSession>(cfg);
      };
      spec.channel.snr_db = 22.0;
      spec.message = prng.random_bits(cfg.info_bits);
      break;
    }
    case 2: {  // LDPC: fixed-rate codeword rounds, chase combining
      ldpc::LdpcSessionConfig cfg;
      cfg.bp_iterations = 30;
      auto ctx = shared_ldpc_context();
      spec.make_session = [cfg, ctx] {
        return std::make_unique<ldpc::LdpcSession>(cfg, ctx);
      };
      spec.channel.snr_db = 5.0;
      spec.message = prng.random_bits(ctx->encoder.info_bits());
      break;
    }
    default: {  // Turbo: rate-1/5 base code, whole-block rounds
      turbo::TurboSessionConfig cfg;
      cfg.info_bits = 256;
      cfg.iterations = 4;
      spec.make_session = [cfg] {
        return std::make_unique<turbo::TurboSession>(cfg);
      };
      spec.channel.snr_db = 2.0;
      spec.message = prng.random_bits(cfg.info_bits);
      break;
    }
  }
  return spec;
}

TEST(Runtime, CodecSessionsDeterministicBitIdenticalToSequential) {
  constexpr int kSessions = 8;  // two of each family
  std::vector<SessionReport> reference;
  bool any_success = false;
  for (int i = 0; i < kSessions; ++i) {
    reference.push_back(run_sequential(make_codec_spec(i)));
    any_success |= reference.back().run.success;
  }
  EXPECT_TRUE(any_success);  // the grid is easy enough that some decode

  for (int workers : {1, 2, 5}) {
    DecodeService service(det_opts(workers));
    for (int i = 0; i < kSessions; ++i) service.submit(make_codec_spec(i));
    const std::vector<SessionReport> got = service.drain();

    ASSERT_EQ(got.size(), reference.size()) << "workers=" << workers;
    for (int i = 0; i < kSessions; ++i) {
      const sim::RunResult& a = reference[static_cast<std::size_t>(i)].run;
      const sim::RunResult& b = got[static_cast<std::size_t>(i)].run;
      EXPECT_EQ(a.success, b.success) << "workers=" << workers << " session=" << i;
      EXPECT_EQ(a.symbols, b.symbols) << "workers=" << workers << " session=" << i;
      EXPECT_EQ(a.chunks, b.chunks) << "workers=" << workers << " session=" << i;
      EXPECT_EQ(a.attempts, b.attempts)
          << "workers=" << workers << " session=" << i;
    }
  }
}

TEST(Runtime, UnpinnedDecodesAreCountedPerCodec) {
  // Raptor and Strider report no workspace key, so their attempts run
  // unpinned and the telemetry must say so; spinal and LDPC pin, so a
  // fleet of only those two families must count zero.
  DecodeService unpinned(det_opts(2));
  unpinned.submit(make_codec_spec(0));  // strider
  unpinned.submit(make_codec_spec(1));  // raptor
  ASSERT_EQ(unpinned.drain().size(), 2u);
  EXPECT_GT(unpinned.telemetry().counters.unpinned_decodes, 0u);

  DecodeService pinned(det_opts(2));
  pinned.submit(make_spec(0));        // spinal AWGN
  pinned.submit(make_codec_spec(2));  // ldpc
  ASSERT_EQ(pinned.drain().size(), 2u);
  const TelemetrySnapshot snap = pinned.telemetry();
  EXPECT_GT(snap.counters.decode_attempts, 0u);
  EXPECT_EQ(snap.counters.unpinned_decodes, 0u);
}

// ------------------------------------------------------- adaptive mode

TEST(Runtime, AdaptiveModeStillDecodesEveryInBudgetSession) {
  constexpr int kSessions = 48;
  RuntimeOptions opt;
  opt.workers = 2;
  DecodeService service(opt);

  const CodeParams p = awgn_params();
  for (int i = 0; i < kSessions; ++i) {
    util::Xoshiro256 prng(0xADA00000u + static_cast<std::uint64_t>(i));
    SessionSpec spec;
    spec.make_session = [p] { return std::make_unique<sim::SpinalSession>(p); };
    spec.channel.snr_db = 18.0;
    spec.channel.seed = 0xADAC0000u + static_cast<std::uint64_t>(i);
    spec.message = prng.random_bits(p.n);
    service.submit(std::move(spec));
  }
  const std::vector<SessionReport> got = service.drain();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kSessions));
  for (int i = 0; i < kSessions; ++i)
    EXPECT_TRUE(got[static_cast<std::size_t>(i)].run.success) << i;

  // 48 sessions landed on 2 workers before the queue could drain, so
  // the load policy must have shrunk at least some attempts.
  const TelemetrySnapshot snap = service.telemetry();
  EXPECT_GT(snap.counters.reduced_effort_attempts, 0u);
  EXPECT_EQ(snap.counters.sessions_completed, static_cast<std::uint64_t>(kSessions));
}

TEST(Adaptive, PickEffortShrinksWithDepthAndFloors) {
  static_assert(kIdleDepth == 1 && kDepthPerHalving == 32);
  // Session floor 16 (spinal's min-beam profile for B >= 16).
  EXPECT_EQ(pick_effort(256, 16, 0), 256);  // idle: full effort
  EXPECT_EQ(pick_effort(256, 16, 1), 256);
  EXPECT_EQ(pick_effort(256, 16, 2), 128);  // first halving step
  EXPECT_EQ(pick_effort(256, 16, 33), 128);
  EXPECT_EQ(pick_effort(256, 16, 34), 64);
  EXPECT_EQ(pick_effort(64, 16, 2), 32);    // any backlog shrinks B=64
  int prev = 256;
  for (std::size_t depth = 0; depth < 400; depth += 7) {
    const int e = pick_effort(256, 16, depth);
    EXPECT_LE(e, prev);  // monotone in depth
    EXPECT_GE(e, 16);    // floored
    prev = e;
  }
  EXPECT_EQ(pick_effort(256, 16, 4000), 16);
  EXPECT_EQ(pick_effort(8, 16, 4000), 8);   // floor clamps to full
  EXPECT_EQ(pick_effort(256, 0, 4000), 1);  // and to at least 1
  // A codec with no effort knob reports full = 0 and always gets the
  // "configured" sentinel back.
  EXPECT_EQ(pick_effort(0, 1, 4000), 0);
}

// ------------------------------------------- admission / backpressure

TEST(Runtime, AdmissionCapsSessionsInFlight) {
  RuntimeOptions opt;
  opt.workers = 2;
  opt.max_in_flight = 3;
  opt.deterministic = true;
  DecodeService service(opt);
  for (int i = 0; i < 12; ++i) service.submit(make_spec(i));
  const auto got = service.drain();
  EXPECT_EQ(got.size(), 12u);
  EXPECT_LE(service.peak_in_flight(), 3);
}

TEST(Runtime, TrySubmitRefusesAtCapacity) {
  RuntimeOptions opt;
  opt.workers = 1;
  opt.max_in_flight = 1;
  opt.deterministic = true;
  DecodeService service(opt);

  // Park the only worker on a task so the admitted session cannot
  // complete while we probe the admission control.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  service.post([gate](DecodeService::WorkerScope&) { gate.wait(); });

  service.submit(make_spec(0));
  EXPECT_FALSE(service.try_submit(make_spec(1)).has_value());
  release.set_value();
  service.submit(make_spec(1));  // capacity frees once session 0 finishes
  EXPECT_EQ(service.drain().size(), 2u);
}

TEST(Runtime, InvalidEngineOptionsRejectedAtSubmit) {
  DecodeService service(basic_opts(1));
  SessionSpec spec = make_spec(0);
  spec.engine.attempt_every = 0;
  EXPECT_THROW(service.submit(std::move(spec)), std::invalid_argument);
  SessionSpec spec2 = make_spec(1);
  spec2.engine.attempt_growth = 0.5;
  EXPECT_THROW(service.submit(std::move(spec2)), std::invalid_argument);
}

// -------------------------------------------------- drain + telemetry

TEST(Runtime, DrainIsOrderedAndServiceStaysUsable) {
  RuntimeOptions opt;
  opt.workers = 3;
  opt.deterministic = true;
  DecodeService service(opt);
  for (int i = 0; i < 4; ++i) service.submit(make_spec(i));
  EXPECT_EQ(service.drain().size(), 4u);
  for (int i = 4; i < 6; ++i) service.submit(make_spec(i));
  const auto got = service.drain();
  ASSERT_EQ(got.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    const SessionReport& r = got[static_cast<std::size_t>(i)];
    EXPECT_EQ(r.message_bits, i % 4 == 1 ? 96 : 64) << i;  // submission order kept
  }
}

TEST(Runtime, TelemetryCountsAndLatencyQuantilesAreConsistent) {
  RuntimeOptions opt;
  opt.workers = 2;
  opt.deterministic = true;
  DecodeService service(opt);
  for (int i = 0; i < 8; ++i) service.submit(make_spec(i));
  const auto got = service.drain();

  std::uint64_t attempts = 0;
  long symbols = 0;
  for (const SessionReport& r : got) {
    attempts += static_cast<std::uint64_t>(r.run.attempts);
    symbols += r.run.symbols;
    EXPECT_GT(r.decode_micros, 0.0);
  }
  const TelemetrySnapshot snap = service.telemetry();
  EXPECT_EQ(snap.counters.decode_attempts, attempts);
  EXPECT_EQ(snap.counters.symbols_fed, static_cast<std::uint64_t>(symbols));
  EXPECT_EQ(snap.counters.sessions_completed + snap.counters.sessions_failed, 8u);
  EXPECT_EQ(snap.decode_latency_us.count(), attempts);
  const double p50 = snap.decode_latency_us.quantile(0.50);
  const double p95 = snap.decode_latency_us.quantile(0.95);
  const double p99 = snap.decode_latency_us.quantile(0.99);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
}

TEST(Runtime, StageTelemetryDecomposesLatency) {
  RuntimeOptions opt;
  opt.workers = 2;
  opt.adapt.enabled = false;
  opt.batch.max_batch = 8;
  DecodeService service(opt);
  for (int i = 0; i < 24; ++i) service.submit(make_spec(i));
  service.drain();

  const TelemetrySnapshot snap = service.telemetry();
  // Queue-wait is head-attributed per claimed batch (add_n across the
  // batch), so its count is exactly the jobs executed.
  EXPECT_EQ(snap.stages.queue_wait_us.count(), snap.counters.jobs);
  // One batch-assembly record per claim that reached a decode; at least
  // one decode-service span follows each of those.
  EXPECT_GT(snap.stages.batch_assembly_us.count(), 0u);
  EXPECT_LE(snap.stages.batch_assembly_us.count(), snap.counters.jobs);
  EXPECT_GE(snap.stages.decode_service_us.count(),
            snap.stages.batch_assembly_us.count());
  // The per-attempt view keeps its original contract alongside.
  EXPECT_EQ(snap.decode_latency_us.count(), snap.counters.decode_attempts);
  for (const util::LatencyHistogram* h :
       {&snap.stages.queue_wait_us, &snap.stages.batch_assembly_us,
        &snap.stages.decode_service_us}) {
    EXPECT_LE(h->quantile(0.5), h->quantile(0.95));
    EXPECT_LE(h->quantile(0.95), h->quantile(0.99));
  }
}

TEST(Runtime, PerTagTelemetryBreaksDownByCodec) {
  RuntimeOptions opt;
  opt.workers = 2;
  opt.adapt.enabled = false;
  opt.batch.max_batch = 8;
  DecodeService service(opt);
  for (int i = 0; i < 24; ++i) service.submit(make_spec(i));
  service.drain();

  const TelemetrySnapshot snap = service.telemetry();
  // The mixed fleet spans several batch keys (two spinal parameter
  // sets, a Rayleigh variant, BSC) — each gets its own lane, and the
  // lanes partition the totals exactly.
  EXPECT_GE(snap.tags.size(), 2u);
  std::uint64_t jobs = 0, attempts = 0;
  bool saw_bsc = false;
  for (const TagTelemetry& tag : snap.tags) {
    EXPECT_FALSE(tag.label.empty());
    EXPECT_EQ(tag.stages.queue_wait_us.count(), tag.counters.jobs);
    EXPECT_EQ(tag.decode_latency_us.count(), tag.counters.decode_attempts);
    jobs += tag.counters.jobs;
    attempts += tag.counters.decode_attempts;
    if (tag.label.find("bsc") != std::string::npos) saw_bsc = true;
  }
  EXPECT_TRUE(saw_bsc);
  EXPECT_EQ(jobs, snap.counters.jobs);
  EXPECT_EQ(attempts, snap.counters.decode_attempts);
  expect_lanes_partition_totals(snap);
}

TEST(Runtime, ExportMetricsTracksALiveService) {
  // The library exporter runs on a sampler thread against a live
  // service; after the drain the registry holds exactly the spinal_*
  // schema, each counter equal to its snapshot field.
  RuntimeOptions opt;
  opt.workers = 2;
  opt.shards = 4;
  opt.batch.max_batch = 8;
  DecodeService service(opt);
  util::metrics::Registry reg;
  util::metrics::PeriodicSampler sampler(
      reg, std::chrono::milliseconds(1),
      [&] { export_metrics(service.telemetry(), reg); });
  for (int i = 0; i < 24; ++i) service.submit(make_spec(i));
  service.drain();
  sampler.stop();  // its final refresh exports the quiesced service

  using util::metrics::Kind;
  const std::map<std::string, Kind> schema = {
      {"spinal_jobs_total", Kind::kCounter},
      {"spinal_symbols_fed_total", Kind::kCounter},
      {"spinal_decode_attempts_total", Kind::kCounter},
      {"spinal_reduced_effort_attempts_total", Kind::kCounter},
      {"spinal_full_effort_retries_total", Kind::kCounter},
      {"spinal_unpinned_decodes_total", Kind::kCounter},
      {"spinal_sessions_completed_total", Kind::kCounter},
      {"spinal_sessions_failed_total", Kind::kCounter},
      {"spinal_bits_decoded_total", Kind::kCounter},
      {"spinal_queue_steals_total", Kind::kCounter},
      {"spinal_queue_stolen_jobs_total", Kind::kCounter},
      {"spinal_queue_cross_shard_submits_total", Kind::kCounter},
      {"spinal_tag_jobs_total", Kind::kCounter},
      {"spinal_tag_attempts_total", Kind::kCounter},
      {"spinal_queue_depth", Kind::kGauge},
      {"spinal_shard_depth", Kind::kGauge},
      {"spinal_decode_latency_us", Kind::kHistogram},
      {"spinal_stage_queue_wait_us", Kind::kHistogram},
      {"spinal_stage_batch_assembly_us", Kind::kHistogram},
      {"spinal_stage_decode_service_us", Kind::kHistogram},
      {"spinal_tag_queue_wait_us", Kind::kHistogram},
      {"spinal_tag_decode_service_us", Kind::kHistogram},
  };
  ASSERT_EQ(schema.size(), 22u);

  const TelemetrySnapshot snap = service.telemetry();
  std::map<std::string, double> counters = {
#define SPINAL_TEST_EXPECTED(name, help) \
  {"spinal_" #name "_total", static_cast<double>(snap.counters.name)},
      SPINAL_RUNTIME_COUNTERS(SPINAL_TEST_EXPECTED)
#undef SPINAL_TEST_EXPECTED
      {"spinal_queue_steals_total", static_cast<double>(snap.queue.steals)},
      {"spinal_queue_stolen_jobs_total",
       static_cast<double>(snap.queue.stolen_jobs)},
      {"spinal_queue_cross_shard_submits_total",
       static_cast<double>(snap.queue.cross_shard_submits)},
  };
  for (const TagTelemetry& t : snap.tags) {
    const std::string label = "{tag=\"" + t.label + "\"}";
    counters["spinal_tag_jobs_total" + label] =
        static_cast<double>(t.counters.jobs);
    counters["spinal_tag_attempts_total" + label] =
        static_cast<double>(t.counters.decode_attempts);
  }

  std::map<std::string, Kind> families;
  std::size_t exported_counters = 0;
  for (const util::metrics::Sample& s : reg.collect()) {
    families.emplace(s.name, s.kind);
    if (s.kind != Kind::kCounter) continue;
    ++exported_counters;
    const std::string key =
        s.labels.empty() ? s.name : s.name + "{" + s.labels + "}";
    ASSERT_TRUE(counters.count(key)) << key;
    EXPECT_EQ(s.value, counters.at(key)) << key;
  }
  EXPECT_EQ(families, schema);
  EXPECT_EQ(exported_counters, counters.size());
  EXPECT_GT(snap.counters.jobs, 0u);
}

TEST(Runtime, TracerIsOffByDefault) {
  DecodeService service(basic_opts(1));
  EXPECT_EQ(service.tracer(), nullptr);
}

#if SPINAL_RUNTIME_TRACE
TEST(Runtime, TraceExportCapturesPipelineEvents) {
  constexpr int kSessions = 12;
  RuntimeOptions opt;
  opt.workers = 2;
  opt.batch.max_batch = 8;
  opt.trace.enabled = true;
  DecodeService service(opt);
  ASSERT_NE(service.tracer(), nullptr);
  for (int i = 0; i < kSessions; ++i) service.submit(make_spec(i));
  service.drain();

  std::ostringstream os;
  service.tracer()->export_json(os);
  const std::string json = os.str();
  for (const char* name :
       {"submit", "queue_wait", "claim", "feed", "decode", "complete"})
    EXPECT_NE(json.find("\"" + std::string(name) + "\""), std::string::npos)
        << name;
  // Exactly one completion instant per drained session (the default
  // 32k-event ring cannot have wrapped on a fleet this small).
  EXPECT_EQ(service.tracer()->dropped(), 0u);
  std::size_t completes = 0;
  for (std::size_t p = json.find("\"complete\""); p != std::string::npos;
       p = json.find("\"complete\"", p + 1))
    ++completes;
  EXPECT_EQ(completes, static_cast<std::size_t>(kSessions));
}
#endif  // SPINAL_RUNTIME_TRACE

// ------------------------------------------------ sharded queue modes
// (The queue-level unit tests live in test_job_queue.cpp; these cover
// the DecodeService-level contracts across shard counts.)

TEST(Runtime, ShardedDeterministicBitIdenticalToSequential) {
  // Deterministic mode forces a single ordered shard no matter what the
  // shards knob says, so the bit-identity guarantee must hold at every
  // workers × shards combination.
  constexpr int kSessions = 16;
  std::vector<SessionReport> reference;
  for (int i = 0; i < kSessions; ++i)
    reference.push_back(run_sequential(make_spec(i)));

  for (int workers : {1, 2, 4, 8}) {
    for (int shards : {1, 5}) {
      RuntimeOptions opt;
      opt.workers = workers;
      opt.shards = shards;
      opt.deterministic = true;
      opt.batch.max_batch = 8;
      DecodeService service(opt);
      for (int i = 0; i < kSessions; ++i) service.submit(make_spec(i));
      const std::vector<SessionReport> got = service.drain();

      ASSERT_EQ(got.size(), reference.size());
      for (int i = 0; i < kSessions; ++i) {
        const sim::RunResult& a = reference[static_cast<std::size_t>(i)].run;
        const sim::RunResult& b = got[static_cast<std::size_t>(i)].run;
        const auto label = [&] {
          return ::testing::Message() << "workers=" << workers
                                      << " shards=" << shards
                                      << " session=" << i;
        };
        EXPECT_EQ(a.success, b.success) << label();
        EXPECT_EQ(a.symbols, b.symbols) << label();
        EXPECT_EQ(a.chunks, b.chunks) << label();
        EXPECT_EQ(a.attempts, b.attempts) << label();
      }
      // Deterministic = one shard, regardless of the knob.
      EXPECT_EQ(service.telemetry().queue.shard_depths.size(), 1u);
    }
  }
}

TEST(Runtime, ShardedNonDeterministicWithAdaptOffMatchesSequential) {
  // With adaptation disabled every attempt runs at configured effort and
  // sessions are independent seeded state machines — so even the
  // non-deterministic sharded/stealing service must reproduce the
  // sequential results exactly. (This is the property the 10k-session
  // benchmark's cross-mode identity check rests on.)
  constexpr int kSessions = 24;
  std::vector<SessionReport> reference;
  for (int i = 0; i < kSessions; ++i)
    reference.push_back(run_sequential(make_spec(i)));

  RuntimeOptions opt;
  opt.workers = 3;
  opt.shards = 5;  // more shards than workers: orphan shards stealable
  opt.adapt.enabled = false;
  opt.batch.max_batch = 8;
  DecodeService service(opt);
  for (int i = 0; i < kSessions; ++i) service.submit(make_spec(i));
  const std::vector<SessionReport> got = service.drain();
  ASSERT_EQ(got.size(), reference.size());
  for (int i = 0; i < kSessions; ++i) {
    const sim::RunResult& a = reference[static_cast<std::size_t>(i)].run;
    const sim::RunResult& b = got[static_cast<std::size_t>(i)].run;
    EXPECT_EQ(a.success, b.success) << i;
    EXPECT_EQ(a.symbols, b.symbols) << i;
    EXPECT_EQ(a.chunks, b.chunks) << i;
    EXPECT_EQ(a.attempts, b.attempts) << i;
  }
  const TelemetrySnapshot snap = service.telemetry();
  EXPECT_EQ(snap.queue.shard_depths.size(), 5u);
  for (const std::size_t d : snap.queue.shard_depths) EXPECT_EQ(d, 0u);
  // Orphan shards (5 shards, 3 workers) are only reachable by stealing,
  // and external submits land off-home by definition.
  EXPECT_GT(snap.queue.cross_shard_submits, 0u);
}

TEST(Runtime, ShardedClosedQueueFailsSessionsInsteadOfLosingThem) {
  // The PR 8 closed-queue regression re-stated under sharding: a refused
  // push must fail the session loudly on whichever shard it targeted.
  RuntimeOptions opt = det_opts(1);
  opt.deterministic = false;
  opt.adapt.enabled = false;
  opt.shards = 4;
  DecodeService service(opt);
  DecodeServiceTestHook::close_queue(service);
  service.submit(make_spec(0));
  service.submit(make_spec(1));
  EXPECT_THROW(service.drain(), std::runtime_error);
  const auto got = service.drain();  // error already surfaced above
  ASSERT_EQ(got.size(), 2u);
  EXPECT_FALSE(got[0].run.success);
  EXPECT_FALSE(got[1].run.success);
}

// ------------------------------------------------ bounded session memory

/// Session objects currently alive, counted by CountedBscSession.
std::atomic<int> g_live_sessions{0};

class CountedBscSession final : public sim::BscSession {
 public:
  explicit CountedBscSession(const CodeParams& p) : sim::BscSession(p) {
    g_live_sessions.fetch_add(1);
  }
  ~CountedBscSession() override { g_live_sessions.fetch_sub(1); }
};

/// A tiny BSC session (n = 4 or 8, B = 2) over 32 batch keys: decode is
/// nearly free, so a long run of them exercises admission, slot reuse
/// and the report log rather than the decoder.
SessionSpec tiny_bsc_spec(int i) {
  CodeParams p;
  p.n = 4 + 4 * ((i / 16) % 2);
  p.c = 1;
  p.B = 2;
  p.max_passes = 32 + i % 16;
  util::Xoshiro256 prng(0x7151E000u + static_cast<std::uint64_t>(i));
  SessionSpec spec;
  spec.make_session = [p] { return std::make_unique<CountedBscSession>(p); };
  spec.channel.kind = sim::ChannelKind::kBsc;
  spec.channel.crossover = 0.02;
  spec.channel.seed = 0x7151F000u + static_cast<std::uint64_t>(i);
  spec.message = prng.random_bits(p.n);
  return spec;
}

TEST(Runtime, SlotsRecycleAcrossRoundsAndReportsStayOrdered) {
  // Many more sessions than max_in_flight, served in repeated
  // submit/drain rounds: the slot table must stay within the admission
  // cap (memory O(in flight), not O(submitted)), every session object
  // must be gone by the time drain() returns, and drain() must still
  // return every report since construction, in id order, bit-identical
  // to the sequential loop.
  constexpr int kRounds = 200;
  constexpr int kSessions = 500;
  constexpr int kCap = 64;
  std::vector<SessionSpec> specs;
  std::vector<SessionReport> reference;
  for (int i = 0; i < kSessions; ++i) {
    specs.push_back(tiny_bsc_spec(i));
    reference.push_back(run_sequential(specs.back()));
  }
  ASSERT_EQ(g_live_sessions.load(), 0);

  RuntimeOptions opt = det_opts(2);
  opt.max_in_flight = kCap;
  DecodeService service(opt);
  for (int round = 0; round < kRounds; ++round) {
    for (const SessionSpec& spec : specs) service.submit(spec);
    EXPECT_LE(DecodeServiceTestHook::slot_capacity(service),
              static_cast<std::size_t>(kCap));
    const std::vector<SessionReport> got = service.drain();
    ASSERT_EQ(g_live_sessions.load(), 0) << "round " << round;
    ASSERT_EQ(got.size(), static_cast<std::size_t>((round + 1) * kSessions));
    std::size_t mismatches = 0;
    for (std::size_t j = 0; j < got.size(); ++j) {
      const SessionReport& a = reference[j % kSessions];
      const SessionReport& b = got[j];
      mismatches += a.run.success != b.run.success || a.run.symbols != b.run.symbols ||
                    a.run.chunks != b.run.chunks || a.run.attempts != b.run.attempts ||
                    a.message_bits != b.message_bits;
    }
    ASSERT_EQ(mismatches, 0u) << "round " << round;
  }
  EXPECT_GT(DecodeServiceTestHook::slot_capacity(service), 0u);
  EXPECT_LE(service.peak_in_flight(), kCap);
}

// --------------------------------------------------------- SessionMux

CodeParams link_params() {
  CodeParams p;
  p.n = 256;
  p.B = 64;
  p.max_passes = 32;
  return p;
}

std::vector<std::uint8_t> random_datagram(std::size_t bytes, std::uint64_t seed) {
  util::Xoshiro256 prng(seed);
  std::vector<std::uint8_t> out(bytes);
  for (auto& b : out) b = static_cast<std::uint8_t>(prng.next_u64());
  return out;
}

/// Drives one datagram through sender -> AWGN -> mux until every block
/// ACKs (or the sender gives up). Returns the mux session id.
SessionMux::SessionId drive_datagram(SessionMux& mux, const CodeParams& p,
                                     const std::vector<std::uint8_t>& datagram,
                                     double snr_db, std::uint64_t seed) {
  LinkSender sender(p, datagram);
  const SessionMux::SessionId id = mux.open(p, sender.block_count());
  channel::AwgnChannel channel(snr_db, seed);
  while (!sender.done() && !sender.gave_up()) {
    for (LinkSymbol s : sender.next_burst()) {
      s.value = channel.transmit(s.value);
      mux.ingest(id, s);
    }
    mux.pause_point(id);
    mux.wait_idle();  // lock-step driver: decode completes before the ACK
    sender.handle_ack(mux.current_ack(id));
  }
  return id;
}

TEST(SessionMux, MultiBlockDatagramRoundTrip) {
  DecodeService service(det_opts(2));
  SessionMux mux(service);
  const CodeParams p = link_params();
  const auto datagram = random_datagram(60, 7);  // 480 bits -> 2 blocks
  const auto id = drive_datagram(mux, p, datagram, 15.0, 71);
  ASSERT_TRUE(mux.done(id));
  auto out = mux.datagram(id);
  ASSERT_TRUE(out.has_value());
  out->resize(datagram.size());  // strip block padding
  EXPECT_EQ(*out, datagram);
  EXPECT_FALSE(mux.poll_acks().empty());  // feedback events were emitted
}

TEST(SessionMux, SingleBlockDatagram) {
  DecodeService service(det_opts(1));
  SessionMux mux(service);
  const CodeParams p = link_params();
  const auto datagram = random_datagram(20, 8);  // 160 bits -> one block
  const auto id = drive_datagram(mux, p, datagram, 15.0, 72);
  ASSERT_TRUE(mux.done(id));
  auto out = mux.datagram(id);
  ASSERT_TRUE(out.has_value());
  out->resize(datagram.size());
  EXPECT_EQ(*out, datagram);
}

TEST(SessionMux, ConcurrentSessionsInterleave) {
  DecodeService service(det_opts(3));
  SessionMux mux(service);
  const CodeParams p = link_params();

  // Three sessions fed round-robin through one mux; all must complete.
  std::vector<LinkSender> senders;
  std::vector<SessionMux::SessionId> ids;
  std::vector<std::vector<std::uint8_t>> datagrams;
  std::vector<channel::AwgnChannel> channels;
  for (int s = 0; s < 3; ++s) {
    datagrams.push_back(random_datagram(40 + 20 * static_cast<std::size_t>(s),
                                        100 + static_cast<std::uint64_t>(s)));
    senders.emplace_back(p, datagrams.back());
    ids.push_back(mux.open(p, senders.back().block_count()));
    channels.emplace_back(15.0, 200 + static_cast<std::uint64_t>(s));
  }
  bool progress = true;
  while (progress) {
    progress = false;
    for (int s = 0; s < 3; ++s) {
      if (senders[s].done() || senders[s].gave_up()) continue;
      progress = true;
      for (LinkSymbol sym : senders[s].next_burst()) {
        sym.value = channels[s].transmit(sym.value);
        mux.ingest(ids[s], sym);
      }
      mux.pause_point(ids[s]);
    }
    mux.wait_idle();
    for (int s = 0; s < 3; ++s)
      senders[s].handle_ack(mux.current_ack(ids[s]));
  }
  for (int s = 0; s < 3; ++s) {
    ASSERT_TRUE(mux.done(ids[s])) << s;
    auto out = mux.datagram(ids[s]);
    ASSERT_TRUE(out.has_value()) << s;
    out->resize(datagrams[s].size());
    EXPECT_EQ(*out, datagrams[s]) << s;
  }
}

TEST(SessionMux, StaleSymbolsAfterAckAreDroppedAndCounted) {
  DecodeService service(det_opts(1));
  SessionMux mux(service);
  const CodeParams p = link_params();
  const auto datagram = random_datagram(20, 9);
  const auto id = drive_datagram(mux, p, datagram, 20.0, 73);
  ASSERT_TRUE(mux.done(id));
  const std::uint64_t before = mux.stale_symbols();
  mux.ingest(id, LinkSymbol{0, {0, 0}, {0.5f, 0.5f}});  // block 0 already ACKed
  EXPECT_EQ(mux.stale_symbols(), before + 1);
  EXPECT_TRUE(mux.done(id));  // unchanged
}

TEST(SessionMux, SymbolsBufferedMidDecodeGetTheirAttempt) {
  // Regression: symbols that arrive while a block's decode is in flight
  // are buffered; if the attempt fails, the buffered symbols must be
  // applied *and decoded* in the same task — a sender that has already
  // paused for good will never trigger another pause_point.
  DecodeService service(det_opts(1));
  SessionMux mux(service);
  const CodeParams p = link_params();
  const auto datagram = random_datagram(20, 14);  // one block
  LinkSender sender(p, datagram);
  const auto id = mux.open(p, sender.block_count());

  // Park the only worker so the scheduled decode cannot start yet.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  service.post([gate](DecodeService::WorkerScope&) { gate.wait(); });

  // One subpass of clean symbols: far too few for a 256-bit block, so
  // the first attempt must fail its CRC.
  for (const LinkSymbol& s : sender.next_burst()) mux.ingest(id, s);
  mux.pause_point(id);  // claims the block; decode queued behind the gate

  // Two full passes of clean symbols arrive mid-decode: these buffer.
  for (int burst = 0; burst < 16; ++burst)
    for (const LinkSymbol& s : sender.next_burst()) mux.ingest(id, s);

  release.set_value();
  mux.wait_idle();
  EXPECT_TRUE(mux.done(id));  // decoded without any further pause_point
  auto out = mux.datagram(id);
  ASSERT_TRUE(out.has_value());
  out->resize(datagram.size());
  EXPECT_EQ(*out, datagram);
}

/// Per-link outcome of a link run: the fields both drivers must agree on.
struct LinkOutcome {
  bool done = false;
  long symbols_sent = 0;
  std::optional<std::vector<std::uint8_t>> datagram;
  std::int64_t attempts = 0;
  bool operator==(const LinkOutcome&) const = default;
};

/// The inline reference: LinkSender -> AWGN -> LinkReceiver::make_ack.
LinkOutcome sequential_link(const CodeParams& p,
                            const std::vector<std::uint8_t>& datagram,
                            double snr_db, std::uint64_t seed) {
  LinkSender sender(p, datagram);
  LinkReceiver receiver(p, sender.block_count());
  channel::AwgnChannel channel(snr_db, seed);
  while (!sender.done() && !sender.gave_up()) {
    for (LinkSymbol s : sender.next_burst()) {
      s.value = channel.transmit(s.value);
      receiver.receive(s);
    }
    sender.handle_ack(receiver.make_ack());
  }
  return {sender.done(), sender.symbols_sent(), receiver.datagram(),
          receiver.attempts()};
}

TEST(SessionMux, LockStepMatchesSequentialLinkLoop) {
  // Eight links in lock-step frames — every link sends a burst and
  // pauses, then all wait for their ACKs — through a 3-worker
  // deterministic service with batching on: each link's outcome,
  // decode attempts included, must equal the inline decode loop's,
  // batched or not. At 5 and 10 dB the capacity gate skips attempts,
  // and both drivers must skip the same ones.
  constexpr std::size_t kLinks = 8;
  const CodeParams p = link_params();
  for (double snr_db : {5.0, 8.0, 10.0}) {
    RuntimeOptions opt = det_opts(3);
    opt.batch.max_batch = 16;
    DecodeService service(opt);
    SessionMux mux(service);

    std::vector<std::vector<std::uint8_t>> datagrams;
    std::vector<LinkSender> senders;
    std::vector<channel::AwgnChannel> channels;
    std::vector<SessionMux::SessionId> ids;
    for (std::size_t s = 0; s < kLinks; ++s) {
      datagrams.push_back(random_datagram(30 + 15 * s, 500 + s));
      senders.emplace_back(p, datagrams.back());
      channels.emplace_back(snr_db, 600 + s);
      ids.push_back(mux.open(p, senders.back().block_count()));
    }
    for (bool open = true; open;) {
      open = false;
      for (std::size_t s = 0; s < kLinks; ++s) {
        if (senders[s].done() || senders[s].gave_up()) continue;
        open = true;
        for (LinkSymbol sym : senders[s].next_burst()) {
          sym.value = channels[s].transmit(sym.value);
          mux.ingest(ids[s], sym);
        }
        mux.pause_point(ids[s]);
      }
      mux.wait_idle();
      for (std::size_t s = 0; s < kLinks; ++s)
        senders[s].handle_ack(mux.current_ack(ids[s]));
    }
    for (std::size_t s = 0; s < kLinks; ++s) {
      const LinkOutcome got{senders[s].done(), senders[s].symbols_sent(),
                            mux.datagram(ids[s]), mux.attempts(ids[s])};
      EXPECT_TRUE(got.done) << snr_db << " dB, link " << s;
      EXPECT_EQ(got, sequential_link(p, datagrams[s], snr_db, 600 + s))
          << snr_db << " dB, link " << s;
    }
  }
}

TEST(SessionMux, ReducedEffortAttemptsLeaveTheNoiseEstimate) {
  // A shrunk beam's path cost reads high, so only full-effort attempts
  // feed a link's noise estimate. With load adaptation on and a deep
  // queue, the probe link's one attempt runs shrunk: its estimate must
  // stay unset, where the same attempt at full effort sets it.
  const CodeParams p = link_params();
  const auto run = [&](bool adapt) {
    RuntimeOptions opt = basic_opts(1);
    opt.batch.max_batch = 1;
    opt.adapt.enabled = adapt;
    DecodeService service(opt);
    SessionMux mux(service);
    LinkSender probe(p, random_datagram(20, 31));    // one block
    LinkSender filler(p, random_datagram(240, 32));  // nine blocks
    const auto probe_id = mux.open(p, probe.block_count());
    const auto filler_id = mux.open(p, filler.block_count());
    channel::AwgnChannel ch_probe(10.0, 33), ch_filler(10.0, 34);
    for (int burst = 0; burst < 16; ++burst) {
      for (LinkSymbol s : probe.next_burst()) {
        s.value = ch_probe.transmit(s.value);
        mux.ingest(probe_id, s);
      }
      for (LinkSymbol s : filler.next_burst()) {
        s.value = ch_filler.transmit(s.value);
        mux.ingest(filler_id, s);
      }
    }
    // Park the only worker so the filler's attempts queue up behind the
    // probe's: the probe's attempt then sees a deep queue.
    std::promise<void> release;
    std::shared_future<void> gate(release.get_future());
    service.post([gate](DecodeService::WorkerScope&) { gate.wait(); });
    mux.pause_point(probe_id);
    mux.pause_point(filler_id);
    release.set_value();
    mux.wait_idle();
    EXPECT_EQ(mux.attempts(probe_id), 1);
    return std::pair{mux.noise_estimate(probe_id),
                     service.telemetry().counters.reduced_effort_attempts};
  };
  const auto [shrunk_noise, shrunk_attempts] = run(true);
  const auto [full_noise, full_attempts] = run(false);
  EXPECT_GE(shrunk_attempts, 1u);
  EXPECT_EQ(shrunk_noise, 0.0);
  EXPECT_EQ(full_attempts, 0u);
  EXPECT_GT(full_noise, 0.0);
}

TEST(SessionMux, AttemptsRideTheStepPath) {
  // Mux block attempts are stepped like sessions: claimed and batched,
  // timed by the stage telemetry, counted in their own tag lane and
  // traced as decode spans.
  RuntimeOptions opt = basic_opts(2);
  opt.trace.enabled = true;
  DecodeService service(opt);
  SessionMux mux(service);
  const CodeParams p = link_params();
  for (std::uint64_t s = 0; s < 3; ++s) {
    const auto datagram = random_datagram(60, 40 + s);
    ASSERT_TRUE(mux.done(drive_datagram(mux, p, datagram, 12.0, 50 + s)));
  }

  const TelemetrySnapshot snap = service.telemetry();
  EXPECT_GT(snap.counters.decode_attempts, 0u);
  EXPECT_GT(snap.stages.batch_assembly_us.count(), 0u);
  EXPECT_EQ(snap.decode_latency_us.count(), snap.counters.decode_attempts);
  ASSERT_EQ(snap.tags.size(), 1u);
  EXPECT_EQ(snap.tags[0].label.rfind("spinal.link/", 0), 0u)
      << snap.tags[0].label;
  EXPECT_EQ(snap.tags[0].counters.decode_attempts,
            snap.counters.decode_attempts);
  expect_lanes_partition_totals(snap);

#if SPINAL_RUNTIME_TRACE
  ASSERT_NE(service.tracer(), nullptr);
  std::ostringstream os;
  service.tracer()->export_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"name\": \"decode\""), std::string::npos);
  EXPECT_EQ(json.find("\"name\": \"task\""), std::string::npos);
#endif
}

TEST(SessionMux, BadIdsThrow) {
  DecodeService service(basic_opts(1));
  SessionMux mux(service);
  EXPECT_THROW(mux.ingest(0, LinkSymbol{0, {0, 0}, {0.f, 0.f}}), std::out_of_range);
  const auto id = mux.open(link_params(), 2);
  EXPECT_THROW(mux.ingest(id, LinkSymbol{5, {0, 0}, {0.f, 0.f}}), std::out_of_range);
  EXPECT_THROW(mux.open(link_params(), 0), std::invalid_argument);
}

}  // namespace
}  // namespace spinal::runtime
