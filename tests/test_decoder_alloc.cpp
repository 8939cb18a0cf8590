// Verifies the zero-steady-state-allocation contract: after the first
// decode attempt has grown the DecodeWorkspace to its high-water marks,
// repeated decode_into() calls must not touch the heap at all — under
// EVERY kernel backend (the SIMD kernels reuse the same caller-sized
// scratch, so switching backends must not regress workspace reuse) —
// and a decoder allocates its private workspace only on its first
// decode_into(), never when it only decodes in a caller's workspace.
// The session layer keeps the same discipline: a session's feed
// allocates only the chunk vector next_chunk() returns (plus amortized
// symbol-store growth), and a batched attempt on a warmed pinned
// workspace allocates nothing.
//
// Global operator new/delete are replaced with counting versions in this
// test binary only; the counter is read around the steady-state loop.
// Under ASan the allocator is interposed and may allocate internally,
// so the exact-zero checks are skipped there (the sanitizer lane checks
// memory safety instead; this lane checks allocation discipline).

#include <atomic>
#include <bit>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "backend/backend.h"
#include "channel/awgn.h"
#include "channel/bsc.h"
#include "sim/bsc_session.h"
#include "sim/channel_sim.h"
#include "sim/engine.h"
#include "sim/spinal_session.h"
#include "spinal/decoder.h"
#include "spinal/encoder.h"
#include "spinal/link.h"
#include "util/prng.h"

#if defined(__SANITIZE_ADDRESS__)
#define SPINAL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SPINAL_ASAN 1
#endif
#endif

#if defined(SPINAL_ASAN)
#define SPINAL_SKIP_UNDER_ASAN() \
  GTEST_SKIP() << "allocation counting is not meaningful under ASan"
#else
#define SPINAL_SKIP_UNDER_ASAN() (void)0
#endif

namespace {
std::atomic<long> g_allocations{0};
/// Allocations exactly the size of a decoder's private workspace.
std::atomic<long> g_workspace_allocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == sizeof(spinal::detail::DecodeWorkspace))
    g_workspace_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Kept out of line, as is operator new: inlined into a caller next to a
// new-expression, the malloc()/free() would trip GCC's
// mismatched-new-delete check.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace spinal {
namespace {

template <class Body>
long allocations_during(Body&& body) {
  const long before = g_allocations.load(std::memory_order_relaxed);
  body();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// Runs @p body once per available kernel backend (forcing each in
/// turn), restoring the original backend afterwards. The body receives
/// the backend name for assertion messages.
template <class Body>
void for_each_backend(Body&& body) {
  const char* const original = backend::active().name;
  for (const backend::Backend* b : backend::available()) {
    ASSERT_TRUE(backend::force(b->name));
    body(b->name);
  }
  backend::force(original);
}

TEST(DecoderAlloc, CounterSeesHeapTraffic) {
  // Guards against the override silently not linking: a fresh vector
  // growth must be visible, or every zero-allocation check is vacuous.
  const long n = allocations_during([] {
    std::vector<int> v(1000);
    ASSERT_NE(v.data(), nullptr);
  });
  EXPECT_GT(n, 0);
}

TEST(DecoderAlloc, AwgnSteadyStateDecodeIsAllocationFree) {
  SPINAL_SKIP_UNDER_ASAN();
  CodeParams p;
  p.n = 256;
  p.B = 64;
  util::Xoshiro256 prng(41);
  const SpinalEncoder enc(p, prng.random_bits(p.n));
  SpinalDecoder dec(p);
  channel::AwgnChannel ch(10.0, 141);
  const PuncturingSchedule sched(p);
  for (int sp = 0; sp < 2 * sched.subpasses_per_pass(); ++sp)
    for (const SymbolId& id : sched.subpass(sp))
      dec.add_symbol(id, ch.transmit(enc.symbol(id)));

  DecodeResult out;
  dec.decode_into(out);  // warm-up: workspace reaches high-water capacity
  const util::BitVec first = out.message;

  for_each_backend([&](const char* name) {
    dec.decode_into(out);  // warm-up this backend's scratch shape
    const long n = allocations_during([&] {
      for (int i = 0; i < 20; ++i) dec.decode_into(out);
    });
    EXPECT_EQ(n, 0) << "heap allocations in steady-state decode, backend=" << name;
    EXPECT_EQ(out.message, first) << name;  // backends agree bit-for-bit
  });
}

TEST(DecoderAlloc, AwgnDeepBubbleSteadyStateIsAllocationFree) {
  SPINAL_SKIP_UNDER_ASAN();
  CodeParams p;
  p.n = 96;
  p.k = 3;
  p.B = 16;
  p.d = 3;  // multi-leaf path: cand/path buffers in play
  util::Xoshiro256 prng(42);
  const SpinalEncoder enc(p, prng.random_bits(p.n));
  SpinalDecoder dec(p);
  channel::AwgnChannel ch(10.0, 142);
  const PuncturingSchedule sched(p);
  for (int sp = 0; sp < 2 * sched.subpasses_per_pass(); ++sp)
    for (const SymbolId& id : sched.subpass(sp))
      dec.add_symbol(id, ch.transmit(enc.symbol(id)));

  DecodeResult out;
  for_each_backend([&](const char* name) {
    dec.decode_into(out);
    const long n = allocations_during([&] {
      for (int i = 0; i < 10; ++i) dec.decode_into(out);
    });
    EXPECT_EQ(n, 0) << name;
  });
}

TEST(DecoderAlloc, BscSteadyStateDecodeIsAllocationFree) {
  SPINAL_SKIP_UNDER_ASAN();
  CodeParams p;
  p.n = 128;
  p.B = 32;
  p.c = 1;
  util::Xoshiro256 prng(43);
  const BscSpinalEncoder enc(p, prng.random_bits(p.n));
  BscSpinalDecoder dec(p);
  channel::BscChannel ch(0.05, 143);
  const PuncturingSchedule sched(p);
  for (int sp = 0; sp < 6 * sched.subpasses_per_pass(); ++sp)
    for (const SymbolId& id : sched.subpass(sp)) dec.add_symbol(id, ch.transmit(enc.symbol(id)));

  DecodeResult out;
  for_each_backend([&](const char* name) {
    dec.decode_into(out);
    const long n = allocations_during([&] {
      for (int i = 0; i < 20; ++i) dec.decode_into(out);
    });
    EXPECT_EQ(n, 0) << name;
  });
}

/// Feeds @p dec, decodes in a caller workspace (the runtime's path),
/// then through decode_into(): only the latter may allocate the
/// decoder's private workspace, exactly once, and decode_into() is
/// allocation-free from then on.
template <class Decoder, class Feed>
void expect_workspace_allocated_on_first_decode_into(const CodeParams& p,
                                                     Feed&& feed) {
  const long ws_before = g_workspace_allocations.load();
  Decoder dec(p);
  feed(dec);
  detail::DecodeWorkspace ws;
  DecodeResult out;
  dec.decode_with(ws, out);
  EXPECT_EQ(g_workspace_allocations.load() - ws_before, 0)
      << "a decoder that never ran decode_into() allocated its workspace";
  const util::BitVec pinned = out.message;

  dec.decode_into(out);
  EXPECT_EQ(g_workspace_allocations.load() - ws_before, 1);
  EXPECT_EQ(out.message, pinned);
  const long n = allocations_during([&] {
    for (int i = 0; i < 10; ++i) dec.decode_into(out);
  });
  EXPECT_EQ(n, 0);
  EXPECT_EQ(g_workspace_allocations.load() - ws_before, 1);
}

TEST(DecoderAlloc, PrivateWorkspaceIsAllocatedOnFirstDecodeInto) {
  SPINAL_SKIP_UNDER_ASAN();
  CodeParams p;
  p.n = 64;
  p.B = 16;
  util::Xoshiro256 prng(45);
  const SpinalEncoder enc(p, prng.random_bits(p.n));
  channel::AwgnChannel ch(10.0, 145);
  const PuncturingSchedule sched(p);
  expect_workspace_allocated_on_first_decode_into<SpinalDecoder>(
      p, [&](SpinalDecoder& dec) {
        for (int sp = 0; sp < 2 * sched.subpasses_per_pass(); ++sp)
          for (const SymbolId& id : sched.subpass(sp))
            dec.add_symbol(id, ch.transmit(enc.symbol(id)));
      });

  CodeParams q = p;
  q.c = 1;
  const BscSpinalEncoder bsc_enc(q, prng.random_bits(q.n));
  channel::BscChannel bsc(0.05, 146);
  const PuncturingSchedule bsc_sched(q);
  expect_workspace_allocated_on_first_decode_into<BscSpinalDecoder>(
      q, [&](BscSpinalDecoder& dec) {
        for (int sp = 0; sp < 6 * bsc_sched.subpasses_per_pass(); ++sp)
          for (const SymbolId& id : bsc_sched.subpass(sp))
            dec.add_symbol(id, bsc.transmit(bsc_enc.symbol(id)));
      });
}

TEST(DecoderAlloc, MoreSymbolsThenDecodeReusesCapacity) {
  SPINAL_SKIP_UNDER_ASAN();
  // Adding symbols grows the SoA image, so the decode right after may
  // allocate — but a second decode at the new size must not.
  CodeParams p;
  p.n = 64;
  p.B = 32;
  util::Xoshiro256 prng(44);
  const SpinalEncoder enc(p, prng.random_bits(p.n));
  SpinalDecoder dec(p);
  channel::AwgnChannel ch(10.0, 144);
  const PuncturingSchedule sched(p);
  DecodeResult out;
  for (int pass = 0; pass < 3; ++pass) {
    for (int sp = 0; sp < sched.subpasses_per_pass(); ++sp)
      for (const SymbolId& id : sched.subpass(pass * sched.subpasses_per_pass() + sp))
        dec.add_symbol(id, ch.transmit(enc.symbol(id)));
    dec.decode_into(out);  // may grow
    const long n = allocations_during([&] { dec.decode_into(out); });
    EXPECT_EQ(n, 0) << "pass " << pass;
  }
}

/// Forwards every call to @p inner and checks the feed's allocations:
/// once the first @p warm_chunks chunks have sized the session's
/// buffers, next_chunk() may allocate only the vector it returns
/// (nothing for an empty chunk); receive_chunk() allocations are
/// tallied for the caller.
class CountingSession final : public sim::RatelessSession {
 public:
  CountingSession(sim::RatelessSession& inner, int warm_chunks)
      : inner_(inner), warm_chunks_(warm_chunks) {}

  long receive_allocations = 0;

  int message_bits() const override { return inner_.message_bits(); }
  void start(const util::BitVec& message) override { inner_.start(message); }
  std::vector<std::complex<float>> next_chunk() override {
    std::vector<std::complex<float>> x;
    const long n = allocations_during([&] { x = inner_.next_chunk(); });
    if (++chunks_ > warm_chunks_) {
      EXPECT_LE(n, x.empty() ? 0 : 1) << "next_chunk allocated beyond its chunk";
    }
    return x;
  }
  void receive_chunk(std::span<const std::complex<float>> y,
                     std::span<const std::complex<float>> csi) override {
    receive_allocations += allocations_during([&] { inner_.receive_chunk(y, csi); });
  }
  std::optional<util::BitVec> try_decode() override { return inner_.try_decode(); }
  std::optional<util::BitVec> try_decode_with(sim::CodecWorkspace* ws,
                                              int effort) override {
    return inner_.try_decode_with(ws, effort);
  }
  int max_chunks() const override { return inner_.max_chunks(); }

 private:
  sim::RatelessSession& inner_;
  int warm_chunks_;
  int chunks_ = 0;
};

/// Streams messages through @p session with MessageRun, attempting in a
/// pinned workspace at every due chunk but accepting no candidate, so
/// every message runs the same max_passes passes. After the first pass,
/// next_chunk allocates only its chunk. The first message may grow the
/// decoder's per-spine stores (amortized: a few doublings per spine,
/// never one per symbol); every later message reuses them and its
/// receive_chunk calls allocate nothing.
void expect_allocation_free_feed(sim::RatelessSession& session, sim::ChannelSim& channel,
                                 const CodeParams& p, int stores_per_spine) {
  const PuncturingSchedule sched(p);
  CountingSession counting(session, sched.subpasses_per_pass());
  const std::unique_ptr<sim::CodecWorkspace> ws = session.make_workspace();
  ASSERT_NE(ws, nullptr);
  util::Xoshiro256 prng(47);
  for (int m = 0; m < 4; ++m) {
    const util::BitVec message = prng.random_bits(static_cast<std::size_t>(p.n));
    counting.receive_allocations = 0;
    sim::MessageRun run(counting, channel, message);
    while (run.feed_to_attempt()) run.record_attempt(std::nullopt);
    EXPECT_EQ(run.result().chunks, session.max_chunks());
    (void)session.try_decode_with(ws.get(), 0);
    const long symbols = run.result().symbols;
    if (m == 0) {
      // A store's first allocation plus one per doubling.
      const long growths = 1 + std::bit_width(static_cast<unsigned long>(symbols));
      EXPECT_LE(counting.receive_allocations, stores_per_spine * p.spine_length() * growths)
          << "receive_chunk grew its stores per symbol";
    } else {
      EXPECT_EQ(counting.receive_allocations, 0) << "message " << m;
    }
  }
  // The schedule appends into caller storage: nothing once it is sized.
  std::vector<SymbolId> ids;
  ids.reserve(static_cast<std::size_t>(sched.max_subpass_symbols()));
  const long n = allocations_during([&] {
    for (int sp = 0; sp < 4 * sched.subpasses_per_pass(); ++sp) {
      ids.clear();
      sched.subpass(sp, ids);
    }
  });
  EXPECT_EQ(n, 0);
}

TEST(DecoderAlloc, SessionFeedAllocatesOnlyTheReturnedChunk) {
  SPINAL_SKIP_UNDER_ASAN();
  // The fleet's tiny BSC sessions (n = 4 and 8, c = 1, B = 2, p = 0.02)
  // and an AWGN session, whose quantized lanes keep two more per-spine
  // stores (metric rows and row minima).
  for (int n : {4, 8}) {
    CodeParams p;
    p.n = n;
    p.c = 1;
    p.B = 2;
    p.max_passes = 8;
    sim::BscSession s(p);
    sim::ChannelSim ch = sim::ChannelSim::bsc(0.02, 147);
    expect_allocation_free_feed(s, ch, p, 1);
  }
  CodeParams p;
  p.n = 64;
  p.B = 16;
  p.max_passes = 4;
  sim::SpinalSession s(p);
  sim::ChannelSim ch(sim::ChannelKind::kAwgn, 10.0, 1, 148);
  expect_allocation_free_feed(s, ch, p, 3);
}

/// Builds @p count sessions with @p make and feeds each two passes
/// (BSC at p = 0.02 for c = 1, AWGN at 8 dB otherwise) without
/// accepting a candidate, so every session holds symbols to decode.
template <class Make>
std::vector<std::unique_ptr<sim::RatelessSession>> fed_sessions(const CodeParams& p,
                                                                int count, Make make) {
  std::vector<std::unique_ptr<sim::RatelessSession>> sessions;
  util::Xoshiro256 prng(49);
  for (int i = 0; i < count; ++i) {
    sessions.push_back(make());
    sim::ChannelSim channel = p.c > 1 ? sim::ChannelSim(sim::ChannelKind::kAwgn, 8.0, 1, 150 + i)
                                      : sim::ChannelSim::bsc(0.02, 150 + i);
    const util::BitVec message = prng.random_bits(static_cast<std::size_t>(p.n));
    sim::MessageRun run(*sessions.back(), channel, message);
    for (int c = 0; c < 2 * PuncturingSchedule(p).subpasses_per_pass(); ++c)
      if (run.feed_to_attempt()) run.record_attempt(std::nullopt);
  }
  return sessions;
}

/// Full-effort batch jobs over @p sessions, writing into @p candidates.
std::vector<sim::BatchDecodeJob> batch_jobs(
    const std::vector<std::unique_ptr<sim::RatelessSession>>& sessions,
    std::vector<std::optional<util::BitVec>>& candidates) {
  std::vector<sim::BatchDecodeJob> jobs;
  for (std::size_t i = 0; i < sessions.size(); ++i)
    jobs.push_back({sessions[i].get(), 0, &candidates[i]});
  return jobs;
}

/// Checks that a batched attempt over @p count fed sessions built by
/// @p make allocates nothing on a warmed pinned workspace, under every
/// backend.
template <class Make>
void expect_allocation_free_batch(const CodeParams& p, int count, Make make) {
  const auto sessions = fed_sessions(p, count, make);
  const std::unique_ptr<sim::CodecWorkspace> ws = sessions[0]->make_workspace();
  std::vector<std::optional<util::BitVec>> candidates(count);
  std::vector<sim::BatchDecodeJob> jobs = batch_jobs(sessions, candidates);
  for_each_backend([&](const char* name) {
    sessions[0]->try_decode_batch(ws.get(), jobs);  // warm this backend's scratch
    const long n = allocations_during([&] { sessions[0]->try_decode_batch(ws.get(), jobs); });
    EXPECT_EQ(n, 0) << "batched attempt allocated, backend=" << name;
    for (const auto& c : candidates) EXPECT_TRUE(c.has_value()) << name;
  });
}

/// A batch is its blocks' attempts back to back in the one pinned
/// workspace, so a workspace warmed by a 2-block batch serves a 12-block
/// batch of the same geometry without allocating: nothing in it scales
/// with the batch size.
template <class Make>
void expect_wider_batch_allocates_nothing(const CodeParams& p, Make make) {
  const auto sessions = fed_sessions(p, 12, make);
  // Engaged candidates, as a runtime's recycled job slots are: an
  // attempt assigns into their storage.
  std::vector<std::optional<util::BitVec>> candidates(
      sessions.size(), util::BitVec(static_cast<std::size_t>(p.n)));
  std::vector<sim::BatchDecodeJob> jobs = batch_jobs(sessions, candidates);
  for_each_backend([&](const char* name) {
    const std::unique_ptr<sim::CodecWorkspace> ws = sessions[0]->make_workspace();
    sessions[0]->try_decode_batch(ws.get(), std::span(jobs).first(2));
    const long n = allocations_during([&] { sessions[0]->try_decode_batch(ws.get(), jobs); });
    EXPECT_EQ(n, 0) << "12-block batch after a 2-block warm-up allocated, backend=" << name;
  });
}

TEST(DecoderAlloc, WiderBatchAllocatesNothing) {
  SPINAL_SKIP_UNDER_ASAN();
  CodeParams p;
  p.n = 8;
  p.c = 1;
  p.B = 2;
  expect_wider_batch_allocates_nothing(p, [&] { return std::make_unique<sim::BscSession>(p); });
  CodeParams q;
  q.n = 64;
  q.B = 16;
  expect_wider_batch_allocates_nothing(q, [&] { return std::make_unique<sim::SpinalSession>(q); });
}

/// make_ack() decodes every due block in one receiver-owned workspace:
/// with the same symbols in every block, a pause point with 8 due
/// blocks allocates no more than one with a single due block.
TEST(DecoderAlloc, MakeAckSharesOneWorkspaceAcrossBlocks) {
  SPINAL_SKIP_UNDER_ASAN();
  CodeParams p;
  p.n = 256;
  p.B = 64;
  const std::vector<std::uint8_t> datagram(30, 0x5a);  // one 240-bit payload
  LinkSender sender(p, datagram);
  ASSERT_EQ(sender.block_count(), 1);
  const std::vector<LinkSymbol> burst = sender.next_burst();
  const auto allocations_of_ack = [&](int blocks) {
    LinkReceiver rx(p, blocks);
    for (int b = 0; b < blocks; ++b)
      for (LinkSymbol s : burst) {
        s.block = b;
        rx.receive(s);
      }
    const long n = allocations_during([&] { (void)rx.make_ack(); });
    EXPECT_EQ(rx.attempts(), blocks);
    EXPECT_FALSE(rx.block_decoded(0));  // one subpass: every CRC fails
    return n;
  };
  const long one = allocations_of_ack(1);
  const long eight = allocations_of_ack(8);
  EXPECT_GT(one, 0);
  EXPECT_LE(eight, one);
}

TEST(DecoderAlloc, WarmBatchedAttemptIsAllocationFree) {
  SPINAL_SKIP_UNDER_ASAN();
  CodeParams p;
  p.n = 8;
  p.c = 1;
  p.B = 2;
  for (int count : {2, 5})
    expect_allocation_free_batch(p, count, [&] { return std::make_unique<sim::BscSession>(p); });
  CodeParams q;
  q.n = 64;
  q.B = 16;
  expect_allocation_free_batch(q, 3, [&] { return std::make_unique<sim::SpinalSession>(q); });
}

}  // namespace
}  // namespace spinal
