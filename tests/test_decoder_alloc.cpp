// Verifies the zero-steady-state-allocation contract: after the first
// decode attempt has grown the DecodeWorkspace to its high-water marks,
// repeated decode_into() calls must not touch the heap at all — under
// EVERY kernel backend (the SIMD kernels reuse the same caller-sized
// scratch, so switching backends must not regress workspace reuse) —
// and a decoder allocates its private workspace only on its first
// decode_into(), never when it only decodes in a caller's workspace.
//
// Global operator new/delete are replaced with counting versions in this
// test binary only; the counter is read around the steady-state loop.
// Under ASan the allocator is interposed and may allocate internally,
// so the exact-zero checks are skipped there (the sanitizer lane checks
// memory safety instead; this lane checks allocation discipline).

#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "backend/backend.h"
#include "channel/awgn.h"
#include "channel/bsc.h"
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

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == sizeof(spinal::detail::DecodeWorkspace))
    g_workspace_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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
    for (const SymbolId& id : sched.subpass(sp)) dec.add_bit(id, ch.transmit(enc.bit(id)));

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
            dec.add_bit(id, bsc.transmit(bsc_enc.bit(id)));
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

}  // namespace
}  // namespace spinal
