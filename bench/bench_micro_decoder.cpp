// Decode-throughput microbenchmarks for the bubble-decoder hot path.
//
// Each benchmark feeds a fixed number of passes into a decoder once and
// then times repeated full decode attempts — the §4.5 receiver cost the
// batched SoA kernel targets. The AWGN (n=256, k=4, B=256, d=1) point is
// the tracked reference number for perf regressions; run with
// SPINAL_BENCH_THREADS=1 semantics (decode is single-threaded anyway).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "backend/backend.h"
#include "channel/awgn.h"
#include "channel/bsc.h"
#include "spinal/attempt_schedule.h"
#include "spinal/decoder.h"
#include "spinal/encoder.h"
#include "util/math.h"
#include "util/prng.h"

using namespace spinal;

namespace {

CodeParams make_params(int n, int k, int B, int d) {
  CodeParams p;
  p.n = n;
  p.k = k;
  p.B = B;
  p.d = d;
  return p;
}

/// Feeds the first @p subpasses subpasses of noisy symbols into @p dec.
void feed_awgn_subpasses(const CodeParams& p, SpinalDecoder& dec, int subpasses,
                         bool with_csi = false) {
  util::Xoshiro256 prng(7);
  const SpinalEncoder enc(p, prng.random_bits(p.n));
  channel::AwgnChannel ch(10.0, 11);
  const PuncturingSchedule sched(p);
  for (int sp = 0; sp < subpasses; ++sp)
    for (const SymbolId& id : sched.subpass(sp)) {
      if (with_csi)
        dec.add_symbol(id, ch.transmit(enc.symbol(id)), {0.9f, 0.3f});
      else
        dec.add_symbol(id, ch.transmit(enc.symbol(id)));
    }
}

/// Feeds @p passes whole passes of noisy symbols into @p dec.
void feed_awgn(const CodeParams& p, SpinalDecoder& dec, int passes,
               bool with_csi = false) {
  feed_awgn_subpasses(p, dec, passes * PuncturingSchedule(p).subpasses_per_pass(),
                      with_csi);
}

void feed_bsc(const CodeParams& p, BscSpinalDecoder& dec, int passes) {
  util::Xoshiro256 prng(8);
  const BscSpinalEncoder enc(p, prng.random_bits(p.n));
  channel::BscChannel ch(0.03, 12);
  const PuncturingSchedule sched(p);
  for (int sp = 0; sp < passes * sched.subpasses_per_pass(); ++sp)
    for (const SymbolId& id : sched.subpass(sp))
      dec.add_symbol(id, ch.transmit(enc.symbol(id)));
}

/// args: n, k, B, d, passes. Reports decoded message bits per second.
void BM_DecodeAwgn(benchmark::State& state) {
  const CodeParams p =
      make_params(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)),
                  static_cast<int>(state.range(2)), static_cast<int>(state.range(3)));
  SpinalDecoder dec(p);
  feed_awgn(p, dec, static_cast<int>(state.range(4)));
  for (auto _ : state) {
    auto r = dec.decode();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * p.n);
}
// The tracked reference point (paper's recommended operating point).
BENCHMARK(BM_DecodeAwgn)
    ->Args({256, 4, 256, 1, 2})   // reference: n=256, k=4, B=256, d=1
    ->Args({256, 4, 64, 1, 2})    // narrower beam
    ->Args({1024, 4, 256, 1, 2})  // long block
    ->Args({96, 3, 64, 2, 2})     // deep bubble d=2
    ->Args({256, 4, 256, 2, 2})   // d=2 at the reference geometry
    ->Args({256, 4, 256, 1, 8})   // symbol-heavy (8 passes)
    ->ArgNames({"n", "k", "B", "d", "passes"});

/// A punctured attempt at the link geometry (n=256, k=4, B=64): after
/// 4 of a pass's 8 subpasses, half the spine values have no symbol
/// yet, so half the levels cost only hashing and selection — the shape
/// of most attempts a rateless receiver makes. args: n, k, B,
/// subpasses.
void BM_DecodeAwgnPunctured(benchmark::State& state) {
  const CodeParams p =
      make_params(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)),
                  static_cast<int>(state.range(2)), 1);
  SpinalDecoder dec(p);
  feed_awgn_subpasses(p, dec, static_cast<int>(state.range(3)));
  for (auto _ : state) {
    auto r = dec.decode();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * p.n);
}
BENCHMARK(BM_DecodeAwgnPunctured)
    ->Args({256, 4, 64, 4})
    ->ArgNames({"n", "k", "B", "subpasses"});

/// An attempt sequence at the link geometry (n=256, k=4, 10 dB): for
/// each of 64 messages, one attempt at every subpass from the capacity
/// gate on until the decode succeeds — the attempts a rateless receiver
/// makes, punctured early ones and symbol-heavy late ones alike. Setup
/// records the sequence; each iteration replays every attempt. Items
/// are attempts, so 1 / items_per_second is the time per attempt.
/// args: B.
void BM_DecodeAwgnAttempts(benchmark::State& state) {
  const CodeParams p = make_params(256, 4, static_cast<int>(state.range(0)), 1);
  constexpr int kMessages = 64;
  const PuncturingSchedule sched(p);
  const std::int64_t gate = AttemptSchedule::awgn_gate(p.n, util::db_to_lin(10.0));
  // Message m's decoder after its first `subpasses` subpasses: the
  // channel is re-seeded per message, so every prefix sees the same noise.
  const auto fed = [&](int m, int subpasses, const util::BitVec& msg) {
    const SpinalEncoder enc(p, msg);
    channel::AwgnChannel ch(10.0, 2000 + static_cast<std::uint64_t>(m));
    auto dec = std::make_unique<SpinalDecoder>(p);
    for (int sp = 0; sp < subpasses; ++sp)
      for (const SymbolId& id : sched.subpass(sp)) dec->add_symbol(id, ch.transmit(enc.symbol(id)));
    return dec;
  };
  // Every attempt's decoder, symbols fed; all decode in one workspace.
  std::vector<std::unique_ptr<SpinalDecoder>> attempts;
  detail::DecodeWorkspace ws;
  DecodeResult out;
  for (int m = 0; m < kMessages; ++m) {
    util::Xoshiro256 prng(1000 + static_cast<std::uint64_t>(m));
    const util::BitVec msg = prng.random_bits(p.n);
    std::int64_t symbols = 0;
    for (int sp = 0;; ++sp) {
      symbols += static_cast<std::int64_t>(sched.subpass(sp).size());
      if (symbols < gate) continue;
      attempts.push_back(fed(m, sp + 1, msg));
      attempts.back()->decode_with(ws, out);
      if (out.message == msg) break;
    }
  }
  for (auto _ : state) {
    for (const auto& dec : attempts) {
      dec->decode_with(ws, out);
      benchmark::DoNotOptimize(out);
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(attempts.size()));
  state.counters["attempts"] = static_cast<double>(attempts.size());
}
BENCHMARK(BM_DecodeAwgnAttempts)->Arg(64)->Arg(256)->ArgName("B")->Unit(benchmark::kMillisecond);

/// Survivor keys shaped like one pruned decode level, in candidate
/// order: costs rise with the parent's rank (beams are cost-sorted)
/// plus a per-child metric spread, so the keys are clustered and
/// nearly sorted, as the selection sees them. With @p ties the costs
/// are whole numbers (a Hamming metric's), so hundreds of keys share
/// each cost word.
template <class Key>
std::vector<Key> level_keys(std::size_t n, bool ties) {
  util::Xoshiro256 prng(9);
  std::vector<Key> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    double cost = 20.0 + 0.05 * static_cast<double>(i / 16) + 4.0 * prng.next_double();
    if (ties) cost = std::floor(cost);
    const auto cand = static_cast<std::uint32_t>(i);
    if constexpr (sizeof(Key) == 8)
      keys[i] = backend::F32Lane::key(static_cast<float>(cost), cand);
    else
      keys[i] = backend::U16Lane::key(static_cast<std::uint32_t>(cost * (ties ? 1.0 : 32.0)),
                                      cand);
  }
  return keys;
}

/// The arguments of one BM_SelectKeys case: n, keep, key bits (64:
/// F32Lane keys, 32: U16Lane keys), tighten (0: the final select, 1:
/// the mid-level tighten), ties (1: whole-number costs).
using SelectShape = std::vector<std::int64_t>;

/// One packed-key select or tighten (LaneKernels::select / tighten of
/// backend @p b) per iteration, over a fresh copy of the keys (the copy
/// is timed too: a few hundred keys).
template <class Lane>
void select_keys_bench(benchmark::State& state, const backend::Backend& b,
                       const SelectShape& shape) {
  using Key = typename Lane::key_t;
  const auto n = static_cast<std::size_t>(shape[0]);
  const auto keep = static_cast<std::size_t>(shape[1]);
  const bool tighten = shape[3] != 0;
  const std::vector<Key> keys = level_keys<Key>(n, shape[4] != 0);
  std::vector<Key> work(n);
  const backend::LaneKernels<Lane>& kern = b.lane<Lane>();
  for (auto _ : state) {
    std::copy(keys.begin(), keys.end(), work.begin());
    if (tighten) {
      Key bound = ~Key{0};
      benchmark::DoNotOptimize(kern.tighten(work.data(), n, keep, &bound));
    } else {
      kern.select(work.data(), n, keep);
    }
    benchmark::DoNotOptimize(work.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

void BM_SelectKeysOn(benchmark::State& state, const backend::Backend* b,
                     const SelectShape& shape) {
  if (shape[2] == 64)
    select_keys_bench<backend::F32Lane>(state, *b, shape);
  else
    select_keys_bench<backend::U16Lane>(state, *b, shape);
}

/// The default backend's cases (args as in SelectShape).
void BM_SelectKeys(benchmark::State& state) {
  const SelectShape shape = {state.range(0), state.range(1), state.range(2), state.range(3),
                             state.range(4)};
  BM_SelectKeysOn(state, &backend::active(), shape);
}

/// The final-select shapes are the measured per-level calls of the
/// three benchmark workloads: 2 of 23 (B=2 BSC fleet), 64 of ~355 (the
/// B=64 link) and 256 of ~520 (the B=256 reference geometry). The
/// tighten shapes are the mean mid-level refinements of one reference
/// decode: 546 -> 64 at B=64 and 673 -> 256 at B=256, plus the B=256
/// one on whole-number (BSC) costs. Those also run on every backend.
const std::vector<SelectShape> kSelectShapes = {
    {23, 2, 64, 0, 0},   {355, 64, 64, 0, 0},  {520, 256, 64, 0, 0},
    {23, 2, 32, 0, 0},   {355, 64, 32, 0, 0},  {520, 256, 32, 0, 0},
    {546, 64, 64, 1, 0}, {673, 256, 64, 1, 0}, {546, 64, 32, 1, 0},
    {673, 256, 32, 1, 0}, {673, 256, 64, 1, 1}};
const std::vector<std::string> kSelectArgNames = {"n", "keep", "bits", "tighten", "ties"};

/// The quantized narrow-metric path (spinal/cost_model.h) at the
/// tracked reference geometry. args: precision (1 = u16, 2 = u8),
/// d. The u16 d=1 point is the tracked quantized reference; its ratio
/// against BM_DecodeAwgn's f32 reference from the *same run* is the
/// perf-gate number (same-day, same-binary comparison).
void BM_DecodeAwgnQuant(benchmark::State& state) {
  CodeParams p = make_params(256, 4, 256, static_cast<int>(state.range(1)));
  p.cost_precision = static_cast<CostPrecision>(state.range(0));
  SpinalDecoder dec(p);
  feed_awgn(p, dec, 2);
  for (auto _ : state) {
    auto r = dec.decode();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * p.n);
}
BENCHMARK(BM_DecodeAwgnQuant)
    ->Args({1, 1})  // u16, d=1: tracked quantized reference
    ->Args({2, 1})  // u8, d=1
    ->Args({1, 2})  // u16, d=2
    ->ArgNames({"prec", "d"});

void BM_DecodeAwgnCsi(benchmark::State& state) {
  const CodeParams p = make_params(256, 4, static_cast<int>(state.range(0)), 1);
  SpinalDecoder dec(p);
  feed_awgn(p, dec, 2, /*with_csi=*/true);
  for (auto _ : state) {
    auto r = dec.decode();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * p.n);
}
BENCHMARK(BM_DecodeAwgnCsi)->Arg(256)->ArgName("B");

void BM_DecodeAwgnFixedPoint(benchmark::State& state) {
  CodeParams p = make_params(256, 4, static_cast<int>(state.range(0)), 1);
  p.fixed_point_frac_bits = 6;
  SpinalDecoder dec(p);
  feed_awgn(p, dec, 2);
  for (auto _ : state) {
    auto r = dec.decode();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * p.n);
}
BENCHMARK(BM_DecodeAwgnFixedPoint)->Arg(256)->ArgName("B");

/// args: B, passes.
void BM_DecodeBsc(benchmark::State& state) {
  CodeParams p = make_params(256, 4, static_cast<int>(state.range(0)), 1);
  p.c = 1;
  BscSpinalDecoder dec(p);
  feed_bsc(p, dec, static_cast<int>(state.range(1)));
  for (auto _ : state) {
    auto r = dec.decode();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * p.n);
}
BENCHMARK(BM_DecodeBsc)
    ->Args({256, 6})
    ->Args({64, 6})
    ->Args({256, 12})
    ->ArgNames({"B", "passes"});

// ---- Per-backend cases (registered at runtime: which backends exist
// is a CPU fact, not a compile-time one). Each pins one kernel backend
// for the tracked reference point, so the scalar vs SSE4.2 vs AVX2 vs
// NEON trajectory can be read off one run.

void BM_DecodeAwgnBackend(benchmark::State& state, const backend::Backend* b) {
  const std::string prev = backend::active().name;
  backend::force(b->name);
  const CodeParams p = make_params(256, 4, 256, 1);  // the reference point
  SpinalDecoder dec(p);
  feed_awgn(p, dec, 2);
  for (auto _ : state) {
    auto r = dec.decode();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * p.n);
  backend::force(prev);
}

void BM_DecodeAwgnQuantBackend(benchmark::State& state, const backend::Backend* b) {
  const std::string prev = backend::active().name;
  backend::force(b->name);
  CodeParams p = make_params(256, 4, 256, 1);  // quantized reference point
  p.cost_precision = CostPrecision::kU16;
  SpinalDecoder dec(p);
  feed_awgn(p, dec, 2);
  for (auto _ : state) {
    auto r = dec.decode();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * p.n);
  backend::force(prev);
}

void BM_DecodeBscBackend(benchmark::State& state, const backend::Backend* b) {
  const std::string prev = backend::active().name;
  backend::force(b->name);
  CodeParams p = make_params(256, 4, 256, 1);
  p.c = 1;
  BscSpinalDecoder dec(p);
  feed_bsc(p, dec, 6);
  for (auto _ : state) {
    auto r = dec.decode();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * p.n);
  backend::force(prev);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::internal::Benchmark* select =
      benchmark::RegisterBenchmark("BM_SelectKeys", BM_SelectKeys);
  for (const auto& args : kSelectShapes) select->Args(args);
  select->ArgNames(kSelectArgNames);
  for (const backend::Backend* b : backend::available()) {
    const std::string awgn = "BM_DecodeAwgn/backend:" + std::string(b->name);
    const std::string quant = "BM_DecodeAwgnQuant/backend:" + std::string(b->name);
    const std::string bsc = "BM_DecodeBsc/backend:" + std::string(b->name);
    benchmark::RegisterBenchmark(awgn.c_str(), BM_DecodeAwgnBackend, b);
    benchmark::RegisterBenchmark(quant.c_str(), BM_DecodeAwgnQuantBackend, b);
    benchmark::RegisterBenchmark(bsc.c_str(), BM_DecodeBscBackend, b);
    for (const auto& args : kSelectShapes) {
      if (args[3] == 0) continue;  // the tighten shapes
      std::string name = "BM_SelectKeys";
      for (std::size_t i = 0; i < args.size(); ++i)
        name += "/" + kSelectArgNames[i] + ":" + std::to_string(args[i]);
      name += "/backend:" + std::string(b->name);
      benchmark::RegisterBenchmark(name.c_str(), BM_SelectKeysOn, b, args);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Stamped into the JSON context so perf snapshots record which kernel
  // backend the default (non-forced) cases actually ran.
  benchmark::AddCustomContext("spinal_backend", backend::active().name);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
