// Microbenchmarks for the hash functions of §7.1: Salsa20 vs lookup3 vs
// one-at-a-time (the paper chose one-at-a-time after finding no coding
// performance difference), plus the hash-derived RNG.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "backend/backend.h"
#include "hash/spine_hash.h"

using namespace spinal;

namespace {

void BM_SpineHash(benchmark::State& state) {
  const hash::SpineHash h(static_cast<hash::Kind>(state.range(0)), 42);
  std::uint32_t s = 1;
  for (auto _ : state) {
    s = h(s, 0xA);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpineHash)
    ->Arg(0)  // one-at-a-time
    ->Arg(1)  // lookup3
    ->Arg(2)  // salsa20
    ->ArgName("kind");

void BM_HashRng(benchmark::State& state) {
  const hash::SpineHash h(hash::Kind::kOneAtATime, 42);
  std::uint32_t i = 0, v = 0;
  for (auto _ : state) {
    v ^= h.rng(0xDEADBEEF, i++);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashRng);

// The decode hot path's batch forms, on the active backend's kernel
// table: whole-lane-array sweeps (items = hashes, not calls).
void BM_HashN(benchmark::State& state) {
  const auto kind = static_cast<hash::Kind>(state.range(0));
  const std::size_t n = 4096;
  std::vector<std::uint32_t> states(n), out(n);
  for (std::size_t i = 0; i < n; ++i) states[i] = static_cast<std::uint32_t>(i) * 2654435761u;
  std::uint32_t data = 0;
  for (auto _ : state) {
    backend::active().hash_n(kind, 42, states.data(), n, data++, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HashN)->Arg(0)->Arg(1)->Arg(2)->ArgName("kind");

void BM_HashChildren(benchmark::State& state) {
  const auto kind = static_cast<hash::Kind>(state.range(0));
  const std::size_t n = 256;
  const std::uint32_t fanout = 16;
  std::vector<std::uint32_t> states(n), out(n * fanout);
  for (std::size_t i = 0; i < n; ++i) states[i] = static_cast<std::uint32_t>(i) * 40503u;
  for (auto _ : state) {
    backend::active().hash_children(kind, 42, states.data(), n, fanout, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * fanout);
}
BENCHMARK(BM_HashChildren)->Arg(0)->Arg(1)->Arg(2)->ArgName("kind");

// RNG draws over one-at-a-time lanes pre-mixed once (the decoder's
// per-symbol form; the index is domain-separated as in SpineHash::rng).
void BM_RngPremixed(benchmark::State& state) {
  const backend::Backend& b = backend::active();
  const std::size_t n = 4096;
  std::vector<std::uint32_t> states(n), premixed(n), out(n);
  for (std::size_t i = 0; i < n; ++i) states[i] = static_cast<std::uint32_t>(i) * 7919u;
  b.premix_n(42, states.data(), n, premixed.data());
  std::uint32_t idx = 0;
  for (auto _ : state) {
    b.hash_premixed_n(premixed.data(), n, idx++ ^ 0x80000000u, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RngPremixed);

// ---- Per-backend cases: the same batch sweeps, but pinned to one
// kernel backend via its table directly (registered at runtime — which
// backends exist is a CPU fact).

void BM_HashNBackend(benchmark::State& state, const backend::Backend* b,
                     hash::Kind kind) {
  const std::size_t n = 4096;
  std::vector<std::uint32_t> states(n), out(n);
  for (std::size_t i = 0; i < n; ++i)
    states[i] = static_cast<std::uint32_t>(i) * 2654435761u;
  std::uint32_t data = 0;
  for (auto _ : state) {
    b->hash_n(kind, 42, states.data(), n, data++, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_HashChildrenBackend(benchmark::State& state, const backend::Backend* b,
                            hash::Kind kind) {
  const std::size_t n = 256;
  const std::uint32_t fanout = 16;
  std::vector<std::uint32_t> states(n), out(n * fanout);
  for (std::size_t i = 0; i < n; ++i) states[i] = static_cast<std::uint32_t>(i) * 40503u;
  for (auto _ : state) {
    b->hash_children(kind, 42, states.data(), n, fanout, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * fanout);
}

// ---- Expand-lane cases: the f32 and quantized-u16 full-expansion
// kernels at the decoder's reference geometry (B=256, 2^k=16 children,
// 3 symbols on the level, c=6), so the quantized win is measurable at
// the kernel level, separate from selection and decode plumbing.

constexpr std::size_t kExpLeaves = 256;
constexpr std::uint32_t kExpFanout = 16;
constexpr std::uint32_t kExpNsym = 3;
constexpr int kExpCbits = 6;

void BM_ExpandF32Backend(benchmark::State& state, const backend::Backend* b) {
  const std::size_t total = kExpLeaves * kExpFanout;
  const std::uint32_t tsize = 1u << kExpCbits;
  std::vector<std::uint32_t> states(kExpLeaves), ord(kExpNsym);
  std::vector<float> y_re(kExpNsym), y_im(kExpNsym), table(tsize);
  for (std::size_t i = 0; i < kExpLeaves; ++i)
    states[i] = static_cast<std::uint32_t>(i) * 2654435761u;
  for (std::uint32_t s = 0; s < kExpNsym; ++s) {
    ord[s] = s;
    y_re[s] = 0.25f * static_cast<float>(s) - 0.3f;
    y_im[s] = 0.1f * static_cast<float>(s) + 0.2f;
  }
  for (std::uint32_t i = 0; i < tsize; ++i)
    table[i] = static_cast<float>(i) - 0.5f * static_cast<float>(tsize - 1);
  std::vector<std::uint32_t> rng(total), premix(total), out_states(total);
  std::vector<float> out_costs(total);
  const backend::AwgnLevel level{
      hash::Kind::kOneAtATime, 42,          ord.data(),  kExpNsym,
      y_re.data(),             y_im.data(), nullptr,     nullptr,
      /*use_csi=*/false,       0.0f,        table.data(), table.data(),
      tsize - 1,               kExpCbits,   rng.data(),  premix.data(),
      nullptr,                 nullptr};
  for (auto _ : state) {
    b->f32.awgn_expand_all(level, states.data(), kExpLeaves, kExpFanout,
                           out_states.data(), out_costs.data());
    benchmark::DoNotOptimize(out_costs.data());
  }
  state.SetItemsProcessed(state.iterations() * total);
}

void BM_ExpandU16Backend(benchmark::State& state, const backend::Backend* b) {
  const std::size_t total = kExpLeaves * kExpFanout;
  const std::uint32_t qstride = 2u << kExpCbits;  // qre and qim rows per symbol
  std::vector<std::uint32_t> states(kExpLeaves), ord(kExpNsym);
  for (std::size_t i = 0; i < kExpLeaves; ++i)
    states[i] = static_cast<std::uint32_t>(i) * 2654435761u;
  // Synthetic per-dimension metric rows (+1 u16 of gather tail slack,
  // the AwgnLevelQ::qtab contract) and their suffix-minima floors.
  std::vector<std::uint16_t> qtab(kExpNsym * qstride + 1, 0);
  std::vector<std::uint16_t> min_rest(kExpNsym + 1, 0);
  for (std::uint32_t s = 0; s < kExpNsym; ++s) {
    ord[s] = s;
    for (std::uint32_t j = 0; j < qstride; ++j)
      qtab[s * qstride + j] = static_cast<std::uint16_t>((j * 37u + s) & 511u);
  }
  std::vector<std::uint32_t> rng(total), premix(total), acc(total), out_states(total);
  std::vector<std::uint16_t> out_costs(total);
  const backend::AwgnLevelQ level{
      hash::Kind::kOneAtATime, 42,         ord.data(),      kExpNsym,
      qtab.data(),             kExpCbits,  65535,           min_rest.data(),
      rng.data(),              premix.data(), acc.data(),   nullptr};
  for (auto _ : state) {
    b->u16.awgn_expand_all(level, states.data(), kExpLeaves, kExpFanout,
                           out_states.data(), out_costs.data());
    benchmark::DoNotOptimize(out_costs.data());
  }
  state.SetItemsProcessed(state.iterations() * total);
}

}  // namespace

int main(int argc, char** argv) {
  constexpr hash::Kind kinds[] = {hash::Kind::kOneAtATime, hash::Kind::kLookup3,
                                  hash::Kind::kSalsa20};
  for (const backend::Backend* b : backend::available()) {
    for (hash::Kind kind : kinds) {
      const std::string suffix =
          std::string(b->name) + "/kind:" + hash::kind_name(kind);
      const std::string hn = "BM_HashN/backend:" + suffix;
      const std::string hc = "BM_HashChildren/backend:" + suffix;
      benchmark::RegisterBenchmark(hn.c_str(), BM_HashNBackend, b, kind);
      benchmark::RegisterBenchmark(hc.c_str(), BM_HashChildrenBackend, b, kind);
    }
    const std::string ef = "BM_ExpandF32/backend:" + std::string(b->name);
    const std::string eq = "BM_ExpandU16/backend:" + std::string(b->name);
    benchmark::RegisterBenchmark(ef.c_str(), BM_ExpandF32Backend, b);
    benchmark::RegisterBenchmark(eq.c_str(), BM_ExpandU16Backend, b);
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
