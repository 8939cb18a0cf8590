// The kernel-backend registry and the kernel-level bit-identity
// contract (backend/backend.h): detection invariants, the
// SPINAL_BACKEND override resolution rule, force()/find() behaviour,
// and — for every available backend — direct equivalence of each
// kernel-table entry against the scalar backend on randomized inputs.
// test_decoder_golden covers the same contract end-to-end through full
// decodes; this suite pins it at the single-kernel level so a lane bug
// is reported next to the kernel that has it.

#include "backend/backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/prng.h"

namespace spinal {
namespace {

using backend::Backend;

const Backend* scalar() {
  const Backend* b = backend::find("scalar");
  EXPECT_NE(b, nullptr);
  return b;
}

/// Non-scalar backends to compare against the scalar reference.
std::vector<const Backend*> simd_backends() {
  std::vector<const Backend*> out;
  for (const Backend* b : backend::available())
    if (std::string_view(b->name) != "scalar") out.push_back(b);
  return out;
}

constexpr hash::Kind kKinds[] = {hash::Kind::kOneAtATime, hash::Kind::kLookup3,
                                 hash::Kind::kSalsa20};

// ------------------------------------------------------------ registry

TEST(BackendRegistry, ScalarIsAlwaysAvailableAndFirst) {
  const auto& av = backend::available();
  ASSERT_FALSE(av.empty());
  EXPECT_STREQ(av.front()->name, "scalar");
  EXPECT_EQ(av.front()->lanes, 1);
}

TEST(BackendRegistry, ActiveIsAvailable) {
  const Backend* act = &backend::active();
  bool found = false;
  for (const Backend* b : backend::available()) found |= (b == act);
  EXPECT_TRUE(found);
}

TEST(BackendRegistry, NamesAreUniqueAndLanesSane) {
  std::vector<std::string> names;
  for (const Backend* b : backend::available()) {
    names.emplace_back(b->name);
    EXPECT_GE(b->lanes, 1) << b->name;
    // Every table entry must be populated.
    EXPECT_NE(b->hash_n, nullptr) << b->name;
    EXPECT_NE(b->hash_children, nullptr) << b->name;
    EXPECT_NE(b->premix_n, nullptr) << b->name;
    EXPECT_NE(b->hash_premixed_n, nullptr) << b->name;
    EXPECT_NE(b->bsc_expand_all, nullptr) << b->name;
    EXPECT_NE(b->xor_rows, nullptr) << b->name;
    EXPECT_NE(b->f32.d1_prune, nullptr) << b->name;
    EXPECT_NE(b->f32.row_mins, nullptr) << b->name;
    EXPECT_NE(b->f32.regroup_emit, nullptr) << b->name;
    EXPECT_NE(b->f32.awgn_expand_all, nullptr) << b->name;
    EXPECT_NE(b->f32.awgn_expand_prune, nullptr) << b->name;
    EXPECT_NE(b->u16.d1_prune, nullptr) << b->name;
    EXPECT_NE(b->u16.row_mins, nullptr) << b->name;
    EXPECT_NE(b->u16.regroup_emit, nullptr) << b->name;
    EXPECT_NE(b->u16.awgn_expand_all, nullptr) << b->name;
    EXPECT_NE(b->u16.awgn_expand_prune, nullptr) << b->name;
  }
  for (std::size_t i = 0; i < names.size(); ++i)
    for (std::size_t j = i + 1; j < names.size(); ++j)
      EXPECT_NE(names[i], names[j]);
}

TEST(BackendRegistry, FindMatchesAvailable) {
  for (const Backend* b : backend::available()) EXPECT_EQ(backend::find(b->name), b);
  EXPECT_EQ(backend::find("definitely-not-a-backend"), nullptr);
  EXPECT_EQ(backend::find(""), nullptr);
}

TEST(BackendRegistry, ResolveEmptyPicksDetectedBest) {
  bool warned = false;
  EXPECT_EQ(backend::resolve("", &warned), backend::available().back());
  EXPECT_FALSE(warned);
}

TEST(BackendRegistry, ResolveKnownNamePicksIt) {
  for (const Backend* b : backend::available()) {
    bool warned = false;
    EXPECT_EQ(backend::resolve(b->name, &warned), b);
    EXPECT_FALSE(warned) << b->name;
  }
}

TEST(BackendRegistry, ResolveUnknownNameWarnsAndFallsBack) {
  // The SPINAL_BACKEND=<unknown> rule: warn (resolve prints the
  // available-backend list to stderr so the user learns the valid
  // names), then use the detected best.
  bool warned = false;
  EXPECT_EQ(backend::resolve("mmx", &warned), backend::available().back());
  EXPECT_TRUE(warned);
}

TEST(BackendRegistry, AvailableNamesListsEveryBackendInOrder) {
  // The list resolve() prints on an unknown SPINAL_BACKEND: every
  // available backend, detection order, space-separated.
  const std::string names = backend::available_names();
  std::string want;
  for (const Backend* b : backend::available()) {
    if (!want.empty()) want += ' ';
    want += b->name;
  }
  EXPECT_EQ(names, want);
  EXPECT_NE(names.find("scalar"), std::string::npos);
}

TEST(BackendRegistry, ForceSwitchesAndRejectsUnknown) {
  const Backend* before = &backend::active();
  for (const Backend* b : backend::available()) {
    EXPECT_TRUE(backend::force(b->name));
    EXPECT_EQ(&backend::active(), b);
    // An unknown name must fail AND leave the active backend untouched.
    EXPECT_FALSE(backend::force("avx1024"));
    EXPECT_EQ(&backend::active(), b);
  }
  backend::force(before->name);
}

/// __builtin_cpu_supports for the feature of one -m flag (the builtin
/// takes literals only); -1 for a flag this table does not know yet —
/// a flag added to the TU needs a row here and a check in backend.cpp.
int cpu_supports_flag(std::string_view flag) {
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
  if (flag == "-mavx512f") return __builtin_cpu_supports("avx512f") != 0;
#endif
  (void)flag;
  return -1;
}

TEST(BackendRegistry, RegistryMatchesCpuFeatures) {
  // avx512 is listed iff the CPU supports every -m flag its TU is
  // compiled with (SPINAL_AVX512_FLAGS, from src/CMakeLists.txt; empty
  // where the TU is not built), and the backends ascend in width, so
  // the default — the back of the list — is the widest the CPU runs.
  const std::string flags = SPINAL_AVX512_FLAGS;
  bool built = false, supported = true;
  std::istringstream in(flags);
  for (std::string flag; in >> flag;) {
    built = true;
    const int has = cpu_supports_flag(flag);
    ASSERT_GE(has, 0) << "no CPU feature check for " << flag;
    supported &= has == 1;
  }
  const Backend* avx512 = backend::find("avx512");
  EXPECT_EQ(avx512 != nullptr, built && supported) << "flags: " << flags;
  const auto& av = backend::available();
  for (std::size_t i = 1; i < av.size(); ++i)
    EXPECT_LT(av[i - 1]->lanes, av[i]->lanes) << av[i]->name;
  bool warned = false;
  EXPECT_EQ(backend::resolve("", &warned), av.back());
  if (avx512 != nullptr) {
    EXPECT_EQ(av.back(), avx512);
  }
}

// ------------------------------------------------- kernel equivalence

/// Randomized lane arrays at sizes straddling every vector width,
/// including 0 and sizes exercising SIMD tails.
constexpr std::size_t kSizes[] = {0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 257, 1000};

std::vector<std::uint32_t> random_words(util::Xoshiro256& prng, std::size_t n) {
  std::vector<std::uint32_t> v(n);
  for (auto& x : v) x = static_cast<std::uint32_t>(prng.next_u64());
  return v;
}

TEST(BackendKernels, HashLanesMatchScalarExactly) {
  util::Xoshiro256 prng(101);
  for (const Backend* b : simd_backends()) {
    for (hash::Kind kind : kKinds) {
      for (std::size_t n : kSizes) {
        const std::uint32_t salt = static_cast<std::uint32_t>(prng.next_u64());
        const std::uint32_t data = static_cast<std::uint32_t>(prng.next_u64());
        const auto states = random_words(prng, n);
        std::vector<std::uint32_t> want(n), got(n);
        scalar()->hash_n(kind, salt, states.data(), n, data, want.data());
        b->hash_n(kind, salt, states.data(), n, data, got.data());
        EXPECT_EQ(want, got) << b->name << " hash_n kind="
                             << hash::kind_name(kind) << " n=" << n;
      }
    }
  }
}

TEST(BackendKernels, HashChildrenMatchScalarExactly) {
  util::Xoshiro256 prng(102);
  for (const Backend* b : simd_backends()) {
    for (hash::Kind kind : kKinds) {
      for (std::size_t n : {std::size_t{1}, std::size_t{9}, std::size_t{256},
                            std::size_t{300}}) {
        // 512 exceeds the SIMD kernels' chunk-vector table (kMaxFanout
        // = 256): must take the scalar fallback, not overrun it.
        for (std::uint32_t fanout : {1u, 2u, 16u, 512u}) {
          const std::uint32_t salt = static_cast<std::uint32_t>(prng.next_u64());
          const auto states = random_words(prng, n);
          std::vector<std::uint32_t> want(n * fanout), got(n * fanout);
          scalar()->hash_children(kind, salt, states.data(), n, fanout, want.data());
          b->hash_children(kind, salt, states.data(), n, fanout, got.data());
          EXPECT_EQ(want, got) << b->name << " kind=" << hash::kind_name(kind)
                               << " n=" << n << " fanout=" << fanout;
        }
      }
    }
  }
}

TEST(BackendKernels, PremixCompositionMatchesScalarExactly) {
  util::Xoshiro256 prng(103);
  for (const Backend* b : simd_backends()) {
    for (std::size_t n : kSizes) {
      const std::uint32_t salt = static_cast<std::uint32_t>(prng.next_u64());
      const std::uint32_t data = static_cast<std::uint32_t>(prng.next_u64());
      const auto states = random_words(prng, n);
      std::vector<std::uint32_t> pm_want(n), pm_got(n), want(n), got(n);
      scalar()->premix_n(salt, states.data(), n, pm_want.data());
      b->premix_n(salt, states.data(), n, pm_got.data());
      EXPECT_EQ(pm_want, pm_got) << b->name << " premix_n n=" << n;
      scalar()->hash_premixed_n(pm_want.data(), n, data, want.data());
      b->hash_premixed_n(pm_want.data(), n, data, got.data());
      EXPECT_EQ(want, got) << b->name << " hash_premixed_n n=" << n;
      // Composition == direct one-at-a-time hash.
      b->hash_n(hash::Kind::kOneAtATime, salt, states.data(), n, data, want.data());
      EXPECT_EQ(want, got) << b->name << " premix composition n=" << n;
    }
  }
}

/// Builds a small random constellation table (power-of-two size, as the
/// real one) for the cost-metric kernels.
std::vector<float> random_table(util::Xoshiro256& prng, int cbits) {
  std::vector<float> t(std::size_t{1} << cbits);
  for (auto& x : t) x = static_cast<float>(prng.next_double()) * 2.0f - 1.0f;
  return t;
}

TEST(BackendKernels, AwgnExpandAllMatchesScalarExactly) {
  util::Xoshiro256 prng(104);
  backend::ExpandScratch sc_want, sc_got;
  for (const Backend* b : simd_backends()) {
    for (hash::Kind kind : kKinds) {
      for (int mode = 0; mode < 3; ++mode) {  // plain, CSI, CSI+fixed-point
        const int cbits = 6;
        const auto table = random_table(prng, cbits);
        const std::size_t count = 37;  // deliberately not a lane multiple
        const std::uint32_t fanout = 8;
        const std::size_t total = count * fanout;
        const auto states = random_words(prng, count);
        const std::uint32_t nsym = 5;
        const auto ord = random_words(prng, nsym);
        std::vector<float> y_re(nsym), y_im(nsym), h_re(nsym), h_im(nsym);
        for (std::uint32_t s = 0; s < nsym; ++s) {
          y_re[s] = static_cast<float>(prng.next_double()) * 2.0f - 1.0f;
          y_im[s] = static_cast<float>(prng.next_double()) * 2.0f - 1.0f;
          h_re[s] = static_cast<float>(prng.next_double()) * 2.0f - 1.0f;
          h_im[s] = static_cast<float>(prng.next_double()) * 2.0f - 1.0f;
        }
        const std::uint32_t salt = static_cast<std::uint32_t>(prng.next_u64());

        auto run = [&](const Backend* be, backend::ExpandScratch& sc,
                       std::vector<std::uint32_t>& out_states,
                       std::vector<float>& out_costs) {
          sc.rng_words.resize(total);
          sc.premix.resize(total);
          backend::AwgnLevel level{kind,
                                   salt,
                                   ord.data(),
                                   nsym,
                                   y_re.data(),
                                   y_im.data(),
                                   h_re.data(),
                                   h_im.data(),
                                   /*use_csi=*/mode > 0,
                                   /*fx_scale=*/mode == 2 ? 64.0f : 0.0f,
                                   table.data(),
                                   table.data(),
                                   static_cast<std::uint32_t>(table.size() - 1),
                                   cbits,
                                   sc.rng_words.data(),
                                   sc.premix.data(),
                                   nullptr,
                                   nullptr};
          out_states.resize(total);
          out_costs.resize(total);
          be->f32.awgn_expand_all(level, states.data(), count, fanout,
                                  out_states.data(), out_costs.data());
        };

        std::vector<std::uint32_t> st_want, st_got;
        std::vector<float> c_want, c_got;
        run(scalar(), sc_want, st_want, c_want);
        run(b, sc_got, st_got, c_got);
        EXPECT_EQ(st_want, st_got)
            << b->name << " states, kind=" << hash::kind_name(kind) << " mode=" << mode;
        // Float costs must match to the exact bit, not approximately.
        ASSERT_EQ(c_want.size(), c_got.size());
        for (std::size_t i = 0; i < c_want.size(); ++i)
          EXPECT_EQ(std::memcmp(&c_want[i], &c_got[i], sizeof(float)), 0)
              << b->name << " cost lane " << i << " kind=" << hash::kind_name(kind)
              << " mode=" << mode << " want=" << c_want[i] << " got=" << c_got[i];
      }
    }
  }
}

TEST(BackendKernels, BscExpandAllMatchesScalarExactly) {
  util::Xoshiro256 prng(105);
  backend::ExpandScratch sc_want, sc_got;
  for (const Backend* b : simd_backends()) {
    for (hash::Kind kind : kKinds) {
      const std::size_t count = 29;
      const std::uint32_t fanout = 4;
      const std::size_t total = count * fanout;
      const auto states = random_words(prng, count);
      const std::uint32_t nsym = 130;  // > 2 packed blocks, partial tail
      const auto ord = random_words(prng, nsym);
      std::vector<std::uint64_t> rx_words((nsym + 63) / 64);
      for (auto& wd : rx_words) wd = prng.next_u64();
      const std::uint32_t salt = static_cast<std::uint32_t>(prng.next_u64());

      auto run = [&](const Backend* be, backend::ExpandScratch& sc,
                     std::vector<std::uint32_t>& out_states,
                     std::vector<float>& out_costs) {
        sc.rng_words.resize(total);
        sc.premix.resize(total);
        sc.acc_bits.resize(total);
        backend::BscLevel level{kind,
                                salt,
                                ord.data(),
                                nsym,
                                rx_words.data(),
                                sc.rng_words.data(),
                                sc.premix.data(),
                                sc.acc_bits.data()};
        out_states.resize(total);
        out_costs.resize(total);
        be->bsc_expand_all(level, states.data(), count, fanout, out_states.data(),
                           out_costs.data());
      };

      std::vector<std::uint32_t> st_want, st_got;
      std::vector<float> c_want, c_got;
      run(scalar(), sc_want, st_want, c_want);
      run(b, sc_got, st_got, c_got);
      EXPECT_EQ(st_want, st_got) << b->name << " kind=" << hash::kind_name(kind);
      EXPECT_EQ(c_want, c_got) << b->name << " kind=" << hash::kind_name(kind);
    }
  }
}

TEST(BackendKernels, AwgnExpandPruneMatchesSplitPipeline) {
  // The fused streaming kernel — expansion, metric sweeps, partial-cost
  // narrowing and the bound filter in one call — must append exactly
  // the keys that awgn_expand_all followed by d1_prune produces, with
  // identical child states, for every backend x hash kind x channel
  // mode x bound tightness (including the degenerate keep-everything
  // bound, where no narrowing happens).
  util::Xoshiro256 prng(111);
  backend::ExpandScratch sc_split, sc_fused;
  // Geometries: fanout 2 takes the SIMD kernels' scalar fallback and
  // 16 is the k=4 reference geometry; nsym 0 and 1 take the
  // no-compress branches, 70 runs long sweeps over few survivors.
  for (const std::uint32_t fanout : {8u, 2u, 16u}) {
    for (const std::uint32_t nsym : {3u, 0u, 1u, 70u}) {
      for (const Backend* b : backend::available()) {
        for (hash::Kind kind : kKinds) {
          for (int mode = 0; mode < 3; ++mode) {  // plain, CSI, CSI+fixed-point
            const int cbits = 6;
            const auto table = random_table(prng, cbits);
            const std::size_t count = 37;
            const std::size_t total = count * fanout;
            const auto states = random_words(prng, count);
            const auto ord = random_words(prng, nsym);
            std::vector<float> y_re(nsym), y_im(nsym), h_re(nsym), h_im(nsym);
            for (std::uint32_t s = 0; s < nsym; ++s) {
              y_re[s] = static_cast<float>(prng.next_double()) * 2.0f - 1.0f;
              y_im[s] = static_cast<float>(prng.next_double()) * 2.0f - 1.0f;
              h_re[s] = static_cast<float>(prng.next_double()) * 2.0f - 1.0f;
              h_im[s] = static_cast<float>(prng.next_double()) * 2.0f - 1.0f;
            }
            std::vector<float> parent(count);
            float walk = 0.5f;
            for (auto& p : parent) {
              walk += static_cast<float>(prng.next_double()) * 0.3f;
              p = walk;
            }
            const std::uint32_t salt = static_cast<std::uint32_t>(prng.next_u64());

            auto make_level = [&](backend::ExpandScratch& sc) {
              sc.rng_words.resize(total);
              sc.premix.resize(total);
              sc.acc.resize(total);
              sc.idx.resize(total);
              return backend::AwgnLevel{kind,
                                        salt,
                                        ord.data(),
                                        nsym,
                                        y_re.data(),
                                        y_im.data(),
                                        h_re.data(),
                                        h_im.data(),
                                        /*use_csi=*/mode > 0,
                                        /*fx_scale=*/mode == 2 ? 64.0f : 0.0f,
                                        table.data(),
                                        table.data(),
                                        static_cast<std::uint32_t>(table.size() - 1),
                                        cbits,
                                        sc.rng_words.data(),
                                        sc.premix.data(),
                                        sc.acc.data(),
                                        sc.idx.data()};
            };

            // Split reference: full expansion, then the generic prune.
            const backend::AwgnLevel ls = make_level(sc_split);
            std::vector<std::uint32_t> st_split(total);
            std::vector<float> costs(total);
            b->f32.awgn_expand_all(ls, states.data(), count, fanout, st_split.data(),
                                   costs.data());

            for (int bsel = 0; bsel < 3; ++bsel) {
              // Bounds: keep everything / the 25% point / the 75% point.
              std::uint64_t bound = ~0ull;
              if (bsel > 0) {
                std::vector<float> fin(total);
                for (std::size_t i = 0; i < count; ++i)
                  for (std::uint32_t v = 0; v < fanout; ++v)
                    fin[i * fanout + v] = parent[i] + costs[i * fanout + v];
                std::sort(fin.begin(), fin.end());
                const float cut = fin[bsel == 1 ? total / 4 : 3 * total / 4];
                bound = (static_cast<std::uint64_t>(backend::monotone_key(cut)) << 32) |
                        0x000004FFull;  // a mid-range index tie-break
              }
              std::vector<std::uint64_t> k_split(total + backend::kCompressSlack, ~0ull),
                  k_fused(total + backend::kCompressSlack, ~1ull);
              const std::size_t n_split =
                  b->f32.d1_prune(parent.data(), costs.data(), count, fanout, 100,
                                  bound, k_split.data());
              const backend::AwgnLevel lf = make_level(sc_fused);
              std::vector<std::uint32_t> st_fused(total, ~0u);
              const std::size_t n_fused =
                  b->f32.awgn_expand_prune(lf, states.data(), parent.data(), count,
                                           fanout, 100, bound, st_fused.data(),
                                           k_fused.data());
              EXPECT_EQ(n_split, n_fused)
                  << b->name << " kind=" << hash::kind_name(kind) << " mode=" << mode
                  << " bsel=" << bsel << " fanout=" << fanout << " nsym=" << nsym;
              EXPECT_EQ(st_split, st_fused) << b->name << " mode=" << mode;
              for (std::size_t j = 0; j < std::min(n_split, n_fused); ++j)
                EXPECT_EQ(k_split[j], k_fused[j])
                    << b->name << " kind=" << hash::kind_name(kind) << " mode=" << mode
                    << " bsel=" << bsel << " survivor " << j;
            }
          }
        }
      }
    }
  }
}

/// Selection inputs beyond the clustered walks: the shapes a decode
/// level produces, plus sizes on both sides of every size threshold
/// the select and sort pick their strategy by (24 keys, and 256 keys
/// at keep <= 4: insertion finish; 512 and 2048: bucket-count caps;
/// 4096: stack scratch). Each
/// shape comes as keep points to try, in candidate order and, for the
/// tie-heavy shapes, shuffled (the tie fix-ups must not rely on
/// candidate order).
struct SelectShape {
  std::string label;
  std::vector<float> costs;  ///< candidate i costs costs[i]
  std::vector<std::size_t> keeps;
  bool shuffle = false;
};

std::vector<SelectShape> select_shapes(util::Xoshiro256& prng) {
  std::vector<SelectShape> shapes;
  const auto uniform = [&](std::size_t n, float scale) {
    std::vector<float> c(n);
    for (auto& x : c) x = static_cast<float>(prng.next_double()) * scale;
    return c;
  };
  // Tiny blocks: the B=2 beam selects 2 of a couple dozen.
  for (std::size_t n : {1u, 2u, 3u, 5u, 16u, 23u, 24u, 25u, 31u, 32u})
    shapes.push_back({"tiny" + std::to_string(n), uniform(n, 4.0f), {1, 2}});
  // Small keeps (a B <= 4 beam) over blocks around the 256-key reach
  // of the insertion select, uniform and with ties straddling the keep
  // boundary.
  for (std::size_t n : {25u, 64u, 255u, 256u, 257u}) {
    shapes.push_back({"smallkeep" + std::to_string(n), uniform(n, 4.0f), {1, 2, 3, 4}});
    std::vector<float> c(n);
    for (auto& x : c) x = std::floor(static_cast<float>(prng.next_double()) * 3.0f);
    for (bool shuffle : {false, true})
      shapes.push_back({"smallkeep_ties" + std::to_string(n), c, {1, 2, 3, 4}, shuffle});
  }
  // All-equal costs: a level with no received symbols.
  for (std::size_t n : {16u, 64u, 300u, 1024u}) {
    for (bool shuffle : {false, true})
      shapes.push_back({"equal" + std::to_string(n), std::vector<float>(n, 3.5f),
                        {1, 2, n / 4, n - 1},
                        shuffle});
  }
  // Integer-valued costs (BSC Hamming metrics): ties straddle every
  // keep boundary.
  for (std::size_t n : {100u, 520u, 1000u}) {
    std::vector<float> c(n);
    for (auto& x : c) x = std::floor(static_cast<float>(prng.next_double()) * 12.0f);
    for (bool shuffle : {false, true})
      shapes.push_back({"hamming" + std::to_string(n), c, {2, 64, n / 2, n - 1}, shuffle});
  }
  // Two far-apart cost values: one bucket holds half the block, or
  // more keys than the stack scratch.
  for (std::size_t n : {600u, 6000u}) {
    std::vector<float> c(n);
    for (auto& x : c) x = (prng.next_u64() % 16 < (n > 4096 ? 1u : 8u)) ? 1000.0f : 1.0f;
    for (bool shuffle : {false, true})
      shapes.push_back({"bimodal" + std::to_string(n), c, {2, n / 2, n - 1}, shuffle});
  }
  // Random sizes and keeps, uniform and integer costs: they land on
  // every select path (sample rounds, the register network and its
  // merge, the bucket sort) at keeps no fixed shape above picks.
  for (int r = 0; r < 24; ++r) {
    const std::size_t n = 25 + prng.next_below(700);
    std::vector<float> c(n);
    for (auto& x : c)
      x = static_cast<float>(prng.next_double()) * 8.0f;
    if (r % 2 == 1)
      for (auto& x : c) x = std::floor(x);
    const std::size_t keep = 5 + prng.next_below(n - 5);
    shapes.push_back({"random" + std::to_string(n), c, {keep, n / 8 + 5}, r % 3 == 0});
  }
  // Clustered walks at the size thresholds.
  for (std::size_t n : {511u, 512u, 513u, 1023u, 1024u, 2047u, 2048u, 2049u, 4095u,
                        4096u, 4097u, 8192u}) {
    std::vector<float> c(n);
    float walk = 10.0f;
    for (auto& x : c) {
      walk += static_cast<float>(prng.next_double()) * 0.05f;
      x = walk + static_cast<float>(prng.next_double()) * 3.0f;
    }
    shapes.push_back({"walk" + std::to_string(n), c, {1, 256, n / 2, n - 1}});
  }
  return shapes;
}

/// The shape's keys in its candidate order, shuffled on request.
template <class Key, class MakeKey>
std::vector<Key> shape_keys(const SelectShape& shape, util::Xoshiro256& prng,
                            MakeKey make_key) {
  std::vector<Key> keys(shape.costs.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = make_key(shape.costs[i], static_cast<std::uint32_t>(i));
  if (shape.shuffle)
    for (std::size_t i = keys.size(); i > 1; --i)
      std::swap(keys[i - 1], keys[prng.next_u64() % i]);
  return keys;
}

std::uint64_t f32_key(float cost, std::uint32_t cand) {
  return backend::F32Lane::key(cost, cand);
}

/// U16Lane keys carry integer costs: the float shapes scale onto the
/// u16 grid (walk shapes keep their fractional spread at x16).
std::uint32_t u16_key(float cost, std::uint32_t cand) {
  return backend::quant_key(static_cast<std::uint32_t>(cost * 16.0f) & 0xFFFF, cand & 0xFFFF);
}

/// The cost lane whose select runs on @p Key keys.
template <class Key>
using LaneOf = std::conditional_t<sizeof(Key) == 8, backend::F32Lane, backend::U16Lane>;

/// A value no select writes on its own: guard words past count.
template <class Key>
constexpr Key kGuardKey = static_cast<Key>(0x5A5A5A5A5A5A5A5Aull);

/// The keys followed by kCompressSlack + 4 guard words.
template <class Key>
std::vector<Key> guarded(const std::vector<Key>& keys) {
  std::vector<Key> work = keys;
  work.resize(keys.size() + backend::kCompressSlack + 4, kGuardKey<Key>);
  return work;
}

template <class Key>
void expect_guards(const std::vector<Key>& work, std::size_t n, const std::string& what) {
  for (std::size_t i = n; i < work.size(); ++i)
    EXPECT_EQ(work[i], kGuardKey<Key>) << what << ": wrote slot " << i << " past count";
}

/// The tighten contract (keep < n): it returns m >= keep and a bound,
/// and keys[0, m) holds exactly the keys <= the bound — so the bound is
/// admissible. Nothing at or past count is written.
template <class Key>
void expect_tighten(const Backend* b, const std::vector<Key>& keys, std::size_t keep,
                    const std::string& label) {
  const std::size_t n = keys.size();
  std::vector<Key> work = guarded(keys);
  Key bound = kGuardKey<Key>;
  const std::size_t m = b->lane<LaneOf<Key>>().tighten(work.data(), n, keep, &bound);
  const std::string what = std::string(b->name) + " " + label + " n=" + std::to_string(n) +
                           " keep=" + std::to_string(keep);
  EXPECT_GE(m, keep) << what;
  std::vector<Key> want;
  for (const Key k : keys)
    if (k <= bound) want.push_back(k);
  std::sort(want.begin(), want.end());
  std::vector<Key> got(work.begin(), work.begin() + static_cast<std::ptrdiff_t>(std::min(m, n)));
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want) << what;
  expect_guards(work, n, what);
}

/// The select contract: the min(keep, n) smallest keys, ascending, at
/// the front — the full sort's prefix. Nothing past count is written.
template <class Key>
void expect_select_prefix(const Backend* b, const std::vector<Key>& keys, std::size_t keep,
                          const std::string& label) {
  std::vector<Key> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  std::vector<Key> work = guarded(keys);
  b->lane<LaneOf<Key>>().select(work.data(), keys.size(), keep);
  const std::size_t kept = std::min(keep, keys.size());
  const std::string what = std::string(b->name) + " " + label +
                           " n=" + std::to_string(keys.size()) + " keep=" + std::to_string(keep);
  EXPECT_TRUE(std::equal(work.begin(), work.begin() + static_cast<std::ptrdiff_t>(kept),
                         sorted.begin()))
      << what;
  expect_guards(work, keys.size(), what);
}

TEST(BackendKernels, TightenKeepsEveryKeyAtOrBelowItsBound) {
  // The search's mid-level refinement on u64 keys, on every backend:
  // an admissible bound (keep keys at or below it) and a buffer
  // compacted to exactly the keys at or below it — over clustered walks
  // and every select shape.
  util::Xoshiro256 prng(112);
  for (const Backend* b : backend::available()) {
    for (std::size_t n : {std::size_t{2}, std::size_t{300}, std::size_t{546},
                          std::size_t{4096}}) {
      std::vector<float> costs(n);
      float walk = 5.0f;
      for (auto& c : costs) {
        walk += static_cast<float>(prng.next_double()) * 0.25f;
        c = walk + static_cast<float>(prng.next_double()) * 2.0f;
      }
      std::vector<std::uint64_t> keys(n);
      backend::build_keys(costs.data(), n, keys.data());
      for (std::size_t keep : {std::size_t{1}, std::size_t{64}, n / 2, n - 1})
        if (keep > 0 && keep < n) expect_tighten(b, keys, keep, "walk");
    }
    for (const SelectShape& shape : select_shapes(prng)) {
      const auto keys = shape_keys<std::uint64_t>(shape, prng, f32_key);
      for (std::size_t keep : shape.keeps)
        if (keep > 0 && keep < keys.size()) expect_tighten(b, keys, keep, shape.label);
    }
  }
}

TEST(BackendKernels, SelectionKeysMatchFirstPrinciples) {
  // Every backend's select answers to first principles: build_keys
  // packs F32Lane keys (monotone cost word, candidate index) and the
  // select keeps the full sort's prefix in order — over mixed signs and
  // exact ties at zero.
  util::Xoshiro256 prng(106);
  for (std::size_t n : {std::size_t{1}, std::size_t{17}, std::size_t{1024}}) {
    std::vector<float> costs(n);
    for (auto& c : costs)
      c = static_cast<float>(prng.next_double()) * 8.0f - 1.0f;  // mixed signs
    costs[0] = 0.0f;  // exercise ties at zero
    if (n > 4) costs[4] = 0.0f;
    std::vector<std::uint64_t> want(n), got(n);
    for (std::size_t i = 0; i < n; ++i)
      want[i] = (static_cast<std::uint64_t>(backend::monotone_key(costs[i])) << 32) | i;
    backend::build_keys(costs.data(), n, got.data());
    EXPECT_EQ(want, got) << "build_keys n=" << n;

    // Selection: the kept set and its order are the sorted prefix, on
    // every backend.
    const std::size_t keep = n / 2 + 1;
    std::sort(want.begin(), want.end());
    want.resize(keep);
    for (const Backend* b : backend::available()) {
      std::vector<std::uint64_t> sel = got;
      b->f32.select(sel.data(), n, keep);
      sel.resize(keep);
      EXPECT_EQ(want, sel) << b->name << " select n=" << n;
    }
  }
}

TEST(BackendKernels, D1PruneMatchesScalarExactly) {
  // The streaming finalize+prune kernel: for every backend, every
  // fanout shape and several bound tightnesses (keep-all, mid, tight),
  // the appended survivors — keys, gathered states, candidate indices
  // and the returned count — must match the scalar kernel exactly, and
  // must equal the brute-force filter of the materialized candidate
  // set (the retired d1_keys contract this kernel replaces).
  util::Xoshiro256 prng(107);
  for (const Backend* b : backend::available()) {
    // Fanouts straddling the lane widths, incl. short-final-chunk sizes.
    for (std::uint32_t fanout : {1u, 2u, 4u, 8u, 16u, 64u}) {
      const std::size_t count = 53;
      const std::size_t total = count * fanout;
      std::vector<float> parent(count), child(total);
      for (auto& c : parent) c = static_cast<float>(prng.next_double()) * 30.0f;
      for (auto& c : child) c = static_cast<float>(prng.next_double()) * 10.0f;

      // Brute force: every candidate's finalized cost and key.
      std::vector<float> cost(total);
      for (std::size_t i = 0; i < count; ++i)
        for (std::uint32_t v = 0; v < fanout; ++v)
          cost[i * fanout + v] = parent[i] + child[i * fanout + v];

      // Bounds: keep-everything, cost-only cuts, and a mid-candidate
      // full-key cut whose index tie-break is on the line.
      for (const std::uint64_t bound :
           {~0ull, (static_cast<std::uint64_t>(backend::monotone_key(18.0f)) << 32) |
                       0xFFFFFFFFull,
            (static_cast<std::uint64_t>(backend::monotone_key(6.0f)) << 32) | 1200ull}) {
        const std::uint32_t cand_base = 1000;
        // SIMD backends compress-store whole vectors.
        std::vector<std::uint64_t> keys(total + backend::kCompressSlack, ~0ull);
        const std::size_t got = b->f32.d1_prune(parent.data(), child.data(), count, fanout,
                                            cand_base, bound, keys.data());
        std::size_t want = 0;
        for (std::size_t c = 0; c < total; ++c) {
          const std::uint64_t key =
              (static_cast<std::uint64_t>(backend::monotone_key(cost[c])) << 32) |
              (cand_base + c);
          if (key > bound) continue;
          ASSERT_LT(want, got) << b->name << " fanout=" << fanout;
          EXPECT_EQ(keys[want], key)
              << b->name << " fanout=" << fanout << " survivor " << want;
          ++want;
        }
        EXPECT_EQ(got, want) << b->name << " fanout=" << fanout << " bound=" << bound;
      }
    }
  }
}

TEST(BackendKernels, RowMinsMatchScalarExactly) {
  util::Xoshiro256 prng(109);
  for (const Backend* b : backend::available()) {
    for (std::uint32_t fanout : {1u, 2u, 4u, 8u, 16u, 32u}) {
      const std::size_t leaves = 41;
      std::vector<float> leaf_cost(leaves), child(leaves * fanout);
      for (auto& c : leaf_cost) c = static_cast<float>(prng.next_double()) * 30.0f;
      for (auto& c : child) c = static_cast<float>(prng.next_double()) * 10.0f;
      // Exercise exact ties inside a row: the min must stay bit-stable.
      if (fanout > 2) child[3 * fanout + 2] = child[3 * fanout + 1];
      std::vector<float> got(leaves, -1.0f);
      b->f32.row_mins(leaf_cost.data(), child.data(), leaves, fanout, got.data());
      for (std::size_t i = 0; i < leaves; ++i) {
        float m = child[i * fanout];
        for (std::uint32_t v = 1; v < fanout; ++v)
          if (child[i * fanout + v] < m) m = child[i * fanout + v];
        const float want = leaf_cost[i] + m;
        EXPECT_EQ(std::memcmp(&want, &got[i], sizeof(float)), 0)
            << b->name << " fanout=" << fanout << " leaf " << i;
      }
    }
  }
}

TEST(BackendKernels, RegroupEmitMatchesScalarExactly) {
  // The vectorized d>1 regroup: surviving groups' child rows must land
  // in the survivor arena exactly as the scalar reference places them
  // (leaf-major fill order, finalized costs, extended paths), and
  // pruned groups' arena rows must never be touched.
  util::Xoshiro256 prng(110);
  for (const Backend* b : backend::available()) {
    for (const int d : {2, 3}) {
      const int k = 3;
      const std::uint32_t fanout = 8, group_count = 8;
      const std::uint32_t group_mask = group_count - 1;
      const std::size_t lpe = 16;  // leaves per entry: 2 per group
      std::vector<std::uint32_t> child_state(lpe * fanout), leaf_path(lpe);
      std::vector<float> child_cost(lpe * fanout), leaf_cost(lpe);
      for (auto& s : child_state) s = static_cast<std::uint32_t>(prng.next_u64());
      for (auto& c : child_cost) c = static_cast<float>(prng.next_double()) * 10.0f;
      for (auto& c : leaf_cost) c = static_cast<float>(prng.next_double()) * 30.0f;
      // Paths: two leaves per group, upper path bits random.
      for (std::size_t i = 0; i < lpe; ++i)
        leaf_path[i] = static_cast<std::uint32_t>(i % group_count) |
                       (static_cast<std::uint32_t>(prng.next_u64() & 0x7u) << k);
      // Groups 0, 3, 5 pruned; the rest get distinct row bases.
      const std::uint32_t rows = static_cast<std::uint32_t>(lpe / group_count) * fanout;
      std::vector<std::int32_t> rowbase(group_count, -1);
      std::int32_t base = 0;
      for (std::uint32_t g = 0; g < group_count; ++g) {
        if (g == 0 || g == 3 || g == 5) continue;
        rowbase[g] = base;
        base += static_cast<std::int32_t>(rows);
      }
      const std::size_t arena = static_cast<std::size_t>(base) + rows;  // + guard rows
      std::vector<std::uint32_t> st_want(arena, 0xABABABABu), st_got = st_want;
      std::vector<float> c_want(arena, -7.0f), c_got = c_want;
      std::vector<std::uint32_t> p_want(arena, 0xCDCDCDCDu), p_got = p_want;
      scalar()->f32.regroup_emit(child_state.data(), child_cost.data(), leaf_cost.data(),
                             leaf_path.data(), lpe, fanout, k, d, group_mask,
                             rowbase.data(), st_want.data(), c_want.data(),
                             p_want.data());
      b->f32.regroup_emit(child_state.data(), child_cost.data(), leaf_cost.data(),
                      leaf_path.data(), lpe, fanout, k, d, group_mask, rowbase.data(),
                      st_got.data(), c_got.data(), p_got.data());
      EXPECT_EQ(st_want, st_got) << b->name << " d=" << d;
      EXPECT_EQ(p_want, p_got) << b->name << " d=" << d;
      ASSERT_EQ(c_want.size(), c_got.size());
      for (std::size_t i = 0; i < c_want.size(); ++i)
        EXPECT_EQ(std::memcmp(&c_want[i], &c_got[i], sizeof(float)), 0)
            << b->name << " d=" << d << " row " << i;
      // Semantics spot-check against first principles, group 1.
      std::uint32_t fill = 0;
      for (std::size_t lf = 0; lf < lpe; ++lf) {
        if ((leaf_path[lf] & group_mask) != 1u) continue;
        for (std::uint32_t v = 0; v < fanout; ++v) {
          const std::size_t dst = static_cast<std::size_t>(rowbase[1]) + fill * fanout + v;
          EXPECT_EQ(st_got[dst], child_state[lf * fanout + v]);
          const float want = leaf_cost[lf] + child_cost[lf * fanout + v];
          EXPECT_EQ(std::memcmp(&want, &c_got[dst], sizeof(float)), 0);
          EXPECT_EQ(p_got[dst], (leaf_path[lf] >> k) | (v << (k * (d - 2))));
        }
        ++fill;
      }
    }
  }
}

TEST(BackendKernels, StreamingPruneEqualsFullExpandSelect) {
  // The admissibility property behind the whole streaming pipeline: on
  // randomized blocks and beams, running expand blocks through d1_prune
  // with the running keep-th-best bound (tightened by block-local
  // compactions, exactly as beam_search does) must keep the same keys,
  // in the same packed-key order, as materializing every candidate and
  // running the full B-of-N select. Seeds are logged for replay.
  constexpr std::uint64_t kMasterSeed = 0xBEADC0DE2026ull;
  util::Xoshiro256 master(kMasterSeed);
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint64_t seed = master.next_u64();
    util::Xoshiro256 prng(seed);
    const std::uint32_t fanout = 1u << (2 + prng.next_below(3));  // 4/8/16
    const std::size_t count = 32 + prng.next_below(200);          // leaves
    const std::size_t total = count * fanout;
    const int keep = static_cast<int>(std::min<std::size_t>(
        total, 16u << prng.next_below(4)));  // 16..128
    std::vector<float> parent(count), child(total);
    // Clustered, near-sorted parents — the shape real beams have.
    float walk = 1.0f;
    for (auto& c : parent) {
      walk += static_cast<float>(prng.next_double()) * 0.2f;
      c = walk;
    }
    for (auto& c : child) c = static_cast<float>(prng.next_double()) * 4.0f;

    // Reference: materialize + full select (the retired contract).
    std::vector<float> cost(total);
    for (std::size_t i = 0; i < count; ++i)
      for (std::uint32_t v = 0; v < fanout; ++v)
        cost[i * fanout + v] = parent[i] + child[i * fanout + v];
    std::vector<std::uint64_t> full(total);
    backend::build_keys(cost.data(), total, full.data());
    std::sort(full.begin(), full.end());

    for (const Backend* b : backend::available()) {
      const std::size_t block_leaves = 1 + prng.next_below(31);
      const std::size_t trigger = 2 * static_cast<std::size_t>(keep);
      std::vector<std::uint64_t> keys(total + backend::kCompressSlack);
      std::uint64_t bound = ~0ull;
      std::size_t sc = 0;
      for (std::size_t L = 0; L < count; L += block_leaves) {
        const std::size_t n = std::min(block_leaves, count - L);
        sc += b->f32.d1_prune(parent.data() + L, child.data() + L * fanout, n, fanout,
                          static_cast<std::uint32_t>(L * fanout), bound,
                          keys.data() + sc);
        // The online bound: the backend's tighten, as beam_search runs
        // it (an admissible bound; truncation to it is admissible).
        if (sc >= trigger && L + n < count)
          sc = b->f32.tighten(keys.data(), sc, static_cast<std::size_t>(keep), &bound);
      }
      ASSERT_GE(sc, static_cast<std::size_t>(keep)) << b->name << " seed=" << seed;
      b->f32.select(keys.data(), sc, static_cast<std::size_t>(keep));
      // The kept keys — cost bits AND candidate indices, in packed-key
      // order — must be exactly the full sort's prefix.
      for (int j = 0; j < keep; ++j)
        EXPECT_EQ(keys[j], full[j]) << b->name << " seed=" << seed << " kept " << j;
    }
  }
}

TEST(BackendKernels, SelectKeysMatchesFullSortReference) {
  // Every backend's select must keep exactly the keep smallest keys, in
  // ascending order — the prefix of a full sort; keep >= n sorts them
  // all. Exercised on clustered near-sorted keys (the shape real decode
  // costs have), several keep points and every select shape.
  util::Xoshiro256 prng(108);
  for (const Backend* b : backend::available()) {
    for (std::size_t n : {std::size_t{2}, std::size_t{100}, std::size_t{4096},
                          std::size_t{5000}}) {
      std::vector<float> costs(n);
      float walk = 20.0f;
      for (auto& c : costs) {
        walk += static_cast<float>(prng.next_double()) * 0.25f;
        c = walk + static_cast<float>(prng.next_double()) * 2.0f;
      }
      std::vector<std::uint64_t> keys(n);
      backend::build_keys(costs.data(), n, keys.data());
      for (std::size_t keep : {std::size_t{1}, n / 3, n - 1, n, n + 20})
        if (keep > 0) expect_select_prefix(b, keys, keep, "walk");
    }
    for (const SelectShape& shape : select_shapes(prng)) {
      const auto keys = shape_keys<std::uint64_t>(shape, prng, f32_key);
      for (std::size_t keep : shape.keeps)
        if (keep > 0) expect_select_prefix(b, keys, keep, shape.label);
      expect_select_prefix(b, keys, keys.size(), shape.label + " (full sort)");
    }
  }
}

TEST(BackendKernels, XorRowsMatchesScalarExactly) {
  // The dense GF(2) row combine (Raptor's precode client): dst ^= src
  // must match the scalar word loop on every backend, at word counts
  // straddling the vector strides (AVX2 covers 4 u64 words per step,
  // SSE/NEON 2) including 0 and odd tails, and must accumulate — a
  // second combine with the same row must cancel it.
  util::Xoshiro256 prng(113);
  for (const Backend* b : simd_backends()) {
    for (std::size_t words : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{3}, std::size_t{4}, std::size_t{5},
                              std::size_t{7}, std::size_t{8}, std::size_t{9},
                              std::size_t{31}, std::size_t{64}, std::size_t{257}}) {
      std::vector<std::uint64_t> src(words), want(words), got(words);
      for (auto& wd : src) wd = prng.next_u64();
      for (std::size_t i = 0; i < words; ++i) want[i] = got[i] = prng.next_u64();
      scalar()->xor_rows(want.data(), src.data(), words);
      b->xor_rows(got.data(), src.data(), words);
      EXPECT_EQ(want, got) << b->name << " words=" << words;
      // Involution: XORing the same row again restores the original.
      std::vector<std::uint64_t> round = got;
      b->xor_rows(round.data(), src.data(), words);
      scalar()->xor_rows(want.data(), src.data(), words);
      EXPECT_EQ(round, want) << b->name << " words=" << words << " (involution)";
    }
  }
}

// ------------------------------------------- quantized (u16) kernels

/// Builds a randomized quantized level table in the AwgnLevelQ::qtab
/// layout: nsym row pairs of 2^cbits per-dimension u16 metrics (the I
/// row, then the Q row), each entry <= cap, plus one u16 of gather tail
/// slack. About one entry in sixteen sits at cap and one more just
/// below it, so both the per-symbol clamp of qre + qim and the path's
/// saturating adds trip.
std::vector<std::uint16_t> random_qrows(util::Xoshiro256& prng, std::uint32_t nsym,
                                        int cbits, std::uint32_t cap) {
  std::vector<std::uint16_t> t((static_cast<std::size_t>(nsym) << (cbits + 1)) + 1, 0);
  const std::uint32_t low = std::min(cap / 2 + 1, 2048u);
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    const std::uint32_t r = static_cast<std::uint32_t>(prng.next_u64());
    const std::uint32_t v = (r & 15u) == 0   ? cap
                            : (r & 15u) == 1 ? cap - (r >> 4) % (cap / 8 + 1)
                                             : (r >> 4) % low;
    t[i] = static_cast<std::uint16_t>(v);
  }
  return t;
}

/// The brute-force per-symbol metric of symbol s for RNG word w:
/// min(qre[w & mask] + qim[(w >> c) & mask], cap).
std::uint32_t qmetric(const std::vector<std::uint16_t>& qtab, std::uint32_t s, int cbits,
                      std::uint32_t cap, std::uint32_t w) {
  const std::uint32_t dim = 1u << cbits;
  const std::uint16_t* row = qtab.data() + (static_cast<std::size_t>(s) << (cbits + 1));
  return std::min<std::uint32_t>(row[w & (dim - 1)] + row[dim + ((w >> cbits) & (dim - 1))],
                                 cap);
}

/// True admissible suffix floors: min_rest[s] = saturating sum over
/// rows s.. of the row's minimum metric over every 2c-bit word,
/// min_rest[nsym] = 0.
std::vector<std::uint16_t> suffix_floors(const std::vector<std::uint16_t>& qtab,
                                         std::uint32_t nsym, int cbits, std::uint32_t cap) {
  std::vector<std::uint16_t> floors(nsym + 1, 0);
  for (std::uint32_t s = nsym; s-- > 0;) {
    std::uint32_t m = 65535;
    for (std::uint32_t w = 0; w < (1u << (2 * cbits)); ++w)
      m = std::min(m, qmetric(qtab, s, cbits, cap, w));
    floors[s] = static_cast<std::uint16_t>(
        std::min(65535u, m + static_cast<std::uint32_t>(floors[s + 1])));
  }
  return floors;
}

/// Row geometries for the quantized kernel tests: c = 6 is the
/// reference map (a full AVX-512 register table per row), 1 to 5 are
/// shorter rows (repeated through the register table), and 7 is
/// longer than a register table (the gather path on every backend);
/// caps are the u16 and u8 grids'.
struct QGeom {
  int cbits;
  std::uint32_t cap;
};
constexpr QGeom kQGeoms[] = {{6, 65535}, {6, 255}, {3, 65535}, {5, 255},
                             {4, 65535}, {1, 255}, {7, 65535}};

TEST(BackendKernels, QuantizedExpandAllMatchesBruteForce) {
  // u16.awgn_expand_all on every backend must equal the from-scratch
  // definition: child state = h(state, v); cost = clamp(sum over
  // symbols of min(qre + qim, cap) at rng(child, ord[s])). This pins
  // the SIMD lookup/saturation path bit-exactly, not just
  // scalar-vs-SIMD.
  util::Xoshiro256 prng(120);
  for (const QGeom g : kQGeoms) {
    for (const Backend* b : backend::available()) {
      for (hash::Kind kind : kKinds) {
        const std::uint32_t nsym = 3, fanout = 8;
        const std::size_t count = 37;  // not a lane multiple
        const std::size_t total = count * fanout;
        const auto states = random_words(prng, count);
        const auto ord = random_words(prng, nsym);
        const auto qtab = random_qrows(prng, nsym, g.cbits, g.cap);
        const auto floors = suffix_floors(qtab, nsym, g.cbits, g.cap);
        const std::uint32_t salt = static_cast<std::uint32_t>(prng.next_u64());

        std::vector<std::uint32_t> rng_sc(total), premix_sc(total), acc_sc(total);
        const backend::AwgnLevelQ level{kind,          salt,
                                        ord.data(),    nsym,
                                        qtab.data(),   g.cbits,
                                        g.cap,         floors.data(),
                                        rng_sc.data(), premix_sc.data(),
                                        acc_sc.data(), nullptr};
        std::vector<std::uint32_t> out_states(total);
        std::vector<std::uint16_t> out_costs(total);
        b->u16.awgn_expand_all(level, states.data(), count, fanout, out_states.data(),
                               out_costs.data());

        const hash::SpineHash h(kind, salt);
        const std::string where = std::string(b->name) + " kind=" + hash::kind_name(kind) +
                                  " c=" + std::to_string(g.cbits) +
                                  " cap=" + std::to_string(g.cap);
        for (std::size_t i = 0; i < count; ++i)
          for (std::uint32_t v = 0; v < fanout; ++v) {
            const std::uint32_t child = h(states[i], v);
            std::uint32_t acc = 0;
            for (std::uint32_t s = 0; s < nsym; ++s)
              acc += qmetric(qtab, s, g.cbits, g.cap, h.rng(child, ord[s]));
            const std::size_t c = i * fanout + v;
            ASSERT_EQ(out_states[c], child) << where << " child " << c;
            ASSERT_EQ(out_costs[c], static_cast<std::uint16_t>(std::min(acc, 65535u)))
                << where << " child " << c;
          }
      }
    }
  }
}

TEST(BackendKernels, QuantizedD1PruneMatchesBruteForce) {
  util::Xoshiro256 prng(121);
  for (const Backend* b : backend::available()) {
    for (std::uint32_t fanout : {1u, 2u, 4u, 8u, 16u, 64u}) {
      const std::size_t count = 53;
      const std::size_t total = count * fanout;
      std::vector<std::uint16_t> parent(count), child(total);
      for (auto& c : parent)
        c = static_cast<std::uint16_t>(prng.next_u64() % 3000u);
      for (auto& c : child)
        c = static_cast<std::uint16_t>((prng.next_u64() & 0x3Fu) == 0
                                           ? 65000u
                                           : prng.next_u64() % 1000u);
      for (const std::uint32_t bound :
           {~0u, backend::quant_key(2500, 0xFFFF), backend::quant_key(900, 1200)}) {
        const std::uint32_t cand_base = 1000;
        std::vector<std::uint32_t> keys(total + backend::kCompressSlack, ~0u);
        const std::size_t got = b->u16.d1_prune(parent.data(), child.data(), count,
                                                fanout, cand_base, bound, keys.data());
        std::size_t want = 0;
        for (std::size_t c = 0; c < total; ++c) {
          const std::uint32_t cost = std::min(
              65535u, static_cast<std::uint32_t>(parent[c / fanout]) + child[c]);
          const std::uint32_t key =
              backend::quant_key(cost, cand_base + static_cast<std::uint32_t>(c));
          if (key > bound) continue;
          ASSERT_LT(want, got) << b->name << " fanout=" << fanout;
          EXPECT_EQ(keys[want], key)
              << b->name << " fanout=" << fanout << " survivor " << want;
          ++want;
        }
        EXPECT_EQ(got, want) << b->name << " fanout=" << fanout << " bound=" << bound;
      }
    }
  }
}

TEST(BackendKernels, QuantizedExpandPruneMatchesSplitPipeline) {
  // The fused integer streaming kernel must append exactly the keys of
  // u16.awgn_expand_all + u16.d1_prune, for every backend x hash kind
  // x row geometry x bound tightness — including bounds tight enough to
  // trip the min_rest row-skip and partial-floor sharpenings, which may
  // only ever skip work, never change the survivor set. The split
  // pipeline's costs are themselves checked against the brute-force
  // sum of min(qre + qim, cap).
  util::Xoshiro256 prng(122);
  // Geometries as in AwgnExpandPruneMatchesSplitPipeline; nsym 70
  // also drives the u32 accumulators past the u16 saturation point.
  for (const QGeom g : {kQGeoms[0], kQGeoms[1], kQGeoms[2]}) {
    for (const std::uint32_t fanout : {8u, 2u, 16u}) {
      for (const std::uint32_t nsym : {3u, 0u, 1u, 70u}) {
        for (const Backend* b : backend::available()) {
          for (hash::Kind kind : kKinds) {
            const std::size_t count = 37;
            const std::size_t total = count * fanout;
            const auto states = random_words(prng, count);
            const auto ord = random_words(prng, nsym);
            const auto qtab = random_qrows(prng, nsym, g.cbits, g.cap);
            const auto floors = suffix_floors(qtab, nsym, g.cbits, g.cap);
            const std::uint32_t salt = static_cast<std::uint32_t>(prng.next_u64());
            std::vector<std::uint16_t> parent(count);
            for (auto& c : parent)
              c = static_cast<std::uint16_t>(prng.next_u64() % 2000u);
            const std::string where =
                std::string(b->name) + " kind=" + hash::kind_name(kind) +
                " c=" + std::to_string(g.cbits) + " cap=" + std::to_string(g.cap) +
                " fanout=" + std::to_string(fanout) + " nsym=" + std::to_string(nsym);

            std::vector<std::uint32_t> rng_sc(total), premix_sc(total), acc_sc(total),
                idx_sc(total);
            auto make_level = [&] {
              return backend::AwgnLevelQ{kind,          salt,
                                         ord.data(),    nsym,
                                         qtab.data(),   g.cbits,
                                         g.cap,         floors.data(),
                                         rng_sc.data(), premix_sc.data(),
                                         acc_sc.data(), idx_sc.data()};
            };

            const backend::AwgnLevelQ ls = make_level();
            std::vector<std::uint32_t> st_split(total);
            std::vector<std::uint16_t> costs(total);
            b->u16.awgn_expand_all(ls, states.data(), count, fanout, st_split.data(),
                                   costs.data());
            const hash::SpineHash h(kind, salt);
            for (std::size_t c = 0; c < total; ++c) {
              std::uint32_t acc = 0;
              for (std::uint32_t s = 0; s < nsym; ++s)
                acc += qmetric(qtab, s, g.cbits, g.cap, h.rng(st_split[c], ord[s]));
              ASSERT_EQ(costs[c], static_cast<std::uint16_t>(std::min(acc, 65535u)))
                  << where << " child " << c;
            }

            for (int bsel = 0; bsel < 3; ++bsel) {
              std::uint32_t bound = ~0u;
              if (bsel > 0) {
                std::vector<std::uint32_t> fin(total);
                for (std::size_t i = 0; i < count; ++i)
                  for (std::uint32_t v = 0; v < fanout; ++v)
                    fin[i * fanout + v] =
                        std::min(65535u, static_cast<std::uint32_t>(parent[i]) +
                                             costs[i * fanout + v]);
                std::sort(fin.begin(), fin.end());
                bound =
                    backend::quant_key(fin[bsel == 1 ? total / 4 : 3 * total / 4], 0x4FF);
              }
              std::vector<std::uint32_t> k_split(total + backend::kCompressSlack, ~0u),
                  k_fused(total + backend::kCompressSlack, ~1u);
              const std::size_t n_split = b->u16.d1_prune(
                  parent.data(), costs.data(), count, fanout, 100, bound, k_split.data());
              const backend::AwgnLevelQ lf = make_level();
              std::vector<std::uint32_t> st_fused(total, ~0u);
              const std::size_t n_fused =
                  b->u16.awgn_expand_prune(lf, states.data(), parent.data(), count, fanout,
                                           100, bound, st_fused.data(), k_fused.data());
              EXPECT_EQ(n_split, n_fused) << where << " bsel=" << bsel;
              EXPECT_EQ(st_split, st_fused) << where << " bsel=" << bsel;
              for (std::size_t j = 0; j < std::min(n_split, n_fused); ++j)
                EXPECT_EQ(k_split[j], k_fused[j])
                    << where << " bsel=" << bsel << " survivor " << j;
            }
          }
        }
      }
    }
  }
}

TEST(BackendKernels, SurvivorAppendsStayWithinSlack) {
  // Canary for backend::kCompressSlack: the SIMD prune kernels store
  // whole vectors past their survivor count. Every key output below is
  // sized count + slack plus a run of guard words; on every backend, no
  // guard at or past (returned count + kCompressSlack) may change —
  // through d1_prune, and through awgn_expand_prune's two tails
  // (d1_prune at one symbol, final_prune at three). Tight bounds leave
  // one or two survivors per vector, where the blind stores reach
  // furthest past the count. This catches a slack narrower than a lane
  // width without a sanitizer build.
  constexpr std::size_t kGuards = 64;
  constexpr std::uint32_t kFanout = 16;  // k = 4: whole vectors at every width
  constexpr std::size_t kCount = 23;
  constexpr std::size_t kTotal = kCount * kFanout;
  constexpr int kCbits = 3;
  util::Xoshiro256 prng(131);
  const auto states = random_words(prng, kCount);
  const auto table = random_table(prng, kCbits);
  const std::uint32_t salt = static_cast<std::uint32_t>(prng.next_u64());

  // Checks the guards of @p keys past got + kCompressSlack.
  const auto intact = [](const auto& keys, std::size_t got, auto guard) {
    for (std::size_t j = got + backend::kCompressSlack; j < keys.size(); ++j)
      if (keys[j] != guard) return false;
    return true;
  };

  for (const Backend* b : backend::available()) {
    for (const std::uint32_t nsym : {1u, 3u}) {
      const auto ord = random_words(prng, nsym);
      std::vector<float> y(nsym), h(nsym, 1.0f);
      for (auto& v : y) v = static_cast<float>(prng.next_double()) * 2.0f - 1.0f;
      const auto qtab = random_qrows(prng, nsym, kCbits, 65535);
      const auto floors = suffix_floors(qtab, nsym, kCbits, 65535);
      std::vector<float> parent_f(kCount), acc_f(kTotal), cost_f(kTotal);
      std::vector<std::uint16_t> parent_q(kCount), cost_q(kTotal);
      for (std::size_t i = 0; i < kCount; ++i) {
        parent_f[i] = 0.05f * static_cast<float>(i);
        parent_q[i] = static_cast<std::uint16_t>(20 * i);
      }
      std::vector<std::uint32_t> rng_sc(kTotal), premix_sc(kTotal), idx_sc(kTotal),
          acc_q(kTotal), st(kTotal);
      const backend::AwgnLevel lf{hash::Kind::kOneAtATime,
                                  salt,
                                  ord.data(),
                                  nsym,
                                  y.data(),
                                  y.data(),
                                  h.data(),
                                  h.data(),
                                  /*use_csi=*/false,
                                  /*fx_scale=*/0.0f,
                                  table.data(),
                                  table.data(),
                                  static_cast<std::uint32_t>(table.size() - 1),
                                  kCbits,
                                  rng_sc.data(),
                                  premix_sc.data(),
                                  acc_f.data(),
                                  idx_sc.data()};
      const backend::AwgnLevelQ lq{hash::Kind::kOneAtATime,
                                   salt,
                                   ord.data(),
                                   nsym,
                                   qtab.data(),
                                   kCbits,
                                   65535,
                                   floors.data(),
                                   rng_sc.data(),
                                   premix_sc.data(),
                                   acc_q.data(),
                                   idx_sc.data()};
      b->f32.awgn_expand_all(lf, states.data(), kCount, kFanout, st.data(),
                             cost_f.data());
      b->u16.awgn_expand_all(lq, states.data(), kCount, kFanout, st.data(),
                             cost_q.data());
      std::vector<float> fin_f(kTotal);
      std::vector<std::uint32_t> fin_q(kTotal);
      for (std::size_t c = 0; c < kTotal; ++c) {
        fin_f[c] = parent_f[c / kFanout] + cost_f[c];
        fin_q[c] = std::min(65535u, parent_q[c / kFanout] + std::uint32_t{cost_q[c]});
      }
      std::sort(fin_f.begin(), fin_f.end());
      std::sort(fin_q.begin(), fin_q.end());

      for (const std::size_t rank : {kTotal - 1, kTotal / 4, kTotal / 32}) {
        const std::uint64_t bf =
            (static_cast<std::uint64_t>(backend::monotone_key(fin_f[rank])) << 32) |
            0xFFFFFFFFull;
        const std::uint32_t bq = backend::quant_key(fin_q[rank], 0xFFFF);
        const std::string where = std::string(b->name) + " nsym=" + std::to_string(nsym) +
                                  " rank=" + std::to_string(rank);

        std::vector<std::uint64_t> kf(kTotal + backend::kCompressSlack + kGuards, ~0ull);
        std::size_t got = b->f32.d1_prune(parent_f.data(), cost_f.data(), kCount, kFanout,
                                          0, bf, kf.data());
        EXPECT_TRUE(intact(kf, got, ~0ull)) << "f32 d1_prune " << where;
        std::fill(kf.begin(), kf.end(), ~0ull);
        got = b->f32.awgn_expand_prune(lf, states.data(), parent_f.data(), kCount,
                                       kFanout, 0, bf, st.data(), kf.data());
        EXPECT_TRUE(intact(kf, got, ~0ull)) << "f32 awgn_expand_prune " << where;

        std::vector<std::uint32_t> kq(kTotal + backend::kCompressSlack + kGuards, ~0u);
        got = b->u16.d1_prune(parent_q.data(), cost_q.data(), kCount, kFanout, 0, bq,
                              kq.data());
        EXPECT_TRUE(intact(kq, got, ~0u)) << "u16 d1_prune " << where;
        std::fill(kq.begin(), kq.end(), ~0u);
        got = b->u16.awgn_expand_prune(lq, states.data(), parent_q.data(), kCount,
                                       kFanout, 0, bq, st.data(), kq.data());
        EXPECT_TRUE(intact(kq, got, ~0u)) << "u16 awgn_expand_prune " << where;
      }
    }
  }
}

TEST(BackendKernels, QuantizedRowMinsMatchBruteForce) {
  util::Xoshiro256 prng(123);
  for (const Backend* b : backend::available()) {
    for (std::uint32_t fanout : {1u, 2u, 4u, 8u, 16u, 32u}) {
      const std::size_t leaves = 41;
      std::vector<std::uint16_t> leaf_cost(leaves), child(leaves * fanout);
      for (auto& c : leaf_cost)
        c = static_cast<std::uint16_t>(prng.next_u64() % 60000u);
      for (auto& c : child) c = static_cast<std::uint16_t>(prng.next_u64() % 9000u);
      if (fanout > 2) child[3 * fanout + 2] = child[3 * fanout + 1];  // exact tie
      std::vector<std::uint16_t> got(leaves, 0xAAAA);
      b->u16.row_mins(leaf_cost.data(), child.data(), leaves, fanout, got.data());
      for (std::size_t i = 0; i < leaves; ++i) {
        std::uint32_t m = child[i * fanout];
        for (std::uint32_t v = 1; v < fanout; ++v)
          m = std::min(m, static_cast<std::uint32_t>(child[i * fanout + v]));
        EXPECT_EQ(got[i], static_cast<std::uint16_t>(
                              std::min(65535u, static_cast<std::uint32_t>(leaf_cost[i]) + m)))
            << b->name << " fanout=" << fanout << " leaf " << i;
      }
    }
  }
}

TEST(BackendKernels, QuantizedRegroupEmitMatchesScalarExactly) {
  // The U16Lane case of RegroupEmitMatchesScalarExactly: same move/order
  // contract, saturating finalized costs, untouched pruned rows.
  util::Xoshiro256 prng(124);
  for (const Backend* b : backend::available()) {
    for (const int d : {2, 3}) {
      const int k = 3;
      const std::uint32_t fanout = 8, group_count = 8;
      const std::uint32_t group_mask = group_count - 1;
      const std::size_t lpe = 16;
      std::vector<std::uint32_t> child_state(lpe * fanout), leaf_path(lpe);
      std::vector<std::uint16_t> child_cost(lpe * fanout), leaf_cost(lpe);
      for (auto& s : child_state) s = static_cast<std::uint32_t>(prng.next_u64());
      for (auto& c : child_cost) c = static_cast<std::uint16_t>(prng.next_u64() % 9000u);
      for (auto& c : leaf_cost)
        c = static_cast<std::uint16_t>((prng.next_u64() & 7u) == 0
                                           ? 64000u  // force saturation rows
                                           : prng.next_u64() % 30000u);
      for (std::size_t i = 0; i < lpe; ++i)
        leaf_path[i] = static_cast<std::uint32_t>(i % group_count) |
                       (static_cast<std::uint32_t>(prng.next_u64() & 0x7u) << k);
      const std::uint32_t rows = static_cast<std::uint32_t>(lpe / group_count) * fanout;
      std::vector<std::int32_t> rowbase(group_count, -1);
      std::int32_t base = 0;
      for (std::uint32_t g = 0; g < group_count; ++g) {
        if (g == 0 || g == 3 || g == 5) continue;
        rowbase[g] = base;
        base += static_cast<std::int32_t>(rows);
      }
      const std::size_t arena = static_cast<std::size_t>(base) + rows;
      std::vector<std::uint32_t> st_want(arena, 0xABABABABu), st_got = st_want;
      std::vector<std::uint16_t> c_want(arena, 0x7777), c_got = c_want;
      std::vector<std::uint32_t> p_want(arena, 0xCDCDCDCDu), p_got = p_want;
      scalar()->u16.regroup_emit(child_state.data(), child_cost.data(),
                                 leaf_cost.data(), leaf_path.data(), lpe, fanout, k, d,
                                 group_mask, rowbase.data(), st_want.data(),
                                 c_want.data(), p_want.data());
      b->u16.regroup_emit(child_state.data(), child_cost.data(), leaf_cost.data(),
                          leaf_path.data(), lpe, fanout, k, d, group_mask,
                          rowbase.data(), st_got.data(), c_got.data(), p_got.data());
      EXPECT_EQ(st_want, st_got) << b->name << " d=" << d;
      EXPECT_EQ(p_want, p_got) << b->name << " d=" << d;
      EXPECT_EQ(c_want, c_got) << b->name << " d=" << d;
      // Semantics spot-check against first principles, group 1.
      std::uint32_t fill = 0;
      for (std::size_t lf = 0; lf < lpe; ++lf) {
        if ((leaf_path[lf] & group_mask) != 1u) continue;
        for (std::uint32_t v = 0; v < fanout; ++v) {
          const std::size_t dst = static_cast<std::size_t>(rowbase[1]) + fill * fanout + v;
          EXPECT_EQ(st_got[dst], child_state[lf * fanout + v]);
          EXPECT_EQ(c_got[dst],
                    static_cast<std::uint16_t>(std::min(
                        65535u, static_cast<std::uint32_t>(leaf_cost[lf]) +
                                    child_cost[lf * fanout + v])));
          EXPECT_EQ(p_got[dst], (leaf_path[lf] >> k) | (v << (k * (d - 2))));
        }
        ++fill;
      }
    }
  }
}

/// Long equal-cost runs: integer costs that step every 50-200
/// candidates, as a renormalized quantized level produces.
SelectShape cost_runs(util::Xoshiro256& prng, std::vector<std::size_t> keeps, bool shuffle) {
  SelectShape runs{"runs", {}, std::move(keeps), shuffle};
  float cost = 0.0f;
  while (runs.costs.size() < 3000) {
    runs.costs.insert(runs.costs.end(), 50 + prng.next_u64() % 151, cost);
    cost += 1.0f;
  }
  runs.costs.resize(3000);
  return runs;
}

TEST(BackendKernels, TightenU32KeepsEveryKeyAtOrBelowItsBound) {
  // The tighten contract on the u32 keys of the quantized lane, on
  // every backend: hundreds of keys share each cost word, so the bound
  // must refine into the candidate-index bits.
  util::Xoshiro256 prng(125);
  for (const Backend* b : backend::available()) {
    for (std::size_t n : {std::size_t{2}, std::size_t{300}, std::size_t{673},
                          std::size_t{4096}, std::size_t{9000}}) {
      std::vector<std::uint32_t> keys(n);
      // Clustered costs in the high half, dense candidate ids below —
      // the shape the quantized beam produces after renormalization.
      std::uint32_t walk = 40;
      for (std::size_t i = 0; i < n; ++i) {
        walk += static_cast<std::uint32_t>(prng.next_u64() % 3u);
        keys[i] = backend::quant_key(walk % 700u, static_cast<std::uint32_t>(i) & 0xFFFF);
      }
      for (std::size_t keep : {std::size_t{1}, std::size_t{256}, n / 2, n - 1})
        if (keep > 0 && keep < n) expect_tighten(b, keys, keep, "walk");
    }
    for (const SelectShape& shape : select_shapes(prng)) {
      const auto keys = shape_keys<std::uint32_t>(shape, prng, u16_key);
      for (std::size_t keep : shape.keeps)
        if (keep > 0 && keep < keys.size()) expect_tighten(b, keys, keep, shape.label);
    }
    for (bool shuffle : {false, true}) {
      const SelectShape runs = cost_runs(prng, {1, 2, 100, 999, 2000, 2999}, shuffle);
      const auto keys = shape_keys<std::uint32_t>(runs, prng, u16_key);
      for (std::size_t keep : runs.keeps) expect_tighten(b, keys, keep, runs.label);
    }
  }
}

TEST(BackendKernels, SelectKeysU32MatchesFullSortReference) {
  // Full contract on every backend: smallest keep keys ascending in
  // [0, keep) — which for packed (cost << 16 | cand) keys *is* the
  // deterministic tie-broken candidate order. Also covers keep >= count
  // (a full sort, as for the u64 keys).
  util::Xoshiro256 prng(126);
  for (const Backend* b : backend::available()) {
    for (std::size_t n :
         {std::size_t{1}, std::size_t{37}, std::size_t{512}, std::size_t{5000}}) {
      std::vector<std::uint32_t> keys(n);
      for (std::size_t i = 0; i < n; ++i)
        keys[i] = backend::quant_key(static_cast<std::uint32_t>(prng.next_u64() % 900u),
                                     static_cast<std::uint32_t>(i) & 0xFFFF);
      for (std::size_t keep : {std::size_t{1}, n / 2, n - 1, n, n + 20})
        if (keep > 0) expect_select_prefix(b, keys, keep, "uniform");
    }
    for (const SelectShape& shape : select_shapes(prng)) {
      const auto keys = shape_keys<std::uint32_t>(shape, prng, u16_key);
      for (std::size_t keep : shape.keeps)
        if (keep > 0) expect_select_prefix(b, keys, keep, shape.label);
      expect_select_prefix(b, keys, keys.size(), shape.label + " (full sort)");
    }
    for (bool shuffle : {false, true}) {
      const SelectShape runs = cost_runs(prng, {1, 2, 100, 999, 2000, 2999, 3000}, shuffle);
      const auto keys = shape_keys<std::uint32_t>(runs, prng, u16_key);
      for (std::size_t keep : runs.keeps) expect_select_prefix(b, keys, keep, runs.label);
    }
  }
}

TEST(BackendKernels, MonotoneKeyOrdersLikeFloat) {
  const float vals[] = {-3.5f, -0.0f, 0.0f, 1e-30f, 0.25f, 1.0f, 1e30f};
  for (float a : vals)
    for (float c : vals) {
      if (a < c) {
        EXPECT_LT(backend::monotone_key(a), backend::monotone_key(c)) << a << " " << c;
      }
      if (a == c && std::signbit(a) == std::signbit(c)) {
        EXPECT_EQ(backend::monotone_key(a), backend::monotone_key(c)) << a;
      }
    }
}

}  // namespace
}  // namespace spinal
