#pragma once
// Vector bodies of the packed-key select (LaneKernels::tighten and
// LaneKernels::select) over the vector wrappers of vec_x86.h and
// vec_neon.h, for both key widths: F32Lane's u64 keys ride two uint32
// lanes each, U16Lane's u32 keys one. Two pieces:
//
//  * a sampled threshold: sort a strided sample of the keys, take a few
//    of its order statistics just above the keep-th quantile as
//    pivots, count the keys at or below each in one vector pass, and
//    compress-store in place the keys at or below the smallest pivot
//    that keeps enough. Pivots are whole keys, so a coarse cost word
//    (integer metrics put hundreds of keys on one) refines into the
//    candidate-index bits by construction;
//  * a register sorting network for up to kRegKeys keys: the
//    direction-free bitonic sort (each merge opens with a mirror
//    stage, then half-cleaners that all put the minimum at the lower
//    index), so every compare-exchange is a vector min/max — between
//    two whole vectors at distances of a vector or more, against a lane
//    permutation of the same vector (partner lane l ^ x) below that.
//
// tighten is the threshold alone, round after round while the keys
// outnumber keep by more than a quarter: its bound is the last pivot,
// itself a kept key, so the buffer holds exactly the keys at or below
// it. select sorts through the network when keep fits the registers —
// with one bitonic merge for up to twice that many keys — and otherwise
// thresholds first and bucket-sorts what is left (the scalar bucket
// sort beats a longer network on the clustered keys a level produces).
// Keys are unique, so the kept set and its order are those of the
// scalar kernels on every backend. When no sampled pivot keeps enough
// keys, and for small keeps (B <= 4) and short blocks, the scalar
// kernels run instead. Like the other kernels, everything sits
// in an anonymous namespace inside the ISA-flagged TU and calls no
// std:: template (see simd_kernels.h).

#include <cstddef>
#include <cstdint>

#include "backend/scalar_kernels.h"

namespace spinal::backend::simd {
namespace {

/// One key width's view of vector wrapper V.
template <class V, class Key>
struct VKey;

template <class V>
struct VKey<V, std::uint32_t> {
  using U = typename V::U;
  static constexpr std::size_t N = V::W;  ///< keys per vector
  static constexpr unsigned kWords = 1;   ///< uint32 lanes per key
  static U load(const std::uint32_t* p) { return V::loadu(p); }
  static void store(std::uint32_t* p, U v) { V::storeu(p, v); }
  static U set1(std::uint32_t x) { return V::set1(x); }
  /// The sorting network's domain (see VKey<V, std::uint64_t>): the
  /// u32 min and max are unsigned on every wrapper, so it is the keys.
  static U enter(U v) { return v; }
  static U leave(U v) { return v; }
  static U net_min(U a, U b) { return V::min_u32(a, b); }
  static U net_max(U a, U b) { return V::max_u32(a, b); }
  static unsigned gt_mask(U a, U b) { return V::gtu_mask(a, b); }
  /// acc plus one in each lane where a > b.
  static U count_gt(U acc, U a, U b) { return V::count_gtu32(acc, a, b); }
  static std::size_t compress(std::uint32_t* dst, U v, unsigned mask) {
    return V::compress_store_u32(dst, v, mask);
  }
};

template <class V>
struct VKey<V, std::uint64_t> {
  using U = typename V::U;
  static constexpr std::size_t N = V::W / 2;
  static constexpr unsigned kWords = 2;
  static U load(const std::uint64_t* p) {
    return V::loadu(reinterpret_cast<const std::uint32_t*>(p));
  }
  static void store(std::uint64_t* p, U v) {
    V::storeu(reinterpret_cast<std::uint32_t*>(p), v);
  }
  static U set1(std::uint64_t x) {
    std::uint64_t b[N];
    for (std::size_t l = 0; l < N; ++l) b[l] = x;
    return load(b);
  }
  /// The sorting network's domain: keys biased once on the way in and
  /// out, so wrappers with only signed 64-bit compares skip two sign
  /// flips per compare-exchange.
  static U enter(U v) { return V::bias_u64(v); }
  static U leave(U v) { return V::bias_u64(v); }
  static U net_min(U a, U b) { return V::min_biased_u64(a, b); }
  static U net_max(U a, U b) { return V::max_biased_u64(a, b); }
  static unsigned gt_mask(U a, U b) { return V::gtu64_mask(a, b); }
  static U count_gt(U acc, U a, U b) { return V::count_gtu64(acc, a, b); }
  static std::size_t compress(std::uint64_t* dst, U v, unsigned mask) {
    return V::compress_store_u64(dst, v, mask);
  }
};

template <class V, class Lane>
struct KeySelect {
  using Key = typename Lane::key_t;
  using VK = VKey<V, Key>;
  using U = typename V::U;
  static constexpr std::size_t N = VK::N;
  static constexpr Key kMaxKey = ~Key{0};
  /// Vectors the network keeps in registers, and the keys they hold.
  static constexpr std::size_t kRegVecs = 8;
  static constexpr std::size_t kRegKeys = kRegVecs * N;
  /// Two-lane vectors (u64 keys on SSE4.2 and NEON) sort slower through
  /// the network than through the scalar bucket sort.
  static constexpr bool kNetwork = N >= 4;
  /// Keys in the pivot sample, half as many in blocks shorter than
  /// 8 * kSample (a later round, or a short level): the network sorts
  /// it whole, and its cost is most of a short round's.
  static constexpr std::size_t kSample = 32;
  /// The threshold runs on blocks of at least this many keys.
  static constexpr std::size_t kThresholdMin = 2 * kSample;

  /// In-vector compare-exchange of key lane l with lane l ^ xo in each
  /// of the M vectors; lanes with (l & j) == 0 keep the min.
  template <std::size_t M>
  [[gnu::always_inline]] static void lane_stage(U (&x)[M], std::uint32_t xo, std::uint32_t j) {
    const U idx = V::xor_(V::iota(), V::set1(xo * VK::kWords));
    // The uint32 lanes w with (w & j * kWords) == 0: one of five
    // repeating bit patterns.
    constexpr unsigned kClear[5] = {0x55555555u, 0x33333333u, 0x0F0F0F0Fu, 0x00FF00FFu,
                                    0x0000FFFFu};
    const unsigned lo = kClear[__builtin_ctz(j * VK::kWords)];
#pragma GCC unroll 8
    for (std::size_t v = 0; v < M; ++v) {
      const U p = V::permute(x[v], idx);
      x[v] = V::blend(lo, VK::net_max(x[v], p), VK::net_min(x[v], p));
    }
  }

  /// Sorts a[0, M*N) ascending in registers; M is a power of two, at
  /// most kRegVecs.
  template <std::size_t M>
  static void network(Key* a) {
    U x[M];
#pragma GCC unroll 8
    for (std::size_t v = 0; v < M; ++v) x[v] = VK::enter(VK::load(a + v * N));
    // Merges of k <= N keys stay inside each vector...
#pragma GCC unroll 8
    for (std::size_t k = 2; k <= N; k *= 2) {
      lane_stage(x, static_cast<std::uint32_t>(k - 1), static_cast<std::uint32_t>(k / 2));
#pragma GCC unroll 8
      for (std::size_t j = k / 4; j >= 1; j /= 2)
        lane_stage(x, static_cast<std::uint32_t>(j), static_cast<std::uint32_t>(j));
    }
    // ...longer ones open with a mirror across kb vectors: element e of
    // a block meets element kb*N - 1 - e, so a vector meets its mirror
    // vector lane-reversed. The half-cleaners then run between vectors
    // down to one vector's distance, and inside each vector below it.
    const U rev = V::xor_(V::iota(), V::set1(static_cast<std::uint32_t>(N - 1) * VK::kWords));
#pragma GCC unroll 8
    for (std::size_t kb = 2; kb <= M; kb *= 2) {
#pragma GCC unroll 8
      for (std::size_t v = 0; v < M; ++v) {
        if (v & (kb / 2)) continue;
        const std::size_t w = v ^ (kb - 1);  // the mirror vector
        const U lo = x[v], hi = V::permute(x[w], rev);
        x[v] = VK::net_min(lo, hi);
        x[w] = V::permute(VK::net_max(lo, hi), rev);
      }
#pragma GCC unroll 8
      for (std::size_t dv = kb / 4; dv >= 1; dv /= 2) {
#pragma GCC unroll 8
        for (std::size_t v = 0; v < M; ++v) {
          if (v & dv) continue;
          const U lo = x[v];
          x[v] = VK::net_min(lo, x[v + dv]);
          x[v + dv] = VK::net_max(lo, x[v + dv]);
        }
      }
#pragma GCC unroll 8
      for (std::size_t j = N / 2; j >= 1; j /= 2)
        lane_stage(x, static_cast<std::uint32_t>(j), static_cast<std::uint32_t>(j));
    }
#pragma GCC unroll 8
    for (std::size_t v = 0; v < M; ++v) VK::store(a + v * N, VK::leave(x[v]));
  }

  /// Sorts keys[0, n) ascending: through the network over a padded copy
  /// when it fits the registers and the vectors are wide enough, else by
  /// the scalar bucket sort. Ascending keys (a level without symbols
  /// keeps its candidates in order) return at once.
  static void sort(Key* keys, std::size_t n) {
    if (!kNetwork || n > kRegKeys) {
      ScalarOps::sort_keys(keys, n);
      return;
    }
    if (ScalarOps::is_sorted(keys, n)) return;
    Key pad[kRegKeys];
    for (std::size_t i = 0; i < n; ++i) pad[i] = keys[i];
    network_padded(pad, n);
    for (std::size_t i = 0; i < n; ++i) keys[i] = pad[i];
  }

  /// Sorts a[0, kRegKeys) after setting a[n, kRegKeys) to kMaxKey, so
  /// a[0, n) ascends and the tail stays kMaxKey. The network spans the
  /// fewest vectors, a power of two, that hold n keys.
  static void network_padded(Key* a, std::size_t n) {
    for (std::size_t i = n; i < kRegKeys; ++i) a[i] = kMaxKey;
    std::size_t M = 1;
    while (M < kRegVecs && M * N < n) M *= 2;
    switch (M) {
      case 1: network<1>(a); break;
      case 2: network<2>(a); break;
      case 4: network<4>(a); break;
      default: network<kRegVecs>(a); break;
    }
  }

  /// The kRegKeys smallest of two ascending runs of kRegKeys keys, a and
  /// b, ascending into a: a meets b reversed (the opening mirror stage
  /// of their merge), which leaves the smaller half as one bitonic
  /// sequence, and the half-cleaners sort it.
  static void merge_low(Key* a, const Key* b) {
    const U rev = V::xor_(V::iota(), V::set1(static_cast<std::uint32_t>(N - 1) * VK::kWords));
    U x[kRegVecs];
#pragma GCC unroll 8
    for (std::size_t v = 0; v < kRegVecs; ++v)
      x[v] = VK::net_min(VK::enter(VK::load(a + v * N)),
                        V::permute(VK::enter(VK::load(b + (kRegVecs - 1 - v) * N)), rev));
#pragma GCC unroll 8
    for (std::size_t dv = kRegVecs / 2; dv >= 1; dv /= 2) {
#pragma GCC unroll 8
      for (std::size_t v = 0; v < kRegVecs; ++v) {
        if (v & dv) continue;
        const U lo = x[v];
        x[v] = VK::net_min(lo, x[v + dv]);
        x[v + dv] = VK::net_max(lo, x[v + dv]);
      }
    }
#pragma GCC unroll 8
    for (std::size_t j = N / 2; j >= 1; j /= 2)
      lane_stage(x, static_cast<std::uint32_t>(j), static_cast<std::uint32_t>(j));
#pragma GCC unroll 8
    for (std::size_t v = 0; v < kRegVecs; ++v) VK::store(a + v * N, VK::leave(x[v]));
  }

  /// Leaves the need smallest of keys[0, m) ascending at the front, for
  /// need <= kRegKeys < m <= 2 * kRegKeys: the network sorts the first
  /// kRegKeys keys in place; of the rest, only the keys below the
  /// need-th of those can be kept, so they compress into a second run,
  /// sorted and merged in.
  static void sort_low(Key* keys, std::size_t m, std::size_t need) {
    if (ScalarOps::is_sorted(keys, m)) return;
    network<kRegVecs>(keys);
    const U cut = VK::set1(keys[need - 1]);
    Key b[kRegKeys + N];
    std::size_t nb = 0, i = kRegKeys;
    for (; i + N <= m; i += N) {
      const U v = VK::load(keys + i);
      nb += VK::compress(b + nb, v, VK::gt_mask(cut, v));
    }
    for (; i < m; ++i) {
      b[nb] = keys[i];
      nb += keys[i] < keys[need - 1];
    }
    if (nb == 0) return;
    network_padded(b, nb);
    merge_low(keys, b);
  }

  /// The sampled threshold (count >= kThresholdMin, keep < count):
  /// compacts keys to exactly those at or below a pivot that at least
  /// keep keys clear, stores the pivot in *bound and returns how many
  /// keys are left — or returns 0, touching nothing, when no pivot
  /// keeps enough.
  static std::size_t threshold(Key* keys, std::size_t count, std::size_t keep, Key* bound) {
    Key s[kSample];
    const std::size_t ns = count < 8 * kSample ? kSample / 2 : kSample;
    const std::size_t stride = count / ns;
    for (std::size_t i = 0; i < ns; ++i) s[i] = keys[i * stride + stride / 2];
    sort(s, ns);

    // X, the sample keys at or below the keep-th key, is about
    // Binomial(ns, keep / count); pivot c holds keep keys whenever
    // X <= its rank, so the ranks sit 0 to 3 deviations above the mean.
    const double p = static_cast<double>(keep) / static_cast<double>(count);
    const double mean = static_cast<double>(ns) * p;
    const double sd = __builtin_sqrt(mean * (1.0 - p));
    constexpr int kPivots = 3;
    constexpr double kDev[kPivots] = {0.0, 1.25, 3.0};
    Key piv[kPivots];
    U pv[kPivots];
    for (int c = 0; c < kPivots; ++c) {
      const double r = mean + kDev[c] * sd;
      piv[c] = s[r < static_cast<double>(ns - 1) ? static_cast<std::size_t>(r) : ns - 1];
      pv[c] = VK::set1(piv[c]);
    }

    // One pass counts the keys above every pivot, in per-lane counters.
    U lanes_above[kPivots];
    for (int c = 0; c < kPivots; ++c) lanes_above[c] = V::set1(0);
    std::size_t i = 0;
    for (; i + N <= count; i += N) {
      const U v = VK::load(keys + i);
      for (int c = 0; c < kPivots; ++c) lanes_above[c] = VK::count_gt(lanes_above[c], v, pv[c]);
    }
    std::size_t above[kPivots] = {};
    for (int c = 0; c < kPivots; ++c) {
      Key lane[N];
      VK::store(lane, lanes_above[c]);
      for (std::size_t l = 0; l < N; ++l) above[c] += static_cast<std::size_t>(lane[l]);
    }
    for (; i < count; ++i)
      for (int c = 0; c < kPivots; ++c) above[c] += keys[i] > piv[c];
    int c = 0;
    while (c < kPivots && count - above[c] < keep) ++c;
    if (c == kPivots) return 0;

    // In-place compress-store: the write cursor never passes the read
    // cursor, so a blind whole-vector store only lands on keys already
    // loaded.
    const Key pivot = piv[c];
    const U pvec = pv[c];
    constexpr unsigned kFull = (1u << N) - 1u;
    std::size_t w = 0;
    for (i = 0; i + N <= count; i += N) {
      const U v = VK::load(keys + i);
      w += VK::compress(keys + w, v, kFull & ~VK::gt_mask(v, pvec));
    }
    for (; i < count; ++i) {
      const Key x = keys[i];
      keys[w] = x;
      w += x <= pivot;
    }
    *bound = pivot;
    return w;
  }

  /// Thresholds keys[0, count) down to m >= keep keys at or below
  /// *bound, round after round while a round can run, the keys still
  /// outnumber keep by more than a quarter and the last round removed
  /// some; returns m, or 0 when the first round finds no pivot.
  static std::size_t reduce(Key* keys, std::size_t count, std::size_t keep, Key* bound) {
    std::size_t m = 0;
    for (std::size_t n = count; n >= kThresholdMin && n > keep + keep / 4;) {
      const std::size_t t = threshold(keys, n, keep, bound);
      if (t == 0) break;
      m = t;
      if (t == n) break;
      n = t;
    }
    return m;
  }

  /// LaneKernels::tighten: the sampled threshold, or the scalar exact
  /// partition when it cannot run or no pivot keeps enough.
  static std::size_t tighten(Key* keys, std::size_t count, std::size_t keep, Key* bound) {
    if (keep == 0 || keep >= count) return count;
    if (keep > ScalarOps::kSmallKeep) {
      const std::size_t m = reduce(keys, count, keep, bound);
      if (m != 0) return m;
    }
    return ScalarOps::tighten<Lane>(keys, count, keep, bound);
  }

  /// LaneKernels::select. Small keeps and short blocks take the scalar
  /// insertion path. A keep the registers hold over at most twice that
  /// many keys sorts through the network and one merge (sort_low);
  /// anything longer is thresholded first and then sorted.
  static void select(Key* keys, std::size_t count, std::size_t keep) {
    if (keep == 0) return;
    const std::size_t need = keep < count ? keep : count;
    if (need <= ScalarOps::kSmallKeep || ScalarOps::by_insertion(count, need)) {
      ScalarOps::select<Lane>(keys, count, keep);
      return;
    }
    const bool low = kNetwork && need <= kRegKeys;
    std::size_t m = count;
    if (keep < count && !(low && count <= 2 * kRegKeys)) {
      Key bound;
      const std::size_t t = reduce(keys, count, keep, &bound);
      if (t != 0) m = t;
    }
    if (low && m > kRegKeys && m <= 2 * kRegKeys)
      sort_low(keys, m, need);
    else
      sort(keys, m);
  }
};

}  // namespace
}  // namespace spinal::backend::simd
