// Backend registry: runtime CPU-feature detection, the SPINAL_BACKEND
// environment override, and the packed-key selection kernels.
// This TU is always compiled with baseline flags — the selection
// kernels defined here serve every backend, so they must run on any
// CPU the binary reaches.

#include "backend/backends_impl.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#if defined(SPINAL_BACKEND_HAVE_NEON) && defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_ASIMD
#define HWCAP_ASIMD (1 << 1)
#endif
#endif

namespace spinal::backend {

void build_keys(const float* costs, std::size_t count, std::uint64_t* keys) {
  for (std::size_t i = 0; i < count; ++i)
    keys[i] = F32Lane::key(costs[i], static_cast<std::uint32_t>(i));
}

namespace {

/// Stack scratch of every selection routine, in keys; no heap.
constexpr std::size_t kScratch = 4096;
/// Blocks this short skip the bucket passes: an insertion sort touches
/// fewer words than one histogram would.
constexpr std::size_t kInsertion = 24;
/// So do blocks of up to kSmallKeepBlock keys that keep at most
/// kSmallKeep (a B <= 4 beam): the insertion select's sorted prefix
/// stays that short, so it is one compare per key.
constexpr std::size_t kSmallKeep = 4;
constexpr std::size_t kSmallKeepBlock = 256;

bool by_insertion(std::size_t n, std::size_t need) {
  return n <= kInsertion || (need <= kSmallKeep && n <= kSmallKeepBlock);
}

template <class Key>
void insertion_sort(Key* a, std::size_t n) {
  for (std::size_t i = 1; i < n; ++i) {
    const Key x = a[i];
    std::size_t j = i;
    for (; j > 0 && a[j - 1] > x; --j) a[j] = a[j - 1];
    a[j] = x;
  }
}

/// Moves the need smallest keys of a[0, n) into a[0, need), ascending:
/// an insertion sort whose sorted prefix stops growing at need.
template <class Key>
void insertion_select(Key* a, std::size_t n, std::size_t need) {
  insertion_sort(a, need);
  for (std::size_t i = need; i < n; ++i) {
    const Key x = a[i];
    if (x >= a[need - 1]) continue;
    a[i] = a[need - 1];
    std::size_t j = need - 1;
    for (; j > 0 && a[j - 1] > x; --j) a[j] = a[j - 1];
    a[j] = x;
  }
}

/// Smallest and largest of a[0, n), n >= 1, over two independent
/// accumulator pairs (one pair would serialise on its compare chain).
template <class Key>
void min_max(const Key* a, std::size_t n, Key& mn, Key& mx) {
  Key mn0 = a[0], mx0 = a[0], mn1 = a[0], mx1 = a[0];
  std::size_t i = 1;
  for (; i + 2 <= n; i += 2) {
    mn0 = std::min(mn0, a[i]);
    mx0 = std::max(mx0, a[i]);
    mn1 = std::min(mn1, a[i + 1]);
    mx1 = std::max(mx1, a[i + 1]);
  }
  if (i < n) {
    mn0 = std::min(mn0, a[i]);
    mx0 = std::max(mx0, a[i]);
  }
  mn = std::min(mn0, mn1);
  mx = std::max(mx0, mx1);
}

/// Sorts a[0, n): by insertion when short, else by std::sort unless it
/// is already ascending.
template <class Key>
void sort_run(Key* a, std::size_t n) {
  if (n <= kInsertion)
    insertion_sort(a, n);
  else if (!std::is_sorted(a, a + n))
    std::sort(a, a + n);
}

/// Range-adaptive bucket select (see partition_keys). Each round
/// splits the ambiguous block [lo, hi) — the one that straddles the
/// keep boundary — into at most 256 buckets spanning the block's own
/// [min, max] key range, with two to four keys per bucket, so a round's
/// counters never outnumber its keys. One forward scatter then
/// resolves the threshold bucket T: keys below T compact in place (the
/// write cursor never passes the read index), keys in T spill to stack
/// scratch and come back right behind them as the next block (their
/// min and max taken on the way), keys above T are dropped. Short
/// blocks, and blocks that keep only a few keys, finish by insertion.
template <class Key>
void partition_impl(Key* keys, std::size_t count, std::size_t keep) {
  if (keep == 0 || keep >= count) return;
  if (by_insertion(count, keep)) {
    insertion_select(keys, count, keep);
    return;
  }
  Key mn, mx;
  min_max(keys, count, mn, mx);
  Key eq[kScratch];
  std::size_t lo = 0, hi = count;  // ambiguous block
  std::size_t need = keep;         // how many of [lo, hi) are kept
  while (need > 0 && need < hi - lo) {
    const std::size_t n = hi - lo;
    if (by_insertion(n, need)) {
      insertion_select(keys + lo, n, need);
      return;
    }
    // Power-of-two bucket width: bucket(max) = range >> shift < 2^lg,
    // and min and max land in different buckets, so every round
    // shrinks the block — as long as they differ, which unique keys
    // guarantee.
    if (mn == mx) return;
    const int lg = std::min(8, static_cast<int>(std::bit_width(n)) - 2);
    const int shift = std::max(0, static_cast<int>(std::bit_width(mx - mn)) - lg);
    const std::size_t buckets = static_cast<std::size_t>((mx - mn) >> shift) + 1;
    std::uint32_t cnt[256];
    std::memset(cnt, 0, buckets * sizeof(cnt[0]));
    for (std::size_t i = lo; i < hi; ++i) ++cnt[(keys[i] - mn) >> shift];

    // Threshold bucket T: it straddles the keep boundary.
    std::size_t acc = 0;
    Key T = 0;
    for (;; ++T) {
      if (acc + cnt[T] > need) break;
      acc += cnt[T];
    }
    if (cnt[T] >= kScratch) {  // only beams far wider than the scratch
      std::nth_element(keys + lo, keys + lo + need, keys + hi);
      return;
    }
    std::size_t m = lo, e = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      const Key x = keys[i];
      const Key b = (x - mn) >> shift;
      keys[m] = x;
      m += b < T;
      eq[e] = x;
      e += b == T;
    }
    mn = ~Key{0};
    mx = 0;
    for (std::size_t i = 0; i < e; ++i) {
      keys[m + i] = eq[i];
      mn = std::min(mn, eq[i]);
      mx = std::max(mx, eq[i]);
    }
    need -= m - lo;
    lo = m;
    hi = m + e;
  }
}

/// Range-adaptive bucket sort (see sort_keys): one counting pass
/// scatters the keys into n to 2n buckets spanning their [min, max]
/// range, and an insertion pass over the full keys finishes the job —
/// keys never cross a bucket boundary, and buckets hold a key or two,
/// so that pass is about one comparison per key. It also orders the
/// equal-cost runs (one bucket each) by candidate index. A bucket too
/// wide for insertion is sorted on its own.
template <class Key>
void sort_impl(Key* keys, std::size_t n) {
  if (n <= kInsertion || n > kScratch) {
    sort_run(keys, n);
    return;
  }
  if (std::is_sorted(keys, keys + n)) return;  // a zero-symbol level's kept set
  Key mn, mx;
  min_max(keys, n, mn, mx);
  constexpr int kMaxLg = 12;  // 4096 buckets: the scratch size
  const int lg = std::min(kMaxLg, static_cast<int>(std::bit_width(n)));
  const int shift = std::max(0, static_cast<int>(std::bit_width(mx - mn)) - lg);
  const std::size_t buckets = static_cast<std::size_t>((mx - mn) >> shift) + 1;
  std::uint16_t off[(1u << kMaxLg) + 1];
  std::memset(off, 0, (buckets + 1) * sizeof(off[0]));
  for (std::size_t i = 0; i < n; ++i) ++off[((keys[i] - mn) >> shift) + 1];
  std::uint16_t widest = 0;
  for (std::size_t b = 1; b <= buckets; ++b) {
    widest = std::max(widest, off[b]);
    off[b] = static_cast<std::uint16_t>(off[b] + off[b - 1]);
  }
  Key tmp[kScratch];
  for (std::size_t i = 0; i < n; ++i) tmp[off[(keys[i] - mn) >> shift]++] = keys[i];
  if (widest <= kInsertion) {
    insertion_sort(tmp, n);
  } else {
    for (std::size_t b = 0, start = 0; b < buckets; start = off[b++])
      sort_run(tmp + start, off[b] - start);
  }
  std::memcpy(keys, tmp, n * sizeof(Key));
}

}  // namespace

void partition_keys(std::uint64_t* keys, std::size_t count, std::size_t keep) {
  partition_impl(keys, count, keep);
}

void partition_keys(std::uint32_t* keys, std::size_t count, std::size_t keep) {
  partition_impl(keys, count, keep);
}

void sort_keys(std::uint64_t* keys, std::size_t count) { sort_impl(keys, count); }

void sort_keys(std::uint32_t* keys, std::size_t count) { sort_impl(keys, count); }

void select_keys(std::uint64_t* keys, std::size_t count, std::size_t keep) {
  if (keep == 0 || keep >= count) return;
  partition_impl(keys, count, keep);
  sort_impl(keys, keep);
}

void select_keys(std::uint32_t* keys, std::size_t count, std::size_t keep) {
  if (keep == 0) return;
  partition_impl(keys, count, keep);
  sort_impl(keys, std::min(keep, count));
}

namespace {

#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
// __builtin_cpu_supports runs CPUID (and XGETBV for the AVX family, so
// OS save support is included) and caches the result.
[[maybe_unused]] bool cpu_has_sse42() { return __builtin_cpu_supports("sse4.2") != 0; }
[[maybe_unused]] bool cpu_has_avx2() { return __builtin_cpu_supports("avx2") != 0; }
// Exactly the features backend_avx512.cpp is compiled with (-mavx512f).
[[maybe_unused]] bool cpu_has_avx512() { return __builtin_cpu_supports("avx512f") != 0; }
#else
[[maybe_unused]] bool cpu_has_sse42() { return false; }
[[maybe_unused]] bool cpu_has_avx2() { return false; }
[[maybe_unused]] bool cpu_has_avx512() { return false; }
#endif

#if defined(SPINAL_BACKEND_HAVE_NEON)
bool cpu_has_neon() {
#if defined(__linux__)
  return (getauxval(AT_HWCAP) & HWCAP_ASIMD) != 0;
#else
  return true;  // ASIMD is architectural on aarch64
#endif
}
#endif

/// Detection order: scalar first, widest last — the default pick is
/// the back of the list.
const std::vector<const Backend*>& registry() {
  static const std::vector<const Backend*> r = [] {
    std::vector<const Backend*> v;
    v.push_back(scalar_backend());
#if defined(SPINAL_BACKEND_HAVE_SSE42)
    if (cpu_has_sse42()) v.push_back(sse42_backend());
#endif
#if defined(SPINAL_BACKEND_HAVE_AVX2)
    if (cpu_has_avx2()) v.push_back(avx2_backend());
#endif
#if defined(SPINAL_BACKEND_HAVE_AVX512)
    if (cpu_has_avx512()) v.push_back(avx512_backend());
#endif
#if defined(SPINAL_BACKEND_HAVE_NEON)
    if (cpu_has_neon()) v.push_back(neon_backend());
#endif
    return v;
  }();
  return r;
}

/// Mutable slot behind active(); resolved lazily so the SPINAL_BACKEND
/// override is read exactly once, at first use. resolve() itself
/// prints the diagnostic (with the available-backend list) on an
/// unknown name, so every resolution path tells the user what the
/// valid names are.
const Backend*& active_slot() {
  static const Backend* slot = [] {
    const char* env = std::getenv("SPINAL_BACKEND");
    bool warned = false;
    return resolve(env ? std::string_view(env) : std::string_view(), &warned);
  }();
  return slot;
}

}  // namespace

const std::vector<const Backend*>& available() noexcept { return registry(); }

const Backend* find(std::string_view name) noexcept {
  for (const Backend* b : registry())
    if (name == b->name) return b;
  return nullptr;
}

std::string available_names() {
  std::string names;
  for (const Backend* b : registry()) {
    if (!names.empty()) names += ' ';
    names += b->name;
  }
  return names;
}

const Backend* resolve(std::string_view env_value, bool* warned) noexcept {
  if (!env_value.empty()) {
    if (const Backend* b = find(env_value)) return b;
    if (warned) *warned = true;
    const Backend* best = registry().back();
    std::fprintf(stderr,
                 "spinal: SPINAL_BACKEND=%.*s is not available; using '%s' "
                 "(available: %s)\n",
                 static_cast<int>(env_value.size()), env_value.data(), best->name,
                 available_names().c_str());
    return best;
  }
  return registry().back();
}

const Backend& active() noexcept { return *active_slot(); }

bool force(std::string_view name) noexcept {
  const Backend* b = find(name);
  if (b == nullptr) return false;
  active_slot() = b;
  return true;
}

}  // namespace spinal::backend
