// Backend registry: runtime CPU-feature detection, the SPINAL_BACKEND
// environment override, and the packed-key selection kernels.
// This TU is always compiled with baseline flags — the selection
// kernels defined here serve every backend, so they must run on any
// CPU the binary reaches.

#include "backend/backends_impl.h"

#include <algorithm>
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

/// Branchless Lomuto partition of keys[lo, hi) on pred "byte at shift
/// <= T": every element is unconditionally swapped toward the front and
/// the boundary advances by the predicate value, so the selection cost
/// does not depend on branch prediction (real cost keys arrive
/// near-sorted and clustered — poison for branchy partitions). Returns
/// the boundary: [lo, ret) satisfies the predicate.
inline std::size_t partition_le(std::uint64_t* keys, std::size_t lo, std::size_t hi,
                                int shift, std::uint64_t T) {
  std::size_t m = lo;
  for (std::size_t j = lo; j < hi; ++j) {
    const std::uint64_t x = keys[j];
    keys[j] = keys[m];
    keys[m] = x;
    m += ((x >> shift) & 0xFF) <= T;
  }
  return m;
}

/// Ascending LSD radix sort of keys[0, n): branch-free counting passes,
/// skipping bytes on which all keys agree (cost keys cluster, so most
/// high bytes are constant). Falls back to std::sort above the stack
/// scratch size — selection keeps B candidates, so this only triggers
/// for beams wider than 4096.
inline void sort_keys_prefix(std::uint64_t* keys, std::size_t n) {
  constexpr std::size_t kScratch = 4096;
  if (n < 2) return;
  if (n > kScratch) {
    std::sort(keys, keys + n);
    return;
  }
  std::uint64_t k0 = keys[0], diff = 0;
  for (std::size_t i = 1; i < n; ++i) diff |= keys[i] ^ k0;
  std::uint64_t tmp[kScratch];
  std::uint64_t* src = keys;
  std::uint64_t* dst = tmp;
  // LSD passes over the differing COST bytes only (16-bit counters:
  // for the streaming pipeline's kept-prefix sorts — a few hundred
  // keys, every level — the histogram zeroing dominates, and skipping
  // the candidate-index bytes drops the pass count further). Equal-cost
  // runs come out in scrambled order and are fixed afterwards; float
  // costs make exact ties rare (integer Hamming costs tie more, but
  // then the runs sort in one comparison burst each).
  for (int shift = 32; shift < 64; shift += 8) {
    if (((diff >> shift) & 0xFF) == 0) continue;  // constant byte
    std::uint16_t off[256] = {};
    for (std::size_t i = 0; i < n; ++i) ++off[(src[i] >> shift) & 0xFF];
    std::uint16_t sum = 0;
    for (unsigned b = 0; b < 256; ++b) {
      const std::uint16_t c = off[b];
      off[b] = sum;
      sum = static_cast<std::uint16_t>(sum + c);
    }
    for (std::size_t i = 0; i < n; ++i) dst[off[(src[i] >> shift) & 0xFF]++] = src[i];
    std::swap(src, dst);
  }
  if (src != keys) std::memcpy(keys, src, n * sizeof(std::uint64_t));
  // Keys are unique, so equal-cost runs order deterministically by the
  // candidate index in their low words.
  std::size_t run = 0;
  while (run < n) {
    std::size_t end = run + 1;
    while (end < n && (keys[end] >> 32) == (keys[run] >> 32)) ++end;
    if (end - run > 1) std::sort(keys + run, keys + end);
    run = end;
  }
}

/// u32 twin of partition_le for the quantized path's narrow keys.
inline std::size_t partition_le_u32(std::uint32_t* keys, std::size_t lo, std::size_t hi,
                                    int shift, std::uint32_t T) {
  std::size_t m = lo;
  for (std::size_t j = lo; j < hi; ++j) {
    const std::uint32_t x = keys[j];
    keys[j] = keys[m];
    keys[m] = x;
    m += ((x >> shift) & 0xFF) <= T;
  }
  return m;
}

/// Ascending LSD radix sort of u32 keys[0, n). Unlike the u64 variant,
/// the passes cover every differing byte — the full u32 key orders as
/// (cost, candidate) directly, so there are no equal-key runs to fix
/// afterwards (candidate indices are unique).
inline void sort_keys_prefix_u32(std::uint32_t* keys, std::size_t n) {
  constexpr std::size_t kScratch = 4096;
  if (n < 2) return;
  if (n > kScratch) {
    std::sort(keys, keys + n);
    return;
  }
  std::uint32_t k0 = keys[0], diff = 0;
  for (std::size_t i = 1; i < n; ++i) diff |= keys[i] ^ k0;
  std::uint32_t tmp[kScratch];
  std::uint32_t* src = keys;
  std::uint32_t* dst = tmp;
  for (int shift = 0; shift < 32; shift += 8) {
    if (((diff >> shift) & 0xFF) == 0) continue;  // constant byte
    std::uint16_t off[256] = {};
    for (std::size_t i = 0; i < n; ++i) ++off[(src[i] >> shift) & 0xFF];
    std::uint16_t sum = 0;
    for (unsigned b = 0; b < 256; ++b) {
      const std::uint16_t c = off[b];
      off[b] = sum;
      sum = static_cast<std::uint16_t>(sum + c);
    }
    for (std::size_t i = 0; i < n; ++i) dst[off[(src[i] >> shift) & 0xFF]++] = src[i];
    std::swap(src, dst);
  }
  if (src != keys) std::memcpy(keys, src, n * sizeof(std::uint32_t));
}

}  // namespace

void partition_keys(std::uint64_t* keys, std::size_t count, std::size_t keep) {
  if (keep == 0 || keep >= count) return;
  // Radix select: peel the key bytes from the top, keeping a single
  // ambiguous block [lo, hi) that straddles the keep boundary. Each
  // round histograms the block's highest differing byte, picks the
  // threshold value T whose bucket contains the boundary, and
  // partitions the block (< T kept outright, > T dropped, == T stays
  // ambiguous). Real cost keys cluster tightly and arrive nearly
  // sorted, which drives introselect (nth_element) to several times its
  // random-input cost; everything here is a sequential branch-free
  // scan, immune to input order. Keys are unique (candidate index in
  // the low bits), so the kept *set* is exactly nth_element's, and the
  // final prefix sort fixes the kept *order* — bit-identical selection,
  // per the select_keys contract.
  std::size_t lo = 0, hi = count;  // ambiguous block
  std::size_t need = keep;         // how many of [lo, hi) are kept
  while (need > 0 && need < hi - lo) {
    // Jump straight to the highest byte where the block differs (an
    // OR-reduction of XORs against one element — independent ops, so
    // it streams). Clustered costs share their top bytes; scanning
    // them byte-by-byte would re-walk the full block per byte.
    const std::uint64_t k0 = keys[lo];
    std::uint64_t d0 = 0, d1 = 0, d2 = 0, d3 = 0;
    std::size_t i = lo;
    for (; i + 4 <= hi; i += 4) {
      d0 |= keys[i] ^ k0;
      d1 |= keys[i + 1] ^ k0;
      d2 |= keys[i + 2] ^ k0;
      d3 |= keys[i + 3] ^ k0;
    }
    for (; i < hi; ++i) d0 |= keys[i] ^ k0;
    const std::uint64_t diff = d0 | d1 | d2 | d3;
    if (diff == 0) break;  // unreachable with unique keys; defensive
    const int shift = (63 - std::countl_zero(diff)) & ~7;

    // Histogram of that byte. Large blocks use 4 interleaved tables:
    // clustered keys hit the same bucket over and over, and a single
    // table would serialise on the store-to-load dependence. Small
    // blocks — the streaming pipeline's survivor sets, a few hundred
    // keys per refinement — use one table: zeroing 4 KiB of counters
    // would cost more than the whole scan.
    std::uint32_t cnt[4][256];
    std::uint32_t* const c0 = cnt[0];
    if (hi - lo >= 1024) {
      std::memset(cnt, 0, sizeof(cnt));
      i = lo;
      for (; i + 4 <= hi; i += 4) {
        ++cnt[0][(keys[i] >> shift) & 0xFF];
        ++cnt[1][(keys[i + 1] >> shift) & 0xFF];
        ++cnt[2][(keys[i + 2] >> shift) & 0xFF];
        ++cnt[3][(keys[i + 3] >> shift) & 0xFF];
      }
      for (; i < hi; ++i) ++cnt[0][(keys[i] >> shift) & 0xFF];
      for (unsigned b = 0; b < 256; ++b) c0[b] += cnt[1][b] + cnt[2][b] + cnt[3][b];
    } else {
      std::memset(c0, 0, sizeof(cnt[0]));
      for (i = lo; i < hi; ++i) ++c0[(keys[i] >> shift) & 0xFF];
    }

    // Threshold byte T: its bucket straddles the keep boundary.
    std::size_t acc = 0;
    unsigned T = 0;
    for (;; ++T) {
      const std::size_t c = c0[T];
      if (acc + c > need) break;
      acc += c;
    }
    // Two branchless passes: move byte <= T to the front, then split
    // that prefix into the kept < T part and the still-ambiguous == T
    // block. (T == 0 has no < T part: one pass, ambiguous prefix.)
    if (T == 0) {
      hi = partition_le(keys, lo, hi, shift, 0);
      continue;
    }
    const std::size_t le = partition_le(keys, lo, hi, shift, T);
    const std::size_t lt = partition_le(keys, lo, le, shift, T - 1);
    need -= lt - lo;
    lo = lt;
    hi = le;
  }
}

void select_keys(std::uint64_t* keys, std::size_t count, std::size_t keep) {
  if (keep == 0 || keep >= count) return;
  partition_keys(keys, count, keep);
  sort_keys_prefix(keys, keep);
}

void partition_keys(std::uint32_t* keys, std::size_t count, std::size_t keep) {
  if (keep == 0 || keep >= count) return;
  // Radix select over the quantized path's 4-byte keys. Keys are
  // unique ((cost << 16) | candidate with distinct candidate indices),
  // so the kept set matches nth_element exactly.
  //
  // This runs hotter than the u64 variant relative to its kernels (the
  // integer expand is cheaper than the f32 one, so selection is a
  // bigger slice of the decode), so the rounds are leaner: the varying
  // bytes are found by ONE up-front diff scan instead of one per round
  // (a round's ambiguous block only ever varies in a subset of the
  // parent's bytes), and each round is histogram + one three-way
  // scatter pass — byte < T compacts in place (the write cursor can't
  // pass the read index), byte == T spills to a scratch block copied
  // back right behind it, byte > T is dropped — instead of histogram +
  // two branchless partition passes.
  std::size_t lo = 0, hi = count;  // ambiguous block
  std::size_t need = keep;         // how many of [lo, hi) are kept
  std::uint32_t diff;
  {
    const std::uint32_t k0 = keys[0];
    std::uint32_t d0 = 0, d1 = 0, d2 = 0, d3 = 0;
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
      d0 |= keys[i] ^ k0;
      d1 |= keys[i + 1] ^ k0;
      d2 |= keys[i + 2] ^ k0;
      d3 |= keys[i + 3] ^ k0;
    }
    for (; i < count; ++i) d0 |= keys[i] ^ k0;
    diff = d0 | d1 | d2 | d3;
  }
  if (diff == 0) return;  // unreachable with unique keys; defensive
  int shift = (31 - std::countl_zero(diff)) & ~7;

  constexpr std::size_t kEqScratch = 4096;
  std::uint32_t eqbuf[kEqScratch];

  while (need > 0 && need < hi - lo) {
    // Histogram of the block's byte at `shift`. Large blocks use 4
    // interleaved tables (clustered keys hammer one bucket; a single
    // table serialises on the store-to-load dependence), small blocks
    // a single one (zeroing 4 KiB would outweigh the scan).
    std::uint32_t cnt[4][256];
    std::uint32_t* const c0 = cnt[0];
    std::size_t i;
    if (hi - lo >= 1024) {
      std::memset(cnt, 0, sizeof(cnt));
      i = lo;
      for (; i + 4 <= hi; i += 4) {
        ++cnt[0][(keys[i] >> shift) & 0xFF];
        ++cnt[1][(keys[i + 1] >> shift) & 0xFF];
        ++cnt[2][(keys[i + 2] >> shift) & 0xFF];
        ++cnt[3][(keys[i + 3] >> shift) & 0xFF];
      }
      for (; i < hi; ++i) ++cnt[0][(keys[i] >> shift) & 0xFF];
      for (unsigned b = 0; b < 256; ++b) c0[b] += cnt[1][b] + cnt[2][b] + cnt[3][b];
    } else {
      std::memset(c0, 0, sizeof(cnt[0]));
      for (i = lo; i < hi; ++i) ++c0[(keys[i] >> shift) & 0xFF];
    }

    // Threshold byte T: its bucket straddles the keep boundary.
    std::size_t acc = 0;
    unsigned T = 0;
    for (;; ++T) {
      const std::size_t c = c0[T];
      if (acc + c > need) break;
      acc += c;
    }
    const std::size_t eqc = c0[T];

    if (acc != 0 || eqc != hi - lo) {  // byte constant in block: descend only
      if (eqc <= kEqScratch) {
        std::size_t m = lo, eq = 0;
        for (std::size_t j = lo; j < hi; ++j) {
          const std::uint32_t x = keys[j];
          const unsigned b = (x >> shift) & 0xFF;
          keys[m] = x;
          m += b < T;
          eqbuf[eq] = x;
          eq += b == T;
        }
        std::memcpy(keys + m, eqbuf, eq * sizeof(std::uint32_t));
        need -= m - lo;
        lo = m;
        hi = m + eq;
      } else {  // == T block outgrew the scratch: in-place two-pass split
        const std::size_t le = partition_le_u32(keys, lo, hi, shift, T);
        const std::size_t lt =
            T ? partition_le_u32(keys, lo, le, shift, T - 1) : lo;
        need -= lt - lo;
        lo = lt;
        hi = le;
      }
    }

    if (shift == 0) break;  // all-equal block; unreachable with unique keys
    const std::uint32_t below = diff & ((1u << shift) - 1u);
    if (below == 0) break;
    shift = (31 - std::countl_zero(below)) & ~7;
  }
}

void select_keys(std::uint32_t* keys, std::size_t count, std::size_t keep) {
  if (keep == 0) return;
  // keep >= count degenerates to a full ascending sort — the quantized
  // finalize leans on this instead of std::sort (the radix passes beat
  // introsort's mispredicts on a few hundred clustered keys).
  if (keep < count) partition_keys(keys, count, keep);
  sort_keys_prefix_u32(keys, std::min(keep, count));
}

namespace {

#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
// __builtin_cpu_supports runs CPUID (and XGETBV for the AVX family, so
// OS save support is included) and caches the result.
[[maybe_unused]] bool cpu_has_sse42() { return __builtin_cpu_supports("sse4.2") != 0; }
[[maybe_unused]] bool cpu_has_avx2() { return __builtin_cpu_supports("avx2") != 0; }
#else
[[maybe_unused]] bool cpu_has_sse42() { return false; }
[[maybe_unused]] bool cpu_has_avx2() { return false; }
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
