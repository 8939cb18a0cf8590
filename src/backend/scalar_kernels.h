#pragma once
// Portable scalar kernels — the reference semantics every SIMD backend
// must reproduce bit-for-bit, and the tail loops those backends run on
// the last count % lanes elements. All kernels are elementwise over the
// lane index, so a tail is just the same function on offset pointers.
// The float expressions here are the single source of truth for the
// metric shapes: a SIMD backend may reorder *lanes* but never the
// per-lane sequence of adds/mults (and never contract them into FMAs —
// the build pins -ffp-contract=off).
//
// The kernels are the static members of ScalarOps, the Ops policy the
// expansion drivers (expand.h) call and the scalar backend's table
// points at. It sits in an anonymous namespace: every translation unit
// gets its own copy with internal linkage, so a copy compiled inside a
// SIMD-flagged TU can never be vague-linkage-merged into the baseline
// binary and run on a CPU without that ISA (the check_backend_linkage
// test, tools/check_backend_linkage.py, reads the objects to hold this).
// For the same reason no std:: template is called here (popcount via
// builtin, min via ternary).

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "backend/backend.h"
#include "hash/jenkins.h"
#include "hash/salsa20.h"

namespace spinal::backend {
namespace {

struct ScalarOps {
  /// The one-at-a-time seed derivation shared by every backend (folds
  /// the salt into the initial value; see SpineHash::operator()).
  static std::uint32_t oaat_seed(std::uint32_t salt) noexcept {
    return salt ^ 0x2545F491u;
  }

  static void hash_n(hash::Kind kind, std::uint32_t salt, const std::uint32_t* states,
                     std::size_t count, std::uint32_t data, std::uint32_t* out) noexcept {
    switch (kind) {
      case hash::Kind::kOneAtATime: {
        const std::uint32_t seed = oaat_seed(salt);
        for (std::size_t i = 0; i < count; ++i)
          out[i] =
              hash::one_at_a_time_word(hash::one_at_a_time_word(seed, states[i]), data);
        break;
      }
      case hash::Kind::kLookup3:
        for (std::size_t i = 0; i < count; ++i)
          out[i] = hash::lookup3_pair(states[i], data, salt);
        break;
      case hash::Kind::kSalsa20:
        for (std::size_t i = 0; i < count; ++i)
          out[i] = hash::salsa20_pair(states[i], data, salt);
        break;
    }
  }

  static void premix_n(std::uint32_t salt, const std::uint32_t* states,
                       std::size_t count, std::uint32_t* out) noexcept {
    const std::uint32_t seed = oaat_seed(salt);
    for (std::size_t i = 0; i < count; ++i)
      out[i] = hash::one_at_a_time_word(seed, states[i]);
  }

  static void hash_premixed_n(const std::uint32_t* premixed, std::size_t count,
                              std::uint32_t data, std::uint32_t* out) noexcept {
    for (std::size_t i = 0; i < count; ++i)
      out[i] = hash::one_at_a_time_word(premixed[i], data);
  }

  /// Child-major (out[i*fanout + v] = h(states[i], v)): a leaf's
  /// children are contiguous, so the d=1 search consumes the output
  /// with no scatter (see Backend::hash_children).
  static void hash_children(hash::Kind kind, std::uint32_t salt,
                            const std::uint32_t* states, std::size_t count,
                            std::uint32_t fanout, std::uint32_t* out) noexcept {
    if (kind == hash::Kind::kOneAtATime) {
      // The state pre-mix is chunk-independent: one mix per leaf, then
      // fanout data mixes writing the leaf's contiguous child row.
      const std::uint32_t seed = oaat_seed(salt);
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint32_t premix = hash::one_at_a_time_word(seed, states[i]);
        std::uint32_t* row = out + i * static_cast<std::size_t>(fanout);
        for (std::uint32_t v = 0; v < fanout; ++v)
          row[v] = hash::one_at_a_time_word(premix, v);
      }
      return;
    }
    for (std::size_t i = 0; i < count; ++i) {
      std::uint32_t* row = out + i * static_cast<std::size_t>(fanout);
      for (std::uint32_t v = 0; v < fanout; ++v)
        row[v] = kind == hash::Kind::kLookup3 ? hash::lookup3_pair(states[i], v, salt)
                                              : hash::salsa20_pair(states[i], v, salt);
    }
  }

  /// Fused child hash + RNG-lane derivation for the streaming pipeline:
  /// writes every child state AND its RNG hash input. The RNG lane is
  /// the shared one-at-a-time pre-mix when @p premix is set
  /// (kOneAtATime, several symbols), the raw child state otherwise —
  /// exactly what the split hash_children + premix_n (or state copy)
  /// sequence produces.
  static void hash_children_premix(hash::Kind kind, std::uint32_t salt, bool premix,
                                   const std::uint32_t* states, std::size_t count,
                                   std::uint32_t fanout, std::uint32_t* out_states,
                                   std::uint32_t* out_lanes) noexcept {
    // Split passes on purpose: each plain loop auto-vectorizes with
    // baseline instructions, which is where the scalar backend's
    // throughput comes from. Explicit-SIMD backends fuse the passes
    // instead (see simd_kernels.h).
    hash_children(kind, salt, states, count, fanout, out_states);
    const std::size_t total = count * static_cast<std::size_t>(fanout);
    if (kind == hash::Kind::kOneAtATime && premix) {
      premix_n(salt, out_states, total, out_lanes);
    } else {
      for (std::size_t i = 0; i < total; ++i) out_lanes[i] = out_states[i];
    }
  }

  /// One symbol's RNG draw + AWGN l2 metric over the constellation
  /// table: acc[i] += |y - x(w[i])|^2, or with @p kStore (the first
  /// symbol) acc[i] = |y - x(w[i])|^2 — 0 + x == x exactly, so the
  /// store form equals zero-fill + add. Split passes (hash into @p w,
  /// then the metric) so both loops auto-vectorize; explicit-SIMD
  /// backends fuse them instead.
  template <bool kStore>
  static void awgn_sweep(hash::Kind kind, std::uint32_t salt, bool premixed,
                         const std::uint32_t* lanes, std::size_t count,
                         std::uint32_t data, const float* table, std::uint32_t mask,
                         int cbits, float yr, float yi, std::uint32_t* w,
                         float* acc) noexcept {
    if (premixed)
      hash_premixed_n(lanes, count, data, w);
    else
      hash_n(kind, salt, lanes, count, data, w);
    const float* const __restrict t = table;
    float* const __restrict oc = acc;
    for (std::size_t i = 0; i < count; ++i) {
      const float xr = t[w[i] & mask];
      const float xi = t[(w[i] >> cbits) & mask];
      const float dr = yr - xr, di = yi - xi;
      if constexpr (kStore)
        oc[i] = dr * dr + di * di;
      else
        oc[i] += dr * dr + di * di;
    }
  }

  /// acc[i] += |y - h·x(w[i])|^2 (coherent CSI metric, §8.3).
  static void awgn_csi_accum(const std::uint32_t* w, std::size_t count,
                             const float* table, std::uint32_t mask, int cbits, float yr,
                             float yi, float hr, float hi, float* acc) noexcept {
    const float* const __restrict t = table;
    float* const __restrict oc = acc;
    for (std::size_t i = 0; i < count; ++i) {
      const float xr = t[w[i] & mask];
      const float xi = t[(w[i] >> cbits) & mask];
      const float rr = hr * xr - hi * xi;
      const float ri = hr * xi + hi * xr;
      const float dr = yr - rr, di = yi - ri;
      oc[i] += dr * dr + di * di;
    }
  }

  /// Appendix-B grid quantisation; nearbyintf under the (default)
  /// round-to-nearest-even mode, which SIMD backends match with a
  /// current-rounding-direction round instruction.
  static float fx_quantise(float v, float scale) noexcept {
    return std::nearbyintf(v * scale) / scale;
  }

  /// CSI + fixed point: h·x quantised to the Appendix-B grid in-kernel.
  static void awgn_csi_fx_accum(const std::uint32_t* w, std::size_t count,
                                const float* table, std::uint32_t mask, int cbits,
                                float yr, float yi, float hr, float hi, float fx_scale,
                                float* acc) noexcept {
    const float* const __restrict t = table;
    float* const __restrict oc = acc;
    for (std::size_t i = 0; i < count; ++i) {
      const float xr = t[w[i] & mask];
      const float xi = t[(w[i] >> cbits) & mask];
      const float rr = fx_quantise(hr * xr - hi * xi, fx_scale);
      const float ri = fx_quantise(hr * xi + hi * xr, fx_scale);
      const float dr = yr - rr, di = yi - ri;
      oc[i] += dr * dr + di * di;
    }
  }

  /// One symbol's RNG draw + quantized metric from its per-dimension
  /// rows (qre = row[0, 2^c), qim = row[2^c, 2^(c+1))):
  ///   acc[i] += min(qre[w[i] & mask] + qim[(w[i] >> c) & mask], cap)
  /// (or = with @p kStore), split passes exactly as awgn_sweep.
  template <bool kStore>
  static void awgn_q_sweep(hash::Kind kind, std::uint32_t salt, bool premixed,
                           const std::uint32_t* lanes, std::size_t count,
                           std::uint32_t data, const std::uint16_t* row, int cbits,
                           std::uint32_t cap, std::uint32_t* w,
                           std::uint32_t* acc) noexcept {
    if (premixed)
      hash_premixed_n(lanes, count, data, w);
    else
      hash_n(kind, salt, lanes, count, data, w);
    const std::uint32_t mask = (1u << cbits) - 1u;
    const std::uint16_t* const __restrict re = row;
    const std::uint16_t* const __restrict im = row + mask + 1u;
    std::uint32_t* const __restrict oc = acc;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t s = re[w[i] & mask] + im[(w[i] >> cbits) & mask];
      const std::uint32_t m = s < cap ? s : cap;
      if constexpr (kStore)
        oc[i] = m;
      else
        oc[i] += m;
    }
  }

  /// acc[i] |= (w[i] & 1) << j — gathers one coded bit per child into
  /// the packed 64-symbol accumulator.
  static void bsc_gather_bit(const std::uint32_t* w, std::size_t count, std::uint32_t j,
                             std::uint64_t* acc) noexcept {
    std::uint64_t* const __restrict a = acc;
    for (std::size_t i = 0; i < count; ++i)
      a[i] |= static_cast<std::uint64_t>(w[i] & 1u) << j;
  }

  /// costs[i] += popcount(acc[i] ^ rx_word) — the Hamming metric per
  /// 64-symbol block (small exact integers, so float addition is exact).
  static void bsc_hamming_add(const std::uint64_t* acc, std::size_t count,
                              std::uint64_t rx_word, float* costs) noexcept {
    float* const __restrict oc = costs;
    for (std::size_t i = 0; i < count; ++i)
      oc[i] += static_cast<float>(__builtin_popcountll(acc[i] ^ rx_word));
  }

  /// Streaming fused d=1 finalize+prune (see LaneKernels::d1_prune):
  /// one sweep over a child-major expansion block that appends only the
  /// candidates whose key clears the running bound. Whole rows
  /// short-circuit on the parent cost (children cost at least the
  /// parent: child costs >= 0 by contract). @p Child is the child-cost
  /// word: the lane's cost word, or the fused expansion's accumulator
  /// word Lane::acc_t (Lane::add saturates either way). Never inlined:
  /// it is also the fused drivers' cold exit (keep-all bound, level
  /// without symbols), and inlined there it slowed their hot
  /// partial-prune phase (the AVX2 u16 fused kernel measured 7-10%
  /// slower).
  template <class Lane, class Child = typename Lane::cost_t>
  [[gnu::noinline]] static std::size_t d1_prune(const typename Lane::cost_t* parent_cost,
                              const Child* child_cost, std::size_t count,
                              std::uint32_t fanout, std::uint32_t cand_base,
                              typename Lane::key_t bound_key,
                              typename Lane::key_t* out_keys) noexcept {
    std::size_t sc = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const auto pc = parent_cost[i];
      // Every child key >= Lane::key(pc, 0): row skip on the parent.
      if (Lane::key(pc, 0) > bound_key) continue;
      const std::size_t row = i * static_cast<std::size_t>(fanout);
      for (std::uint32_t v = 0; v < fanout; ++v) {
        const typename Lane::key_t key =
            Lane::key(Lane::add(pc, child_cost[row + v]),
                      cand_base + static_cast<std::uint32_t>(row + v));
        // Branchless append (prune outcomes are data-random, poison for
        // the predictor): always write, advance on survival. The slot
        // past the last survivor is scratch — hence the contract's
        // out_keys slack.
        out_keys[sc] = key;
        sc += key <= bound_key;
      }
    }
    return sc;
  }

  /// The partial-prune base of a leaf with parent cost @p pc: false when
  /// even the row's floor exceeds the bound (costs only grow, so the row
  /// skips whole); otherwise @p base is what each lane's swept partial
  /// metric adds to — the parent plus the unswept symbols' floor.
  template <class Lane>
  static bool partial_base(typename Lane::acc_t pc, PruneFloors floors,
                           typename Lane::key_t bound_key,
                           typename Lane::acc_t& base) noexcept {
    if constexpr (Lane::kLevelFloor) {
      base = Lane::add(pc, floors.rest);
      return Lane::key(Lane::add(pc, floors.row), 0) <= bound_key;
    } else {
      base = pc;
      return Lane::key(pc, 0) <= bound_key;
    }
  }

  /// Partial-cost survivor compression for the fused streaming
  /// expansion (see LaneKernels::awgn_expand_prune): children whose
  /// partial key already exceeds the bound leave the pipeline. Survivor
  /// lanes of acc and lanes compact in place (front-packed, order
  /// preserved — write index never passes read index) and idx_out
  /// records each survivor's child index. Returns the survivor count.
  template <class Lane>
  static std::size_t partial_compress(const typename Lane::cost_t* parent_cost,
                                      typename Lane::acc_t* acc, std::size_t count,
                                      std::uint32_t fanout, PruneFloors floors,
                                      typename Lane::key_t bound_key,
                                      std::uint32_t* lanes,
                                      std::uint32_t* idx_out) noexcept {
    std::size_t n = 0;
    for (std::size_t i = 0; i < count; ++i) {
      typename Lane::acc_t base;
      if (!partial_base<Lane>(parent_cost[i], floors, bound_key, base)) continue;
      const std::size_t row = i * static_cast<std::size_t>(fanout);
      for (std::uint32_t v = 0; v < fanout; ++v) {
        const std::size_t c = row + v;
        // Branchless compaction: the write cursor trails the read index,
        // so unconditional writes are self-overwriting, never clobbering.
        acc[n] = acc[c];
        lanes[n] = lanes[c];
        idx_out[n] = static_cast<std::uint32_t>(c);
        // Partial key (block-local index low word) <= final key, so this
        // admits every candidate the full-cost filter would keep.
        const typename Lane::key_t pkey =
            Lane::key(Lane::add(base, acc[n]), static_cast<std::uint32_t>(c));
        n += pkey <= bound_key;
      }
    }
    return n;
  }

  /// Final key build over the compressed survivor lanes (see
  /// LaneKernels::awgn_expand_prune): finalizes cost = Lane::add(parent,
  /// metric), filters against the bound once more (partial survivors
  /// can still lose on the full cost) and appends packed keys in
  /// candidate order. @p parent holds the block's parent costs in
  /// accumulator words (the driver widens u16 parents, so SIMD
  /// backends gather plain 32-bit lanes).
  template <class Lane>
  static std::size_t final_prune(const typename Lane::acc_t* parent,
                                 const typename Lane::acc_t* acc,
                                 const std::uint32_t* idx, std::size_t n,
                                 int log2_fanout, std::uint32_t cand_base,
                                 typename Lane::key_t bound_key,
                                 typename Lane::key_t* out_keys) noexcept {
    std::size_t sc = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const typename Lane::key_t key =
          Lane::key(Lane::add(parent[idx[j] >> log2_fanout], acc[j]), cand_base + idx[j]);
      out_keys[sc] = key;
      sc += key <= bound_key;  // branchless append, see d1_prune
    }
    return sc;
  }

  /// Per-leaf row minima folded with the parent cost (see
  /// LaneKernels::row_mins). The running strict-less min over the row
  /// in v order is the reference semantics SIMD backends must match.
  template <class Lane>
  static void row_mins(const typename Lane::cost_t* leaf_cost,
                       const typename Lane::cost_t* child_cost, std::size_t leaves,
                       std::uint32_t fanout, typename Lane::cost_t* out) noexcept {
    for (std::size_t i = 0; i < leaves; ++i) {
      const std::size_t row = i * static_cast<std::size_t>(fanout);
      typename Lane::cost_t m = child_cost[row];
      for (std::uint32_t v = 1; v < fanout; ++v)
        if (child_cost[row + v] < m) m = child_cost[row + v];
      out[i] = static_cast<typename Lane::cost_t>(Lane::add(leaf_cost[i], m));
    }
  }

  /// Survivor-group row emit (see LaneKernels::regroup_emit): the
  /// scalar reference for the vectorized d>1 regroup. Kernel-local fill
  /// counters reproduce the old scatter's leaf-major fill order.
  template <class Lane>
  static void regroup_emit(const std::uint32_t* child_state,
                           const typename Lane::cost_t* child_cost,
                           const typename Lane::cost_t* leaf_cost,
                           const std::uint32_t* leaf_path, std::size_t leaves,
                           std::uint32_t fanout, int k, int d, std::uint32_t group_mask,
                           const std::int32_t* group_rowbase, std::uint32_t* out_state,
                           typename Lane::cost_t* out_cost,
                           std::uint32_t* out_path) noexcept {
    std::uint32_t next[256];  // group_count <= 2^k <= 256 (CodeParams)
    const std::uint32_t group_count = group_mask + 1;
    for (std::uint32_t g = 0; g < group_count; ++g)
      next[g] = group_rowbase[g] < 0 ? 0 : static_cast<std::uint32_t>(group_rowbase[g]);
    const int shift = k * (d - 2);
    for (std::size_t i = 0; i < leaves; ++i) {
      const std::uint32_t g = leaf_path[i] & group_mask;
      if (group_rowbase[g] < 0) continue;
      const auto pc = leaf_cost[i];
      const std::uint32_t pbase = leaf_path[i] >> k;
      const std::size_t src = i * static_cast<std::size_t>(fanout);
      const std::size_t dst = next[g];
      next[g] += fanout;
      for (std::uint32_t v = 0; v < fanout; ++v) {
        out_state[dst + v] = child_state[src + v];
        out_cost[dst + v] =
            static_cast<typename Lane::cost_t>(Lane::add(pc, child_cost[src + v]));
        out_path[dst + v] = pbase | (v << shift);
      }
    }
  }

  /// Dense GF(2) row combine (see Backend::xor_rows): dst ^= src over
  /// 64-bit words. Word-at-a-time is the reference semantics; SIMD
  /// backends widen the stride but XOR is exact, so outputs are
  /// bit-identical by construction.
  static void xor_rows(std::uint64_t* dst, const std::uint64_t* src,
                       std::size_t words) noexcept {
    for (std::size_t w = 0; w < words; ++w) dst[w] ^= src[w];
  }

  // ---- Packed-key select (LaneKernels::tighten and select) -----------
  // One template serves both key widths: F32Lane's u64 keys (monotone
  // cost << 32 | candidate) and U16Lane's u32 keys (cost << 16 |
  // candidate). The cost of a call follows its keys, not fixed
  // per-round overheads:
  //   - partition: a range-adaptive bucket select. One min/max pass,
  //     then rounds of at most 256 buckets sized to the ambiguous
  //     block's own key range and length (two to four keys per bucket),
  //     each resolved by one forward three-way scatter. Blocks of a
  //     couple dozen keys finish by insertion.
  //   - sort: one counting pass into n to 2n buckets over the block's
  //     own key range, then an insertion pass over the full keys:
  //     buckets hold a key or two, and equal costs share a bucket, so
  //     the insertion pass also orders every equal-cost run by
  //     candidate. Short or already ascending blocks skip the counting
  //     pass.
  // All scratch lives on the stack (kScratch keys); wider inputs fall
  // back to a heap sort.

  /// Stack scratch of every selection routine, in keys; no heap.
  static constexpr std::size_t kScratch = 4096;
  /// Blocks this short skip the bucket passes: an insertion sort touches
  /// fewer words than one histogram would.
  static constexpr std::size_t kInsertion = 24;
  /// So do blocks of up to kSmallKeepBlock keys that keep at most
  /// kSmallKeep (a B <= 4 beam): the insertion select's sorted prefix
  /// stays that short, so it is one compare per key.
  static constexpr std::size_t kSmallKeep = 4;
  static constexpr std::size_t kSmallKeepBlock = 256;

  static bool by_insertion(std::size_t n, std::size_t need) noexcept {
    return n <= kInsertion || (need <= kSmallKeep && n <= kSmallKeepBlock);
  }

  /// Bits needed to represent @p x (0 for 0): std::bit_width without the
  /// std:: template.
  template <class Key>
  static int bit_width(Key x) noexcept {
    int w = 0;
    if constexpr (sizeof(Key) == 8) {
      if (x != 0) w = 64 - __builtin_clzll(x);
    } else {
      if (x != 0) w = 32 - __builtin_clz(x);
    }
    return w;
  }

  template <class Key>
  static void insertion_sort(Key* a, std::size_t n) noexcept {
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
  static void insertion_select(Key* a, std::size_t n, std::size_t need) noexcept {
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

  /// The fallback for blocks wider than the stack scratch (beams far
  /// wider than any decode uses): in place, O(n log n), no recursion.
  template <class Key>
  static void heap_sort(Key* a, std::size_t n) noexcept {
    const auto sift = [a](std::size_t root, std::size_t end) {
      const Key x = a[root];
      for (std::size_t c = 2 * root + 1; c < end; c = 2 * root + 1) {
        if (c + 1 < end && a[c + 1] > a[c]) ++c;
        if (a[c] <= x) break;
        a[root] = a[c];
        root = c;
      }
      a[root] = x;
    };
    for (std::size_t i = n / 2; i-- > 0;) sift(i, n);
    for (std::size_t end = n; end > 1; --end) {
      const Key top = a[0];
      a[0] = a[end - 1];
      a[end - 1] = top;
      sift(0, end - 1);
    }
  }

  template <class Key>
  static bool is_sorted(const Key* a, std::size_t n) noexcept {
    for (std::size_t i = 1; i < n; ++i)
      if (a[i] < a[i - 1]) return false;
    return true;
  }

  /// Smallest and largest of a[0, n), n >= 1, over two independent
  /// accumulator pairs (one pair would serialise on its compare chain).
  template <class Key>
  static void min_max(const Key* a, std::size_t n, Key& mn, Key& mx) noexcept {
    Key mn0 = a[0], mx0 = a[0], mn1 = a[0], mx1 = a[0];
    std::size_t i = 1;
    for (; i + 2 <= n; i += 2) {
      mn0 = a[i] < mn0 ? a[i] : mn0;
      mx0 = a[i] > mx0 ? a[i] : mx0;
      mn1 = a[i + 1] < mn1 ? a[i + 1] : mn1;
      mx1 = a[i + 1] > mx1 ? a[i + 1] : mx1;
    }
    if (i < n) {
      mn0 = a[i] < mn0 ? a[i] : mn0;
      mx0 = a[i] > mx0 ? a[i] : mx0;
    }
    mn = mn1 < mn0 ? mn1 : mn0;
    mx = mx1 > mx0 ? mx1 : mx0;
  }

  /// Sorts a[0, n): by insertion when short, else by heap sort unless
  /// it is already ascending.
  template <class Key>
  static void sort_run(Key* a, std::size_t n) noexcept {
    if (n <= kInsertion)
      insertion_sort(a, n);
    else if (!is_sorted(a, n))
      heap_sort(a, n);
  }

  /// Range-adaptive bucket select: moves the keep smallest keys into
  /// [0, keep) in unspecified order (keys past keep are unspecified:
  /// the select overwrites keys it has ruled out). Each round splits
  /// the ambiguous block [lo, hi) — the one that straddles the keep
  /// boundary — into at most 256 buckets spanning the block's own
  /// [min, max] key range, with two to four keys per bucket, so a
  /// round's counters never outnumber its keys. One forward scatter
  /// then resolves the threshold bucket T: keys below T compact in
  /// place (the write cursor never passes the read index), keys in T
  /// spill to stack scratch and come back right behind them as the next
  /// block (their min and max taken on the way), keys above T are
  /// dropped. Short blocks, and blocks that keep only a few keys,
  /// finish by insertion.
  template <class Key>
  static void partition_keys(Key* keys, std::size_t count, std::size_t keep) noexcept {
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
      const int lg0 = bit_width(n) - 2;
      const int lg = lg0 < 8 ? lg0 : 8;
      const int sh = bit_width(static_cast<Key>(mx - mn)) - lg;
      const int shift = sh > 0 ? sh : 0;
      const std::size_t buckets = static_cast<std::size_t>((mx - mn) >> shift) + 1;
      std::uint32_t cnt[256];
      for (std::size_t b = 0; b < buckets; ++b) cnt[b] = 0;
      for (std::size_t i = lo; i < hi; ++i) ++cnt[(keys[i] - mn) >> shift];

      // Threshold bucket T: it straddles the keep boundary.
      std::size_t acc = 0;
      Key T = 0;
      for (;; ++T) {
        if (acc + cnt[T] > need) break;
        acc += cnt[T];
      }
      if (cnt[T] >= kScratch) {  // only beams far wider than the scratch
        heap_sort(keys + lo, n);
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
        mn = eq[i] < mn ? eq[i] : mn;
        mx = eq[i] > mx ? eq[i] : mx;
      }
      need -= m - lo;
      lo = m;
      hi = m + e;
    }
  }

  /// Range-adaptive bucket sort of keys[0, n): one counting pass
  /// scatters the keys into n to 2n buckets spanning their [min, max]
  /// range, and an insertion pass over the full keys finishes the job —
  /// keys never cross a bucket boundary, and buckets hold a key or two,
  /// so that pass is about one comparison per key. It also orders the
  /// equal-cost runs (one bucket each) by candidate index. A bucket too
  /// wide for insertion is sorted on its own.
  template <class Key>
  static void sort_keys(Key* keys, std::size_t n) noexcept {
    if (n <= kInsertion || n > kScratch) {
      sort_run(keys, n);
      return;
    }
    if (is_sorted(keys, n)) return;  // a zero-symbol level's kept set
    Key mn, mx;
    min_max(keys, n, mn, mx);
    constexpr int kMaxLg = 12;  // 4096 buckets: the scratch size
    const int lg0 = bit_width(n);
    const int lg = lg0 < kMaxLg ? lg0 : kMaxLg;
    const int sh = bit_width(static_cast<Key>(mx - mn)) - lg;
    const int shift = sh > 0 ? sh : 0;
    const std::size_t buckets = static_cast<std::size_t>((mx - mn) >> shift) + 1;
    std::uint16_t off[(1u << kMaxLg) + 1];
    for (std::size_t b = 0; b <= buckets; ++b) off[b] = 0;
    for (std::size_t i = 0; i < n; ++i) ++off[((keys[i] - mn) >> shift) + 1];
    std::uint16_t widest = 0;
    for (std::size_t b = 1; b <= buckets; ++b) {
      widest = off[b] > widest ? off[b] : widest;
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
    for (std::size_t i = 0; i < n; ++i) keys[i] = tmp[i];
  }

  /// LaneKernels::tighten, exact: partitions the keep smallest keys to
  /// the front and bounds them by their largest — the tightest
  /// admissible bound there is.
  template <class Lane>
  static std::size_t tighten(typename Lane::key_t* keys, std::size_t count,
                             std::size_t keep, typename Lane::key_t* bound) noexcept {
    if (keep == 0 || keep >= count) return count;
    partition_keys(keys, count, keep);
    typename Lane::key_t mx = keys[0];
    for (std::size_t j = 1; j < keep; ++j) mx = keys[j] > mx ? keys[j] : mx;
    *bound = mx;
    return keep;
  }

  /// LaneKernels::select: partition, then sort the kept prefix.
  template <class Lane>
  static void select(typename Lane::key_t* keys, std::size_t count,
                     std::size_t keep) noexcept {
    if (keep == 0) return;
    partition_keys(keys, count, keep);
    sort_keys(keys, keep < count ? keep : count);
  }
};

}  // namespace
}  // namespace spinal::backend
