#pragma once
// Generic SIMD kernels over a vector-of-uint32 abstraction V (see
// vec_x86.h / vec_neon.h for the wrappers). Each kernel runs the main
// loop V::W lanes at a time and finishes the count % W tail with the
// scalar kernel on offset pointers — elementwise kernels make the
// split exact. Bit-identity rules:
//
//  * hash lanes are pure integer ops — identical by construction;
//  * float metrics keep the scalar expression shapes (separate mul and
//    add, never a fused multiply-add: the build also pins
//    -ffp-contract=off in these TUs) and the scalar per-lane reduction
//    order (symbols accumulate sequentially per lane; lanes are
//    independent slots, never summed across);
//  * fixed-point rounding uses the current-rounding-direction round
//    instruction, matching scalar nearbyintf.
//
// The kernels are the static members of SimdOps<V>, the Ops policy the
// expansion drivers (expand.h) call and the SIMD backends' tables point
// at. Everything here sits in an anonymous namespace and is only ever
// instantiated inside the one TU compiled with the matching ISA flags,
// so every instantiation has internal linkage (checked by the
// check_backend_linkage test, tools/check_backend_linkage.py).

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "backend/scalar_kernels.h"
#include "backend/simd_select.h"

namespace spinal::backend::simd {
namespace {

template <class V>
inline typename V::U rotl_v(typename V::U x, int r) {
  return V::or_(V::shl(x, r), V::shr(x, 32 - r));
}

/// One-at-a-time over one 32-bit word (see hash::one_at_a_time_word).
template <class V>
inline typename V::U oaat_word_v(typename V::U h, typename V::U word) {
  const typename V::U byte_mask = V::set1(0xFFu);
  for (int b = 0; b < 4; ++b) {
    h = V::add(h, V::and_(V::shr(word, 8 * b), byte_mask));
    h = V::add(h, V::shl(h, 10));
    h = V::xor_(h, V::shr(h, 6));
  }
  h = V::add(h, V::shl(h, 3));
  h = V::xor_(h, V::shr(h, 11));
  h = V::add(h, V::shl(h, 15));
  return h;
}

/// lookup3 final_mix (see jenkins.cpp) on vector lanes.
template <class V>
inline void final_mix_v(typename V::U& a, typename V::U& b, typename V::U& c) {
  c = V::xor_(c, b); c = V::sub(c, rotl_v<V>(b, 14));
  a = V::xor_(a, c); a = V::sub(a, rotl_v<V>(c, 11));
  b = V::xor_(b, a); b = V::sub(b, rotl_v<V>(a, 25));
  c = V::xor_(c, b); c = V::sub(c, rotl_v<V>(b, 16));
  a = V::xor_(a, c); a = V::sub(a, rotl_v<V>(c, 4));
  b = V::xor_(b, a); b = V::sub(b, rotl_v<V>(a, 14));
  c = V::xor_(c, b); c = V::sub(c, rotl_v<V>(b, 24));
}

/// lookup3_hashword for a (state, data) pair: length 2, so the init
/// value folds (2 << 2) and the switch reduces to b += data; a += state.
/// Both state and data are lane vectors (either may be a broadcast).
template <class V>
inline typename V::U lookup3_pair_v(typename V::U state, typename V::U data,
                                    std::uint32_t salt) {
  const std::uint32_t init = 0xdeadbeefu + (2u << 2) + salt;
  typename V::U a = V::add(V::set1(init), state);
  typename V::U b = V::add(V::set1(init), data);
  typename V::U c = V::set1(init);
  final_mix_v<V>(a, b, c);
  return c;
}

template <class V>
inline void salsa_quarter_v(typename V::U& a, typename V::U& b, typename V::U& c,
                            typename V::U& d) {
  b = V::xor_(b, rotl_v<V>(V::add(a, d), 7));
  c = V::xor_(c, rotl_v<V>(V::add(b, a), 9));
  d = V::xor_(d, rotl_v<V>(V::add(c, b), 13));
  a = V::xor_(a, rotl_v<V>(V::add(d, c), 18));
}

/// Salsa20/20 core on a (state, data, salt) block per lane; returns
/// out[0] ^ out[8] (see salsa20.cpp salsa20_pair). Both state and data
/// are lane vectors (either may be a broadcast).
template <class V>
inline typename V::U salsa20_pair_v(typename V::U state, typename V::U data,
                                    std::uint32_t salt) {
  using U = typename V::U;
  U in[16];
  in[0] = V::set1(0x61707865u);
  in[1] = state;
  in[2] = data;
  in[3] = V::set1(salt);
  in[4] = V::set1(0x3320646eu);
  in[5] = V::xor_(state, V::set1(0x9E3779B9u));
  in[6] = V::xor_(data, V::set1(0x7F4A7C15u));
  in[7] = V::set1(salt ^ 0x85EBCA6Bu);
  in[8] = V::set1(0x79622d32u);
  in[9] = V::set1(0u);
  in[10] = V::set1(0u);
  in[11] = V::set1(0u);
  in[12] = V::set1(0x6b206574u);
  in[13] = V::add(state, data);
  in[14] = V::add(data, V::set1(salt));
  in[15] = V::add(V::set1(salt), state);

  U x[16];
  for (int i = 0; i < 16; ++i) x[i] = in[i];
  for (int round = 0; round < 20; round += 2) {
    // Column round.
    salsa_quarter_v<V>(x[0], x[4], x[8], x[12]);
    salsa_quarter_v<V>(x[5], x[9], x[13], x[1]);
    salsa_quarter_v<V>(x[10], x[14], x[2], x[6]);
    salsa_quarter_v<V>(x[15], x[3], x[7], x[11]);
    // Row round.
    salsa_quarter_v<V>(x[0], x[1], x[2], x[3]);
    salsa_quarter_v<V>(x[5], x[6], x[7], x[4]);
    salsa_quarter_v<V>(x[10], x[11], x[8], x[9]);
    salsa_quarter_v<V>(x[15], x[12], x[13], x[14]);
  }
  return V::xor_(V::add(x[0], in[0]), V::add(x[8], in[8]));
}

/// The RNG word of one vector of lanes for the sweeps: the finishing
/// mix of pre-mixed lanes, or the full hash of raw child states.
template <class V>
inline typename V::U rng_word_v(hash::Kind kind, std::uint32_t salt, bool premixed,
                                typename V::U lanes, typename V::U seedv,
                                typename V::U datav) {
  if (premixed) return oaat_word_v<V>(lanes, datav);
  if (kind == hash::Kind::kOneAtATime)
    return oaat_word_v<V>(oaat_word_v<V>(seedv, lanes), datav);
  if (kind == hash::Kind::kLookup3) return lookup3_pair_v<V>(lanes, datav, salt);
  return salsa20_pair_v<V>(lanes, datav, salt);
}

/// Branchless lane form of monotone_key (backend.h): b ^ (b>>31 | sign).
template <class V>
inline typename V::U monotone_key_v(typename V::F costs) {
  const typename V::U b = V::castfu(costs);
  return V::xor_(b, V::or_(V::sar(b, 31), V::set1(0x80000000u)));
}

/// Vector view of one cost lane: the per-vector cost type C, the loads
/// that bring a cost or accumulator word into it, the lane add, and the
/// packed-key bound filter + compress-store append. The prune, regroup
/// and partial-prune kernels below are written once against this
/// interface.
template <class V, class Lane>
struct VLane;

/// F32Lane: float lanes; the u64 key splits into a monotone cost word
/// and the candidate word, compared against the bound's two halves.
template <class V>
struct VLane<V, F32Lane> {
  using U = typename V::U;
  using C = typename V::F;
  using Elem = float;  ///< one lane of C in memory
  static C bcast(float c) { return V::set1f(c); }
  static C load(const float* p) { return V::loadf(p); }
  static C gather(const float* t, U idx) { return V::gather(t, idx); }
  static C add(C a, C b) { return V::addf(a, b); }
  static C min(C a, C b) { return V::minf(a, b); }
  static void store(float* p, C c) { V::storef(p, c); }
  static U bits(C c) { return V::castfu(c); }

  struct Bound {
    U hi, lo;
    explicit Bound(std::uint64_t key)
        : hi(V::set1(static_cast<std::uint32_t>(key >> 32))),
          lo(V::set1(static_cast<std::uint32_t>(key))) {}
  };
  /// Lanes whose key (m << 32 | cand) clears the bound: cost word below
  /// the bound's, or equal with the index tie-break in its favour.
  static unsigned keep(C cost, U candv, const Bound& b) {
    constexpr unsigned kFull = (1u << V::W) - 1u;
    const U m = monotone_key_v<V>(cost);
    const unsigned m_gt = V::gtu_mask(m, b.hi);
    const unsigned m_lt = V::gtu_mask(b.hi, m);
    const unsigned m_eq = kFull & ~(m_gt | m_lt);
    const unsigned i_le = kFull & ~V::gtu_mask(candv, b.lo);
    return m_lt | (m_eq & i_le);
  }
  /// Appends the lanes whose key (cost, cand) clears the bound.
  static std::size_t append(std::uint64_t* out, C cost, U candv, const Bound& b) {
    const unsigned k = keep(cost, candv, b);
    if (k == 0) return 0;  // the hot case once the bound bites
    return V::compress_store_keys(out, candv, monotone_key_v<V>(cost), k);
  }
};

/// U16Lane: costs widen into u32 lanes and saturate at 65535; the key
/// packs into one u32, so the bound filter is a single unsigned compare.
template <class V>
struct VLane<V, U16Lane> {
  using U = typename V::U;
  using C = U;
  using Elem = std::uint32_t;
  static C bcast(std::uint32_t c) { return V::set1(c); }
  static C load(const std::uint16_t* p) { return V::widen_load_u16(p); }
  static C load(const std::uint32_t* p) { return V::loadu(p); }
  static C gather(const std::uint32_t* t, U idx) { return V::gather_u32(t, idx); }
  static C add(C a, C b) { return V::min_u32(V::add(a, b), V::set1(65535u)); }
  static C min(C a, C b) { return V::min_u32(a, b); }
  static void store(std::uint16_t* p, C c) { V::narrow_store_u16(p, c); }
  static void store(std::uint32_t* p, C c) { V::storeu(p, c); }
  static U bits(C c) { return c; }

  struct Bound {
    U key;
    explicit Bound(std::uint32_t k) : key(V::set1(k)) {}
  };
  static unsigned keep(C cost, U candv, const Bound& b) {
    return ((1u << V::W) - 1u) & ~V::gtu_mask(V::or_(V::shl(cost, 16), candv), b.key);
  }
  static std::size_t append(std::uint32_t* out, C cost, U candv, const Bound& b) {
    const unsigned k = keep(cost, candv, b);
    if (k == 0) return 0;
    return V::compress_store_u32(out, V::or_(V::shl(cost, 16), candv), k);
  }
};

template <class V>
struct SimdOps;

/// The kernels a row-shaped kernel falls back to when a row is narrower
/// than V::W (k = 3 is 8 children: half an AVX-512 vector): the
/// half-width lane's, where the wrapper names one (V::Half), else the
/// scalar kernels. All of them are bit-identical, so the choice only
/// moves speed.
template <class V, class = void>
struct NarrowOps {
  using type = ScalarOps;
};
template <class V>
struct NarrowOps<V, std::void_t<typename V::Half>> {
  using type = SimdOps<typename V::Half>;
};

template <class V>
struct SimdOps {
  using U = typename V::U;
  using F = typename V::F;
  using Narrow = typename NarrowOps<V>::type;

  // The one-at-a-time mix is a serial ~15-op dependency chain per
  // vector; a single-vector loop is latency-bound, not throughput-bound.
  // The hot batched mixes below therefore run *four* independent chains
  // per iteration (software-pipelined: each chain's ~15 serial ops
  // overlap the other three's) — the compiler does not interleave
  // across iterations on its own, and the hash mixes dominate the fused
  // expansion kernel. Four chains ≈ the latency·throughput product of
  // the add/shift/xor units on current cores; two left them half idle.

  static void premix_n(std::uint32_t salt, const std::uint32_t* states,
                       std::size_t count, std::uint32_t* out) {
    const U seedv = V::set1(ScalarOps::oaat_seed(salt));
    std::size_t i = 0;
    for (; i + 4 * V::W <= count; i += 4 * V::W) {
      V::storeu(out + i, oaat_word_v<V>(seedv, V::loadu(states + i)));
      V::storeu(out + i + V::W, oaat_word_v<V>(seedv, V::loadu(states + i + V::W)));
      V::storeu(out + i + 2 * V::W,
                oaat_word_v<V>(seedv, V::loadu(states + i + 2 * V::W)));
      V::storeu(out + i + 3 * V::W,
                oaat_word_v<V>(seedv, V::loadu(states + i + 3 * V::W)));
    }
    for (; i + V::W <= count; i += V::W)
      V::storeu(out + i, oaat_word_v<V>(seedv, V::loadu(states + i)));
    if (i < count) ScalarOps::premix_n(salt, states + i, count - i, out + i);
  }

  static void hash_premixed_n(const std::uint32_t* premixed, std::size_t count,
                              std::uint32_t data, std::uint32_t* out) {
    const U datav = V::set1(data);
    std::size_t i = 0;
    for (; i + 4 * V::W <= count; i += 4 * V::W) {
      V::storeu(out + i, oaat_word_v<V>(V::loadu(premixed + i), datav));
      V::storeu(out + i + V::W, oaat_word_v<V>(V::loadu(premixed + i + V::W), datav));
      V::storeu(out + i + 2 * V::W,
                oaat_word_v<V>(V::loadu(premixed + i + 2 * V::W), datav));
      V::storeu(out + i + 3 * V::W,
                oaat_word_v<V>(V::loadu(premixed + i + 3 * V::W), datav));
    }
    for (; i + V::W <= count; i += V::W)
      V::storeu(out + i, oaat_word_v<V>(V::loadu(premixed + i), datav));
    if (i < count) ScalarOps::hash_premixed_n(premixed + i, count - i, data, out + i);
  }

  static void hash_n(hash::Kind kind, std::uint32_t salt, const std::uint32_t* states,
                     std::size_t count, std::uint32_t data, std::uint32_t* out) {
    std::size_t i = 0;
    switch (kind) {
      case hash::Kind::kOneAtATime: {
        const U seedv = V::set1(ScalarOps::oaat_seed(salt));
        const U datav = V::set1(data);
        for (; i + 4 * V::W <= count; i += 4 * V::W) {
          V::storeu(out + i,
                    oaat_word_v<V>(oaat_word_v<V>(seedv, V::loadu(states + i)), datav));
          V::storeu(out + i + V::W,
                    oaat_word_v<V>(oaat_word_v<V>(seedv, V::loadu(states + i + V::W)),
                                   datav));
          V::storeu(out + i + 2 * V::W,
                    oaat_word_v<V>(
                        oaat_word_v<V>(seedv, V::loadu(states + i + 2 * V::W)), datav));
          V::storeu(out + i + 3 * V::W,
                    oaat_word_v<V>(
                        oaat_word_v<V>(seedv, V::loadu(states + i + 3 * V::W)), datav));
        }
        for (; i + V::W <= count; i += V::W)
          V::storeu(out + i,
                    oaat_word_v<V>(oaat_word_v<V>(seedv, V::loadu(states + i)), datav));
        break;
      }
      case hash::Kind::kLookup3: {
        const U datav = V::set1(data);
        for (; i + V::W <= count; i += V::W)
          V::storeu(out + i, lookup3_pair_v<V>(V::loadu(states + i), datav, salt));
        break;
      }
      case hash::Kind::kSalsa20: {
        const U datav = V::set1(data);
        for (; i + V::W <= count; i += V::W)
          V::storeu(out + i, salsa20_pair_v<V>(V::loadu(states + i), datav, salt));
        break;
      }
    }
    if (i < count) ScalarOps::hash_n(kind, salt, states + i, count - i, data, out + i);
  }

  /// Child-major hash_children (out[i*fanout + v], see Backend): for
  /// wide fanouts each leaf's child row is produced with the *chunk
  /// values* in the lanes (state broadcast per leaf, v = row offset +
  /// iota), so the stores are contiguous rows; narrow fanouts (< W: a
  /// small k or a short final chunk) fall back to the Narrow kernels.
  static void hash_children(hash::Kind kind, std::uint32_t salt,
                            const std::uint32_t* states, std::size_t count,
                            std::uint32_t fanout, std::uint32_t* out) {
    // Chunk-value lane vectors, shared by every row. Decoder fanouts are
    // 2^k with k <= 8 (CodeParams), but hash_children is a public API:
    // anything narrower than a vector or wider than the vvec table takes
    // the Narrow kernel (the scalar one at the latest).
    constexpr std::uint32_t kMaxFanout = 256;
    if (fanout < V::W || fanout % V::W != 0 || fanout > kMaxFanout) {
      Narrow::hash_children(kind, salt, states, count, fanout, out);
      return;
    }
    U vvec[kMaxFanout / V::W];
    const std::uint32_t steps = fanout / static_cast<std::uint32_t>(V::W);
    for (std::uint32_t s = 0; s < steps; ++s)
      vvec[s] = V::add(V::set1(s * static_cast<std::uint32_t>(V::W)), V::iota());

    if (kind == hash::Kind::kOneAtATime) {
      // Per block: premix a batch of leaves lane-parallel, then emit each
      // leaf's child row with the premix broadcast and v in the lanes.
      // Rows of adjacent leaves are independent chains: emitting two per
      // iteration keeps the serial oaat latency off the critical path.
      constexpr std::size_t kBlock = 256;
      std::uint32_t premix[kBlock];
      for (std::size_t base = 0; base < count; base += kBlock) {
        const std::size_t rem = count - base;
        const std::size_t m = rem < kBlock ? rem : kBlock;
        premix_n(salt, states + base, m, premix);
        std::size_t i = 0;
        for (; i + 2 <= m; i += 2) {
          const U pm0 = V::set1(premix[i]);
          const U pm1 = V::set1(premix[i + 1]);
          std::uint32_t* row0 = out + (base + i) * static_cast<std::size_t>(fanout);
          std::uint32_t* row1 = row0 + fanout;
          for (std::uint32_t s = 0; s < steps; ++s) {
            V::storeu(row0 + s * V::W, oaat_word_v<V>(pm0, vvec[s]));
            V::storeu(row1 + s * V::W, oaat_word_v<V>(pm1, vvec[s]));
          }
        }
        for (; i < m; ++i) {
          const U pm = V::set1(premix[i]);
          std::uint32_t* row = out + (base + i) * static_cast<std::size_t>(fanout);
          for (std::uint32_t s = 0; s < steps; ++s)
            V::storeu(row + s * V::W, oaat_word_v<V>(pm, vvec[s]));
        }
      }
      return;
    }
    for (std::size_t i = 0; i < count; ++i) {
      const U st = V::set1(states[i]);
      std::uint32_t* row = out + i * static_cast<std::size_t>(fanout);
      if (kind == hash::Kind::kLookup3) {
        for (std::uint32_t s = 0; s < steps; ++s)
          V::storeu(row + s * V::W, lookup3_pair_v<V>(st, vvec[s], salt));
      } else {
        for (std::uint32_t s = 0; s < steps; ++s)
          V::storeu(row + s * V::W, salsa20_pair_v<V>(st, vvec[s], salt));
      }
    }
  }

  /// Fused child hash + RNG-lane derivation (see
  /// ScalarOps::hash_children_premix): one pass, child states stay in
  /// registers for the lane mix. Two leaf rows per iteration keep the
  /// serial oaat chains off the critical path.
  static void hash_children_premix(hash::Kind kind, std::uint32_t salt, bool premix,
                                   const std::uint32_t* states, std::size_t count,
                                   std::uint32_t fanout, std::uint32_t* out_states,
                                   std::uint32_t* out_lanes) {
    constexpr std::uint32_t kMaxFanout = 256;
    if (kind != hash::Kind::kOneAtATime || fanout < V::W || fanout % V::W != 0 ||
        fanout > kMaxFanout) {
      hash_children(kind, salt, states, count, fanout, out_states);
      const std::size_t total = count * static_cast<std::size_t>(fanout);
      if (kind == hash::Kind::kOneAtATime && premix) {
        premix_n(salt, out_states, total, out_lanes);
      } else {
        std::size_t i = 0;
        for (; i + V::W <= total; i += V::W)
          V::storeu(out_lanes + i, V::loadu(out_states + i));
        for (; i < total; ++i) out_lanes[i] = out_states[i];
      }
      return;
    }
    U vvec[kMaxFanout / V::W];
    const std::uint32_t steps = fanout / static_cast<std::uint32_t>(V::W);
    for (std::uint32_t s = 0; s < steps; ++s)
      vvec[s] = V::add(V::set1(s * static_cast<std::uint32_t>(V::W)), V::iota());
    const U seedv = V::set1(ScalarOps::oaat_seed(salt));

    constexpr std::size_t kBlock = 256;
    std::uint32_t pmbuf[kBlock];
    for (std::size_t base = 0; base < count; base += kBlock) {
      const std::size_t rem = count - base;
      const std::size_t m = rem < kBlock ? rem : kBlock;
      premix_n(salt, states + base, m, pmbuf);
      // Two leaf rows per iteration: the child mix feeding the lane mix
      // is one long serial chain, so parallel rows are what keep the
      // units busy.
      std::size_t i = 0;
      for (; i + 2 <= m; i += 2) {
        const U pm0 = V::set1(pmbuf[i]);
        const U pm1 = V::set1(pmbuf[i + 1]);
        const std::size_t row0 = (base + i) * static_cast<std::size_t>(fanout);
        const std::size_t row1 = row0 + fanout;
        for (std::uint32_t s = 0; s < steps; ++s) {
          const U st0 = oaat_word_v<V>(pm0, vvec[s]);
          const U st1 = oaat_word_v<V>(pm1, vvec[s]);
          V::storeu(out_states + row0 + s * V::W, st0);
          V::storeu(out_states + row1 + s * V::W, st1);
          V::storeu(out_lanes + row0 + s * V::W,
                    premix ? oaat_word_v<V>(seedv, st0) : st0);
          V::storeu(out_lanes + row1 + s * V::W,
                    premix ? oaat_word_v<V>(seedv, st1) : st1);
        }
      }
      for (; i < m; ++i) {
        const U pm = V::set1(pmbuf[i]);
        const std::size_t row = (base + i) * static_cast<std::size_t>(fanout);
        for (std::uint32_t s = 0; s < steps; ++s) {
          const U st = oaat_word_v<V>(pm, vvec[s]);
          V::storeu(out_states + row + s * V::W, st);
          V::storeu(out_lanes + row + s * V::W,
                    premix ? oaat_word_v<V>(seedv, st) : st);
        }
      }
    }
  }

  /// Fused RNG draw + AWGN l2 metric for one symbol (see
  /// ScalarOps::awgn_sweep): the hash feeds the metric expression
  /// directly, no scratch round-trip. kStore selects first-symbol store
  /// semantics (0 + x == x exactly) vs accumulate — one body, so the
  /// two paths can never drift apart. Four vectors per iteration in the
  /// hot premixed shape: the hash chain ahead of each gather is serial,
  /// so interleaved chains hide its latency.
  template <bool kStore>
  static void awgn_sweep(hash::Kind kind, std::uint32_t salt, bool premixed,
                         const std::uint32_t* lanes, std::size_t count,
                         std::uint32_t data, const float* table, std::uint32_t mask,
                         int cbits, float yr, float yi, std::uint32_t* w_scratch,
                         float* acc) {
    const U maskv = V::set1(mask);
    const F yrv = V::set1f(yr), yiv = V::set1f(yi);
    const auto metric = [&](U w) {
      const F xr = V::gather(table, V::and_(w, maskv));
      const F xi = V::gather(table, V::and_(V::shr(w, cbits), maskv));
      const F dr = V::subf(yrv, xr), di = V::subf(yiv, xi);
      return V::addf(V::mulf(dr, dr), V::mulf(di, di));
    };
    const auto emit = [&](std::size_t at, F m) {
      if constexpr (kStore)
        V::storef(acc + at, m);
      else
        V::storef(acc + at, V::addf(V::loadf(acc + at), m));
    };
    const std::size_t i = sweep_body(kind, salt, premixed, lanes, count, data, metric,
                                     emit);
    if (i < count)
      ScalarOps::awgn_sweep<kStore>(kind, salt, premixed, lanes + i, count - i, data,
                                    table, mask, cbits, yr, yi, w_scratch + i, acc + i);
  }

  /// Fused RNG draw + quantized per-dimension metric for one symbol
  /// (see ScalarOps::awgn_q_sweep), on the same interleaved hash chains
  /// as the float metric. Where the wrapper holds a 64-entry table in
  /// registers (V::Table64: AVX-512), each row widens once per call and
  /// each lookup is a register permute; rows longer than that (c > 6,
  /// which the decoder never quantizes) take the scalar kernel. Other
  /// wrappers gather each dimension. Pure integer lanes: bit-identical
  /// by construction.
  template <bool kStore>
  static void awgn_q_sweep(hash::Kind kind, std::uint32_t salt, bool premixed,
                           const std::uint32_t* lanes, std::size_t count,
                           std::uint32_t data, const std::uint16_t* row, int cbits,
                           std::uint32_t cap, std::uint32_t* w_scratch,
                           std::uint32_t* acc) {
    const std::uint32_t dim = 1u << cbits;
    const U capv = V::set1(cap);
    const auto emit = [&](std::size_t at, U m) {
      if constexpr (kStore)
        V::storeu(acc + at, m);
      else
        V::storeu(acc + at, V::add(V::loadu(acc + at), m));
    };
    // @p re and @p im take the RNG word, shifted by c for Q.
    const auto run = [&](const auto& re, const auto& im) {
      const auto metric = [&](U w) {
        return V::min_u32(V::add(re(w), im(V::shr(w, cbits))), capv);
      };
      return sweep_body(kind, salt, premixed, lanes, count, data, metric, emit);
    };
    std::size_t i = 0;
    if constexpr (requires { typename V::Table64; }) {
      if (dim <= 64) {
        const typename V::Table64 tre = V::load_table64(row, dim);
        const typename V::Table64 tim = V::load_table64(row + dim, dim);
        i = run([&](U j) { return V::lookup64(tre, j); },
                [&](U j) { return V::lookup64(tim, j); });
      }
    } else {
      const U maskv = V::set1(dim - 1u);
      i = run([&](U j) { return V::gather_u16(row, V::and_(j, maskv)); },
              [&](U j) { return V::gather_u16(row + dim, V::and_(j, maskv)); });
    }
    if (i < count)
      ScalarOps::awgn_q_sweep<kStore>(kind, salt, premixed, lanes + i, count - i, data,
                                      row, cbits, cap, w_scratch + i, acc + i);
  }

  static void awgn_csi_accum(const std::uint32_t* w, std::size_t count,
                             const float* table, std::uint32_t mask, int cbits, float yr,
                             float yi, float hr, float hi, float* acc) {
    const U maskv = V::set1(mask);
    const F yrv = V::set1f(yr), yiv = V::set1f(yi);
    const F hrv = V::set1f(hr), hiv = V::set1f(hi);
    std::size_t i = 0;
    for (; i + V::W <= count; i += V::W) {
      const U wv = V::loadu(w + i);
      const F xr = V::gather(table, V::and_(wv, maskv));
      const F xi = V::gather(table, V::and_(V::shr(wv, cbits), maskv));
      const F rr = V::subf(V::mulf(hrv, xr), V::mulf(hiv, xi));
      const F ri = V::addf(V::mulf(hrv, xi), V::mulf(hiv, xr));
      const F dr = V::subf(yrv, rr), di = V::subf(yiv, ri);
      V::storef(acc + i, V::addf(V::loadf(acc + i),
                                 V::addf(V::mulf(dr, dr), V::mulf(di, di))));
    }
    if (i < count)
      ScalarOps::awgn_csi_accum(w + i, count - i, table, mask, cbits, yr, yi, hr, hi,
                                acc + i);
  }

  static void awgn_csi_fx_accum(const std::uint32_t* w, std::size_t count,
                                const float* table, std::uint32_t mask, int cbits,
                                float yr, float yi, float hr, float hi, float fx_scale,
                                float* acc) {
    const U maskv = V::set1(mask);
    const F yrv = V::set1f(yr), yiv = V::set1f(yi);
    const F hrv = V::set1f(hr), hiv = V::set1f(hi);
    const F sv = V::set1f(fx_scale);
    std::size_t i = 0;
    for (; i + V::W <= count; i += V::W) {
      const U wv = V::loadu(w + i);
      const F xr = V::gather(table, V::and_(wv, maskv));
      const F xi = V::gather(table, V::and_(V::shr(wv, cbits), maskv));
      // fx_quantise(v, s) = nearbyintf(v*s)/s, lane-wise with the
      // current-rounding-direction round (same default nearest-even).
      const F rr =
          V::divf(V::roundf_cur(V::mulf(V::subf(V::mulf(hrv, xr), V::mulf(hiv, xi)), sv)),
                  sv);
      const F ri =
          V::divf(V::roundf_cur(V::mulf(V::addf(V::mulf(hrv, xi), V::mulf(hiv, xr)), sv)),
                  sv);
      const F dr = V::subf(yrv, rr), di = V::subf(yiv, ri);
      V::storef(acc + i, V::addf(V::loadf(acc + i),
                                 V::addf(V::mulf(dr, dr), V::mulf(di, di))));
    }
    if (i < count)
      ScalarOps::awgn_csi_fx_accum(w + i, count - i, table, mask, cbits, yr, yi, hr, hi,
                                   fx_scale, acc + i);
  }

  static void bsc_gather_bit(const std::uint32_t* w, std::size_t count, std::uint32_t j,
                             std::uint64_t* acc) {
    std::size_t i = 0;
    for (; i + V::W <= count; i += V::W) V::gather_bits(acc + i, V::loadu(w + i), j);
    if (i < count) ScalarOps::bsc_gather_bit(w + i, count - i, j, acc + i);
  }

  /// XOR + popcount per word: the scalar loop compiles to the native
  /// popcount instruction in these ISA-flagged TUs already.
  static constexpr auto bsc_hamming_add = ScalarOps::bsc_hamming_add;

  /// Streaming fused d=1 finalize+prune (see LaneKernels::d1_prune),
  /// vectorized over each leaf's contiguous child row. Per vector: cost,
  /// packed key, and the full-key bound compare; surviving lanes append
  /// through the branchless compress store, a fully-pruned vector writes
  /// nothing at all (the common case once the bound tightens). Append
  /// order is candidate order, so the output matches the scalar kernel
  /// exactly. Never inlined, for the reason ScalarOps::d1_prune gives.
  template <class Lane, class Child = typename Lane::cost_t>
  [[gnu::noinline]] static std::size_t d1_prune(const typename Lane::cost_t* parent_cost,
                              const Child* child_cost, std::size_t count,
                              std::uint32_t fanout, std::uint32_t cand_base,
                              typename Lane::key_t bound_key,
                              typename Lane::key_t* out_keys) {
    if (fanout < V::W || fanout % V::W != 0)
      return Narrow::template d1_prune<Lane, Child>(parent_cost, child_cost, count,
                                                    fanout, cand_base, bound_key, out_keys);
    using VL = VLane<V, Lane>;
    const typename VL::Bound bound(bound_key);
    const U iota = V::iota();
    std::size_t sc = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const auto pc = parent_cost[i];
      if (Lane::key(pc, 0) > bound_key) continue;  // children cost >= pc
      const typename VL::C pcv = VL::bcast(pc);
      const std::size_t row = i * static_cast<std::size_t>(fanout);
      for (std::uint32_t v = 0; v < fanout; v += static_cast<std::uint32_t>(V::W)) {
        const std::size_t idx = row + v;
        const typename VL::C cost = VL::add(pcv, VL::load(child_cost + idx));
        const U candv = V::add(V::set1(cand_base + static_cast<std::uint32_t>(idx)), iota);
        sc += VL::append(out_keys + sc, cost, candv, bound);
      }
    }
    return sc;
  }

  /// Partial-cost survivor compression (see ScalarOps::partial_compress):
  /// acc, lanes and the survivor index list compress through the same
  /// per-vector mask. In-place safe: the write cursor never passes the
  /// read cursor, and the blind compress stores stay below the next
  /// unread vector.
  template <class Lane>
  static std::size_t partial_compress(const typename Lane::cost_t* parent_cost,
                                      typename Lane::acc_t* acc, std::size_t count,
                                      std::uint32_t fanout, PruneFloors floors,
                                      typename Lane::key_t bound_key,
                                      std::uint32_t* lanes, std::uint32_t* idx_out) {
    // The in-place compress only pays with the branchless whole-vector
    // store (which also moves float acc lanes as their bit patterns);
    // narrow ISAs take the scalar path.
    if constexpr (!V::kFastCompress)
      return ScalarOps::partial_compress<Lane>(parent_cost, acc, count, fanout, floors,
                                               bound_key, lanes, idx_out);
    else if (fanout < V::W || fanout % V::W != 0)
      return Narrow::template partial_compress<Lane>(parent_cost, acc, count, fanout,
                                                     floors, bound_key, lanes, idx_out);
    using VL = VLane<V, Lane>;
    const typename VL::Bound bound(bound_key);
    const U iota = V::iota();
    std::uint32_t* const acc_u = reinterpret_cast<std::uint32_t*>(acc);
    std::size_t n = 0;
    for (std::size_t i = 0; i < count; ++i) {
      typename Lane::acc_t base;
      if (!ScalarOps::partial_base<Lane>(parent_cost[i], floors, bound_key, base))
        continue;
      const typename VL::C basev = VL::bcast(base);
      const std::size_t row = i * static_cast<std::size_t>(fanout);
      for (std::uint32_t v = 0; v < fanout; v += static_cast<std::uint32_t>(V::W)) {
        const std::size_t c = row + v;
        const typename VL::C a = VL::load(acc + c);
        const U iv = V::add(V::set1(static_cast<std::uint32_t>(c)), iota);
        const unsigned keep = VL::keep(VL::add(basev, a), iv, bound);
        if (keep == 0) continue;
        const U lv = V::loadu(lanes + c);
        V::compress_store_u32(acc_u + n, VL::bits(a), keep);
        V::compress_store_u32(lanes + n, lv, keep);
        n += V::compress_store_u32(idx_out + n, iv, keep);
      }
    }
    return n;
  }

  /// Final key build over the compressed survivor lanes (see
  /// ScalarOps::final_prune), with the parent costs gathered by child
  /// index.
  template <class Lane>
  static std::size_t final_prune(const typename Lane::acc_t* parent,
                                 const typename Lane::acc_t* acc,
                                 const std::uint32_t* idx, std::size_t n,
                                 int log2_fanout, std::uint32_t cand_base,
                                 typename Lane::key_t bound_key,
                                 typename Lane::key_t* out_keys) {
    using VL = VLane<V, Lane>;
    const typename VL::Bound bound(bound_key);
    const U basev = V::set1(cand_base);
    std::size_t sc = 0;
    std::size_t j = 0;
    for (; j + V::W <= n; j += V::W) {
      const U idxv = V::loadu(idx + j);
      const typename VL::C pc = VL::gather(parent, V::shr(idxv, log2_fanout));
      sc += VL::append(out_keys + sc, VL::add(pc, VL::load(acc + j)),
                       V::add(basev, idxv), bound);
    }
    if (j < n)
      sc += ScalarOps::final_prune<Lane>(parent, acc + j, idx + j, n - j, log2_fanout,
                                         cand_base, bound_key, out_keys + sc);
    return sc;
  }

  /// Per-leaf row minima folded with the parent cost (see
  /// LaneKernels::row_mins): vector fold over the row, then a scalar
  /// reduce of the fold buffer — exact, because min is order-free on
  /// inputs without -0 (the kernel precondition).
  template <class Lane>
  static void row_mins(const typename Lane::cost_t* leaf_cost,
                       const typename Lane::cost_t* child_cost, std::size_t leaves,
                       std::uint32_t fanout, typename Lane::cost_t* out) {
    if (fanout < V::W || fanout % V::W != 0) {
      Narrow::template row_mins<Lane>(leaf_cost, child_cost, leaves, fanout, out);
      return;
    }
    using VL = VLane<V, Lane>;
    for (std::size_t i = 0; i < leaves; ++i) {
      const std::size_t row = i * static_cast<std::size_t>(fanout);
      typename VL::C acc = VL::load(child_cost + row);
      for (std::uint32_t v = static_cast<std::uint32_t>(V::W); v < fanout;
           v += static_cast<std::uint32_t>(V::W))
        acc = VL::min(acc, VL::load(child_cost + row + v));
      typename VL::Elem buf[V::W];
      VL::store(buf, acc);
      typename VL::Elem m = buf[0];
      for (unsigned l = 1; l < V::W; ++l)
        if (buf[l] < m) m = buf[l];
      out[i] = static_cast<typename Lane::cost_t>(Lane::add(leaf_cost[i], m));
    }
  }

  /// Survivor-group row emit (see LaneKernels::regroup_emit): whole
  /// child rows move contiguously (every child of a leaf shares its
  /// group), so the copy + cost finalize + path extension all vectorize
  /// over the row; pruned groups skip without touching memory.
  template <class Lane>
  static void regroup_emit(const std::uint32_t* child_state,
                           const typename Lane::cost_t* child_cost,
                           const typename Lane::cost_t* leaf_cost,
                           const std::uint32_t* leaf_path, std::size_t leaves,
                           std::uint32_t fanout, int k, int d, std::uint32_t group_mask,
                           const std::int32_t* group_rowbase, std::uint32_t* out_state,
                           typename Lane::cost_t* out_cost, std::uint32_t* out_path) {
    constexpr std::uint32_t kMaxFanout = 256;
    if (fanout < V::W || fanout % V::W != 0 || fanout > kMaxFanout ||
        group_mask >= 256) {
      Narrow::template regroup_emit<Lane>(child_state, child_cost, leaf_cost, leaf_path,
                                          leaves, fanout, k, d, group_mask,
                                          group_rowbase, out_state, out_cost, out_path);
      return;
    }
    using VL = VLane<V, Lane>;
    const int shift = k * (d - 2);
    U vvec[kMaxFanout / V::W];  // v << shift, per vector step
    const std::uint32_t steps = fanout / static_cast<std::uint32_t>(V::W);
    for (std::uint32_t s = 0; s < steps; ++s)
      vvec[s] = V::shl(V::add(V::set1(s * static_cast<std::uint32_t>(V::W)), V::iota()),
                       shift);
    std::uint32_t next[256];
    for (std::uint32_t g = 0; g <= group_mask; ++g)
      next[g] = group_rowbase[g] < 0 ? 0 : static_cast<std::uint32_t>(group_rowbase[g]);
    for (std::size_t i = 0; i < leaves; ++i) {
      const std::uint32_t g = leaf_path[i] & group_mask;
      if (group_rowbase[g] < 0) continue;
      const typename VL::C pcv = VL::bcast(leaf_cost[i]);
      const U pbase = V::set1(leaf_path[i] >> k);
      const std::size_t src = i * static_cast<std::size_t>(fanout);
      const std::size_t dst = next[g];
      next[g] += fanout;
      for (std::uint32_t s = 0; s < steps; ++s) {
        const std::size_t o = s * V::W;
        V::storeu(out_state + dst + o, V::loadu(child_state + src + o));
        VL::store(out_cost + dst + o, VL::add(pcv, VL::load(child_cost + src + o)));
        V::storeu(out_path + dst + o, V::or_(pbase, vvec[s]));
      }
    }
  }

  /// The packed-key select (LaneKernels::tighten and select): the
  /// sampled threshold and the sorting network of simd_select.h.
  template <class Lane>
  static constexpr auto tighten = &KeySelect<V, Lane>::tighten;
  template <class Lane>
  static constexpr auto select = &KeySelect<V, Lane>::select;

  /// Dense GF(2) row combine, dst ^= src over 64-bit words. XOR is exact
  /// in any lane width, so this is bit-identical to the scalar kernel by
  /// construction. The vector body reinterprets the u64 words as V::W
  /// uint32 lanes only at the load/store boundary (one vector covers
  /// V::W / 2 words); the tail stays on plain u64 scalar ops.
  static void xor_rows(std::uint64_t* dst, const std::uint64_t* src,
                       std::size_t words) {
    constexpr std::size_t kStep = V::W / 2;  // u64 words per vector
    std::size_t w = 0;
    for (; w + kStep <= words; w += kStep) {
      std::uint32_t* d = reinterpret_cast<std::uint32_t*>(dst + w);
      const std::uint32_t* s = reinterpret_cast<const std::uint32_t*>(src + w);
      V::storeu(d, V::xor_(V::loadu(d), V::loadu(s)));
    }
    for (; w < words; ++w) dst[w] ^= src[w];
  }

 private:
  /// The vector body both metric sweeps share: the RNG word of every
  /// whole vector of lanes fed straight into @p metric and @p emit.
  /// Four vectors per iteration in the hot premixed shape, one at a
  /// time otherwise. Returns where the scalar tail starts.
  template <class Metric, class Emit>
  static std::size_t sweep_body(hash::Kind kind, std::uint32_t salt, bool premixed,
                                const std::uint32_t* lanes, std::size_t count,
                                std::uint32_t data, const Metric& metric,
                                const Emit& emit) {
    const U datav = V::set1(data);
    const U seedv = V::set1(ScalarOps::oaat_seed(salt));
    std::size_t i = 0;
    if (premixed) {
      for (; i + 4 * V::W <= count; i += 4 * V::W) {
        const U w0 = oaat_word_v<V>(V::loadu(lanes + i), datav);
        const U w1 = oaat_word_v<V>(V::loadu(lanes + i + V::W), datav);
        const U w2 = oaat_word_v<V>(V::loadu(lanes + i + 2 * V::W), datav);
        const U w3 = oaat_word_v<V>(V::loadu(lanes + i + 3 * V::W), datav);
        emit(i, metric(w0));
        emit(i + V::W, metric(w1));
        emit(i + 2 * V::W, metric(w2));
        emit(i + 3 * V::W, metric(w3));
      }
    }
    for (; i + V::W <= count; i += V::W)
      emit(i, metric(rng_word_v<V>(kind, salt, premixed, V::loadu(lanes + i), seedv,
                                   datav)));
    return i;
  }
};

}  // namespace
}  // namespace spinal::backend::simd
