#pragma once
// Generic SIMD kernels over a vector-of-uint32 abstraction V (see
// vec_x86.h / vec_neon.h for the wrappers). Each kernel runs the main
// loop V::W lanes at a time and finishes the count % W tail with the
// scalar primitive on offset pointers — elementwise kernels make the
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
// Everything here is `static` (internal linkage) and only ever
// instantiated inside the one TU compiled with the matching ISA flags.

#include <cstddef>
#include <cstdint>

#include "backend/scalar_kernels.h"

namespace spinal::backend::simd {

template <class V>
static inline typename V::U rotl_v(typename V::U x, int r) {
  return V::or_(V::shl(x, r), V::shr(x, 32 - r));
}

/// One-at-a-time over one 32-bit word (see hash::one_at_a_time_word).
template <class V>
static inline typename V::U oaat_word_v(typename V::U h, typename V::U word) {
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
static inline void final_mix_v(typename V::U& a, typename V::U& b, typename V::U& c) {
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
static inline typename V::U lookup3_pair_v(typename V::U state, typename V::U data,
                                           std::uint32_t salt) {
  const std::uint32_t init = 0xdeadbeefu + (2u << 2) + salt;
  typename V::U a = V::add(V::set1(init), state);
  typename V::U b = V::add(V::set1(init), data);
  typename V::U c = V::set1(init);
  final_mix_v<V>(a, b, c);
  return c;
}

template <class V>
static inline void salsa_quarter_v(typename V::U& a, typename V::U& b,
                                   typename V::U& c, typename V::U& d) {
  b = V::xor_(b, rotl_v<V>(V::add(a, d), 7));
  c = V::xor_(c, rotl_v<V>(V::add(b, a), 9));
  d = V::xor_(d, rotl_v<V>(V::add(c, b), 13));
  a = V::xor_(a, rotl_v<V>(V::add(d, c), 18));
}

/// Salsa20/20 core on a (state, data, salt) block per lane; returns
/// out[0] ^ out[8] (see salsa20.cpp salsa20_pair). Both state and data
/// are lane vectors (either may be a broadcast).
template <class V>
static inline typename V::U salsa20_pair_v(typename V::U state, typename V::U data,
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

// ------------------------------------------------------------- kernels

// The one-at-a-time mix is a serial ~15-op dependency chain per vector;
// a single-vector loop is latency-bound, not throughput-bound. The hot
// batched mixes below therefore run *four* independent chains per
// iteration (software-pipelined: each chain's ~15 serial ops overlap
// the other three's) — the compiler does not interleave across
// iterations on its own, and the hash mixes dominate the fused
// expansion kernel. Four chains ≈ the latency·throughput product of
// the add/shift/xor units on current cores; two left them half idle.

template <class V>
static void premix_n_v(std::uint32_t salt, const std::uint32_t* states,
                       std::size_t count, std::uint32_t* out) {
  const typename V::U seedv = V::set1(scalar::oaat_seed(salt));
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
  if (i < count) scalar::premix_n(salt, states + i, count - i, out + i);
}

template <class V>
static void hash_premixed_n_v(const std::uint32_t* premixed, std::size_t count,
                              std::uint32_t data, std::uint32_t* out) {
  const typename V::U datav = V::set1(data);
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
  if (i < count) scalar::hash_premixed_n(premixed + i, count - i, data, out + i);
}

template <class V>
static void hash_n_v(hash::Kind kind, std::uint32_t salt, const std::uint32_t* states,
                     std::size_t count, std::uint32_t data, std::uint32_t* out) {
  std::size_t i = 0;
  switch (kind) {
    case hash::Kind::kOneAtATime: {
      const typename V::U seedv = V::set1(scalar::oaat_seed(salt));
      const typename V::U datav = V::set1(data);
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
      const typename V::U datav = V::set1(data);
      for (; i + V::W <= count; i += V::W)
        V::storeu(out + i, lookup3_pair_v<V>(V::loadu(states + i), datav, salt));
      break;
    }
    case hash::Kind::kSalsa20: {
      const typename V::U datav = V::set1(data);
      for (; i + V::W <= count; i += V::W)
        V::storeu(out + i, salsa20_pair_v<V>(V::loadu(states + i), datav, salt));
      break;
    }
  }
  if (i < count) scalar::hash_n(kind, salt, states + i, count - i, data, out + i);
}

/// Child-major hash_children (out[i*fanout + v], see Backend): for wide
/// fanouts each leaf's child row is produced with the *chunk values* in
/// the lanes (state broadcast per leaf, v = row offset + iota), so the
/// stores are contiguous rows; narrow fanouts (< W: k <= 2 or a short
/// final chunk) fall back to the scalar kernel.
template <class V>
static void hash_children_v(hash::Kind kind, std::uint32_t salt,
                            const std::uint32_t* states, std::size_t count,
                            std::uint32_t fanout, std::uint32_t* out) {
  // Chunk-value lane vectors, shared by every row. Decoder fanouts are
  // 2^k with k <= 8 (CodeParams), but hash_children is a public API:
  // anything narrower than a vector or wider than the vvec table takes
  // the (always-correct) scalar kernel.
  constexpr std::uint32_t kMaxFanout = 256;
  if (fanout < V::W || fanout % V::W != 0 || fanout > kMaxFanout) {
    scalar::hash_children(kind, salt, states, count, fanout, out);
    return;
  }
  typename V::U vvec[kMaxFanout / V::W];
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
      premix_n_v<V>(salt, states + base, m, premix);
      std::size_t i = 0;
      for (; i + 2 <= m; i += 2) {
        const typename V::U pm0 = V::set1(premix[i]);
        const typename V::U pm1 = V::set1(premix[i + 1]);
        std::uint32_t* row0 = out + (base + i) * static_cast<std::size_t>(fanout);
        std::uint32_t* row1 = row0 + fanout;
        for (std::uint32_t s = 0; s < steps; ++s) {
          V::storeu(row0 + s * V::W, oaat_word_v<V>(pm0, vvec[s]));
          V::storeu(row1 + s * V::W, oaat_word_v<V>(pm1, vvec[s]));
        }
      }
      for (; i < m; ++i) {
        const typename V::U pm = V::set1(premix[i]);
        std::uint32_t* row = out + (base + i) * static_cast<std::size_t>(fanout);
        for (std::uint32_t s = 0; s < steps; ++s)
          V::storeu(row + s * V::W, oaat_word_v<V>(pm, vvec[s]));
      }
    }
    return;
  }
  for (std::size_t i = 0; i < count; ++i) {
    const typename V::U st = V::set1(states[i]);
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
/// scalar::hash_children_premix): one pass, child states stay in
/// registers for the lane mix. Two leaf rows per iteration keep the
/// serial oaat chains off the critical path.
template <class V>
static void hash_children_premix_v(hash::Kind kind, std::uint32_t salt, bool premix,
                                   const std::uint32_t* states, std::size_t count,
                                   std::uint32_t fanout, std::uint32_t* out_states,
                                   std::uint32_t* out_lanes) {
  constexpr std::uint32_t kMaxFanout = 256;
  if (kind != hash::Kind::kOneAtATime || fanout < V::W || fanout % V::W != 0 ||
      fanout > kMaxFanout) {
    hash_children_v<V>(kind, salt, states, count, fanout, out_states);
    if (kind == hash::Kind::kOneAtATime && premix) {
      premix_n_v<V>(salt, out_states,
                    count * static_cast<std::size_t>(fanout), out_lanes);
    } else {
      const std::size_t total = count * static_cast<std::size_t>(fanout);
      std::size_t i = 0;
      for (; i + V::W <= total; i += V::W)
        V::storeu(out_lanes + i, V::loadu(out_states + i));
      for (; i < total; ++i) out_lanes[i] = out_states[i];
    }
    return;
  }
  typename V::U vvec[kMaxFanout / V::W];
  const std::uint32_t steps = fanout / static_cast<std::uint32_t>(V::W);
  for (std::uint32_t s = 0; s < steps; ++s)
    vvec[s] = V::add(V::set1(s * static_cast<std::uint32_t>(V::W)), V::iota());
  const typename V::U seedv = V::set1(scalar::oaat_seed(salt));

  constexpr std::size_t kBlock = 256;
  std::uint32_t pmbuf[kBlock];
  for (std::size_t base = 0; base < count; base += kBlock) {
    const std::size_t rem = count - base;
    const std::size_t m = rem < kBlock ? rem : kBlock;
    premix_n_v<V>(salt, states + base, m, pmbuf);
    // Two leaf rows per iteration: the child mix feeding the lane mix
    // is one long serial chain, so parallel rows are what keep the
    // units busy.
    std::size_t i = 0;
    for (; i + 2 <= m; i += 2) {
      const typename V::U pm0 = V::set1(pmbuf[i]);
      const typename V::U pm1 = V::set1(pmbuf[i + 1]);
      const std::size_t row0 = (base + i) * static_cast<std::size_t>(fanout);
      const std::size_t row1 = row0 + fanout;
      for (std::uint32_t s = 0; s < steps; ++s) {
        const typename V::U st0 = oaat_word_v<V>(pm0, vvec[s]);
        const typename V::U st1 = oaat_word_v<V>(pm1, vvec[s]);
        V::storeu(out_states + row0 + s * V::W, st0);
        V::storeu(out_states + row1 + s * V::W, st1);
        V::storeu(out_lanes + row0 + s * V::W,
                  premix ? oaat_word_v<V>(seedv, st0) : st0);
        V::storeu(out_lanes + row1 + s * V::W,
                  premix ? oaat_word_v<V>(seedv, st1) : st1);
      }
    }
    for (; i < m; ++i) {
      const typename V::U pm = V::set1(pmbuf[i]);
      const std::size_t row = (base + i) * static_cast<std::size_t>(fanout);
      for (std::uint32_t s = 0; s < steps; ++s) {
        const typename V::U st = oaat_word_v<V>(pm, vvec[s]);
        V::storeu(out_states + row + s * V::W, st);
        V::storeu(out_lanes + row + s * V::W,
                  premix ? oaat_word_v<V>(seedv, st) : st);
      }
    }
  }
}

/// Fused RNG draw + AWGN l2 metric for one symbol (see
/// scalar::awgn_sweep): the hash feeds the metric expression directly,
/// no scratch round-trip. kStore selects first-symbol store semantics
/// (0 + x == x exactly) vs accumulate — one body, so the two paths can
/// never drift apart. Two vectors per iteration in the hot premixed
/// shape: the hash chain ahead of each gather is serial, so paired
/// chains hide its latency.
template <class V, bool kStore>
static void awgn_sweep_impl_v(hash::Kind kind, std::uint32_t salt, bool premixed,
                              const std::uint32_t* lanes, std::size_t count,
                              std::uint32_t data, const float* table,
                              std::uint32_t mask, int cbits, float yr, float yi,
                              std::uint32_t* w_scratch, float* acc) {
  const typename V::U datav = V::set1(data);
  const typename V::U maskv = V::set1(mask);
  const typename V::F yrv = V::set1f(yr), yiv = V::set1f(yi);
  const typename V::U seedv = V::set1(scalar::oaat_seed(salt));
  const auto metric = [&](typename V::U w) {
    const typename V::F xr = V::gather(table, V::and_(w, maskv));
    const typename V::F xi = V::gather(table, V::and_(V::shr(w, cbits), maskv));
    const typename V::F dr = V::subf(yrv, xr), di = V::subf(yiv, xi);
    return V::addf(V::mulf(dr, dr), V::mulf(di, di));
  };
  const auto emit = [&](std::size_t at, typename V::F m) {
    if constexpr (kStore)
      V::storef(acc + at, m);
    else
      V::storef(acc + at, V::addf(V::loadf(acc + at), m));
  };
  std::size_t i = 0;
  if (premixed) {
    for (; i + 4 * V::W <= count; i += 4 * V::W) {
      const typename V::U w0 = oaat_word_v<V>(V::loadu(lanes + i), datav);
      const typename V::U w1 = oaat_word_v<V>(V::loadu(lanes + i + V::W), datav);
      const typename V::U w2 = oaat_word_v<V>(V::loadu(lanes + i + 2 * V::W), datav);
      const typename V::U w3 = oaat_word_v<V>(V::loadu(lanes + i + 3 * V::W), datav);
      emit(i, metric(w0));
      emit(i + V::W, metric(w1));
      emit(i + 2 * V::W, metric(w2));
      emit(i + 3 * V::W, metric(w3));
    }
  }
  for (; i + V::W <= count; i += V::W) {
    typename V::U w;
    if (premixed)
      w = oaat_word_v<V>(V::loadu(lanes + i), datav);
    else if (kind == hash::Kind::kOneAtATime)
      w = oaat_word_v<V>(oaat_word_v<V>(seedv, V::loadu(lanes + i)), datav);
    else if (kind == hash::Kind::kLookup3)
      w = lookup3_pair_v<V>(V::loadu(lanes + i), datav, salt);
    else
      w = salsa20_pair_v<V>(V::loadu(lanes + i), datav, salt);
    emit(i, metric(w));
  }
  if (i < count) {
    if constexpr (kStore)
      scalar::awgn_sweep0(kind, salt, premixed, lanes + i, count - i, data, table,
                          mask, cbits, yr, yi, w_scratch + i, acc + i);
    else
      scalar::awgn_sweep(kind, salt, premixed, lanes + i, count - i, data, table,
                         mask, cbits, yr, yi, w_scratch + i, acc + i);
  }
}

template <class V>
static void awgn_sweep_v(hash::Kind kind, std::uint32_t salt, bool premixed,
                         const std::uint32_t* lanes, std::size_t count,
                         std::uint32_t data, const float* table, std::uint32_t mask,
                         int cbits, float yr, float yi, std::uint32_t* w_scratch,
                         float* acc) {
  awgn_sweep_impl_v<V, false>(kind, salt, premixed, lanes, count, data, table, mask,
                              cbits, yr, yi, w_scratch, acc);
}

template <class V>
static void awgn_sweep0_v(hash::Kind kind, std::uint32_t salt, bool premixed,
                          const std::uint32_t* lanes, std::size_t count,
                          std::uint32_t data, const float* table, std::uint32_t mask,
                          int cbits, float yr, float yi, std::uint32_t* w_scratch,
                          float* acc) {
  awgn_sweep_impl_v<V, true>(kind, salt, premixed, lanes, count, data, table, mask,
                             cbits, yr, yi, w_scratch, acc);
}

/// Branchless lane form of monotone_key (backend.h): b ^ (b>>31 | sign).
template <class V>
static inline typename V::U monotone_key_v(typename V::F costs) {
  const typename V::U b = V::castfu(costs);
  return V::xor_(b, V::or_(V::sar(b, 31), V::set1(0x80000000u)));
}

/// Per-vector survivors of the full-key bound: lane l survives when
/// (m[l] << 32 | idx[l]) <= bound_key, i.e. cost word below the bound's,
/// or equal with the index tie-break in its favour.
template <class V>
static inline unsigned keep_mask_v(typename V::U m, typename V::U idxv,
                                   typename V::U bhi, typename V::U blo,
                                   unsigned full) {
  const unsigned m_gt = V::gtu_mask(m, bhi);
  const unsigned m_lt = V::gtu_mask(bhi, m);
  const unsigned m_eq = full & ~(m_gt | m_lt);
  const unsigned i_le = full & ~V::gtu_mask(idxv, blo);
  return m_lt | (m_eq & i_le);
}

/// Vector view of one cost lane: the per-vector cost type C, the loads
/// that bring a child-cost word into it, the lane add, and the packed
/// key bound filter + compress-store append. The prune/regroup kernels
/// below are written once against this interface.
template <class V, class Lane>
struct VLane;

/// F32Lane: float lanes; the u64 key splits into a monotone cost word
/// and the candidate word, compared against the bound's two halves.
template <class V>
struct VLane<V, F32Lane> {
  using C = typename V::F;
  using Elem = float;  ///< one lane of C in memory
  static C bcast(float c) { return V::set1f(c); }
  static C load(const float* p) { return V::loadf(p); }
  static C add(C a, C b) { return V::addf(a, b); }
  static C min(C a, C b) { return V::minf(a, b); }
  static void store(float* p, C c) { V::storef(p, c); }

  struct Bound {
    typename V::U hi, lo;
    explicit Bound(std::uint64_t key)
        : hi(V::set1(static_cast<std::uint32_t>(key >> 32))),
          lo(V::set1(static_cast<std::uint32_t>(key))) {}
  };
  /// Appends the lanes whose key (cost, cand) clears the bound.
  static std::size_t append(std::uint64_t* out, C cost, typename V::U candv,
                            const Bound& b) {
    const typename V::U m = monotone_key_v<V>(cost);
    const unsigned keep = keep_mask_v<V>(m, candv, b.hi, b.lo, (1u << V::W) - 1u);
    if (keep == 0) return 0;  // the hot case once the bound bites
    return V::compress_store_keys(out, candv, m, keep);
  }
};

/// U16Lane: costs widen into u32 lanes and saturate at 65535; the key
/// packs into one u32, so the bound filter is a single unsigned compare.
template <class V>
struct VLane<V, U16Lane> {
  using C = typename V::U;
  using Elem = std::uint32_t;
  static C bcast(std::uint32_t c) { return V::set1(c); }
  static C load(const std::uint16_t* p) { return V::widen_load_u16(p); }
  static C load(const std::uint32_t* p) { return V::loadu(p); }
  static C add(C a, C b) { return V::min_u32(V::add(a, b), V::set1(65535u)); }
  static C min(C a, C b) { return V::min_u32(a, b); }
  static void store(std::uint16_t* p, C c) { V::narrow_store_u16(p, c); }
  static void store(std::uint32_t* p, C c) { V::storeu(p, c); }

  struct Bound {
    typename V::U key;
    explicit Bound(std::uint32_t k) : key(V::set1(k)) {}
  };
  static std::size_t append(std::uint32_t* out, C cost, typename V::U candv,
                            const Bound& b) {
    const typename V::U key = V::or_(V::shl(cost, 16), candv);
    const unsigned keep = ((1u << V::W) - 1u) & ~V::gtu_mask(key, b.key);
    if (keep == 0) return 0;
    return V::compress_store_u32(out, key, keep);
  }
};

/// Streaming fused d=1 finalize+prune (see LaneKernels::d1_prune),
/// vectorized over each leaf's contiguous child row. Per vector: cost,
/// packed key, and the full-key bound compare; surviving lanes append
/// through the branchless compress store, a fully-pruned vector writes
/// nothing at all (the common case once the bound tightens). Append
/// order is candidate order, so the output matches the scalar kernel
/// exactly.
template <class V, class Lane, class Child = typename Lane::cost_t>
static std::size_t d1_prune_v(const typename Lane::cost_t* parent_cost,
                              const Child* child_cost, std::size_t count,
                              std::uint32_t fanout, std::uint32_t cand_base,
                              typename Lane::key_t bound_key,
                              typename Lane::key_t* out_keys) {
  if (fanout < V::W || fanout % V::W != 0)
    return scalar::d1_prune<Lane, Child>(parent_cost, child_cost, count, fanout,
                                         cand_base, bound_key, out_keys);
  using VL = VLane<V, Lane>;
  const typename VL::Bound bound(bound_key);
  const typename V::U iota = V::iota();
  std::size_t sc = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const auto pc = parent_cost[i];
    if (Lane::key(pc, 0) > bound_key) continue;  // children cost >= pc
    const typename VL::C pcv = VL::bcast(pc);
    const std::size_t row = i * static_cast<std::size_t>(fanout);
    for (std::uint32_t v = 0; v < fanout; v += static_cast<std::uint32_t>(V::W)) {
      const std::size_t idx = row + v;
      const typename VL::C cost = VL::add(pcv, VL::load(child_cost + idx));
      const typename V::U candv =
          V::add(V::set1(cand_base + static_cast<std::uint32_t>(idx)), iota);
      sc += VL::append(out_keys + sc, cost, candv, bound);
    }
  }
  return sc;
}

/// Partial-cost survivor compression (see scalar::partial_compress):
/// acc, lanes and the survivor index list compress through the same
/// per-vector mask. In-place safe: the write cursor never passes the
/// read cursor, and the blind compress stores stay below the next
/// unread vector.
template <class V>
static std::size_t partial_compress_v(const float* parent_cost, float* acc,
                                      std::size_t count, std::uint32_t fanout,
                                      std::uint64_t bound_key, std::uint32_t* lanes,
                                      std::uint32_t* idx_out) {
  // The in-place float compress needs the branchless whole-vector
  // store (writing acc lane patterns through plain uint32 stores would
  // alias float storage); narrow ISAs take the scalar path.
  if constexpr (!V::kFastCompress)
    return scalar::partial_compress(parent_cost, acc, count, fanout, bound_key, lanes,
                                    idx_out);
  else if (fanout < V::W || fanout % V::W != 0)
    return scalar::partial_compress(parent_cost, acc, count, fanout, bound_key, lanes,
                                    idx_out);
  constexpr unsigned kFull = (1u << V::W) - 1u;
  const typename V::U bhi = V::set1(static_cast<std::uint32_t>(bound_key >> 32));
  const typename V::U blo = V::set1(static_cast<std::uint32_t>(bound_key));
  const typename V::U iota = V::iota();
  std::uint32_t* const acc_u = reinterpret_cast<std::uint32_t*>(acc);
  std::size_t n = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const float pc = parent_cost[i];
    if ((static_cast<std::uint64_t>(monotone_key(pc)) << 32) > bound_key)
      continue;  // costs only grow
    const typename V::F pcv = V::set1f(pc);
    const std::size_t row = i * static_cast<std::size_t>(fanout);
    for (std::uint32_t v = 0; v < fanout; v += static_cast<std::uint32_t>(V::W)) {
      const std::size_t c = row + v;
      const typename V::F a = V::loadf(acc + c);
      const typename V::U m = monotone_key_v<V>(V::addf(pcv, a));
      const typename V::U iv = V::add(V::set1(static_cast<std::uint32_t>(c)), iota);
      const unsigned keep = keep_mask_v<V>(m, iv, bhi, blo, kFull);
      if (keep == 0) continue;
      const typename V::U lv = V::loadu(lanes + c);
      V::compress_store_u32(acc_u + n, V::castfu(a), keep);
      V::compress_store_u32(lanes + n, lv, keep);
      n += V::compress_store_u32(idx_out + n, iv, keep);
    }
  }
  return n;
}

/// Final key build over the compressed survivor lanes (see
/// scalar::final_prune), with the parent costs gathered by child index.
template <class V>
static std::size_t final_prune_v(const float* parent_cost, const float* acc,
                                 const std::uint32_t* idx, std::size_t n,
                                 int log2_fanout, std::uint32_t cand_base,
                                 std::uint64_t bound_key, std::uint64_t* out_keys) {
  constexpr unsigned kFull = (1u << V::W) - 1u;
  const typename V::U bhi = V::set1(static_cast<std::uint32_t>(bound_key >> 32));
  const typename V::U blo = V::set1(static_cast<std::uint32_t>(bound_key));
  const typename V::U basev = V::set1(cand_base);
  std::size_t sc = 0;
  std::size_t j = 0;
  for (; j + V::W <= n; j += V::W) {
    const typename V::U idxv = V::loadu(idx + j);
    const typename V::F pc = V::gather(parent_cost, V::shr(idxv, log2_fanout));
    const typename V::U m = monotone_key_v<V>(V::addf(pc, V::loadf(acc + j)));
    const typename V::U candv = V::add(basev, idxv);
    const unsigned keep = keep_mask_v<V>(m, candv, bhi, blo, kFull);
    if (keep == 0) continue;
    sc += V::compress_store_keys(out_keys + sc, candv, m, keep);
  }
  if (j < n)
    sc += scalar::final_prune(parent_cost, acc + j, idx + j, n - j, log2_fanout,
                              cand_base, bound_key, out_keys + sc);
  return sc;
}

/// Per-leaf row minima folded with the parent cost (see
/// LaneKernels::row_mins): vector fold over the row, then a scalar
/// reduce of the fold buffer — exact, because min is order-free on
/// inputs without -0 (the kernel precondition).
template <class V, class Lane>
static void row_mins_v(const typename Lane::cost_t* leaf_cost,
                       const typename Lane::cost_t* child_cost, std::size_t leaves,
                       std::uint32_t fanout, typename Lane::cost_t* out) {
  if (fanout < V::W || fanout % V::W != 0) {
    scalar::row_mins<Lane>(leaf_cost, child_cost, leaves, fanout, out);
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

/// Survivor-group row emit (see LaneKernels::regroup_emit): whole child
/// rows move contiguously (every child of a leaf shares its group), so
/// the copy + cost finalize + path extension all vectorize over the
/// row; pruned groups skip without touching memory.
template <class V, class Lane>
static void regroup_emit_v(const std::uint32_t* child_state,
                           const typename Lane::cost_t* child_cost,
                           const typename Lane::cost_t* leaf_cost,
                           const std::uint32_t* leaf_path, std::size_t leaves,
                           std::uint32_t fanout, int k, int d, std::uint32_t group_mask,
                           const std::int32_t* group_rowbase, std::uint32_t* out_state,
                           typename Lane::cost_t* out_cost, std::uint32_t* out_path) {
  constexpr std::uint32_t kMaxFanout = 256;
  if (fanout < V::W || fanout % V::W != 0 || fanout > kMaxFanout || group_mask >= 256) {
    scalar::regroup_emit<Lane>(child_state, child_cost, leaf_cost, leaf_path, leaves,
                               fanout, k, d, group_mask, group_rowbase, out_state,
                               out_cost, out_path);
    return;
  }
  using VL = VLane<V, Lane>;
  const int shift = k * (d - 2);
  typename V::U vvec[kMaxFanout / V::W];  // v << shift, per vector step
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
    const typename V::U pbase = V::set1(leaf_path[i] >> k);
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

template <class V>
static void awgn_accum_v(const std::uint32_t* w, std::size_t count, const float* table,
                         std::uint32_t mask, int cbits, float yr, float yi, float* acc) {
  const typename V::U maskv = V::set1(mask);
  const typename V::F yrv = V::set1f(yr), yiv = V::set1f(yi);
  std::size_t i = 0;
  for (; i + V::W <= count; i += V::W) {
    const typename V::U wv = V::loadu(w + i);
    const typename V::F xr = V::gather(table, V::and_(wv, maskv));
    const typename V::F xi = V::gather(table, V::and_(V::shr(wv, cbits), maskv));
    const typename V::F dr = V::subf(yrv, xr), di = V::subf(yiv, xi);
    V::storef(acc + i, V::addf(V::loadf(acc + i),
                               V::addf(V::mulf(dr, dr), V::mulf(di, di))));
  }
  if (i < count) scalar::awgn_accum(w + i, count - i, table, mask, cbits, yr, yi, acc + i);
}

template <class V>
static void awgn_csi_accum_v(const std::uint32_t* w, std::size_t count,
                             const float* table, std::uint32_t mask, int cbits, float yr,
                             float yi, float hr, float hi, float* acc) {
  const typename V::U maskv = V::set1(mask);
  const typename V::F yrv = V::set1f(yr), yiv = V::set1f(yi);
  const typename V::F hrv = V::set1f(hr), hiv = V::set1f(hi);
  std::size_t i = 0;
  for (; i + V::W <= count; i += V::W) {
    const typename V::U wv = V::loadu(w + i);
    const typename V::F xr = V::gather(table, V::and_(wv, maskv));
    const typename V::F xi = V::gather(table, V::and_(V::shr(wv, cbits), maskv));
    const typename V::F rr = V::subf(V::mulf(hrv, xr), V::mulf(hiv, xi));
    const typename V::F ri = V::addf(V::mulf(hrv, xi), V::mulf(hiv, xr));
    const typename V::F dr = V::subf(yrv, rr), di = V::subf(yiv, ri);
    V::storef(acc + i, V::addf(V::loadf(acc + i),
                               V::addf(V::mulf(dr, dr), V::mulf(di, di))));
  }
  if (i < count)
    scalar::awgn_csi_accum(w + i, count - i, table, mask, cbits, yr, yi, hr, hi, acc + i);
}

template <class V>
static void awgn_csi_fx_accum_v(const std::uint32_t* w, std::size_t count,
                                const float* table, std::uint32_t mask, int cbits,
                                float yr, float yi, float hr, float hi, float fx_scale,
                                float* acc) {
  const typename V::U maskv = V::set1(mask);
  const typename V::F yrv = V::set1f(yr), yiv = V::set1f(yi);
  const typename V::F hrv = V::set1f(hr), hiv = V::set1f(hi);
  const typename V::F sv = V::set1f(fx_scale);
  std::size_t i = 0;
  for (; i + V::W <= count; i += V::W) {
    const typename V::U wv = V::loadu(w + i);
    const typename V::F xr = V::gather(table, V::and_(wv, maskv));
    const typename V::F xi = V::gather(table, V::and_(V::shr(wv, cbits), maskv));
    // fx_quantise(v, s) = nearbyintf(v*s)/s, lane-wise with the
    // current-rounding-direction round (same default nearest-even).
    const typename V::F rr =
        V::divf(V::roundf_cur(V::mulf(V::subf(V::mulf(hrv, xr), V::mulf(hiv, xi)), sv)), sv);
    const typename V::F ri =
        V::divf(V::roundf_cur(V::mulf(V::addf(V::mulf(hrv, xi), V::mulf(hiv, xr)), sv)), sv);
    const typename V::F dr = V::subf(yrv, rr), di = V::subf(yiv, ri);
    V::storef(acc + i, V::addf(V::loadf(acc + i),
                               V::addf(V::mulf(dr, dr), V::mulf(di, di))));
  }
  if (i < count)
    scalar::awgn_csi_fx_accum(w + i, count - i, table, mask, cbits, yr, yi, hr, hi,
                              fx_scale, acc + i);
}

template <class V>
static void bsc_gather_bit_v(const std::uint32_t* w, std::size_t count, std::uint32_t j,
                             std::uint64_t* acc) {
  std::size_t i = 0;
  for (; i + V::W <= count; i += V::W) V::gather_bits(acc + i, V::loadu(w + i), j);
  if (i < count) scalar::bsc_gather_bit(w + i, count - i, j, acc + i);
}

/// Dense GF(2) row combine, dst ^= src over 64-bit words. XOR is exact
/// in any lane width, so this is bit-identical to the scalar kernel by
/// construction. The vector body reinterprets the u64 words as V::W
/// uint32 lanes only at the load/store boundary (one vector covers
/// V::W / 2 words); the tail stays on plain u64 scalar ops.
template <class V>
static void xor_rows_v(std::uint64_t* dst, const std::uint64_t* src,
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

// ------------------------------------------------- quantized kernels
// Integer mirrors of the float kernels for the u16/u8-grid path (see
// AwgnLevelQ in backend.h). Pure integer lanes: bit-identity to the
// scalar quantized kernels holds by construction. The metric is one
// pre-tabulated gather + one add per child per symbol — half the
// gathers and a third of the arithmetic of the float metric, which is
// where the quantized path's throughput comes from (the hash chains
// are shared with the float path and equally interleaved).

/// Fused RNG draw + quantized table metric for one symbol (see
/// scalar::awgn_q_sweep). Four vectors per iteration in the hot
/// premixed shape, matching the float sweep's chain interleave.
template <class V, bool kStore>
static void awgn_q_sweep_impl_v(hash::Kind kind, std::uint32_t salt, bool premixed,
                                const std::uint32_t* lanes, std::size_t count,
                                std::uint32_t data, const std::uint16_t* qtab,
                                std::uint32_t qmask, std::uint32_t* w_scratch,
                                std::uint32_t* acc) {
  const typename V::U datav = V::set1(data);
  const typename V::U qmaskv = V::set1(qmask);
  const typename V::U seedv = V::set1(scalar::oaat_seed(salt));
  const auto metric = [&](typename V::U w) {
    return V::gather_u16(qtab, V::and_(w, qmaskv));
  };
  const auto emit = [&](std::size_t at, typename V::U m) {
    if constexpr (kStore)
      V::storeu(acc + at, m);
    else
      V::storeu(acc + at, V::add(V::loadu(acc + at), m));
  };
  std::size_t i = 0;
  if (premixed) {
    for (; i + 4 * V::W <= count; i += 4 * V::W) {
      const typename V::U w0 = oaat_word_v<V>(V::loadu(lanes + i), datav);
      const typename V::U w1 = oaat_word_v<V>(V::loadu(lanes + i + V::W), datav);
      const typename V::U w2 = oaat_word_v<V>(V::loadu(lanes + i + 2 * V::W), datav);
      const typename V::U w3 = oaat_word_v<V>(V::loadu(lanes + i + 3 * V::W), datav);
      emit(i, metric(w0));
      emit(i + V::W, metric(w1));
      emit(i + 2 * V::W, metric(w2));
      emit(i + 3 * V::W, metric(w3));
    }
  }
  for (; i + V::W <= count; i += V::W) {
    typename V::U w;
    if (premixed)
      w = oaat_word_v<V>(V::loadu(lanes + i), datav);
    else if (kind == hash::Kind::kOneAtATime)
      w = oaat_word_v<V>(oaat_word_v<V>(seedv, V::loadu(lanes + i)), datav);
    else if (kind == hash::Kind::kLookup3)
      w = lookup3_pair_v<V>(V::loadu(lanes + i), datav, salt);
    else
      w = salsa20_pair_v<V>(V::loadu(lanes + i), datav, salt);
    emit(i, metric(w));
  }
  if (i < count) {
    if constexpr (kStore)
      scalar::awgn_q_sweep0(kind, salt, premixed, lanes + i, count - i, data, qtab,
                            qmask, w_scratch + i, acc + i);
    else
      scalar::awgn_q_sweep(kind, salt, premixed, lanes + i, count - i, data, qtab,
                           qmask, w_scratch + i, acc + i);
  }
}

/// Quantized partial-cost survivor compression (see
/// scalar::partial_compress_u16). The accumulator already lives in u32
/// lanes, so — unlike the float path — the in-place compress needs no
/// float/uint aliasing and runs on every ISA with the branchless
/// whole-vector store; narrow ISAs still prefer scalar extraction.
template <class V>
static std::size_t partial_compress_u16_v(const std::uint16_t* parent_cost,
                                          std::uint32_t* acc, std::size_t count,
                                          std::uint32_t fanout, std::uint32_t row_floor,
                                          std::uint32_t lane_rest,
                                          std::uint32_t bound_key, std::uint32_t* lanes,
                                          std::uint32_t* idx_out) {
  if constexpr (!V::kFastCompress)
    return scalar::partial_compress_u16(parent_cost, acc, count, fanout, row_floor,
                                        lane_rest, bound_key, lanes, idx_out);
  else if (fanout < V::W || fanout % V::W != 0)
    return scalar::partial_compress_u16(parent_cost, acc, count, fanout, row_floor,
                                        lane_rest, bound_key, lanes, idx_out);
  constexpr unsigned kFull = (1u << V::W) - 1u;
  const typename V::U boundv = V::set1(bound_key);
  const typename V::U capv = V::set1(65535u);
  const typename V::U iota = V::iota();
  std::size_t n = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t pc = parent_cost[i];
    if ((scalar::quant_clamp(pc + row_floor) << 16) > bound_key) continue;
    const typename V::U prest = V::set1(pc + lane_rest);
    const std::size_t row = i * static_cast<std::size_t>(fanout);
    for (std::uint32_t v = 0; v < fanout; v += static_cast<std::uint32_t>(V::W)) {
      const std::size_t c = row + v;
      const typename V::U a = V::loadu(acc + c);
      const typename V::U iv = V::add(V::set1(static_cast<std::uint32_t>(c)), iota);
      const typename V::U pkey =
          V::or_(V::shl(V::min_u32(V::add(prest, a), capv), 16), iv);
      const unsigned keep = kFull & ~V::gtu_mask(pkey, boundv);
      if (keep == 0) continue;
      const typename V::U lv = V::loadu(lanes + c);
      V::compress_store_u32(acc + n, a, keep);
      V::compress_store_u32(lanes + n, lv, keep);
      n += V::compress_store_u32(idx_out + n, iv, keep);
    }
  }
  return n;
}

/// Quantized final key build over the compressed survivor lanes (see
/// scalar::final_prune_u16; parent costs pre-widened to u32 by the
/// driver so the per-lane gather is a plain 32-bit gather).
template <class V>
static std::size_t final_prune_u16_v(const std::uint32_t* parent32,
                                     const std::uint32_t* acc, const std::uint32_t* idx,
                                     std::size_t n, int log2_fanout,
                                     std::uint32_t cand_base, std::uint32_t bound_key,
                                     std::uint32_t* out_keys) {
  constexpr unsigned kFull = (1u << V::W) - 1u;
  const typename V::U boundv = V::set1(bound_key);
  const typename V::U capv = V::set1(65535u);
  const typename V::U basev = V::set1(cand_base);
  std::size_t sc = 0;
  std::size_t j = 0;
  for (; j + V::W <= n; j += V::W) {
    const typename V::U idxv = V::loadu(idx + j);
    const typename V::U pc = V::gather_u32(parent32, V::shr(idxv, log2_fanout));
    const typename V::U cost = V::min_u32(V::add(pc, V::loadu(acc + j)), capv);
    const typename V::U key = V::or_(V::shl(cost, 16), V::add(basev, idxv));
    const unsigned keep = kFull & ~V::gtu_mask(key, boundv);
    if (keep == 0) continue;
    sc += V::compress_store_u32(out_keys + sc, key, keep);
  }
  if (j < n)
    sc += scalar::final_prune_u16(parent32, acc + j, idx + j, n - j, log2_fanout,
                                  cand_base, bound_key, out_keys + sc);
  return sc;
}

/// The Ops policy the fused expand drivers (expand.h) instantiate with.
template <class V>
struct SimdOps {
  static void hash_n(hash::Kind kind, std::uint32_t salt, const std::uint32_t* states,
                     std::size_t count, std::uint32_t data, std::uint32_t* out) {
    hash_n_v<V>(kind, salt, states, count, data, out);
  }
  static void hash_children(hash::Kind kind, std::uint32_t salt,
                            const std::uint32_t* states, std::size_t count,
                            std::uint32_t fanout, std::uint32_t* out) {
    hash_children_v<V>(kind, salt, states, count, fanout, out);
  }
  static void premix_n(std::uint32_t salt, const std::uint32_t* states,
                       std::size_t count, std::uint32_t* out) {
    premix_n_v<V>(salt, states, count, out);
  }
  static void hash_premixed_n(const std::uint32_t* premixed, std::size_t count,
                              std::uint32_t data, std::uint32_t* out) {
    hash_premixed_n_v<V>(premixed, count, data, out);
  }
  static void awgn_accum(const std::uint32_t* w, std::size_t count, const float* table,
                         std::uint32_t mask, int cbits, float yr, float yi, float* acc) {
    awgn_accum_v<V>(w, count, table, mask, cbits, yr, yi, acc);
  }
  static void awgn_csi_accum(const std::uint32_t* w, std::size_t count,
                             const float* table, std::uint32_t mask, int cbits, float yr,
                             float yi, float hr, float hi, float* acc) {
    awgn_csi_accum_v<V>(w, count, table, mask, cbits, yr, yi, hr, hi, acc);
  }
  static void awgn_csi_fx_accum(const std::uint32_t* w, std::size_t count,
                                const float* table, std::uint32_t mask, int cbits,
                                float yr, float yi, float hr, float hi, float fx_scale,
                                float* acc) {
    awgn_csi_fx_accum_v<V>(w, count, table, mask, cbits, yr, yi, hr, hi, fx_scale, acc);
  }
  static void bsc_gather_bit(const std::uint32_t* w, std::size_t count, std::uint32_t j,
                             std::uint64_t* acc) {
    bsc_gather_bit_v<V>(w, count, j, acc);
  }
  static void hash_children_premix(hash::Kind kind, std::uint32_t salt, bool premix,
                                   const std::uint32_t* states, std::size_t count,
                                   std::uint32_t fanout, std::uint32_t* out_states,
                                   std::uint32_t* out_lanes) {
    hash_children_premix_v<V>(kind, salt, premix, states, count, fanout, out_states,
                              out_lanes);
  }
  static void awgn_sweep(hash::Kind kind, std::uint32_t salt, bool premixed,
                         const std::uint32_t* lanes, std::size_t count,
                         std::uint32_t data, const float* table, std::uint32_t mask,
                         int cbits, float yr, float yi, std::uint32_t* w, float* acc) {
    awgn_sweep_v<V>(kind, salt, premixed, lanes, count, data, table, mask, cbits, yr,
                    yi, w, acc);
  }
  static void awgn_sweep0(hash::Kind kind, std::uint32_t salt, bool premixed,
                          const std::uint32_t* lanes, std::size_t count,
                          std::uint32_t data, const float* table, std::uint32_t mask,
                          int cbits, float yr, float yi, std::uint32_t* w, float* acc) {
    awgn_sweep0_v<V>(kind, salt, premixed, lanes, count, data, table, mask, cbits, yr,
                     yi, w, acc);
  }
  static void bsc_hamming_add(const std::uint64_t* acc, std::size_t count,
                              std::uint64_t rx_word, float* costs) {
    // XOR + popcount per word: the scalar loop compiles to the native
    // popcount instruction in these ISA-flagged TUs already.
    scalar::bsc_hamming_add(acc, count, rx_word, costs);
  }
  template <class Lane, class Child = typename Lane::cost_t>
  static std::size_t d1_prune(const typename Lane::cost_t* parent_cost,
                              const Child* child_cost, std::size_t count,
                              std::uint32_t fanout, std::uint32_t cand_base,
                              typename Lane::key_t bound_key,
                              typename Lane::key_t* out_keys) {
    return d1_prune_v<V, Lane, Child>(parent_cost, child_cost, count, fanout, cand_base,
                                      bound_key, out_keys);
  }
  static std::size_t partial_compress(const float* parent_cost, float* acc,
                                      std::size_t count, std::uint32_t fanout,
                                      std::uint64_t bound_key, std::uint32_t* lanes,
                                      std::uint32_t* idx_out) {
    return partial_compress_v<V>(parent_cost, acc, count, fanout, bound_key, lanes,
                                 idx_out);
  }
  static std::size_t final_prune(const float* parent_cost, const float* acc,
                                 const std::uint32_t* idx, std::size_t n,
                                 int log2_fanout, std::uint32_t cand_base,
                                 std::uint64_t bound_key, std::uint64_t* out_keys) {
    return final_prune_v<V>(parent_cost, acc, idx, n, log2_fanout, cand_base,
                            bound_key, out_keys);
  }
  template <class Lane>
  static void row_mins(const typename Lane::cost_t* leaf_cost,
                       const typename Lane::cost_t* child_cost, std::size_t leaves,
                       std::uint32_t fanout, typename Lane::cost_t* out) {
    row_mins_v<V, Lane>(leaf_cost, child_cost, leaves, fanout, out);
  }
  template <class Lane>
  static void regroup_emit(const std::uint32_t* child_state,
                           const typename Lane::cost_t* child_cost,
                           const typename Lane::cost_t* leaf_cost,
                           const std::uint32_t* leaf_path, std::size_t leaves,
                           std::uint32_t fanout, int k, int d, std::uint32_t group_mask,
                           const std::int32_t* group_rowbase, std::uint32_t* out_state,
                           typename Lane::cost_t* out_cost, std::uint32_t* out_path) {
    regroup_emit_v<V, Lane>(child_state, child_cost, leaf_cost, leaf_path, leaves,
                            fanout, k, d, group_mask, group_rowbase, out_state, out_cost,
                            out_path);
  }
  static void xor_rows(std::uint64_t* dst, const std::uint64_t* src,
                       std::size_t words) {
    xor_rows_v<V>(dst, src, words);
  }
  static void awgn_q_sweep(hash::Kind kind, std::uint32_t salt, bool premixed,
                           const std::uint32_t* lanes, std::size_t count,
                           std::uint32_t data, const std::uint16_t* qtab,
                           std::uint32_t qmask, std::uint32_t* w, std::uint32_t* acc) {
    awgn_q_sweep_impl_v<V, false>(kind, salt, premixed, lanes, count, data, qtab,
                                  qmask, w, acc);
  }
  static void awgn_q_sweep0(hash::Kind kind, std::uint32_t salt, bool premixed,
                            const std::uint32_t* lanes, std::size_t count,
                            std::uint32_t data, const std::uint16_t* qtab,
                            std::uint32_t qmask, std::uint32_t* w, std::uint32_t* acc) {
    awgn_q_sweep_impl_v<V, true>(kind, salt, premixed, lanes, count, data, qtab, qmask,
                                 w, acc);
  }
  static std::size_t partial_compress_u16(const std::uint16_t* parent_cost,
                                          std::uint32_t* acc, std::size_t count,
                                          std::uint32_t fanout, std::uint32_t row_floor,
                                          std::uint32_t lane_rest,
                                          std::uint32_t bound_key, std::uint32_t* lanes,
                                          std::uint32_t* idx_out) {
    return partial_compress_u16_v<V>(parent_cost, acc, count, fanout, row_floor,
                                     lane_rest, bound_key, lanes, idx_out);
  }
  static std::size_t final_prune_u16(const std::uint32_t* parent32,
                                     const std::uint32_t* acc, const std::uint32_t* idx,
                                     std::size_t n, int log2_fanout,
                                     std::uint32_t cand_base, std::uint32_t bound_key,
                                     std::uint32_t* out_keys) {
    return final_prune_u16_v<V>(parent32, acc, idx, n, log2_fanout, cand_base,
                                bound_key, out_keys);
  }
};

}  // namespace spinal::backend::simd
