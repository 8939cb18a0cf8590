#pragma once
// x86 vector wrappers for the generic SIMD kernels (simd_kernels.h):
// Vec128 (SSE4.2, 4 uint32 lanes), Vec256 (AVX2, 8 lanes) and Vec512
// (AVX-512F, 16 lanes). Each is only visible inside a TU compiled with
// the matching -m flags; the rest of the build never sees an
// intrinsic. Like the kernels, they sit in an anonymous namespace, so
// nothing here has vague linkage (see simd_kernels.h).
//
// Float ops are plain IEEE single mul/sub/add/div (never FMA — the
// kernels' bit-identity contract) and the fixed-point round uses the
// current-rounding-direction form of ROUNDPS (VRNDSCALEPS at 16
// lanes), matching nearbyintf.

#include <cstddef>
#include <cstdint>

#if defined(__SSE4_2__) || defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>

namespace spinal::backend::simd {
namespace {

#if defined(__SSE4_2__)
struct Vec128 {
  static constexpr std::size_t W = 4;
  /// Lane compression falls back to scalar extraction here; kernels
  /// that only profit from branchless compress gate on this.
  static constexpr bool kFastCompress = false;
  using U = __m128i;
  using F = __m128;

  static U loadu(const std::uint32_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void storeu(std::uint32_t* p, U v) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  static U set1(std::uint32_t x) { return _mm_set1_epi32(static_cast<int>(x)); }
  static U add(U a, U b) { return _mm_add_epi32(a, b); }
  static U sub(U a, U b) { return _mm_sub_epi32(a, b); }
  static U xor_(U a, U b) { return _mm_xor_si128(a, b); }
  static U and_(U a, U b) { return _mm_and_si128(a, b); }
  static U or_(U a, U b) { return _mm_or_si128(a, b); }
  static U shl(U a, int n) { return _mm_slli_epi32(a, n); }
  static U shr(U a, int n) { return _mm_srli_epi32(a, n); }
  static U sar(U a, int n) { return _mm_srai_epi32(a, n); }
  static U iota() { return _mm_setr_epi32(0, 1, 2, 3); }

  static F loadf(const float* p) { return _mm_loadu_ps(p); }
  static void storef(float* p, F v) { _mm_storeu_ps(p, v); }
  static F set1f(float x) { return _mm_set1_ps(x); }
  static F addf(F a, F b) { return _mm_add_ps(a, b); }
  static F subf(F a, F b) { return _mm_sub_ps(a, b); }
  static F mulf(F a, F b) { return _mm_mul_ps(a, b); }
  static F divf(F a, F b) { return _mm_div_ps(a, b); }
  static F roundf_cur(F a) { return _mm_round_ps(a, _MM_FROUND_CUR_DIRECTION); }
  static U castfu(F a) { return _mm_castps_si128(a); }
  static F minf(F a, F b) { return _mm_min_ps(a, b); }

  /// Bitmask of lanes where a > b, both treated as unsigned (SSE has
  /// only signed compares: flip the sign bit of both operands first).
  static unsigned gtu_mask(U a, U b) {
    const U sign = _mm_set1_epi32(static_cast<int>(0x80000000u));
    const U gt = _mm_cmpgt_epi32(_mm_xor_si128(a, sign), _mm_xor_si128(b, sign));
    return static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(gt)));
  }

  /// dst[l] = (uint64)m[l] << 32 | idx[l], in lane order.
  static void zip_store_keys(std::uint64_t* dst, U idx, U m) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), _mm_unpacklo_epi32(idx, m));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 2), _mm_unpackhi_epi32(idx, m));
  }

  /// Appends the surviving lanes' (m << 32 | idx) keys to dst in lane
  /// order (lane l survives when bit l of keep_mask is set); returns
  /// the count. May write up to W slots regardless of the count.
  static std::size_t compress_store_keys(std::uint64_t* dst, U idx, U m,
                                         unsigned keep_mask) {
    alignas(16) std::uint32_t ib[4], mb[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(ib), idx);
    _mm_store_si128(reinterpret_cast<__m128i*>(mb), m);
    std::size_t n = 0;
    for (unsigned l = 0; l < 4; ++l) {
      dst[n] = (static_cast<std::uint64_t>(mb[l]) << 32) | ib[l];
      n += (keep_mask >> l) & 1u;  // branchless append
    }
    return n;
  }

  /// Appends the surviving lanes of v to dst in lane order; returns the
  /// count. May write up to W slots regardless of the count.
  static std::size_t compress_store_u32(std::uint32_t* dst, U v, unsigned keep_mask) {
    alignas(16) std::uint32_t b[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(b), v);
    std::size_t n = 0;
    for (unsigned l = 0; l < 4; ++l) {
      dst[n] = b[l];
      n += (keep_mask >> l) & 1u;  // branchless append
    }
    return n;
  }

  // SSE has no gather instruction: extract indices, scalar loads.
  static F gather(const float* t, U idx) {
    alignas(16) std::uint32_t i[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(i), idx);
    return _mm_setr_ps(t[i[0]], t[i[1]], t[i[2]], t[i[3]]);
  }

  static U gather_u32(const std::uint32_t* t, U idx) {
    alignas(16) std::uint32_t i[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(i), idx);
    return _mm_setr_epi32(static_cast<int>(t[i[0]]), static_cast<int>(t[i[1]]),
                          static_cast<int>(t[i[2]]), static_cast<int>(t[i[3]]));
  }

  /// Gather of u16 table entries, zero-extended to u32 lanes (one
  /// dimension's metric row, AwgnLevelQ::qtab).
  static U gather_u16(const std::uint16_t* t, U idx) {
    alignas(16) std::uint32_t i[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(i), idx);
    return _mm_setr_epi32(t[i[0]], t[i[1]], t[i[2]], t[i[3]]);
  }

  static U min_u32(U a, U b) { return _mm_min_epu32(a, b); }
  static U max_u32(U a, U b) { return _mm_max_epu32(a, b); }

  // ---- u64 key lanes (the packed-key select, simd_select.h) ----
  /// Lanes where a > b, unsigned, as all-ones u64 lanes (PCMPGTQ is
  /// signed: flip the sign bit of both operands first).
  static U gtu64(U a, U b) {
    const U sign = _mm_set1_epi64x(static_cast<long long>(0x8000000000000000ull));
    return _mm_cmpgt_epi64(_mm_xor_si128(a, sign), _mm_xor_si128(b, sign));
  }
  /// Bitmask of u64 lanes where a > b, unsigned.
  static unsigned gtu64_mask(U a, U b) {
    return static_cast<unsigned>(_mm_movemask_pd(_mm_castsi128_pd(gtu64(a, b))));
  }
  /// The sorting network's u64 domain: keys with the sign bit flipped,
  /// so the signed PCMPGTQ orders them and each compare-exchange saves
  /// two flips.
  static U bias_u64(U a) {
    return _mm_xor_si128(a, _mm_set1_epi64x(static_cast<long long>(0x8000000000000000ull)));
  }
  static U min_biased_u64(U a, U b) { return _mm_blendv_epi8(a, b, _mm_cmpgt_epi64(a, b)); }
  static U max_biased_u64(U a, U b) { return _mm_blendv_epi8(b, a, _mm_cmpgt_epi64(a, b)); }
  /// acc plus one in each u64 (u32) lane where a > b, unsigned.
  static U count_gtu64(U acc, U a, U b) { return _mm_sub_epi64(acc, gtu64(a, b)); }
  static U count_gtu32(U acc, U a, U b) {
    const U sign = _mm_set1_epi32(static_cast<int>(0x80000000u));
    return _mm_sub_epi32(acc, _mm_cmpgt_epi32(_mm_xor_si128(a, sign), _mm_xor_si128(b, sign)));
  }

  /// Appends the u64 lanes of v whose bit is set in keep_mask to dst,
  /// in lane order; returns the count. May write up to 2 slots.
  static std::size_t compress_store_u64(std::uint64_t* dst, U v, unsigned keep_mask) {
    alignas(16) std::uint64_t b[2];
    _mm_store_si128(reinterpret_cast<__m128i*>(b), v);
    std::size_t n = 0;
    for (unsigned l = 0; l < 2; ++l) {
      dst[n] = b[l];
      n += (keep_mask >> l) & 1u;  // branchless append
    }
    return n;
  }

  /// out[l] = v[idx[l]] over uint32 lanes: PSHUFB on the byte indices
  /// 4*idx + (0, 1, 2, 3).
  static U permute(U v, U idx) {
    const U bytes =
        _mm_add_epi32(_mm_mullo_epi32(_mm_slli_epi32(idx, 2), _mm_set1_epi32(0x01010101)),
                      _mm_set1_epi32(0x03020100));
    return _mm_shuffle_epi8(v, bytes);
  }

  /// Lane l of b where bit l of bits is set, else lane l of a.
  static U blend(unsigned bits, U a, U b) {
    const U lane_bit = _mm_setr_epi32(1, 2, 4, 8);
    const U m = _mm_cmpeq_epi32(_mm_and_si128(_mm_set1_epi32(static_cast<int>(bits)), lane_bit),
                                lane_bit);
    return _mm_blendv_epi8(a, b, m);
  }

  /// Zero-extends W uint16 values to uint32 lanes.
  static U widen_load_u16(const std::uint16_t* p) {
    return _mm_cvtepu16_epi32(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
  }

  /// Truncating narrow store of W uint32 lanes (each <= 65535) to uint16.
  static void narrow_store_u16(std::uint16_t* p, U v) {
    _mm_storel_epi64(reinterpret_cast<__m128i*>(p), _mm_packus_epi32(v, v));
  }

  /// acc[0..3] |= (w & 1) << j, widening the four uint32 lanes to
  /// uint64.
  static void gather_bits(std::uint64_t* acc, U w, std::uint32_t j) {
    const U bits = _mm_and_si128(w, _mm_set1_epi32(1));
    const __m128i lo = _mm_cvtepu32_epi64(bits);
    const __m128i hi = _mm_cvtepu32_epi64(_mm_srli_si128(bits, 8));
    __m128i a0 = _mm_loadu_si128(reinterpret_cast<__m128i*>(acc));
    __m128i a1 = _mm_loadu_si128(reinterpret_cast<__m128i*>(acc + 2));
    a0 = _mm_or_si128(a0, _mm_slli_epi64(lo, static_cast<int>(j)));
    a1 = _mm_or_si128(a1, _mm_slli_epi64(hi, static_cast<int>(j)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(acc), a0);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(acc + 2), a1);
  }
};
#endif  // __SSE4_2__

#if defined(__AVX2__)
/// Mask-indexed lane-compression permutation table for Vec256's
/// compress stores: entry [mask] lists the surviving lane indices in
/// lane order, zero-padded. Computed at compile time — no per-call
/// magic-static guard in the innermost prune loops.
constexpr struct CompressLut256 {
  std::uint32_t perm[256][8];
} kCompressLut256 = [] {
  CompressLut256 t{};
  for (unsigned mask = 0; mask < 256; ++mask) {
    unsigned n = 0;
    for (unsigned l = 0; l < 8; ++l)
      if (mask & (1u << l)) t.perm[mask][n++] = l;
    for (; n < 8; ++n) t.perm[mask][n] = 0;
  }
  return t;
}();

struct Vec256 {
  static constexpr std::size_t W = 8;
  static constexpr bool kFastCompress = true;
  using U = __m256i;
  using F = __m256;

  static U loadu(const std::uint32_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void storeu(std::uint32_t* p, U v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static U set1(std::uint32_t x) { return _mm256_set1_epi32(static_cast<int>(x)); }
  static U add(U a, U b) { return _mm256_add_epi32(a, b); }
  static U sub(U a, U b) { return _mm256_sub_epi32(a, b); }
  static U xor_(U a, U b) { return _mm256_xor_si256(a, b); }
  static U and_(U a, U b) { return _mm256_and_si256(a, b); }
  static U or_(U a, U b) { return _mm256_or_si256(a, b); }
  static U shl(U a, int n) { return _mm256_slli_epi32(a, n); }
  static U shr(U a, int n) { return _mm256_srli_epi32(a, n); }
  static U sar(U a, int n) { return _mm256_srai_epi32(a, n); }
  static U iota() { return _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7); }

  static F loadf(const float* p) { return _mm256_loadu_ps(p); }
  static void storef(float* p, F v) { _mm256_storeu_ps(p, v); }
  static F set1f(float x) { return _mm256_set1_ps(x); }
  static F addf(F a, F b) { return _mm256_add_ps(a, b); }
  static F subf(F a, F b) { return _mm256_sub_ps(a, b); }
  static F mulf(F a, F b) { return _mm256_mul_ps(a, b); }
  static F divf(F a, F b) { return _mm256_div_ps(a, b); }
  static F roundf_cur(F a) { return _mm256_round_ps(a, _MM_FROUND_CUR_DIRECTION); }
  static U castfu(F a) { return _mm256_castps_si256(a); }
  static F minf(F a, F b) { return _mm256_min_ps(a, b); }

  /// Bitmask of lanes where a > b, both treated as unsigned.
  static unsigned gtu_mask(U a, U b) {
    const U sign = _mm256_set1_epi32(static_cast<int>(0x80000000u));
    const U gt = _mm256_cmpgt_epi32(_mm256_xor_si256(a, sign), _mm256_xor_si256(b, sign));
    return static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(gt)));
  }

  /// dst[l] = (uint64)m[l] << 32 | idx[l], in lane order (unpack works
  /// per 128-bit half, so the halves are re-zipped with permute2x128).
  static void zip_store_keys(std::uint64_t* dst, U idx, U m) {
    const __m256i lo = _mm256_unpacklo_epi32(idx, m);  // keys 0,1 | 4,5
    const __m256i hi = _mm256_unpackhi_epi32(idx, m);  // keys 2,3 | 6,7
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst),
                        _mm256_permute2x128_si256(lo, hi, 0x20));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 4),
                        _mm256_permute2x128_si256(lo, hi, 0x31));
  }

  static F gather(const float* t, U idx) { return _mm256_i32gather_ps(t, idx, 4); }

  static U gather_u32(const std::uint32_t* t, U idx) {
    return _mm256_i32gather_epi32(reinterpret_cast<const int*>(t), idx, 4);
  }

  /// Gather of u16 table entries (one dimension's metric row,
  /// AwgnLevelQ::qtab), zero-extended to u32 lanes. The 32-bit gather
  /// at scale 2 reads two bytes past entry idx: within the row pair for
  /// the I row, the next row's first entry or the table's one u16 of
  /// tail slack for the Q row.
  static U gather_u16(const std::uint16_t* t, U idx) {
    const __m256i wide =
        _mm256_i32gather_epi32(reinterpret_cast<const int*>(t), idx, 2);
    return _mm256_and_si256(wide, _mm256_set1_epi32(0xFFFF));
  }

  static U min_u32(U a, U b) { return _mm256_min_epu32(a, b); }
  static U max_u32(U a, U b) { return _mm256_max_epu32(a, b); }

  // ---- u64 key lanes (the packed-key select, simd_select.h) ----
  /// Lanes where a > b, unsigned, as all-ones u64 lanes.
  static U gtu64(U a, U b) {
    const U sign = _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ull));
    return _mm256_cmpgt_epi64(_mm256_xor_si256(a, sign), _mm256_xor_si256(b, sign));
  }
  /// Bitmask of u64 lanes where a > b, unsigned.
  static unsigned gtu64_mask(U a, U b) {
    return static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(gtu64(a, b))));
  }
  /// The sorting network's u64 domain: keys with the sign bit flipped,
  /// so the signed VPCMPGTQ orders them and each compare-exchange saves
  /// two flips.
  static U bias_u64(U a) {
    return _mm256_xor_si256(a, _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ull)));
  }
  static U min_biased_u64(U a, U b) {
    return _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(a, b));
  }
  static U max_biased_u64(U a, U b) {
    return _mm256_blendv_epi8(b, a, _mm256_cmpgt_epi64(a, b));
  }
  /// acc plus one in each u64 (u32) lane where a > b, unsigned.
  static U count_gtu64(U acc, U a, U b) { return _mm256_sub_epi64(acc, gtu64(a, b)); }
  static U count_gtu32(U acc, U a, U b) {
    const U sign = _mm256_set1_epi32(static_cast<int>(0x80000000u));
    return _mm256_sub_epi32(
        acc, _mm256_cmpgt_epi32(_mm256_xor_si256(a, sign), _mm256_xor_si256(b, sign)));
  }

  /// Appends the u64 lanes of v whose bit is set in keep_mask to dst,
  /// in lane order; returns the count. A u64 lane is two u32 lanes, so
  /// the u32 compress table serves with every mask bit doubled. May
  /// write a full vector of slack regardless of the count.
  static std::size_t compress_store_u64(std::uint64_t* dst, U v, unsigned keep_mask) {
    static constexpr std::uint8_t kDoubled[16] = {0x00, 0x03, 0x0C, 0x0F, 0x30, 0x33,
                                                  0x3C, 0x3F, 0xC0, 0xC3, 0xCC, 0xCF,
                                                  0xF0, 0xF3, 0xFC, 0xFF};
    compress_store_u32(reinterpret_cast<std::uint32_t*>(dst), v, kDoubled[keep_mask]);
    return static_cast<std::size_t>(__builtin_popcount(keep_mask));
  }

  /// out[l] = v[idx[l]] over uint32 lanes.
  static U permute(U v, U idx) { return _mm256_permutevar8x32_epi32(v, idx); }

  /// Lane l of b where bit l of bits is set, else lane l of a.
  static U blend(unsigned bits, U a, U b) {
    const U lane_bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    const U m = _mm256_cmpeq_epi32(
        _mm256_and_si256(_mm256_set1_epi32(static_cast<int>(bits)), lane_bit), lane_bit);
    return _mm256_blendv_epi8(a, b, m);
  }

  /// Zero-extends W uint16 values to uint32 lanes.
  static U widen_load_u16(const std::uint16_t* p) {
    return _mm256_cvtepu16_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }

  /// Truncating narrow store of W uint32 lanes (each <= 65535) to
  /// uint16. PACKUSDW packs per 128-bit half, so the halves are put
  /// back in lane order with a 64-bit permute before the low half
  /// stores.
  static void narrow_store_u16(std::uint16_t* p, U v) {
    const __m256i packed =
        _mm256_permute4x64_epi64(_mm256_packus_epi32(v, v), 0xD8);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p),
                     _mm256_castsi256_si128(packed));
  }

  /// Appends the surviving lanes' (m << 32 | idx) keys to dst in lane
  /// order (lane l survives when bit l of keep_mask is set); returns
  /// the count. Branchless: both value vectors are compressed through a
  /// mask-indexed permute table, then two full vectors store blindly —
  /// dst needs W-1 slots of slack past the true append count.
  static std::size_t compress_store_keys(std::uint64_t* dst, U idx, U m,
                                         unsigned keep_mask) {
    const __m256i perm = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kCompressLut256.perm[keep_mask]));
    zip_store_keys(dst, _mm256_permutevar8x32_epi32(idx, perm),
                   _mm256_permutevar8x32_epi32(m, perm));
    return static_cast<std::size_t>(__builtin_popcount(keep_mask));
  }

  /// Appends the surviving lanes of v to dst in lane order (branchless
  /// permute compress); returns the count. May write a full vector of
  /// slack regardless of the count.
  static std::size_t compress_store_u32(std::uint32_t* dst, U v, unsigned keep_mask) {
    const __m256i perm = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kCompressLut256.perm[keep_mask]));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst),
                        _mm256_permutevar8x32_epi32(v, perm));
    return static_cast<std::size_t>(__builtin_popcount(keep_mask));
  }

  /// acc[0..7] |= (w & 1) << j, widening the eight uint32 lanes to
  /// uint64 in two halves.
  static void gather_bits(std::uint64_t* acc, U w, std::uint32_t j) {
    const U bits = _mm256_and_si256(w, _mm256_set1_epi32(1));
    const __m256i lo = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(bits));
    const __m256i hi = _mm256_cvtepu32_epi64(_mm256_extracti128_si256(bits, 1));
    __m256i a0 = _mm256_loadu_si256(reinterpret_cast<__m256i*>(acc));
    __m256i a1 = _mm256_loadu_si256(reinterpret_cast<__m256i*>(acc + 4));
    a0 = _mm256_or_si256(a0, _mm256_slli_epi64(lo, static_cast<int>(j)));
    a1 = _mm256_or_si256(a1, _mm256_slli_epi64(hi, static_cast<int>(j)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc), a0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 4), a1);
  }
};
#endif  // __AVX2__

#if defined(__AVX512F__)
/// AVX-512F: 16 uint32 lanes, mask-register compares and compresses.
/// Needs only the foundation subset (-mavx512f), the one feature the
/// registry checks before handing the backend out.
///
/// GCC 12's headers build the unmasked forms of most AVX-512
/// intrinsics (shifts, min, gathers, roundscale, widen and narrow,
/// even _mm512_castsi512_si256) on a masked builtin whose pass-through
/// is _mm512_undefined_epi32(); that self-initialised value trips
/// -Werror=maybe-uninitialized once inlined (GCC PR105593, fixed in
/// GCC 13). Those operations therefore use their zero-masking forms
/// with an all-ones mask (kAll): the same instruction, with a zeroed
/// pass-through the compiler drops.
struct Vec512 {
  static constexpr std::size_t W = 16;
  static constexpr bool kFastCompress = true;
  /// Rows of 8 (k = 3) run on the AVX2 lane (-mavx512f implies AVX2)
  /// instead of the scalar fallback.
  using Half = Vec256;
  using U = __m512i;
  using F = __m512;
  static constexpr __mmask16 kAll = 0xFFFF;

  static U loadu(const std::uint32_t* p) { return _mm512_loadu_si512(p); }
  static void storeu(std::uint32_t* p, U v) { _mm512_storeu_si512(p, v); }
  static U set1(std::uint32_t x) { return _mm512_set1_epi32(static_cast<int>(x)); }
  static U add(U a, U b) { return _mm512_add_epi32(a, b); }
  static U sub(U a, U b) { return _mm512_sub_epi32(a, b); }
  static U xor_(U a, U b) { return _mm512_xor_si512(a, b); }
  static U and_(U a, U b) { return _mm512_and_si512(a, b); }
  static U or_(U a, U b) { return _mm512_or_si512(a, b); }
  static U shl(U a, int n) {
    return _mm512_maskz_slli_epi32(kAll, a, static_cast<unsigned>(n));
  }
  static U shr(U a, int n) {
    return _mm512_maskz_srli_epi32(kAll, a, static_cast<unsigned>(n));
  }
  static U sar(U a, int n) {
    return _mm512_maskz_srai_epi32(kAll, a, static_cast<unsigned>(n));
  }
  static U iota() {
    return _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  }

  static F loadf(const float* p) { return _mm512_loadu_ps(p); }
  static void storef(float* p, F v) { _mm512_storeu_ps(p, v); }
  static F set1f(float x) { return _mm512_set1_ps(x); }
  static F addf(F a, F b) { return _mm512_add_ps(a, b); }
  static F subf(F a, F b) { return _mm512_sub_ps(a, b); }
  static F mulf(F a, F b) { return _mm512_mul_ps(a, b); }
  static F divf(F a, F b) { return _mm512_div_ps(a, b); }
  /// VRNDSCALEPS keeping 0 fraction bits, in the current rounding
  /// direction: ROUNDPS's _MM_FROUND_CUR_DIRECTION form at 16 lanes.
  static F roundf_cur(F a) {
    return _mm512_maskz_roundscale_ps(kAll, a, _MM_FROUND_CUR_DIRECTION);
  }
  static U castfu(F a) { return _mm512_castps_si512(a); }
  static F minf(F a, F b) { return _mm512_maskz_min_ps(kAll, a, b); }

  /// Bitmask of lanes where a > b, unsigned: a native compare.
  static unsigned gtu_mask(U a, U b) { return _mm512_cmpgt_epu32_mask(a, b); }

  /// dst[l] = (uint64)m[l] << 32 | idx[l], in lane order: two
  /// cross-lane interleaves, one per eight keys.
  static void zip_store_keys(std::uint64_t* dst, U idx, U m) {
    const U lo = _mm512_setr_epi32(0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23);
    const U hi = _mm512_add_epi32(lo, _mm512_set1_epi32(8));
    _mm512_storeu_si512(dst, _mm512_permutex2var_epi32(idx, lo, m));
    _mm512_storeu_si512(dst + 8, _mm512_permutex2var_epi32(idx, hi, m));
  }

  /// Appends the surviving lanes' (m << 32 | idx) keys to dst in lane
  /// order (lane l survives when bit l of keep_mask is set); returns
  /// the count. Both value vectors compress in registers (VPCOMPRESSD),
  /// then two full vectors store blindly — dst needs W-1 slots of slack
  /// past the true append count.
  static std::size_t compress_store_keys(std::uint64_t* dst, U idx, U m,
                                         unsigned keep_mask) {
    const __mmask16 k = static_cast<__mmask16>(keep_mask);
    zip_store_keys(dst, _mm512_maskz_compress_epi32(k, idx),
                   _mm512_maskz_compress_epi32(k, m));
    return static_cast<std::size_t>(__builtin_popcount(keep_mask));
  }

  /// Appends the surviving lanes of v to dst in lane order (register
  /// compress, full-vector store); returns the count. May write a full
  /// vector of slack regardless of the count.
  static std::size_t compress_store_u32(std::uint32_t* dst, U v, unsigned keep_mask) {
    _mm512_storeu_si512(dst,
                        _mm512_maskz_compress_epi32(static_cast<__mmask16>(keep_mask), v));
    return static_cast<std::size_t>(__builtin_popcount(keep_mask));
  }

  static F gather(const float* t, U idx) {
    return _mm512_mask_i32gather_ps(_mm512_setzero_ps(), kAll, idx, t, 4);
  }

  static U gather_u32(const std::uint32_t* t, U idx) {
    return _mm512_mask_i32gather_epi32(_mm512_setzero_si512(), kAll, idx, t, 4);
  }

  /// A u16 table of n <= 64 entries (n a power of two) widened to u32
  /// and repeated every n entries up to 64, held in four registers
  /// (entries 16j .. 16j+15 in r[j]): a per-dimension metric row the
  /// quantized sweep reads with lookup64 instead of gathers. The
  /// repetition makes entry i equal entry i mod n, so lookups need no
  /// index mask.
  struct Table64 {
    U r[4];
  };

  /// Widens the n entries of t into a Table64, reading no memory past
  /// t + n.
  static Table64 load_table64(const std::uint16_t* t, std::uint32_t n) {
    Table64 out;
    if (n >= 16) {
      for (std::uint32_t j = 0; j < 4; ++j)
        out.r[j] = widen_load_u16(t + 16 * (j & (n / 16 - 1)));
    } else {
      // Rows shorter than a register (c <= 3) repeat through a copy.
      alignas(32) std::uint16_t rep[16];
      for (std::uint32_t j = 0; j < 16; ++j) rep[j] = t[j & (n - 1)];
      out.r[0] = out.r[1] = out.r[2] = out.r[3] = widen_load_u16(rep);
    }
    return out;
  }

  /// out[l] = t[idx[l] mod 64]: two two-register permutes on the low
  /// five index bits, blended on bit 5.
  static U lookup64(const Table64& t, U idx) {
    const U lo = _mm512_permutex2var_epi32(t.r[0], idx, t.r[1]);
    const U hi = _mm512_permutex2var_epi32(t.r[2], idx, t.r[3]);
    return _mm512_mask_blend_epi32(_mm512_test_epi32_mask(idx, _mm512_set1_epi32(32)), lo,
                                   hi);
  }

  static U min_u32(U a, U b) { return _mm512_maskz_min_epu32(kAll, a, b); }
  static U max_u32(U a, U b) { return _mm512_maskz_max_epu32(kAll, a, b); }

  // ---- u64 key lanes (the packed-key select, simd_select.h) ----
  /// Bitmask of u64 lanes where a > b, unsigned: a native compare.
  static unsigned gtu64_mask(U a, U b) { return _mm512_cmpgt_epu64_mask(a, b); }
  /// The sorting network's u64 domain: the keys themselves (the
  /// compares are unsigned already).
  static U bias_u64(U a) { return a; }
  static U min_biased_u64(U a, U b) { return _mm512_maskz_min_epu64(0xFF, a, b); }
  static U max_biased_u64(U a, U b) { return _mm512_maskz_max_epu64(0xFF, a, b); }
  /// acc plus one in each u64 (u32) lane where a > b, unsigned.
  static U count_gtu64(U acc, U a, U b) {
    return _mm512_mask_sub_epi64(acc, _mm512_cmpgt_epu64_mask(a, b), acc, _mm512_set1_epi64(-1));
  }
  static U count_gtu32(U acc, U a, U b) {
    return _mm512_mask_sub_epi32(acc, _mm512_cmpgt_epu32_mask(a, b), acc, _mm512_set1_epi32(-1));
  }

  /// Appends the u64 lanes of v whose bit is set in keep_mask to dst,
  /// in lane order (VPCOMPRESSQ, full-vector store); returns the count.
  /// May write a full vector of slack regardless of the count.
  static std::size_t compress_store_u64(std::uint64_t* dst, U v, unsigned keep_mask) {
    _mm512_storeu_si512(dst, _mm512_maskz_compress_epi64(static_cast<__mmask8>(keep_mask), v));
    return static_cast<std::size_t>(__builtin_popcount(keep_mask));
  }

  /// out[l] = v[idx[l]] over uint32 lanes.
  static U permute(U v, U idx) { return _mm512_maskz_permutexvar_epi32(kAll, idx, v); }

  /// Lane l of b where bit l of bits is set, else lane l of a.
  static U blend(unsigned bits, U a, U b) {
    return _mm512_mask_blend_epi32(static_cast<__mmask16>(bits), a, b);
  }

  /// Zero-extends W uint16 values to uint32 lanes.
  static U widen_load_u16(const std::uint16_t* p) {
    return _mm512_maskz_cvtepu16_epi32(
        kAll, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  }

  /// Truncating narrow store of W uint32 lanes (each <= 65535) to
  /// uint16: one VPMOVDW, already in lane order.
  static void narrow_store_u16(std::uint16_t* p, U v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), _mm512_maskz_cvtepi32_epi16(kAll, v));
  }

  /// acc[0..15] |= (w & 1) << j, widening the sixteen uint32 lanes to
  /// uint64 in two halves: a lane permute into the even dwords, odd
  /// dwords zeroed by the mask, is the zero extension.
  static void gather_bits(std::uint64_t* acc, U w, std::uint32_t j) {
    const U bits = _mm512_and_si512(w, _mm512_set1_epi32(1));
    const U dup = _mm512_setr_epi32(0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7);
    const __m512i lo = _mm512_maskz_permutexvar_epi32(0x5555, dup, bits);
    const __m512i hi = _mm512_maskz_permutexvar_epi32(
        0x5555, _mm512_add_epi32(dup, _mm512_set1_epi32(8)), bits);
    const __m512i a0 = _mm512_or_si512(_mm512_loadu_si512(acc),
                                       _mm512_maskz_slli_epi64(0xFF, lo, j));
    const __m512i a1 = _mm512_or_si512(_mm512_loadu_si512(acc + 8),
                                       _mm512_maskz_slli_epi64(0xFF, hi, j));
    _mm512_storeu_si512(acc, a0);
    _mm512_storeu_si512(acc + 8, a1);
  }
};
#endif  // __AVX512F__

}  // namespace
}  // namespace spinal::backend::simd

#endif  // __SSE4_2__ || __AVX2__ || __AVX512F__
