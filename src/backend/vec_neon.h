#pragma once
// ARM NEON vector wrapper for the generic SIMD kernels (simd_kernels.h):
// 4 uint32 lanes. aarch64 only — the fixed-point path needs FRINTI
// (round to integral, current mode) and FDIV, both A64 instructions;
// 32-bit ARM falls back to the scalar backend. In an anonymous
// namespace like the kernels (see simd_kernels.h).

#include <cstddef>
#include <cstdint>

#if defined(__aarch64__)
#include <arm_neon.h>

namespace spinal::backend::simd {
namespace {

struct VecNeon {
  static constexpr std::size_t W = 4;
  /// Lane compression falls back to scalar extraction (see vec_x86.h).
  static constexpr bool kFastCompress = false;
  using U = uint32x4_t;
  using F = float32x4_t;

  static U loadu(const std::uint32_t* p) { return vld1q_u32(p); }
  static void storeu(std::uint32_t* p, U v) { vst1q_u32(p, v); }
  static U set1(std::uint32_t x) { return vdupq_n_u32(x); }
  static U add(U a, U b) { return vaddq_u32(a, b); }
  static U sub(U a, U b) { return vsubq_u32(a, b); }
  static U xor_(U a, U b) { return veorq_u32(a, b); }
  static U and_(U a, U b) { return vandq_u32(a, b); }
  static U or_(U a, U b) { return vorrq_u32(a, b); }
  static U shl(U a, int n) { return vshlq_u32(a, vdupq_n_s32(n)); }
  static U shr(U a, int n) { return vshlq_u32(a, vdupq_n_s32(-n)); }
  static U sar(U a, int n) {
    return vreinterpretq_u32_s32(vshlq_s32(vreinterpretq_s32_u32(a), vdupq_n_s32(-n)));
  }
  static U iota() {
    static const std::uint32_t k[4] = {0, 1, 2, 3};
    return vld1q_u32(k);
  }

  static F loadf(const float* p) { return vld1q_f32(p); }
  static void storef(float* p, F v) { vst1q_f32(p, v); }
  static F set1f(float x) { return vdupq_n_f32(x); }
  static F addf(F a, F b) { return vaddq_f32(a, b); }
  static F subf(F a, F b) { return vsubq_f32(a, b); }
  static F mulf(F a, F b) { return vmulq_f32(a, b); }
  static F divf(F a, F b) { return vdivq_f32(a, b); }
  static F roundf_cur(F a) { return vrndiq_f32(a); }  // FRINTI: current mode
  static U castfu(F a) { return vreinterpretq_u32_f32(a); }
  static F minf(F a, F b) { return vminq_f32(a, b); }

  /// Bitmask of lanes where a > b, both unsigned (NEON compares
  /// unsigned natively; lanes collapse to bits via a weighted add).
  static unsigned gtu_mask(U a, U b) {
    static const std::uint32_t w[4] = {1, 2, 4, 8};
    return vaddvq_u32(vandq_u32(vcgtq_u32(a, b), vld1q_u32(w)));
  }

  /// dst[l] = (uint64)m[l] << 32 | idx[l], in lane order.
  static void zip_store_keys(std::uint64_t* dst, U idx, U m) {
    const uint32x4x2_t z = vzipq_u32(idx, m);
    vst1q_u32(reinterpret_cast<std::uint32_t*>(dst), z.val[0]);
    vst1q_u32(reinterpret_cast<std::uint32_t*>(dst) + 4, z.val[1]);
  }

  /// Appends the surviving lanes' (m << 32 | idx) keys to dst in lane
  /// order (lane l survives when bit l of keep_mask is set); returns
  /// the count. May write up to W slots regardless of the count.
  static std::size_t compress_store_keys(std::uint64_t* dst, U idx, U m,
                                         unsigned keep_mask) {
    std::uint32_t ib[4], mb[4];
    vst1q_u32(ib, idx);
    vst1q_u32(mb, m);
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
    std::uint32_t b[4];
    vst1q_u32(b, v);
    std::size_t n = 0;
    for (unsigned l = 0; l < 4; ++l) {
      dst[n] = b[l];
      n += (keep_mask >> l) & 1u;  // branchless append
    }
    return n;
  }

  // No gather instruction: extract indices, scalar loads.
  static F gather(const float* t, U idx) {
    float v[4] = {t[vgetq_lane_u32(idx, 0)], t[vgetq_lane_u32(idx, 1)],
                  t[vgetq_lane_u32(idx, 2)], t[vgetq_lane_u32(idx, 3)]};
    return vld1q_f32(v);
  }

  static U gather_u32(const std::uint32_t* t, U idx) {
    std::uint32_t v[4] = {t[vgetq_lane_u32(idx, 0)], t[vgetq_lane_u32(idx, 1)],
                          t[vgetq_lane_u32(idx, 2)], t[vgetq_lane_u32(idx, 3)]};
    return vld1q_u32(v);
  }

  /// Gather of u16 table entries, zero-extended to u32 lanes.
  static U gather_u16(const std::uint16_t* t, U idx) {
    std::uint32_t v[4] = {t[vgetq_lane_u32(idx, 0)], t[vgetq_lane_u32(idx, 1)],
                          t[vgetq_lane_u32(idx, 2)], t[vgetq_lane_u32(idx, 3)]};
    return vld1q_u32(v);
  }

  static U min_u32(U a, U b) { return vminq_u32(a, b); }
  static U max_u32(U a, U b) { return vmaxq_u32(a, b); }

  // ---- u64 key lanes (the packed-key select, simd_select.h) ----
  /// Bitmask of u64 lanes where a > b, unsigned.
  static unsigned gtu64_mask(U a, U b) {
    const uint64x2_t gt = vcgtq_u64(vreinterpretq_u64_u32(a), vreinterpretq_u64_u32(b));
    return static_cast<unsigned>((vgetq_lane_u64(gt, 0) & 1u) |
                                 ((vgetq_lane_u64(gt, 1) & 1u) << 1));
  }
  /// The sorting network's u64 domain: the keys themselves (the
  /// compares are unsigned already).
  static U bias_u64(U a) { return a; }
  static U min_biased_u64(U a, U b) {
    const uint64x2_t a64 = vreinterpretq_u64_u32(a), b64 = vreinterpretq_u64_u32(b);
    return vreinterpretq_u32_u64(vbslq_u64(vcgtq_u64(a64, b64), b64, a64));
  }
  static U max_biased_u64(U a, U b) {
    const uint64x2_t a64 = vreinterpretq_u64_u32(a), b64 = vreinterpretq_u64_u32(b);
    return vreinterpretq_u32_u64(vbslq_u64(vcgtq_u64(a64, b64), a64, b64));
  }
  /// acc plus one in each u64 (u32) lane where a > b, unsigned.
  static U count_gtu64(U acc, U a, U b) {
    return vreinterpretq_u32_u64(
        vsubq_u64(vreinterpretq_u64_u32(acc),
                  vcgtq_u64(vreinterpretq_u64_u32(a), vreinterpretq_u64_u32(b))));
  }
  static U count_gtu32(U acc, U a, U b) { return vsubq_u32(acc, vcgtq_u32(a, b)); }

  /// Appends the u64 lanes of v whose bit is set in keep_mask to dst,
  /// in lane order; returns the count. May write up to 2 slots.
  static std::size_t compress_store_u64(std::uint64_t* dst, U v, unsigned keep_mask) {
    std::uint64_t b[2];
    vst1q_u64(b, vreinterpretq_u64_u32(v));
    std::size_t n = 0;
    for (unsigned l = 0; l < 2; ++l) {
      dst[n] = b[l];
      n += (keep_mask >> l) & 1u;  // branchless append
    }
    return n;
  }

  /// out[l] = v[idx[l]] over uint32 lanes: TBL on the byte indices
  /// 4*idx + (0, 1, 2, 3).
  static U permute(U v, U idx) {
    const U bytes = vaddq_u32(vmulq_n_u32(vshlq_n_u32(idx, 2), 0x01010101u),
                              vdupq_n_u32(0x03020100u));
    return vreinterpretq_u32_u8(
        vqtbl1q_u8(vreinterpretq_u8_u32(v), vreinterpretq_u8_u32(bytes)));
  }

  /// Lane l of b where bit l of bits is set, else lane l of a.
  static U blend(unsigned bits, U a, U b) {
    static const std::uint32_t w[4] = {1, 2, 4, 8};
    return vbslq_u32(vtstq_u32(vdupq_n_u32(bits), vld1q_u32(w)), b, a);
  }

  /// Zero-extends W uint16 values to uint32 lanes.
  static U widen_load_u16(const std::uint16_t* p) { return vmovl_u16(vld1_u16(p)); }

  /// Truncating narrow store of W uint32 lanes (each <= 65535) to uint16.
  static void narrow_store_u16(std::uint16_t* p, U v) { vst1_u16(p, vmovn_u32(v)); }

  /// acc[0..3] |= (w & 1) << j, widening the four uint32 lanes to
  /// uint64 in two halves.
  static void gather_bits(std::uint64_t* acc, U w, std::uint32_t j) {
    const U bits = vandq_u32(w, vdupq_n_u32(1));
    const uint64x2_t lo = vmovl_u32(vget_low_u32(bits));
    const uint64x2_t hi = vmovl_u32(vget_high_u32(bits));
    const int64x2_t jv = vdupq_n_s64(static_cast<std::int64_t>(j));
    uint64x2_t a0 = vld1q_u64(acc);
    uint64x2_t a1 = vld1q_u64(acc + 2);
    a0 = vorrq_u64(a0, vshlq_u64(lo, jv));
    a1 = vorrq_u64(a1, vshlq_u64(hi, jv));
    vst1q_u64(acc, a0);
    vst1q_u64(acc + 2, a1);
  }
};

}  // namespace
}  // namespace spinal::backend::simd

#endif  // __aarch64__
