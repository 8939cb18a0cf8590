// The portable scalar backend: the pre-backend-layer hot-path code,
// moved behind the kernel table. Always compiled, always available —
// it is both the fallback on feature-poor CPUs and the bit-identity
// reference the SIMD backends are tested against.

#include "backend/backends_impl.h"
#include "backend/expand.h"
#include "backend/scalar_kernels.h"

namespace spinal::backend {
namespace {

struct ScalarOps {
  static void hash_n(hash::Kind kind, std::uint32_t salt, const std::uint32_t* states,
                     std::size_t count, std::uint32_t data, std::uint32_t* out) {
    scalar::hash_n(kind, salt, states, count, data, out);
  }
  static void hash_children(hash::Kind kind, std::uint32_t salt,
                            const std::uint32_t* states, std::size_t count,
                            std::uint32_t fanout, std::uint32_t* out) {
    scalar::hash_children(kind, salt, states, count, fanout, out);
  }
  static void premix_n(std::uint32_t salt, const std::uint32_t* states,
                       std::size_t count, std::uint32_t* out) {
    scalar::premix_n(salt, states, count, out);
  }
  static void hash_premixed_n(const std::uint32_t* premixed, std::size_t count,
                              std::uint32_t data, std::uint32_t* out) {
    scalar::hash_premixed_n(premixed, count, data, out);
  }
  static void awgn_accum(const std::uint32_t* w, std::size_t count, const float* table,
                         std::uint32_t mask, int cbits, float yr, float yi, float* acc) {
    scalar::awgn_accum(w, count, table, mask, cbits, yr, yi, acc);
  }
  static void awgn_csi_accum(const std::uint32_t* w, std::size_t count,
                             const float* table, std::uint32_t mask, int cbits, float yr,
                             float yi, float hr, float hi, float* acc) {
    scalar::awgn_csi_accum(w, count, table, mask, cbits, yr, yi, hr, hi, acc);
  }
  static void awgn_csi_fx_accum(const std::uint32_t* w, std::size_t count,
                                const float* table, std::uint32_t mask, int cbits,
                                float yr, float yi, float hr, float hi, float fx_scale,
                                float* acc) {
    scalar::awgn_csi_fx_accum(w, count, table, mask, cbits, yr, yi, hr, hi, fx_scale, acc);
  }
  static void hash_children_premix(hash::Kind kind, std::uint32_t salt, bool premix,
                                   const std::uint32_t* states, std::size_t count,
                                   std::uint32_t fanout, std::uint32_t* out_states,
                                   std::uint32_t* out_lanes) {
    scalar::hash_children_premix(kind, salt, premix, states, count, fanout, out_states,
                                 out_lanes);
  }
  static void awgn_sweep(hash::Kind kind, std::uint32_t salt, bool premixed,
                         const std::uint32_t* lanes, std::size_t count,
                         std::uint32_t data, const float* table, std::uint32_t mask,
                         int cbits, float yr, float yi, std::uint32_t* w, float* acc) {
    scalar::awgn_sweep(kind, salt, premixed, lanes, count, data, table, mask, cbits,
                       yr, yi, w, acc);
  }
  static void awgn_sweep0(hash::Kind kind, std::uint32_t salt, bool premixed,
                          const std::uint32_t* lanes, std::size_t count,
                          std::uint32_t data, const float* table, std::uint32_t mask,
                          int cbits, float yr, float yi, std::uint32_t* w, float* acc) {
    scalar::awgn_sweep0(kind, salt, premixed, lanes, count, data, table, mask, cbits,
                        yr, yi, w, acc);
  }
  static void bsc_gather_bit(const std::uint32_t* w, std::size_t count, std::uint32_t j,
                             std::uint64_t* acc) {
    scalar::bsc_gather_bit(w, count, j, acc);
  }
  static void bsc_hamming_add(const std::uint64_t* acc, std::size_t count,
                              std::uint64_t rx_word, float* costs) {
    scalar::bsc_hamming_add(acc, count, rx_word, costs);
  }
  template <class Lane, class Child = typename Lane::cost_t>
  static std::size_t d1_prune(const typename Lane::cost_t* parent_cost,
                              const Child* child_cost, std::size_t count,
                              std::uint32_t fanout, std::uint32_t cand_base,
                              typename Lane::key_t bound_key,
                              typename Lane::key_t* out_keys) {
    return scalar::d1_prune<Lane, Child>(parent_cost, child_cost, count, fanout,
                                         cand_base, bound_key, out_keys);
  }
  static std::size_t partial_compress(const float* parent_cost, float* acc,
                                      std::size_t count, std::uint32_t fanout,
                                      std::uint64_t bound_key, std::uint32_t* lanes,
                                      std::uint32_t* idx_out) {
    return scalar::partial_compress(parent_cost, acc, count, fanout, bound_key, lanes,
                                    idx_out);
  }
  static std::size_t final_prune(const float* parent_cost, const float* acc,
                                 const std::uint32_t* idx, std::size_t n,
                                 int log2_fanout, std::uint32_t cand_base,
                                 std::uint64_t bound_key, std::uint64_t* out_keys) {
    return scalar::final_prune(parent_cost, acc, idx, n, log2_fanout, cand_base,
                               bound_key, out_keys);
  }
  template <class Lane>
  static void row_mins(const typename Lane::cost_t* leaf_cost,
                       const typename Lane::cost_t* child_cost, std::size_t leaves,
                       std::uint32_t fanout, typename Lane::cost_t* out) {
    scalar::row_mins<Lane>(leaf_cost, child_cost, leaves, fanout, out);
  }
  template <class Lane>
  static void regroup_emit(const std::uint32_t* child_state,
                           const typename Lane::cost_t* child_cost,
                           const typename Lane::cost_t* leaf_cost,
                           const std::uint32_t* leaf_path, std::size_t leaves,
                           std::uint32_t fanout, int k, int d, std::uint32_t group_mask,
                           const std::int32_t* group_rowbase, std::uint32_t* out_state,
                           typename Lane::cost_t* out_cost, std::uint32_t* out_path) {
    scalar::regroup_emit<Lane>(child_state, child_cost, leaf_cost, leaf_path, leaves,
                               fanout, k, d, group_mask, group_rowbase, out_state,
                               out_cost, out_path);
  }
  static void xor_rows(std::uint64_t* dst, const std::uint64_t* src,
                       std::size_t words) {
    scalar::xor_rows(dst, src, words);
  }

  // --- quantized (u16 path metric) policy hooks ---
  static void awgn_q_sweep(hash::Kind kind, std::uint32_t salt, bool premixed,
                           const std::uint32_t* lanes, std::size_t count,
                           std::uint32_t data, const std::uint16_t* qtab,
                           std::uint32_t qmask, std::uint32_t* w, std::uint32_t* acc) {
    scalar::awgn_q_sweep(kind, salt, premixed, lanes, count, data, qtab, qmask, w, acc);
  }
  static void awgn_q_sweep0(hash::Kind kind, std::uint32_t salt, bool premixed,
                            const std::uint32_t* lanes, std::size_t count,
                            std::uint32_t data, const std::uint16_t* qtab,
                            std::uint32_t qmask, std::uint32_t* w, std::uint32_t* acc) {
    scalar::awgn_q_sweep0(kind, salt, premixed, lanes, count, data, qtab, qmask, w, acc);
  }
  static std::size_t partial_compress_u16(const std::uint16_t* parent_cost,
                                          std::uint32_t* acc, std::size_t count,
                                          std::uint32_t fanout, std::uint32_t row_floor,
                                          std::uint32_t lane_rest,
                                          std::uint32_t bound_key, std::uint32_t* lanes,
                                          std::uint32_t* idx_out) {
    return scalar::partial_compress_u16(parent_cost, acc, count, fanout, row_floor,
                                        lane_rest, bound_key, lanes, idx_out);
  }
  static std::size_t final_prune_u16(const std::uint32_t* parent32,
                                     const std::uint32_t* acc, const std::uint32_t* idx,
                                     std::size_t n, int log2_fanout,
                                     std::uint32_t cand_base, std::uint32_t bound_key,
                                     std::uint32_t* out_keys) {
    return scalar::final_prune_u16(parent32, acc, idx, n, log2_fanout, cand_base,
                                   bound_key, out_keys);
  }
};

}  // namespace

const Backend* scalar_backend() noexcept {
  static const Backend b{
      "scalar",
      1,
      ScalarOps::hash_n,
      ScalarOps::hash_children,
      ScalarOps::premix_n,
      ScalarOps::hash_premixed_n,
      awgn_expand_all_t<ScalarOps>,
      bsc_expand_all_t<ScalarOps>,
      awgn_expand_prune_t<ScalarOps>,
      ScalarOps::xor_rows,
      awgn_expand_all_u16_t<ScalarOps>,
      awgn_expand_prune_u16_t<ScalarOps>,
      lane_kernels_t<ScalarOps, F32Lane>(),
      lane_kernels_t<ScalarOps, U16Lane>(),
  };
  return &b;
}

}  // namespace spinal::backend
