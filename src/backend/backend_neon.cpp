// ARM NEON backend: 4 uint32 lanes, aarch64 only (see vec_neon.h).
// ASIMD is architectural on aarch64, so no extra -m flags are needed;
// the registry still auxval-probes before handing the table out.

#include "backend/backends_impl.h"

#if defined(__aarch64__)

#include "backend/expand.h"
#include "backend/simd_kernels.h"
#include "backend/vec_neon.h"

namespace spinal::backend {
namespace {
using Ops = simd::SimdOps<simd::VecNeon>;
}  // namespace

const Backend* neon_backend() noexcept {
  static const Backend b{
      "neon",
      4,
      Ops::hash_n,
      Ops::hash_children,
      Ops::premix_n,
      Ops::hash_premixed_n,
      awgn_expand_all_t<Ops>,
      bsc_expand_all_t<Ops>,
      awgn_expand_prune_t<Ops>,
      Ops::xor_rows,
      awgn_expand_all_u16_t<Ops>,
      awgn_expand_prune_u16_t<Ops>,
      lane_kernels_t<Ops, F32Lane>(),
      lane_kernels_t<Ops, U16Lane>(),
  };
  return &b;
}

}  // namespace spinal::backend

#endif  // __aarch64__
