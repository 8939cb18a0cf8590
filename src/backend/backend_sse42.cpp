// SSE4.2 backend: 4 uint32 lanes. This TU (and only this TU) is
// compiled with -msse4.2; the registry only hands the table out after
// CPUID confirms the CPU supports it.

#include "backend/backends_impl.h"

#if defined(__SSE4_2__)

#include "backend/expand.h"
#include "backend/simd_kernels.h"
#include "backend/vec_x86.h"

namespace spinal::backend {
namespace {
using Ops = simd::SimdOps<simd::Vec128>;
}  // namespace

const Backend* sse42_backend() noexcept {
  static const Backend b{
      "sse42",
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

#endif  // __SSE4_2__
