// AVX2 backend: 8 uint32 lanes, hardware gather for the constellation
// lookups. This TU (and only this TU) is compiled with -mavx2; the
// registry only hands the table out after CPUID confirms support.

#include "backend/backends_impl.h"

#if defined(__AVX2__)

#include "backend/expand.h"
#include "backend/simd_kernels.h"
#include "backend/vec_x86.h"

namespace spinal::backend {

static_assert(simd::Vec256::W <= kMaxLanes, "compress stores outgrow kCompressSlack");

const Backend* avx2_backend() noexcept {
  static const Backend b = backend_t<simd::SimdOps<simd::Vec256>>("avx2", 8);
  return &b;
}

}  // namespace spinal::backend

#endif  // __AVX2__
