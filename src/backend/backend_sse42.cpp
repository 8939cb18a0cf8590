// SSE4.2 backend: 4 uint32 lanes. This TU (and only this TU) is
// compiled with -msse4.2; the registry only hands the table out after
// CPUID confirms the CPU supports it.

#include "backend/backends_impl.h"

#if defined(__SSE4_2__)

#include "backend/expand.h"
#include "backend/simd_kernels.h"
#include "backend/vec_x86.h"

namespace spinal::backend {

static_assert(simd::Vec128::W <= kMaxLanes, "compress stores outgrow kCompressSlack");

const Backend* sse42_backend() noexcept {
  static const Backend b = backend_t<simd::SimdOps<simd::Vec128>>("sse42", 4);
  return &b;
}

}  // namespace spinal::backend

#endif  // __SSE4_2__
