// ARM NEON backend: 4 uint32 lanes, aarch64 only (see vec_neon.h).
// ASIMD is architectural on aarch64, so no extra -m flags are needed;
// the registry still auxval-probes before handing the table out.

#include "backend/backends_impl.h"

#if defined(__aarch64__)

#include "backend/expand.h"
#include "backend/simd_kernels.h"
#include "backend/vec_neon.h"

namespace spinal::backend {

static_assert(simd::VecNeon::W <= kMaxLanes, "compress stores outgrow kCompressSlack");

const Backend* neon_backend() noexcept {
  static const Backend b = backend_t<simd::SimdOps<simd::VecNeon>>("neon", 4);
  return &b;
}

}  // namespace spinal::backend

#endif  // __aarch64__
