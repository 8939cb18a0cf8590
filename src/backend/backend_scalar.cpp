// The portable scalar backend: the pre-backend-layer hot-path code,
// moved behind the kernel table. Always compiled, always available —
// it is both the fallback on feature-poor CPUs and the bit-identity
// reference the SIMD backends are tested against.

#include "backend/backends_impl.h"
#include "backend/expand.h"
#include "backend/scalar_kernels.h"

namespace spinal::backend {

const Backend* scalar_backend() noexcept {
  static const Backend b = backend_t<ScalarOps>("scalar", 1);
  return &b;
}

}  // namespace spinal::backend
