// AVX-512 backend: 16 uint32 lanes, mask-register compares and
// compress stores. This TU (and only this TU) is compiled with
// -mavx512f; the registry only hands the table out after CPUID
// confirms the CPU (and the OS's register save) supports it.

#include "backend/backends_impl.h"

#if defined(__AVX512F__)

#include "backend/expand.h"
#include "backend/simd_kernels.h"
#include "backend/vec_x86.h"

namespace spinal::backend {

static_assert(simd::Vec512::W <= kMaxLanes, "compress stores outgrow kCompressSlack");

const Backend* avx512_backend() noexcept {
  static const Backend b = backend_t<simd::SimdOps<simd::Vec512>>("avx512", 16);
  return &b;
}

}  // namespace spinal::backend

#endif  // __AVX512F__
