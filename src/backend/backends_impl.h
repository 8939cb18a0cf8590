#pragma once
// Internal wiring between the registry (backend.cpp) and the per-ISA
// backend translation units. Not part of the public backend API.

#include "backend/backend.h"

namespace spinal::backend {

// Factories: each returns the TU-local singleton table. A factory is
// only *defined* when its TU is compiled in (SPINAL_BACKEND_HAVE_*);
// the registry references it under the matching #ifdef.
const Backend* scalar_backend() noexcept;
const Backend* sse42_backend() noexcept;
const Backend* avx2_backend() noexcept;
const Backend* avx512_backend() noexcept;
const Backend* neon_backend() noexcept;

}  // namespace spinal::backend
