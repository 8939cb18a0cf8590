// Backend registry: runtime CPU-feature detection and the
// SPINAL_BACKEND environment override. This TU is always compiled with
// baseline flags, so it runs on any CPU the binary reaches.

#include "backend/backends_impl.h"

#include <cstdio>
#include <cstdlib>
#include <string>

#if defined(SPINAL_BACKEND_HAVE_NEON) && defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_ASIMD
#define HWCAP_ASIMD (1 << 1)
#endif
#endif

namespace spinal::backend {

void build_keys(const float* costs, std::size_t count, std::uint64_t* keys) {
  for (std::size_t i = 0; i < count; ++i)
    keys[i] = F32Lane::key(costs[i], static_cast<std::uint32_t>(i));
}

namespace {

#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
// __builtin_cpu_supports runs CPUID (and XGETBV for the AVX family, so
// OS save support is included) and caches the result.
[[maybe_unused]] bool cpu_has_sse42() { return __builtin_cpu_supports("sse4.2") != 0; }
[[maybe_unused]] bool cpu_has_avx2() { return __builtin_cpu_supports("avx2") != 0; }
// Exactly the features backend_avx512.cpp is compiled with (-mavx512f).
[[maybe_unused]] bool cpu_has_avx512() { return __builtin_cpu_supports("avx512f") != 0; }
#else
[[maybe_unused]] bool cpu_has_sse42() { return false; }
[[maybe_unused]] bool cpu_has_avx2() { return false; }
[[maybe_unused]] bool cpu_has_avx512() { return false; }
#endif

#if defined(SPINAL_BACKEND_HAVE_NEON)
bool cpu_has_neon() {
#if defined(__linux__)
  return (getauxval(AT_HWCAP) & HWCAP_ASIMD) != 0;
#else
  return true;  // ASIMD is architectural on aarch64
#endif
}
#endif

/// Detection order: scalar first, widest last — the default pick is
/// the back of the list.
const std::vector<const Backend*>& registry() {
  static const std::vector<const Backend*> r = [] {
    std::vector<const Backend*> v;
    v.push_back(scalar_backend());
#if defined(SPINAL_BACKEND_HAVE_SSE42)
    if (cpu_has_sse42()) v.push_back(sse42_backend());
#endif
#if defined(SPINAL_BACKEND_HAVE_AVX2)
    if (cpu_has_avx2()) v.push_back(avx2_backend());
#endif
#if defined(SPINAL_BACKEND_HAVE_AVX512)
    if (cpu_has_avx512()) v.push_back(avx512_backend());
#endif
#if defined(SPINAL_BACKEND_HAVE_NEON)
    if (cpu_has_neon()) v.push_back(neon_backend());
#endif
    return v;
  }();
  return r;
}

/// Mutable slot behind active(); resolved lazily so the SPINAL_BACKEND
/// override is read exactly once, at first use. resolve() itself
/// prints the diagnostic (with the available-backend list) on an
/// unknown name, so every resolution path tells the user what the
/// valid names are.
const Backend*& active_slot() {
  static const Backend* slot = [] {
    const char* env = std::getenv("SPINAL_BACKEND");
    bool warned = false;
    return resolve(env ? std::string_view(env) : std::string_view(), &warned);
  }();
  return slot;
}

}  // namespace

const std::vector<const Backend*>& available() noexcept { return registry(); }

const Backend* find(std::string_view name) noexcept {
  for (const Backend* b : registry())
    if (name == b->name) return b;
  return nullptr;
}

std::string available_names() {
  std::string names;
  for (const Backend* b : registry()) {
    if (!names.empty()) names += ' ';
    names += b->name;
  }
  return names;
}

const Backend* resolve(std::string_view env_value, bool* warned) noexcept {
  if (!env_value.empty()) {
    if (const Backend* b = find(env_value)) return b;
    if (warned) *warned = true;
    const Backend* best = registry().back();
    std::fprintf(stderr,
                 "spinal: SPINAL_BACKEND=%.*s is not available; using '%s' "
                 "(available: %s)\n",
                 static_cast<int>(env_value.size()), env_value.data(), best->name,
                 available_names().c_str());
    return best;
  }
  return registry().back();
}

const Backend& active() noexcept { return *active_slot(); }

bool force(std::string_view name) noexcept {
  const Backend* b = find(name);
  if (b == nullptr) return false;
  active_slot() = b;
  return true;
}

}  // namespace spinal::backend
