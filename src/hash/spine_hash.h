#pragma once
// The hash abstraction of §3.2: h : {0,1}^ν × {0,1}^k -> {0,1}^ν with
// ν = 32, drawn from a salted family (the salt plays the role of the
// random index into the pairwise-independent family H), plus the
// hash-derived RNG of §7.1: RNG(s, t) = h(s, t).

#include <cstdint>
#include <string>

namespace spinal::hash {

/// Which concrete function realises h (all three from §7.1).
enum class Kind {
  kOneAtATime,  ///< Jenkins one-at-a-time; the paper's default.
  kLookup3,     ///< Jenkins lookup3 hashword.
  kSalsa20,     ///< Bernstein Salsa20 core (cryptographic strength).
};

/// Human-readable name, for reports.
std::string kind_name(Kind kind);

/// Salted spine hash. Both ends of the link construct the same
/// SpineHash (same kind and salt); the salt may be standardised or
/// derived from a scrambler-style pseudo-random s0 (§3.2).
class SpineHash {
 public:
  explicit SpineHash(Kind kind = Kind::kOneAtATime, std::uint32_t salt = 0) noexcept
      : kind_(kind), salt_(salt) {}

  Kind kind() const noexcept { return kind_; }
  std::uint32_t salt() const noexcept { return salt_; }

  /// h(state, data): next spine value from the previous state and a
  /// k-bit message chunk (data holds the chunk in its low bits).
  std::uint32_t operator()(std::uint32_t state, std::uint32_t data) const noexcept;

  /// RNG(s, t): the t-th pseudo-random 32-bit word from spine value s.
  /// Realised as h(s, t) (§7.1), so symbols are randomly addressable —
  /// symbols lost to erased frames never need to be generated.
  std::uint32_t rng(std::uint32_t spine, std::uint32_t index) const noexcept {
    return (*this)(spine, index ^ 0x80000000u);  // domain-separate from h
  }

  /// True when h factors into a data-independent state pre-mix followed
  /// by a data mix (one-at-a-time does; lookup3 and Salsa20 do not).
  /// When it does, the decoder's per-symbol RNG draws pay the pre-mix
  /// once per state (the backend table's premix_n + hash_premixed_n,
  /// backend/backend.h), bit-identical to hashing each data word.
  bool has_premix() const noexcept { return kind_ == Kind::kOneAtATime; }

 private:
  Kind kind_;
  std::uint32_t salt_;
};

}  // namespace spinal::hash
