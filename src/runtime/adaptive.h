#pragma once
// Load-adaptive effort policy: the compute/accuracy knob the paper
// quantifies in Fig 8-6 (smaller beam width B decodes faster at a rate
// penalty), generalized across codecs — beam width for spinal, BP
// iteration cap for LDPC/Raptor, turbo iteration budget for
// Turbo/Strider — and applied by queue depth. When the job queue backs
// up, decode attempts run with geometrically shrunk effort; when the
// queue is idle, a failed shrunk attempt is immediately retried at full
// effort before any more channel symbols are spent — "De-randomizing
// Shannon"'s observation that beam width is the natural overload valve,
// scheduled jointly with symbol arrival as in Li et al.
// (arXiv:2101.07953). Each session reports its own full/floor pair
// (sim::EffortProfile); the service holds only the on/off switch.

#include <algorithm>
#include <cstddef>

namespace spinal::runtime {

/// Queue depth at or below which the service counts as idle: attempts
/// run at full effort, and a failed shrunk attempt is retried at full
/// effort (costs only compute — the paper's failed-attempt currency —
/// and saves the channel symbols a missed decode would burn).
inline constexpr std::size_t kIdleDepth = 1;
/// Each additional this-many queued jobs beyond kIdleDepth halves the
/// effort.
inline constexpr std::size_t kDepthPerHalving = 32;

struct AdaptiveEffortOptions {
  bool enabled = true;
};

/// Effort for one decode attempt under the current queue depth.
/// @p full/@p floor come from the session's EffortProfile (spinal
/// sessions report floor min(16, B), iterative decoders a few
/// iterations); the floor is clamped to [1, full]. full <= 0 (no knob)
/// always yields 0, the "configured effort" sentinel.
inline int pick_effort(int full, int floor, std::size_t queue_depth) {
  if (full <= 0) return 0;
  if (queue_depth <= kIdleDepth) return full;
  const std::size_t halvings =
      (queue_depth - kIdleDepth + kDepthPerHalving - 1) / kDepthPerHalving;
  const int shrunk = halvings >= 31 ? 1 : full >> halvings;
  return std::clamp(shrunk, std::clamp(floor, 1, full), full);
}

}  // namespace spinal::runtime
