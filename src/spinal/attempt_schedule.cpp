#include "spinal/attempt_schedule.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "spinal/theory.h"
#include "util/math.h"

namespace spinal {

AttemptSchedule::AttemptSchedule(int every, double growth)
    : every_(every), growth_(growth), next_(every) {
  if (every < 1)
    throw std::invalid_argument(
        "attempt_every must be >= 1 (got " + std::to_string(every) +
        "); smaller values stall the attempt schedule");
  if (!(growth >= 1.0) || !std::isfinite(growth))
    throw std::invalid_argument(
        "attempt_growth must be finite and >= 1.0 (got " + std::to_string(growth) +
        "); other values shrink or overflow the attempt schedule");
}

bool AttemptSchedule::due(int step, std::int64_t symbols, std::int64_t gate) {
  if (step < next_) return false;
  // Steps are ints, so any product past INT_MAX means "never": clamp
  // there before the cast (a growth like 1e300 would overflow it).
  constexpr double kNever = 2147483648.0;
  const double grown = std::min(step * growth_, kNever);
  next_ = std::max(static_cast<std::int64_t>(step) + every_,
                   static_cast<std::int64_t>(grown));
  return symbols >= gate;
}

std::int64_t AttemptSchedule::awgn_gate(int n, double snr) {
  if (!(snr > 0.0) || !std::isfinite(snr)) return 0;
  return theory::attempt_gate_symbols(n, util::awgn_capacity(snr),
                                      util::awgn_dispersion(snr));
}

std::int64_t AttemptSchedule::bsc_gate(int n, double p) {
  return theory::attempt_gate_symbols(n, util::bsc_capacity(p), util::bsc_dispersion(p));
}

}  // namespace spinal
