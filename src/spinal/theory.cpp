#include "spinal/theory.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/math.h"

namespace spinal::theory {

double uniform_shaping_loss_real() {
  return 0.5 * std::log2(M_PI * M_E / 6.0);
}

double theorem1_delta_real(int c, double snr_linear) {
  return 3.0 * (1.0 + snr_linear) * std::pow(2.0, -c) + uniform_shaping_loss_real();
}

double theorem1_rate_bound(int c, double snr_db) {
  const double snr = util::db_to_lin(snr_db);
  const double bound = util::awgn_capacity(snr) - 2.0 * theorem1_delta_real(c, snr);
  return bound > 0.0 ? bound : 0.0;
}

int theorem1_min_passes(int k, int c, double snr_db) {
  const double per_pass = theorem1_rate_bound(c, snr_db);  // bits/symbol/pass budget
  if (per_pass <= 0.0) return -1;
  // L (C - 2 delta) > k  =>  L > k / (C - 2 delta).
  return static_cast<int>(std::floor(k / per_pass)) + 1;
}

int recommended_c(double snr_db, double epsilon) {
  const double snr = util::db_to_lin(snr_db);
  int c = 1;
  while (c < 24 && 3.0 * (1.0 + snr) * std::pow(2.0, -c) > epsilon) ++c;
  return c;
}

namespace {

constexpr double kZ = 4.0;

/// sqrt(N) at the root of N C + z sqrt(N V) = @p need (x = sqrt(N) solves
/// C x^2 + z sqrt(V) x - need = 0); infinite when C and V are both 0.
double converse_root(double need, double C, double V) {
  const double b = kZ * std::sqrt(V);
  if (C > 0.0) return (std::sqrt(b * b + 4.0 * C * need) - b) / (2.0 * C);
  if (b > 0.0) return need / b;
  return std::numeric_limits<double>::infinity();
}

}  // namespace

std::int64_t min_attempt_symbols(int n, double C, double V) {
  constexpr double kSlack = 16.0;
  const double need = n - kSlack;
  if (need <= 0.0) return 0;
  const auto reaches = [&](double N) { return N * C + kZ * std::sqrt(N * V) >= need; };
  // Settle the closed form's rounding by direct evaluation of the bound.
  const double x = converse_root(need, C, V);
  if (!(x * x < 1e18)) return std::numeric_limits<std::int64_t>::max();
  auto N = static_cast<std::int64_t>(std::ceil(x * x));
  while (N > 0 && reaches(static_cast<double>(N - 1))) --N;
  while (!reaches(static_cast<double>(N))) ++N;
  return N;
}

std::int64_t attempt_gate_symbols(int n, double C, double V) {
  constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
  std::int64_t lo = min_attempt_symbols(n, C, V);
  if (lo == 0 || lo == kNever) return lo;
  const auto reaches = [&](std::int64_t N) {
    const auto x = static_cast<double>(N);
    return x * C + kZ * std::sqrt(x * V) + 0.5 * std::log2(x) >= n;
  };
  // The log term only adds, so the z-only root N C + z sqrt(N V) >= n
  // bounds the answer from above: bisect between the two roots, in
  // O(log N) steps however small C is.
  constexpr std::int64_t kCap = 1'000'000'000'000'000'000;  // min_attempt_symbols' own cutoff
  const double x = converse_root(n, C, V);
  std::int64_t hi = x * x < 1e18 ? static_cast<std::int64_t>(std::ceil(x * x)) : kCap;
  hi = std::max(hi, lo);
  while (!reaches(hi)) {
    if (hi >= kCap) return kNever;
    ++hi;  // the closed form rounded low
  }
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (reaches(mid))
      hi = mid;
    else
      lo = mid + 1;
  }
  return lo;
}

}  // namespace spinal::theory
