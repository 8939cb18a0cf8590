#include "spinal/theory.h"

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

std::int64_t min_attempt_symbols(int n, double C, double V) {
  constexpr double kZ = 4.0, kSlack = 16.0;
  const double need = n - kSlack;
  if (need <= 0.0) return 0;
  const auto reaches = [&](double N) { return N * C + kZ * std::sqrt(N * V) >= need; };
  // Solve C x^2 + z sqrt(V) x - need = 0 for x = sqrt(N), then settle
  // the rounding by direct evaluation of the bound.
  const double b = kZ * std::sqrt(V);
  double x;
  if (C > 0.0)
    x = (std::sqrt(b * b + 4.0 * C * need) - b) / (2.0 * C);
  else if (b > 0.0)
    x = need / b;
  else
    x = std::numeric_limits<double>::infinity();
  if (!(x * x < 1e18)) return std::numeric_limits<std::int64_t>::max();
  auto N = static_cast<std::int64_t>(std::ceil(x * x));
  while (N > 0 && reaches(static_cast<double>(N - 1))) --N;
  while (!reaches(static_cast<double>(N))) ++N;
  return N;
}

}  // namespace spinal::theory
