#include "util/math.h"

namespace spinal::util {

double awgn_capacity(double snr_linear) noexcept {
  return std::log2(1.0 + snr_linear);
}

double awgn_capacity_real(double snr_linear) noexcept {
  return 0.5 * std::log2(1.0 + snr_linear);
}

double awgn_dispersion(double snr_linear) noexcept {
  const double log2e = 1.0 / std::log(2.0);
  const double s = snr_linear;
  return s * (s + 2.0) / ((s + 1.0) * (s + 1.0)) * log2e * log2e;
}

double awgn_snr_for_rate(double rate_bits_per_symbol) noexcept {
  return std::exp2(rate_bits_per_symbol) - 1.0;
}

double gap_to_capacity_db(double rate_bits_per_symbol, double snr_db) noexcept {
  if (rate_bits_per_symbol <= 0.0) return -snr_db - 100.0;  // no rate: huge gap
  const double needed_db = lin_to_db(awgn_snr_for_rate(rate_bits_per_symbol));
  return needed_db - snr_db;
}

double binary_entropy(double p) noexcept {
  if (p <= 0.0 || p >= 1.0) return 0.0;
  return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

double bsc_capacity(double p) noexcept { return 1.0 - binary_entropy(p); }

double bsc_dispersion(double p) noexcept {
  if (p <= 0.0 || p >= 1.0) return 0.0;
  const double llr = std::log2((1.0 - p) / p);
  return p * (1.0 - p) * llr * llr;
}

double phi(double x) noexcept { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

double phi_inverse(double p) noexcept {
  // Acklam's algorithm.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double plow = 0.02425;
  constexpr double phigh = 1 - plow;

  double x;
  if (p < plow) {
    const double q = std::sqrt(-2 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  } else if (p <= phigh) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
  } else {
    const double q = std::sqrt(-2 * std::log(1 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  // One Halley refinement step using the exact CDF.
  const double e = phi(x) - p;
  const double u = e * std::sqrt(2 * M_PI) * std::exp(x * x / 2);
  x = x - u / (1 + x * u / 2);
  return x;
}

}  // namespace spinal::util
