#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

namespace janus {

double MomentAccumulator::Variance() const {
  if (count <= 0) return 0.0;
  const double mean = sum / count;
  const double v = sum_sq / count - mean * mean;
  return v > 0 ? v : 0.0;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (p <= 0) return v.front();
  if (p >= 100) return v.back();
  const double rank = p / 100.0 * (static_cast<double>(v.size()) - 1.0);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

double LowerMedian(std::vector<double>* v) {
  if (v->empty()) return std::numeric_limits<double>::quiet_NaN();
  const auto kth =
      v->begin() + static_cast<std::ptrdiff_t>((v->size() - 1) / 2);
  std::nth_element(v->begin(), kth, v->end());
  return *kth;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

namespace {

// Acklam's rational approximation to the inverse normal CDF.
double InverseNormalCdf(double p) {
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  const double phigh = 1 - plow;
  double q, r;
  if (p < plow) {
    q = std::sqrt(-2 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  if (p <= phigh) {
    q = p - 0.5;
    r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
  }
  q = std::sqrt(-2 * std::log(1 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
}

}  // namespace

double NormalZ(double confidence) {
  const double alpha = 1.0 - confidence;
  return InverseNormalCdf(1.0 - alpha / 2.0);
}

}  // namespace janus
