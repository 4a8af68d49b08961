#ifndef JANUS_UTIL_STATS_H_
#define JANUS_UTIL_STATS_H_

#include <cstddef>
#include <vector>

namespace janus {

/// Streaming first/second moment accumulator over scalar observations.
/// Supports removal, which the DPT node statistics need for deletions.
struct MomentAccumulator {
  double count = 0;
  double sum = 0;
  double sum_sq = 0;

  void Add(double x) {
    count += 1;
    sum += x;
    sum_sq += x * x;
  }
  void Remove(double x) {
    count -= 1;
    sum -= x;
    sum_sq -= x * x;
  }
  void Merge(const MomentAccumulator& o) {
    count += o.count;
    sum += o.sum;
    sum_sq += o.sum_sq;
  }
  void Subtract(const MomentAccumulator& o) {
    count -= o.count;
    sum -= o.sum;
    sum_sq -= o.sum_sq;
  }
  void Clear() { count = sum = sum_sq = 0; }

  double Mean() const { return count > 0 ? sum / count : 0.0; }
  /// Population variance (biased, divides by n). Clamped at zero to absorb
  /// floating-point cancellation.
  double Variance() const;
};

/// Percentile of a sample by linear interpolation between closest ranks at
/// rank p/100*(n-1) — the Hyndman–Fan type-7 estimator, NOT nearest-rank:
/// Percentile({1,2,3,4}, 50) is 2.5, not 2. Sorts a copy (v may be
/// unsorted). p in [0, 100]; p <= 0 returns the minimum, p >= 100 the
/// maximum, and an empty sample returns 0.
double Percentile(std::vector<double> v, double p);

/// Median convenience wrapper.
double Median(std::vector<double> v);

/// The ceil(n/2)-th smallest of the n values in *v (the lower median; NaN
/// when n == 0), found with one selection. Reorders *v.
double LowerMedian(std::vector<double>* v);

/// Arithmetic mean of a vector (0 for empty input).
double Mean(const std::vector<double>& v);

/// Normal quantile for two-sided confidence level, e.g. 0.95 -> 1.959964.
double NormalZ(double confidence);

}  // namespace janus

#endif  // JANUS_UTIL_STATS_H_
