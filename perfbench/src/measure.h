#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// janus::Percentile (type-7 linear interpolation) with q in [0, 1], but NaN
/// for an empty input, so that a figure with nothing behind it fails the
/// metric_finite check instead of reading 0.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  return janus::Percentile(std::move(v), 100.0 * q);
}
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// How a run aggregates one timing figure over its rounds (time slices,
/// cycles, re-optimizations; set-ups take a plain median): the best decile,
/// the 10th percentile of a time or the 90th of a rate. The 4-core host this
/// was built on changes speed by 15% and more for tens of seconds at a time
/// (a fixed memory-bound loop: 5-second medians from 37 to 49 ms within one
/// minute); a run's median follows those phases, while its best rounds
/// follow the program.
inline double BestTime(std::vector<double> v) { return Quantile(std::move(v), 0.10); }
inline double BestRate(std::vector<double> v) { return Quantile(std::move(v), 0.90); }

/// Operations of one kind, accounted per fixed-length time slice of a timed
/// window; the per-slice figures are aggregated with BestTime/BestRate.
class Slices {
 public:
  Slices(int num_slices, double slice_seconds);

  /// Slice of an operation that started at `t` (clamped to the last slice).
  int SliceOf(Clock::time_point start, Clock::time_point t) const;
  /// Record one operation: its latency, the busy time it cost and the work
  /// units (rows, queries) it completed.
  void Add(int slice, double latency_s, double busy_s, double units);
  /// Fold another Slices of the same shape in (concurrent clients).
  void Merge(const Slices& other);

  /// Per slice: the latency quantile q in seconds, units per busy second,
  /// units per wall second. Slices without operations are left out.
  std::vector<double> Quantiles(double q) const;
  std::vector<double> BusyRates() const;
  std::vector<double> WallRates() const;
  uint64_t operations() const;

 private:
  struct Slice {
    std::vector<double> latencies;
    double busy_s = 0;
    double units = 0;
  };
  double slice_seconds_;
  std::vector<Slice> slices_;
};

/// Cumulative CPU time of the whole machine, in clock ticks, from the first
/// line of /proc/stat: all states, and `steal`, time the hypervisor ran
/// something else while this machine's CPUs wanted to run.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();
/// Share of CPU time stolen between two readings (0 when unknown).
double StealShare(const CpuTicks& from, const CpuTicks& to);

/// Resident set size of this process now / its high-water mark, in bytes,
/// from /proc/self/status (0 where the file is unavailable).
size_t ResidentBytes();
size_t PeakResidentBytes();

/// One reported figure.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
