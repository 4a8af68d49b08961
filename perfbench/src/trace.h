#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "measure.h"

namespace perfbench {

/// One timed call into a layer of the library, recorded from the benchmark's
/// side of the call.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;  ///< since the tracer's epoch
  int64_t end_ns = 0;
  uint64_t op = 0;       ///< id of the benchmark operation it belongs to
  int32_t parent = -1;   ///< index of the enclosing span, -1 for an op root
};

/// In-memory span log of one thread, written out when the run ends. A
/// disabled tracer records nothing, so untraced runs pay one branch per call.
/// Not thread-safe: each client thread owns one and the owner merges them.
class Tracer {
 public:
  Tracer(bool enabled, Clock::time_point epoch, size_t max_spans = 1u << 20);

  bool enabled() const { return enabled_; }

  /// Open a span; returns its index (-1 when disabled or full).
  int32_t Begin(const char* name, uint64_t op, int32_t parent = -1);
  void End(int32_t index);
  /// Record a finished call timed by the caller.
  int32_t Record(const char* name, uint64_t op, int32_t parent,
                 Clock::time_point start, Clock::time_point end);

  void Absorb(const Tracer& other);

  /// Durations in seconds of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;
  size_t size() const { return spans_.size(); }

  /// Per span name: count, median duration and median self time (duration
  /// minus the part its child spans cover).
  void PrintSummary(std::FILE* out) const;
  /// One JSON object per span per line. Returns false on I/O failure.
  bool WriteJsonl(const std::string& path) const;

 private:
  int64_t Ns(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point epoch_;
  size_t max_spans_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
