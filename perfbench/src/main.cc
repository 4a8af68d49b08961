// janus_perfbench: runs one workload of the end-to-end benchmark and prints
// its figures, its layer counters and the outcome of every correctness check;
// the last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
//
//   janus_perfbench --workload churn|serve|rebuild --seed N --seconds S
//                   [--trace 0|1] [--trace-out spans.jsonl]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workload.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "janus_perfbench: %s\nusage: janus_perfbench --workload "
               "churn|serve|rebuild --seed N --seconds S [--trace 0|1] "
               "[--trace-out PATH]\n",
               why);
  return 2;
}

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty() || s[0] == '-') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (*end != '\0') return false;
  *out = v;
  return true;
}

void PrintMetrics(const char* kind, const std::vector<perfbench::Metric>& ms) {
  for (const perfbench::Metric& m : ms) {
    std::printf("%s %s = %.6g %s\n", kind, m.name.c_str(), m.value, m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  uint64_t seconds = 0, trace = 0;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    bool ok = true;
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      ok = ParseU64(value, &o.seed);
    } else if (key == "--seconds") {
      ok = ParseU64(value, &seconds) && seconds > 0;
      have_seconds = true;
    } else if (key == "--trace") {
      ok = ParseU64(value, &trace) && trace <= 1;
    } else if (key == "--trace-out") {
      o.trace_out = value;
    } else {
      return Usage(("unknown flag " + key).c_str());
    }
    if (!ok) return Usage(("bad value for " + key + ": " + value).c_str());
  }
  if (!have_seconds) return Usage("--seconds is required");
  o.seconds = static_cast<double>(seconds);
  o.trace = trace == 1;

  perfbench::RunResult r;
  try {
    if (o.workload == "churn") {
      r = perfbench::RunChurn(o);
    } else if (o.workload == "serve") {
      r = perfbench::RunServe(o);
    } else if (o.workload == "rebuild") {
      r = perfbench::RunRebuild(o);
    } else {
      return Usage(("unknown workload '" + o.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "janus_perfbench: %s run aborted: %s\n",
                 o.workload.c_str(), e.what());
    return 1;
  }

  const std::vector<perfbench::Metric>& reported = o.trace ? r.per_layer : r.end_to_end;
  for (const perfbench::Metric& m : reported) {
    r.checks.Record("metric_finite", std::isfinite(m.value), m.name + " is not a number");
  }
  std::printf("workload %s seed %llu seconds %llu trace %d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed),
              static_cast<unsigned long long>(seconds), o.trace ? 1 : 0);
  PrintMetrics("metric", r.end_to_end);
  PrintMetrics("layer", r.per_layer);
  PrintMetrics("count", r.counts);
  r.checks.Print(stdout);

  const uint64_t failed = r.checks.failed();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(std::max(r.attempted, failed)),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < reported.size(); ++i) {
    const perfbench::Metric& m = reported[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
