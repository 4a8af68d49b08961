#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/config.h"
#include "api/engine.h"
#include "checks.h"
#include "inputs.h"
#include "measure.h"
#include "reference.h"
#include "trace.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where a traced run writes its spans (JSON lines); empty writes none.
  std::string trace_out;
  /// Archive rows; 0 keeps the workload's default. Only the benchmark's own
  /// tests set it, to run the workloads small.
  size_t rows = 0;
};

/// What a run reports: every end-to-end and per-layer metric (per-layer
/// ones are measured only in a traced run and read 0 otherwise), the layer
/// counters, and the correctness tally.
struct RunResult {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> counts;
  Checker checks;
  /// Operations issued: queries, updates (or ingest frames), set-ups and
  /// re-optimizations, plus the run-level checks.
  uint64_t attempted = 0;
};

RunResult RunChurn(const RunOptions& opts);
RunResult RunServe(const RunOptions& opts);
RunResult RunRebuild(const RunOptions& opts);

/// Metric names and units, in report order. A layer a workload does not
/// pass through reports 0 for its per-layer metrics.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Named values, emitted in the fixed order of one of the lists above.
class MetricTable {
 public:
  explicit MetricTable(const std::vector<std::pair<std::string, std::string>>& names)
      : names_(names) {}
  void Set(const std::string& name, double value);
  std::vector<Metric> Emit() const;

 private:
  const std::vector<std::pair<std::string, std::string>>& names_;
  std::map<std::string, double> values_;
};

janus::EngineConfig MakeConfig(const std::string& engine, const Template& t,
                               uint64_t synopsis_seed);

/// Durations of the set-up steps from loaded rows to a query-ready engine.
struct SetupTiming {
  double load_s = 0;
  double init_s = 0;
  double catchup_s = 0;
  double total() const { return load_s + init_s + catchup_s; }
};
/// LoadInitial + Initialize + RunCatchupToGoal, each traced as a span.
SetupTiming TimedSetup(janus::AqpEngine* engine,
                       const std::vector<janus::Tuple>& rows, Tracer* tracer,
                       uint64_t op);

std::vector<ExactAnswer> ExactAnswers(const Mirror& mirror,
                                      const std::vector<janus::AggQuery>& qs);

/// Sanity-check every answer and score it against its exact answer.
void Score(const std::vector<janus::AggQuery>& qs,
           const std::vector<janus::QueryResult>& answers,
           const std::vector<ExactAnswer>& exact, Accuracy* acc,
           Checker* checks);

/// Accuracy metrics and their checks (err ceiling, coverage floor).
void ReportAccuracy(const Accuracy& acc, MetricTable* e2e, MetricTable* layer,
                    RunResult* out);

/// Counters read from the public EngineStats, printed with every run.
void AddEngineCounts(const janus::EngineStats& s, RunResult* out);

/// Build-side layers timed from outside on a janus engine's archive, `reps`
/// times (medians): DynamicTable::SampleUniform at the reservoir's size,
/// OptimizePartition on that sample, and ColumnStore::WithoutIndex of the
/// archive. The engine must not be updated concurrently.
void MeasureBuildLayers(const janus::AqpEngine& engine,
                        const janus::EngineConfig& cfg, int reps, uint64_t seed,
                        Tracer* tracer, MetricTable* layer, RunResult* out);

inline double Mib(size_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
