#include "workload.h"

#include <stdexcept>

#include "core/spt.h"
#include "data/exec_context.h"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"setup_s", "s"},
      {"query_p50_ms", "ms"},
      {"query_p99_ms", "ms"},
      {"query_qps", "1/s"},
      {"update_rows_per_s", "rows/s"},
      {"update_p50_ms", "ms"},
      {"update_p99_ms", "ms"},
      {"reopt_s", "s"},
      {"err_median", "rel"},
      {"err_p95", "rel"},
      {"synopsis_mb", "MiB"},
      {"peak_rss_mb", "MiB"},
  };
  return kNames;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"net.overhead_p50_us", "us"},
      {"net.codec_ns_per_query", "ns"},
      {"net.bytes_per_query", "bytes"},
      {"server.queries_per_batch", "count"},
      {"api.query_p50_us", "us"},
      {"sharded.query_idle_p50_us", "us"},
      {"dpt.query_p50_us", "us"},
      {"api.insert_p50_us", "us"},
      {"api.delete_p50_us", "us"},
      {"core.repartitions", "count"},
      {"core.partial_repartitions", "count"},
      {"core.trigger_fires", "count"},
      {"core.optimize_ms", "ms"},
      {"core.catchup_ms", "ms"},
      {"data.load_rows_per_s", "rows/s"},
      {"data.sample_ms", "ms"},
      {"data.store_copy_ms", "ms"},
      {"data.archive_mb", "MiB"},
      {"accuracy.coverage_gap", "share"},
      {"accuracy.ci_halfwidth_rel", "rel"},
  };
  return kNames;
}

void MetricTable::Set(const std::string& name, double value) {
  for (const auto& [n, unit] : names_) {
    if (n == name) {
      values_[name] = value;
      return;
    }
  }
  throw std::logic_error("unknown metric " + name);
}

std::vector<Metric> MetricTable::Emit() const {
  std::vector<Metric> out;
  for (const auto& [name, unit] : names_) {
    const auto it = values_.find(name);
    out.push_back(Metric{name, it == values_.end() ? 0.0 : it->second, unit});
  }
  return out;
}

janus::EngineConfig MakeConfig(const std::string& engine, const Template& t,
                               uint64_t synopsis_seed) {
  janus::EngineConfig c;
  c.engine = engine;
  c.schema.column_names = {"pickup_time",     "dropoff_time", "trip_distance",
                           "passenger_count", "fare",         "pickup_time_of_day"};
  c.agg_column = t.agg_column;
  c.predicate_columns = t.predicate_columns;
  c.seed = synopsis_seed;
  return c;
}

SetupTiming TimedSetup(janus::AqpEngine* engine,
                       const std::vector<janus::Tuple>& rows, Tracer* tracer,
                       uint64_t op) {
  SetupTiming t;
  const int32_t root = tracer->Begin("setup", op);
  Clock::time_point a = Clock::now();
  engine->LoadInitial(rows);
  Clock::time_point b = Clock::now();
  tracer->Record("api.load_initial", op, root, a, b);
  t.load_s = SecondsBetween(a, b);
  a = Clock::now();
  engine->Initialize();
  b = Clock::now();
  tracer->Record("api.initialize", op, root, a, b);
  t.init_s = SecondsBetween(a, b);
  a = Clock::now();
  engine->RunCatchupToGoal();
  b = Clock::now();
  tracer->Record("api.catchup_to_goal", op, root, a, b);
  t.catchup_s = SecondsBetween(a, b);
  tracer->End(root);
  return t;
}

std::vector<ExactAnswer> ExactAnswers(const Mirror& mirror,
                                      const std::vector<janus::AggQuery>& qs) {
  std::vector<ExactAnswer> out;
  out.reserve(qs.size());
  for (const janus::AggQuery& q : qs) out.push_back(mirror.Exact(q));
  return out;
}

void Score(const std::vector<janus::AggQuery>& qs,
           const std::vector<janus::QueryResult>& answers,
           const std::vector<ExactAnswer>& exact, Accuracy* acc,
           Checker* checks) {
  for (size_t i = 0; i < qs.size(); ++i) {
    if (checks->AnswerSane(answers[i])) acc->Add(qs[i].func, answers[i], exact[i]);
  }
}

void ReportAccuracy(const Accuracy& acc, MetricTable* e2e, MetricTable* layer,
                    RunResult* out) {
  const double err = acc.ErrMedian();
  e2e->Set("err_median", err);
  e2e->Set("err_p95", acc.ErrP95());
  layer->Set("accuracy.coverage_gap", acc.Coverage() - 0.95);
  layer->Set("accuracy.ci_halfwidth_rel", acc.CiHalfwidthRel());
  out->checks.ErrCeiling(err);
  out->checks.CoverageFloor(acc.Coverage());
  out->attempted += 2;
  out->counts.push_back({"accuracy.answers", static_cast<double>(acc.size()), "count"});
  out->counts.push_back({"accuracy.skipped", static_cast<double>(acc.skipped()), "count"});
  out->counts.push_back({"accuracy.coverage", acc.Coverage(), "share"});
  for (janus::AggFunc f : {janus::AggFunc::kSum, janus::AggFunc::kCount, janus::AggFunc::kAvg}) {
    out->counts.push_back({std::string("accuracy.err_median.") + janus::AggFuncName(f),
                           acc.ErrMedian(f), "rel"});
  }
  out->counts.push_back({"accuracy.err_median.MIN_MAX", acc.ExtremeErrMedian(), "rel"});
}

void AddEngineCounts(const janus::EngineStats& s, RunResult* out) {
  auto add = [out](const char* name, double v) {
    out->counts.push_back({name, v, "count"});
  };
  add("engine.repartitions", static_cast<double>(s.repartitions));
  add("engine.partial_repartitions", static_cast<double>(s.partial_repartitions));
  add("engine.trigger_checks", static_cast<double>(s.trigger_checks));
  add("engine.trigger_fires", static_cast<double>(s.trigger_fires));
  add("engine.catchup_processed", static_cast<double>(s.catchup_processed));
  add("engine.reservoir_resamples", static_cast<double>(s.reservoir_resamples));
  add("engine.rows", static_cast<double>(s.rows));
}

void MeasureBuildLayers(const janus::AqpEngine& engine,
                        const janus::EngineConfig& cfg, int reps, uint64_t seed,
                        Tracer* tracer, MetricTable* layer, RunResult* out) {
  const janus::DynamicTable* table = engine.table();
  const size_t sample_size = engine.Stats().sample_size;
  // The same optimizer settings the janus engine derives from its config.
  janus::SptOptions so;
  so.spec.agg_column = cfg.agg_column;
  so.spec.predicate_columns = cfg.predicate_columns;
  so.num_leaves = cfg.num_leaves;
  so.focus = cfg.focus;
  so.sample_rate = cfg.sample_rate;
  so.algorithm = cfg.algorithm;
  so.confidence = cfg.confidence;
  so.seed = cfg.seed;
  so.exec.pool = janus::scan::SharedScanPool();

  janus::Rng rng(seed);
  std::vector<double> sample_ms, optimize_ms, copy_ms;
  for (int r = 0; r < reps; ++r) {
    const uint64_t op = 1'000'000'000ULL + static_cast<uint64_t>(r);
    Clock::time_point a = Clock::now();
    const std::vector<janus::Tuple> sample = table->SampleUniform(&rng, sample_size);
    Clock::time_point b = Clock::now();
    tracer->Record("data.sample_uniform", op, -1, a, b);
    sample_ms.push_back(SecondsBetween(a, b) * 1e3);

    a = Clock::now();
    const janus::PartitionResult pr = janus::OptimizePartition(sample, so, table->size());
    b = Clock::now();
    tracer->Record("core.optimize_partition", op, -1, a, b);
    optimize_ms.push_back(SecondsBetween(a, b) * 1e3);
    out->checks.Record("optimize_ok", pr.ok && pr.spec.num_leaves() > 0,
                       "OptimizePartition failed on a reservoir-sized sample");

    a = Clock::now();
    const janus::ColumnStore copy = table->store().WithoutIndex();
    b = Clock::now();
    tracer->Record("data.store_copy", op, -1, a, b);
    copy_ms.push_back(SecondsBetween(a, b) * 1e3);
    out->checks.Record("store_copy_rows", copy.size() == table->size(),
                       "WithoutIndex copied " + std::to_string(copy.size()) +
                           " of " + std::to_string(table->size()) + " rows");
    out->attempted += 3;
  }
  layer->Set("data.sample_ms", Median(sample_ms));
  layer->Set("core.optimize_ms", Median(optimize_ms));
  layer->Set("data.store_copy_ms", Median(copy_ms));
}

}  // namespace perfbench
