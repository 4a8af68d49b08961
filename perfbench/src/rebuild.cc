// rebuild: janus over a 2M-row archive with the 2-D template
// (pickup_time x trip_distance -> fare), repeating a cycle of
//   1. a single-threaded update burst aimed at a moving hot range, so
//      triggers fire at deterministic points,
//   2. accuracy queries,
//   3. an explicit Reinitialize(),
//   4. RunCatchupToGoal(),
//   5. the accuracy queries again.
// The hot rows carry fares well above the rest, so bursts fire triggered
// re-partitions (about one per cycle, blocking the update that fires it).
// Update figures are taken per window of kWindowOps updates and query
// figures per cycle, aggregated with BestTime/BestRate, so where the fires
// fall does not swing them; the fires show in the core.* counts.
// It puts the build side on the critical path (archive sampling, the k-d
// optimizer, synopsis adoption with its archive copy, catch-up), which the
// other workloads barely touch, and exercises the k-d partitioner and index.

#include <algorithm>
#include <cmath>
#include <memory>

#include "api/registry.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr size_t kDefaultRows = 2'000'000;
/// Set-ups before the cycles, each with its own synopsis seed and scored
/// for accuracy; setup_s is their median.
constexpr int kSetups = 6;
constexpr size_t kAccuracyQueries = 300;
/// Fresh queries timed after the accuracy queries in each query step, so
/// the latency tail is not set by a few fixed slow queries.
constexpr size_t kSweepQueries = 300;
/// Inserts per burst, interleaved with as many deletes.
constexpr size_t kBurstRows = 20'000;
/// Width of the hot pickup-time range, as a share of the domain.
constexpr double kHotWidth = 0.001;
/// Fares in the hot range are this many times the generated ones: the
/// burst shifts the aggregate's variance there, which is what the
/// re-partitioning triggers watch.
constexpr double kHotFareFactor = 4.0;
/// Updates per window of the update figures (ten windows per burst).
constexpr size_t kWindowOps = 4'000;
/// Every run does at least this many cycles; the accuracy of the first
/// kScoredCycles (both query steps) enters err_*, so those figures do not
/// depend on how many cycles fit into the run.
constexpr int kMinCycles = 4;
constexpr int kScoredCycles = 4;
constexpr int kLayerReps = 5;
constexpr uint64_t kTraceStride = 7;  // odd: inserts and deletes alternate

}  // namespace

RunResult RunRebuild(const RunOptions& o) {
  const size_t n = o.rows ? o.rows : kDefaultRows;
  const Template tmpl{kFare, {kPickupTime, kTripDistance}};
  RunResult out;
  MetricTable e2e(EndToEndMetrics());
  MetricTable layer(PerLayerMetrics());
  Tracer tracer(o.trace, Clock::now());

  const std::vector<janus::Tuple> rows = TaxiRows(n, SubSeed(o.seed, 1));
  const std::vector<janus::Tuple> pool =
      TaxiRows(std::max<size_t>(n / 10, 1000), SubSeed(o.seed, 2));
  const QueryPlacer placer(rows, tmpl);
  janus::Rng qrng(SubSeed(o.seed, 3));
  const std::vector<janus::AggQuery> acc_queries = placer.DrawMix(&qrng, kAccuracyQueries);
  Mirror mirror({kPickupTime, kTripDistance, kFare});
  mirror.Reset(rows);
  const std::vector<ExactAnswer> exact0 = ExactAnswers(mirror, acc_queries);

  std::vector<double> window_latency;  // one window's, reused
  window_latency.reserve(kWindowOps);
  std::vector<double> query_latency;  // one cycle's, reused
  query_latency.reserve(2 * (kAccuracyQueries + kSweepQueries));
  const size_t base_rss = ResidentBytes();

  Accuracy acc;
  std::vector<double> setup_s, load_rate, catchup_ms;
  std::unique_ptr<janus::AqpEngine> engine;
  janus::EngineConfig cfg;
  uint64_t op = 0;
  double query_busy_s = 0;
  // Timed accuracy queries; `acc_out` collects the scores.
  auto ask = [&](const std::vector<ExactAnswer>& exact, Accuracy* acc_out,
                 bool timed) {
    std::vector<janus::QueryResult> answers;
    answers.reserve(acc_queries.size());
    for (const janus::AggQuery& q : acc_queries) {
      const Clock::time_point a = Clock::now();
      answers.push_back(engine->Query(q));
      const Clock::time_point b = Clock::now();
      if (timed) {
        query_latency.push_back(SecondsBetween(a, b));
        query_busy_s += SecondsBetween(a, b);
      }
      if (tracer.enabled() && op % kTraceStride == 0) {
        tracer.Record("api.query", op, -1, a, b);
        const Clock::time_point c = Clock::now();
        out.checks.AnswerSane(engine->synopsis()->Query(q));
        tracer.Record("dpt.query", op, -1, c, Clock::now());
      }
      ++op;
    }
    out.attempted += acc_queries.size();
    Score(acc_queries, answers, exact, acc_out, &out.checks);
    if (!timed) return;
    for (const janus::AggQuery& q : placer.DrawMix(&qrng, kSweepQueries)) {
      const Clock::time_point a = Clock::now();
      const janus::QueryResult r = engine->Query(q);
      const Clock::time_point b = Clock::now();
      out.checks.AnswerSane(r);
      query_latency.push_back(SecondsBetween(a, b));
      query_busy_s += SecondsBetween(a, b);
      if (tracer.enabled() && op % kTraceStride == 0) tracer.Record("api.query", op, -1, a, b);
      ++op;
    }
    out.attempted += kSweepQueries;
  };
  auto check_rows = [&] {
    out.checks.RowsMatch(engine->Stats().rows, mirror.size());
    out.attempted += 1;
  };

  for (int k = 0; k < kSetups; ++k) {
    engine.reset();
    cfg = MakeConfig("janus", tmpl, SubSeed(o.seed, 100 + static_cast<uint64_t>(k)));
    engine = janus::EngineRegistry::Create(cfg);
    const SetupTiming t = TimedSetup(engine.get(), rows, &tracer, static_cast<uint64_t>(k));
    out.attempted += 3;
    setup_s.push_back(t.total());
    load_rate.push_back(static_cast<double>(n) / t.load_s);
    ask(exact0, &acc, /*timed=*/false);
    check_rows();
  }

  const double span = placer.hi(0) - placer.lo(0);
  janus::Rng op_rng(SubSeed(o.seed, 6));
  uint64_t next_id = n;
  size_t pool_pos = 0;
  std::vector<double> update_rate, update_p50, update_p99;        // per window
  std::vector<double> query_p50, query_p99, query_rate, reopt_s;  // per cycle
  Accuracy unscored;
  int cycle = 0;
  const CpuTicks cpu_start = ReadCpuTicks();
  const Clock::time_point window = Clock::now();
  for (; cycle < kMinCycles || SecondsBetween(window, Clock::now()) < o.seconds; ++cycle) {
    // 1. Burst into the hot range of this cycle; deletes are uniform.
    const double hot_lo =
        placer.lo(0) + span * std::fmod(0.05 + 0.173 * cycle, 1.0 - kHotWidth);
    window_latency.clear();
    double busy = 0;
    for (size_t i = 0; i < 2 * kBurstRows; ++i, ++op) {
      if (i > 0 && i % kWindowOps == 0) {
        update_rate.push_back(static_cast<double>(window_latency.size()) / busy);
        update_p50.push_back(Quantile(window_latency, 0.50));
        update_p99.push_back(Quantile(window_latency, 0.99));
        window_latency.clear();
        busy = 0;
      }
      Clock::time_point a, b;
      const char* span_name;
      if (i % 2 == 0) {
        janus::Tuple t = pool[pool_pos++ % pool.size()];
        const double trip = t[1] - t[0];
        t[0] = hot_lo + op_rng.NextDouble() * kHotWidth * span;
        t[1] = t[0] + trip;
        t[kFare] *= kHotFareFactor;
        t.id = next_id++;
        a = Clock::now();
        engine->Insert(t);
        b = Clock::now();
        mirror.Insert(t);
        span_name = "api.insert";
      } else {
        const uint64_t id = mirror.IdAt(op_rng.NextUint64(mirror.size()));
        a = Clock::now();
        const bool deleted = engine->Delete(id);
        b = Clock::now();
        out.checks.DeleteMatches(deleted, mirror.Delete(id));
        span_name = "api.delete";
      }
      if (tracer.enabled() && op % kTraceStride == 0) tracer.Record(span_name, op, -1, a, b);
      window_latency.push_back(SecondsBetween(a, b));
      busy += window_latency.back();
    }
    out.attempted += 2 * kBurstRows;
    update_rate.push_back(static_cast<double>(window_latency.size()) / busy);
    update_p50.push_back(Quantile(window_latency, 0.50));
    update_p99.push_back(Quantile(window_latency, 0.99));
    check_rows();

    // 2.-5.
    Accuracy* scored = cycle < kScoredCycles ? &acc : &unscored;
    query_latency.clear();
    query_busy_s = 0;
    const std::vector<ExactAnswer> exact = ExactAnswers(mirror, acc_queries);
    ask(exact, scored, /*timed=*/true);
    Clock::time_point a = Clock::now();
    engine->Reinitialize();
    Clock::time_point b = Clock::now();
    tracer.Record("api.reinitialize", op, -1, a, b);
    reopt_s.push_back(SecondsBetween(a, b));
    a = Clock::now();
    engine->RunCatchupToGoal();
    b = Clock::now();
    tracer.Record("api.catchup_to_goal", op, -1, a, b);
    catchup_ms.push_back(SecondsBetween(a, b) * 1e3);
    out.attempted += 2;
    ask(exact, scored, /*timed=*/true);
    query_p50.push_back(Quantile(query_latency, 0.50));
    query_p99.push_back(Quantile(query_latency, 0.99));
    query_rate.push_back(static_cast<double>(query_latency.size()) / query_busy_s);
    check_rows();
  }

  const janus::EngineStats stats = engine->Stats();
  AddEngineCounts(stats, &out);
  out.counts.push_back({"host.steal_share", StealShare(cpu_start, ReadCpuTicks()), "share"});
  out.counts.push_back({"rebuild.cycles", static_cast<double>(cycle), "count"});
  out.counts.push_back({"rebuild.window_s", SecondsBetween(window, Clock::now()), "s"});

  e2e.Set("setup_s", Median(setup_s));
  e2e.Set("query_p50_ms", BestTime(query_p50) * 1e3);
  e2e.Set("query_p99_ms", BestTime(query_p99) * 1e3);
  e2e.Set("query_qps", BestRate(query_rate));
  e2e.Set("update_rows_per_s", BestRate(update_rate));
  e2e.Set("update_p50_ms", BestTime(update_p50) * 1e3);
  e2e.Set("update_p99_ms", BestTime(update_p99) * 1e3);
  e2e.Set("reopt_s", BestTime(reopt_s));
  e2e.Set("synopsis_mb", Mib(stats.synopsis_bytes));
  e2e.Set("peak_rss_mb", Mib(PeakResidentBytes() - base_rss));
  ReportAccuracy(acc, &e2e, &layer, &out);

  layer.Set("api.query_p50_us", Median(tracer.Durations("api.query")) * 1e6);
  layer.Set("dpt.query_p50_us", Median(tracer.Durations("dpt.query")) * 1e6);
  layer.Set("api.insert_p50_us", Median(tracer.Durations("api.insert")) * 1e6);
  layer.Set("api.delete_p50_us", Median(tracer.Durations("api.delete")) * 1e6);
  layer.Set("core.repartitions", static_cast<double>(stats.repartitions));
  layer.Set("core.partial_repartitions", static_cast<double>(stats.partial_repartitions));
  layer.Set("core.trigger_fires", static_cast<double>(stats.trigger_fires));
  layer.Set("core.catchup_ms", Median(catchup_ms));
  layer.Set("data.load_rows_per_s", Median(load_rate));
  layer.Set("data.archive_mb", Mib(stats.archive_bytes));
  if (tracer.enabled()) {
    MeasureBuildLayers(*engine, cfg, kLayerReps, SubSeed(o.seed, 7), &tracer, &layer, &out);
  }

  out.end_to_end = e2e.Emit();
  out.per_layer = layer.Emit();
  if (tracer.enabled()) {
    tracer.PrintSummary(stdout);
    if (!o.trace_out.empty() && !tracer.WriteJsonl(o.trace_out)) {
      out.checks.Record("trace_written", false, "cannot write " + o.trace_out);
    }
  }
  return out;
}

}  // namespace perfbench
