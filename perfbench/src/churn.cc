// churn: the paper's core loop on one engine driven directly through
// AqpEngine by one caller thread. A 1M-row archive under the 1-D template
// (pickup_time -> trip_distance) takes a stream of inserts and an equal
// number of deletes, so its size stays put, mixed with zipf-placed
// SUM/COUNT/AVG/MIN/MAX range queries. With one caller the op order, the
// trigger counts and the accuracy are all deterministic.
//
// The engine's state drifts with the number of ops it has absorbed (query
// cost moves as triggers re-partition), so a run that simply streams for
// --seconds would measure a different stretch of that drift on a faster or
// slower host. Instead the run is made of epochs: each sets up a fresh
// engine (its own synopsis seed) and replays the same pre-generated stream.
// Latency and rate figures are taken per round of the stream and aggregated
// over rounds (BestTime/BestRate), so the few rounds that hold a triggered
// re-partition (a handful per epoch, their number varying with the seed) do
// not swing them; the re-partitions show in the core.* counts. Each epoch
// sets its engine up kSetupsPerEpoch times and keeps the last, so setup_s is
// a median over 20-30 set-ups spread across the run.

#include <algorithm>
#include <memory>

#include "api/registry.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr size_t kDefaultRows = 1'000'000;
constexpr size_t kAccuracyQueries = 1000;
constexpr size_t kStreamQueries = 4096;
/// A round is kRoundOps ops in the repeating pattern insert, delete, insert,
/// delete, query, then one delete of an id that is already gone and one
/// catch-up step. Catch-up runs beside the updates as the paper's system
/// runs it: without it, a triggered re-partition leaves the engine answering
/// from its reservoir alone for the rest of the stream.
constexpr size_t kRoundOps = 10'000;
constexpr size_t kOpsPerRound = kRoundOps + 2;
constexpr size_t kCatchupBatch = 25'000;
constexpr int kEpochRounds = 30;
/// Set-ups per epoch (a 1M-row set-up takes about 0.2 s, the epoch's stream
/// about 2 s); all of them are timed, the last one's engine takes the stream.
constexpr int kSetupsPerEpoch = 3;
/// Every run does at least this many epochs; accuracy is scored on these
/// (at set-up and at the end of the stream), so err_* do not depend on how
/// many epochs fit into the run.
constexpr int kScoredEpochs = 6;
constexpr int kLayerReps = 5;
/// A traced run records the spans of one op in this many.
constexpr uint64_t kTraceStride = 8;

struct Op {
  enum class Kind : uint8_t { kInsert, kDelete, kQuery, kCatchup };
  Kind kind;
  bool expect;         ///< Delete: whether the id is live
  uint32_t query = 0;  ///< Query: index into the stream queries
  janus::Tuple row;    ///< Insert: the row; Delete: row.id
};

}  // namespace

RunResult RunChurn(const RunOptions& o) {
  const size_t n = o.rows ? o.rows : kDefaultRows;
  const Template tmpl{kTripDistance, {kPickupTime}};
  RunResult out;
  MetricTable e2e(EndToEndMetrics());
  MetricTable layer(PerLayerMetrics());
  Tracer tracer(o.trace, Clock::now());

  // Inputs, all from the seed: the archive, the accuracy and stream queries,
  // and the op stream, generated against the mirror so that every delete
  // knows whether its id is live. The mirror gives the exact answers at the
  // start and at the end of the stream.
  const std::vector<janus::Tuple> rows = TaxiRows(n, SubSeed(o.seed, 1));
  const std::vector<janus::Tuple> pool =
      TaxiRows(std::max<size_t>(n / 5, 1000), SubSeed(o.seed, 2));
  const QueryPlacer placer(rows, tmpl);
  janus::Rng qrng(SubSeed(o.seed, 3));
  const std::vector<janus::AggQuery> acc_queries = placer.DrawMix(&qrng, kAccuracyQueries);
  const std::vector<janus::AggQuery> stream_queries = placer.DrawMix(&qrng, kStreamQueries);
  Mirror mirror({kPickupTime, kTripDistance});
  mirror.Reset(rows);
  const std::vector<ExactAnswer> exact_start = ExactAnswers(mirror, acc_queries);

  std::vector<Op> ops;
  ops.reserve(kEpochRounds * kOpsPerRound);
  janus::Rng op_rng(SubSeed(o.seed, 6));
  uint64_t next_id = n;
  for (int r = 0; r < kEpochRounds; ++r) {
    uint64_t last_deleted = 0;
    for (size_t i = 0; i < kRoundOps; ++i) {
      Op op{};
      switch (i % 5) {
        case 0:
        case 2:
          op.kind = Op::Kind::kInsert;
          op.row = pool[(next_id - n) % pool.size()];
          op.row.id = next_id++;
          mirror.Insert(op.row);
          break;
        case 1:
        case 3:
          op.kind = Op::Kind::kDelete;
          op.row.id = mirror.IdAt(op_rng.NextUint64(mirror.size()));
          op.expect = mirror.Delete(op.row.id);
          last_deleted = op.row.id;
          break;
        default:
          op.kind = Op::Kind::kQuery;
          op.query = static_cast<uint32_t>(op_rng.NextUint64(kStreamQueries));
      }
      ops.push_back(op);
    }
    Op gone{};
    gone.kind = Op::Kind::kDelete;
    gone.row.id = last_deleted;
    gone.expect = mirror.Contains(last_deleted);
    ops.push_back(gone);
    Op catchup{};
    catchup.kind = Op::Kind::kCatchup;
    ops.push_back(catchup);
  }
  const std::vector<ExactAnswer> exact_end = ExactAnswers(mirror, acc_queries);
  const size_t end_rows = mirror.size();

  std::vector<double> q_lat, u_lat;  // one round's latencies, reused
  q_lat.reserve(kOpsPerRound);
  u_lat.reserve(kOpsPerRound);
  const size_t base_rss = ResidentBytes();

  Accuracy acc;
  std::vector<double> setup_s, load_rate, catchup_ms, reopt_s, synopsis_mb;
  std::vector<double> q_p50, q_p99, q_rate, u_rate, u_p50, u_p99;  // per round
  std::unique_ptr<janus::AqpEngine> engine;
  janus::EngineConfig cfg;
  janus::EngineStats stats;
  auto score = [&](const std::vector<ExactAnswer>& exact) {
    std::vector<janus::QueryResult> answers;
    answers.reserve(acc_queries.size());
    for (const janus::AggQuery& q : acc_queries) answers.push_back(engine->Query(q));
    out.attempted += acc_queries.size();
    Score(acc_queries, answers, exact, &acc, &out.checks);
  };

  int epoch = 0;
  const CpuTicks cpu_start = ReadCpuTicks();
  const Clock::time_point start = Clock::now();
  for (; epoch < kScoredEpochs || SecondsBetween(start, Clock::now()) < o.seconds; ++epoch) {
    const bool scored = epoch < kScoredEpochs;
    cfg = MakeConfig("janus", tmpl, SubSeed(o.seed, 100 + static_cast<uint64_t>(epoch)));
    for (int k = 0; k < kSetupsPerEpoch; ++k) {
      engine.reset();
      engine = janus::EngineRegistry::Create(cfg);
      const SetupTiming t = TimedSetup(engine.get(), rows, &tracer,
                                       static_cast<uint64_t>(epoch * kSetupsPerEpoch + k));
      out.attempted += 3;
      setup_s.push_back(t.total());
      load_rate.push_back(static_cast<double>(n) / t.load_s);
      catchup_ms.push_back(t.catchup_s * 1e3);
      out.checks.RowsMatch(engine->Stats().rows, n);
      out.attempted += 1;
    }
    if (scored) score(exact_start);

    q_lat.clear();
    u_lat.clear();
    double q_busy = 0, u_busy = 0;
    auto end_round = [&] {
      q_p50.push_back(Quantile(q_lat, 0.50));
      q_p99.push_back(Quantile(q_lat, 0.99));
      q_rate.push_back(static_cast<double>(q_lat.size()) / q_busy);
      u_p50.push_back(Quantile(u_lat, 0.50));
      u_p99.push_back(Quantile(u_lat, 0.99));
      u_rate.push_back(static_cast<double>(u_lat.size()) / u_busy);
      q_lat.clear();
      u_lat.clear();
      q_busy = u_busy = 0;
    };
    const uint64_t op_base = static_cast<uint64_t>(epoch) * ops.size();
    for (size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      const uint64_t op_id = op_base + i;
      const bool traced = tracer.enabled() && op_id % kTraceStride == 0;
      Clock::time_point a, b;
      if (op.kind == Op::Kind::kQuery) {
        const janus::AggQuery& q = stream_queries[op.query];
        a = Clock::now();
        const janus::QueryResult r = engine->Query(q);
        b = Clock::now();
        out.checks.AnswerSane(r);
        q_lat.push_back(SecondsBetween(a, b));
        q_busy += q_lat.back();
        if (traced) {
          tracer.Record("api.query", op_id, -1, a, b);
          // The synopsis alone, on the same query: the facade's own cost is
          // the difference. Safe without the engine's rooms: one caller.
          const Clock::time_point c = Clock::now();
          out.checks.AnswerSane(engine->synopsis()->Query(q));
          tracer.Record("dpt.query", op_id, -1, c, Clock::now());
        }
        continue;
      }
      if (op.kind == Op::Kind::kCatchup) {
        a = Clock::now();
        engine->StepCatchup(kCatchupBatch);
        b = Clock::now();
        if (traced) tracer.Record("api.step_catchup", op_id, -1, a, b);
        end_round();
        continue;
      }
      const char* name;
      if (op.kind == Op::Kind::kInsert) {
        a = Clock::now();
        engine->Insert(op.row);
        b = Clock::now();
        name = "api.insert";
      } else {
        a = Clock::now();
        const bool deleted = engine->Delete(op.row.id);
        b = Clock::now();
        out.checks.DeleteMatches(deleted, op.expect);
        name = "api.delete";
      }
      u_lat.push_back(SecondsBetween(a, b));
      u_busy += u_lat.back();
      if (traced) tracer.Record(name, op_id, -1, a, b);
    }
    out.attempted += ops.size();

    stats = engine->Stats();
    out.checks.RowsMatch(stats.rows, end_rows);
    out.attempted += 1;
    synopsis_mb.push_back(Mib(stats.synopsis_bytes));
    if (scored) score(exact_end);

    // The build-side layers, once, on the archive as the stream leaves it:
    // every epoch replays the same stream, so every epoch ends on this archive.
    if (tracer.enabled() && epoch == 0) {
      MeasureBuildLayers(*engine, cfg, kLayerReps, SubSeed(o.seed, 7), &tracer, &layer, &out);
    }
    // An explicit re-optimization of the end state (queries fenced).
    const Clock::time_point a = Clock::now();
    engine->Reinitialize();
    const Clock::time_point b = Clock::now();
    tracer.Record("api.reinitialize", op_base, -1, a, b);
    reopt_s.push_back(SecondsBetween(a, b));
    out.attempted += 1;
  }

  AddEngineCounts(stats, &out);
  out.counts.push_back({"host.steal_share", StealShare(cpu_start, ReadCpuTicks()), "share"});
  out.counts.push_back({"churn.epochs", static_cast<double>(epoch), "count"});
  out.counts.push_back({"churn.ops_per_epoch", static_cast<double>(ops.size()), "count"});

  e2e.Set("setup_s", Median(setup_s));
  e2e.Set("query_p50_ms", BestTime(q_p50) * 1e3);
  e2e.Set("query_p99_ms", BestTime(q_p99) * 1e3);
  e2e.Set("query_qps", BestRate(q_rate));
  e2e.Set("update_rows_per_s", BestRate(u_rate));
  e2e.Set("update_p50_ms", BestTime(u_p50) * 1e3);
  e2e.Set("update_p99_ms", BestTime(u_p99) * 1e3);
  e2e.Set("reopt_s", BestTime(reopt_s));
  e2e.Set("synopsis_mb", Median(synopsis_mb));
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
