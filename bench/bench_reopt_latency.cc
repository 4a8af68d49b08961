// Re-optimization latency bench: drives an open-loop query stream against a
// "janus" engine while an update stream fires re-partitioning triggers, once
// with reopt_mode=blocking (the optimizer runs inline under the exclusive
// room) and once with reopt_mode=background (the three-stage pipeline: the
// maintenance thread builds off to the side and the exclusive section shrinks
// to a pointer swap + bounded delta-tail replay). Emits one JSON line per
// (metric, mode) so the CI perf-regression job can gate query latency:
//
//   {"bench":"reopt_latency","metric":"query_p99_ms","mode":"background",
//    "rows":1000000,"latency_ms":0.021,"queries":183220}
//
// Latency metrics carry "latency_ms" (lower is better — the checker gates
// them as ceilings, unlike the throughput floors). last_blocking_ms is the
// engine's own measurement of the exclusive step of its last re-opt: the
// populate + adopt step after the optimizer in blocking mode (the optimizer
// itself also runs under exclusion there), swap+tail in background mode.
//
// The run ends with a deterministic core-level equivalence check (the
// acceptance contract of the pipeline): a background Begin/Build/Finish with
// inserts, deletes and reservoir resamples interleaved into the build window
// must answer bit-identically (counts) / 1e-12 (FP aggregates) to a blocking
// re-optimization at the same stream point. Any mismatch prints an "error"
// line and the process exits nonzero.
//
// "Steady state" is measured under the identical update storm on a twin
// engine with triggers disabled, so steady-vs-contended isolates the cost of
// the re-optimizations themselves, not update/query room contention.
//
// Flags: rows=1000000  seconds=2.0  update_rate=100000  qps=2000  seed=2024

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/config.h"
#include "api/engine.h"
#include "api/registry.h"
#include "core/janus.h"
#include "data/generators.h"
#include "util/rng.h"
#include "util/timer.h"

namespace janus {
namespace {

struct LatencyStats {
  double p50_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
  size_t queries = 0;
};

LatencyStats Summarize(std::vector<double>& ms) {
  LatencyStats s;
  s.queries = ms.size();
  if (ms.empty()) return s;
  std::sort(ms.begin(), ms.end());
  auto at = [&](double q) {
    return ms[static_cast<size_t>(q * static_cast<double>(ms.size() - 1))];
  };
  s.p50_ms = at(0.50);
  s.p99_ms = at(0.99);
  s.max_ms = ms.back();
  return s;
}

/// One query of the open-loop stream: a deterministic rotation of
/// COUNT/SUM/AVG windows (no RNG in the hot loop, so both modes issue the
/// identical query stream).
void IssueQuery(const AqpEngine& engine, size_t i) {
  const double lo = 0.02 + 0.43 * static_cast<double>((i * 37) % 101) / 101.0;
  AggQuery q;
  q.agg_column = 1;
  q.predicate_columns = {0};
  q.rect = Rectangle({lo}, {lo + 0.5});
  q.func = (i % 3 == 0)   ? AggFunc::kCount
           : (i % 3 == 1) ? AggFunc::kSum
                          : AggFunc::kAvg;
  (void)engine.Query(q);
}

struct PhaseResult {
  LatencyStats lat;
  uint64_t inserts = 0;
};

/// One time-boxed update-storm phase: an updater thread streams inserts at a
/// fixed rate for `seconds` of wall clock while this thread issues an
/// open-loop query stream at `qps`. Latency is measured from each query's
/// *scheduled* time, so a stall that dams up the stream charges every query
/// it delayed (no coordinated omission — a closed loop would silently issue
/// fewer queries across a stall and under-count it). Identical schedules on
/// both sides give the steady and contended phases the same query count and
/// the same exposure to the amortized costs every insert stream carries
/// (e.g. the sample index's scapegoat rebuilds), so their percentile delta
/// isolates the re-optimizations.
PhaseResult UpdateStormPhase(AqpEngine* engine, double seconds, double rate,
                             double qps, uint64_t id_base, uint64_t seed) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> inserted{0};
  std::thread updater([&] {
    Rng rng(seed);
    uint64_t u = 0;
    Timer t;
    while (!stop.load(std::memory_order_acquire)) {
      for (int b = 0; b < 256 && !stop.load(std::memory_order_acquire); ++b) {
        Tuple tup;
        tup.id = id_base + u;
        tup[0] = rng.NextDouble();
        tup[1] = rng.Normal(10, 3);
        engine->Insert(tup);
        ++u;
      }
      // Pace to the schedule; after falling behind (a blocking rebuild on
      // this thread), catch up burst-wise.
      const double ahead =
          static_cast<double>(u) / rate - t.ElapsedSeconds();
      if (ahead > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(std::min(ahead, 0.01)));
      }
    }
    inserted.store(u, std::memory_order_release);
  });
  const size_t total = static_cast<size_t>(seconds * qps);
  std::vector<double> ms;
  ms.reserve(total);
  Timer t;
  for (size_t i = 0; i < total; ++i) {
    const double sched = static_cast<double>(i) / qps;
    const double now = t.ElapsedSeconds();
    if (now < sched) {
      std::this_thread::sleep_for(std::chrono::duration<double>(sched - now));
    }
    IssueQuery(*engine, i);
    ms.push_back((t.ElapsedSeconds() - sched) * 1e3);
  }
  stop.store(true, std::memory_order_release);
  updater.join();
  PhaseResult r;
  r.lat = Summarize(ms);
  r.inserts = inserted.load(std::memory_order_acquire);
  return r;
}

struct ModeRun {
  PhaseResult steady;     ///< same update pressure, triggers disabled
  PhaseResult contended;  ///< triggers firing re-optimizations
  EngineStats stats;
};

ModeRun RunMode(const std::string& mode, const GeneratedDataset& ds,
                double phase_seconds, double update_rate, double qps,
                uint64_t seed) {
  EngineConfig cfg;
  cfg.engine = "janus";
  cfg.agg_column = 1;
  cfg.predicate_columns = {0};
  cfg.num_leaves = 64;
  cfg.sample_rate = 0.02;
  cfg.catchup_rate = 0.10;
  // Every trigger evaluation reports starvation, so each interval crossing
  // is a full re-optimization — the worst case the pipeline is built for.
  cfg.enable_triggers = true;
  cfg.trigger_check_interval = 4096;
  cfg.starvation_factor = 1e9;
  cfg.reopt_mode = mode;
  cfg.seed = seed;

  auto build = [&](const EngineConfig& c) {
    auto engine = EngineRegistry::Create(c);
    engine->LoadInitial(ds.rows);
    engine->Initialize();
    engine->RunCatchupToGoal();
    return engine;
  };

  ModeRun run;

  // Steady state: the identical update storm on a twin engine with triggers
  // disabled — query latency under pure update/query room contention, no
  // re-optimizations. This is the baseline "across a re-opt" compares to.
  {
    EngineConfig steady_cfg = cfg;
    steady_cfg.enable_triggers = false;
    auto engine = build(steady_cfg);
    run.steady = UpdateStormPhase(engine.get(), phase_seconds, update_rate,
                                  qps, 10000000, seed + 17);
  }

  // Contended: same storm, triggers firing a full re-optimization at every
  // check-interval crossing (~updates/interval of them).
  auto engine = build(cfg);
  run.contended = UpdateStormPhase(engine.get(), phase_seconds, update_rate,
                                   qps, 10000000, seed + 17);

  // Background mode: let the maintenance thread drain any still-queued
  // request so last_blocking_seconds describes a completed adoption.
  uint64_t adopted = engine->Stats().background_reopts;
  for (int spins = 0; spins < 100; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const uint64_t now =
        engine->Stats().background_reopts + engine->Stats().background_discards;
    if (now == adopted && spins > 10) break;
    adopted = now;
  }
  run.stats = engine->Stats();
  return run;
}

void Emit(const char* metric, const std::string& mode, size_t rows,
          double latency_ms, size_t queries) {
  std::printf(
      "{\"bench\":\"reopt_latency\",\"metric\":\"%s\",\"mode\":\"%s\","
      "\"rows\":%zu,\"latency_ms\":%.6f,\"queries\":%zu}\n",
      metric, mode.c_str(), rows, latency_ms, queries);
}

void EmitMode(const std::string& mode, size_t rows, const ModeRun& r) {
  Emit("steady_p50_ms", mode, rows, r.steady.lat.p50_ms, r.steady.lat.queries);
  Emit("steady_p99_ms", mode, rows, r.steady.lat.p99_ms, r.steady.lat.queries);
  Emit("query_p50_ms", mode, rows, r.contended.lat.p50_ms,
       r.contended.lat.queries);
  Emit("query_p99_ms", mode, rows, r.contended.lat.p99_ms,
       r.contended.lat.queries);
  Emit("query_max_ms", mode, rows, r.contended.lat.max_ms,
       r.contended.lat.queries);
  Emit("last_blocking_ms", mode, rows, r.stats.last_blocking_seconds * 1e3,
       r.contended.lat.queries);
  // Context line (no "metric": the regression checker skips it).
  std::printf(
      "{\"bench\":\"reopt_latency\",\"mode\":\"%s\",\"rows\":%zu,"
      "\"repartitions\":%llu,\"background_reopts\":%llu,"
      "\"delta_ops_replayed\":%llu,\"last_reopt_ms\":%.3f,"
      "\"steady_inserts\":%llu,\"contended_inserts\":%llu}\n",
      mode.c_str(), rows,
      static_cast<unsigned long long>(r.stats.repartitions),
      static_cast<unsigned long long>(r.stats.background_reopts),
      static_cast<unsigned long long>(r.stats.delta_ops_replayed),
      r.stats.last_reopt_seconds * 1e3,
      static_cast<unsigned long long>(r.steady.inserts),
      static_cast<unsigned long long>(r.contended.inserts));
}

// --- Deterministic blocking-vs-background equivalence ------------------------

/// Applies one identical insert/delete stream to both instances (lockstep:
/// identical reservoir decisions and RNG draws on each side).
class LockstepStream {
 public:
  LockstepStream(uint64_t seed, uint64_t first_id, std::vector<uint64_t> live)
      : rng_(seed), next_id_(first_id), live_(std::move(live)) {}

  bool Apply(JanusAqp* a, JanusAqp* b, int ops, double delete_prob) {
    for (int i = 0; i < ops; ++i) {
      if (!live_.empty() && rng_.NextDouble() < delete_prob) {
        const size_t pick = static_cast<size_t>(rng_.Next() % live_.size());
        const uint64_t id = live_[pick];
        live_[pick] = live_.back();
        live_.pop_back();
        if (!a->Delete(id) || !b->Delete(id)) return false;
        continue;
      }
      Tuple t;
      t.id = next_id_++;
      t[0] = rng_.NextDouble();
      t[1] = rng_.Normal(10, 3);
      a->Insert(t);
      b->Insert(t);
    }
    return true;
  }

 private:
  Rng rng_;
  uint64_t next_id_;
  std::vector<uint64_t> live_;
};

bool EquivError(const char* what, double blocking, double background) {
  std::printf(
      "{\"bench\":\"reopt_latency\",\"error\":\"equivalence mismatch\","
      "\"what\":\"%s\",\"blocking\":%.17g,\"background\":%.17g}\n",
      what, blocking, background);
  return false;
}

/// Background pipeline with a mid-build update window (inserts, deletes,
/// reservoir resamples, delta tail) vs a blocking re-opt at the same stream
/// point. Counts must match bit-identically, FP aggregates to 1e-12.
bool EquivalenceCheck(uint64_t seed) {
  JanusOptions o;
  o.spec.agg_column = 1;
  o.spec.predicate_columns = {0};
  o.num_leaves = 16;
  o.sample_rate = 0.02;
  o.catchup_rate = 0.10;
  // Triggers armed but silent (interval above any op count here): the only
  // evaluation is the manual CheckTriggers loop driving the blocking rebuild.
  o.enable_triggers = true;
  o.trigger_check_interval = 1u << 20;
  o.starvation_factor = 1e9;
  o.reopt_delta_tail = 16;
  o.seed = seed;
  JanusAqp blocking(o);
  JanusOptions bg_opts = o;
  bg_opts.reopt_mode = ReoptMode::kBackground;
  JanusAqp background(bg_opts);

  const GeneratedDataset ds =
      GenerateUniform(4000, 1, static_cast<int>(seed % 997));
  std::vector<uint64_t> live;
  for (const Tuple& t : ds.rows) live.push_back(t.id);
  for (JanusAqp* s : {&blocking, &background}) {
    s->LoadInitial(ds.rows);
    s->Initialize();
  }

  LockstepStream stream(seed + 1, 20000000, std::move(live));
  if (!stream.Apply(&blocking, &background, 600, 0.3)) {
    return EquivError("pre-pipeline stream", 0, 0);
  }

  // Point P: background opens the pipeline; blocking runs the full rebuild
  // inline. Both draw exactly one RNG value (the catch-up seed).
  if (!background.BeginBackgroundReopt()) return EquivError("begin", 0, 0);
  Tuple probe;
  probe.id = 999999999;
  probe[0] = 0.5;
  probe[1] = 0.0;
  bool fired = false;
  for (int i = 0; i < (1 << 21) && !fired; ++i) {
    fired = blocking.CheckTriggers(probe);
  }
  if (!fired) return EquivError("blocking trigger never fired", 0, 0);

  // Build window: delete-heavy (shrinks the reservoir past its lower bound,
  // forcing a mid-build resample), then the side build, then a delta tail
  // replayed inside the exclusive adoption step.
  if (!stream.Apply(&blocking, &background, 3000, 1.0)) {
    return EquivError("mid-build stream", 0, 0);
  }
  background.BuildBackgroundReopt();
  if (!stream.Apply(&blocking, &background, 100, 0.3)) {
    return EquivError("tail stream", 0, 0);
  }
  if (!background.FinishBackgroundReopt()) return EquivError("finish", 0, 0);
  if (!stream.Apply(&blocking, &background, 200, 0.3)) {
    return EquivError("post-adoption stream", 0, 0);
  }
  blocking.RunCatchupToGoal();
  background.RunCatchupToGoal();

  bool ok = true;
  Rng rng(seed + 77);
  const AggFunc funcs[] = {AggFunc::kCount, AggFunc::kSum, AggFunc::kAvg,
                           AggFunc::kMin, AggFunc::kMax};
  for (int round = 0; round < 25 && ok; ++round) {
    const double x = rng.NextDouble(), y = rng.NextDouble();
    for (AggFunc f : funcs) {
      AggQuery q;
      q.func = f;
      q.agg_column = 1;
      q.predicate_columns = {0};
      q.rect = Rectangle({std::min(x, y)}, {std::max(x, y)});
      const double ra = blocking.Query(q).estimate;
      const double rb = background.Query(q).estimate;
      if (f == AggFunc::kCount) {
        if (ra != rb) ok = EquivError("count", ra, rb);
      } else if (ra != rb) {
        const double denom = std::max({std::abs(ra), std::abs(rb), 1e-300});
        if (std::abs(ra - rb) / denom > 1e-12) ok = EquivError("agg", ra, rb);
      }
    }
  }
  return ok;
}

}  // namespace
}  // namespace janus

int main(int argc, char** argv) {
  const janus::ArgMap args(argc, argv);
  const size_t rows =
      static_cast<size_t>(std::max(args.GetInt("rows", 1000000), 10000));
  const double phase_seconds =
      std::max(args.GetDouble("seconds", 2.0), 0.25);
  const double update_rate =
      std::max(args.GetDouble("update_rate", 100000.0), 1000.0);
  const double qps = std::max(args.GetDouble("qps", 2000.0), 100.0);
  const uint64_t seed = args.GetUint64("seed", 2024);

  const janus::GeneratedDataset ds =
      janus::GenerateUniform(rows, 1, static_cast<int>(seed % 1000));
  const janus::ModeRun blocking =
      janus::RunMode("blocking", ds, phase_seconds, update_rate, qps, seed);
  janus::EmitMode("blocking", rows, blocking);
  const janus::ModeRun background =
      janus::RunMode("background", ds, phase_seconds, update_rate, qps,
                     seed);
  janus::EmitMode("background", rows, background);

  // Headline comparison (no "metric": context only). blocking_ratio is the
  // acceptance number — how much exclusive blocking time the pointer-swap
  // adoption saves per re-opt.
  const double bl = blocking.stats.last_blocking_seconds;
  const double bg = background.stats.last_blocking_seconds;
  std::printf(
      "{\"bench\":\"reopt_latency\",\"rows\":%zu,"
      "\"blocking_last_blocking_ms\":%.3f,"
      "\"background_last_blocking_ms\":%.3f,\"blocking_ratio\":%.1f,"
      "\"background_p99_over_steady\":%.2f}\n",
      rows, bl * 1e3, bg * 1e3, bg > 0 ? bl / bg : 0.0,
      background.steady.lat.p99_ms > 0
          ? background.contended.lat.p99_ms / background.steady.lat.p99_ms
          : 0.0);

  // Correctness gate: blocking and background must answer identically.
  return janus::EquivalenceCheck(seed) ? 0 : 1;
}
