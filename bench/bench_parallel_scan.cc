// Morsel-parallel scan microbench: serial kernels (data/scan.h) vs the
// parallel execution layer (data/parallel_scan.h) on the archival patterns
// behind the paper's slow paths — full-scan aggregation, selective counting,
// threshold counting (rejection sampling) and exact DPT initialization —
// plus the k-d partition optimizer a 2-D janus engine runs at set-up and on
// every re-optimization (optimize_kd: a 2% archive sample of the
// pickup_time x trip_distance -> fare template; its "rows" are the sample's
// size) — across a sweep of worker counts. Emits one JSON line per (metric,
// threads, rows) so the CI perf-regression job can track throughput:
//
//   {"bench":"parallel_scan","metric":"full_scan_aggregate","threads":8,
//    "rows":1000000,"seconds":0.0012,"rows_per_sec":8.3e8,
//    "speedup_vs_serial":3.4,"checksum":...}
//
// Flags: rows=1000000  reps=3  threads=1,2,4,8  seed=2024
//
// Exits nonzero when a pooled run disagrees with the serial one: counts and
// k-d partition specs must match exactly, aggregates within 1e-9.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "api/config.h"
#include "core/dpt.h"
#include "core/spt.h"
#include "data/generators.h"
#include "data/parallel_scan.h"
#include "data/scan.h"
#include "data/simd.h"
#include "data/table.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace janus {
namespace {

struct Sample {
  double seconds = 0;
  double checksum = 0;
};

template <typename Fn>
Sample Best(int reps, Fn&& fn) {
  Sample best;
  best.seconds = std::numeric_limits<double>::max();
  for (int r = 0; r < reps; ++r) {
    Timer timer;
    const double checksum = fn();
    const double secs = timer.ElapsedSeconds();
    if (secs < best.seconds) best = {secs, checksum};
  }
  return best;
}

/// FNV-1a over every node's links, split dimension and split value bits,
/// the leaf list and the worst error: equal specs give equal checksums.
/// Folded to 52 bits so the double carrying it is exact.
double SpecChecksum(const PartitionResult& pr) {
  uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  const auto bits = [](double v) {
    uint64_t u;
    std::memcpy(&u, &v, sizeof u);
    return u;
  };
  for (const PartitionNode& n : pr.spec.nodes) {
    mix(static_cast<uint64_t>(n.left));
    mix(static_cast<uint64_t>(n.right));
    mix(static_cast<uint64_t>(n.split_dim));
    mix(bits(n.split_val));
  }
  for (int leaf : pr.spec.leaves) mix(static_cast<uint64_t>(leaf));
  mix(bits(pr.spec.worst_error));
  return static_cast<double>(h >> 12);
}

void Emit(const char* metric, int threads, size_t rows, const Sample& s,
          double serial_seconds) {
  std::printf(
      "{\"bench\":\"parallel_scan\",\"metric\":\"%s\",\"threads\":%d,"
      "\"rows\":%zu,\"seconds\":%.6f,\"rows_per_sec\":%.3e,"
      "\"speedup_vs_serial\":%.3f,\"checksum\":%.6e}\n",
      metric, threads, rows, s.seconds,
      s.seconds > 0 ? static_cast<double>(rows) / s.seconds : 0.0,
      s.seconds > 0 ? serial_seconds / s.seconds : 0.0, s.checksum);
}

bool RunAt(size_t rows, int reps, uint64_t seed,
           const std::vector<int>& thread_counts) {
  const GeneratedDataset ds = GenerateDataset(DatasetKind::kNycTaxi, rows,
                                              seed);
  const DefaultTemplate tmpl = DefaultTemplateFor(ds.kind);
  const std::vector<int> pred = {tmpl.predicate_column};
  const int agg = tmpl.aggregate_column;

  DynamicTable table(ds.schema);
  for (const Tuple& r : ds.rows) table.Insert(r);
  const ColumnStore& store = table.store();

  const Rectangle everything = Rectangle::Infinite(1);
  const auto [lo, hi] = scan::ColumnMinMax(store, pred[0], {});
  const double mid = lo + 0.5 * (hi - lo);
  const double half = 0.005 * (hi - lo);
  const Rectangle window({mid - half}, {mid + half});
  const size_t threshold = rows / 20;

  SptOptions sopts;
  sopts.spec.agg_column = agg;
  sopts.spec.predicate_columns = pred;
  sopts.num_leaves = 128;
  sopts.seed = seed;

  SptOptions kd_opts;
  kd_opts.spec.agg_column = ds.schema.ColumnIndex("fare");
  kd_opts.spec.predicate_columns = {ds.schema.ColumnIndex("pickup_time"),
                                    ds.schema.ColumnIndex("trip_distance")};
  kd_opts.num_leaves = 128;
  kd_opts.seed = seed;
  Rng sample_rng(seed);
  const std::vector<Tuple> kd_sample =
      table.SampleUniform(&sample_rng, rows / 50);

  // Serial baselines (the data/scan.h kernels, no pool).
  const Sample serial_agg = Best(reps, [&] {
    return scan::AggregateInRect(store, AggFunc::kSum, agg, pred, everything)
        .value_or(0);
  });
  const Sample serial_count = Best(reps, [&] {
    return static_cast<double>(scan::CountInRect(store, pred, window));
  });
  const Sample serial_atleast = Best(reps, [&] {
    return static_cast<double>(
        scan::CountInRectAtLeast(store, pred, everything, threshold));
  });
  const Sample serial_init = Best(reps, [&] {
    SptBuildResult b = BuildSpt(store, sopts);
    return b.synopsis->NodeCountEstimate(0);
  });
  const Sample serial_kd = Best(reps, [&] {
    return SpecChecksum(OptimizePartition(kd_sample, kd_opts, rows));
  });
  Emit("full_scan_aggregate", 1, rows, serial_agg, serial_agg.seconds);
  Emit("selective_count", 1, rows, serial_count, serial_count.seconds);
  Emit("count_at_least", 1, rows, serial_atleast, serial_atleast.seconds);
  Emit("dpt_init_exact", 1, rows, serial_init, serial_init.seconds);
  Emit("optimize_kd", 1, kd_sample.size(), serial_kd, serial_kd.seconds);

  bool ok = true;
  for (int threads : thread_counts) {
    if (threads <= 1) continue;
    ThreadPool pool(static_cast<size_t>(threads));
    scan::ExecContext ctx;
    ctx.pool = &pool;
    ctx.max_workers = static_cast<size_t>(threads);

    const Sample par_agg = Best(reps, [&] {
      return scan::AggregateInRect(store, AggFunc::kSum, agg, pred,
                                   everything, ctx)
          .value_or(0);
    });
    Emit("full_scan_aggregate", threads, rows, par_agg, serial_agg.seconds);

    const Sample par_count = Best(reps, [&] {
      return static_cast<double>(scan::CountInRect(store, pred, window, ctx));
    });
    Emit("selective_count", threads, rows, par_count, serial_count.seconds);

    const Sample par_atleast = Best(reps, [&] {
      return static_cast<double>(
          scan::CountInRectAtLeast(store, pred, everything, threshold, ctx));
    });
    Emit("count_at_least", threads, rows, par_atleast,
         serial_atleast.seconds);

    SptOptions popts = sopts;
    popts.exec = ctx;
    const Sample par_init = Best(reps, [&] {
      SptBuildResult b = BuildSpt(store, popts);
      return b.synopsis->NodeCountEstimate(0);
    });
    Emit("dpt_init_exact", threads, rows, par_init, serial_init.seconds);

    SptOptions pkd_opts = kd_opts;
    pkd_opts.exec = ctx;
    const Sample par_kd = Best(reps, [&] {
      return SpecChecksum(OptimizePartition(kd_sample, pkd_opts, rows));
    });
    Emit("optimize_kd", threads, kd_sample.size(), par_kd, serial_kd.seconds);

    // Correctness tripwire: counts and k-d specs are bit-identical,
    // aggregates 1e-9.
    if (par_count.checksum != serial_count.checksum ||
        par_atleast.checksum != serial_atleast.checksum) {
      std::printf("{\"bench\":\"parallel_scan\",\"error\":\"count mismatch\","
                  "\"threads\":%d}\n",
                  threads);
      ok = false;
    }
    if (par_kd.checksum != serial_kd.checksum) {
      std::printf("{\"bench\":\"parallel_scan\",\"error\":\"k-d spec "
                  "mismatch\",\"threads\":%d}\n",
                  threads);
      ok = false;
    }
    const double rel =
        serial_agg.checksum != 0
            ? (par_agg.checksum - serial_agg.checksum) / serial_agg.checksum
            : 0;
    if (rel > 1e-9 || rel < -1e-9) {
      std::printf("{\"bench\":\"parallel_scan\",\"error\":\"aggregate "
                  "mismatch\",\"threads\":%d,\"rel\":%.3e}\n",
                  threads, rel);
      ok = false;
    }
  }
  return ok;
}

}  // namespace
}  // namespace janus

int main(int argc, char** argv) {
  const janus::ArgMap args(argc, argv);
  const std::vector<int> rows_list = args.GetIntList("rows", {1000000});
  const int reps = args.GetInt("reps", 3);
  const uint64_t seed = args.GetUint64("seed", 2024);
  const std::vector<int> threads = args.GetIntList("threads", {1, 2, 4, 8});
  // Environment line (no "metric" field, so the regression checker skips
  // it): which SIMD kernel table this run used — essential context when
  // comparing numbers across machines or JANUS_SIMD settings.
  std::printf("{\"bench\":\"parallel_scan\",\"simd\":\"%s\"}\n",
              janus::scan::simd::Active().name);
  bool ok = true;
  for (int rows : rows_list) {
    if (rows <= 0) continue;
    ok = janus::RunAt(static_cast<size_t>(rows), reps, seed, threads) && ok;
  }
  // Nonzero on any serial/parallel mismatch so CI fails even though the
  // regression checker skips error lines.
  return ok ? 0 : 1;
}
