// The benchmark's own tests: every check fails on a deliberately wrong input,
// the exact reference agrees with an independent computation, and a short run
// of each workload passes every check it makes.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "checks.h"
#include "inputs.h"
#include "measure.h"
#include "net/wire.h"
#include "persist/serde.h"
#include "reference.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

janus::QueryResult Answer(double estimate, double half_width) {
  janus::QueryResult r;
  r.estimate = estimate;
  r.ci_half_width = half_width;
  return r;
}

// --- each check rejects a wrong input ----------------------------------------

TEST(Checks, RowCountOffByOneFails) {
  Checker c;
  EXPECT_TRUE(c.RowsMatch(1000, 1000));
  EXPECT_FALSE(c.RowsMatch(1001, 1000));
  EXPECT_FALSE(c.RowsMatch(999, 1000));
  EXPECT_EQ(c.failed("rows"), 2u);
  EXPECT_EQ(c.failed(), 2u);
}

TEST(Checks, DeleteResultMustMatchMirror) {
  Checker c;
  EXPECT_TRUE(c.DeleteMatches(true, true));
  EXPECT_TRUE(c.DeleteMatches(false, false));
  EXPECT_FALSE(c.DeleteMatches(true, false));
  EXPECT_FALSE(c.DeleteMatches(false, true));
  EXPECT_TRUE(c.DeletedCount(64, 64));
  EXPECT_FALSE(c.DeletedCount(63, 64));
  EXPECT_EQ(c.failed("delete_result"), 3u);
}

TEST(Checks, NonFiniteOrNegativeAnswersFail) {
  Checker c;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(c.AnswerSane(Answer(10, 1)));
  EXPECT_TRUE(c.AnswerSane(Answer(10, 0)));
  EXPECT_FALSE(c.AnswerSane(Answer(nan, 1)));
  EXPECT_FALSE(c.AnswerSane(Answer(inf, 1)));
  EXPECT_FALSE(c.AnswerSane(Answer(10, nan)));
  EXPECT_FALSE(c.AnswerSane(Answer(10, -0.5)));
  janus::QueryResult failed = Answer(10, 1);
  failed.ok = false;
  EXPECT_FALSE(c.AnswerSane(failed));
  EXPECT_EQ(c.failed("finite_answer"), 5u);
}

TEST(Checks, FlippedByteInServedAnswerFails) {
  Checker c;
  janus::QueryResult direct = Answer(1234.5, 17.25);
  direct.covered_nodes = 3;
  direct.partial_leaves = 2;
  // The answer as the server sends it, decoded again: identical.
  janus::persist::Writer w;
  janus::net::WriteQueryResult(direct, &w);
  std::vector<uint8_t> payload = w.buffer();
  {
    janus::persist::Reader r(payload);
    EXPECT_TRUE(c.WireIdentical(janus::net::ReadQueryResult(&r), direct));
  }
  // One flipped bit in the estimate's bytes: decodes fine, must not pass.
  uint8_t target[sizeof(double)];
  std::memcpy(target, &direct.estimate, sizeof target);
  size_t at = 0;
  for (; at + sizeof target <= payload.size(); ++at) {
    if (std::memcmp(payload.data() + at, target, sizeof target) == 0) break;
  }
  ASSERT_LE(at + sizeof target, payload.size());
  payload[at] ^= 0x01;
  janus::persist::Reader r(payload);
  EXPECT_FALSE(c.WireIdentical(janus::net::ReadQueryResult(&r), direct));
  // Any differing field fails, down to the last bit of a double.
  janus::QueryResult off = direct;
  off.ci_half_width = std::nextafter(off.ci_half_width, 100.0);
  EXPECT_FALSE(c.WireIdentical(off, direct));
  EXPECT_EQ(c.failed("wire_identical"), 2u);
}

TEST(Checks, PerturbedEstimatesFailAccuracyChecks) {
  const std::vector<janus::Tuple> rows = TaxiRows(20'000, 5);
  Mirror mirror({kPickupTime, kTripDistance});
  mirror.Reset(rows);
  const QueryPlacer placer(rows, Template{kTripDistance, {kPickupTime}});
  janus::Rng rng(9);
  const std::vector<janus::AggQuery> qs = placer.DrawMix(&rng, 50);
  const std::vector<ExactAnswer> exact = ExactAnswers(mirror, qs);

  // Exact estimates with a small CI pass; the same answers 50% off fail.
  Accuracy good, bad;
  Checker c;
  std::vector<janus::QueryResult> right, wrong;
  for (const ExactAnswer& e : exact) {
    right.push_back(Answer(e.value, std::fabs(e.value) * 0.01));
    wrong.push_back(Answer(e.value * 1.5, std::fabs(e.value) * 0.01));
  }
  Score(qs, right, exact, &good, &c);
  Score(qs, wrong, exact, &bad, &c);
  ASSERT_GT(good.size(), 20u);
  EXPECT_TRUE(c.ErrCeiling(good.ErrMedian()));
  EXPECT_TRUE(c.CoverageFloor(good.Coverage()));
  EXPECT_NEAR(bad.ErrMedian(), 0.5, 1e-9);
  EXPECT_FALSE(c.ErrCeiling(bad.ErrMedian()));
  EXPECT_FALSE(c.CoverageFloor(bad.Coverage()));
  EXPECT_EQ(c.failed(), 2u);
}

// --- the exact reference ------------------------------------------------------

TEST(Reference, MatchesIndependentComputationUnderChurn) {
  std::vector<janus::Tuple> rows = TaxiRows(5'000, 3);
  Mirror mirror({kPickupTime, kTripDistance, kFare});
  mirror.Reset(rows);
  std::vector<janus::Tuple> pool = TaxiRows(1'000, 4, 100'000);
  janus::Rng rng(11);
  for (size_t i = 0; i < pool.size(); ++i) {
    mirror.Insert(pool[i]);
    rows.push_back(pool[i]);
    const size_t victim = rng.NextUint64(rows.size());
    ASSERT_TRUE(mirror.Delete(rows[victim].id));
    EXPECT_FALSE(mirror.Delete(rows[victim].id));
    rows[victim] = rows.back();
    rows.pop_back();
  }
  ASSERT_EQ(mirror.size(), rows.size());

  const QueryPlacer placer(rows, Template{kFare, {kPickupTime, kTripDistance}});
  for (const janus::AggQuery& q : placer.DrawMix(&rng, 100)) {
    double sum = 0, lo = 1e300, hi = -1e300;
    size_t count = 0;
    for (const janus::Tuple& t : rows) {
      const double point[2] = {t[kPickupTime], t[kTripDistance]};
      if (!q.rect.Contains(point)) continue;
      ++count;
      sum += t[kFare];
      lo = std::min(lo, t[kFare]);
      hi = std::max(hi, t[kFare]);
    }
    const ExactAnswer e = mirror.Exact(q);
    ASSERT_EQ(e.count, count);
    if (count == 0) continue;
    const double want = q.func == janus::AggFunc::kSum     ? sum
                        : q.func == janus::AggFunc::kCount ? static_cast<double>(count)
                        : q.func == janus::AggFunc::kAvg   ? sum / static_cast<double>(count)
                        : q.func == janus::AggFunc::kMin   ? lo
                                                           : hi;
    EXPECT_NEAR(e.value, want, 1e-9 * std::fabs(want));
  }
}

TEST(Measure, QuantileOfNothingIsNan) {
  // janus::Percentile reads 0 here; a figure measured over nothing must not.
  EXPECT_TRUE(std::isnan(Quantile({}, 0.5)));
}

TEST(Measure, SlicesAggregateToBestDecile) {
  Slices s(3, 1.0);
  const Clock::time_point t0 = Clock::now();
  EXPECT_EQ(s.SliceOf(t0, t0 + std::chrono::milliseconds(1500)), 1);
  EXPECT_EQ(s.SliceOf(t0, t0 + std::chrono::seconds(10)), 2);
  // Slice 1 holds a stall; the best decile over slices is not moved by it.
  for (int i = 0; i < 10; ++i) s.Add(0, 0.001, 0.001, 1);
  for (int i = 0; i < 10; ++i) s.Add(1, 0.500, 0.500, 1);
  for (int i = 0; i < 10; ++i) s.Add(2, 0.002, 0.002, 1);
  EXPECT_EQ(s.Quantiles(0.5), (std::vector<double>{0.001, 0.500, 0.002}));
  EXPECT_NEAR(BestTime(s.Quantiles(0.5)), 0.0012, 1e-12);
  EXPECT_NEAR(BestRate(s.BusyRates()), 900.0, 1e-9);
  EXPECT_EQ(s.WallRates(), (std::vector<double>{10, 10, 10}));
  EXPECT_EQ(s.operations(), 30u);
}

TEST(Trace, RecordsOnlyWhenEnabled) {
  const Clock::time_point t0 = Clock::now();
  Tracer tr(true, t0);
  const int32_t root = tr.Record("op", 1, -1, t0, t0 + std::chrono::microseconds(100));
  tr.Record("child", 1, root, t0 + std::chrono::microseconds(10),
            t0 + std::chrono::microseconds(70));
  EXPECT_EQ(tr.Durations("op").size(), 1u);
  EXPECT_NEAR(tr.Durations("child")[0], 60e-6, 1e-12);
  Tracer off(false, t0);
  EXPECT_EQ(off.Record("op", 1, -1, t0, t0), -1);
  EXPECT_EQ(off.size(), 0u);
}

// --- a short run of each workload passes every check it makes ---------------

void ExpectCleanRun(const RunResult& r, const std::vector<std::string>& checks) {
  EXPECT_EQ(r.checks.failed(), 0u);
  for (const std::string& name : checks) {
    EXPECT_GT(r.checks.passed(name), 0u) << "check never ran: " << name;
  }
  std::set<std::string> e2e, layer;
  for (const Metric& m : r.end_to_end) {
    e2e.insert(m.name);
    EXPECT_TRUE(std::isfinite(m.value)) << m.name;
    // The runs in this binary share one process, whose resident high-water
    // mark an earlier, larger run may already have set.
    if (m.name == "peak_rss_mb") continue;
    EXPECT_GT(m.value, 0) << m.name;
  }
  for (const Metric& m : r.per_layer) layer.insert(m.name);
  EXPECT_EQ(e2e.size(), EndToEndMetrics().size());
  EXPECT_EQ(layer.size(), PerLayerMetrics().size());
  EXPECT_GT(r.attempted, 0u);
}

RunOptions Short(const std::string& workload, bool trace) {
  RunOptions o;
  o.workload = workload;
  o.seed = 3;
  o.seconds = 1;
  o.trace = trace;
  o.rows = 200'000;
  return o;
}

const std::vector<std::string> kCommonChecks = {
    "rows", "delete_result", "finite_answer", "err_ceiling", "coverage_floor"};

TEST(Workloads, ChurnShortRun) {
  ExpectCleanRun(RunChurn(Short("churn", false)), kCommonChecks);
  std::vector<std::string> traced = kCommonChecks;
  traced.insert(traced.end(), {"optimize_ok", "store_copy_rows"});
  const RunResult r = RunChurn(Short("churn", true));
  ExpectCleanRun(r, traced);
  for (const Metric& m : r.per_layer) {
    if (m.name.rfind("api.", 0) == 0 || m.name.rfind("dpt.", 0) == 0 ||
        m.name == "core.optimize_ms" || m.name == "data.sample_ms" ||
        m.name == "data.store_copy_ms") {
      EXPECT_GT(m.value, 0) << m.name;
    }
  }
}

TEST(Workloads, ServeShortRun) {
  std::vector<std::string> checks = kCommonChecks;
  checks.insert(checks.end(), {"wire_identical", "insert_ack", "no_rejections"});
  ExpectCleanRun(RunServe(Short("serve", false)), checks);
  checks.push_back("codec_round_trip");
  const RunResult r = RunServe(Short("serve", true));
  ExpectCleanRun(r, checks);
  for (const Metric& m : r.per_layer) {
    if (m.name.rfind("net.", 0) == 0 || m.name == "server.queries_per_batch" ||
        m.name == "sharded.query_idle_p50_us") {
      EXPECT_GT(m.value, 0) << m.name;
    }
  }
}

TEST(Workloads, RebuildShortRun) {
  ExpectCleanRun(RunRebuild(Short("rebuild", false)), kCommonChecks);
}

}  // namespace
}  // namespace perfbench
