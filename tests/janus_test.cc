#include "core/janus.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "data/ground_truth.h"
#include "util/thread_pool.h"

namespace janus {
namespace {

JanusOptions BaseOptions() {
  JanusOptions o;
  o.spec.agg_column = 1;
  o.spec.predicate_columns = {0};
  o.num_leaves = 32;
  o.sample_rate = 0.02;
  o.catchup_rate = 0.10;
  o.enable_triggers = false;  // triggers tested separately
  return o;
}

AggQuery MakeQuery(AggFunc f, double lo, double hi) {
  AggQuery q;
  q.func = f;
  q.agg_column = 1;
  q.predicate_columns = {0};
  q.rect = Rectangle({lo}, {hi});
  return q;
}

TEST(JanusTest, InitializeAndQuery) {
  auto ds = GenerateUniform(20000, 1, 3);
  JanusAqp system(BaseOptions());
  system.LoadInitial(ds.rows);
  system.Initialize();
  system.RunCatchupToGoal();
  const AggQuery q = MakeQuery(AggFunc::kSum, 0.2, 0.8);
  const auto truth = ExactAnswer(ds.rows, q);
  const QueryResult r = system.Query(q);
  EXPECT_LT(std::abs(r.estimate - *truth) / *truth, 0.05);
  EXPECT_GE(system.catchup_processed(), 2000u);  // 10% of 20k
}

TEST(JanusTest, InsertsReflectInQueries) {
  auto ds = GenerateUniform(10000, 1, 5);
  JanusAqp system(BaseOptions());
  system.LoadInitial(ds.rows);
  system.Initialize();
  system.RunCatchupToGoal();
  auto rows = ds.rows;
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    Tuple t;
    t.id = 1000000 + static_cast<uint64_t>(i);
    t[0] = rng.NextDouble();
    t[1] = rng.Normal(10, 2);
    system.Insert(t);
    rows.push_back(t);
  }
  EXPECT_EQ(system.counters().inserts, 5000u);
  EXPECT_EQ(system.table().size(), 15000u);
  const AggQuery q = MakeQuery(AggFunc::kCount, 0.0, 1.0);
  const auto truth = ExactAnswer(rows, q);
  const QueryResult r = system.Query(q);
  EXPECT_LT(std::abs(r.estimate - *truth) / *truth, 0.05);
}

TEST(JanusTest, DeletesReflectInQueries) {
  auto ds = GenerateUniform(10000, 1, 9);
  JanusAqp system(BaseOptions());
  system.LoadInitial(ds.rows);
  system.Initialize();
  system.RunCatchupToGoal();
  auto rows = ds.rows;
  // Delete 2000 random tuples.
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_TRUE(system.Delete(static_cast<uint64_t>(i * 5)));
  }
  std::vector<Tuple> remaining;
  for (const Tuple& t : rows) {
    if (t.id % 5 != 0 || t.id >= 10000) remaining.push_back(t);
  }
  EXPECT_EQ(system.table().size(), remaining.size());
  const AggQuery q = MakeQuery(AggFunc::kSum, 0.1, 0.9);
  const auto truth = ExactAnswer(remaining, q);
  const QueryResult r = system.Query(q);
  EXPECT_LT(std::abs(r.estimate - *truth) / *truth, 0.08);
}

TEST(JanusTest, DeleteMissingIdReturnsFalse) {
  auto ds = GenerateUniform(1000, 1, 13);
  JanusAqp system(BaseOptions());
  system.LoadInitial(ds.rows);
  system.Initialize();
  EXPECT_FALSE(system.Delete(999999));
  EXPECT_TRUE(system.Delete(5));
  EXPECT_FALSE(system.Delete(5));
}

TEST(JanusTest, HeavyDeletionsTriggerReservoirResample) {
  auto ds = GenerateUniform(5000, 1, 15);
  JanusAqp system(BaseOptions());
  system.LoadInitial(ds.rows);
  system.Initialize();
  // Delete 80% of the data; the reservoir must re-sample at least once.
  for (uint64_t id = 0; id < 4000; ++id) system.Delete(id);
  EXPECT_GE(system.counters().reservoir_resamples, 1u);
  // Reservoir samples must all still be live tuples.
  for (const Tuple& t : system.reservoir().samples()) {
    EXPECT_TRUE(system.table().Find(t.id).has_value());
  }
}

TEST(JanusTest, ReinitializeRebuildsAndRestartsCatchup) {
  auto ds = GenerateUniform(10000, 1, 17);
  JanusAqp system(BaseOptions());
  system.LoadInitial(ds.rows);
  system.Initialize();
  system.RunCatchupToGoal();
  const size_t processed_before = system.catchup_processed();
  system.Reinitialize();
  EXPECT_EQ(system.counters().repartitions, 1u);
  EXPECT_LT(system.catchup_processed(), processed_before);
  system.RunCatchupToGoal();
  const AggQuery q = MakeQuery(AggFunc::kSum, 0.3, 0.7);
  const auto truth = ExactAnswer(ds.rows, q);
  EXPECT_LT(std::abs(system.Query(q).estimate - *truth) / *truth, 0.10);
  EXPECT_GT(system.counters().last_reopt_seconds, 0.0);
  EXPECT_GE(system.counters().last_reopt_seconds,
            system.counters().last_blocking_seconds);
}

TEST(JanusTest, ConcurrentReinitializeServesOldSynopsisMeanwhile) {
  auto ds = GenerateUniform(20000, 1, 19);
  JanusAqp system(BaseOptions());
  system.LoadInitial(ds.rows);
  system.Initialize();
  system.RunCatchupToGoal();
  ASSERT_TRUE(system.BeginBackgroundReopt());
  // Between Begin and Finish — before and after the side tree is built —
  // updates and queries keep working against the old synopsis.
  Rng rng(21);
  const AggQuery q = MakeQuery(AggFunc::kCount, 0.0, 1.0);
  auto insert_some = [&](int first, int count) {
    for (int i = first; i < first + count; ++i) {
      Tuple t;
      t.id = 2000000 + static_cast<uint64_t>(i);
      t[0] = rng.NextDouble();
      t[1] = rng.Normal(10, 2);
      system.Insert(t);
    }
  };
  insert_some(0, 500);
  EXPECT_GT(system.Query(q).estimate, 0);
  system.BuildBackgroundReopt();
  insert_some(500, 500);
  EXPECT_GT(system.Query(q).estimate, 0);
  ASSERT_TRUE(system.FinishBackgroundReopt());
  EXPECT_GE(system.counters().last_blocking_seconds, 0.0);
  EXPECT_EQ(system.counters().repartitions, 1u);
  EXPECT_EQ(system.counters().background_reopts, 1u);
  // New synopsis sees all 21000 tuples.
  system.RunCatchupToGoal();
  const auto r = system.Query(q);
  EXPECT_NEAR(r.estimate, 21000.0, 21000.0 * 0.05);
}

TEST(JanusTest, MultiThreadedUpdatesAreConsistent) {
  auto ds = GenerateUniform(10000, 1, 23);
  JanusOptions opts = BaseOptions();
  JanusAqp system(opts);
  system.LoadInitial(ds.rows);
  system.Initialize();
  system.RunCatchupToGoal();
  // 8 worker threads, each inserting 1000 distinct tuples.
  ThreadPool pool(8);
  for (int w = 0; w < 8; ++w) {
    pool.Submit([&system, w] {
      Rng rng(static_cast<uint64_t>(w) + 100);
      for (int i = 0; i < 1000; ++i) {
        Tuple t;
        t.id = 3000000 + static_cast<uint64_t>(w) * 1000 +
               static_cast<uint64_t>(i);
        t[0] = rng.NextDouble();
        t[1] = rng.Normal(10, 2);
        system.Insert(t);
      }
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(system.counters().inserts, 8000u);
  EXPECT_EQ(system.table().size(), 18000u);
  const AggQuery q = MakeQuery(AggFunc::kCount, 0.0, 1.0);
  EXPECT_NEAR(system.Query(q).estimate, 18000.0, 18000.0 * 0.05);
}

TEST(JanusTest, MinMaxSupported) {
  auto ds = GenerateUniform(10000, 1, 25);
  JanusAqp system(BaseOptions());
  system.LoadInitial(ds.rows);
  system.Initialize();
  system.RunCatchupToGoal();
  const AggQuery qmin = MakeQuery(AggFunc::kMin, 0.0, 1.0);
  const AggQuery qmax = MakeQuery(AggFunc::kMax, 0.0, 1.0);
  const auto tmin = ExactAnswer(ds.rows, qmin);
  const auto tmax = ExactAnswer(ds.rows, qmax);
  // Catch-up statistics see a sample of the data, so the extremes are
  // sample extremes: inner approximations of the true MIN/MAX.
  EXPECT_GE(system.Query(qmin).estimate, *tmin - 1e-9);
  EXPECT_LE(system.Query(qmax).estimate, *tmax + 1e-9);
  EXPECT_NEAR(system.Query(qmin).estimate, *tmin, 3.0);
  EXPECT_NEAR(system.Query(qmax).estimate, *tmax, 3.0);
}

TEST(JanusTest, QueryLatencyIndependentOfTableSize) {
  // The query procedure never touches the archive: latency is a function of
  // the synopsis (k, m), not of |D| (Sec. 4.4's zero-I/O claim, tested as a
  // node-access property rather than wall clock).
  auto small = GenerateUniform(5000, 1, 27);
  auto large = GenerateUniform(50000, 1, 29);
  for (const auto* ds : {&small, &large}) {
    JanusAqp system(BaseOptions());
    system.LoadInitial(ds->rows);
    system.Initialize();
    system.RunCatchupToGoal();
    const AggQuery q = MakeQuery(AggFunc::kSum, 0.25, 0.75);
    const QueryResult r = system.Query(q);
    // Frontier sizes are bounded by the tree, not the data.
    EXPECT_LE(r.covered_nodes, 64u);
    EXPECT_LE(r.partial_leaves, 4u);
  }
}

}  // namespace
}  // namespace janus
