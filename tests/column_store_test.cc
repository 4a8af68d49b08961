// Equivalence of the SoA ColumnStore + vectorized scan kernels against the
// old row semantics: a mirror std::vector<Tuple> applies the same
// insert/delete stream (same swap-remove order), and every read path —
// materialization, sampling, counting, aggregation — must agree with a naive
// tuple loop to 1e-12.

#include "data/column_store.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "data/scan.h"
#include "data/schema.h"
#include "util/rng.h"

namespace janus {
namespace {

constexpr double kTol = 1e-12;

/// Row-oriented reference implementation with the exact pre-refactor
/// semantics of DynamicTable (swap-remove deletes, positional storage).
class RowMirror {
 public:
  void Insert(const Tuple& t) {
    index_[t.id] = live_.size();
    live_.push_back(t);
  }

  bool Delete(uint64_t id) {
    auto it = index_.find(id);
    if (it == index_.end()) return false;
    const size_t pos = it->second;
    const size_t last = live_.size() - 1;
    if (pos != last) {
      live_[pos] = live_[last];
      index_[live_[pos].id] = pos;
    }
    live_.pop_back();
    index_.erase(it);
    return true;
  }

  const std::vector<Tuple>& live() const { return live_; }

  std::vector<Tuple> SampleUniform(Rng* rng, size_t k) const {
    std::vector<size_t> idx = rng->SampleIndices(live_.size(), k);
    std::vector<Tuple> out;
    for (size_t i : idx) out.push_back(live_[i]);
    return out;
  }

 private:
  std::vector<Tuple> live_;
  std::unordered_map<uint64_t, size_t> index_;
};

Tuple RandomTuple(uint64_t id, Rng* rng, int width) {
  Tuple t;
  t.id = id;
  for (int c = 0; c < width; ++c) t[c] = rng->Uniform(-100, 100);
  return t;
}

std::optional<double> NaiveAnswer(const std::vector<Tuple>& rows,
                                  const AggQuery& q) {
  double count = 0, sum = 0;
  double mn = std::numeric_limits<double>::max();
  double mx = std::numeric_limits<double>::lowest();
  std::vector<double> point(q.predicate_columns.size());
  for (const Tuple& t : rows) {
    ProjectTuple(t, q.predicate_columns, point.data());
    if (!q.rect.Contains(point.data())) continue;
    const double v = t[q.agg_column];
    count += 1;
    sum += v;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  if (count == 0) return std::nullopt;
  switch (q.func) {
    case AggFunc::kSum:
      return sum;
    case AggFunc::kCount:
      return count;
    case AggFunc::kAvg:
      return sum / count;
    case AggFunc::kMin:
      return mn;
    case AggFunc::kMax:
      return mx;
  }
  return std::nullopt;
}

void ExpectSameTuple(const Tuple& a, const Tuple& b, int width) {
  EXPECT_EQ(a.id, b.id);
  for (int c = 0; c < width; ++c) EXPECT_DOUBLE_EQ(a[c], b[c]);
}

TEST(ColumnStoreTest, RandomizedInsertDeleteEquivalence) {
  const int width = 3;
  ColumnStore store(Schema{{"a", "b", "c"}});
  RowMirror mirror;
  Rng rng(11);
  uint64_t next_id = 0;
  for (int step = 0; step < 30000; ++step) {
    if (store.size() < 50 || rng.NextDouble() < 0.6) {
      const Tuple t = RandomTuple(next_id++, &rng, width);
      store.Insert(t);
      mirror.Insert(t);
    } else {
      // Delete a random live id (drawn by position so both sides agree).
      const uint64_t victim =
          mirror.live()[rng.NextUint64(mirror.live().size())].id;
      EXPECT_TRUE(store.Delete(victim));
      EXPECT_TRUE(mirror.Delete(victim));
    }
    ASSERT_EQ(store.size(), mirror.live().size());
  }
  // Positional equivalence: swap-remove order matches the row semantics.
  for (size_t pos = 0; pos < store.size(); ++pos) {
    ExpectSameTuple(store.RowTuple(pos), mirror.live()[pos], width);
  }
  // Find agrees for live and dead ids.
  for (uint64_t id = 0; id < next_id; id += 7) {
    const auto found = store.Find(id);
    const auto it = std::find_if(mirror.live().begin(), mirror.live().end(),
                                 [&](const Tuple& t) { return t.id == id; });
    ASSERT_EQ(found.has_value(), it != mirror.live().end());
    if (found.has_value()) ExpectSameTuple(*found, *it, width);
  }
}

TEST(ColumnStoreTest, SampleUniformMatchesRowSemantics) {
  ColumnStore store(Schema{{"a", "b"}});
  RowMirror mirror;
  Rng fill(3);
  for (uint64_t i = 0; i < 5000; ++i) {
    const Tuple t = RandomTuple(i, &fill, 2);
    store.Insert(t);
    mirror.Insert(t);
  }
  // Same seed, same positional layout => identical draws.
  Rng a(17), b(17);
  const auto sa = store.SampleUniform(&a, 400);
  const auto sb = mirror.SampleUniform(&b, 400);
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) ExpectSameTuple(sa[i], sb[i], 2);
}

TEST(ColumnStoreTest, ScanKernelsMatchNaiveRowLoop) {
  const int width = 4;
  ColumnStore store(Schema{{"a", "b", "c", "d"}});
  std::vector<Tuple> rows;
  Rng rng(29);
  for (uint64_t i = 0; i < 20000; ++i) {
    const Tuple t = RandomTuple(i, &rng, width);
    store.Insert(t);
    rows.push_back(t);
  }
  // Some deletions so positions differ from insertion order.
  for (uint64_t i = 0; i < 2000; ++i) {
    const uint64_t victim = rows[rng.NextUint64(rows.size())].id;
    if (!store.Delete(victim)) continue;
    rows.erase(std::find_if(rows.begin(), rows.end(),
                            [&](const Tuple& t) { return t.id == victim; }));
  }
  for (int trial = 0; trial < 60; ++trial) {
    const int dims = 1 + static_cast<int>(rng.NextUint64(3));
    AggQuery q;
    q.agg_column = static_cast<int>(rng.NextUint64(width));
    std::vector<double> lo, hi;
    std::set<int> cols;
    while (static_cast<int>(cols.size()) < dims) {
      cols.insert(static_cast<int>(rng.NextUint64(width)));
    }
    q.predicate_columns.assign(cols.begin(), cols.end());
    for (int d = 0; d < dims; ++d) {
      double a = rng.Uniform(-100, 100), b = rng.Uniform(-100, 100);
      if (a > b) std::swap(a, b);
      lo.push_back(a);
      hi.push_back(b);
    }
    q.rect = Rectangle(lo, hi);
    for (AggFunc f : {AggFunc::kSum, AggFunc::kCount, AggFunc::kAvg,
                      AggFunc::kMin, AggFunc::kMax}) {
      q.func = f;
      const auto naive = NaiveAnswer(rows, q);
      const auto kernel = scan::ExactAnswer(store, q);
      ASSERT_EQ(naive.has_value(), kernel.has_value());
      if (naive.has_value()) {
        const double scale = std::max(1.0, std::abs(*naive));
        EXPECT_NEAR(*naive, *kernel, kTol * scale);
      }
    }
    // CountInRect and the early-exit variant agree with the naive count.
    const auto naive_count =
        NaiveAnswer(rows, [&] {
          AggQuery c = q;
          c.func = AggFunc::kCount;
          return c;
        }());
    const size_t expected =
        naive_count.has_value() ? static_cast<size_t>(*naive_count) : 0;
    EXPECT_EQ(scan::CountInRect(store, q.predicate_columns, q.rect), expected);
    const size_t threshold = 1 + expected / 2;
    EXPECT_EQ(scan::CountInRectAtLeast(store, q.predicate_columns, q.rect,
                                       threshold),
              std::min(expected, threshold));
    // ForEachInRect visits exactly the matching positions.
    size_t visited = 0;
    scan::ForEachInRect(store, q.predicate_columns, q.rect, [&](size_t pos) {
      ++visited;
      std::vector<double> point(q.predicate_columns.size());
      for (size_t d = 0; d < q.predicate_columns.size(); ++d) {
        point[d] = store.value(pos, q.predicate_columns[d]);
      }
      EXPECT_TRUE(q.rect.Contains(point.data()));
    });
    EXPECT_EQ(visited, expected);
  }
}

TEST(ColumnStoreTest, BatchExactAnswersMatchSingleQueryKernels) {
  ColumnStore store(Schema{{"a", "b"}});
  std::vector<Tuple> rows;
  Rng rng(41);
  for (uint64_t i = 0; i < 5000; ++i) {
    const Tuple t = RandomTuple(i, &rng, 2);
    store.Insert(t);
    rows.push_back(t);
  }
  std::vector<AggQuery> queries;
  for (int i = 0; i < 20; ++i) {
    AggQuery q;
    q.func = i % 2 == 0 ? AggFunc::kSum : AggFunc::kAvg;
    q.agg_column = 1;
    q.predicate_columns = {0};
    double a = rng.Uniform(-100, 100), b = rng.Uniform(-100, 100);
    if (a > b) std::swap(a, b);
    q.rect = Rectangle({a}, {b});
    queries.push_back(q);
  }
  const auto batch = scan::ExactAnswers(store, queries);
  // The row-vector entry point must agree: same kernels, transposed input.
  const auto via_rows = scan::ExactAnswers(
      scan::ToColumnStore(rows, queries), queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto single = scan::ExactAnswer(store, queries[i]);
    ASSERT_EQ(batch[i].has_value(), single.has_value());
    ASSERT_EQ(batch[i].has_value(), via_rows[i].has_value());
    if (batch[i].has_value()) {
      EXPECT_DOUBLE_EQ(*batch[i], *single);
      const double scale = std::max(1.0, std::abs(*batch[i]));
      EXPECT_NEAR(*batch[i], *via_rows[i], kTol * scale);
    }
  }
}

TEST(ColumnStoreTest, BulkAppendDefersIndexUntilFirstLookup) {
  ColumnStore store(Schema{{"a", "b"}});
  std::vector<Tuple> rows;
  Rng rng(13);
  for (uint64_t i = 0; i < 1000; ++i) rows.push_back(RandomTuple(i, &rng, 2));
  store.BulkAppend(rows);
  ASSERT_EQ(store.size(), rows.size());
  // Scans work without an index...
  EXPECT_EQ(scan::CountInRect(store, {0}, Rectangle::Infinite(1)),
            rows.size());
  // ...and the first id lookup rebuilds it lazily.
  const auto found = store.Find(437);
  ASSERT_TRUE(found.has_value());
  ExpectSameTuple(*found, rows[437], 2);
  EXPECT_TRUE(store.Delete(437));
  EXPECT_FALSE(store.Find(437).has_value());
  EXPECT_EQ(store.size(), rows.size() - 1);
  // WithoutIndex copies only columns + ids; lookups still work (lazily).
  const ColumnStore snap = store.WithoutIndex();
  EXPECT_EQ(snap.size(), store.size());
  EXPECT_LE(snap.MemoryBytes(), store.MemoryBytes());
  EXPECT_TRUE(snap.Find(438).has_value());
}

TEST(ColumnStoreTest, ReserveThenBulkAppendCarriesNoIndexUntilLookup) {
  // The shape of an archive assembled in chunks: Reserve the final size,
  // then BulkAppend chunk by chunk.
  ColumnStore store(Schema{{"a", "b"}});
  std::vector<Tuple> rows;
  Rng rng(17);
  for (uint64_t i = 0; i < 3000; ++i) rows.push_back(RandomTuple(i, &rng, 2));
  store.Reserve(rows.size());
  for (size_t begin = 0; begin < rows.size(); begin += 1000) {
    store.BulkAppend(std::vector<Tuple>(rows.begin() + begin,
                                        rows.begin() + begin + 1000));
  }
  ASSERT_EQ(store.size(), rows.size());
  // No bucket array was reserved: the store is exactly as large as an
  // index-free copy of itself.
  EXPECT_EQ(store.MemoryBytes(), store.WithoutIndex().MemoryBytes());
  // Lookups build the index lazily and see every row.
  EXPECT_TRUE(store.Contains(2999));
  EXPECT_FALSE(store.Contains(3000));
  const auto found = store.Find(1234);
  ASSERT_TRUE(found.has_value());
  ExpectSameTuple(*found, rows[1234], 2);
  store.CheckInvariants();
}

TEST(ColumnStoreTest, MemoryBytesGrowsWithRowsAndShrinksWithSchema) {
  ColumnStore narrow(Schema{{"a", "b"}});
  ColumnStore wide(Schema{});
  EXPECT_EQ(wide.num_columns(), kMaxColumns);
  Rng rng(5);
  for (uint64_t i = 0; i < 10000; ++i) {
    const Tuple t = RandomTuple(i, &rng, 2);
    narrow.Insert(t);
    wide.Insert(t);
  }
  EXPECT_LT(narrow.MemoryBytes(), wide.MemoryBytes());
  const size_t before = narrow.MemoryBytes();
  for (uint64_t i = 10000; i < 20000; ++i) {
    narrow.Insert(RandomTuple(i, &rng, 2));
  }
  EXPECT_GT(narrow.MemoryBytes(), before);
}

}  // namespace
}  // namespace janus
