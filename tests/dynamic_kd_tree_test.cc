#include "index/dynamic_kd_tree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace janus {
namespace {

KdPoint MakePoint(uint64_t id, std::initializer_list<double> coords,
                  double a) {
  KdPoint p;
  p.id = id;
  int i = 0;
  for (double c : coords) p.x[i++] = c;
  p.a = a;
  return p;
}

std::vector<KdPoint> RandomPoints(int dims, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<KdPoint> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    KdPoint p;
    p.id = i;
    for (int d = 0; d < dims; ++d) p.x[d] = rng.NextDouble();
    p.a = rng.Uniform(-10, 10);
    pts.push_back(p);
  }
  return pts;
}

TreeAgg BruteAggregate(const std::vector<KdPoint>& pts, const Rectangle& r,
                       int dims) {
  TreeAgg agg;
  for (const KdPoint& p : pts) {
    bool in = true;
    for (int d = 0; d < dims; ++d) {
      if (p.x[d] < r.lo(d) || p.x[d] > r.hi(d)) {
        in = false;
        break;
      }
    }
    if (in) {
      agg.count += 1;
      agg.sum += p.a;
      agg.sumsq += p.a * p.a;
    }
  }
  return agg;
}

class KdTreeDimTest : public ::testing::TestWithParam<int> {};

TEST_P(KdTreeDimTest, BulkBuildAggregatesMatchBruteForce) {
  const int dims = GetParam();
  auto pts = RandomPoints(dims, 2000, 11);
  DynamicKdTree tree(dims);
  tree.Build(pts);
  ASSERT_EQ(tree.size(), pts.size());
  Rng rng(99);
  for (int q = 0; q < 50; ++q) {
    std::vector<double> lo(dims), hi(dims);
    for (int d = 0; d < dims; ++d) {
      double a = rng.NextDouble(), b = rng.NextDouble();
      if (a > b) std::swap(a, b);
      lo[d] = a;
      hi[d] = b;
    }
    Rectangle r(lo, hi);
    const TreeAgg expect = BruteAggregate(pts, r, dims);
    const TreeAgg got = tree.RangeAggregate(r);
    ASSERT_DOUBLE_EQ(got.count, expect.count);
    ASSERT_NEAR(got.sum, expect.sum, 1e-8);
    ASSERT_NEAR(got.sumsq, expect.sumsq, 1e-7);
  }
}

TEST_P(KdTreeDimTest, IncrementalInsertMatchesBulk) {
  const int dims = GetParam();
  auto pts = RandomPoints(dims, 1000, 13);
  DynamicKdTree tree(dims);
  for (const KdPoint& p : pts) tree.Insert(p);
  ASSERT_EQ(tree.size(), pts.size());
  Rectangle all(std::vector<double>(dims, 0.0), std::vector<double>(dims, 1.0));
  const TreeAgg expect = BruteAggregate(pts, all, dims);
  const TreeAgg got = tree.RangeAggregate(all);
  EXPECT_DOUBLE_EQ(got.count, expect.count);
  EXPECT_NEAR(got.sum, expect.sum, 1e-8);
}

TEST_P(KdTreeDimTest, DeleteRemovesExactPoint) {
  const int dims = GetParam();
  auto pts = RandomPoints(dims, 500, 17);
  DynamicKdTree tree(dims);
  tree.Build(pts);
  // Delete every third point.
  std::vector<KdPoint> remaining;
  for (size_t i = 0; i < pts.size(); ++i) {
    if (i % 3 == 0) {
      ASSERT_TRUE(tree.Delete(pts[i].x.data(), pts[i].id));
    } else {
      remaining.push_back(pts[i]);
    }
  }
  ASSERT_EQ(tree.size(), remaining.size());
  Rectangle all(std::vector<double>(dims, 0.0), std::vector<double>(dims, 1.0));
  const TreeAgg expect = BruteAggregate(remaining, all, dims);
  const TreeAgg got = tree.RangeAggregate(all);
  EXPECT_DOUBLE_EQ(got.count, expect.count);
  EXPECT_NEAR(got.sum, expect.sum, 1e-8);
}

TEST_P(KdTreeDimTest, MixedChurnAgainstBruteForce) {
  const int dims = GetParam();
  DynamicKdTree tree(dims);
  std::vector<KdPoint> ref;
  Rng rng(23);
  uint64_t next_id = 0;
  for (int step = 0; step < 4000; ++step) {
    if (ref.empty() || rng.NextDouble() < 0.6) {
      KdPoint p;
      p.id = next_id++;
      for (int d = 0; d < dims; ++d) p.x[d] = rng.NextDouble();
      p.a = rng.Uniform(-1, 1);
      tree.Insert(p);
      ref.push_back(p);
    } else {
      const size_t i = rng.NextUint64(ref.size());
      ASSERT_TRUE(tree.Delete(ref[i].x.data(), ref[i].id));
      ref[i] = ref.back();
      ref.pop_back();
    }
    if (step % 500 == 0) {
      std::vector<double> lo(dims, 0.2), hi(dims, 0.8);
      Rectangle r(lo, hi);
      const TreeAgg expect = BruteAggregate(ref, r, dims);
      const TreeAgg got = tree.RangeAggregate(r);
      ASSERT_DOUBLE_EQ(got.count, expect.count);
      ASSERT_NEAR(got.sum, expect.sum, 1e-8);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, KdTreeDimTest, ::testing::Values(1, 2, 3, 5));

TEST(KdTreeTest, DeleteMissingReturnsFalse) {
  DynamicKdTree tree(2);
  tree.Insert(MakePoint(1, {0.5, 0.5}, 1.0));
  double coords[2] = {0.5, 0.5};
  EXPECT_FALSE(tree.Delete(coords, 999));
  double far_coords[2] = {0.9, 0.9};
  EXPECT_FALSE(tree.Delete(far_coords, 1 + 100));
  EXPECT_TRUE(tree.Delete(coords, 1));
  EXPECT_EQ(tree.size(), 0u);
}

TEST(KdTreeTest, ReportReturnsExactlyMatchingPoints) {
  auto pts = RandomPoints(2, 1000, 31);
  DynamicKdTree tree(2);
  tree.Build(pts);
  Rectangle r({0.25, 0.25}, {0.5, 0.5});
  std::vector<KdPoint> out;
  tree.Report(r, &out);
  const TreeAgg expect = BruteAggregate(pts, r, 2);
  ASSERT_EQ(static_cast<double>(out.size()), expect.count);
  for (const KdPoint& p : out) {
    EXPECT_GE(p.x[0], 0.25);
    EXPECT_LE(p.x[0], 0.5);
    EXPECT_GE(p.x[1], 0.25);
    EXPECT_LE(p.x[1], 0.5);
  }
}

TEST(KdTreeTest, AggregateWithCoordsMatchesRangeAggregateBitForBit) {
  auto pts = RandomPoints(2, 1000, 37);
  // Coarse ties, and rectangle sides exactly on sample coordinates.
  for (KdPoint& p : pts) p.x[0] = std::floor(p.x[0] * 8);
  DynamicKdTree tree(2);
  tree.Build(pts);
  // Churn loosens the cached boxes the traversal classifies against.
  Rng rng(38);
  for (uint64_t id = 1000; id < 1300; ++id) {
    const size_t j = rng.NextUint64(pts.size());
    ASSERT_TRUE(tree.Delete(pts[j].x.data(), pts[j].id));
    pts[j] = pts.back();
    pts.pop_back();
    KdPoint p = MakePoint(id, {std::floor(rng.NextDouble() * 8),
                               rng.NextDouble()},
                          rng.Uniform(-10, 10));
    tree.Insert(p);
    pts.push_back(p);
  }
  std::vector<double> coords;
  for (const Rectangle& r :
       {Rectangle({2, 0.25}, {5, 0.75}), Rectangle({3, 0}, {3, 1}),
        Rectangle({-1, pts[7].x[1]}, {9, pts[7].x[1]}),
        Rectangle({20, 20}, {30, 30}), Rectangle::Infinite(2)}) {
    const TreeAgg want = tree.RangeAggregate(r);
    for (int dim = 0; dim < 2; ++dim) {
      const TreeAgg got = tree.AggregateWithCoords(r, dim, &coords);
      EXPECT_EQ(got.count, want.count) << r.ToString();
      EXPECT_EQ(std::memcmp(&got.sum, &want.sum, sizeof got.sum), 0);
      EXPECT_EQ(std::memcmp(&got.sumsq, &want.sumsq, sizeof got.sumsq), 0);
      std::vector<double> in_rect;
      for (const KdPoint& p : pts) {
        if (r.Contains(p.x.data())) in_rect.push_back(p.x[dim]);
      }
      std::sort(in_rect.begin(), in_rect.end());
      std::sort(coords.begin(), coords.end());
      EXPECT_EQ(coords, in_rect) << r.ToString();
    }
  }
}

TEST(KdTreeTest, MaxSumsqCellRespectsCapAndRegion) {
  auto pts = RandomPoints(2, 2000, 37);
  DynamicKdTree tree(2);
  tree.Build(pts);
  Rectangle r({0.1, 0.1}, {0.9, 0.9});
  const TreeAgg cell = tree.MaxSumsqCell(r, 100);
  EXPECT_GT(cell.count, 0.0);
  EXPECT_LE(cell.count, 100.0);
  EXPECT_GT(cell.sumsq, 0.0);
  // A cell's sumsq can never exceed the region total.
  const TreeAgg whole = tree.RangeAggregate(r);
  EXPECT_LE(cell.sumsq, whole.sumsq + 1e-9);
}

TEST(KdTreeTest, MaxSumsqCellEmptyRegion) {
  auto pts = RandomPoints(2, 100, 41);
  DynamicKdTree tree(2);
  tree.Build(pts);
  Rectangle r({5.0, 5.0}, {6.0, 6.0});
  const TreeAgg cell = tree.MaxSumsqCell(r, 10);
  EXPECT_DOUBLE_EQ(cell.count, 0.0);
}

TEST(KdTreeTest, BoundingBoxCoversAllPoints) {
  auto pts = RandomPoints(3, 500, 43);
  DynamicKdTree tree(3);
  tree.Build(pts);
  const Rectangle box = tree.BoundingBox();
  for (const KdPoint& p : pts) {
    EXPECT_TRUE(box.Contains(p.x.data()));
  }
}

TEST(KdTreeTest, DumpReturnsAllPoints) {
  auto pts = RandomPoints(2, 300, 47);
  DynamicKdTree tree(2);
  tree.Build(pts);
  std::vector<KdPoint> out;
  tree.Dump(&out);
  EXPECT_EQ(out.size(), pts.size());
}

TEST(KdTreeTest, EmptyTreeQueriesAreSafe) {
  DynamicKdTree tree(2);
  Rectangle r({0.0, 0.0}, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(tree.RangeAggregate(r).count, 0.0);
  std::vector<KdPoint> out;
  tree.Report(r, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_DOUBLE_EQ(tree.MaxSumsqCell(r, 10).count, 0.0);
}

TEST(KdTreeTest, DuplicateCoordinatesHandled) {
  DynamicKdTree tree(2);
  for (uint64_t i = 0; i < 200; ++i) {
    tree.Insert(MakePoint(i, {0.5, 0.5}, 1.0));
  }
  ASSERT_EQ(tree.size(), 200u);
  Rectangle r({0.5, 0.5}, {0.5, 0.5});
  EXPECT_DOUBLE_EQ(tree.RangeAggregate(r).count, 200.0);
  double coords[2] = {0.5, 0.5};
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(tree.Delete(coords, i));
  }
  EXPECT_EQ(tree.size(), 0u);
}

}  // namespace
}  // namespace janus
