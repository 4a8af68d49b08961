#include "core/partitioner_kd.h"

#include <set>

#include <gtest/gtest.h>

#include "data/parallel_scan.h"
#include "kd_range_count_reference.h"
#include "test_seed.h"
#include "util/rng.h"

namespace janus {
namespace {

std::unique_ptr<MaxVarianceIndex> RandomIndex(int dims, size_t n,
                                              AggFunc focus, uint64_t seed) {
  MaxVarianceIndex::Options o;
  o.dims = dims;
  o.focus = focus;
  o.sampling_rate = 0.01;
  auto idx = std::make_unique<MaxVarianceIndex>(o);
  Rng rng(seed);
  std::vector<KdPoint> pts;
  for (size_t i = 0; i < n; ++i) {
    KdPoint p;
    p.id = i;
    for (int d = 0; d < dims; ++d) p.x[d] = rng.NextDouble();
    p.a = rng.LogNormal(0, 1);
    pts.push_back(p);
  }
  idx->Build(pts);
  return idx;
}

class KdPartitionerDimTest : public ::testing::TestWithParam<int> {};

TEST_P(KdPartitionerDimTest, BuildsKLeavesWithTreeInvariants) {
  const int dims = GetParam();
  auto idx = RandomIndex(dims, 2000, AggFunc::kSum, 3);
  PartitionerKdOptions opts;
  opts.num_leaves = 32;
  opts.focus = AggFunc::kSum;
  const PartitionResult r = BuildPartitionKd(*idx, opts);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.spec.num_leaves(), 32);
  EXPECT_EQ(r.spec.dims, dims);
  // Invariants: children tile parents; leaves are disjoint up to the shared
  // boundary and their union covers space (probe random points).
  Rng rng(7);
  for (int probe = 0; probe < 200; ++probe) {
    std::vector<double> x(static_cast<size_t>(dims));
    for (int d = 0; d < dims; ++d) x[static_cast<size_t>(d)] = rng.NextDouble();
    const int leaf = r.spec.LeafFor(x.data());
    ASSERT_GE(leaf, 0);
    ASSERT_TRUE(r.spec.nodes[static_cast<size_t>(leaf)].IsLeaf());
    EXPECT_TRUE(r.spec.nodes[static_cast<size_t>(leaf)].rect.Contains(x.data()));
  }
}

TEST_P(KdPartitionerDimTest, LeavesPartitionSampleSet) {
  const int dims = GetParam();
  auto idx = RandomIndex(dims, 1000, AggFunc::kSum, 5);
  PartitionerKdOptions opts;
  opts.num_leaves = 16;
  const PartitionResult r = BuildPartitionKd(*idx, opts);
  // Sample counts over the leaves must sum to the total (no loss/overlap;
  // the LeafFor routing decides boundary ties, the rectangles themselves
  // overlap only on measure-zero boundaries).
  std::vector<KdPoint> all;
  idx->kd().Dump(&all);
  std::vector<int> per_leaf(r.spec.nodes.size(), 0);
  for (const KdPoint& p : all) {
    per_leaf[static_cast<size_t>(r.spec.LeafFor(p.x.data()))]++;
  }
  int total = 0;
  for (int leaf : r.spec.leaves) total += per_leaf[static_cast<size_t>(leaf)];
  EXPECT_EQ(total, 1000);
}

INSTANTIATE_TEST_SUITE_P(Dims, KdPartitionerDimTest,
                         ::testing::Values(1, 2, 3, 5));

TEST(KdPartitionerTest, SplitsReduceWorstVariance) {
  auto idx = RandomIndex(2, 2000, AggFunc::kSum, 9);
  PartitionerKdOptions small;
  small.num_leaves = 4;
  PartitionerKdOptions large;
  large.num_leaves = 64;
  const double e4 = BuildPartitionKd(*idx, small).achieved_error;
  const double e64 = BuildPartitionKd(*idx, large).achieved_error;
  EXPECT_LT(e64, e4);
}

TEST(KdPartitionerTest, FewSamplesStopEarly) {
  auto idx = RandomIndex(2, 8, AggFunc::kSum, 11);
  PartitionerKdOptions opts;
  opts.num_leaves = 64;  // far more than samples can support
  const PartitionResult r = BuildPartitionKd(*idx, opts);
  ASSERT_TRUE(r.ok);
  EXPECT_LE(r.spec.num_leaves(), 9);
  EXPECT_GE(r.spec.num_leaves(), 1);
}

TEST(KdPartitionerTest, DegenerateIdenticalPoints) {
  MaxVarianceIndex::Options o;
  o.dims = 2;
  MaxVarianceIndex idx(o);
  std::vector<KdPoint> pts;
  for (size_t i = 0; i < 100; ++i) {
    KdPoint p;
    p.id = i;
    p.x[0] = 0.5;
    p.x[1] = 0.5;
    p.a = 1.0;
    pts.push_back(p);
  }
  idx.Build(pts);
  PartitionerKdOptions opts;
  opts.num_leaves = 8;
  const PartitionResult r = BuildPartitionKd(idx, opts);
  ASSERT_TRUE(r.ok);
  // Identical coordinates are unsplittable: the tree stays a single leaf.
  EXPECT_EQ(r.spec.num_leaves(), 1);
}

TEST(KdPartitionerTest, CountFocusBalancesLeafCounts) {
  auto idx = RandomIndex(2, 4096, AggFunc::kCount, 13);
  PartitionerKdOptions opts;
  opts.num_leaves = 16;
  opts.focus = AggFunc::kCount;
  const PartitionResult r = BuildPartitionKd(*idx, opts);
  // Median splits on the max-count leaf: counts should be fairly even.
  double min_c = 1e18, max_c = 0;
  for (int leaf : r.spec.leaves) {
    const double c = idx->kd()
                         .RangeAggregate(
                             r.spec.nodes[static_cast<size_t>(leaf)].rect)
                         .count;
    min_c = std::min(min_c, c);
    max_c = std::max(max_c, c);
  }
  EXPECT_LE(max_c / std::max(1.0, min_c), 4.0);
}

// Every split, rectangle, leaf list and the worst error must match the
// range-count bisection bit for bit, serial and pooled, whatever the ties.
class KdOracleTest : public ::testing::TestWithParam<int> {};

void ExpectSameResult(const PartitionResult& want, const PartitionResult& got) {
  using kd_reference::Bits;
  ASSERT_TRUE(got.ok);
  ASSERT_EQ(got.spec.nodes.size(), want.spec.nodes.size());
  for (size_t i = 0; i < want.spec.nodes.size(); ++i) {
    const PartitionNode& w = want.spec.nodes[i];
    const PartitionNode& g = got.spec.nodes[i];
    EXPECT_EQ(g.split_dim, w.split_dim) << "node " << i;
    EXPECT_EQ(Bits(g.split_val), Bits(w.split_val)) << "node " << i;
    EXPECT_EQ(g.left, w.left) << "node " << i;
    EXPECT_EQ(g.right, w.right) << "node " << i;
    EXPECT_EQ(g.parent, w.parent) << "node " << i;
    for (int d = 0; d < want.spec.dims; ++d) {
      EXPECT_EQ(Bits(g.rect.lo(d)), Bits(w.rect.lo(d))) << "node " << i;
      EXPECT_EQ(Bits(g.rect.hi(d)), Bits(w.rect.hi(d))) << "node " << i;
    }
  }
  EXPECT_EQ(got.spec.leaves, want.spec.leaves);
  EXPECT_EQ(Bits(got.spec.worst_error), Bits(want.spec.worst_error));
  EXPECT_EQ(Bits(got.achieved_error), Bits(want.achieved_error));
}

TEST_P(KdOracleTest, SpecsMatchRangeCountBisectionBitForBit) {
  const int dims = GetParam();
  constexpr int kLeaves = 48;  // past the 16-leaf frontier: both phases run
  scan::ExecContext pooled;
  pooled.pool = scan::SharedScanPool();
  for (kd_reference::Shape shape : kd_reference::kAllShapes) {
    for (AggFunc f : {AggFunc::kSum, AggFunc::kCount, AggFunc::kAvg}) {
      SCOPED_TRACE(std::string(kd_reference::ShapeName(shape)) + " focus " +
                   std::to_string(static_cast<int>(f)));
      MaxVarianceIndex::Options o;
      o.dims = dims;
      o.focus = f;
      auto idx = kd_reference::MakeIndex(
          o, shape, 1500, TestSeed() + static_cast<uint64_t>(dims));
      const PartitionResult want =
          kd_reference::BuildPartitionKd(*idx, o, kLeaves, f);
      if (shape == kd_reference::Shape::kUniform) {
        EXPECT_EQ(want.spec.num_leaves(), kLeaves);
      }
      for (const scan::ExecContext& exec : {scan::ExecContext{}, pooled}) {
        PartitionerKdOptions opts;
        opts.num_leaves = kLeaves;
        opts.focus = f;
        opts.exec = exec;
        ExpectSameResult(want, BuildPartitionKd(*idx, opts));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, KdOracleTest, ::testing::Values(2, 3, 4, 5));

}  // namespace
}  // namespace janus
