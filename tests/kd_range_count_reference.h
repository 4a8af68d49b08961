#ifndef JANUS_TESTS_KD_RANGE_COUNT_REFERENCE_H_
#define JANUS_TESTS_KD_RANGE_COUNT_REFERENCE_H_

// Test oracle: the d > 1 max-variance probe and the greedy k-d optimizer
// written the slow way, with every step of their 60-step coordinate
// bisections answered by a k-d range count over the sample index. The
// production code answers those steps from one order statistic and must
// produce bit-identical results; the oracle is serial and built only from
// the public index API, so it shares no code path with what it checks.
// MakeIndex() builds the sample indexes the comparisons run on.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "core/max_variance.h"
#include "core/partition.h"
#include "core/variance.h"
#include "util/rng.h"

#include <gtest/gtest.h>

namespace janus {
namespace kd_reference {

inline uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// M(R) for d > 1; `o` must be the options the index was built with.
inline double MaxVariance(const MaxVarianceIndex& index,
                          const MaxVarianceIndex::Options& o,
                          const Rectangle& r, AggFunc f) {
  const DynamicKdTree& kd = index.kd();
  const TreeAgg whole = kd.RangeAggregate(r);
  const double mi = whole.count;
  if (mi < 2) return 0;
  switch (f) {
    case AggFunc::kCount:
      return CountQueryVariance(mi / o.sampling_rate, mi, mi / 2.0);
    case AggFunc::kSum: {
      const Rectangle bbox = kd.BoundingBox();
      int dim = 0;
      double lo = 0, hi = 0;
      double best_extent = -1;
      for (int d = 0; d < index.dims(); ++d) {
        const double dlo = std::max(r.lo(d), bbox.lo(d));
        const double dhi = std::min(r.hi(d), bbox.hi(d));
        if (dhi - dlo > best_extent) {
          best_extent = dhi - dlo;
          dim = d;
          lo = dlo;
          hi = dhi;
        }
      }
      for (int iter = 0; iter < 60 && hi - lo > 1e-12 * (std::abs(hi) + 1);
           ++iter) {
        const double mid = 0.5 * (lo + hi);
        Rectangle probe = r;
        probe.set_hi(dim, mid);
        if (kd.RangeAggregate(probe).count < mi / 2) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      Rectangle left = r;
      left.set_hi(dim, 0.5 * (lo + hi));
      const TreeAgg la = kd.RangeAggregate(left);
      TreeAgg ra;
      ra.count = whole.count - la.count;
      ra.sum = whole.sum - la.sum;
      ra.sumsq = whole.sumsq - la.sumsq;
      return SumLeafError(o.sampling_rate, mi, la.sumsq >= ra.sumsq ? la : ra);
    }
    case AggFunc::kAvg: {
      const size_t cap = std::max<size_t>(
          2, static_cast<size_t>(o.delta * static_cast<double>(kd.size())));
      if (static_cast<double>(cap) > mi) return 0.0;
      const TreeAgg cell = kd.MaxSumsqCell(r, cap);
      return AvgLeafError(mi, cell.count < 1 ? whole : cell);
    }
    case AggFunc::kMin:
    case AggFunc::kMax:
      return 0;
  }
  return 0;
}

struct HeapEntry {
  double variance;
  int node;
  int depth;
  double count;

  bool operator<(const HeapEntry& e) const {
    if (variance != e.variance) return variance < e.variance;
    return count < e.count;
  }
};

inline double MedianCoord(const DynamicKdTree& kd, const Rectangle& rect,
                          int dim, double total) {
  const Rectangle bbox = kd.BoundingBox();
  double lo = std::max(rect.lo(dim), bbox.lo(dim));
  double hi = std::min(rect.hi(dim), bbox.hi(dim));
  for (int iter = 0;
       iter < 60 && hi - lo > 1e-12 * (std::abs(hi) + std::abs(lo) + 1);
       ++iter) {
    const double mid = 0.5 * (lo + hi);
    Rectangle probe = rect;
    probe.set_hi(dim, mid);
    if (kd.RangeAggregate(probe).count < total / 2) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

inline void GreedyGrow(const MaxVarianceIndex& index,
                       const MaxVarianceIndex::Options& o, AggFunc focus,
                       PartitionTreeSpec* spec,
                       std::priority_queue<HeapEntry>* heap, int* leaves,
                       int num_leaves) {
  const DynamicKdTree& kd = index.kd();
  const int d = index.dims();
  while (*leaves < num_leaves && !heap->empty()) {
    const HeapEntry top = heap->top();
    heap->pop();
    const Rectangle rect = spec->nodes[static_cast<size_t>(top.node)].rect;
    const double count = kd.RangeAggregate(rect).count;
    if (count < 2) continue;
    int dim = top.depth % d;
    double split = 0;
    bool found = false;
    for (int attempt = 0; attempt < d; ++attempt) {
      const int try_dim = (dim + attempt) % d;
      const double candidate = MedianCoord(kd, rect, try_dim, count);
      Rectangle probe = rect;
      probe.set_hi(try_dim, candidate);
      const double left_count = kd.RangeAggregate(probe).count;
      if (left_count > 0 && left_count < count) {
        dim = try_dim;
        split = candidate;
        found = true;
        break;
      }
    }
    if (!found) continue;
    const int li = static_cast<int>(spec->nodes.size());
    PartitionNode left, right;
    left.rect = rect;
    left.rect.set_hi(dim, split);
    left.parent = top.node;
    right.rect = rect;
    right.rect.set_lo(dim, split);
    right.parent = top.node;
    spec->nodes.push_back(left);
    spec->nodes.push_back(right);
    PartitionNode& parent = spec->nodes[static_cast<size_t>(top.node)];
    parent.left = li;
    parent.right = li + 1;
    parent.split_dim = dim;
    parent.split_val = split;
    for (int c = 0; c < 2; ++c) {
      const Rectangle& r = spec->nodes[static_cast<size_t>(li + c)].rect;
      heap->push({MaxVariance(index, o, r, focus), li + c, top.depth + 1,
                  kd.RangeAggregate(r).count});
    }
    ++*leaves;
  }
}

/// The optimizer's two phases run serially: a greedy frontier of 16
/// leaves, then each frontier leaf's subtree grown on its largest-remainder
/// share of the remaining budget and spliced back in frontier order.
inline PartitionResult BuildPartitionKd(const MaxVarianceIndex& index,
                                        const MaxVarianceIndex::Options& o,
                                        int num_leaves, AggFunc focus) {
  constexpr int kFrontierFanout = 16;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const int d = index.dims();
  PartitionResult result;
  PartitionTreeSpec& spec = result.spec;
  spec.dims = d;
  PartitionNode root;
  root.rect = Rectangle(std::vector<double>(static_cast<size_t>(d), -kInf),
                        std::vector<double>(static_cast<size_t>(d), kInf));
  spec.nodes.push_back(root);
  std::priority_queue<HeapEntry> heap;
  heap.push({MaxVariance(index, o, root.rect, focus), 0, 0,
             index.kd().RangeAggregate(root.rect).count});
  int leaves = 1;
  GreedyGrow(index, o, focus, &spec, &heap, &leaves,
             std::min(num_leaves, kFrontierFanout));

  if (leaves < num_leaves && !heap.empty()) {
    std::vector<HeapEntry> frontier;
    while (!heap.empty()) {
      frontier.push_back(heap.top());
      heap.pop();
    }
    std::sort(frontier.begin(), frontier.end(),
              [](const HeapEntry& a, const HeapEntry& b) {
                return a.node < b.node;
              });
    // Largest-remainder budget split, proportional to sample counts.
    const int extra = num_leaves - leaves;
    const size_t n = frontier.size();
    std::vector<int> budget(n, 0);
    double total = 0;
    for (const HeapEntry& e : frontier) total += std::max(0.0, e.count);
    if (total <= 0) {
      for (int i = 0; i < extra; ++i) ++budget[static_cast<size_t>(i) % n];
    } else {
      std::vector<std::pair<double, size_t>> rem(n);
      int assigned = 0;
      for (size_t i = 0; i < n; ++i) {
        const double share = extra * std::max(0.0, frontier[i].count) / total;
        budget[i] = static_cast<int>(share);
        assigned += budget[i];
        rem[i] = {share - static_cast<double>(budget[i]), i};
      }
      std::sort(rem.begin(), rem.end(),
                [](const std::pair<double, size_t>& a,
                   const std::pair<double, size_t>& b) {
                  if (a.first != b.first) return a.first > b.first;
                  return a.second < b.second;
                });
      for (int r = 0; r < extra - assigned; ++r) {
        ++budget[rem[static_cast<size_t>(r) % n].second];
      }
    }
    for (size_t f = 0; f < n; ++f) {
      if (budget[f] == 0) continue;
      const int fn = frontier[f].node;
      PartitionTreeSpec sub;
      sub.dims = d;
      PartitionNode sub_root;
      sub_root.rect = spec.nodes[static_cast<size_t>(fn)].rect;
      sub.nodes.push_back(sub_root);
      std::priority_queue<HeapEntry> h;
      h.push({frontier[f].variance, 0, frontier[f].depth, frontier[f].count});
      int sub_leaves = 1;
      GreedyGrow(index, o, focus, &sub, &h, &sub_leaves, 1 + budget[f]);
      if (sub.nodes.size() <= 1) continue;
      // Splice: local node 0 is the frontier leaf, local x > 0 appends.
      const int offset = static_cast<int>(spec.nodes.size());
      const auto remap = [&](int x) { return x == 0 ? fn : offset + x - 1; };
      PartitionNode& dst = spec.nodes[static_cast<size_t>(fn)];
      dst.split_dim = sub.nodes[0].split_dim;
      dst.split_val = sub.nodes[0].split_val;
      dst.left = remap(sub.nodes[0].left);
      dst.right = remap(sub.nodes[0].right);
      for (size_t x = 1; x < sub.nodes.size(); ++x) {
        PartitionNode node = sub.nodes[x];
        node.parent = remap(node.parent);
        if (node.left >= 0) {
          node.left = remap(node.left);
          node.right = remap(node.right);
        }
        spec.nodes.push_back(node);
      }
    }
  }

  double worst = 0;
  for (int i = 0; i < static_cast<int>(spec.nodes.size()); ++i) {
    const PartitionNode& node = spec.nodes[static_cast<size_t>(i)];
    if (!node.IsLeaf()) continue;
    spec.leaves.push_back(i);
    worst = std::max(worst, MaxVariance(index, o, node.rect, focus));
  }
  spec.worst_error = std::sqrt(worst);
  result.achieved_error = spec.worst_error;
  result.ok = true;
  return result;
}

/// Sample sets that stress the bisection's edge cases.
enum class Shape {
  kUniform,   ///< continuous coordinates in [0, 1), no ties
  kTied,      ///< integer coordinates 0..8: heavy ties on every axis, and
              ///< bisection midpoints of [0, 8] land on sample coordinates
  kOnSplits,  ///< uniform, plus samples exactly on a first build's splits
  kChurned,   ///< half tied, then as many random inserts and deletes
};

inline constexpr Shape kAllShapes[] = {Shape::kUniform, Shape::kTied,
                                       Shape::kOnSplits, Shape::kChurned};

inline const char* ShapeName(Shape s) {
  switch (s) {
    case Shape::kUniform: return "uniform";
    case Shape::kTied: return "tied";
    case Shape::kOnSplits: return "on_splits";
    case Shape::kChurned: return "churned";
  }
  return "?";
}

inline KdPoint RandomPoint(Rng* rng, int dims, bool tied, uint64_t id) {
  KdPoint p;
  p.id = id;
  for (int d = 0; d < dims; ++d) {
    p.x[static_cast<size_t>(d)] = tied ? static_cast<double>(rng->NextUint64(9))
                                       : rng->NextDouble();
  }
  p.a = rng->LogNormal(0, 1);
  return p;
}

/// An index of about `n` samples of `shape` under options `o`.
inline std::unique_ptr<MaxVarianceIndex> MakeIndex(
    const MaxVarianceIndex::Options& o, Shape shape, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<KdPoint> pts;
  for (size_t i = 0; i < n; ++i) {
    const bool tied =
        shape == Shape::kTied || (shape == Shape::kChurned && i % 2 == 0);
    pts.push_back(RandomPoint(&rng, o.dims, tied, i));
  }
  auto idx = std::make_unique<MaxVarianceIndex>(o);
  idx->Build(pts);
  uint64_t next_id = n;
  if (shape == Shape::kOnSplits) {
    const PartitionTreeSpec spec =
        BuildPartitionKd(*idx, o, 32, o.focus).spec;
    for (const PartitionNode& node : spec.nodes) {
      if (node.IsLeaf()) continue;
      for (int c = 0; c < 3; ++c) {
        KdPoint p = RandomPoint(&rng, o.dims, false, next_id++);
        p.x[static_cast<size_t>(node.split_dim)] = node.split_val;
        pts.push_back(p);
      }
    }
    idx->Build(pts);
  }
  if (shape == Shape::kChurned) {
    // Inserts (a quarter of them on an existing sample's coordinates) and
    // deletes of random live samples, interleaved.
    for (size_t op = 0; op < n; ++op) {
      if (rng.Bernoulli(0.5) && !pts.empty()) {
        const size_t j = rng.NextUint64(pts.size());
        EXPECT_TRUE(idx->Delete(pts[j]));
        pts[j] = pts.back();
        pts.pop_back();
      } else {
        KdPoint p = RandomPoint(&rng, o.dims, op % 2 == 0, next_id++);
        if (!pts.empty() && rng.Bernoulli(0.25)) {
          p.x = pts[rng.NextUint64(pts.size())].x;
        }
        idx->Insert(p);
        pts.push_back(p);
      }
    }
  }
  return idx;
}

}  // namespace kd_reference
}  // namespace janus

#endif  // JANUS_TESTS_KD_RANGE_COUNT_REFERENCE_H_
