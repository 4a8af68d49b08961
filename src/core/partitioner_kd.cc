#include "core/partitioner_kd.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "data/parallel_scan.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace janus {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Number of leaves the serial phase grows before fanning out: each
/// phase-1 leaf becomes an independent subtree task. A constant (never a
/// function of the pool or thread count) so the produced tree is a pure
/// function of the samples and options — bit-identical whether the subtree
/// tasks run serially, on 2 threads, or on 64.
constexpr int kFrontierFanout = 16;

struct HeapEntry {
  double variance;
  int node;
  int depth;
  double count;  // samples under the node, as split-feasibility tiebreak

  bool operator<(const HeapEntry& o) const {
    if (variance != o.variance) return variance < o.variance;
    return count < o.count;  // prefer bigger buckets on variance ties
  }
};

/// Split coordinate of `rect` along `dim`: a 60-step bisection over the
/// samples' extent toward the coordinate with half of the rect's samples at
/// or below it. A step's test "fewer than m/2 samples at or below mid"
/// holds exactly when mid lies below `median`, the ceil(m/2)-th smallest
/// coordinate, so the loop needs no tree probe.
double MedianCoord(const DynamicKdTree& kd, const Rectangle& rect, int dim,
                   double median) {
  const Rectangle bbox = kd.BoundingBox();
  double lo = std::max(rect.lo(dim), bbox.lo(dim));
  double hi = std::min(rect.hi(dim), bbox.hi(dim));
  for (int iter = 0;
       iter < 60 && hi - lo > 1e-12 * (std::abs(hi) + std::abs(lo) + 1);
       ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (mid < median) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

/// The greedy max-variance growth loop: repeatedly pop the worst leaf off
/// `heap` and split it at the sample median of the round-robin dimension,
/// until `num_leaves` leaves exist or nothing is splittable. Unsplittable
/// entries (fewer than 2 samples, or degenerate along every dimension)
/// silently leave the heap and stay leaves. Works on any rooted spec — the
/// whole tree in phase 1, a frontier subtree in phase 2.
void GreedyGrow(const MaxVarianceIndex& index, const PartitionerKdOptions& opts,
                PartitionTreeSpec* spec, std::priority_queue<HeapEntry>* heap,
                int* leaves, int num_leaves) {
  const int d = index.dims();
  // Coordinate scratch for the whole loop: [0] holds the popped leaf's
  // samples along the dimension being tried, then [c] serves child c's
  // max-variance probe.
  std::vector<double> scratch[2];
  std::vector<double>& coords = scratch[0];
  while (*leaves < num_leaves && !heap->empty()) {
    HeapEntry top = heap->top();
    heap->pop();
    PartitionNode parent_copy = spec->nodes[static_cast<size_t>(top.node)];
    // Split on the median of the round-robin dimension of this branch; if
    // the samples are degenerate along it, try the other dimensions. The
    // children's sample counts come from the same coordinates (closed
    // rectangles: a sample on the split value lies in both).
    int dim = top.depth % d;
    double split = 0;
    double child_count[2] = {0, 0};
    bool found = false;
    for (int attempt = 0; attempt < d; ++attempt) {
      const int try_dim = (dim + attempt) % d;
      index.kd().AggregateWithCoords(parent_copy.rect, try_dim, &coords);
      if (coords.size() < 2) break;
      const double candidate = MedianCoord(index.kd(), parent_copy.rect,
                                           try_dim, LowerMedian(&coords));
      size_t left_count = 0;
      size_t right_count = 0;
      for (double x : coords) {
        left_count += x <= candidate;
        right_count += x >= candidate;
      }
      if (left_count > 0 && left_count < coords.size()) {
        dim = try_dim;
        split = candidate;
        child_count[0] = static_cast<double>(left_count);
        child_count[1] = static_cast<double>(right_count);
        found = true;
        break;
      }
    }
    if (!found) continue;
    const int li = static_cast<int>(spec->nodes.size());
    const int ri = li + 1;
    PartitionNode left, right;
    left.rect = parent_copy.rect;
    left.rect.set_hi(dim, split);
    left.parent = top.node;
    right.rect = parent_copy.rect;
    right.rect.set_lo(dim, split);
    right.parent = top.node;
    spec->nodes.push_back(left);
    spec->nodes.push_back(right);
    PartitionNode& parent = spec->nodes[static_cast<size_t>(top.node)];
    parent.left = li;
    parent.right = ri;
    parent.split_dim = dim;
    parent.split_val = split;
    // The two freshly-cut children are evaluated concurrently when a pool
    // is available: each max-variance probe is a read-only tree query, and
    // the results land in fixed slots, so the heap sees the same entries as
    // a serial build. (Inside a phase-2 subtree task this degrades to the
    // serial inline path via the nested-scan guard — same result either
    // way.)
    double child_var[2];
    const int child_node[2] = {li, ri};
    scan::ForEachIndex(opts.exec, 2, opts.exec.pool != nullptr ? 2 : 1,
                       [&](size_t c) {
                         child_var[c] = index.MaxVariance(
                             spec->nodes[static_cast<size_t>(child_node[c])]
                                 .rect,
                             opts.focus, &scratch[c]);
                       });
    heap->push({child_var[0], li, top.depth + 1, child_count[0]});
    heap->push({child_var[1], ri, top.depth + 1, child_count[1]});
    ++*leaves;
  }
}

/// Distribute `extra` leaf splits across the frontier proportional to each
/// node's sample count, by largest-remainder rounding (ties favor the lower
/// frontier slot). Deterministic, and independent of any execution order.
std::vector<int> SplitBudget(const std::vector<HeapEntry>& frontier,
                             int extra) {
  const size_t n = frontier.size();
  std::vector<int> out(n, 0);
  double total = 0;
  for (const HeapEntry& e : frontier) total += std::max(0.0, e.count);
  if (total <= 0) {
    for (size_t i = 0; extra > 0; i = (i + 1) % n, --extra) ++out[i];
    return out;
  }
  std::vector<std::pair<double, size_t>> rem(n);
  int assigned = 0;
  for (size_t i = 0; i < n; ++i) {
    const double share =
        extra * std::max(0.0, frontier[i].count) / total;
    out[i] = static_cast<int>(share);
    assigned += out[i];
    rem[i] = {share - static_cast<double>(out[i]), i};
  }
  std::sort(rem.begin(), rem.end(),
            [](const std::pair<double, size_t>& a,
               const std::pair<double, size_t>& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  for (int r = 0; r < extra - assigned; ++r) {
    ++out[rem[static_cast<size_t>(r) % n].second];
  }
  return out;
}

/// Graft `sub` — an independently grown tree whose root rect equals the
/// frontier leaf's rect — onto leaf `fn` of `spec`: the sub-root's split
/// moves onto fn and the remaining nodes append with remapped links
/// (local x > 0 maps to offset + x - 1, local 0 maps to fn), the same
/// arithmetic as the partial-repartition graft in core/janus.cc.
void SpliceSubtree(PartitionTreeSpec* spec, int fn,
                   const PartitionTreeSpec& sub) {
  if (sub.nodes.size() <= 1) return;
  const int offset = static_cast<int>(spec->nodes.size());
  const auto remap = [&](int x) { return x == 0 ? fn : offset + x - 1; };
  {
    const PartitionNode& r = sub.nodes[0];
    PartitionNode& dst = spec->nodes[static_cast<size_t>(fn)];
    dst.split_dim = r.split_dim;
    dst.split_val = r.split_val;
    dst.left = remap(r.left);
    dst.right = remap(r.right);
  }
  for (size_t x = 1; x < sub.nodes.size(); ++x) {
    PartitionNode n = sub.nodes[x];
    n.parent = remap(n.parent);
    if (n.left >= 0) {
      n.left = remap(n.left);
      n.right = remap(n.right);
    }
    spec->nodes.push_back(n);
  }
}

}  // namespace

PartitionResult BuildPartitionKd(const MaxVarianceIndex& index,
                                 const PartitionerKdOptions& opts) {
  PartitionResult result;
  const int d = index.dims();
  PartitionTreeSpec& spec = result.spec;
  spec.dims = d;

  PartitionNode root;
  root.rect = Rectangle(std::vector<double>(static_cast<size_t>(d), -kInf),
                        std::vector<double>(static_cast<size_t>(d), kInf));
  spec.nodes.push_back(root);

  std::priority_queue<HeapEntry> heap;
  const TreeAgg all = index.kd().RangeAggregate(spec.nodes[0].rect);
  heap.push({index.MaxVariance(spec.nodes[0].rect, opts.focus), 0, 0,
             all.count});
  int leaves = 1;

  // Phase 1: grow the frontier serially with the plain greedy (identical to
  // the historical single-threaded build when num_leaves <= the fanout).
  GreedyGrow(index, opts, &spec, &heap, &leaves,
             std::min(opts.num_leaves, kFrontierFanout));

  // Phase 2: the heap now holds the splittable frontier leaves. Hand each
  // one a share of the remaining leaf budget (proportional to its sample
  // count) and grow the subtrees as independent tasks over the scan pool:
  // every task only issues read-only tree probes and writes its own output
  // slot, and the splice below runs serially in frontier order, so the
  // final spec is bit-identical under any task interleaving.
  if (leaves < opts.num_leaves && !heap.empty()) {
    std::vector<HeapEntry> frontier;
    frontier.reserve(heap.size());
    while (!heap.empty()) {
      frontier.push_back(heap.top());
      heap.pop();
    }
    std::sort(frontier.begin(), frontier.end(),
              [](const HeapEntry& a, const HeapEntry& b) {
                return a.node < b.node;
              });
    const std::vector<int> budget =
        SplitBudget(frontier, opts.num_leaves - leaves);
    std::vector<PartitionTreeSpec> subs(frontier.size());
    const size_t workers =
        opts.exec.pool != nullptr
            ? std::min(frontier.size(), opts.exec.pool->num_threads())
            : 1;
    scan::ForEachIndex(opts.exec, frontier.size(), workers, [&](size_t f) {
      if (budget[f] == 0) return;  // stays a leaf of the main tree
      PartitionTreeSpec local;
      local.dims = d;
      PartitionNode sub_root;
      sub_root.rect = spec.nodes[static_cast<size_t>(frontier[f].node)].rect;
      local.nodes.push_back(sub_root);
      std::priority_queue<HeapEntry> h;
      h.push({frontier[f].variance, 0, frontier[f].depth, frontier[f].count});
      int sub_leaves = 1;
      // Depth continues from the frontier entry, so the round-robin split
      // dimension sequence matches a build that never paused there.
      GreedyGrow(index, opts, &local, &h, &sub_leaves, 1 + budget[f]);
      subs[f] = std::move(local);
    });
    for (size_t f = 0; f < frontier.size(); ++f) {
      SpliceSubtree(&spec, frontier[f].node, subs[f]);
    }
  }

  // Collect leaves in node order and the worst-bucket error (a pooled
  // sweep; the max-reduction is order-insensitive, hence bit-identical).
  for (int i = 0; i < static_cast<int>(spec.nodes.size()); ++i) {
    if (spec.nodes[static_cast<size_t>(i)].IsLeaf()) {
      spec.leaves.push_back(i);
    }
  }
  const std::vector<double> leaf_error =
      LeafMaxVariances(index, spec, opts.focus, opts.exec);
  double worst = 0;
  for (double e : leaf_error) worst = std::max(worst, e);
  spec.worst_error = std::sqrt(worst);
  result.achieved_error = spec.worst_error;
  result.ok = true;
  return result;
}

}  // namespace janus
