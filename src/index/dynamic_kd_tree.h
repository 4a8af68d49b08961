#ifndef JANUS_INDEX_DYNAMIC_KD_TREE_H_
#define JANUS_INDEX_DYNAMIC_KD_TREE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "data/schema.h"
#include "index/order_stat_tree.h"

namespace janus {

namespace persist {
class Writer;
class Reader;
}  // namespace persist

/// A point in predicate space with an aggregation value. `id` addresses
/// deletions (reservoir evictions name a specific sample).
struct KdPoint {
  std::array<double, kMaxColumns> x{};
  double a = 0;
  uint64_t id = 0;
};

/// Dynamic multi-dimensional index over the pooled sample S. Replaces the
/// paper's dynamic range tree (see DESIGN.md): a bucketed k-d tree with
/// subtree aggregates (count, sum a, sum a^2) and partial-rebuild
/// rebalancing. Supports:
///  * Insert / Delete in O(log m) amortized,
///  * rectangle aggregate queries (count, sum, sumsq),
///  * rectangle reporting (leaf-stratum access for the multi-template mode),
///  * enumeration of maximal "canonical cells" with at most `cap` points
///    inside a rectangle — the building block of the AVG max-variance index
///    (Appendix D.1).
class DynamicKdTree {
 public:
  explicit DynamicKdTree(int dims);
  ~DynamicKdTree();

  DynamicKdTree(const DynamicKdTree&) = delete;
  DynamicKdTree& operator=(const DynamicKdTree&) = delete;

  int dims() const { return dims_; }
  size_t size() const { return size_; }

  /// Bulk-load, replacing current contents. O(n log n).
  void Build(std::vector<KdPoint> points);

  void Insert(const KdPoint& p);

  /// Delete the point with the given id located at coordinates `x`.
  /// Returns false if no such point exists.
  bool Delete(const double* x, uint64_t id);

  /// Aggregates over all points inside `rect` (closed intervals).
  TreeAgg RangeAggregate(const Rectangle& rect) const;

  /// Append every point inside `rect` to `out`.
  void Report(const Rectangle& rect, std::vector<KdPoint>* out) const;

  /// RangeAggregate(rect) together with the `dim` coordinate of every point
  /// inside `rect`, which replace *coords (unordered), from one traversal.
  /// The aggregate adds the same terms in the same order as RangeAggregate,
  /// so it is bit-identical to it. A caller that reuses one vector across
  /// calls allocates only when it grows.
  TreeAgg AggregateWithCoords(const Rectangle& rect, int dim,
                              std::vector<double>* coords) const;

  /// Among subtrees ("canonical cells") fully inside `rect` whose point count
  /// is <= cap and whose parent exceeds cap (i.e. maximal small cells),
  /// return the aggregate of the one with the largest sumsq. Returns a
  /// zero-count aggregate when the rectangle is empty.
  TreeAgg MaxSumsqCell(const Rectangle& rect, size_t cap) const;

  /// All points (arbitrary order). O(n).
  void Dump(std::vector<KdPoint>* out) const;

  /// Bounding box of all stored points (the empty tree yields an
  /// inverted/degenerate box).
  Rectangle BoundingBox() const;

  /// Snapshot persistence. The tree's subtree statistics and bounding boxes
  /// are maintained incrementally (a delete subtracts from cached sums), so
  /// they are serialized verbatim rather than recomputed: a restored tree is
  /// bit-identical to the saved one, including the floating-point state of
  /// every cache and the exact report/traversal order.
  void SaveTo(persist::Writer* w) const;
  void LoadFrom(persist::Reader* r);

  /// Structural audit: internal nodes have two children and no points,
  /// every point lies inside its leaf's (possibly loose) bounding box and
  /// every non-empty child box inside its parent's, subtree counts add up
  /// exactly, cached sum/sumsq match a recompute within floating-point
  /// tolerance (they are maintained incrementally, so bit-equality is not an
  /// invariant), and size() matches the root count. Throws
  /// InvariantViolation on the first inconsistency.
  void CheckInvariants() const;

 private:
  struct Node;

  /// Recursive worker for CheckInvariants(); verifies `n`'s subtree and
  /// returns its recomputed aggregate.
  TreeAgg CheckNode(const Node* n) const;

  static constexpr size_t kLeafCapacity = 16;
  static constexpr double kRebuildFactor = 0.65;

  Node* BuildRec(std::vector<KdPoint>* pts, size_t lo, size_t hi, int depth);
  void FreeTree(Node* n);
  void SaveNode(const Node* n, persist::Writer* w) const;
  Node* LoadNode(persist::Reader* r, int depth);
  void CollectPoints(Node* n, std::vector<KdPoint>* out) const;
  void MaybeRebuild(std::vector<Node*>* path);

  int dims_;
  size_t size_ = 0;
  Node* root_ = nullptr;
};

}  // namespace janus

#endif  // JANUS_INDEX_DYNAMIC_KD_TREE_H_
