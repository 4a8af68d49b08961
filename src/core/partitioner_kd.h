#ifndef JANUS_CORE_PARTITIONER_KD_H_
#define JANUS_CORE_PARTITIONER_KD_H_

#include "core/max_variance.h"
#include "core/partition.h"
#include "data/exec_context.h"

namespace janus {

/// Options for the k-d partitioner (Sec. 5.3.2 / Appendix D.3).
struct PartitionerKdOptions {
  int num_leaves = 128;
  AggFunc focus = AggFunc::kSum;
  /// Parallel context for the phase-2 subtree tasks, the per-split child
  /// evaluations, and the final leaf error sweep. Every evaluation is an
  /// independent, deterministic read-only query of the sample index and
  /// the frontier decomposition is a constant of the algorithm, so the
  /// build result is bit-identical to a serial build regardless of
  /// scheduling or thread count.
  scan::ExecContext exec;
};

/// Greedy max-variance k-d construction: keep a max-heap of leaves keyed by
/// M(leaf); repeatedly pop the worst leaf and split it at the sample median
/// of the next dimension (round-robin per branch depth), until k leaves
/// exist. Near-optimal w.r.t. the optimal tree under the same splitting
/// criterion (Appendix D.3): 2*sqrt(k)-approx for SUM/COUNT,
/// 2*log^{(d+1)/2} m for AVG.
///
/// A split costs one pass over the leaf's samples (collect their
/// coordinates along the dimension, select the median) plus an M probe per
/// child; nothing scales with the 60 steps of the bisection that places
/// the split value.
///
/// Execution is a two-phase decomposition: a short serial greedy grows a
/// fixed-size frontier (so builds at or below the frontier size match the
/// historical single-threaded algorithm exactly), then the remaining leaf
/// budget is split across the frontier proportional to sample counts
/// (largest-remainder rounding) and each frontier subtree grows as an
/// independent task on the scan pool, spliced back in deterministic
/// frontier order.
///
/// Works for any d >= 1 (for d == 1 it yields a median k-d ladder; the BS
/// partitioner is preferred there).
PartitionResult BuildPartitionKd(const MaxVarianceIndex& index,
                                 const PartitionerKdOptions& opts);

}  // namespace janus

#endif  // JANUS_CORE_PARTITIONER_KD_H_
