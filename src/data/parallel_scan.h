#ifndef JANUS_DATA_PARALLEL_SCAN_H_
#define JANUS_DATA_PARALLEL_SCAN_H_

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "data/exec_context.h"
#include "data/scan.h"

namespace janus {
namespace scan {

/// Default morsel size when the scheduler has no cost observation yet: a
/// multiple of kBlockRows so morsels stay block-aligned and each claim
/// amortizes several vectorized blocks.
inline constexpr size_t kMorselRows = 4 * kBlockRows;

/// Largest morsel the adaptive sizer will hand out (cheap kernels would
/// otherwise ask for huge morsels and lose the stealing granularity).
inline constexpr size_t kMaxMorselRows = 64 * kBlockRows;

/// Morsel duration the adaptive sizer targets: long enough that the shared
/// cursor fetch_add is noise, short enough that a straggler holds at most
/// ~0.1ms of unstolen work.
inline constexpr uint64_t kTargetMorselNanos = 64 * 1000;

/// Cost class of a morsel body, keying the adaptive sizer's per-row-cost
/// EWMA. Kernel row scans (~1-10ns/row through the SIMD kernels) and heavy
/// per-item loops (tuple materialization, per-row tree descent — easily
/// 100x+ the per-unit cost) must not share one estimate: a heavy consumer
/// would shrink kernel morsels to single blocks and drown the scan in claim
/// overhead, a cheap one would hand heavy loops morsels seconds long.
enum class MorselCost {
  kScanRows = 0,   ///< vectorized column-kernel rows
  kHeavyItems = 1  ///< materialized tuples / per-item tree work
};

/// One scan's fan-out decision. `workers` includes the calling thread
/// (slot 0); `morsels` is the number of block-aligned chunks the row range
/// splits into. A serial plan (workers == 1) is a single chunk covering the
/// whole range. The chunk *boundaries* are fixed at plan time — which slot
/// runs which chunk is decided dynamically by the work-stealing cursor.
struct MorselPlan {
  size_t workers = 1;
  size_t morsel_rows = 0;
  size_t morsels = 0;
  MorselCost cost = MorselCost::kScanRows;
};

/// Number of workers a scan over `rows` items should fan out to under `ctx`:
/// 1 (serial) when there is no pool, the scan is below the cost cutoff, the
/// caller is itself a scan worker (nested scans stay serial and count as
/// nested_serial_scans), or the plan ends up single-threaded; otherwise
/// min(max_workers, pool threads, items/chunk floor). Records the decision
/// in ctx.counters.
size_t PlanWorkersAtCutoff(const ExecContext& ctx, size_t items,
                           size_t min_items);

/// PlanWorkersAtCutoff at the kernel cutoff (ctx.parallel_min_rows).
size_t PlanWorkers(const ExecContext& ctx, size_t rows);

/// Full morsel plan for a row-range scan: workers via PlanWorkersAtCutoff
/// plus an adaptively sized, block-aligned morsel grid over [0, rows). The
/// morsel size targets kTargetMorselNanos of work per claim using a global
/// per-cost-class EWMA of observed per-row cost, clamped so every worker
/// sees at least ~4 morsels (stealing needs slack to balance skew).
MorselPlan PlanMorselsAtCutoff(const ExecContext& ctx, size_t rows,
                               size_t min_items,
                               MorselCost cost = MorselCost::kScanRows);

/// PlanMorselsAtCutoff at the kernel cutoff (ctx.parallel_min_rows).
MorselPlan PlanMorsels(const ExecContext& ctx, size_t rows,
                       MorselCost cost = MorselCost::kScanRows);

/// Work-stealing morsel loop: fn(slot, chunk, begin, end) runs once per
/// morsel of `plan` over [0, rows). All workers — the caller (slot 0) and
/// up to workers-1 pool helpers dispatched as one GangTask — pull chunks
/// from a shared atomic cursor, so a stalled or late-waking helper never
/// strands work: whoever is running simply claims the next chunk.
///
/// Determinism contract:
///  - chunk boundaries depend only on (rows, plan), never on scheduling;
///  - `chunk` indexes are dense in [0, plan.morsels): per-chunk partials
///    merged in chunk order are deterministic for a fixed plan;
///  - `slot` is stable per worker in [0, plan.workers): per-slot partials
///    merged in slot order give order-insensitive merges (integer sums,
///    min/max) bit-identical results, floating-point sums results within
///    reassociation of the serial answer;
///  - a serial plan runs fn(0, 0, 0, rows) inline — bit-identical to the
///    serial kernel by construction.
///
/// The caller's share of claimed rows is timed and fed back into the
/// adaptive morsel sizer.
void ForEachMorsel(const ExecContext& ctx, size_t rows, const MorselPlan& plan,
                   const std::function<void(size_t, size_t, size_t, size_t)>&
                       fn);

/// Run fn(index) for every index of [0, count) across `workers` pullers of
/// a shared cursor (one gang dispatch; use only when per-index results are
/// order-independent, e.g. one output slot per query).
void ForEachIndex(const ExecContext& ctx, size_t count, size_t workers,
                  const std::function<void(size_t)>& fn);

/// ForEachIndex passing fn(slot, index), where `slot` is stable per puller
/// in [0, min(workers, count)) (the caller is slot 0, a serial run only
/// slot 0), so a body can reuse per-slot scratch space across indexes.
void ForEachIndexInSlot(const ExecContext& ctx, size_t count, size_t workers,
                        const std::function<void(size_t, size_t)>& fn);

// --- parallel kernels -------------------------------------------------------
//
// Each kernel plans once, runs the serial range kernel (data/scan.h) per
// claimed morsel, and merges partials either associatively (counts, min/max
// — bit-identical under any scheduling) or in chunk order (floating-point
// aggregates — deterministic for a fixed plan, within 1e-12 of serial). A
// one-worker plan calls the serial kernel directly and is bit-identical.

size_t CountInRect(const ColumnStore& store,
                   const std::vector<int>& predicate_columns,
                   const Rectangle& rect, const ExecContext& ctx);

/// Early-exit parallel count: workers publish per-block progress into a
/// shared atomic; every worker re-checks it before claiming a morsel and
/// before each block, so the fleet (stealing workers included) stops as
/// soon as `threshold` matches exist. Returns min(matches, threshold) —
/// bit-identical regardless of in-flight overshoot.
size_t CountInRectAtLeast(const ColumnStore& store,
                          const std::vector<int>& predicate_columns,
                          const Rectangle& rect, size_t threshold,
                          const ExecContext& ctx);

std::optional<double> AggregateInRect(const ColumnStore& store, AggFunc func,
                                      int agg_column,
                                      const std::vector<int>& predicate_columns,
                                      const Rectangle& rect,
                                      const ExecContext& ctx);

std::optional<double> ExactAnswer(const ColumnStore& store, const AggQuery& q,
                                  const ExecContext& ctx);

/// Batch evaluation: many queries fan out one-per-cursor-claim (each query
/// runs the serial kernel, so answers are independent of scheduling); a
/// small batch over a large store parallelizes inside each query instead.
std::vector<std::optional<double>> ExactAnswers(
    const ColumnStore& store, const std::vector<AggQuery>& queries,
    const ExecContext& ctx);

/// Min/max of one column over the live rows ({+inf, -inf} when empty;
/// {0, 0} for a column outside the schema of a non-empty store). Min/max
/// merges are order-insensitive, so the result is bit-identical to serial
/// under any scheduling.
std::pair<double, double> ColumnMinMax(const ColumnStore& store, int column,
                                       const ExecContext& ctx);

}  // namespace scan
}  // namespace janus

#endif  // JANUS_DATA_PARALLEL_SCAN_H_
