#ifndef JANUS_CORE_JANUS_H_
#define JANUS_CORE_JANUS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/catchup.h"
#include "core/dpt.h"
#include "core/spt.h"
#include "data/table.h"
#include "sampling/reservoir.h"
#include "util/mutex.h"
#include "util/timer.h"

namespace janus {

namespace persist {
class Writer;
class Reader;
}  // namespace persist

/// Who drives the re-optimization pipeline when a re-partitioning trigger
/// fires (Sec. 5.4). Both modes run the same Begin/Build/Finish stages
/// (see JanusAqp); they differ only in whether updates flow between them.
enum class ReoptMode {
  /// The updater whose check fired runs all three stages inline, holding
  /// every other updater off (the paper's behavior; default).
  kBlocking,
  /// A fire only records a request; an owner thread runs the stages with
  /// updates flowing between them, so the exclusive section shrinks to a
  /// pointer swap plus a bounded delta-tail replay.
  kBackground,
};

/// Configuration of a JanusAQP instance (Sec. 3.1 knobs plus the
/// re-optimization parameters of Sec. 5.4).
struct JanusOptions {
  SynopsisSpec spec;
  /// Archive schema; the table allocates one column per schema entry. An
  /// empty schema falls back to kMaxColumns-wide storage.
  Schema schema;
  int num_leaves = 128;
  /// Sampling rate alpha (1% in most experiments).
  double sample_rate = 0.01;
  /// Catch-up goal as a fraction of |D| (10% in most experiments).
  double catchup_rate = 0.10;
  AggFunc focus = AggFunc::kSum;
  PartitionAlgorithm algorithm = PartitionAlgorithm::kBinarySearch;
  double confidence = 0.95;
  double rho = 2.0;
  /// Maximum allowable variance drift before a re-partition is considered
  /// (Sec. 5.4; the paper's default).
  double beta = 10.0;
  double delta = 0.01;
  int minmax_k = 32;
  std::vector<int> extra_tracked_columns;
  /// Automatic re-partitioning triggers (Sec. 5.4). When disabled the
  /// instance behaves like the "DPT-only" baseline.
  bool enable_triggers = true;
  /// Updates between drift checks on the touched leaf (checking every single
  /// update is supported with interval 1).
  uint64_t trigger_check_interval = 64;
  /// A leaf is starved when |S_i| < starvation_factor * log2(m) (Sec. 5.4).
  double starvation_factor = 0.25;
  /// Partial re-partitioning: rebuild only the subtree `psi` levels above a
  /// problematic leaf (Appendix E). 0 disables (always full).
  int partial_repartition_psi = 0;
  /// Morsel-parallel execution of the archival scans (catch-up batches,
  /// exact-mode initialization). Default: serial.
  scan::ExecContext exec;
  uint64_t seed = 42;
  /// How trigger re-partitions execute (see ReoptMode). Blocking keeps the
  /// historical inline behavior; background needs an owner thread driving
  /// the pipeline (api/engines.cc provides one per engine).
  ReoptMode reopt_mode = ReoptMode::kBlocking;
  /// Background pipeline: the off-to-the-side build keeps pre-draining the
  /// delta buffer until at most this many ops remain, bounding the replay
  /// work left for the exclusive adoption step.
  size_t reopt_delta_tail = 1024;
};

/// One captured update for background re-optimization: while a side tree
/// builds, every mutation of the live synopsis is double-applied to a buffer
/// of these (in live order) and replayed into the side tree before adoption.
/// Shared by JanusAqp and MultiTemplateJanus.
struct ReoptDeltaOp {
  enum class Kind : uint8_t {
    kInsert,        ///< Dpt::ApplyInsert(t)
    kDelete,        ///< Dpt::ApplyDelete(t)
    kSampleAdd,     ///< Dpt::SampleAdd(t) — reservoir admitted t
    kSampleRemove,  ///< Dpt::SampleRemove(t) — reservoir evicted t
    kSampleReset,   ///< Dpt::ResetSamples(reset) — reservoir re-drawn
  };
  Kind kind;
  Tuple t;
  std::vector<Tuple> reset;
};

/// Append the ops one live update applies to a synopsis, in the order it
/// applies them: the reservoir change (a re-draw replaces the whole sample
/// with `fresh`), then the update itself.
void CaptureReoptDelta(ReoptDeltaOp::Kind update, const Tuple& t,
                       const ReservoirChange& ch,
                       const std::vector<Tuple>& fresh,
                       std::vector<ReoptDeltaOp>* delta);

/// Apply captured ops to every side tree in capture order; returns the
/// number of op applications (ops x trees).
uint64_t ReplayReoptDelta(const std::vector<ReoptDeltaOp>& ops,
                          const std::vector<Dpt*>& sides);

/// Build-stage pre-drain: swap `delta` out under `mu` and replay it into the
/// side trees outside the lock, until at most `tail` ops remain. Rounds are
/// bounded — a hot update stream can always outrun the drain, and the
/// exclusive tail replay handles the rest. Returns the op applications.
uint64_t PreDrainReoptDelta(Mutex* mu, std::vector<ReoptDeltaOp>* delta,
                            size_t tail, const std::vector<Dpt*>& sides);

/// Operational counters for the experiment harnesses.
struct JanusCounters {
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t reservoir_resamples = 0;
  uint64_t trigger_checks = 0;
  uint64_t trigger_fires = 0;
  uint64_t repartitions = 0;
  uint64_t partial_repartitions = 0;
  /// Partial re-partitions that silently degraded to a full rebuild
  /// (region too thin, single-leaf subtree, or sub-optimizer failure).
  uint64_t partial_repartition_fallbacks = 0;
  uint64_t background_reopts = 0;    ///< adoptions via the background pipeline
  uint64_t background_discards = 0;  ///< side builds rejected at adoption
  uint64_t delta_ops_replayed = 0;   ///< double-applied ops replayed into side trees
  double last_reopt_seconds = 0;   ///< last re-optimization, wall clock
  double last_blocking_seconds = 0;  ///< blocking populate step (Sec. 4.3)
};

/// The JanusAQP system (Sec. 3): owns the evolving table (archival storage),
/// the pooled reservoir, one DPT synopsis, the catch-up engine and the
/// re-partitioning triggers.
///
/// Every replacement of the live synopsis other than Initialize() and a
/// partial re-partition goes through one three-stage pipeline (Sec. 4.3,
/// Fig. 4): Begin fixes the pooled sample the run works on, Build optimizes
/// a new partitioning and populates a side tree from that sample, Finish
/// adopts it (or discards a drift candidate) and restarts catch-up. It has
/// two drivers:
///  - inline: Reinitialize() and blocking-mode trigger fires run the stages
///    back to back on the calling thread, holding the update path off;
///  - overlapped: in background mode an owner thread runs them through the
///    public Begin/Build/FinishBackgroundReopt() with updates in between.
///
/// Thread-safety: Insert()/Delete() may be called from multiple threads
/// concurrently (per-leaf statistics locks plus a reservoir/table mutex);
/// blocking-mode trigger repartitions synchronize with concurrent updaters
/// through tree_mu_ (the synopsis pointer is only replaced under its
/// exclusive hold, and every applier pins it shared). Query() and the
/// explicit re-optimization entry points must be externally quiesced,
/// exactly as the experiment drivers and the api/ engine rooms do;
/// FinishBackgroundReopt() additionally requires full exclusion (see the
/// pipeline contract below).
class JanusAqp {
 public:
  explicit JanusAqp(const JanusOptions& opts);

  /// Bulk-load initial (historical) data without per-update overhead.
  void LoadInitial(const std::vector<Tuple>& rows);

  /// Build the first synopsis from the current archive and start catch-up.
  void Initialize();

  /// Process one insertion (Sec. 4.1/4.2 + trigger checks).
  void Insert(const Tuple& t);

  /// Process one deletion by tuple id. Returns false if not live.
  bool Delete(uint64_t id);

  /// Answer a query from the synopsis only (never touches the archive).
  QueryResult Query(const AggQuery& q) const;

  /// Run the catch-up engine to its goal (deterministic, inline).
  void RunCatchupToGoal();
  /// Absorb up to `batch` catch-up samples; returns how many.
  size_t StepCatchup(size_t batch);

  /// Full re-optimization (Sec. 4.3): an inline pipeline run over the pooled
  /// reservoir (optimize, populate the new synopsis, restart catch-up), then
  /// step 4 — the reservoir is re-sampled from the archive. The overlapped
  /// variant is the Begin/Build/FinishBackgroundReopt() sequence below.
  void Reinitialize();

  /// Trigger evaluation for the leaf of `t` (Sec. 5.4); called internally by
  /// Insert/Delete, public for tests. Returns true if a re-partition ran.
  /// In background mode a fire never runs inline: it records a request
  /// (ReoptRequested()), calls the notify hook, and returns false.
  bool CheckTriggers(const Tuple& t);

  // --- Overlapped pipeline driver -------------------------------------------
  //
  // With reopt_mode = kBackground an owner thread — the engine's maintenance
  // thread in api/engines.cc, or a test driving the stages synchronously —
  // consumes trigger requests by running:
  //   1. BeginBackgroundReopt():  update-side exclusion only. Snapshots the
  //      pooled reservoir and the archive's id order (NOT the row payloads —
  //      an O(ids) copy, so queries fenced behind the update room wait
  //      microseconds-to-low-ms, never the tens of ms a full archive copy
  //      costs at 1M rows), pre-draws the catch-up seed (so the RNG stream
  //      matches an inline run at the snapshot point exactly), and
  //      starts double-applying updates to a delta buffer.
  //   2. BuildBackgroundReopt():  no exclusion. First assembles the archive
  //      snapshot in short update-mutex chunks (deletes that race the
  //      assembly park the dying row's snapshot-time payload in a rescue
  //      map, so the result is bit-identical — same rows, same order — to
  //      a one-shot copy), then runs the shared Build stage and pre-drains
  //      the delta buffer down to reopt_delta_tail ops while updates keep
  //      flowing.
  //   3. FinishBackgroundReopt(): full exclusion (the engine's exclusive
  //      room). Runs the shared Finish stage: replays the delta tail,
  //      applies the drift-adoption condition, swaps the synopsis pointer
  //      and restarts catch-up.
  //
  // Adoption contract: the adopted tree is bit-identical to the tree an
  // inline run at the Begin() snapshot would have produced, followed by the
  // same update stream — the delta replay preserves live op order, and the
  // catch-up engine gets the same seed, archive snapshot and goal as the
  // inline run would have drawn at that moment.

  /// True when a background-mode trigger fire is waiting for a pipeline run.
  bool ReoptRequested() const;
  /// Stage 1. Returns false when a pipeline is already active or the
  /// instance is uninitialized. Called with update-side exclusion (an
  /// update-room hold, or a quiesced instance); a call with no pending
  /// request starts an unconditional rebuild (the Reinitialize analogue).
  bool BeginBackgroundReopt();
  /// Stage 2. Runs concurrently with queries and updates; no exclusion.
  void BuildBackgroundReopt();
  /// Stage 3. Requires full exclusion (exclusive room / quiesced). Returns
  /// true when the side tree was adopted, false when it was discarded
  /// (failed build, or a drift candidate that no longer beats the live
  /// tree by beta).
  bool FinishBackgroundReopt();
  /// True between a successful Begin and the matching Finish.
  bool BackgroundReoptActive() const { return bg_ != nullptr; }
  /// Hook invoked (outside all locks) whenever a background-mode trigger
  /// records a request; the engine points this at its maintenance-thread
  /// wakeup. Set before concurrent use.
  void SetReoptNotify(std::function<void()> fn) {
    reopt_notify_ = std::move(fn);
  }

  /// Snapshot persistence: archive, pooled reservoir, synopsis (structure-
  /// exact), catch-up engine, system RNG, counters and trigger baselines —
  /// the complete state needed so a restored instance answers queries
  /// bit-identically and continues the update stream exactly like the
  /// uninterrupted one. Options come from construction, not the snapshot.
  /// Not thread-safe: quiesce updates first (the save path of a running
  /// service goes through the sharded engine's per-shard quiesce points).
  void SaveTo(persist::Writer* w) const;
  void LoadFrom(persist::Reader* r);

  /// Structural audit of the whole system: the archive store, the pooled
  /// reservoir (every sampled id must be live in the table), the synopsis,
  /// and the DPT sample mirror (same ids as the reservoir). Not thread-safe;
  /// quiesce updates first. Throws InvariantViolation on inconsistency.
  void CheckInvariants() const;

  /// True once Initialize() has run (or a snapshot of an initialized
  /// instance was loaded).
  bool initialized() const { return dpt_ != nullptr; }

  const Dpt& dpt() const { return *dpt_; }
  const DynamicTable& table() const { return table_; }
  const DynamicReservoir& reservoir() const { return *reservoir_; }
  const JanusCounters& counters() const { return counters_; }
  const JanusOptions& options() const { return opts_; }
  size_t catchup_processed() const {
    return catchup_ ? catchup_->processed() : 0;
  }
  double catchup_processing_seconds() const {
    return catchup_ ? catchup_->processing_seconds() : 0;
  }

 private:
  /// State of one pipeline run: on the caller's stack for an inline run,
  /// bg_ for the overlapped one (owned by the thread driving the stages;
  /// only `delta` is shared, under update_mu_). Runs share no state, so an
  /// inline Reinitialize() may run while an overlapped run is open.
  struct ReoptRun {
    /// Updates flow between the stages: capture a delta, and snapshot the
    /// sample, the archive and the catch-up seed at Begin. An inline run
    /// copies the archive and draws the seed at adoption — after the old
    /// tree is freed, and never for a discarded candidate.
    bool overlapped = false;
    /// >= 0: a drift run, adopted only if the candidate beats the live tree
    /// by beta; a discard resets this leaf's baseline. -1: unconditional.
    int drift_leaf = -1;
    /// The live synopsis at Begin; if it was replaced mid-pipeline by any
    /// other path (an explicit Reinitialize, a snapshot Load) the side tree
    /// is stale and Finish discards it instead of adopting.
    const Dpt* live_at_begin = nullptr;
    /// Overlapped only: the pooled reservoir at Begin (an inline run reads
    /// the live one, which no update can reach before its Finish).
    std::vector<Tuple> snapshot;
    size_t n0 = 0;  ///< |D| at Begin
    /// Overlapped only: archive row ids in Begin-time order, assembled into
    /// `archive` by AssembleReoptArchive in Build.
    std::vector<uint64_t> t0_ids;
    /// Begin-time payloads of rows deleted before the assembly reached
    /// them. emplace() keeps the first (= snapshot-time) payload even if an
    /// id is deleted, re-inserted and deleted again mid-assembly.
    std::unordered_map<uint64_t, Tuple> rescued;
    size_t copy_pos = 0;      ///< t0_ids assembled so far
    bool copy_failed = false; ///< archive vanished mid-assembly (e.g. Load)
    std::unique_ptr<ColumnStore> archive;  ///< index-free archive copy
    uint64_t catchup_seed = 0;
    std::vector<ReoptDeltaOp> delta;
    /// The side tree; after adoption, the retired live tree.
    std::unique_ptr<Dpt> side;
    std::unique_ptr<CatchupEngine> retired_catchup;
    double cand_var = 0;   ///< side tree's achieved_error^2
    /// Trigger baselines of the snapshot-initialized side tree, computed in
    /// Build (off the exclusive path) and installed verbatim at Finish —
    /// they do not depend on the delta ops replayed after it.
    std::vector<double> baselines;
    /// A side tree was built (the optimizer succeeded and, inline, the
    /// candidate passed the drift test).
    bool build_ok = false;
    uint64_t replayed = 0;  ///< ops drained into the side tree pre-adoption
    Timer total;            ///< Begin -> adoption wall clock
    /// Start of the step that holds updates off (last_blocking_seconds):
    /// the populate step after the optimizer for an inline run, the
    /// exclusive Finish for an overlapped one.
    Timer blocking;
  };

  // The stage bodies shared by both drivers.
  /// Record the live tree and |D|. Caller holds update_mu_.
  void BeginReopt(ReoptRun* run);
  /// Optimize on the sample, populate the side tree, compute its
  /// baselines. Writes only `run`; an overlapped run needs no lock, an
  /// inline one reads the live reservoir under its caller's locks.
  void BuildReopt(ReoptRun* run);
  /// Adopt or discard. Caller holds tree_mu_ exclusively and update_mu_.
  bool FinishReopt(ReoptRun* run);
  /// The inline driver: Begin, Build and Finish back to back. Caller holds
  /// tree_mu_ exclusively and update_mu_. Returns true on adoption.
  bool ReoptInline(int drift_leaf);

  /// Overlapped Build helper: materialize run->archive from run->t0_ids +
  /// the live store + run->rescued, in bounded update-mutex holds. Sets
  /// run->copy_failed if a row can no longer be resolved (the table was
  /// replaced mid-pipeline; Finish discards such a run anyway).
  void AssembleReoptArchive(ReoptRun* run);
  DptOptions MakeDptOptions() const;
  SptOptions MakeSptOptions() const;
  /// Size of a freshly drawn pooled reservoir (2m at the configured rate).
  size_t ReservoirTarget() const;
  void RefreshBaselines();
  /// Per-leaf MaxVariance baselines for an arbitrary (possibly side) tree.
  std::vector<double> ComputeBaselines(const Dpt& dpt) const;
  /// The drift adoption test (Sec. 5.4): does a candidate whose worst leaf
  /// variance is `cand_var` beat the live tree by a factor beta?
  bool BeatsLiveTree(double cand_var) const;
  bool PartialRepartition(int leaf);
  void ClearReoptRequest();

  JanusOptions opts_;
  DynamicTable table_;
  std::unique_ptr<DynamicReservoir> reservoir_;
  std::unique_ptr<Dpt> dpt_;
  std::unique_ptr<CatchupEngine> catchup_;
  Rng rng_;
  JanusCounters counters_;

  /// M_i baselines per node index (leaves only), set at (re)build.
  std::vector<double> leaf_baseline_var_;
  std::atomic<uint64_t> updates_since_check_{0};

  /// Serializes table + reservoir + sample-index mutation (Insert/Delete
  /// from many threads). The guarded state (table_, reservoir_, the DPT
  /// sample index) is also read lock-free by externally-quiesced queries,
  /// so it cannot carry GUARDED_BY; the lock protects the mutation path
  /// only, per the class thread-safety contract above.
  mutable Mutex update_mu_;

  /// Guards the dpt_/catchup_ *pointers* against a repartition swap racing
  /// the update path: ApplyInsert/ApplyDelete and catch-up steps hold it
  /// shared, any code path that replaces the synopsis (blocking trigger
  /// repartitions, background adoption) holds it exclusively. Lock order:
  /// tree_mu_ before update_mu_, never the reverse (Insert/Delete release
  /// update_mu_ before touching the tree).
  mutable SharedMutex tree_mu_;

  // Background re-optimization state. The request fields and the bg_
  // pointer are written under update_mu_ (by CheckTriggers and the pipeline
  // stages) and read there by the capture sites in Insert/Delete — a
  // non-null bg_ means updates are double-applied to bg_->delta.
  bool reopt_request_ = false;
  bool reopt_request_starved_ = false;  ///< any fire since was starvation
  int reopt_request_leaf_ = -1;
  std::unique_ptr<ReoptRun> bg_;
  std::function<void()> reopt_notify_;
};

}  // namespace janus

#endif  // JANUS_CORE_JANUS_H_
