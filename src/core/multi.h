#ifndef JANUS_CORE_MULTI_H_
#define JANUS_CORE_MULTI_H_

#include <memory>
#include <vector>

#include "core/catchup.h"
#include "core/dpt.h"
#include "core/janus.h"
#include "core/spt.h"
#include "data/table.h"
#include "sampling/reservoir.h"
#include "util/mutex.h"

namespace janus {

/// Multi-template synopsis manager — the "first method" of Sec. 5.5: one
/// global pooled sample S (a single reservoir over the table) and one
/// partition tree per query template, for total space O(m + L*k). Every
/// tree answers its template with the full theoretical error guarantees.
///
/// Templates can be registered upfront or discovered on demand: a query
/// whose predicate attributes match no registered template triggers the
/// construction of a new tree from the pooled sample (in ~O(k polylog m))
/// followed by a catch-up phase for that tree alone, exactly as Sec. 5.5
/// describes.
class MultiTemplateJanus {
 public:
  /// `base` carries the shared knobs (leaf count, rates, seeds); its `spec`
  /// is ignored — templates are added explicitly or on demand.
  explicit MultiTemplateJanus(const JanusOptions& base);

  /// Register a template; returns its index. No-op (returning the existing
  /// index) when an identical template is already registered.
  int AddTemplate(const SynopsisSpec& spec);

  void LoadInitial(const std::vector<Tuple>& rows);

  /// Build every registered template's tree from a fresh archive sample.
  void Initialize();

  /// Maintenance: one reservoir decision, then every tree absorbs the
  /// update (Sec. 5.5: "all update operations ... can be executed in
  /// parallel for different trees").
  void Insert(const Tuple& t);
  bool Delete(uint64_t id);

  /// Answer a query. Routes to the template with matching predicate
  /// attributes; if none exists, a new template is built on demand from the
  /// pooled sample and its catch-up starts immediately.
  QueryResult Query(const AggQuery& q);

  /// Drive every template's catch-up to its goal.
  void RunCatchupToGoal();

  /// Rebuild every template's tree and catch-up engine from the current
  /// pooled reservoir and archive — the analogue of JanusAqp::Reinitialize:
  /// the rebuild pipeline below, run inline. No-op before Initialize().
  void Rebuild();

  // --- Rebuild pipeline ------------------------------------------------------
  //
  // The multi-template version of JanusAqp's pipeline (see core/janus.h for
  // the staging and adoption contract): Begin snapshots the pooled sample,
  // the registered specs and one pre-drawn catch-up seed per template (entry
  // order), Build optimizes and populates one side tree per snapshotted
  // template, Finish replays the delta tail into every side tree and swaps
  // them in. Rebuild() runs the stages back to back; the Background methods
  // run them with updates in between. There, Begin also copies the archive,
  // and updates arriving mid-pipeline are double-applied to one shared delta
  // buffer (its own mutex — the only state the build thread and the update
  // path share). Templates discovered *during* the build are not swapped:
  // their live trees were built from the current reservoir and absorbed
  // every later update already.
  //
  // Begin and Finish require full exclusion (the engine's exclusive room);
  // Build runs concurrently with queries and updates.

  /// Stage 1. Returns false when a pipeline is already active or the
  /// instance is uninitialized.
  bool BeginBackgroundRebuild();
  /// Stage 2. No exclusion; touches only the Begin() snapshot and the
  /// delta buffer.
  void BuildBackgroundRebuild();
  /// Stage 3. Returns true when the side trees were adopted. `replayed`
  /// (optional) receives the total delta applications across side trees.
  bool FinishBackgroundRebuild(uint64_t* replayed = nullptr);
  /// True between a successful Begin and the matching Finish.
  bool BackgroundRebuildActive() const { return bg_ != nullptr; }

  size_t num_templates() const { return entries_.size(); }
  const Dpt& dpt(int i) const { return *entries_[static_cast<size_t>(i)].dpt; }
  const DynamicTable& table() const { return table_; }
  const DynamicReservoir& reservoir() const { return *reservoir_; }
  /// Index of the template matching the query's predicate columns; -1 when
  /// absent.
  int TemplateFor(const std::vector<int>& predicate_columns) const;

  /// Snapshot persistence: archive, global reservoir, every template's spec,
  /// tree and catch-up engine, and the manager RNG. Templates registered on
  /// the instance before LoadFrom are replaced by the snapshot's set.
  void SaveTo(persist::Writer* w) const;
  void LoadFrom(persist::Reader* r);

 private:
  struct Entry {
    SynopsisSpec spec;
    std::unique_ptr<Dpt> dpt;
    std::unique_ptr<CatchupEngine> catchup;
  };

  /// One pipeline run: local to Rebuild(), or bg_ for the background one.
  /// Everything except `delta` is written at Begin under full exclusion and
  /// then owned by the single build thread; `delta` is shared with the
  /// update path under delta_mu_.
  struct RebuildRun {
    std::vector<Tuple> snapshot;  ///< pooled reservoir at Begin
    size_t n0 = 0;                ///< |D| at Begin
    /// Index-free archive copy taken at Begin by a background run. An inline
    /// run leaves it null: each catch-up engine copies the live archive at
    /// adoption, as the template builds do.
    std::unique_ptr<ColumnStore> archive;
    std::vector<SynopsisSpec> specs;       ///< specs of entries_[0..n) at Begin
    std::vector<uint64_t> seeds;           ///< per-template catch-up seeds
    std::vector<std::unique_ptr<Dpt>> sides;
    std::vector<ReoptDeltaOp> delta;
    uint64_t replayed = 0;
  };

  SptOptions MakeSptOptions(const SynopsisSpec& spec) const;
  DptOptions MakeDptOptions(const SynopsisSpec& spec) const;
  void BuildEntry(Entry* entry);
  // The stage bodies shared by Rebuild() and the background methods.
  void BeginRebuild(RebuildRun* run);
  void BuildRebuild(RebuildRun* run);
  void FinishRebuild(RebuildRun* run);
  /// Double-apply one live update to the background run's delta, if any.
  void Capture(ReoptDeltaOp::Kind update, const Tuple& t,
               const ReservoirChange& ch, const std::vector<Tuple>& fresh);

  JanusOptions base_;
  DynamicTable table_;
  std::unique_ptr<DynamicReservoir> reservoir_;
  std::vector<Entry> entries_;
  Rng rng_;
  bool initialized_ = false;

  /// Guards bg_->delta — the only state the background build thread shares
  /// with the (externally serialized) update path.
  mutable Mutex delta_mu_;
  /// The open background run; set and cleared under full exclusion, and
  /// non-null exactly while updates are double-applied.
  std::unique_ptr<RebuildRun> bg_;
};

}  // namespace janus

#endif  // JANUS_CORE_MULTI_H_
