#include "core/janus.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/partition.h"
#include "persist/serde.h"
#include "util/invariants.h"
#include "util/timer.h"

namespace janus {

JanusAqp::JanusAqp(const JanusOptions& opts)
    : opts_(opts), table_(opts.schema), rng_(opts.seed) {}

DptOptions JanusAqp::MakeDptOptions() const {
  DptOptions d;
  d.spec = opts_.spec;
  d.sample_rate = opts_.sample_rate;
  d.minmax_k = opts_.minmax_k;
  d.confidence = opts_.confidence;
  d.delta = opts_.delta;
  d.extra_tracked_columns = opts_.extra_tracked_columns;
  d.exec = opts_.exec;
  return d;
}

SptOptions JanusAqp::MakeSptOptions() const {
  SptOptions s;
  s.spec = opts_.spec;
  s.num_leaves = opts_.num_leaves;
  s.focus = opts_.focus;
  s.sample_rate = opts_.sample_rate;
  s.algorithm = opts_.algorithm;
  s.rho = opts_.rho;
  s.delta = opts_.delta;
  s.minmax_k = opts_.minmax_k;
  s.confidence = opts_.confidence;
  s.seed = opts_.seed;
  s.exec = opts_.exec;
  return s;
}

void JanusAqp::LoadInitial(const std::vector<Tuple>& rows) {
  for (const Tuple& t : rows) table_.Insert(t);
}

void JanusAqp::RefreshBaselines() {
  leaf_baseline_var_ = ComputeBaselines(*dpt_);
}

std::vector<double> JanusAqp::ComputeBaselines(const Dpt& dpt) const {
  const PartitionTreeSpec& spec = dpt.tree();
  const std::vector<double> per_leaf =
      LeafMaxVariances(dpt.sample_index(), spec, opts_.focus, opts_.exec);
  std::vector<double> baselines(spec.nodes.size(), 0);
  for (size_t l = 0; l < spec.leaves.size(); ++l) {
    baselines[static_cast<size_t>(spec.leaves[l])] = per_leaf[l];
  }
  return baselines;
}

size_t JanusAqp::ReservoirTarget() const {
  return std::max<size_t>(
      32, static_cast<size_t>(2.0 * opts_.sample_rate *
                              static_cast<double>(table_.size())));
}

void JanusAqp::Initialize() {
  const size_t target = ReservoirTarget();
  reservoir_ = std::make_unique<DynamicReservoir>(target, rng_.Next());
  reservoir_->Reset(table_.SampleUniform(&rng_, target, opts_.exec));
  Timer timer;
  PartitionResult pr =
      OptimizePartition(reservoir_->samples(), MakeSptOptions(),
                        table_.size());
  Timer blocking;
  dpt_ = std::make_unique<Dpt>(MakeDptOptions(), std::move(pr.spec));
  dpt_->InitializeFromReservoir(reservoir_->samples(), table_.size());
  const size_t goal = static_cast<size_t>(
      opts_.catchup_rate * static_cast<double>(table_.size()));
  catchup_ = std::make_unique<CatchupEngine>(
      dpt_.get(), table_.store().WithoutIndex(), goal, rng_.Next());
  RefreshBaselines();
  counters_.last_blocking_seconds = blocking.ElapsedSeconds();
  counters_.last_reopt_seconds = timer.ElapsedSeconds();
}

void JanusAqp::Insert(const Tuple& t) {
  {
    MutexLock lock(&update_mu_);
    table_.Insert(t);
    ++counters_.inserts;
    ReservoirChange ch = reservoir_->OnInsert(t, table_.size());
    if (ch.evicted.has_value()) dpt_->SampleRemove(*ch.evicted);
    if (ch.added.has_value()) dpt_->SampleAdd(*ch.added);
    if (bg_) {
      CaptureReoptDelta(ReoptDeltaOp::Kind::kInsert, t, ch, {}, &bg_->delta);
    }
  }
  {
    // Shared hold: a concurrent trigger repartition (tree_mu_ writer) must
    // not free the tree out from under the statistics update.
    ReaderMutexLock tree(&tree_mu_);
    dpt_->ApplyInsert(t);
  }
  if (opts_.enable_triggers) CheckTriggers(t);
}

bool JanusAqp::Delete(uint64_t id) {
  Tuple t;
  {
    MutexLock lock(&update_mu_);
    const std::optional<Tuple> p = table_.Find(id);
    if (!p.has_value()) return false;
    t = *p;
    // A pipeline whose archive assembly has not reached this row yet loses
    // its Begin-time payload with this delete; park it for the assembler.
    if (bg_ && bg_->copy_pos < bg_->t0_ids.size()) {
      bg_->rescued.emplace(id, t);
    }
    table_.Delete(id);
    ++counters_.deletes;
    ReservoirChange ch = reservoir_->OnDelete(id);
    std::vector<Tuple> fresh;
    if (ch.needs_resample) {
      // Sec. 4.2: |S| hit its lower bound m; re-sample 2m from the archive.
      fresh = table_.SampleUniform(&rng_, reservoir_->capacity(), opts_.exec);
      reservoir_->Reset(fresh);
      dpt_->ResetSamples(fresh);
      ++counters_.reservoir_resamples;
    } else if (ch.evicted.has_value()) {
      dpt_->SampleRemove(*ch.evicted);
    }
    if (bg_) {
      CaptureReoptDelta(ReoptDeltaOp::Kind::kDelete, t, ch, fresh,
                        &bg_->delta);
    }
  }
  {
    ReaderMutexLock tree(&tree_mu_);
    dpt_->ApplyDelete(t);
  }
  if (opts_.enable_triggers) CheckTriggers(t);
  return true;
}

QueryResult JanusAqp::Query(const AggQuery& q) const { return dpt_->Query(q); }

void JanusAqp::RunCatchupToGoal() {
  ReaderMutexLock tree(&tree_mu_);
  if (catchup_) catchup_->RunToGoal();
}

size_t JanusAqp::StepCatchup(size_t batch) {
  ReaderMutexLock tree(&tree_mu_);
  return catchup_ ? catchup_->Step(batch) : 0;
}

bool JanusAqp::BeatsLiveTree(double cand_var) const {
  double worst = 0;
  for (double v : LeafMaxVariances(dpt_->sample_index(), dpt_->tree(),
                                   opts_.focus, opts_.exec)) {
    worst = std::max(worst, v);
  }
  return cand_var * opts_.beta < worst;
}

bool JanusAqp::PartialRepartition(int leaf) {
  const int psi = opts_.partial_repartition_psi;
  if (psi <= 0) return false;
  const PartitionTreeSpec& old_spec = dpt_->tree();
  // Climb psi levels (Appendix E).
  int anchor = leaf;
  for (int i = 0; i < psi; ++i) {
    const int parent = old_spec.nodes[static_cast<size_t>(anchor)].parent;
    if (parent < 0) break;
    anchor = parent;
  }
  if (anchor == 0) return ReoptInline(-1);

  // Samples and leaf budget of the anchored subtree.
  const Rectangle& region = old_spec.nodes[static_cast<size_t>(anchor)].rect;
  std::vector<Tuple> region_samples;
  std::vector<double> point(opts_.spec.predicate_columns.size());
  for (const auto& [id, t] : dpt_->sample_tuples()) {
    (void)id;
    ProjectTuple(t, opts_.spec.predicate_columns, point.data());
    if (region.Contains(point.data())) region_samples.push_back(t);
  }
  int subtree_leaves = 0;
  std::vector<int> old_subtree_leaf_nodes;
  {
    std::vector<int> stack{anchor};
    while (!stack.empty()) {
      const int i = stack.back();
      stack.pop_back();
      const PartitionNode& n = old_spec.nodes[static_cast<size_t>(i)];
      if (n.IsLeaf()) {
        ++subtree_leaves;
        old_subtree_leaf_nodes.push_back(i);
        continue;
      }
      stack.push_back(n.left);
      stack.push_back(n.right);
    }
  }
  if (region_samples.size() < 4 || subtree_leaves < 2) {
    // Region too thin to re-optimize on its own: degrade to a full rebuild,
    // and count it — silent fallbacks hide the real cost of psi > 0.
    ++counters_.partial_repartition_fallbacks;
    return ReoptInline(-1);
  }

  Timer timer;
  SptOptions sopts = MakeSptOptions();
  sopts.num_leaves = subtree_leaves;
  PartitionResult sub =
      OptimizePartition(region_samples, sopts, table_.size());
  if (!sub.ok) {
    ++counters_.partial_repartition_fallbacks;
    return ReoptInline(-1);
  }
  // Clip the sub-spec's rectangles into the anchored region.
  for (PartitionNode& n : sub.spec.nodes) {
    for (int d = 0; d < old_spec.dims; ++d) {
      n.rect.set_lo(d, std::max(n.rect.lo(d), region.lo(d)));
      n.rect.set_hi(d, std::min(n.rect.hi(d), region.hi(d)));
    }
  }

  // Graft: copy the old tree, replacing the anchored subtree.
  PartitionTreeSpec grafted;
  grafted.dims = old_spec.dims;
  std::vector<std::pair<int, int>> preserved;  // old leaf node -> new node
  // Map old node index -> new node index (only for nodes we copy).
  std::vector<int> remap(old_spec.nodes.size(), -1);
  // First pass: copy every node not inside the anchored subtree. Identify
  // subtree membership by walking parents.
  auto in_subtree = [&](int node) {
    for (int i = node; i >= 0;
         i = old_spec.nodes[static_cast<size_t>(i)].parent) {
      if (i == anchor) return true;
    }
    return false;
  };
  for (size_t i = 0; i < old_spec.nodes.size(); ++i) {
    if (static_cast<int>(i) != anchor && in_subtree(static_cast<int>(i))) {
      continue;
    }
    remap[i] = static_cast<int>(grafted.nodes.size());
    grafted.nodes.push_back(old_spec.nodes[i]);
  }
  // Fix copied links.
  for (size_t i = 0; i < old_spec.nodes.size(); ++i) {
    if (remap[i] < 0) continue;
    PartitionNode& n = grafted.nodes[static_cast<size_t>(remap[i])];
    const int old_parent = old_spec.nodes[i].parent;
    n.parent = old_parent >= 0 ? remap[static_cast<size_t>(old_parent)] : -1;
    if (static_cast<int>(i) == anchor) {
      n.left = n.right = -1;  // re-attached below
      continue;
    }
    if (!old_spec.nodes[i].IsLeaf()) {
      n.left = remap[static_cast<size_t>(old_spec.nodes[i].left)];
      n.right = remap[static_cast<size_t>(old_spec.nodes[i].right)];
    }
  }
  // Attach the new subtree under the anchor: sub.spec node 0 becomes the
  // anchor itself (adopt its split), the rest append with offset.
  const int new_anchor = remap[static_cast<size_t>(anchor)];
  const int offset = static_cast<int>(grafted.nodes.size());
  {
    PartitionNode& a = grafted.nodes[static_cast<size_t>(new_anchor)];
    const PartitionNode& sroot = sub.spec.nodes[0];
    a.split_dim = sroot.split_dim;
    a.split_val = sroot.split_val;
    a.left = sroot.left >= 0 ? offset + sroot.left - 1 : -1;
    a.right = sroot.right >= 0 ? offset + sroot.right - 1 : -1;
  }
  for (size_t i = 1; i < sub.spec.nodes.size(); ++i) {
    PartitionNode n = sub.spec.nodes[i];
    n.parent = n.parent == 0 ? new_anchor
                             : offset + n.parent - 1;
    if (n.left >= 0) {
      n.left = offset + n.left - 1;
      n.right = offset + n.right - 1;
    }
    grafted.nodes.push_back(n);
  }
  // Recompute leaves in node order.
  for (size_t i = 0; i < grafted.nodes.size(); ++i) {
    if (grafted.nodes[i].IsLeaf()) {
      grafted.leaves.push_back(static_cast<int>(i));
    }
  }
  // Preserved leaf mapping (everything copied in pass 1 that is a leaf).
  for (size_t i = 0; i < old_spec.nodes.size(); ++i) {
    if (remap[i] >= 0 && static_cast<int>(i) != anchor &&
        old_spec.nodes[i].IsLeaf()) {
      preserved.emplace_back(static_cast<int>(i), remap[i]);
    }
  }

  // Build the new synopsis: preserved leaves keep their statistics; new
  // subtree leaves are seeded from the region's reservoir samples with the
  // subtree's catch-up mass preserved (Appendix E keeps estimates of
  // unchanged nodes and restarts catch-up for the changed region).
  const double h_total = dpt_->catchup_count();
  const double h_sub = dpt_->NodeCatchupCount(anchor);
  const double n0 = static_cast<double>(table_.size());
  auto fresh = std::make_unique<Dpt>(MakeDptOptions(), std::move(grafted));
  for (const auto& [old_node, new_node] : preserved) {
    fresh->CopyLeafStats(*dpt_, old_node, new_node);
  }
  // Seed new leaves: distribute region samples to their new leaves.
  const double scale =
      region_samples.empty()
          ? 0
          : h_sub / static_cast<double>(region_samples.size());
  std::vector<std::vector<Tuple>> per_leaf(fresh->tree().nodes.size());
  for (const Tuple& t : region_samples) {
    per_leaf[static_cast<size_t>(fresh->LeafForTuple(t))].push_back(t);
  }
  for (size_t i = 0; i < per_leaf.size(); ++i) {
    if (per_leaf[i].empty()) continue;
    // Only seed the freshly created leaves (preserved ones keep stats).
    bool is_preserved = false;
    for (const auto& [o, nn] : preserved) {
      (void)o;
      if (nn == static_cast<int>(i)) {
        is_preserved = true;
        break;
      }
    }
    if (is_preserved) continue;
    fresh->SeedLeafCatchupFromSamples(static_cast<int>(i), per_leaf[i], scale);
  }
  fresh->SetCatchupState(StatMode::kCatchup, n0, h_total);
  // Re-attach the pooled reservoir.
  std::vector<Tuple> pool;
  pool.reserve(dpt_->sample_tuples().size());
  for (const auto& [id, t] : dpt_->sample_tuples()) {
    (void)id;
    pool.push_back(t);
  }
  fresh->ResetSamples(pool);
  dpt_ = std::move(fresh);
  const size_t goal = static_cast<size_t>(
      opts_.catchup_rate * static_cast<double>(table_.size()));
  catchup_ = std::make_unique<CatchupEngine>(
      dpt_.get(), table_.store().WithoutIndex(), goal, rng_.Next());
  RefreshBaselines();
  counters_.last_reopt_seconds = timer.ElapsedSeconds();
  ++counters_.partial_repartitions;
  return true;
}

bool JanusAqp::CheckTriggers(const Tuple& t) {
  if (!opts_.enable_triggers) return false;
  if (updates_since_check_.fetch_add(1) + 1 <
      opts_.trigger_check_interval) {
    return false;
  }
  updates_since_check_.store(0);

  bool starved = false;
  int leaf = -1;
  const Dpt* evaluated = nullptr;
  {
    // Evaluation reads the sample index and baselines, which concurrent
    // updaters mutate under update_mu_; the shared tree hold pins the
    // synopsis pointer against a racing repartition (which also makes the
    // dpt_ read below safe).
    ReaderMutexLock tree(&tree_mu_);
    MutexLock lock(&update_mu_);
    if (!dpt_) return false;
    evaluated = dpt_.get();
    ++counters_.trigger_checks;
    leaf = dpt_->LeafForTuple(t);

    // Starvation check (Sec. 5.4): too few samples for robust estimators.
    const double si = dpt_->LeafSampleCount(leaf);
    const double m = static_cast<double>(dpt_->sample_size());
    starved = si < opts_.starvation_factor * std::log2(std::max(2.0, m));

    // Variance drift check.
    const double cur =
        dpt_->sample_index().MaxVariance(dpt_->LeafRect(leaf), opts_.focus);
    const double base = leaf_baseline_var_[static_cast<size_t>(leaf)];
    const bool drift =
        base > 0 && (cur > opts_.beta * base || cur * opts_.beta < base);

    if (!starved && !drift) return false;
    ++counters_.trigger_fires;

    if (opts_.reopt_mode == ReoptMode::kBackground) {
      // Record the request; fires while a build is already in flight
      // coalesce into the next pipeline run.
      reopt_request_ = true;
      reopt_request_starved_ = reopt_request_starved_ || starved;
      reopt_request_leaf_ = leaf;
    }
  }
  if (opts_.reopt_mode == ReoptMode::kBackground) {
    if (reopt_notify_) reopt_notify_();
    return false;
  }

  // Blocking mode: run the pipeline inline. The exclusive tree hold fences
  // the swap against concurrent appliers; if another updater repartitioned
  // between our evaluation and this acquisition the trigger data is stale,
  // so give up and let the next check re-evaluate the new tree.
  WriterMutexLock tree(&tree_mu_);
  MutexLock lock(&update_mu_);
  if (dpt_.get() != evaluated) return false;
  if (starved && opts_.partial_repartition_psi > 0) {
    return PartialRepartition(leaf);
  }
  // Drift runs only adopt a partitioning that beats the current one by a
  // factor beta (Sec. 5.4).
  return ReoptInline(starved ? -1 : leaf);
}

void JanusAqp::Reinitialize() {
  Timer timer;
  WriterMutexLock tree(&tree_mu_);
  MutexLock lock(&update_mu_);
  if (!dpt_) return;
  ReoptInline(-1);
  // Step 4 (Sec. 4.3): fresh archive sample becomes the pooled reservoir,
  // re-sized to the configured rate of the *current* table.
  const size_t target = ReservoirTarget();
  reservoir_ = std::make_unique<DynamicReservoir>(target, rng_.Next());
  std::vector<Tuple> fresh =
      table_.SampleUniform(&rng_, target, opts_.exec);
  reservoir_->Reset(fresh);
  dpt_->ResetSamples(fresh);
  counters_.last_reopt_seconds = timer.ElapsedSeconds();
}

bool JanusAqp::ReoptInline(int drift_leaf) {
  ReoptRun run;
  run.drift_leaf = drift_leaf;
  BeginReopt(&run);
  BuildReopt(&run);
  return FinishReopt(&run);
}

void JanusAqp::ClearReoptRequest() {
  reopt_request_ = false;
  reopt_request_starved_ = false;
  reopt_request_leaf_ = -1;
}

bool JanusAqp::ReoptRequested() const {
  MutexLock lock(&update_mu_);
  return reopt_request_;
}

void JanusAqp::BeginReopt(ReoptRun* run) {
  run->total.Reset();
  run->live_at_begin = dpt_.get();
  run->n0 = table_.size();
}

void JanusAqp::BuildReopt(ReoptRun* run) {
  // No update reaches an inline run's reservoir before its Finish.
  const std::vector<Tuple>& samples =
      run->overlapped ? run->snapshot : reservoir_->samples();
  PartitionResult pr = OptimizePartition(samples, MakeSptOptions(), run->n0);
  run->cand_var = pr.achieved_error * pr.achieved_error;
  // Drift runs stay conditional (Sec. 5.4): adopt only a candidate that
  // beats the live tree by a factor beta. An inline run's live tree cannot
  // change before Finish, so its test is final here and a losing candidate
  // is never populated; an overlapped run retests at Finish.
  run->build_ok = pr.ok && (run->overlapped || run->drift_leaf < 0 ||
                            BeatsLiveTree(run->cand_var));
  if (!run->build_ok) return;
  run->blocking.Reset();
  run->side = std::make_unique<Dpt>(MakeDptOptions(), std::move(pr.spec));
  run->side->InitializeFromReservoir(samples, run->n0);
  run->baselines = ComputeBaselines(*run->side);
}

bool JanusAqp::FinishReopt(ReoptRun* run) {
  // A synopsis replaced by any other path mid-pipeline (explicit
  // Reinitialize, snapshot Load) makes the side tree stale: its snapshot,
  // delta stream and catch-up seed describe a tree that no longer exists.
  const bool live = dpt_.get() == run->live_at_begin;
  const int leaf = run->drift_leaf;
  bool adopt = live && run->build_ok;
  if (adopt && leaf >= 0 && run->overlapped) {
    // The live tree kept absorbing updates during the build: retest.
    adopt = BeatsLiveTree(run->cand_var);
  }
  if (!adopt) {
    if (live && leaf >= 0 &&
        leaf < static_cast<int>(leaf_baseline_var_.size())) {
      // The drifted level is the new normal; avoid re-firing every check.
      leaf_baseline_var_[static_cast<size_t>(leaf)] =
          dpt_->sample_index().MaxVariance(dpt_->LeafRect(leaf), opts_.focus);
    }
    if (run->overlapped) ++counters_.background_discards;
    return false;
  }
  // Replay what the pre-drain left and swap the pointer; the retired tree
  // and catch-up engine move into the run.
  run->replayed += ReplayReoptDelta(run->delta, {run->side.get()});
  dpt_.swap(run->side);
  run->retired_catchup = std::move(catchup_);
  if (!run->overlapped) {
    // Inline, the whole run holds updates off anyway: free the retired tree
    // before the archive copy so the copy does not stack on it. The old
    // catch-up engine (with its archive copy) goes only after the new copy
    // exists: freeing it first hands its pages back to the system, and the
    // copy then pays to fault them in again.
    run->side.reset();
    run->archive =
        std::make_unique<ColumnStore>(table_.store().WithoutIndex());
    run->catchup_seed = rng_.Next();
  }
  const size_t goal = static_cast<size_t>(
      opts_.catchup_rate * static_cast<double>(run->n0));
  catchup_ = std::make_unique<CatchupEngine>(
      dpt_.get(), std::move(*run->archive), goal, run->catchup_seed);
  leaf_baseline_var_ = std::move(run->baselines);
  // Requests recorded against the tree just replaced are superseded by the
  // adoption (fresh baselines, fresh catch-up).
  ClearReoptRequest();
  counters_.delta_ops_replayed += run->replayed;
  counters_.last_blocking_seconds = run->blocking.ElapsedSeconds();
  counters_.last_reopt_seconds = run->total.ElapsedSeconds();
  ++counters_.repartitions;
  if (run->overlapped) ++counters_.background_reopts;
  return true;
}

bool JanusAqp::BeginBackgroundReopt() {
  MutexLock lock(&update_mu_);
  if (bg_ || !dpt_ || !reservoir_) return false;
  auto run = std::make_unique<ReoptRun>();
  run->overlapped = true;
  // Consume the pending request; with none pending this is an explicit,
  // unconditional rebuild (the background Reinitialize analogue). Only
  // requests made of drift fires alone stay conditional.
  if (reopt_request_ && !reopt_request_starved_) {
    run->drift_leaf = reopt_request_leaf_;
  }
  ClearReoptRequest();
  BeginReopt(run.get());
  run->snapshot = reservoir_->samples();
  // Only the archive's id order is captured here; the payload copy — tens
  // of milliseconds at 1M rows, far too long for a hold that fences queries
  // — is deferred to AssembleReoptArchive in stage 2. The catch-up seed is
  // drawn *now*, so the RNG stream is positioned exactly as if an inline
  // run had adopted at this point (the equivalence contract).
  run->t0_ids = table_.store().ids();
  run->archive = std::make_unique<ColumnStore>(table_.store().schema());
  run->catchup_seed = rng_.Next();
  bg_ = std::move(run);  // updates are double-applied from here on
  return true;
}

void JanusAqp::AssembleReoptArchive(ReoptRun* run) {
  // Reconstruct the Begin-time archive: for every id in Begin-time order,
  // the payload is either still live (payloads are immutable while live) or
  // was parked in run->rescued by the delete that removed it. Chunked holds
  // keep each update-mutex acquisition bounded, so concurrent inserters —
  // who hold the update room while they wait on this mutex — never dam up
  // the room turn long enough for queries to notice.
  constexpr size_t kChunk = 16384;
  run->archive->Reserve(run->t0_ids.size());
  for (;;) {
    std::vector<Tuple> rows;
    rows.reserve(kChunk);
    bool done = false;
    {
      MutexLock lock(&update_mu_);
      const size_t end = std::min(run->copy_pos + kChunk, run->t0_ids.size());
      for (size_t i = run->copy_pos; i < end; ++i) {
        const uint64_t id = run->t0_ids[i];
        const auto it = run->rescued.find(id);
        if (it != run->rescued.end()) {
          rows.push_back(it->second);
          continue;
        }
        const std::optional<Tuple> live = table_.Find(id);
        if (!live.has_value()) {
          run->copy_failed = true;
          return;
        }
        rows.push_back(*live);
      }
      run->copy_pos = end;
      done = end == run->t0_ids.size();
    }
    // Only this thread touches run->archive between Begin and Finish; the
    // append runs outside the lock.
    run->archive->BulkAppend(rows);
    if (done) break;
  }
  {
    // Assembly complete: deletes stop parking payloads (copy_pos == size
    // turns the capture condition off); free the bookkeeping eagerly.
    MutexLock lock(&update_mu_);
    std::vector<uint64_t>().swap(run->t0_ids);
    run->copy_pos = 0;
    run->rescued.clear();
  }
}

void JanusAqp::BuildBackgroundReopt() {
  if (!bg_) return;
  AssembleReoptArchive(bg_.get());
  if (bg_->copy_failed) return;  // build_ok stays false; Finish discards.
  BuildReopt(bg_.get());
  if (!bg_->build_ok) return;
  bg_->replayed += PreDrainReoptDelta(&update_mu_, &bg_->delta,
                                      opts_.reopt_delta_tail,
                                      {bg_->side.get()});
}

bool JanusAqp::FinishBackgroundReopt() {
  if (!bg_) return false;
  // Declared before the lock guards so it is destroyed after they release:
  // the run ends up holding the retired tree, the old catch-up's archive
  // snapshot and the delta buffer, and freeing those costs several
  // milliseconds at 1M rows — none of it belongs in the exclusive window.
  std::unique_ptr<ReoptRun> run;
  bg_->blocking.Reset();
  WriterMutexLock tree(&tree_mu_);
  MutexLock lock(&update_mu_);
  run = std::move(bg_);  // ends the capture
  return FinishReopt(run.get());
}

void CaptureReoptDelta(ReoptDeltaOp::Kind update, const Tuple& t,
                       const ReservoirChange& ch,
                       const std::vector<Tuple>& fresh,
                       std::vector<ReoptDeltaOp>* delta) {
  if (ch.needs_resample) {
    delta->push_back({ReoptDeltaOp::Kind::kSampleReset, Tuple{}, fresh});
  } else {
    if (ch.evicted.has_value()) {
      delta->push_back({ReoptDeltaOp::Kind::kSampleRemove, *ch.evicted, {}});
    }
    if (ch.added.has_value()) {
      delta->push_back({ReoptDeltaOp::Kind::kSampleAdd, *ch.added, {}});
    }
  }
  delta->push_back({update, t, {}});
}

uint64_t ReplayReoptDelta(const std::vector<ReoptDeltaOp>& ops,
                          const std::vector<Dpt*>& sides) {
  for (Dpt* side : sides) {
    for (const ReoptDeltaOp& op : ops) {
      switch (op.kind) {
        case ReoptDeltaOp::Kind::kInsert:
          side->ApplyInsert(op.t);
          break;
        case ReoptDeltaOp::Kind::kDelete:
          side->ApplyDelete(op.t);
          break;
        case ReoptDeltaOp::Kind::kSampleAdd:
          side->SampleAdd(op.t);
          break;
        case ReoptDeltaOp::Kind::kSampleRemove:
          side->SampleRemove(op.t);
          break;
        case ReoptDeltaOp::Kind::kSampleReset:
          side->ResetSamples(op.reset);
          break;
      }
    }
  }
  return static_cast<uint64_t>(ops.size() * sides.size());
}

uint64_t PreDrainReoptDelta(Mutex* mu, std::vector<ReoptDeltaOp>* delta,
                            size_t tail, const std::vector<Dpt*>& sides) {
  uint64_t replayed = 0;
  for (int round = 0; round < 8; ++round) {
    std::vector<ReoptDeltaOp> batch;
    {
      MutexLock lock(mu);
      if (delta->size() <= tail) break;
      batch.swap(*delta);
    }
    replayed += ReplayReoptDelta(batch, sides);
  }
  return replayed;
}

void JanusAqp::SaveTo(persist::Writer* w) const {
  table_.SaveTo(w);
  rng_.SaveTo(w);

  w->U64(counters_.inserts);
  w->U64(counters_.deletes);
  w->U64(counters_.reservoir_resamples);
  w->U64(counters_.trigger_checks);
  w->U64(counters_.trigger_fires);
  w->U64(counters_.repartitions);
  w->U64(counters_.partial_repartitions);
  w->U64(counters_.partial_repartition_fallbacks);
  w->U64(counters_.background_reopts);
  w->U64(counters_.background_discards);
  w->U64(counters_.delta_ops_replayed);
  w->F64(counters_.last_reopt_seconds);
  w->F64(counters_.last_blocking_seconds);
  w->U64(updates_since_check_.load());
  w->F64Vec(leaf_baseline_var_);

  w->Bool(reservoir_ != nullptr);
  if (reservoir_) reservoir_->SaveTo(w);
  w->Bool(dpt_ != nullptr);
  if (dpt_) dpt_->SaveTo(w);
  w->Bool(catchup_ != nullptr);
  if (catchup_) catchup_->SaveTo(w);
}

void JanusAqp::LoadFrom(persist::Reader* r) {
  table_.LoadFrom(r);
  rng_.LoadFrom(r);

  counters_.inserts = r->U64();
  counters_.deletes = r->U64();
  counters_.reservoir_resamples = r->U64();
  counters_.trigger_checks = r->U64();
  counters_.trigger_fires = r->U64();
  counters_.repartitions = r->U64();
  counters_.partial_repartitions = r->U64();
  counters_.partial_repartition_fallbacks = r->U64();
  counters_.background_reopts = r->U64();
  counters_.background_discards = r->U64();
  counters_.delta_ops_replayed = r->U64();
  counters_.last_reopt_seconds = r->F64();
  counters_.last_blocking_seconds = r->F64();
  updates_since_check_.store(r->U64());
  leaf_baseline_var_ = r->F64Vec();

  if (r->Bool()) {
    reservoir_ = std::make_unique<DynamicReservoir>(2, 0);
    reservoir_->LoadFrom(r);
  } else {
    reservoir_.reset();
  }
  if (r->Bool()) {
    dpt_ = std::make_unique<Dpt>(MakeDptOptions(), PartitionTreeSpec{});
    dpt_->LoadFrom(r);
  } else {
    dpt_.reset();
  }
  if (r->Bool()) {
    if (!dpt_) {
      throw persist::PersistError(
          "snapshot corrupt: catch-up state without a synopsis");
    }
    catchup_ = std::make_unique<CatchupEngine>(dpt_.get(),
                                               ColumnStore(opts_.schema),
                                               /*goal_samples=*/0, /*seed=*/0);
    catchup_->LoadFrom(r);
  } else {
    catchup_.reset();
  }
}

void JanusAqp::CheckInvariants() const {
  table_.store().CheckInvariants();
  if (reservoir_) {
    reservoir_->CheckInvariants();
    for (const Tuple& t : reservoir_->samples()) {
      invariants::Require(table_.Find(t.id).has_value(), "JanusAqp",
                          "reservoir holds id " + std::to_string(t.id) +
                              " that is not live in the archive");
    }
  }
  if (dpt_) {
    dpt_->CheckInvariants();
    // The DPT's sample mirror tracks the reservoir one change at a time
    // (added/evicted deltas); id-set equality proves no delta was dropped.
    if (reservoir_) {
      const auto& mirror = dpt_->sample_tuples();
      invariants::Require(
          mirror.size() == reservoir_->size(), "JanusAqp",
          "DPT sample mirror holds " + std::to_string(mirror.size()) +
              " tuples but the reservoir holds " +
              std::to_string(reservoir_->size()));
      for (const Tuple& t : reservoir_->samples()) {
        invariants::Require(mirror.contains(t.id), "JanusAqp",
                            "reservoir sample id " + std::to_string(t.id) +
                                " missing from the DPT sample mirror");
      }
    }
  }
}

}  // namespace janus
