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

JanusAqp::~JanusAqp() {
  if (opt_thread_.joinable()) opt_thread_.join();
}

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

void JanusAqp::AdoptSpec(PartitionTreeSpec spec) {
  dpt_ = std::make_unique<Dpt>(MakeDptOptions(), std::move(spec));
  dpt_->InitializeFromReservoir(reservoir_->samples(), table_.size());
  const size_t goal = static_cast<size_t>(
      opts_.catchup_rate * static_cast<double>(table_.size()));
  catchup_ = std::make_unique<CatchupEngine>(
      dpt_.get(), table_.store().WithoutIndex(), goal, rng_.Next());
  RefreshBaselines();
}

void JanusAqp::Initialize() {
  const size_t target = std::max<size_t>(
      32, static_cast<size_t>(2.0 * opts_.sample_rate *
                              static_cast<double>(table_.size())));
  reservoir_ = std::make_unique<DynamicReservoir>(target, rng_.Next());
  reservoir_->Reset(table_.SampleUniform(&rng_, target, opts_.exec));
  Timer timer;
  PartitionResult pr =
      OptimizePartition(reservoir_->samples(), MakeSptOptions(),
                        table_.size());
  Timer blocking;
  AdoptSpec(std::move(pr.spec));
  counters_.last_blocking_seconds = blocking.ElapsedSeconds();
  counters_.last_reopt_seconds = timer.ElapsedSeconds();
}

void JanusAqp::Insert(const Tuple& t) {
  {
    MutexLock lock(&update_mu_);
    table_.Insert(t);
    ++counters_.inserts;
    ReservoirChange ch = reservoir_->OnInsert(t, table_.size());
    if (ch.evicted.has_value()) {
      dpt_->SampleRemove(*ch.evicted);
      if (bg_capture_) {
        bg_.delta.push_back({ReoptDeltaOp::Kind::kSampleRemove, *ch.evicted, {}});
      }
    }
    if (ch.added.has_value()) {
      dpt_->SampleAdd(*ch.added);
      if (bg_capture_) {
        bg_.delta.push_back({ReoptDeltaOp::Kind::kSampleAdd, *ch.added, {}});
      }
    }
    if (bg_capture_) bg_.delta.push_back({ReoptDeltaOp::Kind::kInsert, t, {}});
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
    if (bg_capture_ && bg_.copy_pos < bg_.t0_ids.size()) {
      bg_.rescued.emplace(id, t);
    }
    table_.Delete(id);
    ++counters_.deletes;
    ReservoirChange ch = reservoir_->OnDelete(id);
    if (ch.needs_resample) {
      // Sec. 4.2: |S| hit its lower bound m; re-sample 2m from the archive.
      std::vector<Tuple> fresh =
          table_.SampleUniform(&rng_, reservoir_->capacity(), opts_.exec);
      reservoir_->Reset(fresh);
      dpt_->ResetSamples(fresh);
      ++counters_.reservoir_resamples;
      if (bg_capture_) {
        bg_.delta.push_back({ReoptDeltaOp::Kind::kSampleReset, Tuple{}, fresh});
      }
    } else if (ch.evicted.has_value()) {
      dpt_->SampleRemove(*ch.evicted);
      if (bg_capture_) {
        bg_.delta.push_back({ReoptDeltaOp::Kind::kSampleRemove, *ch.evicted, {}});
      }
    }
    if (bg_capture_) bg_.delta.push_back({ReoptDeltaOp::Kind::kDelete, t, {}});
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

double JanusAqp::CurrentTreeMaxVariance() const {
  double worst = 0;
  for (double v : LeafMaxVariances(dpt_->sample_index(), dpt_->tree(),
                                   opts_.focus, opts_.exec)) {
    worst = std::max(worst, v);
  }
  return worst;
}

bool JanusAqp::FullRepartition() {
  Timer timer;
  PartitionResult pr =
      OptimizePartition(reservoir_->samples(), MakeSptOptions(),
                        table_.size());
  if (!pr.ok) return false;
  Timer blocking;
  AdoptSpec(std::move(pr.spec));
  counters_.last_blocking_seconds = blocking.ElapsedSeconds();
  counters_.last_reopt_seconds = timer.ElapsedSeconds();
  ++counters_.repartitions;
  return true;
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
  if (anchor == 0) return FullRepartition();

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
    return FullRepartition();
  }

  Timer timer;
  SptOptions sopts = MakeSptOptions();
  sopts.num_leaves = subtree_leaves;
  PartitionResult sub =
      OptimizePartition(region_samples, sopts, table_.size());
  if (!sub.ok) {
    ++counters_.partial_repartition_fallbacks;
    return FullRepartition();
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
  if (!opts_.enable_triggers || !dpt_) return false;
  if (updates_since_check_.fetch_add(1) + 1 <
      opts_.trigger_check_interval) {
    return false;
  }
  updates_since_check_.store(0);

  bool starved = false;
  bool drift = false;
  int leaf = -1;
  double cur = 0;
  const Dpt* evaluated = nullptr;
  {
    // Evaluation reads the sample index and baselines, which concurrent
    // updaters mutate under update_mu_; the shared tree hold pins the
    // synopsis pointer against a racing repartition.
    ReaderMutexLock tree(&tree_mu_);
    MutexLock lock(&update_mu_);
    evaluated = dpt_.get();
    ++counters_.trigger_checks;
    leaf = dpt_->LeafForTuple(t);

    // Starvation check (Sec. 5.4): too few samples for robust estimators.
    const double si = dpt_->LeafSampleCount(leaf);
    const double m = static_cast<double>(dpt_->sample_size());
    starved = si < opts_.starvation_factor * std::log2(std::max(2.0, m));

    // Variance drift check.
    cur = dpt_->sample_index().MaxVariance(dpt_->LeafRect(leaf), opts_.focus);
    const double base = leaf_baseline_var_[static_cast<size_t>(leaf)];
    drift = base > 0 && (cur > opts_.beta * base || cur * opts_.beta < base);

    if (!starved && !drift) return false;
    ++counters_.trigger_fires;

    if (opts_.reopt_mode == ReoptMode::kBackground) {
      // Record the request; fires while a build is already in flight
      // coalesce into the next pipeline run.
      reopt_request_ = true;
      reopt_request_starved_ = reopt_request_starved_ || starved;
      reopt_request_drift_ = reopt_request_drift_ || (drift && !starved);
      reopt_request_leaf_ = leaf;
    }
  }
  if (opts_.reopt_mode == ReoptMode::kBackground) {
    if (reopt_notify_) reopt_notify_();
    return false;
  }

  // Blocking mode: rebuild inline. The exclusive tree hold fences the
  // swap against concurrent appliers; if another updater repartitioned
  // between our evaluation and this acquisition the trigger data is stale,
  // so give up and let the next check re-evaluate the new tree.
  WriterMutexLock tree(&tree_mu_);
  MutexLock lock(&update_mu_);
  if (dpt_.get() != evaluated) return false;

  if (starved) {
    if (opts_.partial_repartition_psi > 0) return PartialRepartition(leaf);
    return FullRepartition();
  }

  // Drift: only adopt a new partitioning if it beats the current one by a
  // factor beta (Sec. 5.4).
  PartitionResult cand =
      OptimizePartition(reservoir_->samples(), MakeSptOptions(),
                        table_.size());
  const double cand_var = cand.achieved_error * cand.achieved_error;
  const double cur_max = CurrentTreeMaxVariance();
  if (cand.ok && cand_var * opts_.beta < cur_max) {
    Timer blocking;
    AdoptSpec(std::move(cand.spec));
    counters_.last_blocking_seconds = blocking.ElapsedSeconds();
    ++counters_.repartitions;
    return true;
  }
  // The drifted level is the new normal; avoid re-firing every check.
  leaf_baseline_var_[static_cast<size_t>(leaf)] = cur;
  return false;
}

void JanusAqp::Reinitialize() {
  Timer timer;
  PartitionResult pr =
      OptimizePartition(reservoir_->samples(), MakeSptOptions(),
                        table_.size());
  Timer blocking;
  AdoptSpec(std::move(pr.spec));
  counters_.last_blocking_seconds = blocking.ElapsedSeconds();
  // Step 4 (Sec. 4.3): fresh archive sample becomes the pooled reservoir,
  // re-sized to the configured rate of the *current* table.
  const size_t target = std::max<size_t>(
      32, static_cast<size_t>(2.0 * opts_.sample_rate *
                              static_cast<double>(table_.size())));
  reservoir_ = std::make_unique<DynamicReservoir>(target, rng_.Next());
  std::vector<Tuple> fresh =
      table_.SampleUniform(&rng_, target, opts_.exec);
  reservoir_->Reset(fresh);
  dpt_->ResetSamples(fresh);
  counters_.last_reopt_seconds = timer.ElapsedSeconds();
  ++counters_.repartitions;
}

bool JanusAqp::ReoptRequested() const {
  MutexLock lock(&update_mu_);
  return reopt_request_;
}

bool JanusAqp::BeginBackgroundReopt() {
  MutexLock lock(&update_mu_);
  if (bg_active_ || !dpt_ || !reservoir_) return false;
  bg_ = BackgroundReopt{};
  // Consume the pending request; with none pending this is an explicit,
  // unconditional rebuild (the background Reinitialize analogue).
  bg_.starved = reopt_request_ ? reopt_request_starved_ : true;
  bg_.drift =
      reopt_request_ && reopt_request_drift_ && !reopt_request_starved_;
  bg_.drift_leaf = reopt_request_leaf_;
  reopt_request_ = false;
  reopt_request_starved_ = false;
  reopt_request_drift_ = false;
  reopt_request_leaf_ = -1;
  // T0 snapshot: pooled sample, |D|, an index-free archive copy, and the
  // catch-up seed — drawn *now*, so the RNG stream is positioned exactly as
  // if a blocking rebuild had adopted at this point (the equivalence
  // contract in the header depends on this).
  bg_.live_at_begin = dpt_.get();
  bg_.snapshot = reservoir_->samples();
  bg_.n0 = table_.size();
  // Only the id order is captured here; the payload copy — tens of
  // milliseconds at 1M rows, far too long for a hold that fences queries —
  // is deferred to AssembleReoptArchive in stage 2.
  bg_.t0_ids = table_.store().ids();
  bg_.archive = std::make_unique<ColumnStore>(table_.store().schema());
  bg_.catchup_seed = rng_.Next();
  bg_.total.Reset();
  bg_capture_ = true;
  bg_active_ = true;
  return true;
}

void JanusAqp::AssembleReoptArchive() {
  // Reconstruct the Begin-time archive: for every id in Begin-time order,
  // the payload is either still live (payloads are immutable while live) or
  // was parked in bg_.rescued by the delete that removed it. Chunked holds
  // keep each update-mutex acquisition bounded, so concurrent inserters —
  // who hold the update room while they wait on this mutex — never dam up
  // the room turn long enough for queries to notice.
  constexpr size_t kChunk = 16384;
  bg_.archive->Reserve(bg_.t0_ids.size());
  for (;;) {
    std::vector<Tuple> rows;
    rows.reserve(kChunk);
    bool done = false;
    {
      MutexLock lock(&update_mu_);
      const size_t end = std::min(bg_.copy_pos + kChunk, bg_.t0_ids.size());
      for (size_t i = bg_.copy_pos; i < end; ++i) {
        const uint64_t id = bg_.t0_ids[i];
        const auto it = bg_.rescued.find(id);
        if (it != bg_.rescued.end()) {
          rows.push_back(it->second);
          continue;
        }
        const std::optional<Tuple> live = table_.Find(id);
        if (!live.has_value()) {
          bg_.copy_failed = true;
          return;
        }
        rows.push_back(*live);
      }
      bg_.copy_pos = end;
      done = end == bg_.t0_ids.size();
    }
    // Only this thread touches bg_.archive between Begin and Finish; the
    // append runs outside the lock.
    bg_.archive->BulkAppend(rows);
    if (done) break;
  }
  {
    // Assembly complete: deletes stop parking payloads (copy_pos == size
    // turns the capture condition off); free the bookkeeping eagerly.
    MutexLock lock(&update_mu_);
    std::vector<uint64_t>().swap(bg_.t0_ids);
    bg_.copy_pos = 0;
    bg_.rescued.clear();
  }
}

void JanusAqp::BuildBackgroundReopt() {
  if (!bg_active_) return;
  AssembleReoptArchive();
  if (bg_.copy_failed) return;  // build_ok stays false; Finish discards.
  PartitionResult pr =
      OptimizePartition(bg_.snapshot, MakeSptOptions(), bg_.n0);
  bg_.build_ok = pr.ok;
  if (!pr.ok) return;
  bg_.cand_var = pr.achieved_error * pr.achieved_error;
  bg_.side = std::make_unique<Dpt>(MakeDptOptions(), std::move(pr.spec));
  bg_.side->InitializeFromReservoir(bg_.snapshot, bg_.n0);
  // Baselines of the snapshot-initialized tree — what a blocking rebuild at
  // the Begin point would compute. Doing it here keeps the per-leaf
  // MaxVariance sweep out of the exclusive adoption step.
  bg_.baselines = ComputeBaselines(*bg_.side);
  // Pre-drain: keep swapping the delta buffer out (under update_mu_) and
  // replaying it into the side tree without any lock, until the tail fits
  // the exclusive step's budget. Rounds are bounded — a hot update stream
  // can always outrun the drain, and the tail replay handles the rest.
  for (int round = 0; round < 8; ++round) {
    std::vector<ReoptDeltaOp> batch;
    {
      MutexLock lock(&update_mu_);
      if (bg_.delta.size() <= opts_.reopt_delta_tail) break;
      batch.swap(bg_.delta);
    }
    bg_.replayed += ReplayReoptDelta(batch, bg_.side.get());
  }
}

bool JanusAqp::FinishBackgroundReopt() {
  if (!bg_active_) return false;
  // Retired state is moved aside under the locks (O(1) pointer moves) and
  // freed only after they release: destroying the old tree's sample index
  // and the old catch-up's archive snapshot costs several milliseconds at
  // 1M rows, and none of it belongs in the exclusive blocking window.
  // Declared before the lock guards so destructor order runs locks-first.
  std::unique_ptr<Dpt> retired_dpt;
  std::unique_ptr<CatchupEngine> retired_catchup;
  BackgroundReopt retired_bg;
  Timer blocking;
  WriterMutexLock tree(&tree_mu_);
  MutexLock lock(&update_mu_);
  bg_active_ = false;
  bg_capture_ = false;
  // A synopsis replaced by any other path mid-pipeline (explicit
  // Reinitialize, snapshot Load) makes the side tree stale: its snapshot,
  // delta stream and catch-up seed describe a tree that no longer exists.
  bool adopt = bg_.build_ok && bg_.side != nullptr &&
               dpt_.get() == bg_.live_at_begin;
  if (adopt && bg_.drift && !bg_.starved) {
    // Drift requests stay conditional (Sec. 5.4): adopt only if the
    // candidate still beats the live tree — which kept absorbing updates
    // during the build — by a factor beta.
    const double cur_max = CurrentTreeMaxVariance();
    if (!(bg_.cand_var * opts_.beta < cur_max)) {
      adopt = false;
      const int leaf = bg_.drift_leaf;
      if (leaf >= 0 && leaf < static_cast<int>(leaf_baseline_var_.size())) {
        // As in the blocking path: the drifted level is the new normal.
        leaf_baseline_var_[static_cast<size_t>(leaf)] =
            dpt_->sample_index().MaxVariance(dpt_->LeafRect(leaf),
                                             opts_.focus);
      }
    }
  }
  if (!adopt) {
    ++counters_.background_discards;
    retired_bg = std::move(bg_);
    bg_ = BackgroundReopt{};
    return false;
  }
  // The exclusive tail: replay what the pre-drain left, swap the pointer,
  // restart catch-up from the Begin-time archive snapshot and seed.
  bg_.replayed += ReplayReoptDelta(bg_.delta, bg_.side.get());
  retired_dpt = std::move(dpt_);
  dpt_ = std::move(bg_.side);
  const size_t goal = static_cast<size_t>(
      opts_.catchup_rate * static_cast<double>(bg_.n0));
  retired_catchup = std::move(catchup_);
  catchup_ = std::make_unique<CatchupEngine>(
      dpt_.get(), std::move(*bg_.archive), goal, bg_.catchup_seed);
  leaf_baseline_var_ = std::move(bg_.baselines);
  // Requests recorded while the build ran were evaluated against the tree
  // just replaced; adoption (fresh baselines, fresh catch-up) supersedes
  // them.
  reopt_request_ = false;
  reopt_request_starved_ = false;
  reopt_request_drift_ = false;
  reopt_request_leaf_ = -1;
  counters_.delta_ops_replayed += bg_.replayed;
  counters_.last_blocking_seconds = blocking.ElapsedSeconds();
  counters_.last_reopt_seconds = bg_.total.ElapsedSeconds();
  ++counters_.repartitions;
  ++counters_.background_reopts;
  retired_bg = std::move(bg_);
  bg_ = BackgroundReopt{};
  return true;
}

uint64_t ReplayReoptDelta(const std::vector<ReoptDeltaOp>& ops, Dpt* side) {
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
  return static_cast<uint64_t>(ops.size());
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

void JanusAqp::BeginReinitialize() {
  if (opt_running_) return;
  opt_running_ = true;
  opt_done_.store(false);
  // The optimizer works on a snapshot of the pooled sample (Sec. 4.3 step 1
  // runs in parallel with maintenance of the old synopsis).
  std::vector<Tuple> snapshot;
  {
    MutexLock lock(&update_mu_);
    snapshot = reservoir_->samples();
  }
  const size_t n = table_.size();
  opt_thread_ = std::thread([this, snapshot = std::move(snapshot), n] {
    opt_result_ = OptimizePartition(snapshot, MakeSptOptions(), n);
    opt_done_.store(true);
  });
}

bool JanusAqp::ReinitializeReady() const { return opt_done_.load(); }

double JanusAqp::FinishReinitialize() {
  if (!opt_running_) return 0;
  opt_thread_.join();
  opt_running_ = false;
  Timer blocking;
  {
    WriterMutexLock tree(&tree_mu_);
    MutexLock lock(&update_mu_);
    AdoptSpec(std::move(opt_result_.spec));
  }
  const double secs = blocking.ElapsedSeconds();
  counters_.last_blocking_seconds = secs;
  // Step 4: fresh reservoir off the critical path, re-sized to the current
  // table.
  {
    MutexLock lock(&update_mu_);
    const size_t target = std::max<size_t>(
        32, static_cast<size_t>(2.0 * opts_.sample_rate *
                                static_cast<double>(table_.size())));
    reservoir_ = std::make_unique<DynamicReservoir>(target, rng_.Next());
    std::vector<Tuple> fresh =
      table_.SampleUniform(&rng_, target, opts_.exec);
    reservoir_->Reset(fresh);
    dpt_->ResetSamples(fresh);
  }
  ++counters_.repartitions;
  return secs;
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
