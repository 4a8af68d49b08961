#include "core/multi.h"

#include <algorithm>

#include "persist/serde.h"

namespace janus {

MultiTemplateJanus::MultiTemplateJanus(const JanusOptions& base)
    : base_(base), table_(base.schema), rng_(base.seed) {}

int MultiTemplateJanus::TemplateFor(
    const std::vector<int>& predicate_columns) const {
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].spec.predicate_columns == predicate_columns) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

int MultiTemplateJanus::AddTemplate(const SynopsisSpec& spec) {
  const int existing = TemplateFor(spec.predicate_columns);
  if (existing >= 0 &&
      entries_[static_cast<size_t>(existing)].spec.agg_column ==
          spec.agg_column) {
    return existing;
  }
  Entry entry;
  entry.spec = spec;
  entries_.push_back(std::move(entry));
  const int idx = static_cast<int>(entries_.size()) - 1;
  if (initialized_) BuildEntry(&entries_[static_cast<size_t>(idx)]);
  return idx;
}

SptOptions MultiTemplateJanus::MakeSptOptions(const SynopsisSpec& spec) const {
  SptOptions s;
  s.spec = spec;
  s.num_leaves = base_.num_leaves;
  s.focus = base_.focus;
  s.sample_rate = base_.sample_rate;
  s.algorithm = base_.algorithm;
  s.rho = base_.rho;
  s.delta = base_.delta;
  s.minmax_k = base_.minmax_k;
  s.confidence = base_.confidence;
  s.seed = base_.seed;
  s.exec = base_.exec;
  return s;
}

DptOptions MultiTemplateJanus::MakeDptOptions(const SynopsisSpec& spec) const {
  DptOptions dopts;
  dopts.spec = spec;
  dopts.sample_rate = base_.sample_rate;
  dopts.minmax_k = base_.minmax_k;
  dopts.confidence = base_.confidence;
  dopts.delta = base_.delta;
  dopts.exec = base_.exec;
  return dopts;
}

void MultiTemplateJanus::BuildEntry(Entry* entry) {
  PartitionResult pr = OptimizePartition(reservoir_->samples(),
                                         MakeSptOptions(entry->spec),
                                         table_.size());
  entry->dpt = std::make_unique<Dpt>(MakeDptOptions(entry->spec),
                                     std::move(pr.spec));
  entry->dpt->InitializeFromReservoir(reservoir_->samples(), table_.size());
  const size_t goal = static_cast<size_t>(
      base_.catchup_rate * static_cast<double>(table_.size()));
  entry->catchup = std::make_unique<CatchupEngine>(
      entry->dpt.get(), table_.store().WithoutIndex(), goal, rng_.Next());
}

void MultiTemplateJanus::LoadInitial(const std::vector<Tuple>& rows) {
  for (const Tuple& t : rows) table_.Insert(t);
}

void MultiTemplateJanus::Initialize() {
  const size_t target = std::max<size_t>(
      32, static_cast<size_t>(2.0 * base_.sample_rate *
                              static_cast<double>(table_.size())));
  reservoir_ = std::make_unique<DynamicReservoir>(target, rng_.Next());
  reservoir_->Reset(table_.SampleUniform(&rng_, target, base_.exec));
  initialized_ = true;
  for (Entry& entry : entries_) BuildEntry(&entry);
}

void MultiTemplateJanus::Insert(const Tuple& t) {
  table_.Insert(t);
  // One global reservoir decision shared by every tree (Sec. 5.5: the set S
  // is stored once; each tree only indexes it).
  ReservoirChange ch = reservoir_->OnInsert(t, table_.size());
  Capture(ReoptDeltaOp::Kind::kInsert, t, ch, {});
  for (Entry& entry : entries_) {
    if (ch.evicted.has_value()) entry.dpt->SampleRemove(*ch.evicted);
    if (ch.added.has_value()) entry.dpt->SampleAdd(*ch.added);
    entry.dpt->ApplyInsert(t);
  }
}

bool MultiTemplateJanus::Delete(uint64_t id) {
  const std::optional<Tuple> p = table_.Find(id);
  if (!p.has_value()) return false;
  const Tuple t = *p;
  table_.Delete(id);
  ReservoirChange ch = reservoir_->OnDelete(id);
  std::vector<Tuple> fresh;
  if (ch.needs_resample) {
    fresh = table_.SampleUniform(&rng_, reservoir_->capacity(), base_.exec);
    reservoir_->Reset(fresh);
  }
  Capture(ReoptDeltaOp::Kind::kDelete, t, ch, fresh);
  for (Entry& entry : entries_) {
    if (ch.needs_resample) {
      entry.dpt->ResetSamples(fresh);
    } else if (ch.evicted.has_value()) {
      entry.dpt->SampleRemove(*ch.evicted);
    }
    entry.dpt->ApplyDelete(t);
  }
  return true;
}

QueryResult MultiTemplateJanus::Query(const AggQuery& q) {
  int idx = TemplateFor(q.predicate_columns);
  if (idx < 0) {
    // A query from a new template: build its tree on demand from the pooled
    // sample and start catch-up for it (Sec. 5.5). The first answer is
    // sample-grade; subsequent ones improve as catch-up proceeds.
    SynopsisSpec spec;
    spec.agg_column = q.agg_column;
    spec.predicate_columns = q.predicate_columns;
    idx = AddTemplate(spec);
  }
  return entries_[static_cast<size_t>(idx)].dpt->Query(q);
}

void MultiTemplateJanus::RunCatchupToGoal() {
  for (Entry& entry : entries_) {
    if (entry.catchup) entry.catchup->RunToGoal();
  }
}

void MultiTemplateJanus::Rebuild() {
  if (!initialized_) return;
  RebuildRun run;
  BeginRebuild(&run);
  BuildRebuild(&run);
  FinishRebuild(&run);
}

void MultiTemplateJanus::Capture(ReoptDeltaOp::Kind update, const Tuple& t,
                                 const ReservoirChange& ch,
                                 const std::vector<Tuple>& fresh) {
  if (!bg_) return;
  // One shared op stream, replayed into every side tree in the same
  // per-tree order as the live application.
  MutexLock lock(&delta_mu_);
  CaptureReoptDelta(update, t, ch, fresh, &bg_->delta);
}

void MultiTemplateJanus::BeginRebuild(RebuildRun* run) {
  run->snapshot = reservoir_->samples();
  run->n0 = table_.size();
  const size_t n = entries_.size();
  run->specs.reserve(n);
  run->seeds.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    run->specs.push_back(entries_[i].spec);
    // Entry-order draws, so an inline and a background run at the same
    // point leave the RNG stream in the same place (the equivalence
    // contract).
    run->seeds.push_back(rng_.Next());
  }
  run->sides.resize(n);
}

void MultiTemplateJanus::BuildRebuild(RebuildRun* run) {
  std::vector<Dpt*> sides;
  for (size_t i = 0; i < run->specs.size(); ++i) {
    PartitionResult pr = OptimizePartition(
        run->snapshot, MakeSptOptions(run->specs[i]), run->n0);
    run->sides[i] = std::make_unique<Dpt>(MakeDptOptions(run->specs[i]),
                                          std::move(pr.spec));
    run->sides[i]->InitializeFromReservoir(run->snapshot, run->n0);
    sides.push_back(run->sides[i].get());
  }
  run->replayed += PreDrainReoptDelta(&delta_mu_, &run->delta,
                                      base_.reopt_delta_tail, sides);
}

void MultiTemplateJanus::FinishRebuild(RebuildRun* run) {
  const size_t goal = static_cast<size_t>(
      base_.catchup_rate * static_cast<double>(run->n0));
  const ColumnStore& archive = run->archive ? *run->archive : table_.store();
  // Swap only the templates that existed at Begin; later discoveries built
  // live trees from the current reservoir and need no replacement. Entry
  // indices are stable — discovery only appends.
  for (size_t i = 0; i < run->sides.size(); ++i) {
    run->replayed += ReplayReoptDelta(run->delta, {run->sides[i].get()});
    Entry& e = entries_[i];
    e.dpt = std::move(run->sides[i]);
    e.catchup = std::make_unique<CatchupEngine>(
        e.dpt.get(), archive.WithoutIndex(), goal, run->seeds[i]);
  }
}

bool MultiTemplateJanus::BeginBackgroundRebuild() {
  if (bg_ || !initialized_ || !reservoir_) return false;
  auto run = std::make_unique<RebuildRun>();
  BeginRebuild(run.get());
  run->archive = std::make_unique<ColumnStore>(table_.store().WithoutIndex());
  bg_ = std::move(run);  // updates are double-applied from here on
  return true;
}

void MultiTemplateJanus::BuildBackgroundRebuild() {
  if (bg_) BuildRebuild(bg_.get());
}

bool MultiTemplateJanus::FinishBackgroundRebuild(uint64_t* replayed) {
  if (!bg_) return false;
  const std::unique_ptr<RebuildRun> run = std::move(bg_);
  FinishRebuild(run.get());
  if (replayed != nullptr) *replayed = run->replayed;
  return true;
}

void MultiTemplateJanus::SaveTo(persist::Writer* w) const {
  table_.SaveTo(w);
  rng_.SaveTo(w);
  w->Bool(initialized_);
  w->Bool(reservoir_ != nullptr);
  if (reservoir_) reservoir_->SaveTo(w);
  w->Size(entries_.size());
  for (const Entry& e : entries_) {
    w->I32(e.spec.agg_column);
    w->IntVec(e.spec.predicate_columns);
    w->Bool(e.dpt != nullptr);
    if (e.dpt) e.dpt->SaveTo(w);
    w->Bool(e.catchup != nullptr);
    if (e.catchup) e.catchup->SaveTo(w);
  }
}

void MultiTemplateJanus::LoadFrom(persist::Reader* r) {
  table_.LoadFrom(r);
  rng_.LoadFrom(r);
  initialized_ = r->Bool();
  if (r->Bool()) {
    reservoir_ = std::make_unique<DynamicReservoir>(2, 0);
    reservoir_->LoadFrom(r);
  } else {
    reservoir_.reset();
  }
  entries_.clear();
  const size_t num_entries = r->Size();
  entries_.reserve(num_entries);
  for (size_t i = 0; i < num_entries; ++i) {
    Entry e;
    e.spec.agg_column = r->I32();
    e.spec.predicate_columns = r->IntVec();
    if (r->Bool()) {
      e.dpt = std::make_unique<Dpt>(MakeDptOptions(e.spec),
                                    PartitionTreeSpec{});
      e.dpt->LoadFrom(r);
    }
    if (r->Bool()) {
      if (!e.dpt) {
        throw persist::PersistError(
            "snapshot corrupt: template catch-up without a tree");
      }
      e.catchup = std::make_unique<CatchupEngine>(
          e.dpt.get(), ColumnStore(base_.schema), /*goal_samples=*/0,
          /*seed=*/0);
      e.catchup->LoadFrom(r);
    }
    entries_.push_back(std::move(e));
  }
}

}  // namespace janus
