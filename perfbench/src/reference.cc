#include "reference.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace perfbench {

Mirror::Mirror(std::vector<int> columns)
    : columns_(std::move(columns)), data_(columns_.size()) {}

int Mirror::Slot(int column) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == column) return static_cast<int>(i);
  }
  throw std::invalid_argument("mirror does not keep column " +
                              std::to_string(column));
}

void Mirror::Reset(const std::vector<janus::Tuple>& rows) {
  ids_.clear();
  pos_.clear();
  for (auto& col : data_) col.clear();
  ids_.reserve(rows.size());
  pos_.reserve(rows.size());
  for (auto& col : data_) col.reserve(rows.size());
  for (const janus::Tuple& t : rows) Insert(t);
}

void Mirror::Insert(const janus::Tuple& t) {
  if (!pos_.emplace(t.id, ids_.size()).second) {
    throw std::logic_error("mirror: duplicate id " + std::to_string(t.id));
  }
  ids_.push_back(t.id);
  for (size_t i = 0; i < columns_.size(); ++i) data_[i].push_back(t[columns_[i]]);
}

bool Mirror::Delete(uint64_t id) {
  const auto it = pos_.find(id);
  if (it == pos_.end()) return false;
  const size_t p = it->second;
  const size_t last = ids_.size() - 1;
  if (p != last) {
    ids_[p] = ids_[last];
    pos_[ids_[p]] = p;
    for (auto& col : data_) col[p] = col[last];
  }
  ids_.pop_back();
  for (auto& col : data_) col.pop_back();
  pos_.erase(it);
  return true;
}

ExactAnswer Mirror::Exact(const janus::AggQuery& q) const {
  const int dims = q.rect.dims();
  std::vector<const double*> pred(static_cast<size_t>(dims));
  for (int d = 0; d < dims; ++d) {
    pred[static_cast<size_t>(d)] =
        data_[static_cast<size_t>(Slot(q.predicate_columns[static_cast<size_t>(d)]))].data();
  }
  const double* agg = data_[static_cast<size_t>(Slot(q.agg_column))].data();

  size_t count = 0;
  double sum = 0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < ids_.size(); ++i) {
    bool in = true;
    for (int d = 0; d < dims && in; ++d) {
      const double x = pred[static_cast<size_t>(d)][i];
      in = x >= q.rect.lo(d) && x <= q.rect.hi(d);
    }
    if (!in) continue;
    ++count;
    sum += agg[i];
    if (agg[i] < lo) lo = agg[i];
    if (agg[i] > hi) hi = agg[i];
  }

  ExactAnswer a;
  a.count = count;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  switch (q.func) {
    case janus::AggFunc::kSum: a.value = sum; break;
    case janus::AggFunc::kCount: a.value = static_cast<double>(count); break;
    case janus::AggFunc::kAvg: a.value = count ? sum / static_cast<double>(count) : nan; break;
    case janus::AggFunc::kMin: a.value = count ? lo : nan; break;
    case janus::AggFunc::kMax: a.value = count ? hi : nan; break;
  }
  return a;
}

double RelativeError(double estimate, double exact) {
  return std::fabs(estimate - exact) / std::fabs(exact);
}

}  // namespace perfbench
