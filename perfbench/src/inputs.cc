#include "inputs.h"

#include <algorithm>
#include <limits>

#include "data/generators.h"

namespace perfbench {

std::vector<janus::Tuple> TaxiRows(size_t n, uint64_t seed, uint64_t id_base) {
  std::vector<janus::Tuple> rows =
      janus::GenerateDataset(janus::DatasetKind::kNycTaxi, n, seed).rows;
  for (size_t i = 0; i < rows.size(); ++i) rows[i].id = id_base + i;
  return rows;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 of (seed, stream): distinct, well-mixed streams per purpose.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + (stream + 1) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

QueryPlacer::QueryPlacer(const std::vector<janus::Tuple>& rows, Template tmpl)
    : tmpl_(std::move(tmpl)) {
  const size_t dims = tmpl_.predicate_columns.size();
  lo_.assign(dims, std::numeric_limits<double>::infinity());
  hi_.assign(dims, -std::numeric_limits<double>::infinity());
  quantiles_.resize(dims);
  const size_t stride = std::max<size_t>(1, rows.size() / 65536);
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t d = 0; d < dims; ++d) {
      const double x = rows[i][tmpl_.predicate_columns[d]];
      lo_[d] = std::min(lo_[d], x);
      hi_[d] = std::max(hi_[d], x);
      if (i % stride == 0) quantiles_[d].push_back(x);
    }
  }
  for (auto& q : quantiles_) std::sort(q.begin(), q.end());
  // The rank->cell scramble is fixed, not seeded: the hot cells are part of
  // the workload's definition, the seed only varies the draws.
  cell_of_rank_.resize(kCells);
  for (int i = 0; i < kCells; ++i) cell_of_rank_[static_cast<size_t>(i)] = i;
  janus::Rng scramble(0x5EEDCE11ULL);
  scramble.Shuffle(&cell_of_rank_);
}

double QueryPlacer::At(size_t d, double u) const {
  const std::vector<double>& q = quantiles_[d];
  const double pos = std::clamp(u, 0.0, 1.0) * static_cast<double>(q.size() - 1);
  return q[static_cast<size_t>(pos)];
}

janus::AggQuery QueryPlacer::Draw(janus::Rng* rng, janus::AggFunc func) const {
  const size_t dims = tmpl_.predicate_columns.size();
  std::vector<double> lo(dims), hi(dims);
  const int cell = cell_of_rank_[static_cast<size_t>(
      rng->Zipf(kCells, kZipfExponent) - 1)];
  const double center = (cell + rng->NextDouble()) / static_cast<double>(kCells);
  const double width = rng->Uniform(0.005, 0.03);
  lo[0] = At(0, center - width / 2);
  hi[0] = At(0, center + width / 2);
  for (size_t d = 1; d < dims; ++d) {
    const double a = rng->Uniform(0.0, 0.5);
    lo[d] = At(d, a);
    hi[d] = At(d, a + rng->Uniform(0.3, 0.5));
  }
  janus::AggQuery out;
  out.func = func;
  out.agg_column = tmpl_.agg_column;
  out.predicate_columns = tmpl_.predicate_columns;
  out.rect = janus::Rectangle(std::move(lo), std::move(hi));
  return out;
}

std::vector<janus::AggQuery> QueryPlacer::DrawMix(janus::Rng* rng,
                                                  size_t n) const {
  static constexpr janus::AggFunc kFuncs[] = {
      janus::AggFunc::kSum, janus::AggFunc::kCount, janus::AggFunc::kAvg,
      janus::AggFunc::kMin, janus::AggFunc::kMax};
  std::vector<janus::AggQuery> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(Draw(rng, kFuncs[i % 5]));
  return out;
}

}  // namespace perfbench
