#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <vector>

#include "data/schema.h"
#include "data/workload.h"
#include "util/rng.h"

namespace perfbench {

/// NYC-taxi column layout (data/generators.h).
inline constexpr int kPickupTime = 0;
inline constexpr int kTripDistance = 2;
inline constexpr int kFare = 4;

/// A query template: the aggregate column and the predicate columns.
struct Template {
  int agg_column;
  std::vector<int> predicate_columns;
};

/// `n` NYC-taxi-shaped rows from the library's generator, ids id_base..
std::vector<janus::Tuple> TaxiRows(size_t n, uint64_t seed, uint64_t id_base = 0);

/// Draws range queries for one template over a set of rows. Bounds are
/// quantiles of each predicate column, so a query covers about the same
/// share of rows whatever the seed. The first dimension (pickup time) is
/// zipf-placed: its quantile range is cut into kCells cells whose popularity
/// follows a zipf law over a fixed scrambled rank order, so every seed sees
/// the same hot cells; a query spans 0.5-3% of the rows there. Further
/// dimensions take a wide quantile interval.
class QueryPlacer {
 public:
  static constexpr int kCells = 64;
  static constexpr double kZipfExponent = 1.1;

  QueryPlacer(const std::vector<janus::Tuple>& rows, Template tmpl);

  janus::AggQuery Draw(janus::Rng* rng, janus::AggFunc func) const;
  /// `n` queries cycling SUM, COUNT, AVG, MIN, MAX.
  std::vector<janus::AggQuery> DrawMix(janus::Rng* rng, size_t n) const;

  double lo(int d) const { return lo_[static_cast<size_t>(d)]; }
  double hi(int d) const { return hi_[static_cast<size_t>(d)]; }

 private:
  /// Value at quantile u in [0, 1] of predicate dimension d.
  double At(size_t d, double u) const;

  Template tmpl_;
  std::vector<double> lo_, hi_;
  std::vector<std::vector<double>> quantiles_;  // sorted sample per dim
  std::vector<int> cell_of_rank_;
};

/// Seed for the k-th independent stream derived from a run seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
