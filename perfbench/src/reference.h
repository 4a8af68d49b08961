#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "data/schema.h"
#include "data/workload.h"

namespace perfbench {

/// Exact answer of one aggregate query over the live rows.
struct ExactAnswer {
  double value = 0;  ///< NaN when no row matches and the aggregate needs one
  size_t count = 0;  ///< rows matching the predicate
};

/// The benchmark's own copy of the live rows: ids plus the columns its
/// queries read, kept in step with every insert and delete the workload
/// sends. Exact answers come from a plain loop over it, deliberately not
/// from the library's scan kernels or ground-truth helpers, so a fault in
/// those cannot sit on both sides of the comparison.
class Mirror {
 public:
  /// Keep schema columns `columns` (queries may name only these).
  explicit Mirror(std::vector<int> columns);

  void Reset(const std::vector<janus::Tuple>& rows);
  void Insert(const janus::Tuple& t);
  /// Remove a live id; false when the id is not live.
  bool Delete(uint64_t id);
  bool Contains(uint64_t id) const { return pos_.count(id) != 0; }

  size_t size() const { return ids_.size(); }
  uint64_t IdAt(size_t pos) const { return ids_[pos]; }

  ExactAnswer Exact(const janus::AggQuery& q) const;

 private:
  int Slot(int column) const;

  std::vector<int> columns_;
  std::vector<uint64_t> ids_;
  std::vector<std::vector<double>> data_;  // one vector per kept column
  std::unordered_map<uint64_t, size_t> pos_;
};

/// |estimate - exact| / |exact|.
double RelativeError(double estimate, double exact);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
