#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/dpt.h"
#include "reference.h"

namespace perfbench {

/// Ceiling on a run's median relative error, and floor on the share of
/// SUM/COUNT/AVG confidence intervals that hold the exact answer. The floor
/// is loose on purpose: nominal-95% intervals cover less than 95% today
/// (known undercoverage), and that alone must not fail a run.
inline constexpr double kErrMedianCeiling = 0.10;
inline constexpr double kCoverageFloor = 0.60;
/// Answers over fewer matching rows than this carry no useful relative
/// error; they are checked for sanity but left out of the accuracy figures.
inline constexpr size_t kMinExactCount = 30;

/// Tally of every correctness check a run makes. Each violation counts as
/// one failed operation; the first few are described on stderr.
class Checker {
 public:
  /// Record one outcome of check `name`; returns `ok`.
  bool Record(const std::string& name, bool ok, const std::string& detail = "");

  /// The engine's live-row count equals the mirror's.
  bool RowsMatch(size_t engine_rows, size_t mirror_rows);
  /// A delete reported success exactly when the mirror held the id.
  bool DeleteMatches(bool returned, bool mirror_held);
  /// A delete frame acknowledged exactly the ids the mirror held.
  bool DeletedCount(uint64_t acknowledged, uint64_t held);
  /// The answer is ok, its estimate finite, its CI half-width finite and
  /// not negative.
  bool AnswerSane(const janus::QueryResult& r);
  bool ErrCeiling(double err_median);
  bool CoverageFloor(double coverage);
  /// A served answer is bit-identical to the direct engine answer.
  bool WireIdentical(const janus::QueryResult& wire,
                     const janus::QueryResult& direct);

  /// Fold in the tally of another thread's checker.
  void Merge(const Checker& other);

  uint64_t failed() const;
  /// Outcomes of one check so far.
  uint64_t passed(const std::string& name) const;
  uint64_t failed(const std::string& name) const;
  /// One line per check: "check <name> passed=<n> failed=<n>".
  void Print(std::FILE* out) const;

 private:
  struct Tally {
    uint64_t passed = 0;
    uint64_t failed = 0;
  };
  std::map<std::string, Tally> tallies_;
  int described_ = 0;
};

/// Accuracy of approximate answers against exact ones. The error figures
/// cover SUM, COUNT and AVG. MIN and MAX answers are kept apart: a sampled
/// extreme is off by a large share whenever the true extreme is near zero,
/// so their relative error measures a different thing.
class Accuracy {
 public:
  void Add(janus::AggFunc func, const janus::QueryResult& r,
           const ExactAnswer& exact);

  size_t size() const { return errors_.size(); }
  size_t skipped() const { return skipped_; }
  double ErrMedian() const;
  double ErrP95() const;
  /// Share of SUM/COUNT/AVG answers whose CI holds the exact answer.
  double Coverage() const;
  /// Median CI half-width over the exact answer (SUM/COUNT/AVG).
  double CiHalfwidthRel() const;
  /// Median relative error of the SUM, COUNT or AVG answers alone.
  double ErrMedian(janus::AggFunc func) const;
  /// Median relative error of the MIN and MAX answers.
  double ExtremeErrMedian() const;

 private:
  std::vector<double> errors_;
  std::vector<janus::AggFunc> funcs_;
  std::vector<double> extreme_errors_;
  std::vector<double> halfwidth_rel_;
  uint64_t covered_ = 0;
  uint64_t ci_answers_ = 0;
  size_t skipped_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
