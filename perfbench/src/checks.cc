#include "checks.h"

#include <cmath>
#include <cstring>

#include "measure.h"

namespace perfbench {

bool Checker::Record(const std::string& name, bool ok,
                     const std::string& detail) {
  Tally& t = tallies_[name];
  if (ok) {
    ++t.passed;
    return true;
  }
  ++t.failed;
  if (described_ < 10) {
    ++described_;
    std::fprintf(stderr, "[perfbench] check %s failed: %s\n", name.c_str(),
                 detail.c_str());
  }
  return false;
}

bool Checker::RowsMatch(size_t engine_rows, size_t mirror_rows) {
  return Record("rows", engine_rows == mirror_rows,
                "engine reports " + std::to_string(engine_rows) +
                    " live rows, mirror holds " + std::to_string(mirror_rows));
}

bool Checker::DeleteMatches(bool returned, bool mirror_held) {
  return Record("delete_result", returned == mirror_held,
                std::string("Delete returned ") + (returned ? "true" : "false") +
                    " for an id the mirror " +
                    (mirror_held ? "holds" : "does not hold"));
}

bool Checker::DeletedCount(uint64_t acknowledged, uint64_t held) {
  return Record("delete_result", acknowledged == held,
                "delete frame acknowledged " + std::to_string(acknowledged) +
                    " ids, mirror held " + std::to_string(held));
}

bool Checker::AnswerSane(const janus::QueryResult& r) {
  const bool ok = r.ok && std::isfinite(r.estimate) &&
                  std::isfinite(r.ci_half_width) && r.ci_half_width >= 0;
  if (ok) return Record("finite_answer", true);
  return Record("finite_answer", false,
                "ok=" + std::to_string(r.ok) + " estimate=" +
                    std::to_string(r.estimate) + " ci_half_width=" +
                    std::to_string(r.ci_half_width) + " " + r.error_detail);
}

bool Checker::ErrCeiling(double err_median) {
  return Record("err_ceiling", err_median <= kErrMedianCeiling,
                "median relative error " + std::to_string(err_median) +
                    " above " + std::to_string(kErrMedianCeiling));
}

bool Checker::CoverageFloor(double coverage) {
  return Record("coverage_floor", coverage >= kCoverageFloor,
                "CI coverage " + std::to_string(coverage) + " below " +
                    std::to_string(kCoverageFloor));
}

namespace {

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

bool Checker::WireIdentical(const janus::QueryResult& wire,
                            const janus::QueryResult& direct) {
  const bool same = wire.ok == direct.ok && wire.exact == direct.exact &&
                    SameBits(wire.estimate, direct.estimate) &&
                    SameBits(wire.ci_half_width, direct.ci_half_width) &&
                    SameBits(wire.variance_catchup, direct.variance_catchup) &&
                    SameBits(wire.variance_sample, direct.variance_sample) &&
                    wire.covered_nodes == direct.covered_nodes &&
                    wire.partial_leaves == direct.partial_leaves;
  return Record("wire_identical", same,
                "served estimate " + std::to_string(wire.estimate) +
                    " vs direct " + std::to_string(direct.estimate));
}

void Checker::Merge(const Checker& other) {
  for (const auto& [name, t] : other.tallies_) {
    tallies_[name].passed += t.passed;
    tallies_[name].failed += t.failed;
  }
}

uint64_t Checker::failed() const {
  uint64_t n = 0;
  for (const auto& [name, t] : tallies_) n += t.failed;
  return n;
}

uint64_t Checker::passed(const std::string& name) const {
  const auto it = tallies_.find(name);
  return it == tallies_.end() ? 0 : it->second.passed;
}

uint64_t Checker::failed(const std::string& name) const {
  const auto it = tallies_.find(name);
  return it == tallies_.end() ? 0 : it->second.failed;
}

void Checker::Print(std::FILE* out) const {
  for (const auto& [name, t] : tallies_) {
    std::fprintf(out, "check %s passed=%llu failed=%llu\n", name.c_str(),
                 static_cast<unsigned long long>(t.passed),
                 static_cast<unsigned long long>(t.failed));
  }
}

void Accuracy::Add(janus::AggFunc func, const janus::QueryResult& r,
                   const ExactAnswer& exact) {
  if (exact.count < kMinExactCount || !std::isfinite(exact.value) ||
      exact.value == 0) {
    ++skipped_;
    return;
  }
  const double err = RelativeError(r.estimate, exact.value);
  if (func == janus::AggFunc::kMin || func == janus::AggFunc::kMax) {
    extreme_errors_.push_back(err);
    return;
  }
  errors_.push_back(err);
  funcs_.push_back(func);
  ++ci_answers_;
  if (std::fabs(r.estimate - exact.value) <= r.ci_half_width) ++covered_;
  halfwidth_rel_.push_back(r.ci_half_width / std::fabs(exact.value));
}

double Accuracy::ErrMedian() const { return Median(errors_); }
double Accuracy::ExtremeErrMedian() const { return Median(extreme_errors_); }

double Accuracy::ErrMedian(janus::AggFunc func) const {
  std::vector<double> v;
  for (size_t i = 0; i < errors_.size(); ++i) {
    if (funcs_[i] == func) v.push_back(errors_[i]);
  }
  return Median(std::move(v));
}

double Accuracy::ErrP95() const { return Quantile(errors_, 0.95); }

double Accuracy::Coverage() const {
  return ci_answers_ ? static_cast<double>(covered_) /
                           static_cast<double>(ci_answers_)
                     : 0.0;
}

double Accuracy::CiHalfwidthRel() const { return Median(halfwidth_rel_); }

}  // namespace perfbench
