#include "trace.h"

#include <algorithm>
#include <fstream>
#include <map>

namespace perfbench {

Tracer::Tracer(bool enabled, Clock::time_point epoch, size_t max_spans)
    : enabled_(enabled), epoch_(epoch), max_spans_(max_spans) {
  if (enabled_) spans_.reserve(std::min<size_t>(max_spans_, 1u << 16));
}

int64_t Tracer::Ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

int32_t Tracer::Begin(const char* name, uint64_t op, int32_t parent) {
  return Record(name, op, parent, Clock::now(), Clock::time_point{});
}

void Tracer::End(int32_t index) {
  if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = Ns(Clock::now());
}

int32_t Tracer::Record(const char* name, uint64_t op, int32_t parent,
                       Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return -1;
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return -1;
  }
  Span s;
  s.name = name;
  s.start_ns = Ns(start);
  s.end_ns = end == Clock::time_point{} ? s.start_ns : Ns(end);
  s.op = op;
  s.parent = parent;
  spans_.push_back(s);
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::Absorb(const Tracer& other) {
  const int32_t base = static_cast<int32_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
  dropped_ += other.dropped_;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  }
  return out;
}

void Tracer::PrintSummary(std::FILE* out) const {
  // Children of one span never overlap (each thread traces its own calls in
  // order), so a span's self time is its duration minus its children's.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& [dur, self] = by_name[s.name];
    dur.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    self.push_back(static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-3);
  }
  for (auto& [name, v] : by_name) {
    std::fprintf(out, "span %s count=%zu p50_us=%.3f self_p50_us=%.3f\n",
                 name.c_str(), v.first.size(), Median(v.first),
                 Median(v.second));
  }
  if (dropped_) {
    std::fprintf(out, "span dropped=%llu (span log full)\n",
                 static_cast<unsigned long long>(dropped_));
  }
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"op\":" << s.op
      << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
      << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(f);
}

}  // namespace perfbench
