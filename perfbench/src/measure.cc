#include "measure.h"

#include <algorithm>
#include <fstream>

namespace perfbench {

Slices::Slices(int num_slices, double slice_seconds)
    : slice_seconds_(slice_seconds), slices_(static_cast<size_t>(std::max(1, num_slices))) {}

int Slices::SliceOf(Clock::time_point start, Clock::time_point t) const {
  const double s = SecondsBetween(start, t);
  const int i = s <= 0 ? 0 : static_cast<int>(s / slice_seconds_);
  return std::min(i, static_cast<int>(slices_.size()) - 1);
}

void Slices::Add(int slice, double latency_s, double busy_s, double units) {
  Slice& s = slices_[static_cast<size_t>(slice)];
  s.latencies.push_back(latency_s);
  s.busy_s += busy_s;
  s.units += units;
}

void Slices::Merge(const Slices& other) {
  for (size_t i = 0; i < slices_.size() && i < other.slices_.size(); ++i) {
    Slice& s = slices_[i];
    const Slice& o = other.slices_[i];
    s.latencies.insert(s.latencies.end(), o.latencies.begin(), o.latencies.end());
    s.busy_s += o.busy_s;
    s.units += o.units;
  }
}

std::vector<double> Slices::Quantiles(double q) const {
  std::vector<double> per;
  for (const Slice& s : slices_) {
    if (!s.latencies.empty()) per.push_back(Quantile(s.latencies, q));
  }
  return per;
}

std::vector<double> Slices::BusyRates() const {
  std::vector<double> per;
  for (const Slice& s : slices_) {
    if (s.busy_s > 0) per.push_back(s.units / s.busy_s);
  }
  return per;
}

std::vector<double> Slices::WallRates() const {
  std::vector<double> per;
  for (const Slice& s : slices_) {
    if (!s.latencies.empty()) per.push_back(s.units / slice_seconds_);
  }
  return per;
}

uint64_t Slices::operations() const {
  uint64_t n = 0;
  for (const Slice& s : slices_) n += s.latencies.size();
  return n;
}

namespace {

size_t StatusKb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return static_cast<size_t>(std::stoull(line.substr(prefix.size())));
    }
  }
  return 0;
}

}  // namespace

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTicks t;
  if (cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) return CpuTicks{};
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double StealShare(const CpuTicks& from, const CpuTicks& to) {
  if (to.total <= from.total || to.steal < from.steal) return 0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

size_t ResidentBytes() { return StatusKb("VmRSS") * 1024; }
size_t PeakResidentBytes() { return StatusKb("VmHWM") * 1024; }

}  // namespace perfbench
