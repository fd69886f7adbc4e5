#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {

double NearestRank(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  double rank = std::ceil(pct * static_cast<double>(samples.size()) / 100.0);
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

const std::vector<double>& KindSamples::Of(const std::string& kind) const {
  static const std::vector<double> kEmpty;
  auto it = samples_.find(kind);
  return it == samples_.end() ? kEmpty : it->second;
}

double KindSamples::GeomeanOfMedians(
    const std::vector<std::string>& kinds) const {
  std::vector<double> medians;
  for (const std::string& kind : kinds) medians.push_back(MedianOf(kind));
  return Geomean(medians);
}

double KindSamples::MeanOfMedians() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& [kind, values] : samples_) sum += Median(values);
  return sum / static_cast<double>(samples_.size());
}

double KindSamples::Total() const {
  double sum = 0.0;
  for (const auto& [kind, values] : samples_) {
    for (double v : values) sum += v;
  }
  return sum;
}

HostCpu ReadHostCpu(const std::string& path) {
  HostCpu cpu;
  std::ifstream in(path);
  std::string label;
  if (!(in >> label) || label != "cpu") return cpu;
  // user nice system idle iowait irq softirq steal [guest guest_nice];
  // guest time is already counted in user, so the sum stops at steal.
  for (int field = 0; field < 8; ++field) {
    uint64_t value = 0;
    if (!(in >> value)) break;
    cpu.total += value;
    if (field == 7) cpu.steal = value;
  }
  return cpu;
}

double StealPercent(const HostCpu& before, const HostCpu& after) {
  if (after.total <= before.total || after.steal < before.steal) return 0.0;
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double ProcessCpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

int64_t ProcessMinorFaults() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

bool ResetPeakRss(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double PeakRssMb(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kb = 0.0;
    if (fields >> kb) return kb / 1024.0;
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
