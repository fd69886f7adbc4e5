#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least
/// `pct` percent of the samples are at or below it. Empty input = 0.
double NearestRank(std::vector<double> samples, double pct);

/// Nearest-rank p50.
inline double Median(std::vector<double> samples) {
  return NearestRank(std::move(samples), 50.0);
}

/// Geometric mean of positive values; empty input = 0.
double Geomean(const std::vector<double>& values);

/// Timing samples keyed by statement kind. Kinds are never pooled into
/// one percentile: a pool of different statements puts its p50/p90 at
/// the edge between two kinds' latency clusters.
class KindSamples {
 public:
  void Add(const std::string& kind, double value) {
    samples_[kind].push_back(value);
  }
  const std::vector<double>& Of(const std::string& kind) const;
  double MedianOf(const std::string& kind) const { return Median(Of(kind)); }
  double PercentileOf(const std::string& kind, double pct) const {
    return NearestRank(Of(kind), pct);
  }
  /// Geometric mean over `kinds` of each kind's median.
  double GeomeanOfMedians(const std::vector<std::string>& kinds) const;
  /// Arithmetic mean over the kinds that have samples of each kind's
  /// median (0 when none has); unlike a geomean it accepts zero and
  /// negative medians.
  double MeanOfMedians() const;
  /// Sum of every sample of every kind.
  double Total() const;
  const std::map<std::string, std::vector<double>>& all() const {
    return samples_;
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// Host CPU counters from a /proc/stat-format file (first "cpu" line).
struct HostCpu {
  uint64_t total = 0;
  uint64_t steal = 0;
};
HostCpu ReadHostCpu(const std::string& path = "/proc/stat");

/// Percentage of host CPU time stolen by the hypervisor between two
/// readings (0 when the counters did not advance).
double StealPercent(const HostCpu& before, const HostCpu& after);

/// User plus system CPU seconds of this process, all threads.
double ProcessCpuSeconds();

/// Minor page faults of this process so far.
int64_t ProcessMinorFaults();

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS by
/// writing "5" to `path`. Returns false, and changes nothing, where the
/// file is missing or not writable; the peak then also counts memory
/// used before the reset.
bool ResetPeakRss(const std::string& path = "/proc/self/clear_refs");

/// Peak RSS in MB: VmHWM from a /proc/self/status-format file, or the
/// process's getrusage maximum when the file has no VmHWM line.
double PeakRssMb(const std::string& status_path = "/proc/self/status");

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
