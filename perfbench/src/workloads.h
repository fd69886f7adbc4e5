#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct RunConfig {
  std::string workload;       // tpch_local | tpch_federated | htap_hybrid
  uint64_t seed = 1;
  double seconds = 10.0;      // Sizes the timed phase; see README.md.
  bool trace = false;
  std::string work_dir;       // Extended-store files; removed at exit.
  std::string expected_path;  // Stored TPC-H results.
  std::string probe_program;  // perfbench_probe, the host-speed probe.
};

/// Runs one workload: set-up, one untimed warm-up pass, the timed
/// passes and the end checks. Prints the run record and, as the last
/// line of standard output, the result line. Returns the exit code.
int RunBenchmark(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
