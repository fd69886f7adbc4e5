// The repository's end-to-end benchmark. Usage:
//
//   perfbench --workload tpch_local|tpch_federated|htap_hybrid
//             --seed N --seconds S --trace 0|1
//             --work-dir DIR --expected FILE --probe PROGRAM
//
// perfbench/run.py builds this program and passes the directories; see
// perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    double number = 0;
    bool numeric = ParseNumber(value, &number);
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--expected") {
      config.expected_path = value;
    } else if (flag == "--seed" && numeric && number >= 0) {
      config.seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds" && numeric && number > 0) {
      config.seconds = number;
    } else if (flag == "--trace" && numeric) {
      config.trace = number != 0;
    } else if (flag == "--probe") {
      config.probe_program = value;
    } else {
      std::fprintf(stderr, "perfbench: bad argument %s %s\n", flag.c_str(),
                   value);
      return 2;
    }
  }
  if (argc % 2 != 1 || config.workload.empty() || config.work_dir.empty() ||
      config.probe_program.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR --expected FILE "
                 "--probe PROGRAM\n");
    return 2;
  }
  return perfbench::RunBenchmark(config);
}
