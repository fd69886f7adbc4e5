#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "platform/platform.h"
#include "stats.h"
#include "streams.h"

namespace perfbench {

/// Stored result of one TPC-H query at one scale factor.
struct ExpectedResult {
  int64_t rows = 0;
  uint64_t hash = 0;
};

/// Executes statements against one platform, checks each outcome and
/// keeps per-kind samples.
///
/// Untraced, a statement is one `Platform::Execute` call. Traced, a
/// SELECT runs as parse -> bind -> optimize -> exec::ExecutePlan with a
/// span around each call, and then once more through Execute, whose
/// result must hash equal to the decomposed one; a DML statement times
/// parse and then the whole Execute.
class Runner {
 public:
  Runner(hana::platform::Platform* db, bool trace,
         const std::map<std::string, ExpectedResult>* expected)
      : db_(db), trace_(trace), expected_(expected) {}

  /// Runs `s`; samples are kept only when `timed`.
  void Run(const Statement& s, bool timed);

  /// Records a failed check; the run is then reported incorrect.
  void AddProblem(const std::string& message);

  bool correct() const { return problem_count_ == 0; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& problems() const { return problems_; }
  /// Rows and hash last seen per expectation key.
  const std::map<std::string, ExpectedResult>& observed() const {
    return observed_;
  }

  // Per-kind samples of timed statements.
  KindSamples latency_ms;    // Execute wall time.
  KindSamples simulated_ms;  // Simulated remote and disk time, aligned
                             // sample by sample with latency_ms.

  // Traced spans, per kind.
  KindSamples parse_ms, bind_ms, optimize_ms, exec_ms, wrapper_ms, dml_ms;
  /// Traced statement time: the spans of a SELECT, the Execute of a DML
  /// statement (which parse_ms and dml_ms split).
  KindSamples traced_ms;
  /// Wall time spent in the verifying Execute of traced SELECTs.
  double verify_seconds = 0.0;

  // Traced counters (timed statements only).
  double exec_cpu_seconds = 0.0;
  double exec_wall_seconds = 0.0;
  int64_t result_rows = 0;
  int64_t remote_calls = 0;
  int64_t rows_fetched = 0;
  int64_t mr_jobs = 0;
  int64_t cache_requests = 0;
  int64_t cache_hits = 0;
  KindSamples remote_ms;  // Per-kind simulated remote time of a SELECT.
  int64_t dml_rows_changed = 0;
  int64_t dml_rows_examined = 0;
  /// Extended-store activity of the timed statements alone: around
  /// ExecutePlan for a SELECT (not its verifying Execute), around
  /// Execute for DML. bytes_written is not kept.
  hana::extended::ExtendedStoreMetrics extended;

 private:
  struct Outcome {
    int64_t rows = 0;
    uint64_t hash = 0;
    int64_t count = -1;
    bool cache_hit = false;
  };
  void RunTracedSelect(const Statement& s, bool timed);
  void RunTracedDml(const Statement& s, bool timed);
  void RunExecute(const Statement& s, bool timed);
  void Check(const Statement& s, const Outcome& out);
  void Problem(const Statement& s, const std::string& what);
  static Outcome Describe(const hana::storage::Table& table);
  double VirtualNowMs();
  hana::extended::ExtendedStoreMetrics ExtendedNow();
  void AddExtended(const hana::extended::ExtendedStoreMetrics& before);

  hana::platform::Platform* db_;
  bool trace_;
  const std::map<std::string, ExpectedResult>* expected_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> problems_;
  int64_t problem_count_ = 0;
  std::map<std::string, ExpectedResult> observed_;
};

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
