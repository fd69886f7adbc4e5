// Commit latency versus participant count, sequential versus fanned-out
// voting. Each participant's Prepare is slowed by an injected wall-clock
// latency (modeling the network round-trip to a resource manager), so
// the sequential protocol pays ~N * latency per commit while the async
// vote fan-out pays ~1 * latency — the slowest voter, not the sum. A
// second section repeats the sweep with zero injected latency to show
// the fan-out's own overhead is bounded. JSON lines, like
// bench_parallel_scan.
//
// Usage: bench_2pc [prepare_latency_ms] [iterations]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/task_pool.h"
#include "common/util.h"
#include "storage/column_table.h"
#include "txn/fault_injection.h"
#include "txn/participants.h"
#include "txn/two_phase.h"

namespace hana {
namespace {

std::shared_ptr<Schema> BenchSchema() {
  return std::make_shared<Schema>(std::vector<ColumnDef>{
      {"id", DataType::kInt64, false}, {"v", DataType::kDouble, true}});
}

/// Mean per-commit wall time over `iterations` transactions of
/// `num_participants` participants, each with `latency_ms` injected
/// into Prepare.
double MeasureCommitMs(size_t num_participants, bool parallel_vote,
                       double latency_ms, int iterations) {
  std::vector<std::unique_ptr<storage::ColumnTable>> tables;
  std::vector<std::unique_ptr<txn::ColumnTableParticipant>> participants;
  txn::FaultInjector injector;
  for (size_t i = 0; i < num_participants; ++i) {
    std::string name = "P" + std::to_string(i);
    tables.push_back(std::make_unique<storage::ColumnTable>(BenchSchema()));
    participants.push_back(std::make_unique<txn::ColumnTableParticipant>(
        name, tables.back().get(), &injector));
    if (latency_ms > 0) {
      injector.SetLatencyMs(name, txn::FaultOp::kPrepare, latency_ms);
    }
  }
  txn::TwoPhaseCoordinator coordinator(
      txn::TwoPhaseOptions{.parallel_vote = parallel_vote});
  coordinator.SetFaultInjector(&injector);

  double total_ms = 0;
  for (int it = 0; it < iterations; ++it) {
    txn::TxnId txn = coordinator.Begin();
    for (size_t i = 0; i < participants.size(); ++i) {
      if (!coordinator.Enlist(txn, participants[i].get()).ok() ||
          !participants[i]
               ->StageInsert(txn, {Value::Int(it), Value::Double(1.0)})
               .ok()) {
        std::fprintf(stderr, "setup failed\n");
        std::exit(1);
      }
    }
    Stopwatch watch;
    Status s = coordinator.Commit(txn);
    total_ms += watch.ElapsedMillis();
    if (!s.ok()) {
      std::fprintf(stderr, "commit failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }
  return total_ms / iterations;
}

int Main(int argc, char** argv) {
  double latency_ms = argc > 1 ? std::atof(argv[1]) : 10.0;
  int iterations = argc > 2 ? std::atoi(argv[2]) : 5;
  std::printf(
      "{\"bench\": \"2pc_commit_config\", \"pool_workers\": %zu, "
      "\"prepare_latency_ms\": %.1f, \"txns_per_point\": %d}\n\n",
      TaskPool::Global().num_threads(), latency_ms, iterations);

  const size_t kParticipantCounts[] = {1, 2, 4, 8};
  for (double lat : {latency_ms, 0.0}) {
    double single_ms = 0;
    for (size_t n : kParticipantCounts) {
      double sequential_ms =
          MeasureCommitMs(n, /*parallel_vote=*/false, lat, iterations);
      double parallel_ms =
          MeasureCommitMs(n, /*parallel_vote=*/true, lat, iterations);
      if (n == 1) single_ms = parallel_ms;
      std::printf(
          "{\"bench\": \"2pc_commit\", \"prepare_latency_ms\": %.1f, "
          "\"participants\": %zu, \"sequential_ms\": %.3f, "
          "\"parallel_ms\": %.3f, \"parallel_speedup\": %.2f, "
          "\"vs_single_participant\": %.2f}\n",
          lat, n, sequential_ms, parallel_ms,
          parallel_ms > 0 ? sequential_ms / parallel_ms : 0.0,
          single_ms > 0 ? parallel_ms / single_ms : 0.0);
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace
}  // namespace hana

int main(int argc, char** argv) { return hana::Main(argc, argv); }
