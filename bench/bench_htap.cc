// HTAP throughput retention: analytical snapshot queries per second
// over a column table while 0/1/2/4 concurrent writer threads commit
// MVCC transactions into its delta (with a background merge thread
// folding settled prefixes, as the platform's auto-merge would).
//
// The paper's HTAP claim is that analytics keep running against the
// main/delta column store while OLTP writes land in the delta; the
// metric here is the analytical queries/sec at each writer count and
// its retention versus the read-only baseline. Scans pin an MVCC
// snapshot and never block on commits or merges — retention should stay
// well above 50% at 4 writers.
//
// JSON lines, like bench_parallel_scan.
//
// Usage: bench_htap [duration_ms_per_point] [preload_rows]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mvcc.h"
#include "common/util.h"
#include "storage/column_table.h"
#include "txn/participants.h"
#include "txn/two_phase.h"

namespace hana {
namespace {

constexpr size_t kReaders = 2;

std::shared_ptr<Schema> BenchSchema() {
  return std::make_shared<Schema>(std::vector<ColumnDef>{
      {"l_key", DataType::kInt64, false},
      {"l_flag", DataType::kInt64, false},
      {"l_qty", DataType::kInt64, false},
      {"l_price", DataType::kInt64, false}});
}

/// One Q1/Q6-shaped analytical query: aggregate every visible row of
/// one MVCC snapshot. Returns a checksum so the work cannot be
/// optimized away.
int64_t RunQuery(const storage::ColumnTable& table,
                 mvcc::VersionManager& vm) {
  mvcc::SnapshotHandle hold = vm.AcquireSnapshot();
  mvcc::ReadView view{hold.read_ts(), 0};
  int64_t qty_by_flag[2] = {0, 0};
  int64_t revenue = 0;
  table.OpenSnapshot(view)->Scan(4096, [&](const storage::Chunk& chunk) {
    const storage::ColumnVector& flag = *chunk.columns[1];
    const storage::ColumnVector& qty = *chunk.columns[2];
    const storage::ColumnVector& price = *chunk.columns[3];
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      qty_by_flag[flag.GetInt(r) & 1] += qty.GetInt(r);
      if (qty.GetInt(r) < 25) revenue += price.GetInt(r);
    }
    return true;
  });
  return qty_by_flag[0] + qty_by_flag[1] + revenue;
}

struct PointResult {
  double reader_qps = 0;
  double writer_tps = 0;
  uint64_t queries = 0;
  uint64_t commits = 0;
};

/// Runs one measurement point: `num_writers` transactional writers and
/// kReaders analytical readers against a freshly loaded table for
/// `duration_ms`.
PointResult MeasurePoint(size_t num_writers, size_t preload_rows,
                         double duration_ms) {
  mvcc::VersionManager vm;
  storage::ColumnTable table(BenchSchema());
  table.SetVersionManager(&vm);

  {
    std::vector<std::vector<Value>> rows;
    rows.reserve(preload_rows);
    Rng rng(42);
    for (size_t i = 0; i < preload_rows; ++i) {
      rows.push_back({Value::Int(static_cast<int64_t>(i)),
                      Value::Int(rng.Uniform(0, 1)),
                      Value::Int(rng.Uniform(1, 50)),
                      Value::Int(rng.Uniform(100, 10000))});
    }
    if (!table.AppendRows(rows).ok()) {
      std::fprintf(stderr, "preload failed\n");
      std::exit(1);
    }
    if (!table.MergeDelta().ok()) {
      std::fprintf(stderr, "preload merge failed\n");
      std::exit(1);
    }
  }

  txn::TwoPhaseCoordinator coordinator;
  coordinator.SetVersionManager(&vm);
  std::vector<std::unique_ptr<txn::ColumnTableParticipant>> parts;
  for (size_t w = 0; w < num_writers; ++w) {
    parts.push_back(std::make_unique<txn::ColumnTableParticipant>(
        "W" + std::to_string(w), &table));
  }

  // atomic: stop flag + throughput counters shared across the
  // reader/writer/merge threads of one measurement point.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> commits{0};
  std::atomic<int64_t> checksum{0};

  std::vector<std::thread> threads;
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        checksum.fetch_add(RunQuery(table, vm), std::memory_order_relaxed);
        queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (size_t w = 0; w < num_writers; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(1000 + w);
      int64_t next_key = static_cast<int64_t>(1000000 * (w + 1));
      while (!stop.load(std::memory_order_acquire)) {
        txn::TxnId txn = coordinator.Begin();
        bool ok = coordinator.Enlist(txn, parts[w].get()).ok();
        for (int j = 0; ok && j < 8; ++j) {
          ok = parts[w]
                   ->StageInsert(txn, {Value::Int(next_key++),
                                       Value::Int(rng.Uniform(0, 1)),
                                       Value::Int(rng.Uniform(1, 50)),
                                       Value::Int(rng.Uniform(100, 10000))})
                   .ok();
        }
        if (ok && coordinator.Commit(txn).ok()) {
          commits.fetch_add(1, std::memory_order_relaxed);
        }
        // CH-benCHmark-style terminal think time: OLTP clients pace
        // their transactions; without it the writers are a pure append
        // firehose that grows the table ~60% within one measurement
        // window and the experiment measures data growth, not HTAP
        // interference.
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  }
  // Background fold once the delta passes a threshold, as the
  // platform's merge_threshold_rows auto-merge would do;
  // watermark-gated against the reader snapshots.
  std::thread merger([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (table.delta_rows() >= 4096) (void)table.MergeDelta();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  Stopwatch watch;
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int64_t>(duration_ms)));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  merger.join();
  double elapsed_ms = watch.ElapsedMillis();

  PointResult result;
  result.queries = queries.load();
  result.commits = commits.load();
  result.reader_qps = 1000.0 * static_cast<double>(result.queries) /
                      elapsed_ms;
  result.writer_tps = 1000.0 * static_cast<double>(result.commits) /
                      elapsed_ms;
  return result;
}

int Main(int argc, char** argv) {
  double duration_ms = argc > 1 ? std::atof(argv[1]) : 1500.0;
  size_t preload_rows =
      argc > 2 ? static_cast<size_t>(std::atoll(argv[2])) : 200000;
  std::printf(
      "{\"bench\": \"htap_retention_config\", \"readers\": %zu, "
      "\"preload_rows\": %zu, \"ms_per_point\": %.0f}\n\n",
      kReaders, preload_rows, duration_ms);

  double baseline_qps = 0;
  for (size_t writers : {0, 1, 2, 4}) {
    PointResult p = MeasurePoint(writers, preload_rows, duration_ms);
    if (writers == 0) baseline_qps = p.reader_qps;
    double retention = baseline_qps > 0 ? p.reader_qps / baseline_qps : 0.0;
    std::printf(
        "{\"bench\": \"htap_retention\", \"writers\": %zu, "
        "\"readers\": %zu, \"analytical_qps\": %.1f, "
        "\"writer_tps\": %.1f, \"retention_vs_read_only\": %.3f}\n",
        writers, kReaders, p.reader_qps, p.writer_tps, retention);
  }
  return 0;
}

}  // namespace
}  // namespace hana

int main(int argc, char** argv) { return hana::Main(argc, argv); }
