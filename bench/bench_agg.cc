// Radix-partitioned parallel aggregation benchmark.
//
// One ~2M-row fact table aggregated through two GROUP BY regimes — low
// cardinality (~64 groups) and high cardinality (~500k groups) — over
// every (CPU binding, thread count) cell: column-wise key hashing
// through the dispatched hash_i64 kernel, radix partitions,
// per-partition merge fan-out. Every cell is verified cell-for-cell
// against the threads=1 result before its timing is reported
// (identical_to_serial), with the partition count the cell merged.
//
// JSON result lines go to stdout (bench/results/bench_agg.json);
// progress chatter goes to stderr.
//
// Usage: bench_agg [rows]

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cpu_dispatch.h"
#include "common/task_pool.h"
#include "common/util.h"
#include "exec/executor.h"
#include "platform/platform.h"

namespace hana {
namespace {

double BestOfThree(const std::function<double()>& run) {
  double best = run();
  for (int i = 0; i < 2; ++i) best = std::min(best, run());
  return best;
}

constexpr int64_t kLowGroups = 64;
constexpr int64_t kHighGroups = 500000;

Status LoadFact(platform::Platform* db, size_t rows) {
  sql::CreateTableStmt create;
  create.table = "agg_fact";
  create.columns = {{"g_lo", DataType::kInt64, false},
                    {"g_hi", DataType::kInt64, false},
                    {"v", DataType::kDouble, false}};
  HANA_RETURN_IF_ERROR(db->catalog().CreateTable(create));
  const size_t kBatch = 65536;
  std::vector<std::vector<Value>> batch;
  for (size_t begin = 0; begin < rows; begin += kBatch) {
    size_t end = std::min(rows, begin + kBatch);
    batch.clear();
    for (size_t i = begin; i < end; ++i) {
      // Deterministic hash-scattered keys: no RNG, reproducible runs.
      int64_t h = static_cast<int64_t>((i * 2654435761u) % 1000000007u);
      batch.push_back({Value::Int(h % kLowGroups),
                       Value::Int(h % kHighGroups),
                       Value::Double((h % 1000) * 0.05)});
    }
    HANA_RETURN_IF_ERROR(db->catalog().Insert("agg_fact", batch));
  }
  return Status::OK();
}

bool TablesIdentical(const storage::Table& a, const storage::Table& b) {
  if (a.num_rows() != b.num_rows()) return false;
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.row(r).size(); ++c) {
      if (a.row(r)[c].is_null() != b.row(r)[c].is_null()) return false;
      if (!(a.row(r)[c] == b.row(r)[c])) return false;
    }
  }
  return true;
}

int RunSweep(platform::Platform* db, size_t rows) {
  struct CardSpec {
    const char* label;
    int64_t groups;
    std::string sql;
  };
  const std::vector<CardSpec> specs = {
      {"low", kLowGroups,
       "SELECT g_lo, COUNT(*) AS n, SUM(v) AS sv FROM agg_fact "
       "GROUP BY g_lo"},
      {"high", kHighGroups,
       "SELECT g_hi, COUNT(*) AS n, SUM(v) AS sv FROM agg_fact "
       "GROUP BY g_hi"},
  };
  const char* kCpuModes[] = {"scalar", "native"};
  const size_t kThreads[] = {1, 2, 4, 8};
  const size_t host_cores = TaskPool::DefaultDop();

  for (const CardSpec& spec : specs) {
    // Single-threaded baseline: the reference result every cell must
    // reproduce bit for bit.
    if (!db->SetParameter("threads", "1").ok()) return 1;
    auto baseline = db->Query(spec.sql);
    if (!baseline.ok()) {
      std::fprintf(stderr, "baseline failed: %s\n",
                   baseline.status().ToString().c_str());
      return 1;
    }

    for (const char* cpu : kCpuModes) {
      if (!db->SetParameter("cpu", cpu).ok()) return 1;
      for (size_t threads : kThreads) {
        if (!db->SetParameter("threads", std::to_string(threads)).ok()) {
          return 1;
        }
        struct Cell {
          double ms = 0.0;
          bool identical = false;
          size_t partitions = 0;
        };
        Cell cell;
        cell.ms = BestOfThree([&] {
          Stopwatch watch;
          auto result = db->Query(spec.sql);
          double ms = watch.ElapsedMillis();
          if (!result.ok()) {
            std::fprintf(stderr, "query failed: %s: %s\n",
                         spec.sql.c_str(),
                         result.status().ToString().c_str());
            std::exit(1);
          }
          cell.identical = TablesIdentical(*baseline, *result);
          return ms;
        });
        for (const exec::PipelineStats& p : db->last_pipeline_stats()) {
          if (p.agg_partitions > 0) cell.partitions = p.agg_partitions;
        }
        if (!cell.identical) {
          std::fprintf(stderr,
                       "result mismatch: card=%s cpu=%s threads=%zu\n",
                       spec.label, cpu, threads);
          return 1;
        }
        std::printf(
            "{\"bench\": \"agg\", \"cardinality\": \"%s\", "
            "\"groups\": %lld, \"cpu\": \"%s\", \"cpu_level\": \"%s\", "
            "\"host_cores\": %zu, \"threads\": %zu, \"rows\": %zu, "
            "\"partitions\": %zu, \"ms\": %.3f, "
            "\"identical_to_serial\": true}\n",
            spec.label, static_cast<long long>(spec.groups), cpu,
            CpuLevelName(DetectedCpuLevel()), host_cores, threads, rows,
            cell.partitions, cell.ms);
        std::fflush(stdout);
      }
    }
    if (!db->SetParameter("cpu", "native").ok()) return 1;
  }
  return 0;
}

int Main(int argc, char** argv) {
  size_t rows = argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 2000000;

  std::fprintf(stderr, "bench_agg: detected cpu level %s; rows=%zu\n",
               CpuLevelName(DetectedCpuLevel()), rows);

  platform::Platform db(platform::PlatformOptions{
      .attach_extended = false, .start_hadoop = false});
  Status load = LoadFact(&db, rows);
  if (!load.ok()) {
    std::fprintf(stderr, "load failed: %s\n", load.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "fact table loaded\n");
  if (int rc = RunSweep(&db, rows); rc != 0) return rc;
  if (!SetCpuMode("native").ok()) return 1;
  return 0;
}

}  // namespace
}  // namespace hana

int main(int argc, char** argv) { return hana::Main(argc, argv); }
