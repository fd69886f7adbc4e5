// Pipeline-executor thread sweep: the same plans at 1/2/4/8 threads.
// Every thread count shares one plan decomposition and one morsel-order
// merge, so every run must produce bit-identical results; only the
// schedule (and therefore the wall time) may differ. With one thread
// the pipelines run one after the other; with more, every pipeline
// whose inputs are ready is scheduled on the pool at once.
//
// Two plans exercise the two ways the pipeline DAG wins:
//
//  1. A Figure-7-style Union Plan: a hybrid table whose four cold
//     partitions live in the extended storage. Each branch becomes an
//     independent pipeline dispatched concurrently, so the statement
//     pays the max of the simulated branch latencies instead of their
//     sum.
//
//  2. A TPC-H-Q5-style two-join aggregate: both dimension builds are
//     independent single-morsel pipelines that overlap on the pool.
//
// Usage: bench_pipeline [fact_rows]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/util.h"
#include "platform/platform.h"

namespace hana {
namespace {

bool TablesEqual(const storage::Table& a, const storage::Table& b) {
  if (a.num_rows() != b.num_rows()) return false;
  for (size_t r = 0; r < a.num_rows(); ++r) {
    const auto& arow = a.row(r);
    const auto& brow = b.row(r);
    if (arow.size() != brow.size()) return false;
    for (size_t c = 0; c < arow.size(); ++c) {
      if (arow[c].is_null() != brow[c].is_null()) return false;
      if (!(arow[c] == brow[c])) return false;
    }
  }
  return true;
}

struct SweepTiming {
  double serial_1t = 0.0;
  double parallel_4t = 0.0;
};

/// Runs `query` at every thread count, printing one JSON line per run
/// with the chosen time metric and whether the result matched the
/// single-threaded baseline bit for bit. Each cell reports the best of
/// `kReps` runs to damp scheduler noise; the identity check covers
/// every repetition.
SweepTiming RunSweep(platform::Platform* db, const char* bench,
                     const std::string& query, bool use_total_ms) {
  constexpr int kReps = 3;
  (void)db->SetParameter("threads", "1");
  auto baseline = db->Execute(query);
  if (!baseline.ok()) {
    std::fprintf(stderr, "%s baseline failed: %s\n", bench,
                 baseline.status().ToString().c_str());
    std::exit(1);
  }
  SweepTiming timing;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    (void)db->SetParameter("threads", std::to_string(threads));
    double ms = 0.0;
    double remote_ms = 0.0;
    size_t rows = 0;
    bool identical = true;
    for (int rep = 0; rep < kReps; ++rep) {
      auto result = db->Execute(query);
      if (!result.ok()) {
        std::fprintf(stderr, "%s threads=%zu failed: %s\n", bench, threads,
                     result.status().ToString().c_str());
        std::exit(1);
      }
      double run_ms = use_total_ms ? result->metrics.total_ms
                                   : result->metrics.local_ms;
      if (rep == 0 || run_ms < ms) {
        ms = run_ms;
        remote_ms = result->metrics.simulated_remote_ms;
      }
      rows = result->table.num_rows();
      identical = identical && TablesEqual(baseline->table, result->table);
    }
    std::printf(
        "{\"bench\": \"%s\", \"threads\": %zu, \"ms\": %.3f, "
        "\"remote_ms\": %.3f, \"rows\": %zu, \"identical_to_serial\": %s}\n",
        bench, threads, ms, remote_ms, rows, identical ? "true" : "false");
    if (threads == 1) timing.serial_1t = ms;
    if (threads == 4) timing.parallel_4t = ms;
  }
  return timing;
}

void PrintSummary(const char* bench, const SweepTiming& t) {
  std::printf(
      "{\"bench\": \"%s_summary\", \"threads_1_ms\": %.3f, "
      "\"threads_4_ms\": %.3f, \"speedup_4_vs_1\": %.2f}\n",
      bench, t.serial_1t, t.parallel_4t,
      t.parallel_4t > 0 ? t.serial_1t / t.parallel_4t : 0.0);
}

/// Figure-7-style Union Plan: four cold extended-storage partitions,
/// each a branch pipeline carrying simulated remote latency.
void RunUnionPlan() {
  std::printf("\nUnion Plan: 4 extended-storage branches, thread sweep\n");
  platform::Platform db;
  Status s = db.Run(R"(
      CREATE TABLE events (id BIGINT, bucket BIGINT, amount DOUBLE)
        USING HYBRID EXTENDED STORAGE
        PARTITION BY RANGE (bucket) (
          PARTITION VALUES < 1 COLD,
          PARTITION VALUES < 2 COLD,
          PARTITION VALUES < 3 COLD,
          PARTITION VALUES < 4 COLD,
          PARTITION OTHERS HOT))");
  if (!s.ok()) {
    std::fprintf(stderr, "setup: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  constexpr size_t kEventRows = 40000;
  std::vector<std::vector<Value>> events;
  events.reserve(kEventRows);
  for (size_t i = 0; i < kEventRows; ++i) {
    events.push_back({Value::Int(static_cast<int64_t>(i)),
                      Value::Int(static_cast<int64_t>(i % 5)),
                      Value::Double((i % 997) * 0.5)});
  }
  (void)db.catalog().Insert("events", events);

  const std::string query =
      "SELECT COUNT(*) AS n, SUM(amount) AS total FROM events";
  // Warm the extended store's buffer cache so every timed run pays the
  // same per-branch latency and the grid isolates the schedule.
  if (!db.Execute(query).ok()) {
    std::fprintf(stderr, "warm-up failed\n");
    std::exit(1);
  }
  SweepTiming t =
      RunSweep(&db, "pipeline_union", query, /*use_total_ms=*/true);
  PrintSummary("pipeline_union", t);
  std::printf(
      "shape: concurrent branch pipelines pay max-of-branch-latencies"
      " instead of the sum\n");
}

/// TPC-H-Q5-style plan: fact joined with two dimensions, aggregated.
/// Both dimension builds are independent pipelines.
void RunTwoJoinPlan(size_t fact_rows) {
  std::printf("\nTwo-join aggregate: independent build pipelines overlap\n");
  platform::Platform db(platform::PlatformOptions{.attach_extended = false,
                                                  .start_hadoop = false});
  Status s = db.Run(R"(
      CREATE COLUMN TABLE fact (id BIGINT, k1 BIGINT, k2 BIGINT,
                                amount DOUBLE);
      CREATE COLUMN TABLE dim1 (k BIGINT, grp BIGINT, w DOUBLE);
      CREATE COLUMN TABLE dim2 (k BIGINT, name VARCHAR(16)))");
  if (!s.ok()) {
    std::fprintf(stderr, "setup: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  constexpr size_t kDimRows = 120000;
  std::vector<std::vector<Value>> rows;
  rows.reserve(kDimRows);
  for (size_t i = 0; i < kDimRows; ++i) {
    rows.push_back({Value::Int(static_cast<int64_t>(i)),
                    Value::Int(static_cast<int64_t>(i % 25)),
                    Value::Double((i % 113) * 0.25)});
  }
  (void)db.catalog().Insert("dim1", rows);
  rows.clear();
  for (size_t i = 0; i < kDimRows; ++i) {
    rows.push_back({Value::Int(static_cast<int64_t>(i)),
                    Value::String("n" + std::to_string(i % 25))});
  }
  (void)db.catalog().Insert("dim2", rows);
  rows.clear();
  rows.reserve(fact_rows);
  for (size_t i = 0; i < fact_rows; ++i) {
    uint64_t h = i * 2654435761u;
    rows.push_back({Value::Int(static_cast<int64_t>(i)),
                    Value::Int(static_cast<int64_t>(h % kDimRows)),
                    Value::Int(static_cast<int64_t>((h / 7) % kDimRows)),
                    Value::Double((h % 1000) * 0.01)});
  }
  (void)db.catalog().Insert("fact", rows);

  // Dimension builds stay single-morsel (their tables are smaller than
  // one morsel), so only concurrent pipeline scheduling overlaps them.
  (void)db.SetParameter("morsel_rows", "131072");
  const std::string query = R"(
      SELECT d.grp, SUM(f.amount) AS revenue
      FROM fact f
      JOIN dim1 d ON f.k1 = d.k
      JOIN dim2 n ON f.k2 = n.k
      WHERE n.name <> 'n999'
      GROUP BY d.grp)";
  if (!db.Execute(query).ok()) {
    std::fprintf(stderr, "warm-up failed\n");
    std::exit(1);
  }
  SweepTiming t = RunSweep(&db, "pipeline_two_join", query,
                          /*use_total_ms=*/false);
  PrintSummary("pipeline_two_join", t);
  std::printf("shape: independent join builds overlap on the task pool\n");
}

int Main(int argc, char** argv) {
  size_t fact_rows =
      argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 400000;
  std::printf(
      "Pipeline executor thread sweep over one plan decomposition\n"
      "(results must be bit-identical in every cell).\n");
  RunUnionPlan();
  RunTwoJoinPlan(fact_rows);
  return 0;
}

}  // namespace
}  // namespace hana

int main(int argc, char** argv) { return hana::Main(argc, argv); }
