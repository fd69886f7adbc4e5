// Experiment E6 (Section 3.1 claims): the extended storage offers
// low-cost disk residence for cold data with "reasonably short response
// times" — and hybrid tables age data out of memory transparently.
// Reports: direct bulk-load throughput, zone-map pruning, the warm
// buffer cache, cold vs. in-memory aggregation at threads 1/2/4/8, and
// aging throughput. The buffer cache holds about a third of the cold
// table's blocks, so every full cold scan reads all of its blocks from
// the file (LRU over a cyclic scan keeps nothing); at threads d the scan
// reads and decodes up to d - 1 row groups ahead on the task pool.
// Cold-scan results and extended-store counters must not depend on the
// thread count ("identical_to_serial"). JSON lines, like bench_2pc.
//
// Usage: bench_extended_storage [rows] [reps]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/task_pool.h"
#include "common/util.h"
#include "platform/platform.h"

namespace hana {
namespace {

void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
    std::exit(1);
  }
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct QueryRun {
  double ms = 0;  // Median wall time.
  uint64_t blocks_read = 0;  // Per run (the same in every rep).
  uint64_t cache_hits = 0;
  double io_ms = 0;
  storage::Table result;
  bool stable = true;  // Counters equal in every rep.
};

QueryRun Measure(platform::Platform* db, const std::string& sql, int reps) {
  extended::ExtendedStore* store = db->iq()->store();
  QueryRun run;
  std::vector<double> times;
  for (int rep = 0; rep < reps; ++rep) {
    const extended::ExtendedStoreMetrics before = store->metrics();
    uint64_t blocks = before.blocks_read, hits = before.cache_hits;
    double io = before.simulated_io_ms;
    Stopwatch watch;
    auto result = db->Execute(sql);
    times.push_back(watch.ElapsedMillis());
    Check(result.status(), sql.c_str());
    const extended::ExtendedStoreMetrics m = store->metrics();
    if (rep > 0 && (m.blocks_read - blocks != run.blocks_read ||
                    m.cache_hits - hits != run.cache_hits)) {
      run.stable = false;
    }
    run.blocks_read = m.blocks_read - blocks;
    run.cache_hits = m.cache_hits - hits;
    run.io_ms = m.simulated_io_ms - io;
    run.result = std::move(result->table);
  }
  run.ms = Median(times);
  return run;
}

bool SameRows(const storage::Table& a, const storage::Table& b) {
  if (a.num_rows() != b.num_rows()) return false;
  for (size_t r = 0; r < a.num_rows(); ++r) {
    if (a.row(r).size() != b.row(r).size()) return false;
    for (size_t c = 0; c < a.row(r).size(); ++c) {
      const Value& x = a.row(r)[c];
      const Value& y = b.row(r)[c];
      if (x.is_null() != y.is_null()) return false;
      if (x.is_null()) continue;
      // Exact equality, DOUBLE sums included.
      if (x.type() == DataType::kDouble ? x.AsDouble() != y.AsDouble()
                                        : x.Compare(y) != 0) {
        return false;
      }
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  size_t rows = argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 200000;
  int reps = argc > 2 ? std::max(1, std::atoi(argv[2])) : 7;
  // ~17 disk bytes per row over the four columns, and a cached block
  // counts 4 bytes per disk byte: a third of the table fits.
  const size_t cache_bytes = rows * 17 * 4 / 3;

  platform::PlatformOptions options;
  options.start_hadoop = false;
  options.extended_options.cache_bytes = cache_bytes;
  platform::Platform db(options);
  Check(db.Run(R"(
      CREATE COLUMN TABLE hot_t (id BIGINT, day BIGINT, v DOUBLE, w DOUBLE);
      CREATE TABLE cold_t (id BIGINT, day BIGINT, v DOUBLE, w DOUBLE)
        USING EXTENDED STORAGE)"),
        "setup");

  Rng rng(11);
  std::vector<std::vector<Value>> data;
  data.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    data.push_back({Value::Int(static_cast<int64_t>(i)),
                    Value::Int(static_cast<int64_t>(i / 1000)),
                    Value::Double(rng.NextDouble() * 100.0),
                    Value::Double(rng.NextDouble())});
  }

  Stopwatch watch;
  Check(db.catalog().Insert("hot_t", data), "load hot");
  double hot_load_ms = watch.ElapsedMillis();
  watch.Reset();
  Check(db.catalog().Insert("cold_t", data), "load cold");
  double cold_load_ms = watch.ElapsedMillis();
  auto cold = db.iq()->store()->GetTable("cold_t");
  Check(cold.status(), "cold table");
  std::printf(
      "{\"bench\": \"extended_storage_config\", \"host_cores\": %u, "
      "\"pool_workers\": %zu, \"rows\": %zu, \"rows_per_group\": %zu, "
      "\"row_groups\": %zu, \"disk_mb\": %.3f, \"cache_mb\": %.3f, "
      "\"reps\": %d}\n",
      std::thread::hardware_concurrency(), TaskPool::Global().num_threads(),
      rows, options.extended_options.rows_per_group, (*cold)->num_groups(),
      static_cast<double>((*cold)->disk_bytes()) / (1 << 20),
      static_cast<double>(cache_bytes) / (1 << 20), reps);
  std::printf(
      "{\"bench\": \"extended_load\", \"hot_load_ms\": %.1f, "
      "\"cold_load_ms\": %.1f, \"cold_krows_per_s\": %.0f}\n",
      hot_load_ms, cold_load_ms, rows / cold_load_ms);

  // Selective scan first: the buffer cache is cold, so the block count
  // shows zone-map pruning at work; the second run hits the cache.
  Check(db.SetParameter("threads", "1"), "threads");
  const std::string selective = "SELECT COUNT(*) FROM cold_t WHERE day = 7";
  QueryRun pruned = Measure(&db, selective, 1);
  QueryRun warm = Measure(&db, selective, 1);
  std::printf(
      "{\"bench\": \"extended_selective_scan\", \"cold_blocks_read\": %llu, "
      "\"row_groups\": %zu, \"warm_blocks_read\": %llu, "
      "\"warm_cache_hits\": %llu}\n",
      static_cast<unsigned long long>(pruned.blocks_read),
      (*cold)->num_groups(),
      static_cast<unsigned long long>(warm.blocks_read),
      static_cast<unsigned long long>(warm.cache_hits));

  const std::string hot_sql = "SELECT day, SUM(v), SUM(w) FROM hot_t GROUP BY day";
  const std::string cold_sql =
      "SELECT day, SUM(v), SUM(w) FROM cold_t GROUP BY day";
  // One untimed full scan leaves the cache in its steady state, in which
  // every run of the cold aggregate reads the same blocks.
  Measure(&db, cold_sql, 1);
  QueryRun serial;
  for (size_t threads : {1, 2, 4, 8}) {
    Check(db.SetParameter("threads", std::to_string(threads)), "threads");
    QueryRun hot = Measure(&db, hot_sql, reps);
    QueryRun run = Measure(&db, cold_sql, reps);
    if (threads == 1) serial = run;
    bool identical = run.stable && SameRows(run.result, serial.result) &&
                     run.blocks_read == serial.blocks_read &&
                     run.cache_hits == serial.cache_hits &&
                     // A difference of a running sum: equal up to
                     // rounding of the accumulator.
                     std::abs(run.io_ms - serial.io_ms) <= 1e-9 * serial.io_ms;
    std::printf(
        "{\"bench\": \"extended_cold_aggregate\", \"threads\": %zu, "
        "\"cold_ms\": %.2f, \"hot_ms\": %.2f, \"cold_over_hot\": %.1f, "
        "\"speedup_vs_1_thread\": %.2f, \"blocks_read\": %llu, "
        "\"cache_hits\": %llu, \"io_sim_ms\": %.1f, "
        "\"identical_to_serial\": %s}\n",
        threads, run.ms, hot.ms, hot.ms > 0 ? run.ms / hot.ms : 0.0,
        run.ms > 0 ? serial.ms / run.ms : 0.0,
        static_cast<unsigned long long>(run.blocks_read),
        static_cast<unsigned long long>(run.cache_hits), run.io_ms,
        identical ? "true" : "false");
  }

  // Aging: hybrid table with a hot and a cold partition.
  Check(db.Run(R"(
      CREATE TABLE events (id BIGINT, day BIGINT, v DOUBLE, aged BOOLEAN)
        USING HYBRID EXTENDED STORAGE
        PARTITION BY RANGE (day)
          (PARTITION VALUES < 100 COLD, PARTITION OTHERS HOT)
        WITH AGING ON aged)"),
        "hybrid setup");
  std::vector<std::vector<Value>> events;
  for (size_t i = 0; i < rows / 4; ++i) {
    int64_t day = 100 + static_cast<int64_t>(i % 100);
    events.push_back({Value::Int(static_cast<int64_t>(i)), Value::Int(day),
                      Value::Double(1.0), Value::Bool(i % 2 == 0)});
  }
  Check(db.catalog().Insert("events", events), "hybrid load");
  watch.Reset();
  auto moved = db.catalog().RunAging("events");
  Check(moved.status(), "aging");
  double aging_ms = watch.ElapsedMillis();
  std::printf(
      "{\"bench\": \"extended_aging\", \"rows_moved\": %zu, \"rows\": %zu, "
      "\"ms\": %.1f, \"krows_per_s\": %.0f}\n",
      *moved, events.size(), aging_ms, *moved / aging_ms);
  return 0;
}

}  // namespace
}  // namespace hana

int main(int argc, char** argv) { return hana::Main(argc, argv); }
