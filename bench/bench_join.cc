// Morsel-parallel radix hash join benchmark. Builds a probe table and
// build tables of increasing size with deterministic keys, then times
// an aggregating inner equi-join on the radix hash join (parallel
// partitioned build, vectorized column-wise keys, partitioned probe
// fused into the morsel pipeline), swept over thread counts and
// reported as JSON lines with the speedup relative to one thread. A
// band join (a non-equi BETWEEN condition over probe_rows / 100 probe
// rows and the 1:1000 build) times the nested-loop join, the keyless
// radix table whose condition runs as the residual, over the same
// sweep. A second section runs join-heavy TPC-H queries end to end on merged
// tables at threads 1, 2 and 4 (median of 5 after a warm-up), among
// them Q13 (LEFT JOIN with an ON-clause filter on orders) and Q18 (IN
// semi join placed on orders), each line with the host's core count.
//
// Note that real thread-scaling requires real cores: on a single-core
// host the thread sweep mostly demonstrates that the scheduling
// overhead is bounded and results stay bit-identical.
//
// Usage: bench_join [probe_rows] [morsel_rows] [tpch_sf]
// (defaults 1000000, 16384 and 0.1).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/util.h"
#include "platform/platform.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace hana {
namespace {

bool TablesIdentical(const storage::Table& a, const storage::Table& b) {
  if (a.num_rows() != b.num_rows()) return false;
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.row(r).size(); ++c) {
      if (a.row(r)[c].Compare(b.row(r)[c]) != 0) return false;
    }
  }
  return true;
}

double BestOfThree(const std::function<double()>& run) {
  double best = run();
  for (int i = 0; i < 2; ++i) best = std::min(best, run());
  return best;
}

storage::Table MustQuery(platform::Platform& db, const std::string& sql) {
  auto r = db.Query(sql);
  if (!r.ok()) {
    std::fprintf(stderr, "query failed: %s\n%s\n",
                 r.status().ToString().c_str(), sql.c_str());
    std::exit(1);
  }
  return std::move(*r);
}

int Main(int argc, char** argv) {
  size_t probe_rows = argc > 1
                          ? static_cast<size_t>(std::atoll(argv[1]))
                          : 1000000;
  size_t morsel_rows = argc > 2
                           ? static_cast<size_t>(std::atoll(argv[2]))
                           : 16384;
  const double tpch_sf = argc > 3 ? std::atof(argv[3]) : 0.1;

  platform::Platform db(platform::PlatformOptions{
      .attach_extended = false, .start_hadoop = false});

  // Probe: probe_rows rows, keys spread over [0, probe_rows) by a
  // Knuth-style multiplicative hash so every morsel touches every
  // radix partition.
  std::printf("Loading probe (%zu rows)...\n", probe_rows);
  sql::CreateTableStmt probe;
  probe.table = "probe";
  probe.columns = {{"k", DataType::kInt64, false},
                   {"v", DataType::kDouble, false}};
  if (!db.catalog().CreateTable(probe).ok()) return 1;
  {
    std::vector<std::vector<Value>> rows;
    rows.reserve(probe_rows);
    for (size_t i = 0; i < probe_rows; ++i) {
      uint64_t h = i * 2654435761u;
      rows.push_back(
          {Value::Int(static_cast<int64_t>(h % probe_rows)),
           Value::Double(static_cast<double>(h % 1000) * 0.01)});
    }
    if (!db.catalog().Insert("probe", rows).ok()) return 1;
  }

  // Build tables: 1:1000 (classic dimension), 1:10 and 1:1 (build as
  // large as the probe — the 1M x 1M case at the default probe_rows).
  const size_t build_sizes[] = {probe_rows / 1000, probe_rows / 10,
                                probe_rows};
  std::vector<std::string> build_tables;
  for (size_t size : build_sizes) {
    std::string name = "build_" + std::to_string(size);
    std::printf("Loading %s...\n", name.c_str());
    sql::CreateTableStmt build;
    build.table = name;
    build.columns = {{"k", DataType::kInt64, false},
                     {"w", DataType::kDouble, false}};
    if (!db.catalog().CreateTable(build).ok()) return 1;
    std::vector<std::vector<Value>> rows;
    rows.reserve(size);
    for (size_t i = 0; i < size; ++i) {
      uint64_t h = i * 40503u + 7;
      rows.push_back(
          {Value::Int(static_cast<int64_t>(h % probe_rows)),
           Value::Double(static_cast<double>(h % 500) * 0.02)});
    }
    if (!db.catalog().Insert(name, rows).ok()) return 1;
    build_tables.push_back(std::move(name));
  }
  (void)db.SetParameter("morsel_rows", std::to_string(morsel_rows));
  std::printf("morsel_rows=%zu; pool=%zu workers\n\n", morsel_rows,
              TaskPool::Global().num_threads());

  // Aggregating joins so result materialization (boxed Table rows)
  // does not dominate the timing of either engine.
  const unsigned host_cores = std::thread::hardware_concurrency();
  const size_t kThreadCounts[] = {1, 2, 4, 8};
  auto sweep = [&](const std::string& build, const char* engine,
                   const std::string& sql) {
    storage::Table serial;
    double serial_ms = 0;
    for (size_t threads : kThreadCounts) {
      (void)db.SetParameter("threads", std::to_string(threads));
      storage::Table result;
      double ms = BestOfThree([&] {
        Stopwatch watch;
        result = MustQuery(db, sql);
        return watch.ElapsedMillis();
      });
      bool identical = true;
      if (threads == 1) {
        serial = std::move(result);
        serial_ms = ms;
      } else {
        identical = TablesIdentical(serial, result);
      }
      std::printf(
          "{\"bench\": \"join\", \"build\": \"%s\", \"engine\": "
          "\"%s\", \"host_cores\": %u, \"threads\": %zu, \"ms\": %.3f, "
          "\"speedup_vs_serial\": %.2f, \"matches\": %lld, "
          "\"identical_to_serial\": %s}\n",
          build.c_str(), engine, host_cores, threads, ms,
          ms > 0 ? serial_ms / ms : 0.0,
          static_cast<long long>(serial.row(0)[0].int_value()),
          identical ? "true" : "false");
      if (!identical) {
        std::fprintf(stderr, "result mismatch on %s\n", build.c_str());
        return false;
      }
    }
    std::printf("\n");
    return true;
  };
  for (const std::string& build : build_tables) {
    if (!sweep(build, "radix",
               "SELECT COUNT(*) AS matches, SUM(p.v + b.w) AS sv "
               "FROM probe p JOIN " +
                   build + " b ON p.k = b.k")) {
      return 1;
    }
  }
  // Band join: no equi key, so every (probe, build) pair is a candidate.
  if (!sweep(build_tables[0], "nested_loop",
             "SELECT COUNT(*) AS matches, SUM(p.v + b.w) AS sv "
             "FROM probe p JOIN " +
                 build_tables[0] +
                 " b ON p.k BETWEEN b.k - 500 AND b.k + 500 "
                 "WHERE p.k % 100 = 0")) {
    return 1;
  }

  // Join-heavy TPC-H queries end to end, on merged tables as perfbench
  // loads them.
  std::printf("Loading TPC-H SF %.3f...\n", tpch_sf);
  tpch::TpchData data = tpch::Generate(tpch_sf);
  for (const std::string& table : tpch::TpchTableNames()) {
    sql::CreateTableStmt create;
    create.table = table;
    create.columns = tpch::TpchSchema(table)->columns();
    if (!db.catalog().CreateTable(create).ok() ||
        !db.catalog().Insert(table, *tpch::TableRows(data, table)).ok() ||
        !db.Execute("MERGE DELTA OF " + table).ok()) {
      std::fprintf(stderr, "TPC-H load failed: %s\n", table.c_str());
      return 1;
    }
  }
  (void)db.SetParameter("morsel_rows", "0");  // The engine default.
  constexpr int kReps = 5;
  for (int q : {3, 10, 12, 13, 18}) {
    std::string sql = tpch::QueryText(q);
    storage::Table serial_result;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      (void)db.SetParameter("threads", std::to_string(threads));
      storage::Table result;
      std::vector<double> ms;
      for (int rep = 0; rep <= kReps; ++rep) {
        Stopwatch watch;
        result = MustQuery(db, sql);
        if (rep > 0) ms.push_back(watch.ElapsedMillis());  // 0: warm-up.
      }
      std::sort(ms.begin(), ms.end());
      bool identical = true;
      if (threads == 1) {
        serial_result = result;
      } else {
        identical = TablesIdentical(serial_result, result);
      }
      std::printf(
          "{\"bench\": \"join_tpch\", \"query\": \"Q%d\", \"sf\": %.3f, "
          "\"host_cores\": %u, \"threads\": %zu, \"ms\": %.3f, "
          "\"rows\": %zu, \"identical_to_serial\": %s}\n",
          q, tpch_sf, host_cores, threads, ms[ms.size() / 2],
          result.num_rows(), identical ? "true" : "false");
      if (!identical) return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace hana

int main(int argc, char** argv) { return hana::Main(argc, argv); }
