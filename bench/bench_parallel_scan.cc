// Morsel-driven parallel scan/aggregation benchmark. Loads the TPC-H
// lineitem table, then runs a full scan, a selective filter+project and
// a Q1-style grouped aggregation at increasing degrees of parallelism,
// reporting wall-clock speedup over the serial run as JSON lines. A
// projection leg runs one 3-column filter query on the 16-column
// lineitem and on a copy holding only those 3 columns: with column
// pruning the wide scan decodes the same 3 columns, so the two should
// run close together. A final section measures the raw
// ColumnTable::ScanPartitioned path without SQL overhead.
//
// Note that real speedup requires real cores: on a single-core host the
// parallel runs mostly demonstrate that the overhead is bounded and the
// results stay bit-identical.
//
// Usage: bench_parallel_scan [scale_factor] [morsel_rows]

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common/task_pool.h"
#include "common/util.h"
#include "platform/platform.h"
#include "tpch/dbgen.h"

namespace hana {
namespace {

struct QuerySpec {
  const char* name;
  const char* sql;
};

constexpr QuerySpec kQueries[] = {
    {"full_scan",
     "SELECT l_orderkey, l_quantity, l_extendedprice FROM lineitem"},
    {"filter_project",
     "SELECT l_orderkey, l_extendedprice * (1 - l_discount) AS revenue"
     " FROM lineitem WHERE l_quantity > 40 AND l_discount > 0.02"},
    {"q1_style_aggregate",
     R"(SELECT l_returnflag, l_linestatus,
               SUM(l_quantity) AS sum_qty,
               SUM(l_extendedprice) AS sum_base_price,
               SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
               AVG(l_quantity) AS avg_qty, COUNT(*) AS count_order
        FROM lineitem
        WHERE l_shipdate <= DATE '1998-09-02'
        GROUP BY l_returnflag, l_linestatus
        ORDER BY l_returnflag, l_linestatus)"},
};

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

int Main(int argc, char** argv) {
  double sf = argc > 1 ? std::atof(argv[1]) : 0.02;
  size_t morsel_rows = argc > 2
                           ? static_cast<size_t>(std::atoll(argv[2]))
                           : 4096;

  std::printf("Generating TPC-H lineitem at SF %.3f...\n", sf);
  tpch::TpchData data = tpch::Generate(sf);
  platform::Platform db(platform::PlatformOptions{
      .attach_extended = false, .start_hadoop = false});
  sql::CreateTableStmt create;
  create.table = "lineitem";
  create.columns = tpch::TpchSchema("lineitem")->columns();
  if (!db.catalog().CreateTable(create).ok() ||
      !db.catalog().Insert("lineitem", data.lineitem).ok()) {
    std::fprintf(stderr, "lineitem load failed\n");
    return 1;
  }
  (void)db.SetParameter("morsel_rows", std::to_string(morsel_rows));
  std::printf("loaded %zu rows; morsel_rows=%zu; pool=%zu workers\n\n",
              data.lineitem.size(), morsel_rows,
              TaskPool::Global().num_threads());

  const size_t kThreadCounts[] = {1, 2, 4, 8};
  for (const QuerySpec& q : kQueries) {
    storage::Table serial_result;
    double serial_ms = 0;
    for (size_t threads : kThreadCounts) {
      (void)db.SetParameter("threads", std::to_string(threads));
      storage::Table result;
      double ms = BestOfThree([&] {
        Stopwatch watch;
        auto r = db.Query(q.sql);
        double elapsed = watch.ElapsedMillis();
        if (!r.ok()) {
          std::fprintf(stderr, "%s failed: %s\n", q.name,
                       r.status().ToString().c_str());
          std::exit(1);
        }
        result = std::move(*r);
        return elapsed;
      });
      bool identical = true;
      if (threads == 1) {
        serial_result = std::move(result);
        serial_ms = ms;
      } else {
        identical = TablesIdentical(serial_result, result);
      }
      std::printf(
          "{\"bench\": \"parallel_scan\", \"query\": \"%s\", "
          "\"threads\": %zu, \"ms\": %.3f, \"rows\": %zu, "
          "\"speedup\": %.2f, \"identical_to_serial\": %s}\n",
          q.name, threads, ms,
          threads == 1 ? serial_result.num_rows() : result.num_rows(),
          threads == 1 ? 1.0 : (ms > 0 ? serial_ms / ms : 0.0),
          identical ? "true" : "false");
    }
    std::printf("\n");
  }

  // Projection leg: the same query over the wide table and over a copy
  // cut down to the columns it names.
  const char* kProjection =
      "SELECT l_orderkey, l_quantity, l_extendedprice FROM {T}"
      " WHERE l_quantity > 40";
  {
    sql::CreateTableStmt narrow;
    narrow.table = "lineitem_3col";
    std::vector<size_t> keep;
    for (const char* name : {"l_orderkey", "l_quantity", "l_extendedprice"}) {
      int idx = tpch::TpchSchema("lineitem")->FindColumn(name);
      keep.push_back(static_cast<size_t>(idx));
      narrow.columns.push_back(create.columns[static_cast<size_t>(idx)]);
    }
    std::vector<std::vector<Value>> rows;
    rows.reserve(data.lineitem.size());
    for (const auto& row : data.lineitem) {
      std::vector<Value> cut;
      for (size_t c : keep) cut.push_back(row[c]);
      rows.push_back(std::move(cut));
    }
    if (!db.catalog().CreateTable(narrow).ok() ||
        !db.catalog().Insert("lineitem_3col", rows).ok()) {
      std::fprintf(stderr, "lineitem_3col load failed\n");
      return 1;
    }
  }
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    (void)db.SetParameter("threads", std::to_string(threads));
    storage::Table results[2];
    double ms[2] = {0, 0};
    const char* tables[2] = {"lineitem", "lineitem_3col"};
    for (int t = 0; t < 2; ++t) {
      std::string sql = kProjection;
      sql.replace(sql.find("{T}"), 3, tables[t]);
      ms[t] = BestOfThree([&] {
        Stopwatch watch;
        auto r = db.Query(sql);
        double elapsed = watch.ElapsedMillis();
        if (!r.ok()) {
          std::fprintf(stderr, "projection failed: %s\n",
                       r.status().ToString().c_str());
          std::exit(1);
        }
        results[t] = std::move(*r);
        return elapsed;
      });
    }
    std::printf(
        "{\"bench\": \"projection\", \"threads\": %zu, "
        "\"wide_ms\": %.3f, \"narrow_ms\": %.3f, \"wide_over_narrow\": "
        "%.2f, \"rows\": %zu, \"identical\": %s}\n",
        threads, ms[0], ms[1], ms[1] > 0 ? ms[0] / ms[1] : 0.0,
        results[0].num_rows(),
        TablesIdentical(results[0], results[1]) ? "true" : "false");
  }
  std::printf("\n");

  // Raw storage-layer path: ScanPartitioned with no SQL machinery.
  auto entry = db.catalog().GetTable("lineitem");
  if (!entry.ok() || (*entry)->column_table == nullptr) {
    std::fprintf(stderr, "lineitem is not a column table\n");
    return 1;
  }
  storage::ColumnTable* table = (*entry)->column_table.get();
  for (size_t partitions : {size_t{1}, size_t{8}}) {
    std::atomic<size_t> rows{0};
    double ms = BestOfThree([&] {
      rows.store(0);
      Stopwatch watch;
      table->ScanPartitioned(
          morsel_rows, partitions,
          [&](size_t, const storage::Chunk& chunk) {
            rows.fetch_add(chunk.num_rows(), std::memory_order_relaxed);
            return true;
          });
      return watch.ElapsedMillis();
    });
    std::printf(
        "{\"bench\": \"scan_partitioned\", \"partitions\": %zu, "
        "\"ms\": %.3f, \"rows\": %zu}\n",
        partitions, ms, rows.load());
  }
  return 0;
}

}  // namespace
}  // namespace hana

int main(int argc, char** argv) { return hana::Main(argc, argv); }
