// Vectorized-expression benchmark. Loads TPC-H lineitem, orders and
// customer (merged into the main store), then times expression-bound
// statements at 1, 2 and 4 threads: nine `COUNT(*) ... WHERE`
// predicates (none, int64, double, DATE, column against column, and on
// dictionary-coded strings equality, IN, a prefix LIKE and an infix
// LIKE), a GROUP BY on two string columns, three SUM arithmetic shapes,
// and Q13 with and without its NOT LIKE join residual. Each cell is the
// median of five runs after one warm-up, printed as one JSON line with
// the host's core count, the rows the boxed scalar fallback evaluated
// (0 when every expression ran on kernels) and the rows converted from
// dictionary codes to owned strings (0 when strings stayed coded).
//
// Usage: bench_expr [scale_factor]   (default 0.1)

#include <algorithm>
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

struct QuerySpec {
  const char* name;
  std::string sql;
};

std::vector<QuerySpec> Queries() {
  const std::string count = "SELECT COUNT(*) AS n FROM lineitem";
  std::string q13 = tpch::QueryText(13);
  std::string q13_plain = q13;
  const std::string residual =
      "\n              AND o_comment NOT LIKE '%special%requests%'";
  size_t at = q13_plain.find(residual);
  if (at == std::string::npos) {
    std::fprintf(stderr, "Q13 text has no residual to drop\n");
    std::exit(1);
  }
  q13_plain.erase(at, residual.size());
  return {
      {"count", count},
      {"int_cmp", count + " WHERE l_linenumber > 3"},
      {"double_cmp", count + " WHERE l_quantity > 10"},
      {"date_cmp", count + " WHERE l_shipdate > DATE '1995-01-01'"},
      {"column_cmp", count + " WHERE l_commitdate < l_receiptdate"},
      {"string_eq", count + " WHERE l_shipmode = 'MAIL'"},
      {"string_in", count + " WHERE l_shipmode IN ('MAIL', 'SHIP')"},
      {"string_prefix", count + " WHERE l_comment LIKE 'final%'"},
      {"like", count + " WHERE l_comment LIKE '%special%'"},
      {"group_strings",
       "SELECT l_returnflag, l_linestatus, COUNT(*) AS n FROM lineitem "
       "GROUP BY l_returnflag, l_linestatus"},
      {"sum_product",
       "SELECT SUM(l_extendedprice * l_discount) AS s FROM lineitem"},
      {"sum_disc_price",
       "SELECT SUM(l_extendedprice * (1 - l_discount)) AS s FROM lineitem"},
      {"sum_charge",
       "SELECT SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS s "
       "FROM lineitem"},
      {"q13", q13},
      {"q13_no_residual", q13_plain},
  };
}

int Main(int argc, char** argv) {
  const double sf = argc > 1 ? std::atof(argv[1]) : 0.1;
  const unsigned host_cores = std::thread::hardware_concurrency();
  platform::Platform db(platform::PlatformOptions{
      .attach_extended = false, .start_hadoop = false});
  size_t lineitem_rows = 0;
  {
    tpch::TpchData data = tpch::Generate(sf);
    lineitem_rows = data.lineitem.size();
    for (const char* table : {"lineitem", "orders", "customer"}) {
      sql::CreateTableStmt create;
      create.table = table;
      create.columns = tpch::TpchSchema(table)->columns();
      Status st = db.catalog().CreateTable(create);
      if (st.ok()) {
        st = db.catalog().Insert(table, *tpch::TableRows(data, table));
      }
      if (st.ok()) {
        st = db.Execute(std::string("MERGE DELTA OF ") + table).status();
      }
      if (!st.ok()) {
        std::fprintf(stderr, "load %s failed: %s\n", table,
                     st.ToString().c_str());
        return 1;
      }
    }
  }
  constexpr int kReps = 5;
  std::printf(
      "{\"bench\": \"expr\", \"sf\": %.3f, \"lineitem_rows\": %zu, "
      "\"host_cores\": %u, \"reps\": %d}\n",
      sf, lineitem_rows, host_cores, kReps);
  for (const QuerySpec& q : Queries()) {
    for (int threads : {1, 2, 4}) {
      if (!db.SetParameter("threads", std::to_string(threads)).ok()) return 1;
      std::vector<double> ms;
      size_t rows = 0;
      uint64_t scalar_rows = 0;
      uint64_t flattened = 0;
      for (int rep = 0; rep <= kReps; ++rep) {
        Stopwatch watch;
        auto r = db.Query(q.sql);
        const double elapsed = watch.ElapsedMillis();
        if (!r.ok()) {
          std::fprintf(stderr, "%s failed: %s\n", q.name,
                       r.status().ToString().c_str());
          return 1;
        }
        if (rep == 0) continue;  // Warm-up.
        ms.push_back(elapsed);
        rows = r->num_rows();
        scalar_rows = 0;
        flattened = 0;
        for (const exec::PipelineStats& p : db.last_pipeline_stats()) {
          scalar_rows += p.scalar_rows;
          flattened += p.dict_flattened_rows;
        }
      }
      std::sort(ms.begin(), ms.end());
      std::printf(
          "{\"bench\": \"expr\", \"query\": \"%s\", \"host_cores\": %u, "
          "\"threads\": %d, \"ms\": %.3f, \"rows\": %zu, "
          "\"scalar_rows\": %llu, \"dict_flattened_rows\": %llu}\n",
          q.name, host_cores, threads, ms[ms.size() / 2], rows,
          static_cast<unsigned long long>(scalar_rows),
          static_cast<unsigned long long>(flattened));
    }
  }
  return 0;
}

}  // namespace
}  // namespace hana

int main(int argc, char** argv) { return hana::Main(argc, argv); }
