// The telecom complex-event-processing scenario of Figure 8: sensors in
// a mobile network emit call events at high velocity. The ESP
// prefilters and aggregates them into HANA time-series tables, archives
// raw events to HDFS for offline map-reduce analysis, detects outage
// patterns in real time, and HANA queries join live window contents
// with business data (Figure 9's three use cases).

#include <cstdio>

#include "common/util.h"
#include "esp/engine.h"
#include "platform/platform.h"
#include "timeseries/series_table.h"

using hana::Status;
using hana::Value;

namespace {

void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  hana::platform::Platform db;
  hana::esp::EspEngine esp;

  // Business data in the HANA core: cell tower master data.
  Check(db.Run(R"(
      CREATE COLUMN TABLE towers (cell_id BIGINT, city VARCHAR(20),
                                  capacity BIGINT);
      CREATE COLUMN TABLE network_health (window_end BIGINT, city VARCHAR(20),
                                          calls BIGINT, drops BIGINT,
                                          avg_signal DOUBLE);
      CREATE COLUMN TABLE outage_alerts (ts BIGINT, cell_id BIGINT,
                                         city VARCHAR(20), signal DOUBLE);
  )"),
        "HANA schema");
  const char* kCities[] = {"Dresden", "Walldorf", "Berlin", "Potsdam"};
  std::vector<std::vector<Value>> towers;
  for (int64_t cell = 0; cell < 40; ++cell) {
    towers.push_back({Value::Int(cell), Value::String(kCities[cell % 4]),
                      Value::Int(200 + (cell % 5) * 100)});
  }
  Check(db.catalog().Insert("towers", towers), "tower master data");

  // The raw event stream from the network probes.
  auto call_schema = std::make_shared<hana::Schema>(
      std::vector<hana::ColumnDef>{{"cell_id", hana::DataType::kInt64, false},
                                   {"signal", hana::DataType::kDouble, false},
                                   {"dropped", hana::DataType::kInt64,
                                    false}});
  Check(esp.CreateStream("calls", call_schema), "stream");

  // Use case 1 (prefilter/aggregate + forward): per-city one-second
  // aggregates land in a HANA table. The ESP join enriches raw events
  // with the city from the towers dimension first.
  auto* health_entry = *db.catalog().GetTable("network_health");
  auto forward =
      hana::esp::CqBuilder(&esp, "calls")
          .LookupJoin(db.Query("SELECT cell_id, city FROM towers").value(),
                      "cell_id", "cell_id")
          .KeepMillis(1000)
          .GroupBy({"city"}, {"COUNT(*) AS calls", "SUM(dropped) AS drops",
                              "AVG(signal) AS avg_signal"})
          .IntoCallback([&](const hana::esp::Event& event) {
            std::vector<Value> row;
            row.push_back(Value::Int(event.timestamp_ms));
            row.insert(row.end(), event.values.begin(), event.values.end());
            // Column order: city, calls, drops, avg_signal ->
            // window_end, city, calls, drops, avg_signal.
            (void)health_entry->column_table->AppendRows(
                {{Value::Int(event.timestamp_ms), event.values[0],
                  event.values[1], event.values[2], event.values[3]}});
          })
          .Finish("health_per_city");
  Check(forward.status(), "forward query");

  // Raw archive: every dropped call goes to HDFS for offline analysis.
  auto archive = hana::esp::CqBuilder(&esp, "calls")
                     .Where("dropped = 1")
                     .IntoHdfs(db.hdfs(), "/archive/network/dropped_calls")
                     .Finish("raw_archive");
  Check(archive.status(), "archive query");

  // Pattern detection: three weak dropped calls on the same feed within
  // two seconds trigger an outage alert, immediately forwarded to HANA.
  auto* alerts_entry = *db.catalog().GetTable("outage_alerts");
  auto outage =
      hana::esp::CqBuilder(&esp, "calls")
          .MatchPattern({"dropped = 1 AND signal < 15",
                         "dropped = 1 AND signal < 15",
                         "dropped = 1 AND signal < 15"},
                        2000)
          .IntoCallback([&](const hana::esp::Event& event) {
            (void)alerts_entry->column_table->AppendRows(
                {{Value::Int(event.timestamp_ms), event.values[0],
                  Value::String("?"), event.values[1]}});
          })
          .Finish("outage_pattern");
  Check(outage.status(), "pattern query");

  // A sliding window retained for HANA-join queries (use case 3).
  auto live = hana::esp::CqBuilder(&esp, "calls")
                  .KeepRows(100000)  // Retained; closed on flush.
                  .Finish("live_window");
  Check(live.status(), "live window");

  // ---- Drive the network ------------------------------------------------
  hana::Rng rng(2026);
  size_t published = 0;
  for (int64_t ts = 0; ts < 10000; ++ts) {
    for (int fan = 0; fan < 5; ++fan) {
      int64_t cell = rng.Uniform(0, 39);
      bool failing_cell = cell == 13 && ts > 6000;  // A degrading tower.
      double signal = failing_cell ? rng.NextDouble() * 14.0
                                   : 20.0 + rng.NextDouble() * 70.0;
      int64_t dropped = failing_cell
                            ? 1
                            : (rng.Uniform(0, 24) == 0 ? 1 : 0);
      Check(esp.Publish("calls", ts,
                        {Value::Int(cell), Value::Double(signal),
                         Value::Int(dropped)}),
            "publish");
      ++published;
    }
  }
  esp.FlushAll();
  std::printf("published %zu events; ESP emitted %zu health windows, "
              "%zu alerts\n\n",
              published, (*forward)->events_out(), (*outage)->events_out());

  // ---- Business queries on the forwarded aggregates -----------------------
  auto worst = db.Query(R"(
      SELECT city, SUM(drops) AS drops, SUM(calls) AS calls
      FROM network_health GROUP BY city ORDER BY drops DESC)");
  Check(worst.status(), "health query");
  std::printf("per-city health (forwarded by ESP):\n%s\n",
              worst->ToString().c_str());

  auto alerts = db.Query(R"(
      SELECT o.cell_id, t.city, COUNT(*) AS alerts
      FROM outage_alerts o JOIN towers t ON o.cell_id = t.cell_id
      GROUP BY o.cell_id, t.city)");
  Check(alerts.status(), "alerts query");
  std::printf("outage alerts joined with master data:\n%s\n",
              alerts->ToString().c_str());

  // HANA join (use case 3): snapshot the live window as a table and
  // join it with tower capacity inside one SQL statement.
  hana::storage::Table window = (*live)->WindowContents();
  Check(db.Run("CREATE COLUMN TABLE live_calls (cell_id BIGINT, "
               "signal DOUBLE, dropped BIGINT)"),
        "window table");
  Check(db.catalog().Insert("live_calls", window.rows()), "window snapshot");
  auto hana_join = db.Query(R"(
      SELECT t.city, COUNT(*) AS live, AVG(l.signal) AS avg_signal
      FROM live_calls l JOIN towers t ON l.cell_id = t.cell_id
      GROUP BY t.city)");
  Check(hana_join.status(), "HANA join");
  std::printf("HANA join with the current ESP window:\n%s\n",
              hana_join->ToString().c_str());

  // ---- Offline: map-reduce over the HDFS archive --------------------------
  auto info = db.hdfs()->Stat("/archive/network/dropped_calls");
  Check(info.status(), "archive stat");
  std::printf("HDFS archive: %zu dropped-call records (%zu bytes, %zu "
              "blocks)\n",
              info->num_lines, info->bytes, info->num_blocks);
  hana::hadoop::JobSpec job;
  job.name = "drops-per-cell";
  job.inputs = {"/archive/network/dropped_calls"};
  job.output = "/analytics/drops_per_cell";
  job.mapper = [](int, const std::string& line,
                  std::vector<hana::hadoop::KeyValue>* out) {
    // Archived line: ts \t cell_id \t signal \t dropped.
    auto first = line.find('\t');
    auto second = line.find('\t', first + 1);
    out->emplace_back(line.substr(first + 1, second - first - 1), "1");
  };
  job.reducer = [](const std::string& key,
                   const std::vector<std::string>& values,
                   std::vector<std::string>* out) {
    out->push_back(key + "\t" + std::to_string(values.size()));
  };
  auto stats = db.mapreduce()->RunJob(job);
  Check(stats.status(), "map-reduce job");
  auto derived = db.hdfs()->ReadFile("/analytics/drops_per_cell");
  Check(derived.status(), "read analytics");
  std::printf(
      "map-reduce archive analysis: %zu map tasks, %.0f ms simulated, "
      "%zu cells with drops\n",
      stats->map_tasks, stats->simulated_ms, derived->size());
  std::printf("telecom monitoring scenario complete.\n");
  return 0;
}
