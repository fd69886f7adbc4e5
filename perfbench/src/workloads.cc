#include "workloads.h"

#include <malloc.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "common/cpu_dispatch.h"
#include "common/util.h"
#include "host_probe.h"
#include "json.h"
#include "platform/platform.h"
#include "runner.h"
#include "stats.h"
#include "streams.h"
#include "table_hash.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

using hana::Status;
using hana::platform::Platform;
using hana::platform::PlatformOptions;

// One client thread drives a platform whose statements use two pool
// workers: more than one core, with headroom on a shared 4-core host.
constexpr size_t kPoolThreads = 2;
constexpr double kMb = 1024.0 * 1024.0;
// Median perfbench_probe time on the reference host (a 4-vCPU Xeon VM
// at 2.1 GHz nominal). Wall times are scaled by kReferenceProbeMs / the
// median of the probes taken next to them: the same engine on the same
// host reads the same whether the shared host is busy or quiet.
constexpr double kReferenceProbeMs = 28.0;
// Probe rounds (one probe on every CPU) per timed phase, from at most
// kTimedProbeSpawns probe processes.
constexpr long kTimedProbeRounds = 8;
constexpr long kTimedProbeSpawns = 8;
// Probe rounds before each set-up.
constexpr int kSetupProbeRounds = 1;

class Workload {
 public:
  virtual ~Workload() = default;
  /// Makes the inputs from the seed; not timed.
  virtual void Generate(uint64_t seed) = 0;
  /// The program's ingest calls, timed as setup_s.
  virtual Status Ingest(Platform* db) = 0;
  virtual void FreeInputs() = 0;
  virtual void Configure(PlatformOptions* options) const { (void)options; }
  virtual std::vector<Statement> NextPass() = 0;
  /// Kinds whose medians enter query_geomean_ms.
  virtual std::vector<std::string> PrimaryKinds() const = 0;
  /// Wall seconds of one pass on the reference host: a run of S
  /// seconds executes round(S / PassSeconds()) passes, a fixed amount
  /// of work, so every count and the end state repeat exactly.
  virtual double PassSeconds() const = 0;
  /// Set-ups per untraced run; setup_s is their median.
  virtual int SetupRepeats() const = 0;
  virtual double scale_factor() const { return 0.0; }
  /// Untimed checks after the timed phase.
  virtual void FinalCheck(Platform* db, Runner* runner) {
    (void)db;
    (void)runner;
  }
  /// The workload's own figures for the run record.
  virtual void Report(const Runner& runner, JsonObject* out) const {
    (void)runner;
    (void)out;
  }
};

Status CreateAndLoad(Platform* db, const std::string& table,
                     const std::vector<std::vector<hana::Value>>& rows) {
  hana::sql::CreateTableStmt create;
  create.table = table;
  create.columns = hana::tpch::TpchSchema(table)->columns();
  HANA_RETURN_IF_ERROR(db->catalog().CreateTable(create));
  HANA_RETURN_IF_ERROR(db->catalog().Insert(table, rows));
  return db->Execute("MERGE DELTA OF " + table).status();
}

class TpchWorkload : public Workload {
 public:
  explicit TpchWorkload(bool federated) : federated_(federated) {}

  void Generate(uint64_t seed) override {
    // TPC-H data is a function of the scale factor, as with dbgen; the
    // seed orders the statements of every pass.
    data_ = hana::tpch::Generate(scale_factor());
    rng_ = std::make_unique<Rng>(seed);
  }

  Status Ingest(Platform* db) override {
    if (!federated_) {
      for (const std::string& table : hana::tpch::TpchTableNames()) {
        HANA_RETURN_IF_ERROR(
            CreateAndLoad(db, table, *hana::tpch::TableRows(data_, table)));
      }
      return Status::OK();
    }
    // The paper's Figure 14 deployment: SUPPLIER, NATION, REGION and a
    // local PART copy (for Q14/Q19) in HANA, the rest in Hive.
    for (const char* table : {"supplier", "nation", "region", "part_local"}) {
      HANA_RETURN_IF_ERROR(
          CreateAndLoad(db, table, *hana::tpch::TableRows(data_, table)));
    }
    for (const char* table :
         {"lineitem", "customer", "orders", "partsupp", "part"}) {
      HANA_RETURN_IF_ERROR(
          db->hive()->CreateTable(table, hana::tpch::TpchSchema(table)));
      HANA_RETURN_IF_ERROR(
          db->hive()->LoadRows(table, *hana::tpch::TableRows(data_, table)));
    }
    HANA_RETURN_IF_ERROR(db->Run(R"(
        CREATE REMOTE SOURCE HIVE1 ADAPTER "hiveodbc" CONFIGURATION
          'DSN=hive1' WITH CREDENTIAL TYPE 'PASSWORD'
          USING 'user=dfuser;password=dfpass';
        CREATE VIRTUAL TABLE lineitem AT "HIVE1"."dflo"."dflo"."lineitem";
        CREATE VIRTUAL TABLE customer AT "HIVE1"."dflo"."dflo"."customer";
        CREATE VIRTUAL TABLE orders AT "HIVE1"."dflo"."dflo"."orders";
        CREATE VIRTUAL TABLE partsupp AT "HIVE1"."dflo"."dflo"."partsupp";
        CREATE VIRTUAL TABLE part AT "HIVE1"."dflo"."dflo"."part")"));
    HANA_RETURN_IF_ERROR(db->SetParameter("enable_remote_cache", "true"));
    // Prime the remote cache: the first hinted run materializes. Any
    // order primes the same entries.
    Rng order(0);
    for (const Statement& s : TpchPass(&order, true)) {
      if (s.expect_cache_hit) HANA_RETURN_IF_ERROR(db->Execute(s.sql).status());
    }
    return Status::OK();
  }

  void FreeInputs() override { data_ = hana::tpch::TpchData(); }

  std::vector<Statement> NextPass() override {
    return TpchPass(rng_.get(), federated_);
  }

  std::vector<std::string> PrimaryKinds() const override {
    return Kinds("");
  }

  double PassSeconds() const override { return federated_ ? 3.7 : 1.0; }
  int SetupRepeats() const override { return federated_ ? 3 : 7; }
  double scale_factor() const override { return federated_ ? 0.005 : 0.02; }

  void Report(const Runner& runner, JsonObject* out) const override {
    if (!federated_) return;
    out->Metric("remote_sim_ms",
                runner.simulated_ms.GeomeanOfMedians(PrimaryKinds()), "ms");
    out->Metric("cached_geomean_ms",
                runner.latency_ms.GeomeanOfMedians(Kinds("+cache")), "ms");
  }

 private:
  static std::vector<std::string> Kinds(const std::string& suffix) {
    std::vector<std::string> kinds;
    for (int q : hana::tpch::BenchmarkQueries()) {
      std::string kind = "Q";
      kinds.push_back(kind + std::to_string(q) + suffix);
    }
    return kinds;
  }

  bool federated_;
  hana::tpch::TpchData data_;
  std::unique_ptr<Rng> rng_;
};

class HtapWorkload : public Workload {
 public:
  // About half the cold partition's on-disk bytes (3.53 MB for 100k
  // rows), so a full-history scan cannot be served from the cache.
  static constexpr size_t kCacheBytes = 1800 * 1024;
  // With 100-row INSERTs this merges the hot delta on every 4th INSERT.
  static constexpr int kMergeThresholdRows = 400;

  void Generate(uint64_t seed) override {
    stream_ = std::make_unique<HtapStream>(seed);
    rows_ = stream_->InitialRows();
  }

  void Configure(PlatformOptions* options) const override {
    options->extended_options.cache_bytes = kCacheBytes;
  }

  Status Ingest(Platform* db) override {
    HANA_RETURN_IF_ERROR(db->Execute(HtapStream::CreateTableSql()).status());
    HANA_RETURN_IF_ERROR(db->catalog().Insert(HtapStream::TableName(), rows_));
    HANA_RETURN_IF_ERROR(
        db->Execute(std::string("MERGE DELTA OF ") + HtapStream::TableName())
            .status());
    return db->SetParameter("merge_threshold_rows",
                            std::to_string(kMergeThresholdRows));
  }

  void FreeInputs() override { rows_ = {}; }
  std::vector<Statement> NextPass() override { return stream_->NextCycle(); }
  std::vector<std::string> PrimaryKinds() const override {
    return {"insert", "point", "olap", "update", "delete", "history"};
  }
  double PassSeconds() const override { return 0.4; }
  int SetupRepeats() const override { return 11; }

  void FinalCheck(Platform* db, Runner* runner) override {
    auto table = db->Execute(std::string("SELECT * FROM ") +
                             HtapStream::TableName());
    if (!table.ok()) {
      runner->AddProblem("final scan failed: " + table.status().ToString());
      return;
    }
    int64_t rows = static_cast<int64_t>(table->table.num_rows());
    uint64_t checksum = TableHash(table->table);
    if (rows != stream_->live_rows() || checksum != stream_->Checksum()) {
      runner->AddProblem(
          "final table: rows " + std::to_string(rows) + " checksum " +
          std::to_string(checksum) + ", model rows " +
          std::to_string(stream_->live_rows()) + " checksum " +
          std::to_string(stream_->Checksum()));
    }
  }

  void Report(const Runner& runner, JsonObject* out) const override {
    const KindSamples& ms = runner.latency_ms;
    out->Metric("insert_p50_ms", ms.PercentileOf("insert", 50), "ms");
    out->Metric("insert_p90_ms", ms.PercentileOf("insert", 90), "ms");
    for (const char* kind : {"update", "delete", "point", "olap", "history"}) {
      out->Metric(std::string(kind) + "_p50_ms", ms.MedianOf(kind), "ms");
    }
  }

 private:
  std::unique_ptr<HtapStream> stream_;
  std::vector<std::vector<hana::Value>> rows_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "tpch_local") return std::make_unique<TpchWorkload>(false);
  if (name == "tpch_federated") return std::make_unique<TpchWorkload>(true);
  if (name == "htap_hybrid") return std::make_unique<HtapWorkload>();
  return nullptr;
}

/// Reads "sf<TAB>key<TAB>rows<TAB>hash" lines for one scale factor.
std::map<std::string, ExpectedResult> LoadExpected(const std::string& path,
                                                   double sf) {
  std::map<std::string, ExpectedResult> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    double line_sf = 0;
    std::string key;
    ExpectedResult want;
    if (!(fields >> line_sf >> key >> want.rows >> want.hash)) continue;
    if (std::fabs(line_sf - sf) < 1e-12) out[key] = want;
  }
  return out;
}

/// Column tables of every catalog table, hybrid hot partitions included.
std::vector<const hana::storage::ColumnTable*> ColumnTables(Platform* db) {
  std::vector<const hana::storage::ColumnTable*> tables;
  for (const std::string& name : db->catalog().TableNames()) {
    auto entry = db->catalog().GetTable(name);
    if (!entry.ok()) continue;
    if ((*entry)->column_table != nullptr) {
      tables.push_back((*entry)->column_table.get());
    }
    for (const auto& partition : (*entry)->partitions) {
      if (partition.hot != nullptr) tables.push_back(partition.hot.get());
    }
  }
  return tables;
}

struct StoreState {
  double main_bytes = 0, delta_bytes = 0, extended_bytes = 0;
  double bytes_before_merge = 0, bytes_after_merge = 0;
  uint64_t merges = 0, rows_merged = 0, merge_micros = 0;
  double mb() const {
    return (main_bytes + delta_bytes + extended_bytes) / kMb;
  }
};

StoreState MeasureStore(Platform* db) {
  StoreState state;
  for (const hana::storage::ColumnTable* table : ColumnTables(db)) {
    state.main_bytes += static_cast<double>(table->MainMemoryBytes());
    state.delta_bytes += static_cast<double>(table->DeltaMemoryBytes());
    const hana::storage::MergeStats& stats = table->merge_stats();
    state.bytes_before_merge += static_cast<double>(stats.bytes_before.load());
    state.bytes_after_merge += static_cast<double>(stats.bytes_after.load());
    state.merges += stats.merges_completed.load();
    state.rows_merged += stats.rows_merged.load();
    state.merge_micros += stats.merge_micros.load();
  }
  if (db->iq() != nullptr) {
    for (const std::string& name : db->iq()->store()->TableNames()) {
      auto table = db->iq()->store()->GetTable(name);
      if (table.ok()) {
        state.extended_bytes += static_cast<double>((*table)->disk_bytes());
      }
    }
  }
  return state;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Appends the times of `rounds` perfbench_probe rounds to `out`.
Status Probe(const std::string& program, int rounds, std::vector<double>* out) {
  std::vector<double> times = RunHostProbe(program, rounds);
  if (times.empty()) {
    return Status::Internal("host probe " + program + " failed");
  }
  out->insert(out->end(), times.begin(), times.end());
  return Status::OK();
}

/// Probe times taken next to the set-ups and between the timed passes.
struct HostSpeed {
  std::vector<double> setup_probe_ms, timed_probe_ms;

  /// Factors that scale wall times to the reference host speed (> 1
  /// when the host ran faster than the reference).
  double setup_factor() const {
    return kReferenceProbeMs / Median(setup_probe_ms);
  }
  double timed_factor() const {
    return kReferenceProbeMs / Median(timed_probe_ms);
  }
};

/// What the timed phase measured, besides the runner's samples.
struct TimedPhase {
  int64_t statements = 0;
  double wall_s = 0, cpu_s = 0, steal_pct = 0, peak_rss_mb = 0;
  int64_t minor_faults = 0;
  bool peak_reset = true;
  std::vector<double> pass_s;
  StoreState store_before, store;
};

Status RunTimedPasses(Workload* workload, Platform* db, Runner* runner,
                      long passes, const std::string& probe_program,
                      HostSpeed* speed, TimedPhase* t) {
  t->store_before = MeasureStore(db);
  HostCpu host_before = ReadHostCpu();
  double cpu_before = ProcessCpuSeconds();
  int64_t faults_before = ProcessMinorFaults();
  // The peak RSS of each pass; the run record reports their median.
  // It is not an end-to-end metric: delta merges fan out over the
  // engine's whole task pool, and which pool threads then get their own
  // malloc arena varies from run to run, and with it the peak.
  std::vector<double> pass_peak_mb;
  // About kTimedProbeRounds probe rounds from at most kTimedProbeSpawns
  // probe processes, spread over the passes. The probes' CPU time is
  // not in cpu_s: they run in child processes.
  long stride = (passes + kTimedProbeSpawns - 1) / kTimedProbeSpawns;
  long spawns = (passes + stride - 1) / stride;
  int rounds_per_spawn =
      static_cast<int>((kTimedProbeRounds + spawns - 1) / spawns);
  for (long p = 0; p < passes; ++p) {
    if (p % stride == 0) {
      HANA_RETURN_IF_ERROR(
          Probe(probe_program, rounds_per_spawn, &speed->timed_probe_ms));
    }
    t->peak_reset = ResetPeakRss() && t->peak_reset;
    hana::Stopwatch pass;
    for (const Statement& s : workload->NextPass()) {
      runner->Run(s, true);
      ++t->statements;
    }
    t->pass_s.push_back(pass.ElapsedMillis() / 1000.0);
    t->wall_s += t->pass_s.back();
    pass_peak_mb.push_back(PeakRssMb());
  }
  t->cpu_s = ProcessCpuSeconds() - cpu_before;
  t->minor_faults = ProcessMinorFaults() - faults_before;
  t->steal_pct = StealPercent(host_before, ReadHostCpu());
  t->peak_rss_mb = Median(pass_peak_mb);
  t->store = MeasureStore(db);
  return Status::OK();
}

std::string KindRecord(const Runner& runner, const std::string& kind,
                       bool trace) {
  JsonObject k;
  if (!trace) {
    const std::vector<double>& ms = runner.latency_ms.Of(kind);
    k.Int("n", static_cast<int64_t>(ms.size()));
    k.Num("p50_ms", Median(ms));
    // A percentile is reported only with at least ten samples beyond it.
    if (ms.size() >= 100) k.Num("p90_ms", NearestRank(ms, 90));
    k.Num("min_ms", NearestRank(ms, 0));
    k.Num("max_ms", NearestRank(ms, 100));
    k.Num("simulated_p50_ms", runner.simulated_ms.MedianOf(kind));
    return k.str();
  }
  double total = runner.traced_ms.MedianOf(kind);
  k.Int("n", static_cast<int64_t>(runner.traced_ms.Of(kind).size()));
  k.Num("traced_p50_ms", total);
  for (const auto& [name, samples] :
       std::vector<std::pair<std::string, const KindSamples*>>{
           {"parse", &runner.parse_ms},     {"bind", &runner.bind_ms},
           {"optimize", &runner.optimize_ms}, {"exec", &runner.exec_ms},
           {"wrapper", &runner.wrapper_ms}, {"dml", &runner.dml_ms}}) {
    if (samples->Of(kind).empty()) continue;
    double p50 = samples->MedianOf(kind);
    k.Num(name + "_p50_ms", p50);
    k.Num(name + "_share", Ratio(p50, total));
  }
  return k.str();
}

/// The run record: run quality, per-kind figures, the workload's own
/// figures, the TPC-H result hashes and any failed checks.
std::string RunRecord(const RunConfig& config, const Workload& workload,
                      Platform* db, const Runner& runner,
                      const std::vector<double>& setup_seconds, long passes,
                      const TimedPhase& t, const HostSpeed& speed,
                      const JsonObject& measured) {
  JsonObject host;
  host.Num("steal_pct", t.steal_pct)
      .Num("cpu_s", t.cpu_s)
      .Int("minor_faults", t.minor_faults)
      .Int("nproc", sysconf(_SC_NPROCESSORS_ONLN))
      .Int("pool_threads", static_cast<int64_t>(db->degree_of_parallelism()))
      .Str("cpu_mode", hana::CpuModeString())
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Bool("peak_rss_reset", t.peak_reset);
  JsonObject kinds;
  for (const auto& [kind, samples] :
       (config.trace ? runner.traced_ms : runner.latency_ms).all()) {
    kinds.Raw(kind, KindRecord(runner, kind, config.trace));
  }
  JsonObject own;
  if (!config.trace) workload.Report(runner, &own);
  JsonObject results;
  for (const auto& [key, result] : runner.observed()) {
    results.Raw(key, JsonObject()
                         .Int("rows", result.rows)
                         .Str("hash", std::to_string(result.hash))
                         .str());
  }
  JsonObject record;
  record.Str("workload", config.workload)
      .Int("seed", static_cast<int64_t>(config.seed))
      .Bool("trace", config.trace)
      .Num("scale_factor", workload.scale_factor())
      .Int("passes", passes)
      .Int("statements", t.statements)
      .Num("timed_s", t.wall_s)
      .Raw("measured", measured.str())
      .Raw("pass_s", JsonObject::Numbers(t.pass_s))
      .Raw("setup_s", JsonObject::Numbers(setup_seconds))
      .Raw("setup_probe_ms", JsonObject::Numbers(speed.setup_probe_ms))
      .Raw("timed_probe_ms", JsonObject::Numbers(speed.timed_probe_ms))
      .Num("setup_factor", speed.setup_factor())
      .Num("timed_factor", speed.timed_factor())
      .Num("peak_rss_mb", t.peak_rss_mb)
      .Num("column_mb", (t.store.main_bytes + t.store.delta_bytes) / kMb)
      .Num("extended_disk_mb", t.store.extended_bytes / kMb)
      .Raw("host", host.str())
      .Raw("workload_metrics", own.str())
      .Raw("kinds", kinds.str())
      .Raw("results", results.str())
      .Raw("problems", JsonObject::Strings(runner.problems()));
  return JsonObject().Raw("record", record.str()).str();
}

/// Geomean over `kinds` of each kind's median of wall time scaled by
/// `factor` plus the statement's simulated remote and disk time.
double ModeledGeomeanMs(const Runner& runner,
                        const std::vector<std::string>& kinds, double factor) {
  std::vector<double> medians;
  for (const std::string& kind : kinds) {
    const std::vector<double>& wall = runner.latency_ms.Of(kind);
    const std::vector<double>& simulated = runner.simulated_ms.Of(kind);
    std::vector<double> modeled;
    for (size_t i = 0; i < wall.size(); ++i) {
      modeled.push_back(wall[i] * factor + simulated[i]);
    }
    medians.push_back(Median(modeled));
  }
  return Geomean(medians);
}

/// The end-to-end metrics, with set-up times scaled by `setup_factor`
/// and timed-phase wall times by `timed_factor`: the host speed factors
/// for the result line, 1 for the figures as measured.
JsonObject EndToEndMetrics(const Workload& workload, const Runner& runner,
                           const std::vector<double>& setup_seconds,
                           const TimedPhase& t, double setup_factor,
                           double timed_factor) {
  std::vector<std::string> primary = workload.PrimaryKinds();
  JsonObject m;
  m.Metric("setup_s", Median(setup_seconds) * setup_factor, "s")
      .Metric("query_geomean_ms",
              runner.latency_ms.GeomeanOfMedians(primary) * timed_factor, "ms")
      .Metric("modeled_geomean_ms",
              ModeledGeomeanMs(runner, primary, timed_factor), "ms")
      .Metric("queries_per_s",
              Ratio(static_cast<double>(t.statements), t.wall_s) /
                  timed_factor,
              "1/s")
      .Metric("store_mb", t.store.mb(), "MB");
  return m;
}

JsonObject LayerMetrics(const Runner& r, const TimedPhase& t) {
  double traced_total = r.traced_ms.Total();
  auto share = [&](const KindSamples& span) {
    return 100.0 * Ratio(span.Total(), traced_total);
  };
  auto count = [](auto after, auto before) {
    return static_cast<double>(after - before);
  };
  double merges = count(t.store.merges, t.store_before.merges);
  double blocks = static_cast<double>(r.extended.blocks_read);
  double hits = static_cast<double>(r.extended.cache_hits);
  JsonObject m;
  m.Metric("sql.parse_ms", r.parse_ms.MeanOfMedians(), "ms")
      .Metric("sql.parse_share", share(r.parse_ms), "%")
      .Metric("plan.bind_ms", r.bind_ms.MeanOfMedians(), "ms")
      .Metric("plan.bind_share", share(r.bind_ms), "%")
      .Metric("optimizer.optimize_ms", r.optimize_ms.MeanOfMedians(), "ms")
      .Metric("optimizer.optimize_share", share(r.optimize_ms), "%")
      .Metric("exec.execute_ms", r.exec_ms.MeanOfMedians(), "ms")
      .Metric("exec.execute_share", share(r.exec_ms), "%")
      .Metric("exec.cpu_per_wall",
              Ratio(r.exec_cpu_seconds, r.exec_wall_seconds), "ratio")
      .Metric("exec.result_rows", static_cast<double>(r.result_rows), "count")
      .Metric("platform.wrapper_ms", r.wrapper_ms.MeanOfMedians(), "ms")
      .Metric("catalog.dml_ms", r.dml_ms.MeanOfMedians(), "ms")
      .Metric("catalog.dml_share", share(r.dml_ms), "%")
      .Metric("catalog.rows_examined_per_row_changed",
              Ratio(static_cast<double>(r.dml_rows_examined),
                    static_cast<double>(r.dml_rows_changed)),
              "ratio")
      .Metric("storage.merges", merges, "count")
      .Metric("storage.merge_ms",
              Ratio(count(t.store.merge_micros, t.store_before.merge_micros) /
                        1000.0,
                    merges),
              "ms")
      .Metric("storage.rows_merged",
              count(t.store.rows_merged, t.store_before.rows_merged), "count")
      .Metric("storage.delta_mb", t.store.delta_bytes / kMb, "MB")
      .Metric("storage.main_mb", t.store.main_bytes / kMb, "MB")
      .Metric("storage.compression_ratio",
              Ratio(t.store.bytes_before_merge, t.store.bytes_after_merge),
              "ratio")
      .Metric("federation.remote_calls", static_cast<double>(r.remote_calls),
              "count")
      .Metric("federation.rows_fetched", static_cast<double>(r.rows_fetched),
              "count")
      .Metric("federation.remote_sim_ms", r.remote_ms.MeanOfMedians(), "ms")
      .Metric("federation.cache_hit_ratio",
              Ratio(static_cast<double>(r.cache_hits),
                    static_cast<double>(r.cache_requests)),
              "ratio")
      .Metric("hadoop.mr_jobs", static_cast<double>(r.mr_jobs), "count")
      .Metric("extended.blocks_read", blocks, "count")
      .Metric("extended.cache_hit_ratio", Ratio(hits, blocks + hits), "ratio")
      .Metric("extended.mb_read",
              static_cast<double>(r.extended.bytes_read) / kMb, "MB")
      .Metric("extended.io_sim_ms", r.extended.simulated_io_ms, "ms")
      .Metric("trace.queries_per_s",
              Ratio(static_cast<double>(t.statements),
                    t.wall_s - r.verify_seconds),
              "1/s")
      .Metric("host.steal_pct", t.steal_pct, "%")
      .Metric("host.cpu_s", t.cpu_s, "s");
  return m;
}

}  // namespace

int RunBenchmark(const RunConfig& config) {
  std::unique_ptr<Workload> workload = MakeWorkload(config.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 config.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);
  workload->Generate(config.seed);
  std::map<std::string, ExpectedResult> expected =
      LoadExpected(config.expected_path, workload->scale_factor());
  std::unique_ptr<Platform> db;
  auto fail = [&](const Status& status) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    db.reset();
    std::filesystem::remove_all(config.work_dir, ec);
    return 1;
  };

  // Set up several times, each next to its own probes; keep the last
  // platform for the run.
  HostSpeed speed;
  int repeats = config.trace ? 1 : workload->SetupRepeats();
  std::vector<double> setup_seconds;
  for (int i = 0; i < repeats; ++i) {
    db.reset();
    Status probed =
        Probe(config.probe_program, kSetupProbeRounds, &speed.setup_probe_ms);
    if (!probed.ok()) return fail(probed);
    PlatformOptions options;
    options.num_threads = kPoolThreads;
    options.workspace_dir = config.work_dir + "/platform" + std::to_string(i);
    workload->Configure(&options);
    db = std::make_unique<Platform>(options);
    hana::Stopwatch watch;
    Status status = workload->Ingest(db.get());
    setup_seconds.push_back(watch.ElapsedMillis() / 1000.0);
    if (!status.ok()) return fail(status);
  }
  workload->FreeInputs();
  malloc_trim(0);

  Runner runner(db.get(), config.trace, &expected);
  for (const Statement& s : workload->NextPass()) runner.Run(s, false);
  long passes =
      std::max(2L, std::lround(config.seconds / workload->PassSeconds()));
  TimedPhase timed;
  Status status = RunTimedPasses(workload.get(), db.get(), &runner, passes,
                                 config.probe_program, &speed, &timed);
  if (!status.ok()) return fail(status);
  workload->FinalCheck(db.get(), &runner);

  JsonObject measured;
  if (!config.trace) {
    measured = EndToEndMetrics(*workload, runner, setup_seconds, timed, 1.0,
                               1.0);
  }
  std::printf("%s\n", RunRecord(config, *workload, db.get(), runner,
                                setup_seconds, passes, timed, speed, measured)
                          .c_str());
  JsonObject metrics =
      config.trace
          ? LayerMetrics(runner, timed)
          : EndToEndMetrics(*workload, runner, setup_seconds, timed,
                            speed.setup_factor(), speed.timed_factor());
  JsonObject result;
  result.Bool("correct", runner.correct())
      .Int("attempted", runner.attempted())
      .Int("failed", runner.failed())
      .Raw("metrics", metrics.str());
  db.reset();
  std::filesystem::remove_all(config.work_dir, ec);
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
