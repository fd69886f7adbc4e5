#ifndef HANA_PLATFORM_PLATFORM_H_
#define HANA_PLATFORM_PLATFORM_H_

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "common/sync.h"
#include "common/util.h"
#include "exec/executor.h"
#include "exec/operators.h"
#include "extended/iq_engine.h"
#include "federation/hive_adapter.h"
#include "federation/sda.h"
#include "hadoop/hive.h"
#include "optimizer/optimizer.h"
#include "txn/two_phase.h"

namespace hana::platform {

/// Construction-time options for one platform instance.
struct PlatformOptions {
  /// Directory for the extended store's files; empty = a fresh
  /// directory under the system temp path.
  std::string workspace_dir;
  /// Attach the IQ-style extended storage (Section 3.1).
  bool attach_extended = true;
  /// Start the embedded Hadoop substrate (HDFS + MapReduce + Hive).
  bool start_hadoop = true;
  extended::ExtendedStoreOptions extended_options;
  hadoop::HdfsOptions hdfs_options;
  hadoop::ClusterConfig cluster;
  federation::OdbcLinkOptions hive_link;
  /// Degree of parallelism for query execution (morsel-driven scans,
  /// concurrent federation dispatch). 0 = HANA_THREADS env variable
  /// when set, else the hardware concurrency.
  size_t num_threads = 0;
  /// Rows per morsel for partitioned scans. 0 = built-in default.
  size_t morsel_rows = 0;
};

/// Timing and provenance of one executed statement. Local time is
/// measured wall-clock; remote time is deterministic virtual time
/// accumulated by the simulated substrate cost models.
struct QueryMetrics {
  double local_ms = 0.0;
  double simulated_remote_ms = 0.0;
  double total_ms = 0.0;
  size_t rows = 0;
  size_t remote_calls = 0;
  size_t mapreduce_jobs = 0;
  bool remote_cache_hit = false;
  bool remote_materialization = false;
};

struct ExecResult {
  storage::Table table;
  QueryMetrics metrics;
  std::string message;  // For DDL/DML statements.
};

/// The SAP HANA data platform facade: the single point of access for
/// applications (Section 2). Hosts the in-memory engines, the extended
/// storage, the embedded Hadoop substrate and the SDA federation layer,
/// and executes SQL across all of them.
class Platform : public exec::ExecContext {
 public:
  explicit Platform(PlatformOptions options = {});
  ~Platform() override;

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  /// Executes one SQL statement (DDL, DML or query).
  [[nodiscard]] Result<ExecResult> Execute(const std::string& sql);

  /// Convenience: executes a query, returning only the result table.
  [[nodiscard]] Result<storage::Table> Query(const std::string& sql);

  /// Executes each ';'-separated statement of a script.
  [[nodiscard]] Status Run(const std::string& script);

  /// EXPLAIN: the optimized plan for a SELECT.
  [[nodiscard]] Result<std::string> Explain(const std::string& sql);

  /// Platform configuration parameters:
  ///   enable_remote_cache      = true|false (Section 4.4)
  ///   remote_cache_validity    = seconds
  ///   threads                  = degree of parallelism (0 = default)
  ///   morsel_rows              = rows per scan morsel (0 = default)
  ///   cpu                      = scalar|native kernel binding
  ///   agg_partitions           = radix partitions for aggregate sinks
  ///                              (0 = optimizer/cardinality default)
  ///   parallel_merge           = on|off online parallel delta merge
  ///                              (off = serial remap-table baseline)
  ///   merge_threshold_rows     = auto-merge a column table (or hot
  ///                              hybrid partition) after an INSERT
  ///                              leaves >= this many delta rows
  ///                              (0 = auto-merge disabled)
  /// Unknown names return NotFound.
  [[nodiscard]] Status SetParameter(const std::string& name, const std::string& value);

  size_t degree_of_parallelism() const { return dop_; }

  // ---- Component access -----------------------------------------------
  catalog::Catalog& catalog() { return *catalog_; }
  federation::SdaRuntime& sda() { return sda_; }
  optimizer::OptimizerOptions& optimizer_options() { return opt_options_; }
  txn::TwoPhaseCoordinator& coordinator() { return coordinator_; }
  extended::IqEngine* iq() { return iq_.get(); }
  hadoop::Hdfs* hdfs() { return hdfs_.get(); }
  hadoop::HiveEngine* hive() { return hive_.get(); }
  hadoop::MapReduceEngine* mapreduce() { return mapreduce_.get(); }
  SimClock& clock() { return clock_; }
  const QueryMetrics& last_metrics() const { return last_metrics_; }

  /// Per-pipeline stats of the last SELECT.
  const std::vector<exec::PipelineStats>& last_pipeline_stats() const {
    return last_pipeline_stats_;
  }

  /// Registers a native map-reduce job runnable through CREATE VIRTUAL
  /// FUNCTION configurations (driver-class dispatch).
  [[nodiscard]] Status RegisterMapReduceJob(
      const std::string& driver_class,
      std::function<Result<storage::Table>(hadoop::HiveEngine*)> runner);

  // ---- exec::ExecContext ------------------------------------------------
  /// Pins the statement to the global version manager's last-visible
  /// timestamp and registers it in the active-snapshot set, holding the
  /// delta-merge watermark back while the statement runs.
  ReadLease AcquireReadLease() override;
  [[nodiscard]] Result<exec::ChunkSource> OpenScan(
      const plan::LogicalOp& scan, const mvcc::ReadView& view) override;
  [[nodiscard]] Result<exec::ChunkSource> OpenRemoteQuery(
      const plan::LogicalOp& rq, const exec::PushdownInList* in_list,
      const storage::Table* relocated_rows) override;
  [[nodiscard]] Result<exec::ChunkSource> OpenTableFunction(
      const plan::LogicalOp& fn) override;
  exec::ParallelPolicy parallel_policy() override;
  [[nodiscard]] Result<std::optional<exec::PartitionSource>>
  OpenPartitionedScan(const plan::LogicalOp& scan, size_t morsel_rows,
                      const mvcc::ReadView& view) override;
  void BeginConcurrentRemoteDispatch() override;
  void EndConcurrentRemoteDispatch() override;

 private:
  [[nodiscard]] Result<ExecResult> ExecuteSelect(const sql::SelectStmt& stmt);
  [[nodiscard]] Result<ExecResult> ExecuteInsert(const sql::InsertStmt& stmt);
  [[nodiscard]] Result<ExecResult> ExecuteDelete(const sql::DeleteStmt& stmt);
  [[nodiscard]] Result<ExecResult> ExecuteUpdate(const sql::UpdateStmt& stmt);
  [[nodiscard]] Status HandleCreateRemoteSource(const sql::CreateRemoteSourceStmt& stmt);
  [[nodiscard]] Status HandleCreateVirtualTable(const sql::CreateVirtualTableStmt& stmt);
  [[nodiscard]] Result<plan::LogicalOpPtr> PlanSelect(const sql::SelectStmt& stmt);
  double VirtualNow() const;

  /// Statement-scoped snapshot reuse: a statement whose plan opens the
  /// same table through several scan pipelines (self-joins, unions,
  /// morsel sources) shares one pinned TableReadSnapshot per
  /// (table, view) instead of re-pinning per pipeline. The cache is
  /// reset when the next statement acquires its read lease; entries are
  /// keyed by the full view (read_ts + txn) so concurrent statements
  /// with different views can never alias.
  std::shared_ptr<const storage::TableReadSnapshot> SnapshotFor(
      const storage::ColumnTable* table, const mvcc::ReadView& view);

  PlatformOptions options_;
  SimClock clock_;  // Shared virtual clock for every simulated substrate.
  std::unique_ptr<extended::ExtendedStore> extended_store_;
  std::unique_ptr<extended::IqEngine> iq_;
  std::unique_ptr<hadoop::Hdfs> hdfs_;
  std::unique_ptr<hadoop::MapReduceEngine> mapreduce_;
  std::unique_ptr<hadoop::HiveEngine> hive_;
  std::unique_ptr<catalog::Catalog> catalog_;
  federation::SdaRuntime sda_;
  txn::TwoPhaseCoordinator coordinator_;
  optimizer::OptimizerOptions opt_options_;
  size_t dop_ = 1;
  size_t morsel_rows_ = exec::kDefaultMorselRows;
  size_t agg_partitions_ = 0;  // 0 = optimizer/cardinality default.
  bool parallel_merge_ = true;
  size_t merge_threshold_rows_ = 0;  // 0 = auto-merge disabled.
  QueryMetrics last_metrics_;
  std::vector<exec::PipelineStats> last_pipeline_stats_;
  std::vector<federation::HiveAdapter*> hive_adapters_;  // Not owned.

  using SnapshotKey = std::tuple<const storage::ColumnTable*,
                                 mvcc::Timestamp, uint64_t>;
  mutable Mutex snapshot_cache_mu_{"platform.snapshot_cache",
                                   lock_rank::kPlatformSnapshot};
  std::map<SnapshotKey, std::shared_ptr<const storage::TableReadSnapshot>>
      snapshot_cache_ GUARDED_BY(snapshot_cache_mu_);
};

}  // namespace hana::platform

#endif  // HANA_PLATFORM_PLATFORM_H_
