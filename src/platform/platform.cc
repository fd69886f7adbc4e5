#include "platform/platform.h"

#include <cctype>
#include <filesystem>

#include "common/cpu_dispatch.h"
#include "common/strings.h"
#include "exec/evaluator.h"
#include "federation/iq_adapter.h"
#include "plan/binder.h"
#include "sql/parser.h"

namespace hana::platform {

namespace {

namespace fs = std::filesystem;

/// A source over a materialized table, chunked and stamped with the
/// plan's schema.
exec::ChunkSource TableSource(storage::Table table,
                              std::shared_ptr<Schema> schema) {
  auto rows = std::make_shared<storage::Table>(std::move(table));
  return [rows, schema = std::move(schema)](const exec::ChunkSink& sink) {
    for (size_t begin = 0; begin < rows->num_rows();
         begin += storage::kDefaultChunkRows) {
      storage::Chunk chunk = storage::Chunk::Empty(schema);
      size_t end =
          std::min(rows->num_rows(), begin + storage::kDefaultChunkRows);
      for (size_t r = begin; r < end; ++r) chunk.AppendRow(rows->row(r));
      if (!sink(chunk)) break;
    }
    return Status::OK();
  };
}

}  // namespace

Platform::Platform(PlatformOptions options) : options_(std::move(options)) {
  if (options_.workspace_dir.empty()) {
    options_.workspace_dir =
        (fs::temp_directory_path() /
         ("hana_platform_" + std::to_string(::getpid()) + "_" +
          // lint: reinterpret_cast allowed — pointer identity only, as a
          // unique workspace-name suffix; never dereferenced.
          std::to_string(reinterpret_cast<uintptr_t>(this) & 0xffff)))
            .string();
  }
  if (options_.attach_extended) {
    extended::ExtendedStoreOptions ext = options_.extended_options;
    if (ext.directory.empty()) {
      ext.directory = options_.workspace_dir + "/extended";
    }
    extended_store_ = std::make_unique<extended::ExtendedStore>(ext);
    iq_ = std::make_unique<extended::IqEngine>(extended_store_.get());
  }
  if (options_.start_hadoop) {
    hdfs_ = std::make_unique<hadoop::Hdfs>(options_.hdfs_options);
    mapreduce_ = std::make_unique<hadoop::MapReduceEngine>(
        hdfs_.get(), options_.cluster, &clock_);
    hive_ = std::make_unique<hadoop::HiveEngine>(hdfs_.get(),
                                                 mapreduce_.get());
  }
  catalog_ = std::make_unique<catalog::Catalog>(iq_.get());
  if (iq_ != nullptr) {
    // The extended storage is natively integrated: its adapter is bound
    // automatically under the reserved source name EXTENDED.
    auto adapter =
        std::make_unique<federation::IqAdapter>(iq_.get(), &clock_);
    // lint: IgnoreStatus allowed — the registry is empty at
    // construction, so the reserved name cannot collide (BindSource's
    // only failure mode); a second IQ engine is impossible here.
    IgnoreStatus(sda_.BindSource("EXTENDED", std::move(adapter)));
  }
  dop_ = options_.num_threads > 0 ? options_.num_threads
                                  : TaskPool::DefaultDop();
  if (options_.morsel_rows > 0) morsel_rows_ = options_.morsel_rows;
  sda_.SetVirtualTime([this] { return VirtualNow(); },
                      [this](double ms) { clock_.Advance(ms); });
  // Commit ids issued by this platform's coordinator are MVCC commit
  // timestamps from the global version manager — the same timestamp
  // domain statements read at (AcquireReadLease) and column tables
  // stamp with by default.
  coordinator_.SetVersionManager(&mvcc::VersionManager::Global());
}

Platform::~Platform() = default;

double Platform::VirtualNow() const {
  double now = clock_.now_ms();
  if (extended_store_ != nullptr) {
    now += extended_store_->clock().now_ms();
  }
  return now;
}

Result<plan::LogicalOpPtr> Platform::PlanSelect(const sql::SelectStmt& stmt) {
  HANA_ASSIGN_OR_RETURN(plan::LogicalOpPtr logical,
                        plan::BindSelectStatement(*catalog_, stmt));
  optimizer::OptimizeContext ctx;
  ctx.catalog = catalog_.get();
  ctx.sda = &sda_;
  ctx.options = opt_options_;
  ctx.options.use_remote_cache = false;
  for (const std::string& hint : stmt.hints) {
    if (hint == "USE_REMOTE_CACHE") ctx.options.use_remote_cache = true;
    if (hint == "NO_FEDERATION") ctx.options.enable_federation = false;
  }
  HANA_RETURN_IF_ERROR(optimizer::Optimize(&logical, ctx));
  return logical;
}

Result<ExecResult> Platform::ExecuteSelect(const sql::SelectStmt& stmt) {
  double virtual_before = VirtualNow();
  sda_.ResetStats();
  Stopwatch watch;
  HANA_ASSIGN_OR_RETURN(plan::LogicalOpPtr logical, PlanSelect(stmt));
  HANA_ASSIGN_OR_RETURN(
      storage::Table table,
      exec::ExecutePlanWithStats(*logical, this, &last_pipeline_stats_));
  ExecResult result;
  result.metrics.local_ms = watch.ElapsedMillis();
  result.metrics.simulated_remote_ms = VirtualNow() - virtual_before;
  result.metrics.total_ms =
      result.metrics.local_ms + result.metrics.simulated_remote_ms;
  result.metrics.rows = table.num_rows();
  federation::StatementRemoteStats remote_stats = sda_.stats();
  result.metrics.remote_calls = remote_stats.remote_calls;
  result.metrics.mapreduce_jobs = remote_stats.mapreduce_jobs;
  result.metrics.remote_cache_hit = remote_stats.any_cache_hit;
  result.metrics.remote_materialization = remote_stats.any_materialization;
  result.table = std::move(table);
  last_metrics_ = result.metrics;
  return result;
}

Result<ExecResult> Platform::ExecuteInsert(const sql::InsertStmt& stmt) {
  std::vector<std::vector<Value>> rows;
  if (stmt.select != nullptr) {
    HANA_ASSIGN_OR_RETURN(ExecResult selected, ExecuteSelect(*stmt.select));
    rows = std::move(selected.table.rows());
  } else {
    Schema empty;
    for (const auto& value_row : stmt.values_rows) {
      std::vector<Value> row;
      for (const auto& expr : value_row) {
        HANA_ASSIGN_OR_RETURN(plan::BoundExprPtr bound,
                              plan::BindScalarExpr(*expr, empty));
        HANA_ASSIGN_OR_RETURN(Value v, exec::EvalExprRow(*bound, {}));
        row.push_back(std::move(v));
      }
      rows.push_back(std::move(row));
    }
  }
  // Cast values to the column types (named or positional).
  HANA_ASSIGN_OR_RETURN(catalog::TableEntry * entry,
                        catalog_->GetTable(stmt.table));
  auto cast_row = [&](std::vector<Value>* row) -> Status {
    for (size_t c = 0; c < row->size(); ++c) {
      size_t target = c;
      if (!stmt.columns.empty()) {
        int idx = entry->schema->FindColumn(stmt.columns[c]);
        if (idx < 0 && !entry->flexible) {
          return Status::BindError("unknown column " + stmt.columns[c]);
        }
        if (idx < 0) continue;  // Flexible: typed later by InsertNamed.
        target = static_cast<size_t>(idx);
      }
      if (target < entry->schema->num_columns()) {
        HANA_ASSIGN_OR_RETURN(
            (*row)[c],
            (*row)[c].CastTo(entry->schema->column(target).type));
      }
    }
    return Status::OK();
  };
  for (auto& row : rows) HANA_RETURN_IF_ERROR(cast_row(&row));

  if (!stmt.columns.empty()) {
    HANA_RETURN_IF_ERROR(catalog_->InsertNamed(stmt.table, stmt.columns,
                                               rows));
  } else {
    HANA_RETURN_IF_ERROR(catalog_->Insert(stmt.table, rows));
  }

  // Auto-merge: once an insert leaves a column table (or a hot hybrid
  // partition) with at least merge_threshold_rows unmerged delta rows,
  // consolidate it online right away. Best-effort with respect to
  // overlapping merges: Unavailable just means another merge is already
  // folding the delta.
  if (merge_threshold_rows_ > 0) {
    storage::MergeOptions options;
    options.parallel = parallel_merge_;
    auto merge_if_due = [&](storage::ColumnTable* table) -> Status {
      if (table->delta_rows() < merge_threshold_rows_) return Status::OK();
      Status status = table->MergeDelta(options);
      if (status.code() == StatusCode::kUnavailable) return Status::OK();
      return status;
    };
    if (entry->kind == catalog::TableKind::kColumn) {
      HANA_RETURN_IF_ERROR(merge_if_due(entry->column_table.get()));
    } else if (entry->kind == catalog::TableKind::kHybrid) {
      for (auto& p : entry->partitions) {
        if (p.hot != nullptr) HANA_RETURN_IF_ERROR(merge_if_due(p.hot.get()));
      }
    }
  }

  ExecResult result;
  result.metrics.rows = rows.size();
  result.message = StrFormat("%zu rows inserted", rows.size());
  return result;
}

Result<ExecResult> Platform::ExecuteDelete(const sql::DeleteStmt& stmt) {
  HANA_ASSIGN_OR_RETURN(catalog::TableEntry * entry,
                        catalog_->GetTable(stmt.table));
  size_t deleted = 0;
  if (stmt.where == nullptr) {
    plan::BoundExprPtr always =
        plan::BoundExpr::Literal(Value::Bool(true), DataType::kBool);
    HANA_ASSIGN_OR_RETURN(deleted, catalog_->DeleteWhere(stmt.table, *always));
  } else {
    HANA_ASSIGN_OR_RETURN(plan::BoundExprPtr predicate,
                          plan::BindScalarExpr(*stmt.where, *entry->schema));
    HANA_ASSIGN_OR_RETURN(deleted,
                          catalog_->DeleteWhere(stmt.table, *predicate));
  }
  ExecResult result;
  result.metrics.rows = deleted;
  result.message = StrFormat("%zu rows deleted", deleted);
  return result;
}

Result<ExecResult> Platform::ExecuteUpdate(const sql::UpdateStmt& stmt) {
  HANA_ASSIGN_OR_RETURN(catalog::TableEntry * entry,
                        catalog_->GetTable(stmt.table));
  plan::BoundExprPtr predicate;
  if (stmt.where != nullptr) {
    HANA_ASSIGN_OR_RETURN(predicate,
                          plan::BindScalarExpr(*stmt.where, *entry->schema));
  }
  std::vector<plan::BoundExprPtr> owned;
  std::vector<std::pair<size_t, const plan::BoundExpr*>> assignments;
  for (const auto& [column, expr] : stmt.assignments) {
    HANA_ASSIGN_OR_RETURN(size_t idx, entry->schema->ColumnIndex(column));
    HANA_ASSIGN_OR_RETURN(plan::BoundExprPtr bound,
                          plan::BindScalarExpr(*expr, *entry->schema));
    owned.push_back(std::move(bound));
    assignments.emplace_back(idx, owned.back().get());
  }
  HANA_ASSIGN_OR_RETURN(
      size_t updated,
      catalog_->UpdateWhere(stmt.table, predicate.get(), assignments));
  ExecResult result;
  result.metrics.rows = updated;
  result.message = StrFormat("%zu rows updated", updated);
  return result;
}

Status Platform::HandleCreateRemoteSource(
    const sql::CreateRemoteSourceStmt& stmt) {
  catalog::RemoteSourceEntry entry;
  entry.name = stmt.name;
  entry.adapter = stmt.adapter;
  entry.configuration = stmt.configuration;
  entry.user = stmt.user;
  entry.password = stmt.password;
  HANA_RETURN_IF_ERROR(catalog_->AddRemoteSource(entry));

  std::string kind = ToLower(stmt.adapter);
  if (kind == "hiveodbc" || kind == "hadoop") {
    if (hive_ == nullptr) {
      return Status::Unavailable("no Hadoop substrate attached");
    }
    auto adapter = std::make_unique<federation::HiveAdapter>(
        hive_.get(), &clock_, options_.hive_link, stmt.configuration);
    hive_adapters_.push_back(adapter.get());
    return sda_.BindSource(stmt.name, std::move(adapter));
  }
  if (kind == "iq") {
    if (iq_ == nullptr) {
      return Status::Unavailable("no extended storage attached");
    }
    return sda_.BindSource(
        stmt.name,
        std::make_unique<federation::IqAdapter>(iq_.get(), &clock_));
  }
  return Status::InvalidArgument("unknown adapter: " + stmt.adapter);
}

Status Platform::HandleCreateVirtualTable(
    const sql::CreateVirtualTableStmt& stmt) {
  HANA_ASSIGN_OR_RETURN(federation::Adapter * adapter,
                        sda_.AdapterFor(stmt.source));
  const std::string& remote_object = stmt.remote_path.back();
  HANA_ASSIGN_OR_RETURN(std::shared_ptr<Schema> schema,
                        adapter->FetchTableSchema(remote_object));
  catalog::VirtualTableEntry entry;
  entry.name = stmt.name;
  entry.source = stmt.source;
  entry.remote_object = remote_object;
  entry.schema = std::move(schema);
  Result<double> rows = adapter->EstimateRows(remote_object);
  entry.estimated_rows = rows.ok() ? *rows : -1;
  return catalog_->AddVirtualTable(std::move(entry));
}

Result<ExecResult> Platform::Execute(const std::string& sql) {
  HANA_ASSIGN_OR_RETURN(sql::StmtPtr stmt, sql::ParseStatement(sql));
  switch (stmt->kind()) {
    case sql::StmtKind::kSelect:
      return ExecuteSelect(static_cast<const sql::SelectStmt&>(*stmt));
    case sql::StmtKind::kExplain: {
      const auto& explain = static_cast<const sql::ExplainStmt&>(*stmt);
      HANA_ASSIGN_OR_RETURN(plan::LogicalOpPtr logical,
                            PlanSelect(*explain.select));
      std::vector<plan::PipelineSummary> pipelines =
          exec::AnnotatePipelines(logical.get());
      ExecResult result;
      result.message = logical->ToString();
      result.message += optimizer::FormatPipelines(pipelines);
      return result;
    }
    case sql::StmtKind::kInsert:
      return ExecuteInsert(static_cast<const sql::InsertStmt&>(*stmt));
    case sql::StmtKind::kDelete:
      return ExecuteDelete(static_cast<const sql::DeleteStmt&>(*stmt));
    case sql::StmtKind::kUpdate:
      return ExecuteUpdate(static_cast<const sql::UpdateStmt&>(*stmt));
    case sql::StmtKind::kCreateTable: {
      HANA_RETURN_IF_ERROR(catalog_->CreateTable(
          static_cast<const sql::CreateTableStmt&>(*stmt)));
      ExecResult result;
      result.message = "table created";
      return result;
    }
    case sql::StmtKind::kDropTable: {
      const auto& drop = static_cast<const sql::DropTableStmt&>(*stmt);
      HANA_RETURN_IF_ERROR(catalog_->DropTable(drop.table, drop.if_exists));
      ExecResult result;
      result.message = "table dropped";
      return result;
    }
    case sql::StmtKind::kCreateRemoteSource: {
      HANA_RETURN_IF_ERROR(HandleCreateRemoteSource(
          static_cast<const sql::CreateRemoteSourceStmt&>(*stmt)));
      ExecResult result;
      result.message = "remote source created";
      return result;
    }
    case sql::StmtKind::kCreateVirtualTable: {
      HANA_RETURN_IF_ERROR(HandleCreateVirtualTable(
          static_cast<const sql::CreateVirtualTableStmt&>(*stmt)));
      ExecResult result;
      result.message = "virtual table created";
      return result;
    }
    case sql::StmtKind::kCreateVirtualFunction: {
      const auto& fn = static_cast<const sql::CreateVirtualFunctionStmt&>(*stmt);
      catalog::VirtualFunctionEntry entry;
      entry.name = fn.name;
      entry.source = fn.source;
      entry.configuration = fn.configuration;
      entry.schema = std::make_shared<Schema>(fn.returns);
      HANA_RETURN_IF_ERROR(catalog_->AddVirtualFunction(std::move(entry)));
      ExecResult result;
      result.message = "virtual function created";
      return result;
    }
    case sql::StmtKind::kMergeDelta: {
      const auto& merge = static_cast<const sql::MergeDeltaStmt&>(*stmt);
      storage::MergeOptions options;
      options.parallel = parallel_merge_;
      HANA_RETURN_IF_ERROR(catalog_->MergeDelta(merge.table, options));
      ExecResult result;
      result.message = "delta merged";
      return result;
    }
  }
  return Status::Internal("unhandled statement kind");
}

Result<storage::Table> Platform::Query(const std::string& sql) {
  HANA_ASSIGN_OR_RETURN(ExecResult result, Execute(sql));
  return std::move(result.table);
}

Status Platform::Run(const std::string& script) {
  for (const std::string& stmt : sql::SplitStatements(script)) {
    HANA_RETURN_IF_ERROR(Execute(stmt).status());
  }
  return Status::OK();
}

Result<std::string> Platform::Explain(const std::string& sql) {
  HANA_ASSIGN_OR_RETURN(ExecResult result, Execute("EXPLAIN " + sql));
  return result.message;
}

Status Platform::SetParameter(const std::string& name,
                              const std::string& value) {
  std::string key = ToLower(name);
  if (key == "enable_remote_cache") {
    bool enable = EqualsIgnoreCase(value, "true") || value == "1";
    for (auto* adapter : hive_adapters_) {
      adapter->cache_options().enable_remote_cache = enable;
    }
    return Status::OK();
  }
  if (key == "remote_cache_validity") {
    char* end = nullptr;
    double seconds = std::strtod(value.c_str(), &end);
    if (end == value.c_str()) {
      return Status::InvalidArgument("invalid validity: " + value);
    }
    for (auto* adapter : hive_adapters_) {
      adapter->cache_options().remote_cache_validity_seconds = seconds;
    }
    return Status::OK();
  }
  if (key == "parallel_merge") {
    std::string v;
    for (char c : value) v += static_cast<char>(std::tolower(c));
    bool enabled;
    if (v == "on" || v == "true" || v == "1") {
      enabled = true;
    } else if (v == "off" || v == "false" || v == "0") {
      enabled = false;
    } else {
      return Status::InvalidArgument("invalid " + key + ": " + value);
    }
    parallel_merge_ = enabled;
    return Status::OK();
  }
  if (key == "merge_threshold_rows") {
    char* end = nullptr;
    long parsed = std::strtol(value.c_str(), &end, 10);
    if (end == value.c_str() || parsed < 0) {
      return Status::InvalidArgument("invalid merge_threshold_rows: " + value);
    }
    merge_threshold_rows_ = static_cast<size_t>(parsed);
    return Status::OK();
  }
  if (key == "threads" || key == "morsel_rows" || key == "agg_partitions") {
    char* end = nullptr;
    long parsed = std::strtol(value.c_str(), &end, 10);
    if (end == value.c_str() || parsed < 0) {
      return Status::InvalidArgument("invalid " + key + ": " + value);
    }
    size_t v = static_cast<size_t>(parsed);
    if (key == "threads") {
      dop_ = v > 0 ? v : TaskPool::DefaultDop();
    } else if (key == "morsel_rows") {
      morsel_rows_ = v > 0 ? v : exec::kDefaultMorselRows;
    } else {
      agg_partitions_ = v;  // 0 restores the cardinality-based default.
    }
    return Status::OK();
  }
  if (key == "cpu") {
    std::string v;
    for (char c : value) v += static_cast<char>(std::tolower(c));
    return SetCpuMode(v);
  }
  return Status::NotFound("unknown parameter: " + name);
}

Status Platform::RegisterMapReduceJob(
    const std::string& driver_class,
    std::function<Result<storage::Table>(hadoop::HiveEngine*)> runner) {
  if (hive_adapters_.empty()) {
    return Status::Unavailable(
        "register a hadoop remote source before map-reduce jobs");
  }
  for (auto* adapter : hive_adapters_) {
    adapter->RegisterMapReduceJob(driver_class, runner);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// ExecContext
// ---------------------------------------------------------------------

exec::ExecContext::ReadLease Platform::AcquireReadLease() {
  ReadLease lease;
  lease.hold = mvcc::VersionManager::Global().AcquireSnapshot();
  lease.view.read_ts = lease.hold.read_ts();
  {
    // New statement: drop the previous statement's snapshot reuse map.
    // Entries are keyed by the full view, so a concurrent statement that
    // loses its cache here merely re-pins — it can never read a wrong
    // snapshot.
    MutexLock lock(snapshot_cache_mu_);
    snapshot_cache_.clear();
  }
  return lease;
}

std::shared_ptr<const storage::TableReadSnapshot> Platform::SnapshotFor(
    const storage::ColumnTable* table, const mvcc::ReadView& view) {
  // Latest-view reads (read_ts == kLatest outside any lease) resolve
  // their timestamp at open time, so two opens may legitimately see
  // different data — never cache those.
  if (view.read_ts == mvcc::kLatest) return table->OpenSnapshot(view);
  SnapshotKey key{table, view.read_ts, view.txn};
  {
    MutexLock lock(snapshot_cache_mu_);
    auto it = snapshot_cache_.find(key);
    if (it != snapshot_cache_.end()) return it->second;
  }
  // Open outside the cache lock: OpenSnapshot takes mvcc.version and
  // storage.state, which must not nest inside platform.snapshot_cache.
  std::shared_ptr<const storage::TableReadSnapshot> snap =
      table->OpenSnapshot(view);
  MutexLock lock(snapshot_cache_mu_);
  auto [it, inserted] = snapshot_cache_.emplace(key, snap);
  return it->second;  // First opener wins on a race.
}

Result<exec::ChunkSource> Platform::OpenScan(const plan::LogicalOp& scan,
                                             const mvcc::ReadView& view) {
  const plan::TableBinding& binding = scan.table;
  switch (binding.location) {
    case plan::TableLocation::kLocalColumn:
    case plan::TableLocation::kLocalRow:
    case plan::TableLocation::kHybrid: {
      // Hybrid scans arrive either expanded (partition_index >= 0, one
      // partition) or unexpanded (scan everything).
      std::string base = binding.name;
      auto pos = base.find("__P");
      if (pos != std::string::npos) base = base.substr(0, pos);
      HANA_ASSIGN_OR_RETURN(catalog::TableEntry * entry,
                            catalog_->GetTable(base));
      return exec::ChunkSource([this, entry, &scan,
                                view](const exec::ChunkSink& out) -> Status {
        // Storage decodes only the scan's columns, stamped with its
        // schema, so chunks go to the consumer as they are.
        bool more = true;
        exec::ChunkSink sink = [&](const storage::Chunk& chunk) {
          return more = out(chunk);
        };
        auto scan_snapshot = [&](const storage::ColumnTable* table) {
          std::shared_ptr<const storage::TableReadSnapshot> snap =
              SnapshotFor(table, view);
          snap->ScanRange(0, snap->num_rows(), storage::kDefaultChunkRows,
                          scan.scan_columns, scan.schema, sink);
        };
        switch (entry->kind) {
          case catalog::TableKind::kColumn:
            scan_snapshot(entry->column_table.get());
            return Status::OK();
          case catalog::TableKind::kRow:
            entry->row_table->ScanRange(0, entry->row_table->num_rows(),
                                        storage::kDefaultChunkRows,
                                        scan.scan_columns, scan.schema, sink);
            return Status::OK();
          case catalog::TableKind::kHybrid:
            for (size_t i = 0; i < entry->partitions.size() && more; ++i) {
              if (scan.partition_index >= 0 &&
                  static_cast<size_t>(scan.partition_index) != i) {
                continue;
              }
              catalog::Partition& partition = entry->partitions[i];
              if (partition.hot != nullptr) {
                scan_snapshot(partition.hot.get());
              } else if (scan.partition_index < 0) {
                // Unexpanded hybrid scan: read cold partitions directly.
                // The extended engine mutates its buffer cache and clock
                // on reads, so direct access shares the SDA dispatch
                // mutex with concurrently opened federation branches.
                federation::SdaRuntime::TrackedDispatch guard(&sda_);
                HANA_ASSIGN_OR_RETURN(
                    extended::ExtendedTable * cold,
                    iq_->store()->GetTable(partition.cold_table));
                HANA_RETURN_IF_ERROR(cold->Scan({}, storage::kDefaultChunkRows,
                                                scan.scan_columns, scan.schema,
                                                sink));
              }
            }
            return Status::OK();
          default:
            return Status::Internal("unexpected storage for scan of " +
                                    entry->name);
        }
      });
    }
    case plan::TableLocation::kExtended: {
      if (iq_ == nullptr) {
        return Status::Unavailable("extended storage not attached");
      }
      return exec::ChunkSource([this, &scan](const exec::ChunkSink& sink) {
        // Direct engine access; see the hybrid cold-partition case above.
        federation::SdaRuntime::TrackedDispatch guard(&sda_);
        HANA_ASSIGN_OR_RETURN(extended::ExtendedTable * table,
                              iq_->store()->GetTable(scan.table.name));
        return table->Scan(extended::ToColumnRanges(scan.scan_ranges),
                           storage::kDefaultChunkRows, scan.scan_columns,
                           scan.schema, sink);
      });
    }
    case plan::TableLocation::kRemote: {
      // Federation disabled (or not split): fetch the scan's columns of
      // the whole virtual table.
      plan::LogicalOp rq;
      rq.kind = plan::LogicalKind::kRemoteQuery;
      rq.schema = scan.schema;
      rq.remote_source = binding.source;
      std::vector<std::string> cols;
      for (size_t i = 0; i < scan.scan_columns.size(); ++i) {
        cols.push_back("t0." +
                       binding.schema->column(scan.scan_columns[i]).name +
                       " AS c" + std::to_string(i));
      }
      rq.remote_sql = "SELECT " + Join(cols, ", ") + " FROM " +
                      binding.remote_object + " t0";
      HANA_ASSIGN_OR_RETURN(storage::Table table,
                            sda_.ExecuteRemoteQuery(rq, nullptr, nullptr));
      return TableSource(std::move(table), scan.schema);
    }
  }
  return Status::Internal("unknown table location");
}

exec::ParallelPolicy Platform::parallel_policy() {
  exec::ParallelPolicy policy;
  policy.pool = &TaskPool::Global();
  policy.dop = dop_;
  policy.morsel_rows = morsel_rows_;
  policy.agg_partitions = agg_partitions_;
  return policy;
}

Result<std::optional<exec::PartitionSource>> Platform::OpenPartitionedScan(
    const plan::LogicalOp& scan, size_t morsel_rows,
    const mvcc::ReadView& view) {
  const plan::TableBinding& binding = scan.table;
  // Only plain local tables decompose into morsels; hybrid umbrella
  // scans, expanded hot partitions and remote/extended sources keep the
  // streaming path.
  if ((binding.location != plan::TableLocation::kLocalColumn &&
       binding.location != plan::TableLocation::kLocalRow) ||
      scan.partition_index >= 0) {
    return std::optional<exec::PartitionSource>();
  }
  Result<catalog::TableEntry*> entry = catalog_->GetTable(binding.name);
  if (!entry.ok()) return std::optional<exec::PartitionSource>();
  if (morsel_rows == 0) morsel_rows = morsel_rows_;

  exec::PartitionSource source;
  if ((*entry)->kind == catalog::TableKind::kColumn) {
    // One storage snapshot shared by every morsel: the decomposition's
    // num_rows and each morsel's bounds come from the same frozen view,
    // so concurrent commits (or delta merges) between morsel planning
    // and morsel scans cannot skew the partitioning — and all morsels
    // apply the same MVCC visibility filter.
    std::shared_ptr<const storage::TableReadSnapshot> snap =
        SnapshotFor((*entry)->column_table.get(), view);
    size_t rows = snap->num_rows();
    source.num_morsels = (rows + morsel_rows - 1) / morsel_rows;
    source.scan_morsel = [snap, morsel_rows, &scan](
                             size_t m, const exec::ChunkSink& sink) {
      size_t begin = m * morsel_rows;
      snap->ScanRange(begin, std::min(snap->num_rows(), begin + morsel_rows),
                      morsel_rows, scan.scan_columns, scan.schema, sink);
      return Status::OK();
    };
    return std::optional<exec::PartitionSource>(std::move(source));
  }
  if ((*entry)->kind == catalog::TableKind::kRow) {
    storage::RowTable* table = (*entry)->row_table.get();
    size_t rows = table->num_rows();
    source.num_morsels = (rows + morsel_rows - 1) / morsel_rows;
    source.scan_morsel = [table, morsel_rows, &scan](
                             size_t m, const exec::ChunkSink& sink) {
      size_t begin = m * morsel_rows;
      table->ScanRange(begin,
                       std::min(table->num_rows(), begin + morsel_rows),
                       morsel_rows, scan.scan_columns, scan.schema, sink);
      return Status::OK();
    };
    return std::optional<exec::PartitionSource>(std::move(source));
  }
  return std::optional<exec::PartitionSource>();
}

void Platform::BeginConcurrentRemoteDispatch() {
  sda_.BeginConcurrentRegion();
}

void Platform::EndConcurrentRemoteDispatch() { sda_.EndConcurrentRegion(); }

Result<exec::ChunkSource> Platform::OpenRemoteQuery(
    const plan::LogicalOp& rq, const exec::PushdownInList* in_list,
    const storage::Table* relocated_rows) {
  HANA_ASSIGN_OR_RETURN(storage::Table table,
                        sda_.ExecuteRemoteQuery(rq, in_list, relocated_rows));
  return TableSource(std::move(table), rq.schema);
}

Result<exec::ChunkSource> Platform::OpenTableFunction(
    const plan::LogicalOp& fn) {
  HANA_ASSIGN_OR_RETURN(
      storage::Table table,
      sda_.ExecuteVirtualFunction(fn.function.source,
                                  fn.function.configuration));
  if (table.schema()->num_columns() != fn.schema->num_columns()) {
    return Status::Internal(
        "virtual function result arity does not match declaration");
  }
  return TableSource(std::move(table), fn.schema);
}

}  // namespace hana::platform
