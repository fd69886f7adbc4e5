#include "catalog/catalog.h"

#include <algorithm>

#include "common/strings.h"
#include "common/task_pool.h"
#include "exec/vector_eval.h"
#include "plan/rewrites.h"

namespace hana::catalog {

size_t TableEntry::LiveRows(const extended::IqEngine* iq) const {
  switch (kind) {
    case TableKind::kColumn:
      return column_table->live_rows();
    case TableKind::kExtended: {
      if (iq == nullptr) return 0;
      Result<extended::ExtendedTable*> table =
          iq->store()->GetTable(extended_table);
      return table.ok() ? (*table)->live_rows() : 0;
    }
    case TableKind::kHybrid: {
      size_t rows = 0;
      for (const Partition& p : partitions) {
        if (p.hot != nullptr) {
          rows += p.hot->live_rows();
        } else if (iq != nullptr) {
          Result<extended::ExtendedTable*> table =
              iq->store()->GetTable(p.cold_table);
          if (table.ok()) rows += (*table)->live_rows();
        }
      }
      return rows;
    }
  }
  return 0;
}

namespace {

/// Bounds [lower, upper) covered by partition `index` of a hybrid table
/// (null = unbounded), assuming ascending declared bounds.
void PartitionBounds(const TableEntry& entry, size_t index, Value* lower,
                     Value* upper) {
  *lower = Value::Null();
  *upper = Value::Null();
  if (entry.partitions[index].def.is_others) {
    // Covers everything at or above the highest declared bound.
    for (const auto& p : entry.partitions) {
      if (!p.def.is_others) *lower = p.def.upper_bound;
    }
    return;
  }
  *upper = entry.partitions[index].def.upper_bound;  // Exclusive.
  for (size_t i = 0; i < index; ++i) {
    if (!entry.partitions[i].def.is_others) {
      *lower = entry.partitions[i].def.upper_bound;
    }
  }
}

}  // namespace

bool TableEntry::PartitionExcluded(
    size_t index, const std::vector<plan::ScanRange>& ranges) const {
  if (kind != TableKind::kHybrid || partition_column < 0 ||
      aging_column >= 0 || index >= partitions.size() ||
      partitions[index].hot != nullptr) {
    return false;
  }
  Value lower, upper;
  PartitionBounds(*this, index, &lower, &upper);
  for (const plan::ScanRange& range : ranges) {
    if (range.column != static_cast<size_t>(partition_column)) continue;
    // The partition covers [lower, upper); the predicate wants
    // [range.lower, range.upper] (inclusive, null = unbounded).
    if (!range.upper.is_null() && !lower.is_null() &&
        range.upper.Compare(lower) < 0) {
      return true;
    }
    if (!range.lower.is_null() && !upper.is_null() &&
        range.lower.Compare(upper) >= 0) {
      return true;
    }
  }
  return false;
}

std::string Catalog::ColdTableName(const TableEntry& entry,
                                   size_t partition) const {
  return ToUpper(entry.name) + "__P" + std::to_string(partition);
}

Status Catalog::CreateTable(const sql::CreateTableStmt& stmt) {
  MutexLock lock(mu_);
  std::string key = ToUpper(stmt.table);
  if (tables_.count(key) > 0 || virtual_tables_.count(key) > 0) {
    return Status::AlreadyExists("table exists: " + stmt.table);
  }
  auto entry = std::make_unique<TableEntry>();
  entry->name = stmt.table;
  entry->flexible = stmt.flexible;
  entry->schema = std::make_shared<Schema>(stmt.columns);

  switch (stmt.storage) {
    // A ROW TABLE is an MVCC column table too: one local store, one
    // write path and one scan source for every in-memory table.
    case sql::StorageKind::kColumn:
    case sql::StorageKind::kRow:
      entry->kind = TableKind::kColumn;
      entry->column_table =
          std::make_unique<storage::ColumnTable>(entry->schema);
      break;
    case sql::StorageKind::kExtended: {
      if (iq_ == nullptr) {
        return Status::Unavailable(
            "no extended storage attached to this platform");
      }
      entry->kind = TableKind::kExtended;
      entry->extended_table = key;
      HANA_RETURN_IF_ERROR(
          iq_->store()->CreateTable(key, entry->schema).status());
      break;
    }
    case sql::StorageKind::kHybrid: {
      if (iq_ == nullptr) {
        return Status::Unavailable(
            "no extended storage attached to this platform");
      }
      if (stmt.partition_column.empty() || stmt.partitions.empty()) {
        return Status::InvalidArgument(
            "hybrid tables require PARTITION BY RANGE with partitions");
      }
      entry->kind = TableKind::kHybrid;
      HANA_ASSIGN_OR_RETURN(size_t part_col,
                            entry->schema->ColumnIndex(stmt.partition_column));
      entry->partition_column = static_cast<int>(part_col);
      if (!stmt.aging_column.empty()) {
        HANA_ASSIGN_OR_RETURN(size_t aging_col,
                              entry->schema->ColumnIndex(stmt.aging_column));
        entry->aging_column = static_cast<int>(aging_col);
      }
      for (size_t i = 0; i < stmt.partitions.size(); ++i) {
        Partition partition;
        partition.def = stmt.partitions[i];
        if (partition.def.cold) {
          partition.cold_table = ColdTableName(*entry, i);
          HANA_RETURN_IF_ERROR(
              iq_->store()
                  ->CreateTable(partition.cold_table, entry->schema)
                  .status());
        } else {
          partition.hot = std::make_unique<storage::ColumnTable>(entry->schema);
        }
        entry->partitions.push_back(std::move(partition));
      }
      break;
    }
  }
  tables_[key] = std::move(entry);
  return Status::OK();
}

Status Catalog::DropTable(const std::string& name, bool if_exists) {
  MutexLock lock(mu_);
  std::string key = ToUpper(name);
  auto virt = virtual_tables_.find(key);
  if (virt != virtual_tables_.end()) {
    virtual_tables_.erase(virt);
    return Status::OK();
  }
  auto it = tables_.find(key);
  if (it == tables_.end()) {
    if (if_exists) return Status::OK();
    return Status::NotFound("table not found: " + name);
  }
  TableEntry* entry = it->second.get();
  if (iq_ != nullptr) {
    if (entry->kind == TableKind::kExtended) {
      // lint: IgnoreStatus allowed — best-effort cleanup of the cold
      // store while dropping the owning entry; the catalog drop wins.
      IgnoreStatus(iq_->store()->DropTable(entry->extended_table));
    }
    if (entry->kind == TableKind::kHybrid) {
      for (const Partition& p : entry->partitions) {
        if (!p.cold_table.empty()) {
        // lint: IgnoreStatus allowed — same best-effort cleanup as above.
        IgnoreStatus(iq_->store()->DropTable(p.cold_table));
      }
      }
    }
  }
  tables_.erase(it);
  return Status::OK();
}

Result<TableEntry*> Catalog::GetTable(const std::string& name) {
  MutexLock lock(mu_);
  auto it = tables_.find(ToUpper(name));
  if (it == tables_.end()) return Status::NotFound("table not found: " + name);
  return it->second.get();
}

Result<const TableEntry*> Catalog::GetTable(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = tables_.find(ToUpper(name));
  if (it == tables_.end()) return Status::NotFound("table not found: " + name);
  return it->second.get();
}

bool Catalog::HasTable(const std::string& name) const {
  MutexLock lock(mu_);
  return tables_.count(ToUpper(name)) > 0 ||
         virtual_tables_.count(ToUpper(name)) > 0;
}

std::vector<std::string> Catalog::TableNames() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  for (const auto& [key, entry] : tables_) names.push_back(entry->name);
  for (const auto& [key, entry] : virtual_tables_) names.push_back(entry.name);
  return names;
}

Status Catalog::AddRemoteSource(RemoteSourceEntry entry) {
  MutexLock lock(mu_);
  std::string key = ToUpper(entry.name);
  if (remote_sources_.count(key) > 0) {
    return Status::AlreadyExists("remote source exists: " + entry.name);
  }
  remote_sources_[key] = std::move(entry);
  return Status::OK();
}

Result<const RemoteSourceEntry*> Catalog::GetRemoteSource(
    const std::string& name) const {
  MutexLock lock(mu_);
  auto it = remote_sources_.find(ToUpper(name));
  if (it == remote_sources_.end()) {
    return Status::NotFound("remote source not found: " + name);
  }
  return &it->second;
}

Status Catalog::AddVirtualTable(VirtualTableEntry entry) {
  MutexLock lock(mu_);
  std::string key = ToUpper(entry.name);
  if (virtual_tables_.count(key) > 0 || tables_.count(key) > 0) {
    return Status::AlreadyExists("table exists: " + entry.name);
  }
  virtual_tables_[key] = std::move(entry);
  return Status::OK();
}

Status Catalog::AddVirtualFunction(VirtualFunctionEntry entry) {
  MutexLock lock(mu_);
  std::string key = ToUpper(entry.name);
  if (virtual_functions_.count(key) > 0) {
    return Status::AlreadyExists("virtual function exists: " + entry.name);
  }
  virtual_functions_[key] = std::move(entry);
  return Status::OK();
}

Result<const VirtualFunctionEntry*> Catalog::GetVirtualFunction(
    const std::string& name) const {
  MutexLock lock(mu_);
  auto it = virtual_functions_.find(ToUpper(name));
  if (it == virtual_functions_.end()) {
    return Status::NotFound("virtual function not found: " + name);
  }
  return &it->second;
}

int Catalog::PartitionIndexFor(const TableEntry& entry,
                               const Value& v) const {
  int others = -1;
  for (size_t i = 0; i < entry.partitions.size(); ++i) {
    const sql::PartitionDef& def = entry.partitions[i].def;
    if (def.is_others) {
      others = static_cast<int>(i);
      continue;
    }
    if (!v.is_null() && v.Compare(def.upper_bound) < 0) {
      return static_cast<int>(i);
    }
  }
  return others;
}

Status Catalog::InsertHybrid(TableEntry* entry,
                             const std::vector<std::vector<Value>>& rows) {
  std::map<int, std::vector<std::vector<Value>>> routed;
  for (const auto& row : rows) {
    HANA_RETURN_IF_ERROR(storage::CheckRow(*entry->schema, row));
    int part = PartitionIndexFor(
        *entry, row[static_cast<size_t>(entry->partition_column)]);
    if (part < 0) {
      return Status::InvalidArgument(
          "no partition accepts value " +
          row[static_cast<size_t>(entry->partition_column)].ToString());
    }
    routed[part].push_back(row);
  }
  // Hot batches first, staged; the unversioned cold loads only then (a
  // failed load returns, and the WriteSet aborts the staged rows).
  storage::WriteSet writes;
  for (const auto& [part, batch] : routed) {
    Partition& partition = entry->partitions[static_cast<size_t>(part)];
    if (partition.hot != nullptr) {
      HANA_RETURN_IF_ERROR(writes.Append(partition.hot.get(), batch));
    }
  }
  for (const auto& [part, batch] : routed) {
    Partition& partition = entry->partitions[static_cast<size_t>(part)];
    if (partition.hot != nullptr) continue;
    HANA_ASSIGN_OR_RETURN(extended::ExtendedTable * cold,
                          iq_->store()->GetTable(partition.cold_table));
    HANA_RETURN_IF_ERROR(cold->BulkLoad(batch));
  }
  writes.Commit();
  return Status::OK();
}

Status Catalog::Insert(const std::string& name,
                       const std::vector<std::vector<Value>>& rows) {
  HANA_ASSIGN_OR_RETURN(TableEntry * entry, GetTable(name));
  switch (entry->kind) {
    case TableKind::kColumn:
      return entry->column_table->AppendRows(rows);
    case TableKind::kExtended: {
      // Direct load: data moves straight into the external store without
      // a detour via the in-memory store (Section 3.1).
      HANA_ASSIGN_OR_RETURN(extended::ExtendedTable * table,
                            iq_->store()->GetTable(entry->extended_table));
      return table->BulkLoad(rows);
    }
    case TableKind::kHybrid:
      return InsertHybrid(entry, rows);
  }
  return Status::Internal("unknown table kind");
}

Status Catalog::InsertNamed(const std::string& name,
                            const std::vector<std::string>& columns,
                            const std::vector<std::vector<Value>>& rows) {
  HANA_ASSIGN_OR_RETURN(TableEntry * entry, GetTable(name));
  if (columns.empty()) return Insert(name, rows);

  for (const auto& row : rows) {
    if (row.size() != columns.size()) {
      return Status::InvalidArgument("row arity mismatch");
    }
  }
  // Flexible tables extend their schema on the fly: unknown columns are
  // added with a type inferred from the first non-null value. Every row
  // is checked against the widened schema before the first AddColumn,
  // so a failing INSERT leaves the schema as it was.
  Schema widened = *entry->schema;
  std::vector<ColumnDef> added;
  std::vector<size_t> position(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    int idx = widened.FindColumn(columns[c]);
    if (idx < 0) {
      if (!entry->flexible) {
        return Status::BindError("unknown column " + columns[c] + " in " +
                                 name);
      }
      if (entry->kind != TableKind::kColumn) {
        return Status::InvalidArgument(
            "flexible tables must use column storage");
      }
      DataType type = DataType::kString;
      for (const auto& row : rows) {
        if (!row[c].is_null()) {
          type = row[c].type();
          break;
        }
      }
      added.push_back(ColumnDef{columns[c], type, true});
      widened.AddColumn(added.back());
      idx = static_cast<int>(widened.num_columns()) - 1;
    }
    position[c] = static_cast<size_t>(idx);
  }
  // Build full-width rows in schema order.
  std::vector<std::vector<Value>> full;
  full.reserve(rows.size());
  for (const auto& row : rows) {
    std::vector<Value> out(widened.num_columns(), Value::Null());
    for (size_t c = 0; c < columns.size(); ++c) out[position[c]] = row[c];
    HANA_RETURN_IF_ERROR(storage::CheckRow(widened, out));
    full.push_back(std::move(out));
  }
  for (const ColumnDef& def : added) {
    HANA_RETURN_IF_ERROR(entry->column_table->AddColumn(def));
  }
  return Insert(name, full);
}

namespace {

/// One place a DML statement searches — a column table or hybrid hot
/// partition (`hot`), or an extended table or cold partition (`cold`) —
/// and the ids of the rows the statement selects there.
struct Target {
  storage::ColumnTable* hot = nullptr;
  extended::ExtendedTable* cold = nullptr;
  int partition = -1;  // Of a hybrid hot partition.
  std::vector<int64_t> rows;
};

/// The targets of a statement on `entry` in partition order, skipping
/// the hybrid partitions PartitionExcluded rules out for `ranges`.
Result<std::vector<Target>> TargetsOf(
    const TableEntry& entry, extended::IqEngine* iq,
    const std::vector<plan::ScanRange>& ranges) {
  std::vector<Target> targets;
  auto add_cold = [&](const std::string& name) -> Status {
    HANA_ASSIGN_OR_RETURN(extended::ExtendedTable * cold,
                          iq->store()->GetTable(name));
    targets.push_back(Target{nullptr, cold, -1, {}});
    return Status::OK();
  };
  if (entry.kind == TableKind::kColumn) {
    targets.push_back(Target{entry.column_table.get(), nullptr, -1, {}});
  } else if (entry.kind == TableKind::kExtended) {
    HANA_RETURN_IF_ERROR(add_cold(entry.extended_table));
  }
  for (size_t i = 0; i < entry.partitions.size(); ++i) {
    const Partition& p = entry.partitions[i];
    if (entry.PartitionExcluded(i, ranges)) continue;
    if (p.hot == nullptr) {
      HANA_RETURN_IF_ERROR(add_cold(p.cold_table));
    } else {
      targets.push_back(Target{p.hot.get(), nullptr, static_cast<int>(i), {}});
    }
  }
  return targets;
}

/// Runs Scan -> Filter(`predicate`, when set) -> Project(row id, then
/// table columns `also`) over `target` on the pipeline executor, at the
/// statement's read lease, as a SELECT of those columns would run:
/// morsels, zone maps (`ranges`), column pruning and the filter
/// kernels. Rows come back in row order, as chunks; the first predicate
/// error in row order is returned.
Result<std::vector<storage::Chunk>> SearchTarget(const TableEntry& entry,
                                    const Target& target,
                                    const plan::BoundExpr* predicate,
                                    const std::vector<plan::ScanRange>& ranges,
                                    const std::vector<size_t>& also,
                                    exec::ExecContext* ctx) {
  // The scan lists every table column and the row id; PruneColumns
  // narrows it to what the filter and the projection read.
  const Schema& schema = *entry.schema;
  const ColumnDef row_id{"$rowid", DataType::kInt64, false};
  auto scan = std::make_unique<plan::LogicalOp>();
  scan->kind = plan::LogicalKind::kScan;
  scan->table.name = target.hot != nullptr ? entry.name : target.cold->name();
  scan->table.location = target.hot != nullptr
                             ? plan::TableLocation::kLocalColumn
                             : plan::TableLocation::kExtended;
  scan->partition_index = target.partition;
  scan->scan_ranges = ranges;
  scan->scan_columns = storage::AllColumnIds(schema);
  scan->scan_columns.push_back(storage::kRowIdColumn);
  scan->schema = std::make_shared<Schema>(schema);
  scan->schema->AddColumn(row_id);
  plan::LogicalOpPtr root = std::move(scan);
  if (predicate != nullptr) {
    root = plan::MakeFilter(std::move(root), predicate->Clone());
  }
  std::vector<plan::BoundExprPtr> exprs;
  auto out = std::make_shared<Schema>();
  exprs.push_back(plan::BoundExpr::Column(schema.num_columns(), row_id.type,
                                          row_id.name));
  out->AddColumn(row_id);
  for (size_t c : also) {
    const ColumnDef& def = schema.column(c);
    exprs.push_back(plan::BoundExpr::Column(c, def.type, def.name));
    out->AddColumn(def);
  }
  root = plan::MakeProject(std::move(root), std::move(exprs), std::move(out));
  HANA_RETURN_IF_ERROR(plan::PruneColumns(root.get()));
  return exec::ExecutePlanChunks(*root, ctx);
}

/// Every target with the ids of its rows that `predicate` (every row
/// when null) selects, found before any row changes. The first
/// predicate error in row order is returned.
Result<std::vector<Target>> FindTargets(const TableEntry& entry,
                                        extended::IqEngine* iq,
                                        exec::ExecContext* ctx,
                                        const plan::BoundExpr* predicate) {
  const std::vector<plan::ScanRange> ranges =
      predicate != nullptr ? plan::ExtractRanges(*predicate)
                           : std::vector<plan::ScanRange>{};
  HANA_ASSIGN_OR_RETURN(std::vector<Target> targets,
                        TargetsOf(entry, iq, ranges));
  for (Target& target : targets) {
    HANA_ASSIGN_OR_RETURN(
        std::vector<storage::Chunk> found,
        SearchTarget(entry, target, predicate, ranges, {}, ctx));
    for (const storage::Chunk& chunk : found) {
      const int64_t* ids = chunk.columns[0]->ints_data();
      target.rows.insert(target.rows.end(), ids, ids + chunk.num_rows());
    }
  }
  return targets;
}

/// The new images of rows `rows` of `table`: each row as stored (rows
/// never move, so the ids a search found read the same image), with
/// every assignment evaluated over the old images a chunk at a time.
/// The first error is returned: chunks in row order, within a chunk
/// the assignments in SET order, each naming its first failing row.
Result<std::vector<std::vector<Value>>> NewImages(
    const storage::ColumnTable& table, const std::vector<int64_t>& rows,
    const std::vector<std::pair<size_t, const plan::BoundExpr*>>&
        assignments) {
  std::shared_ptr<const storage::TableReadSnapshot> stored =
      table.OpenSnapshot();
  std::vector<std::vector<Value>> images;
  images.reserve(rows.size());
  for (size_t begin = 0; begin < rows.size();
       begin += storage::kDefaultChunkRows) {
    const size_t end = std::min(rows.size(), begin + storage::kDefaultChunkRows);
    storage::Chunk old = storage::Chunk::Empty(table.schema());
    for (size_t i = begin; i < end; ++i) {
      images.push_back(stored->GetRow(static_cast<size_t>(rows[i])));
      old.AppendRow(images.back());
    }
    for (const auto& [col, expr] : assignments) {
      HANA_ASSIGN_OR_RETURN(storage::ColumnVectorPtr values,
                            exec::EvalExprColumnAs(*expr, old, expr->type));
      for (size_t i = begin; i < end; ++i) {
        images[i][col] = values->GetValue(i - begin);
      }
    }
  }
  return images;
}

}  // namespace

Result<size_t> Catalog::DeleteWhere(const std::string& name,
                                    const plan::BoundExpr* predicate) {
  HANA_ASSIGN_OR_RETURN(TableEntry * entry, GetTable(name));
  HANA_ASSIGN_OR_RETURN(std::vector<Target> targets,
                        FindTargets(*entry, iq_, exec_, predicate));
  // Hot deletes first, staged (a claim conflict returns: all aborted);
  // the unversioned cold tombstones only then.
  storage::WriteSet writes;
  size_t deleted = 0;
  for (const Target& target : targets) {
    if (target.hot == nullptr) continue;
    for (int64_t r : target.rows) {
      HANA_RETURN_IF_ERROR(writes.Delete(target.hot, static_cast<size_t>(r)));
    }
    deleted += target.rows.size();
  }
  for (const Target& target : targets) {
    if (target.cold != nullptr) deleted += target.cold->DeleteRows(target.rows);
  }
  writes.Commit();
  return deleted;
}

Result<size_t> Catalog::UpdateWhere(
    const std::string& name, const plan::BoundExpr* predicate,
    const std::vector<std::pair<size_t, const plan::BoundExpr*>>&
        assignments) {
  HANA_ASSIGN_OR_RETURN(TableEntry * entry, GetTable(name));
  if (entry->kind == TableKind::kExtended) {
    return Status::Unimplemented(
        "UPDATE supports in-memory tables; use delete+insert for extended");
  }
  HANA_ASSIGN_OR_RETURN(std::vector<Target> targets,
                        FindTargets(*entry, iq_, exec_, predicate));
  // New images of every hot target, built before the first row changes.
  std::vector<std::vector<std::vector<Value>>> images(targets.size());
  for (size_t t = 0; t < targets.size(); ++t) {
    if (targets[t].hot == nullptr) continue;
    HANA_ASSIGN_OR_RETURN(
        images[t], NewImages(*targets[t].hot, targets[t].rows, assignments));
  }
  // Cold data is read-mostly by design: a statement that selects a cold
  // row fails before any hot row changes.
  for (const Target& target : targets) {
    if (target.cold != nullptr && !target.rows.empty()) {
      return Status::Unimplemented(
          "UPDATE of rows in cold partitions is not supported");
    }
  }
  // Each hot table stages deletes of its targets and appends their new
  // images; a claim conflict or an image failing the row check returns,
  // and the WriteSet aborts everything staged.
  storage::WriteSet writes;
  size_t updated = 0;
  for (size_t t = 0; t < targets.size(); ++t) {
    storage::ColumnTable* table = targets[t].hot;
    if (table == nullptr) continue;
    for (int64_t r : targets[t].rows) {
      HANA_RETURN_IF_ERROR(writes.Delete(table, static_cast<size_t>(r)));
    }
    HANA_RETURN_IF_ERROR(writes.Append(table, images[t]));
    updated += targets[t].rows.size();
  }
  writes.Commit();
  return updated;
}

Status Catalog::MergeDelta(const std::string& name,
                           const storage::MergeOptions& options) {
  HANA_ASSIGN_OR_RETURN(TableEntry * entry, GetTable(name));
  if (entry->kind == TableKind::kColumn) {
    return entry->column_table->MergeDelta(options);
  }
  if (entry->kind == TableKind::kHybrid) {
    // Fan the per-partition merges across the pool; each partition's
    // merge is itself online and per-column parallel. Statuses are
    // slotted by partition index so the reported (first) failure is
    // deterministic regardless of completion order.
    std::vector<storage::ColumnTable*> hot;
    for (Partition& p : entry->partitions) {
      if (p.hot != nullptr) hot.push_back(p.hot.get());
    }
    std::vector<Status> statuses(hot.size(), Status::OK());
    auto merge_one = [&](size_t i) { statuses[i] = hot[i]->MergeDelta(options); };
    if (options.parallel && hot.size() > 1) {
      TaskPool::Global().ParallelFor(hot.size(), merge_one,
                                     options.max_workers);
    } else {
      for (size_t i = 0; i < hot.size(); ++i) merge_one(i);
    }
    for (Status& status : statuses) {
      if (!status.ok()) return std::move(status);
    }
    return Status::OK();
  }
  return Status::InvalidArgument("MERGE DELTA applies to column tables");
}

Result<size_t> Catalog::RunAging(const std::string& name) {
  HANA_ASSIGN_OR_RETURN(TableEntry * entry, GetTable(name));
  if (entry->kind != TableKind::kHybrid) {
    return Status::InvalidArgument("aging applies to hybrid tables");
  }
  // Destination: the cold partition matching each row's range; rows
  // outside any cold range go to the first cold partition.
  int first_cold = -1;
  for (size_t i = 0; i < entry->partitions.size() && first_cold < 0; ++i) {
    if (entry->partitions[i].hot == nullptr) first_cold = static_cast<int>(i);
  }
  // Each hot partition is searched like a SELECT: for its flagged rows
  // (aging column) or for every row with its partition key, routed
  // here. The delete of every row that ages out is staged; a claim
  // conflict returns before any cold load, and the WriteSet aborts the
  // claims.
  const size_t key = static_cast<size_t>(entry->partition_column);
  plan::BoundExprPtr flagged;
  if (entry->aging_column >= 0) {
    const size_t flag = static_cast<size_t>(entry->aging_column);
    const ColumnDef& def = entry->schema->column(flag);
    flagged = plan::BoundExpr::Column(flag, def.type, def.name);
  }
  HANA_ASSIGN_OR_RETURN(std::vector<Target> targets,
                        TargetsOf(*entry, iq_, {}));
  storage::WriteSet writes;
  std::map<int, std::vector<std::vector<Value>>> routed;
  size_t moved = 0;
  for (const Target& target : targets) {
    if (target.hot == nullptr) continue;
    HANA_ASSIGN_OR_RETURN(
        std::vector<storage::Chunk> found,
        SearchTarget(*entry, target, flagged.get(), {}, {key}, exec_));
    std::shared_ptr<const storage::TableReadSnapshot> stored =
        target.hot->OpenSnapshot();
    for (const storage::Chunk& chunk : found) {
      for (size_t i = 0; i < chunk.num_rows(); ++i) {
        int part = PartitionIndexFor(*entry, chunk.columns[1]->GetValue(i));
        bool cold_target =
            part >= 0 &&
            entry->partitions[static_cast<size_t>(part)].hot == nullptr;
        if (flagged == nullptr && !cold_target) continue;
        if (first_cold < 0) {
          return Status::InvalidArgument("hybrid table has no cold partition");
        }
        const size_t r = static_cast<size_t>(chunk.columns[0]->GetInt(i));
        HANA_RETURN_IF_ERROR(writes.Delete(target.hot, r));
        routed[cold_target ? part : first_cold].push_back(stored->GetRow(r));
        ++moved;
      }
    }
  }
  // Load the moved rows into the unversioned cold partitions, then
  // commit the hot deletes (a failed load returns: they abort instead).
  for (auto& [part, batch] : routed) {
    HANA_ASSIGN_OR_RETURN(
        extended::ExtendedTable * cold,
        iq_->store()->GetTable(
            entry->partitions[static_cast<size_t>(part)].cold_table));
    HANA_RETURN_IF_ERROR(cold->BulkLoad(batch));
  }
  writes.Commit();
  return moved;
}

Result<plan::TableBinding> Catalog::ResolveTable(
    const std::string& name) const {
  MutexLock lock(mu_);
  std::string key = ToUpper(name);
  auto virt = virtual_tables_.find(key);
  if (virt != virtual_tables_.end()) {
    plan::TableBinding binding;
    binding.name = virt->second.name;
    binding.location = plan::TableLocation::kRemote;
    binding.source = virt->second.source;
    binding.remote_object = virt->second.remote_object;
    binding.schema = virt->second.schema;
    binding.estimated_rows = virt->second.estimated_rows;
    return binding;
  }
  auto it = tables_.find(key);
  if (it == tables_.end()) {
    return Status::NotFound("table not found: " + name);
  }
  const TableEntry& entry = *it->second;
  plan::TableBinding binding;
  binding.name = entry.name;
  binding.schema = entry.schema;
  binding.estimated_rows = static_cast<double>(entry.LiveRows(iq_));
  switch (entry.kind) {
    case TableKind::kColumn:
      binding.location = plan::TableLocation::kLocalColumn;
      break;
    case TableKind::kExtended:
      binding.location = plan::TableLocation::kExtended;
      binding.source = "EXTENDED";
      binding.remote_object = entry.extended_table;
      break;
    case TableKind::kHybrid:
      binding.location = plan::TableLocation::kHybrid;
      binding.source = "EXTENDED";
      break;
  }
  return binding;
}

Result<plan::TableFunctionBinding> Catalog::ResolveTableFunction(
    const std::string& name) const {
  HANA_ASSIGN_OR_RETURN(const VirtualFunctionEntry* entry,
                        GetVirtualFunction(name));
  plan::TableFunctionBinding binding;
  binding.name = entry->name;
  binding.source = entry->source;
  binding.configuration = entry->configuration;
  binding.schema = entry->schema;
  return binding;
}

}  // namespace hana::catalog
