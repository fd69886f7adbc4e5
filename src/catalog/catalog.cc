#include "catalog/catalog.h"

#include <algorithm>
#include <functional>

#include "common/strings.h"
#include "common/task_pool.h"
#include "exec/evaluator.h"
#include "exec/pipeline.h"
#include "plan/rewrites.h"

namespace hana::catalog {

size_t TableEntry::LiveRows(const extended::IqEngine* iq) const {
  switch (kind) {
    case TableKind::kColumn:
      return column_table->live_rows();
    case TableKind::kRow:
      return row_table->live_rows();
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
    case sql::StorageKind::kColumn:
      entry->kind = TableKind::kColumn;
      entry->column_table =
          std::make_unique<storage::ColumnTable>(entry->schema);
      break;
    case sql::StorageKind::kRow:
      entry->kind = TableKind::kRow;
      entry->row_table = std::make_unique<storage::RowTable>(entry->schema);
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
    if (row.size() != entry->schema->num_columns()) {
      return Status::InvalidArgument("row arity mismatch");
    }
    int part = PartitionIndexFor(
        *entry, row[static_cast<size_t>(entry->partition_column)]);
    if (part < 0) {
      return Status::InvalidArgument(
          "no partition accepts value " +
          row[static_cast<size_t>(entry->partition_column)].ToString());
    }
    routed[part].push_back(row);
  }
  for (auto& [part, batch] : routed) {
    Partition& partition = entry->partitions[static_cast<size_t>(part)];
    if (partition.hot != nullptr) {
      HANA_RETURN_IF_ERROR(partition.hot->AppendRows(batch));
    } else {
      HANA_ASSIGN_OR_RETURN(extended::ExtendedTable * cold,
                            iq_->store()->GetTable(partition.cold_table));
      HANA_RETURN_IF_ERROR(cold->BulkLoad(batch));
    }
  }
  return Status::OK();
}

Status Catalog::Insert(const std::string& name,
                       const std::vector<std::vector<Value>>& rows) {
  HANA_ASSIGN_OR_RETURN(TableEntry * entry, GetTable(name));
  switch (entry->kind) {
    case TableKind::kColumn:
      return entry->column_table->AppendRows(rows);
    case TableKind::kRow: {
      for (const auto& row : rows) {
        HANA_RETURN_IF_ERROR(entry->row_table->AppendRow(row));
      }
      return Status::OK();
    }
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

  // Flexible tables extend their schema on the fly: unknown columns are
  // added with a type inferred from the first non-null value.
  for (size_t c = 0; c < columns.size(); ++c) {
    if (entry->schema->FindColumn(columns[c]) >= 0) continue;
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
      if (c < row.size() && !row[c].is_null()) {
        type = row[c].type();
        break;
      }
    }
    ColumnDef def{columns[c], type, true};
    HANA_RETURN_IF_ERROR(entry->column_table->AddColumn(def));
  }
  // Build full-width rows in schema order.
  std::vector<std::vector<Value>> full;
  full.reserve(rows.size());
  for (const auto& row : rows) {
    if (row.size() != columns.size()) {
      return Status::InvalidArgument("row arity mismatch");
    }
    std::vector<Value> out(entry->schema->num_columns(), Value::Null());
    for (size_t c = 0; c < columns.size(); ++c) {
      HANA_ASSIGN_OR_RETURN(size_t idx,
                            entry->schema->ColumnIndex(columns[c]));
      out[idx] = row[c];
    }
    full.push_back(std::move(out));
  }
  return Insert(name, full);
}

namespace {

/// Where one DML statement's target rows are, collected before any row
/// changes.
struct DmlTargets {
  struct Hot {
    storage::ColumnTable* table;
    std::vector<size_t> rows;
  };
  struct Cold {
    extended::ExtendedTable* table;
    std::vector<extended::ExtendedTable::RowRef> rows;
  };
  std::vector<Hot> hot;
  std::vector<Cold> cold;
};

/// Finds the rows of a column, extended or hybrid table that
/// `predicate` (every row when null) selects, skipping the partitions
/// PartitionExcluded rules out. Hot rows come from one latest-view
/// snapshot scan, chunk by chunk through exec::SelectRows, decoding
/// only the columns the predicate reads (the first column when it
/// reads none, so chunks still count rows); cold rows from
/// zone-map-pruned row groups. `on_hot_match` (when set) runs on the
/// full image of every hot hit in row order. The first predicate or
/// `on_hot_match` error in row order is returned.
Result<DmlTargets> CollectTargets(
    const TableEntry& entry, extended::IqEngine* iq,
    const plan::BoundExpr* predicate,
    const std::function<Status(const std::vector<Value>&)>& on_hot_match) {
  auto select = [](const plan::BoundExpr* pred, const storage::Chunk& chunk,
                   std::vector<uint8_t>* mask) -> Status {
    if (pred == nullptr) {
      mask->assign(chunk.num_rows(), 1);
      return Status::OK();
    }
    return exec::SelectRows(*pred, chunk, mask);
  };
  const std::vector<plan::ScanRange> ranges =
      predicate != nullptr ? plan::ExtractRanges(*predicate)
                           : std::vector<plan::ScanRange>{};
  // The hot-side projection: the predicate's columns, and the predicate
  // rebound to their positions.
  std::vector<size_t> columns;
  if (predicate != nullptr) predicate->CollectColumns(&columns);
  std::sort(columns.begin(), columns.end());
  columns.erase(std::unique(columns.begin(), columns.end()), columns.end());
  if (columns.empty()) columns.push_back(0);
  auto projected_schema = std::make_shared<Schema>();
  std::vector<int> mapping(entry.schema->num_columns(), -1);
  for (size_t i = 0; i < columns.size(); ++i) {
    mapping[columns[i]] = static_cast<int>(i);
    projected_schema->AddColumn(entry.schema->column(columns[i]));
  }
  plan::BoundExprPtr projected;
  if (predicate != nullptr) {
    projected = predicate->Clone();
    HANA_RETURN_IF_ERROR(plan::RemapColumns(projected.get(), mapping));
  }
  DmlTargets targets;
  auto add_hot = [&](storage::ColumnTable* table) -> Status {
    DmlTargets::Hot hot{table, {}};
    Status status;
    std::vector<uint8_t> mask;
    std::shared_ptr<const storage::TableReadSnapshot> snapshot =
        table->OpenLatestSnapshot();
    snapshot->ScanWithRowIds(
        storage::kDefaultChunkRows, columns, projected_schema,
        [&](const storage::Chunk& chunk, const std::vector<size_t>& row_ids) {
          // On a predicate error the mask holds the rows before the
          // failing one; an on_hot_match error among them comes first.
          Status selected = select(projected.get(), chunk, &mask);
          for (size_t r = 0; r < mask.size() && status.ok(); ++r) {
            if (mask[r] == 0) continue;
            hot.rows.push_back(row_ids[r]);
            if (on_hot_match) {
              status = on_hot_match(snapshot->GetRow(row_ids[r]));
            }
          }
          if (status.ok()) status = std::move(selected);
          return status.ok();
        });
    HANA_RETURN_IF_ERROR(status);
    targets.hot.push_back(std::move(hot));
    return Status::OK();
  };
  auto add_cold = [&](const std::string& name) -> Status {
    HANA_ASSIGN_OR_RETURN(extended::ExtendedTable * table,
                          iq->store()->GetTable(name));
    HANA_ASSIGN_OR_RETURN(
        std::vector<extended::ExtendedTable::RowRef> rows,
        table->MatchRows(extended::ToColumnRanges(ranges),
                         [&](const storage::Chunk& chunk,
                             std::vector<uint8_t>* mask) {
                           return select(predicate, chunk, mask);
                         }));
    targets.cold.push_back(DmlTargets::Cold{table, std::move(rows)});
    return Status::OK();
  };
  switch (entry.kind) {
    case TableKind::kColumn:
      HANA_RETURN_IF_ERROR(add_hot(entry.column_table.get()));
      break;
    case TableKind::kExtended:
      HANA_RETURN_IF_ERROR(add_cold(entry.extended_table));
      break;
    case TableKind::kHybrid:
      for (size_t i = 0; i < entry.partitions.size(); ++i) {
        if (entry.PartitionExcluded(i, ranges)) continue;
        const Partition& p = entry.partitions[i];
        HANA_RETURN_IF_ERROR(p.hot != nullptr ? add_hot(p.hot.get())
                                              : add_cold(p.cold_table));
      }
      break;
    case TableKind::kRow:
      return Status::Internal("row tables take the row-at-a-time DML path");
  }
  return targets;
}

/// Row tables store boxed rows, so their DML stays row-at-a-time:
/// indexes of the live rows `predicate` (every row when null) selects,
/// with `on_match` (when set) run on each in row order.
Result<std::vector<size_t>> MatchRowTable(
    const storage::RowTable& table, const plan::BoundExpr* predicate,
    const std::function<Status(const std::vector<Value>&)>& on_match) {
  std::vector<size_t> hits;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (table.IsDeleted(r)) continue;
    const std::vector<Value>& row = table.GetRow(r);
    if (predicate != nullptr) {
      HANA_ASSIGN_OR_RETURN(Value keep, exec::EvalExprRow(*predicate, row));
      if (keep.is_null() || !exec::IsTruthy(keep)) continue;
    }
    hits.push_back(r);
    if (on_match) HANA_RETURN_IF_ERROR(on_match(row));
  }
  return hits;
}

}  // namespace

Result<size_t> Catalog::DeleteWhere(const std::string& name,
                                    const plan::BoundExpr& predicate) {
  HANA_ASSIGN_OR_RETURN(TableEntry * entry, GetTable(name));
  if (entry->kind == TableKind::kRow) {
    HANA_ASSIGN_OR_RETURN(
        std::vector<size_t> hits,
        MatchRowTable(*entry->row_table, &predicate, nullptr));
    for (size_t r : hits) HANA_RETURN_IF_ERROR(entry->row_table->DeleteRow(r));
    return hits.size();
  }
  HANA_ASSIGN_OR_RETURN(DmlTargets targets,
                        CollectTargets(*entry, iq_, &predicate, nullptr));
  size_t deleted = 0;
  for (const DmlTargets::Hot& hot : targets.hot) {
    for (size_t r : hot.rows) HANA_RETURN_IF_ERROR(hot.table->DeleteRow(r));
    deleted += hot.rows.size();
  }
  for (const DmlTargets::Cold& cold : targets.cold) {
    deleted += cold.table->DeleteRows(cold.rows);
  }
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
  // New images of every target, built before the first row changes.
  std::vector<std::vector<Value>> images;
  auto add_image = [&](const std::vector<Value>& row) -> Status {
    std::vector<Value> image = row;
    for (const auto& [col, expr] : assignments) {
      HANA_ASSIGN_OR_RETURN(image[col], exec::EvalExprRow(*expr, row));
    }
    images.push_back(std::move(image));
    return Status::OK();
  };
  if (entry->kind == TableKind::kRow) {
    storage::RowTable* table = entry->row_table.get();
    HANA_ASSIGN_OR_RETURN(std::vector<size_t> hits,
                          MatchRowTable(*table, predicate, add_image));
    for (size_t i = 0; i < hits.size(); ++i) {
      HANA_RETURN_IF_ERROR(table->UpdateRow(hits[i], std::move(images[i])));
    }
    return hits.size();
  }
  HANA_ASSIGN_OR_RETURN(
      DmlTargets targets,
      CollectTargets(*entry, iq_, predicate, add_image));
  // Cold data is read-mostly by design: a statement that selects a cold
  // row fails before any hot row changes.
  for (const DmlTargets::Cold& cold : targets.cold) {
    if (!cold.rows.empty()) {
      return Status::Unimplemented(
          "UPDATE of rows in cold partitions is not supported");
    }
  }
  size_t updated = 0;
  for (const DmlTargets::Hot& hot : targets.hot) {
    for (size_t r : hot.rows) {
      HANA_RETURN_IF_ERROR(hot.table->UpdateRow(r, images[updated++]));
    }
  }
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
  size_t moved = 0;
  for (Partition& p : entry->partitions) {
    if (p.hot == nullptr) continue;
    std::vector<size_t> to_move;
    std::vector<std::vector<Value>> rows;
    for (size_t r = 0; r < p.hot->num_rows(); ++r) {
      if (!p.hot->IsVisibleLatest(r)) continue;
      std::vector<Value> row = p.hot->GetRow(r);
      bool age;
      if (entry->aging_column >= 0) {
        const Value& flag = row[static_cast<size_t>(entry->aging_column)];
        age = !flag.is_null() && exec::IsTruthy(flag);
      } else {
        int part = PartitionIndexFor(
            *entry, row[static_cast<size_t>(entry->partition_column)]);
        age = part >= 0 &&
              entry->partitions[static_cast<size_t>(part)].hot == nullptr;
      }
      if (age) {
        to_move.push_back(r);
        rows.push_back(std::move(row));
      }
    }
    if (rows.empty()) continue;
    // Destination: the cold partition matching each row's range; rows
    // outside any cold range go to the first cold partition.
    int first_cold = -1;
    for (size_t i = 0; i < entry->partitions.size(); ++i) {
      if (entry->partitions[i].hot == nullptr) {
        first_cold = static_cast<int>(i);
        break;
      }
    }
    if (first_cold < 0) {
      return Status::InvalidArgument("hybrid table has no cold partition");
    }
    std::map<int, std::vector<std::vector<Value>>> routed;
    for (auto& row : rows) {
      int part = PartitionIndexFor(
          *entry, row[static_cast<size_t>(entry->partition_column)]);
      bool cold_target =
          part >= 0 && entry->partitions[static_cast<size_t>(part)].hot ==
                           nullptr;
      routed[cold_target ? part : first_cold].push_back(std::move(row));
    }
    for (auto& [part, batch] : routed) {
      HANA_ASSIGN_OR_RETURN(
          extended::ExtendedTable * cold,
          iq_->store()->GetTable(
              entry->partitions[static_cast<size_t>(part)].cold_table));
      HANA_RETURN_IF_ERROR(cold->BulkLoad(batch));
    }
    for (size_t r : to_move) {
      HANA_RETURN_IF_ERROR(p.hot->DeleteRow(r));
    }
    moved += to_move.size();
  }
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
    case TableKind::kRow:
      binding.location = plan::TableLocation::kLocalRow;
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
