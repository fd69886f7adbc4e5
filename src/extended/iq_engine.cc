#include "extended/iq_engine.h"

#include "plan/binder.h"
#include "plan/rewrites.h"
#include "sql/parser.h"

namespace hana::extended {

Result<storage::Table> IqEngine::ExecuteSql(const std::string& sql) {
  HANA_ASSIGN_OR_RETURN(auto select, sql::ParseSelect(sql));
  HANA_ASSIGN_OR_RETURN(plan::LogicalOpPtr logical,
                        plan::BindSelectStatement(*this, *select));
  HANA_RETURN_IF_ERROR(plan::PushDownFilters(&logical));
  plan::PushScanRanges(logical.get());
  HANA_RETURN_IF_ERROR(plan::PruneColumns(logical.get()));
  return exec::ExecutePlan(*logical, this);
}

Status IqEngine::CreateAndLoad(const std::string& name,
                               std::shared_ptr<Schema> schema,
                               const std::vector<std::vector<Value>>& rows) {
  if (store_->HasTable(name)) {
    HANA_RETURN_IF_ERROR(store_->DropTable(name));
  }
  HANA_ASSIGN_OR_RETURN(ExtendedTable * table,
                        store_->CreateTable(name, std::move(schema)));
  return table->BulkLoad(rows);
}

Result<plan::TableBinding> IqEngine::ResolveTable(
    const std::string& name) const {
  HANA_ASSIGN_OR_RETURN(ExtendedTable * table, store_->GetTable(name));
  plan::TableBinding binding;
  binding.name = table->name();
  binding.location = plan::TableLocation::kExtended;
  binding.schema = table->schema();
  binding.estimated_rows = static_cast<double>(table->live_rows());
  return binding;
}

Result<plan::TableFunctionBinding> IqEngine::ResolveTableFunction(
    const std::string& name) const {
  return Status::NotFound("IQ engine has no table function " + name);
}

std::vector<ColumnRange> ToColumnRanges(
    const std::vector<plan::ScanRange>& ranges) {
  std::vector<ColumnRange> out;
  out.reserve(ranges.size());
  for (const plan::ScanRange& r : ranges) {
    out.push_back(ColumnRange{r.column, r.lower, r.upper});
  }
  return out;
}

Result<exec::PartitionSource> IqEngine::OpenScan(const plan::LogicalOp& scan,
                                                 size_t morsel_rows,
                                                 const mvcc::ReadView& view) {
  (void)morsel_rows;  // One morsel: row groups stream in order.
  (void)view;         // The extended store is not versioned.
  HANA_ASSIGN_OR_RETURN(ExtendedTable * table,
                        store_->GetTable(scan.table.name));
  // Streams straight from the store, which charges virtual I/O per
  // block as the consumer reaches it. Up to dop_ - 1 later row groups
  // are read ahead but not charged, so a consumer that stops early
  // leaves the later groups uncharged and uncached.
  return exec::OneMorsel([this, table, &scan](const exec::ChunkSink& sink) {
    return table->Scan(ToColumnRanges(scan.scan_ranges),
                       storage::kDefaultChunkRows, scan.scan_columns,
                       scan.schema, sink, dop_);
  });
}

Result<exec::ChunkSource> IqEngine::OpenRemoteQuery(
    const plan::LogicalOp& rq, const exec::PushdownInList* in_list,
    const storage::Table* relocated_rows) {
  (void)rq;
  (void)in_list;
  (void)relocated_rows;
  return Status::Internal("IQ engine cannot ship queries further");
}

Result<exec::ChunkSource> IqEngine::OpenTableFunction(
    const plan::LogicalOp& fn) {
  (void)fn;
  return Status::Internal("IQ engine has no table functions");
}

}  // namespace hana::extended
