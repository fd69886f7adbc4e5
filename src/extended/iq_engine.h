#ifndef HANA_EXTENDED_IQ_ENGINE_H_
#define HANA_EXTENDED_IQ_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/operators.h"
#include "extended/extended_store.h"
#include "plan/logical.h"

namespace hana::extended {

/// Zone-map constraints from plan ranges (same column indexes).
std::vector<ColumnRange> ToColumnRanges(
    const std::vector<plan::ScanRange>& ranges);

/// The query processor of the IQ-style engine. HANA ships subplans to it
/// as SQL text ("function shipping to the extended storage", Section
/// 3.1); the engine parses, binds and executes them over the disk store
/// with zone-map pruning. It is completely shielded by the platform —
/// never exposed to applications directly.
class IqEngine : public plan::BinderCatalog, public exec::ExecContext {
 public:
  explicit IqEngine(ExtendedStore* store) : store_(store) {}

  /// Executes a SELECT against the extended store.
  [[nodiscard]] Result<storage::Table> ExecuteSql(const std::string& sql);

  /// Creates + populates a table (used for cold partitions, the Table
  /// Relocation strategy and the direct bulk-load path).
  [[nodiscard]] Status CreateAndLoad(const std::string& name,
                       std::shared_ptr<Schema> schema,
                       const std::vector<std::vector<Value>>& rows);

  ExtendedStore* store() const { return store_; }

  // BinderCatalog:
  [[nodiscard]] Result<plan::TableBinding> ResolveTable(
      const std::string& name) const override;
  [[nodiscard]] Result<plan::TableFunctionBinding> ResolveTableFunction(
      const std::string& name) const override;

  // ExecContext:
  [[nodiscard]] Result<exec::ChunkSource> OpenScan(
      const plan::LogicalOp& scan, const mvcc::ReadView& view) override;
  [[nodiscard]] Result<exec::ChunkSource> OpenRemoteQuery(
      const plan::LogicalOp& rq, const exec::PushdownInList* in_list,
      const storage::Table* relocated_rows) override;
  [[nodiscard]] Result<exec::ChunkSource> OpenTableFunction(
      const plan::LogicalOp& fn) override;

 private:
  ExtendedStore* store_;
};

}  // namespace hana::extended

#endif  // HANA_EXTENDED_IQ_ENGINE_H_
