#ifndef HANA_CATALOG_CATALOG_H_
#define HANA_CATALOG_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/sync.h"
#include "exec/operators.h"
#include "extended/iq_engine.h"
#include "plan/bound_expr.h"
#include "plan/logical.h"
#include "sql/ast.h"
#include "storage/column_table.h"

namespace hana::catalog {

enum class TableKind { kColumn, kExtended, kHybrid };

/// One partition of a hybrid table (Section 3.1 "Extension on Table and
/// Partition level"): hot partitions are in-memory column stores, cold
/// partitions live as tables in the extended (IQ) store.
struct Partition {
  sql::PartitionDef def;
  std::unique_ptr<storage::ColumnTable> hot;  // Set when !def.cold.
  std::string cold_table;                     // Extended-store table name.
};

/// Metadata + storage handles for one catalog table.
class TableEntry {
 public:
  std::string name;
  TableKind kind = TableKind::kColumn;
  bool flexible = false;
  std::shared_ptr<Schema> schema;

  std::unique_ptr<storage::ColumnTable> column_table;  // kColumn.
  std::string extended_table;                          // kExtended.

  // kHybrid:
  int partition_column = -1;
  std::vector<Partition> partitions;
  int aging_column = -1;

  /// Live rows across all storage locations.
  size_t LiveRows(const extended::IqEngine* iq) const;

  /// The partition-pruning rule, shared by the optimizer's union plan
  /// and catalog DML: true when hybrid partition `index` can hold no
  /// row satisfying `ranges` (plan::ExtractRanges of a predicate bound
  /// against this table's schema). Only partitions whose contents are
  /// bound to their declared range qualify: cold partitions of tables
  /// without an aging column. A hot partition keeps an UPDATEd row
  /// whose key left its range until RunAging moves it, and flag-based
  /// aging parks rows in the first cold partition whatever their key,
  /// so neither is ever skipped.
  bool PartitionExcluded(size_t index,
                         const std::vector<plan::ScanRange>& ranges) const;
};

/// Registered SDA remote source (CREATE REMOTE SOURCE ...).
struct RemoteSourceEntry {
  std::string name;
  std::string adapter;
  std::string configuration;
  std::string user;
  std::string password;
};

/// Registered virtual table (CREATE VIRTUAL TABLE ... AT src.db.table).
struct VirtualTableEntry {
  std::string name;
  std::string source;
  std::string remote_object;
  std::shared_ptr<Schema> schema;
  double estimated_rows = -1;
};

/// Registered virtual (map-reduce) function.
struct VirtualFunctionEntry {
  std::string name;
  std::string source;
  std::string configuration;
  std::shared_ptr<Schema> schema;
};

/// The HANA catalog: single point of metadata control for local tables,
/// hybrid tables spanning the extended store, and SDA remote objects.
/// Implements the binder's name-resolution interface.
class Catalog : public plan::BinderCatalog {
 public:
  /// `iq` may be null when no extended storage is attached. DML runs
  /// its target searches on `exec`, the platform hosting the catalog.
  Catalog(extended::IqEngine* iq, exec::ExecContext* exec)
      : iq_(iq), exec_(exec) {}

  extended::IqEngine* iq() const { return iq_; }

  // ---- DDL -------------------------------------------------------------
  [[nodiscard]] Status CreateTable(const sql::CreateTableStmt& stmt);
  [[nodiscard]] Status DropTable(const std::string& name, bool if_exists);
  [[nodiscard]] Result<TableEntry*> GetTable(const std::string& name);
  [[nodiscard]] Result<const TableEntry*> GetTable(const std::string& name) const;
  bool HasTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  // ---- Remote metadata ---------------------------------------------------
  [[nodiscard]] Status AddRemoteSource(RemoteSourceEntry entry);
  [[nodiscard]] Result<const RemoteSourceEntry*> GetRemoteSource(
      const std::string& name) const;
  [[nodiscard]] Status AddVirtualTable(VirtualTableEntry entry);
  [[nodiscard]] Status AddVirtualFunction(VirtualFunctionEntry entry);
  [[nodiscard]] Result<const VirtualFunctionEntry*> GetVirtualFunction(
      const std::string& name) const;

  // ---- DML ---------------------------------------------------------------
  // A statement's column-table changes are staged in one
  // storage::WriteSet and committed at one timestamp, or aborted as a
  // whole on any error. Cold partitions are not versioned and are
  // touched only after every hot change is staged. UPDATE, DELETE and
  // aging search each target partition pruning keeps with one Scan ->
  // Filter -> Project(row id) plan on `exec`, at its read lease.

  /// Routes rows to the right storage (partition-aware for hybrid
  /// tables; direct load into the extended store for extended tables —
  /// the paper's "direct load mechanism").
  [[nodiscard]] Status Insert(const std::string& name,
                const std::vector<std::vector<Value>>& rows);

  /// Insert with explicit column names; for flexible tables unknown
  /// columns extend the schema on the fly (Section 1 "flexible tables").
  [[nodiscard]] Status InsertNamed(const std::string& name,
                     const std::vector<std::string>& columns,
                     const std::vector<std::vector<Value>>& rows);

  /// Deletes rows matching `predicate` (bound against the table schema;
  /// null = every row). Partitions PartitionExcluded skips are not
  /// visited; cold row groups are pruned by zone map. Every target is
  /// found before any row is deleted, so a predicate error (the first in
  /// row order) leaves the table unchanged; so does a target another
  /// writer has claimed.
  [[nodiscard]] Result<size_t> DeleteWhere(const std::string& name,
                                           const plan::BoundExpr* predicate);

  /// Updates rows matching `predicate`: assignment exprs are bound
  /// against the table schema. Returns rows updated. Finds targets like
  /// DeleteWhere, then evaluates every assignment over the targets'
  /// images before the first row changes: predicate errors come first,
  /// then assignment errors. Rows of cold partitions cannot be updated.
  [[nodiscard]] Result<size_t> UpdateWhere(
      const std::string& name, const plan::BoundExpr* predicate,
      const std::vector<std::pair<size_t, const plan::BoundExpr*>>&
          assignments);

  /// Merges the table's (or, for hybrid tables, every hot partition's)
  /// column deltas into their mains — online, per the ColumnTable merge
  /// protocol. Hybrid partitions are fanned out across the task pool
  /// when `options.parallel`. Returns the first table-level failure
  /// (e.g. Unavailable when a merge is already in flight).
  [[nodiscard]] Status MergeDelta(const std::string& name,
                                  const storage::MergeOptions& options = {});

  // ---- Aging ---------------------------------------------------------------
  /// The built-in aging mechanism: moves rows from hot partitions into
  /// cold (extended-store) partitions. Flag-based when the table has an
  /// aging column (rows with a truthy flag age out), otherwise rows are
  /// re-evaluated against the partition ranges. Returns rows moved.
  /// The hot deletes commit only after every cold load succeeded.
  [[nodiscard]] Result<size_t> RunAging(const std::string& name);

  // ---- Binder interface ------------------------------------------------
  [[nodiscard]] Result<plan::TableBinding> ResolveTable(
      const std::string& name) const override;
  [[nodiscard]] Result<plan::TableFunctionBinding> ResolveTableFunction(
      const std::string& name) const override;

 private:
  int PartitionIndexFor(const TableEntry& entry, const Value& v) const;
  [[nodiscard]] Status InsertHybrid(TableEntry* entry,
                      const std::vector<std::vector<Value>>& rows);
  std::string ColdTableName(const TableEntry& entry, size_t partition) const;

  extended::IqEngine* iq_;
  exec::ExecContext* exec_;

  /// Guards the *structure* of the four metadata maps (insert, erase,
  /// lookup). Entry contents — table data behind the returned
  /// TableEntry*, schema extension on flexible tables — follow the
  /// storage layer's writer-vs-reader contract and stay externally
  /// synchronized. Outermost lock (rank catalog.map = 10): name
  /// resolution happens before any engine lock, and it is held across
  /// nested extended-store calls in DDL but never across DML applies,
  /// merges, or task-pool waits.
  mutable Mutex mu_{"catalog.map", lock_rank::kCatalog};
  std::map<std::string, std::unique_ptr<TableEntry>> tables_ GUARDED_BY(mu_);
  std::map<std::string, RemoteSourceEntry> remote_sources_ GUARDED_BY(mu_);
  std::map<std::string, VirtualTableEntry> virtual_tables_ GUARDED_BY(mu_);
  std::map<std::string, VirtualFunctionEntry> virtual_functions_
      GUARDED_BY(mu_);
};

}  // namespace hana::catalog

#endif  // HANA_CATALOG_CATALOG_H_
