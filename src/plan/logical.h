#ifndef HANA_PLAN_LOGICAL_H_
#define HANA_PLAN_LOGICAL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/schema.h"
#include "plan/bound_expr.h"

namespace hana::plan {

/// Where a scanned table physically lives. Drives the federation split
/// in the optimizer: kRemote scans belong to an SDA source (Hive,
/// another database), kExtended scans target the IQ-style disk store and
/// kHybrid tables expand into a union of hot + cold partition scans.
enum class TableLocation {
  kLocalColumn,
  kLocalRow,
  kExtended,
  kHybrid,
  kRemote,
};

/// Catalog resolution result for a named table.
struct TableBinding {
  std::string name;  // Catalog name as registered.
  TableLocation location = TableLocation::kLocalColumn;
  std::string source;         // Remote source (kRemote) or "" for local.
  std::string remote_object;  // Remote-side object, e.g. "dflo.product".
  std::shared_ptr<Schema> schema;  // Unqualified column names.
  /// Estimated row count from statistics (for costing); -1 if unknown.
  double estimated_rows = -1;
};

/// Catalog resolution result for a virtual (map-reduce) table function.
struct TableFunctionBinding {
  std::string name;
  std::string source;         // Remote source hosting the job.
  std::string configuration;  // Driver class, job files, ...
  std::shared_ptr<Schema> schema;
};

/// Interface the binder uses to resolve names; implemented by the
/// catalog module (kept abstract here to avoid a dependency cycle).
class BinderCatalog {
 public:
  virtual ~BinderCatalog() = default;
  [[nodiscard]] virtual Result<TableBinding> ResolveTable(const std::string& name) const = 0;
  [[nodiscard]] virtual Result<TableFunctionBinding> ResolveTableFunction(
      const std::string& name) const = 0;
};

enum class LogicalKind {
  kScan,
  kTableFunctionScan,
  kFilter,
  kProject,
  kJoin,
  kAggregate,
  kSort,
  kLimit,
  kUnion,
  kRemoteQuery,  // Installed by the optimizer's federation split.
};

enum class JoinKind { kInner, kLeft, kCross, kSemi, kAnti };

/// Role of an aggregate in the eager split through UNION ALL
/// (plan::SplitAggregateOverUnion): one pass over the input, a per-branch
/// partial, or the final aggregate that combines the partials.
enum class AggPhase { kSingle, kPartial, kFinal };

const char* JoinKindName(JoinKind kind);

struct LogicalOp;
using LogicalOpPtr = std::unique_ptr<LogicalOp>;

struct SortKey {
  BoundExprPtr expr;
  bool ascending = true;
};

/// Inclusive per-column bound pushed into a scan for zone-map / partition
/// pruning. Null values mean unbounded. `column` is a table column id
/// (the scan's schema before column pruning), not a position in the
/// scan's output: PartitionExcluded and the extended store's zone maps
/// index the table's own columns, and pruning leaves ranges untouched.
struct ScanRange {
  size_t column = 0;
  Value lower;
  Value upper;
};

/// One logical operator. Output column names in `schema` are qualified
/// ("alias.column") so that plan printing and remote SQL reconstruction
/// stay faithful.
struct LogicalOp {
  LogicalKind kind;
  std::shared_ptr<Schema> schema;
  std::vector<LogicalOpPtr> children;

  // kScan
  TableBinding table;
  std::string alias;
  /// For hybrid tables after partition expansion: which partition this
  /// scan covers (-1 = all).
  int partition_index = -1;
  /// Bounds pushed down for zone-map / partition pruning.
  std::vector<ScanRange> scan_ranges;
  /// Table column ids the scan decodes, in table order: output column i
  /// is table column scan_columns[i]. The binder lists every column;
  /// PruneColumns narrows the list to what the plan references, never
  /// below one column. Rendered by ToString as "[k/n cols]".
  std::vector<size_t> scan_columns;

  // kTableFunctionScan
  TableFunctionBinding function;

  // kFilter
  BoundExprPtr predicate;

  // kProject
  std::vector<BoundExprPtr> exprs;

  // kJoin: condition indexes the concatenated left++right schema.
  JoinKind join_kind = JoinKind::kInner;
  BoundExprPtr condition;
  /// NOT IN semantics for an anti join (its condition is the single
  /// equality outer = subquery column): a NULL in the subquery's column
  /// rejects every outer row, and when the subquery is non-empty an
  /// outer row with a NULL key is rejected too. NOT EXISTS anti joins
  /// leave this false. Rendered by ToString as "[null-aware]".
  bool null_aware = false;
  /// Hash-join build-side selection (optimizer, inner joins only): true
  /// when the LEFT child is the estimated-smaller side and should be
  /// built into the hash table while the right side probes. Output
  /// column order stays left++right either way.
  bool build_left = false;
  /// Perfect-hash nomination (optimizer, from build-side column stats):
  /// the single int64 equi key's domain [min, max] looks dense relative
  /// to the build row count, so the join build should attempt the
  /// direct-address layout (exec::RadixJoinTable). The executor still
  /// verifies density against the runtime key domain and falls back to
  /// the radix layout when the stats were stale.
  bool perfect_hash = false;
  /// Semijoin federation strategy (Figure 7): the left (local) side's
  /// distinct join keys are shipped into the remote query's WHERE as an
  /// IN-list before the remote child (a kRemoteQuery) executes.
  bool semijoin_pushdown = false;
  std::string pushdown_remote_column;  // Remote-side column for the IN-list.

  // kAggregate
  std::vector<BoundExprPtr> group_by;
  std::vector<BoundExprPtr> aggregates;  // kAggregate-kind expressions.
  /// Radix partition count the optimizer chose for the two-phase
  /// parallel aggregation sink from group-cardinality stats (0 = not
  /// chosen; the executor falls back to its default). Rendered by
  /// ToString as a "[partitioned-agg x<n>]" suffix for EXPLAIN.
  int agg_partitions = 0;
  /// Rendered by ToString as "[partial]" / "[final]".
  AggPhase agg_phase = AggPhase::kSingle;

  // kSort
  std::vector<SortKey> sort_keys;

  // kLimit
  int64_t limit = -1;

  // kRemoteQuery: a shipped subplan. The SQL may contain the
  /// "/*PUSHDOWN*/" marker where a semijoin IN-list is spliced in, or
  /// reference `relocation_table` (Table Relocation strategy) that the
  /// executor first populates from children[0]'s local rows.
  std::string remote_source;
  std::string remote_sql;
  bool use_remote_cache = false;
  /// True when the shipped subtree applies any predicate (filter, join
  /// condition or pushed range): the remote cache only materializes
  /// queries with predicates (Section 4.4).
  bool remote_has_predicate = false;
  bool relocate_local_child = false;
  std::string relocation_table;
  double estimated_rows = -1;

  /// Pipeline this operator was assigned to by the push-based executor's
  /// plan decomposition (exec::AnnotatePipelines); -1 = not annotated.
  /// Printed by ToString as a "[P<n>]" suffix for EXPLAIN.
  int pipeline_id = -1;

  /// Pretty-printed plan tree (EXPLAIN output).
  std::string ToString(int indent = 0) const;
};

/// One pipeline of the push-based executor's dependency DAG, reported
/// back to the plan layer so EXPLAIN can render the schedule without
/// the optimizer depending on exec.
struct PipelineSummary {
  int id = 0;
  std::vector<int> deps;    // Pipelines that must finish first.
  std::string description;  // "scan lineitem -> probe -> aggregate".
};

/// Convenience constructors.
LogicalOpPtr MakeFilter(LogicalOpPtr child, BoundExprPtr predicate);
LogicalOpPtr MakeProject(LogicalOpPtr child, std::vector<BoundExprPtr> exprs,
                         std::shared_ptr<Schema> schema);
LogicalOpPtr MakeLimit(LogicalOpPtr child, int64_t limit);

}  // namespace hana::plan

#endif  // HANA_PLAN_LOGICAL_H_
