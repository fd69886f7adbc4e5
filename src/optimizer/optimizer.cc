#include "optimizer/optimizer.h"

#include <algorithm>

#include "common/strings.h"
#include "optimizer/plan_to_sql.h"
#include "plan/join_analysis.h"
#include "plan/rewrites.h"
#include "sql/ast.h"

namespace hana::optimizer {

namespace {

using plan::BoundExpr;
using plan::BoundKind;
using plan::JoinKind;
using plan::LogicalKind;
using plan::LogicalOp;
using plan::LogicalOpPtr;
using plan::TableLocation;

// ---------------------------------------------------------------------
// Cardinality estimation (coarse heuristics; histograms refine scans).
// ---------------------------------------------------------------------

double EstimateRowsImpl(const LogicalOp& op) {
  switch (op.kind) {
    case LogicalKind::kScan:
      return op.table.estimated_rows >= 0 ? op.table.estimated_rows : 1000.0;
    case LogicalKind::kFilter: {
      double child = EstimateRowsImpl(*op.children[0]);
      // Equality filters are assumed more selective than ranges.
      bool has_eq = op.predicate->kind == BoundKind::kBinary &&
                    op.predicate->binary_op ==
                        static_cast<int>(sql::BinaryOp::kEq);
      return std::max(1.0, child * (has_eq ? 0.05 : 0.3));
    }
    case LogicalKind::kProject:
      return op.children.empty() ? 1.0 : EstimateRowsImpl(*op.children[0]);
    case LogicalKind::kJoin: {
      double left = EstimateRowsImpl(*op.children[0]);
      double right = EstimateRowsImpl(*op.children[1]);
      switch (op.join_kind) {
        case JoinKind::kSemi:
        case JoinKind::kAnti:
          return std::max(1.0, left * 0.5);
        case JoinKind::kCross:
          return left * right;
        default:
          return std::max(left, right);
      }
    }
    case LogicalKind::kAggregate:
      return op.group_by.empty()
                 ? 1.0
                 : std::max(1.0, EstimateRowsImpl(*op.children[0]) * 0.1);
    case LogicalKind::kSort:
      return EstimateRowsImpl(*op.children[0]);
    case LogicalKind::kLimit:
      return std::min(static_cast<double>(op.limit),
                      EstimateRowsImpl(*op.children[0]));
    case LogicalKind::kUnion: {
      double total = 0;
      for (const auto& c : op.children) total += EstimateRowsImpl(*c);
      return total;
    }
    case LogicalKind::kRemoteQuery:
      return op.estimated_rows >= 0 ? op.estimated_rows : 1000.0;
    default:
      return 1000.0;
  }
}

// ---------------------------------------------------------------------
// Hybrid table expansion (Union Plan) + partition pruning.
// ---------------------------------------------------------------------

Status ExpandHybridScans(LogicalOpPtr* node, const catalog::Catalog* cat) {
  LogicalOp* op = node->get();
  for (auto& child : op->children) {
    HANA_RETURN_IF_ERROR(ExpandHybridScans(&child, cat));
  }
  if (op->kind != LogicalKind::kScan ||
      op->table.location != TableLocation::kHybrid) {
    return Status::OK();
  }
  if (cat == nullptr) {
    return Status::Internal("hybrid scan requires catalog access");
  }
  HANA_ASSIGN_OR_RETURN(const catalog::TableEntry* entry,
                        cat->GetTable(op->table.name));
  auto union_op = std::make_unique<LogicalOp>();
  union_op->kind = LogicalKind::kUnion;
  union_op->schema = op->schema;
  for (size_t i = 0; i < entry->partitions.size(); ++i) {
    const catalog::Partition& partition = entry->partitions[i];
    auto scan = std::make_unique<LogicalOp>();
    scan->kind = LogicalKind::kScan;
    scan->schema = op->schema;
    scan->alias = op->alias;
    scan->partition_index = static_cast<int>(i);
    scan->table = op->table;
    scan->scan_columns = op->scan_columns;
    if (partition.hot != nullptr) {
      scan->table.location = TableLocation::kLocalColumn;
      scan->table.estimated_rows =
          static_cast<double>(partition.hot->live_rows());
    } else {
      scan->table.location = TableLocation::kExtended;
      scan->table.source = "EXTENDED";
      scan->table.name = partition.cold_table;
      scan->table.remote_object = partition.cold_table;
      if (cat->iq() != nullptr) {
        Result<extended::ExtendedTable*> cold =
            cat->iq()->store()->GetTable(partition.cold_table);
        if (cold.ok()) {
          scan->table.estimated_rows =
              static_cast<double>((*cold)->live_rows());
        }
      }
    }
    union_op->children.push_back(std::move(scan));
  }
  *node = std::move(union_op);
  return Status::OK();
}

Status PrunePartitions(LogicalOpPtr* node, const catalog::Catalog* cat) {
  LogicalOp* op = node->get();
  for (auto& child : op->children) {
    HANA_RETURN_IF_ERROR(PrunePartitions(&child, cat));
  }
  if (op->kind != LogicalKind::kUnion) return Status::OK();

  auto branch_scan = [](LogicalOp* branch) -> LogicalOp* {
    while (branch->kind == LogicalKind::kFilter) {
      branch = branch->children[0].get();
    }
    return branch->kind == LogicalKind::kScan && branch->partition_index >= 0
               ? branch
               : nullptr;
  };

  std::vector<LogicalOpPtr> kept;
  for (auto& child : op->children) {
    LogicalOp* branch = child.get();
    LogicalOp* scan = branch_scan(branch);
    bool prune = false;
    if (scan != nullptr && branch->kind == LogicalKind::kFilter &&
        cat != nullptr) {
      // Ranges from the filter chain above this scan.
      std::vector<plan::ScanRange> ranges;
      for (LogicalOp* f = branch; f->kind == LogicalKind::kFilter;
           f = f->children[0].get()) {
        for (auto& r : plan::ExtractRanges(*f->predicate)) {
          ranges.push_back(std::move(r));
        }
      }
      Result<const catalog::TableEntry*> entry = cat->GetTable(
          scan->table.name.substr(0, scan->table.name.find("__P")));
      prune = entry.ok() &&
              (*entry)->PartitionExcluded(
                  static_cast<size_t>(scan->partition_index), ranges);
    }
    if (!prune) kept.push_back(std::move(child));
  }
  if (kept.empty()) {
    // All partitions pruned: keep one empty branch for schema shape —
    // a scan of the first partition with an always-false filter would
    // do, but simply keeping one branch with its filters is correct.
    kept.push_back(std::move(op->children[0]));
  }
  if (kept.size() == 1) {
    *node = std::move(kept[0]);
  } else {
    op->children = std::move(kept);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// Federation split.
// ---------------------------------------------------------------------

bool ExprShippable(const BoundExpr& e) {
  // Every expression kind the bound tree can contain round-trips through
  // PlanToSql and both remote engines' parsers.
  if (e.child0 && !ExprShippable(*e.child0)) return false;
  if (e.child1 && !ExprShippable(*e.child1)) return false;
  for (const auto& a : e.args) {
    if (!ExprShippable(*a)) return false;
  }
  for (const auto& [w, t] : e.when_clauses) {
    if (!ExprShippable(*w) || !ExprShippable(*t)) return false;
  }
  for (const auto& i : e.in_list) {
    if (!ExprShippable(*i)) return false;
  }
  return true;
}

/// The source label of a subtree: the remote source name when the whole
/// subtree can execute there, "" otherwise.
std::string ComputeLabel(const LogicalOp& op, const OptimizeContext& ctx) {
  if (ctx.sda == nullptr || !ctx.options.enable_federation) return "";
  auto caps_for =
      [&](const std::string& source) -> const federation::Capabilities* {
    Result<federation::Adapter*> adapter = ctx.sda->AdapterFor(source);
    return adapter.ok() ? &(*adapter)->capabilities() : nullptr;
  };
  switch (op.kind) {
    case LogicalKind::kScan:
      if (op.table.location == TableLocation::kRemote ||
          op.table.location == TableLocation::kExtended) {
        return ctx.sda->HasSource(op.table.source) ? op.table.source : "";
      }
      return "";
    case LogicalKind::kRemoteQuery:
    case LogicalKind::kTableFunctionScan:
      return "";
    default:
      break;
  }
  std::string label;
  for (const auto& child : op.children) {
    std::string child_label = ComputeLabel(*child, ctx);
    if (child_label.empty()) return "";
    if (label.empty()) label = child_label;
    if (child_label != label) return "";
  }
  if (label.empty()) return "";
  const federation::Capabilities* caps = caps_for(label);
  if (caps == nullptr) return "";
  switch (op.kind) {
    case LogicalKind::kFilter:
      return caps->filters && ExprShippable(*op.predicate) ? label : "";
    case LogicalKind::kProject: {
      for (const auto& e : op.exprs) {
        if (!ExprShippable(*e)) return "";
      }
      return caps->projections ? label : "";
    }
    case LogicalKind::kJoin: {
      if (op.condition != nullptr && !ExprShippable(*op.condition)) return "";
      switch (op.join_kind) {
        case JoinKind::kInner:
        case JoinKind::kCross:
          return caps->joins ? label : "";
        case JoinKind::kLeft:
          return caps->outer_joins ? label : "";
        case JoinKind::kSemi:
        case JoinKind::kAnti: {
          if (!caps->semi_joins || op.condition == nullptr) return "";
          // The rebuilt [NOT] EXISTS needs a correlated equality, as the
          // binder does; NOT IN is its own equality.
          size_t left_arity = op.children[0]->schema->num_columns();
          plan::JoinConditionParts parts =
              plan::AnalyzeJoinCondition(*op.condition, left_arity);
          return parts.equi_keys.empty() ? "" : label;
        }
      }
      return "";
    }
    case LogicalKind::kAggregate:
      for (const auto& g : op.group_by) {
        if (!ExprShippable(*g)) return "";
      }
      for (const auto& a : op.aggregates) {
        if (!ExprShippable(*a)) return "";
      }
      return caps->aggregates ? label : "";
    case LogicalKind::kSort:
      return caps->order_by ? label : "";
    case LogicalKind::kLimit:
      return caps->limit ? label : "";
    case LogicalKind::kUnion:
      return "";  // PlanToSql renders no UNION; branches ship one by one.
    default:
      return "";
  }
}

/// True when the subtree applies any predicate anywhere.
bool SubtreeHasPredicate(const LogicalOp& op) {
  if (op.kind == LogicalKind::kFilter) return true;
  if (op.kind == LogicalKind::kJoin && op.condition != nullptr) return true;
  if (op.kind == LogicalKind::kScan && !op.scan_ranges.empty()) return true;
  for (const auto& child : op.children) {
    if (SubtreeHasPredicate(*child)) return true;
  }
  return false;
}

/// Wraps a fully-remote subtree in a kRemoteQuery node. On SQL
/// reconstruction failure the subtree is left untouched (it simply
/// executes locally with per-scan shipping instead).
Status WrapRemote(LogicalOpPtr* node, const std::string& source,
                  const OptimizeContext& ctx, bool pushdown_marker) {
  PlanToSqlOptions sql_options;
  sql_options.add_pushdown_marker = pushdown_marker;
  Result<std::string> sql = PlanToSql(**node, sql_options);
  if (!sql.ok()) return Status::OK();  // Conservative fallback.
  auto rq = std::make_unique<LogicalOp>();
  rq->kind = LogicalKind::kRemoteQuery;
  rq->schema = (*node)->schema;
  rq->remote_source = source;
  rq->remote_sql = *sql;
  rq->remote_has_predicate = SubtreeHasPredicate(**node);
  rq->estimated_rows = EstimateRowsImpl(**node);
  if (ctx.options.use_remote_cache) {
    Result<federation::Adapter*> adapter = ctx.sda->AdapterFor(source);
    if (adapter.ok() && (*adapter)->capabilities().remote_cache) {
      rq->use_remote_cache = true;
    }
  }
  *node = std::move(rq);
  return Status::OK();
}

Status SplitFederated(LogicalOpPtr* node, const OptimizeContext& ctx) {
  std::string label = ComputeLabel(**node, ctx);
  if (!label.empty()) {
    return WrapRemote(node, label, ctx, /*pushdown_marker=*/false);
  }
  LogicalOp* op = node->get();

  // Local join with a fully-remote right side: pick a federation
  // strategy for the boundary (Figure 7).
  if (op->kind == LogicalKind::kJoin && op->children.size() == 2) {
    std::string left_label = ComputeLabel(*op->children[0], ctx);
    std::string right_label = ComputeLabel(*op->children[1], ctx);
    if (left_label.empty() && !right_label.empty() &&
        op->condition != nullptr) {
      size_t left_arity = op->children[0]->schema->num_columns();
      plan::JoinConditionParts parts =
          plan::AnalyzeJoinCondition(*op->condition, left_arity);
      double local_rows = EstimateRowsImpl(*op->children[0]);
      double remote_rows = EstimateRowsImpl(*op->children[1]);

      bool semijoin_ok =
          op->join_kind == JoinKind::kInner && !parts.equi_keys.empty() &&
          parts.equi_keys[0].right->kind == BoundKind::kColumn &&
          local_rows <= static_cast<double>(ctx.options.semijoin_max_keys);
      bool relocation_ok =
          op->join_kind == JoinKind::kInner && !parts.equi_keys.empty() &&
          local_rows <=
              static_cast<double>(ctx.options.relocation_max_rows);

      FederationStrategy strategy = ctx.options.strategy;
      if (strategy == FederationStrategy::kAuto) {
        // Semijoin pays off when the local side is small and the remote
        // side large; otherwise fetch the remote side once.
        strategy = semijoin_ok && remote_rows > 4 * local_rows
                       ? FederationStrategy::kSemijoin
                       : FederationStrategy::kRemoteScanOnly;
      }

      if (strategy == FederationStrategy::kSemijoin && semijoin_ok) {
        HANA_RETURN_IF_ERROR(SplitFederated(&op->children[0], ctx));
        HANA_RETURN_IF_ERROR(WrapRemote(&op->children[1], right_label, ctx,
                                        /*pushdown_marker=*/true));
        if (op->children[1]->kind == LogicalKind::kRemoteQuery) {
          op->semijoin_pushdown = true;
          op->pushdown_remote_column =
              "c" +
              std::to_string(parts.equi_keys[0].right->column_index);
          return Status::OK();
        }
        // Marker reconstruction failed; fall back to a plain remote scan.
        return SplitFederated(&op->children[1], ctx);
      }
      if (strategy == FederationStrategy::kRelocation && relocation_ok) {
        // Ship the whole join: the local side is uploaded as a temp
        // table the remote SQL references.
        std::string reloc_name =
            "HANA_RELOC_" + std::to_string(
                                // lint: reinterpret_cast allowed — pointer
                                // identity only; unique per plan node.
                                reinterpret_cast<uintptr_t>(op) & 0xffff);
        // Synthetic remote-side scan standing in for the local child.
        auto synthetic = std::make_unique<LogicalOp>();
        synthetic->kind = LogicalKind::kScan;
        synthetic->schema = op->children[0]->schema;
        synthetic->alias = "reloc";
        synthetic->table.name = reloc_name;
        synthetic->table.remote_object = reloc_name;
        synthetic->table.location = TableLocation::kRemote;
        synthetic->table.source = right_label;
        synthetic->table.schema = op->children[0]->schema;

        auto join_copy = std::make_unique<LogicalOp>();
        join_copy->kind = LogicalKind::kJoin;
        join_copy->join_kind = op->join_kind;
        join_copy->schema = op->schema;
        join_copy->condition = op->condition->Clone();
        LogicalOpPtr local_child = std::move(op->children[0]);
        join_copy->children.push_back(std::move(synthetic));
        join_copy->children.push_back(std::move(op->children[1]));

        PlanToSqlOptions sql_options;
        Result<std::string> sql = PlanToSql(*join_copy, sql_options);
        if (sql.ok()) {
          auto rq = std::make_unique<LogicalOp>();
          rq->kind = LogicalKind::kRemoteQuery;
          rq->schema = op->schema;
          rq->remote_source = right_label;
          rq->remote_sql = *sql;
          rq->relocate_local_child = true;
          rq->relocation_table = reloc_name;
          rq->estimated_rows = EstimateRowsImpl(*join_copy);
          HANA_RETURN_IF_ERROR(SplitFederated(&local_child, ctx));
          rq->children.push_back(std::move(local_child));
          *node = std::move(rq);
          return Status::OK();
        }
        // Reconstruction failed: restore and fall through.
        op->children[0] = std::move(local_child);
        op->children[1] = std::move(join_copy->children[1]);
      }
    }
  }

  for (auto& child : op->children) {
    HANA_RETURN_IF_ERROR(SplitFederated(&child, ctx));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// Hash-join build-side selection.
// ---------------------------------------------------------------------

/// Returns the scan a subtree bottoms out in, unwrapping filters and
/// column-only projects, and maps `*column` (an output column of `op`)
/// to the scan's output column; null when the subtree is anything else
/// or the column is computed.
const LogicalOp* UnwrapToScan(const LogicalOp* op, size_t* column) {
  while (op->kind == LogicalKind::kFilter ||
         (op->kind == LogicalKind::kProject && !op->children.empty())) {
    if (op->kind == LogicalKind::kProject) {
      if (*column >= op->exprs.size() ||
          op->exprs[*column]->kind != plan::BoundKind::kColumn) {
        return nullptr;
      }
      *column = op->exprs[*column]->column_index;
    }
    op = op->children[0].get();
  }
  return op->kind == LogicalKind::kScan && *column < op->scan_columns.size()
             ? op
             : nullptr;
}

/// Nominates a join for the perfect-hash build layout when its single
/// int64 equi key reads a local column-table column whose value domain
/// [min, max] is dense relative to its distinct count. The domain comes
/// from dictionary metadata (exact min/max, no row scan), so the check
/// is cheap enough to run per optimization; the executor re-verifies
/// density against the runtime build rows and falls back to the radix
/// layout when a filter thinned the build side too much.
void MaybeNominatePerfectHash(LogicalOp* op,
                              const plan::JoinConditionParts& parts,
                              const catalog::Catalog* catalog) {
  if (catalog == nullptr) return;
  // One int type on both sides: the executor then hashes the key
  // uncast (NewBuild casts mixed numeric keys to DOUBLE).
  if (parts.equi_keys.size() != 1 ||
      parts.equi_keys[0].left->type != parts.equi_keys[0].right->type) {
    return;
  }
  const plan::BoundExpr* key = op->build_left ? parts.equi_keys[0].left.get()
                                              : parts.equi_keys[0].right.get();
  if (key->kind != plan::BoundKind::kColumn) return;
  DataType t = key->type;
  if (t != DataType::kInt64 && t != DataType::kDate &&
      t != DataType::kTimestamp) {
    return;
  }
  size_t column = key->column_index;
  const LogicalOp* scan =
      UnwrapToScan(op->children[op->build_left ? 0 : 1].get(), &column);
  if (scan == nullptr || scan->table.location != TableLocation::kLocalColumn) {
    return;
  }
  Result<const catalog::TableEntry*> entry = catalog->GetTable(scan->table.name);
  if (!entry.ok() || (*entry)->column_table == nullptr) return;
  storage::ColumnTable::ColumnDomain d =
      (*entry)->column_table->GetColumnDomain(scan->scan_columns[column]);
  if (d.distinct_upper == 0 || d.min.is_null() || d.max.is_null()) return;
  uint64_t range = static_cast<uint64_t>(d.max.AsInt()) -
                   static_cast<uint64_t>(d.min.AsInt());
  // Same shape as the executor's runtime gate, against the distinct
  // upper bound instead of the (not yet known) build row count.
  if (range <= std::max<uint64_t>(2 * d.distinct_upper, 1024)) {
    op->perfect_hash = true;
  }
}

/// Marks inner equi joins whose LEFT child is the estimated-smaller
/// side: the executor then builds the hash table over the left input
/// and probes with the right, instead of always building on the right.
/// Row estimates come from the statistics-backed scan cardinalities
/// (TableBinding::estimated_rows) refined by the selectivity heuristics
/// above. Inner joins only — the outer/semi/anti kinds are direction
/// sensitive and always probe from the left. Also nominates qualifying
/// builds for the perfect-hash layout (see MaybeNominatePerfectHash).
void ChooseBuildSides(LogicalOp* op, const catalog::Catalog* catalog) {
  for (auto& child : op->children) ChooseBuildSides(child.get(), catalog);
  if (op->kind != LogicalKind::kJoin || op->join_kind != JoinKind::kInner ||
      op->semijoin_pushdown || op->condition == nullptr ||
      op->children.size() != 2) {
    return;
  }
  size_t left_arity = op->children[0]->schema->num_columns();
  plan::JoinConditionParts parts =
      plan::AnalyzeJoinCondition(*op->condition, left_arity);
  if (parts.equi_keys.empty()) return;  // Nested loop; no build side.
  op->build_left = EstimateRowsImpl(*op->children[0]) <
                   EstimateRowsImpl(*op->children[1]);
  MaybeNominatePerfectHash(op, parts, catalog);
}

// ---------------------------------------------------------------------
// Aggregate radix-partition sizing.
// ---------------------------------------------------------------------

/// Picks the radix partition count for two-phase parallel aggregation
/// sinks from group-cardinality statistics: the product of the group-by
/// keys' dictionary distinct upper bounds, when every key is a bare
/// column over a local column-table scan under filters and column-only
/// projects. Few expected
/// groups → few partitions (phase-2 fan-out overhead isn't worth it);
/// unknown or large cardinality → the executor's maximum. The count
/// only shapes the schedule — results are bit-identical at any value —
/// so a stale estimate costs speed, never correctness.
void ChooseAggPartitions(LogicalOp* op, const catalog::Catalog* catalog) {
  for (auto& child : op->children) ChooseAggPartitions(child.get(), catalog);
  if (op->kind != LogicalKind::kAggregate) return;
  if (op->group_by.empty()) {
    op->agg_partitions = 1;  // Global aggregate: one group, one partition.
    return;
  }
  constexpr int kMax = 64;   // exec::PartitionedGroupTable::kMaxPartitions.
  constexpr uint64_t kGroupsPerPartition = 512;
  op->agg_partitions = kMax;  // Default when stats can't bound the groups.
  if (catalog == nullptr || op->children.empty()) return;
  uint64_t groups_upper = 1;
  for (const plan::BoundExprPtr& g : op->group_by) {
    if (g->kind != plan::BoundKind::kColumn) {
      return;  // Computed key: cardinality unknown, keep the max.
    }
    size_t column = g->column_index;
    const LogicalOp* scan = UnwrapToScan(op->children[0].get(), &column);
    if (scan == nullptr ||
        scan->table.location != TableLocation::kLocalColumn) {
      return;
    }
    Result<const catalog::TableEntry*> entry =
        catalog->GetTable(scan->table.name);
    if (!entry.ok() || (*entry)->column_table == nullptr) return;
    storage::ColumnTable::ColumnDomain d =
        (*entry)->column_table->GetColumnDomain(scan->scan_columns[column]);
    if (d.distinct_upper == 0) return;
    if (groups_upper > (uint64_t{1} << 32) / std::max<uint64_t>(d.distinct_upper, 1)) {
      return;  // Product would overflow any useful bound; keep the max.
    }
    groups_upper *= d.distinct_upper;
  }
  int parts = 1;
  while (parts < kMax &&
         static_cast<uint64_t>(parts) * kGroupsPerPartition < groups_upper) {
    parts *= 2;
  }
  op->agg_partitions = parts;
}

}  // namespace

double EstimateRows(const plan::LogicalOp& op) { return EstimateRowsImpl(op); }

std::string FormatPipelines(
    const std::vector<plan::PipelineSummary>& pipelines) {
  if (pipelines.empty()) return "";
  std::string out = "Pipelines:\n";
  for (const plan::PipelineSummary& p : pipelines) {
    out += "  P" + std::to_string(p.id);
    if (!p.deps.empty()) {
      out += " (after";
      for (int d : p.deps) out += " P" + std::to_string(d);
      out += ")";
    }
    out += ": " + p.description + "\n";
  }
  return out;
}

Status Optimize(plan::LogicalOpPtr* plan, const OptimizeContext& ctx) {
  HANA_RETURN_IF_ERROR(plan::PushDownFilters(plan));
  plan::PullFiltersIntoJoins(plan);
  HANA_RETURN_IF_ERROR(plan::PushDownSemiJoins(plan));
  HANA_RETURN_IF_ERROR(ExpandHybridScans(plan, ctx.catalog));
  HANA_RETURN_IF_ERROR(plan::PushDownFilters(plan));
  HANA_RETURN_IF_ERROR(PrunePartitions(plan, ctx.catalog));
  plan::PushScanRanges(plan->get());
  HANA_RETURN_IF_ERROR(plan::SplitAggregateOverUnion(plan));
  // Before the federation split, so every shipped remote_sql names only
  // the columns the plan uses.
  HANA_RETURN_IF_ERROR(plan::PruneColumns(plan->get()));
  if (ctx.sda != nullptr && ctx.options.enable_federation) {
    HANA_RETURN_IF_ERROR(SplitFederated(plan, ctx));
  }
  ChooseBuildSides(plan->get(), ctx.catalog);
  ChooseAggPartitions(plan->get(), ctx.catalog);
  return Status::OK();
}

}  // namespace hana::optimizer
