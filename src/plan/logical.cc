#include "plan/logical.h"

#include "common/strings.h"

namespace hana::plan {

const char* JoinKindName(JoinKind kind) {
  switch (kind) {
    case JoinKind::kInner:
      return "INNER";
    case JoinKind::kLeft:
      return "LEFT";
    case JoinKind::kCross:
      return "CROSS";
    case JoinKind::kSemi:
      return "SEMI";
    case JoinKind::kAnti:
      return "ANTI";
  }
  return "?";
}

std::string LogicalOp::ToString(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string line = pad;
  switch (kind) {
    case LogicalKind::kScan: {
      const char* loc = "";
      switch (table.location) {
        case TableLocation::kLocalColumn:
          loc = "Column Scan";
          break;
        case TableLocation::kLocalRow:
          loc = "Row Scan";
          break;
        case TableLocation::kExtended:
          loc = "Extended Storage Scan";
          break;
        case TableLocation::kHybrid:
          loc = "Hybrid Table Scan";
          break;
        case TableLocation::kRemote:
          loc = "Virtual Table";
          break;
      }
      line += StrFormat("%s %s", loc, table.name.c_str());
      if (!alias.empty() && !EqualsIgnoreCase(alias, table.name)) {
        line += " AS " + alias;
      }
      if (partition_index >= 0) {
        line += StrFormat(" PARTITION %d", partition_index);
      }
      if (table.location == TableLocation::kRemote) {
        line += " @" + table.source;
      }
      line += StrFormat(" [%zu/%zu cols]", scan_columns.size(),
                        table.schema->num_columns());
      break;
    }
    case LogicalKind::kTableFunctionScan:
      line += "Virtual Function " + function.name + " @" + function.source;
      break;
    case LogicalKind::kFilter:
      line += "Filter " + predicate->ToString();
      break;
    case LogicalKind::kProject: {
      std::vector<std::string> parts;
      for (size_t i = 0; i < exprs.size(); ++i) {
        parts.push_back(schema->column(i).name + "=" + exprs[i]->ToString());
      }
      line += "Project [" + Join(parts, ", ") + "]";
      break;
    }
    case LogicalKind::kJoin:
      line += StrFormat("%s Join", JoinKindName(join_kind));
      if (condition) line += " ON " + condition->ToString();
      if (build_left) line += " [build=left]";
      if (perfect_hash) line += " [perfect-hash]";
      break;
    case LogicalKind::kAggregate: {
      std::vector<std::string> groups, aggs;
      for (const auto& g : group_by) groups.push_back(g->ToString());
      for (const auto& a : aggregates) aggs.push_back(a->ToString());
      line += "Aggregate GROUP BY [" + Join(groups, ", ") + "] AGG [" +
              Join(aggs, ", ") + "]";
      if (agg_phase == AggPhase::kPartial) line += " [partial]";
      if (agg_phase == AggPhase::kFinal) line += " [final]";
      if (agg_partitions > 0) {
        line += StrFormat(" [partitioned-agg x%d]", agg_partitions);
      }
      break;
    }
    case LogicalKind::kSort: {
      std::vector<std::string> keys;
      for (const auto& k : sort_keys) {
        keys.push_back(k.expr->ToString() + (k.ascending ? "" : " DESC"));
      }
      line += "Sort [" + Join(keys, ", ") + "]";
      break;
    }
    case LogicalKind::kLimit:
      line += StrFormat("Limit %lld", static_cast<long long>(limit));
      break;
    case LogicalKind::kUnion:
      line += "Union All";
      break;
    case LogicalKind::kRemoteQuery:
      line += "Remote Row Scan @" + remote_source +
              (use_remote_cache ? " [remote cache]" : "") + ": " + remote_sql;
      break;
  }
  if (pipeline_id >= 0) line += StrFormat(" [P%d]", pipeline_id);
  line += "\n";
  for (const auto& child : children) line += child->ToString(indent + 1);
  return line;
}

LogicalOpPtr MakeFilter(LogicalOpPtr child, BoundExprPtr predicate) {
  auto op = std::make_unique<LogicalOp>();
  op->kind = LogicalKind::kFilter;
  op->schema = child->schema;
  op->predicate = std::move(predicate);
  op->children.push_back(std::move(child));
  return op;
}

LogicalOpPtr MakeProject(LogicalOpPtr child, std::vector<BoundExprPtr> exprs,
                         std::shared_ptr<Schema> schema) {
  auto op = std::make_unique<LogicalOp>();
  op->kind = LogicalKind::kProject;
  op->schema = std::move(schema);
  op->exprs = std::move(exprs);
  op->children.push_back(std::move(child));
  return op;
}

LogicalOpPtr MakeLimit(LogicalOpPtr child, int64_t limit) {
  auto op = std::make_unique<LogicalOp>();
  op->kind = LogicalKind::kLimit;
  op->schema = child->schema;
  op->limit = limit;
  op->children.push_back(std::move(child));
  return op;
}

}  // namespace hana::plan
