#include "hadoop/hive.h"

#include <algorithm>

#include "common/strings.h"
#include "exec/evaluator.h"
#include "exec/pipeline.h"
#include "hadoop/serde.h"
#include "plan/binder.h"
#include "plan/join_analysis.h"
#include "plan/rewrites.h"
#include "sql/parser.h"
#include "storage/column_table.h"

namespace hana::hadoop {

namespace {

using plan::BoundExpr;
using plan::JoinKind;
using plan::LogicalKind;
using plan::LogicalOp;

/// MetaStore round-trip cost for each CTAS phase.
constexpr double kCtasMetadataMs = 120.0;

}  // namespace

// ---------------------------------------------------------------------
// MetaStore
// ---------------------------------------------------------------------

Status HiveEngine::CreateTable(const std::string& name,
                               std::shared_ptr<Schema> schema,
                               bool temporary) {
  std::string key = ToUpper(name);
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("hive table exists: " + name);
  }
  HiveTable table;
  table.name = name;
  table.schema = std::move(schema);
  table.path = std::string(temporary ? "/tmp/warehouse/" : "/warehouse/") +
               ToLower(name);
  table.temporary = temporary;
  HANA_RETURN_IF_ERROR(hdfs_->WriteFile(table.path, {}));
  tables_[key] = std::move(table);
  return Status::OK();
}

Status HiveEngine::LoadRows(const std::string& name,
                            const std::vector<std::vector<Value>>& rows) {
  HANA_ASSIGN_OR_RETURN(const HiveTable* table, GetTable(name));
  std::vector<std::string> lines;
  lines.reserve(rows.size());
  for (const auto& row : rows) {
    if (row.size() != table->schema->num_columns()) {
      return Status::InvalidArgument("row arity mismatch loading " + name);
    }
    lines.push_back(SerializeRow(row));
  }
  return hdfs_->AppendLines(table->path, lines);
}

Result<const HiveTable*> HiveEngine::GetTable(const std::string& name) const {
  auto it = tables_.find(ToUpper(name));
  if (it == tables_.end()) {
    return Status::NotFound("hive table not found: " + name);
  }
  return &it->second;
}

Status HiveEngine::DropTable(const std::string& name) {
  auto it = tables_.find(ToUpper(name));
  if (it == tables_.end()) {
    return Status::NotFound("hive table not found: " + name);
  }
  if (hdfs_->Exists(it->second.path)) {
    HANA_RETURN_IF_ERROR(hdfs_->Delete(it->second.path));
  }
  tables_.erase(it);
  return Status::OK();
}

Result<HiveTableStats> HiveEngine::Stats(const std::string& name) const {
  HANA_ASSIGN_OR_RETURN(const HiveTable* table, GetTable(name));
  HiveTableStats stats;
  stats.file_count = 1;
  HANA_ASSIGN_OR_RETURN(HdfsFileInfo info, hdfs_->Stat(table->path));
  stats.row_count = info.num_lines;
  stats.num_blocks = info.num_blocks;
  stats.total_bytes = info.bytes;
  return stats;
}

std::vector<std::string> HiveEngine::TableNames() const {
  std::vector<std::string> names;
  for (const auto& [key, table] : tables_) names.push_back(table.name);
  return names;
}

Result<plan::TableBinding> HiveEngine::ResolveTable(
    const std::string& name) const {
  // Virtual-table paths arrive as "db.table" or plain names; Hive
  // resolves on the last component.
  std::string base = name;
  auto pos = base.rfind('.');
  if (pos != std::string::npos) base = base.substr(pos + 1);
  HANA_ASSIGN_OR_RETURN(const HiveTable* table, GetTable(base));
  plan::TableBinding binding;
  binding.name = table->name;
  binding.location = plan::TableLocation::kLocalColumn;
  binding.schema = table->schema;
  Result<HiveTableStats> stats = Stats(base);
  binding.estimated_rows =
      stats.ok() ? static_cast<double>(stats->row_count) : -1;
  return binding;
}

Result<plan::TableFunctionBinding> HiveEngine::ResolveTableFunction(
    const std::string& name) const {
  return Status::NotFound("hive has no table function " + name);
}

// ---------------------------------------------------------------------
// Compiler: logical plan -> DAG of MapReduce jobs
// ---------------------------------------------------------------------

std::string HiveEngine::TempPath(size_t query_id, size_t job) const {
  return StrFormat("/tmp/hive-query-%zu/stage-%zu", query_id, job);
}

Result<HiveEngine::Dataset> HiveEngine::CompileNode(const LogicalOp& op,
                                                    size_t* job_counter,
                                                    size_t query_id) {
  switch (op.kind) {
    case LogicalKind::kScan: {
      HANA_ASSIGN_OR_RETURN(const HiveTable* table, GetTable(op.table.name));
      return Dataset{table->path, op.schema};
    }

    case LogicalKind::kFilter:
    case LogicalKind::kProject: {
      // Fuse a filter/project pipeline into one map-only job.
      std::vector<const LogicalOp*> pipeline;
      const LogicalOp* base = &op;
      while (base->kind == LogicalKind::kFilter ||
             base->kind == LogicalKind::kProject) {
        pipeline.push_back(base);
        base = base->children[0].get();
      }
      HANA_ASSIGN_OR_RETURN(Dataset input,
                            CompileNode(*base, job_counter, query_id));
      std::reverse(pipeline.begin(), pipeline.end());  // Bottom-up order.

      // A project of bare columns moves cells by index; a column it
      // reads twice is copied for all but its last read.
      struct MapStage {
        const LogicalOp* op = nullptr;
        bool column_only = false;
        std::vector<size_t> cols;
        std::vector<uint8_t> move;
      };
      std::vector<MapStage> stages;
      for (const LogicalOp* stage : pipeline) {
        MapStage m;
        m.op = stage;
        m.column_only = stage->kind == LogicalKind::kProject;
        for (const auto& e : stage->exprs) {
          if (!m.column_only) break;
          m.column_only = e->kind == plan::BoundKind::kColumn;
          m.cols.push_back(e->column_index);
        }
        if (m.column_only) {
          m.move.assign(m.cols.size(), 1);
          for (size_t i = 0; i < m.cols.size(); ++i) {
            for (size_t j = i + 1; j < m.cols.size(); ++j) {
              if (m.cols[j] == m.cols[i]) m.move[i] = 0;
            }
          }
        }
        stages.push_back(std::move(m));
      }

      auto error = std::make_shared<Status>();
      JobSpec spec;
      spec.name = StrFormat("q%zu-select-stage", query_id);
      spec.inputs = {input.path};
      spec.output = TempPath(query_id, (*job_counter)++);
      std::shared_ptr<Schema> in_schema = input.schema;
      spec.mapper = [stages, in_schema, error](int, const std::string& line,
                                               std::vector<KeyValue>* out) {
        if (!error->ok()) return;
        Result<std::vector<Value>> parsed = ParseRow(line, *in_schema);
        if (!parsed.ok()) {
          *error = parsed.status();
          return;
        }
        std::vector<Value> row = std::move(*parsed);
        for (const MapStage& m : stages) {
          const LogicalOp* stage = m.op;
          bool in_range = m.column_only;
          for (size_t c : m.cols) in_range = in_range && c < row.size();
          if (in_range) {
            std::vector<Value> next(m.cols.size());
            for (size_t i = 0; i < m.cols.size(); ++i) {
              next[i] = m.move[i] ? std::move(row[m.cols[i]]) : row[m.cols[i]];
            }
            row = std::move(next);
            continue;
          }
          if (stage->kind == LogicalKind::kFilter) {
            Result<Value> keep = exec::EvalExprRow(*stage->predicate, row);
            if (!keep.ok()) {
              *error = keep.status();
              return;
            }
            if (keep->is_null() || !exec::IsTruthy(*keep)) return;
          } else {
            std::vector<Value> next;
            next.reserve(stage->exprs.size());
            for (const auto& e : stage->exprs) {
              Result<Value> v = exec::EvalExprRow(*e, row);
              if (!v.ok()) {
                *error = v.status();
                return;
              }
              next.push_back(std::move(*v));
            }
            row = std::move(next);
          }
        }
        out->emplace_back("", SerializeRow(row));
      };
      HANA_RETURN_IF_ERROR(mapreduce_->RunJob(spec).status());
      HANA_RETURN_IF_ERROR(*error);
      return Dataset{spec.output, op.schema};
    }

    case LogicalKind::kJoin: {
      HANA_ASSIGN_OR_RETURN(Dataset left,
                            CompileNode(*op.children[0], job_counter,
                                        query_id));
      HANA_ASSIGN_OR_RETURN(Dataset right,
                            CompileNode(*op.children[1], job_counter,
                                        query_id));
      size_t left_arity = left.schema->num_columns();
      plan::JoinConditionParts parts;
      if (op.condition != nullptr) {
        parts = plan::AnalyzeJoinCondition(*op.condition, left_arity);
      }
      // NOT IN reads the whole subquery first: a NULL in it empties the
      // result, and any row in it rejects NULL outer keys.
      bool right_empty = true;
      if (op.null_aware) {
        if (parts.equi_keys.size() != 1) {
          return Status::Internal("null-aware anti join without one key");
        }
        HANA_ASSIGN_OR_RETURN(std::vector<std::string> lines,
                              hdfs_->ReadFile(right.path));
        right_empty = lines.empty();
        for (const std::string& line : lines) {
          HANA_ASSIGN_OR_RETURN(std::vector<Value> row,
                                ParseRow(line, *right.schema));
          HANA_ASSIGN_OR_RETURN(Value key,
                                exec::EvalExprRow(*parts.equi_keys[0].right,
                                                  row));
          if (!key.is_null()) continue;
          std::string empty = TempPath(query_id, (*job_counter)++);
          HANA_RETURN_IF_ERROR(hdfs_->WriteFile(empty, {}));
          return Dataset{empty, op.schema};
        }
      }
      auto shared_parts =
          std::make_shared<plan::JoinConditionParts>(std::move(parts));
      auto error = std::make_shared<Status>();
      size_t right_arity = right.schema->num_columns();
      JoinKind kind = op.join_kind;
      // Outer rows with a NULL key match nothing; LEFT pads them and
      // anti joins keep them (NOT IN only against an empty subquery).
      // They group under a key no subquery row emits.
      const bool keep_null_outer =
          kind == JoinKind::kLeft ||
          (kind == JoinKind::kAnti && (!op.null_aware || right_empty));

      JobSpec spec;
      spec.name = StrFormat("q%zu-join-stage", query_id);
      spec.inputs = {left.path, right.path};
      spec.output = TempPath(query_id, (*job_counter)++);
      std::shared_ptr<Schema> lschema = left.schema;
      std::shared_ptr<Schema> rschema = right.schema;
      spec.mapper = [shared_parts, lschema, rschema, error, keep_null_outer](
                        int input, const std::string& line,
                        std::vector<KeyValue>* out) {
        if (!error->ok()) return;
        const Schema& schema = input == 0 ? *lschema : *rschema;
        Result<std::vector<Value>> parsed = ParseRow(line, schema);
        if (!parsed.ok()) {
          *error = parsed.status();
          return;
        }
        std::vector<Value> key_values;
        for (const auto& ek : shared_parts->equi_keys) {
          const BoundExpr& expr = input == 0 ? *ek.left : *ek.right;
          Result<Value> v = exec::EvalExprRow(expr, *parsed);
          if (!v.ok()) {
            *error = v.status();
            return;
          }
          if (v->is_null() && !(input == 0 && keep_null_outer)) return;
          key_values.push_back(std::move(*v));
        }
        out->emplace_back(SerializeRow(key_values),
                          std::string(input == 0 ? "L" : "R") + line);
      };
      spec.reducer = [shared_parts, lschema, rschema, error, kind,
                      right_arity](const std::string&,
                                   const std::vector<std::string>& values,
                                   std::vector<std::string>* out) {
        if (!error->ok()) return;
        std::vector<std::vector<Value>> lrows, rrows;
        for (const std::string& tagged : values) {
          const Schema& schema = tagged[0] == 'L' ? *lschema : *rschema;
          Result<std::vector<Value>> parsed =
              ParseRow(tagged.substr(1), schema);
          if (!parsed.ok()) {
            *error = parsed.status();
            return;
          }
          (tagged[0] == 'L' ? lrows : rrows).push_back(std::move(*parsed));
        }
        for (const auto& lrow : lrows) {
          bool matched = false;
          for (const auto& rrow : rrows) {
            std::vector<Value> combined = lrow;
            combined.insert(combined.end(), rrow.begin(), rrow.end());
            if (shared_parts->residual != nullptr) {
              Result<Value> keep =
                  exec::EvalExprRow(*shared_parts->residual, combined);
              if (!keep.ok()) {
                *error = keep.status();
                return;
              }
              if (keep->is_null() || !exec::IsTruthy(*keep)) continue;
            }
            matched = true;
            if (kind == JoinKind::kInner || kind == JoinKind::kLeft ||
                kind == JoinKind::kCross) {
              out->push_back(SerializeRow(combined));
            } else {
              break;
            }
          }
          if (kind == JoinKind::kSemi && matched) {
            out->push_back(SerializeRow(lrow));
          }
          if (kind == JoinKind::kAnti && !matched) {
            out->push_back(SerializeRow(lrow));
          }
          if (kind == JoinKind::kLeft && !matched) {
            std::vector<Value> combined = lrow;
            combined.resize(lrow.size() + right_arity, Value::Null());
            out->push_back(SerializeRow(combined));
          }
        }
      };
      HANA_RETURN_IF_ERROR(mapreduce_->RunJob(spec).status());
      HANA_RETURN_IF_ERROR(*error);

      // LEFT and ANTI joins surface left rows whose key never appeared
      // on the right: the group exists because the left row is in it.
      return Dataset{spec.output, op.schema};
    }

    case LogicalKind::kAggregate: {
      HANA_ASSIGN_OR_RETURN(Dataset input,
                            CompileNode(*op.children[0], job_counter,
                                        query_id));
      auto error = std::make_shared<Status>();
      const LogicalOp* agg_op = &op;
      JobSpec spec;
      spec.name = StrFormat("q%zu-groupby-stage", query_id);
      spec.inputs = {input.path};
      spec.output = TempPath(query_id, (*job_counter)++);
      std::shared_ptr<Schema> in_schema = input.schema;
      spec.mapper = [agg_op, in_schema, error](int, const std::string& line,
                                               std::vector<KeyValue>* out) {
        if (!error->ok()) return;
        Result<std::vector<Value>> parsed = ParseRow(line, *in_schema);
        if (!parsed.ok()) {
          *error = parsed.status();
          return;
        }
        std::vector<Value> key;
        for (const auto& g : agg_op->group_by) {
          Result<Value> v = exec::EvalExprRow(*g, *parsed);
          if (!v.ok()) {
            *error = v.status();
            return;
          }
          key.push_back(std::move(*v));
        }
        out->emplace_back(SerializeRow(key), line);
      };
      spec.reducer = [agg_op, in_schema, error](
                         const std::string&,
                         const std::vector<std::string>& values,
                         std::vector<std::string>* out) {
        if (!error->ok()) return;
        std::vector<exec::AggState> states(agg_op->aggregates.size());
        std::vector<Value> group_values;
        bool first = true;
        for (const std::string& line : values) {
          Result<std::vector<Value>> parsed = ParseRow(line, *in_schema);
          if (!parsed.ok()) {
            *error = parsed.status();
            return;
          }
          if (first) {
            for (const auto& g : agg_op->group_by) {
              Result<Value> v = exec::EvalExprRow(*g, *parsed);
              if (!v.ok()) {
                *error = v.status();
                return;
              }
              group_values.push_back(std::move(*v));
            }
            first = false;
          }
          Status s =
              exec::AccumulateRow(agg_op->aggregates, *parsed, states.data());
          if (!s.ok()) {
            *error = s;
            return;
          }
        }
        std::vector<Value> row = std::move(group_values);
        for (size_t a = 0; a < agg_op->aggregates.size(); ++a) {
          Result<Value> v =
              exec::FinalizeAgg(*agg_op->aggregates[a], states[a]);
          if (!v.ok()) {
            *error = v.status();
            return;
          }
          row.push_back(std::move(*v));
        }
        out->push_back(SerializeRow(row));
      };
      HANA_RETURN_IF_ERROR(mapreduce_->RunJob(spec).status());
      HANA_RETURN_IF_ERROR(*error);

      // Global aggregates over empty inputs still produce one row.
      if (op.group_by.empty()) {
        HANA_ASSIGN_OR_RETURN(HdfsFileInfo info, hdfs_->Stat(spec.output));
        if (info.num_lines == 0) {
          std::vector<Value> row;
          for (const auto& agg : op.aggregates) {
            HANA_ASSIGN_OR_RETURN(Value v,
                                  exec::FinalizeAgg(*agg, exec::AggState()));
            row.push_back(std::move(v));
          }
          HANA_RETURN_IF_ERROR(
              hdfs_->WriteFile(spec.output, {SerializeRow(row)}));
        }
      }
      return Dataset{spec.output, op.schema};
    }

    case LogicalKind::kSort: {
      HANA_ASSIGN_OR_RETURN(Dataset input,
                            CompileNode(*op.children[0], job_counter,
                                        query_id));
      auto error = std::make_shared<Status>();
      const LogicalOp* sort_op = &op;
      JobSpec spec;
      spec.name = StrFormat("q%zu-orderby-stage", query_id);
      spec.inputs = {input.path};
      spec.output = TempPath(query_id, (*job_counter)++);
      spec.sort_keys = true;
      std::shared_ptr<Schema> in_schema = input.schema;
      spec.mapper = [](int, const std::string& line,
                       std::vector<KeyValue>* out) {
        out->emplace_back("", line);
      };
      spec.reducer = [sort_op, in_schema, error](
                         const std::string&,
                         const std::vector<std::string>& values,
                         std::vector<std::string>* out) {
        if (!error->ok()) return;
        storage::Chunk rows = storage::Chunk::Empty(in_schema);
        for (const std::string& line : values) {
          Result<std::vector<Value>> parsed = ParseRow(line, *in_schema);
          if (!parsed.ok()) {
            *error = parsed.status();
            return;
          }
          rows.AppendRow(*parsed);
        }
        Result<std::vector<storage::Chunk>> sorted =
            exec::SortChunks(sort_op->sort_keys, {rows}, in_schema);
        if (!sorted.ok()) {
          *error = sorted.status();
          return;
        }
        for (const storage::Chunk& chunk : *sorted) {
          for (size_t r = 0; r < chunk.num_rows(); ++r) {
            out->push_back(SerializeRow(chunk.Row(r)));
          }
        }
      };
      HANA_RETURN_IF_ERROR(mapreduce_->RunJob(spec).status());
      HANA_RETURN_IF_ERROR(*error);
      return Dataset{spec.output, op.schema};
    }

    case LogicalKind::kLimit: {
      HANA_ASSIGN_OR_RETURN(Dataset input,
                            CompileNode(*op.children[0], job_counter,
                                        query_id));
      HANA_ASSIGN_OR_RETURN(std::vector<std::string> lines,
                            hdfs_->ReadFile(input.path));
      if (static_cast<int64_t>(lines.size()) > op.limit) {
        lines.resize(static_cast<size_t>(op.limit));
      }
      std::string out = TempPath(query_id, (*job_counter)++);
      HANA_RETURN_IF_ERROR(hdfs_->WriteFile(out, lines));
      return Dataset{out, op.schema};
    }

    case LogicalKind::kUnion: {
      JobSpec spec;
      spec.name = StrFormat("q%zu-union-stage", query_id);
      for (const auto& child : op.children) {
        HANA_ASSIGN_OR_RETURN(Dataset ds,
                              CompileNode(*child, job_counter, query_id));
        spec.inputs.push_back(ds.path);
      }
      spec.output = TempPath(query_id, (*job_counter)++);
      spec.mapper = [](int, const std::string& line,
                       std::vector<KeyValue>* out) {
        out->emplace_back("", line);
      };
      HANA_RETURN_IF_ERROR(mapreduce_->RunJob(spec).status());
      return Dataset{spec.output, op.schema};
    }

    default:
      return Status::Unimplemented(
          "operator not supported by the Hive compiler");
  }
}

Result<HiveResult> HiveEngine::ExecuteQuery(const std::string& sql) {
  size_t query_id = next_query_id_++;
  size_t jobs_before = mapreduce_->history().size();
  double ms_before = 0;
  for (const auto& job : mapreduce_->history()) ms_before += job.simulated_ms;

  HANA_ASSIGN_OR_RETURN(auto select, sql::ParseSelect(sql));
  HANA_ASSIGN_OR_RETURN(plan::LogicalOpPtr logical,
                        plan::BindSelectStatement(*this, *select));
  HANA_RETURN_IF_ERROR(plan::PushDownFilters(&logical));

  size_t job_counter = 0;
  HANA_ASSIGN_OR_RETURN(Dataset result,
                        CompileNode(*logical, &job_counter, query_id));

  HiveResult out;
  out.table = storage::Table(result.schema);
  HANA_ASSIGN_OR_RETURN(std::vector<std::string> lines,
                        hdfs_->ReadFile(result.path));
  for (const std::string& line : lines) {
    HANA_ASSIGN_OR_RETURN(std::vector<Value> row,
                          ParseRow(line, *result.schema));
    out.table.AppendRow(std::move(row));
  }
  out.num_jobs = mapreduce_->history().size() - jobs_before;
  double ms_after = 0;
  for (const auto& job : mapreduce_->history()) ms_after += job.simulated_ms;
  out.simulated_ms = ms_after - ms_before;
  return out;
}

Result<std::string> HiveEngine::CreateTableAsSelect(const std::string& name,
                                                    const std::string& sql) {
  // Phase 1 (schema): plan the query to derive the result schema and
  // register the table shell. A metadata round-trip is charged.
  HANA_ASSIGN_OR_RETURN(auto select, sql::ParseSelect(sql));
  HANA_ASSIGN_OR_RETURN(plan::LogicalOpPtr logical,
                        plan::BindSelectStatement(*this, *select));
  auto schema = std::make_shared<Schema>(logical->schema->columns());
  if (tables_.count(ToUpper(name)) > 0) {
    HANA_RETURN_IF_ERROR(DropTable(name));
  }
  HANA_RETURN_IF_ERROR(CreateTable(name, schema, /*temporary=*/true));
  mapreduce_->ChargeClusterTime(kCtasMetadataMs);  // Phase-1 round-trip.

  // Phase 2 (populate): execute the DAG and rewrite the result into the
  // target table location. The extra write pass is the CTAS overhead the
  // paper attributes to the current two-phase Hive implementation.
  HANA_ASSIGN_OR_RETURN(HiveResult result, ExecuteQuery(sql));
  HANA_ASSIGN_OR_RETURN(const HiveTable* table, GetTable(name));
  std::vector<std::string> lines;
  size_t bytes = 0;
  lines.reserve(result.table.num_rows());
  for (const auto& row : result.table.rows()) {
    lines.push_back(SerializeRow(row));
    bytes += lines.back().size() + 1;
  }
  HANA_RETURN_IF_ERROR(hdfs_->WriteFile(table->path, lines));
  mapreduce_->ChargeClusterTime(
      kCtasMetadataMs + static_cast<double>(bytes) /
                            (mapreduce_->config().hdfs_write_mbps * 1048.576));
  return table->name;
}

}  // namespace hana::hadoop
