#include "esp/engine.h"

#include <algorithm>

#include "common/strings.h"
#include "exec/evaluator.h"
#include "exec/pipeline.h"
#include "plan/binder.h"
#include "sql/parser.h"

namespace hana::esp {

namespace {

/// Splits "expr AS alias" (last top-level AS, case-insensitive).
void SplitAlias(const std::string& text, std::string* expr,
                std::string* alias) {
  std::string upper = ToUpper(text);
  size_t depth = 0;
  size_t pos = std::string::npos;
  for (size_t i = 0; i + 4 <= upper.size(); ++i) {
    if (upper[i] == '(') ++depth;
    if (upper[i] == ')') --depth;
    if (depth == 0 && upper.compare(i, 4, " AS ") == 0) pos = i;
  }
  if (pos == std::string::npos) {
    *expr = Trim(text);
    *alias = "";
  } else {
    *expr = Trim(text.substr(0, pos));
    *alias = Trim(text.substr(pos + 4));
  }
}

Result<plan::BoundExprPtr> BindText(const std::string& text,
                                    const Schema& schema) {
  HANA_ASSIGN_OR_RETURN(sql::ExprPtr ast, sql::ParseExpression(text));
  return plan::BindScalarExpr(*ast, schema);
}

}  // namespace

// ---------------------------------------------------------------------
// ContinuousQuery
// ---------------------------------------------------------------------

Result<Event> ContinuousQuery::ApplyRowStages(const Event& event,
                                              bool* keep) const {
  *keep = true;
  if (filter_ != nullptr) {
    HANA_ASSIGN_OR_RETURN(Value v, exec::EvalExprRow(*filter_, event.values));
    if (v.is_null() || !exec::IsTruthy(v)) {
      *keep = false;
      return event;
    }
  }
  Event current = event;
  for (const Lookup& lookup : lookups_) {
    HANA_ASSIGN_OR_RETURN(Value key,
                          exec::EvalExprRow(*lookup.key, current.values));
    auto it = lookup.table.find(key);
    if (it != lookup.table.end()) {
      current.values.insert(current.values.end(), it->second.begin(),
                            it->second.end());
    } else {
      current.values.insert(current.values.end(), lookup.payload_width,
                            Value::Null());
    }
  }
  if (has_projection_) {
    std::vector<Value> projected;
    projected.reserve(projection_.size());
    for (const auto& e : projection_) {
      HANA_ASSIGN_OR_RETURN(Value v, exec::EvalExprRow(*e, current.values));
      projected.push_back(std::move(v));
    }
    current.values = std::move(projected);
  }
  return current;
}

void ContinuousQuery::Emit(const Event& event) {
  engine_->mu_.AssertHeld();
  ++events_out_;
  for (const EventSink& sink : sinks_) sink(event);
  if (!target_stream_.empty()) {
    // Re-entrant forward into a sibling stream of the same engine: the
    // lock is already held, so go through PublishLocked (re-acquiring
    // mu_ here would self-deadlock, and the runtime validator aborts on
    // exactly that).
    // lint: IgnoreStatus allowed — a derived-stream forward can fail
    // (dropped stream, schema drift) without poisoning the source
    // stream's publish; ESP semantics drop the event.
    IgnoreStatus(
        engine_->PublishLocked(target_stream_, event.timestamp_ms,
                               event.values));
  }
}

void ContinuousQuery::CloseWindow(int64_t boundary_ms) {
  engine_->mu_.AssertHeld();
  if (window_events_.empty()) return;
  if (!has_aggregation_) {
    window_events_.clear();
    return;
  }
  // Group and aggregate retained events. A row whose group key or
  // aggregate argument fails to evaluate is skipped whole.
  std::map<std::vector<Value>, std::vector<exec::AggState>> groups;
  for (const Event& event : window_events_) {
    std::vector<Value> key;
    key.reserve(group_by_.size());
    bool ok = true;
    for (const auto& g : group_by_) {
      Result<Value> v = exec::EvalExprRow(*g, event.values);
      if (!v.ok()) {
        ok = false;
        break;
      }
      key.push_back(std::move(*v));
    }
    if (!ok) continue;
    auto [it, inserted] = groups.try_emplace(std::move(key));
    if (inserted) it->second.resize(aggregates_.size());
    Status added =
        exec::AccumulateRow(aggregates_, event.values, it->second.data());
    if (!added.ok() && inserted) groups.erase(it);  // Only the skipped row.
  }
  for (const auto& [key, states] : groups) {
    Event out;
    out.timestamp_ms = boundary_ms;
    out.values = key;
    bool finalized = true;
    for (size_t a = 0; finalized && a < aggregates_.size(); ++a) {
      Result<Value> v = exec::FinalizeAgg(*aggregates_[a], states[a]);
      finalized = v.ok();
      if (finalized) out.values.push_back(std::move(*v));
    }
    // A failed finalize (SUM overflow) drops the group's event, as a
    // failed row drops the row.
    if (finalized) Emit(out);
  }
  window_events_.clear();
}

void ContinuousQuery::Process(const Event& event) {
  engine_->mu_.AssertHeld();
  ++events_in_;
  bool keep = true;
  Result<Event> staged = ApplyRowStages(event, &keep);
  if (!staged.ok() || !keep) return;
  const Event& row = *staged;

  if (has_pattern_) {
    // Advance partial matches (oldest first) and start new ones.
    std::vector<std::pair<int64_t, size_t>> next;
    bool emitted = false;
    for (auto [start_ts, step] : pattern_progress_) {
      if (row.timestamp_ms - start_ts > pattern_.within_ms) continue;
      Result<Value> hit = exec::EvalExprRow(*pattern_.steps[step], row.values);
      if (hit.ok() && !hit->is_null() && exec::IsTruthy(*hit)) {
        if (step + 1 == pattern_.steps.size()) {
          if (!emitted) {
            Emit(row);
            emitted = true;
          }
          continue;  // Match consumed.
        }
        next.emplace_back(start_ts, step + 1);
      } else {
        next.emplace_back(start_ts, step);  // Wait for the step.
      }
    }
    Result<Value> first = exec::EvalExprRow(*pattern_.steps[0], row.values);
    if (first.ok() && !first->is_null() && exec::IsTruthy(*first)) {
      if (pattern_.steps.size() == 1) {
        if (!emitted) Emit(row);
      } else {
        next.emplace_back(row.timestamp_ms, 1);
      }
    }
    pattern_progress_ = std::move(next);
    return;
  }

  switch (window_.kind) {
    case WindowSpec::Kind::kNone:
      if (has_aggregation_) {
        // Aggregation without a window degenerates to per-event output.
        window_events_.push_back(row);
        CloseWindow(row.timestamp_ms);
      } else {
        Emit(row);
      }
      return;
    case WindowSpec::Kind::kTumblingCount:
      window_events_.push_back(row);
      if (window_events_.size() >= window_.count) {
        CloseWindow(row.timestamp_ms);
      }
      return;
    case WindowSpec::Kind::kTumblingTime: {
      int64_t bucket = row.timestamp_ms / window_.millis;
      if (window_start_ms_ >= 0 && bucket != window_start_ms_) {
        CloseWindow(window_start_ms_ * window_.millis + window_.millis);
      }
      window_start_ms_ = bucket;
      window_events_.push_back(row);
      return;
    }
    case WindowSpec::Kind::kSlidingTime: {
      window_events_.push_back(row);
      while (!window_events_.empty() &&
             row.timestamp_ms - window_events_.front().timestamp_ms >
                 window_.millis) {
        window_events_.pop_front();
      }
      if (has_aggregation_) {
        // Emit the aggregate of the current window without clearing it.
        std::deque<Event> saved = window_events_;
        CloseWindow(row.timestamp_ms);
        window_events_ = std::move(saved);
      } else {
        Emit(row);
      }
      return;
    }
  }
}

void ContinuousQuery::Flush() {
  MutexLock lock(engine_->mu_);
  FlushLocked();
}

void ContinuousQuery::FlushLocked() {
  engine_->mu_.AssertHeld();
  if (window_.kind == WindowSpec::Kind::kTumblingTime &&
      window_start_ms_ >= 0) {
    CloseWindow(window_start_ms_ * window_.millis + window_.millis);
    window_start_ms_ = -1;
    return;
  }
  if (!window_events_.empty()) {
    CloseWindow(window_events_.back().timestamp_ms);
  }
}

storage::Table ContinuousQuery::WindowContents() const {
  // The retained (pre-aggregation) rows of the current window.
  MutexLock lock(engine_->mu_);
  storage::Table table(row_schema_);
  for (const Event& event : window_events_) table.AppendRow(event.values);
  return table;
}

// ---------------------------------------------------------------------
// CqBuilder
// ---------------------------------------------------------------------

CqBuilder::CqBuilder(EspEngine* engine, const std::string& source_stream)
    : engine_(engine), source_(source_stream) {
  query_ = std::make_unique<ContinuousQuery>();
  query_->engine_ = engine;
}

CqBuilder& CqBuilder::Where(const std::string& predicate) {
  pending_where_ = predicate;
  return *this;
}

CqBuilder& CqBuilder::Select(const std::vector<std::string>& exprs) {
  pending_select_ = exprs;
  return *this;
}

CqBuilder& CqBuilder::LookupJoin(const storage::Table& dimension,
                                 const std::string& stream_key_expr,
                                 const std::string& table_key_column) {
  pending_lookups_.push_back({&dimension, stream_key_expr, table_key_column});
  return *this;
}

CqBuilder& CqBuilder::KeepRows(size_t rows) {
  query_->window_.kind = WindowSpec::Kind::kTumblingCount;
  query_->window_.count = rows;
  return *this;
}

CqBuilder& CqBuilder::KeepMillis(int64_t millis) {
  query_->window_.kind = WindowSpec::Kind::kTumblingTime;
  query_->window_.millis = millis;
  return *this;
}

CqBuilder& CqBuilder::GroupBy(const std::vector<std::string>& keys,
                              const std::vector<std::string>& aggregates) {
  pending_group_keys_ = keys;
  pending_aggs_ = aggregates;
  query_->has_aggregation_ = true;
  return *this;
}

CqBuilder& CqBuilder::MatchPattern(
    const std::vector<std::string>& step_predicates, int64_t within_ms) {
  pending_pattern_ = step_predicates;
  pattern_within_ms_ = within_ms;
  return *this;
}

CqBuilder& CqBuilder::IntoCallback(EventSink sink) {
  query_->sinks_.push_back(std::move(sink));
  return *this;
}

CqBuilder& CqBuilder::IntoTable(storage::ColumnTable* table) {
  query_->sinks_.push_back([table](const Event& event) {
    // lint: IgnoreStatus allowed — a sink runs fire-and-forget inside
    // event dispatch; a malformed row is dropped rather than failing
    // the publish that produced it.
    IgnoreStatus(table->AppendRow(event.values));
  });
  return *this;
}

CqBuilder& CqBuilder::IntoHdfs(hadoop::Hdfs* hdfs, const std::string& path) {
  query_->sinks_.push_back([hdfs, path](const Event& event) {
    std::vector<std::string> fields;
    fields.push_back(std::to_string(event.timestamp_ms));
    for (const Value& v : event.values) fields.push_back(v.ToString());
    // lint: IgnoreStatus allowed — raw archival is best-effort; an HDFS
    // write failure must not fail the publish being archived.
    IgnoreStatus(hdfs->AppendLines(path, {Join(fields, "\t")}));
  });
  return *this;
}

CqBuilder& CqBuilder::IntoStream(const std::string& derived_stream) {
  query_->target_stream_ = derived_stream;
  return *this;
}

Result<ContinuousQuery*> CqBuilder::Finish(const std::string& name) {
  HANA_ASSIGN_OR_RETURN(std::shared_ptr<Schema> input_schema,
                        engine_->StreamSchema(source_));
  query_->name_ = name;
  query_->input_schema_ = input_schema;

  if (!pending_where_.empty()) {
    HANA_ASSIGN_OR_RETURN(query_->filter_,
                          BindText(pending_where_, *input_schema));
  }

  // Stage schema: input columns plus lookup payloads.
  auto stage_schema = std::make_shared<Schema>(input_schema->columns());
  for (const PendingLookup& pending : pending_lookups_) {
    ContinuousQuery::Lookup lookup;
    HANA_ASSIGN_OR_RETURN(lookup.key,
                          BindText(pending.stream_key, *stage_schema));
    HANA_ASSIGN_OR_RETURN(
        size_t key_col,
        pending.dimension->schema()->ColumnIndex(pending.table_key));
    for (const auto& row : pending.dimension->rows()) {
      std::vector<Value> payload;
      for (size_t c = 0; c < row.size(); ++c) {
        if (c != key_col) payload.push_back(row[c]);
      }
      lookup.table[row[key_col]] = std::move(payload);
    }
    lookup.payload_width = pending.dimension->schema()->num_columns() - 1;
    for (size_t c = 0; c < pending.dimension->schema()->num_columns(); ++c) {
      if (c != key_col) {
        stage_schema->AddColumn(pending.dimension->schema()->column(c));
      }
    }
    query_->lookups_.push_back(std::move(lookup));
  }

  std::shared_ptr<Schema> row_schema = stage_schema;
  if (!pending_select_.empty()) {
    query_->has_projection_ = true;
    auto projected = std::make_shared<Schema>();
    for (const std::string& item : pending_select_) {
      std::string text, alias;
      SplitAlias(item, &text, &alias);
      HANA_ASSIGN_OR_RETURN(plan::BoundExprPtr bound,
                            BindText(text, *stage_schema));
      projected->AddColumn(
          {alias.empty() ? text : alias, bound->type, true});
      query_->projection_.push_back(std::move(bound));
    }
    row_schema = projected;
  }
  query_->row_schema_ = row_schema;
  query_->output_schema_ = row_schema;

  if (query_->has_aggregation_) {
    auto agg_schema = std::make_shared<Schema>();
    for (const std::string& key : pending_group_keys_) {
      HANA_ASSIGN_OR_RETURN(plan::BoundExprPtr bound,
                            BindText(key, *row_schema));
      agg_schema->AddColumn({key, bound->type, true});
      query_->group_by_.push_back(std::move(bound));
    }
    for (const std::string& item : pending_aggs_) {
      std::string text, alias;
      SplitAlias(item, &text, &alias);
      HANA_ASSIGN_OR_RETURN(sql::ExprPtr ast, sql::ParseExpression(text));
      HANA_ASSIGN_OR_RETURN(plan::BoundExprPtr bound,
                            plan::BindAggregateCall(*ast, *row_schema));
      agg_schema->AddColumn({alias.empty() ? text : alias, bound->type, true});
      query_->aggregates_.push_back(std::move(bound));
    }
    query_->output_schema_ = agg_schema;
  }

  if (!pending_pattern_.empty()) {
    query_->has_pattern_ = true;
    query_->pattern_.within_ms = pattern_within_ms_;
    for (const std::string& step : pending_pattern_) {
      HANA_ASSIGN_OR_RETURN(plan::BoundExprPtr bound,
                            BindText(step, *row_schema));
      query_->pattern_.steps.push_back(std::move(bound));
    }
    query_->output_schema_ = row_schema;
  }

  // Registration publishes the query to concurrent Publish/FlushAll
  // callers; only this tail needs the engine lock — everything above
  // touched builder-private state.
  ContinuousQuery* raw = query_.get();
  MutexLock lock(engine_->mu_);
  auto stream_it = engine_->streams_.find(ToUpper(source_));
  if (stream_it == engine_->streams_.end()) {
    return Status::NotFound("stream not found: " + source_);
  }
  stream_it->second.queries.push_back(raw);
  engine_->queries_.push_back(std::move(query_));
  return raw;
}

// ---------------------------------------------------------------------
// EspEngine
// ---------------------------------------------------------------------

EspEngine::~EspEngine() = default;

Status EspEngine::CreateStream(const std::string& name,
                               std::shared_ptr<Schema> schema) {
  MutexLock lock(mu_);
  std::string key = ToUpper(name);
  if (streams_.count(key) > 0) {
    return Status::AlreadyExists("stream exists: " + name);
  }
  streams_[key] = StreamState{std::move(schema), {}, INT64_MIN};
  return Status::OK();
}

Result<std::shared_ptr<Schema>> EspEngine::StreamSchema(
    const std::string& name) const {
  MutexLock lock(mu_);
  auto it = streams_.find(ToUpper(name));
  if (it == streams_.end()) {
    return Status::NotFound("stream not found: " + name);
  }
  return it->second.schema;
}

Status EspEngine::Publish(const std::string& stream, int64_t timestamp_ms,
                          std::vector<Value> values) {
  MutexLock lock(mu_);
  return PublishLocked(stream, timestamp_ms, std::move(values));
}

Status EspEngine::PublishLocked(const std::string& stream,
                                int64_t timestamp_ms,
                                std::vector<Value> values) {
  auto it = streams_.find(ToUpper(stream));
  if (it == streams_.end()) {
    return Status::NotFound("stream not found: " + stream);
  }
  StreamState& state = it->second;
  if (values.size() != state.schema->num_columns()) {
    return Status::InvalidArgument("event arity mismatch on " + stream);
  }
  if (timestamp_ms < state.last_timestamp_ms) {
    return Status::InvalidArgument("out-of-order event on " + stream);
  }
  state.last_timestamp_ms = timestamp_ms;
  ++total_events_;
  Event event{timestamp_ms, std::move(values)};
  for (ContinuousQuery* query : state.queries) query->Process(event);
  return Status::OK();
}

void EspEngine::FlushAll() {
  MutexLock lock(mu_);
  for (auto& query : queries_) query->FlushLocked();
}

Result<ContinuousQuery*> EspEngine::GetQuery(const std::string& name) const {
  MutexLock lock(mu_);
  for (const auto& query : queries_) {
    if (EqualsIgnoreCase(query->name(), name)) return query.get();
  }
  return Status::NotFound("continuous query not found: " + name);
}

}  // namespace hana::esp
