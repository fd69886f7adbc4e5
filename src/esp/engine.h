#ifndef HANA_ESP_ENGINE_H_
#define HANA_ESP_ENGINE_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/sync.h"
#include "hadoop/hdfs.h"
#include "plan/bound_expr.h"
#include "storage/column_table.h"

namespace hana::esp {

/// One event on a stream: an application timestamp (milliseconds) plus
/// one value per stream-schema column.
struct Event {
  int64_t timestamp_ms = 0;
  std::vector<Value> values;
};

using EventSink = std::function<void(const Event&)>;

class ContinuousQuery;
class CqBuilder;

/// Window specification for continuous queries (CCL KEEP clause).
struct WindowSpec {
  enum class Kind { kNone, kTumblingCount, kTumblingTime, kSlidingTime };
  Kind kind = Kind::kNone;
  size_t count = 0;      // kTumblingCount.
  int64_t millis = 0;    // Time-based windows.
};

/// One step of a pattern matcher: a predicate over the stream schema.
/// A pattern fires when its steps match in order within `within_ms`.
struct PatternSpec {
  std::vector<plan::BoundExprPtr> steps;
  int64_t within_ms = 0;
};

/// The stream engine: streams, continuous queries and synchronous event
/// dispatch. Mirrors the integration surface of the SAP Sybase ESP
/// (Section 3.2): prefilter/aggregate + forward, ESP join, HANA join.
///
/// Thread safety: one engine-wide mutex (esp.engine, rank 20) guards the
/// stream map, the query registry and all per-query runtime state —
/// queries run synchronously inside Publish, so finer-grained locking
/// would buy nothing. The query's Emit may forward into another stream
/// of the same engine; that re-entrant hop stays under the already-held
/// lock via PublishLocked rather than re-acquiring.
class EspEngine {
 public:
  EspEngine() = default;
  ~EspEngine();

  [[nodiscard]] Status CreateStream(const std::string& name,
                      std::shared_ptr<Schema> schema) EXCLUDES(mu_);
  [[nodiscard]] Result<std::shared_ptr<Schema>> StreamSchema(
      const std::string& name) const EXCLUDES(mu_);

  /// Publishes one event; all continuous queries attached to the stream
  /// run synchronously. Timestamps must be non-decreasing per stream.
  [[nodiscard]] Status Publish(const std::string& stream, int64_t timestamp_ms,
                 std::vector<Value> values) EXCLUDES(mu_);

  /// Closes all open windows (end of stream).
  void FlushAll() EXCLUDES(mu_);

  [[nodiscard]] Result<ContinuousQuery*> GetQuery(const std::string& name) const
      EXCLUDES(mu_);

  size_t total_events() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return total_events_;
  }

 private:
  friend class CqBuilder;
  friend class ContinuousQuery;

  struct StreamState {
    std::shared_ptr<Schema> schema;
    std::vector<ContinuousQuery*> queries;
    int64_t last_timestamp_ms = INT64_MIN;
  };

  /// Publish body for callers already inside the engine lock — the
  /// IntoStream forward path (ContinuousQuery::Emit) re-enters here.
  [[nodiscard]] Status PublishLocked(const std::string& stream,
                                     int64_t timestamp_ms,
                                     std::vector<Value> values) REQUIRES(mu_);

  /// Guards streams_, queries_, total_events_ and every query's runtime
  /// window/pattern state. Engine rank 20: may be followed by storage
  /// locks (IntoTable sinks append under storage.state, rank 65) but
  /// never by another engine-level lock.
  mutable Mutex mu_{"esp.engine", lock_rank::kEspEngine};

  std::map<std::string, StreamState> streams_ GUARDED_BY(mu_);
  std::vector<std::unique_ptr<ContinuousQuery>> queries_ GUARDED_BY(mu_);
  size_t total_events_ GUARDED_BY(mu_) = 0;
};

/// A compiled continuous query. Built through CqBuilder; processes
/// events synchronously as the engine publishes them.
///
/// Thread safety: compilation state (schemas, bound expressions, window
/// spec, sinks) is immutable after CqBuilder::Finish registers the
/// query; only the runtime window/pattern/counter members mutate, and
/// those are guarded by the owning engine's mutex. The private
/// processing hooks run inside EspEngine::Publish/FlushAll with that
/// lock held; because the lock is reached through engine_, they assert
/// the capability at entry (Mutex::AssertHeld) instead of REQUIRES.
class ContinuousQuery {
 public:
  const std::string& name() const { return name_; }
  const std::shared_ptr<Schema>& output_schema() const {
    return output_schema_;
  }

  /// Current retained window contents as a relational table — the
  /// "HANA join" use case (Figure 9): a HANA query may use the window
  /// as join partner.
  storage::Table WindowContents() const EXCLUDES(engine_->mu_);

  /// Forces any open time/count window to close and emit.
  void Flush() EXCLUDES(engine_->mu_);

  size_t events_in() const EXCLUDES(engine_->mu_) {
    MutexLock lock(engine_->mu_);
    return events_in_;
  }
  size_t events_out() const EXCLUDES(engine_->mu_) {
    MutexLock lock(engine_->mu_);
    return events_out_;
  }

 private:
  friend class EspEngine;
  friend class CqBuilder;

  void Process(const Event& event);      // Asserts engine_->mu_.
  void Emit(const Event& event);         // Asserts engine_->mu_.
  void CloseWindow(int64_t boundary_ms); // Asserts engine_->mu_.
  void FlushLocked();                    // Asserts engine_->mu_.
  [[nodiscard]] Result<Event> ApplyRowStages(const Event& event, bool* keep) const;

  EspEngine* engine_ = nullptr;
  std::string name_;
  std::shared_ptr<Schema> input_schema_;
  std::shared_ptr<Schema> row_schema_;  // After lookups + projection.
  std::shared_ptr<Schema> output_schema_;

  plan::BoundExprPtr filter_;                  // Over input schema.
  std::vector<plan::BoundExprPtr> projection_; // Over input schema.
  bool has_projection_ = false;

  // Enrichment (ESP join): slow-changing HANA data pushed into the
  // stream and joined by key.
  struct Lookup {
    std::map<Value, std::vector<Value>> table;
    plan::BoundExprPtr key;     // Over the current row shape.
    size_t payload_width = 0;
  };
  std::vector<Lookup> lookups_;

  WindowSpec window_;
  std::vector<plan::BoundExprPtr> group_by_;  // Over post-stage schema.
  /// Window aggregates ("SUM(pressure) AS p"): kAggregate nodes from
  /// plan::BindAggregateCall; aliases live in the output schema.
  std::vector<plan::BoundExprPtr> aggregates_;
  bool has_aggregation_ = false;

  PatternSpec pattern_;
  bool has_pattern_ = false;

  std::vector<EventSink> sinks_;
  std::string target_stream_;  // Forward into another stream.

  // Runtime state, mutated on every published event.
  std::vector<std::pair<int64_t, size_t>> pattern_progress_
      GUARDED_BY(engine_->mu_);
  std::deque<Event> window_events_ GUARDED_BY(engine_->mu_);
  int64_t window_start_ms_ GUARDED_BY(engine_->mu_) = -1;
  size_t events_in_ GUARDED_BY(engine_->mu_) = 0;
  size_t events_out_ GUARDED_BY(engine_->mu_) = 0;
};

/// Fluent builder for continuous queries. Expressions are SQL text
/// parsed and bound against the source stream's schema. The query under
/// construction is private to the builder until Finish registers it
/// under the engine lock, so the build steps themselves need none.
class CqBuilder {
 public:
  CqBuilder(EspEngine* engine, const std::string& source_stream);

  CqBuilder& Where(const std::string& predicate);
  CqBuilder& Select(const std::vector<std::string>& exprs);
  /// ESP join: joins each event against `dimension` on key equality,
  /// appending the dimension's non-key columns to the event.
  CqBuilder& LookupJoin(const storage::Table& dimension,
                        const std::string& stream_key_expr,
                        const std::string& table_key_column);
  CqBuilder& KeepRows(size_t rows);
  CqBuilder& KeepMillis(int64_t millis);
  CqBuilder& GroupBy(const std::vector<std::string>& keys,
                     const std::vector<std::string>& aggregates);
  /// Pattern detection: predicates that must match in order within the
  /// given duration; the emitted event carries the last step's values.
  CqBuilder& MatchPattern(const std::vector<std::string>& step_predicates,
                          int64_t within_ms);

  CqBuilder& IntoCallback(EventSink sink);
  /// Forward use case: window/projection results persist into a HANA
  /// column table owned by the caller.
  CqBuilder& IntoTable(storage::ColumnTable* table);
  /// Raw-archive use case: events appended to an HDFS file.
  CqBuilder& IntoHdfs(hadoop::Hdfs* hdfs, const std::string& path);
  CqBuilder& IntoStream(const std::string& derived_stream);

  /// Compiles and registers the query.
  [[nodiscard]] Result<ContinuousQuery*> Finish(const std::string& name);

 private:
  EspEngine* engine_;
  std::string source_;
  Status status_;
  std::unique_ptr<ContinuousQuery> query_;
  std::vector<std::string> pending_select_;
  std::vector<std::string> pending_group_keys_;
  std::vector<std::string> pending_aggs_;
  std::vector<std::string> pending_pattern_;
  int64_t pattern_within_ms_ = 0;
  std::string pending_where_;
  struct PendingLookup {
    const storage::Table* dimension;
    std::string stream_key;
    std::string table_key;
  };
  std::vector<PendingLookup> pending_lookups_;
};

}  // namespace hana::esp

#endif  // HANA_ESP_ENGINE_H_
