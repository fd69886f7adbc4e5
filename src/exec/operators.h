#ifndef HANA_EXEC_OPERATORS_H_
#define HANA_EXEC_OPERATORS_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/mvcc.h"
#include "common/result.h"
#include "common/task_pool.h"
#include "plan/logical.h"
#include "storage/column_vector.h"

namespace hana::exec {

using storage::Chunk;

/// Receives a source's chunks in order; returns false to stop the
/// source early (a satisfied LIMIT).
using ChunkSink = std::function<bool(const Chunk&)>;

/// A single-stream source: pushes its chunks into the sink in order
/// until it is exhausted or the sink returns false.
using ChunkSource = std::function<Status(const ChunkSink&)>;

/// Distinct key values a semijoin-pushdown ships into a remote query.
struct PushdownInList {
  std::string column;  // Remote-side column name.
  std::vector<Value> values;
};

/// The single source of truth for the rows-per-morsel default. The
/// platform `morsel_rows` knob and ParallelPolicy both reference this
/// constant instead of repeating the literal.
inline constexpr size_t kDefaultMorselRows = 16384;

/// Degree-of-parallelism policy the hosting platform grants the
/// executor. A null pool (the default) or dop = 1 runs every pipeline
/// inline on the calling thread, in dependency order.
struct ParallelPolicy {
  TaskPool* pool = nullptr;
  size_t dop = 1;  // Worker budget per parallel region.
  size_t morsel_rows = kDefaultMorselRows;  // Rows per partitioned-scan morsel.
  /// Radix partition count for aggregate sinks. 0 lets the optimizer's
  /// cardinality-based choice (or the kMaxPartitions default) decide;
  /// nonzero forces the count (rounded to a power of two, clamped).
  size_t agg_partitions = 0;
};

/// A base-table scan decomposed into fixed, contiguous morsels. The
/// decomposition depends only on the table size and morsel_rows — never
/// on the thread count — so per-morsel streams are deterministic.
struct PartitionSource {
  size_t num_morsels = 0;
  /// Streams morsel m's chunks into `sink` (return false to stop).
  /// Must be safe to call concurrently for distinct morsel indices.
  std::function<Status(size_t m, const ChunkSink& sink)> scan_morsel;
};

/// Runtime services the executor needs from the hosting platform:
/// opening base-table scans (partition-aware), executing shipped remote
/// queries through the SDA federation layer, and invoking virtual
/// (map-reduce) table functions.
class ExecContext {
 public:
  virtual ~ExecContext() = default;

  /// A statement's pinned MVCC read position: the view every base-table
  /// scan of the statement resolves against, plus a registration in the
  /// version manager's active-snapshot set that holds the delta-merge
  /// watermark back for the statement's duration. The default (empty
  /// handle, latest-visible view) is what non-MVCC contexts return.
  struct ReadLease {
    mvcc::ReadView view;
    mvcc::SnapshotHandle hold;
  };

  /// Acquires the statement-level read lease; ExecutePlan calls this
  /// once and releases it (via the handle) when the statement finishes.
  virtual ReadLease AcquireReadLease() { return {}; }

  /// Single-stream scan: chunks reflect exactly the rows visible at
  /// `view`. Contexts without versioned storage ignore the view.
  [[nodiscard]] virtual Result<ChunkSource> OpenScan(
      const plan::LogicalOp& scan, const mvcc::ReadView& view) = 0;

  /// Executes a shipped remote query. `in_list` (may be null) carries
  /// semijoin-pushdown keys spliced into the /*PUSHDOWN*/ marker;
  /// `relocated_rows` (may be null) is the local data uploaded as
  /// `relocation_table` before execution (Table Relocation strategy).
  [[nodiscard]] virtual Result<ChunkSource> OpenRemoteQuery(
      const plan::LogicalOp& rq, const PushdownInList* in_list,
      const storage::Table* relocated_rows) = 0;

  [[nodiscard]] virtual Result<ChunkSource> OpenTableFunction(
      const plan::LogicalOp& fn) = 0;

  /// Parallelism granted to this context's queries. The default policy
  /// (no pool) runs every pipeline inline.
  virtual ParallelPolicy parallel_policy() { return {}; }

  /// Morsel decomposition of a base-table scan at `view`, or nullopt
  /// when the scan target does not support partitioned access (remote
  /// and extended sources, hybrid tables); those scans run as one
  /// OpenScan stream. All morsels of one source share one storage
  /// snapshot, so the decomposition (and every morsel's row range) is
  /// fixed against `view` — concurrent commits cannot skew num_rows
  /// between morsel planning and morsel scans — and it must not depend
  /// on the degree of parallelism.
  [[nodiscard]] virtual Result<std::optional<PartitionSource>>
  OpenPartitionedScan(const plan::LogicalOp& scan, size_t morsel_rows,
                      const mvcc::ReadView& view) {
    (void)scan;
    (void)morsel_rows;
    (void)view;
    return std::optional<PartitionSource>();
  }

  /// Brackets a region in which federation branches are dispatched
  /// concurrently; the SDA runtime then charges virtual remote time as
  /// the max over branches instead of the sum (Union Plan execution).
  virtual void BeginConcurrentRemoteDispatch() {}
  virtual void EndConcurrentRemoteDispatch() {}
};

/// Runs a bound logical plan through the pipeline executor into a
/// materialized table. The logical plan must outlive the call.
[[nodiscard]] Result<storage::Table> ExecutePlan(const plan::LogicalOp& logical,
                                                 ExecContext* ctx);

}  // namespace hana::exec

#endif  // HANA_EXEC_OPERATORS_H_
