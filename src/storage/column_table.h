#ifndef HANA_STORAGE_COLUMN_TABLE_H_
#define HANA_STORAGE_COLUMN_TABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mvcc.h"
#include "common/result.h"
#include "common/schema.h"
#include "common/sync.h"
#include "common/value.h"
#include "storage/column_vector.h"
#include "storage/stable_vector.h"

namespace hana::storage {

/// Hash functor so Values can key unordered containers.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// Physical layout of a main's code stream, chosen per column at merge
/// time (BuildMergedMain). Readers are snapshot-pinned, so the atomic
/// part switch publishes a layout change with no reader coordination.
enum class MainEncoding : uint8_t {
  /// Sorted dictionary + bit-packed codes (the classic layout).
  kBitPacked = 0,
  /// Run-length runs over the codes: (run_values[k], run_ends[k]) with
  /// ascending exclusive end rows; `words` is empty. Chosen only for
  /// null-free columns whose average run is long, so scans and filters
  /// work run-at-a-time.
  kRle = 1,
  /// Frame-of-reference for dense int64 domains: the sorted dictionary
  /// is the contiguous range [for_base, for_base + dict_size), so the
  /// code IS the offset (value = for_base + code) and the materialized
  /// dictionary is elided. `words` holds the same bit-packed codes as
  /// kBitPacked; only the per-row dictionary gather disappears.
  kFor = 2,
};

/// The read-optimized *main* store of one column: sorted dictionary +
/// encoded codes + null flags. Immutable once published via
/// shared_ptr — readers decode it without locks, and a delta merge
/// builds a fresh ColumnMain (the shadow copy) instead of mutating the
/// one scans may still be reading.
struct ColumnMain {
  std::vector<Value> dict;      // Sorted, unique, non-null values
                                // (empty when encoding == kFor).
  std::vector<uint64_t> words;  // Codes bit-packed at `bits` each
                                // (empty when encoding == kRle).
  int bits = 1;
  size_t rows = 0;
  std::vector<uint8_t> nulls;  // One flag per row.

  MainEncoding encoding = MainEncoding::kBitPacked;
  size_t dict_size = 0;   // Distinct non-null values, any encoding.
  int64_t for_base = 0;   // kFor: value = for_base + code.
  std::vector<uint32_t> run_values;  // kRle: code per run.
  std::vector<uint32_t> run_ends;    // kRle: ascending exclusive end row.
  /// Every dict entry is a kString Value and dict is non-empty: scans
  /// emit dictionary-form vectors (codes into `dict`) for this main.
  bool string_dict = false;

  /// Code of one row under any encoding (kRle binary-searches the runs).
  uint32_t CodeAt(size_t row) const;
  /// Bulk code decode for rows [start, start + count): the bit-packed
  /// layouts go through the CPU-dispatched unpack kernel, RLE fills
  /// run-at-a-time.
  void DecodeCodes(size_t start, size_t count, uint32_t* out) const;
  /// Boxes the value of a (non-null) code: dict[code], or
  /// Int(for_base + code) for the elided kFor dictionary.
  Value ValueOfCode(uint32_t code) const {
    if (encoding == MainEncoding::kFor) {
      return Value::Int(for_base + static_cast<int64_t>(code));
    }
    return dict[code];
  }
};

/// One generation of the write-optimized *delta*: insertion-ordered
/// dictionary with plain 32-bit codes. Mutable only while it is the
/// live delta of a StoredColumn; FreezeDelta() seals it for an
/// in-flight merge, after which it is read-only forever (readers that
/// snapshotted it keep it alive through their shared_ptr).
///
/// Storage is chunk-stable (StableVector), so a reader may scan rows
/// [0, bound) of the *live* part concurrently with appends, as long as
/// `bound` was captured under the table's state mutex — appends never
/// relocate published elements. The `lookup` accelerator is writer-only
/// state: readers go through dict/codes/nulls exclusively.
struct DeltaPart {
  StableVector<Value> dict;
  std::unordered_map<Value, uint32_t, ValueHash> lookup;
  StableVector<uint32_t> codes;
  StableVector<uint8_t> nulls;  // One flag per delta row.

  size_t rows() const { return codes.size(); }
  void Append(const Value& v);
};

/// A reader's snapshot of one column: the main plus up to two delta
/// generations (frozen = sealed by an in-flight merge, live = current
/// append target). The shared_ptrs pin every part for the snapshot's
/// lifetime, so a concurrent merge switching the column to its new
/// main never invalidates an ongoing scan — the scan simply finishes
/// against the pre-merge parts. Rows are addressed globally:
/// [0, main->rows) in main, then frozen, then live rows
/// [live_skip, live_skip + live_rows) — a partial (watermark-bounded)
/// merge folds a prefix of the live part into main without copying the
/// remainder, recorded as live_skip.
struct ColumnSnapshot {
  DataType type = DataType::kNull;
  std::shared_ptr<const ColumnMain> main;
  std::shared_ptr<const DeltaPart> frozen;  // Null unless a merge is (or
                                            // was) in flight.
  std::shared_ptr<const DeltaPart> live;
  size_t live_skip = 0;  // Live-part prefix already folded into main.
  size_t live_rows = 0;  // Live rows visible to this snapshot (the
                         // append bound captured under state_mu).

  size_t rows() const {
    return main->rows + (frozen ? frozen->rows() : 0) + live_rows;
  }
  bool IsNull(size_t row) const;
  Value Get(size_t row) const;
  /// Bulk-decodes rows [start, start + count) into `out`, unpacking
  /// bit-packed main codes segment-at-a-time and writing straight into
  /// the vector's typed arrays instead of boxing one Value per row.
  void Decode(size_t start, size_t count, ColumnVector* out) const;
};

/// Tuning for ColumnTable::MergeDelta.
struct MergeOptions {
  /// Fan the per-column shadow builds and per-morsel re-encodes across
  /// the global task pool. Results are bit-identical to parallel=false
  /// at any thread count (all output is indexed by row/column, never by
  /// worker or completion order).
  bool parallel = true;
  /// Pool workers to use (0 = the whole pool); the calling thread
  /// always participates.
  size_t max_workers = 0;
  /// Rows per re-encode morsel; rounded up to a multiple of 64 so each
  /// morsel packs a disjoint range of whole 64-bit words.
  size_t morsel_rows = 1u << 16;
  /// Pick a per-column MainEncoding (RLE / frame-of-reference) when the
  /// merged data qualifies; false pins the classic bit-packed layout
  /// (used by benchmarks that compare raw packed words against a
  /// reference build). The choice is a deterministic function of the
  /// merged data, so serial and parallel merges still agree bit for
  /// bit.
  bool choose_encodings = true;
};

/// Per-table observability counters for delta merges, in the spirit of
/// the executor's PipelineStats: merges (and rejected overlapping attempts), rows
/// folded into mains, dictionary growth, merge wall time, and how many
/// scans snapshotted the table while a merge was in flight — the
/// online-merge analogue of "did the fast path actually run".
struct MergeStats {
  // All members: relaxed observability counters. Writers update them
  // under the merge/state locks or from scan paths; readers only need
  // eventual totals, so no ordering is implied and none is needed.
  // atomic: relaxed counter (see struct comment).
  std::atomic<uint64_t> merges_completed{0};
  /// MergeDelta calls rejected because a merge was already in flight.
  // atomic: relaxed counter (see struct comment).
  std::atomic<uint64_t> merges_rejected{0};
  /// Delta rows folded into mains across all completed merges.
  // atomic: relaxed counter (see struct comment).
  std::atomic<uint64_t> rows_merged{0};
  /// Rows a merge could *not* fold because their commit timestamp was
  /// above the MVCC watermark (or they were still uncommitted) — the
  /// "merge respects the oldest active reader" counter.
  // atomic: relaxed counter (see struct comment).
  std::atomic<uint64_t> rows_retained_by_watermark{0};
  /// Dictionary entries across merged columns, before/after the last
  /// merge (before = old main + frozen delta dictionaries).
  // atomic: relaxed counters (see struct comment).
  std::atomic<uint64_t> dict_entries_before{0};
  std::atomic<uint64_t> dict_entries_after{0};
  /// Accumulated merge wall time, microseconds.
  // atomic: relaxed counter (see struct comment).
  std::atomic<uint64_t> merge_micros{0};
  /// Scans that took their snapshot while a merge was in flight (i.e.
  /// scans that ran online against the pre-merge parts).
  // atomic: relaxed counter (see struct comment).
  std::atomic<uint64_t> scans_overlapped{0};
  /// Whole-table footprint around the last merge; their quotient is the
  /// post-merge compression ratio (delta codes + unsorted dictionaries
  /// vs bit-packed codes + sorted dictionaries).
  // atomic: relaxed counters (see struct comment).
  std::atomic<uint64_t> bytes_before{0};
  std::atomic<uint64_t> bytes_after{0};

  double LastCompressionRatio() const {
    uint64_t after = bytes_after.load(std::memory_order_relaxed);
    if (after == 0) return 0.0;
    return static_cast<double>(bytes_before.load(std::memory_order_relaxed)) /
           static_cast<double>(after);
  }
};

/// Builds the merged main for one column from its current main and a
/// frozen delta using old-code -> new-code remap tables: the new sorted
/// dictionary comes from a merge-walk of the (sorted) main dictionary
/// with the sorted frozen-delta dictionary — O(dict log dict) — and the
/// re-encode is then one table lookup per row, morsel-parallel when
/// `options.parallel`. A pure function of its immutable inputs, so it
/// runs on pool workers while concurrent readers keep scanning the old
/// parts.
std::shared_ptr<const ColumnMain> BuildMergedMain(const ColumnMain& main,
                                                  const DeltaPart& frozen,
                                                  const MergeOptions& options);

/// Dictionary-encoded column following HANA's main/delta organization:
/// the write-optimized *delta* keeps an insertion-ordered dictionary
/// with plain codes; merging folds it into the read-optimized *main*
/// whose dictionary is sorted and whose codes are bit-packed.
///
/// Thread-safety: a bare StoredColumn is single-threaded. ColumnTable
/// layers its own locking on the part pointers (see the online-merge
/// protocol there); the phased merge API below (FreezeDelta /
/// BuildMergedMain / SwitchMain) exists so the table can freeze and
/// switch under its lock while the expensive build runs outside it.
class StoredColumn {
 public:
  explicit StoredColumn(DataType type);

  StoredColumn(StoredColumn&&) = default;
  StoredColumn& operator=(StoredColumn&&) = default;
  // Copying would alias the mutable live delta across two columns.
  StoredColumn(const StoredColumn&) = delete;
  StoredColumn& operator=(const StoredColumn&) = delete;

  DataType type() const { return type_; }
  size_t size() const { return snapshot().rows(); }

  void Append(const Value& v) { live_->Append(v); }
  Value Get(size_t row) const { return snapshot().Get(row); }
  bool IsNull(size_t row) const { return snapshot().IsNull(row); }

  /// See ColumnSnapshot::Decode. Thread-safe for concurrent readers
  /// (no mutation).
  void Decode(size_t start, size_t count, ColumnVector* out) const {
    snapshot().Decode(start, count, out);
  }

  /// Serial in-place merge for standalone (single-threaded) columns:
  /// freeze + remap-table rebuild + switch. ColumnTable drives the
  /// phased protocol instead so its merges run online.
  void MergeDelta();

  size_t delta_rows() const {
    return (frozen_ ? frozen_->rows() : 0) + live_->rows() - live_skip_;
  }
  size_t main_rows() const { return main_->rows; }
  size_t live_skip() const { return live_skip_; }
  size_t dictionary_size() const {
    return main_->dict_size + (frozen_ ? frozen_->dict.size() : 0) +
           live_->dict.size();
  }

  /// Compressed footprint in bytes (dictionaries + packed/plain codes +
  /// null flags modeled as bitmaps). Main and delta are accounted
  /// separately so the Figure 2 experiment and merge observability
  /// share one number: MemoryBytes() == MainMemoryBytes() +
  /// DeltaMemoryBytes().
  size_t MemoryBytes() const {
    return MainMemoryBytes() + DeltaMemoryBytes();
  }
  size_t MainMemoryBytes() const;
  size_t DeltaMemoryBytes() const;

  // ---- Online-merge protocol (driven by ColumnTable) ------------------
  /// Copies the part pointers and the live append bound. The caller
  /// provides the mutual exclusion against FreezeDelta/SwitchMain/
  /// ApplyPartialMerge (ColumnTable's state mutex); the parts
  /// themselves are safe to read lock-free afterward.
  ColumnSnapshot snapshot() const {
    return {type_, main_, frozen_, live_, live_skip_,
            live_->rows() - live_skip_};
  }

  /// Seals the live delta for merging (new appends go to a fresh live
  /// part) unless a frozen part from an earlier failed merge is still
  /// pending, in which case that one is merged first. Only valid when
  /// no live prefix has been partially folded (live_skip() == 0) — the
  /// whole live part must be mergeable. Returns whether a frozen part
  /// exists, i.e. whether this column has merge work.
  bool FreezeDelta();

  /// Publishes the shadow-built main and retires the frozen delta. The
  /// previous parts stay alive for readers that snapshotted them.
  void SwitchMain(std::shared_ptr<const ColumnMain> merged);

  /// Publishes a main built from the frozen part plus the live prefix
  /// [live_skip, live_skip + folded_live_rows): retires the frozen part,
  /// advances live_skip, and — once every live row has been folded —
  /// swaps in a fresh empty live part so the superseded one is
  /// garbage-collected as soon as the last pinned snapshot releases it.
  void ApplyPartialMerge(std::shared_ptr<const ColumnMain> merged,
                         size_t folded_live_rows);

  const std::shared_ptr<const ColumnMain>& main_part() const { return main_; }
  const std::shared_ptr<const DeltaPart>& frozen_part() const {
    return frozen_;
  }
  const std::shared_ptr<DeltaPart>& live_part() const { return live_; }

 private:
  DataType type_;
  std::shared_ptr<const ColumnMain> main_;
  std::shared_ptr<const DeltaPart> frozen_;  // Non-null only mid-merge.
  std::shared_ptr<DeltaPart> live_;
  size_t live_skip_ = 0;  // Live prefix already folded into main_.
};

class ColumnTable;

/// An immutable, MVCC-consistent view of a whole table: every column's
/// parts pinned, one global row bound, and one read timestamp. All scan
/// entry points stream from one of these, filtering delta rows through
/// the visibility mask; rows below `folded` live in the maskless main
/// (everything folded is committed at or below every reader's
/// timestamp, so no created-stamp check is needed there).
///
/// Row addressing is positional and stable: GetRow/GetCell do not
/// filter — callers pair them with IsVisible. The snapshot borrows the
/// owning table's stamp stores and must not outlive the table.
class TableReadSnapshot {
 public:
  size_t num_rows() const { return num_rows_; }
  mvcc::Timestamp read_ts() const { return view_.read_ts; }
  const mvcc::ReadView& view() const { return view_; }
  const std::shared_ptr<Schema>& schema() const { return schema_; }

  /// MVCC visibility of one row under this snapshot's read view.
  bool IsVisible(size_t row) const;

  /// Positional reads; no visibility filter (see class comment).
  std::vector<Value> GetRow(size_t row) const;
  Value GetCell(size_t row, size_t col) const;

  /// Streams visible rows as chunks of at most `chunk_rows`; the
  /// callback returns false to stop early. Visibility is evaluated with
  /// a per-block byte mask over the created/deleted stamp stores;
  /// mask-clean runs bulk-decode exactly like the pre-MVCC delete-free
  /// runs (and unallocated stamp chunks make whole runs mask-clean for
  /// free).
  void Scan(size_t chunk_rows,
            const std::function<bool(const Chunk&)>& callback) const;
  void ScanRange(size_t begin, size_t end, size_t chunk_rows,
                 const std::function<bool(const Chunk&)>& callback) const;
  /// Projected range scan: decodes only table columns `columns` (ids, at
  /// least one) and stamps each chunk with `schema` — one column per id,
  /// same types, e.g. a plan's qualified names — so chunk column i holds
  /// table column columns[i]; kRowIdColumn there holds each row's table
  /// position, the address staged deletes take. Chunk framing matches
  /// the full scan.
  void ScanRange(size_t begin, size_t end, size_t chunk_rows,
                 const std::vector<size_t>& columns,
                 const std::shared_ptr<Schema>& schema,
                 const std::function<bool(const Chunk&)>& callback) const;

 private:
  friend class ColumnTable;

  /// Fills `mask` (resized to end - begin) with 0/1 visibility bytes
  /// for global rows [begin, end).
  void BuildVisibilityMask(size_t begin, size_t end,
                           std::vector<uint8_t>* mask) const;

  std::shared_ptr<Schema> schema_;
  std::vector<ColumnSnapshot> columns_;
  size_t num_rows_ = 0;
  size_t folded_ = 0;  // Rows [0, folded_) need no created-stamp check.
  mvcc::ReadView view_;
  const StampStore* created_ = nullptr;
  const StampStore* deleted_ = nullptr;
};

/// The row check every table write runs before touching storage: one
/// value per column, and no NULL in a NOT NULL column.
[[nodiscard]] Status CheckRow(const Schema& schema,
                              const std::vector<Value>& row);

/// In-memory column table: the HANA core storage option for OLAP
/// workloads. Rows are append-only; deletes stamp a deletion timestamp
/// (updates are delete + re-insert, delta-store semantics). Every write
/// is an MVCC version staged and committed through a WriteSet (below;
/// see common/mvcc.h for the stamp encodings).
///
/// Concurrency contract:
///   - Any number of concurrent readers (OpenSnapshot/Scan/ScanRange/
///     ScanPartitioned/GetRow/GetCell) are safe against concurrent
///     writers *and* a concurrent MergeDelta: each reader pins an
///     MVCC snapshot (parts + row bound + read timestamp) and streams
///     from it; writers append past the bound and stamp atomically.
///   - Concurrent writers (the Append*/Stage*/Commit*/Abort* families)
///     serialize on the state mutex (appends) or stamp-store CAS
///     (deletes).
///   - MergeDelta only folds rows committed at or below the MVCC
///     watermark, so every live or future snapshot still finds the
///     versions it needs in the delta.
class ColumnTable {
 public:
  explicit ColumnTable(std::shared_ptr<Schema> schema);

  const std::shared_ptr<Schema>& schema() const { return schema_; }
  size_t num_rows() const { return sync_->created.size(); }
  /// Rows currently visible to a latest-view reader (committed, not
  /// deleted).
  size_t live_rows() const {
    return sync_->live_rows.load(std::memory_order_relaxed);
  }

  /// The committed append of loaders and engines: a WriteSet staging
  /// `rows` and committing them at one timestamp. All rows or none.
  [[nodiscard]] Status AppendRows(const std::vector<std::vector<Value>>& rows);

  std::vector<Value> GetRow(size_t row) const;
  Value GetCell(size_t row, size_t col) const;
  /// Latest-view tombstone check: true once a delete has committed (or
  /// the row was tombstoned forever). Pending transactional deletes do
  /// not count.
  bool IsDeleted(size_t row) const;
  /// Latest-view MVCC visibility: created-committed and not deleted.
  /// What row loops (optimizer statistics) use to skip rows they must
  /// not count — uncommitted and aborted rows are invisible here.
  bool IsVisibleLatest(size_t row) const;

  // ---- MVCC snapshots -------------------------------------------------
  /// Pins an immutable read snapshot of the whole table. The default
  /// view resolves to the version manager's LastVisible() — everything
  /// committed, nothing torn. Pass an explicit view (e.g. from
  /// ExecContext::AcquireReadLease) to read as of an earlier timestamp
  /// or to expose one transaction's own uncommitted writes.
  std::shared_ptr<const TableReadSnapshot> OpenSnapshot(
      mvcc::ReadView view = {}) const;

  /// The commit-timestamp source this table stamps against; defaults to
  /// mvcc::VersionManager::Global(). Tests inject their own.
  void SetVersionManager(mvcc::VersionManager* vm) { vm_ = vm; }
  mvcc::VersionManager* version_manager() const { return vm_; }

  // ---- Versioned write API (driven through WriteSet) ------------------
  /// A contiguous run of rows appended by one writer, the unit the
  /// commit/abort stamps operate on.
  struct TxnAppendHandle {
    size_t first_row = 0;
    size_t rows = 0;
  };

  /// Appends `rows` stamped uncommitted-by-`txn`: invisible to every
  /// reader except `txn` itself until CommitAppend. Runs CheckRow on
  /// every row before touching storage, so a failure appends nothing.
  [[nodiscard]] Result<TxnAppendHandle> AppendRowsUncommitted(
      const std::vector<std::vector<Value>>& rows, uint64_t txn);
  /// Stamps the run committed at `ts`; lock-free, atomic per row. The
  /// transaction becomes visible as a whole once the coordinator
  /// finishes `ts` at the version manager (see common/mvcc.h).
  void CommitAppend(const TxnAppendHandle& h, mvcc::Timestamp ts);
  /// Stamps the run never-visible: the rows stay allocated (positional
  /// addressing never shifts) but no reader will ever see them, and the
  /// next merge tombstones + folds them away.
  void AbortAppend(const TxnAppendHandle& h);

  /// Claims row `row` for deletion by `txn` (uncommitted delete marker;
  /// readers other than `txn` still see the row). Fails with
  /// TransactionAborted on a write-write conflict: the row is already
  /// deleted or claimed by another in-flight writer. Re-staging a claim
  /// `txn` holds is a no-op, so writer ids must be unique per manager.
  [[nodiscard]] Status StageDeleteUncommitted(size_t row, uint64_t txn);
  void CommitDelete(size_t row, mvcc::Timestamp ts);
  void AbortDelete(size_t row, uint64_t txn);

  /// Streams visible rows as chunks of at most `chunk_rows` from a
  /// latest-view snapshot (OpenSnapshot() semantics).
  /// The callback returns false to stop the scan early.
  void Scan(size_t chunk_rows,
            const std::function<bool(const Chunk&)>& callback) const;

  /// Streams visible rows of the physical range [begin, end) as chunks
  /// of at most `chunk_rows`, bulk-decoding visibility-clean runs.
  /// Thread-safe for concurrent readers on disjoint (or even
  /// overlapping) ranges, and against concurrent writers and merges
  /// (snapshot semantics above).
  void ScanRange(size_t begin, size_t end, size_t chunk_rows,
                 const std::function<bool(const Chunk&)>& callback) const;

  /// Morsel-driven parallel scan: splits the physical row space into
  /// `n_partitions` contiguous slices and fans them across the global
  /// task pool, streaming each slice as chunks of at most `morsel_rows`
  /// rows. The callback is invoked concurrently from pool workers and
  /// must be thread-safe; returning false stops that partition only.
  /// Row order within a partition follows physical row order, and
  /// partition boundaries depend only on (num_rows, n_partitions) — not
  /// on the thread count — so per-partition results are deterministic.
  /// All partitions stream from one MVCC snapshot taken at call start.
  void ScanPartitioned(
      size_t morsel_rows, size_t n_partitions,
      const std::function<bool(size_t partition, const Chunk&)>& callback)
      const;

  /// Merges column deltas into their mains, online: concurrent scans
  /// keep streaming from their pre-merge snapshots while pool workers
  /// build each column's new main into a shadow copy (per-column
  /// fan-out plus morsel-parallel re-encode), then the table switches
  /// every column atomically. Only the prefix of delta rows whose
  /// commit timestamps lie at or below the MVCC watermark (oldest
  /// active reader) is folded — uncommitted rows and versions a live
  /// snapshot may still need stay in the delta; fully folded delta
  /// parts are garbage-collected once their last pinned snapshot
  /// releases them. Rows appended during the merge land in live deltas
  /// and survive the switch. Returns Unavailable when a merge is
  /// already in flight on this table.
  [[nodiscard]] Status MergeDelta(const MergeOptions& options = {});

  /// Unmerged rows (frozen + unfolded live deltas) in the widest
  /// column — the auto-merge trigger input.
  size_t delta_rows() const;

  const MergeStats& merge_stats() const { return sync_->stats; }

  /// Appends a new column, backfilled with NULLs for existing rows
  /// (schema-on-the-fly support for flexible tables). Mutates the shared
  /// schema object.
  [[nodiscard]] Status AddColumn(const ColumnDef& def);

  /// MemoryBytes() == MainMemoryBytes() + DeltaMemoryBytes() + the
  /// tombstone bitmap.
  size_t MemoryBytes() const;
  size_t MainMemoryBytes() const;
  size_t DeltaMemoryBytes() const;

  /// Cheap per-column domain summary for optimizer heuristics (e.g. the
  /// perfect-hash join nomination): exact min/max over every stored
  /// non-null value and an upper bound on the distinct count, all read
  /// from dictionary metadata — no row scan. Includes values of rows
  /// whose deletes have committed, so the domain may only look *wider*
  /// than live data (conservative for density checks). min/max are null
  /// Values when the column stores no non-null value.
  struct ColumnDomain {
    Value min;
    Value max;
    size_t distinct_upper = 0;
  };
  ColumnDomain GetColumnDomain(size_t col) const;

 private:
  /// Holds the table's synchronization state out-of-line so the table
  /// stays movable (mutexes and atomics are not).
  struct Sync {
    /// Guards every column's part pointers (main/frozen/live), the
    /// columns_ vector structure, folded_rows and merge_active. Held
    /// briefly: for snapshot copies, appends, and the merge's freeze/
    /// switch phases — never across a shadow build or while waiting on
    /// the pool. Leaf lock except that merge_mu is held around it
    /// during a merge (rank storage.state 65, after storage.merge 60).
    Mutex state_mu ACQUIRED_AFTER(merge_mu){"storage.state",
                                            lock_rank::kStorageState};
    /// Serializes merges on this table. Acquired with TryLock only
    /// (overlapping merges are rejected, not queued), held across the
    /// whole merge including pool waits; pool tasks never acquire it.
    Mutex merge_mu{"storage.merge", lock_rank::kStorageMerge};
    bool merge_active GUARDED_BY(state_mu) = false;
    /// Global rows [0, folded_rows) are folded into every column's main
    /// and carry no visibility uncertainty; scans skip their
    /// created-stamp checks.
    size_t folded_rows GUARDED_BY(state_mu) = 0;
    /// MVCC stamp stores, indexed by global row id (see common/mvcc.h
    /// and StampStore for the encodings and memory ordering). created
    /// also owns the table's row count: its size is published last on
    /// every append.
    StampStore created;
    StampStore deleted;
    // atomic: relaxed visible-row counter maintained by append/delete/
    // commit paths; readers want an eventually-consistent total only.
    std::atomic<size_t> live_rows{0};
    MergeStats stats;
  };

  Status MergeDeltaHoldingMergeMu(const MergeOptions& options,
                                  mvcc::Timestamp watermark)
      REQUIRES(sync_->merge_mu);

  std::shared_ptr<Schema> schema_;
  std::vector<StoredColumn> columns_;
  mvcc::VersionManager* vm_ = &mvcc::VersionManager::Global();
  std::unique_ptr<Sync> sync_;
};

/// One writer's staged versions (appended rows, delete claims) across
/// column tables of one version manager, committed together at one
/// timestamp — deletes before appends, so an update never shows both
/// images — or aborted together; destruction aborts what is still
/// staged. Not thread-safe: one writer drives it.
class WriteSet {
 public:
  /// Draws its writer id from the version manager of the first table
  /// it stages on (VersionManager::NewWriterId).
  WriteSet() = default;
  /// Stages under `writer`, an id the tables' version manager handed
  /// out (a coordinator TxnId).
  explicit WriteSet(uint64_t writer) : writer_(writer) {}
  WriteSet(const WriteSet&) = delete;
  WriteSet& operator=(const WriteSet&) = delete;
  ~WriteSet() { Abort(); }

  /// Appends `rows` to `table` as uncommitted versions. On error (a
  /// row fails CheckRow) nothing is appended; earlier stages stand.
  [[nodiscard]] Status Append(ColumnTable* table,
                              const std::vector<std::vector<Value>>& rows);
  /// Claims `row` of `table` for deletion; a write-write conflict
  /// returns TransactionAborted and claims nothing.
  [[nodiscard]] Status Delete(ColumnTable* table, size_t row);

  /// Stamps every staged version committed at `ts` and empties the set.
  /// The caller owns `ts`: it allocated it and finishes it afterwards.
  void CommitAt(mvcc::Timestamp ts);
  /// Allocates one timestamp from the tables' version manager, stamps
  /// every staged version with it and finishes it; returns the
  /// timestamp (0, allocating none, when nothing is staged).
  mvcc::Timestamp Commit();
  /// Marks staged appends never-visible and releases delete claims.
  void Abort();

 private:
  /// Binds the set to `table`'s version manager on first use (drawing
  /// the writer id if none was given); a table of another manager is
  /// refused, since ids and timestamps are per manager.
  [[nodiscard]] Status Enlist(const ColumnTable& table);

  uint64_t writer_ = 0;
  mvcc::VersionManager* vm_ = nullptr;
  std::vector<std::pair<ColumnTable*, ColumnTable::TxnAppendHandle>>
      appends_;
  std::vector<std::pair<ColumnTable*, size_t>> deletes_;
};

}  // namespace hana::storage

#endif  // HANA_STORAGE_COLUMN_TABLE_H_
