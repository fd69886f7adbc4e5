#ifndef HANA_EXTENDED_EXTENDED_STORE_H_
#define HANA_EXTENDED_EXTENDED_STORE_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/schema.h"
#include "common/sync.h"
#include "common/util.h"
#include "storage/column_vector.h"

namespace hana::extended {

/// Simple per-column range constraint used for zone-map pruning
/// (inclusive bounds; a null Value means unbounded).
struct ColumnRange {
  size_t column = 0;
  Value lower;  // Null = -inf.
  Value upper;  // Null = +inf.
};

/// Tuning and cost-model knobs for the IQ-style store. The virtual-time
/// parameters model the dedicated disk-optimized host the paper deploys
/// the extended storage on.
struct ExtendedStoreOptions {
  std::string directory;            // On-disk location (required).
  size_t rows_per_group = 4096;     // Row-group granularity.
  size_t cache_bytes = 64 << 20;    // Buffer-cache capacity.
  double seek_ms = 2.0;             // Virtual seek cost per block read.
  double read_mbps = 150.0;         // Virtual sequential read bandwidth.
  double write_mbps = 120.0;        // Virtual write bandwidth.
};

/// Runtime counters (virtual I/O time, cache behaviour).
struct ExtendedStoreMetrics {
  uint64_t blocks_read = 0;
  uint64_t cache_hits = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  double simulated_io_ms = 0.0;
  void Reset() { *this = ExtendedStoreMetrics(); }
};

class ExtendedStore;

/// A disk-resident columnar table: append-only row groups, per-column
/// compressed blocks, per-group zone maps, tombstone deletes. Loads,
/// deletes and scans may run on different threads (ExtendedStore::mu_).
class ExtendedTable {
 public:
  const std::string& name() const { return name_; }
  const std::shared_ptr<Schema>& schema() const { return schema_; }
  size_t num_rows() const;
  size_t live_rows() const;
  size_t disk_bytes() const;
  size_t num_groups() const;

  /// Direct bulk load: appends rows as sealed row groups, bypassing any
  /// in-memory staging (Section 3.1 "direct load mechanism").
  [[nodiscard]] Status BulkLoad(const std::vector<std::vector<Value>>& rows);

  /// Streams live rows as chunks. `ranges` prunes row groups whose zone
  /// maps cannot satisfy the constraints (pruning is conservative; the
  /// caller still applies its full filter). Each surviving row group is
  /// gathered into the chunks column by column over its live rows. With
  /// `dop` > 1, up to dop - 1 later groups are read and decoded ahead on
  /// TaskPool::Global(); results and metrics do not depend on `dop`, and
  /// blocks read ahead but never consumed are neither charged nor
  /// cached. Read-ahead tasks take no lock; the scan never waits for
  /// one or calls `callback` under the store's mutex.
  [[nodiscard]] Status Scan(const std::vector<ColumnRange>& ranges, size_t chunk_rows,
              const std::function<bool(const storage::Chunk&)>& callback,
              size_t dop = 1);
  /// Projected scan: reads only the blocks of table columns `columns`
  /// (ids, at least one) and stamps chunks with `schema`, one column per
  /// id; storage::kRowIdColumn there holds each row's id, (row group
  /// << 32) | row within the group. `ranges` still name table columns;
  /// zone maps need no block read.
  [[nodiscard]] Status Scan(
      const std::vector<ColumnRange>& ranges, size_t chunk_rows,
      const std::vector<size_t>& columns,
      const std::shared_ptr<Schema>& schema,
      const std::function<bool(const storage::Chunk&)>& callback,
      size_t dop = 1);

  /// Tombstones the rows of `row_ids` (ids a projected Scan emitted).
  /// Returns the number of rows deleted (rows already deleted are not
  /// counted again).
  size_t DeleteRows(const std::vector<int64_t>& row_ids);

  /// Zone-map summary for statistics.
  [[nodiscard]] Result<Value> ColumnMin(size_t col) const;
  [[nodiscard]] Result<Value> ColumnMax(size_t col) const;

 private:
  friend class ExtendedStore;

  struct ColumnBlockRef {
    uint64_t offset = 0;
    uint32_t size = 0;
    Value min;
    Value max;
  };
  struct RowGroup {
    size_t rows = 0;
    std::vector<ColumnBlockRef> columns;
    std::vector<uint8_t> tombstones;  // Lazily sized.
    size_t deleted = 0;
  };

  ExtendedTable(ExtendedStore* store, std::string name,
                std::shared_ptr<Schema> schema, std::string path);

  /// Encodes rows [begin, end) as one row group appended to `file`,
  /// describing it in `group` and adding its size to `bytes`.
  [[nodiscard]] Status WriteGroup(std::FILE* file,
                                  const std::vector<std::vector<Value>>& rows,
                                  size_t begin, size_t end, RowGroup* group,
                                  size_t* bytes) const;
  bool GroupMatches(const RowGroup& group,
                    const std::vector<ColumnRange>& ranges) const;
  /// Groups with a live row whose zone maps satisfy `ranges`, in order.
  std::vector<size_t> SurvivingGroups(
      const std::vector<ColumnRange>& ranges) const;

  class GroupReader;

  ExtendedStore* store_;
  std::string name_;
  std::shared_ptr<Schema> schema_;
  std::string path_;
  // Held across a BulkLoad's file writes (lock_rank::kExtendedAppend).
  Mutex append_mu_{"extended.append", lock_rank::kExtendedAppend};
  std::vector<RowGroup> groups_;  // Guarded by store_->mu_.
  size_t disk_bytes_ = 0;         // Guarded by store_->mu_.
};

/// The IQ-style storage manager: owns tables under one directory, a
/// shared LRU buffer cache, the virtual-time I/O model and metrics.
class ExtendedStore {
 public:
  explicit ExtendedStore(ExtendedStoreOptions options);
  ~ExtendedStore();

  ExtendedStore(const ExtendedStore&) = delete;
  ExtendedStore& operator=(const ExtendedStore&) = delete;

  [[nodiscard]] Result<ExtendedTable*> CreateTable(const std::string& name,
                                     std::shared_ptr<Schema> schema);
  [[nodiscard]] Result<ExtendedTable*> GetTable(const std::string& name) const;
  bool HasTable(const std::string& name) const;
  [[nodiscard]] Status DropTable(const std::string& name);
  std::vector<std::string> TableNames() const;

  const ExtendedStoreOptions& options() const { return options_; }
  /// A copy: scans on other threads may be charging reads.
  ExtendedStoreMetrics metrics() const EXCLUDES(mu_);
  void ResetMetrics() EXCLUDES(mu_);
  SimClock& clock() { return clock_; }

 private:
  friend class ExtendedTable;

  /// The buffer cache, keyed "TABLE#group#column": a lookup counts a
  /// hit and refreshes the LRU order (null on a miss); Contains does
  /// neither; Admit evicts least recently used blocks to fit a block of
  /// `block_bytes` on disk.
  storage::ColumnVectorPtr CacheLookup(const std::string& key) REQUIRES(mu_);
  bool CacheContains(const std::string& key) const REQUIRES(mu_);
  void CacheAdmit(const std::string& key, storage::ColumnVectorPtr data,
                  size_t block_bytes) REQUIRES(mu_);
  void ChargeRead(size_t bytes) REQUIRES(mu_);
  void ChargeWrite(size_t bytes) REQUIRES(mu_);

  struct CacheEntry {
    storage::ColumnVectorPtr data;
    size_t bytes = 0;
    std::list<std::string>::iterator lru_it;
  };

  ExtendedStoreOptions options_;
  SimClock clock_;
  /// One lock for the table map, every table's row groups and
  /// tombstones, the buffer cache and the metrics, whoever touches them
  /// (lock_rank::kExtendedStore).
  mutable Mutex mu_{"extended.store", lock_rank::kExtendedStore};
  ExtendedStoreMetrics metrics_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<ExtendedTable>> tables_
      GUARDED_BY(mu_);
  std::unordered_map<std::string, CacheEntry> cache_ GUARDED_BY(mu_);
  std::list<std::string> lru_ GUARDED_BY(mu_);
  size_t cache_used_ GUARDED_BY(mu_) = 0;
};

}  // namespace hana::extended

#endif  // HANA_EXTENDED_EXTENDED_STORE_H_
