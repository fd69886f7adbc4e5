#ifndef HANA_EXTENDED_EXTENDED_STORE_H_
#define HANA_EXTENDED_EXTENDED_STORE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/schema.h"
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
/// compressed blocks, per-group zone maps, tombstone deletes.
class ExtendedTable {
 public:
  const std::string& name() const { return name_; }
  const std::shared_ptr<Schema>& schema() const { return schema_; }
  size_t num_rows() const;
  size_t live_rows() const;
  size_t disk_bytes() const { return disk_bytes_; }
  size_t num_groups() const { return groups_.size(); }

  /// Direct bulk load: appends rows as sealed row groups, bypassing any
  /// in-memory staging (Section 3.1 "direct load mechanism").
  [[nodiscard]] Status BulkLoad(const std::vector<std::vector<Value>>& rows);

  /// Streams live rows as chunks. `ranges` prunes row groups whose zone
  /// maps cannot satisfy the constraints (pruning is conservative; the
  /// caller still applies its full filter).
  [[nodiscard]] Status Scan(const std::vector<ColumnRange>& ranges, size_t chunk_rows,
              const std::function<bool(const storage::Chunk&)>& callback);
  /// Projected scan: reads only the blocks of table columns `columns`
  /// (ids, at least one) and stamps chunks with `schema`, one column per
  /// id. `ranges` still name table columns; zone maps need no block read.
  [[nodiscard]] Status Scan(
      const std::vector<ColumnRange>& ranges, size_t chunk_rows,
      const std::vector<size_t>& columns,
      const std::shared_ptr<Schema>& schema,
      const std::function<bool(const storage::Chunk&)>& callback);

  /// Position of one row: (row group, row within the group).
  struct RowRef {
    size_t group = 0;
    size_t row = 0;
  };
  /// Chunk-level predicate: sets (*mask)[r] to 1 for the chunk rows it
  /// selects (see exec::SelectRows).
  using ChunkMatch =
      std::function<Status(const storage::Chunk&, std::vector<uint8_t>*)>;

  /// Live rows `match` selects, in row order; changes nothing. Row
  /// groups that are fully deleted or whose zone maps cannot satisfy
  /// `ranges` are not read. A group without deletes is matched as one
  /// chunk over its decoded blocks (no copy); a group with some is
  /// matched over a copy of its live rows, so deleted rows never reach
  /// the predicate. A match error is returned as is.
  [[nodiscard]] Result<std::vector<RowRef>> MatchRows(
      const std::vector<ColumnRange>& ranges, const ChunkMatch& match);

  /// Tombstones rows found by MatchRows. Returns the number of rows
  /// deleted (rows already deleted are not counted again).
  size_t DeleteRows(const std::vector<RowRef>& rows);

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

  [[nodiscard]] Status WriteGroup(const std::vector<std::vector<Value>>& rows, size_t begin,
                    size_t end);
  [[nodiscard]] Result<storage::ColumnVectorPtr> ReadColumn(size_t group, size_t col);
  bool GroupMatches(const RowGroup& group,
                    const std::vector<ColumnRange>& ranges) const;

  ExtendedStore* store_;
  std::string name_;
  std::shared_ptr<Schema> schema_;
  std::string path_;
  std::vector<RowGroup> groups_;
  size_t disk_bytes_ = 0;
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
  ExtendedStoreMetrics& metrics() { return metrics_; }
  SimClock& clock() { return clock_; }

 private:
  friend class ExtendedTable;

  /// Reads (and caches) a decoded column block; charges virtual I/O.
  [[nodiscard]] Result<storage::ColumnVectorPtr> ReadBlock(ExtendedTable* table,
                                             size_t group, size_t col);
  void ChargeRead(size_t bytes);
  void ChargeWrite(size_t bytes);

  struct CacheEntry {
    storage::ColumnVectorPtr data;
    size_t bytes = 0;
    std::list<std::string>::iterator lru_it;
  };

  ExtendedStoreOptions options_;
  ExtendedStoreMetrics metrics_;
  SimClock clock_;
  std::map<std::string, std::unique_ptr<ExtendedTable>> tables_;
  std::unordered_map<std::string, CacheEntry> cache_;
  std::list<std::string> lru_;
  size_t cache_used_ = 0;
};

}  // namespace hana::extended

#endif  // HANA_EXTENDED_EXTENDED_STORE_H_
