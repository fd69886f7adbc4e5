#include "extended/extended_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <span>

#include "common/strings.h"
#include "common/task_pool.h"
#include "storage/codec.h"

namespace hana::extended {

namespace {

namespace fs = std::filesystem;

/// Encodes one column slice into a compressed block.
std::vector<uint8_t> EncodeColumn(DataType type,
                                  const std::vector<std::vector<Value>>& rows,
                                  size_t col, size_t begin, size_t end,
                                  Value* min_out, Value* max_out) {
  // Null mask first (RLE over 0/1), then the payload for non-null rows.
  std::vector<int64_t> null_mask;
  null_mask.reserve(end - begin);
  Value min, max;
  for (size_t r = begin; r < end; ++r) {
    const Value& v = rows[r][col];
    null_mask.push_back(v.is_null() ? 1 : 0);
    if (!v.is_null()) {
      if (min.is_null() || v.Compare(min) < 0) min = v;
      if (max.is_null() || v.Compare(max) > 0) max = v;
    }
  }
  *min_out = min;
  *max_out = max;
  std::vector<uint8_t> out = storage::RleEncode(null_mask);
  std::vector<uint8_t> payload;
  switch (type) {
    case DataType::kDouble: {
      std::vector<double> values;
      for (size_t r = begin; r < end; ++r) {
        if (!rows[r][col].is_null()) values.push_back(rows[r][col].AsDouble());
      }
      payload = storage::EncodeDoubles(values);
      break;
    }
    case DataType::kString: {
      std::vector<std::string> values;
      for (size_t r = begin; r < end; ++r) {
        if (!rows[r][col].is_null()) {
          values.push_back(rows[r][col].string_value());
        }
      }
      payload = storage::EncodeStrings(values);
      break;
    }
    default: {
      std::vector<int64_t> values;
      for (size_t r = begin; r < end; ++r) {
        if (!rows[r][col].is_null()) values.push_back(rows[r][col].AsInt());
      }
      payload = storage::EncodeIntsBest(values);
      break;
    }
  }
  std::vector<uint8_t> block;
  storage::VarintAppend(&block, out.size());
  block.insert(block.end(), out.begin(), out.end());
  block.insert(block.end(), payload.begin(), payload.end());
  return block;
}

/// Decodes one column block straight into `out`, a fresh vector of the
/// column's type: the RLE null mask fills the null flags, and the
/// payload's values are decoded into the front of the value array and,
/// when the block has NULLs, spread backwards to their rows in place.
/// Every count is checked against `rows`, so a corrupt block is an
/// IoError, never an out-of-range read.
Status DecodeColumn(std::span<const uint8_t> block, size_t rows,
                    storage::ColumnVector* out) {
  size_t pos = 0;
  HANA_ASSIGN_OR_RETURN(uint64_t mask_size, storage::VarintRead(block, &pos));
  if (mask_size > block.size() - pos) {
    return Status::IoError("corrupt extended block: null mask past the end");
  }
  std::span<const uint8_t> mask = block.subspan(pos, mask_size);
  std::span<const uint8_t> payload = block.subspan(pos + mask_size);
  out->Resize(rows);
  uint8_t* nulls = out->mutable_nulls();
  size_t mask_pos = 0;
  HANA_ASSIGN_OR_RETURN(uint64_t mask_rows,
                        storage::VarintRead(mask, &mask_pos));
  if (mask_rows != rows) {
    return Status::IoError("corrupt extended block: null mask of " +
                           std::to_string(mask_rows) + " rows, expected " +
                           std::to_string(rows));
  }
  size_t filled = 0, null_count = 0;
  while (filled < rows) {
    HANA_ASSIGN_OR_RETURN(uint64_t enc, storage::VarintRead(mask, &mask_pos));
    HANA_ASSIGN_OR_RETURN(uint64_t run, storage::VarintRead(mask, &mask_pos));
    if (run > rows - filled) {
      return Status::IoError("corrupt extended block: null mask run");
    }
    if (enc != 0) {
      std::fill_n(nulls + filled, run, 1);
      null_count += run;
    }
    filled += run;
  }
  const size_t values = rows - null_count;
  // Moves the `values` decoded values at the front of `data` to the
  // non-null rows, back to front, and resets NULL rows to the zero
  // value AppendNull stores.
  auto spread = [&](auto* data) {
    // While r > v, rows [0, r) hold a NULL, so data[v - 1] sits below
    // row r; once r == v, rows [0, v) are non-null and in place.
    size_t v = values;
    for (size_t r = rows; r > v;) {
      --r;
      if (nulls[r] != 0) {
        data[r] = {};
      } else {
        data[r] = std::move(data[--v]);
      }
    }
  };
  switch (out->type()) {
    case DataType::kDouble:
      HANA_RETURN_IF_ERROR(
          storage::DecodeDoublesInto(payload, out->mutable_doubles(), values));
      spread(out->mutable_doubles());
      break;
    case DataType::kString:
      HANA_RETURN_IF_ERROR(
          storage::DecodeStringsInto(payload, out->mutable_strings(), values));
      spread(out->mutable_strings());
      break;
    case DataType::kBool: {
      int64_t* ints = out->mutable_ints();
      HANA_RETURN_IF_ERROR(storage::DecodeIntsInto(payload, ints, values));
      for (size_t i = 0; i < values; ++i) ints[i] = ints[i] != 0;
      spread(ints);
      break;
    }
    default:
      HANA_RETURN_IF_ERROR(
          storage::DecodeIntsInto(payload, out->mutable_ints(), values));
      spread(out->mutable_ints());
      break;
  }
  return Status::OK();
}

/// An open table file, shared by one scan and its read-ahead tasks.
/// pread keeps concurrent reads independent of any file position.
class BlockFile {
 public:
  static Result<std::shared_ptr<const BlockFile>> Open(
      const std::string& path) {
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return Status::IoError("cannot open " + path);
    return std::shared_ptr<const BlockFile>(new BlockFile(fd, path));
  }
  ~BlockFile() { ::close(fd_); }
  BlockFile(const BlockFile&) = delete;
  BlockFile& operator=(const BlockFile&) = delete;

  Status Read(uint64_t offset, size_t size, std::vector<uint8_t>* out) const {
    out->resize(size);
    size_t done = 0;
    while (done < size) {
      ssize_t n = ::pread(fd_, out->data() + done, size - done,
                          static_cast<off_t>(offset + done));
      if (n <= 0) return Status::IoError("read failed on " + path_);
      done += static_cast<size_t>(n);
    }
    return Status::OK();
  }

 private:
  BlockFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  int fd_;
  std::string path_;
};

/// Reads and decodes one block into a fresh vector.
Result<storage::ColumnVectorPtr> LoadBlock(const BlockFile& file,
                                           uint64_t offset, size_t size,
                                           DataType type, size_t rows,
                                           std::vector<uint8_t>* buffer) {
  HANA_RETURN_IF_ERROR(file.Read(offset, size, buffer));
  auto column = std::make_shared<storage::ColumnVector>(type);
  HANA_RETURN_IF_ERROR(DecodeColumn(*buffer, rows, column.get()));
  return column;
}

/// Row indexes of a group's live rows: every row, or those without a
/// tombstone.
void LiveRowIndexes(size_t rows, const std::vector<uint8_t>& tombstones,
                    std::vector<uint32_t>* out) {
  out->clear();
  out->reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    if (tombstones.empty() || tombstones[r] == 0) {
      out->push_back(static_cast<uint32_t>(r));
    }
  }
}

}  // namespace

ExtendedTable::ExtendedTable(ExtendedStore* store, std::string name,
                             std::shared_ptr<Schema> schema, std::string path)
    : store_(store),
      name_(std::move(name)),
      schema_(std::move(schema)),
      path_(std::move(path)) {}

size_t ExtendedTable::num_rows() const {
  MutexLock lock(store_->mu_);
  size_t n = 0;
  for (const auto& g : groups_) n += g.rows;
  return n;
}

size_t ExtendedTable::live_rows() const {
  MutexLock lock(store_->mu_);
  size_t n = 0;
  for (const auto& g : groups_) n += g.rows - g.deleted;
  return n;
}

size_t ExtendedTable::disk_bytes() const {
  MutexLock lock(store_->mu_);
  return disk_bytes_;
}

size_t ExtendedTable::num_groups() const {
  MutexLock lock(store_->mu_);
  return groups_.size();
}

Status ExtendedTable::WriteGroup(std::FILE* file,
                                 const std::vector<std::vector<Value>>& rows,
                                 size_t begin, size_t end, RowGroup* group,
                                 size_t* bytes) const {
  group->rows = end - begin;
  for (size_t c = 0; c < schema_->num_columns(); ++c) {
    ColumnBlockRef ref;
    std::vector<uint8_t> block = EncodeColumn(schema_->column(c).type, rows,
                                              c, begin, end, &ref.min,
                                              &ref.max);
    long pos = std::ftell(file);
    if (pos < 0 ||
        std::fwrite(block.data(), 1, block.size(), file) != block.size()) {
      return Status::IoError("write failed on " + path_);
    }
    ref.offset = static_cast<uint64_t>(pos);
    ref.size = static_cast<uint32_t>(block.size());
    *bytes += block.size();
    group->columns.push_back(std::move(ref));
  }
  return Status::OK();
}

Status ExtendedTable::BulkLoad(const std::vector<std::vector<Value>>& rows) {
  for (const auto& row : rows) {
    if (row.size() != schema_->num_columns()) {
      return Status::InvalidArgument("row arity mismatch in bulk load");
    }
  }
  if (rows.empty()) return Status::OK();
  size_t per_group = store_->options().rows_per_group;
  // One appender at a time, so offsets stay as recorded. The groups are
  // written outside the store's mutex and published under it only once
  // all are on disk: a failed load adds no group.
  MutexLock append(append_mu_);
  std::FILE* file = std::fopen(path_.c_str(), "ab");
  if (file == nullptr) {
    return Status::IoError("cannot open extended table file " + path_);
  }
  std::vector<RowGroup> written;
  size_t bytes = 0;
  Status status;
  for (size_t begin = 0; begin < rows.size() && status.ok();
       begin += per_group) {
    written.emplace_back();
    status = WriteGroup(file, rows, begin,
                        std::min(rows.size(), begin + per_group),
                        &written.back(), &bytes);
  }
  if (std::fclose(file) != 0 && status.ok()) {
    status = Status::IoError("write failed on " + path_);
  }
  HANA_RETURN_IF_ERROR(status);
  MutexLock lock(store_->mu_);
  disk_bytes_ += bytes;
  store_->ChargeWrite(bytes);
  for (RowGroup& group : written) groups_.push_back(std::move(group));
  return Status::OK();
}

bool ExtendedTable::GroupMatches(const RowGroup& group,
                                 const std::vector<ColumnRange>& ranges) const {
  for (const ColumnRange& range : ranges) {
    if (range.column >= group.columns.size()) continue;
    const ColumnBlockRef& ref = group.columns[range.column];
    if (ref.min.is_null() && ref.max.is_null()) continue;  // All-null block.
    if (!range.lower.is_null() && !ref.max.is_null() &&
        ref.max.Compare(range.lower) < 0) {
      return false;
    }
    if (!range.upper.is_null() && !ref.min.is_null() &&
        ref.min.Compare(range.upper) > 0) {
      return false;
    }
  }
  return true;
}

/// Serves the surviving row groups of one scan in order and reads up to
/// dop - 1 groups ahead on the task pool. Only the calling thread
/// touches the buffer cache and the metrics, in group order, so the
/// counters equal a serial scan's at any dop: a read-ahead task only
/// reads the file and decodes, and the blocks it loads are charged and
/// cached when the group is consumed, never otherwise.
class ExtendedTable::GroupReader {
 public:
  GroupReader(ExtendedTable* table, std::vector<size_t> groups,
              const std::vector<size_t>& columns, size_t dop)
      : table_(table),
        groups_(std::move(groups)),
        columns_(columns),
        depth_(dop > 1 ? dop - 1 : 0),
        key_prefix_(ToUpper(table->name_) + "#"),
        slots_(groups_.size()) {}

  /// Claims every read-ahead that has not started and waits for those
  /// that have, so no task outlives the scan's use of the table.
  ~GroupReader() {
    for (const std::shared_ptr<Slot>& slot : slots_) {
      if (slot != nullptr) slot->Await();
    }
  }

  GroupReader(const GroupReader&) = delete;
  GroupReader& operator=(const GroupReader&) = delete;

  const std::vector<size_t>& groups() const { return groups_; }

  /// The blocks of groups()[i], one per column, and the indexes of its
  /// live rows; i = 0, 1, ... in order. Never waits or reads the file
  /// under the store's mutex.
  Status Load(size_t i, std::vector<storage::ColumnVectorPtr>* blocks,
              std::vector<uint32_t>* live) {
    ExtendedStore* store = table_->store_;
    const size_t g = groups_[i];
    size_t until = std::min(groups_.size(), i + 1 + depth_);
    if (scheduled_ < until) (void)File();  // Opened for the read-ahead.
    size_t rows = 0;
    std::vector<Slot::Read> misses;  // Blocks the buffer cache lacks.
    blocks->assign(columns_.size(), nullptr);
    {
      MutexLock lock(store->mu_);
      for (scheduled_ = std::max(scheduled_, i + 1); scheduled_ < until;
           ++scheduled_) {
        Schedule(scheduled_);
      }
      const RowGroup& group = table_->groups_[g];
      rows = group.rows;
      LiveRowIndexes(group.rows, group.tombstones, live);
      for (size_t c = 0; c < columns_.size(); ++c) {
        (*blocks)[c] = store->CacheLookup(Key(g, columns_[c]));
        const ColumnBlockRef& ref = group.columns[columns_[c]];
        if ((*blocks)[c] == nullptr) {
          misses.push_back(Slot::Read{
              c, ref.offset, ref.size,
              table_->schema_->column(columns_[c]).type});
        }
      }
    }
    std::shared_ptr<Slot> slot = std::move(slots_[i]);
    if (slot != nullptr) slot->Await();
    for (const Slot::Read& miss : misses) {
      storage::ColumnVectorPtr& block = (*blocks)[miss.column];
      if (slot != nullptr) block = std::move(slot->blocks[miss.column]);
      if (block != nullptr) continue;
      // Not read ahead, or the read-ahead failed: read here, so an error
      // surfaces in group order.
      HANA_ASSIGN_OR_RETURN(const BlockFile* file, File());
      HANA_ASSIGN_OR_RETURN(block, LoadBlock(*file, miss.offset, miss.size,
                                             miss.type, rows, &buffer_));
    }
    MutexLock lock(store->mu_);
    for (const Slot::Read& miss : misses) {
      store->ChargeRead(miss.size);
      store->CacheAdmit(Key(g, columns_[miss.column]), (*blocks)[miss.column],
                        miss.size);
    }
    return Status::OK();
  }

 private:
  /// One group's read-ahead: the blocks that missed the buffer cache
  /// when it was scheduled. Self-contained, so a queued task never
  /// touches the table, which may be gone by the time the task runs.
  struct Slot {
    enum : int { kQueued, kLoading, kDone, kClaimed };
    struct Read {
      size_t column = 0;  // Index into the scan's columns.
      uint64_t offset = 0;
      uint32_t size = 0;
      DataType type = DataType::kInt64;
    };

    /// The pool task: loads the blocks unless the scan claimed the slot.
    void RunIfQueued() {
      int expected = kQueued;
      if (!state.compare_exchange_strong(expected, kLoading)) {
        return;
      }
      std::vector<uint8_t> buffer;
      for (const Read& read : reads) {
        // A failed load leaves the block null; the scan reads it again
        // and reports the error in order.
        Result<storage::ColumnVectorPtr> block =
            LoadBlock(*file, read.offset, read.size, read.type, rows, &buffer);
        if (block.ok()) blocks[read.column] = *std::move(block);
      }
      state.store(kDone);
      state.notify_all();
    }

    /// Claims a slot whose task has not started; waits for one that has.
    void Await() {
      int expected = kQueued;
      if (state.compare_exchange_strong(expected, kClaimed)) {
        return;
      }
      while (expected == kLoading) {
        state.wait(kLoading);
        expected = state.load();
      }
    }

    // atomic: seq_cst. kQueued -> kLoading (the task) or kQueued ->
    // kClaimed (the scan) by CAS, so exactly one side loads; the task's
    // store of kDone publishes `blocks` to the scan's load after wait.
    std::atomic<int> state{kQueued};
    std::shared_ptr<const BlockFile> file;
    size_t rows = 0;
    std::vector<Read> reads;
    std::vector<storage::ColumnVectorPtr> blocks;  // One per scan column.
  };

  std::string Key(size_t group, size_t col) const {
    return key_prefix_ + std::to_string(group) + "#" + std::to_string(col);
  }

  Result<const BlockFile*> File() {
    if (file_ == nullptr) {
      HANA_ASSIGN_OR_RETURN(file_, BlockFile::Open(table_->path_));
    }
    return file_.get();
  }

  /// Hands groups()[i]'s uncached blocks to a pool task; the caller
  /// holds the store's mutex and has opened the file.
  void Schedule(size_t i) {
    const size_t g = groups_[i];
    const RowGroup& group = table_->groups_[g];
    auto slot = std::make_shared<Slot>();
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (table_->store_->CacheContains(Key(g, columns_[c]))) continue;
      const ColumnBlockRef& ref = group.columns[columns_[c]];
      slot->reads.push_back(Slot::Read{
          c, ref.offset, ref.size, table_->schema_->column(columns_[c]).type});
    }
    // Nothing to read, or no file: the scan loads the group itself (and
    // reports the open error there).
    if (slot->reads.empty() || file_ == nullptr) return;
    slot->file = file_;
    slot->rows = group.rows;
    slot->blocks.resize(columns_.size());
    slots_[i] = slot;
    // The task captures only the slot. It takes no lock, so it may be
    // queued under any engine lock, extended.store included.
    (void)TaskPool::Global().Submit([slot] { slot->RunIfQueued(); });
  }

  ExtendedTable* table_;
  std::vector<size_t> groups_;
  const std::vector<size_t>& columns_;
  size_t depth_;
  std::string key_prefix_;
  std::shared_ptr<const BlockFile> file_;
  std::vector<std::shared_ptr<Slot>> slots_;  // Null: loaded by the scan.
  size_t scheduled_ = 1;  // Group 0 is never read ahead.
  std::vector<uint8_t> buffer_;
};

std::vector<size_t> ExtendedTable::SurvivingGroups(
    const std::vector<ColumnRange>& ranges) const {
  MutexLock lock(store_->mu_);
  std::vector<size_t> out;
  for (size_t g = 0; g < groups_.size(); ++g) {
    const RowGroup& group = groups_[g];
    if (group.deleted == group.rows) continue;
    if (!GroupMatches(group, ranges)) continue;
    out.push_back(g);
  }
  return out;
}

Status ExtendedTable::Scan(
    const std::vector<ColumnRange>& ranges, size_t chunk_rows,
    const std::function<bool(const storage::Chunk&)>& callback, size_t dop) {
  return Scan(ranges, chunk_rows, storage::AllColumnIds(*schema_), schema_,
              callback, dop);
}

Status ExtendedTable::Scan(
    const std::vector<ColumnRange>& ranges, size_t chunk_rows,
    const std::vector<size_t>& columns, const std::shared_ptr<Schema>& schema,
    const std::function<bool(const storage::Chunk&)>& callback, size_t dop) {
  chunk_rows = std::max<size_t>(chunk_rows, 1);
  // The blocks to read: every listed column but the row id.
  std::vector<size_t> stored;
  for (size_t column : columns) {
    if (column != storage::kRowIdColumn) stored.push_back(column);
  }
  GroupReader reader(this, SurvivingGroups(ranges), stored, dop);
  std::vector<storage::ColumnVectorPtr> blocks;
  std::vector<uint32_t> live;
  auto fresh_chunk = [&] {
    storage::Chunk chunk = storage::Chunk::Empty(schema);
    for (const storage::ColumnVectorPtr& column : chunk.columns) {
      column->Reserve(chunk_rows);
    }
    return chunk;
  };
  storage::Chunk chunk = fresh_chunk();
  for (size_t i = 0; i < reader.groups().size(); ++i) {
    HANA_RETURN_IF_ERROR(reader.Load(i, &blocks, &live));
    const int64_t group_id = static_cast<int64_t>(reader.groups()[i]) << 32;
    // Chunks fill to chunk_rows across group boundaries, one column at
    // a time, so tombstoned rows drop out through the selection.
    for (size_t begin = 0; begin < live.size();) {
      size_t take = std::min(chunk_rows - chunk.num_rows(), live.size() - begin);
      for (size_t c = 0, b = 0; c < columns.size(); ++c) {
        storage::ColumnVector* out = chunk.columns[c].get();
        if (columns[c] == storage::kRowIdColumn) {
          for (size_t k = begin; k < begin + take; ++k) {
            out->AppendInt(group_id | live[k]);
          }
        } else {
          out->AppendGather(*blocks[b++], live.data() + begin, take);
        }
      }
      begin += take;
      if (chunk.num_rows() >= chunk_rows) {
        if (!callback(chunk)) return Status::OK();
        chunk = fresh_chunk();
      }
    }
  }
  if (chunk.num_rows() > 0) callback(chunk);
  return Status::OK();
}

size_t ExtendedTable::DeleteRows(const std::vector<int64_t>& row_ids) {
  MutexLock lock(store_->mu_);
  size_t deleted = 0;
  for (int64_t id : row_ids) {
    const size_t g = static_cast<size_t>(id >> 32);
    const size_t row = static_cast<size_t>(id & 0xffffffff);
    if (g >= groups_.size() || row >= groups_[g].rows) continue;
    RowGroup& group = groups_[g];
    if (group.tombstones.empty()) group.tombstones.assign(group.rows, 0);
    if (group.tombstones[row]) continue;
    group.tombstones[row] = 1;
    ++group.deleted;
    ++deleted;
  }
  return deleted;
}

Result<Value> ExtendedTable::ColumnMin(size_t col) const {
  MutexLock lock(store_->mu_);
  Value min;
  for (const auto& g : groups_) {
    const Value& m = g.columns[col].min;
    if (!m.is_null() && (min.is_null() || m.Compare(min) < 0)) min = m;
  }
  return min;
}

Result<Value> ExtendedTable::ColumnMax(size_t col) const {
  MutexLock lock(store_->mu_);
  Value max;
  for (const auto& g : groups_) {
    const Value& m = g.columns[col].max;
    if (!m.is_null() && (max.is_null() || m.Compare(max) > 0)) max = m;
  }
  return max;
}

ExtendedStore::ExtendedStore(ExtendedStoreOptions options)
    : options_(std::move(options)) {
  std::error_code ec;
  fs::create_directories(options_.directory, ec);
}

ExtendedStore::~ExtendedStore() = default;

Result<ExtendedTable*> ExtendedStore::CreateTable(
    const std::string& name, std::shared_ptr<Schema> schema) {
  std::string key = ToUpper(name);
  MutexLock lock(mu_);
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("extended table exists: " + name);
  }
  std::string path = options_.directory + "/" + key + ".iqt";
  std::remove(path.c_str());
  auto table = std::unique_ptr<ExtendedTable>(
      new ExtendedTable(this, name, std::move(schema), path));
  ExtendedTable* raw = table.get();
  tables_[key] = std::move(table);
  return raw;
}

Result<ExtendedTable*> ExtendedStore::GetTable(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = tables_.find(ToUpper(name));
  if (it == tables_.end()) {
    return Status::NotFound("extended table not found: " + name);
  }
  return it->second.get();
}

bool ExtendedStore::HasTable(const std::string& name) const {
  MutexLock lock(mu_);
  return tables_.count(ToUpper(name)) > 0;
}

Status ExtendedStore::DropTable(const std::string& name) {
  MutexLock lock(mu_);
  auto it = tables_.find(ToUpper(name));
  if (it == tables_.end()) {
    return Status::NotFound("extended table not found: " + name);
  }
  std::remove(it->second->path_.c_str());
  // Purge cached blocks of this table.
  for (auto cache_it = cache_.begin(); cache_it != cache_.end();) {
    if (cache_it->first.rfind(ToUpper(name) + "#", 0) == 0) {
      cache_used_ -= cache_it->second.bytes;
      lru_.erase(cache_it->second.lru_it);
      cache_it = cache_.erase(cache_it);
    } else {
      ++cache_it;
    }
  }
  tables_.erase(it);
  return Status::OK();
}

std::vector<std::string> ExtendedStore::TableNames() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  for (const auto& [key, table] : tables_) names.push_back(table->name());
  return names;
}

ExtendedStoreMetrics ExtendedStore::metrics() const {
  MutexLock lock(mu_);
  return metrics_;
}

void ExtendedStore::ResetMetrics() {
  MutexLock lock(mu_);
  metrics_.Reset();
}

void ExtendedStore::ChargeRead(size_t bytes) {
  metrics_.bytes_read += bytes;
  ++metrics_.blocks_read;
  double ms = options_.seek_ms +
              static_cast<double>(bytes) / (options_.read_mbps * 1048.576);
  metrics_.simulated_io_ms += ms;
  clock_.Advance(ms);
}

void ExtendedStore::ChargeWrite(size_t bytes) {
  metrics_.bytes_written += bytes;
  double ms = static_cast<double>(bytes) / (options_.write_mbps * 1048.576);
  metrics_.simulated_io_ms += ms;
  clock_.Advance(ms);
}

storage::ColumnVectorPtr ExtendedStore::CacheLookup(const std::string& key) {
  auto it = cache_.find(key);
  if (it == cache_.end()) return nullptr;
  ++metrics_.cache_hits;
  lru_.erase(it->second.lru_it);
  lru_.push_front(key);
  it->second.lru_it = lru_.begin();
  return it->second.data;
}

bool ExtendedStore::CacheContains(const std::string& key) const {
  return cache_.count(key) > 0;
}

void ExtendedStore::CacheAdmit(const std::string& key,
                               storage::ColumnVectorPtr data,
                               size_t block_bytes) {
  auto found = cache_.find(key);
  if (found != cache_.end()) {
    // Another scan read the block too and admitted it first: keep that
    // copy, refreshed.
    lru_.erase(found->second.lru_it);
    lru_.push_front(key);
    found->second.lru_it = lru_.begin();
    return;
  }
  size_t bytes = block_bytes * 4 + 64;  // Rough decoded footprint.
  while (cache_used_ + bytes > options_.cache_bytes && !lru_.empty()) {
    const std::string& victim = lru_.back();
    auto victim_it = cache_.find(victim);
    cache_used_ -= victim_it->second.bytes;
    cache_.erase(victim_it);
    lru_.pop_back();
  }
  lru_.push_front(key);
  cache_[key] = CacheEntry{std::move(data), bytes, lru_.begin()};
  cache_used_ += bytes;
}

}  // namespace hana::extended
