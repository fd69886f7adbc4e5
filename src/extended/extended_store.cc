#include "extended/extended_store.h"

#include <cstdio>
#include <filesystem>

#include "common/strings.h"
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

Result<storage::ColumnVectorPtr> DecodeColumn(DataType type,
                                              const std::vector<uint8_t>& block,
                                              size_t rows) {
  size_t pos = 0;
  HANA_ASSIGN_OR_RETURN(uint64_t mask_size, storage::VarintRead(block, &pos));
  std::vector<uint8_t> mask_bytes(block.begin() + pos,
                                  block.begin() + pos + mask_size);
  HANA_ASSIGN_OR_RETURN(std::vector<int64_t> mask,
                        storage::RleDecode(mask_bytes));
  std::vector<uint8_t> payload(block.begin() + pos + mask_size, block.end());
  auto column = std::make_shared<storage::ColumnVector>(type);
  column->Reserve(rows);
  switch (type) {
    case DataType::kDouble: {
      HANA_ASSIGN_OR_RETURN(std::vector<double> values,
                            storage::DecodeDoubles(payload));
      size_t v = 0;
      for (size_t r = 0; r < rows; ++r) {
        if (mask[r]) {
          column->AppendNull();
        } else {
          column->AppendDouble(values[v++]);
        }
      }
      break;
    }
    case DataType::kString: {
      HANA_ASSIGN_OR_RETURN(std::vector<std::string> values,
                            storage::DecodeStrings(payload));
      size_t v = 0;
      for (size_t r = 0; r < rows; ++r) {
        if (mask[r]) {
          column->AppendNull();
        } else {
          column->AppendString(std::move(values[v++]));
        }
      }
      break;
    }
    case DataType::kBool: {
      HANA_ASSIGN_OR_RETURN(std::vector<int64_t> values,
                            storage::DecodeInts(payload));
      size_t v = 0;
      for (size_t r = 0; r < rows; ++r) {
        if (mask[r]) {
          column->AppendNull();
        } else {
          column->AppendBool(values[v++] != 0);
        }
      }
      break;
    }
    default: {
      HANA_ASSIGN_OR_RETURN(std::vector<int64_t> values,
                            storage::DecodeInts(payload));
      size_t v = 0;
      for (size_t r = 0; r < rows; ++r) {
        if (mask[r]) {
          column->AppendNull();
        } else {
          column->AppendInt(values[v++]);
        }
      }
      break;
    }
  }
  return column;
}

}  // namespace

ExtendedTable::ExtendedTable(ExtendedStore* store, std::string name,
                             std::shared_ptr<Schema> schema, std::string path)
    : store_(store),
      name_(std::move(name)),
      schema_(std::move(schema)),
      path_(std::move(path)) {}

size_t ExtendedTable::num_rows() const {
  size_t n = 0;
  for (const auto& g : groups_) n += g.rows;
  return n;
}

size_t ExtendedTable::live_rows() const {
  size_t n = 0;
  for (const auto& g : groups_) n += g.rows - g.deleted;
  return n;
}

Status ExtendedTable::WriteGroup(const std::vector<std::vector<Value>>& rows,
                                 size_t begin, size_t end) {
  std::FILE* file = std::fopen(path_.c_str(), "ab");
  if (file == nullptr) {
    return Status::IoError("cannot open extended table file " + path_);
  }
  RowGroup group;
  group.rows = end - begin;
  size_t group_bytes = 0;
  for (size_t c = 0; c < schema_->num_columns(); ++c) {
    ColumnBlockRef ref;
    std::vector<uint8_t> block = EncodeColumn(schema_->column(c).type, rows,
                                              c, begin, end, &ref.min,
                                              &ref.max);
    long pos = std::ftell(file);
    if (pos < 0 ||
        std::fwrite(block.data(), 1, block.size(), file) != block.size()) {
      std::fclose(file);
      return Status::IoError("write failed on " + path_);
    }
    ref.offset = static_cast<uint64_t>(pos);
    ref.size = static_cast<uint32_t>(block.size());
    group_bytes += block.size();
    group.columns.push_back(std::move(ref));
  }
  std::fclose(file);
  disk_bytes_ += group_bytes;
  store_->ChargeWrite(group_bytes);
  groups_.push_back(std::move(group));
  return Status::OK();
}

Status ExtendedTable::BulkLoad(const std::vector<std::vector<Value>>& rows) {
  for (const auto& row : rows) {
    if (row.size() != schema_->num_columns()) {
      return Status::InvalidArgument("row arity mismatch in bulk load");
    }
  }
  size_t per_group = store_->options().rows_per_group;
  for (size_t begin = 0; begin < rows.size(); begin += per_group) {
    size_t end = std::min(rows.size(), begin + per_group);
    HANA_RETURN_IF_ERROR(WriteGroup(rows, begin, end));
  }
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

Result<storage::ColumnVectorPtr> ExtendedTable::ReadColumn(size_t group,
                                                           size_t col) {
  return store_->ReadBlock(this, group, col);
}

Status ExtendedTable::Scan(
    const std::vector<ColumnRange>& ranges, size_t chunk_rows,
    const std::function<bool(const storage::Chunk&)>& callback) {
  return Scan(ranges, chunk_rows, storage::AllColumnIds(*schema_), schema_,
              callback);
}

Status ExtendedTable::Scan(
    const std::vector<ColumnRange>& ranges, size_t chunk_rows,
    const std::vector<size_t>& columns, const std::shared_ptr<Schema>& schema,
    const std::function<bool(const storage::Chunk&)>& callback) {
  storage::Chunk chunk = storage::Chunk::Empty(schema);
  std::vector<storage::ColumnVectorPtr> cols(columns.size());
  for (size_t g = 0; g < groups_.size(); ++g) {
    RowGroup& group = groups_[g];
    if (group.deleted == group.rows) continue;
    if (!GroupMatches(group, ranges)) continue;
    for (size_t c = 0; c < columns.size(); ++c) {
      HANA_ASSIGN_OR_RETURN(cols[c], ReadColumn(g, columns[c]));
    }
    for (size_t r = 0; r < group.rows; ++r) {
      if (!group.tombstones.empty() && group.tombstones[r]) continue;
      for (size_t c = 0; c < cols.size(); ++c) {
        chunk.columns[c]->Append(cols[c]->GetValue(r));
      }
      if (chunk.num_rows() >= chunk_rows) {
        if (!callback(chunk)) return Status::OK();
        chunk = storage::Chunk::Empty(schema);
      }
    }
  }
  if (chunk.num_rows() > 0) callback(chunk);
  return Status::OK();
}

Result<std::vector<ExtendedTable::RowRef>> ExtendedTable::MatchRows(
    const std::vector<ColumnRange>& ranges, const ChunkMatch& match) {
  std::vector<RowRef> rows;
  storage::Chunk blocks;
  blocks.schema = schema_;
  std::vector<uint8_t> mask;
  std::vector<size_t> live_rows;
  for (size_t g = 0; g < groups_.size(); ++g) {
    const RowGroup& group = groups_[g];
    if (group.deleted == group.rows) continue;
    if (!GroupMatches(group, ranges)) continue;
    blocks.columns.clear();
    for (size_t c = 0; c < schema_->num_columns(); ++c) {
      HANA_ASSIGN_OR_RETURN(storage::ColumnVectorPtr column,
                            ReadColumn(g, c));
      blocks.columns.push_back(std::move(column));
    }
    if (group.deleted == 0) {
      HANA_RETURN_IF_ERROR(match(blocks, &mask));
      for (size_t r = 0; r < group.rows; ++r) {
        if (mask[r] != 0) rows.push_back(RowRef{g, r});
      }
      continue;
    }
    // Deleted rows must not reach the predicate — an evaluation error on
    // one would fail the statement — so a group with tombstones is
    // matched over a column-wise copy of its live rows.
    storage::Chunk live = storage::Chunk::Empty(schema_);
    live_rows.clear();
    for (size_t r = 0; r < group.rows; ++r) {
      if (group.tombstones[r]) continue;
      live.AppendRowFrom(blocks, r);
      live_rows.push_back(r);
    }
    HANA_RETURN_IF_ERROR(match(live, &mask));
    for (size_t i = 0; i < live_rows.size(); ++i) {
      if (mask[i] != 0) rows.push_back(RowRef{g, live_rows[i]});
    }
  }
  return rows;
}

size_t ExtendedTable::DeleteRows(const std::vector<RowRef>& rows) {
  size_t deleted = 0;
  for (const RowRef& ref : rows) {
    RowGroup& group = groups_[ref.group];
    if (group.tombstones.empty()) group.tombstones.assign(group.rows, 0);
    if (group.tombstones[ref.row]) continue;
    group.tombstones[ref.row] = 1;
    ++group.deleted;
    ++deleted;
  }
  return deleted;
}

Result<Value> ExtendedTable::ColumnMin(size_t col) const {
  Value min;
  for (const auto& g : groups_) {
    const Value& m = g.columns[col].min;
    if (!m.is_null() && (min.is_null() || m.Compare(min) < 0)) min = m;
  }
  return min;
}

Result<Value> ExtendedTable::ColumnMax(size_t col) const {
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
  auto it = tables_.find(ToUpper(name));
  if (it == tables_.end()) {
    return Status::NotFound("extended table not found: " + name);
  }
  return it->second.get();
}

bool ExtendedStore::HasTable(const std::string& name) const {
  return tables_.count(ToUpper(name)) > 0;
}

Status ExtendedStore::DropTable(const std::string& name) {
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
  std::vector<std::string> names;
  for (const auto& [key, table] : tables_) names.push_back(table->name());
  return names;
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

Result<storage::ColumnVectorPtr> ExtendedStore::ReadBlock(
    ExtendedTable* table, size_t group, size_t col) {
  std::string key = ToUpper(table->name_) + "#" + std::to_string(group) +
                    "#" + std::to_string(col);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++metrics_.cache_hits;
    lru_.erase(it->second.lru_it);
    lru_.push_front(key);
    it->second.lru_it = lru_.begin();
    return it->second.data;
  }
  const ExtendedTable::ColumnBlockRef& ref =
      table->groups_[group].columns[col];
  std::FILE* file = std::fopen(table->path_.c_str(), "rb");
  if (file == nullptr) {
    return Status::IoError("cannot open " + table->path_);
  }
  std::vector<uint8_t> block(ref.size);
  if (std::fseek(file, static_cast<long>(ref.offset), SEEK_SET) != 0 ||
      std::fread(block.data(), 1, block.size(), file) != block.size()) {
    std::fclose(file);
    return Status::IoError("read failed on " + table->path_);
  }
  std::fclose(file);
  ChargeRead(block.size());
  HANA_ASSIGN_OR_RETURN(
      storage::ColumnVectorPtr data,
      DecodeColumn(table->schema_->column(col).type, block,
                   table->groups_[group].rows));
  // Insert into the LRU cache.
  size_t bytes = ref.size * 4 + 64;  // Rough decoded footprint.
  while (cache_used_ + bytes > options_.cache_bytes && !lru_.empty()) {
    const std::string& victim = lru_.back();
    auto victim_it = cache_.find(victim);
    cache_used_ -= victim_it->second.bytes;
    cache_.erase(victim_it);
    lru_.pop_back();
  }
  lru_.push_front(key);
  cache_[key] = CacheEntry{data, bytes, lru_.begin()};
  cache_used_ += bytes;
  return data;
}

}  // namespace hana::extended
