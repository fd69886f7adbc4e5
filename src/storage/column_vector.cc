#include "storage/column_vector.h"

#include <algorithm>

#include "common/strings.h"

namespace hana::storage {

namespace {

thread_local uint64_t* t_dict_flattened = nullptr;

}  // namespace

void CountDictFlattenedRows(uint64_t rows) {
  if (t_dict_flattened != nullptr) *t_dict_flattened += rows;
}

DictFlattenScope::DictFlattenScope(uint64_t* sink)
    : previous_(t_dict_flattened) {
  t_dict_flattened = sink;
}

DictFlattenScope::~DictFlattenScope() { t_dict_flattened = previous_; }

void ColumnVector::Reserve(size_t n) {
  nulls_.reserve(n);
  switch (type_) {
    case DataType::kDouble:
      doubles_.reserve(n);
      break;
    case DataType::kString:
      if (dict_ != nullptr) {
        codes_.reserve(n);
      } else {
        strings_.reserve(n);
      }
      break;
    default:
      ints_.reserve(n);
      break;
  }
}

void ColumnVector::AppendNull() {
  nulls_.push_back(1);
  switch (type_) {
    case DataType::kDouble:
      doubles_.push_back(0.0);
      break;
    case DataType::kString:
      if (dict_ != nullptr) {
        codes_.push_back(0);
      } else {
        strings_.emplace_back();
      }
      break;
    default:
      ints_.push_back(0);
      break;
  }
}

void ColumnVector::AppendInt(int64_t v) {
  nulls_.push_back(0);
  ints_.push_back(v);
}

void ColumnVector::AppendDouble(double v) {
  nulls_.push_back(0);
  doubles_.push_back(v);
}

void ColumnVector::AppendBool(bool v) {
  nulls_.push_back(0);
  ints_.push_back(v ? 1 : 0);
}

void ColumnVector::AppendString(std::string v) {
  Flatten();
  nulls_.push_back(0);
  strings_.push_back(std::move(v));
}

bool ColumnVector::Adopt(const StringDictionaryPtr& dict) {
  if (dict_ == dict) return true;
  if (dict_ == nullptr &&
      std::find(nulls_.begin(), nulls_.end(), 0) == nulls_.end()) {
    // No owned string yet (empty, or NULL rows only): take the codes.
    dict_ = dict;
    codes_.assign(size(), 0);
    std::vector<std::string>().swap(strings_);
    return true;
  }
  Flatten();
  return false;
}

void ColumnVector::Flatten() {
  if (dict_ == nullptr) return;
  const size_t n = size();
  strings_.clear();
  strings_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (nulls_[i]) {
      strings_.emplace_back();
    } else {
      strings_.push_back((*dict_)[codes_[i]].string_value());
    }
  }
  CountDictFlattenedRows(n);
  dict_.reset();
  std::vector<uint32_t>().swap(codes_);
}

void ColumnVector::AppendCodes(const StringDictionaryPtr& dict,
                               const uint32_t* codes, const uint8_t* nulls,
                               size_t n) {
  if (n == 0) return;
  if (!Adopt(dict)) {
    for (size_t i = 0; i < n; ++i) {
      if (nulls != nullptr && nulls[i]) {
        AppendNull();
      } else {
        nulls_.push_back(0);
        strings_.push_back((*dict)[codes[i]].string_value());
      }
    }
    CountDictFlattenedRows(n);
    return;
  }
  if (nulls != nullptr) {
    nulls_.insert(nulls_.end(), nulls, nulls + n);
  } else {
    nulls_.insert(nulls_.end(), n, 0);
  }
  codes_.insert(codes_.end(), codes, codes + n);
}

void ColumnVector::Append(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kBool:
      AppendBool(v.type() == DataType::kBool ? v.bool_value()
                                             : v.AsDouble() != 0.0);
      break;
    case DataType::kInt64:
    case DataType::kDate:
    case DataType::kTimestamp:
      AppendInt(v.AsInt());
      break;
    case DataType::kDouble:
      AppendDouble(v.AsDouble());
      break;
    case DataType::kString:
      AppendString(v.type() == DataType::kString ? v.string_value()
                                                 : v.ToString());
      break;
    default:
      AppendNull();
      break;
  }
}

void ColumnVector::AppendFrom(const ColumnVector& src, size_t i) {
  if (src.type_ != type_) {
    Append(src.GetValue(i));  // Mixed types: go through the boxed path.
    return;
  }
  if (src.nulls_[i]) {
    AppendNull();
    return;
  }
  if (type_ == DataType::kString) {
    if (src.dict_ != nullptr && src.dict_ == dict_) {
      nulls_.push_back(0);
      codes_.push_back(src.codes_[i]);
    } else if (src.dict_ != nullptr) {
      AppendCodes(src.dict_, &src.codes_[i], nullptr, 1);
    } else {
      AppendString(src.strings_[i]);
    }
    return;
  }
  nulls_.push_back(0);
  switch (type_) {
    case DataType::kDouble:
      doubles_.push_back(src.doubles_[i]);
      break;
    default:
      ints_.push_back(src.ints_[i]);
      break;
  }
}

void ColumnVector::AppendGather(const ColumnVector& src, const uint32_t* rows,
                                size_t count) {
  if (count == 0) return;
  if (src.type_ != type_) {
    for (size_t k = 0; k < count; ++k) Append(src.GetValue(rows[k]));
    return;
  }
  if (type_ == DataType::kString && src.dict_ != nullptr && Adopt(src.dict_)) {
    const size_t base = size();
    nulls_.resize(base + count);
    codes_.resize(base + count);
    for (size_t k = 0; k < count; ++k) {
      nulls_[base + k] = src.nulls_[rows[k]];
      codes_[base + k] = src.codes_[rows[k]];
    }
    return;
  }
  if (type_ == DataType::kString) {
    Flatten();
    if (src.dict_ != nullptr) CountDictFlattenedRows(count);
  }
  const size_t base = size();
  nulls_.resize(base + count);
  for (size_t k = 0; k < count; ++k) nulls_[base + k] = src.nulls_[rows[k]];
  switch (type_) {
    case DataType::kDouble:
      doubles_.resize(base + count);
      for (size_t k = 0; k < count; ++k) {
        doubles_[base + k] = src.doubles_[rows[k]];
      }
      break;
    case DataType::kString:
      strings_.reserve(base + count);
      for (size_t k = 0; k < count; ++k) {
        strings_.push_back(src.GetString(rows[k]));
      }
      break;
    default:
      ints_.resize(base + count);
      for (size_t k = 0; k < count; ++k) ints_[base + k] = src.ints_[rows[k]];
      break;
  }
}

void ColumnVector::Resize(size_t n) {
  Flatten();
  nulls_.resize(n, 0);
  switch (type_) {
    case DataType::kDouble:
      doubles_.resize(n, 0.0);
      break;
    case DataType::kString:
      strings_.resize(n);
      break;
    default:
      ints_.resize(n, 0);
      break;
  }
  runs_.clear();
  runs_covered_ = 0;
}

void ColumnVector::AppendIntRun(int64_t v, size_t n) {
  if (n == 0) return;
  runs_.push_back({static_cast<uint32_t>(size()),
                   static_cast<uint32_t>(size() + n)});
  runs_covered_ += n;
  nulls_.insert(nulls_.end(), n, 0);
  ints_.insert(ints_.end(), n, v);
}

void ColumnVector::AppendDoubleRun(double v, size_t n) {
  if (n == 0) return;
  runs_.push_back({static_cast<uint32_t>(size()),
                   static_cast<uint32_t>(size() + n)});
  runs_covered_ += n;
  nulls_.insert(nulls_.end(), n, 0);
  doubles_.insert(doubles_.end(), n, v);
}

void ColumnVector::AppendBoolRun(bool v, size_t n) {
  if (n == 0) return;
  runs_.push_back({static_cast<uint32_t>(size()),
                   static_cast<uint32_t>(size() + n)});
  runs_covered_ += n;
  nulls_.insert(nulls_.end(), n, 0);
  ints_.insert(ints_.end(), n, v ? 1 : 0);
}

void ColumnVector::AppendStringRun(const std::string& v, size_t n) {
  if (n == 0) return;
  Flatten();
  runs_.push_back({static_cast<uint32_t>(size()),
                   static_cast<uint32_t>(size() + n)});
  runs_covered_ += n;
  nulls_.insert(nulls_.end(), n, 0);
  strings_.insert(strings_.end(), n, v);
}

void ColumnVector::AppendCodeRun(const StringDictionaryPtr& dict,
                                 uint32_t code, size_t n) {
  if (n == 0) return;
  if (!Adopt(dict)) {
    AppendStringRun((*dict)[code].string_value(), n);
    CountDictFlattenedRows(n);
    return;
  }
  runs_.push_back({static_cast<uint32_t>(size()),
                   static_cast<uint32_t>(size() + n)});
  runs_covered_ += n;
  nulls_.insert(nulls_.end(), n, 0);
  codes_.insert(codes_.end(), n, code);
}

Value ColumnVector::GetValue(size_t i) const {
  if (nulls_[i]) return Value::Null();
  switch (type_) {
    case DataType::kBool:
      return Value::Bool(ints_[i] != 0);
    case DataType::kInt64:
      return Value::Int(ints_[i]);
    case DataType::kDate:
      return Value::Date(ints_[i]);
    case DataType::kTimestamp:
      return Value::Timestamp(ints_[i]);
    case DataType::kDouble:
      return Value::Double(doubles_[i]);
    case DataType::kString:
      return Value::String(GetString(i));
    default:
      return Value::Null();
  }
}

Value ColumnVector::TakeValue(size_t i) {
  if (type_ == DataType::kString && !nulls_[i] && dict_ == nullptr) {
    return Value::String(std::move(strings_[i]));
  }
  return GetValue(i);
}

Chunk Chunk::Empty(std::shared_ptr<Schema> schema) {
  Chunk chunk;
  chunk.schema = std::move(schema);
  chunk.columns.reserve(chunk.schema->num_columns());
  for (size_t i = 0; i < chunk.schema->num_columns(); ++i) {
    chunk.columns.push_back(
        std::make_shared<ColumnVector>(chunk.schema->column(i).type));
  }
  return chunk;
}

std::vector<size_t> AllColumnIds(const Schema& schema) {
  std::vector<size_t> ids(schema.num_columns());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  return ids;
}

std::vector<Value> Chunk::Row(size_t r) const {
  std::vector<Value> row;
  row.reserve(columns.size());
  for (const auto& col : columns) row.push_back(col->GetValue(r));
  return row;
}

void Chunk::AppendRow(const std::vector<Value>& row) {
  for (size_t i = 0; i < columns.size(); ++i) columns[i]->Append(row[i]);
}

void Chunk::AppendRowFrom(const Chunk& src, size_t r) {
  for (size_t i = 0; i < columns.size(); ++i) {
    columns[i]->AppendFrom(*src.columns[i], r);
  }
}

void Table::AppendChunk(const Chunk& chunk) {
  size_t n = chunk.num_rows();
  rows_.reserve(rows_.size() + n);
  for (size_t r = 0; r < n; ++r) rows_.push_back(chunk.Row(r));
}

void Table::AppendChunk(Chunk&& chunk) {
  size_t n = chunk.num_rows();
  rows_.reserve(rows_.size() + n);
  for (size_t r = 0; r < n; ++r) {
    std::vector<Value> row;
    row.reserve(chunk.columns.size());
    for (auto& col : chunk.columns) {
      // Vectors can be shared between chunks (pass-through operators);
      // only steal payloads from vectors we solely own.
      row.push_back(col.use_count() == 1 ? col->TakeValue(r)
                                         : col->GetValue(r));
    }
    rows_.push_back(std::move(row));
  }
}

std::string Table::ToString(size_t max_rows) const {
  std::vector<size_t> widths(schema_->num_columns());
  std::vector<std::vector<std::string>> cells;
  std::vector<std::string> header;
  for (size_t c = 0; c < schema_->num_columns(); ++c) {
    header.push_back(schema_->column(c).name);
    widths[c] = header[c].size();
  }
  size_t shown = std::min(max_rows, rows_.size());
  for (size_t r = 0; r < shown; ++r) {
    std::vector<std::string> row;
    for (size_t c = 0; c < schema_->num_columns(); ++c) {
      row.push_back(rows_[r][c].ToString());
      widths[c] = std::max(widths[c], row[c].size());
    }
    cells.push_back(std::move(row));
  }
  std::string out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    out += "|";
    for (size_t c = 0; c < row.size(); ++c) {
      out += " ";
      out += row[c];
      out.append(widths[c] - row[c].size() + 1, ' ');
      out += "|";
    }
    out += "\n";
  };
  std::string rule = "+";
  for (size_t c = 0; c < widths.size(); ++c) {
    rule.append(widths[c] + 2, '-');
    rule += "+";
  }
  rule += "\n";
  out += rule;
  emit_row(header);
  out += rule;
  for (const auto& row : cells) emit_row(row);
  out += rule;
  if (shown < rows_.size()) {
    out += StrFormat("(%zu of %zu rows shown)\n", shown, rows_.size());
  } else {
    out += StrFormat("(%zu rows)\n", rows_.size());
  }
  return out;
}

}  // namespace hana::storage
