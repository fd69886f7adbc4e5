#ifndef HANA_STORAGE_COLUMN_VECTOR_H_
#define HANA_STORAGE_COLUMN_VECTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/value.h"

namespace hana::storage {

/// A main's sorted string dictionary (ColumnMain::dict, every entry a
/// kString Value, ordered by Value::Compare = byte order). Vectors hold
/// it through a shared_ptr aliasing the ColumnMain, so the dictionary is
/// never copied and the main it belongs to stays alive while any vector
/// still holds its codes, across a concurrent merge that switches the
/// column to a new main.
using StringDictionary = std::vector<Value>;
using StringDictionaryPtr = std::shared_ptr<const StringDictionary>;

/// A decoded, in-flight column of values used by the execution engine
/// (vector-at-a-time processing). Stores one physical array depending on
/// the logical type plus a per-row null flag. Bool/date/timestamp share
/// the int64 array.
///
/// String vectors come in two forms. The flat form owns one std::string
/// per row. The dictionary form holds one uint32_t code per row into a
/// pinned StringDictionary (main-store scans emit it), so scans, filters,
/// gathers and group keys move codes instead of strings. Adopt or
/// flatten: a vector with no non-null row adopts the dictionary of the
/// first dictionary rows appended into it; appending rows of another
/// dictionary, flat rows or a boxed string first converts it to the flat
/// form. Every accessor below resolves codes through the dictionary;
/// only strings_data() / mutable_strings() are flat-only.
class ColumnVector {
 public:
  explicit ColumnVector(DataType type) : type_(type) {}

  DataType type() const { return type_; }
  size_t size() const { return nulls_.size(); }

  void Reserve(size_t n);

  void AppendNull();
  void AppendInt(int64_t v);
  void AppendDouble(double v);
  void AppendBool(bool v);
  void AppendString(std::string v);
  /// Appends any Value; the value must match the column type (or be null).
  void Append(const Value& v);

  bool IsNull(size_t i) const { return nulls_[i] != 0; }
  int64_t GetInt(size_t i) const { return ints_[i]; }
  double GetDouble(size_t i) const { return doubles_[i]; }
  bool GetBool(size_t i) const { return ints_[i] != 0; }
  const std::string& GetString(size_t i) const {
    return dict_ != nullptr ? (*dict_)[codes_[i]].string_value()
                            : strings_[i];
  }

  /// Dictionary form: the pinned dictionary (null for the flat form) and
  /// one code per row (0 on NULL rows). Within one dictionary, code
  /// equality is string equality and code order is string order.
  const StringDictionaryPtr& dictionary() const { return dict_; }
  const uint32_t* codes_data() const { return codes_.data(); }
  uint32_t GetCode(size_t i) const { return codes_[i]; }
  /// True when both vectors hold codes of the same dictionary.
  bool SharesDictionary(const ColumnVector& other) const {
    return dict_ != nullptr && dict_ == other.dict_;
  }

  /// Raw array views for vectorized operators (column-wise key hashing
  /// and comparison in the radix hash join). ints_data() backs the
  /// int64/bool/date/timestamp physical representation; strings_data()
  /// is the flat form only (check dictionary() first).
  const uint8_t* nulls_data() const { return nulls_.data(); }
  const int64_t* ints_data() const { return ints_.data(); }
  const double* doubles_data() const { return doubles_.data(); }
  const std::string* strings_data() const { return strings_.data(); }

  /// Appends row i of `src` without boxing through Value. The source
  /// must have the same physical type as this vector.
  void AppendFrom(const ColumnVector& src, size_t i);

  /// Appends rows rows[0..count) of `src` in order, column-at-a-time
  /// (the gather of filters and join residual batches). Same type rule
  /// as AppendFrom.
  void AppendGather(const ColumnVector& src, const uint32_t* rows,
                    size_t count);

  /// Appends `n` rows of dictionary codes (`nulls` may be null: no NULL
  /// rows; codes of NULL rows are ignored). Adopts `dict` under the
  /// adopt-or-flatten rule, else appends the rows' strings.
  void AppendCodes(const StringDictionaryPtr& dict, const uint32_t* codes,
                   const uint8_t* nulls, size_t n);

  /// Resizes to `n` rows for kernels that write rows in place through
  /// the mutable views below; added rows are non-null zeros (empty
  /// strings). Clears the run index. A string vector becomes flat.
  void Resize(size_t n);
  uint8_t* mutable_nulls() { return nulls_.data(); }
  int64_t* mutable_ints() { return ints_.data(); }
  double* mutable_doubles() { return doubles_.data(); }
  std::string* mutable_strings() {
    Flatten();
    return strings_.data();
  }

  /// A maximal range of equal, non-null values recorded by a run-aware
  /// decoder (RLE-encoded mains): rows [begin, end), half-open.
  struct ValueRun {
    uint32_t begin;
    uint32_t end;
  };

  /// Run appends: `n` copies of one non-null value, recorded in the run
  /// index. Scalar appends do not record runs, so run_indexed() is true
  /// only when every row of the vector arrived through run appends —
  /// which is exactly when a filter may evaluate its predicate once per
  /// run instead of once per row.
  void AppendIntRun(int64_t v, size_t n);
  void AppendDoubleRun(double v, size_t n);
  void AppendBoolRun(bool v, size_t n);
  void AppendStringRun(const std::string& v, size_t n);
  /// A run of one dictionary code (adopt or flatten, as AppendCodes).
  void AppendCodeRun(const StringDictionaryPtr& dict, uint32_t code,
                     size_t n);

  /// True when the recorded runs cover every row of the vector.
  bool run_indexed() const {
    return !runs_.empty() && runs_covered_ == size();
  }
  const std::vector<ValueRun>& runs() const { return runs_; }

  /// Boxes row i into a Value (null-aware).
  Value GetValue(size_t i) const;

  /// Like GetValue but transfers ownership of a string payload out of
  /// the vector (the slot is left empty). Only valid when the caller is
  /// the vector's sole owner and will discard it afterwards.
  Value TakeValue(size_t i);

 private:
  /// Adopt or flatten before appending rows of `dict`: true when this
  /// vector now holds codes of `dict`, false when it is (now) flat.
  bool Adopt(const StringDictionaryPtr& dict);
  /// Converts the dictionary form to the flat form (no-op when flat).
  void Flatten();

  DataType type_;
  std::vector<uint8_t> nulls_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  // Dictionary form of a string vector: dict_ non-null, strings_ empty,
  // codes_ one entry per row.
  StringDictionaryPtr dict_;
  std::vector<uint32_t> codes_;
  // Run index: populated only by the Append*Run methods. runs_covered_
  // counts rows appended through runs; run_indexed() compares it against
  // size() so any interleaved scalar append invalidates the index
  // without every scalar path having to clear it.
  std::vector<ValueRun> runs_;
  size_t runs_covered_ = 0;
};

using ColumnVectorPtr = std::shared_ptr<ColumnVector>;

/// Adds `rows` to the innermost DictFlattenScope of this thread: rows
/// whose dictionary code was turned into an owned string.
void CountDictFlattenedRows(uint64_t rows);

/// While alive, adds the rows this thread converts from dictionary codes
/// to owned strings (a Flatten, dictionary rows appended into a flat
/// vector, a dictionary string copied into a computed vector) to
/// `*sink`. Scopes nest; the innermost one counts.
class DictFlattenScope {
 public:
  explicit DictFlattenScope(uint64_t* sink);
  ~DictFlattenScope();
  DictFlattenScope(const DictFlattenScope&) = delete;
  DictFlattenScope& operator=(const DictFlattenScope&) = delete;

 private:
  uint64_t* previous_;
};

/// A horizontal slice of rows flowing between operators.
struct Chunk {
  std::shared_ptr<Schema> schema;
  std::vector<ColumnVectorPtr> columns;

  size_t num_rows() const { return columns.empty() ? 0 : columns[0]->size(); }
  size_t num_columns() const { return columns.size(); }

  /// Creates an empty chunk with one vector per schema column.
  static Chunk Empty(std::shared_ptr<Schema> schema);

  /// Boxes row r as a vector of Values.
  std::vector<Value> Row(size_t r) const;

  /// Appends a boxed row; types must match the schema.
  void AppendRow(const std::vector<Value>& row);

  /// Appends row r of `src` column-wise (no Value boxing). The source
  /// columns must have the same physical types, column for column.
  void AppendRowFrom(const Chunk& src, size_t r);
};

/// Column ids 0..n-1 of `schema`: the column list of an unprojected scan.
std::vector<size_t> AllColumnIds(const Schema& schema);

/// A scan column id (last in a list) naming each row's address: the
/// scan emits a BIGINT row id there, where DML stages its writes — a
/// column table's row position, an extended table's (group << 32) | row.
inline constexpr size_t kRowIdColumn = static_cast<size_t>(-1);

/// Default number of rows per chunk produced by scans.
inline constexpr size_t kDefaultChunkRows = 2048;

/// A fully materialized result set: an owned schema plus all chunks
/// concatenated. Convenience container for tests, examples and the
/// platform API.
class Table {
 public:
  Table() : schema_(std::make_shared<Schema>()) {}
  explicit Table(std::shared_ptr<Schema> schema)
      : schema_(std::move(schema)) {}

  const std::shared_ptr<Schema>& schema() const { return schema_; }
  size_t num_rows() const { return rows_.size(); }
  const std::vector<Value>& row(size_t i) const { return rows_[i]; }
  std::vector<std::vector<Value>>& rows() { return rows_; }
  const std::vector<std::vector<Value>>& rows() const { return rows_; }

  void AppendRow(std::vector<Value> row) { rows_.push_back(std::move(row)); }
  void AppendChunk(const Chunk& chunk);
  /// Destructive drain: moves string payloads out of uniquely-owned
  /// column vectors instead of copying them.
  void AppendChunk(Chunk&& chunk);

  /// Renders an ASCII table (used by examples and EXPLAIN output).
  std::string ToString(size_t max_rows = 50) const;

 private:
  std::shared_ptr<Schema> schema_;
  std::vector<std::vector<Value>> rows_;
};

}  // namespace hana::storage

#endif  // HANA_STORAGE_COLUMN_VECTOR_H_
