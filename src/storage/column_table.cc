#include "storage/column_table.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <numeric>
#include <utility>

#include "common/strings.h"
#include "common/task_pool.h"
#include "common/util.h"
#include "storage/codec.h"

namespace hana::storage {

void DeltaPart::Append(const Value& v) {
  if (v.is_null()) {
    nulls.Append(1);
    codes.Append(0);
    return;
  }
  nulls.Append(0);
  auto it = lookup.find(v);
  if (it != lookup.end()) {
    codes.Append(it->second);
    return;
  }
  uint32_t code = static_cast<uint32_t>(dict.size());
  dict.Append(v);
  lookup.emplace(v, code);
  codes.Append(code);
}

uint32_t ColumnMain::CodeAt(size_t row) const {
  if (encoding == MainEncoding::kRle) {
    // Run k covers rows [run_ends[k-1], run_ends[k]): the first
    // exclusive end beyond `row` names the run.
    size_t k = std::upper_bound(run_ends.begin(), run_ends.end(),
                                static_cast<uint32_t>(row)) -
               run_ends.begin();
    return run_values[k];
  }
  return BitGet(words, bits, row);
}

void ColumnMain::DecodeCodes(size_t start, size_t count, uint32_t* out) const {
  if (count == 0) return;
  if (encoding == MainEncoding::kRle) {
    size_t k = std::upper_bound(run_ends.begin(), run_ends.end(),
                                static_cast<uint32_t>(start)) -
               run_ends.begin();
    size_t r = start;
    size_t end = start + count;
    while (r < end) {
      size_t run_end = std::min<size_t>(run_ends[k], end);
      uint32_t v = run_values[k];
      for (; r < run_end; ++r) out[r - start] = v;
      ++k;
    }
    return;
  }
  BitUnpackInto(words.data(), words.size(), bits, start, count, out);
}

bool ColumnSnapshot::IsNull(size_t row) const {
  if (row < main->rows) return main->nulls[row] != 0;
  row -= main->rows;
  if (frozen != nullptr) {
    if (row < frozen->rows()) return frozen->nulls[row] != 0;
    row -= frozen->rows();
  }
  return live->nulls[live_skip + row] != 0;
}

Value ColumnSnapshot::Get(size_t row) const {
  if (row < main->rows) {
    if (main->nulls[row]) return Value::Null();
    return main->ValueOfCode(main->CodeAt(row));
  }
  row -= main->rows;
  if (frozen != nullptr) {
    if (row < frozen->rows()) {
      if (frozen->nulls[row]) return Value::Null();
      return frozen->dict[frozen->codes[row]];
    }
    row -= frozen->rows();
  }
  row += live_skip;
  if (live->nulls[row]) return Value::Null();
  return live->dict[live->codes[row]];
}

namespace {

/// Appends rows [begin, end) of one encoded segment into `out`. The
/// type switch lives outside the row loop so the hot path appends
/// straight into the vector's typed array without boxing a Value.
template <typename NullAt, typename DictAt>
void DecodeRows(DataType type, size_t begin, size_t end, const NullAt& null_at,
                const DictAt& dict_at, ColumnVector* out) {
  switch (type) {
    case DataType::kDouble:
      for (size_t r = begin; r < end; ++r) {
        if (null_at(r)) {
          out->AppendNull();
        } else {
          out->AppendDouble(dict_at(r).AsDouble());
        }
      }
      break;
    case DataType::kString:
      for (size_t r = begin; r < end; ++r) {
        if (null_at(r)) {
          out->AppendNull();
          continue;
        }
        const Value& v = dict_at(r);
        if (v.type() == DataType::kString) {
          out->AppendString(v.string_value());
        } else {
          out->Append(v);  // Coercing slow path for mistyped inserts.
        }
      }
      break;
    case DataType::kBool:
      for (size_t r = begin; r < end; ++r) {
        if (null_at(r)) {
          out->AppendNull();
        } else {
          out->AppendBool(dict_at(r).AsInt() != 0);
        }
      }
      break;
    default:  // kInt64 / kDate / kTimestamp share the int64 array.
      for (size_t r = begin; r < end; ++r) {
        if (null_at(r)) {
          out->AppendNull();
        } else {
          out->AppendInt(dict_at(r).AsInt());
        }
      }
      break;
  }
}

template <typename DictT>
size_t DictBytes(const DictT& dict) {
  size_t bytes = 0;
  for (const Value& v : dict) {
    bytes += v.type() == DataType::kString ? v.string_value().size() + 4 : 8;
  }
  return bytes;
}

Value DeltaValueAt(const DeltaPart& part, size_t row) {
  if (part.nulls[row]) return Value::Null();
  return part.dict[part.codes[row]];
}

/// Main-segment decode for rows [begin, end), specialized per encoding:
/// kRle appends whole runs (registering them in the vector's run index
/// so filters can evaluate once per run), kFor skips the dictionary
/// gather entirely, and the classic bit-packed layout bulk-unpacks its
/// codes through the CPU-dispatched kernel before the gather. A string
/// main with an all-string dictionary appends codes instead (the
/// dictionary form, pinned by an aliasing pointer to `main_ptr`).
void DecodeMainRows(DataType type,
                    const std::shared_ptr<const ColumnMain>& main_ptr,
                    size_t begin, size_t end, ColumnVector* out) {
  const ColumnMain& main = *main_ptr;
  if (type == DataType::kString && main.string_dict) {
    StringDictionaryPtr dict(main_ptr, &main.dict);
    if (main.encoding == MainEncoding::kRle) {
      size_t k = std::upper_bound(main.run_ends.begin(), main.run_ends.end(),
                                  static_cast<uint32_t>(begin)) -
                 main.run_ends.begin();
      for (size_t r = begin; r < end; ++k) {
        size_t run_end = std::min<size_t>(main.run_ends[k], end);
        out->AppendCodeRun(dict, main.run_values[k], run_end - r);
        r = run_end;
      }
      return;
    }
    std::vector<uint32_t> codes(end - begin);
    main.DecodeCodes(begin, end - begin, codes.data());
    out->AppendCodes(dict, codes.data(), main.nulls.data() + begin,
                     end - begin);
    return;
  }
  if (main.encoding == MainEncoding::kRle) {
    // Null-free by construction (the merge only picks RLE for columns
    // without nulls); walk the runs overlapping [begin, end).
    size_t k = std::upper_bound(main.run_ends.begin(), main.run_ends.end(),
                                static_cast<uint32_t>(begin)) -
               main.run_ends.begin();
    size_t r = begin;
    while (r < end) {
      size_t run_end = std::min<size_t>(main.run_ends[k], end);
      size_t n = run_end - r;
      const Value& v = main.dict[main.run_values[k]];
      switch (type) {
        case DataType::kDouble:
          out->AppendDoubleRun(v.AsDouble(), n);
          break;
        case DataType::kString:
          if (v.type() == DataType::kString) {
            out->AppendStringRun(v.string_value(), n);
          } else {
            for (size_t i = 0; i < n; ++i) out->Append(v);
          }
          break;
        case DataType::kBool:
          out->AppendBoolRun(v.AsInt() != 0, n);
          break;
        default:
          out->AppendIntRun(v.AsInt(), n);
          break;
      }
      r = run_end;
      ++k;
    }
    return;
  }
  std::vector<uint32_t> codes(end - begin);
  main.DecodeCodes(begin, end - begin, codes.data());
  if (main.encoding == MainEncoding::kFor) {
    // Int64-only by construction: the value IS for_base + code.
    for (size_t r = begin; r < end; ++r) {
      if (main.nulls[r]) {
        out->AppendNull();
      } else {
        out->AppendInt(main.for_base + static_cast<int64_t>(codes[r - begin]));
      }
    }
    return;
  }
  DecodeRows(
      type, begin, end, [&](size_t r) { return main.nulls[r] != 0; },
      [&](size_t r) -> const Value& { return main.dict[codes[r - begin]]; },
      out);
}

/// Rewrites a freshly built bit-packed main into RLE or
/// frame-of-reference when the merged data qualifies. Serial and a pure
/// function of the merged content, so serial and parallel merges make
/// the same choice (a prerequisite for serial/parallel bit-identity).
/// Order: RLE first (run-at-a-time scans are the bigger win), then FOR.
void ChooseMainEncoding(ColumnMain* main) {
  if (main->rows == 0 || main->dict.empty()) return;
  bool has_nulls = false;
  for (uint8_t n : main->nulls) {
    if (n) {
      has_nulls = true;
      break;
    }
  }
  if (!has_nulls) {
    std::vector<uint32_t> codes = BitUnpack(main->words, main->bits,
                                            main->rows);
    size_t runs = 1;
    for (size_t r = 1; r < codes.size(); ++r) {
      if (codes[r] != codes[r - 1]) ++runs;
    }
    // RLE pays off when the average run is at least kMinAvgRun rows —
    // below that the per-run bookkeeping beats the packed words.
    constexpr size_t kMinAvgRun = 8;
    if (runs <= main->rows / kMinAvgRun) {
      main->run_values.reserve(runs);
      main->run_ends.reserve(runs);
      for (size_t r = 0; r < codes.size(); ++r) {
        if (r == 0 || codes[r] != codes[r - 1]) {
          main->run_values.push_back(codes[r]);
          main->run_ends.push_back(static_cast<uint32_t>(r));  // Patched below.
        }
      }
      // Convert run starts to exclusive ends.
      for (size_t k = 0; k + 1 < main->run_ends.size(); ++k) {
        main->run_ends[k] = main->run_ends[k + 1];
      }
      main->run_ends.back() = static_cast<uint32_t>(main->rows);
      main->encoding = MainEncoding::kRle;
      std::vector<uint64_t>().swap(main->words);
      return;
    }
  }
  // FOR: the dictionary is sorted, so it is a dense int64 range iff
  // every entry is a plain int64 exactly base + index.
  if (main->dict[0].type() != DataType::kInt64) return;
  int64_t base = main->dict[0].AsInt();
  for (size_t i = 0; i < main->dict.size(); ++i) {
    if (main->dict[i].type() != DataType::kInt64 ||
        main->dict[i].AsInt() !=
            static_cast<int64_t>(static_cast<uint64_t>(base) + i)) {
      return;
    }
  }
  main->encoding = MainEncoding::kFor;
  main->for_base = base;
  std::vector<Value>().swap(main->dict);
}

}  // namespace

void ColumnSnapshot::Decode(size_t start, size_t count,
                            ColumnVector* out) const {
  size_t end = start + count;
  // Main segment: decoded per its chosen encoding. Dictionary-form
  // appends size the code array themselves.
  if (start >= main->rows || type != DataType::kString || !main->string_dict) {
    out->Reserve(out->size() + count);
  }
  if (start < main->rows) {
    size_t seg_end = std::min(end, main->rows);
    DecodeMainRows(type, main, start, seg_end, out);
  }
  // Delta segments: frozen rows are part-local, live rows additionally
  // shifted by the folded prefix (live_skip) and bounded by the
  // snapshot's append bound (live_rows).
  size_t base = main->rows;
  if (frozen != nullptr) {
    size_t part_end = base + frozen->rows();
    if (start < part_end && end > base) {
      size_t seg_begin = std::max(start, base) - base;
      size_t seg_end = std::min(end, part_end) - base;
      const DeltaPart* part = frozen.get();
      DecodeRows(
          type, seg_begin, seg_end,
          [&](size_t r) { return part->nulls[r] != 0; },
          [&](size_t r) -> const Value& { return part->dict[part->codes[r]]; },
          out);
    }
    base = part_end;
  }
  size_t part_end = base + live_rows;
  if (start < part_end && end > base) {
    size_t seg_begin = std::max(start, base) - base + live_skip;
    size_t seg_end = std::min(end, part_end) - base + live_skip;
    const DeltaPart* part = live.get();
    DecodeRows(
        type, seg_begin, seg_end,
        [&](size_t r) { return part->nulls[r] != 0; },
        [&](size_t r) -> const Value& { return part->dict[part->codes[r]]; },
        out);
  }
}

// ---------------------------------------------------------------------
// StoredColumn
// ---------------------------------------------------------------------

StoredColumn::StoredColumn(DataType type)
    : type_(type),
      main_(std::make_shared<ColumnMain>()),
      live_(std::make_shared<DeltaPart>()) {}

bool StoredColumn::FreezeDelta() {
  if (frozen_ == nullptr && live_skip_ == 0 && !live_->codes.empty()) {
    frozen_ = std::move(live_);
    live_ = std::make_shared<DeltaPart>();
  }
  return frozen_ != nullptr;
}

void StoredColumn::SwitchMain(std::shared_ptr<const ColumnMain> merged) {
  main_ = std::move(merged);
  frozen_.reset();
}

void StoredColumn::ApplyPartialMerge(std::shared_ptr<const ColumnMain> merged,
                                     size_t folded_live_rows) {
  main_ = std::move(merged);
  frozen_.reset();
  live_skip_ += folded_live_rows;
  if (live_skip_ > 0 && live_skip_ == live_->rows()) {
    // Every live row is folded: swap in a fresh part so the superseded
    // one is garbage-collected when the last pinned snapshot drops it.
    live_ = std::make_shared<DeltaPart>();
    live_skip_ = 0;
  }
}

void StoredColumn::MergeDelta() {
  if (!FreezeDelta()) return;
  MergeOptions serial;
  serial.parallel = false;
  SwitchMain(BuildMergedMain(*main_, *frozen_, serial));
}

size_t StoredColumn::MainMemoryBytes() const {
  return DictBytes(main_->dict) + main_->words.size() * 8 +
         (main_->run_values.size() + main_->run_ends.size()) * 4 +
         main_->rows / 8 + 1;  // Null flags, modeled as a bitmap.
}

size_t StoredColumn::DeltaMemoryBytes() const {
  size_t bytes = 0;
  const DeltaPart* live = live_.get();
  for (const DeltaPart* part : {frozen_.get(), live}) {
    if (part == nullptr) continue;
    bytes += DictBytes(part->dict) + part->codes.size() * 4 +
             part->rows() / 8 + 1;
  }
  return bytes;
}

std::shared_ptr<const ColumnMain> BuildMergedMain(const ColumnMain& main,
                                                  const DeltaPart& frozen,
                                                  const MergeOptions& options) {
  const size_t main_rows = main.rows;
  const size_t delta_rows = frozen.rows();
  const size_t total = main_rows + delta_rows;

  // A kFor main elides its dictionary; synthesize it for the merge-walk
  // (it is the contiguous range [for_base, for_base + dict_size) in
  // sorted order by construction).
  std::vector<Value> synth_dict;
  if (main.encoding == MainEncoding::kFor) {
    synth_dict.reserve(main.dict_size);
    for (size_t k = 0; k < main.dict_size; ++k) {
      synth_dict.push_back(Value::Int(main.for_base + static_cast<int64_t>(k)));
    }
  }
  const std::vector<Value>& main_dict =
      main.encoding == MainEncoding::kFor ? synth_dict : main.dict;

  // Sort the frozen delta dictionary by value. Entries are distinct by
  // construction, so the order (and therefore the merged dictionary) is
  // unambiguous — a prerequisite for serial/parallel bit-identity.
  std::vector<uint32_t> order(frozen.dict.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return frozen.dict[a] < frozen.dict[b];
  });

  // Merge-walk the two sorted dictionaries into the new one, recording
  // old-code -> new-code remap tables for both sides. O(dict log dict)
  // total, replacing the seed's per-row lower_bound over the full
  // dictionary.
  auto merged = std::make_shared<ColumnMain>();
  merged->dict.reserve(main_dict.size() + frozen.dict.size());
  std::vector<uint32_t> remap_main(main_dict.size());
  std::vector<uint32_t> remap_delta(frozen.dict.size());
  size_t i = 0;
  size_t j = 0;
  bool all_strings = true;
  while (i < main_dict.size() || j < order.size()) {
    int cmp;
    if (i == main_dict.size()) {
      cmp = 1;
    } else if (j == order.size()) {
      cmp = -1;
    } else {
      cmp = main_dict[i].Compare(frozen.dict[order[j]]);
    }
    uint32_t code = static_cast<uint32_t>(merged->dict.size());
    if (cmp <= 0) {
      merged->dict.push_back(main_dict[i]);
      remap_main[i++] = code;
      if (cmp == 0) remap_delta[order[j++]] = code;
    } else {
      merged->dict.push_back(frozen.dict[order[j]]);
      remap_delta[order[j++]] = code;
    }
    all_strings &= merged->dict.back().type() == DataType::kString;
  }
  merged->string_dict = all_strings && !merged->dict.empty();

  merged->rows = total;
  merged->bits = BitWidth(merged->dict.empty() ? 0 : merged->dict.size() - 1);
  merged->nulls.resize(total);
  if (main_rows > 0) {
    std::memcpy(merged->nulls.data(), main.nulls.data(), main_rows);
  }
  for (size_t r = 0; r < delta_rows; ++r) {
    merged->nulls[main_rows + r] = frozen.nulls[r];
  }
  merged->words.assign(
      (total * static_cast<size_t>(merged->bits) + 63) / 64, 0);

  // Re-encode: one remap lookup per row, packed morsel-at-a-time.
  // Morsels are multiples of 64 rows, so every morsel's packed range
  // covers whole disjoint words and workers never share a word.
  size_t morsel = options.morsel_rows > 0 ? options.morsel_rows : (1u << 16);
  morsel = (morsel + 63) / 64 * 64;
  size_t n_morsels = (total + morsel - 1) / morsel;
  ColumnMain* out = merged.get();
  auto encode_morsel = [&remap_main, &remap_delta, &main, &frozen, out,
                        main_rows, total, morsel](size_t m) {
    size_t begin = m * morsel;
    size_t end = std::min(total, begin + morsel);
    // Old-main codes for this morsel, decoded in bulk (encoding-aware:
    // an RLE input fills run-at-a-time, packed layouts go through the
    // dispatched unpack kernel).
    std::vector<uint32_t> old_codes;
    size_t main_end = std::min(end, main_rows);
    if (begin < main_end) {
      old_codes.resize(main_end - begin);
      main.DecodeCodes(begin, main_end - begin, old_codes.data());
    }
    std::vector<uint32_t> codes;
    codes.reserve(end - begin);
    for (size_t r = begin; r < end; ++r) {
      if (out->nulls[r]) {
        codes.push_back(0);  // Null rows keep code 0 (never dereferenced).
      } else if (r < main_rows) {
        codes.push_back(remap_main[old_codes[r - begin]]);
      } else {
        codes.push_back(remap_delta[frozen.codes[r - main_rows]]);
      }
    }
    BitPackInto(out->words.data(), out->bits, begin, codes.data(),
                codes.size());
  };
  if (options.parallel && n_morsels > 1) {
    TaskPool::Global().ParallelFor(n_morsels, encode_morsel,
                                   options.max_workers);
  } else {
    for (size_t m = 0; m < n_morsels; ++m) encode_morsel(m);
  }
  merged->dict_size = merged->dict.size();
  if (options.choose_encodings) ChooseMainEncoding(merged.get());
  return merged;
}

// ---------------------------------------------------------------------
// TableReadSnapshot
// ---------------------------------------------------------------------

namespace {
/// Rows per visibility-mask block: small enough to stay cache-resident,
/// large enough that mask-clean runs amortize the per-block setup.
constexpr size_t kVisibilityBlockRows = 4096;
}  // namespace

bool TableReadSnapshot::IsVisible(size_t row) const {
  uint64_t created = row < folded_ ? 0 : created_->Load(row);
  return mvcc::RowVisible(created, deleted_->Load(row), view_);
}

std::vector<Value> TableReadSnapshot::GetRow(size_t row) const {
  std::vector<Value> out;
  out.reserve(columns_.size());
  for (const auto& col : columns_) out.push_back(col.Get(row));
  return out;
}

Value TableReadSnapshot::GetCell(size_t row, size_t col) const {
  return columns_[col].Get(row);
}

void TableReadSnapshot::BuildVisibilityMask(size_t begin, size_t end,
                                            std::vector<uint8_t>* mask) const {
  mask->assign(end - begin, 1);
  uint8_t* m = mask->data();
  // Created stamps — skipped entirely for the folded prefix: everything
  // in main is fully committed below every reader's timestamp.
  size_t r = std::max(begin, folded_);
  while (r < end) {
    size_t span;
    // atomic: acquire element loads below pair with commit/abort stamp
    // release stores (StampStore contract).
    const std::atomic<uint64_t>* stamps = created_->Span(r, end - r, &span);
    if (stamps != nullptr) {  // Null chunk: all-zero, all visible.
      for (size_t i = 0; i < span; ++i) {
        uint64_t created = stamps[i].load(std::memory_order_acquire);
        if (created != 0 && !mvcc::CreatedVisible(created, view_)) {
          m[r - begin + i] = 0;
        }
      }
    }
    r += span;
  }
  // Deleted stamps — every row, folded or not: a commit-time delete of
  // a long-folded row lives only here.
  r = begin;
  while (r < end) {
    size_t span;
    // atomic: acquire element loads below pair with delete stamp
    // release stores (StampStore contract).
    const std::atomic<uint64_t>* stamps = deleted_->Span(r, end - r, &span);
    if (stamps != nullptr) {  // Null chunk: nothing deleted.
      for (size_t i = 0; i < span; ++i) {
        uint64_t deleted = stamps[i].load(std::memory_order_acquire);
        if (deleted != 0 && mvcc::DeletedVisible(deleted, view_)) {
          m[r - begin + i] = 0;
        }
      }
    }
    r += span;
  }
}

void TableReadSnapshot::Scan(
    size_t chunk_rows,
    const std::function<bool(const Chunk&)>& callback) const {
  ScanRange(0, num_rows_, chunk_rows, callback);
}

void TableReadSnapshot::ScanRange(
    size_t begin, size_t end, size_t chunk_rows,
    const std::function<bool(const Chunk&)>& callback) const {
  ScanRange(begin, end, chunk_rows, AllColumnIds(*schema_), schema_, callback);
}

void TableReadSnapshot::ScanRange(
    size_t begin, size_t end, size_t chunk_rows,
    const std::vector<size_t>& columns, const std::shared_ptr<Schema>& schema,
    const std::function<bool(const Chunk&)>& callback) const {
  end = std::min(end, num_rows_);
  if (chunk_rows == 0) chunk_rows = kDefaultChunkRows;
  Chunk chunk = Chunk::Empty(schema);
  std::vector<uint8_t> mask;
  size_t block = begin;
  while (block < end) {
    size_t block_end = std::min(end, block + kVisibilityBlockRows);
    BuildVisibilityMask(block, block_end, &mask);
    size_t r = block;
    while (r < block_end) {
      if (!mask[r - block]) {
        ++r;
        continue;
      }
      // Bulk-decode the visible run, capped by the chunk capacity; an
      // invisible row simply ends the run. (A block boundary ends the
      // run too, but not the chunk, so chunk framing matches the
      // pre-MVCC scan exactly.)
      size_t cap = chunk_rows - chunk.num_rows();
      size_t run = r;
      while (run < block_end && mask[run - block] && run - r < cap) ++run;
      for (size_t c = 0; c < columns.size(); ++c) {
        ColumnVector* out = chunk.columns[c].get();
        if (columns[c] == kRowIdColumn) {
          const size_t at = out->size();
          out->Resize(at + run - r);
          std::iota(out->mutable_ints() + at, out->mutable_ints() + at + (run - r),
                    static_cast<int64_t>(r));
        } else {
          columns_[columns[c]].Decode(r, run - r, out);
        }
      }
      r = run;
      if (chunk.num_rows() >= chunk_rows) {
        if (!callback(chunk)) return;
        chunk = Chunk::Empty(schema);
      }
    }
    block = block_end;
  }
  if (chunk.num_rows() > 0) callback(chunk);
}

// ---------------------------------------------------------------------
// ColumnTable
// ---------------------------------------------------------------------

ColumnTable::ColumnTable(std::shared_ptr<Schema> schema)
    : schema_(std::move(schema)), sync_(std::make_unique<Sync>()) {
  columns_.reserve(schema_->num_columns());
  for (size_t i = 0; i < schema_->num_columns(); ++i) {
    columns_.emplace_back(schema_->column(i).type);
  }
}

std::shared_ptr<const TableReadSnapshot> ColumnTable::OpenSnapshot(
    mvcc::ReadView view) const {
  // Resolve the default read timestamp *before* taking the state lock
  // (mvcc.version ranks below storage.state). LastVisible — not "latest
  // allocated" — so a commit whose stamps are mid-flight is either
  // entirely visible or entirely invisible, never torn.
  if (view.read_ts == mvcc::kLatest && vm_ != nullptr) {
    view.read_ts = vm_->LastVisible();
  }
  auto snapshot = std::make_shared<TableReadSnapshot>();
  snapshot->schema_ = schema_;
  snapshot->view_ = view;
  snapshot->created_ = &sync_->created;
  snapshot->deleted_ = &sync_->deleted;
  {
    MutexLock lock(sync_->state_mu);
    snapshot->columns_.reserve(columns_.size());
    for (const auto& col : columns_) {
      snapshot->columns_.push_back(col.snapshot());
    }
    snapshot->num_rows_ = sync_->created.size();
    snapshot->folded_ = sync_->folded_rows;
    if (sync_->merge_active) {
      sync_->stats.scans_overlapped.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return snapshot;
}

Status CheckRow(const Schema& schema, const std::vector<Value>& row) {
  if (row.size() != schema.num_columns()) {
    return Status::InvalidArgument(
        StrFormat("row has %zu values, table %s has %zu columns", row.size(),
                  schema.ToString().c_str(), schema.num_columns()));
  }
  for (size_t c = 0; c < row.size(); ++c) {
    if (row[c].is_null() && !schema.column(c).nullable) {
      return Status::InvalidArgument("NULL in NOT NULL column " +
                                     schema.column(c).name);
    }
  }
  return Status::OK();
}

Status ColumnTable::AppendRows(const std::vector<std::vector<Value>>& rows) {
  WriteSet writes;
  HANA_RETURN_IF_ERROR(writes.Append(this, rows));
  writes.Commit();
  return Status::OK();
}

Result<ColumnTable::TxnAppendHandle> ColumnTable::AppendRowsUncommitted(
    const std::vector<std::vector<Value>>& rows, uint64_t txn) {
  for (const auto& row : rows) HANA_RETURN_IF_ERROR(CheckRow(*schema_, row));
  // Appends only touch the live deltas; the state lock orders them
  // against a concurrent merge's freeze/switch, so rows appended while
  // a merge is in flight land in the fresh live parts.
  MutexLock lock(sync_->state_mu);
  TxnAppendHandle handle{sync_->created.size(), rows.size()};
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      columns_[c].Append(rows[i][c]);
    }
    sync_->created.Store(handle.first_row + i, mvcc::MakeUncommitted(txn));
  }
  sync_->created.ExtendTo(handle.first_row + handle.rows);
  return handle;
}

void ColumnTable::CommitAppend(const TxnAppendHandle& h, mvcc::Timestamp ts) {
  // Lock-free: each release store flips one row from "uncommitted" to
  // "committed at ts". Readers only observe the transaction as a whole
  // once the coordinator finishes ts at the version manager, because
  // default snapshots read at LastVisible.
  for (size_t i = 0; i < h.rows; ++i) {
    sync_->created.Store(h.first_row + i, ts);
  }
  sync_->live_rows.fetch_add(h.rows, std::memory_order_relaxed);
}

void ColumnTable::AbortAppend(const TxnAppendHandle& h) {
  for (size_t i = 0; i < h.rows; ++i) {
    sync_->created.Store(h.first_row + i, mvcc::kNeverVisible);
  }
}

Status ColumnTable::StageDeleteUncommitted(size_t row, uint64_t txn) {
  if (row >= num_rows()) return Status::OutOfRange("row out of range");
  uint64_t expected = 0;
  if (sync_->deleted.CompareExchange(row, expected,
                                     mvcc::MakeUncommitted(txn))) {
    return Status::OK();
  }
  if (mvcc::IsUncommitted(expected) && mvcc::TxnOf(expected) == txn) {
    return Status::OK();  // Idempotent re-stage by the same transaction.
  }
  return Status::TransactionAborted(
      StrFormat("write-write conflict on row %zu: already deleted or claimed "
                "by another transaction",
                row));
}

void ColumnTable::CommitDelete(size_t row, mvcc::Timestamp ts) {
  sync_->deleted.Store(row, ts);
  sync_->live_rows.fetch_sub(1, std::memory_order_relaxed);
}

void ColumnTable::AbortDelete(size_t row, uint64_t txn) {
  uint64_t expected = mvcc::MakeUncommitted(txn);
  // Losing the exchange means we never held the claim; nothing to undo.
  (void)sync_->deleted.CompareExchange(row, expected, 0);
}

std::vector<Value> ColumnTable::GetRow(size_t row) const {
  std::vector<ColumnSnapshot> columns;
  {
    MutexLock lock(sync_->state_mu);
    columns.reserve(columns_.size());
    for (const auto& col : columns_) columns.push_back(col.snapshot());
    if (sync_->merge_active) {
      sync_->stats.scans_overlapped.fetch_add(1, std::memory_order_relaxed);
    }
  }
  std::vector<Value> out;
  out.reserve(columns.size());
  for (const auto& col : columns) out.push_back(col.Get(row));
  return out;
}

Value ColumnTable::GetCell(size_t row, size_t col) const {
  ColumnSnapshot snapshot;
  {
    MutexLock lock(sync_->state_mu);
    snapshot = columns_[col].snapshot();
  }
  return snapshot.Get(row);
}

bool ColumnTable::IsDeleted(size_t row) const {
  uint64_t deleted = sync_->deleted.Load(row);
  return deleted != 0 && !mvcc::IsUncommitted(deleted);
}

bool ColumnTable::IsVisibleLatest(size_t row) const {
  return mvcc::RowVisible(sync_->created.Load(row), sync_->deleted.Load(row),
                          mvcc::ReadView{});
}

void ColumnTable::Scan(
    size_t chunk_rows,
    const std::function<bool(const Chunk&)>& callback) const {
  OpenSnapshot()->Scan(chunk_rows, callback);
}

void ColumnTable::ScanRange(
    size_t begin, size_t end, size_t chunk_rows,
    const std::function<bool(const Chunk&)>& callback) const {
  OpenSnapshot()->ScanRange(begin, end, chunk_rows, callback);
}

void ColumnTable::ScanPartitioned(
    size_t morsel_rows, size_t n_partitions,
    const std::function<bool(size_t partition, const Chunk&)>& callback)
    const {
  if (n_partitions == 0) n_partitions = 1;
  if (morsel_rows == 0) morsel_rows = kDefaultChunkRows;
  // One snapshot serves every partition, so the whole parallel scan
  // observes a single consistent table state — one read timestamp, one
  // row bound — even if a merge or a commit lands mid-flight.
  // Contiguous slices sized from (total, n_partitions) only, so the
  // work decomposition — and therefore every per-partition stream — is
  // identical no matter how many pool workers pick up the slices.
  std::shared_ptr<const TableReadSnapshot> snapshot = OpenSnapshot();
  size_t total = snapshot->num_rows();
  size_t per = (total + n_partitions - 1) / n_partitions;
  TaskPool::Global().ParallelFor(n_partitions, [&](size_t p) {
    size_t begin = p * per;
    size_t slice_end = std::min(total, begin + per);
    if (begin >= slice_end) return;
    snapshot->ScanRange(begin, slice_end, morsel_rows,
                        [&](const Chunk& chunk) { return callback(p, chunk); });
  });
}

Status ColumnTable::MergeDelta(const MergeOptions& options) {
  // Read the watermark before the merge lock: mvcc.version (rank 45)
  // is acquired before storage.merge (60). A stale watermark is only
  // conservative — it folds less.
  mvcc::Timestamp watermark = vm_->Watermark();
  if (!sync_->merge_mu.TryLock()) {
    sync_->stats.merges_rejected.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("delta merge already in progress on table");
  }
  Status status = MergeDeltaHoldingMergeMu(options, watermark);
  sync_->merge_mu.Unlock();
  return status;
}

Status ColumnTable::MergeDeltaHoldingMergeMu(const MergeOptions& options,
                                             mvcc::Timestamp watermark) {
  Stopwatch watch;
  MergeStats& stats = sync_->stats;
  size_t bytes_before = MemoryBytes();

  // Phase 1 (freeze, under the state lock): find the settled prefix —
  // the longest run of rows from the current fold boundary whose
  // creation stamps every live or future reader agrees on (committed at
  // or below the watermark, or aborted) — and
  // capture each column's immutable fold inputs. A column whose whole
  // live part settles takes the sealed-part path (freeze + direct
  // build); any column with a partial prefix, a pending frozen part
  // from a failed merge, or a backfilled AddColumn offset goes through
  // a concatenated fold input instead.
  struct Work {
    size_t col = 0;
    std::shared_ptr<const ColumnMain> main;
    std::shared_ptr<const DeltaPart> frozen;  // Sealed input / concat head.
    std::shared_ptr<const DeltaPart> live;    // Concat tail source.
    size_t live_begin = 0;  // First live row to fold (the column's skip).
    size_t live_fold = 0;   // Live rows to fold.
    bool full = false;      // Sealed-part path (frozen is the whole input).
  };
  std::vector<Work> work;
  size_t fold_end = 0;
  size_t rows_retained = 0;
  size_t rows_to_fold = 0;
  size_t dict_before = 0;
  {
    MutexLock lock(sync_->state_mu);
    size_t total = sync_->created.size();
    size_t f = sync_->folded_rows;
    while (f < total) {
      uint64_t created = sync_->created.Load(f);
      if (!mvcc::FoldableAt(created, watermark)) break;
      if ((created & mvcc::kNeverVisible) != 0) {
        // Aborted creation: tombstone forever, because after the fold
        // the maskless main no longer consults the created stamp.
        sync_->deleted.Store(f, mvcc::kNeverVisible);
      }
      ++f;
    }
    fold_end = f;
    rows_retained = total - f;
    stats.rows_retained_by_watermark.store(rows_retained,
                                           std::memory_order_relaxed);
    if (fold_end == sync_->folded_rows) return Status::OK();
    for (size_t c = 0; c < columns_.size(); ++c) {
      StoredColumn& col = columns_[c];
      size_t main_rows = col.main_rows();
      size_t frozen_rows =
          col.frozen_part() ? col.frozen_part()->rows() : 0;
      size_t live_fold = fold_end - main_rows - frozen_rows;
      if (live_fold == 0 && frozen_rows == 0) continue;
      Work w;
      w.col = c;
      w.main = col.main_part();
      if (frozen_rows == 0 && col.live_skip() == 0 &&
          live_fold == col.live_part()->rows()) {
        col.FreezeDelta();
        w.frozen = col.frozen_part();
        w.full = true;
      } else {
        w.frozen = col.frozen_part();
        w.live = col.live_part();
        w.live_begin = col.live_skip();
        w.live_fold = live_fold;
      }
      rows_to_fold += fold_end - main_rows;
      dict_before += w.main->dict_size +
                     (w.frozen ? w.frozen->dict.size() : 0) +
                     (w.live ? w.live->dict.size() : 0);
      work.push_back(std::move(w));
    }
    if (work.empty()) return Status::OK();
    sync_->merge_active = true;
  }

  // Phase 2 (build, no table lock held): per-column fan-out across the
  // pool; each build is itself morsel-parallel. Readers keep scanning
  // the old parts the whole time. Concat-path inputs read only the
  // settled live prefix — rows published before the state lock was
  // released, never touched by concurrent appends.
  std::vector<std::shared_ptr<const ColumnMain>> merged(work.size());
  Status build_status = Status::OK();
  try {
    auto build_one = [&](size_t w) {
      if (work[w].full) {
        merged[w] = BuildMergedMain(*work[w].main, *work[w].frozen, options);
        return;
      }
      DeltaPart concat;
      if (work[w].frozen != nullptr) {
        const DeltaPart& part = *work[w].frozen;
        for (size_t r = 0; r < part.rows(); ++r) {
          concat.Append(DeltaValueAt(part, r));
        }
      }
      const DeltaPart& live = *work[w].live;
      for (size_t r = 0; r < work[w].live_fold; ++r) {
        concat.Append(DeltaValueAt(live, work[w].live_begin + r));
      }
      merged[w] = BuildMergedMain(*work[w].main, concat, options);
    };
    if (options.parallel && work.size() > 1) {
      TaskPool::Global().ParallelFor(work.size(), build_one,
                                     options.max_workers);
    } else {
      for (size_t w = 0; w < work.size(); ++w) build_one(w);
    }
  } catch (const std::exception& e) {
    build_status =
        Status::Internal(std::string("delta merge build failed: ") + e.what());
  }
  if (!build_status.ok()) {
    // Leave the frozen parts in place: readers still see every row via
    // the main/frozen/live chain, and the next merge retries them
    // before freezing newer delta rows.
    MutexLock lock(sync_->state_mu);
    sync_->merge_active = false;
    return build_status;
  }

  // Phase 3 (switch, under the state lock): publish every shadow main
  // atomically with respect to snapshot-taking readers, advance the
  // fold boundary, and let fully folded delta parts go — they free as
  // soon as the last reader snapshot pinning them releases (the GC
  // moment).
  size_t dict_after = 0;
  {
    MutexLock lock(sync_->state_mu);
    for (size_t w = 0; w < work.size(); ++w) {
      dict_after += merged[w]->dict_size;
      if (work[w].full) {
        columns_[work[w].col].SwitchMain(std::move(merged[w]));
      } else {
        columns_[work[w].col].ApplyPartialMerge(std::move(merged[w]),
                                                work[w].live_fold);
      }
    }
    sync_->folded_rows = fold_end;
    sync_->merge_active = false;
  }

  stats.merges_completed.fetch_add(1, std::memory_order_relaxed);
  stats.rows_merged.fetch_add(rows_to_fold, std::memory_order_relaxed);
  stats.dict_entries_before.store(dict_before, std::memory_order_relaxed);
  stats.dict_entries_after.store(dict_after, std::memory_order_relaxed);
  stats.bytes_before.store(bytes_before, std::memory_order_relaxed);
  stats.bytes_after.store(MemoryBytes(), std::memory_order_relaxed);
  stats.merge_micros.fetch_add(
      static_cast<uint64_t>(watch.ElapsedMillis() * 1000.0),
      std::memory_order_relaxed);
  return Status::OK();
}

size_t ColumnTable::delta_rows() const {
  MutexLock lock(sync_->state_mu);
  size_t rows = 0;
  for (const auto& col : columns_) rows = std::max(rows, col.delta_rows());
  return rows;
}

Status ColumnTable::AddColumn(const ColumnDef& def) {
  if (schema_->FindColumn(def.name) >= 0) {
    return Status::AlreadyExists("column exists: " + def.name);
  }
  MutexLock lock(sync_->state_mu);
  if (!def.nullable && sync_->created.size() > 0) {
    return Status::InvalidArgument(
        "cannot add NOT NULL column to a non-empty table");
  }
  schema_->AddColumn(def);
  StoredColumn column(def.type);
  for (size_t r = 0; r < sync_->created.size(); ++r) {
    column.Append(Value::Null());
  }
  columns_.push_back(std::move(column));
  return Status::OK();
}

size_t ColumnTable::MemoryBytes() const {
  size_t bytes = num_rows() / 8 + 1;
  MutexLock lock(sync_->state_mu);
  for (const auto& col : columns_) bytes += col.MemoryBytes();
  return bytes;
}

size_t ColumnTable::MainMemoryBytes() const {
  size_t bytes = 0;
  MutexLock lock(sync_->state_mu);
  for (const auto& col : columns_) bytes += col.MainMemoryBytes();
  return bytes;
}

ColumnTable::ColumnDomain ColumnTable::GetColumnDomain(size_t col) const {
  ColumnSnapshot snap;
  {
    MutexLock lock(sync_->state_mu);
    snap = columns_[col].snapshot();
  }
  ColumnDomain d;
  const ColumnMain& main = *snap.main;
  if (main.dict_size > 0) {
    if (main.encoding == MainEncoding::kFor) {
      d.min = Value::Int(main.for_base);
      d.max = Value::Int(main.for_base +
                         static_cast<int64_t>(main.dict_size - 1));
    } else {
      // Main dictionaries are sorted: the ends are the extremes.
      d.min = main.dict.front();
      d.max = main.dict.back();
    }
    d.distinct_upper = main.dict_size;
  }
  // Delta dictionaries are unsorted but hold each distinct value once;
  // walking them costs O(distinct), not O(rows).
  auto fold_part = [&d](const DeltaPart* part) {
    if (part == nullptr) return;
    for (size_t i = 0; i < part->dict.size(); ++i) {
      const Value& v = part->dict[i];
      if (d.min.is_null() || v.Compare(d.min) < 0) d.min = v;
      if (d.max.is_null() || v.Compare(d.max) > 0) d.max = v;
    }
    d.distinct_upper += part->dict.size();
  };
  fold_part(snap.frozen.get());
  fold_part(snap.live.get());
  return d;
}

size_t ColumnTable::DeltaMemoryBytes() const {
  size_t bytes = 0;
  MutexLock lock(sync_->state_mu);
  for (const auto& col : columns_) bytes += col.DeltaMemoryBytes();
  return bytes;
}

// ---------------------------------------------------------------------
// WriteSet
// ---------------------------------------------------------------------

Status WriteSet::Enlist(const ColumnTable& table) {
  if (vm_ == nullptr) {
    vm_ = table.version_manager();
    if (writer_ == 0) writer_ = vm_->NewWriterId();
  } else if (table.version_manager() != vm_) {
    return Status::InvalidArgument(
        "one write set spans tables of different version managers");
  }
  return Status::OK();
}

Status WriteSet::Append(ColumnTable* table,
                        const std::vector<std::vector<Value>>& rows) {
  if (rows.empty()) return Status::OK();
  HANA_RETURN_IF_ERROR(Enlist(*table));
  HANA_ASSIGN_OR_RETURN(ColumnTable::TxnAppendHandle handle,
                        table->AppendRowsUncommitted(rows, writer_));
  appends_.emplace_back(table, handle);
  return Status::OK();
}

Status WriteSet::Delete(ColumnTable* table, size_t row) {
  HANA_RETURN_IF_ERROR(Enlist(*table));
  HANA_RETURN_IF_ERROR(table->StageDeleteUncommitted(row, writer_));
  deletes_.emplace_back(table, row);
  return Status::OK();
}

void WriteSet::CommitAt(mvcc::Timestamp ts) {
  for (const auto& [table, row] : deletes_) table->CommitDelete(row, ts);
  for (const auto& [table, handle] : appends_) table->CommitAppend(handle, ts);
  deletes_.clear();
  appends_.clear();
}

mvcc::Timestamp WriteSet::Commit() {
  if (appends_.empty() && deletes_.empty()) return 0;
  mvcc::Timestamp ts = vm_->AllocateCommit();
  CommitAt(ts);
  vm_->FinishCommit(ts);
  return ts;
}

void WriteSet::Abort() {
  for (const auto& [table, handle] : appends_) table->AbortAppend(handle);
  for (const auto& [table, row] : deletes_) table->AbortDelete(row, writer_);
  deletes_.clear();
  appends_.clear();
}

}  // namespace hana::storage
