#include "exec/pipeline.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "common/cpu_dispatch.h"
#include "common/strings.h"
#include "exec/evaluator.h"

namespace hana::exec {

namespace {

using plan::BoundExpr;
using plan::JoinKind;
using plan::LogicalKind;
using plan::LogicalOp;
using storage::ValueHash;

}  // namespace

Result<Chunk> FilterChunk(const BoundExpr& predicate, const Chunk& in,
                          const LogicalOp* project) {
  std::vector<uint8_t> mask;
  HANA_RETURN_IF_ERROR(SelectRows(predicate, in, &mask));
  std::vector<uint32_t> rows;
  rows.reserve(mask.size());
  for (size_t r = 0; r < mask.size(); ++r) {
    if (mask[r] != 0) rows.push_back(static_cast<uint32_t>(r));
  }
  if (rows.size() == in.num_rows()) {  // Shares the vectors.
    if (project != nullptr) return ProjectChunk(*project, in);
    return in;
  }
  Chunk out = Chunk::Empty(project != nullptr ? project->schema : in.schema);
  for (size_t c = 0; c < out.num_columns(); ++c) {
    const size_t from =
        project != nullptr ? project->exprs[c]->column_index : c;
    out.columns[c]->AppendGather(*in.columns[from], rows.data(), rows.size());
  }
  return out;
}

bool IsColumnOnlyProject(const LogicalOp& project, const Chunk& in) {
  for (size_t c = 0; c < project.exprs.size(); ++c) {
    const BoundExpr& e = *project.exprs[c];
    if (e.kind != plan::BoundKind::kColumn ||
        e.column_index >= in.columns.size() ||
        in.columns[e.column_index]->type() != project.schema->column(c).type) {
      return false;
    }
  }
  return true;
}

Result<Chunk> ProjectChunk(const LogicalOp& project, const Chunk& in) {
  Chunk out = Chunk::Empty(project.schema);
  for (size_t c = 0; c < project.exprs.size(); ++c) {
    const BoundExpr& e = *project.exprs[c];
    // A bare column of the same physical type passes through as is.
    if (e.kind == plan::BoundKind::kColumn &&
        e.column_index < in.columns.size() &&
        in.columns[e.column_index]->type() == out.columns[c]->type()) {
      out.columns[c] = in.columns[e.column_index];
      continue;
    }
    HANA_ASSIGN_OR_RETURN(out.columns[c],
                          EvalExprColumnAs(e, in, out.columns[c]->type()));
  }
  return out;
}

namespace {

AggStateBox& BoxOf(AggState& st) {
  if (st.box == nullptr) st.box = std::make_unique<AggStateBox>();
  return *st.box;
}

/// True when `agg` sums into `sum_i`: a SUM typed other than DOUBLE.
bool IntegerSum(const BoundExpr& agg) {
  return agg.agg_kind == plan::AggKind::kSum && agg.type != DataType::kDouble;
}

/// Checked integer SUM add; an overflow sets the sticky flag.
void AddToSum(AggState& st, int64_t v) {
  if (__builtin_add_overflow(st.sum_i, v, &st.sum_i)) st.overflow = true;
}

}  // namespace

void UpdateAggState(const BoundExpr& agg, AggState& st, Value v) {
  if (agg.distinct) {
    if (!BoxOf(st).distinct.insert(v).second) return;
  }
  st.any = true;
  switch (agg.agg_kind) {
    case plan::AggKind::kCount:
      ++st.count;
      break;
    case plan::AggKind::kSum:
    case plan::AggKind::kAvg:
      ++st.count;
      if (IntegerSum(agg)) {
        AddToSum(st, v.AsInt());
      } else {
        st.sum_d += v.AsDouble();
      }
      break;
    case plan::AggKind::kMin: {
      AggStateBox& b = BoxOf(st);
      if (b.min_v.is_null() || v.Compare(b.min_v) < 0) b.min_v = std::move(v);
      break;
    }
    case plan::AggKind::kMax: {
      AggStateBox& b = BoxOf(st);
      if (b.max_v.is_null() || v.Compare(b.max_v) > 0) b.max_v = std::move(v);
      break;
    }
    default:
      break;
  }
}

Status AccumulateRow(const std::vector<plan::BoundExprPtr>& aggregates,
                     const std::vector<Value>& row, AggState* states) {
  std::vector<Value> args(aggregates.size());
  for (size_t a = 0; a < aggregates.size(); ++a) {
    const BoundExpr& agg = *aggregates[a];
    if (agg.agg_kind == plan::AggKind::kCountStar) continue;
    HANA_ASSIGN_OR_RETURN(args[a], EvalExprRow(*agg.child0, row));
  }
  for (size_t a = 0; a < aggregates.size(); ++a) {
    const BoundExpr& agg = *aggregates[a];
    if (agg.agg_kind == plan::AggKind::kCountStar) {
      ++states[a].count;
    } else if (!args[a].is_null()) {
      UpdateAggState(agg, states[a], std::move(args[a]));
    }
  }
  return Status::OK();
}

Result<Value> FinalizeAgg(const BoundExpr& agg, const AggState& st) {
  switch (agg.agg_kind) {
    case plan::AggKind::kCountStar:
    case plan::AggKind::kCount:
      return Value::Int(st.count);
    case plan::AggKind::kSum:
      if (!st.any) return Value::Null();
      if (!IntegerSum(agg)) return Value::Double(st.sum_d);
      if (st.overflow) return Status::OutOfRange("numeric overflow in SUM");
      return Value::Int(st.sum_i);
    case plan::AggKind::kAvg:
      if (!st.any || st.count == 0) return Value::Null();
      return Value::Double(st.sum_d / static_cast<double>(st.count));
    case plan::AggKind::kMin:
      return st.box != nullptr ? st.box->min_v : Value::Null();
    case plan::AggKind::kMax:
      return st.box != nullptr ? st.box->max_v : Value::Null();
  }
  return Value::Null();
}

void MergeAggState(const BoundExpr& agg, AggState& dst, AggState& src) {
  if (agg.agg_kind == plan::AggKind::kCountStar) {
    dst.count += src.count;
    return;
  }
  if (agg.distinct) {
    if (src.box == nullptr) return;  // No values seen by this partial.
    for (const Value& v : src.box->distinct) UpdateAggState(agg, dst, v);
    return;
  }
  dst.count += src.count;
  dst.sum_d += src.sum_d;
  AddToSum(dst, src.sum_i);
  dst.overflow = dst.overflow || src.overflow;
  dst.any = dst.any || src.any;
  if (src.box != nullptr) {
    if (!src.box->min_v.is_null()) {
      AggStateBox& db = BoxOf(dst);
      if (db.min_v.is_null() || src.box->min_v.Compare(db.min_v) < 0) {
        db.min_v = src.box->min_v;
      }
    }
    if (!src.box->max_v.is_null()) {
      AggStateBox& db = BoxOf(dst);
      if (db.max_v.is_null() || src.box->max_v.Compare(db.max_v) > 0) {
        db.max_v = src.box->max_v;
      }
    }
  }
}

AggExecStats& GlobalAggExecStats() {
  static AggExecStats* stats = new AggExecStats();
  return *stats;
}

void ResetAggExecStats() {
  AggExecStats& s = GlobalAggExecStats();
  s.partitioned_aggs.store(0);
  s.vectorized_chunks.store(0);
  s.boxed_rows.store(0);
  s.key_allocs.store(0);
  s.partition_merges.store(0);
}

namespace {

/// Value::Hash() of a NULL value: what a NULL group-key cell folds into
/// the row hash (group keys keep NULL rows, unlike join keys).
constexpr uint64_t kNullCellHash = 0x9e3779b97f4a7c15ULL;

/// Group-key cell equality: NULL == NULL (one NULL group), and double
/// comparison goes through the same `<` trichotomy as Value::Compare so
/// even NaN cells group identically in the boxed and vectorized paths.
bool AggCellsEqual(const storage::ColumnVector& a, size_t i,
                   const storage::ColumnVector& b, size_t j) {
  const bool an = a.IsNull(i), bn = b.IsNull(j);
  if (an || bn) return an && bn;
  if (a.type() == DataType::kDouble) {
    double x = a.GetDouble(i), y = b.GetDouble(j);
    return !(x < y) && !(y < x);
  }
  return CellsEqual(a, i, b, j);
}

}  // namespace

bool AggKeyBlock::Vectorizable(
    const std::vector<plan::BoundExprPtr>& group_by) {
  for (const auto& g : group_by) {
    switch (g->type) {
      case DataType::kBool:
      case DataType::kInt64:
      case DataType::kDouble:
      case DataType::kString:
      case DataType::kDate:
      case DataType::kTimestamp:
        continue;
      default:
        return false;  // No typed cell storage (e.g. untyped NULL).
    }
  }
  return true;
}

Status AggKeyBlock::Compute(const std::vector<plan::BoundExprPtr>& group_by,
                            const Chunk& chunk) {
  const size_t n = chunk.num_rows();
  cols_.clear();
  cols_.reserve(group_by.size());
  for (const auto& g : group_by) {
    HANA_ASSIGN_OR_RETURN(storage::ColumnVectorPtr col,
                          EvalExprColumn(*g, chunk));
    cols_.push_back(std::move(col));
  }
  hashes_.assign(n, 0x12345);  // HashKey's seed; final hash of a
                               // zero-column key (global aggregates).
  code_hashes_.resize(cols_.size());
  for (size_t k = 0; k < cols_.size(); ++k) {
    const storage::ColumnVector& col = *cols_[k];
    DataType t = col.type();
    bool int_lane = t == DataType::kInt64 || t == DataType::kDate ||
                    t == DataType::kTimestamp;
    if (k == 0 && int_lane && n > 0) {
      // First key column: every row still folds from the shared seed,
      // so the whole chunk hashes through the CPU-dispatched batch
      // kernel (bit-identical to the HashCell/HashCombine loop —
      // cpu_dispatch verifies that at bind time). NULL cells are then
      // patched to fold Value::Hash's null image instead.
      Kernels().hash_i64(col.ints_data(), n, 0x12345, hashes_.data());
      for (size_t r = 0; r < n; ++r) {
        if (col.IsNull(r)) hashes_[r] = HashCombine(0x12345, kNullCellHash);
      }
      continue;
    }
    const storage::StringDictionaryPtr& dict = col.dictionary();
    if (dict != nullptr && dict->size() <= n) {
      // Dictionary codes: HashCell once per distinct code, then a lookup
      // per row (the same hash, so routing and group order are as for
      // flat strings).
      CodeHashes& cache = code_hashes_[k];
      if (cache.dict != dict) {
        cache.dict = dict;
        cache.hash.resize(dict->size());
        cache.known.assign(dict->size(), 0);
      }
      const uint32_t* codes = col.codes_data();
      for (size_t r = 0; r < n; ++r) {
        uint64_t cell = kNullCellHash;
        if (!col.IsNull(r)) {
          const uint32_t c = codes[r];
          if (cache.known[c] == 0) {
            cache.hash[c] = HashCell(col, r);
            cache.known[c] = 1;
          }
          cell = cache.hash[c];
        }
        hashes_[r] = HashCombine(hashes_[r], cell);
      }
      continue;
    }
    for (size_t r = 0; r < n; ++r) {
      hashes_[r] = HashCombine(
          hashes_[r], col.IsNull(r) ? kNullCellHash : HashCell(col, r));
    }
  }
  return Status::OK();
}

GroupTable::GroupTable(const std::vector<plan::BoundExprPtr>* group_by,
                       const std::vector<plan::BoundExprPtr>* aggregates)
    : group_by_(group_by),
      aggregates_(aggregates),
      vectorized_(AggKeyBlock::Vectorizable(*group_by)) {
  if (vectorized_) {
    key_cols_.reserve(group_by->size());
    for (const auto& g : *group_by) {
      key_cols_.push_back(std::make_shared<storage::ColumnVector>(g->type));
    }
  }
}

Status GroupTable::AccumulateValues(const std::vector<Value>& key,
                                    uint64_t hash, const Chunk& chunk,
                                    size_t row, uint64_t rank) {
  GlobalAggExecStats().boxed_rows.fetch_add(1, std::memory_order_relaxed);
  AggState* states = StatesOf(FindOrCreateBoxed(key, hash, rank));
  for (size_t a = 0; a < aggregates_->size(); ++a) {
    const BoundExpr& agg = *(*aggregates_)[a];
    AggState& st = states[a];
    if (agg.agg_kind == plan::AggKind::kCountStar) {
      ++st.count;
      continue;
    }
    HANA_ASSIGN_OR_RETURN(Value v, EvalExpr(*agg.child0, chunk, row));
    if (v.is_null()) continue;
    UpdateAggState(agg, st, std::move(v));
  }
  return Status::OK();
}

void GroupTable::MergeFrom(GroupTable& src) {
  const size_t n = src.num_groups();
  if (n == 0) return;
  // Two passes so vectorized state growth batches into one resize for
  // all groups this partial contributes, not one per group.
  merge_scratch_.clear();
  merge_scratch_.reserve(n);
  for (size_t g = 0; g < n; ++g) {
    merge_scratch_.push_back(
        static_cast<uint32_t>(FindOrCreatePeer(src, g)));
  }
  if (vectorized_) EnsureStates();
  for (size_t g = 0; g < n; ++g) {
    AggState* states = StatesOf(merge_scratch_[g]);
    AggState* theirs = src.StatesOf(g);
    for (size_t a = 0; a < aggregates_->size(); ++a) {
      MergeAggState(*(*aggregates_)[a], states[a], theirs[a]);
    }
  }
}

void GroupTable::EnsureGlobalGroup() {
  if (!group_by_->empty() || num_groups() > 0 || aggregates_->empty()) return;
  hashes_.push_back(0x12345);  // HashKey of the empty key.
  ranks_.push_back(0);
  if (vectorized_) {  // Vectorized: no key columns for the empty key.
    EnsureStates();
    InsertSlot(0x12345, 0);
  } else {
    keys_.push_back({});
    bstates_.emplace_back(aggregates_->size());
    groups_.emplace(0x12345, 0);
  }
}

Result<std::vector<Value>> GroupTable::EmitRow(size_t g) const {
  std::vector<Value> row;
  if (vectorized_) {
    row.reserve(key_cols_.size() + aggregates_->size());
    for (const auto& col : key_cols_) row.push_back(col->GetValue(g));
  } else {
    row = keys_[g];
    row.reserve(row.size() + aggregates_->size());
  }
  const AggState* states = StatesOf(g);
  for (size_t a = 0; a < aggregates_->size(); ++a) {
    HANA_ASSIGN_OR_RETURN(Value v, FinalizeAgg(*(*aggregates_)[a], states[a]));
    row.push_back(std::move(v));
  }
  return row;
}

size_t GroupTable::FindOrCreateBoxed(const std::vector<Value>& key,
                                     uint64_t hash, uint64_t rank) {
  auto [it, end] = groups_.equal_range(hash);
  for (; it != end; ++it) {
    const std::vector<Value>& existing = keys_[it->second];
    bool equal = true;
    for (size_t i = 0; i < key.size(); ++i) {
      if (key[i].Compare(existing[i]) != 0) {  // Group-by: NULL == NULL.
        equal = false;
        break;
      }
    }
    if (equal) return it->second;
  }
  size_t g = num_groups();
  ReserveOnFirstGrowth();
  keys_.push_back(key);
  GlobalAggExecStats().key_allocs.fetch_add(1, std::memory_order_relaxed);
  hashes_.push_back(hash);
  ranks_.push_back(rank);
  bstates_.emplace_back(aggregates_->size());
  groups_.emplace(hash, g);
  return g;
}

size_t GroupTable::FindOrCreateVec(const AggKeyBlock& keys, size_t row,
                                   uint64_t hash, uint64_t rank) {
  if (!slots_.empty()) {
    const size_t mask = slots_.size() - 1;
    for (size_t idx = hash & mask; slots_[idx] != 0; idx = (idx + 1) & mask) {
      size_t g = slots_[idx] - 1;
      if (hashes_[g] != hash) continue;
      bool equal = true;
      for (size_t k = 0; k < key_cols_.size(); ++k) {
        if (!AggCellsEqual(*key_cols_[k], g, *keys.cols()[k], row)) {
          equal = false;
          break;
        }
      }
      if (equal) return g;
    }
  }
  size_t g = num_groups();
  ReserveOnFirstGrowth();
  for (size_t k = 0; k < key_cols_.size(); ++k) {
    key_cols_[k]->AppendFrom(*keys.cols()[k], row);
  }
  hashes_.push_back(hash);
  ranks_.push_back(rank);
  InsertSlot(hash, g);  // State growth deferred to EnsureStates().
  return g;
}

size_t GroupTable::FindOrCreatePeer(const GroupTable& src, size_t g) {
  const uint64_t hash = src.hashes_[g];
  if (vectorized_) {
    if (!slots_.empty()) {
      const size_t mask = slots_.size() - 1;
      for (size_t idx = hash & mask; slots_[idx] != 0;
           idx = (idx + 1) & mask) {
        size_t mine = slots_[idx] - 1;
        if (hashes_[mine] != hash) continue;
        bool equal = true;
        for (size_t k = 0; k < key_cols_.size(); ++k) {
          if (!AggCellsEqual(*key_cols_[k], mine, *src.key_cols_[k], g)) {
            equal = false;
            break;
          }
        }
        if (equal) return mine;
      }
    }
    size_t mine = num_groups();
    ReserveOnFirstGrowth();
    for (size_t k = 0; k < key_cols_.size(); ++k) {
      key_cols_[k]->AppendFrom(*src.key_cols_[k], g);
    }
    hashes_.push_back(hash);
    ranks_.push_back(src.ranks_[g]);  // The group's serial first-seen rank.
    InsertSlot(hash, mine);  // State growth deferred to EnsureStates().
    return mine;
  }
  auto [it, end] = groups_.equal_range(hash);
  for (; it != end; ++it) {
    const std::vector<Value>& key = src.keys_[g];
    const std::vector<Value>& existing = keys_[it->second];
    bool equal = true;
    for (size_t i = 0; i < key.size(); ++i) {
      if (key[i].Compare(existing[i]) != 0) {  // NULL == NULL.
        equal = false;
        break;
      }
    }
    if (equal) return it->second;
  }
  size_t mine = num_groups();
  ReserveOnFirstGrowth();
  keys_.push_back(src.keys_[g]);
  GlobalAggExecStats().key_allocs.fetch_add(1, std::memory_order_relaxed);
  hashes_.push_back(hash);
  ranks_.push_back(src.ranks_[g]);
  bstates_.emplace_back(aggregates_->size());
  groups_.emplace(hash, mine);
  return mine;
}

void GroupTable::InsertSlot(uint64_t hash, size_t group) {
  // Grow at 50% load so linear probes stay short; re-probing from the
  // stored hashes keeps rehash allocation-free per group.
  if (slots_.empty() || (num_groups() + 1) * 2 > slots_.size()) {
    size_t grown = slots_.empty() ? 16 : slots_.size() * 2;
    slots_.assign(grown, 0);
    const size_t mask = grown - 1;
    for (size_t g = 0; g + 1 < num_groups(); ++g) {
      size_t idx = hashes_[g] & mask;
      while (slots_[idx] != 0) idx = (idx + 1) & mask;
      slots_[idx] = static_cast<uint32_t>(g + 1);
    }
  }
  const size_t mask = slots_.size() - 1;
  size_t idx = hash & mask;
  while (slots_[idx] != 0) idx = (idx + 1) & mask;
  slots_[idx] = static_cast<uint32_t>(group + 1);
}

void GroupTable::EnsureStates() {
  const size_t need = num_groups() * aggregates_->size();
  if (vstates_.size() >= need) return;
  if (need > vstates_.capacity()) {
    vstates_.reserve(std::max(need, vstates_.capacity() * 2));
  }
  vstates_.resize(need);
}

void GroupTable::ReserveOnFirstGrowth() {
  if (!hashes_.empty()) return;
  // Satellite fix: reserve capacity on the first group so the common
  // low-cardinality GROUP BY never reallocates its per-group arrays.
  constexpr size_t kInitialGroups = 64;
  hashes_.reserve(kInitialGroups);
  ranks_.reserve(kInitialGroups);
  if (vectorized_) {
    vstates_.reserve(kInitialGroups * aggregates_->size());
  } else {
    keys_.reserve(kInitialGroups);
    bstates_.reserve(kInitialGroups);
  }
}

PartitionedGroupTable::PartitionedGroupTable(
    const std::vector<plan::BoundExprPtr>* group_by,
    const std::vector<plan::BoundExprPtr>* aggregates, size_t partitions)
    : group_by_(group_by),
      aggregates_(aggregates),
      vectorized_(AggKeyBlock::Vectorizable(*group_by)) {
  size_t p = 1;
  while (p < partitions && p < kMaxPartitions) p <<= 1;
  while ((size_t{1} << bits_) < p) ++bits_;
  parts_.reserve(p);
  for (size_t i = 0; i < p; ++i) {
    parts_.push_back(std::make_unique<GroupTable>(group_by, aggregates));
  }
}

size_t PartitionedGroupTable::num_groups() const {
  size_t n = 0;
  for (const auto& part : parts_) n += part->num_groups();
  return n;
}

void PartitionedGroupTable::BeginMorsel(uint32_t morsel) {
  morsel_ = morsel;
  row_in_morsel_ = 0;
}

Status PartitionedGroupTable::AccumulateChunk(const Chunk& chunk) {
  const size_t n = chunk.num_rows();
  if (n == 0) return Status::OK();
  const uint64_t base = uint64_t{morsel_} << 32;
  if (!vectorized_) {
    // Boxed fallback: row-at-a-time key boxing with the same partition
    // routing (HashKey agrees with the vectorized hash by design).
    for (size_t r = 0; r < n; ++r) {
      boxed_key_.clear();
      for (const auto& g : *group_by_) {
        HANA_ASSIGN_OR_RETURN(Value v, EvalExpr(*g, chunk, r));
        boxed_key_.push_back(std::move(v));
      }
      uint64_t h = HashKey(boxed_key_);
      HANA_RETURN_IF_ERROR(parts_[PartitionOf(h)]->AccumulateValues(
          boxed_key_, h, chunk, r, base | (row_in_morsel_ + r)));
    }
    row_in_morsel_ += n;
    return Status::OK();
  }
  HANA_RETURN_IF_ERROR(keys_.Compute(*group_by_, chunk));
  agg_cols_.assign(aggregates_->size(), nullptr);
  for (size_t a = 0; a < aggregates_->size(); ++a) {
    const BoundExpr& agg = *(*aggregates_)[a];
    if (agg.agg_kind == plan::AggKind::kCountStar) continue;
    HANA_ASSIGN_OR_RETURN(agg_cols_[a], EvalExprColumn(*agg.child0, chunk));
  }
  const std::vector<uint64_t>& hashes = keys_.hashes();
  // Pass 1: resolve each row's group, creating groups in row order (so
  // ranks keep the serial first-seen order), then pin each group's
  // state base pointer — stable now that no more groups (and no state
  // array growth) happen until the next chunk.
  row_group_.resize(n);
  for (size_t r = 0; r < n; ++r) {
    GroupTable& part = *parts_[PartitionOf(hashes[r])];
    row_group_[r] = {&part,
                     static_cast<uint32_t>(part.FindOrCreateVec(
                         keys_, r, hashes[r], base | (row_in_morsel_ + r)))};
  }
  for (auto& part : parts_) part->EnsureStates();
  row_states_.resize(n);
  for (size_t r = 0; r < n; ++r) {
    row_states_[r] = row_group_[r].first->StatesOf(row_group_[r].second);
  }
  // Pass 2, column at a time per aggregate, rows in order (each group
  // sees its rows in the same sequence as the row-at-a-time path, so
  // floating-point sums are bit-identical). The aggregate-kind and
  // column-type dispatch runs once per column, not once per row.
  for (size_t a = 0; a < aggregates_->size(); ++a) {
    const BoundExpr& agg = *(*aggregates_)[a];
    if (agg.agg_kind == plan::AggKind::kCountStar) {
      for (size_t r = 0; r < n; ++r) ++row_states_[r][a].count;
      continue;
    }
    const storage::ColumnVector& col = *agg_cols_[a];
    if (agg.distinct || agg.agg_kind == plan::AggKind::kMin ||
        agg.agg_kind == plan::AggKind::kMax) {
      // DISTINCT sets and min/max hold boxed Values either way.
      for (size_t r = 0; r < n; ++r) {
        if (col.IsNull(r)) continue;
        UpdateAggState(agg, row_states_[r][a], col.GetValue(r));
      }
      continue;
    }
    if (agg.agg_kind == plan::AggKind::kCount) {
      for (size_t r = 0; r < n; ++r) {
        if (col.IsNull(r)) continue;
        AggState& st = row_states_[r][a];
        st.any = true;
        ++st.count;
      }
      continue;
    }
    // SUM / AVG: typed row loops (same casts as Value::AsDouble/AsInt)
    // that fill only the sum FinalizeAgg reads. `add` is a lambda, so
    // every loop compiles without a per-row branch on the sum's type.
    auto for_each_value = [&](auto add) {
      for (size_t r = 0; r < n; ++r) {
        if (col.IsNull(r)) continue;
        AggState& st = row_states_[r][a];
        st.any = true;
        ++st.count;
        add(st, r);
      }
    };
    const bool int_sum = IntegerSum(agg);
    switch (col.type()) {
      case DataType::kDouble:
        if (int_sum) {
          for_each_value([&](AggState& st, size_t r) {
            AddToSum(st, static_cast<int64_t>(col.GetDouble(r)));
          });
        } else {
          for_each_value(
              [&](AggState& st, size_t r) { st.sum_d += col.GetDouble(r); });
        }
        break;
      case DataType::kString:  // Sums of a string are 0, the As* image.
        for_each_value([](AggState&, size_t) {});
        break;
      default: {  // kInt64 / kDate / kTimestamp / kBool.
        const bool is_bool = col.type() == DataType::kBool;
        auto int_at = [&](size_t r) -> int64_t {
          int64_t v = col.GetInt(r);
          return is_bool ? int64_t{v != 0} : v;
        };
        if (int_sum) {
          for_each_value(
              [&](AggState& st, size_t r) { AddToSum(st, int_at(r)); });
        } else {
          for_each_value([&](AggState& st, size_t r) {
            st.sum_d += static_cast<double>(int_at(r));
          });
        }
        break;
      }
    }
  }
  row_in_morsel_ += n;
  GlobalAggExecStats().vectorized_chunks.fetch_add(1,
                                                   std::memory_order_relaxed);
  return Status::OK();
}

void PartitionedGroupTable::MergePartition(
    size_t p,
    const std::vector<std::unique_ptr<PartitionedGroupTable>>& sources) {
  GroupTable& dst = *parts_[p];
  for (const auto& src : sources) {
    if (src != nullptr) dst.MergeFrom(*src->parts_[p]);
  }
  GlobalAggExecStats().partition_merges.fetch_add(1,
                                                  std::memory_order_relaxed);
}

void PartitionedGroupTable::EnsureGlobalGroup() {
  if (!group_by_->empty() || aggregates_->empty() || num_groups() > 0) return;
  parts_[PartitionOf(0x12345)]->EnsureGlobalGroup();
}

void PartitionedGroupTable::EmitInOrder(
    const std::function<void(const GroupTable&, size_t)>& fn) const {
  if (parts_.size() == 1) {
    const GroupTable& t = *parts_[0];
    for (size_t g = 0; g < t.num_groups(); ++g) fn(t, g);
    return;
  }
  // K-way merge by rank. Each partition's merged group list is already
  // rank-ascending (partials merge in ascending morsel order and each
  // partial's groups are first-seen ordered), so ascending-rank heads
  // reproduce the global serial first-seen order. Ranks are unique —
  // one row creates at most one group.
  std::vector<size_t> pos(parts_.size(), 0);
  using Head = std::pair<uint64_t, size_t>;  // (rank, partition).
  std::priority_queue<Head, std::vector<Head>, std::greater<Head>> heap;
  for (size_t p = 0; p < parts_.size(); ++p) {
    if (parts_[p]->num_groups() > 0) heap.push({parts_[p]->rank(0), p});
  }
  while (!heap.empty()) {
    auto [rank, p] = heap.top();
    heap.pop();
    size_t g = pos[p]++;
    fn(*parts_[p], g);
    if (pos[p] < parts_[p]->num_groups()) {
      heap.push({parts_[p]->rank(pos[p]), p});
    }
  }
}

size_t DefaultAggPartitions(const std::vector<plan::BoundExprPtr>& group_by) {
  return group_by.empty() ? 1 : PartitionedGroupTable::kMaxPartitions;
}

Result<Chunk> ProbeJoinChunk(const JoinBuildState& state, const Chunk& probe,
                             RadixJoinTable::ProbeKeys* scratch) {
  HANA_RETURN_IF_ERROR(
      state.table->ComputeProbeKeys(probe, state.probe_key_exprs, scratch));
  const JoinKind kind = state.join->join_kind;
  const bool existence = kind == JoinKind::kSemi || kind == JoinKind::kAnti;
  Chunk out = Chunk::Empty(state.join->schema);
  // NOT IN (never with a residual): a NULL in the subquery rejects
  // every row; a NULL outer key is rejected by any non-empty subquery.
  const bool null_aware = state.join->null_aware;
  if (null_aware && state.table->build_has_null_key()) return out;
  const bool null_key_matches =
      null_aware && state.table->num_build_rows() > 0;
  const size_t n = probe.num_rows();
  const size_t probe_width = probe.num_columns();
  const size_t build_width = out.num_columns() > probe_width
                                 ? out.num_columns() - probe_width
                                 : 0;  // Semi/anti emit probe columns only.
  const size_t probe_off = state.build_is_left ? build_width : 0;
  const size_t build_off = state.build_is_left ? 0 : probe_width;
  // Inner and left joins emit each passing pair; every join kind then
  // closes a probe row once all its candidates were seen.
  auto emit_pair = [&](size_t r, const Chunk& payload, size_t b) {
    for (size_t c = 0; c < probe_width; ++c) {
      out.columns[probe_off + c]->AppendFrom(*probe.columns[c], r);
    }
    for (size_t c = 0; c < build_width; ++c) {
      out.columns[build_off + c]->AppendFrom(*payload.columns[c], b);
    }
  };
  auto close_row = [&](size_t r, bool matched) {
    if (matched ? kind == JoinKind::kSemi : kind == JoinKind::kAnti) {
      out.AppendRowFrom(probe, r);
    } else if (!matched && kind == JoinKind::kLeft) {
      for (size_t c = 0; c < probe_width; ++c) {
        out.columns[c]->AppendFrom(*probe.columns[c], r);
      }
      for (size_t c = 0; c < build_width; ++c) {
        out.columns[probe_width + c]->AppendNull();
      }
    }
  };
  if (state.residual == nullptr && existence) {
    // A semi or anti join keeps a subset of the probe rows: gather them
    // column by column, or pass the chunk on when it keeps every row.
    std::vector<uint32_t> kept;
    kept.reserve(n);
    for (size_t r = 0; r < n; ++r) {
      bool matched = null_key_matches && scratch->has_null[r] != 0;
      if (!matched) {
        state.table->ForEachMatch(
            *scratch, r, [&](const RadixJoinTable::Partition&, size_t) {
              matched = true;
              return false;  // The first match decides.
            });
      }
      if (matched == (kind == JoinKind::kSemi)) {
        kept.push_back(static_cast<uint32_t>(r));
      }
    }
    if (kept.size() == n) {
      Chunk all = probe;  // Shares the vectors.
      all.schema = state.join->schema;
      return all;
    }
    for (size_t c = 0; c < probe_width; ++c) {
      out.columns[c]->AppendGather(*probe.columns[c], kept.data(),
                                   kept.size());
    }
    return out;
  }
  if (state.residual == nullptr) {
    for (size_t r = 0; r < n; ++r) {
      bool matched = false;
      state.table->ForEachMatch(
          *scratch, r, [&](const RadixJoinTable::Partition& part, size_t b) {
            matched = true;
            emit_pair(r, part.payload, b);
            return true;
          });
      close_row(r, matched);
    }
    return out;
  }

  // Residual: candidate pairs collect into batches; each batch gathers
  // the residual's columns into a compact chunk and gets one mask.
  std::vector<uint32_t> pair_probe, pair_build;
  std::vector<const Chunk*> pair_payload;
  std::vector<uint8_t> matched(n, 0), mask;
  size_t collected = 0;  // Probe rows whose candidates are all batched.
  size_t closed = 0;     // Probe rows closed so far.
  auto flush = [&]() -> Status {
    const size_t m = pair_probe.size();
    if (m > 0) {
      Chunk compact;
      for (const JoinBuildState::ResidualColumn& rc : state.residual_cols) {
        if (!rc.build) {
          const storage::ColumnVector& src = *probe.columns[rc.column];
          auto col = std::make_shared<storage::ColumnVector>(src.type());
          col->AppendGather(src, pair_probe.data(), m);
          compact.columns.push_back(std::move(col));
          continue;
        }
        auto col = std::make_shared<storage::ColumnVector>(
            pair_payload[0]->columns[rc.column]->type());
        col->Reserve(m);
        for (size_t i = 0; i < m; ++i) {
          col->AppendFrom(*pair_payload[i]->columns[rc.column], pair_build[i]);
        }
        compact.columns.push_back(std::move(col));
      }
      if (!KernelSelectRows(*state.residual, compact, &mask).ok()) {
        // Replay the batch the way the row-at-a-time probe evaluated
        // it: an existence join never evaluates a probe row's
        // candidates past its first match.
        mask.assign(m, 0);
        size_t decided = n;
        for (size_t i = 0; i < m; ++i) {
          const size_t r = pair_probe[i];
          if (existence && (matched[r] != 0 || r == decided)) continue;
          HANA_ASSIGN_OR_RETURN(bool keep,
                                SelectRow(*state.residual, compact, i));
          mask[i] = keep;
          if (existence && keep) decided = r;
        }
      }
    }
    for (size_t i = 0; i < m; ++i) {
      const size_t r = pair_probe[i];
      for (; closed < r; ++closed) close_row(closed, matched[closed] != 0);
      if (mask[i] == 0) continue;
      if (!existence) emit_pair(r, *pair_payload[i], pair_build[i]);
      matched[r] = 1;
    }
    for (; closed < collected; ++closed) {
      close_row(closed, matched[closed] != 0);
    }
    pair_probe.clear();
    pair_build.clear();
    pair_payload.clear();
    return Status::OK();
  };
  for (size_t r = 0; r < n; ++r) {
    Status status;
    state.table->ForEachMatch(
        *scratch, r, [&](const RadixJoinTable::Partition& part, size_t b) {
          if (existence && matched[r] != 0) return false;
          pair_probe.push_back(static_cast<uint32_t>(r));
          pair_build.push_back(static_cast<uint32_t>(b));
          pair_payload.push_back(&part.payload);
          if (pair_probe.size() < storage::kDefaultChunkRows) return true;
          status = flush();
          return status.ok();
        });
    HANA_RETURN_IF_ERROR(status);
    collected = r + 1;
  }
  HANA_RETURN_IF_ERROR(flush());
  return out;
}

Result<Chunk> NestedLoopProbeChunk(const JoinBuildState& state,
                                   const Chunk& probe) {
  const JoinKind kind = state.join->join_kind;
  const BoundExpr* condition = state.join->condition.get();
  Chunk out = Chunk::Empty(state.join->schema);
  const bool existence = kind == JoinKind::kSemi || kind == JoinKind::kAnti;
  const size_t build_width =
      existence ? 0 : out.num_columns() - probe.num_columns();
  std::vector<Value> combined;
  for (size_t r = 0; r < probe.num_rows(); ++r) {
    combined = probe.Row(r);
    const size_t probe_width = combined.size();
    bool matched = false;
    for (const std::vector<Value>& build : state.rows) {
      combined.resize(probe_width);
      combined.insert(combined.end(), build.begin(), build.end());
      if (condition != nullptr) {
        HANA_ASSIGN_OR_RETURN(Value keep, EvalExprRow(*condition, combined));
        // NOT IN: an unknown comparison rejects the row like a match.
        if (keep.is_null() ? !state.join->null_aware : !IsTruthy(keep)) {
          continue;
        }
      }
      matched = true;
      if (existence) break;
      out.AppendRow(combined);
    }
    if (matched ? kind == JoinKind::kSemi : kind == JoinKind::kAnti) {
      out.AppendRowFrom(probe, r);
    } else if (!matched && kind == JoinKind::kLeft) {
      combined.resize(probe_width);
      combined.resize(probe_width + build_width, Value::Null());
      out.AppendRow(combined);
    }
  }
  return out;
}

namespace {

/// Recursive plan splitter. Pipelines are appended post-order, so every
/// dependency has a smaller id and the root pipeline comes out last.
struct Decomposer {
  PipelinePlan plan;

  /// Decomposes the subtree rooted at `node` into pipelines producing
  /// its collected output; a top aggregate, sort or limit becomes the
  /// sink.
  size_t Subtree(const LogicalOp& node) {
    switch (node.kind) {
      case LogicalKind::kAggregate:
        return Build(*node.children[0], Pipeline::SinkKind::kGroups, &node,
                     nullptr);
      case LogicalKind::kSort:
        return Build(*node.children[0], Pipeline::SinkKind::kSort, &node,
                     nullptr);
      case LogicalKind::kLimit:
        return Build(*node.children[0], Pipeline::SinkKind::kCollect, &node,
                     nullptr);
      default:
        return Build(node, Pipeline::SinkKind::kCollect, nullptr, nullptr);
    }
  }

  /// The breaker state of `join`: a radix hash join when the condition
  /// has a usable equi key, else a nested-loop join over the right side.
  JoinBuildState* NewBuild(const LogicalOp& join) {
    auto state = std::make_unique<JoinBuildState>();
    JoinBuildState* b = state.get();
    b->join = &join;
    if (join.condition != nullptr && join.join_kind != JoinKind::kCross) {
      b->parts = plan::AnalyzeJoinCondition(
          *join.condition, join.children[0]->schema->num_columns());
    }
    b->nested_loop = b->parts.equi_keys.empty();
    b->build_is_left = !b->nested_loop &&
                       join.join_kind == JoinKind::kInner && join.build_left;
    b->build = join.children[b->build_is_left ? 0 : 1].get();
    for (const auto& ek : b->parts.equi_keys) {
      b->build_key_exprs.push_back(b->build_is_left ? ek.left.get()
                                                    : ek.right.get());
      b->probe_key_exprs.push_back(b->build_is_left ? ek.right.get()
                                                    : ek.left.get());
    }
    if (!b->nested_loop && b->parts.residual != nullptr) {
      CompactResidual(b, join.children[0]->schema->num_columns());
    }
    plan.builds.push_back(std::move(state));
    return b;
  }

  /// Rebinds the residual (over left++right, the left side spanning
  /// [0, left_arity)) to a compact chunk of just the columns it reads.
  /// A residual reading no column keeps the probe's first one, so
  /// batches still count rows.
  static void CompactResidual(JoinBuildState* b, size_t left_arity) {
    std::vector<size_t> cols;
    b->parts.residual->CollectColumns(&cols);
    if (cols.empty()) cols.push_back(b->build_is_left ? left_arity : 0);
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    std::vector<int> mapping(cols.back() + 1, -1);
    for (size_t k = 0; k < cols.size(); ++k) {
      const bool left = cols[k] < left_arity;
      mapping[cols[k]] = static_cast<int>(k);
      b->residual_cols.push_back(
          {left == b->build_is_left, left ? cols[k] : cols[k] - left_arity});
    }
    b->residual = b->parts.residual->Clone();
    // lint: IgnoreStatus allowed — every column the residual reads is
    // in `mapping`, so the strict remap cannot fail.
    IgnoreStatus(plan::RemapColumns(b->residual.get(), mapping));
  }

  /// Builds one pipeline whose stage chain starts at `top` and ends in
  /// the given sink; returns its id.
  size_t Build(const LogicalOp& top, Pipeline::SinkKind sink,
               const LogicalOp* sink_op, JoinBuildState* build_target) {
    Pipeline p;
    std::string label;
    // Walk the streaming chain top-down (stages reversed afterwards so
    // they run innermost-first).
    const LogicalOp* cur = &top;
    while (true) {
      if (cur->kind == LogicalKind::kFilter ||
          (cur->kind == LogicalKind::kProject && !cur->children.empty())) {
        p.stages.push_back({cur->kind == LogicalKind::kFilter
                                ? PipelineStage::Kind::kFilter
                                : PipelineStage::Kind::kProject,
                            cur, nullptr});
        cur = cur->children[0].get();
        continue;
      }
      if (cur->kind != LogicalKind::kJoin) {
        label = Source(&p, *cur);
        break;
      }
      JoinBuildState* b = NewBuild(*cur);
      if (cur->semijoin_pushdown && !b->nested_loop) {
        // Semijoin federation strategy: the local left side is collected
        // once; its distinct keys form the IN-list of the remote build
        // side, and its rows then stream through the probe stage.
        size_t left = Subtree(*cur->children[0]);
        Pipeline remote;
        remote.source = Pipeline::SourceKind::kRemoteQuery;
        remote.source_op = b->build;
        remote.source_schema = b->build->schema;
        remote.upstream = {left};
        remote.pushdown = b;
        remote.deps = {left};
        p.deps.push_back(Finish(std::move(remote), *b->build,
                                Pipeline::SinkKind::kJoinBuild, nullptr, b,
                                StrFormat("remote query (keys from P%zu)",
                                          left)));
        p.stages.push_back({PipelineStage::Kind::kJoinProbe, cur, b});
        p.source = Pipeline::SourceKind::kUpstream;
        p.upstream = {left};
        p.deps.push_back(left);
        p.source_schema = cur->children[0]->schema;
        label = StrFormat("from P%zu", left);
        break;
      }
      p.deps.push_back(
          Build(*b->build, Pipeline::SinkKind::kJoinBuild, nullptr, b));
      p.stages.push_back({b->nested_loop
                              ? PipelineStage::Kind::kNestedLoopProbe
                              : PipelineStage::Kind::kJoinProbe,
                          cur, b});
      cur = cur->children[b->build_is_left ? 1 : 0].get();
    }
    std::reverse(p.stages.begin(), p.stages.end());
    return Finish(std::move(p), top, sink, sink_op, build_target,
                  std::move(label));
  }

  /// Resolves the source terminating a stage chain at `node`; returns
  /// the source's label.
  std::string Source(Pipeline* p, const LogicalOp& node) {
    p->source_schema = node.schema;
    p->source_op = &node;
    switch (node.kind) {
      case LogicalKind::kScan:
        p->source = Pipeline::SourceKind::kScan;
        return "scan " + node.table.name;
      case LogicalKind::kRemoteQuery:
        p->source = Pipeline::SourceKind::kRemoteQuery;
        if (node.relocate_local_child && !node.children.empty()) {
          size_t child = Subtree(*node.children[0]);
          p->upstream = {child};
          p->deps.push_back(child);
          return StrFormat("remote query (relocating P%zu)", child);
        }
        return "remote query";
      case LogicalKind::kTableFunctionScan:
        p->source = Pipeline::SourceKind::kTableFunction;
        return "table function " + node.function.name;
      case LogicalKind::kProject:  // Table-less SELECT.
        p->source = Pipeline::SourceKind::kConstant;
        return "constant row";
      case LogicalKind::kUnion:
        p->source = Pipeline::SourceKind::kUpstream;
        for (const auto& child : node.children) {
          size_t id = Subtree(*child);
          p->upstream.push_back(id);
          p->deps.push_back(id);
        }
        return "union";
      default: {  // Aggregate, sort or limit below a streaming chain.
        p->source = Pipeline::SourceKind::kUpstream;
        p->source_op = nullptr;
        size_t id = Subtree(node);
        p->upstream = {id};
        p->deps.push_back(id);
        return StrFormat("from P%zu", id);
      }
    }
  }

  /// Attaches the sink, labels the pipeline and appends it.
  size_t Finish(Pipeline p, const LogicalOp& top, Pipeline::SinkKind sink,
                const LogicalOp* sink_op, JoinBuildState* build_target,
                std::string label) {
    p.sink = sink;
    p.sink_op = sink_op;
    p.build_target = build_target;
    switch (sink) {
      case Pipeline::SinkKind::kCollect:
        p.output_schema = p.stages.empty() ? p.source_schema : top.schema;
        if (sink_op != nullptr) p.limit = std::max<int64_t>(sink_op->limit, 0);
        break;
      case Pipeline::SinkKind::kGroups:
      case Pipeline::SinkKind::kSort:
        p.output_schema = sink_op->schema;
        break;
      case Pipeline::SinkKind::kJoinBuild:
        p.output_schema = build_target->build->schema;
        break;
    }
    for (const PipelineStage& s : p.stages) {
      switch (s.kind) {
        case PipelineStage::Kind::kFilter:
          label += " -> filter";
          break;
        case PipelineStage::Kind::kProject:
          label += " -> project";
          break;
        case PipelineStage::Kind::kJoinProbe:
          label += " -> probe";
          break;
        case PipelineStage::Kind::kNestedLoopProbe:
          label += " -> nested-loop probe";
          break;
      }
    }
    switch (sink) {
      case Pipeline::SinkKind::kCollect:
        if (sink_op != nullptr) label += " -> limit " + std::to_string(p.limit);
        break;
      case Pipeline::SinkKind::kGroups:
        label += " -> aggregate";
        break;
      case Pipeline::SinkKind::kJoinBuild:
        label += " -> build";
        break;
      case Pipeline::SinkKind::kSort:
        label += " -> sort";
        break;
    }
    p.label = std::move(label);
    p.id = plan.pipelines.size();
    // EXPLAIN annotation: every node this pipeline touches directly.
    for (const PipelineStage& s : p.stages) plan.op_pipeline[s.op] = p.id;
    if (p.source_op != nullptr) plan.op_pipeline[p.source_op] = p.id;
    if (sink_op != nullptr) plan.op_pipeline[sink_op] = p.id;
    plan.pipelines.push_back(std::move(p));
    return plan.pipelines.back().id;
  }
};

}  // namespace

PipelinePlan DecomposePlan(const plan::LogicalOp& root) {
  Decomposer d;
  d.Subtree(root);
  return std::move(d.plan);
}

}  // namespace hana::exec
