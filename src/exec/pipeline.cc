#include "exec/pipeline.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "common/cpu_dispatch.h"
#include "common/strings.h"
#include "exec/evaluator.h"
#include "sql/ast.h"

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

namespace {

/// Value::Hash() of a NULL value: what a NULL group-key cell folds into
/// the row hash (group keys keep NULL rows, unlike join keys).
constexpr uint64_t kNullCellHash = 0x9e3779b97f4a7c15ULL;

/// Group-key cell equality: NULL == NULL (one NULL group), and double
/// comparison goes through the same `<` trichotomy as Value::Compare so
/// NaN cells form one group, as they do under Value::Compare.
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
    : group_by_(group_by), aggregates_(aggregates) {
  key_cols_.reserve(group_by->size());
  for (const auto& g : *group_by) {
    key_cols_.push_back(std::make_shared<storage::ColumnVector>(g->type));
  }
}

void GroupTable::MergeFrom(GroupTable& src) {
  const size_t n = src.num_groups();
  if (n == 0) return;
  // Two passes so state growth batches into one resize for all groups
  // this partial contributes, not one per group.
  merge_scratch_.clear();
  merge_scratch_.reserve(n);
  for (size_t g = 0; g < n; ++g) {
    // A new group inherits the partial's serial first-seen rank.
    merge_scratch_.push_back(static_cast<uint32_t>(
        FindOrCreate(src.key_cols_, g, src.hashes_[g], src.ranks_[g])));
  }
  EnsureStates();
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
  EnsureStates();
  InsertSlot(0x12345, 0);
}

Status GroupTable::AppendGroup(size_t g, Chunk* out) const {
  const size_t keys = key_cols_.size();
  for (size_t k = 0; k < keys; ++k) {
    out->columns[k]->AppendFrom(*key_cols_[k], g);
  }
  const AggState* states = StatesOf(g);
  for (size_t a = 0; a < aggregates_->size(); ++a) {
    HANA_ASSIGN_OR_RETURN(Value v, FinalizeAgg(*(*aggregates_)[a], states[a]));
    out->columns[keys + a]->Append(v);
  }
  return Status::OK();
}

size_t GroupTable::FindOrCreate(
    const std::vector<storage::ColumnVectorPtr>& keys, size_t row,
    uint64_t hash, uint64_t rank) {
  if (!slots_.empty()) {
    const size_t mask = slots_.size() - 1;
    for (size_t idx = hash & mask; slots_[idx] != 0; idx = (idx + 1) & mask) {
      size_t g = slots_[idx] - 1;
      if (hashes_[g] != hash) continue;
      bool equal = true;
      for (size_t k = 0; k < key_cols_.size(); ++k) {
        if (!AggCellsEqual(*key_cols_[k], g, *keys[k], row)) {
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
    key_cols_[k]->AppendFrom(*keys[k], row);
  }
  hashes_.push_back(hash);
  ranks_.push_back(rank);
  InsertSlot(hash, g);  // State growth deferred to EnsureStates().
  return g;
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
  if (states_.size() >= need) return;
  if (need > states_.capacity()) {
    states_.reserve(std::max(need, states_.capacity() * 2));
  }
  states_.resize(need);
}

void GroupTable::ReserveOnFirstGrowth() {
  if (!hashes_.empty()) return;
  // Satellite fix: reserve capacity on the first group so the common
  // low-cardinality GROUP BY never reallocates its per-group arrays.
  constexpr size_t kInitialGroups = 64;
  hashes_.reserve(kInitialGroups);
  ranks_.reserve(kInitialGroups);
  states_.reserve(kInitialGroups * aggregates_->size());
}

PartitionedGroupTable::PartitionedGroupTable(
    const std::vector<plan::BoundExprPtr>* group_by,
    const std::vector<plan::BoundExprPtr>* aggregates, size_t partitions)
    : group_by_(group_by), aggregates_(aggregates) {
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
    const size_t g = part.FindOrCreate(keys_.cols(), r, hashes[r],
                                       base | (row_in_morsel_ + r));
    row_group_[r] = {&part, static_cast<uint32_t>(g)};
  }
  for (auto& part : parts_) part->EnsureStates();
  row_states_.resize(n);
  for (size_t r = 0; r < n; ++r) {
    row_states_[r] = row_group_[r].first->StatesOf(row_group_[r].second);
  }
  // Pass 2, column at a time per aggregate, rows in order (each group
  // sees its rows in input order, as AccumulateRow would, so
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
      // DISTINCT sets and min/max hold boxed Values.
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
  return Status::OK();
}

void PartitionedGroupTable::MergePartition(
    size_t p,
    const std::vector<std::unique_ptr<PartitionedGroupTable>>& sources) {
  GroupTable& dst = *parts_[p];
  for (const auto& src : sources) {
    if (src != nullptr) dst.MergeFrom(*src->parts_[p]);
  }
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
  // NOT IN: a NULL in the subquery rejects every row; a NULL outer key
  // is rejected by any non-empty subquery. Without keys (the
  // nested-loop join) the comparison is the residual, and an unknown
  // verdict rejects the row like a match.
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
      if (!KernelSelectRows(*state.residual, compact, &mask, null_aware)
               .ok()) {
        // Replay the batch the way the row-at-a-time probe evaluated
        // it: an existence join never evaluates a probe row's
        // candidates past its first match.
        mask.assign(m, 0);
        size_t decided = n;
        for (size_t i = 0; i < m; ++i) {
          const size_t r = pair_probe[i];
          if (existence && (matched[r] != 0 || r == decided)) continue;
          HANA_ASSIGN_OR_RETURN(
              bool keep, SelectRow(*state.residual, compact, i, null_aware));
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

namespace {

/// Value::Compare of two cells, unboxed when both vectors have one type.
int CompareCells(const storage::ColumnVector& a, size_t i,
                 const storage::ColumnVector& b, size_t j) {
  const bool an = a.IsNull(i), bn = b.IsNull(j);
  if (an || bn) return an == bn ? 0 : (an ? -1 : 1);
  if (a.type() != b.type()) return a.GetValue(i).Compare(b.GetValue(j));
  auto three_way = [](auto x, auto y) { return x < y ? -1 : (x > y ? 1 : 0); };
  switch (a.type()) {
    case DataType::kInt64:
      return three_way(a.GetInt(i), b.GetInt(j));
    case DataType::kDate:  // Compare's numeric rule: through double.
    case DataType::kTimestamp:
      return three_way(static_cast<double>(a.GetInt(i)),
                       static_cast<double>(b.GetInt(j)));
    case DataType::kDouble:
      return three_way(a.GetDouble(i), b.GetDouble(j));
    case DataType::kBool:
      return static_cast<int>(a.GetBool(i)) - static_cast<int>(b.GetBool(j));
    case DataType::kString:
      if (a.SharesDictionary(b)) return three_way(a.GetCode(i), b.GetCode(j));
      return a.GetString(i).compare(b.GetString(j));
    default:
      return 0;
  }
}

/// The error of the first row of `chunk` on which a key fails (its
/// first failing key), evaluating one row at a time; `chunk_error` (a
/// key's error over the whole chunk) if no single row fails.
Status FirstKeyError(const std::vector<plan::SortKey>& keys,
                     const Chunk& chunk, Status chunk_error) {
  for (size_t r = 0; r < chunk.num_rows(); ++r) {
    Chunk row;
    for (const storage::ColumnVectorPtr& col : chunk.columns) {
      auto cell = std::make_shared<storage::ColumnVector>(col->type());
      cell->AppendFrom(*col, r);
      row.columns.push_back(std::move(cell));
    }
    for (const plan::SortKey& k : keys) {
      HANA_RETURN_IF_ERROR(EvalExprColumn(*k.expr, row).status());
    }
  }
  return chunk_error;
}

}  // namespace

Result<std::vector<Chunk>> SortChunks(const std::vector<plan::SortKey>& keys,
                                      const std::vector<Chunk>& in,
                                      const std::shared_ptr<Schema>& schema) {
  // Key columns per chunk, and one (chunk, row) reference per row.
  std::vector<std::vector<storage::ColumnVectorPtr>> key_cols(in.size());
  std::vector<std::pair<uint32_t, uint32_t>> order;
  for (size_t c = 0; c < in.size(); ++c) {
    for (const plan::SortKey& k : keys) {
      Result<storage::ColumnVectorPtr> col = EvalExprColumn(*k.expr, in[c]);
      if (!col.ok()) return FirstKeyError(keys, in[c], col.status());
      key_cols[c].push_back(std::move(*col));
    }
    for (size_t r = 0; r < in[c].num_rows(); ++r) {
      order.emplace_back(static_cast<uint32_t>(c), static_cast<uint32_t>(r));
    }
  }
  using Ref = std::pair<uint32_t, uint32_t>;
  std::stable_sort(order.begin(), order.end(), [&](Ref a, Ref b) {
    for (size_t k = 0; k < keys.size(); ++k) {
      int cmp = CompareCells(*key_cols[a.first][k], a.second,
                             *key_cols[b.first][k], b.second);
      if (cmp != 0) return keys[k].ascending ? cmp < 0 : cmp > 0;
    }
    return false;
  });
  std::vector<Chunk> out;
  for (size_t i = 0; i < order.size(); ++i) {
    if (i % storage::kDefaultChunkRows == 0) {
      out.push_back(Chunk::Empty(schema));
    }
    out.back().AppendRowFrom(in[order[i].first], order[i].second);
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

  /// The breaker state of `join`: a radix hash join on the condition's
  /// usable equi keys; without one, the nested-loop join (a keyless
  /// table over the right side) with the whole condition as residual.
  JoinBuildState* NewBuild(const LogicalOp& join) {
    auto state = std::make_unique<JoinBuildState>();
    JoinBuildState* b = state.get();
    b->join = &join;
    const size_t left_arity = join.children[0]->schema->num_columns();
    if (join.condition != nullptr && join.join_kind != JoinKind::kCross) {
      b->parts = plan::AnalyzeJoinCondition(*join.condition, left_arity);
    }
    if (!b->parts.equi_keys.empty()) {
      b->pushdown_key = b->parts.equi_keys[0].left.get();
    }
    UnifyKeyTypes(&b->parts, left_arity);
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
    if (b->nested_loop) {
      b->parts.residual =
          join.condition != nullptr ? join.condition->Clone() : nullptr;
    }
    if (b->parts.residual != nullptr) CompactResidual(b, left_arity);
    plan.builds.push_back(std::move(state));
    return b;
  }

  /// Gives both sides of every equi key one type, so keys hash and
  /// compare as typed columns with Value::Compare's equality: two
  /// different numeric types both become DOUBLE (Compare's numeric
  /// rule), and a NULL-typed side takes the other side's type (its rows
  /// stay NULL keys). A pair Value::Compare never equates (BOOL or
  /// VARCHAR against another type) moves back into the residual, ahead
  /// of the conjuncts already there; the join then runs on its other
  /// keys, or as a nested-loop join when none is left.
  static void UnifyKeyTypes(plan::JoinConditionParts* parts,
                            size_t left_arity) {
    auto cast = [](plan::BoundExprPtr* e, DataType type) {
      if ((*e)->type == type) return;
      auto node = std::make_unique<BoundExpr>();
      node->kind = plan::BoundKind::kCast;
      node->type = type;
      node->child0 = std::move(*e);
      *e = std::move(node);
    };
    auto conjoin = [](plan::BoundExprPtr a, plan::BoundExprPtr b) {
      if (a == nullptr) return b;
      if (b == nullptr) return a;
      return BoundExpr::Binary(static_cast<int>(sql::BinaryOp::kAnd),
                               DataType::kBool, std::move(a), std::move(b));
    };
    std::vector<plan::EquiKey> keys;
    plan::BoundExprPtr moved;
    for (plan::EquiKey& key : parts->equi_keys) {
      const DataType l = key.left->type, r = key.right->type;
      if (l == r || l == DataType::kNull || r == DataType::kNull) {
        cast(&key.left, l == DataType::kNull ? r : l);
        cast(&key.right, r == DataType::kNull ? l : r);
      } else if (IsNumericType(l) && IsNumericType(r)) {
        cast(&key.left, DataType::kDouble);
        cast(&key.right, DataType::kDouble);
      } else {
        ShiftColumns(key.right.get(), left_arity);  // Back to left++right.
        moved = conjoin(std::move(moved),
                        BoundExpr::Binary(static_cast<int>(sql::BinaryOp::kEq),
                                          DataType::kBool, std::move(key.left),
                                          std::move(key.right)));
        continue;
      }
      keys.push_back(std::move(key));
    }
    parts->equi_keys = std::move(keys);
    parts->residual = conjoin(std::move(moved), std::move(parts->residual));
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
      p.stages.push_back({PipelineStage::Kind::kJoinProbe, cur, b});
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
          label += s.build->nested_loop ? " -> nested-loop probe" : " -> probe";
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
