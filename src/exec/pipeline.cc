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

/// Compiled form of `<int64 column> CMP <int64 literal>` predicates (in
/// either operand order), the shape the dispatched compare kernel and
/// the run-at-a-time RLE path can evaluate without boxing Values.
struct IntCmpFilter {
  bool ok = false;
  size_t column = 0;
  CmpOp op = CmpOp::kEq;
  int64_t rhs = 0;
};

IntCmpFilter AnalyzeIntCmp(const BoundExpr& p) {
  IntCmpFilter f;
  if (p.kind != plan::BoundKind::kBinary) return f;
  CmpOp op;
  switch (static_cast<sql::BinaryOp>(p.binary_op)) {
    case sql::BinaryOp::kEq:
      op = CmpOp::kEq;
      break;
    case sql::BinaryOp::kNe:
      op = CmpOp::kNe;
      break;
    case sql::BinaryOp::kLt:
      op = CmpOp::kLt;
      break;
    case sql::BinaryOp::kLe:
      op = CmpOp::kLe;
      break;
    case sql::BinaryOp::kGt:
      op = CmpOp::kGt;
      break;
    case sql::BinaryOp::kGe:
      op = CmpOp::kGe;
      break;
    default:
      return f;
  }
  const BoundExpr* col = p.child0.get();
  const BoundExpr* lit = p.child1.get();
  bool swapped = false;
  if (col != nullptr && lit != nullptr &&
      col->kind == plan::BoundKind::kLiteral &&
      lit->kind == plan::BoundKind::kColumn) {
    std::swap(col, lit);
    swapped = true;
  }
  if (col == nullptr || lit == nullptr ||
      col->kind != plan::BoundKind::kColumn ||
      lit->kind != plan::BoundKind::kLiteral) {
    return f;
  }
  // Exact-int comparisons only: Value::Compare goes through double for
  // mixed numeric types, which the kernel does not replicate.
  if (col->type != DataType::kInt64) return f;
  if (lit->literal.type() != DataType::kInt64) return f;
  if (swapped) {
    // `lit CMP col` is `col CMP' lit` with the comparison mirrored.
    switch (op) {
      case CmpOp::kLt:
        op = CmpOp::kGt;
        break;
      case CmpOp::kLe:
        op = CmpOp::kGe;
        break;
      case CmpOp::kGt:
        op = CmpOp::kLt;
        break;
      case CmpOp::kGe:
        op = CmpOp::kLe;
        break;
      default:
        break;  // kEq / kNe are symmetric.
    }
  }
  f.ok = true;
  f.column = col->column_index;
  f.op = op;
  f.rhs = lit->literal.int_value();
  return f;
}

bool CmpScalar(CmpOp op, int64_t a, int64_t b) {
  switch (op) {
    case CmpOp::kEq:
      return a == b;
    case CmpOp::kNe:
      return a != b;
    case CmpOp::kLt:
      return a < b;
    case CmpOp::kLe:
      return a <= b;
    case CmpOp::kGt:
      return a > b;
    case CmpOp::kGe:
      return a >= b;
  }
  return false;
}

}  // namespace

Status SelectRows(const BoundExpr& predicate, const Chunk& in,
                  std::vector<uint8_t>* mask, bool* conjunction_kernel) {
  const size_t n = in.num_rows();
  mask->resize(n);
  if (conjunction_kernel != nullptr) *conjunction_kernel = false;
  // Two-term conjunction fast path: `a CMP k AND b CMP m` over int64
  // columns runs as two dispatched kernel passes sharing one selection
  // mask. NULL semantics match the scalar Kleene AND exactly: a row is
  // kept only when both conjuncts are TRUE, and the kernel writes 0 for
  // null lanes — NULL AND TRUE, NULL AND FALSE and NULL AND NULL all
  // drop the row in both paths.
  if (predicate.kind == plan::BoundKind::kBinary &&
      static_cast<sql::BinaryOp>(predicate.binary_op) == sql::BinaryOp::kAnd &&
      predicate.child0 != nullptr && predicate.child1 != nullptr && n > 0) {
    const IntCmpFilter f1 = AnalyzeIntCmp(*predicate.child0);
    const IntCmpFilter f2 = AnalyzeIntCmp(*predicate.child1);
    if (f1.ok && f2.ok && f1.column < in.columns.size() &&
        f2.column < in.columns.size()) {
      const storage::ColumnVector& c1 = *in.columns[f1.column];
      const storage::ColumnVector& c2 = *in.columns[f2.column];
      if (c1.type() == DataType::kInt64 && c2.type() == DataType::kInt64 &&
          c1.size() == n && c2.size() == n) {
        std::vector<uint8_t> mask2(n);
        Kernels().cmp_i64(f1.op, c1.ints_data(), c1.nulls_data(), n, f1.rhs,
                          mask->data());
        Kernels().cmp_i64(f2.op, c2.ints_data(), c2.nulls_data(), n, f2.rhs,
                          mask2.data());
        for (size_t r = 0; r < n; ++r) (*mask)[r] &= mask2[r];
        if (conjunction_kernel != nullptr) *conjunction_kernel = true;
        return Status::OK();
      }
    }
  }
  const IntCmpFilter f = AnalyzeIntCmp(predicate);
  if (f.ok && f.column < in.columns.size()) {
    const storage::ColumnVector& col = *in.columns[f.column];
    if (col.type() == DataType::kInt64 && col.size() == n && n > 0) {
      if (col.run_indexed()) {
        // Run-at-a-time: the RLE decoder registered runs of equal
        // values, so evaluate the predicate once per run. Runs hold
        // non-null values only, matching the NULL-drops-row semantics
        // of the scalar path.
        for (const storage::ColumnVector::ValueRun& run : col.runs()) {
          const uint8_t keep = CmpScalar(f.op, col.GetInt(run.begin), f.rhs);
          std::fill(mask->begin() + static_cast<ptrdiff_t>(run.begin),
                    mask->begin() + static_cast<ptrdiff_t>(run.end), keep);
        }
        return Status::OK();
      }
      // Vectorized: one dispatched compare over the column produces the
      // mask (null rows compare to 0, i.e. dropped).
      Kernels().cmp_i64(f.op, col.ints_data(), col.nulls_data(), n, f.rhs,
                        mask->data());
      return Status::OK();
    }
  }
  for (size_t r = 0; r < n; ++r) {
    Result<Value> keep = EvalExpr(predicate, in, r);
    if (!keep.ok()) {
      mask->resize(r);
      return keep.status();
    }
    (*mask)[r] = !keep->is_null() && IsTruthy(*keep);
  }
  return Status::OK();
}

Result<Chunk> FilterChunk(const BoundExpr& predicate, const Chunk& in) {
  std::vector<uint8_t> mask;
  bool conjunction_kernel = false;
  HANA_RETURN_IF_ERROR(SelectRows(predicate, in, &mask, &conjunction_kernel));
  if (conjunction_kernel) {
    GlobalAggExecStats().conjunction_kernel_chunks.fetch_add(
        1, std::memory_order_relaxed);
  }
  Chunk out = Chunk::Empty(in.schema);
  for (size_t r = 0; r < mask.size(); ++r) {
    if (mask[r] != 0) out.AppendRowFrom(in, r);
  }
  return out;
}

Result<Chunk> ProjectChunk(const LogicalOp& project, const Chunk& in) {
  Chunk out = Chunk::Empty(project.schema);
  for (size_t c = 0; c < project.exprs.size(); ++c) {
    const BoundExpr& e = *project.exprs[c];
    // A bare column of the same physical type copies as a whole vector.
    if (e.kind == plan::BoundKind::kColumn &&
        e.column_index < in.columns.size() &&
        in.columns[e.column_index]->type() == out.columns[c]->type()) {
      *out.columns[c] = *in.columns[e.column_index];
      continue;
    }
    for (size_t r = 0; r < in.num_rows(); ++r) {
      HANA_ASSIGN_OR_RETURN(Value v, EvalExpr(e, in, r));
      out.columns[c]->Append(v);
    }
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
  s.conjunction_kernel_chunks.store(0);
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
  JoinKind kind = state.join->join_kind;
  Chunk out = Chunk::Empty(state.join->schema);
  size_t probe_width = probe.num_columns();
  size_t build_width = out.num_columns() > probe_width
                           ? out.num_columns() - probe_width
                           : 0;  // Semi/anti emit probe columns only.
  size_t probe_off = state.build_is_left ? build_width : 0;
  size_t build_off = state.build_is_left ? 0 : probe_width;
  const BoundExpr* residual = state.parts.residual.get();
  for (size_t r = 0; r < probe.num_rows(); ++r) {
    bool matched = false;
    Status status = Status::OK();
    state.table->ForEachMatch(
        *scratch, r,
        [&](const RadixJoinTable::Partition& part, size_t b) {
          if (residual != nullptr) {
            std::vector<Value> combined =
                state.build_is_left ? part.payload.Row(b) : probe.Row(r);
            std::vector<Value> tail =
                state.build_is_left ? probe.Row(r) : part.payload.Row(b);
            combined.insert(combined.end(),
                            std::make_move_iterator(tail.begin()),
                            std::make_move_iterator(tail.end()));
            Result<Value> keep = EvalExprRow(*residual, combined);
            if (!keep.ok()) {
              status = keep.status();
              return false;
            }
            if (keep->is_null() || !IsTruthy(*keep)) return true;
          }
          matched = true;
          switch (kind) {
            case JoinKind::kInner:
            case JoinKind::kLeft:
              for (size_t c = 0; c < probe_width; ++c) {
                out.columns[probe_off + c]->AppendFrom(*probe.columns[c], r);
              }
              for (size_t c = 0; c < build_width; ++c) {
                out.columns[build_off + c]->AppendFrom(
                    *part.payload.columns[c], b);
              }
              return true;
            case JoinKind::kSemi:
              out.AppendRowFrom(probe, r);
              return false;  // Existence established.
            default:
              return false;  // kAnti: first match disqualifies.
          }
        });
    HANA_RETURN_IF_ERROR(status);
    if (!matched) {
      if (kind == JoinKind::kAnti) {
        out.AppendRowFrom(probe, r);
      } else if (kind == JoinKind::kLeft) {
        for (size_t c = 0; c < probe_width; ++c) {
          out.columns[c]->AppendFrom(*probe.columns[c], r);
        }
        for (size_t c = 0; c < build_width; ++c) {
          out.columns[probe_width + c]->AppendNull();
        }
      }
    }
  }
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
        if (keep.is_null() || !IsTruthy(keep)) continue;
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
    plan.builds.push_back(std::move(state));
    return b;
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
