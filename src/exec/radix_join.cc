#include "exec/radix_join.h"

#include <cmath>
#include <functional>
#include <limits>

#include "common/cpu_dispatch.h"
#include "common/util.h"
#include "exec/vector_eval.h"

namespace hana::exec {

namespace {

using storage::Chunk;
using storage::ColumnVector;
using storage::ColumnVectorPtr;

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Key shape the batched hash kernel and the perfect-hash layout
/// handle: one key column on the int64 physical array with exact
/// integer semantics (bool excluded — its hash normalizes to 0/1).
bool SingleIntKey(const std::vector<const plan::BoundExpr*>& exprs) {
  if (exprs.size() != 1) return false;
  DataType t = exprs[0]->type;
  return t == DataType::kInt64 || t == DataType::kDate ||
         t == DataType::kTimestamp;
}

}  // namespace

// Declared in radix_join.h; shared with the partitioned aggregation.
size_t HashCell(const ColumnVector& col, size_t i) {
  switch (col.type()) {
    case DataType::kBool:
      return std::hash<int64_t>()(col.GetInt(i) != 0 ? 1 : 0);
    case DataType::kInt64:
    case DataType::kDate:
    case DataType::kTimestamp: {
      int64_t v = col.GetInt(i);
      double d = static_cast<double>(v);
      if (d == std::floor(d) && d >= -9.0e15 && d <= 9.0e15) {
        return std::hash<int64_t>()(v);
      }
      return std::hash<double>()(d);
    }
    case DataType::kDouble: {
      double d = col.GetDouble(i);
      if (d == std::floor(d) && d >= -9.0e15 && d <= 9.0e15) {
        return std::hash<int64_t>()(static_cast<int64_t>(d));
      }
      return std::hash<double>()(d);
    }
    case DataType::kString:
      return std::hash<std::string>()(col.GetString(i));
    default:
      return 0;
  }
}

/// Typed equality of two non-null cells of the same concrete type.
/// Double equality matches Value::Compare on the same type
/// (-0.0 == 0.0). Strings of one dictionary compare by code (its
/// entries are unique).
bool CellsEqual(const ColumnVector& a, size_t i, const ColumnVector& b,
                size_t j) {
  switch (a.type()) {
    case DataType::kDouble:
      return a.GetDouble(i) == b.GetDouble(j);
    case DataType::kString:
      if (a.SharesDictionary(b)) return a.GetCode(i) == b.GetCode(j);
      return a.GetString(i) == b.GetString(j);
    default:
      return a.GetInt(i) == b.GetInt(j);
  }
}

RadixJoinTable::RadixJoinTable(
    std::shared_ptr<Schema> build_schema,
    std::vector<const plan::BoundExpr*> build_key_exprs, bool allow_perfect)
    : build_schema_(std::move(build_schema)),
      build_key_exprs_(std::move(build_key_exprs)),
      allow_perfect_(allow_perfect && SingleIntKey(build_key_exprs_)),
      parts_(kPartitions) {}

void RadixJoinTable::SetNumMorsels(size_t n) {
  morsels_.assign(n, MorselBuffers{});
}

Status RadixJoinTable::AddBuildChunk(size_t m, const Chunk& chunk) {
  size_t n = chunk.num_rows();
  if (n == 0) return Status::OK();
  MorselBuffers& buffers = morsels_[m];
  if (buffers.parts.empty()) buffers.parts.resize(kPartitions);

  // Evaluate the key expressions over the whole chunk first.
  std::vector<ColumnVectorPtr> key_cols;
  key_cols.reserve(build_key_exprs_.size());
  for (const plan::BoundExpr* e : build_key_exprs_) {
    HANA_ASSIGN_OR_RETURN(ColumnVectorPtr col, EvalExprColumn(*e, chunk));
    key_cols.push_back(std::move(col));
  }

  // Single int64 key: hash the whole chunk through the CPU-dispatched
  // batch kernel (bit-identical to the HashCell/HashCombine loop —
  // cpu_dispatch verifies that at bind time). Null rows get garbage
  // hashes here; the row loop below drops them before use.
  std::vector<uint64_t> batch_hashes;
  bool single_int = SingleIntKey(build_key_exprs_);
  if (single_int) {
    batch_hashes.resize(n);
    Kernels().hash_i64(key_cols[0]->ints_data(), n, 0x12345,
                       batch_hashes.data());
  }

  for (size_t r = 0; r < n; ++r) {
    uint64_t h;
    if (single_int) {
      if (key_cols[0]->IsNull(r)) {  // NULL never joins.
        buffers.null_key = true;
        continue;
      }
      h = batch_hashes[r];
    } else {
      bool null_key = false;
      size_t acc = 0x12345;
      for (const ColumnVectorPtr& col : key_cols) {
        if (col->IsNull(r)) {
          null_key = true;
          break;
        }
        acc = HashCombine(acc, HashCell(*col, r));
      }
      if (null_key) {  // NULL never joins; row can't ever match.
        buffers.null_key = true;
        continue;
      }
      h = acc;
    }
    MorselBuffers::PartitionBuffer& buf =
        buffers.parts[h >> (64 - kRadixBits)];
    if (buf.payload.columns.empty()) {
      buf.payload = Chunk::Empty(build_schema_);
      buf.key_cols.reserve(key_cols.size());
      for (const ColumnVectorPtr& col : key_cols) {
        buf.key_cols.push_back(std::make_shared<ColumnVector>(col->type()));
      }
    }
    buf.payload.AppendRowFrom(chunk, r);
    for (size_t k = 0; k < key_cols.size(); ++k) {
      buf.key_cols[k]->AppendFrom(*key_cols[k], r);
    }
    buf.hashes.push_back(h);
  }
  return Status::OK();
}

Status RadixJoinTable::FinalizePartition(size_t p) {
  Partition& part = parts_[p];
  size_t rows = 0;
  for (const MorselBuffers& m : morsels_) {
    if (!m.parts.empty()) rows += m.parts[p].hashes.size();
  }
  if (rows > std::numeric_limits<uint32_t>::max()) {
    return Status::Internal("radix join partition exceeds 4G rows");
  }
  part.payload = Chunk::Empty(build_schema_);
  part.hashes.reserve(rows);
  for (const plan::BoundExpr* e : build_key_exprs_) {
    auto col = std::make_shared<ColumnVector>(e->type);
    col->Reserve(rows);
    part.key_cols.push_back(std::move(col));
  }
  // Concatenate morsel buffers in ascending morsel order: the payload
  // row order (and so chain iteration order) is fixed by the morsel
  // decomposition alone, independent of which worker ran which morsel.
  for (MorselBuffers& m : morsels_) {
    if (m.parts.empty()) continue;
    MorselBuffers::PartitionBuffer& buf = m.parts[p];
    size_t buf_rows = buf.hashes.size();
    for (size_t r = 0; r < buf_rows; ++r) {
      part.payload.AppendRowFrom(buf.payload, r);
      for (size_t k = 0; k < part.key_cols.size(); ++k) {
        part.key_cols[k]->AppendFrom(*buf.key_cols[k], r);
      }
    }
    part.hashes.insert(part.hashes.end(), buf.hashes.begin(),
                       buf.hashes.end());
    buf = MorselBuffers::PartitionBuffer{};  // Release staging memory.
  }
  if (rows == 0) return Status::OK();
  // Bucket chains over the low hash bits, inserted in reverse so each
  // chain walks build rows in ascending order. Without keys every row
  // shares the seed hash: one chain holds them all.
  size_t nbuckets =
      build_key_exprs_.empty() ? 1 : NextPow2(std::max<size_t>(rows, 16));
  part.bucket_mask = nbuckets - 1;
  part.heads.assign(nbuckets, 0);
  part.next.assign(rows, 0);
  for (size_t i = rows; i-- > 0;) {
    size_t b = part.hashes[i] & part.bucket_mask;
    part.next[i] = part.heads[b];
    part.heads[b] = static_cast<uint32_t>(i) + 1;
  }
  return Status::OK();
}

bool RadixJoinTable::TryFinalizePerfect() {
  // One serial pass over the staged buffers for the row count and the
  // observed key bounds (keys are non-null by construction: null-key
  // rows were dropped at partition time).
  size_t rows = 0;
  int64_t min = std::numeric_limits<int64_t>::max();
  int64_t max = std::numeric_limits<int64_t>::min();
  for (const MorselBuffers& m : morsels_) {
    if (m.parts.empty()) continue;
    for (const MorselBuffers::PartitionBuffer& buf : m.parts) {
      size_t n = buf.hashes.size();
      if (n == 0) continue;
      const int64_t* v = buf.key_cols[0]->ints_data();
      for (size_t r = 0; r < n; ++r) {
        min = std::min(min, v[r]);
        max = std::max(max, v[r]);
      }
      rows += n;
    }
  }
  if (rows == 0 || rows > std::numeric_limits<uint32_t>::max()) return false;
  uint64_t range = static_cast<uint64_t>(max) - static_cast<uint64_t>(min);
  // Dense-domain gate: the direct heads array may cost at most ~2
  // slots per build row (plus slack so tiny builds with modest gaps
  // still qualify); sparser domains fall back to the radix layout.
  if (range > std::max<uint64_t>(2 * static_cast<uint64_t>(rows), 1024)) {
    return false;
  }

  // Concatenate every staged buffer into partition 0 in (morsel,
  // partition, row) order. All rows of one key share a hash partition,
  // so their relative order here equals the radix chain order
  // (ascending morsel, then staging row) — both layouts emit matches
  // in the same order.
  Partition& part = parts_[0];
  part.payload = Chunk::Empty(build_schema_);
  auto key = std::make_shared<ColumnVector>(build_key_exprs_[0]->type);
  key->Reserve(rows);
  part.hashes.reserve(rows);
  for (MorselBuffers& m : morsels_) {
    if (m.parts.empty()) continue;
    for (MorselBuffers::PartitionBuffer& buf : m.parts) {
      size_t n = buf.hashes.size();
      for (size_t r = 0; r < n; ++r) {
        part.payload.AppendRowFrom(buf.payload, r);
        key->AppendFrom(*buf.key_cols[0], r);
      }
      part.hashes.insert(part.hashes.end(), buf.hashes.begin(),
                         buf.hashes.end());
      buf = MorselBuffers::PartitionBuffer{};  // Release staging memory.
    }
  }
  part.key_cols.push_back(key);

  // Direct-address chains: heads indexed by key - min, inserted in
  // reverse so each chain iterates ascending build rows.
  part.heads.assign(static_cast<size_t>(range) + 1, 0);
  part.next.assign(rows, 0);
  const int64_t* v = key->ints_data();
  for (size_t i = rows; i-- > 0;) {
    size_t idx = static_cast<size_t>(static_cast<uint64_t>(v[i]) -
                                     static_cast<uint64_t>(min));
    part.next[i] = part.heads[idx];
    part.heads[idx] = static_cast<uint32_t>(i) + 1;
  }
  perfect_ = true;
  perfect_min_ = min;
  perfect_range_ = range;
  return true;
}

Status RadixJoinTable::Finalize(TaskPool* pool, size_t dop) {
  for (const MorselBuffers& m : morsels_) {
    build_has_null_key_ = build_has_null_key_ || m.null_key;
  }
  if (allow_perfect_ && TryFinalizePerfect()) {
    build_rows_ = parts_[0].hashes.size();
    morsels_.clear();
    return Status::OK();
  }
  std::vector<Status> statuses(kPartitions);
  // Rows flattened by a partition's worker land in the caller's scope.
  std::vector<uint64_t> flattened(kPartitions, 0);
  auto finalize_one = [&](size_t p) {
    storage::DictFlattenScope scope(&flattened[p]);
    statuses[p] = FinalizePartition(p);
  };
  if (pool != nullptr && dop > 1) {
    pool->ParallelFor(kPartitions, finalize_one, dop);
  } else {
    for (size_t p = 0; p < kPartitions; ++p) finalize_one(p);
  }
  for (uint64_t f : flattened) storage::CountDictFlattenedRows(f);
  for (Status& s : statuses) HANA_RETURN_IF_ERROR(s);
  build_rows_ = 0;
  for (const Partition& part : parts_) build_rows_ += part.hashes.size();
  morsels_.clear();
  return Status::OK();
}

Status RadixJoinTable::ComputeProbeKeys(
    const Chunk& probe,
    const std::vector<const plan::BoundExpr*>& probe_key_exprs,
    ProbeKeys* keys) const {
  size_t n = probe.num_rows();
  keys->hashes.assign(n, 0);
  keys->has_null.assign(n, 0);
  keys->key_cols.clear();
  keys->key_cols.reserve(probe_key_exprs.size());
  for (const plan::BoundExpr* e : probe_key_exprs) {
    HANA_ASSIGN_OR_RETURN(ColumnVectorPtr col, EvalExprColumn(*e, probe));
    keys->key_cols.push_back(std::move(col));
  }
  if (SingleIntKey(probe_key_exprs)) {
    const ColumnVector& col = *keys->key_cols[0];
    const uint8_t* nulls = col.nulls_data();
    for (size_t r = 0; r < n; ++r) keys->has_null[r] = nulls[r];
    // Perfect-mode probes index by key directly — no hashing at all.
    if (!perfect_ && n > 0) {
      Kernels().hash_i64(col.ints_data(), n, 0x12345, keys->hashes.data());
    }
    return Status::OK();
  }
  for (size_t r = 0; r < n; ++r) {
    size_t h = 0x12345;
    for (const ColumnVectorPtr& col : keys->key_cols) {
      if (col->IsNull(r)) {
        keys->has_null[r] = 1;
        break;
      }
      h = HashCombine(h, HashCell(*col, r));
    }
    keys->hashes[r] = h;
  }
  return Status::OK();
}

bool RadixJoinTable::KeysEqual(const Partition& p, uint32_t row,
                               const ProbeKeys& keys, size_t r) {
  for (size_t k = 0; k < p.key_cols.size(); ++k) {
    if (!CellsEqual(*p.key_cols[k], row, *keys.key_cols[k], r)) return false;
  }
  return true;
}

}  // namespace hana::exec
