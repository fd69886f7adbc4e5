#ifndef HANA_EXEC_RADIX_JOIN_H_
#define HANA_EXEC_RADIX_JOIN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/task_pool.h"
#include "plan/bound_expr.h"
#include "storage/column_vector.h"

namespace hana::exec {

/// Process-wide counters for which implementation joins actually run
/// through, so silent fallbacks off the fast path are observable
/// (tests assert on them; EXPLAIN users can diff before/after).
struct JoinExecStats {
  /// Joins executed by the morsel-parallel radix hash join pipeline.
  // atomic: relaxed counter; observers only need eventual totals.
  std::atomic<uint64_t> radix_hash_joins{0};
  /// Joins that fell off the hash path to a nested-loop join even
  /// though they carried a join condition (no usable equi key).
  // atomic: relaxed counter; observers only need eventual totals.
  std::atomic<uint64_t> nested_loop_fallbacks{0};
  /// Radix joins that used boxed Value keys because the equi-key types
  /// differ across sides (no vectorized column-wise path).
  // atomic: relaxed counter; observers only need eventual totals.
  std::atomic<uint64_t> boxed_key_builds{0};
  /// Builds that took the perfect-hash fast path (dense single-int64
  /// key domain): probes index a direct array — no hashing, no chain
  /// hash/key comparisons.
  // atomic: relaxed counter; observers only need eventual totals.
  std::atomic<uint64_t> perfect_hash_joins{0};
  /// Builds the optimizer nominated for the perfect-hash path that fell
  /// back to radix at build time (runtime key domain too sparse).
  // atomic: relaxed counter; observers only need eventual totals.
  std::atomic<uint64_t> perfect_hash_fallbacks{0};
};

JoinExecStats& GlobalJoinExecStats();
void ResetJoinExecStats();

/// Hash of one non-null cell, reproducing Value::Hash's shape (integers
/// and integral doubles collide, as their comparisons do) so vectorized
/// column-wise key paths hash identically to boxed Value keys. Shared
/// by the radix join and the partitioned aggregation sink.
size_t HashCell(const storage::ColumnVector& col, size_t i);

/// Typed equality of two non-null cells of the same concrete type.
/// Double equality matches Value::Compare on the same type
/// (-0.0 == 0.0).
bool CellsEqual(const storage::ColumnVector& a, size_t i,
                const storage::ColumnVector& b, size_t j);

/// Radix-partitioned hash table for the morsel-parallel hash join.
///
/// Build protocol (lock-free):
///   1. SetNumMorsels(n) — one slot per build morsel.
///   2. AddBuildChunk(m, chunk) — workers partition each build chunk's
///      rows by the top kRadixBits of the key hash into per-morsel,
///      per-partition buffers. Distinct morsel indices touch disjoint
///      state, so concurrent calls for distinct m need no locks.
///   3. Finalize(pool, dop) — per partition (parallelized over
///      partitions), the morsel buffers are concatenated in ascending
///      morsel order and a bucket-chain table is built over the low
///      hash bits. Rows are inserted in reverse so each chain iterates
///      in ascending build-row order.
///
/// Determinism: the morsel decomposition is fixed by the plan, buffers
/// concatenate in morsel order and chains iterate in ascending row
/// order, so the set AND order of matches per probe row is identical
/// at every degree of parallelism (including 1).
///
/// Keys: in vectorized mode (every equi key has the same concrete type
/// on both sides) keys live in typed ColumnVectors and are hashed and
/// compared column-wise on the raw arrays. Otherwise keys are boxed
/// Values using Value::Hash/Compare, which coerce across numeric types.
/// The vectorized cell hash reproduces Value::Hash's shape so both
/// modes agree whenever both are applicable.
///
/// Build rows with a NULL in any key are dropped at partition time:
/// NULL never equals in a join key, and none of the supported kinds
/// (inner/left/semi/anti) ever emits an unmatched build row. The table
/// remembers whether it dropped any, which decides a NOT IN.
class RadixJoinTable {
 public:
  static constexpr size_t kRadixBits = 6;
  static constexpr size_t kPartitions = size_t{1} << kRadixBits;

  /// `build_key_exprs` index the build child's schema; `vectorized`
  /// must come from plan::EquiKeysVectorizable on the join's parts.
  /// `allow_perfect` (set by the optimizer from build-side stats) lets
  /// Finalize attempt the perfect-hash layout: when the single int64
  /// key's observed domain [min, max] is dense relative to the row
  /// count, all build rows go into one partition whose heads array is
  /// indexed directly by key - min — probing needs no hash and no key
  /// comparison. Falls back to the radix layout at build time when the
  /// runtime domain is too sparse.
  RadixJoinTable(std::shared_ptr<Schema> build_schema,
                 std::vector<const plan::BoundExpr*> build_key_exprs,
                 bool vectorized, bool allow_perfect = false);

  bool vectorized() const { return vectorized_; }
  /// Whether Finalize built the direct-address (perfect-hash) layout.
  bool perfect() const { return perfect_; }
  size_t num_build_rows() const { return build_rows_; }
  /// Whether some build row had a NULL key (valid after Finalize).
  bool build_has_null_key() const { return build_has_null_key_; }

  void SetNumMorsels(size_t n);

  /// Partitions one chunk of build morsel m. Thread-safe for distinct
  /// morsel indices; must not be called concurrently for the same m.
  [[nodiscard]] Status AddBuildChunk(size_t m, const storage::Chunk& chunk);

  /// Concatenates morsel buffers and builds the per-partition bucket
  /// chains. ParallelFor over partitions when a pool is granted.
  [[nodiscard]] Status Finalize(TaskPool* pool, size_t dop);

  /// One finalized radix partition.
  struct Partition {
    storage::Chunk payload;  // Build rows, build schema, morsel order.
    std::vector<storage::ColumnVectorPtr> key_cols;  // Vectorized mode.
    std::vector<std::vector<Value>> boxed_keys;      // Boxed mode.
    std::vector<uint64_t> hashes;
    /// Bucket heads / chain links store local row + 1 (0 = end).
    std::vector<uint32_t> heads;
    std::vector<uint32_t> next;
    uint64_t bucket_mask = 0;
  };

  /// Per-worker probe scratch, reused across chunks to avoid
  /// re-allocating key and hash arrays per chunk (one per worker slot;
  /// never shared between concurrent workers).
  struct ProbeKeys {
    std::vector<storage::ColumnVectorPtr> key_cols;  // Vectorized mode.
    std::vector<std::vector<Value>> boxed;           // Boxed, row-major.
    std::vector<uint64_t> hashes;
    std::vector<uint8_t> has_null;  // Any NULL key component in the row.
  };

  /// Evaluates the probe-side key expressions over `probe` and fills
  /// `keys` (hashes + null flags). `probe_key_exprs` index the probe
  /// chunk's schema and must pair up with the build keys.
  [[nodiscard]] Status ComputeProbeKeys(
      const storage::Chunk& probe,
      const std::vector<const plan::BoundExpr*>& probe_key_exprs,
      ProbeKeys* keys) const;

  /// Walks the bucket chain for probe row r, calling fn(partition,
  /// build_row) for every key-equal build row in ascending build-row
  /// order. fn returns false to stop early (semi/anti existence).
  template <typename Fn>
  void ForEachMatch(const ProbeKeys& keys, size_t r, Fn&& fn) const {
    if (keys.has_null[r] != 0) return;
    if (perfect_) {
      // Direct-address probe: every row in chain (key - min) has
      // exactly this key, so no hash or key comparison is needed.
      const Partition& p = parts_[0];
      if (p.heads.empty()) return;
      uint64_t idx = static_cast<uint64_t>(keys.key_cols[0]->GetInt(r)) -
                     static_cast<uint64_t>(perfect_min_);
      if (idx > perfect_range_) return;
      for (uint32_t cur = p.heads[idx]; cur != 0;) {
        uint32_t row = cur - 1;
        cur = p.next[row];
        if (!fn(p, static_cast<size_t>(row))) break;
      }
      return;
    }
    uint64_t h = keys.hashes[r];
    const Partition& p = parts_[h >> (64 - kRadixBits)];
    if (p.heads.empty()) return;
    for (uint32_t cur = p.heads[h & p.bucket_mask]; cur != 0;) {
      uint32_t row = cur - 1;
      cur = p.next[row];
      if (p.hashes[row] != h) continue;
      if (!KeysEqual(p, row, keys, r)) continue;
      if (!fn(p, static_cast<size_t>(row))) break;
    }
  }

 private:
  /// Per-morsel staging buffers, one set of partitions per morsel.
  struct MorselBuffers {
    struct PartitionBuffer {
      storage::Chunk payload;
      std::vector<storage::ColumnVectorPtr> key_cols;
      std::vector<std::vector<Value>> boxed_keys;
      std::vector<uint64_t> hashes;
    };
    std::vector<PartitionBuffer> parts;  // Lazily sized to kPartitions.
    bool null_key = false;  // A row of this morsel had a NULL key.
  };

  bool KeysEqual(const Partition& p, uint32_t row, const ProbeKeys& keys,
                 size_t r) const;
  Status FinalizePartition(size_t p);
  /// Attempts the direct-address build from the staged morsel buffers;
  /// returns false (leaving them untouched) when the key shape or the
  /// observed domain disqualifies it.
  bool TryFinalizePerfect();

  std::shared_ptr<Schema> build_schema_;
  std::vector<const plan::BoundExpr*> build_key_exprs_;
  bool vectorized_;
  bool allow_perfect_ = false;
  bool perfect_ = false;
  int64_t perfect_min_ = 0;
  uint64_t perfect_range_ = 0;  // Inclusive: max key - min key.
  std::vector<MorselBuffers> morsels_;
  std::vector<Partition> parts_;
  size_t build_rows_ = 0;
  bool build_has_null_key_ = false;
};

}  // namespace hana::exec

#endif  // HANA_EXEC_RADIX_JOIN_H_
