#ifndef HANA_EXEC_RADIX_JOIN_H_
#define HANA_EXEC_RADIX_JOIN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/task_pool.h"
#include "plan/bound_expr.h"
#include "storage/column_vector.h"

namespace hana::exec {

/// Hash of one non-null cell, reproducing Value::Hash's shape (integers
/// and integral doubles collide, as their comparisons do), so a
/// column-wise key hashes as HashKey hashes its boxed Values. Shared by
/// the radix join and the partitioned aggregation sink.
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
/// Keys live in typed ColumnVectors and are hashed and compared
/// column-wise on the raw arrays. Each equi key has one type on both
/// sides: the pipeline decomposition casts mixed numeric keys to DOUBLE
/// and a NULL-typed side to the other side's type (NewBuild).
///
/// Build rows with a NULL in any key are dropped at partition time:
/// NULL never equals in a join key, and none of the supported kinds
/// (inner/left/semi/anti) ever emits an unmatched build row. The table
/// remembers whether it dropped any, which decides a NOT IN.
///
/// Zero keys (a join with no usable equi key, or a cross join) is the
/// nested-loop join: every build row hashes to the seed, lands in one
/// partition and one bucket chain in (morsel, row) order, and every
/// probe row walks the whole chain; the join condition runs as the
/// residual.
class RadixJoinTable {
 public:
  static constexpr size_t kRadixBits = 6;
  static constexpr size_t kPartitions = size_t{1} << kRadixBits;

  /// `build_key_exprs` index the build child's schema and have the
  /// types of the probe keys they pair with. `allow_perfect` (set by
  /// the optimizer from build-side stats) lets Finalize attempt the
  /// perfect-hash layout: when the single int64 key's observed domain
  /// [min, max] is dense relative to the row count, all build rows go
  /// into one partition whose heads array is indexed directly by
  /// key - min — probing needs no hash and no key comparison. Falls
  /// back to the radix layout at build time when the runtime domain is
  /// too sparse.
  RadixJoinTable(std::shared_ptr<Schema> build_schema,
                 std::vector<const plan::BoundExpr*> build_key_exprs,
                 bool allow_perfect = false);

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
    std::vector<storage::ColumnVectorPtr> key_cols;
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
    std::vector<storage::ColumnVectorPtr> key_cols;
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
      std::vector<uint64_t> hashes;
    };
    std::vector<PartitionBuffer> parts;  // Lazily sized to kPartitions.
    bool null_key = false;  // A row of this morsel had a NULL key.
  };

  static bool KeysEqual(const Partition& p, uint32_t row,
                        const ProbeKeys& keys, size_t r);
  Status FinalizePartition(size_t p);
  /// Attempts the direct-address build from the staged morsel buffers;
  /// returns false (leaving them untouched) when the key shape or the
  /// observed domain disqualifies it.
  bool TryFinalizePerfect();

  std::shared_ptr<Schema> build_schema_;
  std::vector<const plan::BoundExpr*> build_key_exprs_;
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
