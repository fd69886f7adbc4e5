// MVCC commit-timestamp allocation and row-visibility rules.
//
// The transaction layer owns a single monotonically increasing
// commit-timestamp source (VersionManager). Storage stamps every delta
// row with two 64-bit words in table-level stamp stores:
//
//   created — when the row came into existence:
//     0                      never stored (every write is stamped);
//                            reads as committed at time 0.
//     kUncommittedBit | txn  written by in-flight writer `txn`;
//                            visible only to that transaction.
//     kNeverVisible          the writing transaction aborted; the row is
//                            invisible to everyone, forever.
//     ts (plain value)       committed at timestamp ts; visible to reads
//                            at read_ts >= ts.
//
//   deleted — when (if ever) the row was deleted; same encoding, where
//     0 means "not deleted" and kNeverVisible means "deleted for
//     everyone" (used when an aborted creation is folded into the
//     maskless main: the tombstone outlives the stamp's fold boundary).
//
// A reader carries a ReadView {read_ts, txn}: a row is visible iff its
// creation is visible (committed at or before read_ts, or written by the
// reader's own transaction) and its deletion is not. Commit timestamps
// are allocated before stamping and *finished* after every stamp of the
// transaction has been stored, and LastVisible() only advances past a
// timestamp once it is finished — so a new snapshot sees either all of
// a transaction's rows or none (no torn reads across participants).
#ifndef HANA_COMMON_MVCC_H_
#define HANA_COMMON_MVCC_H_

#include <cstdint>
#include <set>

#include "common/sync.h"

namespace hana::mvcc {

using Timestamp = uint64_t;

/// Marker bits in a stamp word. Real timestamps stay below
/// kUncommittedBit, so a stamp with neither bit set is a committed
/// timestamp (or 0, see above).
inline constexpr Timestamp kUncommittedBit = 1ull << 62;
inline constexpr Timestamp kNeverVisible = 1ull << 63;

/// Read timestamp meaning "everything committed", used by latest-view
/// reads that do not care about cross-transaction atomicity and as the
/// "resolve at snapshot open" sentinel in ReadView.
inline constexpr Timestamp kLatest = kUncommittedBit - 1;

constexpr Timestamp MakeUncommitted(uint64_t txn) {
  return kUncommittedBit | txn;
}
constexpr bool IsUncommitted(Timestamp t) {
  return (t & kUncommittedBit) != 0 && (t & kNeverVisible) == 0;
}
constexpr uint64_t TxnOf(Timestamp t) { return t & ~kUncommittedBit; }

/// The reader's position in commit-timestamp order. read_ts == kLatest
/// asks the snapshot-open path to resolve to VersionManager::
/// LastVisible(); txn != 0 additionally exposes that transaction's own
/// uncommitted writes (read-your-own-writes).
struct ReadView {
  Timestamp read_ts = kLatest;
  uint64_t txn = 0;
};

/// Is the row-creation stamp visible under `view`?
constexpr bool CreatedVisible(Timestamp created, const ReadView& view) {
  if ((created & kNeverVisible) != 0) return false;
  if ((created & kUncommittedBit) != 0) {
    return view.txn != 0 && TxnOf(created) == view.txn;
  }
  return created <= view.read_ts;
}

/// Does the row-deletion stamp hide the row under `view`?
constexpr bool DeletedVisible(Timestamp deleted, const ReadView& view) {
  if (deleted == 0) return false;
  if ((deleted & kNeverVisible) != 0) return true;  // deleted for everyone
  if ((deleted & kUncommittedBit) != 0) {
    return view.txn != 0 && TxnOf(deleted) == view.txn;
  }
  return deleted <= view.read_ts;
}

constexpr bool RowVisible(Timestamp created, Timestamp deleted,
                          const ReadView& view) {
  return CreatedVisible(created, view) && !DeletedVisible(deleted, view);
}

/// May a merge fold this creation stamp into the maskless main, given
/// the global watermark (oldest timestamp any live or future reader can
/// hold)? Committed at-or-below the watermark: every reader sees it.
/// Never-visible: no reader sees it (the fold tombstones it). Anything
/// else — uncommitted, or committed past the watermark — must stay in
/// the delta where the visibility mask still applies.
constexpr bool FoldableAt(Timestamp created, Timestamp watermark) {
  if ((created & kNeverVisible) != 0) return true;
  if ((created & kUncommittedBit) != 0) return false;
  return created <= watermark;
}

class VersionManager;

/// RAII registration of an active read snapshot: while alive, the
/// watermark cannot advance past read_ts(), so merges keep every
/// version this reader may still visit. Movable; default-constructed
/// handles are empty (read_ts() == kLatest, nothing registered).
class SnapshotHandle {
 public:
  SnapshotHandle() = default;
  SnapshotHandle(SnapshotHandle&& other) noexcept
      : vm_(other.vm_), ts_(other.ts_) {
    other.vm_ = nullptr;
  }
  SnapshotHandle& operator=(SnapshotHandle&& other) noexcept {
    if (this != &other) {
      Release();
      vm_ = other.vm_;
      ts_ = other.ts_;
      other.vm_ = nullptr;
    }
    return *this;
  }
  SnapshotHandle(const SnapshotHandle&) = delete;
  SnapshotHandle& operator=(const SnapshotHandle&) = delete;
  ~SnapshotHandle() { Release(); }

  /// Deregisters from the watermark registry; no-op if empty.
  void Release();

  Timestamp read_ts() const { return ts_; }
  bool active() const { return vm_ != nullptr; }

 private:
  friend class VersionManager;
  SnapshotHandle(VersionManager* vm, Timestamp ts) : vm_(vm), ts_(ts) {}

  VersionManager* vm_ = nullptr;
  Timestamp ts_ = kLatest;
};

/// The commit-timestamp source and active-snapshot registry. One
/// per database (Global()); tests may instantiate their own.
///
/// Commit protocol: AllocateCommit() hands out the next timestamp and
/// records it in-flight; the caller stores it into every row stamp it
/// owns and then calls FinishCommit(). LastVisible() is the largest
/// timestamp T such that every allocation <= T has finished — the only
/// safe default read timestamp (reading at "latest allocated" could
/// observe half of an in-flight transaction).
class VersionManager {
 public:
  VersionManager() = default;
  VersionManager(const VersionManager&) = delete;
  VersionManager& operator=(const VersionManager&) = delete;

  /// Allocates the next commit timestamp and marks it in-flight.
  Timestamp AllocateCommit();

  /// Marks `ts` durable-and-stamped; idempotent. LastVisible() advances
  /// once no smaller allocation remains in flight. Aborted transactions
  /// that already allocated a timestamp must also finish it (with no
  /// rows stamped) so the visibility horizon is not wedged.
  void FinishCommit(Timestamp ts);

  /// Largest timestamp with no unfinished allocation at or below it.
  Timestamp LastVisible() const;

  /// Hands out a fresh writer id (the `txn` of uncommitted stamps).
  /// Statements, loads and coordinator transactions all draw here, so
  /// no two writers on tables of one manager share an id.
  uint64_t NewWriterId();

  /// Registers a read snapshot at LastVisible(). While the returned
  /// handle is alive, Watermark() will not advance past its read_ts.
  SnapshotHandle AcquireSnapshot();

  /// Oldest timestamp any live reader may hold: min over registered
  /// snapshots, capped at LastVisible(). Merges may fold (and GC)
  /// versions committed at or before this.
  Timestamp Watermark() const;

  /// Registered snapshot count (introspection for tests).
  size_t ActiveSnapshots() const;

  /// The process-wide instance used by the platform layer.
  static VersionManager& Global();

 private:
  friend class SnapshotHandle;
  void ReleaseSnapshot(Timestamp ts);

  mutable Mutex mu_{"mvcc.version", lock_rank::kMvccVersion};
  Timestamp next_ GUARDED_BY(mu_) = 1;
  uint64_t next_writer_ GUARDED_BY(mu_) = 1;
  Timestamp last_visible_ GUARDED_BY(mu_) = 0;
  std::set<Timestamp> inflight_ GUARDED_BY(mu_);
  std::multiset<Timestamp> snapshots_ GUARDED_BY(mu_);
};

}  // namespace hana::mvcc

#endif  // HANA_COMMON_MVCC_H_
