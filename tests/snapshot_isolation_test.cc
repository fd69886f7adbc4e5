// MVCC snapshot-isolation unit suite: the visibility matrix
// (uncommitted / committed / aborted x before / after the snapshot),
// repeatable reads within one snapshot, read-your-own-writes,
// write-write conflict detection, merge-under-active-reader version
// retention, garbage collection after the last reader releases, and the
// platform auto-merge path honoring the watermark.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/mvcc.h"
#include "platform/platform.h"
#include "storage/column_table.h"
#include "txn/participants.h"

namespace hana::storage {
namespace {

std::shared_ptr<Schema> TestSchema() {
  return std::make_shared<Schema>(std::vector<ColumnDef>{
      {"id", DataType::kInt64, false}, {"v", DataType::kString, true}});
}

std::vector<Value> Row(int64_t id) {
  return {Value::Int(id), Value::String("v" + std::to_string(id))};
}

// Visible ids under `view`, computed two independent ways — the
// per-row IsVisible predicate and the vectorized-mask Scan path — and
// cross-checked. Any divergence between the mask and the row predicate
// is a bug in BuildVisibilityMask.
std::multiset<int64_t> VisibleIds(const ColumnTable& table,
                                  mvcc::ReadView view = {}) {
  std::shared_ptr<const TableReadSnapshot> snap = table.OpenSnapshot(view);
  std::multiset<int64_t> by_row;
  for (size_t r = 0; r < snap->num_rows(); ++r) {
    if (snap->IsVisible(r)) by_row.insert(snap->GetCell(r, 0).AsInt());
  }
  std::multiset<int64_t> by_scan;
  snap->Scan(256, [&](const Chunk& chunk) {
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      by_scan.insert(chunk.Row(r)[0].AsInt());
    }
    return true;
  });
  EXPECT_EQ(by_row, by_scan) << "mask scan disagrees with IsVisible";
  return by_row;
}

std::multiset<int64_t> Ids(std::initializer_list<int64_t> ids) {
  return std::multiset<int64_t>(ids);
}

class SnapshotIsolationTest : public ::testing::Test {
 protected:
  SnapshotIsolationTest() : table_(TestSchema()) {
    table_.SetVersionManager(&vm_);
  }

  // Commits `rows` as one transaction; returns its commit timestamp.
  mvcc::Timestamp CommitRows(const std::vector<std::vector<Value>>& rows,
                             uint64_t txn) {
    auto handle = table_.AppendRowsUncommitted(rows, txn);
    EXPECT_TRUE(handle.ok()) << handle.status().ToString();
    mvcc::Timestamp ts = vm_.AllocateCommit();
    table_.CommitAppend(*handle, ts);
    vm_.FinishCommit(ts);
    return ts;
  }

  // Transactionally deletes one row; returns the delete's commit ts.
  mvcc::Timestamp CommitDeleteRow(size_t row, uint64_t txn) {
    EXPECT_TRUE(table_.StageDeleteUncommitted(row, txn).ok());
    mvcc::Timestamp ts = vm_.AllocateCommit();
    table_.CommitDelete(row, ts);
    vm_.FinishCommit(ts);
    return ts;
  }

  mvcc::VersionManager vm_;
  ColumnTable table_;
};

// ---------------------------------------------------------------------
// The visibility matrix.
// ---------------------------------------------------------------------

TEST_F(SnapshotIsolationTest, UncommittedRowsInvisibleExceptToWriter) {
  auto handle = table_.AppendRowsUncommitted({Row(1), Row(2)}, /*txn=*/7);
  ASSERT_TRUE(handle.ok());

  EXPECT_EQ(VisibleIds(table_), Ids({}));  // Fresh snapshot: nothing.
  // The writing transaction reads its own uncommitted rows.
  EXPECT_EQ(VisibleIds(table_, {vm_.LastVisible(), /*txn=*/7}), Ids({1, 2}));
  // A different transaction does not.
  EXPECT_EQ(VisibleIds(table_, {vm_.LastVisible(), /*txn=*/8}), Ids({}));
  EXPECT_EQ(table_.live_rows(), 0u);
}

TEST_F(SnapshotIsolationTest, CommitFlipsVisibilityAtomically) {
  auto handle = table_.AppendRowsUncommitted({Row(1), Row(2)}, /*txn=*/7);
  ASSERT_TRUE(handle.ok());

  // Snapshot opened before the commit: pinned to the pre-commit
  // timestamp; the commit must never leak into it.
  std::shared_ptr<const TableReadSnapshot> before = table_.OpenSnapshot();

  mvcc::Timestamp ts = vm_.AllocateCommit();
  table_.CommitAppend(*handle, ts);
  vm_.FinishCommit(ts);

  size_t visible_before = 0;
  for (size_t r = 0; r < before->num_rows(); ++r) {
    visible_before += before->IsVisible(r);
  }
  EXPECT_EQ(visible_before, 0u);               // Before-snapshot: none.
  EXPECT_EQ(VisibleIds(table_), Ids({1, 2}));  // After-snapshot: all.
  EXPECT_EQ(table_.live_rows(), 2u);
}

TEST_F(SnapshotIsolationTest, AbortedRowsInvisibleForever) {
  auto handle = table_.AppendRowsUncommitted({Row(1)}, /*txn=*/7);
  ASSERT_TRUE(handle.ok());
  table_.AbortAppend(*handle);

  EXPECT_EQ(VisibleIds(table_), Ids({}));
  // Even the writing transaction no longer sees them.
  EXPECT_EQ(VisibleIds(table_, {vm_.LastVisible(), /*txn=*/7}), Ids({}));
  // And no future snapshot ever will, however late it reads.
  EXPECT_EQ(VisibleIds(table_, {mvcc::kLatest, 0}), Ids({}));
  // The row stays positionally addressable (row ids never shift).
  EXPECT_EQ(table_.num_rows(), 1u);
  EXPECT_EQ(table_.live_rows(), 0u);
}

TEST_F(SnapshotIsolationTest, CommittedDeleteRespectsSnapshotBoundary) {
  mvcc::Timestamp t_insert = CommitRows({Row(1), Row(2)}, /*txn=*/7);
  mvcc::Timestamp t_read = vm_.LastVisible();
  ASSERT_GE(t_read, t_insert);

  CommitDeleteRow(/*row=*/0, /*txn=*/8);

  // A reader positioned before the delete still sees the row; a reader
  // after it does not.
  EXPECT_EQ(VisibleIds(table_, {t_read, 0}), Ids({1, 2}));
  EXPECT_EQ(VisibleIds(table_), Ids({2}));
}

// ---------------------------------------------------------------------
// Repeatable read: one snapshot, many lookups, one answer.
// ---------------------------------------------------------------------

TEST_F(SnapshotIsolationTest, RepeatableReadWithinOneSnapshot) {
  CommitRows({Row(1), Row(2), Row(3)}, /*txn=*/1);
  mvcc::ReadView view{vm_.LastVisible(), 0};
  std::multiset<int64_t> first = VisibleIds(table_, view);
  EXPECT_EQ(first, Ids({1, 2, 3}));

  // Concurrent history: an insert and a delete commit after the
  // snapshot was positioned.
  CommitRows({Row(4)}, /*txn=*/2);
  CommitDeleteRow(/*row=*/0, /*txn=*/3);

  // Re-reading at the same view gives byte-identical results.
  EXPECT_EQ(VisibleIds(table_, view), first);
  EXPECT_EQ(VisibleIds(table_, view), first);
  // While a freshly positioned reader sees the new history.
  EXPECT_EQ(VisibleIds(table_), Ids({2, 3, 4}));
}

// ---------------------------------------------------------------------
// Read-your-own-writes without write skew leakage to other readers.
// ---------------------------------------------------------------------

TEST_F(SnapshotIsolationTest, ReadYourOwnWrites) {
  CommitRows({Row(1), Row(2)}, /*txn=*/1);
  const uint64_t txn = 9;

  auto handle = table_.AppendRowsUncommitted({Row(3)}, txn);
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(table_.StageDeleteUncommitted(/*row=*/0, txn).ok());

  // The writer sees its insert and its delete applied...
  EXPECT_EQ(VisibleIds(table_, {vm_.LastVisible(), txn}), Ids({2, 3}));
  // ...while everyone else sees the committed state untouched.
  EXPECT_EQ(VisibleIds(table_), Ids({1, 2}));

  // Abort undoes both, for the writer too.
  table_.AbortAppend(*handle);
  table_.AbortDelete(/*row=*/0, txn);
  EXPECT_EQ(VisibleIds(table_, {vm_.LastVisible(), txn}), Ids({1, 2}));
  EXPECT_EQ(VisibleIds(table_), Ids({1, 2}));
}

// ---------------------------------------------------------------------
// Write-write conflicts: first claimer wins.
// ---------------------------------------------------------------------

TEST_F(SnapshotIsolationTest, DeleteClaimConflictsDetected) {
  CommitRows({Row(1)}, /*txn=*/1);

  ASSERT_TRUE(table_.StageDeleteUncommitted(0, /*txn=*/2).ok());
  Status conflict = table_.StageDeleteUncommitted(0, /*txn=*/3);
  EXPECT_EQ(conflict.code(), StatusCode::kTransactionAborted);
  // Re-claiming by the holder is idempotent, not a conflict.
  EXPECT_TRUE(table_.StageDeleteUncommitted(0, /*txn=*/2).ok());

  mvcc::Timestamp ts = vm_.AllocateCommit();
  table_.CommitDelete(0, ts);
  vm_.FinishCommit(ts);
  EXPECT_EQ(VisibleIds(table_), Ids({}));

  // A claim on an already-deleted row is also a conflict.
  EXPECT_EQ(table_.StageDeleteUncommitted(0, /*txn=*/4).code(),
            StatusCode::kTransactionAborted);
}

// ---------------------------------------------------------------------
// Torn-read prevention at the version manager.
// ---------------------------------------------------------------------

TEST(VersionManagerTest, LastVisibleWaitsForSlowestInFlightCommit) {
  mvcc::VersionManager vm;
  mvcc::Timestamp t1 = vm.AllocateCommit();
  mvcc::Timestamp t2 = vm.AllocateCommit();
  ASSERT_LT(t1, t2);

  // t2 finishes first: readers must still not advance past the
  // unfinished t1 — half of t1's write set could otherwise be read.
  vm.FinishCommit(t2);
  EXPECT_LT(vm.LastVisible(), t1);

  vm.FinishCommit(t1);
  EXPECT_EQ(vm.LastVisible(), t2);
  // FinishCommit is idempotent.
  vm.FinishCommit(t1);
  EXPECT_EQ(vm.LastVisible(), t2);
}

TEST(VersionManagerTest, WatermarkTracksOldestActiveSnapshot) {
  mvcc::VersionManager vm;
  mvcc::Timestamp t1 = vm.AllocateCommit();
  vm.FinishCommit(t1);

  mvcc::SnapshotHandle oldest = vm.AcquireSnapshot();
  EXPECT_EQ(oldest.read_ts(), t1);
  EXPECT_EQ(vm.ActiveSnapshots(), 1u);

  mvcc::Timestamp t2 = vm.AllocateCommit();
  vm.FinishCommit(t2);
  mvcc::SnapshotHandle newer = vm.AcquireSnapshot();
  EXPECT_EQ(newer.read_ts(), t2);

  // The watermark is pinned by the oldest registered reader.
  EXPECT_EQ(vm.Watermark(), t1);
  oldest.Release();
  EXPECT_EQ(vm.Watermark(), t2);
  newer.Release();
  EXPECT_EQ(vm.ActiveSnapshots(), 0u);
  EXPECT_EQ(vm.Watermark(), vm.LastVisible());
}

// ---------------------------------------------------------------------
// Merge under an active reader: retention, then GC after release.
// ---------------------------------------------------------------------

TEST_F(SnapshotIsolationTest, MergeRetainsVersionsForActiveReader) {
  CommitRows({Row(1), Row(2), Row(3), Row(4)}, /*txn=*/1);

  // A long-running reader pins the watermark at the current horizon.
  mvcc::SnapshotHandle reader = vm_.AcquireSnapshot();
  mvcc::ReadView reader_view{reader.read_ts(), 0};
  std::shared_ptr<const TableReadSnapshot> pinned =
      table_.OpenSnapshot(reader_view);

  // History moves on past the reader: new rows and a delete commit.
  CommitRows({Row(5), Row(6)}, /*txn=*/2);
  CommitDeleteRow(/*row=*/0, /*txn=*/3);

  ASSERT_TRUE(table_.MergeDelta().ok());

  // The merge folded the settled prefix but kept every version the
  // reader may still need: rows committed past the watermark stay in
  // the delta.
  EXPECT_GE(table_.merge_stats().rows_retained_by_watermark.load(), 2u);
  EXPECT_GE(table_.delta_rows(), 2u);

  // The reader's answers are unchanged by the merge — both through its
  // pinned pre-merge snapshot and through a fresh snapshot at its
  // timestamp (row 1's deletion committed after the reader, so it
  // still sees the old version).
  size_t pinned_visible = 0;
  for (size_t r = 0; r < pinned->num_rows(); ++r) {
    pinned_visible += pinned->IsVisible(r);
  }
  EXPECT_EQ(pinned_visible, 4u);
  EXPECT_EQ(VisibleIds(table_, reader_view), Ids({1, 2, 3, 4}));
  // Latest readers see the post-delete, post-insert state.
  EXPECT_EQ(VisibleIds(table_), Ids({2, 3, 4, 5, 6}));

  // Release the reader: the watermark advances, and the next merge
  // folds (garbage-collects) the retained versions.
  pinned.reset();
  reader.Release();
  ASSERT_TRUE(table_.MergeDelta().ok());
  EXPECT_EQ(table_.delta_rows(), 0u);
  EXPECT_EQ(VisibleIds(table_), Ids({2, 3, 4, 5, 6}));
  // The superseded version of row 1 is gone for good: even a reader
  // claiming the old timestamp now finds the tombstone.
  EXPECT_TRUE(table_.IsDeleted(0));
}

TEST_F(SnapshotIsolationTest, MergeTombstonesAbortedRows) {
  auto doomed = table_.AppendRowsUncommitted({Row(99)}, /*txn=*/5);
  ASSERT_TRUE(doomed.ok());
  table_.AbortAppend(*doomed);
  CommitRows({Row(1)}, /*txn=*/6);

  ASSERT_TRUE(table_.MergeDelta().ok());
  EXPECT_EQ(table_.delta_rows(), 0u);  // Aborted rows fold away too.
  EXPECT_EQ(VisibleIds(table_), Ids({1}));
  // The folded aborted row is tombstoned, not resurrected.
  EXPECT_FALSE(table_.IsVisibleLatest(0));
  EXPECT_EQ(table_.live_rows(), 1u);
}

TEST_F(SnapshotIsolationTest, UncommittedRowsNeverFold) {
  CommitRows({Row(1), Row(2)}, /*txn=*/1);
  auto inflight = table_.AppendRowsUncommitted({Row(3)}, /*txn=*/2);
  ASSERT_TRUE(inflight.ok());

  ASSERT_TRUE(table_.MergeDelta().ok());
  // The in-flight row must stay in the delta where its stamp is live.
  EXPECT_GE(table_.delta_rows(), 1u);
  EXPECT_GE(table_.merge_stats().rows_retained_by_watermark.load(), 1u);

  // Committing after the merge still flips it visible atomically.
  mvcc::Timestamp ts = vm_.AllocateCommit();
  table_.CommitAppend(*inflight, ts);
  vm_.FinishCommit(ts);
  EXPECT_EQ(VisibleIds(table_), Ids({1, 2, 3}));
}

// ---------------------------------------------------------------------
// The vectorized visibility mask agrees with the row predicate on a
// large mixed population (exercises whole-block fast paths and
// mask-dirty blocks across chunk boundaries).
// ---------------------------------------------------------------------

TEST_F(SnapshotIsolationTest, MaskedScanMatchesRowChecksAtScale) {
  constexpr int kRows = 3000;
  std::multiset<int64_t> expected;
  for (int i = 0; i < kRows; i += 3) {
    // One committed, one aborted, one uncommitted row per stride.
    CommitRows({Row(i)}, /*txn=*/100 + i);
    expected.insert(i);
    auto aborted = table_.AppendRowsUncommitted({Row(i + 1)}, 200 + i);
    ASSERT_TRUE(aborted.ok());
    table_.AbortAppend(*aborted);
    ASSERT_TRUE(table_.AppendRowsUncommitted({Row(i + 2)}, 300 + i).ok());
  }
  // Delete every 30th committed row.
  std::shared_ptr<const TableReadSnapshot> latest = table_.OpenSnapshot();
  size_t deleted = 0;
  for (size_t r = 0; r < latest->num_rows(); r += 30) {
    if (!latest->IsVisible(r)) continue;
    int64_t id = latest->GetCell(r, 0).AsInt();
    CommitDeleteRow(r, /*txn=*/5000 + r);
    expected.erase(expected.find(id));
    ++deleted;
  }
  ASSERT_GT(deleted, 0u);

  // VisibleIds cross-checks Scan against IsVisible internally.
  EXPECT_EQ(VisibleIds(table_), expected);

  // ScanRange over arbitrary slices reassembles to the same answer.
  std::multiset<int64_t> sliced;
  size_t n = table_.num_rows();
  for (size_t begin = 0; begin < n; begin += 777) {
    table_.ScanRange(begin, std::min(n, begin + 777), 256,
                     [&](const Chunk& chunk) {
                       for (size_t r = 0; r < chunk.num_rows(); ++r) {
                         sliced.insert(chunk.Row(r)[0].AsInt());
                       }
                       return true;
                     });
  }
  EXPECT_EQ(sliced, expected);

  // And the answer survives a merge (still under the same population).
  ASSERT_TRUE(table_.MergeDelta().ok());
  EXPECT_EQ(VisibleIds(table_), expected);
}

}  // namespace
}  // namespace hana::storage

// ---------------------------------------------------------------------
// The platform's merge_threshold_rows auto-merge goes through the same
// watermark gate as explicit MERGE DELTA: an active statement lease
// keeps transactional versions out of the fold.
// ---------------------------------------------------------------------

namespace hana::platform {
namespace {

TEST(AutoMergeWatermark, AutoMergeRetainsVersionsForActiveLease) {
  Platform db;
  ASSERT_TRUE(db.Run("CREATE COLUMN TABLE t (id BIGINT, v VARCHAR)").ok());
  catalog::TableEntry* entry = *db.catalog().GetTable("t");
  storage::ColumnTable* table = entry->column_table.get();

  // A reader lease pinned before the transactional inserts: the global
  // watermark stays below their commit timestamps.
  mvcc::SnapshotHandle lease =
      mvcc::VersionManager::Global().AcquireSnapshot();

  // Commit 6 rows through the coordinator (commit-timestamped
  // versions above the lease, like every SQL INSERT after it).
  txn::ColumnTableParticipant part("t.part", table);
  txn::TwoPhaseCoordinator& coord = db.coordinator();
  txn::TxnId txn = coord.Begin();
  ASSERT_TRUE(coord.Enlist(txn, &part).ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        part.StageInsert(txn, {Value::Int(i), Value::String("w")}).ok());
  }
  ASSERT_TRUE(coord.Commit(txn).ok());

  // Trip the auto-merge with a plain INSERT. The settled prefix is
  // empty (the leased transactional versions sit at the head of the
  // delta), so the watermark turns the whole auto-merge into a no-op:
  // nothing folds, nothing is counted as a completed merge.
  ASSERT_TRUE(db.SetParameter("merge_threshold_rows", "4").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (100, 'x')").ok());
  EXPECT_EQ(table->merge_stats().merges_completed.load(), 0u);
  EXPECT_EQ(table->delta_rows(), 7u);
  EXPECT_GE(table->merge_stats().rows_retained_by_watermark.load(), 6u);

  // Queries still see everything (7 rows) while the lease is held.
  auto count = db.Query("SELECT COUNT(*) AS c FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->row(0)[0].AsInt(), 7);

  // Release the lease: the next tripped auto-merge folds everything.
  lease.Release();
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (101, 'y')").ok());
  EXPECT_EQ(table->merge_stats().merges_completed.load(), 1u);
  EXPECT_EQ(table->delta_rows(), 0u);
  count = db.Query("SELECT COUNT(*) AS c FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->row(0)[0].AsInt(), 8);
}

}  // namespace
}  // namespace hana::platform
