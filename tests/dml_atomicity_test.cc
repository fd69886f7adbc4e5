// SQL DML atomicity through Platform::Execute (ctest labels: txn,
// concurrency). A column-table statement stages every hot change under
// one writer id and commits it at one timestamp, or aborts all of it:
// a failing INSERT, UPDATE or DELETE changes no row, snapshots see a
// statement whole or not at all, and a row claimed by an in-flight
// coordinator transaction fails the statement (or RunAging) instead of
// being half-applied. A ROW TABLE is a column table and takes the same
// path; concurrent statements on it see each other whole. A flexible
// table widens its schema only for an INSERT that succeeds. Every case
// runs at threads 1 and 4.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/mvcc.h"
#include "platform/platform.h"
#include "txn/participants.h"

namespace hana::platform {
namespace {

class DmlAtomicityTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.SetParameter("threads", GetParam()).ok());
  }

  /// The rows of `select`, one "v1|v2|..." line each, in result order.
  std::string Dump(const std::string& select) {
    auto result = db_.Query(select);
    EXPECT_TRUE(result.ok()) << select << ": " << result.status().ToString();
    if (!result.ok()) return "<error>";
    std::string out;
    for (size_t r = 0; r < result->num_rows(); ++r) {
      for (const Value& v : result->row(r)) out += v.ToString() + "|";
      out += "\n";
    }
    return out;
  }

  /// Values of column 0 visible to a snapshot of `table` at `view`.
  static std::vector<int64_t> VisibleKeys(const storage::ColumnTable& table,
                                          mvcc::ReadView view = {}) {
    std::vector<int64_t> keys;
    auto snapshot = table.OpenSnapshot(view);
    for (size_t r = 0; r < snapshot->num_rows(); ++r) {
      if (snapshot->IsVisible(r)) {
        keys.push_back(snapshot->GetCell(r, 0).AsInt());
      }
    }
    return keys;
  }

  /// The latest-view row of `table` whose column 0 equals `key`.
  static size_t RowOf(const storage::ColumnTable& table, int64_t key) {
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (table.IsVisibleLatest(r) && table.GetCell(r, 0).AsInt() == key) {
        return r;
      }
    }
    ADD_FAILURE() << "no live row with key " << key;
    return 0;
  }

  void CreateT() {
    ASSERT_TRUE(
        db_.Run("CREATE COLUMN TABLE t (a BIGINT NOT NULL, b VARCHAR)").ok());
  }

  storage::ColumnTable* T() {
    return (*db_.catalog().GetTable("t"))->column_table.get();
  }

  void CreateH() {
    ASSERT_TRUE(db_.Run(R"(
        CREATE TABLE h (k BIGINT NOT NULL, v BIGINT NOT NULL)
          USING HYBRID EXTENDED STORAGE
          PARTITION BY RANGE (k)
            (PARTITION VALUES < 100 COLD, PARTITION VALUES < 200 HOT,
             PARTITION OTHERS HOT))")
                    .ok());
    ASSERT_TRUE(db_.Execute("INSERT INTO h VALUES (150, 1), (160, 1), "
                            "(250, 2), (5, 3)")
                    .ok());
  }

  Platform db_;
};

TEST_P(DmlAtomicityTest, ColumnInsertWithNotNullViolationInsertsNothing) {
  CreateT();
  auto insert = db_.Execute("INSERT INTO t VALUES (1, 'x'), (NULL, 'y')");
  ASSERT_FALSE(insert.ok());
  EXPECT_NE(insert.status().message().find("NOT NULL"), std::string::npos)
      << insert.status().ToString();
  EXPECT_EQ(Dump("SELECT a, b FROM t"), "");
  EXPECT_EQ(T()->live_rows(), 0u);
}

TEST_P(DmlAtomicityTest, ColumnUpdateToNullKeepsTheRow) {
  CreateT();
  ASSERT_TRUE(
      db_.Execute("INSERT INTO t VALUES (1, 'x'), (2, 'z'), (3, 'w')").ok());
  const std::string before = Dump("SELECT a, b FROM t ORDER BY a");
  EXPECT_FALSE(db_.Execute("UPDATE t SET a = NULL WHERE b = 'w'").ok());
  EXPECT_EQ(Dump("SELECT a, b FROM t ORDER BY a"), before);
  EXPECT_EQ(T()->live_rows(), 3u);
}

TEST_P(DmlAtomicityTest, ColumnUpdateFailingOnSomeImagesChangesNoRow) {
  CreateT();
  ASSERT_TRUE(
      db_.Execute("INSERT INTO t VALUES (1, 'x'), (2, 'z'), (3, 'w')").ok());
  const std::string before = Dump("SELECT a, b FROM t ORDER BY a");
  EXPECT_FALSE(
      db_.Execute("UPDATE t SET a = CASE WHEN a = 2 THEN 20 ELSE NULL END")
          .ok());
  EXPECT_EQ(Dump("SELECT a, b FROM t ORDER BY a"), before);
}

TEST_P(DmlAtomicityTest, HybridInsertWithNotNullViolationAddsNoRow) {
  CreateH();
  const std::string before = Dump("SELECT k, v FROM h ORDER BY k");
  EXPECT_FALSE(
      db_.Execute("INSERT INTO h VALUES (170, 1), (260, NULL)").ok());
  EXPECT_EQ(Dump("SELECT k, v FROM h ORDER BY k"), before);
}

TEST_P(DmlAtomicityTest, HybridUpdateAcrossHotPartitionsIsAllOrNothing) {
  CreateH();
  const std::string before = Dump("SELECT k, v FROM h ORDER BY k");
  EXPECT_FALSE(db_.Execute("UPDATE h SET v = CASE WHEN k = 150 THEN 10 "
                           "ELSE NULL END WHERE k > 100")
                   .ok());
  EXPECT_EQ(Dump("SELECT k, v FROM h ORDER BY k"), before);
  EXPECT_EQ(Dump("SELECT k, v FROM h WHERE k > 100 ORDER BY k"),
            "150|1|\n160|1|\n250|2|\n");
}

TEST_P(DmlAtomicityTest, SnapshotsSeeAStatementWholeAtOneTimestamp) {
  CreateT();
  ASSERT_TRUE(
      db_.Execute("INSERT INTO t VALUES (1, 'x'), (2, 'z'), (3, 'w')").ok());
  mvcc::VersionManager* vm = T()->version_manager();
  for (const char* sql : {"INSERT INTO t VALUES (4, 'v'), (5, 'v'), (6, 'v')",
                          "UPDATE t SET a = a + 10 WHERE a >= 2",
                          "DELETE FROM t WHERE a > 13"}) {
    const mvcc::Timestamp ts_before = vm->LastVisible();
    const std::vector<int64_t> keys_before = VisibleKeys(*T());
    auto before = T()->OpenSnapshot();
    ASSERT_TRUE(db_.Execute(sql).ok()) << sql;
    // One commit: every row the statement inserts or deletes carries
    // the one timestamp right after the snapshot's.
    const mvcc::Timestamp ts_after = vm->LastVisible();
    EXPECT_EQ(ts_after, ts_before + 1) << sql;
    // The snapshot opened before sees none of the statement...
    size_t old_view = 0;
    for (size_t r = 0; r < before->num_rows(); ++r) {
      old_view += before->IsVisible(r);
    }
    EXPECT_EQ(old_view, keys_before.size()) << sql;
    EXPECT_EQ(VisibleKeys(*T(), {ts_before, 0}), keys_before) << sql;
    // ...and one opened after sees all of it.
    EXPECT_EQ(VisibleKeys(*T()), VisibleKeys(*T(), {ts_after, 0})) << sql;
  }
  EXPECT_EQ(Dump("SELECT a FROM t ORDER BY a"), "1|\n12|\n13|\n");
}

TEST_P(DmlAtomicityTest, DeleteOfARowClaimedByACoordinatorTxnFails) {
  CreateT();
  ASSERT_TRUE(
      db_.Execute("INSERT INTO t VALUES (1, 'x'), (2, 'z'), (3, 'w')").ok());
  const std::string before = Dump("SELECT a, b FROM t ORDER BY a");
  // An in-flight transaction claims row a = 2 (prepared, not resolved).
  txn::ColumnTableParticipant part("t.part", T());
  txn::TwoPhaseCoordinator& coord = db_.coordinator();
  txn::TxnId txn = coord.Begin();
  ASSERT_TRUE(coord.Enlist(txn, &part).ok());
  ASSERT_TRUE(part.StageDelete(txn, RowOf(*T(), 2)).ok());
  ASSERT_TRUE(part.Prepare(txn).ok());

  auto del = db_.Execute("DELETE FROM t WHERE a >= 2");
  ASSERT_FALSE(del.ok());
  EXPECT_EQ(del.status().code(), StatusCode::kTransactionAborted)
      << del.status().ToString();
  EXPECT_EQ(Dump("SELECT a, b FROM t ORDER BY a"), before);
  // Neither row moved: a = 3, staged before the conflict or after it,
  // was released with the statement.
  EXPECT_EQ(T()->live_rows(), 3u);

  // Once the transaction aborts, the same statement goes through.
  ASSERT_TRUE(coord.Abort(txn).ok());
  ASSERT_TRUE(db_.Execute("DELETE FROM t WHERE a >= 2").ok());
  EXPECT_EQ(Dump("SELECT a, b FROM t ORDER BY a"), "1|x|\n");
}

TEST_P(DmlAtomicityTest, AgingOfARowClaimedByACoordinatorTxnCopiesNothing) {
  CreateH();
  // Move 150 and 160 out of their hot range: the rows stay hot until
  // RunAging copies them to the cold partition.
  ASSERT_TRUE(
      db_.Execute("UPDATE h SET k = k - 100 WHERE k > 100 AND k < 200").ok());
  catalog::TableEntry* entry = *db_.catalog().GetTable("h");
  storage::ColumnTable* hot = entry->partitions[1].hot.get();
  auto cold = db_.iq()->store()->GetTable(entry->partitions[0].cold_table);
  ASSERT_TRUE(cold.ok());
  const size_t cold_before = (*cold)->live_rows();
  const std::string before = Dump("SELECT k, v FROM h ORDER BY k");

  txn::ColumnTableParticipant part("h.hot", hot);
  txn::TwoPhaseCoordinator& coord = db_.coordinator();
  txn::TxnId txn = coord.Begin();
  ASSERT_TRUE(coord.Enlist(txn, &part).ok());
  ASSERT_TRUE(part.StageDelete(txn, RowOf(*hot, 60)).ok());
  ASSERT_TRUE(part.Prepare(txn).ok());

  auto moved = db_.catalog().RunAging("h");
  ASSERT_FALSE(moved.ok());
  EXPECT_EQ(moved.status().code(), StatusCode::kTransactionAborted);
  EXPECT_EQ((*cold)->live_rows(), cold_before);
  EXPECT_EQ(hot->live_rows(), 2u);
  EXPECT_EQ(Dump("SELECT k, v FROM h ORDER BY k"), before);

  ASSERT_TRUE(coord.Abort(txn).ok());
  moved = db_.catalog().RunAging("h");
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_EQ(*moved, 2u);
  EXPECT_EQ((*cold)->live_rows(), cold_before + 2);
  EXPECT_EQ(Dump("SELECT k, v FROM h ORDER BY k"), before);
}

TEST_P(DmlAtomicityTest, RowTableChecksEveryRowBeforeTheFirstWrite) {
  ASSERT_TRUE(
      db_.Run("CREATE ROW TABLE r (a BIGINT NOT NULL, b VARCHAR)").ok());
  EXPECT_FALSE(db_.Execute("INSERT INTO r VALUES (1, 'x'), (NULL, 'y')").ok());
  EXPECT_EQ(Dump("SELECT a, b FROM r"), "");

  ASSERT_TRUE(
      db_.Execute("INSERT INTO r VALUES (1, 'x'), (2, 'y'), (3, 'z')").ok());
  const std::string before = Dump("SELECT a, b FROM r ORDER BY b");
  EXPECT_FALSE(
      db_.Execute("UPDATE r SET a = CASE WHEN a = 3 THEN 30 ELSE NULL END")
          .ok());
  EXPECT_EQ(Dump("SELECT a, b FROM r ORDER BY b"), before);
  EXPECT_FALSE(db_.Execute("UPDATE r SET a = NULL WHERE b = 'z'").ok());
  EXPECT_EQ(Dump("SELECT a, b FROM r ORDER BY b"), before);
}

TEST_P(DmlAtomicityTest, ConcurrentInsertsIntoRowStorageAreSeenWhole) {
  ASSERT_TRUE(db_.Run("CREATE ROW TABLE r (a BIGINT NOT NULL, b VARCHAR)").ok());
  constexpr int kStatements = 20;
  constexpr int kRowsPerStatement = 100;
  std::string insert = "INSERT INTO r VALUES ";
  for (int i = 0; i < kRowsPerStatement; ++i) {
    insert += (i == 0 ? "(" : ", (") + std::to_string(i) + ", 'v')";
  }
  std::atomic<bool> done{false};
  Status writer_status;
  std::thread writer([&] {
    for (int s = 0; s < kStatements && writer_status.ok(); ++s) {
      writer_status = db_.Execute(insert).status();
    }
    done.store(true);
  });
  std::vector<int64_t> counts;
  Status reader_status;
  while (reader_status.ok()) {
    const bool last = done.load();  // One more count after the writer.
    auto count = db_.Query("SELECT COUNT(*) FROM r");
    reader_status = count.status();
    if (count.ok()) counts.push_back(count->row(0)[0].AsInt());
    if (last) break;
  }
  writer.join();
  ASSERT_TRUE(writer_status.ok()) << writer_status.ToString();
  ASSERT_TRUE(reader_status.ok()) << reader_status.ToString();
  for (int64_t n : counts) EXPECT_EQ(n % kRowsPerStatement, 0) << n;
  EXPECT_EQ(counts.back(), kStatements * kRowsPerStatement);
}

TEST_P(DmlAtomicityTest, FailingFlexibleInsertAddsNoColumn) {
  ASSERT_TRUE(db_.Run("CREATE FLEXIBLE TABLE f (a BIGINT NOT NULL)").ok());
  EXPECT_FALSE(
      db_.Execute("INSERT INTO f (a, extra) VALUES (NULL, 'x')").ok());
  auto all = db_.Query("SELECT * FROM f");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all->schema()->num_columns(), 1u);
  EXPECT_EQ(all->num_rows(), 0u);

  ASSERT_TRUE(db_.Execute("INSERT INTO f (a, extra) VALUES (1, 'x')").ok());
  EXPECT_EQ(Dump("SELECT * FROM f"), "1|x|\n");
}

INSTANTIATE_TEST_SUITE_P(Threads, DmlAtomicityTest,
                         ::testing::Values("1", "4"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string("threads_") + info.param;
                         });

}  // namespace
}  // namespace hana::platform
