// DML finds its targets on the SELECT pipelines (ctest labels: txn,
// concurrency; HANA_LOCK_ORDER=fatal). UPDATE, DELETE and RunAging run
// over a 20,000-row column table (half merged, half delta), a hybrid
// table of one cold and two hot partitions and an extended table, with
// 1,000-row morsels. At threads 1, 2, 4 and 8 every statement's
// affected-row count or failing Status, and every table's contents
// afterwards, are identical. A failing UPDATE reports its predicate's
// error before an assignment error on an earlier row. And the target
// search reads at the statement's snapshot: while a coordinator
// transaction whose commit record is logged but never finished holds
// LastVisible() back, a row committed after it is not targeted, and a
// row deleted after it is targeted again and aborts the statement with
// a write-write conflict.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/mvcc.h"
#include "platform/platform.h"
#include "txn/participants.h"

namespace hana::platform {
namespace {

constexpr int64_t kColumnRows = 20000;

std::unique_ptr<Platform> MakePlatform(size_t threads) {
  PlatformOptions options;
  options.start_hadoop = false;
  options.extended_options.rows_per_group = 1024;
  auto db = std::make_unique<Platform>(options);
  EXPECT_TRUE(db->SetParameter("threads", std::to_string(threads)).ok());
  EXPECT_TRUE(db->SetParameter("morsel_rows", "1000").ok());
  return db;
}

/// The rows of `select`, one "v1|v2|..." line each.
std::string Dump(Platform* db, const std::string& select) {
  auto result = db->Query(select);
  EXPECT_TRUE(result.ok()) << select << ": " << result.status().ToString();
  if (!result.ok()) return "<error>";
  std::string out;
  for (const auto& row : result->rows()) {
    for (const Value& v : row) out += v.ToString() + "|";
    out += "\n";
  }
  return out;
}

/// What one run leaves behind: per statement its affected rows or its
/// error, then every table's contents.
struct ScriptRun {
  std::vector<std::string> outcomes;
  std::vector<std::string> contents;
};

ScriptRun RunAt(size_t threads) {
  auto db = MakePlatform(threads);
  EXPECT_TRUE(db->Run(R"(
      CREATE COLUMN TABLE c (id BIGINT NOT NULL, g BIGINT, v DOUBLE,
                             s VARCHAR(8));
      CREATE TABLE h (id BIGINT NOT NULL, v BIGINT, s VARCHAR(8))
        USING HYBRID EXTENDED STORAGE PARTITION BY RANGE (id)
          (PARTITION VALUES < 3000 COLD, PARTITION VALUES < 6000 HOT,
           PARTITION OTHERS HOT);
      CREATE TABLE e (id BIGINT NOT NULL, v BIGINT, s VARCHAR(8))
        USING EXTENDED STORAGE)")
                  .ok());
  std::vector<std::vector<Value>> rows;
  for (int64_t i = 0; i < kColumnRows; ++i) {
    rows.push_back({Value::Int(i), Value::Int(i % 10),
                    i % 17 == 0 ? Value::Null()
                                : Value::Double(static_cast<double>(i % 300)),
                    Value::String(i == 15000 ? "x" : std::to_string(i % 5))});
    if (i + 1 == kColumnRows / 2) {
      EXPECT_TRUE(db->catalog().Insert("c", rows).ok());
      EXPECT_TRUE(db->catalog().MergeDelta("c").ok());
      rows.clear();
    }
  }
  EXPECT_TRUE(db->catalog().Insert("c", rows).ok());
  rows.clear();
  for (int64_t i = 0; i < 9000; ++i) {
    rows.push_back({Value::Int(i), Value::Int(i % 7),
                    Value::String(i == 7000 ? "y" : "h")});
  }
  EXPECT_TRUE(db->catalog().Insert("h", rows).ok());
  rows.resize(5000);
  EXPECT_TRUE(db->catalog().Insert("e", rows).ok());

  const std::vector<std::string> statements = {
      "DELETE FROM c WHERE g = 3",
      "UPDATE c SET v = v * 2, s = '9' WHERE id % 7 = 0",
      "DELETE FROM c WHERE v > 250.0 AND id < 5000",
      "UPDATE c SET g = g + 1",
      // Fails on id 15000's 'x': nothing may change.
      "UPDATE c SET g = CAST(s AS BIGINT) WHERE id > 100",
      "DELETE FROM c WHERE CAST(s AS BIGINT) > 0",
      "DELETE FROM h WHERE v = 5",
      // Keys 6000..6099 move into the cold range, staying hot until
      // aging moves them.
      "UPDATE h SET id = id - 4000 WHERE id >= 6000 AND id < 6100",
      "AGING",
      "UPDATE h SET v = 100 WHERE id >= 3000 AND id < 3500",
      // Cold rows cannot be updated.
      "UPDATE h SET v = 0 WHERE id < 10",
      "DELETE FROM h WHERE CAST(s AS BIGINT) = 1",
      "DELETE FROM e WHERE id % 3 = 0",
      "DELETE FROM e WHERE v = 2 AND id > 2500",
  };
  ScriptRun run;
  for (const std::string& sql : statements) {
    if (sql == "AGING") {
      auto moved = db->catalog().RunAging("h");
      run.outcomes.push_back(moved.ok() ? "aged " + std::to_string(*moved)
                                        : moved.status().ToString());
      continue;
    }
    auto result = db->Execute(sql);
    run.outcomes.push_back(result.ok() ? std::to_string(result->metrics.rows)
                                       : result.status().ToString());
  }
  for (const char* table : {"c", "h", "e"}) {
    run.contents.push_back(
        Dump(db.get(), std::string("SELECT * FROM ") + table +
                           " ORDER BY id, v"));
  }
  return run;
}

TEST(DmlPipelineTest, IdenticalAtEveryThreadCount) {
  const ScriptRun serial = RunAt(1);
  // The script does what it says at one thread.
  ASSERT_EQ(serial.outcomes.size(), 14u);
  EXPECT_EQ(serial.outcomes[0], "2000");
  EXPECT_NE(serial.outcomes[4].find("cannot cast 'x'"), std::string::npos)
      << serial.outcomes[4];
  EXPECT_NE(serial.outcomes[5].find("cannot cast 'x'"), std::string::npos)
      << serial.outcomes[5];
  // 14 of ids 6000..6099 and 72 of 3000..3499 have v = 5.
  EXPECT_EQ(serial.outcomes[7], "86");
  EXPECT_EQ(serial.outcomes[8], "aged 86");
  EXPECT_EQ(serial.outcomes[9], "428");
  EXPECT_NE(serial.outcomes[10].find("cold partitions"), std::string::npos)
      << serial.outcomes[10];
  EXPECT_NE(serial.outcomes[11].find("cannot cast 'h'"), std::string::npos)
      << serial.outcomes[11];
  for (size_t threads : {2, 4, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const ScriptRun run = RunAt(threads);
    EXPECT_EQ(run.outcomes, serial.outcomes);
    for (size_t t = 0; t < run.contents.size(); ++t) {
      EXPECT_TRUE(run.contents[t] == serial.contents[t]) << "table " << t;
    }
  }
}

TEST(DmlPipelineTest, PredicateErrorsComeBeforeAssignmentErrors) {
  for (size_t threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    auto db = MakePlatform(threads);
    ASSERT_TRUE(db->Run(R"(
        CREATE COLUMN TABLE t (id BIGINT, s VARCHAR(8), w VARCHAR(8));
        INSERT INTO t VALUES (1, '1', 'a'), (2, '2', '2'), (3, 'p', '3'))")
                    .ok());
    // The assignment fails on row 1 ('a'), the predicate on row 3
    // ('p'): every target is found before any assignment runs.
    auto update =
        db->Execute("UPDATE t SET id = CAST(w AS BIGINT) WHERE CAST(s AS "
                    "BIGINT) > 0");
    ASSERT_FALSE(update.ok());
    EXPECT_NE(update.status().message().find("'p'"), std::string::npos)
        << update.status().ToString();
    // Without the failing predicate, the assignment's error on row 1.
    update = db->Execute("UPDATE t SET id = CAST(w AS BIGINT) WHERE id < 3");
    ASSERT_FALSE(update.ok());
    EXPECT_NE(update.status().message().find("'a'"), std::string::npos)
        << update.status().ToString();
    EXPECT_EQ(Dump(db.get(), "SELECT * FROM t ORDER BY id"),
              "1|1|a|\n2|2|2|\n3|p|3|\n");
  }
}

TEST(DmlPipelineTest, TargetsAreReadAtTheStatementSnapshot) {
  for (size_t threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    // A private version manager for the coordinator and the table: the
    // transaction left unfinished below must not hold Global() back.
    mvcc::VersionManager vm;
    auto db = MakePlatform(threads);
    db->SetVersionManager(&vm);
    ASSERT_TRUE(
        db->Execute("CREATE COLUMN TABLE t (id BIGINT NOT NULL, b VARCHAR)")
            .ok());
    storage::ColumnTable* table =
        (*db->catalog().GetTable("t"))->column_table.get();
    table->SetVersionManager(&vm);
    ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (1, 'x'), (2, 'x')").ok());

    // A one-participant transaction whose coordinator crashes after the
    // commit record: its row is stamped, but its timestamp stays
    // unfinished, so LastVisible() stops below it.
    txn::ColumnTableParticipant part("t", table);
    txn::TwoPhaseCoordinator& coord = db->coordinator();
    txn::TxnId txn = coord.Begin();
    ASSERT_TRUE(coord.Enlist(txn, &part).ok());
    ASSERT_TRUE(part.StageInsert(txn, {Value::Int(100), Value::String("d")})
                    .ok());
    coord.SetFailpoint(txn::Failpoint::kAfterCommitRecord);
    ASSERT_EQ(coord.Commit(txn).code(), StatusCode::kUnavailable);
    const mvcc::Timestamp frozen = vm.LastVisible();

    // A statement commits after the freeze; the latest committed state
    // holds it, the statements' snapshots do not.
    ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (200, 'late')").ok());
    EXPECT_EQ(vm.LastVisible(), frozen);
    EXPECT_EQ(table->live_rows(), 4u);
    auto updated = db->Execute("UPDATE t SET b = 'u' WHERE id >= 100");
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    EXPECT_EQ(updated->metrics.rows, 0u);
    auto deleted = db->Execute("DELETE FROM t WHERE id >= 2");
    ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
    EXPECT_EQ(deleted->metrics.rows, 1u);  // Row 2 only.
    // The delete committed after the freeze too: SELECTs do not see it.
    const std::string select = "SELECT * FROM t ORDER BY id";
    EXPECT_EQ(Dump(db.get(), select), "1|x|\n2|x|\n");
    // So a later statement finds row 2 again, and changing it is a
    // write-write conflict with the committed delete: the statement
    // aborts and changes nothing, however often it is repeated.
    for (const char* again : {"UPDATE t SET b = 'y' WHERE id = 2",
                              "DELETE FROM t WHERE id = 2",
                              "DELETE FROM t WHERE id <= 2"}) {
      SCOPED_TRACE(again);
      auto conflict = db->Execute(again);
      ASSERT_FALSE(conflict.ok());
      EXPECT_EQ(conflict.status().code(), StatusCode::kTransactionAborted)
          << conflict.status().ToString();
    }
    EXPECT_EQ(Dump(db.get(), select), "1|x|\n2|x|\n");
    EXPECT_EQ(table->live_rows(), 3u);  // 1, 100 and 200.

    // Recovery finishes the commit, and LastVisible() moves past every
    // later one: both late rows become targets.
    coord.RegisterRecoveryParticipant(&part);
    ASSERT_TRUE(coord.Recover().ok());
    EXPECT_GT(vm.LastVisible(), frozen);
    EXPECT_EQ(Dump(db.get(), select), "1|x|\n100|d|\n200|late|\n");
    deleted = db->Execute("DELETE FROM t WHERE id >= 100");
    ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
    EXPECT_EQ(deleted->metrics.rows, 2u);
    EXPECT_EQ(Dump(db.get(), select), "1|x|\n");
  }
}

}  // namespace
}  // namespace hana::platform
