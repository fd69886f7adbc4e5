#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "extended/extended_store.h"
#include "platform/platform.h"

namespace hana::catalog {
namespace {

class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<platform::Platform>();
  }
  std::unique_ptr<platform::Platform> db_;
};

TEST_F(CatalogTest, CreateDropAllStorageKinds) {
  ASSERT_TRUE(db_->Run(R"(
      CREATE COLUMN TABLE c (a BIGINT);
      CREATE ROW TABLE r (a BIGINT);
      CREATE TABLE e (a BIGINT) USING EXTENDED STORAGE;
      CREATE TABLE h (a BIGINT, m BIGINT) USING HYBRID EXTENDED STORAGE
        PARTITION BY RANGE (m)
          (PARTITION VALUES < 10 COLD, PARTITION OTHERS HOT))")
                  .ok());
  EXPECT_EQ((*db_->catalog().GetTable("c"))->kind, TableKind::kColumn);
  EXPECT_EQ((*db_->catalog().GetTable("r"))->kind, TableKind::kRow);
  EXPECT_EQ((*db_->catalog().GetTable("e"))->kind, TableKind::kExtended);
  EXPECT_EQ((*db_->catalog().GetTable("h"))->kind, TableKind::kHybrid);
  EXPECT_TRUE(db_->iq()->store()->HasTable("E"));
  EXPECT_TRUE(db_->iq()->store()->HasTable("H__P0"));

  EXPECT_FALSE(db_->Execute("CREATE TABLE c (x BIGINT)").ok());  // Dup.
  ASSERT_TRUE(db_->Execute("DROP TABLE h").ok());
  EXPECT_FALSE(db_->iq()->store()->HasTable("H__P0"));
  EXPECT_FALSE(db_->Execute("DROP TABLE h").ok());
  EXPECT_TRUE(db_->Execute("DROP TABLE IF EXISTS h").ok());
}

TEST_F(CatalogTest, HybridInsertRoutesByRange) {
  ASSERT_TRUE(db_->Run(R"(
      CREATE TABLE h (id BIGINT, m BIGINT) USING HYBRID EXTENDED STORAGE
        PARTITION BY RANGE (m)
          (PARTITION VALUES < 10 COLD, PARTITION OTHERS HOT))")
                  .ok());
  std::vector<std::vector<Value>> rows;
  for (int64_t i = 0; i < 40; ++i) {
    rows.push_back({Value::Int(i), Value::Int(i % 20)});
  }
  ASSERT_TRUE(db_->catalog().Insert("h", rows).ok());
  TableEntry* entry = *db_->catalog().GetTable("h");
  auto cold = db_->iq()->store()->GetTable(entry->partitions[0].cold_table);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ((*cold)->live_rows(), 20u);  // m in [0,10).
  EXPECT_EQ(entry->partitions[1].hot->live_rows(), 20u);
  EXPECT_EQ(entry->LiveRows(db_->iq()), 40u);

  // Queries span both partitions.
  auto all = db_->Query("SELECT COUNT(*) AS n FROM h");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->row(0)[0].int_value(), 40);
}

TEST_F(CatalogTest, AgingByRange) {
  ASSERT_TRUE(db_->Run(R"(
      CREATE TABLE h (id BIGINT, m BIGINT) USING HYBRID EXTENDED STORAGE
        PARTITION BY RANGE (m)
          (PARTITION VALUES < 10 COLD, PARTITION OTHERS HOT))")
                  .ok());
  // Load everything hot (m >= 10), then "close" a month by updating m.
  std::vector<std::vector<Value>> rows;
  for (int64_t i = 0; i < 30; ++i) {
    rows.push_back({Value::Int(i), Value::Int(15)});
  }
  ASSERT_TRUE(db_->catalog().Insert("h", rows).ok());
  ASSERT_TRUE(db_->Execute("UPDATE h SET m = 5 WHERE id < 10").ok());
  auto moved = db_->catalog().RunAging("h");
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_EQ(*moved, 10u);
  TableEntry* entry = *db_->catalog().GetTable("h");
  EXPECT_EQ(entry->partitions[1].hot->live_rows(), 20u);
  auto count = db_->Query("SELECT COUNT(*) AS n FROM h");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->row(0)[0].int_value(), 30);
}

TEST_F(CatalogTest, AgingByFlag) {
  ASSERT_TRUE(db_->Run(R"(
      CREATE TABLE h (id BIGINT, m BIGINT, aged BOOLEAN)
        USING HYBRID EXTENDED STORAGE
        PARTITION BY RANGE (m)
          (PARTITION VALUES < 10 COLD, PARTITION OTHERS HOT)
        WITH AGING ON aged)")
                  .ok());
  std::vector<std::vector<Value>> rows;
  for (int64_t i = 0; i < 20; ++i) {
    rows.push_back({Value::Int(i), Value::Int(20), Value::Bool(i % 2 == 0)});
  }
  ASSERT_TRUE(db_->catalog().Insert("h", rows).ok());
  auto moved = db_->catalog().RunAging("h");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, 10u);  // Flagged rows moved to cold storage.
  // A second run is a no-op.
  EXPECT_EQ(*db_->catalog().RunAging("h"), 0u);
  auto count = db_->Query("SELECT COUNT(*) AS n FROM h");
  EXPECT_EQ(count->row(0)[0].int_value(), 20);
}

TEST_F(CatalogTest, FlexibleTableGrowsSchema) {
  ASSERT_TRUE(
      db_->Execute("CREATE FLEXIBLE TABLE logs (ts BIGINT)").ok());
  ASSERT_TRUE(db_->Execute("INSERT INTO logs VALUES (1)").ok());
  // Unknown column appears: the schema extends on the fly.
  ASSERT_TRUE(db_->Execute(
                     "INSERT INTO logs (ts, severity) VALUES (2, 'WARN')")
                  .ok());
  ASSERT_TRUE(
      db_->Execute("INSERT INTO logs (ts, code) VALUES (3, 42)").ok());
  auto rows = db_->Query("SELECT ts, severity, code FROM logs ORDER BY ts");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->num_rows(), 3u);
  EXPECT_TRUE(rows->row(0)[1].is_null());
  EXPECT_EQ(rows->row(1)[1].string_value(), "WARN");
  EXPECT_EQ(rows->row(2)[2].int_value(), 42);

  // Non-flexible tables reject unknown columns.
  ASSERT_TRUE(db_->Execute("CREATE TABLE rigid (a BIGINT)").ok());
  EXPECT_FALSE(
      db_->Execute("INSERT INTO rigid (a, b) VALUES (1, 2)").ok());
}

TEST_F(CatalogTest, RowStorePointOperations) {
  ASSERT_TRUE(db_->Run(R"(
      CREATE ROW TABLE kv (k BIGINT, v VARCHAR(10));
      INSERT INTO kv VALUES (1, 'one'), (2, 'two'))").ok());
  ASSERT_TRUE(db_->Execute("UPDATE kv SET v = 'ONE' WHERE k = 1").ok());
  auto r = db_->Query("SELECT v FROM kv WHERE k = 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->row(0)[0].string_value(), "ONE");
}

TEST_F(CatalogTest, DeleteOnExtendedTable) {
  ASSERT_TRUE(db_->Run(R"(
      CREATE TABLE e (a BIGINT) USING EXTENDED STORAGE;
      INSERT INTO e VALUES (1),(2),(3),(4))").ok());
  auto deleted = db_->Execute("DELETE FROM e WHERE a > 2");
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(deleted->metrics.rows, 2u);
  auto n = db_->Query("SELECT COUNT(*) AS n FROM e");
  EXPECT_EQ(n->row(0)[0].int_value(), 2);
}

TEST_F(CatalogTest, MergeDeltaStatement) {
  ASSERT_TRUE(db_->Run(R"(
      CREATE TABLE t (a BIGINT);
      INSERT INTO t VALUES (1),(2),(3))").ok());
  ASSERT_TRUE(db_->Execute("MERGE DELTA OF t").ok());
  auto r = db_->Query("SELECT SUM(a) AS s FROM t");
  EXPECT_EQ(r->row(0)[0].int_value(), 6);
  EXPECT_FALSE(db_->Execute("MERGE DELTA OF missing").ok());
}

TEST_F(CatalogTest, HybridWithoutExtendedStorageFails) {
  platform::Platform bare(platform::PlatformOptions{
      .attach_extended = false, .start_hadoop = false});
  EXPECT_FALSE(
      bare.Execute("CREATE TABLE e (a BIGINT) USING EXTENDED STORAGE")
          .ok());
}

TEST_F(CatalogTest, PartitionBoundsValidation) {
  EXPECT_FALSE(db_->Execute(R"(
      CREATE TABLE h (a BIGINT) USING HYBRID EXTENDED STORAGE)")
                   .ok());  // Needs PARTITION BY.
  // Rows outside every partition are rejected.
  ASSERT_TRUE(db_->Run(R"(
      CREATE TABLE h2 (a BIGINT, m BIGINT) USING HYBRID EXTENDED STORAGE
        PARTITION BY RANGE (m) (PARTITION VALUES < 10 COLD))")
                  .ok());
  EXPECT_FALSE(
      db_->catalog().Insert("h2", {{Value::Int(1), Value::Int(50)}}).ok());
}

TEST_F(CatalogTest, HotPartitionsAreNeverPruned) {
  // An UPDATE leaves a row whose key left its range in the hot
  // partition until aging moves it; pruning by the hot partition's
  // declared range would hide it from SELECT and DML alike.
  ASSERT_TRUE(db_->Run(R"(
      CREATE TABLE h (id BIGINT, m BIGINT) USING HYBRID EXTENDED STORAGE
        PARTITION BY RANGE (m)
          (PARTITION VALUES < 10 COLD, PARTITION OTHERS HOT))")
                  .ok());
  std::vector<std::vector<Value>> rows;
  for (int64_t id = 1; id <= 30; ++id) {
    rows.push_back({Value::Int(id), Value::Int(15)});
  }
  ASSERT_TRUE(db_->catalog().Insert("h", rows).ok());
  auto updated = db_->Execute("UPDATE h SET m = 5 WHERE id < 3");
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(updated->metrics.rows, 2u);
  for (const char* sql : {"SELECT COUNT(*) AS n FROM h WHERE m = 5",
                          "SELECT COUNT(*) AS n FROM h WHERE m + 0 = 5",
                          "SELECT COUNT(*) AS n FROM h WHERE m < 10"}) {
    auto count = db_->Query(sql);
    ASSERT_TRUE(count.ok()) << sql << ": " << count.status().ToString();
    EXPECT_EQ(count->row(0)[0].int_value(), 2) << sql;
  }
  auto again = db_->Execute("UPDATE h SET id = id + 100 WHERE m = 5");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->metrics.rows, 2u);
  auto deleted = db_->Execute("DELETE FROM h WHERE m < 10");
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_EQ(deleted->metrics.rows, 2u);
  auto count = db_->Query("SELECT COUNT(*) AS n FROM h");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->row(0)[0].int_value(), 28);
}

// CREATE statements for one table `t (id BIGINT, s VARCHAR(8))` per
// storage kind; the hybrid one keeps id < 2 cold.
const std::vector<std::string>& DmlTableKinds() {
  static const std::vector<std::string> kinds = {
      "CREATE COLUMN TABLE t (id BIGINT, s VARCHAR(8))",
      "CREATE ROW TABLE t (id BIGINT, s VARCHAR(8))",
      "CREATE TABLE t (id BIGINT, s VARCHAR(8)) USING EXTENDED STORAGE",
      "CREATE TABLE t (id BIGINT, s VARCHAR(8)) USING HYBRID EXTENDED "
      "STORAGE PARTITION BY RANGE (id) (PARTITION VALUES < 2 COLD, "
      "PARTITION OTHERS HOT)"};
  return kinds;
}

// The first result column of `sql`, as strings.
std::vector<std::string> FirstColumn(platform::Platform* db, const char* sql) {
  std::vector<std::string> out;
  auto result = db->Query(sql);
  EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
  if (!result.ok()) return out;
  for (const auto& row : result->rows()) out.push_back(row[0].ToString());
  return out;
}

TEST_F(CatalogTest, DeletePredicateErrorDeletesNothing) {
  // The predicate fails on 'x' wherever that row lives; no row may be
  // deleted, the ones before it included.
  for (const std::string& create : DmlTableKinds()) {
    for (const char* rows : {"(1, '1'), (2, 'x'), (3, '3')",
                             "(1, 'x'), (2, '2'), (3, '3')"}) {
      SCOPED_TRACE(create + " / " + rows);
      ASSERT_TRUE(db_->Execute(create).ok());
      ASSERT_TRUE(
          db_->Execute(std::string("INSERT INTO t VALUES ") + rows).ok());
      auto select =
          db_->Query("SELECT id FROM t WHERE CAST(s AS BIGINT) > 0");
      ASSERT_FALSE(select.ok());
      auto deleted = db_->Execute("DELETE FROM t WHERE CAST(s AS BIGINT) > 0");
      ASSERT_FALSE(deleted.ok());
      EXPECT_EQ(deleted.status().code(), select.status().code())
          << deleted.status().ToString();
      EXPECT_EQ(FirstColumn(db_.get(), "SELECT id FROM t ORDER BY id"),
                (std::vector<std::string>{"1", "2", "3"}));
      ASSERT_TRUE(db_->Execute("DROP TABLE t").ok());
    }
  }
}

TEST_F(CatalogTest, UpdateErrorChangesNothing) {
  for (const std::string& create : DmlTableKinds()) {
    if (create.find("USING EXTENDED") != std::string::npos) continue;
    SCOPED_TRACE(create);
    ASSERT_TRUE(db_->Execute(create).ok());
    ASSERT_TRUE(
        db_->Execute("INSERT INTO t VALUES (2, '2'), (3, '3'), (4, 'x')")
            .ok());
    // The assignment fails on the last row only.
    auto assign =
        db_->Execute("UPDATE t SET id = CAST(s AS BIGINT) + 100 WHERE id > 1");
    ASSERT_FALSE(assign.ok());
    EXPECT_EQ(assign.status().code(), StatusCode::kInvalidArgument)
        << assign.status().ToString();
    // The predicate fails on the last row only.
    auto predicate =
        db_->Execute("UPDATE t SET id = id + 100 WHERE CAST(s AS BIGINT) > 0");
    ASSERT_FALSE(predicate.ok());
    EXPECT_EQ(predicate.status().code(), StatusCode::kInvalidArgument)
        << predicate.status().ToString();
    EXPECT_EQ(FirstColumn(db_.get(), "SELECT id FROM t ORDER BY id"),
              (std::vector<std::string>{"2", "3", "4"}));
    ASSERT_TRUE(db_->Execute("DROP TABLE t").ok());
  }
}

class HybridDmlIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    platform::PlatformOptions options;
    options.start_hadoop = false;
    options.extended_options.rows_per_group = 256;
    db_ = std::make_unique<platform::Platform>(options);
    // 2048 cold rows (eight row groups of two column blocks each) and
    // 100 hot rows.
    ASSERT_TRUE(db_->Run(R"(
        CREATE TABLE h (k BIGINT, v BIGINT) USING HYBRID EXTENDED STORAGE
          PARTITION BY RANGE (k)
            (PARTITION VALUES < 2048 COLD, PARTITION OTHERS HOT))")
                    .ok());
    std::vector<std::vector<Value>> rows;
    for (int64_t k = 0; k < 2148; ++k) {
      rows.push_back({Value::Int(k), Value::Int(k % 7)});
    }
    ASSERT_TRUE(db_->catalog().Insert("h", rows).ok());
  }

  extended::ExtendedStoreMetrics& metrics() {
    return db_->iq()->store()->metrics();
  }

  std::unique_ptr<platform::Platform> db_;
};

TEST_F(HybridDmlIoTest, ColdDeleteReadsOnlyTheMatchingRowGroup) {
  metrics().Reset();
  auto deleted = db_->Execute("DELETE FROM h WHERE k >= 300 AND k < 310");
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_EQ(deleted->metrics.rows, 10u);
  EXPECT_EQ(metrics().blocks_read, 2u);  // Row group 1 only.
  auto count = db_->Query("SELECT COUNT(*) AS n FROM h WHERE k < 2048");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->row(0)[0].int_value(), 2038);

  // The UPDATE cold check prunes by zone map too: only group 7 can
  // hold k >= 2040, and its first match fails the statement.
  metrics().Reset();
  auto update = db_->Execute("UPDATE h SET v = 0 WHERE k >= 2040");
  ASSERT_FALSE(update.ok());
  EXPECT_EQ(update.status().code(), StatusCode::kUnimplemented);
  EXPECT_EQ(metrics().blocks_read + metrics().cache_hits, 2u);
}

TEST_F(HybridDmlIoTest, HotOnlyDmlReadsNoColdBlock) {
  metrics().Reset();
  auto updated = db_->Execute("UPDATE h SET v = 100 WHERE k = 2050");
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(updated->metrics.rows, 1u);
  auto deleted = db_->Execute("DELETE FROM h WHERE k >= 2100 AND k < 2120");
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_EQ(deleted->metrics.rows, 20u);
  EXPECT_EQ(metrics().blocks_read, 0u);
  EXPECT_EQ(metrics().cache_hits, 0u);
  auto v = db_->Query("SELECT v FROM h WHERE k = 2050");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->row(0)[0].int_value(), 100);
}

// Hybrid DML equivalence: every statement's affected count and the
// table's final contents match an in-memory model, on a range-only
// table (cold partitions prunable) and on a WITH AGING table (nothing
// prunable: aged rows sit in the first cold partition whatever their
// key), with NULL partition keys and hot rows whose key was updated
// into a cold range.
struct ModelRow {
  int64_t id = 0;
  std::optional<int64_t> k;
  int64_t v = 0;
  bool cold = false;
};

struct DmlCase {
  std::string where;
  std::function<bool(const ModelRow&)> matches;
};

bool KeyIn(const ModelRow& row, int64_t lo, int64_t hi) {
  return row.k.has_value() && *row.k >= lo && *row.k < hi;
}

const std::vector<DmlCase>& DmlCases() {
  static const std::vector<DmlCase> cases = {
      // Hot only (on the range table).
      {"k >= 250", [](const ModelRow& r) { return KeyIn(r, 250, 1 << 30); }},
      // Cold only, plus the hot rows updated to k = 10.
      {"k < 50", [](const ModelRow& r) { return KeyIn(r, -(1 << 30), 50); }},
      // Spanning, as a two-term int conjunction.
      {"k >= 150 AND k < 260",
       [](const ModelRow& r) { return KeyIn(r, 150, 260); }},
      // Conjunction on a non-partition column: nothing prunable.
      {"v >= 100 AND v < 130",
       [](const ModelRow& r) { return r.v >= 100 && r.v < 130; }},
      {"id >= 595 AND id < 600",
       [](const ModelRow& r) { return r.id >= 595 && r.id < 600; }},
      {"k IS NULL", [](const ModelRow& r) { return !r.k.has_value(); }},
      {"k + 0 >= 280 OR id < 5",
       [](const ModelRow& r) { return KeyIn(r, 280, 1 << 30) || r.id < 5; }},
  };
  return cases;
}

class HybridDmlEquivalenceTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    platform::PlatformOptions options;
    options.start_hadoop = false;
    options.extended_options.rows_per_group = 64;
    db_ = std::make_unique<platform::Platform>(options);
  }

  bool aging() const { return GetParam(); }

  /// Creates and loads table `name`; returns the model of its rows.
  std::vector<ModelRow> Load(const std::string& name) {
    std::string sql = "CREATE TABLE " + name +
                      " (id BIGINT, k BIGINT, v BIGINT, aged BOOLEAN) "
                      "USING HYBRID EXTENDED STORAGE PARTITION BY RANGE (k) "
                      "(PARTITION VALUES < 100 COLD, PARTITION VALUES < 200 "
                      "COLD, PARTITION OTHERS HOT)";
    if (aging()) sql += " WITH AGING ON aged";
    EXPECT_TRUE(db_->Execute(sql).ok()) << sql;
    std::vector<ModelRow> model;
    std::vector<std::vector<Value>> rows;
    for (int64_t id = 0; id < 600; ++id) {
      ModelRow row;
      row.id = id;
      if (id % 37 != 0) row.k = id % 300;
      row.v = id;
      bool in_cold_range = row.k.has_value() && *row.k < 200;
      bool aged = aging() && !in_cold_range && id % 3 == 0 && id < 540;
      row.cold = in_cold_range || aged;
      rows.push_back({Value::Int(row.id),
                      row.k ? Value::Int(*row.k) : Value::Null(),
                      Value::Int(row.v), Value::Bool(aged)});
      model.push_back(row);
    }
    EXPECT_TRUE(db_->catalog().Insert(name, rows).ok());
    if (aging()) EXPECT_TRUE(db_->catalog().RunAging(name).ok());
    // Hot rows whose key moves into a cold range stay hot.
    auto moved =
        db_->Execute("UPDATE " + name + " SET k = 10 WHERE id >= 590");
    EXPECT_TRUE(moved.ok()) << moved.status().ToString();
    for (ModelRow& row : model) {
      if (row.id >= 590) row.k = 10;
    }
    return model;
  }

  void ExpectContents(const std::string& name,
                      const std::vector<ModelRow>& model) {
    auto result =
        db_->Query("SELECT id, k, v FROM " + name + " ORDER BY id");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->num_rows(), model.size());
    for (size_t i = 0; i < model.size(); ++i) {
      const std::vector<Value>& row = result->row(i);
      EXPECT_EQ(row[0].int_value(), model[i].id);
      EXPECT_EQ(row[1].is_null(), !model[i].k.has_value()) << model[i].id;
      if (model[i].k) EXPECT_EQ(row[1].int_value(), *model[i].k);
      EXPECT_EQ(row[2].int_value(), model[i].v) << model[i].id;
    }
  }

  std::unique_ptr<platform::Platform> db_;
};

TEST_P(HybridDmlEquivalenceTest, Delete) {
  for (size_t c = 0; c < DmlCases().size(); ++c) {
    const DmlCase& dml = DmlCases()[c];
    SCOPED_TRACE(dml.where);
    std::string name = "d" + std::to_string(c);
    std::vector<ModelRow> model = Load(name);
    std::vector<ModelRow> kept;
    for (const ModelRow& row : model) {
      if (!dml.matches(row)) kept.push_back(row);
    }
    auto deleted = db_->Execute("DELETE FROM " + name + " WHERE " + dml.where);
    ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
    EXPECT_EQ(deleted->metrics.rows, model.size() - kept.size());
    ExpectContents(name, kept);
  }
}

TEST_P(HybridDmlEquivalenceTest, Update) {
  for (size_t c = 0; c < DmlCases().size(); ++c) {
    const DmlCase& dml = DmlCases()[c];
    SCOPED_TRACE(dml.where);
    std::string name = "u" + std::to_string(c);
    std::vector<ModelRow> model = Load(name);
    size_t hits = 0;
    bool cold_hit = false;
    std::vector<ModelRow> expected = model;
    for (ModelRow& row : expected) {
      if (!dml.matches(row)) continue;
      ++hits;
      cold_hit = cold_hit || row.cold;
      row.v += 1000;
    }
    auto updated = db_->Execute("UPDATE " + name +
                                " SET v = v + 1000 WHERE " + dml.where);
    if (cold_hit) {
      // Cold rows are read-only: the statement fails as a whole.
      ASSERT_FALSE(updated.ok());
      EXPECT_EQ(updated.status().code(), StatusCode::kUnimplemented);
      ExpectContents(name, model);
      continue;
    }
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    EXPECT_EQ(updated->metrics.rows, hits);
    ExpectContents(name, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(RangeAndAging, HybridDmlEquivalenceTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("WithAging")
                                             : std::string("RangeOnly");
                         });

}  // namespace
}  // namespace hana::catalog
