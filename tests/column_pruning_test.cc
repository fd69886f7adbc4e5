// Column pruning across storage kinds and plan shapes: scans that need
// no column still count rows, DML target searches keep full UPDATE
// images, a federation-disabled remote scan fetches exactly its columns,
// and unions, outer, semi and anti joins and sorts on unselected columns
// return what narrow copies of the tables return.

#include <gtest/gtest.h>

#include "common/util.h"
#include "narrow_copy.h"
#include "platform/platform.h"
#include "sql/parser.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace hana {
namespace {

std::vector<std::vector<Value>> Rows(size_t n,
                                     std::vector<Value> (*make)(int64_t)) {
  std::vector<std::vector<Value>> rows;
  for (size_t i = 0; i < n; ++i) rows.push_back(make(static_cast<int64_t>(i)));
  return rows;
}

// ---------------------------------------------------------------------
// Scans pruned to no referenced column.
// ---------------------------------------------------------------------

class ZeroColumnScanTest : public ::testing::Test {
 protected:
  static constexpr int64_t kRows = 1000;
  static constexpr int64_t kDeleted = 10;  // Rows with k < kDeleted.

  void SetUp() override {
    ASSERT_TRUE(db_.Run(R"(
        CREATE COLUMN TABLE zc_col (s VARCHAR(12), d DOUBLE, k BIGINT);
        CREATE ROW TABLE zc_row (s VARCHAR(12), d DOUBLE, k BIGINT);
        CREATE TABLE zc_ext (s VARCHAR(12), d DOUBLE, k BIGINT)
          USING EXTENDED STORAGE;
        CREATE TABLE zc_hyb (s VARCHAR(12), d DOUBLE, k BIGINT)
          USING HYBRID EXTENDED STORAGE PARTITION BY RANGE (k)
            (PARTITION VALUES < 300 COLD, PARTITION OTHERS HOT))")
                    .ok());
    auto rows = Rows(kRows, [](int64_t i) {
      return std::vector<Value>{Value::String("s" + std::to_string(i)),
                                Value::Double(0.5 * static_cast<double>(i)),
                                Value::Int(i)};
    });
    for (const char* table : {"zc_col", "zc_row", "zc_ext", "zc_hyb"}) {
      ASSERT_TRUE(db_.catalog().Insert(table, rows).ok()) << table;
    }
    // Deletes leave invisible rows in the column and row stores, so a
    // row count must come from the visibility-filtered scan.
    for (const char* table : {"zc_col", "zc_row"}) {
      ASSERT_TRUE(db_.Execute(std::string("DELETE FROM ") + table +
                              " WHERE k < " + std::to_string(kDeleted))
                      .ok());
    }
    ASSERT_TRUE(db_.SetParameter("morsel_rows", "128").ok());
  }

  int64_t LiveRows(const std::string& table) const {
    return table == "zc_col" || table == "zc_row" ? kRows - kDeleted : kRows;
  }

  platform::Platform db_;
};

TEST_F(ZeroColumnScanTest, RowCountsSurviveOnEveryStorageKind) {
  for (const std::string table : {"zc_col", "zc_row", "zc_ext", "zc_hyb"}) {
    // Without the hint, extended scans ship to the IQ engine (which
    // prunes its own plans); with it, the platform reads the store.
    for (const std::string hint : {"", " WITH HINT (NO_FEDERATION)"}) {
      for (int threads : {1, 4}) {
        ASSERT_TRUE(db_.SetParameter("threads", std::to_string(threads)).ok());
        std::string where = table + hint + " @" + std::to_string(threads);
        auto count = db_.Query("SELECT COUNT(*) AS n FROM " + table + hint);
        ASSERT_TRUE(count.ok()) << where << ": " << count.status().ToString();
        EXPECT_EQ(count->row(0)[0].int_value(), LiveRows(table)) << where;
        auto ones = db_.Query("SELECT 1 AS one FROM " + table + hint);
        ASSERT_TRUE(ones.ok()) << where;
        EXPECT_EQ(static_cast<int64_t>(ones->num_rows()), LiveRows(table))
            << where;
        auto filtered =
            db_.Query("SELECT 1 AS one FROM " + table + " WHERE 2 > 1" + hint);
        ASSERT_TRUE(filtered.ok()) << where;
        EXPECT_EQ(static_cast<int64_t>(filtered->num_rows()), LiveRows(table))
            << where;
      }
    }
  }
}

TEST_F(ZeroColumnScanTest, KeepsTheCheapestColumn) {
  // k (BIGINT) decodes cheaper than s (VARCHAR) or d (DOUBLE).
  auto plan = db_.Explain("SELECT COUNT(*) FROM zc_col");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("Column Scan zc_col [1/3 cols]"), std::string::npos)
      << *plan;
  plan = db_.Explain("SELECT COUNT(*) FROM zc_row");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("Row Scan zc_row [1/3 cols]"), std::string::npos)
      << *plan;
  plan = db_.Explain("SELECT COUNT(*) FROM zc_ext WITH HINT (NO_FEDERATION)");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("Extended Storage Scan zc_ext [1/3 cols]"),
            std::string::npos)
      << *plan;
}

TEST_F(ZeroColumnScanTest, DmlReadsPredicateColumnsAndKeepsFullImages) {
  // The target search decodes only k; the UPDATE image must still carry
  // every other column of the matched row.
  auto updated = db_.Execute("UPDATE zc_hyb SET d = 1.5 WHERE k = 500");
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(updated->metrics.rows, 1u);
  auto row = db_.Query("SELECT s, d, k FROM zc_hyb WHERE k = 500");
  ASSERT_TRUE(row.ok());
  ASSERT_EQ(row->num_rows(), 1u);
  EXPECT_EQ(row->row(0)[0].string_value(), "s500");
  EXPECT_DOUBLE_EQ(row->row(0)[1].double_value(), 1.5);
  // A predicate-less DELETE reads no column and still finds every row.
  auto deleted = db_.Execute("DELETE FROM zc_col");
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_EQ(static_cast<int64_t>(deleted->metrics.rows), LiveRows("zc_col"));
  auto count = db_.Query("SELECT COUNT(*) AS n FROM zc_col");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->row(0)[0].int_value(), 0);
}

// ---------------------------------------------------------------------
// Plan shapes against narrow copies.
// ---------------------------------------------------------------------

struct TestTable {
  const char* ddl;
  std::vector<std::vector<Value>> rows;
};

std::vector<TestTable> ShapeTables() {
  std::vector<TestTable> tables;
  tables.push_back(
      {"CREATE COLUMN TABLE cust_w (c_id BIGINT, c_name VARCHAR(20), "
       "c_region BIGINT, c_note VARCHAR(40))",
       Rows(200, [](int64_t i) {
         return std::vector<Value>{
             Value::Int(i), Value::String("cust" + std::to_string(i)),
             Value::Int(i % 7), Value::String(std::string(30, 'x'))};
       })});
  tables.push_back(
      {"CREATE COLUMN TABLE orders_w (o_id BIGINT, o_cust BIGINT, "
       "o_note VARCHAR(40), o_total DOUBLE, o_day DATE, o_flag VARCHAR(4))",
       Rows(3000, [](int64_t i) {
         return std::vector<Value>{
             Value::Int(i), Value::Int((i * 7919) % 230),
             Value::String("note" + std::to_string(i % 13)),
             Value::Double(static_cast<double>((i * 37) % 1000) / 10.0),
             Value::Date(9000 + (i * 11) % 700),
             Value::String(i % 3 == 0 ? "A" : "B")};
       })});
  tables.push_back(
      {"CREATE TABLE hist_w (h_id BIGINT, h_cust BIGINT, h_amount DOUBLE, "
       "h_note VARCHAR(40), h_year BIGINT) USING HYBRID EXTENDED STORAGE "
       "PARTITION BY RANGE (h_year) "
       "(PARTITION VALUES < 2000 COLD, PARTITION OTHERS HOT)",
       Rows(2000, [](int64_t i) {
         return std::vector<Value>{
             Value::Int(i), Value::Int(i % 150),
             Value::Double(static_cast<double>(i % 97) * 1.25),
             Value::String("hist" + std::to_string(i)),
             Value::Int(1990 + i % 20)};
       })});
  return tables;
}

Status LoadTables(platform::Platform* db, const std::vector<TestTable>& tables,
                  const std::string* narrow_for) {
  for (const TestTable& t : tables) {
    HANA_ASSIGN_OR_RETURN(sql::StmtPtr stmt, sql::ParseStatement(t.ddl));
    const auto& create = static_cast<const sql::CreateTableStmt&>(*stmt);
    if (narrow_for != nullptr) {
      HANA_RETURN_IF_ERROR(
          testutil::LoadNarrowCopy(db, create, t.rows, *narrow_for));
      continue;
    }
    HANA_RETURN_IF_ERROR(db->catalog().CreateTable(create));
    HANA_RETURN_IF_ERROR(db->catalog().Insert(create.table, t.rows));
  }
  return db->SetParameter("morsel_rows", "256");
}

TEST(ColumnPruningShapes, MatchNarrowCopies) {
  const std::vector<std::string> queries = {
      // UNION ALL over the hot and cold partitions of a hybrid table.
      "SELECT h_cust, SUM(h_amount) AS s FROM hist_w WHERE h_id > 5 "
      "GROUP BY h_cust",
      "SELECT h_id, h_amount FROM hist_w WHERE h_amount > 100",
      "SELECT c_name, COUNT(*) AS n FROM hist_w, cust_w "
      "WHERE h_cust = c_id AND h_amount > 10 GROUP BY c_name",
      // LEFT join with a condition on an unselected column.
      "SELECT c_name, o_total FROM cust_w LEFT OUTER JOIN orders_w "
      "ON c_id = o_cust AND o_flag = 'A'",
      // Semi and anti joins.
      "SELECT c_name FROM cust_w WHERE EXISTS (SELECT * FROM orders_w "
      "WHERE o_cust = c_id AND o_total > 50)",
      "SELECT c_name, c_region FROM cust_w WHERE c_id NOT IN "
      "(SELECT o_cust FROM orders_w WHERE o_id < 100 AND o_flag = 'B')",
      // ORDER BY a column the SELECT list drops.
      "SELECT o_id, o_total FROM orders_w ORDER BY o_day DESC, o_id",
      // Inner join feeding an aggregate; a join nothing above reads.
      "SELECT c_name, SUM(o_total) AS t FROM orders_w, cust_w "
      "WHERE o_cust = c_id GROUP BY c_name",
      "SELECT COUNT(*) AS n FROM orders_w, cust_w WHERE o_cust = c_id",
  };
  const std::vector<TestTable> tables = ShapeTables();
  platform::Platform full;
  ASSERT_TRUE(LoadTables(&full, tables, nullptr).ok());
  for (const std::string& base : queries) {
    platform::Platform narrow;
    ASSERT_TRUE(LoadTables(&narrow, tables, &base).ok()) << base;
    for (const std::string hint : {"", " WITH HINT (NO_FEDERATION)"}) {
      const std::string sql = base + hint;
      for (int threads : {1, 2, 4}) {
        ASSERT_TRUE(full.SetParameter("threads", std::to_string(threads)).ok());
        ASSERT_TRUE(
            narrow.SetParameter("threads", std::to_string(threads)).ok());
        auto pruned = full.Query(sql);
        auto reference = narrow.Query(sql);
        ASSERT_TRUE(pruned.ok()) << sql << ": " << pruned.status().ToString();
        ASSERT_TRUE(reference.ok())
            << sql << ": " << reference.status().ToString();
        EXPECT_GT(reference->num_rows(), 0u) << sql;
        EXPECT_EQ(testutil::ExactRows(*pruned),
                  testutil::ExactRows(*reference))
            << sql << " at " << threads << " threads";
      }
    }
  }
}

// ---------------------------------------------------------------------
// Federation disabled: virtual-table scans fetch only their columns.
// ---------------------------------------------------------------------

/// Order-insensitive result hash with doubles rounded to 9 significant
/// digits: Hive and the local engine sum in different orders.
uint64_t RoundedHash(const storage::Table& table) {
  uint64_t sum = 0;
  for (const std::vector<Value>& row : table.rows()) {
    std::string text;
    for (const Value& v : row) {
      if (v.type() == DataType::kDouble) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.9g", v.double_value());
        text += buf;
      } else {
        text += v.ToString();
      }
      text += '|';
    }
    sum += std::hash<std::string>{}(text);
  }
  return sum;
}

TEST(ColumnPruningFederation, DisabledFederationMatchesShippedPlan) {
  platform::Platform db;
  tpch::TpchData data = tpch::Generate(0.002);
  for (const std::string table : {"supplier", "nation", "region",
                                  "part_local"}) {
    sql::CreateTableStmt create;
    create.table = table;
    create.columns = tpch::TpchSchema(table)->columns();
    ASSERT_TRUE(db.catalog().CreateTable(create).ok());
    ASSERT_TRUE(db.catalog().Insert(table, *tpch::TableRows(data, table)).ok());
  }
  for (const std::string table : {"lineitem", "customer", "orders"}) {
    ASSERT_TRUE(db.hive()->CreateTable(table, tpch::TpchSchema(table)).ok());
    ASSERT_TRUE(db.hive()->LoadRows(table, *tpch::TableRows(data, table)).ok());
  }
  ASSERT_TRUE(db.Run(R"(
      CREATE REMOTE SOURCE HIVE1 ADAPTER "hiveodbc" CONFIGURATION
        'DSN=hive1' WITH CREDENTIAL TYPE 'PASSWORD'
        USING 'user=dfuser;password=dfpass';
      CREATE VIRTUAL TABLE lineitem AT "HIVE1"."dflo"."dflo"."lineitem";
      CREATE VIRTUAL TABLE customer AT "HIVE1"."dflo"."dflo"."customer";
      CREATE VIRTUAL TABLE orders AT "HIVE1"."dflo"."dflo"."orders";)")
                  .ok());
  for (int q : {3, 14}) {
    const std::string sql = tpch::QueryText(q, "part_local");
    db.optimizer_options().enable_federation = true;
    auto shipped = db.Query(sql);
    ASSERT_TRUE(shipped.ok()) << "Q" << q << ": "
                              << shipped.status().ToString();
    db.optimizer_options().enable_federation = false;
    auto plan = db.Explain(sql);
    ASSERT_TRUE(plan.ok());
    // Local virtual-table scans, each narrowed (lineitem: 4 of 16).
    EXPECT_NE(plan->find("Virtual Table lineitem @HIVE1 [4/16 cols]"),
              std::string::npos)
        << *plan;
    auto local = db.Query(sql);
    ASSERT_TRUE(local.ok()) << "Q" << q << ": " << local.status().ToString();
    EXPECT_GT(local->num_rows(), 0u) << "Q" << q;
    EXPECT_EQ(local->num_rows(), shipped->num_rows()) << "Q" << q;
    EXPECT_EQ(RoundedHash(*local), RoundedHash(*shipped)) << "Q" << q;
  }
  db.optimizer_options().enable_federation = true;
}

}  // namespace
}  // namespace hana
