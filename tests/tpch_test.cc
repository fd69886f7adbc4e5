#include <gtest/gtest.h>

#include "narrow_copy.h"
#include "platform/platform.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace hana::tpch {
namespace {

TEST(DbgenTest, RowCountsFollowOfficialRatios) {
  TpchData data = Generate(0.01);
  EXPECT_EQ(data.region.size(), 5u);
  EXPECT_EQ(data.nation.size(), 25u);
  EXPECT_EQ(data.supplier.size(), 100u);
  EXPECT_EQ(data.customer.size(), 1500u);
  EXPECT_EQ(data.part.size(), 2000u);
  EXPECT_EQ(data.partsupp.size(), 8000u);  // 4 suppliers per part.
  EXPECT_EQ(data.orders.size(), 15000u);
  // 1..7 lineitems per order.
  EXPECT_GT(data.lineitem.size(), data.orders.size());
  EXPECT_LT(data.lineitem.size(), data.orders.size() * 7 + 1);
}

TEST(DbgenTest, Deterministic) {
  TpchData a = Generate(0.001), b = Generate(0.001);
  ASSERT_EQ(a.lineitem.size(), b.lineitem.size());
  for (size_t c = 0; c < a.lineitem[0].size(); ++c) {
    EXPECT_EQ(a.lineitem[0][c].Compare(b.lineitem[0][c]), 0);
  }
  TpchData other = Generate(0.001, /*seed=*/99);
  bool any_diff = other.lineitem.size() != a.lineitem.size();
  if (!any_diff) {
    for (size_t c = 0; c < a.lineitem[0].size() && !any_diff; ++c) {
      any_diff = a.lineitem[0][c].Compare(other.lineitem[0][c]) != 0;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(DbgenTest, SchemasMatchRows) {
  TpchData data = Generate(0.001);
  for (const std::string& table : TpchTableNames()) {
    auto schema = TpchSchema(table);
    const auto* rows = TableRows(data, table);
    ASSERT_NE(rows, nullptr) << table;
    ASSERT_FALSE(rows->empty()) << table;
    for (const auto& row : *rows) {
      ASSERT_EQ(row.size(), schema->num_columns()) << table;
    }
  }
  EXPECT_EQ(TableRows(data, "nope"), nullptr);
}

TEST(DbgenTest, ForeignKeysResolve) {
  TpchData data = Generate(0.002);
  int64_t num_cust = static_cast<int64_t>(data.customer.size());
  int64_t num_part = static_cast<int64_t>(data.part.size());
  int64_t num_supp = static_cast<int64_t>(data.supplier.size());
  for (const auto& order : data.orders) {
    EXPECT_GE(order[1].int_value(), 1);
    EXPECT_LE(order[1].int_value(), num_cust);
  }
  for (const auto& item : data.lineitem) {
    EXPECT_LE(item[1].int_value(), num_part);
    EXPECT_LE(item[2].int_value(), num_supp);
    // receiptdate > shipdate; dates within the population window.
    EXPECT_GT(item[12].int_value(), item[10].int_value());
  }
}

TEST(DbgenTest, PredicateBearingValuesExist) {
  TpchData data = Generate(0.005);
  size_t promo = 0, building = 0, mail_ship = 0, special = 0;
  for (const auto& p : data.part) {
    if (p[4].string_value().rfind("PROMO", 0) == 0) ++promo;
  }
  for (const auto& c : data.customer) {
    if (c[6].string_value() == "BUILDING") ++building;
  }
  for (const auto& l : data.lineitem) {
    const std::string& mode = l[14].string_value();
    if (mode == "MAIL" || mode == "SHIP") ++mail_ship;
  }
  for (const auto& o : data.orders) {
    if (o[8].string_value().find("special") != std::string::npos) ++special;
  }
  EXPECT_GT(promo, data.part.size() / 10);
  EXPECT_GT(building, data.customer.size() / 10);
  EXPECT_GT(mail_ship, data.lineitem.size() / 10);
  EXPECT_GT(special, 0u);
}

TEST(QueriesTest, TextsAndMetadata) {
  EXPECT_EQ(BenchmarkQueries().size(), 12u);
  for (int q : BenchmarkQueries()) {
    EXPECT_FALSE(QueryText(q).empty()) << q;
  }
  EXPECT_TRUE(QueryText(2).empty());  // Not part of the experiment.
  EXPECT_NE(QueryText(14, "part_local").find("part_local"),
            std::string::npos);
  EXPECT_TRUE(IsModifiedQuery(1));
  EXPECT_FALSE(IsModifiedQuery(6));
}

class TpchLocalExecution : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new TpchData(Generate(0.002));
    db_ = new platform::Platform(platform::PlatformOptions{
        .attach_extended = false, .start_hadoop = false});
    for (const std::string& table : TpchTableNames()) {
      sql::CreateTableStmt create;
      create.table = table;
      create.columns = TpchSchema(table)->columns();
      ASSERT_TRUE(db_->catalog().CreateTable(create).ok());
      ASSERT_TRUE(db_->catalog().Insert(table, *TableRows(*data_, table)).ok());
    }
  }
  static void TearDownTestSuite() {
    delete db_;
    delete data_;
  }

  static TpchData* data_;
  static platform::Platform* db_;
};

TpchData* TpchLocalExecution::data_ = nullptr;
platform::Platform* TpchLocalExecution::db_ = nullptr;

TEST_F(TpchLocalExecution, AllQueriesExecuteLocally) {
  for (int q : BenchmarkQueries()) {
    auto result = db_->Query(QueryText(q));
    ASSERT_TRUE(result.ok()) << "Q" << q << ": "
                             << result.status().ToString();
  }
}

TEST_F(TpchLocalExecution, Q1MatchesHandRolledAggregation) {
  auto result = db_->Query(QueryText(1));
  ASSERT_TRUE(result.ok());
  // Recompute sum_qty per (returnflag, linestatus) directly.
  std::map<std::pair<std::string, std::string>, double> expected_qty;
  std::map<std::pair<std::string, std::string>, int64_t> expected_count;
  int64_t cutoff = *ParseDate("1998-09-02");
  for (const auto& l : data_->lineitem) {
    if (l[10].int_value() > cutoff) continue;
    auto key = std::make_pair(l[8].string_value(), l[9].string_value());
    expected_qty[key] += l[4].double_value();
    expected_count[key] += 1;
  }
  ASSERT_EQ(result->num_rows(), expected_qty.size());
  for (const auto& row : result->rows()) {
    auto key = std::make_pair(row[0].string_value(),
                              row[1].string_value());
    ASSERT_TRUE(expected_qty.count(key)) << key.first << key.second;
    EXPECT_NEAR(row[2].double_value(), expected_qty[key], 1e-6);
    EXPECT_EQ(row[9].int_value(), expected_count[key]);
  }
}

TEST_F(TpchLocalExecution, Q6MatchesHandRolledFilter) {
  auto result = db_->Query(QueryText(6));
  ASSERT_TRUE(result.ok());
  double expected = 0;
  int64_t lo = *ParseDate("1994-01-01"), hi = *ParseDate("1995-01-01");
  for (const auto& l : data_->lineitem) {
    int64_t ship = l[10].int_value();
    double discount = l[6].double_value(), qty = l[4].double_value();
    if (ship >= lo && ship < hi && discount >= 0.05 - 1e-9 &&
        discount <= 0.07 + 1e-9 && qty < 24) {
      expected += l[5].double_value() * discount;
    }
  }
  EXPECT_NEAR(result->row(0)[0].double_value(), expected, 1e-6);
}

// The expression-bound queries run every filter, computed column and
// join residual on the vectorized kernels: no row of any pipeline falls
// back to the boxed scalar evaluator.
TEST_F(TpchLocalExecution, ExpressionBoundQueriesStayOnKernels) {
  for (int q : {1, 4, 6, 12, 13, 14, 19}) {
    auto result = db_->Query(QueryText(q));
    ASSERT_TRUE(result.ok()) << "Q" << q << ": "
                             << result.status().ToString();
    const std::vector<exec::PipelineStats>& stats = db_->last_pipeline_stats();
    ASSERT_FALSE(stats.empty()) << "Q" << q;
    for (const exec::PipelineStats& p : stats) {
      EXPECT_EQ(p.scalar_rows, 0u) << "Q" << q << " P" << p.id << ": "
                                   << p.label;
    }
  }
}

// On merged tables, main-store string columns reach filters, joins and
// group keys as dictionary codes: no pipeline of the string-heavy
// queries converts a code to an owned string, and every result equals
// the unmerged (flat-string) tables' result.
TEST_F(TpchLocalExecution, MergedStringColumnsStayDictionaryCoded) {
  platform::PlatformOptions options;
  options.attach_extended = false;
  options.start_hadoop = false;
  platform::Platform merged(options);
  for (const std::string& table : TpchTableNames()) {
    sql::CreateTableStmt create;
    create.table = table;
    create.columns = TpchSchema(table)->columns();
    ASSERT_TRUE(merged.catalog().CreateTable(create).ok());
    ASSERT_TRUE(merged.catalog().Insert(table, *TableRows(*data_, table)).ok());
    ASSERT_TRUE(merged.Execute("MERGE DELTA OF " + table).ok());
  }
  for (int q : {1, 3, 10, 12, 13, 16, 19}) {
    auto want = db_->Query(QueryText(q));
    ASSERT_TRUE(want.ok()) << "Q" << q;
    auto result = merged.Query(QueryText(q));
    ASSERT_TRUE(result.ok()) << "Q" << q << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->ToString(1u << 20), want->ToString(1u << 20))
        << "Q" << q;
    const std::vector<exec::PipelineStats>& stats = merged.last_pipeline_stats();
    ASSERT_FALSE(stats.empty()) << "Q" << q;
    for (const exec::PipelineStats& p : stats) {
      EXPECT_EQ(p.dict_flattened_rows, 0u) << "Q" << q << " P" << p.id << ": "
                                           << p.label;
      EXPECT_EQ(p.scalar_rows, 0u) << "Q" << q << " P" << p.id;
    }
  }
}

// Column pruning against an independent reference: every query runs on
// the full tables, where scans are pruned to the referenced columns, and
// on copies of the tables cut down to the columns the query names. The
// two must return the same rows, bit for bit, at every thread count.
TEST(TpchColumnPruning, FullTablesMatchNarrowCopies) {
  TpchData data = Generate(0.002);
  auto create_stmt = [](const std::string& table) {
    sql::CreateTableStmt create;
    create.table = table;
    create.columns = TpchSchema(table)->columns();
    return create;
  };
  platform::Platform full(platform::PlatformOptions{
      .attach_extended = false, .start_hadoop = false});
  for (const std::string& table : TpchTableNames()) {
    ASSERT_TRUE(full.catalog().CreateTable(create_stmt(table)).ok());
    ASSERT_TRUE(full.catalog().Insert(table, *TableRows(data, table)).ok());
  }
  ASSERT_TRUE(full.SetParameter("morsel_rows", "1024").ok());
  for (int q : BenchmarkQueries()) {
    const std::string sql = QueryText(q);
    platform::Platform narrow(platform::PlatformOptions{
        .attach_extended = false, .start_hadoop = false});
    for (const std::string& table : TpchTableNames()) {
      ASSERT_TRUE(testutil::LoadNarrowCopy(&narrow, create_stmt(table),
                                          *TableRows(data, table), sql)
                      .ok());
    }
    ASSERT_TRUE(narrow.SetParameter("morsel_rows", "1024").ok());
    for (int threads : {1, 2, 4}) {
      ASSERT_TRUE(full.SetParameter("threads", std::to_string(threads)).ok());
      ASSERT_TRUE(
          narrow.SetParameter("threads", std::to_string(threads)).ok());
      auto pruned = full.Query(sql);
      auto reference = narrow.Query(sql);
      ASSERT_TRUE(pruned.ok())
          << "Q" << q << ": " << pruned.status().ToString();
      ASSERT_TRUE(reference.ok())
          << "Q" << q << ": " << reference.status().ToString();
      EXPECT_EQ(testutil::ExactRows(*pruned),
                testutil::ExactRows(*reference))
          << "Q" << q << " at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace hana::tpch
