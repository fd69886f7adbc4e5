// Eager aggregation through UNION ALL (plan::SplitAggregateOverUnion):
// an aggregate over a hybrid table runs as per-partition partials plus a
// final aggregate that combines them. The hybrid results are compared
// with the same queries over a local column-table copy holding the same
// rows (NULL group keys, NULL measures, and a table whose cold range is
// empty).
//
// Comparison rule. The split re-associates sums: the final aggregate
// adds the partials in union branch order, and each partial adds its
// rows in morsel order. So
//  * COUNT, integer SUM, MIN, MAX and the set of groups equal the copy's
//    exactly;
//  * DOUBLE SUM and AVG agree with the copy's within 1e-12 relative;
//  * because the combine order is fixed, every query is bit-identical
//    at 1, 2, 4 and 8 threads, with and without NO_FEDERATION.
// Aggregates with a DISTINCT argument are not split and stay one
// aggregate above the union.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "narrow_copy.h"
#include "platform/platform.h"

namespace hana {
namespace {

constexpr int64_t kRows = 1500;
// Rows with k < kColdBound live in the cold partition.
constexpr int64_t kColdBound = 600;

std::vector<std::vector<Value>> MakeRows(int64_t k_offset) {
  std::vector<std::vector<Value>> rows;
  for (int64_t i = 0; i < kRows; ++i) {
    rows.push_back(
        {Value::Int(i + k_offset),
         i % 29 == 0 ? Value::Null() : Value::Int(i % 17),
         i % 13 == 0 ? Value::Null() : Value::Int((i * 7919) % 50 - 20),
         i % 11 == 0
             ? Value::Null()
             : Value::Double(static_cast<double>((i * 37) % 1000) / 7.0 + 0.1),
         i % 19 == 0 ? Value::Null()
                     : Value::String("s" + std::to_string(i % 23))});
  }
  return rows;
}

class UnionAggSplitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string columns =
        "(k BIGINT, g BIGINT, m BIGINT, d DOUBLE, s VARCHAR(8))";
    const std::string hybrid =
        " USING HYBRID EXTENDED STORAGE PARTITION BY RANGE (k) "
        "(PARTITION VALUES < " + std::to_string(kColdBound) +
        " COLD, PARTITION OTHERS HOT)";
    ASSERT_TRUE(db_.Run("CREATE TABLE hy " + columns + hybrid +
                        "; CREATE TABLE hy_hot " + columns + hybrid +
                        "; CREATE COLUMN TABLE co " + columns +
                        "; CREATE COLUMN TABLE co_hot " + columns)
                    .ok());
    // hy_hot's keys all lie past the cold bound: its cold range is empty.
    for (const auto& [table, offset] :
         std::vector<std::pair<std::string, int64_t>>{
             {"hy", 0}, {"co", 0}, {"hy_hot", kColdBound},
             {"co_hot", kColdBound}}) {
      ASSERT_TRUE(db_.catalog().Insert(table, MakeRows(offset)).ok())
          << table;
    }
    ASSERT_TRUE(db_.SetParameter("morsel_rows", "64").ok());
  }

  platform::Platform db_;
};

// `$` stands for the table name.
const std::vector<std::string>& Queries() {
  static const std::vector<std::string> queries = {
      // Global aggregate over every aggregate kind.
      "SELECT COUNT(*) AS n, COUNT(m) AS cm, COUNT(d) AS cd, SUM(m) AS sm, "
      "SUM(d) AS sd, MIN(m) AS mn, MAX(m) AS mx, MIN(d) AS dmn, "
      "MAX(s) AS smx, AVG(d) AS ad, AVG(m) AS am FROM $",
      // Global aggregate over no rows: COUNT 0, SUM/AVG/MIN NULL.
      "SELECT COUNT(*) AS n, SUM(d) AS sd, SUM(m) AS sm, AVG(m) AS am, "
      "MIN(s) AS ms FROM $ WHERE m > 1000000",
      // GROUP BY a nullable key, with HAVING.
      "SELECT g, COUNT(*) AS n, SUM(m) AS sm, SUM(d) AS sd, MIN(d) AS mn, "
      "MAX(m) AS mx, AVG(d) AS ad FROM $ GROUP BY g HAVING COUNT(*) > 80",
      // Keys only.
      "SELECT g, s FROM $ GROUP BY g, s",
      // GROUP BY an expression.
      "SELECT g % 4 AS b, COUNT(m) AS cm, SUM(d) AS sd, AVG(m) AS am, "
      "MIN(s) AS ms FROM $ GROUP BY g % 4",
      // DISTINCT: not split.
      "SELECT g, COUNT(DISTINCT m) AS dm, SUM(d) AS sd FROM $ GROUP BY g",
  };
  return queries;
}

std::string For(const std::string& query, const std::string& table) {
  std::string out = query;
  out.replace(out.find('$'), 1, table);
  return out;
}

/// Rows sorted by their exactly-compared (non-DOUBLE) columns.
std::vector<std::vector<Value>> Sorted(const storage::Table& table) {
  std::vector<std::vector<Value>> rows = table.rows();
  auto key = [](const std::vector<Value>& row) {
    std::string text;
    for (const Value& v : row) {
      if (v.type() != DataType::kDouble) text += v.ToString() + "|";
    }
    return text;
  };
  std::sort(rows.begin(), rows.end(),
            [&](const auto& a, const auto& b) { return key(a) < key(b); });
  return rows;
}

/// The comparison rule of the header comment.
void ExpectEquivalent(const storage::Table& split,
                      const storage::Table& reference,
                      const std::string& sql) {
  std::vector<std::vector<Value>> got = Sorted(split);
  std::vector<std::vector<Value>> want = Sorted(reference);
  ASSERT_EQ(got.size(), want.size()) << sql;
  for (size_t r = 0; r < got.size(); ++r) {
    ASSERT_EQ(got[r].size(), want[r].size()) << sql;
    for (size_t c = 0; c < got[r].size(); ++c) {
      const Value& a = got[r][c];
      const Value& b = want[r][c];
      ASSERT_EQ(a.type(), b.type()) << sql << " row " << r << " col " << c;
      if (a.type() == DataType::kDouble) {
        double scale = std::max(std::fabs(a.double_value()),
                                std::fabs(b.double_value()));
        EXPECT_LE(std::fabs(a.double_value() - b.double_value()),
                  1e-12 * scale)
            << sql << " row " << r << " col " << c;
      } else {
        EXPECT_EQ(a.Compare(b), 0) << sql << " row " << r << " col " << c
                                   << ": " << a.ToString() << " vs "
                                   << b.ToString();
      }
    }
  }
}

TEST_F(UnionAggSplitTest, PlansSplitExceptDistinct) {
  for (const std::string& query : Queries()) {
    const std::string sql = For(query, "hy");
    auto plan = db_.Explain(sql);
    ASSERT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
    const bool distinct = sql.find("DISTINCT") != std::string::npos;
    EXPECT_EQ(plan->find("[final]") != std::string::npos, !distinct) << *plan;
    EXPECT_EQ(plan->find("[partial]") != std::string::npos, !distinct)
        << *plan;
  }
}

TEST_F(UnionAggSplitTest, MatchesLocalCopyAndIsBitIdentical) {
  const std::vector<std::pair<std::string, std::string>> tables = {
      {"hy", "co"}, {"hy_hot", "co_hot"}};
  for (const auto& [hybrid, copy] : tables) {
    for (const std::string& query : Queries()) {
      const std::string sql = For(query, hybrid);
      auto reference = db_.Query(For(query, copy));
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      ASSERT_GT(reference->num_rows(), 0u) << sql;
      std::vector<std::string> first;
      for (const std::string hint : {"", " WITH HINT (NO_FEDERATION)"}) {
        for (int threads : {1, 2, 4, 8}) {
          ASSERT_TRUE(
              db_.SetParameter("threads", std::to_string(threads)).ok());
          auto split = db_.Query(sql + hint);
          ASSERT_TRUE(split.ok()) << sql << hint << ": "
                                  << split.status().ToString();
          if (first.empty()) {
            ExpectEquivalent(*split, *reference, sql);
            first = testutil::ExactRows(*split);
          } else {
            EXPECT_EQ(testutil::ExactRows(*split), first)
                << sql << hint << " at " << threads << " threads";
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace hana
