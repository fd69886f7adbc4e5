// Parallel execution must be observably identical to serial execution:
// the morsel decomposition depends only on table size and morsel_rows,
// and partial aggregates merge in morsel order, so every query below
// must produce bit-identical results at threads=1 and threads=8.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/strings.h"
#include "platform/platform.h"

namespace hana::exec {
namespace {

class ParallelExecTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 20000;

  static void SetUpTestSuite() {
    db_ = new platform::Platform(platform::PlatformOptions{
        .attach_extended = false, .start_hadoop = false});
    sql::CreateTableStmt create;
    create.table = "fact";
    create.columns = {{"id", DataType::kInt64, false},
                      {"grp", DataType::kInt64, false},
                      {"flag", DataType::kString, false},
                      {"qty", DataType::kDouble, true},
                      {"price", DataType::kDouble, false}};
    ASSERT_TRUE(db_->catalog().CreateTable(create).ok());

    static const char* kFlags[] = {"A", "N", "R"};
    std::vector<std::vector<Value>> rows;
    rows.reserve(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      // Deterministic pseudo-random payload; no RNG so the fixture is
      // reproducible across runs and platforms.
      int64_t h = static_cast<int64_t>((i * 2654435761u) % 100000);
      rows.push_back({Value::Int(static_cast<int64_t>(i)),
                      Value::Int(h % 8),
                      Value::String(kFlags[h % 3]),
                      h % 17 == 0 ? Value::Null()
                                  : Value::Double(1.0 + (h % 50) * 0.25),
                      Value::Double((h % 1000) * 0.01)});
    }
    ASSERT_TRUE(db_->catalog().Insert("fact", rows).ok());
    // Small morsels so even this small table fans out into ~20 tasks.
    ASSERT_TRUE(db_->SetParameter("morsel_rows", "1000").ok());
  }

  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  void TearDown() override {
    ASSERT_TRUE(db_->SetParameter("threads", "0").ok());
  }

  /// Runs `query` at threads=1 and threads=8 and asserts the two result
  /// sets are identical cell for cell, including row order.
  void ExpectSerialParallelIdentical(const std::string& query) {
    ASSERT_TRUE(db_->SetParameter("threads", "1").ok());
    auto serial = db_->Query(query);
    ASSERT_TRUE(serial.ok()) << query << ": " << serial.status().ToString();

    ASSERT_TRUE(db_->SetParameter("threads", "8").ok());
    auto parallel = db_->Query(query);
    ASSERT_TRUE(parallel.ok())
        << query << ": " << parallel.status().ToString();

    ASSERT_EQ(serial->num_rows(), parallel->num_rows()) << query;
    ASSERT_EQ(serial->schema()->num_columns(),
              parallel->schema()->num_columns())
        << query;
    for (size_t r = 0; r < serial->num_rows(); ++r) {
      const auto& srow = serial->row(r);
      const auto& prow = parallel->row(r);
      for (size_t c = 0; c < srow.size(); ++c) {
        EXPECT_EQ(srow[c].is_null(), prow[c].is_null())
            << query << " row " << r << " col " << c;
        EXPECT_TRUE(srow[c] == prow[c])
            << query << " row " << r << " col " << c << ": "
            << srow[c].ToString() << " vs " << prow[c].ToString();
      }
    }
  }

  static platform::Platform* db_;
};

platform::Platform* ParallelExecTest::db_ = nullptr;

TEST_F(ParallelExecTest, PlainScanPreservesRowOrder) {
  ExpectSerialParallelIdentical("SELECT id, grp, flag, qty FROM fact");
}

TEST_F(ParallelExecTest, FilterProjectInsideMorsels) {
  ExpectSerialParallelIdentical(
      "SELECT id, qty * price AS ext FROM fact WHERE qty > 5 AND grp < 6");
}

TEST_F(ParallelExecTest, Q1StyleGroupedAggregation) {
  // The TPC-H Q1 shape: filter, group, several aggregate kinds.
  ExpectSerialParallelIdentical(R"(
      SELECT flag, grp,
             COUNT(*) AS n, COUNT(qty) AS nq,
             SUM(qty) AS sq, AVG(price) AS ap,
             MIN(qty) AS mn, MAX(qty) AS mx
      FROM fact
      WHERE id < 18000
      GROUP BY flag, grp
      ORDER BY flag, grp)");
}

TEST_F(ParallelExecTest, GroupOrderWithoutSortMatchesSerialFirstSeen) {
  // No ORDER BY: group output order is the first-seen order, which the
  // morsel-order merge must reproduce exactly.
  ExpectSerialParallelIdentical(
      "SELECT grp, flag, SUM(price) AS sp FROM fact GROUP BY grp, flag");
}

TEST_F(ParallelExecTest, CountDistinctMergesWithoutDoubleCounting) {
  ExpectSerialParallelIdentical(R"(
      SELECT grp, COUNT(DISTINCT flag) AS df, COUNT(DISTINCT qty) AS dq
      FROM fact GROUP BY grp ORDER BY grp)");
}

TEST_F(ParallelExecTest, GlobalAggregateWithoutGroupBy) {
  ExpectSerialParallelIdentical(
      "SELECT COUNT(*) AS n, SUM(qty) AS s, MIN(id) AS mn, MAX(id) AS mx"
      " FROM fact");
}

TEST_F(ParallelExecTest, GlobalAggregateOverEmptySelection) {
  // Zero qualifying rows: the merged table must still emit the single
  // global group (COUNT 0, NULL sums) exactly like the serial path.
  ExpectSerialParallelIdentical(
      "SELECT COUNT(*) AS n, SUM(qty) AS s FROM fact WHERE id < 0");
}

TEST_F(ParallelExecTest, HavingAndExpressionsOverAggregates) {
  ExpectSerialParallelIdentical(R"(
      SELECT grp, SUM(price) / COUNT(*) AS avg_price
      FROM fact GROUP BY grp HAVING COUNT(*) > 100 ORDER BY grp)");
}

TEST_F(ParallelExecTest, LimitOverSortAndScan) {
  // LIMIT keeps the first rows in (morsel, chunk) order at any thread
  // count: over a sort and directly over a 20-morsel scan.
  ExpectSerialParallelIdentical(
      "SELECT id FROM fact ORDER BY id LIMIT 17");
  ExpectSerialParallelIdentical(
      "SELECT id, grp FROM fact WHERE grp = 3 LIMIT 1500");
}

TEST_F(ParallelExecTest, JoinOverParallelScans) {
  ExpectSerialParallelIdentical(R"(
      SELECT a.grp, COUNT(*) AS n
      FROM fact a JOIN fact b ON a.id = b.id
      WHERE a.id < 4000
      GROUP BY a.grp ORDER BY a.grp)");
}

TEST_F(ParallelExecTest, DegreeOfParallelismIsConfigurable) {
  ASSERT_TRUE(db_->SetParameter("threads", "4").ok());
  EXPECT_EQ(db_->degree_of_parallelism(), 4u);
  ASSERT_TRUE(db_->SetParameter("threads", "0").ok());
  EXPECT_GE(db_->degree_of_parallelism(), 1u);
  EXPECT_FALSE(db_->SetParameter("threads", "nope").ok());
}

TEST_F(ParallelExecTest, ScheduleIsNotAKnob) {
  // The schedule follows from the pool and the thread count alone.
  EXPECT_EQ(db_->SetParameter("executor", "serial").code(),
            StatusCode::kNotFound);
}

/// Every cell of `table`, row by row, as text (DOUBLEs at full
/// precision, so equal text means bit-identical values).
std::string Cells(const storage::Table& table) {
  std::string out;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (const Value& v : table.row(r)) {
      out += v.type() == DataType::kDouble && !v.is_null()
                 ? StrFormat("%.17g", v.AsDouble())
                 : v.ToString();
      out += "|";
    }
    out += "\n";
  }
  return out;
}

// A hybrid table's hot partition is a column table: its scan splits
// into morsels like any other, the results are bit-identical at every
// thread count, and they equal those over the same rows in a plain
// column table.
TEST(HybridHotPartition, ScansAsMorselsLikeAColumnTable) {
  platform::Platform db(platform::PlatformOptions{.start_hadoop = false});
  const std::string columns = "(k BIGINT, g BIGINT, d DOUBLE)";
  ASSERT_TRUE(db.Run("CREATE TABLE hy " + columns +
                     " USING HYBRID EXTENDED STORAGE PARTITION BY RANGE (k)"
                     " (PARTITION VALUES < 100 COLD, PARTITION OTHERS HOT);"
                     " CREATE COLUMN TABLE co " + columns)
                  .ok());
  // Every key is past the cold bound: the rows all live in the hot
  // partition, 5 morsels of 1000.
  std::vector<std::vector<Value>> rows;
  for (int64_t i = 0; i < 4500; ++i) {
    rows.push_back({Value::Int(100 + i), Value::Int((i * 7919) % 13),
                    i % 11 == 0 ? Value::Null()
                                : Value::Double((i * 37 % 1000) / 7.0)});
  }
  ASSERT_TRUE(db.catalog().Insert("hy", rows).ok());
  ASSERT_TRUE(db.catalog().Insert("co", rows).ok());
  ASSERT_TRUE(db.SetParameter("morsel_rows", "1000").ok());

  struct Query {
    std::string sql;  // `$` stands for the table name.
    bool exact;       // Whether the column table gives the same bits.
  };
  const std::vector<Query> queries = {
      {"SELECT k, g, d FROM $", true},
      {"SELECT k, d FROM $ WHERE g = 3 AND k > 1000", true},
      {"SELECT g, COUNT(*) AS n, COUNT(d) AS cd, MIN(k) AS mn, "
       "MAX(d) AS mx FROM $ GROUP BY g ORDER BY g",
       true},
      {"SELECT k FROM $ ORDER BY d DESC, k LIMIT 20", true},
      // The hybrid aggregate adds a per-partition partial per branch,
      // so its DOUBLE sum is compared across thread counts only.
      {"SELECT g, SUM(d) AS sd FROM $ GROUP BY g ORDER BY g", false},
  };
  for (const Query& query : queries) {
    auto sql = [&](const std::string& table) {
      std::string out = query.sql;
      out.replace(out.find('$'), 1, table);
      return out;
    };
    ASSERT_TRUE(db.SetParameter("threads", "1").ok());
    auto serial = db.Query(sql("hy"));
    ASSERT_TRUE(serial.ok()) << sql("hy") << ": " << serial.status().ToString();
    ASSERT_GT(serial->num_rows(), 0u) << sql("hy");
    // The hot scan's pipeline reads 5 morsels.
    size_t hot_morsels = 0;
    for (const PipelineStats& p : db.last_pipeline_stats()) {
      if (p.label.rfind("scan hy", 0) == 0) {
        hot_morsels = p.morsels;
      }
    }
    EXPECT_EQ(hot_morsels, 5u) << sql("hy");
    if (query.exact) {
      auto copy = db.Query(sql("co"));
      ASSERT_TRUE(copy.ok()) << sql("co");
      EXPECT_EQ(Cells(*serial), Cells(*copy)) << sql("hy");
    }
    for (const char* threads : {"2", "4", "8"}) {
      ASSERT_TRUE(db.SetParameter("threads", threads).ok());
      auto parallel = db.Query(sql("hy"));
      ASSERT_TRUE(parallel.ok()) << sql("hy");
      EXPECT_EQ(Cells(*serial), Cells(*parallel))
          << sql("hy") << " at threads " << threads;
    }
  }
}

}  // namespace
}  // namespace hana::exec
