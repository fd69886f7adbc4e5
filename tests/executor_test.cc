// The pipeline executor must be observably identical to serial
// execution: one plan decomposition at every thread count,
// deterministic morsel decomposition, and morsel-order merges at every
// breaker. The tests below pin that invariant on the edge cases
// (zero-morsel scans, single-row tables, breakers producing zero
// groups, empty build sides), on union plans (branches become
// concurrently scheduled pipelines), on LIMIT (a prefix of the
// unlimited result that stops its sources early), and on every TPC-H
// benchmark query at SF 0.01 across thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "platform/platform.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace hana::exec {
namespace {

void ExpectTablesIdentical(const storage::Table& a, const storage::Table& b,
                           const std::string& context) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << context;
  ASSERT_EQ(a.schema()->num_columns(), b.schema()->num_columns()) << context;
  for (size_t r = 0; r < a.num_rows(); ++r) {
    const auto& arow = a.row(r);
    const auto& brow = b.row(r);
    for (size_t c = 0; c < arow.size(); ++c) {
      ASSERT_EQ(arow[c].is_null(), brow[c].is_null())
          << context << " row " << r << " col " << c;
      ASSERT_TRUE(arow[c] == brow[c])
          << context << " row " << r << " col " << c << ": "
          << arow[c].ToString() << " vs " << brow[c].ToString();
    }
  }
}

/// Runs `query` at threads 1, 2, 4 and 8 and asserts every result is
/// cell-for-cell identical to a threads=1 baseline, including row
/// order. Returns the baseline for content assertions.
storage::Table RunAllThreadsIdentical(platform::Platform* db,
                                      const std::string& query) {
  EXPECT_TRUE(db->SetParameter("threads", "1").ok());
  auto baseline = db->Query(query);
  EXPECT_TRUE(baseline.ok()) << query << ": " << baseline.status().ToString();
  if (!baseline.ok()) return storage::Table(std::make_shared<Schema>());
  for (const char* threads : {"1", "2", "4", "8"}) {
    EXPECT_TRUE(db->SetParameter("threads", threads).ok());
    auto result = db->Query(query);
    std::string context = query + " [threads=" + threads + "]";
    EXPECT_TRUE(result.ok()) << context << ": "
                             << result.status().ToString();
    if (result.ok()) ExpectTablesIdentical(*baseline, *result, context);
  }
  EXPECT_TRUE(db->SetParameter("threads", "0").ok());
  return std::move(*baseline);
}

/// At every thread count, `query LIMIT n` is exactly the first n rows
/// of `query`'s unlimited result.
void ExpectLimitIsPrefix(platform::Platform* db, const std::string& query,
                         size_t n) {
  for (const char* threads : {"1", "2", "4", "8"}) {
    ASSERT_TRUE(db->SetParameter("threads", threads).ok());
    auto full = db->Query(query);
    ASSERT_TRUE(full.ok()) << query << ": " << full.status().ToString();
    std::string limited_query = query + " LIMIT " + std::to_string(n);
    auto limited = db->Query(limited_query);
    ASSERT_TRUE(limited.ok())
        << limited_query << ": " << limited.status().ToString();
    storage::Table prefix(full->schema());
    for (size_t r = 0; r < std::min(n, full->num_rows()); ++r) {
      prefix.AppendRow(full->row(r));
    }
    ExpectTablesIdentical(prefix, *limited,
                          limited_query + " [threads=" + threads + "]");
  }
  ASSERT_TRUE(db->SetParameter("threads", "0").ok());
}

// ---------------------------------------------------------------------
// Edge cases: zero-morsel scans, single-row tables, empty breakers.
// ---------------------------------------------------------------------

class ExecutorEdgeCases : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new platform::Platform(platform::PlatformOptions{
        .attach_extended = false, .start_hadoop = false});
    ASSERT_TRUE(db_->Run(R"(
        CREATE TABLE empty_t (k BIGINT, v DOUBLE);
        CREATE TABLE one_row (k BIGINT, v DOUBLE);
        INSERT INTO one_row VALUES (7, 1.25);
        CREATE TABLE one_dim (k BIGINT, name VARCHAR(10));
        INSERT INTO one_dim VALUES (7, 'seven');
    )").ok());
    // Tiny morsels so even small tables decompose into several tasks.
    ASSERT_TRUE(db_->SetParameter("morsel_rows", "64").ok());
  }

  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static platform::Platform* db_;
};

platform::Platform* ExecutorEdgeCases::db_ = nullptr;

TEST_F(ExecutorEdgeCases, EmptyTableScanHasZeroMorsels) {
  storage::Table t =
      RunAllThreadsIdentical(db_, "SELECT k, v FROM empty_t WHERE k > 0");
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST_F(ExecutorEdgeCases, GlobalAggregateOverEmptyInputEmitsOneRow) {
  storage::Table t = RunAllThreadsIdentical(
      db_, "SELECT COUNT(*) AS n, SUM(v) AS s FROM empty_t");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.row(0)[0].int_value(), 0);
  EXPECT_TRUE(t.row(0)[1].is_null());
}

TEST_F(ExecutorEdgeCases, GroupedBreakerProducingZeroGroups) {
  storage::Table t = RunAllThreadsIdentical(
      db_, "SELECT k, SUM(v) AS s FROM empty_t GROUP BY k");
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST_F(ExecutorEdgeCases, JoinWithEmptyBuildSide) {
  storage::Table inner = RunAllThreadsIdentical(
      db_, "SELECT o.k FROM one_row o JOIN empty_t e ON o.k = e.k");
  EXPECT_EQ(inner.num_rows(), 0u);
  storage::Table left = RunAllThreadsIdentical(
      db_,
      "SELECT o.k, e.v FROM one_row o LEFT JOIN empty_t e ON o.k = e.k");
  ASSERT_EQ(left.num_rows(), 1u);
  EXPECT_TRUE(left.row(0)[1].is_null());
}

TEST_F(ExecutorEdgeCases, SingleRowTablesThroughJoinAndAggregate) {
  storage::Table joined = RunAllThreadsIdentical(
      db_,
      "SELECT o.k, d.name, o.v FROM one_row o JOIN one_dim d ON o.k = d.k");
  ASSERT_EQ(joined.num_rows(), 1u);
  EXPECT_EQ(joined.row(0)[1].string_value(), "seven");
  storage::Table agg = RunAllThreadsIdentical(
      db_, "SELECT k, COUNT(*) AS n FROM one_row GROUP BY k");
  ASSERT_EQ(agg.num_rows(), 1u);
  EXPECT_EQ(agg.row(0)[1].int_value(), 1);
}

TEST_F(ExecutorEdgeCases, SortBreakerOverEmptyAndSingleRowInputs) {
  storage::Table empty =
      RunAllThreadsIdentical(db_, "SELECT k FROM empty_t ORDER BY k");
  EXPECT_EQ(empty.num_rows(), 0u);
  storage::Table one =
      RunAllThreadsIdentical(db_, "SELECT k, v FROM one_row ORDER BY v DESC");
  ASSERT_EQ(one.num_rows(), 1u);
  EXPECT_EQ(one.row(0)[0].int_value(), 7);
}

TEST_F(ExecutorEdgeCases, TablelessSelectIsOneConstantRow) {
  storage::Table t = RunAllThreadsIdentical(db_, "SELECT 1 + 2 AS x, 'a' AS y");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.row(0)[0].int_value(), 3);
  EXPECT_EQ(t.row(0)[1].string_value(), "a");
}

TEST_F(ExecutorEdgeCases, NestedLoopJoinKinds) {
  // No equi key: the join runs as a nested-loop probe stage over the
  // materialized right side.
  storage::Table inner = RunAllThreadsIdentical(
      db_, "SELECT o.k, d.name FROM one_row o JOIN one_dim d ON o.k <= d.k");
  ASSERT_EQ(inner.num_rows(), 1u);
  storage::Table left = RunAllThreadsIdentical(
      db_,
      "SELECT o.k, d.name FROM one_row o LEFT JOIN one_dim d ON o.k < d.k");
  ASSERT_EQ(left.num_rows(), 1u);
  EXPECT_TRUE(left.row(0)[1].is_null());
  storage::Table cross = RunAllThreadsIdentical(
      db_, "SELECT o.k, d.k FROM one_row o, one_dim d");
  EXPECT_EQ(cross.num_rows(), 1u);
}

TEST_F(ExecutorEdgeCases, ExplainRendersPipelineAnnotations) {
  auto plan = db_->Explain(
      "SELECT d.name, SUM(o.v) AS s FROM one_row o "
      "JOIN one_dim d ON o.k = d.k GROUP BY d.name");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("Pipelines:"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("[P"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("build"), std::string::npos) << *plan;
}

TEST_F(ExecutorEdgeCases, PipelineStatsSurfaceAfterExecution) {
  ASSERT_TRUE(db_->SetParameter("threads", "4").ok());
  auto result = db_->Query(
      "SELECT o.k, d.name FROM one_row o JOIN one_dim d ON o.k = d.k");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // A join plan needs at least a build pipeline and a probe pipeline.
  EXPECT_GE(db_->last_pipeline_stats().size(), 2u);
}

// ---------------------------------------------------------------------
// Union plans: branches become concurrently schedulable pipelines.
// LIMIT: a prefix of the unlimited result that stops its sources early.
// ---------------------------------------------------------------------

class ExecutorUnionTest : public ::testing::Test {
 protected:
  static constexpr int64_t kRowsPerPartition = 3000;

  static void SetUpTestSuite() {
    db_ = new platform::Platform();  // Extended store for COLD partitions.
    ASSERT_TRUE(db_->Run(R"(
        CREATE TABLE hybrid (id BIGINT, m BIGINT, v DOUBLE)
          USING HYBRID EXTENDED STORAGE
          PARTITION BY RANGE (m)
            (PARTITION VALUES < 50 COLD, PARTITION OTHERS HOT))")
                    .ok());
    std::vector<std::vector<Value>> rows;
    for (int64_t i = 0; i < 2 * kRowsPerPartition; ++i) {
      rows.push_back({Value::Int(i), Value::Int(i % 100),
                      Value::Double(static_cast<double>(i % 37) * 0.25)});
    }
    ASSERT_TRUE(db_->catalog().Insert("hybrid", rows).ok());

    // A local table decomposed into many morsels, and a disk-resident
    // table of ten row groups.
    ASSERT_TRUE(db_->Run(R"(
        CREATE COLUMN TABLE local_t (id BIGINT, v DOUBLE);
        CREATE TABLE ext_t (id BIGINT, v DOUBLE) USING EXTENDED STORAGE)")
                    .ok());
    rows.clear();
    for (int64_t i = 0; i < 10 * 4096; ++i) {
      rows.push_back({Value::Int(i), Value::Double(static_cast<double>(i % 11))});
    }
    ASSERT_TRUE(db_->catalog().Insert("local_t", rows).ok());
    ASSERT_TRUE(db_->catalog().Insert("ext_t", rows).ok());
    ASSERT_TRUE(db_->SetParameter("morsel_rows", "1024").ok());
  }

  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static platform::Platform* db_;
};

platform::Platform* ExecutorUnionTest::db_ = nullptr;

TEST_F(ExecutorUnionTest, UnionBranchesIdenticalAcrossThreads) {
  RunAllThreadsIdentical(db_, "SELECT COUNT(*) AS n, SUM(v) AS s FROM hybrid");
  RunAllThreadsIdentical(db_,
                       "SELECT m, COUNT(*) AS n FROM hybrid "
                       "WHERE m >= 40 AND m < 60 GROUP BY m ORDER BY m");
  RunAllThreadsIdentical(db_, "SELECT id, m, v FROM hybrid WHERE m = 10");
}

TEST_F(ExecutorUnionTest, LimitIsPrefixOfUnlimitedResult) {
  // Over a union (cold branch, then hot branch) and over a partitioned
  // scan of 40 morsels, with and without a filter stage, at limits that
  // end inside a chunk, inside a later morsel, at zero, and past the
  // end of the result.
  for (size_t n : {0, 5, 2500, 5999, 7000}) {
    SCOPED_TRACE("LIMIT " + std::to_string(n));
    ExpectLimitIsPrefix(db_, "SELECT id, m FROM hybrid", n);
    ExpectLimitIsPrefix(db_, "SELECT id, v FROM local_t", n);
    ExpectLimitIsPrefix(db_, "SELECT id, v FROM local_t WHERE v > 8", n);
  }
  ExpectLimitIsPrefix(db_, "SELECT id, m FROM hybrid WHERE m >= 45", 100);
}

TEST_F(ExecutorUnionTest, ExtendedLimitStopsReadingBlocks) {
  // ext_t holds ten row groups of two column blocks each. A LIMIT stops
  // the disk scan after the first row group — shipped whole to the
  // extended engine, and scanned directly with federation off.
  extended::ExtendedStoreMetrics& io = db_->iq()->store()->metrics();
  auto touched = [&] { return io.blocks_read + io.cache_hits; };
  for (const char* hint : {"", " WITH HINT (NO_FEDERATION)"}) {
    SCOPED_TRACE(hint);
    io.Reset();
    auto full = db_->Query(std::string("SELECT * FROM ext_t") + hint);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    ASSERT_EQ(full->num_rows(), 10u * 4096);
    const uint64_t full_blocks = touched();
    EXPECT_EQ(full_blocks, 20u);

    io.Reset();
    auto limited =
        db_->Query(std::string("SELECT * FROM ext_t LIMIT 5") + hint);
    ASSERT_TRUE(limited.ok()) << limited.status().ToString();
    ASSERT_EQ(limited->num_rows(), 5u);
    EXPECT_EQ(limited->row(4)[0].int_value(), 4);
    EXPECT_EQ(touched(), 2u) << "full scan touched " << full_blocks;
  }
}

// ---------------------------------------------------------------------
// TPC-H SF 0.01: every benchmark query at thread counts 1/2/4/8 —
// bit-identical to the threads=1 baseline.
// ---------------------------------------------------------------------

class ExecutorTpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new tpch::TpchData(tpch::Generate(0.01));
    db_ = new platform::Platform(platform::PlatformOptions{
        .attach_extended = false, .start_hadoop = false});
    for (const std::string& table : tpch::TpchTableNames()) {
      sql::CreateTableStmt create;
      create.table = table;
      create.columns = tpch::TpchSchema(table)->columns();
      ASSERT_TRUE(db_->catalog().CreateTable(create).ok());
      ASSERT_TRUE(
          db_->catalog().Insert(table, *tpch::TableRows(*data_, table)).ok());
    }
    // Small morsels so SF 0.01 still fans out into many tasks.
    ASSERT_TRUE(db_->SetParameter("morsel_rows", "4096").ok());
  }

  static void TearDownTestSuite() {
    delete db_;
    delete data_;
    db_ = nullptr;
    data_ = nullptr;
  }

  static tpch::TpchData* data_;
  static platform::Platform* db_;
};

tpch::TpchData* ExecutorTpchTest::data_ = nullptr;
platform::Platform* ExecutorTpchTest::db_ = nullptr;

TEST_F(ExecutorTpchTest, AllQueriesBitIdenticalAcrossThreads) {
  for (int q : tpch::BenchmarkQueries()) {
    SCOPED_TRACE("Q" + std::to_string(q));
    RunAllThreadsIdentical(db_, tpch::QueryText(q));
  }
}

TEST_F(ExecutorTpchTest, CpuTimeSumsMorselTimeAcrossWorkers) {
  // One pipeline over ~15 lineitem morsels: its CPU time is the morsel
  // time summed over workers — positive, at most dop x wall at four
  // threads and at most wall when everything runs inline (both with
  // slack for timer granularity).
  const std::string query =
      "SELECT l_orderkey, l_quantity * l_extendedprice AS x FROM lineitem "
      "WHERE l_quantity > 10";
  for (size_t threads : {4, 1}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ASSERT_TRUE(
        db_->SetParameter("threads", std::to_string(threads)).ok());
    ASSERT_TRUE(db_->Query(query).ok());
    const std::vector<PipelineStats>& stats = db_->last_pipeline_stats();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_GT(stats[0].morsels, 4u);
    EXPECT_GT(stats[0].cpu_ms, 0.0);
    EXPECT_LE(stats[0].cpu_ms,
              static_cast<double>(threads) * stats[0].wall_ms * 1.1 + 0.5);
  }
  ASSERT_TRUE(db_->SetParameter("threads", "0").ok());
}

}  // namespace
}  // namespace hana::exec
