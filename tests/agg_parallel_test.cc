// The radix-partitioned two-phase parallel aggregation must be
// observably identical to serial execution: morsel partials fold per
// partition in ascending morsel order and the final emit is a
// rank-ordered merge reproducing the serial first-seen group order — so
// every GROUP BY below must produce bit-identical results across thread
// counts (1/2/4/8) and CPU kernel bindings (scalar/native), and the
// vectorized key path must agree with the boxed-key fallback, with
// NULL group keys, DISTINCT aggregates, mixed-type keys, empty inputs
// and the TPC-H Q1 shape.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/pipeline.h"
#include "platform/platform.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace hana::exec {
namespace {

class AggParallelTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 40000;

  static void SetUpTestSuite() {
    db_ = new platform::Platform(platform::PlatformOptions{
        .attach_extended = false, .start_hadoop = false});

    // One fact table covering both cardinality regimes: g_lo has ~64
    // distinct groups, g_hi ~20000 (one group per other row). Every
    // 19th g_lo and every 23rd g_hi key is NULL; d is a double group
    // key for the boxed multi-type path; tag is a string group key.
    sql::CreateTableStmt fact;
    fact.table = "fact";
    fact.columns = {{"id", DataType::kInt64, false},
                    {"g_lo", DataType::kInt64, true},
                    {"g_hi", DataType::kInt64, true},
                    {"d", DataType::kDouble, false},
                    {"v", DataType::kDouble, false},
                    {"tag", DataType::kString, false}};
    ASSERT_TRUE(db_->catalog().CreateTable(fact).ok());
    static const char* kTags[] = {"red", "green", "blue", "cyan"};
    std::vector<std::vector<Value>> rows;
    rows.reserve(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      // Deterministic pseudo-random payload; no RNG so the fixture is
      // reproducible across runs and platforms.
      int64_t h = static_cast<int64_t>((i * 2654435761u) % 1000000);
      rows.push_back({Value::Int(static_cast<int64_t>(i)),
                      h % 19 == 0 ? Value::Null() : Value::Int(h % 64),
                      h % 23 == 0 ? Value::Null() : Value::Int(h % 20000),
                      Value::Double((h % 97) * 0.25),
                      Value::Double((h % 1000) * 0.05),
                      Value::String(kTags[h % 4])});
    }
    ASSERT_TRUE(db_->catalog().Insert("fact", rows).ok());

    sql::CreateTableStmt empty;
    empty.table = "empty_fact";
    empty.columns = {{"g", DataType::kInt64, true},
                     {"v", DataType::kDouble, false}};
    ASSERT_TRUE(db_->catalog().CreateTable(empty).ok());

    // Small morsels so the accumulate phase fans out into many partials.
    ASSERT_TRUE(db_->SetParameter("morsel_rows", "2048").ok());
  }

  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  void TearDown() override {
    ASSERT_TRUE(db_->SetParameter("threads", "0").ok());
    ASSERT_TRUE(db_->SetParameter("agg_partitions", "0").ok());
    ASSERT_TRUE(db_->SetParameter("cpu", "native").ok());
  }

  static void ExpectTablesIdentical(const storage::Table& a,
                                    const storage::Table& b,
                                    const std::string& context) {
    ASSERT_EQ(a.num_rows(), b.num_rows()) << context;
    ASSERT_EQ(a.schema()->num_columns(), b.schema()->num_columns())
        << context;
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

  /// The full determinism matrix: a threads=1 baseline versus every
  /// thread count x CPU binding, asserted bit-identical cell for cell
  /// including row order (no ORDER BY needed — the rank-ordered emit
  /// pins the group order to serial first-seen).
  void ExpectIdenticalAcrossMatrix(const std::string& query) {
    ASSERT_TRUE(db_->SetParameter("threads", "1").ok());
    auto baseline = db_->Query(query);
    ASSERT_TRUE(baseline.ok()) << query << ": "
                               << baseline.status().ToString();

    for (const char* cpu : {"scalar", "native"}) {
      ASSERT_TRUE(db_->SetParameter("cpu", cpu).ok());
      for (const char* threads : {"1", "2", "4", "8"}) {
        ASSERT_TRUE(db_->SetParameter("threads", threads).ok());
        auto run = db_->Query(query);
        ASSERT_TRUE(run.ok()) << query << ": " << run.status().ToString();
        ExpectTablesIdentical(*baseline, *run,
                              query + " [cpu=" + cpu + " threads=" +
                                  threads + "]");
      }
    }
    ASSERT_TRUE(db_->SetParameter("cpu", "native").ok());
  }

  /// The vectorized key path versus the boxed-key fallback: adding a
  /// NULL literal (a kNull-typed key no typed cell storage covers) to
  /// `group_by` forces every group key into boxed Values without
  /// changing the groups, so both queries must agree bit for bit.
  void ExpectBoxedFallbackIdentical(const std::string& select,
                                    const std::string& group_by) {
    ASSERT_TRUE(db_->SetParameter("threads", "4").ok());
    const std::string query = select + " GROUP BY " + group_by;
    auto vectorized = db_->Query(query);
    ASSERT_TRUE(vectorized.ok())
        << query << ": " << vectorized.status().ToString();

    const std::string boxed_query = query + ", NULL";
    auto boxed = db_->Query(boxed_query);
    ASSERT_TRUE(boxed.ok())
        << boxed_query << ": " << boxed.status().ToString();
    ExpectTablesIdentical(*vectorized, *boxed, boxed_query);
  }

  static platform::Platform* db_;
};

platform::Platform* AggParallelTest::db_ = nullptr;

TEST_F(AggParallelTest, LowCardinalityGroupBy) {
  ExpectIdenticalAcrossMatrix(
      "SELECT g_lo, COUNT(*) AS n, SUM(v) AS sv, AVG(v) AS av, "
      "MIN(v) AS mn, MAX(v) AS mx FROM fact GROUP BY g_lo");
}

TEST_F(AggParallelTest, HighCardinalityGroupBy) {
  ExpectIdenticalAcrossMatrix(
      "SELECT g_hi, COUNT(*) AS n, SUM(v) AS sv FROM fact GROUP BY g_hi");
}

TEST_F(AggParallelTest, NullGroupKeysFormOneGroup) {
  // NULLs group together (unlike join keys, which never match); the
  // NULL group's aggregates and position must match serial execution.
  ExpectIdenticalAcrossMatrix(
      "SELECT g_lo, g_hi, COUNT(*) AS n, SUM(v) AS sv FROM fact "
      "GROUP BY g_lo, g_hi");
}

TEST_F(AggParallelTest, MixedTypeKeysStayColumnWise) {
  // Double + string group keys: only the first int-lane column can use
  // the hash_i64 kernel, so these hash cell-at-a-time — but still
  // column-wise (no per-row Value boxing) and still partitioned.
  ResetAggExecStats();
  ExpectIdenticalAcrossMatrix(
      "SELECT d, tag, COUNT(*) AS n, SUM(v) AS sv FROM fact "
      "GROUP BY d, tag");
  EXPECT_GT(GlobalAggExecStats().vectorized_chunks.load(), 0u);
  EXPECT_EQ(GlobalAggExecStats().boxed_rows.load(), 0u);
}

TEST_F(AggParallelTest, NullTypedKeyUsesBoxedKeys) {
  // A kNull-typed group key has no typed cell storage, so the whole key
  // takes the boxed fallback: per-row boxed Value key vectors —
  // observable through the boxed-row and allocation counters.
  ResetAggExecStats();
  ASSERT_TRUE(db_->SetParameter("threads", "4").ok());
  auto r = db_->Query(
      "SELECT g_lo, COUNT(*) AS n, SUM(v) AS sv FROM fact GROUP BY g_lo, "
      "NULL");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(GlobalAggExecStats().boxed_rows.load(), 0u);
  EXPECT_GT(GlobalAggExecStats().key_allocs.load(), 0u);
  EXPECT_EQ(GlobalAggExecStats().vectorized_chunks.load(), 0u);
}

TEST_F(AggParallelTest, DistinctAggregates) {
  ExpectIdenticalAcrossMatrix(
      "SELECT g_lo, COUNT(DISTINCT tag) AS dt, SUM(DISTINCT d) AS sd "
      "FROM fact GROUP BY g_lo");
}

TEST_F(AggParallelTest, GlobalAggregateNoGroupBy) {
  ExpectIdenticalAcrossMatrix(
      "SELECT COUNT(*) AS n, SUM(v) AS sv, MIN(g_hi) AS mn FROM fact");
}

TEST_F(AggParallelTest, EmptyInputGlobalGroup) {
  // A global aggregate over zero rows still emits its one group
  // (COUNT=0, SUM=NULL); a grouped aggregate emits nothing.
  ExpectIdenticalAcrossMatrix(
      "SELECT COUNT(*) AS n, SUM(v) AS sv FROM empty_fact");
  ExpectIdenticalAcrossMatrix(
      "SELECT g, COUNT(*) AS n FROM empty_fact GROUP BY g");
}

TEST_F(AggParallelTest, AggregateOnTopOfJoin) {
  ExpectIdenticalAcrossMatrix(R"(
      SELECT a.g_lo, COUNT(*) AS n, SUM(a.v) AS sv
      FROM fact a JOIN fact b ON a.g_hi = b.g_hi
      WHERE b.id < 2000 GROUP BY a.g_lo)");
}

TEST_F(AggParallelTest, BoxedFallbackIdentical) {
  ExpectBoxedFallbackIdentical(
      "SELECT g_hi, COUNT(*) AS n, SUM(v) AS sv FROM fact", "g_hi");
  ExpectBoxedFallbackIdentical(
      "SELECT g_lo, COUNT(DISTINCT tag) AS dt FROM fact", "g_lo");
  ExpectBoxedFallbackIdentical("SELECT d, tag, COUNT(*) AS n FROM fact",
                               "d, tag");
}

TEST_F(AggParallelTest, ForcedPartitionCountsIdentical) {
  // The partition count shapes the schedule, never the result: any
  // forced count must reproduce the default's output exactly.
  ASSERT_TRUE(db_->SetParameter("threads", "4").ok());
  const std::string query =
      "SELECT g_hi, COUNT(*) AS n, SUM(v) AS sv FROM fact GROUP BY g_hi";
  auto base = db_->Query(query);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  for (const char* parts : {"1", "2", "8", "64"}) {
    ASSERT_TRUE(db_->SetParameter("agg_partitions", parts).ok());
    auto run = db_->Query(query);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ExpectTablesIdentical(*base, *run,
                          query + " [agg_partitions=" + parts + "]");
  }
}

TEST_F(AggParallelTest, PartitionedAggCounters) {
  ResetAggExecStats();
  ASSERT_TRUE(db_->SetParameter("threads", "4").ok());
  auto r = db_->Query(
      "SELECT g_hi, COUNT(*) AS n FROM fact GROUP BY g_hi");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(GlobalAggExecStats().partitioned_aggs.load(), 0u);
  EXPECT_GT(GlobalAggExecStats().vectorized_chunks.load(), 0u);
  EXPECT_GT(GlobalAggExecStats().partition_merges.load(), 0u);
  // Vectorized int64 keys never box per-row Value vectors.
  EXPECT_EQ(GlobalAggExecStats().boxed_rows.load(), 0u);
}

TEST_F(AggParallelTest, ExplainShowsPartitionedAgg) {
  auto plan = db_->Explain(
      "SELECT g_hi, COUNT(*) AS n FROM fact GROUP BY g_hi");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("[partitioned-agg x"), std::string::npos) << *plan;

  // Low-cardinality keys get fewer partitions than the 64 maximum; the
  // 64-distinct g_lo column fits one ~512-group partition.
  auto plan2 = db_->Explain(
      "SELECT g_lo, COUNT(*) AS n FROM fact GROUP BY g_lo");
  ASSERT_TRUE(plan2.ok()) << plan2.status().ToString();
  EXPECT_NE(plan2->find("[partitioned-agg x1]"), std::string::npos)
      << *plan2;
}

TEST_F(AggParallelTest, ConjunctionFastPathEquivalence) {
  // Integer conjunctions run as compare kernels over Kleene masks;
  // results (incl. NULL semantics: a NULL comparand never passes) must
  // match the scalar evaluator exactly across the matrix, and no row
  // may fall back to the boxed evaluator.
  ExpectIdenticalAcrossMatrix(
      "SELECT id, g_hi, v FROM fact WHERE g_lo = 7 AND g_hi < 9000");
  ExpectIdenticalAcrossMatrix(
      "SELECT g_lo, COUNT(*) AS n FROM fact "
      "WHERE g_hi > 100 AND id < 30000 GROUP BY g_lo");

  ASSERT_TRUE(db_->SetParameter("threads", "4").ok());
  auto r = db_->Query(
      "SELECT COUNT(*) AS n FROM fact WHERE g_lo = 7 AND g_hi < 9000");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(db_->last_pipeline_stats().empty());
  for (const exec::PipelineStats& p : db_->last_pipeline_stats()) {
    EXPECT_EQ(p.scalar_rows, 0u) << p.label;
  }
}

// TPC-H Q1: the canonical sum/avg-heavy aggregation, bit-identical
// across thread counts at SF 0.01.
class TpchAggParallelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new platform::Platform(platform::PlatformOptions{
        .attach_extended = false, .start_hadoop = false});
    tpch::TpchData data = tpch::Generate(0.01);
    for (const std::string& table : tpch::TpchTableNames()) {
      sql::CreateTableStmt create;
      create.table = table;
      create.columns = tpch::TpchSchema(table)->columns();
      ASSERT_TRUE(db_->catalog().CreateTable(create).ok());
      ASSERT_TRUE(
          db_->catalog().Insert(table, *tpch::TableRows(data, table)).ok());
    }
    ASSERT_TRUE(db_->SetParameter("morsel_rows", "4096").ok());
  }

  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static platform::Platform* db_;
};

platform::Platform* TpchAggParallelTest::db_ = nullptr;

TEST_F(TpchAggParallelTest, Q1SerialParallelIdentical) {
  std::string sql = tpch::QueryText(1);

  ASSERT_TRUE(db_->SetParameter("threads", "1").ok());
  auto baseline = db_->Query(sql);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  for (const char* threads : {"1", "2", "4", "8"}) {
    ASSERT_TRUE(db_->SetParameter("threads", threads).ok());
    auto run = db_->Query(sql);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_EQ(baseline->num_rows(), run->num_rows());
    for (size_t r = 0; r < baseline->num_rows(); ++r) {
      for (size_t c = 0; c < baseline->row(r).size(); ++c) {
        EXPECT_TRUE(baseline->row(r)[c] == run->row(r)[c])
            << "threads=" << threads << " row " << r << " col " << c;
      }
    }
  }
  ASSERT_TRUE(db_->SetParameter("threads", "0").ok());
}

}  // namespace
}  // namespace hana::exec
