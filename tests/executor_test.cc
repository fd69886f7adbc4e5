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
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/evaluator.h"
#include "exec/executor.h"
#include "exec/pipeline.h"
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
  // No equi key: the join builds a keyless radix table over the right
  // side, and its build pipeline reports the nested-loop layout.
  auto nested_loop = [&] {
    size_t builds = 0;
    for (const PipelineStats& p : db_->last_pipeline_stats()) {
      if (p.join_layout == JoinLayout::kNone) continue;
      EXPECT_EQ(p.join_layout, JoinLayout::kNestedLoop) << p.label;
      ++builds;
    }
    return builds;
  };
  storage::Table inner = RunAllThreadsIdentical(
      db_, "SELECT o.k, d.name FROM one_row o JOIN one_dim d ON o.k <= d.k");
  ASSERT_EQ(inner.num_rows(), 1u);
  EXPECT_EQ(nested_loop(), 1u);
  storage::Table left = RunAllThreadsIdentical(
      db_,
      "SELECT o.k, d.name FROM one_row o LEFT JOIN one_dim d ON o.k < d.k");
  ASSERT_EQ(left.num_rows(), 1u);
  EXPECT_TRUE(left.row(0)[1].is_null());
  EXPECT_EQ(nested_loop(), 1u);
  storage::Table cross = RunAllThreadsIdentical(
      db_, "SELECT o.k, d.k FROM one_row o, one_dim d");
  EXPECT_EQ(cross.num_rows(), 1u);
  EXPECT_EQ(nested_loop(), 1u);
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
// Sort: SortChunks orders (chunk, row) references by key cells and
// gathers the rows; ties keep input order at every thread count.
// ---------------------------------------------------------------------

/// The reference order: `rows` stable-sorted by Value::Compare on the
/// values `key(row)` returns, one per (key, ascending) pair.
std::vector<std::vector<Value>> StableSorted(
    std::vector<std::vector<Value>> rows,
    const std::function<std::vector<Value>(const std::vector<Value>&)>& key,
    const std::vector<bool>& ascending) {
  std::stable_sort(rows.begin(), rows.end(),
                   [&](const std::vector<Value>& a,
                       const std::vector<Value>& b) {
                     std::vector<Value> ka = key(a), kb = key(b);
                     for (size_t k = 0; k < ka.size(); ++k) {
                       int cmp = ka[k].Compare(kb[k]);
                       if (cmp != 0) return ascending[k] ? cmp < 0 : cmp > 0;
                     }
                     return false;
                   });
  return rows;
}

storage::Table TableOf(std::shared_ptr<Schema> schema,
                       const std::vector<std::vector<Value>>& rows) {
  storage::Table t(std::move(schema));
  for (const auto& row : rows) t.AppendRow(row);
  return t;
}

class ExecutorSortTest : public ::testing::Test {
 protected:
  static constexpr int64_t kMainRows = 200;
  static constexpr int64_t kRows = 300;

  /// srt: `k` BIGINT with NULLs, `s` VARCHAR with many repeats, `c`
  /// VARCHAR with three values. The first kMainRows rows are merged
  /// into the main (s and c scan as dictionary codes), the rest stay in
  /// the delta (flat strings), so sorts see both forms.
  static void SetUpTestSuite() {
    db_ = new platform::Platform(platform::PlatformOptions{
        .attach_extended = false, .start_hadoop = false});
    ASSERT_TRUE(db_->Run(
        "CREATE COLUMN TABLE srt (id BIGINT, k BIGINT, s VARCHAR(20), "
        "c VARCHAR(8))").ok());
    static const char* kColors[] = {"red", "green", "blue"};
    auto rows = [](int64_t from, int64_t to) {
      std::vector<std::vector<Value>> out;
      for (int64_t i = from; i < to; ++i) {
        const int64_t h = (i * 7919) % 101;
        out.push_back({Value::Int(i),
                       i % 9 == 0 ? Value::Null() : Value::Int(h - 50),
                       Value::String("s" + std::to_string(h % 37)),
                       Value::String(kColors[h % 3])});
      }
      return out;
    };
    ASSERT_TRUE(db_->catalog().Insert("srt", rows(0, kMainRows)).ok());
    ASSERT_TRUE(db_->Execute("MERGE DELTA OF srt").ok());
    ASSERT_TRUE(db_->catalog().Insert("srt", rows(kMainRows, kRows)).ok());
    ASSERT_TRUE(db_->SetParameter("morsel_rows", "64").ok());
  }

  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  /// The rows of `select` in scan order: the sort's input order.
  static std::vector<std::vector<Value>> ScanRows(const std::string& select) {
    EXPECT_TRUE(db_->SetParameter("threads", "1").ok());
    auto scan = db_->Query(select);
    EXPECT_TRUE(scan.ok()) << scan.status().ToString();
    return scan.ok() ? scan->rows() : std::vector<std::vector<Value>>{};
  }

  static platform::Platform* db_;
};

platform::Platform* ExecutorSortTest::db_ = nullptr;

TEST_F(ExecutorSortTest, ComputedKeyDescendingWithNulls) {
  // k % 7 repeats, so ties keep scan order; NULL keys sort last DESC.
  storage::Table sorted = RunAllThreadsIdentical(
      db_, "SELECT id, k FROM srt ORDER BY k % 7 DESC");
  auto expected = StableSorted(
      ScanRows("SELECT id, k FROM srt"),
      [](const std::vector<Value>& r) {
        return std::vector<Value>{
            r[1].is_null() ? Value::Null() : Value::Int(r[1].int_value() % 7)};
      },
      {false});
  ExpectTablesIdentical(TableOf(sorted.schema(), expected), sorted,
                        "ORDER BY k % 7 DESC");
  ASSERT_EQ(sorted.num_rows(), static_cast<size_t>(kRows));
  EXPECT_TRUE(sorted.row(kRows - 1)[1].is_null());
  EXPECT_FALSE(sorted.row(0)[1].is_null());
}

TEST_F(ExecutorSortTest, StringKeyMixesDictionaryCodesAndFlatStrings) {
  // Main chunks carry s as codes of the main's sorted dictionary, delta
  // chunks as flat strings: the order is the strings' order either way.
  storage::Table sorted = RunAllThreadsIdentical(
      db_, "SELECT id, s FROM srt ORDER BY s DESC, id");
  auto expected = StableSorted(
      ScanRows("SELECT id, s FROM srt"),
      [](const std::vector<Value>& r) {
        return std::vector<Value>{r[1], r[0]};
      },
      {false, true});
  ExpectTablesIdentical(TableOf(sorted.schema(), expected), sorted,
                        "ORDER BY s DESC, id");
  // The gather met both forms: it flattened the codes it had adopted.
  ASSERT_TRUE(db_->Query("SELECT id, s FROM srt ORDER BY s DESC, id").ok());
  uint64_t flattened = 0;
  for (const PipelineStats& p : db_->last_pipeline_stats()) {
    if (p.label.ends_with("-> sort")) flattened += p.dict_flattened_rows;
  }
  EXPECT_GT(flattened, 0u);
}

TEST_F(ExecutorSortTest, TiesKeepInputOrderAtEveryThreadCount) {
  storage::Table sorted =
      RunAllThreadsIdentical(db_, "SELECT id, c FROM srt ORDER BY c");
  auto expected = StableSorted(
      ScanRows("SELECT id, c FROM srt"),
      [](const std::vector<Value>& r) { return std::vector<Value>{r[1]}; },
      {true});
  ExpectTablesIdentical(TableOf(sorted.schema(), expected), sorted,
                        "ORDER BY c");
}

TEST_F(ExecutorSortTest, FailingKeyErrorIsTheSameAtEveryThreadCount) {
  // CAST('red' AS BIGINT) fails on the first row in scan order (id 0).
  std::string first;
  for (const char* threads : {"1", "2", "4", "8"}) {
    ASSERT_TRUE(db_->SetParameter("threads", threads).ok());
    auto r = db_->Query("SELECT id FROM srt ORDER BY CAST(c AS BIGINT) + id");
    ASSERT_FALSE(r.ok()) << threads;
    if (first.empty()) first = r.status().ToString();
    EXPECT_EQ(r.status().ToString(), first) << threads;
  }
  EXPECT_NE(first.find("'red'"), std::string::npos) << first;
}

/// CAST(column `c` AS BIGINT) over a chunk of VARCHARs.
plan::BoundExprPtr CastToBigint(size_t c) {
  auto cast = std::make_unique<plan::BoundExpr>();
  cast->kind = plan::BoundKind::kCast;
  cast->type = DataType::kInt64;
  cast->child0 = plan::BoundExpr::Column(c, DataType::kString, "c");
  return cast;
}

TEST(SortChunks, FailingKeyNamesTheFirstFailingRow) {
  // Two CAST keys over 64-row chunks: in the second chunk key 0 fails
  // on row 120 and key 1 on row 70, and key 0 fails again in the third
  // chunk. Row by row, row 70's second key is the first failure.
  auto schema = std::make_shared<Schema>(std::vector<ColumnDef>{
      {"a", DataType::kString, false}, {"b", DataType::kString, false}});
  std::vector<storage::Chunk> chunks;
  std::vector<std::vector<Value>> rows;
  for (int64_t i = 0; i < 200; ++i) {
    if (i % 64 == 0) chunks.push_back(storage::Chunk::Empty(schema));
    std::string a = i == 120 || i == 150 ? "a" + std::to_string(i)
                                         : std::to_string(i % 5);
    std::string b = i == 70 ? "b70" : std::to_string(i % 3);
    rows.push_back({Value::String(a), Value::String(b)});
    chunks.back().AppendRow(rows.back());
  }
  std::vector<plan::SortKey> keys(2);
  keys[0].expr = CastToBigint(0);
  keys[1].expr = CastToBigint(1);
  // Reference: the boxed evaluation, row-major over (row, key).
  Status expected;
  for (const auto& row : rows) {
    for (const plan::SortKey& k : keys) {
      if (expected.ok()) expected = EvalExprRow(*k.expr, row).status();
    }
  }
  ASSERT_FALSE(expected.ok());
  EXPECT_NE(expected.ToString().find("b70"), std::string::npos)
      << expected.ToString();
  auto sorted = SortChunks(keys, chunks, schema);
  ASSERT_FALSE(sorted.ok());
  EXPECT_EQ(sorted.status().ToString(), expected.ToString());
}

TEST(SortChunks, MatchesBoxedStableSortOnEveryType) {
  // Random chunks of every key type with NULLs, sorted on mixed
  // ASC/DESC keys, against a boxed stable sort by Value::Compare.
  auto schema = std::make_shared<Schema>(std::vector<ColumnDef>{
      {"i", DataType::kInt64, true},   {"d", DataType::kDouble, true},
      {"t", DataType::kDate, true},    {"b", DataType::kBool, true},
      {"s", DataType::kString, true},  {"id", DataType::kInt64, false}});
  uint64_t seed = 42;
  auto next = [&]() {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return seed >> 33;
  };
  std::vector<storage::Chunk> chunks;
  std::vector<std::vector<Value>> rows;
  for (size_t chunk_rows : {0, 1, 7, 100, 2048, 300}) {
    chunks.push_back(storage::Chunk::Empty(schema));
    for (size_t r = 0; r < chunk_rows; ++r) {
      auto maybe = [&](Value v) { return next() % 6 == 0 ? Value::Null() : v; };
      std::vector<Value> row = {
          maybe(Value::Int(static_cast<int64_t>(next() % 9) - 4)),
          maybe(Value::Double(static_cast<double>(next() % 7) * 0.5 - 1.0)),
          maybe(Value::Date(static_cast<int64_t>(next() % 5))),
          maybe(Value::Bool(next() % 2 == 0)),
          maybe(Value::String("v" + std::to_string(next() % 11))),
          Value::Int(static_cast<int64_t>(rows.size()))};
      rows.push_back(row);
      chunks.back().AppendRow(row);
    }
  }
  const std::vector<std::vector<std::pair<size_t, bool>>> orders = {
      {{0, true}}, {{1, false}}, {{2, true}, {3, false}},
      {{4, false}, {0, true}}, {{3, true}, {4, true}, {1, false}}};
  for (const auto& order : orders) {
    std::vector<plan::SortKey> keys;
    std::vector<bool> ascending;
    for (const auto& [c, asc] : order) {
      plan::SortKey key;
      key.expr = plan::BoundExpr::Column(c, schema->column(c).type, "k");
      key.ascending = asc;
      keys.push_back(std::move(key));
      ascending.push_back(asc);
    }
    auto expected = StableSorted(
        rows,
        [&](const std::vector<Value>& r) {
          std::vector<Value> k;
          for (const auto& [c, asc] : order) k.push_back(r[c]);
          return k;
        },
        ascending);
    auto sorted = SortChunks(keys, chunks, schema);
    ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
    storage::Table got(schema);
    for (const storage::Chunk& chunk : *sorted) {
      EXPECT_LE(chunk.num_rows(), storage::kDefaultChunkRows);
      got.AppendChunk(chunk);
    }
    ExpectTablesIdentical(TableOf(schema, expected), got,
                          "order of " + std::to_string(order.size()) +
                              " keys, first column " +
                              std::to_string(order[0].first));
  }
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

TEST(PipelineCpuTime, BlockedMorselIsNotCpuTime) {
  // A map-reduce table function whose job sleeps 50 ms inside the
  // pipeline's one morsel: the wall time covers the sleep, the CPU time
  // (the worker thread's CPU clock) does not.
  platform::Platform db;
  ASSERT_TRUE(db.Run(R"(
      CREATE REMOTE SOURCE MRSERVER ADAPTER hadoop CONFIGURATION
        'webhdfs=http://mrserver1:50070;webhcatalog=http://mrserver1:50111'
        WITH CREDENTIAL TYPE 'password' USING 'user=hadoop;password=pw')")
                  .ok());
  auto sleepy_job = [](hadoop::HiveEngine*) -> Result<storage::Table> {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    auto schema = std::make_shared<Schema>(
        std::vector<ColumnDef>{{"n", DataType::kInt64, false}});
    storage::Table result(schema);
    for (int64_t i = 0; i < 10; ++i) result.AppendRow({Value::Int(i)});
    return result;
  };
  ASSERT_TRUE(
      db.RegisterMapReduceJob("com.example.SleepDriver", sleepy_job).ok());
  ASSERT_TRUE(db.Run(R"(
      CREATE VIRTUAL FUNCTION SLEEPY()
        RETURNS TABLE (n BIGINT)
        CONFIGURATION 'hana.mapred.driver.class = com.example.SleepDriver'
        AT MRSERVER)")
                  .ok());
  auto r = db.Query("SELECT n FROM SLEEPY()");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_rows(), 10u);
  const std::vector<PipelineStats>& stats = db.last_pipeline_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_NE(stats[0].label.find("table function"), std::string::npos)
      << stats[0].label;
  EXPECT_GE(stats[0].wall_ms, 50.0);
  EXPECT_LT(stats[0].cpu_ms, 25.0);
}

}  // namespace
}  // namespace hana::exec
