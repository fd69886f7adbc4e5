// The morsel-parallel radix hash join must be observably identical to
// serial execution: the build-side morsel decomposition depends only on
// table size and morsel_rows, partition buffers concatenate in morsel
// order, bucket chains iterate in ascending build-row order and probe
// output merges in morsel order — so every join below must produce
// bit-identical results at threads=1 and threads=8, for every join
// kind, with NULL keys, duplicate keys, residual predicates, an empty
// build side and a build side larger than the probe side.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "plan/binder.h"
#include "platform/platform.h"
#include "sql/parser.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace hana::exec {
namespace {

class JoinParallelTest : public ::testing::Test {
 protected:
  static constexpr size_t kFactRows = 20000;
  static constexpr size_t kDimRows = 500;
  static constexpr size_t kBigDimRows = 30000;  // Larger than the probe.
  static constexpr size_t kWideDuplicates = 2100;  // > kDefaultChunkRows.
  static constexpr size_t kDatedRows = 3000;

  static void SetUpTestSuite() {
    db_ = new platform::Platform(platform::PlatformOptions{
        .attach_extended = false, .start_hadoop = false});

    // Probe side: keys hit ~kDimRows distinct values so duplicates are
    // plentiful on both sides; every 23rd key is NULL.
    sql::CreateTableStmt fact;
    fact.table = "fact";
    fact.columns = {{"id", DataType::kInt64, false},
                    {"k", DataType::kInt64, true},
                    {"v", DataType::kDouble, false},
                    {"tag", DataType::kString, false}};
    ASSERT_TRUE(db_->catalog().CreateTable(fact).ok());
    static const char* kTags[] = {"red", "green", "blue"};
    std::vector<std::vector<Value>> rows;
    rows.reserve(kFactRows);
    for (size_t i = 0; i < kFactRows; ++i) {
      // Deterministic pseudo-random payload; no RNG so the fixture is
      // reproducible across runs and platforms.
      int64_t h = static_cast<int64_t>((i * 2654435761u) % 100000);
      rows.push_back({Value::Int(static_cast<int64_t>(i)),
                      h % 23 == 0 ? Value::Null() : Value::Int(h % 600),
                      Value::Double((h % 1000) * 0.05),
                      Value::String(kTags[h % 3])});
    }
    ASSERT_TRUE(db_->catalog().Insert("fact", rows).ok());

    // Build side: duplicate keys (two rows per k for k % 5 == 0) and
    // NULL keys (k % 31 == 0), covering ~5/6 of the probe key range.
    sql::CreateTableStmt dim;
    dim.table = "dim";
    dim.columns = {{"k", DataType::kInt64, true},
                   {"w", DataType::kDouble, false},
                   {"name", DataType::kString, false}};
    ASSERT_TRUE(db_->catalog().CreateTable(dim).ok());
    rows.clear();
    for (size_t i = 0; i < kDimRows; ++i) {
      Value key = i % 31 == 0 ? Value::Null()
                              : Value::Int(static_cast<int64_t>(i));
      rows.push_back({key, Value::Double(static_cast<double>(i % 40)),
                      Value::String("d" + std::to_string(i))});
      if (i % 5 == 0) {
        rows.push_back({key, Value::Double(static_cast<double>(i % 7)),
                        Value::String("dup" + std::to_string(i))});
      }
    }
    ASSERT_TRUE(db_->catalog().Insert("dim", rows).ok());

    // A build side larger than the probe side.
    sql::CreateTableStmt bigdim;
    bigdim.table = "bigdim";
    bigdim.columns = {{"k", DataType::kInt64, true},
                      {"w", DataType::kDouble, false}};
    ASSERT_TRUE(db_->catalog().CreateTable(bigdim).ok());
    rows.clear();
    rows.reserve(kBigDimRows);
    for (size_t i = 0; i < kBigDimRows; ++i) {
      int64_t h = static_cast<int64_t>((i * 40503u) % 100000);
      rows.push_back({h % 29 == 0 ? Value::Null() : Value::Int(h % 600),
                      Value::Double((h % 100) * 0.5)});
    }
    ASSERT_TRUE(db_->catalog().Insert("bigdim", rows).ok());

    // Residual batches: a probe side whose first 50 rows carry keys 7,
    // 8, 9, 11 and NULL (the rest miss every build key; 20000 rows keep
    // the inner join building on the right), a build side with 2100
    // duplicates of keys 7 and 8 each — more candidates per probe row
    // than one kDefaultChunkRows batch — and a small build side whose
    // strings CAST to BIGINT except 'x'.
    sql::CreateTableStmt wprobe;
    wprobe.table = "wprobe";
    wprobe.columns = {{"id", DataType::kInt64, false},
                      {"k", DataType::kInt64, true},
                      {"v", DataType::kDouble, false}};
    ASSERT_TRUE(db_->catalog().CreateTable(wprobe).ok());
    rows.clear();
    static const int64_t kProbeKeys[] = {7, 8, 9, 11, -1};
    for (size_t i = 0; i < kFactRows; ++i) {
      const int64_t k =
          i < 50 ? kProbeKeys[i % 5] : 1000 + static_cast<int64_t>(i);
      rows.push_back({Value::Int(static_cast<int64_t>(i)),
                      k < 0 ? Value::Null() : Value::Int(k),
                      Value::Double(static_cast<double>(i % 4) * 10.0)});
    }
    ASSERT_TRUE(db_->catalog().Insert("wprobe", rows).ok());

    sql::CreateTableStmt wide;
    wide.table = "wide_dim";
    wide.columns = {{"id", DataType::kInt64, false},
                    {"k", DataType::kInt64, true},
                    {"w", DataType::kDouble, false}};
    ASSERT_TRUE(db_->catalog().CreateTable(wide).ok());
    rows.clear();
    for (size_t i = 0; i < 2 * kWideDuplicates; ++i) {
      const bool seven = i < kWideDuplicates;
      const double j = static_cast<double>(seven ? i : i - kWideDuplicates);
      rows.push_back({Value::Int(static_cast<int64_t>(i)),
                      Value::Int(seven ? 7 : 8),
                      Value::Double(seven ? j : j * 0.01)});
    }
    ASSERT_TRUE(db_->catalog().Insert("wide_dim", rows).ok());

    sql::CreateTableStmt cast;
    cast.table = "cast_dim";
    cast.columns = {{"k", DataType::kInt64, true},
                    {"s", DataType::kString, false}};
    ASSERT_TRUE(db_->catalog().CreateTable(cast).ok());
    rows.clear();
    for (const auto& [k, str] : std::vector<std::pair<int64_t, std::string>>{
             {7, "1"}, {7, "x"}, {7, "x"}, {9, "-20"}, {9, "1"}, {9, "x"},
             {11, "-50"}, {11, "-40"}}) {
      rows.push_back({Value::Int(k), Value::String(str)});
    }
    ASSERT_TRUE(db_->catalog().Insert("cast_dim", rows).ok());

    // Mixed-type keys: a DATE over fact's key range, and BIGINTs above
    // 2^53 next to DOUBLEs that round onto them (NULLs in every column).
    sql::CreateTableStmt dated;
    dated.table = "dated";
    dated.columns = {{"id", DataType::kInt64, false},
                     {"day", DataType::kDate, true},
                     {"big", DataType::kInt64, true},
                     {"bigd", DataType::kDouble, true}};
    ASSERT_TRUE(db_->catalog().CreateTable(dated).ok());
    rows.clear();
    constexpr int64_t kTwo53 = int64_t{1} << 53;
    for (size_t i = 0; i < kDatedRows; ++i) {
      const int64_t h = static_cast<int64_t>((i * 40503u) % 100000);
      rows.push_back(
          {Value::Int(static_cast<int64_t>(i)),
           i % 7 == 0 ? Value::Null() : Value::Date(h % 700),
           i % 11 == 0 ? Value::Null() : Value::Int(kTwo53 + h % 64),
           i % 13 == 0 ? Value::Null()
                       : Value::Double(static_cast<double>(kTwo53 + h % 61))});
    }
    ASSERT_TRUE(db_->catalog().Insert("dated", rows).ok());

    sql::CreateTableStmt empty;
    empty.table = "empty_dim";
    empty.columns = {{"k", DataType::kInt64, true},
                     {"w", DataType::kDouble, false}};
    ASSERT_TRUE(db_->catalog().CreateTable(empty).ok());

    // Small morsels so both sides fan out into many build/probe tasks.
    ASSERT_TRUE(db_->SetParameter("morsel_rows", "1000").ok());
  }

  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  void TearDown() override {
    ASSERT_TRUE(db_->SetParameter("threads", "0").ok());
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
    ExpectTablesIdentical(*serial, *parallel, query);
  }

  /// Runs `query` at threads 1/2/4/8 under both CPU bindings (scalar
  /// and native) and asserts every result is identical to the first,
  /// then that it equals `reference` when one is given.
  void ExpectIdenticalAcrossMatrix(const std::string& query,
                                   const std::string& reference = "") {
    ASSERT_TRUE(db_->SetParameter("threads", "1").ok());
    auto baseline = db_->Query(query);
    ASSERT_TRUE(baseline.ok())
        << query << ": " << baseline.status().ToString();
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
    if (reference.empty()) return;
    auto expected = db_->Query(reference);
    ASSERT_TRUE(expected.ok())
        << reference << ": " << expected.status().ToString();
    ExpectTablesIdentical(*expected, *baseline, query);
  }

  /// Whether a join build of `stats` finalized the `layout` table;
  /// HashJoined: a radix or perfect-hash one.
  static bool HasLayout(const std::vector<PipelineStats>& stats,
                        JoinLayout layout) {
    for (const PipelineStats& p : stats) {
      if (p.join_layout == layout) return true;
    }
    return false;
  }
  static bool HashJoined(const std::vector<PipelineStats>& stats) {
    return HasLayout(stats, JoinLayout::kRadix) ||
           HasLayout(stats, JoinLayout::kPerfectHash);
  }
  static bool NestedLooped(const std::vector<PipelineStats>& stats) {
    return HasLayout(stats, JoinLayout::kNestedLoop);
  }

  /// Runs `query` on the radix hash join and on an independent
  /// implementation — the nested-loop join, reached by spelling the
  /// equi condition `equi` as the non-equi `nested_loop` — and asserts
  /// identical results. Under a left-side build the two emit matches in
  /// different orders, so such callers pass queries whose ORDER BY pins
  /// a total row order.
  void ExpectRadixMatchesNestedLoop(const std::string& query,
                                    const std::string& equi,
                                    const std::string& nested_loop) {
    ASSERT_TRUE(db_->SetParameter("threads", "8").ok());
    auto radix = db_->Query(query);
    ASSERT_TRUE(radix.ok()) << query << ": " << radix.status().ToString();
    EXPECT_TRUE(HashJoined(db_->last_pipeline_stats())) << query;
    EXPECT_FALSE(NestedLooped(db_->last_pipeline_stats())) << query;

    std::string nl_query = query;
    ASSERT_NE(nl_query.find(equi), std::string::npos) << query;
    nl_query.replace(nl_query.find(equi), equi.size(), nested_loop);
    auto nl = db_->Query(nl_query);
    ASSERT_TRUE(nl.ok()) << nl_query << ": " << nl.status().ToString();
    EXPECT_FALSE(HashJoined(db_->last_pipeline_stats())) << nl_query;
    EXPECT_TRUE(NestedLooped(db_->last_pipeline_stats())) << nl_query;
    ExpectTablesIdentical(*nl, *radix, query);
  }

  /// Binds `query` — one join, a SELECT list and WHERE clause reading
  /// only the join's left side — turns the join into a `kind` join,
  /// then optimizes and executes it at `threads` (default 8), so one
  /// inner-join query with a residual also runs as a semi and as an
  /// anti join. `stats` receives the pipeline stats.
  static Result<storage::Table> QueryAsJoinKind(
      const std::string& query, plan::JoinKind kind,
      std::vector<PipelineStats>* stats = nullptr,
      const char* threads = "8") {
    HANA_RETURN_IF_ERROR(db_->SetParameter("threads", threads));
    HANA_ASSIGN_OR_RETURN(auto stmt, sql::ParseSelect(query));
    HANA_ASSIGN_OR_RETURN(plan::LogicalOpPtr logical,
                          plan::BindSelectStatement(db_->catalog(), *stmt));
    plan::LogicalOp* join = logical.get();
    while (join->kind != plan::LogicalKind::kJoin) {
      if (join->children.empty()) return Status::Internal("no join");
      join = join->children[0].get();
    }
    join->join_kind = kind;
    join->schema = join->children[0]->schema;
    optimizer::OptimizeContext ctx;
    ctx.catalog = &db_->catalog();
    HANA_RETURN_IF_ERROR(optimizer::Optimize(&logical, ctx));
    std::vector<PipelineStats> own;
    return ExecutePlanWithStats(*logical, db_,
                                stats != nullptr ? stats : &own);
  }

  /// `query` with its equi condition `equi` spelled as `nested_loop`.
  static std::string NestedLoopQuery(const std::string& query,
                                     const std::string& equi,
                                     const std::string& nested_loop) {
    std::string nl_query = query;
    const size_t at = nl_query.find(equi);
    EXPECT_NE(at, std::string::npos) << query;
    if (at != std::string::npos) {
      nl_query.replace(at, equi.size(), nested_loop);
    }
    return nl_query;
  }

  /// ExpectRadixMatchesNestedLoop for the inner join `query` run as a
  /// semi and as an anti join (QueryAsJoinKind).
  void ExpectExistenceJoinsMatchNestedLoop(const std::string& query,
                                           const std::string& equi,
                                           const std::string& nested_loop) {
    const std::string nl_query = NestedLoopQuery(query, equi, nested_loop);
    for (plan::JoinKind kind : {plan::JoinKind::kSemi, plan::JoinKind::kAnti}) {
      const std::string context =
          (kind == plan::JoinKind::kSemi ? "semi: " : "anti: ") + query;
      std::vector<PipelineStats> stats;
      auto radix = QueryAsJoinKind(query, kind, &stats);
      ASSERT_TRUE(radix.ok()) << context << ": " << radix.status().ToString();
      EXPECT_TRUE(HashJoined(stats)) << context;
      auto nl = QueryAsJoinKind(nl_query, kind, &stats);
      ASSERT_TRUE(nl.ok()) << context << ": " << nl.status().ToString();
      EXPECT_TRUE(NestedLooped(stats)) << context;
      ExpectTablesIdentical(*nl, *radix, context);
    }
  }

  /// Runs `query` as a `kind` join (inner and left through SQL) on the
  /// radix hash join and on the nested-loop join and asserts both fail
  /// with the same Status.
  void ExpectRadixFailsLikeNestedLoop(const std::string& query,
                                      const std::string& equi,
                                      const std::string& nested_loop,
                                      plan::JoinKind kind) {
    auto run = [&](const std::string& q) {
      if (kind == plan::JoinKind::kSemi || kind == plan::JoinKind::kAnti) {
        return QueryAsJoinKind(q, kind);
      }
      EXPECT_TRUE(db_->SetParameter("threads", "8").ok());
      return db_->Query(q);
    };
    auto radix = run(query);
    ASSERT_FALSE(radix.ok()) << query;
    auto nl = run(NestedLoopQuery(query, equi, nested_loop));
    ASSERT_FALSE(nl.ok()) << query;
    EXPECT_EQ(radix.status().ToString(), nl.status().ToString()) << query;
  }

  static platform::Platform* db_;
};

platform::Platform* JoinParallelTest::db_ = nullptr;

TEST_F(JoinParallelTest, InnerJoinDuplicateAndNullKeys) {
  ExpectSerialParallelIdentical(
      "SELECT f.id, f.k, d.name FROM fact f JOIN dim d ON f.k = d.k");
}

TEST_F(JoinParallelTest, InnerJoinWithResidualPredicate) {
  ExpectSerialParallelIdentical(R"(
      SELECT f.id, d.name, f.v - d.w AS margin
      FROM fact f JOIN dim d ON f.k = d.k AND f.v > d.w)");
}

TEST_F(JoinParallelTest, LeftJoinPadsUnmatchedProbeRows) {
  ExpectSerialParallelIdentical(
      "SELECT f.id, f.k, d.name, d.w FROM fact f LEFT JOIN dim d "
      "ON f.k = d.k");
}

TEST_F(JoinParallelTest, LeftJoinWithResidualPredicate) {
  ExpectSerialParallelIdentical(R"(
      SELECT f.id, d.name FROM fact f LEFT JOIN dim d
      ON f.k = d.k AND d.w > 20)");
}

TEST_F(JoinParallelTest, SemiJoinViaInSubquery) {
  ExpectSerialParallelIdentical(
      "SELECT id, k FROM fact WHERE k IN (SELECT k FROM dim)");
}

TEST_F(JoinParallelTest, SemiJoinViaExists) {
  ExpectSerialParallelIdentical(R"(
      SELECT f.id, f.k FROM fact f
      WHERE EXISTS (SELECT * FROM dim d WHERE d.k = f.k))");
}

TEST_F(JoinParallelTest, AntiJoinViaNotIn) {
  // dim holds NULL keys, so NOT IN rejects every row.
  const std::string with_nulls =
      "SELECT id, k FROM fact WHERE k NOT IN (SELECT k FROM dim)";
  ExpectSerialParallelIdentical(with_nulls);
  auto empty = db_->Query(with_nulls);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_EQ(empty->num_rows(), 0u);
  // Without them, the probe drops NULL-key rows and keeps the misses.
  const std::string null_free =
      "SELECT id, k FROM fact WHERE k NOT IN "
      "(SELECT k FROM dim WHERE k IS NOT NULL)";
  ExpectSerialParallelIdentical(null_free);
  auto kept = db_->Query(null_free);
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  EXPECT_GT(kept->num_rows(), 0u);
  for (size_t r = 0; r < kept->num_rows(); ++r) {
    EXPECT_FALSE(kept->row(r)[1].is_null()) << "row " << r;
  }
}

TEST_F(JoinParallelTest, AntiJoinViaNotExists) {
  ExpectSerialParallelIdentical(R"(
      SELECT f.id, f.k FROM fact f
      WHERE NOT EXISTS (SELECT * FROM dim d WHERE d.k = f.k))");
}

TEST_F(JoinParallelTest, EmptyBuildSide) {
  ExpectSerialParallelIdentical(
      "SELECT f.id, e.w FROM fact f JOIN empty_dim e ON f.k = e.k");
  ExpectSerialParallelIdentical(
      "SELECT f.id, e.w FROM fact f LEFT JOIN empty_dim e ON f.k = e.k");
  ExpectSerialParallelIdentical(R"(
      SELECT f.id FROM fact f
      WHERE NOT EXISTS (SELECT * FROM empty_dim e WHERE e.k = f.k))");
}

TEST_F(JoinParallelTest, BuildSideLargerThanProbe) {
  ExpectSerialParallelIdentical(R"(
      SELECT f.id, b.w FROM fact f JOIN bigdim b ON f.k = b.k
      WHERE f.id < 5000)");
}

TEST_F(JoinParallelTest, JoinFusedWithAggregate) {
  ExpectSerialParallelIdentical(R"(
      SELECT d.name, COUNT(*) AS n, SUM(f.v) AS sv
      FROM fact f JOIN dim d ON f.k = d.k
      GROUP BY d.name ORDER BY d.name)");
}

TEST_F(JoinParallelTest, MixedTypeKeysCastToDouble) {
  // Keys of two numeric types both hash and compare as DOUBLE, which is
  // Value::Compare's rule; the nested-loop join, which evaluates
  // `a <= b AND a >= b` through Value::Compare, must agree row for row.
  struct Case {
    std::string query, equi, nested_loop;
  };
  const std::vector<Case> cases = {
      {"SELECT f.id, d.name FROM fact f JOIN dim d ON f.k = d.w "
       "WHERE f.id < 4000 ORDER BY f.id, d.name",
       "f.k = d.w", "f.k <= d.w AND f.k >= d.w"},  // BIGINT = DOUBLE.
      {"SELECT f.id, t.id FROM fact f JOIN dated t ON t.day = f.k "
       "WHERE f.id < 2000 ORDER BY f.id, t.id",
       "t.day = f.k", "t.day <= f.k AND t.day >= f.k"},  // DATE = BIGINT.
      // BIGINT above 2^53 = DOUBLE: 2^53 + 1 equals the DOUBLE 2^53.
      {"SELECT a.id, b.id, a.big FROM dated a JOIN dated b "
       "ON a.big = b.bigd WHERE a.id < 200 ORDER BY a.id, b.id",
       "a.big = b.bigd", "a.big <= b.bigd AND a.big >= b.bigd"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.query);
    ExpectRadixMatchesNestedLoop(c.query, c.equi, c.nested_loop);
    ExpectIdenticalAcrossMatrix(c.query);
  }
  // The casts run on the kernels: no key row takes the per-row path.
  for (const Case& c : cases) {
    ASSERT_TRUE(db_->Query(c.query).ok()) << c.query;
    for (const PipelineStats& p : db_->last_pipeline_stats()) {
      EXPECT_EQ(p.scalar_rows, 0u) << c.query << ": " << p.label;
    }
  }
  auto big = db_->Query(cases[2].query);
  ASSERT_TRUE(big.ok()) << big.status().ToString();
  bool odd_matched = false;  // An odd key can only match after rounding.
  for (size_t r = 0; r < big->num_rows(); ++r) {
    odd_matched = odd_matched || big->row(r)[2].int_value() % 2 != 0;
  }
  EXPECT_TRUE(odd_matched);
  // LEFT and semi joins over a mixed-type key.
  ExpectIdenticalAcrossMatrix(
      "SELECT f.id, d.name FROM fact f LEFT JOIN dim d ON f.k = d.w "
      "WHERE f.id < 1000");
  ExpectIdenticalAcrossMatrix(
      "SELECT id, k FROM fact WHERE k IN (SELECT w FROM dim)");
}

TEST_F(JoinParallelTest, NullTypedKeysNeverMatch) {
  // A NULL-typed key side takes the other side's type and holds only
  // NULLs: no row matches, and NOT IN over a NULL subquery keeps none.
  ExpectIdenticalAcrossMatrix(
      "SELECT id, k FROM fact WHERE k IN (SELECT NULL FROM dim)",
      "SELECT id, k FROM fact WHERE id < 0");
  ExpectIdenticalAcrossMatrix(
      "SELECT id, k FROM fact WHERE k NOT IN (SELECT NULL FROM dim)",
      "SELECT id, k FROM fact WHERE id < 0");
  ExpectIdenticalAcrossMatrix(
      "SELECT id, k FROM fact WHERE k NOT IN "
      "(SELECT NULL FROM dim WHERE k < 0)",
      "SELECT id, k FROM fact");
}

TEST_F(JoinParallelTest, IncomparableKeysNeverMatch) {
  // Value::Compare never equates VARCHAR with BIGINT. Such a pair joins
  // as a residual (on the other keys' hash join) or as a nested-loop
  // join; either way no pair matches.
  const std::string none = "SELECT f.id, f.k FROM fact f WHERE f.id < 0";
  const std::string probe = "SELECT f.id, f.k FROM fact f WHERE f.id < 500";
  ExpectIdenticalAcrossMatrix(
      "SELECT f.id, f.k FROM fact f JOIN dim d ON f.tag = d.k "
      "WHERE f.id < 500",
      none);
  ExpectIdenticalAcrossMatrix(
      "SELECT f.id, f.k FROM fact f JOIN dim d "
      "ON f.k = d.k AND f.tag = d.k WHERE f.id < 500",
      none);
  ExpectIdenticalAcrossMatrix(
      "SELECT f.id, f.k, d.name FROM fact f LEFT JOIN dim d "
      "ON f.k = d.k AND f.tag = d.k WHERE f.id < 500",
      "SELECT f.id, f.k, CAST(NULL AS VARCHAR) AS name FROM fact f "
      "WHERE f.id < 500");
  ExpectIdenticalAcrossMatrix(
      "SELECT f.id, f.k FROM fact f WHERE f.id < 500 AND "
      "f.tag IN (SELECT k FROM dim)",
      none);
  // NOT IN: a NULL in the subquery rejects every row; without one, each
  // row whose own key is not NULL stays.
  ExpectIdenticalAcrossMatrix(
      "SELECT f.id, f.k FROM fact f WHERE f.id < 500 AND "
      "f.tag NOT IN (SELECT k FROM dim)",
      none);
  ExpectIdenticalAcrossMatrix(
      "SELECT f.id, f.k FROM fact f WHERE f.id < 500 AND "
      "f.tag NOT IN (SELECT k FROM dim WHERE k IS NOT NULL)",
      probe);
  ExpectIdenticalAcrossMatrix(
      "SELECT f.id, f.k FROM fact f WHERE f.id < 500 AND "
      "f.k NOT IN (SELECT name FROM dim)",
      probe + " AND f.k IS NOT NULL");
  // Alone, the pair leaves no key: the nested-loop join. Beside a
  // usable key it is the hash join's residual.
  for (const char* query :
       {"SELECT f.id FROM fact f JOIN dim d ON f.tag = d.k "
        "WHERE f.id < 500",
        "SELECT f.id FROM fact f WHERE f.id < 500 AND "
        "f.tag IN (SELECT k FROM dim)",
        "SELECT f.id FROM fact f WHERE f.id < 500 AND "
        "f.tag NOT IN (SELECT k FROM dim)"}) {
    ASSERT_TRUE(db_->Query(query).ok()) << query;
    EXPECT_TRUE(NestedLooped(db_->last_pipeline_stats())) << query;
    EXPECT_FALSE(HashJoined(db_->last_pipeline_stats())) << query;
  }
  const std::string keyed =
      "SELECT f.id FROM fact f JOIN dim d ON f.k = d.k AND f.tag = d.k "
      "WHERE f.id < 500";
  ASSERT_TRUE(db_->Query(keyed).ok());
  EXPECT_TRUE(HashJoined(db_->last_pipeline_stats())) << keyed;
  EXPECT_FALSE(NestedLooped(db_->last_pipeline_stats())) << keyed;
}

TEST_F(JoinParallelTest, RadixMatchesNestedLoopJoin) {
  // Both joins emit probe rows in order with their matches in build-row
  // order, so no ORDER BY is needed: even float SUMs see the same
  // addition order.
  const std::string equi = "f.k = d.k";
  const std::string nested_loop = "f.k <= d.k AND f.k >= d.k";
  ExpectRadixMatchesNestedLoop(
      "SELECT f.id, d.name FROM fact f JOIN dim d ON f.k = d.k", equi,
      nested_loop);
  ExpectRadixMatchesNestedLoop(
      "SELECT f.id, d.name, d.w FROM fact f LEFT JOIN dim d ON f.k = d.k",
      equi, nested_loop);
  ExpectRadixMatchesNestedLoop(R"(
      SELECT d.name, COUNT(*) AS n, SUM(f.v) AS sv
      FROM fact f JOIN dim d ON f.k = d.k
      GROUP BY d.name ORDER BY d.name)",
                               equi, nested_loop);
}

TEST_F(JoinParallelTest, ExistenceJoinsWithResidualMatchNestedLoop) {
  ExpectExistenceJoinsMatchNestedLoop(R"(
      SELECT f.id, f.k FROM fact f JOIN dim d ON f.k = d.k AND d.w > f.v
      WHERE f.id < 3000)",
                                      "f.k = d.k", "f.k <= d.k AND f.k >= d.k");
}

TEST_F(JoinParallelTest, ResidualCandidatesSpanBatches) {
  // Each probe row with key 7 or 8 has 2100 candidates, so its pairs
  // straddle residual batches; key 7 rows first match past candidate
  // 2060, key 8 rows never match (LEFT pads them, anti keeps them).
  const std::string equi = "p.k = d.k";
  const std::string nested_loop = "p.k <= d.k AND p.k >= d.k";
  const std::string inner = R"(
      SELECT p.id, d.id, d.w FROM wprobe p JOIN wide_dim d
      ON p.k = d.k AND d.w > p.v + 2060.0 WHERE p.id < 50)";
  auto plan = db_->Explain(inner);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->find("[build=left]"), std::string::npos) << *plan;
  ExpectRadixMatchesNestedLoop(inner, equi, nested_loop);
  ExpectRadixMatchesNestedLoop(R"(
      SELECT p.id, d.id, d.w FROM wprobe p LEFT JOIN wide_dim d
      ON p.k = d.k AND d.w > p.v + 2060.0 WHERE p.id < 50)",
                               equi, nested_loop);
  ExpectExistenceJoinsMatchNestedLoop(R"(
      SELECT p.id, p.k FROM wprobe p JOIN wide_dim d
      ON p.k = d.k AND d.w > p.v + 2060.0 WHERE p.id < 50)",
                                      equi, nested_loop);
}

TEST_F(JoinParallelTest, ResidualErrorsFollowTheRowAtATimeProbe) {
  // CAST('x' AS BIGINT) fails. Key 7 and 9 rows find their first match
  // before any 'x' candidate, and key 11 rows have no 'x' candidate, so
  // existence joins (which stop at a row's first match) succeed while
  // inner and left joins, which test every candidate, fail. NULL keys
  // are filtered out: the nested-loop spelling's Kleene AND would reach
  // the CAST on them.
  const std::string equi = "p.k = d.k";
  const std::string nested_loop = "p.k <= d.k AND p.k >= d.k";
  const std::string query = R"(
      SELECT p.id, p.k FROM wprobe p JOIN cast_dim d
      ON p.k = d.k AND CAST(d.s AS BIGINT) + p.k > 0
      WHERE p.id < 50 AND p.k IS NOT NULL)";
  ExpectExistenceJoinsMatchNestedLoop(query, equi, nested_loop);
  ExpectRadixFailsLikeNestedLoop(query, equi, nested_loop,
                                 plan::JoinKind::kInner);
  ExpectRadixFailsLikeNestedLoop(R"(
      SELECT p.id, d.s FROM wprobe p LEFT JOIN cast_dim d
      ON p.k = d.k AND CAST(d.s AS BIGINT) + p.k > 0
      WHERE p.id < 50 AND p.k IS NOT NULL)",
                                 equi, nested_loop, plan::JoinKind::kLeft);
  // With `> 100` no key 7 candidate matches before the first 'x'.
  const std::string early = R"(
      SELECT p.id, p.k FROM wprobe p JOIN cast_dim d
      ON p.k = d.k AND CAST(d.s AS BIGINT) + p.k > 100
      WHERE p.id < 50 AND p.k IS NOT NULL)";
  ExpectRadixFailsLikeNestedLoop(early, equi, nested_loop,
                                 plan::JoinKind::kSemi);
  ExpectRadixFailsLikeNestedLoop(early, equi, nested_loop,
                                 plan::JoinKind::kAnti);
}

TEST_F(JoinParallelTest, RadixJoinLayoutIsReported) {
  ASSERT_TRUE(db_->SetParameter("threads", "8").ok());
  auto r = db_->Query(
      "SELECT COUNT(*) AS n FROM fact f JOIN dim d ON f.k = d.k");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(HashJoined(db_->last_pipeline_stats()));
  EXPECT_FALSE(NestedLooped(db_->last_pipeline_stats()));
}

TEST_F(JoinParallelTest, NestedLoopLayoutIsReported) {
  // No usable equi key: the join leaves the hash path, which must be
  // observable on its build pipeline.
  auto r = db_->Query(R"(
      SELECT COUNT(*) AS n FROM dim a JOIN dim b ON a.k < b.k)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(NestedLooped(db_->last_pipeline_stats()));
  EXPECT_FALSE(HashJoined(db_->last_pipeline_stats()));
}

TEST_F(JoinParallelTest, NestedLoopJoinShapes) {
  // The nested-loop join is the keyless radix table: every shape below
  // is identical at threads 1/2/4/8 (x cpu scalar/native) and reports
  // the nested-loop layout.
  auto expect_nested_loop = [](const std::string& query) {
    ASSERT_TRUE(db_->Query(query).ok()) << query;
    EXPECT_TRUE(NestedLooped(db_->last_pipeline_stats())) << query;
    EXPECT_FALSE(HashJoined(db_->last_pipeline_stats())) << query;
  };
  // 2,500 probe rows (more than one 2048-pair batch per chunk) against
  // a 210-row build filtered out of five 1000-row morsels; keys 7 and 8
  // match 105 build rows each. The equi spelling is the reference.
  const std::string banded = R"(
      SELECT p.id, d.id, d.w FROM wprobe p JOIN wide_dim d
      ON p.k = d.k WHERE p.id < 2500 AND d.id % 20 = 0)";
  ExpectRadixMatchesNestedLoop(banded, "p.k = d.k",
                               "p.k <= d.k AND p.k >= d.k");
  const std::string band = NestedLoopQuery(banded, "p.k = d.k",
                                           "d.w BETWEEN p.v AND p.v + 15.0");
  ExpectIdenticalAcrossMatrix(band);
  expect_nested_loop(band);

  // LEFT, semi and anti joins on a non-equi condition.
  const std::string left =
      "SELECT f.id, d.name FROM fact f LEFT JOIN dim d "
      "ON f.k < d.k - 590 WHERE f.id < 300";
  ExpectIdenticalAcrossMatrix(left);
  expect_nested_loop(left);
  const std::string inner =
      "SELECT f.id, f.k FROM fact f JOIN dim d ON f.k > d.k + 560 "
      "WHERE f.id < 3000";
  for (plan::JoinKind kind : {plan::JoinKind::kSemi, plan::JoinKind::kAnti}) {
    std::vector<PipelineStats> stats;
    auto baseline = QueryAsJoinKind(inner, kind, &stats, "1");
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    EXPECT_GT(baseline->num_rows(), 0u);
    for (const char* threads : {"1", "2", "4", "8"}) {
      auto run = QueryAsJoinKind(inner, kind, &stats, threads);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      ExpectTablesIdentical(*baseline, *run,
                            inner + " [threads=" + threads + "]");
      EXPECT_TRUE(NestedLooped(stats)) << inner;
    }
  }

  // NOT IN over VARCHAR/BIGINT keys with NULLs on either side: a NULL
  // subquery value rejects every row, a NULL outer key every row of a
  // non-empty subquery.
  const std::string probe = "SELECT f.id, f.k FROM fact f WHERE f.id < 2500";
  const std::vector<std::pair<std::string, std::string>> not_in = {
      {probe + " AND f.tag NOT IN (SELECT k FROM dim)", probe + " AND 1 = 0"},
      {probe + " AND f.k NOT IN (SELECT name FROM dim)",
       probe + " AND f.k IS NOT NULL"},
      {probe + " AND f.k NOT IN (SELECT CASE WHEN k IS NULL THEN NULL "
               "ELSE name END FROM dim)",
       probe + " AND 1 = 0"},
      {probe + " AND f.tag NOT IN (SELECT k FROM dim WHERE k IS NOT NULL)",
       probe}};
  for (const auto& [query, reference] : not_in) {
    ExpectIdenticalAcrossMatrix(query, reference);
    expect_nested_loop(query);
  }

  // A cross join: every pair, probe-major.
  const std::string cross =
      "SELECT f.id, d.k FROM fact f, dim d WHERE f.id % 1000 = 0";
  ExpectIdenticalAcrossMatrix(cross);
  expect_nested_loop(cross);
  EXPECT_EQ(db_->Query(cross)->num_rows(), 20u * (kDimRows + kDimRows / 5));

  // CAST('x' AS BIGINT) fails, but every probe row with an 'x'
  // candidate matched an earlier one: existence joins never evaluate
  // it, at any thread count.
  const std::string guarded = R"(
      SELECT p.id, p.k FROM wprobe p JOIN cast_dim d
      ON p.k <= d.k AND p.k >= d.k AND CAST(d.s AS BIGINT) + p.k > 0
      WHERE p.id < 50 AND p.k IS NOT NULL)";
  for (plan::JoinKind kind : {plan::JoinKind::kSemi, plan::JoinKind::kAnti}) {
    for (const char* threads : {"1", "2", "4", "8"}) {
      std::vector<PipelineStats> stats;
      auto run = QueryAsJoinKind(guarded, kind, &stats, threads);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_TRUE(NestedLooped(stats)) << guarded;
    }
  }
}

TEST_F(JoinParallelTest, OptimizerBuildsOnSmallerLeftSide) {
  // dim (~600 rows) JOIN fact (20000 rows): the optimizer should flag
  // the smaller left side as the build side.
  auto plan = db_->Explain(
      "SELECT d.name, f.v FROM dim d JOIN fact f ON d.k = f.k");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("[build=left]"), std::string::npos) << *plan;

  // fact JOIN dim keeps the default right-side build.
  auto plan2 = db_->Explain(
      "SELECT d.name, f.v FROM fact f JOIN dim d ON f.k = d.k");
  ASSERT_TRUE(plan2.ok()) << plan2.status().ToString();
  EXPECT_EQ(plan2->find("[build=left]"), std::string::npos) << *plan2;
}

TEST_F(JoinParallelTest, BuildSideFlipPreservesResults) {
  // The build_left flip must not change output columns or row order.
  ExpectSerialParallelIdentical(
      "SELECT d.name, f.id, f.v FROM dim d JOIN fact f ON d.k = f.k");
  ExpectRadixMatchesNestedLoop(R"(
      SELECT d.name, f.id FROM dim d JOIN fact f ON d.k = f.k
      ORDER BY f.id, d.name)",
                               "d.k = f.k", "d.k <= f.k AND d.k >= f.k");
}

// TPC-H join queries must be bit-identical between serial and parallel
// execution end to end (multi-join plans, group-by on top).
class TpchJoinParallelTest : public ::testing::Test {
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

platform::Platform* TpchJoinParallelTest::db_ = nullptr;

TEST_F(TpchJoinParallelTest, JoinQueriesSerialParallelIdentical) {
  for (int q : {3, 5, 10, 12, 18}) {
    SCOPED_TRACE("Q" + std::to_string(q));
    std::string sql = tpch::QueryText(q);

    ASSERT_TRUE(db_->SetParameter("threads", "1").ok());
    auto serial = db_->Query(sql);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();

    ASSERT_TRUE(db_->SetParameter("threads", "8").ok());
    auto parallel = db_->Query(sql);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

    ASSERT_EQ(serial->num_rows(), parallel->num_rows());
    for (size_t r = 0; r < serial->num_rows(); ++r) {
      for (size_t c = 0; c < serial->row(r).size(); ++c) {
        EXPECT_TRUE(serial->row(r)[c] == parallel->row(r)[c])
            << "row " << r << " col " << c;
      }
    }
    ASSERT_TRUE(db_->SetParameter("threads", "0").ok());
  }
}

}  // namespace
}  // namespace hana::exec
