#include <gtest/gtest.h>

#include <map>
#include <regex>
#include <sstream>

#include "common/util.h"
#include "optimizer/statistics.h"
#include "platform/platform.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace hana::optimizer {
namespace {

// ---------------------------------------------------------------------
// Histograms / statistics
// ---------------------------------------------------------------------

TEST(HistogramTest, UniformRangeEstimates) {
  Rng rng(1);
  std::vector<Value> values;
  for (int i = 0; i < 10000; ++i) {
    values.push_back(Value::Int(rng.Uniform(0, 999)));
  }
  Histogram h = Histogram::Build(values, 32);
  EXPECT_EQ(h.total_rows(), 10000u);
  // A 10% range should estimate close to 10%.
  double frac = h.EstimateRangeFraction(Value::Int(100), Value::Int(199));
  EXPECT_NEAR(frac, 0.1, 0.03);
  EXPECT_NEAR(h.EstimateRangeFraction(Value::Null(), Value::Null()), 1.0,
              1e-9);
  EXPECT_DOUBLE_EQ(
      h.EstimateRangeFraction(Value::Int(5000), Value::Int(6000)), 0.0);
}

TEST(HistogramTest, EqualityEstimateOnSkew) {
  std::vector<Value> values;
  for (int i = 0; i < 900; ++i) values.push_back(Value::Int(1));
  for (int i = 0; i < 100; ++i) values.push_back(Value::Int(i + 2));
  Histogram h = Histogram::Build(values, 8);
  // The heavy hitter sits alone in its bucket(s): estimate near 0.9.
  EXPECT_GT(h.EstimateEqFraction(Value::Int(1)), 0.5);
  EXPECT_LT(h.EstimateEqFraction(Value::Int(50)), 0.05);
}

TEST(HistogramTest, QErrorBoundIsTracked) {
  Rng rng(7);
  std::vector<Value> values;
  for (int i = 0; i < 5000; ++i) {
    values.push_back(Value::Int(rng.Uniform(0, 200)));
  }
  Histogram h = Histogram::Build(values, 16, /*q_bound=*/2.0);
  EXPECT_GE(h.max_q_error(), 1.0);
  // The refinement loop must have produced a usable bound.
  EXPECT_LT(h.max_q_error(), 4.0);
}

TEST(HistogramTest, EmptyAndSingleton) {
  Histogram empty = Histogram::Build({}, 8);
  EXPECT_DOUBLE_EQ(empty.EstimateEqFraction(Value::Int(1)), 0.0);
  Histogram one = Histogram::Build({Value::Int(7)}, 8);
  EXPECT_DOUBLE_EQ(one.EstimateEqFraction(Value::Int(7)), 1.0);
}

TEST(CollectStatsTest, MinMaxDistinctNulls) {
  auto schema = std::make_shared<Schema>(std::vector<ColumnDef>{
      {"a", DataType::kInt64, true}, {"s", DataType::kString, true}});
  storage::ColumnTable table(schema);
  for (int i = 0; i < 100; ++i) {
    (void)table.AppendRow(
        {i % 10 == 0 ? Value::Null() : Value::Int(i),
         Value::String("s" + std::to_string(i % 5))});
  }
  TableStats stats = CollectStats(table);
  EXPECT_EQ(stats.row_count, 100u);
  EXPECT_EQ(stats.columns[0].num_nulls, 10u);
  EXPECT_EQ(stats.columns[0].min.int_value(), 1);
  EXPECT_EQ(stats.columns[0].max.int_value(), 99);
  EXPECT_EQ(stats.columns[1].num_distinct, 5u);
  EXPECT_NE(stats.columns[0].histogram, nullptr);
  EXPECT_EQ(stats.columns[1].histogram, nullptr);  // Strings: none.
}

// ---------------------------------------------------------------------
// Plan rewrites + federation split (inspected via EXPLAIN).
// ---------------------------------------------------------------------

class OptimizerPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<platform::Platform>();
    ASSERT_TRUE(db_->Run(R"(
        CREATE COLUMN TABLE dim (k BIGINT, name VARCHAR(20));
        CREATE TABLE fact (id BIGINT, k BIGINT, v DOUBLE)
          USING EXTENDED STORAGE)").ok());
    std::vector<std::vector<Value>> dims, facts;
    for (int64_t i = 0; i < 100; ++i) {
      dims.push_back({Value::Int(i),
                      Value::String("d" + std::to_string(i))});
    }
    Rng rng(3);
    for (int64_t i = 0; i < 5000; ++i) {
      facts.push_back({Value::Int(i), Value::Int(rng.Uniform(0, 99)),
                       Value::Double(1.0)});
    }
    ASSERT_TRUE(db_->catalog().Insert("dim", dims).ok());
    ASSERT_TRUE(db_->catalog().Insert("fact", facts).ok());
  }

  std::string Plan(const std::string& sql) {
    auto plan = db_->Explain(sql);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? *plan : "";
  }

  std::unique_ptr<platform::Platform> db_;
};

TEST_F(OptimizerPlanTest, FullyRemoteSubtreeShipsAsOneQuery) {
  std::string plan = Plan(
      "SELECT k, SUM(v) FROM fact WHERE id < 100 GROUP BY k");
  EXPECT_NE(plan.find("Remote Row Scan @EXTENDED"), std::string::npos);
  // The aggregate shipped: no local Aggregate above the remote scan.
  EXPECT_EQ(plan.find("Aggregate GROUP BY"), std::string::npos);
}

TEST_F(OptimizerPlanTest, SemijoinStrategyChosenForSelectiveProbe) {
  std::string plan = Plan(R"(
      SELECT d.name, SUM(f.v) FROM dim d JOIN fact f ON d.k = f.k
      WHERE d.name = 'd42' GROUP BY d.name)");
  EXPECT_NE(plan.find("/*PUSHDOWN*/"), std::string::npos) << plan;
}

TEST_F(OptimizerPlanTest, NoFederationHintKeepsScanLocal) {
  std::string plan = Plan(
      "SELECT COUNT(*) FROM fact WITH HINT (NO_FEDERATION)");
  EXPECT_EQ(plan.find("Remote Row Scan"), std::string::npos);
  EXPECT_NE(plan.find("Extended Storage Scan"), std::string::npos);
}

TEST_F(OptimizerPlanTest, FilterPushdownReachesScans) {
  std::string plan = Plan(R"(
      SELECT d.name FROM dim d, fact f
      WHERE d.k = f.k AND d.name = 'd1' AND f.v > 0)");
  // The comma-join became an inner join with a recovered condition and
  // per-side filters below it (visible as remote WHERE + local filter).
  EXPECT_EQ(plan.find("CROSS Join"), std::string::npos) << plan;
}

TEST_F(OptimizerPlanTest, StrategyResultsAgree) {
  // Property: every federation strategy returns the same answer.
  const char* query = R"(
      SELECT d.name, SUM(f.v) AS s FROM dim d JOIN fact f ON d.k = f.k
      WHERE d.name = 'd7' GROUP BY d.name)";
  std::vector<FederationStrategy> strategies = {
      FederationStrategy::kRemoteScanOnly, FederationStrategy::kSemijoin,
      FederationStrategy::kRelocation, FederationStrategy::kAuto};
  double expected = -1;
  for (FederationStrategy strategy : strategies) {
    db_->optimizer_options().strategy = strategy;
    auto result = db_->Query(query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->num_rows(), 1u);
    double sum = result->row(0)[1].double_value();
    if (expected < 0) {
      expected = sum;
    } else {
      EXPECT_DOUBLE_EQ(sum, expected);
    }
  }
}

TEST_F(OptimizerPlanTest, HybridExpandsToUnionAndPrunes) {
  ASSERT_TRUE(db_->Run(R"(
      CREATE TABLE hyb (id BIGINT, m BIGINT) USING HYBRID EXTENDED STORAGE
        PARTITION BY RANGE (m)
          (PARTITION VALUES < 10 COLD, PARTITION OTHERS HOT))").ok());
  std::vector<std::vector<Value>> rows;
  for (int64_t i = 0; i < 100; ++i) {
    rows.push_back({Value::Int(i), Value::Int(i % 20)});
  }
  ASSERT_TRUE(db_->catalog().Insert("hyb", rows).ok());

  std::string full = Plan("SELECT COUNT(*) FROM hyb");
  EXPECT_NE(full.find("Union All"), std::string::npos);

  // Predicate on the partition column prunes the cold branch entirely.
  std::string pruned = Plan("SELECT COUNT(*) FROM hyb WHERE m >= 15");
  EXPECT_EQ(pruned.find("Union All"), std::string::npos) << pruned;
  EXPECT_EQ(pruned.find("@EXTENDED"), std::string::npos) << pruned;

  auto result = db_->Query("SELECT COUNT(*) AS n FROM hyb WHERE m >= 15");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->row(0)[0].int_value(), 25);
}

TEST_F(OptimizerPlanTest, EstimateRowsSanity) {
  // Scans estimate their table size; filters reduce it.
  auto binding = db_->catalog().ResolveTable("fact");
  ASSERT_TRUE(binding.ok());
  EXPECT_DOUBLE_EQ(binding->estimated_rows, 5000.0);
}

TEST_F(OptimizerPlanTest, RemoteSqlRoundTripsThroughRemoteEngine) {
  // Property: for a set of shippable shapes, the reconstructed SQL
  // executes remotely and matches local execution.
  const char* queries[] = {
      "SELECT COUNT(*) AS n FROM fact",
      "SELECT k, COUNT(*) AS n FROM fact WHERE v > 0 GROUP BY k",
      "SELECT id FROM fact WHERE k = 3 AND id < 500",
      "SELECT SUM(v * 2) AS s FROM fact WHERE id < 1000",
  };
  for (const char* query : queries) {
    db_->optimizer_options().enable_federation = true;
    auto fed = db_->Query(query);
    ASSERT_TRUE(fed.ok()) << query << ": " << fed.status().ToString();
    auto local = db_->Query(std::string(query) +
                            " WITH HINT (NO_FEDERATION)");
    ASSERT_TRUE(local.ok()) << query;
    EXPECT_EQ(fed->num_rows(), local->num_rows()) << query;
  }
}

// The hybrid-table history aggregate splits through the union: the cold
// branch ships a narrow GROUP BY and the hot branch aggregates only the
// columns the query uses.
TEST_F(OptimizerPlanTest, HistoryAggregateSplitsThroughUnion) {
  ASSERT_TRUE(db_->Run(R"(
      CREATE TABLE order_line (ol_o_id BIGINT, ol_d_id BIGINT,
        ol_w_id BIGINT, ol_number BIGINT, ol_i_id BIGINT,
        ol_supply_w_id BIGINT, ol_delivery_d DATE, ol_quantity BIGINT,
        ol_amount DOUBLE, ol_dist_info VARCHAR(24))
        USING HYBRID EXTENDED STORAGE PARTITION BY RANGE (ol_o_id)
          (PARTITION VALUES < 100 COLD, PARTITION OTHERS HOT))").ok());
  std::vector<std::vector<Value>> rows;
  for (int64_t i = 0; i < 2000; ++i) {
    rows.push_back({Value::Int(i / 10), Value::Int(1), Value::Int(1),
                    Value::Int(i % 10), Value::Int(i * 7), Value::Int(1),
                    Value::Date(16436 + i), Value::Int(1 + i % 5),
                    Value::Double(0.25 * static_cast<double>(i)),
                    Value::String("dist" + std::to_string(i))});
  }
  ASSERT_TRUE(db_->catalog().Insert("order_line", rows).ok());

  std::string plan = Plan(
      "SELECT ol_number, COUNT(*) AS n, SUM(ol_quantity) AS qty, "
      "SUM(ol_amount) AS amount FROM order_line GROUP BY ol_number");
  std::istringstream lines(plan);
  std::string remote;
  for (std::string line; std::getline(lines, line);) {
    if (line.find("Remote Row Scan @EXTENDED") != std::string::npos) {
      remote = line;
    }
  }
  ASSERT_FALSE(remote.empty()) << plan;
  EXPECT_NE(remote.find("GROUP BY"), std::string::npos) << plan;
  EXPECT_EQ(remote.find("ol_dist_info"), std::string::npos) << plan;
  EXPECT_EQ(remote.find("ol_i_id"), std::string::npos) << plan;
  EXPECT_NE(plan.find("[final]"), std::string::npos) << plan;
  EXPECT_NE(plan.find("[partial]"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Column Scan order_line PARTITION 1 [3/10 cols]"),
            std::string::npos)
      << plan;

  // COUNT(DISTINCT ...) partials cannot combine: one aggregate stays
  // above the union.
  std::string distinct = Plan(
      "SELECT ol_number, COUNT(DISTINCT ol_i_id) AS items FROM order_line "
      "GROUP BY ol_number");
  EXPECT_EQ(distinct.find("[partial]"), std::string::npos) << distinct;
  EXPECT_EQ(distinct.find("[final]"), std::string::npos) << distinct;
  size_t agg = distinct.find("Aggregate GROUP BY");
  ASSERT_NE(agg, std::string::npos) << distinct;
  EXPECT_LT(agg, distinct.find("Union All")) << distinct;
  EXPECT_EQ(distinct.find("Aggregate GROUP BY", agg + 1), std::string::npos)
      << distinct;
}

// EXPLAIN reports how many table columns each scan decodes.
TEST(ColumnPruningPlanTest, ScanLinesShowDecodedColumns) {
  platform::Platform db(platform::PlatformOptions{
      .attach_extended = false, .start_hadoop = false});
  tpch::TpchData data = tpch::Generate(0.001);
  for (const std::string& table : {std::string("lineitem"),
                                   std::string("orders")}) {
    sql::CreateTableStmt create;
    create.table = table;
    create.columns = tpch::TpchSchema(table)->columns();
    ASSERT_TRUE(db.catalog().CreateTable(create).ok());
    ASSERT_TRUE(db.catalog().Insert(table, *tpch::TableRows(data, table)).ok());
  }
  auto q6 = db.Explain(tpch::QueryText(6));
  ASSERT_TRUE(q6.ok()) << q6.status().ToString();
  // l_shipdate, l_discount, l_quantity, l_extendedprice.
  EXPECT_NE(q6->find("Column Scan lineitem [4/16 cols]"), std::string::npos)
      << *q6;
  auto q4 = db.Explain(tpch::QueryText(4));
  ASSERT_TRUE(q4.ok()) << q4.status().ToString();
  // EXISTS (SELECT * ...) still reads only l_orderkey, l_commitdate and
  // l_receiptdate; orders contributes its key, date and priority.
  EXPECT_NE(q4->find("Column Scan lineitem [3/16 cols]"), std::string::npos)
      << *q4;
  EXPECT_NE(q4->find("Column Scan orders [3/9 cols]"), std::string::npos)
      << *q4;
}

// The stats passes read column domains through each scan's
// scan_columns, so they annotate plans over pruned scans exactly as they
// did when every scan still decoded all of its table's columns. The
// expected lines (EXPLAIN line number, then the annotations on it) were
// recorded from that unpruned layout.
std::string StatsAnnotations(const std::string& plan) {
  static const std::regex kAnnotation(
      R"(\[(perfect-hash|partitioned-agg x[0-9]+)\])");
  std::string out;
  std::istringstream lines(plan);
  std::string line;
  for (int n = 1; std::getline(lines, line); ++n) {
    std::string found;
    for (std::sregex_iterator it(line.begin(), line.end(), kAnnotation), end;
         it != end; ++it) {
      found += " " + it->str();
    }
    if (found.empty()) continue;
    out += (out.empty() ? "L" : "; L") + std::to_string(n) + found;
  }
  return out;
}

TEST(StatsPassTest, TpchAnnotationsMatchUnprunedLayout) {
  platform::Platform db(platform::PlatformOptions{
      .attach_extended = false, .start_hadoop = false});
  tpch::TpchData data = tpch::Generate(0.01);
  for (const std::string& table : tpch::TpchTableNames()) {
    sql::CreateTableStmt create;
    create.table = table;
    create.columns = tpch::TpchSchema(table)->columns();
    ASSERT_TRUE(db.catalog().CreateTable(create).ok());
    ASSERT_TRUE(db.catalog().Insert(table, *tpch::TableRows(data, table)).ok());
    ASSERT_TRUE(db.Execute("MERGE DELTA OF " + table).ok()) << table;
  }
  const std::map<int, std::string> expected = {
      {1, "L2 [partitioned-agg x1]"},
      {3, "L2 [partitioned-agg x64]; L4 [perfect-hash]"},
      {4, "L2 [partitioned-agg x64]"},
      {5, "L2 [partitioned-agg x64]; L3 [perfect-hash]; L4 [perfect-hash]; "
          "L7 [perfect-hash]"},
      {6, "L2 [partitioned-agg x1]"},
      {10, "L2 [partitioned-agg x64]; L3 [perfect-hash]; L4 [perfect-hash]; "
           "L5 [perfect-hash]"},
      {12, "L2 [partitioned-agg x64]; L3 [perfect-hash]"},
      {13, "L2 [partitioned-agg x64]; L4 [partitioned-agg x64]"},
      {14, "L2 [partitioned-agg x1]; L3 [perfect-hash]"},
      {16, "L2 [partitioned-agg x64]; L4 [perfect-hash]"},
      {18, "L2 [partitioned-agg x64]; L5 [perfect-hash]; "
           "L11 [partitioned-agg x32]"},
      {19, "L2 [partitioned-agg x1]; L3 [perfect-hash]"},
  };
  ASSERT_EQ(expected.size(), tpch::BenchmarkQueries().size());
  for (int q : tpch::BenchmarkQueries()) {
    auto plan = db.Explain(tpch::QueryText(q));
    ASSERT_TRUE(plan.ok()) << "Q" << q << ": " << plan.status().ToString();
    EXPECT_EQ(StatsAnnotations(*plan), expected.at(q)) << "Q" << q << "\n"
                                                       << *plan;
  }
}

// A build key that is not its table's first column: the nomination must
// read the key's own (dense) domain through scan_columns, not that of the
// table column at the key's pruned position (a sparse id).
TEST(StatsPassTest, PerfectHashReadsTheKeyColumnDomain) {
  platform::Platform db(platform::PlatformOptions{
      .attach_extended = false, .start_hadoop = false});
  ASSERT_TRUE(db.Run(R"(
      CREATE COLUMN TABLE keyed (id BIGINT, note VARCHAR(10), k BIGINT);
      CREATE COLUMN TABLE probe (k BIGINT, v DOUBLE))").ok());
  std::vector<std::vector<Value>> keyed, probe;
  for (int64_t i = 0; i < 500; ++i) {
    keyed.push_back(
        {Value::Int(i * 1000003), Value::String("n"), Value::Int(i)});
  }
  for (int64_t i = 0; i < 5000; ++i) {
    probe.push_back({Value::Int(i % 500), Value::Double(1.0)});
  }
  ASSERT_TRUE(db.catalog().Insert("keyed", keyed).ok());
  ASSERT_TRUE(db.catalog().Insert("probe", probe).ok());
  auto plan =
      db.Explain("SELECT p.v FROM probe p JOIN keyed s ON p.k = s.k");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("Column Scan keyed AS s [1/3 cols]"), std::string::npos)
      << *plan;
  EXPECT_NE(plan->find("[perfect-hash]"), std::string::npos) << *plan;
}

}  // namespace
}  // namespace hana::optimizer
