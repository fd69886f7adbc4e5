#include "platform/platform.h"

#include <gtest/gtest.h>

#include "common/strings.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace hana::platform {
namespace {

TEST(PlatformSmoke, LocalSqlRoundTrip) {
  Platform db;
  ASSERT_TRUE(db.Run(R"(
      CREATE COLUMN TABLE t (id BIGINT NOT NULL, name VARCHAR(20),
                             score DOUBLE);
      INSERT INTO t VALUES (1, 'alpha', 1.5), (2, 'beta', 2.5),
                           (3, 'gamma', 3.5);
  )").ok());
  auto rows = db.Query("SELECT COUNT(*) AS n, SUM(score) AS s FROM t");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->num_rows(), 1u);
  EXPECT_EQ(rows->row(0)[0].int_value(), 3);
  EXPECT_DOUBLE_EQ(rows->row(0)[1].double_value(), 7.5);

  auto filtered = db.Query(
      "SELECT name FROM t WHERE score > 2 AND name LIKE '%a%'");
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  EXPECT_EQ(filtered->num_rows(), 2u);
}

TEST(PlatformSmoke, JoinsAggregatesSubqueries) {
  Platform db;
  ASSERT_TRUE(db.Run(R"(
      CREATE TABLE dept (dept_id BIGINT, dept_name VARCHAR(20));
      CREATE TABLE emp (emp_id BIGINT, dept_id BIGINT, salary DOUBLE);
      INSERT INTO dept VALUES (1, 'sales'), (2, 'eng'), (3, 'empty');
      INSERT INTO emp VALUES (1, 1, 100.0), (2, 1, 200.0), (3, 2, 400.0);
  )").ok());
  auto joined = db.Query(R"(
      SELECT d.dept_name, SUM(e.salary) AS total
      FROM dept d JOIN emp e ON d.dept_id = e.dept_id
      GROUP BY d.dept_name)");
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ(joined->num_rows(), 2u);

  auto anti = db.Query(R"(
      SELECT dept_name FROM dept
      WHERE dept_id NOT IN (SELECT dept_id FROM emp))");
  ASSERT_TRUE(anti.ok()) << anti.status().ToString();
  ASSERT_EQ(anti->num_rows(), 1u);
  EXPECT_EQ(anti->row(0)[0].string_value(), "empty");

  auto exists = db.Query(R"(
      SELECT dept_name FROM dept d
      WHERE EXISTS (SELECT * FROM emp e
                    WHERE e.dept_id = d.dept_id AND e.salary > 300))");
  ASSERT_TRUE(exists.ok()) << exists.status().ToString();
  ASSERT_EQ(exists->num_rows(), 1u);
  EXPECT_EQ(exists->row(0)[0].string_value(), "eng");

  auto left = db.Query(R"(
      SELECT d.dept_name, COUNT(e.emp_id) AS n
      FROM dept d LEFT JOIN emp e ON d.dept_id = e.dept_id
      GROUP BY d.dept_name)");
  ASSERT_TRUE(left.ok()) << left.status().ToString();
  EXPECT_EQ(left->num_rows(), 3u);
}

class FederatedTpchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = tpch::Generate(0.002);
    db_ = std::make_unique<Platform>();
    // Local tables (paper setup) + a local PART copy for Q14/Q19.
    for (const std::string& table :
         {std::string("supplier"), std::string("nation"),
          std::string("region"), std::string("part_local")}) {
      sql::CreateTableStmt create;
      create.table = table;
      create.columns = tpch::TpchSchema(table)->columns();
      ASSERT_TRUE(db_->catalog().CreateTable(create).ok());
      ASSERT_TRUE(
          db_->catalog().Insert(table, *tpch::TableRows(data_, table)).ok());
    }
    // Remote tables live in Hive.
    for (const std::string& table :
         {std::string("lineitem"), std::string("customer"),
          std::string("orders"), std::string("partsupp"),
          std::string("part")}) {
      ASSERT_TRUE(
          db_->hive()->CreateTable(table, tpch::TpchSchema(table)).ok());
      ASSERT_TRUE(
          db_->hive()->LoadRows(table, *tpch::TableRows(data_, table)).ok());
    }
    ASSERT_TRUE(db_->Run(R"(
        CREATE REMOTE SOURCE HIVE1 ADAPTER "hiveodbc" CONFIGURATION
          'DSN=hive1' WITH CREDENTIAL TYPE 'PASSWORD'
          USING 'user=dfuser;password=dfpass';
        CREATE VIRTUAL TABLE lineitem AT "HIVE1"."dflo"."dflo"."lineitem";
        CREATE VIRTUAL TABLE customer AT "HIVE1"."dflo"."dflo"."customer";
        CREATE VIRTUAL TABLE orders AT "HIVE1"."dflo"."dflo"."orders";
        CREATE VIRTUAL TABLE partsupp AT "HIVE1"."dflo"."dflo"."partsupp";
        CREATE VIRTUAL TABLE part AT "HIVE1"."dflo"."dflo"."part";
    )").ok());
  }

  std::string PartTable(int q) {
    return q == 14 || q == 19 ? "part_local" : "part";
  }

  tpch::TpchData data_;
  std::unique_ptr<Platform> db_;
};

TEST_F(FederatedTpchTest, AllBenchmarkQueriesExecute) {
  for (int q : tpch::BenchmarkQueries()) {
    SCOPED_TRACE("Q" + std::to_string(q));
    auto result = db_->Execute(tpch::QueryText(q, PartTable(q)));
    ASSERT_TRUE(result.ok()) << "Q" << q << ": "
                             << result.status().ToString();
    EXPECT_GT(result->metrics.simulated_remote_ms, 0.0) << "Q" << q;
  }
}

TEST_F(FederatedTpchTest, FederatedMatchesLocalExecution) {
  // Load everything locally into a second platform and compare results.
  Platform local;
  for (const std::string& table : tpch::TpchTableNames()) {
    sql::CreateTableStmt create;
    create.table = table;
    create.columns = tpch::TpchSchema(table)->columns();
    ASSERT_TRUE(local.catalog().CreateTable(create).ok());
    ASSERT_TRUE(
        local.catalog().Insert(table, *tpch::TableRows(data_, table)).ok());
  }
  for (int q : {1, 3, 6, 12, 14}) {
    SCOPED_TRACE("Q" + std::to_string(q));
    auto fed = db_->Query(tpch::QueryText(q, PartTable(q)));
    auto loc = local.Query(tpch::QueryText(q, "part"));
    ASSERT_TRUE(fed.ok()) << fed.status().ToString();
    ASSERT_TRUE(loc.ok()) << loc.status().ToString();
    ASSERT_EQ(fed->num_rows(), loc->num_rows());
  }
}

TEST_F(FederatedTpchTest, WholeShippedQueryRunsOnPipelines) {
  // Q1 reads only LINEITEM, so it ships to Hive whole; the remote query
  // is a pipeline source like any other.
  const std::string q1 = tpch::QueryText(1);
  auto result = db_->Execute(q1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->metrics.remote_calls, 0u);
  const std::vector<exec::PipelineStats>& stats = db_->last_pipeline_stats();
  ASSERT_FALSE(stats.empty());
  EXPECT_NE(stats.back().label.find("remote query"), std::string::npos)
      << stats.back().label;
  EXPECT_EQ(stats.back().rows, result->table.num_rows());

  auto plan = db_->Explain(q1);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const size_t pipelines = plan->find("Pipelines:");
  ASSERT_NE(pipelines, std::string::npos) << *plan;
  for (const std::string& line : Split(plan->substr(0, pipelines), '\n')) {
    if (line.empty()) continue;
    EXPECT_NE(line.find("[P"), std::string::npos) << line;
  }
}

TEST(PlatformTableFunction, SqlQueryOverMapReduceFunction) {
  // A map-reduce job exposed as a virtual table function, queried with
  // a filter, an ORDER BY and a LIMIT.
  Platform db;
  ASSERT_TRUE(db.Run(R"(
      CREATE REMOTE SOURCE MRSERVER ADAPTER hadoop CONFIGURATION
        'webhdfs=http://mrserver1:50070;webhcatalog=http://mrserver1:50111'
        WITH CREDENTIAL TYPE 'password' USING 'user=hadoop;password=pw')")
                  .ok());
  ASSERT_TRUE(db.RegisterMapReduceJob(
                    "com.example.CodeCountDriver",
                    [](hadoop::HiveEngine*) -> Result<storage::Table> {
                      auto schema = std::make_shared<Schema>(
                          std::vector<ColumnDef>{
                              {"code", DataType::kString, false},
                              {"claims", DataType::kInt64, false}});
                      storage::Table result(schema);
                      for (int64_t i = 0; i < 5000; ++i) {
                        result.AppendRow({Value::String("C" + std::to_string(i)),
                                          Value::Int((i * 7919) % 1000)});
                      }
                      return result;
                    })
                  .ok());
  ASSERT_TRUE(db.Run(R"(
      CREATE VIRTUAL FUNCTION CODE_COUNTS()
        RETURNS TABLE (code VARCHAR(20), claims BIGINT)
        CONFIGURATION 'hana.mapred.driver.class = com.example.CodeCountDriver'
        AT MRSERVER)")
                  .ok());
  auto top = db.Query(R"(
      SELECT code, claims FROM CODE_COUNTS()
      WHERE claims > 990 ORDER BY claims DESC, code LIMIT 3)");
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  ASSERT_EQ(top->num_rows(), 3u);
  // claims = (i * 7919) % 1000 hits 999 for i = 321, 1321, ..., 4321.
  EXPECT_EQ(top->row(0)[1].int_value(), 999);
  EXPECT_EQ(top->row(0)[0].string_value(), "C1321");
  EXPECT_EQ(top->row(1)[0].string_value(), "C2321");
  EXPECT_EQ(top->row(2)[0].string_value(), "C321");
  EXPECT_NE(db.last_pipeline_stats().front().label.find("table function"),
            std::string::npos);
}

TEST_F(FederatedTpchTest, RemoteCacheHitIsFasterAndCorrect) {
  ASSERT_TRUE(db_->SetParameter("enable_remote_cache", "true").ok());
  std::string q6 = tpch::QueryText(6) + " WITH HINT (USE_REMOTE_CACHE)";

  auto cold = db_->Execute(q6);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_TRUE(cold->metrics.remote_materialization);
  EXPECT_FALSE(cold->metrics.remote_cache_hit);

  auto warm = db_->Execute(q6);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->metrics.remote_cache_hit);
  EXPECT_LT(warm->metrics.simulated_remote_ms,
            cold->metrics.simulated_remote_ms);

  auto normal = db_->Execute(tpch::QueryText(6));
  ASSERT_TRUE(normal.ok());
  ASSERT_EQ(normal->table.num_rows(), warm->table.num_rows());
  EXPECT_NEAR(normal->table.row(0)[0].double_value(),
              warm->table.row(0)[0].double_value(), 1e-6);
}

}  // namespace
}  // namespace hana::platform
