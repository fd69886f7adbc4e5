#include <gtest/gtest.h>

#include "federation/hive_adapter.h"
#include "federation/iq_adapter.h"
#include "federation/sda.h"
#include "platform/platform.h"

namespace hana::federation {
namespace {

class HiveAdapterTest : public ::testing::Test {
 protected:
  HiveAdapterTest()
      : mapreduce_(&hdfs_, {}, &cluster_clock_),
        hive_(&hdfs_, &mapreduce_),
        adapter_(&hive_, &hana_clock_) {
    auto schema = std::make_shared<Schema>(std::vector<ColumnDef>{
        {"k", DataType::kInt64, false}, {"v", DataType::kInt64, false}});
    EXPECT_TRUE(hive_.CreateTable("t", schema).ok());
    std::vector<std::vector<Value>> rows;
    for (int64_t i = 0; i < 50; ++i) {
      rows.push_back({Value::Int(i), Value::Int(i * 2)});
    }
    EXPECT_TRUE(hive_.LoadRows("t", rows).ok());
    adapter_.cache_options().enable_remote_cache = true;
    // Deterministic time source for validity tests.
    adapter_.SetTimeSource([this] { return fake_seconds_; });
  }

  hadoop::Hdfs hdfs_;
  SimClock cluster_clock_;
  SimClock hana_clock_;
  hadoop::MapReduceEngine mapreduce_;
  hadoop::HiveEngine hive_;
  HiveAdapter adapter_;
  double fake_seconds_ = 1000.0;
};

TEST_F(HiveAdapterTest, OrderByReducerMatchesLocalSort) {
  // Hive's ORDER BY reducer and the local sort sink share SortChunks: a
  // computed DESC key with NULLs and ties, then a string key, gives the
  // local engine's rows in the local engine's order.
  auto schema = std::make_shared<Schema>(std::vector<ColumnDef>{
      {"id", DataType::kInt64, false},
      {"x", DataType::kInt64, true},
      {"name", DataType::kString, true}});
  ASSERT_TRUE(hive_.CreateTable("srt", schema).ok());
  platform::Platform local(platform::PlatformOptions{
      .attach_extended = false, .start_hadoop = false});
  ASSERT_TRUE(local
                  .Run("CREATE COLUMN TABLE srt (id BIGINT, x BIGINT, "
                       "name VARCHAR(8))")
                  .ok());
  std::vector<std::vector<Value>> rows;
  for (int64_t i = 0; i < 300; ++i) {
    const int64_t h = (i * 7919) % 97;
    rows.push_back({Value::Int(i),
                    i % 11 == 0 ? Value::Null() : Value::Int(h),
                    i % 13 == 0 ? Value::Null()
                                : Value::String("n" + std::to_string(h % 5))});
  }
  ASSERT_TRUE(hive_.LoadRows("srt", rows).ok());
  ASSERT_TRUE(local.catalog().Insert("srt", rows).ok());
  const std::string query =
      "SELECT id, x, name FROM srt ORDER BY x % 6 DESC, name";
  auto remote = hive_.ExecuteQuery(query);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  ASSERT_TRUE(local.SetParameter("morsel_rows", "64").ok());
  for (const char* threads : {"1", "4"}) {
    ASSERT_TRUE(local.SetParameter("threads", threads).ok());
    auto expected = local.Query(query);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_EQ(remote->table.num_rows(), expected->num_rows());
    for (size_t r = 0; r < expected->num_rows(); ++r) {
      for (size_t c = 0; c < 3; ++c) {
        EXPECT_TRUE(remote->table.row(r)[c] == expected->row(r)[c])
            << "threads " << threads << " row " << r << " col " << c;
      }
    }
  }
  EXPECT_TRUE(remote->table.row(0)[1].is_null() == false);
  EXPECT_TRUE(remote->table.row(299)[1].is_null());
}

TEST_F(HiveAdapterTest, CapabilitiesPropertyFile) {
  std::string props = adapter_.capabilities().ToPropertyFile();
  EXPECT_NE(props.find("CAP_JOINS : true"), std::string::npos);
  EXPECT_NE(props.find("CAP_JOINS_OUTER : true"), std::string::npos);
  EXPECT_NE(props.find("CAP_TRANSACTIONS : false"), std::string::npos);
  EXPECT_NE(props.find("CAP_ORDER_BY : false"), std::string::npos);
}

TEST_F(HiveAdapterTest, SchemaImportAndStats) {
  auto schema = adapter_.FetchTableSchema("t");
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ((*schema)->num_columns(), 2u);
  EXPECT_DOUBLE_EQ(*adapter_.EstimateRows("t"), 50.0);
  EXPECT_FALSE(adapter_.FetchTableSchema("missing").ok());
}

TEST_F(HiveAdapterTest, CacheKeyDependsOnStatementAndHost) {
  HiveAdapter other(&hive_, &hana_clock_, {}, "hive2");
  EXPECT_EQ(adapter_.CacheKey("SELECT 1", ""),
            adapter_.CacheKey("SELECT 1", ""));
  EXPECT_NE(adapter_.CacheKey("SELECT 1", ""),
            adapter_.CacheKey("SELECT 2", ""));
  EXPECT_NE(adapter_.CacheKey("SELECT 1", "p1"),
            adapter_.CacheKey("SELECT 1", "p2"));
  EXPECT_NE(adapter_.CacheKey("SELECT 1", ""),
            other.CacheKey("SELECT 1", ""));
}

TEST_F(HiveAdapterTest, MaterializeOnceThenHit) {
  RemoteQuerySpec spec;
  spec.sql = "SELECT t0.k AS c0 FROM t t0 WHERE t0.k < 10";
  spec.use_cache = true;
  spec.has_predicate = true;

  RemoteStats first;
  auto r1 = adapter_.Execute(spec, &first);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(first.materialized);
  EXPECT_FALSE(first.from_cache);
  EXPECT_EQ(adapter_.cache_entries(), 1u);

  size_t jobs_before = mapreduce_.history().size();
  RemoteStats second;
  auto r2 = adapter_.Execute(spec, &second);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(second.from_cache);
  EXPECT_FALSE(second.materialized);
  EXPECT_EQ(mapreduce_.history().size(), jobs_before);  // No DAG re-run.
  EXPECT_EQ(r1->num_rows(), r2->num_rows());
}

TEST_F(HiveAdapterTest, ValidityWindowExpires) {
  adapter_.cache_options().remote_cache_validity_seconds = 60.0;
  RemoteQuerySpec spec;
  spec.sql = "SELECT t0.k AS c0 FROM t t0 WHERE t0.k < 5";
  spec.use_cache = true;
  spec.has_predicate = true;
  RemoteStats stats;
  ASSERT_TRUE(adapter_.Execute(spec, &stats).ok());
  EXPECT_TRUE(stats.materialized);

  fake_seconds_ += 30;  // Still fresh.
  stats = {};
  ASSERT_TRUE(adapter_.Execute(spec, &stats).ok());
  EXPECT_TRUE(stats.from_cache);

  fake_seconds_ += 61;  // Stale: discarded and re-materialized.
  stats = {};
  ASSERT_TRUE(adapter_.Execute(spec, &stats).ok());
  EXPECT_TRUE(stats.materialized);
  EXPECT_EQ(adapter_.cache_entries(), 1u);
}

TEST_F(HiveAdapterTest, PredicateRuleBlocksFullTableMaterialization) {
  RemoteQuerySpec spec;
  spec.sql = "SELECT t0.k AS c0 FROM t t0";
  spec.use_cache = true;
  spec.has_predicate = false;
  RemoteStats stats;
  ASSERT_TRUE(adapter_.Execute(spec, &stats).ok());
  EXPECT_FALSE(stats.materialized);
  EXPECT_EQ(adapter_.cache_entries(), 0u);
}

TEST_F(HiveAdapterTest, DisabledParameterWinsOverHint) {
  adapter_.cache_options().enable_remote_cache = false;
  RemoteQuerySpec spec;
  spec.sql = "SELECT t0.k AS c0 FROM t t0 WHERE t0.k < 5";
  spec.use_cache = true;
  spec.has_predicate = true;
  RemoteStats stats;
  ASSERT_TRUE(adapter_.Execute(spec, &stats).ok());
  EXPECT_FALSE(stats.materialized);
}

TEST_F(HiveAdapterTest, ClearCacheDropsTempTables) {
  RemoteQuerySpec spec;
  spec.sql = "SELECT t0.k AS c0 FROM t t0 WHERE t0.k < 5";
  spec.use_cache = true;
  spec.has_predicate = true;
  ASSERT_TRUE(adapter_.Execute(spec, nullptr).ok());
  size_t temp_tables = 0;
  for (const std::string& name : hive_.TableNames()) {
    if (name.rfind("hana_rm_", 0) == 0) ++temp_tables;
  }
  EXPECT_EQ(temp_tables, 1u);
  ASSERT_TRUE(adapter_.ClearCache().ok());
  EXPECT_EQ(adapter_.cache_entries(), 0u);
  for (const std::string& name : hive_.TableNames()) {
    EXPECT_NE(name.rfind("hana_rm_", 0), 0u);
  }
}

TEST_F(HiveAdapterTest, TransferCostChargedToHanaClock) {
  RemoteQuerySpec spec;
  spec.sql = "SELECT t0.k AS c0 FROM t t0";
  double before = hana_clock_.now_ms();
  ASSERT_TRUE(adapter_.Execute(spec, nullptr).ok());
  EXPECT_GT(hana_clock_.now_ms(), before);
}

class SdaRuntimeTest : public ::testing::Test {
 protected:
  SdaRuntimeTest()
      : mapreduce_(&hdfs_, {}, &clock_), hive_(&hdfs_, &mapreduce_) {
    auto schema = std::make_shared<Schema>(std::vector<ColumnDef>{
        {"k", DataType::kInt64, false}, {"v", DataType::kString, false}});
    EXPECT_TRUE(hive_.CreateTable("t", schema).ok());
    std::vector<std::vector<Value>> rows;
    for (int64_t i = 0; i < 20; ++i) {
      rows.push_back({Value::Int(i), Value::String("v" + std::to_string(i))});
    }
    EXPECT_TRUE(hive_.LoadRows("t", rows).ok());
    EXPECT_TRUE(sda_.BindSource("SRC",
                                std::make_unique<HiveAdapter>(
                                    &hive_, &clock_))
                    .ok());
  }

  hadoop::Hdfs hdfs_;
  SimClock clock_;
  hadoop::MapReduceEngine mapreduce_;
  hadoop::HiveEngine hive_;
  SdaRuntime sda_;
};

TEST_F(SdaRuntimeTest, SourceRegistry) {
  EXPECT_TRUE(sda_.HasSource("src"));
  EXPECT_TRUE(sda_.AdapterFor("SRC").ok());
  EXPECT_FALSE(sda_.AdapterFor("nope").ok());
  EXPECT_FALSE(sda_.BindSource("SRC", nullptr).ok());  // Duplicate.
}

TEST_F(SdaRuntimeTest, PushdownMarkerSplicing) {
  plan::LogicalOp rq;
  rq.kind = plan::LogicalKind::kRemoteQuery;
  rq.remote_source = "SRC";
  rq.remote_sql =
      "SELECT ps.c0 AS c0 FROM (SELECT t0.k AS c0 FROM t t0) ps"
      " WHERE /*PUSHDOWN*/";
  rq.remote_has_predicate = true;

  exec::PushdownInList in_list;
  in_list.column = "c0";
  in_list.values = {Value::Int(3), Value::Int(5)};
  auto reduced = sda_.ExecuteRemoteQuery(rq, &in_list, nullptr);
  ASSERT_TRUE(reduced.ok()) << reduced.status().ToString();
  EXPECT_EQ(reduced->num_rows(), 2u);

  // Without keys the marker degrades to a tautology.
  auto full = sda_.ExecuteRemoteQuery(rq, nullptr, nullptr);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->num_rows(), 20u);
  EXPECT_EQ(sda_.stats().remote_calls, 2u);
}

TEST_F(SdaRuntimeTest, SqlLiteralQuoting) {
  EXPECT_EQ(SdaRuntime::SqlLiteral(Value::Int(5)), "5");
  EXPECT_EQ(SdaRuntime::SqlLiteral(Value::String("o'brien")), "'o''brien'");
  EXPECT_EQ(SdaRuntime::SqlLiteral(Value::Date(0)), "DATE '1970-01-01'");
}

TEST_F(SdaRuntimeTest, RelocationUploadsTempTable) {
  // Local rows shipped to the remote source as a temp table, then a
  // remote join references them.
  auto schema = std::make_shared<Schema>(std::vector<ColumnDef>{
      {"local.k", DataType::kInt64, false}});
  storage::Table local(schema);
  local.AppendRow({Value::Int(2)});
  local.AppendRow({Value::Int(4)});

  plan::LogicalOp rq;
  rq.kind = plan::LogicalKind::kRemoteQuery;
  rq.remote_source = "SRC";
  rq.relocate_local_child = true;
  rq.relocation_table = "HANA_RELOC_X";
  rq.remote_sql =
      "SELECT a.k AS c0, b.v AS c1 FROM HANA_RELOC_X a JOIN t b"
      " ON a.k = b.k";
  auto joined = sda_.ExecuteRemoteQuery(rq, nullptr, &local);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ(joined->num_rows(), 2u);
}

TEST(IqAdapterCapabilities, FullPushdownSurface) {
  // The natively integrated store supports the whole surface.
  extended::ExtendedStoreOptions options;
  options.directory = "/tmp/hana_fed_iq_test";
  extended::ExtendedStore store(options);
  extended::IqEngine iq(&store);
  SimClock clock;
  IqAdapter adapter(&iq, &clock);
  EXPECT_TRUE(adapter.capabilities().joins);
  EXPECT_TRUE(adapter.capabilities().transactions);
  EXPECT_TRUE(adapter.capabilities().order_by);
  EXPECT_FALSE(adapter.capabilities().remote_cache);
}

// Union Plan branches overlap: with more than one thread a statement pays
// its slowest cold branch, not the sum. The split branches return one
// row each, so a branch's pipeline finishes right after its dispatch
// while siblings still queue on the serialized dispatch; they must still
// count as overlapping.
TEST(UnionPlanDispatch, ConcurrentBranchesChargeTheSlowest) {
  platform::Platform db;
  ASSERT_TRUE(db.Run(R"(
      CREATE TABLE events (id BIGINT, bucket BIGINT, amount DOUBLE)
        USING HYBRID EXTENDED STORAGE
        PARTITION BY RANGE (bucket) (
          PARTITION VALUES < 1 COLD,
          PARTITION VALUES < 2 COLD,
          PARTITION VALUES < 3 COLD,
          PARTITION VALUES < 4 COLD,
          PARTITION OTHERS HOT))").ok());
  std::vector<std::vector<Value>> rows;
  for (int64_t i = 0; i < 4000; ++i) {
    rows.push_back({Value::Int(i), Value::Int(i % 5), Value::Double(0.5)});
  }
  ASSERT_TRUE(db.catalog().Insert("events", rows).ok());
  const std::string sql = "SELECT COUNT(*) AS n, SUM(amount) AS s FROM events";
  ASSERT_TRUE(db.Execute(sql).ok());  // Warm the extended buffer cache.
  double remote_ms[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(db.SetParameter("threads", i == 0 ? "1" : "4").ok());
    auto result = db.Execute(sql);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->table.row(0)[0].int_value(), 4000);
    remote_ms[i] = result->metrics.simulated_remote_ms;
  }
  EXPECT_GT(remote_ms[1], 0.0);
  // Four equal branches: the concurrent statement pays about a quarter.
  EXPECT_LT(remote_ms[1], 0.3 * remote_ms[0])
      << remote_ms[0] << " ms serial, " << remote_ms[1] << " ms concurrent";
}

}  // namespace
}  // namespace hana::federation
