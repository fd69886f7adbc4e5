#include <gtest/gtest.h>

#include "esp/engine.h"
#include "hadoop/hdfs.h"

namespace hana::esp {
namespace {

std::shared_ptr<Schema> SensorSchema() {
  return std::make_shared<Schema>(std::vector<ColumnDef>{
      {"sensor", DataType::kInt64, false},
      {"value", DataType::kDouble, false}});
}

class EspTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_.CreateStream("s", SensorSchema()).ok());
  }

  Status Publish(int64_t ts, int64_t sensor, double value) {
    return engine_.Publish("s", ts, {Value::Int(sensor),
                                     Value::Double(value)});
  }

  EspEngine engine_;
  std::vector<Event> out_;
};

TEST_F(EspTest, StreamLifecycle) {
  EXPECT_FALSE(engine_.CreateStream("s", SensorSchema()).ok());
  EXPECT_TRUE(engine_.StreamSchema("s").ok());
  EXPECT_FALSE(engine_.StreamSchema("nope").ok());
  EXPECT_FALSE(engine_.Publish("nope", 0, {}).ok());
  EXPECT_FALSE(engine_.Publish("s", 0, {Value::Int(1)}).ok());  // Arity.
}

TEST_F(EspTest, OutOfOrderEventsRejected) {
  ASSERT_TRUE(Publish(10, 1, 1.0).ok());
  EXPECT_FALSE(Publish(5, 1, 1.0).ok());
  EXPECT_TRUE(Publish(10, 1, 2.0).ok());  // Equal timestamps allowed.
}

TEST_F(EspTest, FilterAndProjection) {
  auto query = CqBuilder(&engine_, "s")
                   .Where("value > 10")
                   .Select({"sensor", "value * 2 AS doubled"})
                   .IntoCallback([&](const Event& e) { out_.push_back(e); })
                   .Finish("q");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_TRUE(Publish(1, 1, 5.0).ok());
  ASSERT_TRUE(Publish(2, 2, 20.0).ok());
  ASSERT_EQ(out_.size(), 1u);
  EXPECT_EQ(out_[0].values[0].int_value(), 2);
  EXPECT_DOUBLE_EQ(out_[0].values[1].double_value(), 40.0);
  EXPECT_EQ((*query)->events_in(), 2u);
  EXPECT_EQ((*query)->events_out(), 1u);
}

TEST_F(EspTest, TumblingCountWindowAggregate) {
  auto query = CqBuilder(&engine_, "s")
                   .KeepRows(4)
                   .GroupBy({"sensor"}, {"SUM(value) AS total",
                                         "COUNT(*) AS n"})
                   .IntoCallback([&](const Event& e) { out_.push_back(e); })
                   .Finish("q");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(Publish(i, i % 2, 1.0).ok());
  }
  // Two windows of four events, each with two groups.
  ASSERT_EQ(out_.size(), 4u);
  for (const Event& e : out_) {
    EXPECT_EQ(e.values[2].int_value(), 2);
    EXPECT_DOUBLE_EQ(e.values[1].double_value(), 2.0);
  }
}

TEST_F(EspTest, TumblingTimeWindowClosesOnBoundary) {
  auto query = CqBuilder(&engine_, "s")
                   .KeepMillis(100)
                   .GroupBy({}, {"COUNT(*) AS n", "AVG(value) AS avg_v"})
                   .IntoCallback([&](const Event& e) { out_.push_back(e); })
                   .Finish("q");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_TRUE(Publish(0, 1, 10).ok());
  ASSERT_TRUE(Publish(50, 1, 20).ok());
  EXPECT_TRUE(out_.empty());  // Window still open.
  ASSERT_TRUE(Publish(120, 1, 99).ok());  // Crosses the boundary.
  ASSERT_EQ(out_.size(), 1u);
  EXPECT_EQ(out_[0].values[0].int_value(), 2);
  EXPECT_DOUBLE_EQ(out_[0].values[1].double_value(), 15.0);
  engine_.FlushAll();  // Close the trailing window.
  ASSERT_EQ(out_.size(), 2u);
  EXPECT_EQ(out_[1].values[0].int_value(), 1);
}

TEST_F(EspTest, RowWithFailingAggregateArgumentIsSkippedWhole) {
  // CAST('x' AS BIGINT) fails on the second row: that row leaves every
  // aggregate of its window, not only the ones listed after SUM.
  auto schema = std::make_shared<Schema>(std::vector<ColumnDef>{
      {"k", DataType::kInt64, true}, {"s", DataType::kString, true}});
  ASSERT_TRUE(engine_.CreateStream("raw", schema).ok());
  const std::vector<std::string> aggs = {
      "COUNT(*) AS n", "SUM(CAST(s AS BIGINT)) AS total", "COUNT(k) AS nk"};
  std::vector<Event> per_key;
  ASSERT_TRUE(CqBuilder(&engine_, "raw")
                  .KeepRows(2)
                  .GroupBy({}, aggs)
                  .IntoCallback([&](const Event& e) { out_.push_back(e); })
                  .Finish("global")
                  .ok());
  ASSERT_TRUE(CqBuilder(&engine_, "raw")
                  .KeepRows(2)
                  .GroupBy({"k"}, aggs)
                  .IntoCallback([&](const Event& e) { per_key.push_back(e); })
                  .Finish("per_key")
                  .ok());
  ASSERT_TRUE(
      engine_.Publish("raw", 1, {Value::Int(1), Value::String("5")}).ok());
  ASSERT_TRUE(
      engine_.Publish("raw", 2, {Value::Int(2), Value::String("x")}).ok());
  ASSERT_EQ(out_.size(), 1u);
  EXPECT_EQ(out_[0].values[0].int_value(), 1);
  EXPECT_EQ(out_[0].values[1].int_value(), 5);
  EXPECT_EQ(out_[0].values[2].int_value(), 1);
  // Grouped by k, the skipped row's group never forms.
  ASSERT_EQ(per_key.size(), 1u);
  EXPECT_EQ(per_key[0].values[0].int_value(), 1);
  EXPECT_EQ(per_key[0].values[1].int_value(), 1);
}

TEST_F(EspTest, LookupJoinEnrichment) {
  auto dim_schema = std::make_shared<Schema>(std::vector<ColumnDef>{
      {"sensor", DataType::kInt64, false},
      {"site", DataType::kString, false}});
  storage::Table dim(dim_schema);
  dim.AppendRow({Value::Int(1), Value::String("plant-a")});
  dim.AppendRow({Value::Int(2), Value::String("plant-b")});

  auto query = CqBuilder(&engine_, "s")
                   .LookupJoin(dim, "sensor", "sensor")
                   .Select({"site", "value"})
                   .IntoCallback([&](const Event& e) { out_.push_back(e); })
                   .Finish("q");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_TRUE(Publish(1, 1, 7.0).ok());
  ASSERT_TRUE(Publish(2, 9, 8.0).ok());  // Unknown sensor: NULL site.
  ASSERT_EQ(out_.size(), 2u);
  EXPECT_EQ(out_[0].values[0].string_value(), "plant-a");
  EXPECT_TRUE(out_[1].values[0].is_null());
}

TEST_F(EspTest, PatternMatchesWithinDuration) {
  auto query = CqBuilder(&engine_, "s")
                   .MatchPattern({"value > 90", "value > 90", "value > 90"},
                                 100)
                   .IntoCallback([&](const Event& e) { out_.push_back(e); })
                   .Finish("q");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  // Three spikes within 100ms -> one alert.
  ASSERT_TRUE(Publish(0, 1, 95).ok());
  ASSERT_TRUE(Publish(10, 1, 96).ok());
  ASSERT_TRUE(Publish(20, 1, 97).ok());
  EXPECT_EQ(out_.size(), 1u);
  // Spikes spread beyond the window do not fire.
  out_.clear();
  ASSERT_TRUE(Publish(1000, 1, 95).ok());
  ASSERT_TRUE(Publish(1200, 1, 96).ok());
  ASSERT_TRUE(Publish(1400, 1, 97).ok());
  EXPECT_TRUE(out_.empty());
  // Interleaved non-matching events do not reset progress.
  ASSERT_TRUE(Publish(2000, 1, 95).ok());
  ASSERT_TRUE(Publish(2010, 1, 5).ok());
  ASSERT_TRUE(Publish(2020, 1, 96).ok());
  ASSERT_TRUE(Publish(2030, 1, 97).ok());
  EXPECT_EQ(out_.size(), 1u);
}

TEST_F(EspTest, ForwardIntoTableAndDerivedStream) {
  auto sink_schema = std::make_shared<Schema>(std::vector<ColumnDef>{
      {"sensor", DataType::kInt64, false},
      {"value", DataType::kDouble, false}});
  storage::ColumnTable sink(sink_schema);
  ASSERT_TRUE(engine_.CreateStream("derived", SensorSchema()).ok());
  auto first = CqBuilder(&engine_, "s")
                   .Where("value > 5")
                   .IntoTable(&sink)
                   .IntoStream("derived")
                   .Finish("stage1");
  ASSERT_TRUE(first.ok());
  auto second = CqBuilder(&engine_, "derived")
                    .Where("value > 8")
                    .IntoCallback([&](const Event& e) { out_.push_back(e); })
                    .Finish("stage2");
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(Publish(1, 1, 3.0).ok());
  ASSERT_TRUE(Publish(2, 1, 7.0).ok());
  ASSERT_TRUE(Publish(3, 1, 9.0).ok());
  EXPECT_EQ(sink.live_rows(), 2u);   // Forward use case.
  EXPECT_EQ(out_.size(), 1u);        // Chained continuous query.
}

TEST_F(EspTest, HdfsSinkArchivesEvents) {
  hadoop::Hdfs hdfs;
  auto query = CqBuilder(&engine_, "s")
                   .Where("value < 0")
                   .IntoHdfs(&hdfs, "/archive/raw")
                   .Finish("archive");
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(Publish(1, 1, -1.0).ok());
  ASSERT_TRUE(Publish(2, 1, 1.0).ok());
  ASSERT_TRUE(Publish(3, 2, -2.0).ok());
  auto lines = hdfs.ReadFile("/archive/raw");
  ASSERT_TRUE(lines.ok());
  EXPECT_EQ(lines->size(), 2u);
}

TEST_F(EspTest, WindowContentsForHanaJoin) {
  auto query = CqBuilder(&engine_, "s")
                   .KeepRows(1000)
                   .Finish("window");
  ASSERT_TRUE(query.ok());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(Publish(i, i, 1.0 * i).ok());
  storage::Table window = (*query)->WindowContents();
  EXPECT_EQ(window.num_rows(), 5u);
  EXPECT_EQ(window.schema()->num_columns(), 2u);
}

TEST_F(EspTest, BuilderErrors) {
  EXPECT_FALSE(CqBuilder(&engine_, "missing").Finish("x").ok());
  EXPECT_FALSE(
      CqBuilder(&engine_, "s").Where("no_such_col > 1").Finish("x").ok());
  EXPECT_FALSE(CqBuilder(&engine_, "s")
                   .GroupBy({"sensor"}, {"NOT_AN_AGG(value) AS a"})
                   .Finish("x")
                   .ok());
}

}  // namespace
}  // namespace hana::esp
