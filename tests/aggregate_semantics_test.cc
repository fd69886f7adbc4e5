// One aggregate definition for every engine: the same GROUP BY runs
//  * over a local column table (the pipeline's vectorized group tables),
//  * over a Hive virtual table with federation on, so SDA ships the
//    GROUP BY and the Hive reducer aggregates,
//  * over the same virtual table with federation off, so the platform
//    fetches the rows and aggregates them locally,
//  * as an ESP continuous query whose single window holds the same rows
//    as events,
// and every engine must return the same rows, compared exactly after
// sorting. The inputs cover NULL keys and measures, a group whose
// measures are all NULL, duplicate values under the DISTINCT aggregates,
// string MIN/MAX and a global aggregate over empty input.
//
// Exact comparison of DOUBLE results is sound here because every DOUBLE
// measure is a small multiple of 1/8: every partial sum is exact in
// binary, so no summation order (morsel merges, reducer order, window
// order) can change a SUM, and AVG divides the same exact sum by the
// same count.
//
// Integer SUM overflow is an error, the same in every engine: the local
// statement and the Hive query fail with OutOfRange, and the ESP window
// drops the overflowing group's event.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "esp/engine.h"
#include "platform/platform.h"

namespace hana {
namespace {

using Rows = std::vector<std::vector<Value>>;

constexpr int64_t kBig = 9'000'000'000'000'000'000;  // 2 * kBig > INT64_MAX.

std::shared_ptr<Schema> MeasureSchema() {
  return std::make_shared<Schema>(std::vector<ColumnDef>{
      {"k", DataType::kInt64, true},
      {"i", DataType::kInt64, true},
      {"d", DataType::kDouble, true},
      {"s", DataType::kString, true}});
}

Rows MeasureRows() {
  const Value null = Value::Null();
  Rows rows = {
      // Group 1: a duplicate (4, 0.5) for the DISTINCT aggregates and a
      // row whose measures are NULL.
      {Value::Int(1), Value::Int(4), Value::Double(0.5), Value::String("pear")},
      {Value::Int(1), Value::Int(4), Value::Double(0.5),
       Value::String("apple")},
      {Value::Int(1), null, null, null},
      {Value::Int(1), Value::Int(-2), Value::Double(1.25),
       Value::String("fig")},
      // Group 3: every measure is NULL.
      {Value::Int(3), null, null, null},
      {Value::Int(3), null, null, null},
      // NULL keys form one group.
      {null, Value::Int(1), Value::Double(0.25), Value::String("zucchini")},
      {null, Value::Int(1), Value::Double(0.25), Value::String("banana")},
      {null, Value::Int(3), Value::Double(-1.5), null},
  };
  // Groups 4..8 spread over many morsels.
  for (int64_t j = 0; j < 60; ++j) {
    const bool null_measure = j % 7 == 0;
    rows.push_back(
        {Value::Int(4 + j % 5),
         null_measure ? null : Value::Int(j % 6 - 2),
         null_measure ? null
                      : Value::Double(0.125 * static_cast<double>(j % 9) - 0.5),
         j % 4 == 0 ? null : Value::String("v" + std::to_string(j % 11))});
  }
  return rows;
}

/// The aggregate list over measure `x`, one item per aggregate.
std::vector<std::string> AggItems(const std::string& x) {
  return {"COUNT(*) AS n",          "COUNT(" + x + ") AS nx",
          "SUM(" + x + ") AS sx",   "AVG(" + x + ") AS ax",
          "MIN(s) AS lo",           "MAX(s) AS hi",
          "COUNT(DISTINCT " + x + ") AS dx",
          "SUM(DISTINCT " + x + ") AS sdx"};
}

std::string AggList(const std::string& x) {
  std::string out;
  for (const std::string& item : AggItems(x)) {
    out += (out.empty() ? "" : ", ") + item;
  }
  return out;
}

/// Exact equality: same type, same bits of payload.
bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case DataType::kNull:
      return true;
    case DataType::kDouble:
      return a.double_value() == b.double_value();
    case DataType::kString:
      return a.string_value() == b.string_value();
    default:
      return a.AsInt() == b.AsInt();
  }
}

Rows Sorted(Rows rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

void ExpectSameRows(const Rows& want, const Rows& got,
                    const std::string& where) {
  ASSERT_EQ(want.size(), got.size()) << where;
  for (size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(want[r].size(), got[r].size()) << where << " row " << r;
    for (size_t c = 0; c < want[r].size(); ++c) {
      EXPECT_TRUE(SameValue(want[r][c], got[r][c]))
          << where << " row " << r << " col " << c << ": "
          << want[r][c].ToString() << " (" << DataTypeName(want[r][c].type())
          << ") vs " << got[r][c].ToString() << " ("
          << DataTypeName(got[r][c].type()) << ")";
    }
  }
}

/// Runs a KeepRows(rows.size()) window grouped by `keys` over `rows`
/// published as events; returns the emitted events' values, sorted.
Result<Rows> EspRows(const std::shared_ptr<Schema>& schema, const Rows& rows,
                     const std::vector<std::string>& keys,
                     const std::vector<std::string>& aggregates) {
  esp::EspEngine engine;
  HANA_RETURN_IF_ERROR(engine.CreateStream("t", schema));
  Rows out;
  HANA_RETURN_IF_ERROR(
      esp::CqBuilder(&engine, "t")
          .KeepRows(rows.size())
          .GroupBy(keys, aggregates)
          .IntoCallback([&](const esp::Event& e) { out.push_back(e.values); })
          .Finish("q")
          .status());
  for (size_t i = 0; i < rows.size(); ++i) {
    HANA_RETURN_IF_ERROR(
        engine.Publish("t", static_cast<int64_t>(i), rows[i]));
  }
  return Sorted(std::move(out));
}

/// True when EXPLAIN shows the statement's aggregate shipped: the
/// remote scan's SQL carries `call` (a function name and its opening
/// parenthesis; shipped SQL renames the columns).
bool ShipsAggregate(platform::Platform* db, const std::string& sql,
                    const std::string& call) {
  Result<std::string> plan = db->Explain(sql);
  if (!plan.ok()) return false;
  size_t remote = plan->find("Remote Row Scan @H");
  return remote != std::string::npos &&
         plan->find(call, remote) != std::string::npos;
}

class AggregateSemanticsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Run("CREATE COLUMN TABLE t (k BIGINT, i BIGINT, "
                        "d DOUBLE, s VARCHAR(16))")
                    .ok());
    ASSERT_TRUE(db_.catalog().Insert("t", MeasureRows()).ok());
    ASSERT_TRUE(db_.hive()->CreateTable("t", MeasureSchema()).ok());
    ASSERT_TRUE(db_.hive()->LoadRows("t", MeasureRows()).ok());
    ASSERT_TRUE(db_.Run(R"(
        CREATE REMOTE SOURCE H ADAPTER "hiveodbc" CONFIGURATION 'DSN=h';
        CREATE VIRTUAL TABLE vt AT "H"."default"."t")")
                    .ok());
    ASSERT_TRUE(db_.SetParameter("morsel_rows", "8").ok());
  }

  /// Runs `sql` (`$` stands for the table) over the local table at 1 and
  /// 4 threads, and over the virtual table with federation on and off;
  /// expects identical sorted rows everywhere and returns them.
  Rows SameInEveryPlatformEngine(const std::string& sql,
                                 const std::string& shipped_call) {
    auto on = [&](const std::string& table) {
      std::string text = sql;
      text.replace(text.find('$'), 1, table);
      return text;
    };
    Rows local;
    for (const char* threads : {"1", "4"}) {
      EXPECT_TRUE(db_.SetParameter("threads", threads).ok());
      auto r = db_.Query(on("t"));
      EXPECT_TRUE(r.ok()) << on("t") << ": " << r.status().ToString();
      if (!r.ok()) return {};
      Rows rows = Sorted(r->rows());
      if (local.empty()) {
        local = rows;
      } else {
        ExpectSameRows(local, rows, on("t") + " @" + threads + " threads");
      }
    }
    for (bool federation : {true, false}) {
      db_.optimizer_options().enable_federation = federation;
      const std::string where =
          on("vt") + (federation ? " (shipped to Hive)" : " (local)");
      EXPECT_EQ(ShipsAggregate(&db_, on("vt"), shipped_call), federation)
          << where;
      auto r = db_.Query(on("vt"));
      EXPECT_TRUE(r.ok()) << where << ": " << r.status().ToString();
      if (r.ok()) ExpectSameRows(local, Sorted(r->rows()), where);
    }
    db_.optimizer_options().enable_federation = true;
    return local;
  }

  platform::Platform db_;
};

TEST_F(AggregateSemanticsTest, GroupByAgreesInEveryEngine) {
  for (const std::string x : {"i", "d"}) {
    Rows local = SameInEveryPlatformEngine(
        "SELECT k, " + AggList(x) + " FROM $ GROUP BY k", "SUM(DISTINCT");
    ASSERT_EQ(local.size(), 8u) << x;  // NULL, 1, 3 and 4..8.
    Result<Rows> esp = EspRows(MeasureSchema(), MeasureRows(), {"k"},
                               AggItems(x));
    ASSERT_TRUE(esp.ok()) << esp.status().ToString();
    ExpectSameRows(local, *esp, "ESP window over " + x);

    // Semantics, not only agreement. The NULL-key group sorts first.
    const std::vector<Value>& nulls = local[0];
    EXPECT_TRUE(nulls[0].is_null());
    EXPECT_EQ(nulls[1].int_value(), 3);  // COUNT(*)
    EXPECT_EQ(nulls[2].int_value(), 3);  // COUNT(x)
    EXPECT_EQ(nulls[5].string_value(), "banana");
    EXPECT_EQ(nulls[6].string_value(), "zucchini");
    EXPECT_EQ(nulls[7].int_value(), 2);  // COUNT(DISTINCT x): 1 and 3.
    // Group 1: the duplicate counts once under DISTINCT.
    const std::vector<Value>& one = local[1];
    EXPECT_EQ(one[1].int_value(), 4);
    EXPECT_EQ(one[2].int_value(), 3);
    EXPECT_EQ(one[7].int_value(), 2);
    if (x == "i") {
      EXPECT_EQ(one[3].int_value(), 6);  // SUM(i)
      EXPECT_EQ(one[8].int_value(), 2);  // SUM(DISTINCT i)
    } else {
      EXPECT_EQ(one[3].double_value(), 2.25);  // SUM(d)
      EXPECT_EQ(one[8].double_value(), 1.75);  // SUM(DISTINCT d)
    }
    EXPECT_EQ(one[4].double_value(), x == "i" ? 2.0 : 0.75);  // AVG
    // Group 3: every measure NULL.
    const std::vector<Value>& empty = local[2];
    EXPECT_EQ(empty[0].int_value(), 3);
    EXPECT_EQ(empty[1].int_value(), 2);
    EXPECT_EQ(empty[2].int_value(), 0);
    for (size_t c : {3, 4, 5, 6, 8}) EXPECT_TRUE(empty[c].is_null()) << c;
    EXPECT_EQ(empty[7].int_value(), 0);
  }
}

TEST_F(AggregateSemanticsTest, EmptyInputGlobalAggregateEmitsOneRow) {
  for (const std::string x : {"i", "d"}) {
    Rows rows = SameInEveryPlatformEngine(
        "SELECT " + AggList(x) + " FROM $ WHERE k > 1000", "COUNT(*)");
    ASSERT_EQ(rows.size(), 1u) << x;
    const std::vector<Value>& row = rows[0];
    EXPECT_EQ(row[0].int_value(), 0);
    EXPECT_EQ(row[1].int_value(), 0);
    for (size_t c : {2, 3, 4, 5, 7}) EXPECT_TRUE(row[c].is_null()) << c;
    EXPECT_EQ(row[6].int_value(), 0);
  }
}

TEST_F(AggregateSemanticsTest, DoubleSumBeyondInt64RangeIsExact) {
  // 1e19 lies past INT64_MAX; a DOUBLE SUM or AVG never converts it.
  Rows rows = {{Value::Int(1), Value::Int(0), Value::Double(1e19),
                Value::String("a")},
               {Value::Int(1), Value::Int(0), Value::Double(1e19),
                Value::String("b")}};
  ASSERT_TRUE(db_.Run("DELETE FROM t").ok());
  ASSERT_TRUE(db_.catalog().Insert("t", rows).ok());
  ASSERT_TRUE(db_.hive()->DropTable("t").ok());
  ASSERT_TRUE(db_.hive()->CreateTable("t", MeasureSchema()).ok());
  ASSERT_TRUE(db_.hive()->LoadRows("t", rows).ok());
  Rows local = SameInEveryPlatformEngine(
      "SELECT k, SUM(d) AS sd, AVG(d) AS ad FROM $ GROUP BY k", "SUM(");
  ASSERT_EQ(local.size(), 1u);
  EXPECT_EQ(local[0][1].double_value(), 2e19);
  EXPECT_EQ(local[0][2].double_value(), 1e19);
  Result<Rows> esp = EspRows(MeasureSchema(), rows, {"k"},
                             {"SUM(d) AS sd", "AVG(d) AS ad"});
  ASSERT_TRUE(esp.ok()) << esp.status().ToString();
  ExpectSameRows(local, *esp, "ESP window");
}

class SumOverflowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Group 1 overflows (2 * kBig); group 2 does not. Table `spread`
    // holds its two big values 99 rows apart, so with 8-row morsels no
    // partial overflows and only the morsel merge does.
    ASSERT_TRUE(db_.Run("CREATE COLUMN TABLE o (k BIGINT, x BIGINT); "
                        "CREATE COLUMN TABLE spread (k BIGINT, x BIGINT)")
                    .ok());
    ASSERT_TRUE(db_.catalog().Insert("o", OverflowRows()).ok());
    Rows spread;
    for (int64_t r = 0; r < 100; ++r) {
      spread.push_back({Value::Int(1),
                        Value::Int(r == 0 || r == 99 ? kBig : 0)});
    }
    ASSERT_TRUE(db_.catalog().Insert("spread", spread).ok());
    ASSERT_TRUE(db_.hive()->CreateTable("o", OverflowSchema()).ok());
    ASSERT_TRUE(db_.hive()->LoadRows("o", OverflowRows()).ok());
    ASSERT_TRUE(db_.Run(R"(
        CREATE REMOTE SOURCE H ADAPTER "hiveodbc" CONFIGURATION 'DSN=h';
        CREATE VIRTUAL TABLE vo AT "H"."default"."o")")
                    .ok());
    ASSERT_TRUE(db_.SetParameter("morsel_rows", "8").ok());
  }

  static std::shared_ptr<Schema> OverflowSchema() {
    return std::make_shared<Schema>(std::vector<ColumnDef>{
        {"k", DataType::kInt64, true}, {"x", DataType::kInt64, true}});
  }

  static Rows OverflowRows() {
    return {{Value::Int(1), Value::Int(kBig)},
            {Value::Int(2), Value::Int(5)},
            {Value::Int(1), Value::Int(kBig)}};
  }

  void ExpectOverflow(const std::string& sql, const std::string& where) {
    auto r = db_.Query(sql);
    ASSERT_FALSE(r.ok()) << where << ": " << sql << " returned "
                         << (r.ok() && r->num_rows() > 0
                                 ? r->row(0).back().ToString()
                                 : std::string("no rows"));
    EXPECT_NE(r.status().ToString().find("numeric overflow in SUM"),
              std::string::npos)
        << where << ": " << r.status().ToString();
  }

  platform::Platform db_;
};

TEST_F(SumOverflowTest, LocalStatementFailsAtEveryThreadCount) {
  for (const char* threads : {"1", "2", "4", "8"}) {
    ASSERT_TRUE(db_.SetParameter("threads", threads).ok());
    const std::string where = std::string("@") + threads + " threads";
    ExpectOverflow("SELECT SUM(x) AS s FROM o", where);
    ExpectOverflow("SELECT k, SUM(x) AS s FROM o GROUP BY k", where);
    // A NULL-typed key (a column of NULLs) and the morsel merge.
    ExpectOverflow("SELECT k, SUM(x) AS s FROM o GROUP BY k, NULL", where);
    ExpectOverflow("SELECT SUM(x) AS s FROM spread", where + " merge");
    auto r = db_.Query(
        "SELECT k, SUM(x) AS s, AVG(x) AS a FROM o WHERE k = 2 GROUP BY k");
    ASSERT_TRUE(r.ok()) << where << ": " << r.status().ToString();
    EXPECT_EQ(r->row(0)[1].int_value(), 5);
  }
}

TEST_F(SumOverflowTest, HiveQueryFails) {
  db_.optimizer_options().enable_federation = true;
  ASSERT_TRUE(ShipsAggregate(&db_, "SELECT SUM(x) AS s FROM vo", "SUM("));
  ExpectOverflow("SELECT SUM(x) AS s FROM vo", "shipped to Hive");
  ExpectOverflow("SELECT k, SUM(x) AS s FROM vo GROUP BY k",
                 "shipped to Hive");
  db_.optimizer_options().enable_federation = false;
  ExpectOverflow("SELECT SUM(x) AS s FROM vo", "aggregated locally");
}

TEST_F(SumOverflowTest, EspDropsTheOverflowingGroupsEvent) {
  Result<Rows> esp =
      EspRows(OverflowSchema(), OverflowRows(), {"k"}, {"SUM(x) AS s"});
  ASSERT_TRUE(esp.ok()) << esp.status().ToString();
  ASSERT_EQ(esp->size(), 1u);
  EXPECT_EQ((*esp)[0][0].int_value(), 2);
  EXPECT_EQ((*esp)[0][1].int_value(), 5);
}

TEST_F(SumOverflowTest, HybridAvgReportsItsIntegerSumPartial) {
  // AVG over a hybrid table splits into an integer SUM partial per
  // partition plus a final SUM of them, so it reports the SUM overflow;
  // AVG over one column table sums in DOUBLE and does not.
  ASSERT_TRUE(db_.Run("CREATE TABLE hy (k BIGINT, x BIGINT) USING HYBRID "
                      "EXTENDED STORAGE PARTITION BY RANGE (k) "
                      "(PARTITION VALUES < 10 COLD, PARTITION OTHERS HOT)")
                  .ok());
  ASSERT_TRUE(db_.catalog()
                  .Insert("hy", {{Value::Int(1), Value::Int(kBig)},
                                 {Value::Int(20), Value::Int(kBig)}})
                  .ok());
  ExpectOverflow("SELECT AVG(x) AS a FROM hy", "hybrid");
  auto r = db_.Query("SELECT AVG(x) AS a FROM o WHERE k = 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->row(0)[0].double_value(), static_cast<double>(kBig));
}

}  // namespace
}  // namespace hana
