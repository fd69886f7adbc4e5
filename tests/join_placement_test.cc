// Join placement (plan::PushDownFilters' join-condition placement and
// plan::PushDownSemiJoins) must move predicates and semi/anti joins
// without changing a single result row. Small seeded tables with NULL
// keys and NULL payloads are joined through LEFT joins with right-only,
// left-only and straddling ON conjuncts, and through IN, NOT IN, EXISTS
// and NOT EXISTS above 2- and 3-way inner joins and LEFT joins; every
// result is checked against a brute-force C++ evaluation of the SQL at
// threads 1/2/4/8, and EXPLAIN shows where each predicate ended up. The
// TPC-H cases pin Q13's and Q18's placement, locally and in the SQL
// shipped to Hive, and federated Q16's anti join above its remote join.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <regex>
#include <string>
#include <vector>

#include "common/strings.h"
#include "hadoop/hive.h"
#include "platform/platform.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace hana {
namespace {

using Cell = std::optional<int64_t>;
using Row = std::vector<Cell>;
using Rows = std::vector<Row>;

// SQL comparisons over nullable integers: unknown (a NULL operand) is
// not true.
bool Eq(const Cell& l, const Cell& r) { return l && r && *l == *r; }
bool Gt(const Cell& l, const Cell& r) { return l && r && *l > *r; }
bool Ne(const Cell& l, const Cell& r) { return l && r && *l != *r; }

bool In(const Cell& v, const Rows& set) {
  return std::any_of(set.begin(), set.end(),
                     [&](const Row& s) { return Eq(v, s[0]); });
}

// NOT IN is true only when no subquery value equals v and none is
// unknown: an empty subquery accepts everything, a NULL in it rejects
// everything, and a NULL v is rejected by any non-empty subquery.
bool NotIn(const Cell& v, const Rows& set) {
  if (set.empty()) return true;
  for (const Row& s : set) {
    if (!s[0] || !v || *s[0] == *v) return false;
  }
  return true;
}

class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  uint64_t Below(uint64_t n) {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state_ >> 33) % n;
  }
  // A value in [0, range), NULL with probability 1/null_every.
  Cell Maybe(uint64_t range, uint64_t null_every) {
    if (Below(null_every) == 0) return std::nullopt;
    return static_cast<int64_t>(Below(range));
  }

 private:
  uint64_t state_;
};

Value ToValue(const Cell& c) { return c ? Value::Int(*c) : Value::Null(); }

Rows FromTable(const storage::Table& t) {
  Rows out;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    Row row;
    for (const Value& v : t.row(r)) {
      row.push_back(v.is_null() ? Cell() : Cell(v.int_value()));
    }
    out.push_back(std::move(row));
  }
  return out;
}

Rows Sorted(Rows rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::string Render(const Rows& rows) {
  std::string out;
  for (const Row& row : rows) {
    out += "(";
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ", ";
      out += row[i] ? std::to_string(*row[i]) : "NULL";
    }
    out += ") ";
  }
  return out;
}

// The seeded tables: a(id, k, x), b(k, y), c(k, z); subquery tables
// d(k) with NULLs, dn(k) without, and the empty e(k).
struct Data {
  Rows a, b, c, d, dn, e;

  Data() {
    Lcg rng(1903);
    for (int64_t i = 0; i < 240; ++i) {
      a.push_back({i, rng.Maybe(40, 9), rng.Maybe(40, 7)});
    }
    for (int i = 0; i < 160; ++i) b.push_back({rng.Maybe(40, 8), rng.Maybe(40, 6)});
    for (int i = 0; i < 120; ++i) c.push_back({rng.Maybe(40, 10), rng.Maybe(40, 5)});
    for (int i = 0; i < 40; ++i) d.push_back({rng.Maybe(40, 12)});
    d.push_back({std::nullopt});  // At least one NULL, whatever the seed.
    for (int i = 0; i < 30; ++i) {
      dn.push_back({static_cast<int64_t>(rng.Below(40))});
    }
  }

  // a JOIN b ON a.k = b.k, as (a row, b row) pairs.
  std::vector<std::pair<const Row*, const Row*>> AB() const {
    std::vector<std::pair<const Row*, const Row*>> out;
    for (const Row& ar : a) {
      for (const Row& br : b) {
        if (Eq(ar[1], br[0])) out.push_back({&ar, &br});
      }
    }
    return out;
  }

  // a LEFT JOIN b ON a.k = b.k AND extra(a, b): (a.id, b.y) rows.
  Rows LeftAB(const std::function<bool(const Row&, const Row&)>& extra) const {
    Rows out;
    for (const Row& ar : a) {
      bool matched = false;
      for (const Row& br : b) {
        if (Eq(ar[1], br[0]) && extra(ar, br)) {
          out.push_back({ar[0], br[1]});
          matched = true;
        }
      }
      if (!matched) out.push_back({ar[0], std::nullopt});
    }
    return out;
  }

  // a JOIN b ON a.k = b.k JOIN c ON b.k = c.k, filtered by keep(a, b, c):
  // (a.id, b.y, c.z) rows.
  Rows ABC(const std::function<bool(const Row&, const Row&, const Row&)>&
               keep) const {
    Rows out;
    for (const auto& [ar, br] : AB()) {
      for (const Row& cr : c) {
        if (Eq((*br)[0], cr[0]) && keep(*ar, *br, cr)) {
          out.push_back({(*ar)[0], (*br)[1], cr[1]});
        }
      }
    }
    return out;
  }
};

Status LoadLocal(platform::Platform* db, const std::string& name,
                 const std::vector<std::string>& columns, const Rows& rows) {
  sql::CreateTableStmt create;
  create.table = name;
  for (const std::string& c : columns) {
    create.columns.push_back({c, DataType::kInt64, true});
  }
  HANA_RETURN_IF_ERROR(db->catalog().CreateTable(create));
  std::vector<std::vector<Value>> values;
  for (const Row& r : rows) {
    std::vector<Value> v;
    for (const Cell& c : r) v.push_back(ToValue(c));
    values.push_back(std::move(v));
  }
  return db->catalog().Insert(name, values);
}

// The first trimmed EXPLAIN line containing `marker`, and the line right
// below it; "" when there is none.
std::string LineWith(const std::string& plan, const std::string& marker) {
  for (const std::string& line : Split(plan, '\n')) {
    if (line.find(marker) != std::string::npos) return Trim(line);
  }
  return "";
}

std::string LineBelow(const std::string& plan, const std::string& marker) {
  std::vector<std::string> lines = Split(plan, '\n');
  for (size_t i = 0; i + 1 < lines.size(); ++i) {
    if (lines[i].find(marker) != std::string::npos) return Trim(lines[i + 1]);
  }
  return "";
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

struct Case {
  std::string sql;
  Rows expected;
};

class JoinPlacementTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new Data();
    db_ = new platform::Platform(platform::PlatformOptions{
        .attach_extended = false, .start_hadoop = false});
    ASSERT_TRUE(LoadLocal(db_, "a", {"id", "k", "x"}, data_->a).ok());
    ASSERT_TRUE(LoadLocal(db_, "b", {"k", "y"}, data_->b).ok());
    ASSERT_TRUE(LoadLocal(db_, "c", {"k", "z"}, data_->c).ok());
    ASSERT_TRUE(LoadLocal(db_, "d", {"k"}, data_->d).ok());
    ASSERT_TRUE(LoadLocal(db_, "dn", {"k"}, data_->dn).ok());
    ASSERT_TRUE(LoadLocal(db_, "e", {"k"}, data_->e).ok());
    // Small morsels, so probe sides split across workers.
    ASSERT_TRUE(db_->SetParameter("morsel_rows", "32").ok());
  }

  static void TearDownTestSuite() {
    delete db_;
    delete data_;
    db_ = nullptr;
    data_ = nullptr;
  }

  void TearDown() override {
    ASSERT_TRUE(db_->SetParameter("threads", "0").ok());
  }

  static void ExpectMatchesReference(const Case& c,
                                     std::vector<int> threads = {1, 2, 4,
                                                                 8}) {
    const Rows expected = Sorted(c.expected);
    for (int t : threads) {
      ASSERT_TRUE(db_->SetParameter("threads", std::to_string(t)).ok());
      auto result = db_->Query(c.sql);
      ASSERT_TRUE(result.ok()) << c.sql << ": " << result.status().ToString();
      const Rows got = Sorted(FromTable(*result));
      EXPECT_EQ(got, expected) << c.sql << " at threads=" << t
                               << "\n got: " << Render(got)
                               << "\nwant: " << Render(expected);
    }
  }

  static std::string MustExplain(const std::string& sql) {
    auto plan = db_->Explain(sql);
    EXPECT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
    return plan.ok() ? *plan : "";
  }

  // EXPLAIN of `sql` has `prefix` starting the line below `marker`.
  static void ExpectBelow(const std::string& sql, const std::string& marker,
                          const std::string& prefix) {
    const std::string plan = MustExplain(sql);
    EXPECT_TRUE(StartsWith(LineBelow(plan, marker), prefix)) << plan;
  }

  static Data* data_;
  static platform::Platform* db_;
};

Data* JoinPlacementTest::data_ = nullptr;
platform::Platform* JoinPlacementTest::db_ = nullptr;

TEST_F(JoinPlacementTest, LeftJoinOnConjuncts) {
  const Data& d = *data_;
  // Right-only: becomes a filter on b.
  const Case right_only{
      "SELECT a.id, b.y FROM a LEFT JOIN b ON a.k = b.k AND b.y > 10",
      d.LeftAB([](const Row&, const Row& br) { return Gt(br[1], 10); })};
  ExpectMatchesReference(right_only);
  std::string plan = MustExplain(right_only.sql);
  EXPECT_NE(LineWith(plan, "LEFT Join").find("LEFT Join ON (a.k = b.k) ["),
            std::string::npos)
      << plan;
  EXPECT_TRUE(StartsWith(LineBelow(plan, "Column Scan a"),
                         "Filter (b.y > 10)"))
      << plan;

  // Left-only: filtering the preserved side would drop rows LEFT JOIN
  // must pad, so it stays in the condition.
  const Case left_only{
      "SELECT a.id, b.y FROM a LEFT JOIN b ON a.k = b.k AND a.x > 5",
      d.LeftAB([](const Row& ar, const Row&) { return Gt(ar[2], 5); })};
  ExpectMatchesReference(left_only);
  plan = MustExplain(left_only.sql);
  EXPECT_NE(LineWith(plan, "LEFT Join").find("(a.x > 5)"), std::string::npos)
      << plan;

  // Straddling: stays.
  const Case straddling{
      "SELECT a.id, b.y FROM a LEFT JOIN b ON a.k = b.k AND b.y > a.x",
      d.LeftAB(
          [](const Row& ar, const Row& br) { return Gt(br[1], ar[2]); })};
  ExpectMatchesReference(straddling);
  plan = MustExplain(straddling.sql);
  EXPECT_NE(LineWith(plan, "LEFT Join").find("(b.y > a.x)"),
            std::string::npos)
      << plan;
}

TEST_F(JoinPlacementTest, SemiJoinsAboveInnerJoins) {
  const Data& d = *data_;
  // IN above a 2-way join: moves onto a, which owns a.x.
  Case in_two{
      "SELECT a.id, b.y FROM a JOIN b ON a.k = b.k "
      "WHERE a.x IN (SELECT k FROM d)",
      {}};
  for (const auto& [ar, br] : d.AB()) {
    if (In((*ar)[2], d.d)) in_two.expected.push_back({(*ar)[0], (*br)[1]});
  }
  ExpectMatchesReference(in_two);
  ExpectBelow(in_two.sql, "SEMI Join", "Column Scan a ");

  // NOT IN above a 3-way join, NULL-free subquery: moves onto c; outer
  // rows with a NULL c.z are rejected.
  const std::string three =
      "SELECT a.id, b.y, c.z FROM a JOIN b ON a.k = b.k JOIN c ON b.k = c.k "
      "WHERE ";
  const Case not_in{three + "c.z NOT IN (SELECT k FROM dn)",
                    d.ABC([&](const Row&, const Row&, const Row& cr) {
                      return NotIn(cr[1], d.dn);
                    })};
  ASSERT_FALSE(not_in.expected.empty());
  ExpectMatchesReference(not_in);
  std::string plan = MustExplain(not_in.sql);
  EXPECT_NE(LineWith(plan, "ANTI Join").find("[null-aware]"),
            std::string::npos)
      << plan;
  EXPECT_TRUE(StartsWith(LineBelow(plan, "ANTI Join"), "Column Scan c "))
      << plan;
  // A NULL in the subquery empties the result; an empty subquery keeps
  // every row, NULL keys included.
  ExpectMatchesReference({three + "c.z NOT IN (SELECT k FROM d)", {}});
  ExpectMatchesReference(
      {three + "c.z NOT IN (SELECT k FROM e)",
       d.ABC([](const Row&, const Row&, const Row&) { return true; })});

  // EXISTS and NOT EXISTS above the 3-way join, keyed on b and a.
  const Case exists{
      three + "EXISTS (SELECT * FROM d WHERE d.k = b.y)",
      d.ABC([&](const Row&, const Row& br, const Row&) {
        return In(br[1], d.d);
      })};
  ExpectMatchesReference(exists);
  ExpectBelow(exists.sql, "SEMI Join", "Column Scan b ");
  const Case not_exists{
      three + "NOT EXISTS (SELECT * FROM d WHERE d.k = a.x)",
      d.ABC([&](const Row& ar, const Row&, const Row&) {
        return !In(ar[2], d.d);
      })};
  ExpectMatchesReference(not_exists);
  plan = MustExplain(not_exists.sql);
  EXPECT_EQ(LineWith(plan, "ANTI Join").find("[null-aware]"),
            std::string::npos)
      << plan;
  EXPECT_TRUE(StartsWith(LineBelow(plan, "ANTI Join"), "Column Scan a "))
      << plan;
}

TEST_F(JoinPlacementTest, SemiJoinsAboveLeftJoins) {
  const Data& d = *data_;
  const auto all = [](const Row&, const Row&) { return true; };
  const Rows left = d.LeftAB(all);
  auto filtered = [&](const std::function<bool(const Row&)>& keep) {
    Rows out;
    for (const Row& r : left) {
      if (keep(r)) out.push_back(r);
    }
    return out;
  };
  // a.x belongs to the preserved side: the semi join moves onto a.
  const std::string base =
      "SELECT a.id, b.y FROM a LEFT JOIN b ON a.k = b.k WHERE ";
  // a.id is the row's position in d.a.
  const Case preserved{base + "a.x IN (SELECT k FROM d)",
                       filtered([&](const Row& r) {
                         return In(d.a[static_cast<size_t>(*r[0])][2], d.d);
                       })};
  ExpectMatchesReference(preserved);
  ExpectBelow(preserved.sql, "SEMI Join", "Column Scan a ");

  // b.y belongs to the null-supplying side: the join must stay above the
  // LEFT join, where padded rows carry a NULL b.y.
  const Case not_in{base + "b.y NOT IN (SELECT k FROM dn)",
                    filtered([&](const Row& r) { return NotIn(r[1], d.dn); })};
  ExpectMatchesReference(not_in);
  ExpectBelow(not_in.sql, "ANTI Join", "LEFT Join");
  const Case not_exists{
      base + "NOT EXISTS (SELECT * FROM d WHERE d.k = b.y)",
      filtered([&](const Row& r) { return !In(r[1], d.d); })};
  ExpectMatchesReference(not_exists);
  ExpectBelow(not_exists.sql, "ANTI Join", "LEFT Join");
  const Case in{base + "b.y IN (SELECT k FROM d)",
                filtered([&](const Row& r) { return In(r[1], d.d); })};
  ExpectMatchesReference(in);
  ExpectBelow(in.sql, "SEMI Join", "LEFT Join");
}

// Q21's shape: a correlated non-equality beside the correlated equality
// becomes the semi/anti join's residual.
Case ExistsWithResidual(const Data& d, bool negated, const std::string& a,
                        const std::string& b) {
  Case c{"SELECT " + a + ".id FROM " + a + " WHERE " +
             (negated ? "NOT " : "") + "EXISTS (SELECT * FROM " + b +
             " WHERE " + b + ".k = " + a + ".k AND " + b + ".y <> " + a +
             ".x)",
         {}};
  for (const Row& ar : d.a) {
    const bool found = std::any_of(d.b.begin(), d.b.end(), [&](const Row& br) {
      return Eq(br[0], ar[1]) && Ne(br[1], ar[2]);
    });
    if (found != negated) c.expected.push_back({ar[0]});
  }
  return c;
}

TEST_F(JoinPlacementTest, ExistsWithCorrelatedResidual) {
  for (bool negated : {false, true}) {
    const Case c = ExistsWithResidual(*data_, negated, "a", "b");
    ExpectMatchesReference(c, {1, 4});
    const std::string join = LineWith(MustExplain(c.sql),
                                      negated ? "ANTI Join" : "SEMI Join");
    EXPECT_NE(join.find("(b.y <> a.x)"), std::string::npos) << join;
  }
  // Without a correlated equality there is no hash key to join on.
  auto no_key = db_->Query(
      "SELECT a.id FROM a WHERE EXISTS (SELECT * FROM b WHERE b.y <> a.x)");
  EXPECT_FALSE(no_key.ok());
}

// An EXISTS conjunct over the outer query alone: a semi join filters its
// outer input with it; an anti join must keep it, since NOT EXISTS (...
// AND p) keeps every row where p is not true.
TEST_F(JoinPlacementTest, OuterOnlyConjunctsInExists) {
  const Data& d = *data_;
  for (bool negated : {false, true}) {
    Case c{std::string("SELECT a.id FROM a WHERE ") +
               (negated ? "NOT " : "") +
               "EXISTS (SELECT * FROM b WHERE b.k = a.k AND a.x > 5)",
           {}};
    for (const Row& ar : d.a) {
      const bool found = Gt(ar[2], 5) && In(ar[1], d.b);
      if (found != negated) c.expected.push_back({ar[0]});
    }
    ExpectMatchesReference(c);
    const std::string plan = MustExplain(c.sql);
    if (negated) {
      EXPECT_NE(LineWith(plan, "ANTI Join").find("(a.x > 5)"),
                std::string::npos)
          << plan;
    } else {
      EXPECT_EQ(LineWith(plan, "SEMI Join").find("a.x"), std::string::npos)
          << plan;
      EXPECT_TRUE(StartsWith(LineWith(plan, "Filter"), "Filter (a.x > 5)"))
          << plan;
    }
  }
}

TEST(JoinPlacementTpchTest, Q13AndQ18Placement) {
  platform::Platform db(platform::PlatformOptions{
      .attach_extended = false, .start_hadoop = false});
  tpch::TpchData data = tpch::Generate(0.002);
  for (const std::string& table : tpch::TpchTableNames()) {
    sql::CreateTableStmt create;
    create.table = table;
    create.columns = tpch::TpchSchema(table)->columns();
    ASSERT_TRUE(db.catalog().CreateTable(create).ok());
    ASSERT_TRUE(db.catalog().Insert(table, *tpch::TableRows(data, table)).ok());
  }
  auto q13 = db.Explain(tpch::QueryText(13));
  ASSERT_TRUE(q13.ok()) << q13.status().ToString();
  // The LEFT join keeps the bare key equality; NOT LIKE filters orders,
  // and a Project drops o_comment before the build.
  EXPECT_TRUE(StartsWith(
      LineWith(*q13, "LEFT Join"),
      "LEFT Join ON (customer.c_custkey = orders.o_custkey) ["))
      << *q13;
  EXPECT_TRUE(StartsWith(LineBelow(*q13, "Column Scan customer"),
                         "Project [orders.o_orderkey=orders.o_orderkey, "
                         "orders.o_custkey=orders.o_custkey] ["))
      << *q13;
  EXPECT_TRUE(StartsWith(
      LineBelow(*q13, "Project [orders.o_orderkey"),
      "Filter NOT (orders.o_comment LIKE '%special%requests%') ["))
      << *q13;
  EXPECT_TRUE(StartsWith(LineBelow(*q13, "Filter NOT (orders.o_comment"),
                         "Column Scan orders "))
      << *q13;

  auto q18 = db.Explain(tpch::QueryText(18));
  ASSERT_TRUE(q18.ok()) << q18.status().ToString();
  EXPECT_TRUE(StartsWith(LineBelow(*q18, "SEMI Join"), "Column Scan orders "))
      << *q18;
}

// The Figure 14 deployment: LINEITEM, CUSTOMER, ORDERS, PARTSUPP and
// PART in Hive, the rest local; plus small Hive copies of a, b, d and dn
// for the shipped EXISTS and NOT IN cases.
class FederatedPlacementTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new Data();
    tpch_ = new tpch::TpchData(tpch::Generate(0.002));
    fed_ = new platform::Platform();
    local_ = new platform::Platform(platform::PlatformOptions{
        .attach_extended = false, .start_hadoop = false});
    for (const std::string& table : tpch::TpchTableNames()) {
      sql::CreateTableStmt create;
      create.table = table;
      create.columns = tpch::TpchSchema(table)->columns();
      ASSERT_TRUE(local_->catalog().CreateTable(create).ok());
      ASSERT_TRUE(
          local_->catalog().Insert(table, *tpch::TableRows(*tpch_, table)).ok());
    }
    for (const char* table : {"supplier", "nation", "region"}) {
      sql::CreateTableStmt create;
      create.table = table;
      create.columns = tpch::TpchSchema(table)->columns();
      ASSERT_TRUE(fed_->catalog().CreateTable(create).ok());
      ASSERT_TRUE(
          fed_->catalog().Insert(table, *tpch::TableRows(*tpch_, table)).ok());
    }
    hadoop::HiveEngine* hive = fed_->hive();
    for (const char* table :
         {"lineitem", "customer", "orders", "partsupp", "part"}) {
      ASSERT_TRUE(hive->CreateTable(table, tpch::TpchSchema(table)).ok());
      ASSERT_TRUE(hive->LoadRows(table, *tpch::TableRows(*tpch_, table)).ok());
    }
    auto load = [&](const std::string& name,
                    const std::vector<std::string>& columns, const Rows& rows) {
      auto schema = std::make_shared<Schema>();
      for (const std::string& c : columns) {
        schema->AddColumn({c, DataType::kInt64, true});
      }
      std::vector<std::vector<Value>> values;
      for (const Row& r : rows) {
        std::vector<Value> v;
        for (const Cell& c : r) v.push_back(ToValue(c));
        values.push_back(std::move(v));
      }
      return hive->CreateTable(name, schema).ok() &&
             hive->LoadRows(name, values).ok();
    };
    ASSERT_TRUE(load("ha", {"id", "k", "x"}, data_->a));
    ASSERT_TRUE(load("hb", {"k", "y"}, data_->b));
    ASSERT_TRUE(load("hd", {"k"}, data_->d));
    ASSERT_TRUE(load("hdn", {"k"}, data_->dn));
    std::string ddl = R"(
        CREATE REMOTE SOURCE HIVE1 ADAPTER "hiveodbc" CONFIGURATION
          'DSN=hive1' WITH CREDENTIAL TYPE 'PASSWORD'
          USING 'user=dfuser;password=dfpass';)";
    for (const char* table : {"lineitem", "customer", "orders", "partsupp",
                              "part", "ha", "hb", "hd", "hdn"}) {
      ddl += StrFormat("CREATE VIRTUAL TABLE %s AT \"HIVE1\".\"dflo\".\"dflo\".\"%s\";",
                       table, table);
    }
    ASSERT_TRUE(fed_->Run(ddl).ok());
  }

  static void TearDownTestSuite() {
    delete fed_;
    delete local_;
    delete tpch_;
    delete data_;
  }

  static std::string RemoteSql(const std::string& plan) {
    for (const std::string& line : Split(plan, '\n')) {
      const size_t at = line.find("Remote Row Scan @HIVE1");
      if (at != std::string::npos) return line.substr(at);
    }
    return "";
  }

  static Data* data_;
  static tpch::TpchData* tpch_;
  static platform::Platform* fed_;
  static platform::Platform* local_;
};

Data* FederatedPlacementTest::data_ = nullptr;
tpch::TpchData* FederatedPlacementTest::tpch_ = nullptr;
platform::Platform* FederatedPlacementTest::fed_ = nullptr;
platform::Platform* FederatedPlacementTest::local_ = nullptr;

TEST_F(FederatedPlacementTest, ShippedSqlCarriesMovedPredicates) {
  // Q13 ships whole: its LEFT JOIN's ON clause is the bare equality and
  // the NOT LIKE filters the orders derived table.
  auto q13 = fed_->Explain(tpch::QueryText(13));
  ASSERT_TRUE(q13.ok()) << q13.status().ToString();
  const std::string sql13 = RemoteSql(*q13);
  ASSERT_NE(sql13.find("LEFT JOIN"), std::string::npos) << *q13;
  EXPECT_NE(sql13.find("LIKE '%special%requests%'"), std::string::npos)
      << sql13;
  EXPECT_EQ(sql13.substr(sql13.rfind(" ON ")).find("LIKE"), std::string::npos)
      << sql13;

  // Q18 ships whole, with the EXISTS directly on the orders scan.
  auto q18 = fed_->Explain(tpch::QueryText(18));
  ASSERT_TRUE(q18.ok()) << q18.status().ToString();
  EXPECT_TRUE(std::regex_search(
      RemoteSql(*q18),
      std::regex(R"(FROM \S*orders t[0-9]+\) l[0-9]+ WHERE EXISTS \()")))
      << *q18;

  // The queries have no ORDER BY: compare sorted rows.
  auto sorted = [](const storage::Table& t) {
    std::vector<std::vector<Value>> rows = t.rows();
    std::sort(rows.begin(), rows.end(), [](const auto& l, const auto& r) {
      for (size_t c = 0; c < l.size(); ++c) {
        if (const int cmp = l[c].Compare(r[c]); cmp != 0) return cmp < 0;
      }
      return false;
    });
    return rows;
  };
  for (int q : {13, 16, 18}) {
    SCOPED_TRACE("Q" + std::to_string(q));
    std::string sql = tpch::QueryText(q);
    // At this scale no order passes Q18's HAVING SUM > 300.
    if (q == 18) sql.replace(sql.find("> 300"), 5, "> 150");
    auto fed = fed_->Query(sql);
    auto loc = local_->Query(sql);
    ASSERT_TRUE(fed.ok()) << fed.status().ToString();
    ASSERT_TRUE(loc.ok()) << loc.status().ToString();
    const auto f = sorted(*fed);
    const auto l = sorted(*loc);
    ASSERT_EQ(f.size(), l.size());
    ASSERT_GT(f.size(), 0u);
    for (size_t r = 0; r < f.size(); ++r) {
      for (size_t c = 0; c < f[r].size(); ++c) {
        EXPECT_EQ(f[r][c].Compare(l[r][c]), 0) << "row " << r << " col " << c;
      }
    }
  }
}

TEST_F(FederatedPlacementTest, AntiJoinStaysAboveRemoteJoin) {
  // Q16's NOT IN reads the local SUPPLIER: moving it onto PARTSUPP
  // would split the PARTSUPP x PART join shipped to Hive.
  auto q16 = fed_->Explain(tpch::QueryText(16));
  ASSERT_TRUE(q16.ok()) << q16.status().ToString();
  const std::string below_anti = LineBelow(*q16, "ANTI Join");
  EXPECT_TRUE(StartsWith(below_anti, "Remote Row Scan @HIVE1")) << *q16;
  EXPECT_NE(below_anti.find(" JOIN "), std::string::npos) << *q16;
}

TEST_F(FederatedPlacementTest, ShippedJoinsMatchReference) {
  std::vector<Case> cases = {ExistsWithResidual(*data_, false, "ha", "hb"),
                             ExistsWithResidual(*data_, true, "ha", "hb")};
  Case not_in{"SELECT ha.id FROM ha WHERE ha.x NOT IN (SELECT k FROM hdn)",
              {}};
  for (const Row& ar : data_->a) {
    if (NotIn(ar[2], data_->dn)) not_in.expected.push_back({ar[0]});
  }
  cases.push_back(std::move(not_in));
  cases.push_back(
      {"SELECT ha.id FROM ha WHERE ha.x NOT IN (SELECT k FROM hd)", {}});
  Case left{"SELECT ha.id, hb.y FROM ha LEFT JOIN hb "
            "ON ha.k = hb.k AND hb.y > 10",
            data_->LeftAB(
                [](const Row&, const Row& br) { return Gt(br[1], 10); })};
  cases.push_back(std::move(left));
  // Its only ON conjunct moves onto hb: the shipped join reads ON TRUE.
  Case no_key{"SELECT ha.id, hb.y FROM ha LEFT JOIN hb ON hb.y > 37", {}};
  for (const Row& ar : data_->a) {
    bool matched = false;
    for (const Row& br : data_->b) {
      if (!Gt(br[1], 37)) continue;
      no_key.expected.push_back({ar[0], br[1]});
      matched = true;
    }
    if (!matched) no_key.expected.push_back({ar[0], std::nullopt});
  }
  cases.push_back(std::move(no_key));
  for (const Case& c : cases) {
    auto plan = fed_->Explain(c.sql);
    ASSERT_TRUE(plan.ok()) << c.sql << ": " << plan.status().ToString();
    // The whole statement ships: one remote query and nothing local.
    EXPECT_TRUE(StartsWith(Split(*plan, '\n')[0], "Remote Row Scan @HIVE1"))
        << *plan;
    if (c.sql.find("NOT IN") != std::string::npos) {
      EXPECT_NE(plan->find("NOT IN (SELECT"), std::string::npos) << *plan;
    }
    if (c.sql.find("ON hb.y > 37") != std::string::npos) {
      EXPECT_NE(plan->find(" ON TRUE"), std::string::npos) << *plan;
    }
    for (const std::string hint : {"", " WITH HINT (NO_FEDERATION)"}) {
      auto result = fed_->Query(c.sql + hint);
      ASSERT_TRUE(result.ok()) << c.sql << hint << ": "
                               << result.status().ToString();
      const Rows got = Sorted(FromTable(*result));
      EXPECT_EQ(got, Sorted(c.expected))
          << c.sql << hint << "\n got: " << Render(got)
          << "\nwant: " << Render(Sorted(c.expected));
    }
  }
}

}  // namespace
}  // namespace hana
