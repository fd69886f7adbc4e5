#include "streams.h"

#include <cstdio>
#include <utility>

#include "table_hash.h"
#include "tpch/queries.h"

namespace perfbench {

namespace {

constexpr int64_t kFirstDeliveryDay = 16436;  // 2015-01-01.

std::string DateLiteral(int64_t days) {
  return "DATE '" + hana::FormatDate(days) + "'";
}

const char* kAggregateSql =
    "SELECT ol_number, COUNT(*) AS n, SUM(ol_quantity) AS qty, "
    "SUM(ol_amount) AS amount FROM order_line";

}  // namespace

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<Statement> TpchPass(Rng* rng, bool federated) {
  std::vector<Statement> pass;
  for (int q : hana::tpch::BenchmarkQueries()) {
    Statement plain;
    plain.kind = "Q";
    plain.kind += std::to_string(q);
    plain.expect_key = plain.kind;
    plain.sql = hana::tpch::QueryText(
        q, federated && (q == 14 || q == 19) ? "part_local" : "part");
    if (federated) {
      Statement hinted = plain;
      hinted.kind += "+cache";
      hinted.sql += " WITH HINT (USE_REMOTE_CACHE)";
      hinted.expect_cache_hit = true;
      pass.push_back(std::move(hinted));
    }
    pass.push_back(std::move(plain));
  }
  for (size_t i = pass.size(); i > 1; --i) {
    std::swap(pass[i - 1], pass[rng->Below(i)]);
  }
  return pass;
}

// The fixed mask keeps this stream unrelated to the TPC-H order stream
// drawn from the same seed.
HtapStream::HtapStream(uint64_t seed) : rng_(seed ^ 0x6f6c5f6874617021ULL) {}

std::string HtapStream::CreateTableSql() {
  return "CREATE TABLE order_line (ol_o_id BIGINT, ol_d_id BIGINT, "
         "ol_w_id BIGINT, ol_number BIGINT, ol_i_id BIGINT, "
         "ol_supply_w_id BIGINT, ol_delivery_d DATE, ol_quantity BIGINT, "
         "ol_amount DOUBLE, ol_dist_info VARCHAR(24)) "
         "USING HYBRID EXTENDED STORAGE PARTITION BY RANGE (ol_o_id) "
         "(PARTITION VALUES < " +
         std::to_string(HtapShape::kColdOrders) +
         " COLD, PARTITION OTHERS HOT)";
}

std::vector<HtapStream::Line> HtapStream::NewOrder() {
  std::vector<Line> lines(HtapShape::kLinesPerOrder);
  int64_t w_id = 1 + static_cast<int64_t>(rng_.Below(HtapShape::kWarehouses));
  int64_t d_id = 1 + static_cast<int64_t>(rng_.Below(HtapShape::kDistricts));
  for (Line& line : lines) {
    line.d_id = d_id;
    line.w_id = w_id;
    line.i_id = 1 + static_cast<int64_t>(rng_.Below(100000));
    // CH-benCHmark: 1% of lines are supplied by a remote warehouse.
    line.supply_w_id =
        rng_.Below(100) == 0
            ? 1 + static_cast<int64_t>(rng_.Below(HtapShape::kWarehouses))
            : w_id;
    line.quantity = 1 + static_cast<int64_t>(rng_.Below(10));
    line.amount_cents = 1 + static_cast<int64_t>(rng_.Below(999999));
    line.delivery_days = -1;
    line.dist_info.resize(24);
    for (char& c : line.dist_info) c = static_cast<char>('a' + rng_.Below(26));
  }
  return lines;
}

std::vector<hana::Value> HtapStream::Row(int64_t o_id, int64_t number,
                                         const Line& line) {
  return {hana::Value::Int(o_id),
          hana::Value::Int(line.d_id),
          hana::Value::Int(line.w_id),
          hana::Value::Int(number),
          hana::Value::Int(line.i_id),
          hana::Value::Int(line.supply_w_id),
          line.delivery_days < 0 ? hana::Value::Null()
                                 : hana::Value::Date(line.delivery_days),
          hana::Value::Int(line.quantity),
          hana::Value::Double(static_cast<double>(line.amount_cents) / 100.0),
          hana::Value::String(line.dist_info)};
}

std::vector<std::vector<hana::Value>> HtapStream::InitialRows() {
  std::vector<std::vector<hana::Value>> rows;
  int64_t last = HtapShape::kColdOrders + HtapShape::kHotOrders;
  for (int64_t o_id = 0; o_id < last; ++o_id) {
    std::vector<Line> lines = NewOrder();
    for (Line& line : lines) line.delivery_days = kFirstDeliveryDay + o_id / 6;
    for (size_t n = 0; n < lines.size(); ++n) {
      rows.push_back(Row(o_id, static_cast<int64_t>(n) + 1, lines[n]));
    }
    orders_[o_id] = std::move(lines);
  }
  hot_hi_ = last;
  return rows;
}

Statement HtapStream::Insert() {
  Statement s;
  s.kind = "insert";
  s.select = false;
  s.sql = "INSERT INTO order_line VALUES ";
  char buf[256];
  for (int64_t i = 0; i < HtapShape::kInsertOrders; ++i) {
    int64_t o_id = hot_hi_++;
    std::vector<Line> lines = NewOrder();
    for (size_t n = 0; n < lines.size(); ++n) {
      const Line& l = lines[n];
      std::snprintf(buf, sizeof(buf),
                    "%s(%lld, %lld, %lld, %zu, %lld, %lld, NULL, %lld, "
                    "%lld.%02lld, '%s')",
                    i == 0 && n == 0 ? "" : ", ",
                    static_cast<long long>(o_id),
                    static_cast<long long>(l.d_id),
                    static_cast<long long>(l.w_id), n + 1,
                    static_cast<long long>(l.i_id),
                    static_cast<long long>(l.supply_w_id),
                    static_cast<long long>(l.quantity),
                    static_cast<long long>(l.amount_cents / 100),
                    static_cast<long long>(l.amount_cents % 100),
                    l.dist_info.c_str());
      s.sql += buf;
    }
    orders_[o_id] = std::move(lines);
  }
  s.expect_rows = HtapShape::kInsertOrders * HtapShape::kLinesPerOrder;
  return s;
}

Statement HtapStream::Point() {
  Statement s;
  s.kind = "point";
  int64_t o_id = hot_lo_ + static_cast<int64_t>(rng_.Below(
                               static_cast<uint64_t>(hot_hi_ - hot_lo_)));
  s.sql =
      "SELECT ol_number, ol_i_id, ol_delivery_d, ol_quantity, ol_amount "
      "FROM order_line WHERE ol_o_id = " +
      std::to_string(o_id);
  s.expect_rows = HtapShape::kLinesPerOrder;
  return s;
}

Statement HtapStream::Olap() const {
  Statement s;
  s.kind = "olap";
  s.sql = std::string(kAggregateSql) + " WHERE ol_o_id >= " +
          std::to_string(HtapShape::kColdOrders) + " GROUP BY ol_number";
  s.expect_rows = HtapShape::kLinesPerOrder;
  s.expect_count = hot_rows();
  return s;
}

Statement HtapStream::Update() {
  Statement s;
  s.kind = "update";
  s.select = false;
  int64_t o_id = hot_lo_ + static_cast<int64_t>(rng_.Below(
                               static_cast<uint64_t>(hot_hi_ - hot_lo_)));
  int64_t day = kFirstDeliveryDay + o_id / 6;
  s.sql = "UPDATE order_line SET ol_delivery_d = " + DateLiteral(day) +
          " WHERE ol_o_id = " + std::to_string(o_id);
  for (Line& line : orders_[o_id]) line.delivery_days = day;
  s.expect_rows = HtapShape::kLinesPerOrder;
  return s;
}

Statement HtapStream::Delete() {
  Statement s;
  s.kind = "delete";
  s.select = false;
  int64_t end = hot_lo_ + HtapShape::kDeleteOrders;
  s.sql = "DELETE FROM order_line WHERE ol_o_id >= " +
          std::to_string(hot_lo_) + " AND ol_o_id < " + std::to_string(end);
  for (; hot_lo_ < end; ++hot_lo_) orders_.erase(hot_lo_);
  s.expect_rows = HtapShape::kDeleteOrders * HtapShape::kLinesPerOrder;
  return s;
}

Statement HtapStream::History() const {
  Statement s;
  s.kind = "history";
  s.sql = std::string(kAggregateSql) + " GROUP BY ol_number";
  s.expect_rows = HtapShape::kLinesPerOrder;
  s.expect_count = live_rows();
  return s;
}

std::vector<Statement> HtapStream::NextCycle() {
  std::vector<Statement> cycle;
  for (int64_t round = 0; round < HtapShape::kRoundsPerCycle; ++round) {
    bool last = round + 1 == HtapShape::kRoundsPerCycle;
    cycle.push_back(Insert());
    cycle.push_back(Point());
    if (last) cycle.push_back(Update());
    cycle.push_back(Olap());
    if (last) cycle.push_back(Delete());
    cycle.push_back(Point());
    if (last) cycle.push_back(History());
  }
  return cycle;
}

uint64_t HtapStream::Checksum() const {
  uint64_t sum = 0;
  for (const auto& [o_id, lines] : orders_) {
    for (size_t n = 0; n < lines.size(); ++n) {
      sum += RowHash(Row(o_id, static_cast<int64_t>(n) + 1, lines[n]));
    }
  }
  return sum;
}

int64_t HtapStream::live_rows() const {
  return static_cast<int64_t>(orders_.size()) * HtapShape::kLinesPerOrder;
}

int64_t HtapStream::hot_rows() const {
  return (hot_hi_ - hot_lo_) * HtapShape::kLinesPerOrder;
}

}  // namespace perfbench
