#ifndef PERFBENCH_STREAMS_H_
#define PERFBENCH_STREAMS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/value.h"

namespace perfbench {

/// splitmix64: small, seedable and identical on every platform, so a
/// seed names one statement stream everywhere.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// One statement of a workload's stream and what its outcome must be.
struct Statement {
  std::string kind;  // Latency samples are kept per kind.
  std::string sql;
  bool select = true;
  /// Key into the stored TPC-H expectations ("Q3"); empty = none.
  std::string expect_key;
  /// SELECT: result rows; DML: affected rows; -1 = not checked.
  int64_t expect_rows = -1;
  /// SELECT: sum of the result's `n` column; -1 = not checked.
  int64_t expect_count = -1;
  bool expect_cache_hit = false;
};

/// One TPC-H pass: the paper's 12 queries, each once, in an order drawn
/// from `rng`. Federated passes hold each query twice, plain and with
/// WITH HINT (USE_REMOTE_CACHE), and keep PART local for Q14 and Q19 as
/// the paper's deployment does.
std::vector<Statement> TpchPass(Rng* rng, bool federated);

/// Sizes of the hybrid-table workload (documented in README.md).
struct HtapShape {
  static constexpr int64_t kColdOrders = 10000;   // 100k cold rows.
  static constexpr int64_t kHotOrders = 1000;     // 10k hot rows.
  static constexpr int64_t kLinesPerOrder = 10;
  static constexpr int64_t kInsertOrders = 10;    // 100-row INSERT.
  static constexpr int64_t kDeleteOrders = 40;    // 400-row DELETE.
  static constexpr int64_t kRoundsPerCycle = 4;
  static constexpr int64_t kWarehouses = 5;
  static constexpr int64_t kDistricts = 10;
};

/// The seeded statement stream of the hybrid-table workload plus an
/// in-memory model of the table it drives. The model yields the
/// expected affected-row counts, aggregate counts and final checksum
/// for any seed, so expectations need not be stored per seed.
class HtapStream {
 public:
  explicit HtapStream(uint64_t seed);

  static std::string CreateTableSql();
  static const char* TableName() { return "order_line"; }

  /// The initial cold (orders below kColdOrders) and hot rows.
  std::vector<std::vector<hana::Value>> InitialRows();

  /// The statements of one cycle of kRoundsPerCycle rounds. Every round
  /// inserts 100 rows, runs two point SELECTs and one hot-window
  /// aggregate; the last round also updates one order, deletes the 40
  /// oldest hot orders and aggregates the full history. The model
  /// advances as if every statement succeeds.
  std::vector<Statement> NextCycle();

  /// Order-insensitive checksum of the modelled table (TableHash form).
  uint64_t Checksum() const;
  int64_t live_rows() const;
  int64_t hot_rows() const;

 private:
  struct Line {
    int64_t d_id, w_id, i_id, supply_w_id, quantity, amount_cents;
    int64_t delivery_days;  // < 0 = NULL (not delivered yet).
    std::string dist_info;
  };
  std::vector<Line> NewOrder();
  static std::vector<hana::Value> Row(int64_t o_id, int64_t number,
                                      const Line& line);
  Statement Insert();
  Statement Point();
  Statement Olap() const;
  Statement Update();
  Statement Delete();
  Statement History() const;

  Rng rng_;
  std::map<int64_t, std::vector<Line>> orders_;
  int64_t hot_lo_ = HtapShape::kColdOrders;  // Oldest live hot order.
  int64_t hot_hi_ = HtapShape::kColdOrders;  // Next order id.
};

}  // namespace perfbench

#endif  // PERFBENCH_STREAMS_H_
