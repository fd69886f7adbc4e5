// Cold scans read row groups ahead on the task pool: at dop d, up to
// d - 1 later groups of an extended table are read and decoded while
// the scan consumes the current one (extended::ExtendedTable::Scan).
// The read-ahead must be invisible. For an extended table
// and a hybrid table's cold partition of eight row groups — one group
// with tombstones, one query that prunes groups by zone map, a buffer
// cache that holds about half the blocks — the same statement sequence
// runs on a fresh platform at threads 1, 2, 4 and 8, and
//  * every result table, DOUBLE sums included, is bit-identical;
//  * the extended store's counters (blocks_read, bytes_read,
//    cache_hits, simulated_io_ms) are identical after every statement;
//  * a LIMIT 5 scan charges only the first row group's blocks.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "platform/platform.h"

namespace hana {
namespace {

// One chunk per row group, so a LIMIT is satisfied by the first group.
constexpr size_t kGroupRows = storage::kDefaultChunkRows;
constexpr int64_t kColdRows = 7 * kGroupRows + 100;  // Eight row groups.
constexpr size_t kColumns = 4;

std::vector<std::vector<Value>> MakeRows(int64_t n) {
  std::vector<std::vector<Value>> rows;
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back(
        {Value::Int(i), Value::Int(i / 500),
         i % 11 == 0 ? Value::Null()
                     : Value::Double(static_cast<double>((i * 37) % 1000) /
                                         7.0 +
                                     0.1),
         i % 19 == 0 ? Value::Null()
                     : Value::String("t" + std::to_string(i % 23))});
  }
  return rows;
}

const char* kColumnsSql =
    "(id BIGINT, day BIGINT, amount DOUBLE, tag VARCHAR(8))";

// The statement sequence; every statement is run at every dop.
const std::vector<std::string>& Statements() {
  static const std::vector<std::string> statements = {
      // First statement on a cold cache: the LIMIT stops in group 0.
      "SELECT * FROM ext LIMIT 5",
      // Tombstones in group 1 of ext and group 2 of hyb's cold partition.
      "DELETE FROM ext WHERE id >= 2100 AND id < 2300",
      "DELETE FROM hyb WHERE id >= 4200 AND id < 4300",
      "SELECT day, COUNT(*), SUM(amount), MIN(tag) FROM ext GROUP BY day "
      "ORDER BY day",
      // Zone maps prune groups 0 and 1.
      "SELECT COUNT(*), SUM(amount) FROM ext WHERE id >= 6000",
      "SELECT day, COUNT(*), SUM(amount) FROM hyb GROUP BY day ORDER BY day",
      "SELECT id, amount, tag FROM hyb WHERE id < 5000 ORDER BY id",
      "SELECT day, COUNT(*), SUM(amount), MIN(tag) FROM ext GROUP BY day "
      "ORDER BY day",
  };
  return statements;
}

struct ScanRun {
  std::vector<storage::Table> results;
  std::vector<size_t> rows;  // Result rows, or rows a DELETE changed.
  std::vector<extended::ExtendedStoreMetrics> metrics;  // After each.
};

std::unique_ptr<platform::Platform> MakePlatform(size_t cache_bytes) {
  platform::PlatformOptions options;
  options.start_hadoop = false;
  options.extended_options.rows_per_group = kGroupRows;
  options.extended_options.cache_bytes = cache_bytes;
  auto db = std::make_unique<platform::Platform>(options);
  const std::string hybrid =
      " USING HYBRID EXTENDED STORAGE PARTITION BY RANGE (id) "
      "(PARTITION VALUES < " + std::to_string(kColdRows) +
      " COLD, PARTITION OTHERS HOT)";
  EXPECT_TRUE(db->Run(std::string("CREATE TABLE ext ") + kColumnsSql +
                      " USING EXTENDED STORAGE; CREATE TABLE hyb " +
                      kColumnsSql + hybrid)
                  .ok());
  EXPECT_TRUE(db->catalog().Insert("ext", MakeRows(kColdRows)).ok());
  EXPECT_TRUE(db->catalog().Insert("hyb", MakeRows(kColdRows + 500)).ok());
  return db;
}

/// About half the decoded footprint of every block in the store (the
/// cache charges 4 bytes per disk byte plus 64 per block).
size_t HalfTheBlocks() {
  auto probe = MakePlatform(64 << 20);
  extended::ExtendedStore* store = probe->iq()->store();
  size_t bytes = 0;
  for (const std::string& name : store->TableNames()) {
    auto table = store->GetTable(name);
    EXPECT_TRUE(table.ok());
    bytes += (*table)->disk_bytes() * 4 +
             (*table)->num_groups() * (*table)->schema()->num_columns() * 64;
  }
  return bytes / 2;
}

ScanRun RunAt(size_t dop, size_t cache_bytes) {
  auto db = MakePlatform(cache_bytes);
  EXPECT_TRUE(db->SetParameter("threads", std::to_string(dop)).ok());
  db->iq()->store()->ResetMetrics();
  ScanRun run;
  for (const std::string& sql : Statements()) {
    auto result = db->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    run.results.push_back(result.ok() ? result->table : storage::Table());
    run.rows.push_back(result.ok() ? result->metrics.rows : 0);
    run.metrics.push_back(db->iq()->store()->metrics());
  }
  return run;
}

bool BitIdentical(const Value& a, const Value& b) {
  if (a.type() != b.type() || a.is_null() != b.is_null()) return false;
  if (a.is_null()) return true;
  if (a.type() == DataType::kDouble) {
    double x = a.AsDouble(), y = b.AsDouble();
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  }
  return a.Compare(b) == 0;
}

TEST(ColdScanReadAhead, InvisibleAtEveryDop) {
  const size_t cache_bytes = HalfTheBlocks();
  const ScanRun serial = RunAt(1, cache_bytes);
  const std::vector<std::string>& statements = Statements();
  ASSERT_EQ(serial.results.size(), statements.size());

  // The LIMIT read group 0's blocks and nothing else.
  EXPECT_EQ(serial.results[0].num_rows(), 5u);
  EXPECT_EQ(serial.metrics[0].blocks_read, kColumns);
  EXPECT_EQ(serial.metrics[0].cache_hits, 0u);
  // The deletes found their rows, and the scans do not see them.
  EXPECT_EQ(serial.rows[1], 200u);
  EXPECT_EQ(serial.rows[2], 100u);
  ASSERT_EQ(serial.results[4].num_rows(), 1u);
  EXPECT_EQ(serial.results[4].row(0)[0].AsInt(), kColdRows - 6000);
  int64_t counted = 0;
  for (const auto& row : serial.results[3].rows()) counted += row[1].AsInt();
  EXPECT_EQ(counted, kColdRows - 200);
  // The pruned scan touched fewer blocks than the full one.
  auto touched = [&](size_t i) {
    const auto& after = serial.metrics[i];
    const auto& before = serial.metrics[i - 1];
    return after.blocks_read + after.cache_hits - before.blocks_read -
           before.cache_hits;
  };
  EXPECT_LT(touched(4), touched(3));
  // The cache holds about half the blocks: a second full scan misses.
  EXPECT_GT(serial.metrics[7].blocks_read, serial.metrics[6].blocks_read);

  for (size_t dop : {2, 4, 8}) {
    const ScanRun run = RunAt(dop, cache_bytes);
    ASSERT_EQ(run.results.size(), statements.size());
    for (size_t i = 0; i < statements.size(); ++i) {
      SCOPED_TRACE("threads " + std::to_string(dop) + ": " + statements[i]);
      const storage::Table& want = serial.results[i];
      const storage::Table& got = run.results[i];
      EXPECT_EQ(run.rows[i], serial.rows[i]);
      ASSERT_EQ(got.num_rows(), want.num_rows());
      for (size_t r = 0; r < want.num_rows(); ++r) {
        ASSERT_EQ(got.row(r).size(), want.row(r).size());
        for (size_t c = 0; c < want.row(r).size(); ++c) {
          EXPECT_TRUE(BitIdentical(got.row(r)[c], want.row(r)[c]))
              << "row " << r << " column " << c << ": "
              << got.row(r)[c].ToString() << " vs "
              << want.row(r)[c].ToString();
        }
      }
      const extended::ExtendedStoreMetrics& m = run.metrics[i];
      const extended::ExtendedStoreMetrics& w = serial.metrics[i];
      EXPECT_EQ(m.blocks_read, w.blocks_read);
      EXPECT_EQ(m.bytes_read, w.bytes_read);
      EXPECT_EQ(m.cache_hits, w.cache_hits);
      EXPECT_EQ(m.simulated_io_ms, w.simulated_io_ms);
    }
  }
}

}  // namespace
}  // namespace hana
