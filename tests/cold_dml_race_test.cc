// Cold DML against cold SELECTs (ctest label: concurrency;
// HANA_LOCK_ORDER=fatal). One thread runs 50 `SELECT COUNT(*), SUM(v)`
// over an extended table while another runs 50 `DELETE ... WHERE id =
// k` on it. The SELECTs read the table's row groups and tombstones
// under the SDA dispatch mutex, the DELETEs find their targets through
// the same extended scan and tombstone them; the extended store's one
// mutex orders every row-group, tombstone, cache and metrics access of
// both, so a ThreadSanitizer build reports no race, and every SELECT
// sees some prefix of the deletes whole.

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "platform/platform.h"

namespace hana::platform {
namespace {

TEST(ColdDmlRaceTest, DeletesAndScansOfOneExtendedTable) {
  constexpr int64_t kRows = 1000;
  constexpr int64_t kDeletes = 50;
  PlatformOptions options;
  options.start_hadoop = false;
  options.extended_options.rows_per_group = 256;
  Platform db(options);
  ASSERT_TRUE(db.SetParameter("threads", "2").ok());
  ASSERT_TRUE(
      db.Execute("CREATE TABLE e (id BIGINT, v BIGINT) USING EXTENDED STORAGE")
          .ok());
  std::vector<std::vector<Value>> rows;
  for (int64_t i = 0; i < kRows; ++i) rows.push_back({Value::Int(i), Value::Int(i)});
  ASSERT_TRUE(db.catalog().Insert("e", rows).ok());

  std::thread reader([&] {
    for (int i = 0; i < kDeletes; ++i) {
      auto result = db.Query("SELECT COUNT(*), SUM(v) FROM e");
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      // The deletes remove ids 0, 1, ... in order, all in row group 0:
      // j deleted rows leave the sum of ids j..kRows-1.
      const int64_t count = result->row(0)[0].int_value();
      const int64_t j = kRows - count;
      ASSERT_GE(j, 0);
      ASSERT_LE(j, kDeletes);
      EXPECT_EQ(result->row(0)[1].AsInt(),
                kRows * (kRows - 1) / 2 - j * (j - 1) / 2);
    }
  });
  for (int64_t k = 0; k < kDeletes; ++k) {
    auto deleted = db.Execute("DELETE FROM e WHERE id = " + std::to_string(k));
    ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
    EXPECT_EQ(deleted->metrics.rows, 1u);
  }
  reader.join();

  auto result = db.Query("SELECT COUNT(*), SUM(v) FROM e");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->row(0)[0].int_value(), kRows - kDeletes);
  EXPECT_EQ(result->row(0)[1].AsInt(),
            kRows * (kRows - 1) / 2 - kDeletes * (kDeletes - 1) / 2);
}

}  // namespace
}  // namespace hana::platform
