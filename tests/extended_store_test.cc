#include <gtest/gtest.h>

#include <filesystem>

#include "common/util.h"
#include "extended/extended_store.h"
#include "extended/iq_engine.h"

namespace hana::extended {
namespace {

namespace fs = std::filesystem;

class ExtendedStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("hana_ext_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    ExtendedStoreOptions options;
    options.directory = dir_;
    options.rows_per_group = 256;
    store_ = std::make_unique<ExtendedStore>(options);
  }

  void TearDown() override {
    store_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  static std::shared_ptr<Schema> TestSchema() {
    return std::make_shared<Schema>(std::vector<ColumnDef>{
        {"id", DataType::kInt64, false},
        {"grp", DataType::kInt64, false},
        {"name", DataType::kString, true},
        {"score", DataType::kDouble, true}});
  }

  static std::vector<std::vector<Value>> MakeRows(size_t n) {
    Rng rng(n);
    std::vector<std::vector<Value>> rows;
    for (size_t i = 0; i < n; ++i) {
      rows.push_back(
          {Value::Int(static_cast<int64_t>(i)),
           Value::Int(static_cast<int64_t>(i / 100)),
           i % 13 == 0 ? Value::Null()
                       : Value::String("n" + std::to_string(i % 50)),
           Value::Double(rng.NextDouble() * 100)});
    }
    return rows;
  }

  std::string dir_;
  std::unique_ptr<ExtendedStore> store_;
};

TEST_F(ExtendedStoreTest, BulkLoadScanRoundTrip) {
  auto table = store_->CreateTable("t", TestSchema());
  ASSERT_TRUE(table.ok());
  auto rows = MakeRows(1000);
  ASSERT_TRUE((*table)->BulkLoad(rows).ok());
  EXPECT_EQ((*table)->num_rows(), 1000u);
  EXPECT_EQ((*table)->num_groups(), 4u);  // 256 rows per group.
  EXPECT_GT((*table)->disk_bytes(), 0u);

  std::vector<std::vector<Value>> scanned;
  ASSERT_TRUE((*table)
                  ->Scan({}, 128,
                         [&](const storage::Chunk& chunk) {
                           for (size_t r = 0; r < chunk.num_rows(); ++r) {
                             scanned.push_back(chunk.Row(r));
                           }
                           return true;
                         })
                  .ok());
  ASSERT_EQ(scanned.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t c = 0; c < rows[i].size(); ++c) {
      EXPECT_EQ(scanned[i][c].Compare(rows[i][c]), 0) << i << "," << c;
    }
  }
}

TEST_F(ExtendedStoreTest, DataActuallyOnDisk) {
  auto table = store_->CreateTable("t", TestSchema());
  ASSERT_TRUE((*table)->BulkLoad(MakeRows(500)).ok());
  fs::path file = fs::path(dir_) / "T.iqt";
  ASSERT_TRUE(fs::exists(file));
  EXPECT_EQ(fs::file_size(file), (*table)->disk_bytes());
}

TEST_F(ExtendedStoreTest, ZoneMapPruning) {
  auto table = store_->CreateTable("t", TestSchema());
  ASSERT_TRUE((*table)->BulkLoad(MakeRows(2048)).ok());
  store_->metrics().Reset();
  // id in [100, 150] touches exactly one of eight row groups.
  std::vector<ColumnRange> ranges = {
      {0, Value::Int(100), Value::Int(150)}};
  size_t rows = 0;
  ASSERT_TRUE((*table)
                  ->Scan(ranges, 4096,
                         [&](const storage::Chunk& chunk) {
                           rows += chunk.num_rows();
                           return true;
                         })
                  .ok());
  EXPECT_EQ(rows, 256u);  // The whole matching group (conservative).
  EXPECT_EQ(store_->metrics().blocks_read, 4u);  // One group x 4 columns.
}

TEST_F(ExtendedStoreTest, BufferCacheHits) {
  auto table = store_->CreateTable("t", TestSchema());
  ASSERT_TRUE((*table)->BulkLoad(MakeRows(512)).ok());
  auto scan_all = [&] {
    (void)(*table)->Scan({}, 4096, [](const storage::Chunk&) {
      return true;
    });
  };
  store_->metrics().Reset();
  scan_all();
  uint64_t cold_reads = store_->metrics().blocks_read;
  EXPECT_GT(cold_reads, 0u);
  scan_all();
  EXPECT_EQ(store_->metrics().blocks_read, cold_reads);  // No new reads.
  EXPECT_GE(store_->metrics().cache_hits, cold_reads);
}

TEST_F(ExtendedStoreTest, VirtualIoTimeAdvances) {
  auto table = store_->CreateTable("t", TestSchema());
  ASSERT_TRUE((*table)->BulkLoad(MakeRows(512)).ok());
  double before = store_->clock().now_ms();
  store_->metrics().Reset();
  (void)(*table)->Scan({}, 4096,
                       [](const storage::Chunk&) { return true; });
  EXPECT_GT(store_->clock().now_ms(), before);
  EXPECT_GT(store_->metrics().simulated_io_ms, 0.0);
}

// Chunk-level match on `id % 2 == 0`, the shape of exec::SelectRows.
Status EvenIds(const storage::Chunk& chunk, std::vector<uint8_t>* mask) {
  mask->resize(chunk.num_rows());
  for (size_t r = 0; r < chunk.num_rows(); ++r) {
    (*mask)[r] = chunk.columns[0]->GetInt(r) % 2 == 0;
  }
  return Status::OK();
}

TEST_F(ExtendedStoreTest, DeleteWhere) {
  auto table = store_->CreateTable("t", TestSchema());
  ASSERT_TRUE((*table)->BulkLoad(MakeRows(600)).ok());
  auto matched = (*table)->MatchRows({}, EvenIds);
  ASSERT_TRUE(matched.ok());
  EXPECT_EQ(matched->size(), 300u);
  EXPECT_EQ((*table)->live_rows(), 600u);  // Matching changes nothing.
  EXPECT_EQ((*table)->DeleteRows(*matched), 300u);
  EXPECT_EQ((*table)->DeleteRows(*matched), 0u);  // Already deleted.
  EXPECT_EQ((*table)->live_rows(), 300u);
  size_t rows = 0;
  ASSERT_TRUE((*table)
                  ->Scan({}, 4096,
                         [&](const storage::Chunk& chunk) {
                           for (size_t r = 0; r < chunk.num_rows(); ++r) {
                             EXPECT_EQ(
                                 chunk.Row(r)[0].int_value() % 2, 1);
                             ++rows;
                           }
                           return true;
                         })
                  .ok());
  EXPECT_EQ(rows, 300u);
  auto again = (*table)->MatchRows({}, EvenIds);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->empty());  // Deleted rows never match again.
}

TEST_F(ExtendedStoreTest, MatchRowsSkipsPrunedAndDeletedGroups) {
  auto table = store_->CreateTable("t", TestSchema());
  ASSERT_TRUE((*table)->BulkLoad(MakeRows(2048)).ok());
  store_->metrics().Reset();
  // id in [100, 150] lies in one of eight row groups: only its four
  // column blocks are read.
  std::vector<ColumnRange> ranges = {{0, Value::Int(100), Value::Int(150)}};
  auto all_rows = [](const storage::Chunk& chunk, std::vector<uint8_t>* mask) {
    mask->assign(chunk.num_rows(), 1);
    return Status::OK();
  };
  auto group = (*table)->MatchRows(ranges, all_rows);
  ASSERT_TRUE(group.ok());
  EXPECT_EQ(group->size(), 256u);  // The zone map keeps the whole group.
  EXPECT_EQ(store_->metrics().blocks_read, 4u);
  EXPECT_EQ((*table)->DeleteRows(*group), 256u);

  // A fully deleted group is not read again, even without ranges.
  store_->metrics().Reset();
  auto rest = (*table)->MatchRows({}, all_rows);
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(rest->size(), 2048u - 256u);
  EXPECT_EQ(store_->metrics().blocks_read + store_->metrics().cache_hits,
            7u * 4u);
}

TEST_F(ExtendedStoreTest, MatchRowsHidesDeletedRowsFromThePredicate) {
  auto table = store_->CreateTable("t", TestSchema());
  ASSERT_TRUE((*table)->BulkLoad(MakeRows(300)).ok());
  auto odd = (*table)->MatchRows({}, [](const storage::Chunk& chunk,
                                        std::vector<uint8_t>* mask) {
    mask->resize(chunk.num_rows());
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      (*mask)[r] = chunk.columns[0]->GetInt(r) % 2 == 1;
    }
    return Status::OK();
  });
  ASSERT_TRUE(odd.ok());
  ASSERT_EQ((*table)->DeleteRows(*odd), 150u);
  // A predicate that fails on any odd id now sees only even ids.
  auto even = (*table)->MatchRows({}, [](const storage::Chunk& chunk,
                                         std::vector<uint8_t>* mask) {
    mask->resize(chunk.num_rows());
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      if (chunk.columns[0]->GetInt(r) % 2 == 1) {
        return Status::InvalidArgument("deleted row reached the predicate");
      }
      (*mask)[r] = 1;
    }
    return Status::OK();
  });
  ASSERT_TRUE(even.ok()) << even.status().ToString();
  ASSERT_EQ(even->size(), 150u);
  EXPECT_EQ((*even)[0].row, 0u);
  EXPECT_EQ((*even)[1].row, 2u);
}

TEST_F(ExtendedStoreTest, ColumnMinMax) {
  auto table = store_->CreateTable("t", TestSchema());
  ASSERT_TRUE((*table)->BulkLoad(MakeRows(300)).ok());
  EXPECT_EQ((*table)->ColumnMin(0)->int_value(), 0);
  EXPECT_EQ((*table)->ColumnMax(0)->int_value(), 299);
}

TEST_F(ExtendedStoreTest, TableLifecycle) {
  ASSERT_TRUE(store_->CreateTable("a", TestSchema()).ok());
  EXPECT_FALSE(store_->CreateTable("A", TestSchema()).ok());  // Case-dup.
  EXPECT_TRUE(store_->HasTable("a"));
  EXPECT_TRUE(store_->GetTable("A").ok());
  ASSERT_TRUE(store_->DropTable("a").ok());
  EXPECT_FALSE(store_->HasTable("a"));
  EXPECT_FALSE(store_->DropTable("a").ok());
}

TEST_F(ExtendedStoreTest, IqEngineExecutesShippedSql) {
  IqEngine iq(store_.get());
  auto rows = MakeRows(1000);
  ASSERT_TRUE(iq.CreateAndLoad("facts", TestSchema(), rows).ok());
  auto result = iq.ExecuteSql(
      "SELECT grp, COUNT(*) AS n, SUM(score) AS total FROM facts"
      " WHERE id < 500 GROUP BY grp");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 5u);  // Groups 0..4.
  for (const auto& row : result->rows()) {
    EXPECT_EQ(row[1].int_value(), 100);
  }
}

TEST_F(ExtendedStoreTest, IqEngineJoins) {
  IqEngine iq(store_.get());
  ASSERT_TRUE(iq.CreateAndLoad("l", TestSchema(), MakeRows(200)).ok());
  ASSERT_TRUE(iq.CreateAndLoad("r", TestSchema(), MakeRows(100)).ok());
  auto result = iq.ExecuteSql(
      "SELECT COUNT(*) AS n FROM l JOIN r ON l.id = r.id");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->row(0)[0].int_value(), 100);
  EXPECT_FALSE(iq.ExecuteSql("SELECT * FROM nope").ok());
}

}  // namespace
}  // namespace hana::extended
