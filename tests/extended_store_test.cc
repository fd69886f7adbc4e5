#include <gtest/gtest.h>

#include <filesystem>
#include <functional>

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
  store_->ResetMetrics();
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
  store_->ResetMetrics();
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
  store_->ResetMetrics();
  (void)(*table)->Scan({}, 4096,
                       [](const storage::Chunk&) { return true; });
  EXPECT_GT(store_->clock().now_ms(), before);
  EXPECT_GT(store_->metrics().simulated_io_ms, 0.0);
}

using ChunkMatch =
    std::function<Status(const storage::Chunk&, std::vector<uint8_t>*)>;

// The row ids of the live rows `match` selects, in row order, from a
// projected scan of every column and the row id: the shape of a DML
// target search. A match error is returned as is.
Result<std::vector<int64_t>> MatchRows(ExtendedTable* table,
                                       const std::vector<ColumnRange>& ranges,
                                       const ChunkMatch& match,
                                       size_t dop = 1) {
  std::vector<size_t> columns = storage::AllColumnIds(*table->schema());
  columns.push_back(storage::kRowIdColumn);
  auto schema = std::make_shared<Schema>(*table->schema());
  schema->AddColumn({"$rowid", DataType::kInt64, false});
  std::vector<int64_t> ids;
  std::vector<uint8_t> mask;
  Status matched;
  HANA_RETURN_IF_ERROR(table->Scan(
      ranges, 4096, columns, schema,
      [&](const storage::Chunk& chunk) {
        matched = match(chunk, &mask);
        if (!matched.ok()) return false;
        for (size_t r = 0; r < chunk.num_rows(); ++r) {
          if (mask[r] != 0) ids.push_back(chunk.columns.back()->GetInt(r));
        }
        return true;
      },
      dop));
  HANA_RETURN_IF_ERROR(matched);
  return ids;
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
  auto matched = MatchRows(*table, {}, EvenIds);
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
  auto again = MatchRows(*table, {}, EvenIds);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->empty());  // Deleted rows never match again.
}

TEST_F(ExtendedStoreTest, MatchRowsSkipsPrunedAndDeletedGroups) {
  auto table = store_->CreateTable("t", TestSchema());
  ASSERT_TRUE((*table)->BulkLoad(MakeRows(2048)).ok());
  store_->ResetMetrics();
  // id in [100, 150] lies in one of eight row groups: only its four
  // column blocks are read.
  std::vector<ColumnRange> ranges = {{0, Value::Int(100), Value::Int(150)}};
  auto all_rows = [](const storage::Chunk& chunk, std::vector<uint8_t>* mask) {
    mask->assign(chunk.num_rows(), 1);
    return Status::OK();
  };
  auto group = MatchRows(*table, ranges, all_rows);
  ASSERT_TRUE(group.ok());
  EXPECT_EQ(group->size(), 256u);  // The zone map keeps the whole group.
  EXPECT_EQ(store_->metrics().blocks_read, 4u);
  EXPECT_EQ((*table)->DeleteRows(*group), 256u);

  // A fully deleted group is not read again, even without ranges.
  store_->ResetMetrics();
  auto rest = MatchRows(*table, {}, all_rows);
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(rest->size(), 2048u - 256u);
  EXPECT_EQ(store_->metrics().blocks_read + store_->metrics().cache_hits,
            7u * 4u);
}

TEST_F(ExtendedStoreTest, MatchRowsHidesDeletedRowsFromThePredicate) {
  auto table = store_->CreateTable("t", TestSchema());
  ASSERT_TRUE((*table)->BulkLoad(MakeRows(300)).ok());
  auto odd = MatchRows(*table, {}, [](const storage::Chunk& chunk,
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
  auto even = MatchRows(*table, {}, [](const storage::Chunk& chunk,
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
  EXPECT_EQ((*even)[0], 0);  // Group 0: the id is the row.
  EXPECT_EQ((*even)[1], 2);
}

// A DOUBLE block without NULLs is laid out as varint(mask bytes), the
// RLE null mask (row count, then (value, run) pairs) and the payload
// (value count, then one XOR varint per value). Each case rewrites bytes
// of the last of three identical row groups, so at dop 4 the corrupt
// block is first met by a read-ahead task.
TEST_F(ExtendedStoreTest, CorruptBlocksAreIoErrors) {
  constexpr size_t kRows = 10;
  ExtendedStoreOptions options = store_->options();
  options.rows_per_group = kRows;
  store_ = std::make_unique<ExtendedStore>(options);
  auto schema = std::make_shared<Schema>(
      std::vector<ColumnDef>{{"v", DataType::kDouble, true}});
  std::vector<std::vector<Value>> rows;
  for (size_t i = 0; i < 3 * kRows; ++i) {
    rows.push_back({Value::Double(static_cast<double>(i % kRows) + 0.5)});
  }
  struct Case {
    const char* what;
    std::vector<std::pair<size_t, uint8_t>> bytes;  // (offset, new byte)
  };
  const std::vector<Case> cases = {
      {"mask size past the block", {{0, 0x7f}}},
      {"mask of fewer rows than the group", {{1, 9}, {3, 9}}},
      {"mask of more rows than the group", {{1, 11}, {3, 11}}},
      {"fewer values than non-null rows", {{4, 9}}},
  };
  auto all_rows = [](const storage::Chunk& chunk, std::vector<uint8_t>* mask) {
    mask->assign(chunk.num_rows(), 1);
    return Status::OK();
  };
  for (const Case& c : cases) {
    for (size_t dop : {1, 4}) {
      SCOPED_TRACE(std::string(c.what) + " at dop " + std::to_string(dop));
      std::string name = "c" + std::to_string(dop);
      if (store_->HasTable(name)) {
        ASSERT_TRUE(store_->DropTable(name).ok());
      }
      auto table = store_->CreateTable(name, schema);
      ASSERT_TRUE(table.ok());
      ASSERT_TRUE((*table)->BulkLoad(rows).ok());
      ASSERT_EQ((*table)->num_groups(), 3u);
      std::string path = dir_ + "/C" + std::to_string(dop) + ".iqt";
      std::vector<uint8_t> file(fs::file_size(path));
      std::FILE* in = std::fopen(path.c_str(), "rb");
      ASSERT_NE(in, nullptr);
      ASSERT_EQ(std::fread(file.data(), 1, file.size(), in), file.size());
      std::fclose(in);
      const size_t block = file.size() / 3;
      const size_t last = 2 * block;
      // The layout the offsets assume: 3 mask bytes [10, 0, 10], then
      // the payload's count.
      ASSERT_EQ(file[last], 3);
      ASSERT_EQ(file[last + 1], kRows);
      ASSERT_EQ(file[last + 3], kRows);
      ASSERT_EQ(file[last + 4], kRows);
      for (const auto& [offset, byte] : c.bytes) file[last + offset] = byte;
      std::FILE* out = std::fopen(path.c_str(), "wb");
      ASSERT_NE(out, nullptr);
      ASSERT_EQ(std::fwrite(file.data(), 1, file.size(), out), file.size());
      std::fclose(out);

      size_t scanned = 0;
      Status scan = (*table)->Scan(
          {}, 4,
          [&](const storage::Chunk& chunk) {
            scanned += chunk.num_rows();
            return true;
          },
          dop);
      EXPECT_EQ(scan.code(), StatusCode::kIoError) << scan.ToString();
      EXPECT_LE(scanned, 2 * kRows);
      auto matched = MatchRows(*table, {}, all_rows, dop);
      EXPECT_EQ(matched.status().code(), StatusCode::kIoError)
          << matched.status().ToString();
    }
  }
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
