// Tests for the online parallel delta merge: bit-identical
// serial-vs-parallel shadow builds, merge correctness on edge-case
// tables (all-null, delete-heavy, double merge), snapshot consistency
// of scans running concurrently with a merge, appends landing in a
// fresh delta mid-merge, MergeStats observability, and the platform's
// MERGE DELTA statement and merge_threshold_rows. The concurrency cases
// run under HANA_SANITIZE=thread via the `concurrency` ctest label.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/util.h"
#include "platform/platform.h"
#include "storage/column_table.h"

namespace hana::storage {
namespace {

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

Value RandomValue(Rng* rng, int kind) {
  if (rng->Uniform(0, 9) == 0) return Value::Null();
  switch (kind) {
    case 0:
      return Value::Int(rng->Uniform(-50, 50));
    case 1:
      return Value::Double(static_cast<double>(rng->Uniform(0, 300)) / 4.0);
    default:
      return Value::String("s_" + std::to_string(rng->Uniform(0, 40)));
  }
}

std::shared_ptr<Schema> TestSchema() {
  return std::make_shared<Schema>(std::vector<ColumnDef>{
      {"a", DataType::kInt64, true},
      {"b", DataType::kDouble, true},
      {"c", DataType::kString, true}});
}

/// Fills `table` with `rows` pseudo-random rows; when `merge_at` > 0 a
/// serial merge runs mid-fill so the table ends up with both a packed
/// main and a populated delta.
void Fill(ColumnTable* table, size_t rows, uint64_t seed, size_t merge_at) {
  Rng rng(seed);
  std::vector<std::vector<Value>> batch;
  for (size_t i = 0; i < rows; ++i) {
    batch.push_back(
        {RandomValue(&rng, 0), RandomValue(&rng, 1), RandomValue(&rng, 2)});
    if (i + 1 != rows && i + 1 != merge_at) continue;
    ASSERT_TRUE(table->AppendRows(batch).ok());
    batch.clear();
    if (merge_at > 0 && i + 1 == merge_at) {
      MergeOptions serial;
      serial.parallel = false;
      ASSERT_TRUE(table->MergeDelta(serial).ok());
    }
  }
}

/// Order-sensitive digest of every live row the scan produces.
uint64_t ScanDigest(const ColumnTable& table) {
  uint64_t digest = 1469598103934665603ull;
  table.Scan(0, [&](const Chunk& chunk) {
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      for (size_t c = 0; c < chunk.num_columns(); ++c) {
        Value v = chunk.columns[c]->GetValue(r);
        digest ^= v.is_null() ? 0x9e3779b97f4a7c15ull : v.Hash();
        digest *= 1099511628211ull;
      }
    }
    return true;
  });
  return digest;
}

// ---------------------------------------------------------------------
// BuildMergedMain: serial vs parallel bit-identity
// ---------------------------------------------------------------------

TEST(BuildMergedMain, BitIdenticalAcrossThreadsAndMorsels) {
  for (int kind : {0, 1, 2}) {
    StoredColumn column(kind == 0   ? DataType::kInt64
                        : kind == 1 ? DataType::kDouble
                                    : DataType::kString);
    Rng rng(7 + kind);
    for (size_t i = 0; i < 40000; ++i) column.Append(RandomValue(&rng, kind));
    column.MergeDelta();  // Seed a packed main.
    for (size_t i = 0; i < 30000; ++i) column.Append(RandomValue(&rng, kind));
    ASSERT_TRUE(column.FreezeDelta());

    MergeOptions serial;
    serial.parallel = false;
    auto reference = BuildMergedMain(*column.main_part(),
                                     *column.frozen_part(), serial);
    for (size_t morsel_rows : {size_t{64}, size_t{100}, size_t{1} << 12}) {
      for (size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
        MergeOptions parallel;
        parallel.parallel = true;
        parallel.max_workers = workers;
        parallel.morsel_rows = morsel_rows;
        auto built = BuildMergedMain(*column.main_part(),
                                     *column.frozen_part(), parallel);
        EXPECT_EQ(reference->bits, built->bits);
        EXPECT_EQ(reference->rows, built->rows);
        EXPECT_EQ(reference->words, built->words);  // Bit-identical.
        EXPECT_EQ(reference->nulls, built->nulls);
        ASSERT_EQ(reference->dict.size(), built->dict.size());
        for (size_t i = 0; i < reference->dict.size(); ++i) {
          EXPECT_TRUE(reference->dict[i] == built->dict[i]);
        }
      }
    }
  }
}

TEST(BuildMergedMain, DictionaryIsSortedUniqueUnionOfParts) {
  StoredColumn column(DataType::kInt64);
  // Main gets evens, delta gets odds plus overlapping evens.
  for (int64_t v : {0, 2, 4, 6, 8}) column.Append(Value::Int(v));
  column.MergeDelta();
  for (int64_t v : {1, 3, 2, 8, 5}) column.Append(Value::Int(v));
  ASSERT_TRUE(column.FreezeDelta());
  MergeOptions serial;
  serial.parallel = false;
  auto merged = BuildMergedMain(*column.main_part(), *column.frozen_part(),
                                serial);
  ASSERT_EQ(merged->dict.size(), 8u);  // 0..6 evens + 1,3,5; dups folded.
  for (size_t i = 1; i < merged->dict.size(); ++i) {
    EXPECT_TRUE(merged->dict[i - 1] < merged->dict[i]);
  }
  column.SwitchMain(merged);
  EXPECT_EQ(column.delta_rows(), 0u);
  std::vector<int64_t> expect = {0, 2, 4, 6, 8, 1, 3, 2, 8, 5};
  for (size_t r = 0; r < expect.size(); ++r) {
    EXPECT_EQ(column.Get(r).AsInt(), expect[r]) << "row " << r;
  }
}

// ---------------------------------------------------------------------
// StoredColumn serial merge
// ---------------------------------------------------------------------

TEST(StoredColumnMerge, PreservesContentsAndIsIdempotent) {
  StoredColumn column(DataType::kString);
  Rng rng(11);
  std::vector<Value> expect;
  for (size_t i = 0; i < 5000; ++i) {
    expect.push_back(RandomValue(&rng, 2));
    column.Append(expect.back());
  }
  column.MergeDelta();
  size_t dict_after = column.dictionary_size();
  size_t bytes_after = column.MemoryBytes();
  column.MergeDelta();  // No delta: must be a no-op.
  EXPECT_EQ(column.dictionary_size(), dict_after);
  EXPECT_EQ(column.MemoryBytes(), bytes_after);
  EXPECT_EQ(column.main_rows(), expect.size());
  EXPECT_EQ(column.delta_rows(), 0u);
  for (size_t r = 0; r < expect.size(); ++r) {
    EXPECT_TRUE(column.Get(r) == expect[r]) << "row " << r;
  }
}

TEST(StoredColumnMerge, AllNullColumn) {
  StoredColumn column(DataType::kInt64);
  for (size_t i = 0; i < 1000; ++i) column.Append(Value::Null());
  column.MergeDelta();
  EXPECT_EQ(column.main_rows(), 1000u);
  EXPECT_EQ(column.dictionary_size(), 0u);
  for (size_t r = 0; r < 1000; ++r) EXPECT_TRUE(column.IsNull(r));
  ColumnVector out(DataType::kInt64);
  column.Decode(0, 1000, &out);
  ASSERT_EQ(out.size(), 1000u);
  for (size_t r = 0; r < 1000; ++r) EXPECT_TRUE(out.IsNull(r));
}

// ---------------------------------------------------------------------
// ColumnTable merges
// ---------------------------------------------------------------------

TEST(TableMerge, SerialAndParallelProduceIdenticalTables) {
  ColumnTable reference(TestSchema());
  Fill(&reference, 20000, 42, 12000);
  MergeOptions serial;
  serial.parallel = false;
  ASSERT_TRUE(reference.MergeDelta(serial).ok());
  uint64_t expect_digest = ScanDigest(reference);

  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    ColumnTable table(TestSchema());
    Fill(&table, 20000, 42, 12000);
    MergeOptions parallel;
    parallel.parallel = true;
    parallel.max_workers = workers;
    parallel.morsel_rows = 1u << 10;
    ASSERT_TRUE(table.MergeDelta(parallel).ok());
    EXPECT_EQ(ScanDigest(table), expect_digest) << workers << " workers";
    // Same packed words / dictionaries => same footprint, byte for byte.
    EXPECT_EQ(table.MainMemoryBytes(), reference.MainMemoryBytes());
    EXPECT_EQ(table.DeltaMemoryBytes(), reference.DeltaMemoryBytes());
    EXPECT_EQ(table.MemoryBytes(), reference.MemoryBytes());
  }
}

TEST(TableMerge, IdempotentAndStatsTracked) {
  ColumnTable table(TestSchema());
  Fill(&table, 8000, 3, 0);
  size_t bytes_before = table.MemoryBytes();
  ASSERT_TRUE(table.MergeDelta().ok());
  const MergeStats& stats = table.merge_stats();
  EXPECT_EQ(stats.merges_completed.load(), 1u);
  EXPECT_EQ(stats.rows_merged.load(), 3u * 8000u);  // Per-column rows.
  EXPECT_GT(stats.dict_entries_before.load(), 0u);
  EXPECT_LE(stats.dict_entries_after.load(), stats.dict_entries_before.load());
  EXPECT_EQ(stats.bytes_before.load(), bytes_before);
  EXPECT_EQ(stats.bytes_after.load(), table.MemoryBytes());
  // Sorted+packed main beats plain delta codes on this low-cardinality
  // data, and the stats expose the ratio.
  EXPECT_LT(table.MemoryBytes(), bytes_before);
  EXPECT_GT(stats.LastCompressionRatio(), 1.0);

  uint64_t digest = ScanDigest(table);
  ASSERT_TRUE(table.MergeDelta().ok());  // Nothing to merge: no-op.
  EXPECT_EQ(stats.merges_completed.load(), 1u);
  EXPECT_EQ(ScanDigest(table), digest);
  EXPECT_EQ(table.delta_rows(), 0u);
}

TEST(TableMerge, DeleteHeavyTable) {
  ColumnTable table(TestSchema());
  Fill(&table, 10000, 9, 4000);
  WriteSet deletes;
  for (size_t r = 0; r < 10000; ++r) {
    if (r % 10 != 3) ASSERT_TRUE(deletes.Delete(&table, r).ok());
  }
  deletes.Commit();
  uint64_t digest = ScanDigest(table);
  size_t live = table.live_rows();
  ASSERT_TRUE(table.MergeDelta().ok());
  EXPECT_EQ(table.live_rows(), live);
  EXPECT_EQ(table.num_rows(), 10000u);
  EXPECT_EQ(ScanDigest(table), digest);  // Tombstones still honored.
}

TEST(TableMerge, MainVsDeltaAccountingSplit) {
  ColumnTable table(TestSchema());
  Fill(&table, 6000, 21, 0);
  EXPECT_EQ(table.MainMemoryBytes() + table.DeltaMemoryBytes() +
                table.num_rows() / 8 + 1,
            table.MemoryBytes());
  EXPECT_GT(table.DeltaMemoryBytes(), 0u);
  size_t main_before = table.MainMemoryBytes();
  ASSERT_TRUE(table.MergeDelta().ok());
  EXPECT_GT(table.MainMemoryBytes(), main_before);
  // Post-merge the deltas are empty shells (one null-bitmap byte per
  // column part).
  EXPECT_LE(table.DeltaMemoryBytes(), 2u * 3u);
  EXPECT_EQ(table.MainMemoryBytes() + table.DeltaMemoryBytes() +
                table.num_rows() / 8 + 1,
            table.MemoryBytes());
}

// ---------------------------------------------------------------------
// Online behavior: concurrent scans, appends, overlapping merges
// ---------------------------------------------------------------------

TEST(OnlineMerge, AppendsDuringMergeSurviveTheSwitch) {
  ColumnTable table(TestSchema());
  Fill(&table, 50000, 17, 0);
  std::atomic<bool> merge_done{false};
  std::thread merger([&] {
    EXPECT_TRUE(table.MergeDelta().ok());
    merge_done.store(true);
  });
  // Writer-vs-merge is in the table's concurrency contract (appends go
  // to the fresh live delta); only writer-vs-reader needs external
  // synchronization, and nothing scans here.
  size_t appended = 0;
  Rng rng(99);
  while (!merge_done.load() || appended < 500) {
    std::vector<Value> row = {RandomValue(&rng, 0), RandomValue(&rng, 1),
                              RandomValue(&rng, 2)};
    ASSERT_TRUE(table.AppendRows({row}).ok());
    ++appended;
    if (appended >= 200000) break;  // Merge finished long ago.
  }
  merger.join();
  EXPECT_EQ(table.num_rows(), 50000 + appended);
  EXPECT_EQ(table.live_rows(), 50000 + appended);
  // Every appended row is readable (they stayed in delta or were merged
  // by a later merge, but none were lost in the switch).
  size_t scanned = 0;
  table.Scan(0, [&](const Chunk& chunk) {
    scanned += chunk.num_rows();
    return true;
  });
  EXPECT_EQ(scanned, 50000 + appended);
  ASSERT_TRUE(table.MergeDelta().ok());
  EXPECT_EQ(table.delta_rows(), 0u);
}

TEST(OnlineMerge, ConcurrentScansSeeConsistentSnapshots) {
  // A merge never changes logical table contents, so every scan that
  // overlaps one must produce exactly the pre-merge digest — a torn
  // read (half old codes, half new dictionary) would change it.
  ColumnTable table(TestSchema());
  Fill(&table, 120000, 5, 60000);
  uint64_t expect_digest = ScanDigest(table);
  const MergeStats& stats = table.merge_stats();

  bool saw_unavailable = false;
  for (int attempt = 0; attempt < 5; ++attempt) {
    std::atomic<bool> merge_started{false};
    std::atomic<bool> merge_done{false};
    std::thread merger([&] {
      merge_started.store(true);
      Status status = table.MergeDelta();
      // Usually OK; Unavailable if the racer below won the merge lock.
      EXPECT_TRUE(status.ok() ||
                  status.code() == StatusCode::kUnavailable);
      merge_done.store(true);
    });
    std::atomic<size_t> scans{0};
    std::vector<std::thread> scanners;
    for (int t = 0; t < 2; ++t) {
      scanners.emplace_back([&] {
        while (!merge_started.load()) std::this_thread::yield();
        do {
          EXPECT_EQ(ScanDigest(table), expect_digest);
          scans.fetch_add(1);
        } while (!merge_done.load());
      });
    }
    // A merger racing another must be cleanly rejected (Unavailable),
    // never deadlock or corrupt.
    std::thread racer([&] {
      while (!merge_started.load()) std::this_thread::yield();
      while (!merge_done.load()) {
        Status status = table.MergeDelta();
        if (!status.ok()) {
          EXPECT_EQ(status.code(), StatusCode::kUnavailable);
          saw_unavailable = true;
        }
      }
    });
    merger.join();
    racer.join();
    for (auto& s : scanners) s.join();
    EXPECT_GE(scans.load(), 1u);
    EXPECT_EQ(ScanDigest(table), expect_digest);
    if (saw_unavailable && stats.scans_overlapped.load() > 0) break;
    // Re-arm with fresh delta rows so the next attempt has real merge
    // work. (Every thread has joined, so appending is safe again.)
    Rng rng(1000 + attempt);
    std::vector<std::vector<Value>> rows;
    for (size_t i = 0; i < 60000; ++i) {
      rows.push_back(
          {RandomValue(&rng, 0), RandomValue(&rng, 1), RandomValue(&rng, 2)});
    }
    ASSERT_TRUE(table.AppendRows(rows).ok());
    expect_digest = ScanDigest(table);
  }
  EXPECT_GT(stats.scans_overlapped.load(), 0u);
  if (saw_unavailable) {
    EXPECT_GT(stats.merges_rejected.load(), 0u);
  }
}

TEST(OnlineMerge, PartitionedScanDuringMergeIsDeterministic) {
  ColumnTable table(TestSchema());
  Fill(&table, 40000, 31, 20000);
  // Per-partition row counts with no merge running.
  std::vector<size_t> expect(8, 0);
  table.ScanPartitioned(1024, 8, [&](size_t p, const Chunk& chunk) {
    expect[p] += chunk.num_rows();
    return true;
  });
  std::atomic<bool> merge_done{false};
  std::thread merger([&] {
    EXPECT_TRUE(table.MergeDelta().ok());
    merge_done.store(true);
  });
  do {
    // Each partition's counter is written only by the single pool task
    // that owns that partition.
    std::vector<size_t> got(8, 0);
    table.ScanPartitioned(1024, 8, [&](size_t p, const Chunk& chunk) {
      got[p] += chunk.num_rows();
      return true;
    });
    for (size_t p = 0; p < 8; ++p) EXPECT_EQ(got[p], expect[p]);
  } while (!merge_done.load());
  merger.join();
}

}  // namespace
}  // namespace hana::storage

// ---------------------------------------------------------------------
// Platform: MERGE DELTA statement + merge_threshold_rows
// ---------------------------------------------------------------------

namespace hana::platform {
namespace {

TEST(MergeKnobs, MergeDeltaStatement) {
  Platform db;
  ASSERT_TRUE(db.Run("CREATE COLUMN TABLE t (a BIGINT, s VARCHAR)").ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        db.Execute("INSERT INTO t VALUES (" + std::to_string(i % 7) +
                   ", 'v" + std::to_string(i % 3) + "')")
            .ok());
  }
  ASSERT_TRUE(db.Execute("MERGE DELTA OF t").ok());
  catalog::TableEntry* entry = *db.catalog().GetTable("t");
  EXPECT_EQ(entry->column_table->delta_rows(), 0u);
  EXPECT_EQ(entry->column_table->merge_stats().merges_completed.load(), 1u);

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1, 'x')").ok());
  }
  ASSERT_TRUE(db.Execute("MERGE DELTA OF t").ok());
  EXPECT_EQ(entry->column_table->delta_rows(), 0u);
  EXPECT_EQ(entry->column_table->merge_stats().merges_completed.load(), 2u);
}

TEST(MergeKnobs, AutoMergeThreshold) {
  Platform db;
  ASSERT_TRUE(db.Run("CREATE COLUMN TABLE t (a BIGINT)").ok());
  ASSERT_TRUE(db.SetParameter("merge_threshold_rows", "20").ok());
  catalog::TableEntry* entry = *db.catalog().GetTable("t");
  for (int i = 0; i < 19; ++i) {
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (" + std::to_string(i) + ")")
                    .ok());
  }
  EXPECT_EQ(entry->column_table->merge_stats().merges_completed.load(), 0u);
  EXPECT_EQ(entry->column_table->delta_rows(), 19u);
  Result<ExecResult> r = db.Execute("INSERT INTO t VALUES (19)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r).message, "1 rows inserted");  // Message untouched.
  EXPECT_EQ(entry->column_table->merge_stats().merges_completed.load(), 1u);
  EXPECT_EQ(entry->column_table->delta_rows(), 0u);

  ASSERT_TRUE(db.SetParameter("merge_threshold_rows", "0").ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1)").ok());
  }
  EXPECT_EQ(entry->column_table->delta_rows(), 40u);  // Disabled again.
  EXPECT_FALSE(db.SetParameter("merge_threshold_rows", "-3").ok());
}

}  // namespace
}  // namespace hana::platform
