#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>

#include "common/util.h"
#include "storage/codec.h"
#include "storage/column_table.h"
#include "storage/column_vector.h"

namespace hana::storage {
namespace {

// ---------------------------------------------------------------------
// Codec round-trips (property style over generated inputs).
// ---------------------------------------------------------------------

std::vector<int64_t> MakeInts(uint64_t seed, size_t n, int shape) {
  Rng rng(seed);
  std::vector<int64_t> values;
  values.reserve(n);
  int64_t running = 0;
  for (size_t i = 0; i < n; ++i) {
    switch (shape) {
      case 0:  // Uniform small.
        values.push_back(rng.Uniform(-100, 100));
        break;
      case 1:  // Sorted (delta-friendly).
        running += rng.Uniform(0, 10);
        values.push_back(running);
        break;
      case 2:  // Runs (RLE-friendly).
        values.push_back(rng.Uniform(0, 3));
        if (i % 7 != 0 && !values.empty()) values.back() = values[i - 1];
        break;
      case 3:  // Full 64-bit range.
        values.push_back(static_cast<int64_t>(rng.Next()));
        break;
      default:
        values.push_back(0);
    }
  }
  return values;
}

class IntCodecRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, size_t>> {};

TEST_P(IntCodecRoundTrip, AllCodecsRoundTrip) {
  auto [shape, n] = GetParam();
  std::vector<int64_t> values = MakeInts(shape * 1000 + n, n, shape);
  auto rle = RleDecode(RleEncode(values));
  ASSERT_TRUE(rle.ok());
  EXPECT_EQ(*rle, values);
  auto fr = ForDecode(ForEncode(values));
  ASSERT_TRUE(fr.ok());
  EXPECT_EQ(*fr, values);
  auto delta = DeltaDecode(DeltaEncode(values));
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(*delta, values);
  auto best = DecodeInts(EncodeIntsBest(values));
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(*best, values);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, IntCodecRoundTrip,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(size_t{0}, size_t{1}, size_t{17},
                                         size_t{1000})));

TEST(CodecTest, BestCodecPicksCompactEncoding) {
  // A constant run should choose RLE and be tiny.
  std::vector<int64_t> runs(10000, 42);
  EXPECT_LT(EncodeIntsBest(runs).size(), 32u);
  // A sorted ramp should beat raw 8-byte representation via delta/FOR.
  std::vector<int64_t> ramp(10000);
  for (size_t i = 0; i < ramp.size(); ++i) ramp[i] = static_cast<int64_t>(i);
  EXPECT_LT(EncodeIntsBest(ramp).size(), ramp.size() * 8 / 3);
}

TEST(CodecTest, VarintBoundaries) {
  for (uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL,
                     ~0ULL}) {
    std::vector<uint8_t> buf;
    VarintAppend(&buf, v);
    size_t pos = 0;
    auto back = VarintRead(buf, &pos);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(CodecTest, VarintRejectsTruncation) {
  std::vector<uint8_t> buf;
  VarintAppend(&buf, 1ULL << 40);
  buf.pop_back();
  size_t pos = 0;
  EXPECT_FALSE(VarintRead(buf, &pos).ok());
}

TEST(CodecTest, ZigZagSymmetry) {
  for (int64_t v : std::vector<int64_t>{0, 1, -1, 123456, -123456,
                                        INT64_MAX, INT64_MIN}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
}

TEST(CodecTest, BitPackRoundTrip) {
  Rng rng(3);
  for (int width : {1, 3, 8, 17, 31, 32}) {
    std::vector<uint32_t> values(257);
    uint64_t mask = width == 32 ? 0xffffffffULL : ((1ULL << width) - 1);
    for (auto& v : values) {
      v = static_cast<uint32_t>(rng.Next() & mask);
    }
    auto words = BitPack(values, width);
    EXPECT_EQ(BitUnpack(words, width, values.size()), values);
    for (size_t i = 0; i < values.size(); i += 37) {
      EXPECT_EQ(BitGet(words, width, i), values[i]);
    }
  }
}

TEST(CodecTest, StringsAndDoublesRoundTrip) {
  std::vector<std::string> strings = {"", "a", "tab\there", "new\nline",
                                      "back\\slash", std::string(500, 'x')};
  auto s = DecodeStrings(EncodeStrings(strings));
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, strings);

  Rng rng(5);
  std::vector<double> doubles = {0.0, -0.0, 1.5, -2.25e300, 3.14159};
  for (int i = 0; i < 100; ++i) doubles.push_back(rng.NextDouble() * 1e6);
  auto d = DecodeDoubles(EncodeDoubles(doubles));
  ASSERT_TRUE(d.ok());
  for (size_t i = 0; i < doubles.size(); ++i) {
    EXPECT_EQ((*d)[i], doubles[i]);  // Bit-exact.
  }
}

// ---------------------------------------------------------------------
// ColumnVector / Chunk
// ---------------------------------------------------------------------

TEST(ColumnVectorTest, AppendAndBoxing) {
  ColumnVector col(DataType::kInt64);
  col.AppendInt(1);
  col.AppendNull();
  col.Append(Value::Int(3));
  ASSERT_EQ(col.size(), 3u);
  EXPECT_EQ(col.GetValue(0).int_value(), 1);
  EXPECT_TRUE(col.GetValue(1).is_null());
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.GetInt(2), 3);
}

TEST(ColumnVectorTest, TypeCoercionOnAppend) {
  ColumnVector dates(DataType::kDate);
  dates.Append(Value::Int(100));  // Ints coerce into date columns.
  EXPECT_EQ(dates.GetValue(0).type(), DataType::kDate);
  ColumnVector strings(DataType::kString);
  strings.Append(Value::Int(5));
  EXPECT_EQ(strings.GetValue(0).string_value(), "5");
}

TEST(ChunkTest, RowsRoundTrip) {
  auto schema = std::make_shared<Schema>(std::vector<ColumnDef>{
      {"a", DataType::kInt64, false}, {"b", DataType::kString, true}});
  Chunk chunk = Chunk::Empty(schema);
  chunk.AppendRow({Value::Int(1), Value::String("x")});
  chunk.AppendRow({Value::Int(2), Value::Null()});
  EXPECT_EQ(chunk.num_rows(), 2u);
  EXPECT_EQ(chunk.Row(0)[1].string_value(), "x");
  EXPECT_TRUE(chunk.Row(1)[1].is_null());
}

TEST(TableTest, ToStringRendersGrid) {
  auto schema = std::make_shared<Schema>(
      std::vector<ColumnDef>{{"n", DataType::kInt64, false}});
  Table table(schema);
  table.AppendRow({Value::Int(7)});
  std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("| n |"), std::string::npos);
  EXPECT_NE(rendered.find("| 7 |"), std::string::npos);
  EXPECT_NE(rendered.find("(1 rows)"), std::string::npos);
}

// ---------------------------------------------------------------------
// StoredColumn / ColumnTable (main-delta organization)
// ---------------------------------------------------------------------

TEST(StoredColumnTest, DeltaThenMergePreservesValues) {
  StoredColumn col(DataType::kString);
  std::vector<Value> expected;
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    if (i % 11 == 0) {
      col.Append(Value::Null());
      expected.push_back(Value::Null());
    } else {
      Value v = Value::String("val" + std::to_string(rng.Uniform(0, 50)));
      col.Append(v);
      expected.push_back(v);
    }
  }
  ASSERT_EQ(col.delta_rows(), 500u);
  col.MergeDelta();
  EXPECT_EQ(col.delta_rows(), 0u);
  EXPECT_EQ(col.main_rows(), 500u);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(col.Get(i).Compare(expected[i]), 0) << i;
  }
  // Appends after a merge land in a fresh delta and still read back.
  col.Append(Value::String("after"));
  EXPECT_EQ(col.Get(500).string_value(), "after");
}

TEST(StoredColumnTest, MergeShrinksFootprint) {
  StoredColumn col(DataType::kInt64);
  for (int i = 0; i < 100000; ++i) col.Append(Value::Int(i % 16));
  size_t before = col.MemoryBytes();
  col.MergeDelta();
  size_t after = col.MemoryBytes();
  EXPECT_LT(after, before / 4);  // 4-bit codes vs 4-byte delta codes.
  EXPECT_EQ(col.dictionary_size(), 16u);
}

/// Deletes `rows` of `table` as one committed write.
Status DeleteRows(ColumnTable* table, const std::vector<size_t>& rows) {
  WriteSet writes;
  for (size_t r : rows) HANA_RETURN_IF_ERROR(writes.Delete(table, r));
  writes.Commit();
  return Status::OK();
}

TEST(ColumnTableTest, CrudAndScan) {
  auto schema = std::make_shared<Schema>(std::vector<ColumnDef>{
      {"id", DataType::kInt64, false}, {"v", DataType::kDouble, true}});
  ColumnTable table(schema);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        table.AppendRows({{Value::Int(i), Value::Double(i * 1.5)}}).ok());
  }
  EXPECT_TRUE(DeleteRows(&table, {3}).ok());
  // An update is a delete plus an append, committed together.
  WriteSet update;
  EXPECT_TRUE(update.Delete(&table, 4).ok());
  EXPECT_TRUE(update.Append(&table, {{Value::Int(400), Value::Double(0)}}).ok());
  update.Commit();
  EXPECT_EQ(table.live_rows(), 9u);

  size_t seen = 0;
  bool saw_400 = false, saw_3 = false;
  table.Scan(4, [&](const Chunk& chunk) {
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      ++seen;
      int64_t id = chunk.Row(r)[0].int_value();
      if (id == 400) saw_400 = true;
      if (id == 3) saw_3 = true;
    }
    return true;
  });
  EXPECT_EQ(seen, 9u);
  EXPECT_TRUE(saw_400);
  EXPECT_FALSE(saw_3);
}

TEST(ColumnTableTest, RejectsBadRows) {
  auto schema = std::make_shared<Schema>(
      std::vector<ColumnDef>{{"id", DataType::kInt64, false}});
  ColumnTable table(schema);
  EXPECT_FALSE(table.AppendRows({{Value::Int(1), Value::Int(2)}}).ok());
  EXPECT_FALSE(table.AppendRows({{Value::Null()}}).ok());  // NOT NULL.
  EXPECT_FALSE(DeleteRows(&table, {99}).ok());
}

TEST(ColumnTableTest, AddColumnBackfillsNulls) {
  auto schema = std::make_shared<Schema>(
      std::vector<ColumnDef>{{"id", DataType::kInt64, false}});
  ColumnTable table(schema);
  ASSERT_TRUE(table.AppendRows({{Value::Int(1)}}).ok());
  ASSERT_TRUE(table.AddColumn({"extra", DataType::kString, true}).ok());
  EXPECT_EQ(table.schema()->num_columns(), 2u);
  EXPECT_TRUE(table.GetRow(0)[1].is_null());
  ASSERT_TRUE(table.AppendRows({{Value::Int(2), Value::String("x")}}).ok());
  EXPECT_EQ(table.GetRow(1)[1].string_value(), "x");
  EXPECT_FALSE(table.AddColumn({"id", DataType::kInt64, true}).ok());
  EXPECT_FALSE(table.AddColumn({"nn", DataType::kInt64, false}).ok());
}

// ---------------------------------------------------------------------
// Bulk decode and partitioned scans.
// ---------------------------------------------------------------------

/// A mixed-type table with main and delta rows, some deleted.
ColumnTable MakeScanTable(size_t rows, size_t merge_at) {
  auto schema = std::make_shared<Schema>(std::vector<ColumnDef>{
      {"id", DataType::kInt64, false},
      {"price", DataType::kDouble, true},
      {"tag", DataType::kString, true}});
  ColumnTable table(schema);
  Rng rng(7);
  std::vector<std::vector<Value>> batch;
  for (size_t i = 0; i < rows; ++i) {
    batch.push_back({Value::Int(static_cast<int64_t>(i)),
                     rng.Uniform(0, 9) == 0
                         ? Value::Null()
                         : Value::Double(rng.NextDouble() * 100),
                     Value::String("tag_" + std::to_string(
                                       rng.Uniform(0, 20)))});
    if (i + 1 != rows && i + 1 != merge_at) continue;
    EXPECT_TRUE(table.AppendRows(batch).ok());
    batch.clear();
    if (i + 1 == merge_at) EXPECT_TRUE(table.MergeDelta().ok());
  }
  return table;
}

TEST(StoredColumnTest, DecodeMatchesGetAcrossMainAndDelta) {
  ColumnTable table = MakeScanTable(5000, 3000);
  // Ranges inside the main store, inside the delta, and straddling the
  // main/delta boundary.
  for (size_t c = 0; c < table.schema()->num_columns(); ++c) {
    for (auto [start, count] : std::vector<std::pair<size_t, size_t>>{
             {0, 5000}, {2990, 20}, {4990, 10}, {1234, 1}, {42, 0}}) {
      ColumnVector out(table.schema()->column(c).type);
      table.ScanRange(start, start + count, count == 0 ? 1 : count,
                      [&](const Chunk& chunk) {
                        for (size_t i = 0; i < chunk.num_rows(); ++i) {
                          out.Append(chunk.columns[c]->GetValue(i));
                        }
                        return true;
                      });
      ASSERT_EQ(out.size(), count);
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(out.GetValue(i).Compare(table.GetCell(start + i, c)), 0)
            << "col " << c << " row " << start + i;
      }
    }
  }
}

TEST(ColumnTableTest, ScanRangeSkipsDeletedAndMatchesScan) {
  ColumnTable table = MakeScanTable(4000, 2500);
  for (size_t r = 0; r < table.num_rows(); r += 17) {
    ASSERT_TRUE(DeleteRows(&table, {r}).ok());
  }
  std::vector<std::vector<Value>> from_scan;
  table.Scan(256, [&](const Chunk& chunk) {
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      from_scan.push_back(chunk.Row(r));
    }
    return true;
  });
  std::vector<std::vector<Value>> from_ranges;
  for (size_t begin = 0; begin < table.num_rows(); begin += 1000) {
    table.ScanRange(begin, begin + 1000, 256, [&](const Chunk& chunk) {
      for (size_t r = 0; r < chunk.num_rows(); ++r) {
        from_ranges.push_back(chunk.Row(r));
      }
      return true;
    });
  }
  ASSERT_EQ(from_scan.size(), from_ranges.size());
  ASSERT_EQ(from_scan.size(), table.live_rows());
  for (size_t i = 0; i < from_scan.size(); ++i) {
    for (size_t c = 0; c < from_scan[i].size(); ++c) {
      EXPECT_EQ(from_scan[i][c].Compare(from_ranges[i][c]), 0);
    }
  }
}

TEST(ColumnTableTest, ScanPartitionedCoversEveryRowExactlyOnce) {
  ColumnTable table = MakeScanTable(10000, 6000);
  for (size_t r = 5; r < table.num_rows(); r += 31) {
    ASSERT_TRUE(DeleteRows(&table, {r}).ok());
  }
  for (size_t partitions : {1u, 3u, 8u, 64u}) {
    std::mutex mu;
    std::vector<std::vector<int64_t>> per_partition(partitions);
    table.ScanPartitioned(
        512, partitions, [&](size_t p, const Chunk& chunk) {
          std::lock_guard<std::mutex> lock(mu);
          for (size_t r = 0; r < chunk.num_rows(); ++r) {
            per_partition[p].push_back(chunk.columns[0]->GetInt(r));
          }
          return true;
        });
    std::vector<int64_t> ids;
    for (const auto& part : per_partition) {
      // Within a partition, physical row order is preserved.
      EXPECT_TRUE(std::is_sorted(part.begin(), part.end()));
      ids.insert(ids.end(), part.begin(), part.end());
    }
    std::sort(ids.begin(), ids.end());
    ASSERT_EQ(ids.size(), table.live_rows()) << partitions;
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  }
}

TEST(CompressionComparison, ColumnBeatsRowOnRepetitiveData) {
  auto schema = std::make_shared<Schema>(std::vector<ColumnDef>{
      {"category", DataType::kString, false},
      {"flag", DataType::kBool, false}});
  ColumnTable column(schema);
  // The Figure 2 row-storage baseline: an uncompressed row layout keeps
  // a fixed 16-byte slot per field (type tag, payload, padding) plus
  // each string's payload.
  size_t row_bytes = 0;
  Rng rng(1);
  for (int i = 0; i < 20000; ++i) {
    std::vector<Value> r = {
        Value::String("category_" + std::to_string(rng.Uniform(0, 7))),
        Value::Bool(rng.Uniform(0, 1) == 1)};
    ASSERT_TRUE(column.AppendRows({r}).ok());
    for (const Value& v : r) {
      row_bytes += 16;
      if (v.type() == DataType::kString) row_bytes += v.string_value().size();
    }
  }
  EXPECT_TRUE(column.MergeDelta().ok());
  EXPECT_LT(column.MemoryBytes(), row_bytes / 5);
}

}  // namespace
}  // namespace hana::storage
