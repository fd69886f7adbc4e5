// Scalar-vs-dispatched bit-identity matrix for the CPU-dispatch layer:
// (1) every kernel in the dispatch table must produce the exact bytes
// of its scalar reference on adversarial probes, at whatever ISA level
// the host bound; (2) whole queries must return cell-identical results
// across HANA_CPU=scalar|native, every main encoding (bit-packed, RLE,
// frame-of-reference), and 1/2/4/8 threads; (3) the perfect-hash join
// fast path must match the independent nested-loop join row for row,
// and must show up in EXPLAIN only for dense build-key domains.
// scripts/check_matrix.sh runs this under both HANA_CPU settings
// (ctest -L kernels), with the lock-order validator fatal.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/cpu_dispatch.h"
#include "platform/platform.h"

namespace hana {
namespace {

// ---------------------------------------------------------------------
// Raw kernel bit-identity: active table vs scalar reference.
// ---------------------------------------------------------------------

class KernelBitIdentityTest : public ::testing::Test {
 protected:
  // Deterministic pseudo-random 64-bit stream (splitmix64); no RNG
  // object so the probes are identical across platforms.
  static uint64_t Next(uint64_t* state) {
    uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

TEST_F(KernelBitIdentityTest, BitPackAndUnpackAllWidths) {
  uint64_t seed = 1;
  for (int bits = 1; bits <= 32; ++bits) {
    const uint32_t mask =
        bits == 32 ? 0xffffffffu : ((1u << bits) - 1);
    std::vector<uint32_t> values(1337);
    for (uint32_t& v : values) v = static_cast<uint32_t>(Next(&seed)) & mask;

    // Pack with both tables into separate arrays; words must match.
    const size_t num_words = (values.size() * bits + 63) / 64;
    std::vector<uint64_t> scalar_words(num_words, 0), native_words(num_words, 0);
    ScalarKernels().bit_pack(scalar_words.data(), bits, 0, values.data(),
                             values.size());
    Kernels().bit_pack(native_words.data(), bits, 0, values.data(),
                       values.size());
    ASSERT_EQ(scalar_words, native_words) << "bit_pack width " << bits;

    // Unpack at several unaligned starts; codes must match.
    for (size_t start : {size_t{0}, size_t{1}, size_t{7}, size_t{64},
                         size_t{511}}) {
      if (start >= values.size()) continue;
      const size_t count = values.size() - start;
      std::vector<uint32_t> a(count), b(count);
      ScalarKernels().bit_unpack(scalar_words.data(), num_words, bits, start,
                                 count, a.data());
      Kernels().bit_unpack(scalar_words.data(), num_words, bits, start,
                           count, b.data());
      ASSERT_EQ(a, b) << "bit_unpack width " << bits << " start " << start;
      for (size_t i = 0; i < count; ++i) {
        ASSERT_EQ(a[i], values[start + i])
            << "width " << bits << " start " << start;
      }
    }
  }
}

TEST_F(KernelBitIdentityTest, HashI64MatchesScalar) {
  uint64_t seed = 2;
  std::vector<int64_t> keys;
  keys.push_back(0);
  keys.push_back(-1);
  keys.push_back(INT64_MIN);
  keys.push_back(INT64_MAX);
  for (int i = 0; i < 3000; ++i) keys.push_back(static_cast<int64_t>(Next(&seed)));
  for (uint64_t hash_seed : {uint64_t{0}, uint64_t{0x12345}, ~uint64_t{0}}) {
    std::vector<uint64_t> a(keys.size()), b(keys.size());
    ScalarKernels().hash_i64(keys.data(), keys.size(), hash_seed, a.data());
    Kernels().hash_i64(keys.data(), keys.size(), hash_seed, b.data());
    ASSERT_EQ(a, b) << "hash seed " << hash_seed;
  }
}

// ---------------------------------------------------------------------
// Query-level matrix: encodings x cpu mode x threads.
// ---------------------------------------------------------------------

class KernelsMatrixTest : public ::testing::Test {
 protected:
  static constexpr size_t kFactRows = 20000;
  static constexpr size_t kDimRows = 1000;

  static void SetUpTestSuite() {
    original_cpu_mode_ = CpuModeString();
    db_ = new platform::Platform(platform::PlatformOptions{
        .attach_extended = false, .start_hadoop = false});

    // `fact` exercises every main encoding after MERGE DELTA:
    //   id   — dense 0..N-1: frame-of-reference (dict elided)
    //   flag — 4 values in long runs: RLE
    //   val  — high-cardinality: stays bit-packed
    //   nk   — nullable key: bit-packed (nulls block RLE)
    //   s    — strings: bit-packed dictionary
    sql::CreateTableStmt fact;
    fact.table = "fact";
    fact.columns = {{"id", DataType::kInt64, false},
                    {"flag", DataType::kInt64, false},
                    {"val", DataType::kInt64, false},
                    {"nk", DataType::kInt64, true},
                    {"s", DataType::kString, false}};
    ASSERT_TRUE(db_->catalog().CreateTable(fact).ok());
    static const char* kTags[] = {"aa", "bb", "cc"};
    std::vector<std::vector<Value>> rows;
    rows.reserve(kFactRows);
    for (size_t i = 0; i < kFactRows; ++i) {
      int64_t h = static_cast<int64_t>((i * 2654435761u) % 1000000);
      rows.push_back({Value::Int(static_cast<int64_t>(i)),
                      Value::Int(static_cast<int64_t>(i / 500) % 4),
                      Value::Int(h),
                      h % 23 == 0 ? Value::Null()
                                  : Value::Int(h % kDimRows),
                      Value::String(kTags[h % 3])});
    }
    ASSERT_TRUE(db_->catalog().Insert("fact", rows).ok());
    ASSERT_TRUE(db_->Run("MERGE DELTA OF fact").ok());

    // Dense build keys 0..kDimRows-1: perfect-hash candidate.
    sql::CreateTableStmt ddim;
    ddim.table = "ddim";
    ddim.columns = {{"k", DataType::kInt64, false},
                    {"name", DataType::kString, false}};
    ASSERT_TRUE(db_->catalog().CreateTable(ddim).ok());
    rows.clear();
    for (size_t i = 0; i < kDimRows; ++i) {
      rows.push_back({Value::Int(static_cast<int64_t>(i)),
                      Value::String("d" + std::to_string(i))});
    }
    ASSERT_TRUE(db_->catalog().Insert("ddim", rows).ok());
    ASSERT_TRUE(db_->Run("MERGE DELTA OF ddim").ok());

    // Sparse build keys (stride 1009): domain far wider than the row
    // count, so the optimizer must keep the radix path.
    sql::CreateTableStmt sdim;
    sdim.table = "sdim";
    sdim.columns = {{"k", DataType::kInt64, false},
                    {"name", DataType::kString, false}};
    ASSERT_TRUE(db_->catalog().CreateTable(sdim).ok());
    rows.clear();
    for (size_t i = 0; i < kDimRows; ++i) {
      rows.push_back({Value::Int(static_cast<int64_t>(i) * 1009),
                      Value::String("s" + std::to_string(i))});
    }
    ASSERT_TRUE(db_->catalog().Insert("sdim", rows).ok());
    ASSERT_TRUE(db_->Run("MERGE DELTA OF sdim").ok());

    ASSERT_TRUE(db_->SetParameter("morsel_rows", "1024").ok());
  }

  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
    ASSERT_TRUE(SetCpuMode(original_cpu_mode_).ok());
  }

  void TearDown() override {
    ASSERT_TRUE(db_->SetParameter("threads", "0").ok());
    ASSERT_TRUE(db_->SetParameter("cpu", original_cpu_mode_).ok());
  }

  static void ExpectTablesIdentical(const storage::Table& a,
                                    const storage::Table& b,
                                    const std::string& context) {
    ASSERT_EQ(a.num_rows(), b.num_rows()) << context;
    ASSERT_EQ(a.schema()->num_columns(), b.schema()->num_columns()) << context;
    for (size_t r = 0; r < a.num_rows(); ++r) {
      const auto& arow = a.row(r);
      const auto& brow = b.row(r);
      for (size_t c = 0; c < arow.size(); ++c) {
        ASSERT_EQ(arow[c].is_null(), brow[c].is_null())
            << context << " row " << r << " col " << c;
        ASSERT_TRUE(arow[c] == brow[c])
            << context << " row " << r << " col " << c << ": "
            << arow[c].ToString() << " vs " << brow[c].ToString();
      }
    }
  }

  /// The matrix: baseline = cpu=scalar, threads=1; every other cell
  /// (cpu in {scalar, native}) x (threads in {1, 2, 4, 8}) must be
  /// cell-identical, including row order.
  void ExpectMatrixIdentical(const std::string& query) {
    ASSERT_TRUE(db_->SetParameter("cpu", "scalar").ok());
    ASSERT_TRUE(db_->SetParameter("threads", "1").ok());
    auto baseline = db_->Query(query);
    ASSERT_TRUE(baseline.ok()) << query << ": "
                               << baseline.status().ToString();
    for (const char* cpu : {"scalar", "native"}) {
      ASSERT_TRUE(db_->SetParameter("cpu", cpu).ok());
      for (const char* threads : {"1", "2", "4", "8"}) {
        ASSERT_TRUE(db_->SetParameter("threads", threads).ok());
        auto result = db_->Query(query);
        ASSERT_TRUE(result.ok()) << query << ": "
                                 << result.status().ToString();
        ExpectTablesIdentical(*baseline, *result,
                              query + " [cpu=" + cpu + " threads=" +
                                  threads + "]");
      }
    }
  }

  static platform::Platform* db_;
  static std::string original_cpu_mode_;
};

platform::Platform* KernelsMatrixTest::db_ = nullptr;
std::string KernelsMatrixTest::original_cpu_mode_;

TEST_F(KernelsMatrixTest, RleEncodedFilterRunAtATime) {
  // `flag` merges to RLE; the filter takes the run-indexed fast path
  // in every cell — same rows as the scalar single-thread baseline.
  ExpectMatrixIdentical("SELECT id, flag, val FROM fact WHERE flag = 2");
  ExpectMatrixIdentical("SELECT id, flag FROM fact WHERE flag <> 0");
}

TEST_F(KernelsMatrixTest, ForEncodedFilterAndLiteralOnLeft) {
  // `id` merges to frame-of-reference; also cover the flipped operand
  // order (literal CMP column) the analyzer must mirror.
  ExpectMatrixIdentical("SELECT id, val FROM fact WHERE id < 3000");
  ExpectMatrixIdentical("SELECT id, val FROM fact WHERE 19000 <= id");
}

TEST_F(KernelsMatrixTest, BitPackedFilterWithNulls) {
  // `nk` has NULLs (never RLE): the cmp kernel must drop NULL rows
  // exactly like the scalar evaluator.
  ExpectMatrixIdentical("SELECT id, nk FROM fact WHERE nk >= 500");
  ExpectMatrixIdentical("SELECT id, nk FROM fact WHERE nk = 0");
}

TEST_F(KernelsMatrixTest, NonKernelPredicatesStillMatch) {
  // Shapes the fast path must decline (strings, arithmetic, AND):
  // exercised to prove declining is seamless.
  ExpectMatrixIdentical("SELECT id FROM fact WHERE s = 'aa'");
  ExpectMatrixIdentical(
      "SELECT id FROM fact WHERE val - 1 > 500000 AND flag = 1");
}

TEST_F(KernelsMatrixTest, AggregationOverEveryEncoding) {
  ExpectMatrixIdentical(
      "SELECT flag, COUNT(*) AS n, SUM(val) AS sv, MIN(id) AS mn, "
      "MAX(nk) AS mx FROM fact GROUP BY flag ORDER BY flag");
}

TEST_F(KernelsMatrixTest, DenseKeyJoinUsesPerfectHash) {
  auto plan = db_->Explain(
      "SELECT f.id, d.name FROM fact f JOIN ddim d ON f.nk = d.k");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("[perfect-hash]"), std::string::npos) << *plan;

  auto sparse = db_->Explain(
      "SELECT f.id, s.name FROM fact f JOIN sdim s ON f.nk = s.k");
  ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
  EXPECT_EQ(sparse->find("[perfect-hash]"), std::string::npos) << *sparse;
}

TEST_F(KernelsMatrixTest, PerfectHashJoinMatrixIdentical) {
  ExpectMatrixIdentical(
      "SELECT f.id, f.nk, d.name FROM fact f JOIN ddim d ON f.nk = d.k");
  // Padded rows + duplicates through the perfect path.
  ExpectMatrixIdentical(
      "SELECT f.id, d.name FROM fact f LEFT JOIN ddim d ON f.nk = d.k");
}

TEST_F(KernelsMatrixTest, SparseKeyJoinMatrixIdentical) {
  ExpectMatrixIdentical(
      "SELECT f.id, s.name FROM fact f JOIN sdim s ON f.nk = s.k");
}

TEST_F(KernelsMatrixTest, PerfectHashMatchesNestedLoopJoin) {
  // Independent implementation check: spelled as a non-equi condition
  // the same join runs as a nested loop and never builds a
  // RadixJoinTable, so agreement pins down the perfect-hash path end to
  // end. Both emit fact rows in order, each with its ddim matches in
  // ddim row order.
  const std::string query =
      "SELECT f.id, f.nk, d.name FROM fact f JOIN ddim d ON f.nk = d.k";
  const std::string nl_query =
      "SELECT f.id, f.nk, d.name FROM fact f JOIN ddim d "
      "ON f.nk <= d.k AND f.nk >= d.k";
  auto plan = db_->Explain(query);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_NE(plan->find("[perfect-hash]"), std::string::npos) << *plan;
  ASSERT_TRUE(db_->SetParameter("threads", "4").ok());
  auto nl = db_->Query(nl_query);
  ASSERT_TRUE(nl.ok()) << nl.status().ToString();
  auto perfect = db_->Query(query);
  ASSERT_TRUE(perfect.ok()) << perfect.status().ToString();
  ExpectTablesIdentical(*nl, *perfect, query);
}

TEST_F(KernelsMatrixTest, EncodedTableSurvivesFurtherInsertsAndMerge) {
  // Append after the first merge (delta on top of RLE/FOR mains), query
  // across the mixed state, merge again (re-encoding RLE/FOR inputs),
  // and query again — every cell identical across the matrix.
  std::vector<std::vector<Value>> rows;
  for (size_t i = 0; i < 600; ++i) {
    rows.push_back({Value::Int(static_cast<int64_t>(kFactRows + i)),
                    Value::Int(7),  // New flag value: breaks dict reuse.
                    Value::Int(static_cast<int64_t>(i) * 31),
                    Value::Null(),
                    Value::String("zz")});
  }
  ASSERT_TRUE(db_->catalog().Insert("fact", rows).ok());
  ExpectMatrixIdentical("SELECT id, flag, val FROM fact WHERE flag = 7");
  ASSERT_TRUE(db_->Run("MERGE DELTA OF fact").ok());
  ExpectMatrixIdentical("SELECT id, flag, val FROM fact WHERE flag = 7");
  ExpectMatrixIdentical(
      "SELECT flag, COUNT(*) AS n FROM fact GROUP BY flag ORDER BY flag");
}

}  // namespace
}  // namespace hana
