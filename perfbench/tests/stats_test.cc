// Tests of the benchmark's own statistics, statement streams, result
// hash and host probes. Build and run:
//
//   cmake --build .bench_build/perfbench --target perfbench_test
//   .bench_build/perfbench/perfbench_test
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "host_probe.h"
#include "stats.h"
#include "streams.h"
#include "table_hash.h"

namespace perfbench {
namespace {

std::string TempFile(const std::string& name, const std::string& text) {
  std::string path =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  std::ofstream(path) << text;
  return path;
}

TEST(NearestRank, PicksAnActualSample) {
  std::vector<double> v = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  EXPECT_EQ(NearestRank(v, 50), 5);
  EXPECT_EQ(NearestRank(v, 90), 9);
  EXPECT_EQ(NearestRank(v, 100), 10);
  EXPECT_EQ(NearestRank(v, 0), 1);
  EXPECT_EQ(Median({3}), 3);
  EXPECT_EQ(Median({}), 0);
}

TEST(NearestRank, BimodalSampleLandsInsideAGroup) {
  // 75 fast statements near 1 ms and 25 slow ones (a merge) near 20 ms:
  // p50 lies in the fast group and p90 well inside the slow group, not
  // on the edge between them.
  std::vector<double> v;
  for (int i = 0; i < 75; ++i) v.push_back(1.0 + 0.01 * i);
  for (int i = 0; i < 25; ++i) v.push_back(20.0 + 0.1 * i);
  EXPECT_DOUBLE_EQ(Median(v), 1.49);
  EXPECT_DOUBLE_EQ(NearestRank(v, 90), 21.4);
  EXPECT_DOUBLE_EQ(NearestRank(v, 75), 1.74);
  EXPECT_DOUBLE_EQ(NearestRank(v, 76), 20.0);
}

TEST(KindSamples, GeomeanOfPerKindMedians) {
  KindSamples s;
  for (double v : {1.0, 2.0, 3.0}) s.Add("a", v);
  for (double v : {8.0, 100.0, 8.0}) s.Add("b", v);
  EXPECT_DOUBLE_EQ(s.MedianOf("a"), 2.0);
  EXPECT_DOUBLE_EQ(s.MedianOf("b"), 8.0);
  EXPECT_NEAR(s.GeomeanOfMedians({"a", "b"}), 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.MeanOfMedians(), 5.0);
  EXPECT_DOUBLE_EQ(s.Total(), 122.0);
  EXPECT_EQ(Geomean({}), 0.0);
}

std::string HtapText(uint64_t seed, int cycles) {
  HtapStream stream(seed);
  std::string text;
  for (const auto& row : stream.InitialRows()) {
    for (const hana::Value& v : row) text += v.ToString() + ",";
  }
  for (int c = 0; c < cycles; ++c) {
    for (const Statement& s : stream.NextCycle()) text += s.sql + ";";
  }
  return text;
}

std::string TpchText(uint64_t seed, bool federated) {
  Rng rng(seed);
  std::string text;
  for (int pass = 0; pass < 3; ++pass) {
    for (const Statement& s : TpchPass(&rng, federated)) text += s.kind + ";";
  }
  return text;
}

TEST(Streams, SameSeedSameBytesOtherSeedOtherBytes) {
  EXPECT_EQ(HtapText(7, 3), HtapText(7, 3));
  EXPECT_NE(HtapText(7, 3), HtapText(8, 3));
  EXPECT_EQ(TpchText(7, false), TpchText(7, false));
  EXPECT_NE(TpchText(7, false), TpchText(8, false));
  EXPECT_EQ(TpchText(7, true), TpchText(7, true));
  EXPECT_NE(TpchText(7, true), TpchText(8, true));
}

TEST(Streams, TpchPassHoldsEveryQueryOnce) {
  Rng rng(1);
  std::vector<Statement> local = TpchPass(&rng, false);
  std::vector<Statement> federated = TpchPass(&rng, true);
  EXPECT_EQ(local.size(), 12u);
  ASSERT_EQ(federated.size(), 24u);
  int hinted = 0;
  for (const Statement& s : federated) {
    if (s.expect_cache_hit) {
      ++hinted;
      EXPECT_NE(s.sql.find("WITH HINT (USE_REMOTE_CACHE)"), std::string::npos);
    }
  }
  EXPECT_EQ(hinted, 12);
}

TEST(Streams, HtapCycleKeepsHotSizeAndModelsEveryStatement) {
  HtapStream stream(3);
  EXPECT_EQ(stream.InitialRows().size(), 110000u);
  EXPECT_EQ(stream.live_rows(), 110000);
  std::vector<Statement> cycle = stream.NextCycle();
  EXPECT_EQ(cycle.size(), 19u);
  EXPECT_EQ(stream.hot_rows(), 10000);  // 4 x 100 inserted, 400 deleted.
  std::map<std::string, int> kinds;
  for (const Statement& s : cycle) {
    ++kinds[s.kind];
    EXPECT_GE(s.expect_rows, 0) << s.sql;
  }
  EXPECT_EQ(kinds["insert"], 4);
  EXPECT_EQ(kinds["point"], 8);
  EXPECT_EQ(kinds["olap"], 4);
  EXPECT_EQ(kinds["update"], 1);
  EXPECT_EQ(kinds["delete"], 1);
  EXPECT_EQ(kinds["history"], 1);
  EXPECT_EQ(cycle.back().kind, "history");
  EXPECT_EQ(cycle.back().expect_count, 110000);
}

TEST(TableHash, IgnoresRowOrderAndLastBitsOfDoubles) {
  auto schema = std::make_shared<hana::Schema>();
  hana::storage::Table a(schema), b(schema), c(schema);
  a.AppendRow({hana::Value::Int(1), hana::Value::Double(0.1 + 0.2)});
  a.AppendRow({hana::Value::String("x"), hana::Value::Null()});
  b.AppendRow({hana::Value::String("x"), hana::Value::Null()});
  b.AppendRow({hana::Value::Int(1), hana::Value::Double(0.3)});
  c.AppendRow({hana::Value::Int(1), hana::Value::Double(0.31)});
  c.AppendRow({hana::Value::String("x"), hana::Value::Null()});
  EXPECT_EQ(TableHash(a), TableHash(b));
  EXPECT_NE(TableHash(a), TableHash(c));
}

TEST(HostProbes, PeakResetIsSkippedWhenUnavailable) {
  EXPECT_FALSE(ResetPeakRss("/nonexistent-dir/clear_refs"));
  // Without a status file the peak falls back to getrusage.
  EXPECT_GT(PeakRssMb("/nonexistent-dir/status"), 0.0);
  std::string status = TempFile("status", "Name:\tx\nVmHWM:\t  2048 kB\n");
  EXPECT_DOUBLE_EQ(PeakRssMb(status), 2.0);
}

TEST(HostProbes, HostProbeTimesFixedWork) {
  EXPECT_GT(HostProbe().RunMs(), 0.0);
}

TEST(HostProbes, ProbeProcessFailureYieldsNoTimes) {
  EXPECT_TRUE(RunHostProbe("/nonexistent-dir/perfbench_probe", 2).empty());
}

TEST(HostProbes, StealPercentFromProcStat) {
  HostCpu before = ReadHostCpu(
      TempFile("stat0", "cpu  100 0 100 700 0 0 0 100 0 0\ncpu0 1 2\n"));
  HostCpu after = ReadHostCpu(
      TempFile("stat1", "cpu  200 0 200 1300 0 0 0 300 0 0\ncpu0 1 2\n"));
  EXPECT_EQ(before.total, 1000u);
  EXPECT_EQ(before.steal, 100u);
  EXPECT_DOUBLE_EQ(StealPercent(before, after), 20.0);
  EXPECT_EQ(StealPercent(after, before), 0.0);
  EXPECT_EQ(ReadHostCpu("/nonexistent-dir/stat").total, 0u);
}

}  // namespace
}  // namespace perfbench
