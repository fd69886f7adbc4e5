// Reproduces the compression claim of Figure 2: the series-optimized
// internal representation of time-series data compresses "by more than
// a factor of 10 compared to row-oriented storage and more than a
// factor of 3 compared to columnar storage".
//
// Workload: energy-meter style sensor series — equidistant, quantized
// to the sensor's resolution, smooth with idle plateaus (the paper's
// motivating scenarios: manufacturing equipment monitoring, energy
// meter analysis).
//
// Usage: bench_fig2_timeseries_compression [num_points]

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/util.h"
#include "storage/column_table.h"
#include "timeseries/series_table.h"

namespace hana {
namespace {

int Main(int argc, char** argv) {
  size_t points = argc > 1 ? static_cast<size_t>(std::atoll(argv[1]))
                           : 1000000;
  std::printf(
      "Figure 2 reproduction: time-series storage footprint, %zu points\n"
      "(equidistant sensor series, 0.05-unit quantization, smooth with\n"
      "idle plateaus)\n\n",
      points);

  // Generate the series.
  Rng rng(42);
  timeseries::SeriesOptions options;
  options.start_ms = 0;
  options.interval_ms = 1000;
  timeseries::SeriesTable series("meter", options);
  double level = 20.0;
  int64_t plateau = 0;
  std::vector<std::pair<int64_t, double>> raw;
  for (size_t i = 0; i < points; ++i) {
    if (plateau > 0) {
      --plateau;
    } else {
      level += (rng.NextDouble() - 0.5) * 0.6;
      if (rng.Uniform(0, 99) < 30) plateau = rng.Uniform(5, 60);
    }
    double value = std::round(level / 0.05) * 0.05;
    raw.emplace_back(static_cast<int64_t>(i) * 1000, value);
  }
  for (const auto& [ts, v] : raw) {
    Status s = series.Append(ts, v);
    if (!s.ok()) {
      std::fprintf(stderr, "append: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  series.Seal();

  // Generic columnar baseline: dictionary-encoded (timestamp, value).
  auto schema = std::make_shared<Schema>(std::vector<ColumnDef>{
      {"ts", DataType::kTimestamp, false},
      {"value", DataType::kDouble, false}});
  storage::ColumnTable column_table(schema);
  for (const auto& [ts, v] : raw) {
    (void)column_table.AppendRows(
        {{Value::Timestamp(ts), Value::Double(v)}});
  }
  IgnoreStatus(column_table.MergeDelta());

  size_t row_bytes = series.RowFormatBytes();
  size_t column_bytes = column_table.MemoryBytes();
  size_t series_bytes = series.CompressedBytes();

  std::printf("%-28s %14s %12s\n", "layout", "bytes", "bytes/point");
  std::printf("%-28s %14zu %12.2f\n", "row-oriented storage", row_bytes,
              static_cast<double>(row_bytes) / points);
  std::printf("%-28s %14zu %12.2f\n", "generic columnar (dict)",
              column_bytes, static_cast<double>(column_bytes) / points);
  std::printf("%-28s %14zu %12.2f\n", "series-optimized storage",
              series_bytes, static_cast<double>(series_bytes) / points);

  double vs_row = static_cast<double>(row_bytes) / series_bytes;
  double vs_col = static_cast<double>(column_bytes) / series_bytes;
  std::printf(
      "\ncompression vs row storage:    %.1fx  (paper: >10x)\n"
      "compression vs columnar:       %.1fx  (paper: >3x)\n",
      vs_row, vs_col);
  std::printf("shape: %s\n", vs_row > 10.0 && vs_col > 3.0
                                 ? "HOLDS (>10x vs row, >3x vs column)"
                                 : "DOES NOT HOLD");
  return 0;
}

}  // namespace
}  // namespace hana

int main(int argc, char** argv) { return hana::Main(argc, argv); }
