// Online parallel delta merge benchmark. Two questions:
//
//  1. Merge latency: the seed merge (per-row Value boxing + per-row
//     lower_bound over the full dictionary + serial bit-pack,
//     faithfully re-implemented below) vs the remap-table rebuild,
//     serial (MergeOptions::parallel = false) and
//     morsel-parallel across a thread sweep — over dictionary
//     cardinalities and on a 1M-row multi-column table. Every engine
//     must produce the bit-identical new main (words, dictionary,
//     nulls compared directly; table-level runs cross-checked by scan
//     digest).
//
//  2. Online-ness: aggregate scan throughput of concurrent readers
//     while a merge is in flight, vs the same readers with no merge
//     running, vs a blocking merge (the seed behavior, emulated with a
//     scan-excluding lock held for the merge duration).
//
// On a single-core host the thread sweep demonstrates bounded
// scheduling overhead rather than scaling; the seed-vs-remap speedup
// (no boxing, no per-row binary search) is visible at any core count.
//
// Usage: bench_merge_delta [rows] [scan_threads]

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/task_pool.h"
#include "common/util.h"
#include "storage/codec.h"
#include "storage/column_table.h"

namespace hana {
namespace {

using storage::BuildMergedMain;
using storage::ColumnMain;
using storage::ColumnTable;
using storage::ColumnVector;
using storage::DeltaPart;
using storage::MergeOptions;
using storage::StoredColumn;

// ---------------------------------------------------------------------
// The seed merge path, reproduced: decode every row through a boxed
// Value, rebuild the dictionary with sort+unique over all row values,
// re-encode with a per-row lower_bound, serial bit-pack. Non-mutating
// (reads the frozen parts) so it can be re-timed without rebuilds.
// ---------------------------------------------------------------------

std::shared_ptr<ColumnMain> SeedMerge(const ColumnMain& main,
                                      const DeltaPart& frozen) {
  size_t total = main.rows + frozen.rows();
  auto out = std::make_shared<ColumnMain>();
  out->rows = total;
  out->nulls.resize(total);
  std::copy(main.nulls.begin(), main.nulls.end(), out->nulls.begin());
  std::copy(frozen.nulls.begin(), frozen.nulls.end(),
            out->nulls.begin() + main.rows);

  // The input main may carry any encoding (the workload builder's
  // first-half merge picks per column), so read it through the
  // layout-agnostic accessors rather than assuming packed words.
  auto get = [&](size_t row) -> Value {
    if (out->nulls[row]) return Value::Null();
    if (row < main.rows) {
      return main.ValueOfCode(main.CodeAt(row));
    }
    return frozen.dict[frozen.codes[row - main.rows]];
  };

  std::vector<Value> all;
  all.reserve(total);
  for (size_t i = 0; i < total; ++i) all.push_back(get(i));

  std::vector<Value> dict;
  dict.reserve(main.dict.size() + frozen.dict.size());
  for (const Value& v : all) {
    if (!v.is_null()) dict.push_back(v);
  }
  std::sort(dict.begin(), dict.end());
  dict.erase(std::unique(dict.begin(), dict.end()), dict.end());

  std::vector<uint32_t> codes(total, 0);
  for (size_t i = 0; i < total; ++i) {
    if (out->nulls[i]) continue;
    auto it = std::lower_bound(dict.begin(), dict.end(), all[i]);
    codes[i] = static_cast<uint32_t>(it - dict.begin());
  }
  out->bits = storage::BitWidth(dict.empty() ? 0 : dict.size() - 1);
  out->words = storage::BitPack(codes, out->bits);
  out->dict = std::move(dict);
  return out;
}

bool MainsIdentical(const ColumnMain& a, const ColumnMain& b) {
  if (a.bits != b.bits || a.rows != b.rows || a.words != b.words ||
      a.nulls != b.nulls || a.dict.size() != b.dict.size()) {
    return false;
  }
  for (size_t i = 0; i < a.dict.size(); ++i) {
    if (a.dict[i].Compare(b.dict[i]) != 0) return false;
  }
  return true;
}

double BestOfThree(const std::function<double()>& run) {
  double best = run();
  for (int i = 0; i < 2; ++i) best = std::min(best, run());
  return best;
}

// A column with a packed main holding the first half of the rows and a
// frozen delta holding the second half — the state a merge starts from.
struct Workload {
  std::string name;
  std::vector<StoredColumn> columns;
};

Value MakeValue(size_t i, int kind, size_t cardinality) {
  uint64_t h = i * 2654435761u;
  uint64_t c = h % cardinality;
  switch (kind) {
    case 0:
      return Value::Int(static_cast<int64_t>(c));
    case 1:
      return Value::Double(static_cast<double>(c) * 0.25);
    default:
      return Value::String("val_" + std::to_string(c));
  }
}

Workload MakeWorkload(const std::string& name, size_t rows,
                      const std::vector<std::pair<int, size_t>>& cols) {
  Workload w;
  w.name = name;
  for (const auto& [kind, cardinality] : cols) {
    StoredColumn column(kind == 0   ? DataType::kInt64
                        : kind == 1 ? DataType::kDouble
                                    : DataType::kString);
    for (size_t i = 0; i < rows / 2; ++i) {
      column.Append(MakeValue(i, kind, cardinality));
    }
    column.MergeDelta();
    for (size_t i = rows / 2; i < rows; ++i) {
      column.Append(MakeValue(i, kind, cardinality));
    }
    column.FreezeDelta();
    w.columns.push_back(std::move(column));
  }
  return w;
}

/// Sum of per-column merge times under one engine; `build` maps
/// (main, frozen) -> new main for a single column.
double TimeMerge(
    const Workload& w, std::vector<std::shared_ptr<const ColumnMain>>* outs,
    const std::function<std::shared_ptr<const ColumnMain>(
        const ColumnMain&, const DeltaPart&)>& build,
    bool fan_out_columns, size_t max_workers) {
  outs->assign(w.columns.size(), nullptr);
  Stopwatch watch;
  auto build_one = [&](size_t c) {
    (*outs)[c] =
        build(*w.columns[c].main_part(), *w.columns[c].frozen_part());
  };
  if (fan_out_columns && w.columns.size() > 1) {
    TaskPool::Global().ParallelFor(w.columns.size(), build_one, max_workers);
  } else {
    for (size_t c = 0; c < w.columns.size(); ++c) build_one(c);
  }
  return watch.ElapsedMillis();
}

// ---------------------------------------------------------------------
// Table-level digest cross-check (serial vs parallel MergeDelta).
// ---------------------------------------------------------------------

std::shared_ptr<Schema> TableSchema() {
  return std::make_shared<Schema>(std::vector<ColumnDef>{
      {"a", DataType::kInt64, false},
      {"b", DataType::kInt64, false},
      {"c", DataType::kDouble, false},
      {"d", DataType::kString, false}});
}

ColumnTable MakeTable(size_t rows) {
  ColumnTable table(TableSchema());
  for (size_t i = 0; i < rows; ++i) {
    if (!table
             .AppendRows({{MakeValue(i, 0, 16), MakeValue(i, 0, 100000),
                           MakeValue(i, 1, 4096), MakeValue(i, 2, 1000)}})
             .ok()) {
      std::exit(1);
    }
  }
  return table;
}

uint64_t ScanDigest(const ColumnTable& table) {
  uint64_t digest = 1469598103934665603ull;
  table.Scan(0, [&](const storage::Chunk& chunk) {
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

size_t CountRows(const ColumnTable& table) {
  size_t rows = 0;
  table.Scan(0, [&](const storage::Chunk& chunk) {
    rows += chunk.num_rows();
    return true;
  });
  return rows;
}

int Main(int argc, char** argv) {
  size_t rows = argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 1000000;
  size_t scan_threads =
      argc > 2 ? static_cast<size_t>(std::atoll(argv[2])) : 6;
  std::printf("merge bench: %zu rows; pool=%zu workers\n\n", rows,
              TaskPool::Global().num_threads());

  const size_t kThreadCounts[] = {1, 2, 4, 8};

  // ---- Merge latency: dictionary-cardinality sweep + multi-column ----
  std::vector<Workload> workloads;
  workloads.push_back(MakeWorkload("int_card_16", rows, {{0, 16}}));
  workloads.push_back(MakeWorkload("int_card_1k", rows, {{0, 1024}}));
  workloads.push_back(MakeWorkload("int_card_100k", rows, {{0, 100000}}));
  workloads.push_back(MakeWorkload(
      "multicol_4", rows,
      {{0, 16}, {0, 100000}, {1, 4096}, {2, 1000}}));

  for (const Workload& w : workloads) {
    std::vector<std::shared_ptr<const ColumnMain>> seed_out;
    double seed_ms = BestOfThree(
        [&] { return TimeMerge(w, &seed_out, SeedMerge, false, 0); });
    std::printf(
        "{\"bench\": \"merge\", \"workload\": \"%s\", \"engine\": "
        "\"seed\", \"threads\": 1, \"ms\": %.3f}\n",
        w.name.c_str(), seed_ms);

    MergeOptions serial;
    serial.parallel = false;
    // This section byte-compares merged mains against the seed merge,
    // which only ever emits the bit-packed layout; pin it so the
    // encoding chooser doesn't rewrite qualifying columns to RLE/FOR.
    serial.choose_encodings = false;
    std::vector<std::shared_ptr<const ColumnMain>> serial_out;
    double serial_ms = BestOfThree([&] {
      return TimeMerge(
          w, &serial_out,
          [&](const ColumnMain& m, const DeltaPart& d) {
            return BuildMergedMain(m, d, serial);
          },
          false, 0);
    });
    bool serial_identical = true;
    for (size_t c = 0; c < w.columns.size(); ++c) {
      serial_identical &= MainsIdentical(*seed_out[c], *serial_out[c]);
    }
    std::printf(
        "{\"bench\": \"merge\", \"workload\": \"%s\", \"engine\": "
        "\"remap_serial\", \"threads\": 1, \"ms\": %.3f, "
        "\"speedup_vs_seed\": %.2f, \"identical_to_seed\": %s}\n",
        w.name.c_str(), serial_ms, serial_ms > 0 ? seed_ms / serial_ms : 0.0,
        serial_identical ? "true" : "false");
    if (!serial_identical) {
      std::fprintf(stderr, "serial mismatch on %s\n", w.name.c_str());
      return 1;
    }

    for (size_t threads : kThreadCounts) {
      MergeOptions parallel;
      parallel.parallel = true;
      parallel.max_workers = threads;
      parallel.choose_encodings = false;  // Byte-compared to the seed.
      std::vector<std::shared_ptr<const ColumnMain>> out;
      double ms = BestOfThree([&] {
        return TimeMerge(
            w, &out,
            [&](const ColumnMain& m, const DeltaPart& d) {
              return BuildMergedMain(m, d, parallel);
            },
            true, threads);
      });
      bool identical = true;
      for (size_t c = 0; c < w.columns.size(); ++c) {
        identical &= MainsIdentical(*serial_out[c], *out[c]);
      }
      std::printf(
          "{\"bench\": \"merge\", \"workload\": \"%s\", \"engine\": "
          "\"remap_parallel\", \"threads\": %zu, \"ms\": %.3f, "
          "\"speedup_vs_seed\": %.2f, \"identical_to_serial\": %s}\n",
          w.name.c_str(), threads, ms, ms > 0 ? seed_ms / ms : 0.0,
          identical ? "true" : "false");
      if (!identical) {
        std::fprintf(stderr, "parallel mismatch on %s\n", w.name.c_str());
        return 1;
      }
    }
    std::printf("\n");
  }

  // ---- Table-level cross-check: ColumnTable::MergeDelta end to end ----
  {
    ColumnTable reference = MakeTable(rows);
    uint64_t pre_digest = ScanDigest(reference);
    MergeOptions serial;
    serial.parallel = false;
    Stopwatch watch;
    if (!reference.MergeDelta(serial).ok()) return 1;
    double serial_ms = watch.ElapsedMillis();
    uint64_t serial_digest = ScanDigest(reference);
    std::printf(
        "{\"bench\": \"merge_table\", \"rows\": %zu, \"cols\": 4, "
        "\"engine\": \"remap_serial\", \"threads\": 1, \"ms\": %.3f, "
        "\"digest_matches_premerge\": %s, \"compression_ratio\": %.2f}\n",
        rows, serial_ms, serial_digest == pre_digest ? "true" : "false",
        reference.merge_stats().LastCompressionRatio());
    if (serial_digest != pre_digest) return 1;
    for (size_t threads : kThreadCounts) {
      ColumnTable table = MakeTable(rows);
      MergeOptions parallel;
      parallel.parallel = true;
      parallel.max_workers = threads;
      Stopwatch parallel_watch;
      if (!table.MergeDelta(parallel).ok()) return 1;
      double ms = parallel_watch.ElapsedMillis();
      bool digest_eq = ScanDigest(table) == serial_digest;
      bool bytes_eq = table.MainMemoryBytes() == reference.MainMemoryBytes();
      std::printf(
          "{\"bench\": \"merge_table\", \"rows\": %zu, \"cols\": 4, "
          "\"engine\": \"remap_parallel\", \"threads\": %zu, \"ms\": %.3f, "
          "\"digest_identical_to_serial\": %s, \"main_bytes_identical\": "
          "%s}\n",
          rows, threads, ms, digest_eq ? "true" : "false",
          bytes_eq ? "true" : "false");
      if (!digest_eq || !bytes_eq) return 1;
    }
    std::printf("\n");
  }

  // ---- Scan throughput during an in-flight merge --------------------
  {
    size_t scan_rows = rows;
    ColumnTable table = MakeTable(scan_rows / 2);
    MergeOptions serial;
    serial.parallel = false;
    if (!table.MergeDelta(serial).ok()) return 1;
    for (size_t i = scan_rows / 2; i < scan_rows; ++i) {
      if (!table
               .AppendRows({{MakeValue(i, 0, 16), MakeValue(i, 0, 100000),
                             MakeValue(i, 1, 4096), MakeValue(i, 2, 1000)}})
               .ok()) {
        return 1;
      }
    }
    // Leave most of the pool to the scanners: the merge builds with at
    // most two pool workers (plus the merging thread).
    MergeOptions merge_opts;
    merge_opts.parallel = true;
    merge_opts.max_workers = 2;

    // Scanners repeatedly run full table scans until told to stop,
    // counting rows streamed. `gate` emulates the blocking-merge
    // baseline: the merge holds it exclusively, so scans cannot start
    // while the merge runs (the seed behavior, where readers had to be
    // kept off the table for the whole rebuild).
    std::mutex gate;
    auto run_scanners = [&](std::atomic<bool>* stop, bool use_gate,
                            double* out_elapsed_ms) {
      std::atomic<uint64_t> scanned{0};
      std::vector<std::thread> threads;
      Stopwatch watch;
      threads.reserve(scan_threads);
      for (size_t t = 0; t < scan_threads; ++t) {
        threads.emplace_back([&] {
          while (!stop->load(std::memory_order_relaxed)) {
            if (use_gate) {
              std::lock_guard<std::mutex> hold(gate);
              // Woken by the merge releasing the gate: the window is
              // over, don't count a post-merge scan.
              if (stop->load(std::memory_order_relaxed)) break;
              scanned.fetch_add(CountRows(table));
            } else {
              scanned.fetch_add(CountRows(table));
            }
          }
        });
      }
      while (!stop->load(std::memory_order_relaxed)) {
        std::this_thread::yield();
      }
      for (auto& th : threads) th.join();
      *out_elapsed_ms = watch.ElapsedMillis();
      return scanned.load();
    };

    // No-merge baseline first, on the same pre-merge table state (the
    // packed-main/plain-delta mix scans at a different rate than the
    // post-merge table would).
    std::atomic<bool> stop_baseline{false};
    std::thread timer([&] {
      Stopwatch watch;
      while (watch.ElapsedMillis() < 1500.0) std::this_thread::yield();
      stop_baseline.store(true);
    });
    double base_elapsed = 0;
    uint64_t base_rows = run_scanners(&stop_baseline, false, &base_elapsed);
    timer.join();
    double base_rps = base_rows / (base_elapsed / 1000.0);

    // In-flight merge window.
    std::atomic<bool> stop{false};
    double merge_ms = 0;
    std::thread merger([&] {
      Stopwatch watch;
      if (!table.MergeDelta(merge_opts).ok()) std::exit(1);
      merge_ms = watch.ElapsedMillis();
      stop.store(true);
    });
    double online_elapsed = 0;
    uint64_t online_rows = run_scanners(&stop, false, &online_elapsed);
    merger.join();
    double online_rps = online_rows / (online_elapsed / 1000.0);

    // Blocking-merge baseline: refill a delta, then merge while holding
    // the gate the scanners must acquire per scan.
    for (size_t i = 0; i < scan_rows / 2; ++i) {
      if (!table
               .AppendRows({{MakeValue(i, 0, 16), MakeValue(i, 0, 100000),
                             MakeValue(i, 1, 4096), MakeValue(i, 2, 1000)}})
               .ok()) {
        return 1;
      }
    }
    std::atomic<bool> stop_blocked{false};
    std::atomic<bool> gate_held{false};
    std::thread blocked_merger([&] {
      std::lock_guard<std::mutex> hold(gate);
      gate_held.store(true);
      if (!table.MergeDelta(merge_opts).ok()) std::exit(1);
      stop_blocked.store(true);
    });
    while (!gate_held.load()) std::this_thread::yield();
    double blocked_elapsed = 0;
    uint64_t blocked_rows =
        run_scanners(&stop_blocked, true, &blocked_elapsed);
    blocked_merger.join();
    double blocked_rps = blocked_rows / (blocked_elapsed / 1000.0);

    std::printf(
        "{\"bench\": \"merge_scan\", \"rows\": %zu, \"scan_threads\": %zu, "
        "\"merge_workers\": 2, \"merge_ms\": %.1f, "
        "\"no_merge_rows_per_s\": %.0f, \"online_rows_per_s\": %.0f, "
        "\"online_vs_no_merge\": %.2f, \"blocked_rows_per_s\": %.0f, "
        "\"blocked_vs_no_merge\": %.2f}\n",
        scan_rows, scan_threads, merge_ms, base_rps, online_rps,
        base_rps > 0 ? online_rps / base_rps : 0.0, blocked_rps,
        base_rps > 0 ? blocked_rps / base_rps : 0.0);
  }
  return 0;
}

}  // namespace
}  // namespace hana

int main(int argc, char** argv) { return hana::Main(argc, argv); }
