// Encoding x CPU-dispatch x thread-count kernel benchmark.
//
// Part 1 (SQL level): the same low-cardinality run-structured data is
// loaded twice — once merged with the encoding chooser on (the filter
// column becomes RLE, the dense column frame-of-reference) and once
// pinned to the classic uniform bit-packed layout — then a selective
// filtered COUNT(*) runs over every (encoding, HANA_CPU mode, threads)
// cell. The RLE cells go through the run-at-a-time filter path, the
// bit-packed cells through the dispatched compare kernel; all cells
// must return the same count.
//
// Part 2 (kernel level): a 1M x 1M single-int64-key join measured
// directly on RadixJoinTable (build + full probe, match-sum checksum),
// comparing the perfect-hash direct-address layout against the radix
// bucket-chain layout on the same dense build keys, plus a sparse-key
// control where the perfect path must decline and fall back.
//
// JSON result lines go to stdout (bench/results/bench_kernels.json);
// progress chatter goes to stderr.
//
// Usage: bench_kernels [scan_rows] [join_rows]

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cpu_dispatch.h"
#include "common/task_pool.h"
#include "common/util.h"
#include "exec/radix_join.h"
#include "platform/platform.h"

namespace hana {
namespace {

double BestOfThree(const std::function<double()>& run) {
  double best = run();
  for (int i = 0; i < 2; ++i) best = std::min(best, run());
  return best;
}

constexpr size_t kRleRunLength = 4096;
constexpr int64_t kRleCardinality = 64;

Status LoadScanTables(platform::Platform* db, size_t rows) {
  // enc_rle / enc_rle_bp: identical run-structured data (runs of
  // kRleRunLength, kRleCardinality distinct values); enc_for /
  // enc_for_bp: identical dense ascending data.
  for (const char* name : {"enc_rle", "enc_rle_bp"}) {
    sql::CreateTableStmt create;
    create.table = name;
    create.columns = {{"flag", DataType::kInt64, false}};
    HANA_RETURN_IF_ERROR(db->catalog().CreateTable(create));
  }
  for (const char* name : {"enc_for", "enc_for_bp"}) {
    sql::CreateTableStmt create;
    create.table = name;
    create.columns = {{"v", DataType::kInt64, false}};
    HANA_RETURN_IF_ERROR(db->catalog().CreateTable(create));
  }
  const size_t kBatch = 65536;
  std::vector<std::vector<Value>> batch;
  for (size_t begin = 0; begin < rows; begin += kBatch) {
    size_t end = std::min(rows, begin + kBatch);
    batch.clear();
    for (size_t i = begin; i < end; ++i) {
      batch.push_back({Value::Int(
          static_cast<int64_t>(i / kRleRunLength) % kRleCardinality)});
    }
    HANA_RETURN_IF_ERROR(db->catalog().Insert("enc_rle", batch));
    HANA_RETURN_IF_ERROR(db->catalog().Insert("enc_rle_bp", batch));
    batch.clear();
    for (size_t i = begin; i < end; ++i) {
      batch.push_back({Value::Int(static_cast<int64_t>(i))});
    }
    HANA_RETURN_IF_ERROR(db->catalog().Insert("enc_for", batch));
    HANA_RETURN_IF_ERROR(db->catalog().Insert("enc_for_bp", batch));
  }
  // Merge: chooser on for the encoded pair, pinned bit-packed for the
  // *_bp baselines.
  for (const char* name : {"enc_rle", "enc_for"}) {
    HANA_ASSIGN_OR_RETURN(catalog::TableEntry * entry,
                          db->catalog().GetTable(name));
    HANA_RETURN_IF_ERROR(entry->column_table->MergeDelta({}));
  }
  for (const char* name : {"enc_rle_bp", "enc_for_bp"}) {
    HANA_ASSIGN_OR_RETURN(catalog::TableEntry * entry,
                          db->catalog().GetTable(name));
    storage::MergeOptions pinned;
    pinned.choose_encodings = false;
    HANA_RETURN_IF_ERROR(entry->column_table->MergeDelta(pinned));
  }
  return Status::OK();
}

struct ScanCell {
  double ms = 0.0;
  int64_t count = 0;
};

int RunScanSweep(platform::Platform* db, size_t rows) {
  struct ScanSpec {
    const char* encoding;  // JSON label of the encoded variant.
    const char* table;
    const char* baseline_table;  // Bit-packed twin.
    std::string predicate;
  };
  const std::vector<ScanSpec> specs = {
      {"rle", "enc_rle", "enc_rle_bp", "flag = 7"},
      {"for", "enc_for", "enc_for_bp",
       "v < " + std::to_string(rows / 100)},
  };
  const char* kCpuModes[] = {"scalar", "native"};
  const size_t kThreads[] = {1, 2, 4, 8};

  for (const ScanSpec& spec : specs) {
    for (const char* cpu : kCpuModes) {
      if (!db->SetParameter("cpu", cpu).ok()) return 1;
      for (size_t threads : kThreads) {
        if (!db->SetParameter("threads", std::to_string(threads)).ok()) {
          return 1;
        }
        auto run_query = [&](const char* table) -> ScanCell {
          std::string sql = std::string("SELECT COUNT(*) AS n FROM ") +
                            table + " WHERE " + spec.predicate;
          ScanCell cell;
          cell.ms = BestOfThree([&] {
            Stopwatch watch;
            auto result = db->Query(sql);
            double ms = watch.ElapsedMillis();
            if (!result.ok()) {
              std::fprintf(stderr, "query failed: %s: %s\n", sql.c_str(),
                           result.status().ToString().c_str());
              std::exit(1);
            }
            cell.count = result->row(0)[0].AsInt();
            return ms;
          });
          return cell;
        };
        ScanCell encoded = run_query(spec.table);
        ScanCell packed = run_query(spec.baseline_table);
        if (encoded.count != packed.count) {
          std::fprintf(stderr, "count mismatch: %s %lld vs %lld\n",
                       spec.encoding,
                       static_cast<long long>(encoded.count),
                       static_cast<long long>(packed.count));
          return 1;
        }
        std::printf(
            "{\"bench\": \"kernels_scan\", \"encoding\": \"%s\", "
            "\"cpu\": \"%s\", \"threads\": %zu, \"rows\": %zu, "
            "\"matched\": %lld, \"ms\": %.3f, \"bitpacked_ms\": %.3f, "
            "\"speedup_vs_bitpacked\": %.2f, \"identical\": true}\n",
            spec.encoding, cpu, threads, rows,
            static_cast<long long>(encoded.count), encoded.ms, packed.ms,
            encoded.ms > 0 ? packed.ms / encoded.ms : 0.0);
        std::fflush(stdout);
      }
    }
  }
  return 0;
}

// ---------------------------------------------------------------------
// Kernel-level join: perfect-hash vs radix on the same data.
// ---------------------------------------------------------------------

struct JoinResult {
  double build_ms = 0.0;
  double probe_ms = 0.0;
  uint64_t matches = 0;
  uint64_t key_sum = 0;
  bool perfect = false;
};

JoinResult RunJoin(const std::vector<int64_t>& build_keys,
                   const std::vector<int64_t>& probe_keys,
                   bool allow_perfect) {
  auto schema = std::make_shared<Schema>(
      std::vector<ColumnDef>{{"k", DataType::kInt64, false}});
  plan::BoundExprPtr key_expr = plan::BoundExpr::Column(0, DataType::kInt64, "k");
  std::vector<const plan::BoundExpr*> key_exprs = {key_expr.get()};

  const size_t kMorselRows = 65536;
  JoinResult result;
  exec::RadixJoinTable table(schema, key_exprs, allow_perfect);
  Stopwatch build_watch;
  const size_t num_morsels =
      (build_keys.size() + kMorselRows - 1) / kMorselRows;
  table.SetNumMorsels(num_morsels);
  for (size_t m = 0; m < num_morsels; ++m) {
    storage::Chunk chunk = storage::Chunk::Empty(schema);
    size_t begin = m * kMorselRows;
    size_t end = std::min(build_keys.size(), begin + kMorselRows);
    chunk.columns[0]->Reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      chunk.columns[0]->AppendInt(build_keys[i]);
    }
    if (!table.AddBuildChunk(m, chunk).ok()) std::exit(1);
  }
  if (!table.Finalize(&TaskPool::Global(), 1).ok()) std::exit(1);
  result.build_ms = build_watch.ElapsedMillis();
  result.perfect = table.perfect();

  storage::Chunk probe = storage::Chunk::Empty(schema);
  probe.columns[0]->Reserve(probe_keys.size());
  for (int64_t k : probe_keys) probe.columns[0]->AppendInt(k);

  exec::RadixJoinTable::ProbeKeys keys;
  Stopwatch probe_watch;
  if (!table.ComputeProbeKeys(probe, key_exprs, &keys).ok()) std::exit(1);
  uint64_t matches = 0, key_sum = 0;
  for (size_t r = 0; r < probe_keys.size(); ++r) {
    table.ForEachMatch(
        keys, r,
        [&](const exec::RadixJoinTable::Partition& p, size_t row) {
          ++matches;
          key_sum += static_cast<uint64_t>(p.key_cols[0]->GetInt(row));
          return true;
        });
  }
  result.probe_ms = probe_watch.ElapsedMillis();
  result.matches = matches;
  result.key_sum = key_sum;
  return result;
}

int RunJoinSweep(size_t join_rows) {
  // Dense build keys 0..N-1; sparse keys stride 37 (domain 37x the row
  // count, past the 2x density gate). Probe keys hit the build domain
  // pseudo-randomly, so ~100% of probes match exactly once.
  std::vector<int64_t> dense_build(join_rows), sparse_build(join_rows);
  std::vector<int64_t> dense_probe(join_rows), sparse_probe(join_rows);
  for (size_t i = 0; i < join_rows; ++i) {
    dense_build[i] = static_cast<int64_t>(i);
    sparse_build[i] = static_cast<int64_t>(i) * 37;
    int64_t p = static_cast<int64_t>((i * 2654435761u) % join_rows);
    dense_probe[i] = p;
    sparse_probe[i] = p * 37;
  }

  for (const char* cpu : {"scalar", "native"}) {
    if (!SetCpuMode(cpu).ok()) return 1;
    // Perfect-hash path vs radix path on identical dense data.
    JoinResult perfect, radix;
    double perfect_ms = BestOfThree([&] {
      Stopwatch watch;
      perfect = RunJoin(dense_build, dense_probe, /*allow_perfect=*/true);
      return watch.ElapsedMillis();
    });
    double radix_ms = BestOfThree([&] {
      Stopwatch watch;
      radix = RunJoin(dense_build, dense_probe, /*allow_perfect=*/false);
      return watch.ElapsedMillis();
    });
    if (!perfect.perfect || radix.perfect ||
        perfect.matches != radix.matches ||
        perfect.key_sum != radix.key_sum) {
      std::fprintf(stderr, "dense join mismatch (cpu=%s)\n", cpu);
      return 1;
    }
    std::printf(
        "{\"bench\": \"kernels_join\", \"keys\": \"dense\", \"layout\": "
        "\"perfect\", \"cpu\": \"%s\", \"build_rows\": %zu, "
        "\"probe_rows\": %zu, \"matches\": %llu, \"build_ms\": %.3f, "
        "\"probe_ms\": %.3f, \"ms\": %.3f, \"speedup_vs_radix\": %.2f, "
        "\"identical_to_radix\": true}\n",
        cpu, join_rows, join_rows,
        static_cast<unsigned long long>(perfect.matches),
        perfect.build_ms, perfect.probe_ms, perfect_ms,
        perfect_ms > 0 ? radix_ms / perfect_ms : 0.0);
    std::printf(
        "{\"bench\": \"kernels_join\", \"keys\": \"dense\", \"layout\": "
        "\"radix\", \"cpu\": \"%s\", \"build_rows\": %zu, "
        "\"probe_rows\": %zu, \"matches\": %llu, \"build_ms\": %.3f, "
        "\"probe_ms\": %.3f, \"ms\": %.3f}\n",
        cpu, join_rows, join_rows,
        static_cast<unsigned long long>(radix.matches), radix.build_ms,
        radix.probe_ms, radix_ms);

    // Sparse control: the perfect layout must decline at build time and
    // match the plain radix run exactly.
    JoinResult sparse_fallback, sparse_radix;
    double fallback_ms = BestOfThree([&] {
      Stopwatch watch;
      sparse_fallback =
          RunJoin(sparse_build, sparse_probe, /*allow_perfect=*/true);
      return watch.ElapsedMillis();
    });
    double sparse_ms = BestOfThree([&] {
      Stopwatch watch;
      sparse_radix =
          RunJoin(sparse_build, sparse_probe, /*allow_perfect=*/false);
      return watch.ElapsedMillis();
    });
    if (sparse_fallback.perfect ||
        sparse_fallback.matches != sparse_radix.matches ||
        sparse_fallback.key_sum != sparse_radix.key_sum) {
      std::fprintf(stderr, "sparse join mismatch (cpu=%s)\n", cpu);
      return 1;
    }
    std::printf(
        "{\"bench\": \"kernels_join\", \"keys\": \"sparse\", \"layout\": "
        "\"radix_fallback\", \"cpu\": \"%s\", \"build_rows\": %zu, "
        "\"probe_rows\": %zu, \"matches\": %llu, \"ms\": %.3f, "
        "\"radix_ms\": %.3f, \"fallback_overhead\": %.2f}\n",
        cpu, join_rows, join_rows,
        static_cast<unsigned long long>(sparse_fallback.matches),
        fallback_ms, sparse_ms,
        sparse_ms > 0 ? fallback_ms / sparse_ms : 0.0);
    std::fflush(stdout);
  }
  return 0;
}

int Main(int argc, char** argv) {
  size_t scan_rows =
      argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 2000000;
  size_t join_rows =
      argc > 2 ? static_cast<size_t>(std::atoll(argv[2])) : 1000000;

  std::fprintf(stderr,
               "bench_kernels: detected cpu level %s; scan_rows=%zu "
               "join_rows=%zu\n",
               CpuLevelName(DetectedCpuLevel()), scan_rows, join_rows);

  platform::Platform db(platform::PlatformOptions{
      .attach_extended = false, .start_hadoop = false});
  Status load = LoadScanTables(&db, scan_rows);
  if (!load.ok()) {
    std::fprintf(stderr, "load failed: %s\n", load.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "scan tables loaded and merged\n");
  if (int rc = RunScanSweep(&db, scan_rows); rc != 0) return rc;
  if (int rc = RunJoinSweep(join_rows); rc != 0) return rc;
  if (!SetCpuMode("native").ok()) return 1;
  return 0;
}

}  // namespace
}  // namespace hana

int main(int argc, char** argv) { return hana::Main(argc, argv); }
