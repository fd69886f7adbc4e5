// Ablation A2: the cost of distributed two-phase commit across the
// in-memory store and the extended storage versus local single-
// participant commit (which the improved protocol [14] handles in one
// phase), plus the abort path.

#include <benchmark/benchmark.h>

#include <filesystem>

#include "extended/extended_store.h"
#include "txn/fault_injection.h"
#include "txn/participants.h"
#include "txn/two_phase.h"

namespace hana {
namespace {

std::shared_ptr<Schema> TestSchema() {
  return std::make_shared<Schema>(std::vector<ColumnDef>{
      {"id", DataType::kInt64, false}, {"v", DataType::kDouble, true}});
}

void BM_CommitSingleParticipant(benchmark::State& state) {
  storage::ColumnTable table(TestSchema());
  txn::ColumnTableParticipant participant("mem", &table);
  txn::TwoPhaseCoordinator coordinator;
  int64_t i = 0;
  for (auto _ : state) {
    txn::TxnId txn = coordinator.Begin();
    (void)coordinator.Enlist(txn, &participant);
    (void)participant.StageInsert(txn, {Value::Int(i++), Value::Double(1.0)});
    benchmark::DoNotOptimize(coordinator.Commit(txn));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CommitSingleParticipant);

void BM_CommitTwoParticipants2PC(benchmark::State& state) {
  storage::ColumnTable table(TestSchema());
  txn::ColumnTableParticipant memory("mem", &table);

  extended::ExtendedStoreOptions options;
  options.directory =
      (std::filesystem::temp_directory_path() / "hana_bench_2pc").string();
  extended::ExtendedStore store(options);
  auto cold = store.CreateTable("t", TestSchema());
  txn::ExtendedTableParticipant disk("extended", *cold);

  txn::TwoPhaseCoordinator coordinator;
  int64_t i = 0;
  for (auto _ : state) {
    txn::TxnId txn = coordinator.Begin();
    (void)coordinator.Enlist(txn, &memory);
    (void)coordinator.Enlist(txn, &disk);
    (void)memory.StageInsert(txn, {Value::Int(i), Value::Double(1.0)});
    (void)disk.StageInsert(txn, {Value::Int(i++), Value::Double(1.0)});
    benchmark::DoNotOptimize(coordinator.Commit(txn));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CommitTwoParticipants2PC);

void BM_AbortOnPrepareFailure(benchmark::State& state) {
  storage::ColumnTable table(TestSchema());
  txn::ColumnTableParticipant a("a", &table);
  storage::ColumnTable table_b(TestSchema());
  txn::FaultInjector injector;
  txn::ColumnTableParticipant b("b", &table_b, &injector);
  txn::TwoPhaseCoordinator coordinator;
  for (auto _ : state) {
    txn::TxnId txn = coordinator.Begin();
    (void)coordinator.Enlist(txn, &a);
    (void)coordinator.Enlist(txn, &b);
    (void)a.StageInsert(txn, {Value::Int(1), Value::Double(1.0)});
    injector.FailNext("b", txn::FaultOp::kPrepare);
    benchmark::DoNotOptimize(coordinator.Commit(txn));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AbortOnPrepareFailure);

}  // namespace
}  // namespace hana

BENCHMARK_MAIN();
