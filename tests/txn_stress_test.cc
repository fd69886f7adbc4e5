// Seeded randomized 2PC stress (ctest labels: txn, concurrency).
//
// Phase A drives N transactions over M participants under a seeded
// FaultSchedule — prepare failures, commit-phase infrastructure
// failures, hangs, latency and coordinator crashes at every failpoint —
// and asserts the atomicity invariant (no transaction ends partially
// committed) plus bit-identical replay: the same seed produces the same
// coordinator log and fault trace on a second run.
//
// Phase B commits from concurrent client threads (the path TSan checks
// under HANA_SANITIZE=thread) using natural faults (NULL in a NOT NULL
// column) and asserts the same all-or-nothing invariant.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "storage/column_table.h"
#include "txn/fault_injection.h"
#include "txn/participants.h"
#include "txn/two_phase.h"

namespace hana::txn {
namespace {

constexpr size_t kParticipants = 4;
constexpr size_t kTxns = 60;
constexpr uint64_t kSeed = 0x5eed2bc0ffee;

std::shared_ptr<Schema> TestSchema() {
  return std::make_shared<Schema>(std::vector<ColumnDef>{
      {"id", DataType::kInt64, false}, {"v", DataType::kString, true}});
}

/// Number of live rows in `table` whose id column equals `id`. Live =
/// committed and not deleted: prepared-then-aborted versions stay in the
/// delta as never-visible rows.
size_t CountId(const storage::ColumnTable& table, int64_t id) {
  size_t count = 0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (!table.IsVisibleLatest(r)) continue;
    if (table.GetCell(r, 0) == Value::Int(id)) ++count;
  }
  return count;
}

/// One full seeded run of phase A; returns the observables the
/// determinism assertion compares.
struct RunResult {
  std::string log;
  std::string trace;
  std::vector<size_t> rows_per_table;
  size_t committed = 0;
  size_t aborted = 0;
};

RunResult RunSeededStress(uint64_t seed) {
  // A private version manager per run: transaction ids and commit
  // timestamps restart at 1, so same-seed runs log byte-identically.
  mvcc::VersionManager vm;
  std::vector<std::unique_ptr<storage::ColumnTable>> tables;
  std::vector<std::unique_ptr<ColumnTableParticipant>> participants;
  std::vector<std::string> names;
  FaultInjector injector;
  for (size_t i = 0; i < kParticipants; ++i) {
    names.push_back("P" + std::to_string(i));
    tables.push_back(std::make_unique<storage::ColumnTable>(TestSchema()));
    tables.back()->SetVersionManager(&vm);
    participants.push_back(std::make_unique<ColumnTableParticipant>(
        names.back(), tables.back().get(), &injector));
  }
  TwoPhaseCoordinator coordinator;
  coordinator.SetVersionManager(&vm);
  coordinator.SetFaultInjector(&injector);

  FaultSchedule schedule(seed);
  std::vector<TxnFaultPlan> plans =
      schedule.Generate(kTxns, kParticipants);

  RunResult result;
  for (size_t t = 0; t < kTxns; ++t) {
    FaultSchedule::Arm(plans[t], names, /*latency_ms=*/0.2, &injector);

    TxnId txn = coordinator.Begin();
    for (auto& p : participants) {
      EXPECT_TRUE(coordinator.Enlist(txn, p.get()).ok());
    }
    for (size_t i = 0; i < participants.size(); ++i) {
      EXPECT_TRUE(participants[i]
                      ->StageInsert(txn, {Value::Int(static_cast<int64_t>(txn)),
                                          Value::String(names[i])})
                      .ok());
    }

    Status s = coordinator.Commit(txn);
    // Infrastructure failures after the global commit decision: the
    // client retries; armed faults are one-shot so this terminates.
    size_t retries = 0;
    while (s.code() == StatusCode::kInternal && retries++ <= kParticipants) {
      s = coordinator.Commit(txn);
    }
    if (s.code() == StatusCode::kUnavailable) {
      // Coordinator crashed at a failpoint. Joint recovery: participants
      // re-register (the crash dropped the registrations) and the log
      // replays. A leaked commit fault from the same plan can fail the
      // roll-forward once; recovery is retried like a client retry.
      for (auto& p : participants) {
        coordinator.RegisterRecoveryParticipant(p.get());
      }
      Status r = coordinator.Recover();
      retries = 0;
      while (!r.ok() && retries++ <= kParticipants) r = coordinator.Recover();
      EXPECT_TRUE(r.ok()) << r.ToString();
    }

    // All interleaving controls for this transaction end here: release
    // any leaked latch and clear latency before the next plan arms.
    injector.ReleaseAll();
    for (const std::string& name : names) {
      injector.SetLatencyMs(name, FaultOp::kPrepare, 0);
    }

    // The atomicity invariant, checked after every transaction: its row
    // is in every table or in none.
    size_t present = 0;
    for (auto& table : tables) {
      present += CountId(*table, static_cast<int64_t>(txn));
    }
    EXPECT_TRUE(present == 0 || present == kParticipants)
        << "txn " << txn << " partially committed (" << present << "/"
        << kParticipants << " tables), plan " << plans[t].ToString();
    if (present == kParticipants) {
      ++result.committed;
    } else {
      ++result.aborted;
    }
  }

  result.log = LogToString(coordinator.log());
  result.trace = injector.TraceToString();
  for (auto& table : tables) result.rows_per_table.push_back(table->live_rows());
  return result;
}

TEST(TxnStressTest, SeededFaultsNeverPartiallyCommit) {
  RunResult run = RunSeededStress(kSeed);
  // The mix must actually exercise both outcomes, or the invariant is
  // vacuous.
  EXPECT_GT(run.committed, 0u);
  EXPECT_GT(run.aborted, 0u);
  // Committed transactions put one row in every table.
  for (size_t rows : run.rows_per_table) {
    EXPECT_EQ(rows, run.committed);
  }
}

TEST(TxnStressTest, SameSeedReplaysBitIdentically) {
  RunResult first = RunSeededStress(kSeed);
  RunResult second = RunSeededStress(kSeed);
  EXPECT_EQ(first.log, second.log);
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.rows_per_table, second.rows_per_table);
  EXPECT_EQ(first.committed, second.committed);

  // A different seed yields a different schedule (sanity check that the
  // seed actually steers the run).
  RunResult other = RunSeededStress(kSeed + 1);
  EXPECT_NE(first.trace, other.trace);
}

TEST(TxnStressTest, ConcurrentClientsNeverPartiallyCommit) {
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 12;

  std::vector<std::unique_ptr<storage::ColumnTable>> tables;
  std::vector<std::unique_ptr<ColumnTableParticipant>> participants;
  for (size_t i = 0; i < kParticipants; ++i) {
    tables.push_back(std::make_unique<storage::ColumnTable>(TestSchema()));
    participants.push_back(std::make_unique<ColumnTableParticipant>(
        "P" + std::to_string(i), tables.back().get()));
  }
  TwoPhaseCoordinator coordinator;

  // Each (thread, iteration) is one transaction tagged with a unique id;
  // every third one carries a natural fault — NULL in the NOT NULL id
  // column — that makes one participant vote abort during the
  // concurrent vote round.
  std::vector<std::map<int64_t, bool>> outcomes(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        int64_t id = static_cast<int64_t>(t * 1000 + i);
        bool poison = (t + i) % 3 == 0;
        TxnId txn = coordinator.Begin();
        for (auto& p : participants) {
          ASSERT_TRUE(coordinator.Enlist(txn, p.get()).ok());
        }
        for (size_t pi = 0; pi < participants.size(); ++pi) {
          Value v = poison && pi == kParticipants - 1 ? Value::Null()
                                                      : Value::Int(id);
          ASSERT_TRUE(participants[pi]
                          ->StageInsert(txn, {v, Value::String("c")})
                          .ok());
        }
        Status s = coordinator.Commit(txn);
        EXPECT_EQ(s.ok(), !poison) << s.ToString();
        outcomes[t][id] = s.ok();
      }
    });
  }
  for (auto& thread : threads) thread.join();

  size_t committed = 0;
  for (const auto& per_thread : outcomes) {
    for (const auto& [id, ok] : per_thread) {
      size_t present = 0;
      for (auto& table : tables) present += CountId(*table, id);
      if (ok) {
        ++committed;
        EXPECT_EQ(present, kParticipants) << "txn id " << id;
      } else {
        // The poisoned participant staged NULL, so even its table must
        // hold nothing for this id.
        EXPECT_EQ(present, 0u) << "txn id " << id;
      }
    }
  }
  EXPECT_GT(committed, 0u);
  for (auto& table : tables) {
    EXPECT_EQ(table->live_rows(), committed);
  }
}

}  // namespace
}  // namespace hana::txn
