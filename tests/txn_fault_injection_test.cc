// The failpoint × fault matrix for the async-voting two-phase commit:
// every coordinator Failpoint crossed with {one participant fails
// prepare, two fail concurrently, one hangs then recovers}, asserting
// the in-doubt set, that joint recovery converges to all-commit or
// all-abort, and that every scenario is deterministic — the same fault
// schedule yields byte-identical coordinator logs and injector traces
// on every run, regardless of thread interleaving.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/mvcc.h"
#include "extended/extended_store.h"
#include "extended/iq_engine.h"
#include "federation/iq_adapter.h"
#include "federation/txn_participant.h"
#include "txn/fault_injection.h"
#include "txn/participants.h"
#include "txn/two_phase.h"

namespace hana::txn {
namespace {

namespace fs = std::filesystem;

std::shared_ptr<Schema> TestSchema() {
  return std::make_shared<Schema>(std::vector<ColumnDef>{
      {"id", DataType::kInt64, false}, {"v", DataType::kString, true}});
}

/// Which participant-side faults a scenario arms.
enum class FaultCase {
  kNoFault,
  kOneFailsPrepare,          // B votes abort.
  kTwoFailConcurrently,      // B and C vote abort while all three votes
                             // are provably in flight together.
  kOneHangsThenRecovers,     // A's vote hangs until B and C finished.
};

const char* FaultCaseName(FaultCase c) {
  switch (c) {
    case FaultCase::kNoFault:
      return "no_fault";
    case FaultCase::kOneFailsPrepare:
      return "one_fails_prepare";
    case FaultCase::kTwoFailConcurrently:
      return "two_fail_concurrently";
    case FaultCase::kOneHangsThenRecovers:
      return "one_hangs_then_recovers";
  }
  return "?";
}

/// Everything observable about one scenario run, for determinism
/// comparison and convergence assertions.
struct Outcome {
  Status commit_status;
  std::vector<TxnId> in_doubt_before_recovery;
  std::string log_after_recovery;
  std::string trace;
  size_t rows_a = 0, rows_b = 0, rows_c = 0;
};

/// Runs one (failpoint, fault) cell from scratch: three participants,
/// one transaction staging a row everywhere, armed faults, Commit, then
/// joint recovery with re-registered participants.
Outcome RunScenario(Failpoint fp, FaultCase fault) {
  // A private version manager per run: transaction ids and commit
  // timestamps restart at 1, so two runs log byte-identically.
  mvcc::VersionManager vm;
  storage::ColumnTable table_a(TestSchema()), table_b(TestSchema()),
      table_c(TestSchema());
  for (storage::ColumnTable* t : {&table_a, &table_b, &table_c}) {
    t->SetVersionManager(&vm);
  }
  FaultInjector injector;
  ColumnTableParticipant a("A", &table_a, &injector);
  ColumnTableParticipant b("B", &table_b, &injector);
  ColumnTableParticipant c("C", &table_c, &injector);
  TwoPhaseCoordinator coordinator;
  coordinator.SetVersionManager(&vm);
  coordinator.SetFaultInjector(&injector);

  switch (fault) {
    case FaultCase::kNoFault:
      break;
    case FaultCase::kOneFailsPrepare:
      injector.FailNext("B", FaultOp::kPrepare);
      break;
    case FaultCase::kTwoFailConcurrently:
      // Hold both failing votes until all three have arrived, so the
      // two failures are genuinely concurrent — the interleaving the
      // old sequential vote loop could never produce.
      injector.FailNext("B", FaultOp::kPrepare);
      injector.FailNext("C", FaultOp::kPrepare);
      injector.Hold("B", FaultOp::kPrepare, /*release_after_arrivals=*/3);
      injector.Hold("C", FaultOp::kPrepare, /*release_after_arrivals=*/3);
      break;
    case FaultCase::kOneHangsThenRecovers:
      // A's vote recovers only after B's and C's votes completed.
      injector.Hold("A", FaultOp::kPrepare, /*release_after_arrivals=*/0,
                    /*release_after_completions=*/2);
      break;
  }
  if (fp != Failpoint::kNone) injector.CrashCoordinatorAt(fp);

  TxnId txn = coordinator.Begin();
  EXPECT_TRUE(coordinator.Enlist(txn, &a).ok());
  EXPECT_TRUE(coordinator.Enlist(txn, &b).ok());
  EXPECT_TRUE(coordinator.Enlist(txn, &c).ok());
  EXPECT_TRUE(a.StageInsert(txn, {Value::Int(1), Value::String("a")}).ok());
  EXPECT_TRUE(b.StageInsert(txn, {Value::Int(1), Value::String("b")}).ok());
  EXPECT_TRUE(c.StageInsert(txn, {Value::Int(1), Value::String("c")}).ok());

  Outcome out;
  out.commit_status = coordinator.Commit(txn);
  out.in_doubt_before_recovery = coordinator.InDoubt();

  coordinator.RegisterRecoveryParticipant(&a);
  coordinator.RegisterRecoveryParticipant(&b);
  coordinator.RegisterRecoveryParticipant(&c);
  EXPECT_TRUE(coordinator.Recover().ok());

  out.log_after_recovery = LogToString(coordinator.log());
  out.trace = injector.TraceToString();
  out.rows_a = table_a.live_rows();
  out.rows_b = table_b.live_rows();
  out.rows_c = table_c.live_rows();
  return out;
}

class FaultMatrixTest
    : public ::testing::TestWithParam<std::tuple<Failpoint, FaultCase>> {};

TEST_P(FaultMatrixTest, ConvergesAndReplaysDeterministically) {
  auto [fp, fault] = GetParam();
  Outcome first = RunScenario(fp, fault);

  // Joint recovery must converge: after Recover() nothing is in doubt
  // and the row is either everywhere or nowhere.
  EXPECT_EQ(first.rows_a, first.rows_b);
  EXPECT_EQ(first.rows_b, first.rows_c);

  bool crash_before_vote = fp == Failpoint::kBeforePrepare;
  bool vote_fails = !crash_before_vote &&
                    (fault == FaultCase::kOneFailsPrepare ||
                     fault == FaultCase::kTwoFailConcurrently);
  if (crash_before_vote) {
    // No prepare record — nothing in doubt, presumed abort.
    EXPECT_EQ(first.commit_status.code(), StatusCode::kUnavailable);
    EXPECT_TRUE(first.in_doubt_before_recovery.empty());
    EXPECT_EQ(first.rows_a, 0u);
  } else if (vote_fails) {
    // Aborted before any failpoint after the vote: never in doubt.
    EXPECT_EQ(first.commit_status.code(), StatusCode::kTransactionAborted);
    EXPECT_TRUE(first.in_doubt_before_recovery.empty());
    EXPECT_EQ(first.rows_a, 0u);
    // Enlist-order aggregation: B is always the first named failure.
    EXPECT_NE(first.commit_status.message().find("prepare failed at B"),
              std::string::npos)
        << first.commit_status.message();
    if (fault == FaultCase::kTwoFailConcurrently) {
      EXPECT_NE(first.commit_status.message().find("also failed at C"),
                std::string::npos)
          << first.commit_status.message();
    }
  } else if (fp == Failpoint::kAfterPrepare) {
    // The classic in-doubt window: prepared, no commit record.
    EXPECT_EQ(first.commit_status.code(), StatusCode::kUnavailable);
    ASSERT_EQ(first.in_doubt_before_recovery.size(), 1u);
    EXPECT_EQ(first.rows_a, 0u);  // Presumed abort rolled it back.
  } else if (fp == Failpoint::kAfterCommitRecord) {
    // Commit record exists: recovery rolls forward.
    EXPECT_EQ(first.commit_status.code(), StatusCode::kUnavailable);
    EXPECT_TRUE(first.in_doubt_before_recovery.empty());
    EXPECT_EQ(first.rows_a, 1u);
  } else {
    EXPECT_TRUE(first.commit_status.ok()) << first.commit_status.ToString();
    EXPECT_EQ(first.rows_a, 1u);
  }

  // Determinism: the same schedule replays to byte-identical log and
  // trace. (The second run exercises the same interleaving controls.)
  Outcome second = RunScenario(fp, fault);
  EXPECT_EQ(first.log_after_recovery, second.log_after_recovery)
      << "failpoint/fault: " << static_cast<int>(fp) << "/"
      << FaultCaseName(fault);
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.commit_status.ToString(),
            second.commit_status.ToString());
  EXPECT_EQ(first.in_doubt_before_recovery, second.in_doubt_before_recovery);
  EXPECT_EQ(first.rows_a, second.rows_a);
}

std::string MatrixCellName(
    const ::testing::TestParamInfo<FaultMatrixTest::ParamType>& info) {
  const char* fp_name = "?";
  switch (std::get<0>(info.param)) {
    case Failpoint::kNone:
      fp_name = "none";
      break;
    case Failpoint::kBeforePrepare:
      fp_name = "before_prepare";
      break;
    case Failpoint::kAfterPrepare:
      fp_name = "after_prepare";
      break;
    case Failpoint::kAfterCommitRecord:
      fp_name = "after_commit_record";
      break;
  }
  return std::string(fp_name) + "_x_" + FaultCaseName(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    FailpointByFault, FaultMatrixTest,
    ::testing::Combine(::testing::Values(Failpoint::kNone,
                                         Failpoint::kBeforePrepare,
                                         Failpoint::kAfterPrepare,
                                         Failpoint::kAfterCommitRecord),
                       ::testing::Values(FaultCase::kNoFault,
                                         FaultCase::kOneFailsPrepare,
                                         FaultCase::kTwoFailConcurrently,
                                         FaultCase::kOneHangsThenRecovers)),
    MatrixCellName);

// The hang latch releasing only once all votes arrived is itself the
// proof that voting is concurrent: the sequential loop would call A
// first and wait forever for arrivals that can't happen.
TEST(AsyncVotingTest, HeldFirstVoteReleasedByLaterArrivals) {
  Outcome out = RunScenario(Failpoint::kNone, FaultCase::kOneHangsThenRecovers);
  EXPECT_TRUE(out.commit_status.ok());
  EXPECT_EQ(out.rows_a, 1u);
  // The trace shows A's vote was held and released.
  EXPECT_NE(out.trace.find("A.prepare hold"), std::string::npos) << out.trace;
  EXPECT_NE(out.trace.find("A.prepare release"), std::string::npos);
}

TEST(AsyncVotingTest, LateVoterIsStillAwaitedAndRolledBack) {
  // B fails fast; C's vote is slow (held until every vote arrived).
  // The abort must still reach C after its vote completes.
  storage::ColumnTable table_a(TestSchema()), table_b(TestSchema()),
      table_c(TestSchema());
  FaultInjector injector;
  ColumnTableParticipant a("A", &table_a, &injector);
  ColumnTableParticipant b("B", &table_b, &injector);
  ColumnTableParticipant c("C", &table_c, &injector);
  injector.FailNext("B", FaultOp::kPrepare);
  injector.Hold("C", FaultOp::kPrepare, /*release_after_arrivals=*/3);
  TwoPhaseCoordinator coordinator;
  coordinator.SetFaultInjector(&injector);
  TxnId txn = coordinator.Begin();
  ASSERT_TRUE(coordinator.Enlist(txn, &a).ok());
  ASSERT_TRUE(coordinator.Enlist(txn, &b).ok());
  ASSERT_TRUE(coordinator.Enlist(txn, &c).ok());
  ASSERT_TRUE(c.StageInsert(txn, {Value::Int(9), Value::String("x")}).ok());
  Status s = coordinator.Commit(txn);
  EXPECT_EQ(s.code(), StatusCode::kTransactionAborted);
  // C voted (late), was awaited, and its staging was rolled back.
  EXPECT_FALSE(c.IsPrepared(txn));
  EXPECT_EQ(table_c.live_rows(), 0u);
}

TEST(IdempotentPrepareTest, RepeatedPrepareDoesNotConsumeArmedFaults) {
  storage::ColumnTable table(TestSchema());
  FaultInjector injector;
  ColumnTableParticipant p("P", &table, &injector);
  TwoPhaseCoordinator coordinator;
  TxnId txn = coordinator.Begin();
  ASSERT_TRUE(coordinator.Enlist(txn, &p).ok());
  ASSERT_TRUE(p.StageInsert(txn, {Value::Int(1), Value::String("x")}).ok());
  ASSERT_TRUE(p.Prepare(txn).ok());
  ASSERT_TRUE(p.IsPrepared(txn));
  // Arm a failure *after* the vote: the re-drive must not consume it.
  injector.FailNext("P", FaultOp::kPrepare);
  EXPECT_TRUE(p.Prepare(txn).ok());  // Idempotent: vote stands.
  EXPECT_TRUE(p.Prepare(txn).ok());
  // The armed fault is still pending for the next transaction.
  TxnId txn2 = coordinator.Begin();
  ASSERT_TRUE(p.StageInsert(txn2, {Value::Int(2), Value::String("y")}).ok());
  EXPECT_EQ(p.Prepare(txn2).code(), StatusCode::kTransactionAborted);
}

TEST(IdempotentPrepareTest, CommitRetryAfterPhase2FailureAppliesOnce) {
  // B's apply fails once after the global commit decision; the client
  // retries Commit. The retry re-drives prepare (idempotent no-op) and
  // finishes B without double-applying A.
  storage::ColumnTable table_a(TestSchema()), table_b(TestSchema());
  FaultInjector injector;
  ColumnTableParticipant a("A", &table_a, &injector);
  ColumnTableParticipant b("B", &table_b, &injector);
  injector.FailNext("B", FaultOp::kCommit);
  TwoPhaseCoordinator coordinator;
  coordinator.SetFaultInjector(&injector);
  TxnId txn = coordinator.Begin();
  ASSERT_TRUE(coordinator.Enlist(txn, &a).ok());
  ASSERT_TRUE(coordinator.Enlist(txn, &b).ok());
  ASSERT_TRUE(a.StageInsert(txn, {Value::Int(1), Value::String("a")}).ok());
  ASSERT_TRUE(b.StageInsert(txn, {Value::Int(1), Value::String("b")}).ok());
  Status s = coordinator.Commit(txn);
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("after global commit"), std::string::npos);
  // Retry completes the transaction; nothing is applied twice.
  EXPECT_TRUE(coordinator.Commit(txn).ok());
  EXPECT_EQ(table_a.live_rows(), 1u);
  EXPECT_EQ(table_b.live_rows(), 1u);
}

TEST(RollbackErrorTest, AbortFailureRidesAlongWithPrimaryError) {
  storage::ColumnTable table_a(TestSchema()), table_b(TestSchema());
  FaultInjector injector;
  ColumnTableParticipant a("A", &table_a, &injector);
  ColumnTableParticipant b("B", &table_b, &injector);
  injector.FailNext("B", FaultOp::kPrepare);
  injector.FailNext("A", FaultOp::kAbort);
  TwoPhaseCoordinator coordinator;
  coordinator.SetFaultInjector(&injector);
  TxnId txn = coordinator.Begin();
  ASSERT_TRUE(coordinator.Enlist(txn, &a).ok());
  ASSERT_TRUE(coordinator.Enlist(txn, &b).ok());
  ASSERT_TRUE(a.StageInsert(txn, {Value::Int(1), Value::String("a")}).ok());
  Status s = coordinator.Commit(txn);
  EXPECT_EQ(s.code(), StatusCode::kTransactionAborted);
  EXPECT_NE(s.message().find("prepare failed at B"), std::string::npos);
  EXPECT_NE(s.message().find("rollback also failed"), std::string::npos)
      << s.message();
}

TEST(ExtendedFaultTest, ConcurrentVoteAcrossMemoryAndDisk) {
  // The cross-store case of Section 3.1 under the fault layer: the
  // extended-store participant hangs, then the in-memory one's vote
  // releases it; both fail-concurrently variants also converge.
  std::string dir = (fs::temp_directory_path() / "hana_txn_fault_ext").string();
  extended::ExtendedStoreOptions options;
  options.directory = dir;
  extended::ExtendedStore store(options);
  auto cold = store.CreateTable("t", TestSchema());
  ASSERT_TRUE(cold.ok());
  storage::ColumnTable hot(TestSchema());

  FaultInjector injector;
  ColumnTableParticipant memory("memory", &hot, &injector);
  ExtendedTableParticipant disk("extended", *cold, &injector);
  injector.Hold("extended", FaultOp::kPrepare, /*release_after_arrivals=*/2);
  TwoPhaseCoordinator coordinator;
  coordinator.SetFaultInjector(&injector);
  TxnId txn = coordinator.Begin();
  ASSERT_TRUE(coordinator.Enlist(txn, &memory).ok());
  ASSERT_TRUE(coordinator.Enlist(txn, &disk).ok());
  ASSERT_TRUE(
      memory.StageInsert(txn, {Value::Int(1), Value::String("hot")}).ok());
  ASSERT_TRUE(
      disk.StageInsert(txn, {Value::Int(1), Value::String("cold")}).ok());
  ASSERT_TRUE(coordinator.Commit(txn).ok());
  EXPECT_EQ(hot.live_rows(), 1u);
  EXPECT_EQ((*cold)->live_rows(), 1u);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// --- SDA participant: a remote source enlisted in 2PC (Section 4.2) ---

/// Minimal adapter stub whose capabilities deny transactional writes,
/// standing in for the loosely coupled Hive source.
class NoTxnAdapter : public federation::Adapter {
 public:
  NoTxnAdapter() { caps_.insert = false; caps_.transactions = false; }
  const std::string& adapter_name() const override { return name_; }
  const federation::Capabilities& capabilities() const override {
    return caps_;
  }
  Result<std::shared_ptr<Schema>> FetchTableSchema(
      const std::string&) override {
    return Status::Unimplemented("stub");
  }
  Result<double> EstimateRows(const std::string&) override {
    return Status::Unimplemented("stub");
  }
  Result<storage::Table> Execute(const federation::RemoteQuerySpec&,
                                 federation::RemoteStats*) override {
    return Status::Unimplemented("stub");
  }
  Status CreateTempTable(const std::string&, std::shared_ptr<Schema>,
                         const storage::Table&) override {
    return Status::Unimplemented("stub");
  }

 private:
  std::string name_ = "hive_like";
  federation::Capabilities caps_;
};

TEST(SdaParticipantTest, RemoteSourceCommitsThroughIqAdapter) {
  std::string dir = (fs::temp_directory_path() / "hana_txn_sda").string();
  extended::ExtendedStoreOptions options;
  options.directory = dir;
  extended::ExtendedStore store(options);
  extended::IqEngine iq(&store);
  SimClock clock;
  federation::IqAdapter adapter(&iq, &clock);

  storage::ColumnTable hot(TestSchema());
  FaultInjector injector;
  ColumnTableParticipant memory("memory", &hot, &injector);
  federation::RemoteSourceParticipant remote("remote_iq", &adapter, "t",
                                             TestSchema(), &injector);
  TwoPhaseCoordinator coordinator;
  coordinator.SetFaultInjector(&injector);

  for (int64_t i = 1; i <= 2; ++i) {
    TxnId txn = coordinator.Begin();
    ASSERT_TRUE(coordinator.Enlist(txn, &memory).ok());
    ASSERT_TRUE(coordinator.Enlist(txn, &remote).ok());
    ASSERT_TRUE(
        memory.StageInsert(txn, {Value::Int(i), Value::String("hot")}).ok());
    ASSERT_TRUE(
        remote.StageInsert(txn, {Value::Int(i), Value::String("cold")}).ok());
    ASSERT_TRUE(coordinator.Commit(txn).ok());
  }
  // Snapshots accumulate across transactions and are queryable remotely.
  EXPECT_EQ(remote.committed_rows(), 2u);
  auto result = iq.ExecuteSql("SELECT id FROM t");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 2u);
  EXPECT_EQ(hot.live_rows(), 2u);

  // A failed remote vote aborts the whole transaction.
  injector.FailNext("remote_iq", FaultOp::kPrepare);
  TxnId txn = coordinator.Begin();
  ASSERT_TRUE(coordinator.Enlist(txn, &memory).ok());
  ASSERT_TRUE(coordinator.Enlist(txn, &remote).ok());
  ASSERT_TRUE(
      memory.StageInsert(txn, {Value::Int(3), Value::String("hot")}).ok());
  ASSERT_TRUE(
      remote.StageInsert(txn, {Value::Int(3), Value::String("cold")}).ok());
  EXPECT_EQ(coordinator.Commit(txn).code(), StatusCode::kTransactionAborted);
  EXPECT_EQ(hot.live_rows(), 2u);
  EXPECT_EQ(remote.committed_rows(), 2u);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(SdaParticipantTest, SourceWithoutTransactionCapabilityVotesAbort) {
  NoTxnAdapter adapter;
  storage::ColumnTable hot(TestSchema());
  ColumnTableParticipant memory("memory", &hot);
  federation::RemoteSourceParticipant remote("remote_hive", &adapter, "t",
                                             TestSchema());
  TwoPhaseCoordinator coordinator;
  TxnId txn = coordinator.Begin();
  ASSERT_TRUE(coordinator.Enlist(txn, &memory).ok());
  ASSERT_TRUE(coordinator.Enlist(txn, &remote).ok());
  ASSERT_TRUE(
      memory.StageInsert(txn, {Value::Int(1), Value::String("hot")}).ok());
  ASSERT_TRUE(
      remote.StageInsert(txn, {Value::Int(1), Value::String("cold")}).ok());
  Status s = coordinator.Commit(txn);
  EXPECT_EQ(s.code(), StatusCode::kTransactionAborted);
  EXPECT_NE(s.message().find("CAP_TRANSACTIONS"), std::string::npos)
      << s.message();
  EXPECT_EQ(hot.live_rows(), 0u);  // The whole transaction rolled back.
}

// ---------------------------------------------------------------------
// MVCC × coordinator crashes: rows written by an unresolved transaction
// must be invisible to every new snapshot until recovery resolves it —
// then flip visible (commit record logged) or stay invisible forever
// (presumed abort).
// ---------------------------------------------------------------------

/// Visible-row count of a fresh snapshot at the manager's last-visible
/// timestamp (what any new reader would see).
size_t SnapshotVisibleRows(const storage::ColumnTable& table) {
  std::shared_ptr<const storage::TableReadSnapshot> snap =
      table.OpenSnapshot();
  size_t visible = 0;
  for (size_t r = 0; r < snap->num_rows(); ++r) visible += snap->IsVisible(r);
  return visible;
}

class MvccInDoubtTest : public ::testing::Test {
 protected:
  MvccInDoubtTest()
      : table_a_(TestSchema()),
        table_b_(TestSchema()),
        a_("A", &table_a_, &injector_),
        b_("B", &table_b_, &injector_) {
    table_a_.SetVersionManager(&vm_);
    table_b_.SetVersionManager(&vm_);
    coordinator_.SetVersionManager(&vm_);
    coordinator_.SetFaultInjector(&injector_);
  }

  TxnId StageOne() {
    TxnId txn = coordinator_.Begin();
    EXPECT_TRUE(coordinator_.Enlist(txn, &a_).ok());
    EXPECT_TRUE(coordinator_.Enlist(txn, &b_).ok());
    EXPECT_TRUE(
        a_.StageInsert(txn, {Value::Int(1), Value::String("a")}).ok());
    EXPECT_TRUE(
        b_.StageInsert(txn, {Value::Int(1), Value::String("b")}).ok());
    return txn;
  }

  void Recover() {
    coordinator_.RegisterRecoveryParticipant(&a_);
    coordinator_.RegisterRecoveryParticipant(&b_);
    ASSERT_TRUE(coordinator_.Recover().ok());
  }

  mvcc::VersionManager vm_;
  storage::ColumnTable table_a_, table_b_;
  FaultInjector injector_;
  ColumnTableParticipant a_, b_;
  TwoPhaseCoordinator coordinator_;
};

TEST_F(MvccInDoubtTest, CrashBetweenPrepareAndCommitHidesRowsUntilAbort) {
  injector_.CrashCoordinatorAt(Failpoint::kAfterPrepare);
  TxnId txn = StageOne();
  EXPECT_FALSE(coordinator_.Commit(txn).ok());

  // Both participants prepared (uncommitted versions installed), but
  // with no commit record the transaction is in-doubt: new snapshots
  // must not see a single row of it.
  EXPECT_EQ(coordinator_.InDoubt(), std::vector<TxnId>{txn});
  EXPECT_EQ(SnapshotVisibleRows(table_a_), 0u);
  EXPECT_EQ(SnapshotVisibleRows(table_b_), 0u);
  EXPECT_EQ(table_a_.num_rows(), 1u);  // The version physically exists.

  // Recovery presumes abort: the rows stay invisible forever.
  Recover();
  EXPECT_TRUE(coordinator_.InDoubt().empty());
  EXPECT_EQ(SnapshotVisibleRows(table_a_), 0u);
  EXPECT_EQ(SnapshotVisibleRows(table_b_), 0u);
  EXPECT_EQ(table_a_.live_rows(), 0u);
  EXPECT_EQ(table_b_.live_rows(), 0u);

  // The timestamp horizon is not wedged: a fresh transaction commits
  // and becomes visible to new snapshots.
  TxnId next = StageOne();
  ASSERT_TRUE(coordinator_.Commit(next).ok());
  EXPECT_EQ(SnapshotVisibleRows(table_a_), 1u);
  EXPECT_EQ(SnapshotVisibleRows(table_b_), 1u);
}

TEST_F(MvccInDoubtTest, CrashAfterCommitRecordHidesRowsUntilRecoveryCommits) {
  injector_.CrashCoordinatorAt(Failpoint::kAfterCommitRecord);
  TxnId txn = StageOne();
  EXPECT_FALSE(coordinator_.Commit(txn).ok());

  // The commit record is durable but phase 2 never ran: the commit
  // timestamp stays unfinished, so LastVisible() holds below it and
  // new snapshots see nothing — not even a torn half of the
  // transaction.
  EXPECT_EQ(SnapshotVisibleRows(table_a_), 0u);
  EXPECT_EQ(SnapshotVisibleRows(table_b_), 0u);
  EXPECT_EQ(table_a_.live_rows(), 0u);

  // Recovery re-drives the logged commit and finishes the timestamp:
  // the whole transaction flips visible atomically.
  Recover();
  EXPECT_EQ(SnapshotVisibleRows(table_a_), 1u);
  EXPECT_EQ(SnapshotVisibleRows(table_b_), 1u);
  EXPECT_EQ(table_a_.live_rows(), 1u);
  EXPECT_EQ(table_b_.live_rows(), 1u);
}

}  // namespace
}  // namespace hana::txn
