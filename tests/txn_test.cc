#include <gtest/gtest.h>

#include <filesystem>

#include "extended/extended_store.h"
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

class TwoPhaseTest : public ::testing::Test {
 protected:
  // The crash cases leave transactions in doubt until Recover(); a
  // private version manager keeps an unrecovered one from freezing
  // Global()'s LastVisible() for the rest of the binary.
  void SetUp() override {
    table_a_ = std::make_unique<storage::ColumnTable>(TestSchema());
    table_b_ = std::make_unique<storage::ColumnTable>(TestSchema());
    table_a_->SetVersionManager(&vm_);
    table_b_->SetVersionManager(&vm_);
    coordinator_.SetVersionManager(&vm_);
    a_ = std::make_unique<ColumnTableParticipant>("A", table_a_.get());
    b_ = std::make_unique<ColumnTableParticipant>("B", table_b_.get());
  }

  TxnId StagePair(int64_t id) {
    TxnId txn = coordinator_.Begin();
    EXPECT_TRUE(coordinator_.Enlist(txn, a_.get()).ok());
    EXPECT_TRUE(coordinator_.Enlist(txn, b_.get()).ok());
    EXPECT_TRUE(
        a_->StageInsert(txn, {Value::Int(id), Value::String("a")}).ok());
    EXPECT_TRUE(
        b_->StageInsert(txn, {Value::Int(id), Value::String("b")}).ok());
    return txn;
  }

  mvcc::VersionManager vm_;
  std::unique_ptr<storage::ColumnTable> table_a_, table_b_;
  std::unique_ptr<ColumnTableParticipant> a_, b_;
  TwoPhaseCoordinator coordinator_;
};

TEST_F(TwoPhaseTest, CommitAppliesAtomically) {
  TxnId txn = StagePair(1);
  EXPECT_EQ(table_a_->live_rows(), 0u);  // Nothing visible pre-commit.
  ASSERT_TRUE(coordinator_.Commit(txn).ok());
  EXPECT_EQ(table_a_->live_rows(), 1u);
  EXPECT_EQ(table_b_->live_rows(), 1u);
  EXPECT_GE(coordinator_.last_commit_id(), 1u);
}

TEST_F(TwoPhaseTest, AbortDropsStaging) {
  TxnId txn = StagePair(1);
  ASSERT_TRUE(coordinator_.Abort(txn).ok());
  EXPECT_EQ(table_a_->live_rows(), 0u);
  EXPECT_EQ(table_b_->live_rows(), 0u);
  EXPECT_FALSE(coordinator_.Commit(txn).ok());  // Txn is gone.
}

TEST_F(TwoPhaseTest, PrepareFailureAbortsEverywhere) {
  TxnId txn = StagePair(1);
  FaultInjector injector;
  b_->SetFaultInjector(&injector);
  injector.FailNext("B", FaultOp::kPrepare);
  Status status = coordinator_.Commit(txn);
  EXPECT_EQ(status.code(), StatusCode::kTransactionAborted);
  EXPECT_EQ(table_a_->live_rows(), 0u);
  EXPECT_EQ(table_b_->live_rows(), 0u);
}

TEST_F(TwoPhaseTest, NotNullViolationFailsPrepare) {
  TxnId txn = coordinator_.Begin();
  ASSERT_TRUE(coordinator_.Enlist(txn, a_.get()).ok());
  ASSERT_TRUE(coordinator_.Enlist(txn, b_.get()).ok());
  ASSERT_TRUE(
      a_->StageInsert(txn, {Value::Null(), Value::String("x")}).ok());
  ASSERT_TRUE(
      b_->StageInsert(txn, {Value::Int(1), Value::String("y")}).ok());
  EXPECT_FALSE(coordinator_.Commit(txn).ok());
  EXPECT_EQ(table_b_->live_rows(), 0u);
}

TEST_F(TwoPhaseTest, CrashAfterPrepareLeavesInDoubt) {
  TxnId txn = StagePair(7);
  coordinator_.SetFailpoint(Failpoint::kAfterPrepare);
  Status status = coordinator_.Commit(txn);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  std::vector<TxnId> in_doubt = coordinator_.InDoubt();
  ASSERT_EQ(in_doubt.size(), 1u);
  EXPECT_EQ(in_doubt[0], txn);
  // Presumed abort during joint recovery.
  coordinator_.RegisterRecoveryParticipant(a_.get());
  coordinator_.RegisterRecoveryParticipant(b_.get());
  ASSERT_TRUE(coordinator_.Recover().ok());
  EXPECT_TRUE(coordinator_.InDoubt().empty());
  EXPECT_EQ(table_a_->live_rows(), 0u);
}

TEST_F(TwoPhaseTest, CrashAfterCommitRecordRollsForward) {
  TxnId txn = StagePair(9);
  coordinator_.SetFailpoint(Failpoint::kAfterCommitRecord);
  Status status = coordinator_.Commit(txn);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(table_a_->live_rows(), 0u);  // Not yet applied.
  EXPECT_TRUE(coordinator_.InDoubt().empty());  // Commit record exists.
  coordinator_.RegisterRecoveryParticipant(a_.get());
  coordinator_.RegisterRecoveryParticipant(b_.get());
  ASSERT_TRUE(coordinator_.Recover().ok());
  EXPECT_EQ(table_a_->live_rows(), 1u);  // Rolled forward.
  EXPECT_EQ(table_b_->live_rows(), 1u);
}

TEST_F(TwoPhaseTest, ManualAbortOfInDoubtTransaction) {
  TxnId txn = StagePair(11);
  coordinator_.SetFailpoint(Failpoint::kAfterPrepare);
  (void)coordinator_.Commit(txn);
  coordinator_.RegisterRecoveryParticipant(a_.get());
  coordinator_.RegisterRecoveryParticipant(b_.get());
  // The paper: clients may manually abort in-doubt transactions.
  ASSERT_TRUE(coordinator_.AbortInDoubt(txn).ok());
  EXPECT_TRUE(coordinator_.InDoubt().empty());
  EXPECT_FALSE(coordinator_.AbortInDoubt(txn).ok());
  EXPECT_EQ(table_a_->live_rows(), 0u);
}

TEST_F(TwoPhaseTest, SinglePartipantSkipsPreparePhase) {
  TxnId txn = coordinator_.Begin();
  ASSERT_TRUE(coordinator_.Enlist(txn, a_.get()).ok());
  ASSERT_TRUE(
      a_->StageInsert(txn, {Value::Int(1), Value::String("x")}).ok());
  ASSERT_TRUE(coordinator_.Commit(txn).ok());
  // No kPrepared record was logged (one-phase optimization).
  for (const LogRecord& rec : coordinator_.log()) {
    EXPECT_NE(rec.kind, LogKind::kPrepared);
  }
  EXPECT_EQ(table_a_->live_rows(), 1u);
}

TEST_F(TwoPhaseTest, CommitIdsAreMonotonic) {
  uint64_t last = 0;
  for (int i = 0; i < 5; ++i) {
    TxnId txn = StagePair(i);
    ASSERT_TRUE(coordinator_.Commit(txn).ok());
    EXPECT_GT(coordinator_.last_commit_id(), last);
    last = coordinator_.last_commit_id();
  }
}

TEST_F(TwoPhaseTest, EnlistUnknownTxnFails) {
  EXPECT_FALSE(coordinator_.Enlist(999, a_.get()).ok());
  EXPECT_FALSE(coordinator_.Commit(999).ok());
  EXPECT_FALSE(coordinator_.Abort(999).ok());
}

TEST_F(TwoPhaseTest, RowStagedForDeleteTwiceIsDeletedOnce) {
  TxnId load = StagePair(1);
  ASSERT_TRUE(coordinator_.Commit(load).ok());
  TxnId txn = coordinator_.Begin();
  ASSERT_TRUE(coordinator_.Enlist(txn, a_.get()).ok());
  ASSERT_TRUE(
      a_->StageInsert(txn, {Value::Int(2), Value::String("a")}).ok());
  ASSERT_TRUE(a_->StageDelete(txn, 0).ok());
  ASSERT_TRUE(a_->StageDelete(txn, 0).ok());
  ASSERT_TRUE(coordinator_.Commit(txn).ok());
  EXPECT_EQ(table_a_->live_rows(), 1u);
  EXPECT_EQ(table_a_->num_rows(), 2u);
  EXPECT_TRUE(table_a_->IsDeleted(0));
}

TEST(ExtendedParticipantTest, CommitAcrossMemoryAndDisk) {
  std::string dir = (fs::temp_directory_path() / "hana_txn_ext").string();
  extended::ExtendedStoreOptions options;
  options.directory = dir;
  extended::ExtendedStore store(options);
  auto cold = store.CreateTable("t", TestSchema());
  ASSERT_TRUE(cold.ok());
  storage::ColumnTable hot(TestSchema());

  ColumnTableParticipant memory("memory", &hot);
  ExtendedTableParticipant disk("extended", *cold);
  TwoPhaseCoordinator coordinator;

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

  // An unavailable extended store fails the whole transaction (paper:
  // "the entire transaction will be aborted").
  txn = coordinator.Begin();
  ASSERT_TRUE(coordinator.Enlist(txn, &memory).ok());
  ASSERT_TRUE(coordinator.Enlist(txn, &disk).ok());
  ASSERT_TRUE(
      memory.StageInsert(txn, {Value::Int(2), Value::String("hot")}).ok());
  ASSERT_TRUE(
      disk.StageInsert(txn, {Value::Int(2), Value::String("cold")}).ok());
  disk.SetUnavailable(true);
  EXPECT_FALSE(coordinator.Commit(txn).ok());
  EXPECT_EQ(hot.live_rows(), 1u);
  disk.SetUnavailable(false);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace hana::txn
