#include "txn/participants.h"

#include <algorithm>

#include "txn/fault_injection.h"

namespace hana::txn {

Status ColumnTableParticipant::StageInsert(TxnId txn, std::vector<Value> row) {
  if (row.size() != table_->schema()->num_columns()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  MutexLock lock(mu_);
  staged_[txn].inserts.push_back(std::move(row));
  return Status::OK();
}

Status ColumnTableParticipant::StageDelete(TxnId txn, size_t row_index) {
  if (row_index >= table_->num_rows()) {
    return Status::OutOfRange("row index out of range");
  }
  MutexLock lock(mu_);
  staged_[txn].deletes.push_back(row_index);
  return Status::OK();
}

bool ColumnTableParticipant::IsPrepared(TxnId txn) const {
  MutexLock lock(mu_);
  auto it = staged_.find(txn);
  return it != staged_.end() && it->second.prepared;
}

Status ColumnTableParticipant::Prepare(TxnId txn) {
  {
    // Idempotence: an already-cast vote stands; do not re-validate or
    // consume armed faults on the coordinator's re-drive.
    MutexLock lock(mu_);
    auto it = staged_.find(txn);
    if (it != staged_.end() && it->second.prepared) return Status::OK();
  }
  if (injector_ != nullptr) {
    HANA_RETURN_IF_ERROR(injector_->OnCall(FaultOp::kPrepare, name_, txn));
  }
  MutexLock lock(mu_);
  auto it = staged_.find(txn);
  if (it != staged_.end()) {
    if (!it->second.writes) {
      HANA_RETURN_IF_ERROR(ApplyUncommitted(txn, it->second));
    }
    it->second.prepared = true;
  }
  return Status::OK();
}

Status ColumnTableParticipant::ApplyUncommitted(TxnId txn, Staged& s) {
  // Delete claims first: they are the only conflict-detecting step, so
  // a losing transaction aborts before growing the delta. On a failure,
  // dropping the WriteSet aborts what it staged, leaving no trace.
  // A row staged twice is claimed once (the second claim would be an
  // idempotent re-stage, and its commit would count the delete twice).
  std::sort(s.deletes.begin(), s.deletes.end());
  s.deletes.erase(std::unique(s.deletes.begin(), s.deletes.end()),
                  s.deletes.end());
  storage::WriteSet& writes = s.writes.emplace(txn);
  Status status;
  for (size_t row : s.deletes) {
    status = writes.Delete(table_, row);
    if (!status.ok()) break;
  }
  if (status.ok()) status = writes.Append(table_, s.inserts);
  if (!status.ok()) {
    s.writes.reset();
    return Status(status.code(), name_ + ": " + status.message());
  }
  return Status::OK();
}

Status ColumnTableParticipant::Commit(TxnId txn, uint64_t commit_id) {
  if (injector_ != nullptr) {
    HANA_RETURN_IF_ERROR(injector_->OnCall(FaultOp::kCommit, name_, txn));
  }
  MutexLock lock(mu_);
  auto it = staged_.find(txn);
  if (it == staged_.end()) return Status::OK();  // Nothing staged here.
  if (!it->second.writes) {
    // Roll-forward of a committed transaction that never went through
    // Prepare here (recovery re-drive against fresh staging): install
    // the versions now, then stamp them below.
    HANA_RETURN_IF_ERROR(ApplyUncommitted(txn, it->second));
  }
  // The write set is installed as uncommitted versions; stamping the
  // commit timestamp flips it visible.
  it->second.writes->CommitAt(commit_id);
  staged_.erase(it);
  return Status::OK();
}

Status ColumnTableParticipant::Abort(TxnId txn) {
  if (injector_ != nullptr) {
    HANA_RETURN_IF_ERROR(injector_->OnCall(FaultOp::kAbort, name_, txn));
  }
  MutexLock lock(mu_);
  // Dropping the staging aborts installed versions: inserts become
  // never-visible, claimed deletes revert to live. Unknown transactions
  // are a no-op by design.
  staged_.erase(txn);
  return Status::OK();
}

Status ExtendedTableParticipant::StageInsert(TxnId txn,
                                             std::vector<Value> row) {
  if (row.size() != table_->schema()->num_columns()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  MutexLock lock(mu_);
  if (unavailable_) {
    return Status::Unavailable(name_ + ": extended storage unreachable");
  }
  staged_[txn].inserts.push_back(std::move(row));
  return Status::OK();
}

Status ExtendedTableParticipant::Prepare(TxnId txn) {
  {
    MutexLock lock(mu_);
    auto it = staged_.find(txn);
    if (it != staged_.end() && it->second.prepared) return Status::OK();
  }
  if (injector_ != nullptr) {
    HANA_RETURN_IF_ERROR(injector_->OnCall(FaultOp::kPrepare, name_, txn));
  }
  MutexLock lock(mu_);
  if (unavailable_) {
    return Status::Unavailable(name_ + ": extended storage unreachable");
  }
  auto it = staged_.find(txn);
  if (it != staged_.end()) it->second.prepared = true;
  return Status::OK();
}

Status ExtendedTableParticipant::Commit(TxnId txn, uint64_t commit_id) {
  (void)commit_id;
  if (injector_ != nullptr) {
    HANA_RETURN_IF_ERROR(injector_->OnCall(FaultOp::kCommit, name_, txn));
  }
  MutexLock lock(mu_);
  if (unavailable_) {
    return Status::Unavailable(name_ + ": extended storage unreachable");
  }
  auto it = staged_.find(txn);
  if (it == staged_.end()) return Status::OK();
  HANA_RETURN_IF_ERROR(table_->BulkLoad(it->second.inserts));
  staged_.erase(it);
  return Status::OK();
}

Status ExtendedTableParticipant::Abort(TxnId txn) {
  if (injector_ != nullptr) {
    HANA_RETURN_IF_ERROR(injector_->OnCall(FaultOp::kAbort, name_, txn));
  }
  MutexLock lock(mu_);
  staged_.erase(txn);
  return Status::OK();
}

}  // namespace hana::txn
