#include "txn/two_phase.h"

#include <algorithm>
#include <chrono>
#include <future>

#include "common/task_pool.h"
#include "txn/fault_injection.h"

namespace hana::txn {

namespace {

const char* LogKindName(LogKind kind) {
  switch (kind) {
    case LogKind::kBegin:
      return "BEGIN";
    case LogKind::kPrepared:
      return "PREPARED";
    case LogKind::kCommit:
      return "COMMIT";
    case LogKind::kAbort:
      return "ABORT";
    case LogKind::kEnd:
      return "END";
  }
  return "?";
}

}  // namespace

std::string LogToString(const std::vector<LogRecord>& log) {
  std::string out;
  for (const LogRecord& rec : log) {
    out += LogKindName(rec.kind);
    out += " txn=" + std::to_string(rec.txn);
    if (rec.commit_id != 0) out += " cid=" + std::to_string(rec.commit_id);
    for (const std::string& name : rec.participants) out += " " + name;
    out += '\n';
  }
  return out;
}

TxnId TwoPhaseCoordinator::Begin() {
  MutexLock lock(mu_);
  TxnId txn = vm_->NewWriterId();
  active_[txn] = ActiveTxn{};
  log_.push_back({LogKind::kBegin, txn, 0, {}});
  return txn;
}

Status TwoPhaseCoordinator::Enlist(TxnId txn, Participant* participant) {
  MutexLock lock(mu_);
  auto it = active_.find(txn);
  if (it == active_.end()) {
    return Status::NotFound("unknown transaction " + std::to_string(txn));
  }
  auto& parts = it->second.participants;
  if (std::find(parts.begin(), parts.end(), participant) == parts.end()) {
    parts.push_back(participant);
  }
  return Status::OK();
}

std::vector<Status> TwoPhaseCoordinator::FanOut(
    const std::vector<Participant*>& parts,
    const std::function<Status(Participant*)>& fn) {
  size_t n = parts.size();
  std::vector<Status> results(n);
  if (n == 0) return results;
  if (!options_.parallel_vote || n == 1) {
    for (size_t i = 0; i < n; ++i) results[i] = fn(parts[i]);
    return results;
  }
  TaskPool* pool = options_.pool != nullptr ? options_.pool
                                            : &TaskPool::Global();
  // One task per participant beyond the first; the caller votes
  // participant 0 itself, then helps drain the pool queue while
  // awaiting stragglers (late voters are always awaited — a vote that
  // arrives after a failure still completes and is rolled back by the
  // caller). Results land in participant slots, so aggregation order is
  // enlist order, independent of completion order.
  std::vector<std::future<void>> futures;
  futures.reserve(n - 1);
  for (size_t i = 1; i < n; ++i) {
    futures.push_back(
        pool->Submit([&results, &fn, &parts, i] { results[i] = fn(parts[i]); }));
  }
  results[0] = fn(parts[0]);
  for (auto& f : futures) {
    while (f.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      if (!pool->TryRunOneTask()) {
        f.wait_for(std::chrono::milliseconds(1));
      }
    }
  }
  return results;
}

Status TwoPhaseCoordinator::AbortEverywhere(
    TxnId txn, const std::vector<Participant*>& parts) {
  std::vector<Status> results =
      FanOut(parts, [txn](Participant* p) { return p->Abort(txn); });
  Status first_error;
  for (size_t i = 0; i < results.size(); ++i) {
    if (results[i].ok()) continue;
    if (first_error.ok()) {
      first_error = Status(results[i].code(), parts[i]->name() + ": " +
                                                  results[i].message());
    } else {
      first_error = Status(first_error.code(),
                           first_error.message() + "; abort also failed at " +
                               parts[i]->name() + ": " + results[i].message());
    }
  }
  MutexLock lock(mu_);
  log_.push_back({LogKind::kAbort, txn, 0, {}});
  active_.erase(txn);
  return first_error;
}

bool TwoPhaseCoordinator::CrashDueAt(Failpoint fp) {
  if (failpoint_ == fp) return true;
  // Lock order: mu_ -> FaultInjector::mu_ (the injector never calls
  // back into the coordinator, so the reverse order cannot occur).
  return injector_ != nullptr && injector_->ConsumeCoordinatorCrash(fp);
}

Status TwoPhaseCoordinator::Commit(TxnId txn) {
  std::vector<Participant*> parts;
  mvcc::VersionManager* vm;
  {
    MutexLock lock(mu_);
    auto it = active_.find(txn);
    if (it == active_.end()) {
      return Status::NotFound("unknown transaction " + std::to_string(txn));
    }
    parts = it->second.participants;
    vm = vm_;
    if (CrashDueAt(Failpoint::kBeforePrepare)) {
      CrashLocked();
      return Status::Unavailable("coordinator crashed before prepare");
    }
  }

  // Phase 1: prepare everywhere, votes collected concurrently. An
  // optimization from the improved protocol [14]: a single-participant
  // transaction commits in one phase (no vote round, no prepare record).
  bool single = parts.size() <= 1;
  if (!single) {
    std::vector<Status> votes =
        FanOut(parts, [txn](Participant* p) { return p->Prepare(txn); });
    std::string failures;
    for (size_t i = 0; i < votes.size(); ++i) {
      if (votes[i].ok()) continue;
      if (failures.empty()) {
        failures = "prepare failed at " + parts[i]->name() + ": " +
                   votes[i].message();
      } else {
        failures += "; also failed at " + parts[i]->name() + ": " +
                    votes[i].message();
      }
    }
    if (!failures.empty()) {
      // Every voter (including late ones) has been awaited above; roll
      // all of them back. A failed rollback must not be swallowed
      // either, so it rides along in the message (PR 2 convention).
      Status abort_status = AbortEverywhere(txn, parts);
      if (!abort_status.ok()) {
        failures += "; rollback also failed: " + abort_status.message();
      }
      return Status::TransactionAborted(std::move(failures));
    }
    std::vector<std::string> names;
    names.reserve(parts.size());
    for (Participant* p : parts) names.push_back(p->name());
    MutexLock lock(mu_);
    log_.push_back({LogKind::kPrepared, txn, 0, std::move(names)});
  }

  {
    MutexLock lock(mu_);
    if (CrashDueAt(Failpoint::kAfterPrepare)) {
      CrashLocked();
      return Status::Unavailable(
          "coordinator crashed after prepare; transaction in doubt");
    }
  }

  uint64_t commit_id;
  if (single) {
    // One-phase path: the participant's own prepare+commit is the
    // commit decision, so the commit record is written only after it
    // succeeded — a failure leaves a clean presumed-abort log instead
    // of a commit record contradicted by a later abort record.
    {
      MutexLock lock(mu_);
      commit_id = last_commit_id_ = vm_->AllocateCommit();
    }
    if (!parts.empty()) {
      Participant* p = parts[0];
      Status s = p->Prepare(txn);
      if (s.ok()) s = p->Commit(txn, commit_id);
      if (!s.ok()) {
        Status abort_status = AbortEverywhere(txn, parts);
        std::string detail =
            "commit failed at " + p->name() + ": " + s.message();
        if (!abort_status.ok()) {
          detail += "; rollback also failed: " + abort_status.message();
        }
        // The allocated timestamp was never stamped onto any row (the
        // abort reverted the write set); retire it so the visibility
        // frontier moves past the gap.
        vm->FinishCommit(commit_id);
        return Status::TransactionAborted(std::move(detail));
      }
    }
    MutexLock lock(mu_);
    log_.push_back({LogKind::kCommit, txn, commit_id, {}});
    if (CrashDueAt(Failpoint::kAfterCommitRecord)) {
      // The timestamp stays in-flight: the participant has stamped its
      // rows, but they remain invisible to new snapshots until
      // recovery resolves the transaction and finishes the commit.
      CrashLocked();
      return Status::Unavailable(
          "coordinator crashed after commit record; recovery will finish");
    }
    log_.push_back({LogKind::kEnd, txn, commit_id, {}});
    active_.erase(txn);
    vm_->FinishCommit(commit_id);
    return Status::OK();
  }

  {
    MutexLock lock(mu_);
    commit_id = last_commit_id_ = vm_->AllocateCommit();
    log_.push_back({LogKind::kCommit, txn, commit_id, {}});
    if (CrashDueAt(Failpoint::kAfterCommitRecord)) {
      // In-flight timestamp survives the crash: no participant has
      // stamped yet, so nothing from this transaction is visible until
      // Recover() re-drives phase 2 and finishes the commit.
      CrashLocked();
      return Status::Unavailable(
          "coordinator crashed after commit record; recovery will finish");
    }
  }

  // Phase 2: apply everywhere, fanned out like the vote round. The
  // global decision is already durable; participant failures here are
  // infrastructure errors. The transaction stays active (no end record)
  // so a Commit retry — or recovery — finishes the stragglers; Prepare
  // idempotence makes that retry safe.
  std::vector<Status> results = FanOut(
      parts, [txn, commit_id](Participant* p) {
        return p->Commit(txn, commit_id);
      });
  std::string failures;
  for (size_t i = 0; i < results.size(); ++i) {
    if (results[i].ok()) continue;
    if (failures.empty()) {
      failures = "participant " + parts[i]->name() +
                 " failed after global commit: " + results[i].message();
    } else {
      failures += "; also " + parts[i]->name() + ": " + results[i].message();
    }
  }
  if (!failures.empty()) {
    // The decision is durable and every participant that did apply has
    // stamped a complete per-table write set, so the timestamp can
    // retire; stragglers are re-driven by a Commit retry or recovery
    // (each attempt allocates its own timestamp).
    vm->FinishCommit(commit_id);
    return Status::Internal(std::move(failures));
  }
  MutexLock lock(mu_);
  log_.push_back({LogKind::kEnd, txn, commit_id, {}});
  active_.erase(txn);
  vm_->FinishCommit(commit_id);
  return Status::OK();
}

Status TwoPhaseCoordinator::Abort(TxnId txn) {
  std::vector<Participant*> parts;
  {
    MutexLock lock(mu_);
    auto it = active_.find(txn);
    if (it == active_.end()) {
      return Status::NotFound("unknown transaction " + std::to_string(txn));
    }
    parts = it->second.participants;
  }
  return AbortEverywhere(txn, parts);
}

void TwoPhaseCoordinator::Crash() {
  MutexLock lock(mu_);
  CrashLocked();
}

void TwoPhaseCoordinator::CrashLocked() {
  active_.clear();
  recovery_participants_.clear();
  failpoint_ = Failpoint::kNone;
}

void TwoPhaseCoordinator::SetFailpoint(Failpoint fp) {
  MutexLock lock(mu_);
  failpoint_ = fp;
}

void TwoPhaseCoordinator::SetFaultInjector(FaultInjector* injector) {
  MutexLock lock(mu_);
  injector_ = injector;
}

void TwoPhaseCoordinator::SetVersionManager(mvcc::VersionManager* vm) {
  MutexLock lock(mu_);
  vm_ = vm;
}

void TwoPhaseCoordinator::RegisterRecoveryParticipant(
    Participant* participant) {
  MutexLock lock(mu_);
  recovery_participants_.push_back(participant);
}

Participant* TwoPhaseCoordinator::FindRecoveryParticipant(
    const std::string& name) const {
  for (Participant* p : recovery_participants_) {
    if (p->name() == name) return p;
  }
  return nullptr;
}

std::vector<TxnId> TwoPhaseCoordinator::InDoubtLocked() const {
  std::set<TxnId> prepared;
  std::set<TxnId> resolved;
  for (const LogRecord& rec : log_) {
    switch (rec.kind) {
      case LogKind::kPrepared:
        prepared.insert(rec.txn);
        break;
      case LogKind::kCommit:
      case LogKind::kAbort:
        resolved.insert(rec.txn);
        break;
      default:
        break;
    }
  }
  std::vector<TxnId> in_doubt;
  for (TxnId txn : prepared) {
    if (resolved.count(txn) == 0) in_doubt.push_back(txn);
  }
  return in_doubt;
}

std::vector<TxnId> TwoPhaseCoordinator::InDoubt() const {
  MutexLock lock(mu_);
  return InDoubtLocked();
}

std::vector<LogRecord> TwoPhaseCoordinator::log() const {
  MutexLock lock(mu_);
  return log_;
}

uint64_t TwoPhaseCoordinator::last_commit_id() const {
  MutexLock lock(mu_);
  return last_commit_id_;
}

Status TwoPhaseCoordinator::AbortInDoubt(TxnId txn) {
  std::vector<Participant*> parts;
  {
    MutexLock lock(mu_);
    std::vector<TxnId> in_doubt = InDoubtLocked();
    if (std::find(in_doubt.begin(), in_doubt.end(), txn) == in_doubt.end()) {
      return Status::NotFound("transaction not in doubt: " +
                              std::to_string(txn));
    }
    // Find its participants from the prepare record.
    for (const LogRecord& rec : log_) {
      if (rec.kind == LogKind::kPrepared && rec.txn == txn) {
        for (const std::string& name : rec.participants) {
          if (Participant* p = FindRecoveryParticipant(name)) {
            parts.push_back(p);
          }
        }
      }
    }
  }
  for (Participant* p : parts) {
    HANA_RETURN_IF_ERROR(p->Abort(txn));
  }
  MutexLock lock(mu_);
  log_.push_back({LogKind::kAbort, txn, 0, {}});
  return Status::OK();
}

Status TwoPhaseCoordinator::Recover() {
  // Presumed abort: transactions with a commit record roll forward;
  // everything else (including in-doubt) rolls back on every
  // participant. Recovery is sequential and iterates transactions in
  // id order — joint recovery is a rare administrative path and a
  // deterministic log matters more than its latency.
  std::map<TxnId, uint64_t> committed;
  std::set<TxnId> ended;
  std::map<TxnId, std::vector<std::string>> prepared;
  std::set<TxnId> seen;
  {
    MutexLock lock(mu_);
    for (const LogRecord& rec : log_) {
      seen.insert(rec.txn);
      switch (rec.kind) {
        case LogKind::kCommit:
          committed[rec.txn] = rec.commit_id;
          break;
        case LogKind::kEnd:
          ended.insert(rec.txn);
          break;
        case LogKind::kPrepared:
          prepared[rec.txn] = rec.participants;
          break;
        default:
          break;
      }
    }
  }
  for (TxnId txn : seen) {
    if (ended.count(txn) > 0) continue;  // Fully finished.
    auto commit_it = committed.find(txn);
    auto prep_it = prepared.find(txn);
    std::vector<Participant*> parts;
    {
      MutexLock lock(mu_);
      if (prep_it != prepared.end()) {
        for (const std::string& name : prep_it->second) {
          if (Participant* p = FindRecoveryParticipant(name)) {
            parts.push_back(p);
          }
        }
      } else {
        parts = recovery_participants_;
      }
    }
    if (commit_it != committed.end()) {
      for (Participant* p : parts) {
        HANA_RETURN_IF_ERROR(p->Commit(txn, commit_it->second));
      }
      MutexLock lock(mu_);
      log_.push_back({LogKind::kEnd, txn, commit_it->second, {}});
      // Resolve the in-doubt window: every participant has now stamped
      // (or re-stamped) the logged timestamp, so it becomes visible.
      // Idempotent for already-finished commits.
      vm_->FinishCommit(commit_it->second);
    } else {
      for (Participant* p : parts) {
        HANA_RETURN_IF_ERROR(p->Abort(txn));
      }
      MutexLock lock(mu_);
      log_.push_back({LogKind::kAbort, txn, 0, {}});
      log_.push_back({LogKind::kEnd, txn, 0, {}});
    }
  }
  return Status::OK();
}

}  // namespace hana::txn
