#ifndef HANA_TXN_TWO_PHASE_H_
#define HANA_TXN_TWO_PHASE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/mvcc.h"
#include "common/result.h"
#include "common/sync.h"

namespace hana {
class TaskPool;
}

namespace hana::txn {

using TxnId = uint64_t;

class FaultInjector;

/// A resource manager participating in distributed transactions —
/// implemented by the in-memory table store and the extended storage
/// (Section 3.1 "Transactions"): SAP HANA coordinates the transaction,
/// generating transaction and commit IDs, using an improved two-phase
/// commit protocol [14].
///
/// Concurrency contract: the coordinator fans Prepare/Commit/Abort out
/// over the task pool, so different participants of one transaction are
/// called concurrently. A single participant is called at most once at
/// a time per transaction, but successive calls may come from different
/// threads — implementations synchronize their own state.
class Participant {
 public:
  virtual ~Participant() = default;

  virtual const std::string& name() const = 0;

  /// Phase 1: make the transaction's effects durable-but-undoable.
  /// Returning non-OK votes "abort". Must be idempotent: a second
  /// Prepare of an already-prepared transaction is a no-op returning OK
  /// (the coordinator re-prepares when a client retries Commit after a
  /// phase-2 infrastructure failure).
  [[nodiscard]] virtual Status Prepare(TxnId txn) = 0;
  /// Phase 2 success: apply/expose the effects. Must not fail after a
  /// successful Prepare (any failure is an infrastructure error).
  [[nodiscard]] virtual Status Commit(TxnId txn, uint64_t commit_id) = 0;
  /// Phase 2 failure (or presumed abort during recovery).
  [[nodiscard]] virtual Status Abort(TxnId txn) = 0;
};

/// Coordinator log record kinds.
enum class LogKind { kBegin, kPrepared, kCommit, kAbort, kEnd };

struct LogRecord {
  LogKind kind;
  TxnId txn = 0;
  uint64_t commit_id = 0;
  std::vector<std::string> participants;  // On kPrepared.
};

/// Renders a log as one line per record — the canonical form the
/// deterministic-replay tests compare across runs.
std::string LogToString(const std::vector<LogRecord>& log);

/// Failure-injection points for tests and the 2PC ablation benchmark.
enum class Failpoint {
  kNone,
  kBeforePrepare,
  kAfterPrepare,   // Crash after all participants prepared, before the
                   // commit record: transactions become in-doubt.
  kAfterCommitRecord,
};

/// Coordinator tuning knobs.
struct TwoPhaseOptions {
  /// Fan participant Prepare/Commit/Abort calls out over the task pool
  /// (votes are collected concurrently; commit latency is the slowest
  /// participant instead of the sum). Off = the sequential protocol,
  /// kept for the bench_2pc ablation.
  bool parallel_vote = true;
  /// Pool for the fan-out; nullptr = TaskPool::Global().
  TaskPool* pool = nullptr;
};

/// The distributed transaction coordinator. Keeps a (in-memory,
/// replayable) write-ahead log; Recover() resolves in-doubt transactions
/// jointly with all registered participants — mirroring the paper's
/// integrated recovery of HANA + extended storage.
///
/// Thread-safety: all public methods are safe to call concurrently;
/// coordinator state (log, active set, id counters) is guarded by mu_.
/// Participant calls always happen with mu_ released, fanned out over
/// the task pool when parallel_vote is on. Votes are aggregated in
/// enlist order — the first failure *in participant order* (not
/// completion order) becomes the primary error — so the outcome, the
/// log and the in-doubt set are deterministic for a given fault
/// schedule regardless of thread interleaving.
class TwoPhaseCoordinator {
 public:
  TwoPhaseCoordinator() = default;
  explicit TwoPhaseCoordinator(TwoPhaseOptions options)
      : options_(options) {}

  TxnId Begin() EXCLUDES(mu_);

  /// Enlists a participant in `txn` (idempotent).
  [[nodiscard]] Status Enlist(TxnId txn, Participant* participant)
      EXCLUDES(mu_);

  /// Runs the full two-phase protocol. Votes are collected concurrently;
  /// on any prepare failure the transaction aborts everywhere (late
  /// voters are still awaited and rolled back) and the error is
  /// returned, naming every failed voter in enlist order.
  [[nodiscard]] Status Commit(TxnId txn) EXCLUDES(mu_);

  [[nodiscard]] Status Abort(TxnId txn) EXCLUDES(mu_);

  /// Simulates a coordinator crash: volatile state is dropped; only the
  /// log survives. Prepared-but-unresolved transactions become in-doubt.
  void Crash() EXCLUDES(mu_);

  /// Replays the log: commits transactions with a commit record, aborts
  /// (presumed abort) the rest. Participants must be re-registered via
  /// RegisterRecoveryParticipant before calling.
  [[nodiscard]] Status Recover() EXCLUDES(mu_);

  void RegisterRecoveryParticipant(Participant* participant) EXCLUDES(mu_);

  /// Transactions prepared but neither committed nor aborted (visible
  /// after Crash(), before Recover()). Clients may manually abort them.
  std::vector<TxnId> InDoubt() const EXCLUDES(mu_);

  /// Manually aborts an in-doubt transaction (paper: "Clients will have
  /// the ability to manually abort these in-doubt transactions").
  [[nodiscard]] Status AbortInDoubt(TxnId txn) EXCLUDES(mu_);

  void SetFailpoint(Failpoint fp) EXCLUDES(mu_);

  /// Attaches a fault-injection layer; the coordinator consults it at
  /// every failpoint (participants hook it separately). Set before the
  /// first Commit and keep alive for the coordinator's lifetime.
  void SetFaultInjector(FaultInjector* injector) EXCLUDES(mu_);

  /// The version manager (default mvcc::VersionManager::Global(), as
  /// for tables) that Begin() draws transaction ids from (NewWriterId)
  /// and commit timestamps come from (AllocateCommit at the commit
  /// record, FinishCommit once every participant has stamped its write
  /// set — readers never observe a half-stamped transaction). It must
  /// be the participants' tables' manager; tests wire their own before
  /// the first Begin. Survives Crash(): the version manager models the
  /// recoverable timestamp authority, not coordinator volatile state.
  void SetVersionManager(mvcc::VersionManager* vm) EXCLUDES(mu_);

  /// Snapshot of the write-ahead log (by value: commits on other
  /// threads may be appending concurrently).
  std::vector<LogRecord> log() const EXCLUDES(mu_);
  uint64_t last_commit_id() const EXCLUDES(mu_);

 private:
  struct ActiveTxn {
    std::vector<Participant*> participants;
  };

  /// Runs fn over every participant — concurrently over the task pool
  /// when parallel_vote is on (the calling thread participates and
  /// helps drain the pool queue while awaiting stragglers, so a
  /// saturated pool cannot deadlock the vote) — and returns the
  /// statuses indexed in participant order. Always awaits every call.
  std::vector<Status> FanOut(
      const std::vector<Participant*>& parts,
      const std::function<Status(Participant*)>& fn) EXCLUDES(mu_);

  /// Fans out Abort, appends the abort record and drops the txn.
  /// Returns the first rollback failure (participant order), with any
  /// additional failures folded into its message.
  [[nodiscard]] Status AbortEverywhere(
      TxnId txn, const std::vector<Participant*>& parts) EXCLUDES(mu_);

  /// True when a crash is due at `fp` — via SetFailpoint or the
  /// attached fault injector.
  bool CrashDueAt(Failpoint fp) REQUIRES(mu_);
  void CrashLocked() REQUIRES(mu_);

  Participant* FindRecoveryParticipant(const std::string& name) const
      REQUIRES(mu_);
  std::vector<TxnId> InDoubtLocked() const REQUIRES(mu_);

  TwoPhaseOptions options_;

  /// Guards all coordinator state. Never held across participant calls
  /// or task-pool submission/waits (fan-out copies what it needs out
  /// first), so it cannot order against participant or pool mutexes;
  /// the version manager and the injector are called under it (rank
  /// 30 < 45 < 70).
  mutable Mutex mu_{"txn.coordinator", lock_rank::kTxnCoordinator};
  uint64_t last_commit_id_ GUARDED_BY(mu_) = 0;
  std::map<TxnId, ActiveTxn> active_ GUARDED_BY(mu_);
  std::vector<LogRecord> log_ GUARDED_BY(mu_);
  std::vector<Participant*> recovery_participants_ GUARDED_BY(mu_);
  Failpoint failpoint_ GUARDED_BY(mu_) = Failpoint::kNone;
  FaultInjector* injector_ GUARDED_BY(mu_) = nullptr;
  mvcc::VersionManager* vm_ GUARDED_BY(mu_) =
      &mvcc::VersionManager::Global();
};

}  // namespace hana::txn

#endif  // HANA_TXN_TWO_PHASE_H_
