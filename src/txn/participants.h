#ifndef HANA_TXN_PARTICIPANTS_H_
#define HANA_TXN_PARTICIPANTS_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/sync.h"
#include "extended/extended_store.h"
#include "storage/column_table.h"
#include "txn/two_phase.h"

namespace hana::txn {

class FaultInjector;

/// Write staging for an in-memory column table. Inserts and deletes are
/// buffered per transaction; Prepare installs them as uncommitted
/// versions (a storage::WriteSet under the transaction's id: delta rows
/// stamped with the writer, delete claims CASed onto the target rows —
/// a claim held by another live writer votes abort: first-claimer-wins
/// write-write conflict detection). Commit only stamps the
/// coordinator's commit timestamp, flipping the whole write set visible
/// atomically with respect to snapshot readers; Abort marks the rows
/// never-visible and releases the claims (Abort of unknown
/// transactions, as happens during presumed-abort recovery, is a
/// no-op). The coordinator must share the table's mvcc::VersionManager:
/// it allocates both the transaction ids (writer ids) and the commit
/// timestamps there.
///
/// Prepare is idempotent: once a transaction is prepared, a repeated
/// Prepare (a Commit retry after a phase-2 infrastructure failure, or
/// the one-phase path re-driving) returns OK without re-validating or
/// consuming armed faults. All state is guarded by mu_ — the
/// coordinator calls participants concurrently from pool workers.
class ColumnTableParticipant : public Participant {
 public:
  ColumnTableParticipant(std::string name, storage::ColumnTable* table,
                         FaultInjector* injector = nullptr)
      : name_(std::move(name)), table_(table), injector_(injector) {}

  const std::string& name() const override { return name_; }

  [[nodiscard]] Status StageInsert(TxnId txn, std::vector<Value> row)
      EXCLUDES(mu_);
  [[nodiscard]] Status StageDelete(TxnId txn, size_t row_index) EXCLUDES(mu_);

  [[nodiscard]] Status Prepare(TxnId txn) override EXCLUDES(mu_);
  [[nodiscard]] Status Commit(TxnId txn, uint64_t commit_id) override
      EXCLUDES(mu_);
  [[nodiscard]] Status Abort(TxnId txn) override EXCLUDES(mu_);

  /// Attaches the fault-injection layer; Prepare/Commit/Abort route
  /// through it at entry. Set before enlisting in concurrent commits.
  void SetFaultInjector(FaultInjector* injector) { injector_ = injector; }

  /// True while `txn` is staged and prepared (vote cast, not resolved).
  bool IsPrepared(TxnId txn) const EXCLUDES(mu_);

 private:
  struct Staged {
    std::vector<std::vector<Value>> inserts;
    std::vector<size_t> deletes;
    bool prepared = false;
    /// Set once the write set is installed as uncommitted versions.
    std::optional<storage::WriteSet> writes;
  };

  /// Installs `s`'s write set as uncommitted versions; on a delete
  /// conflict or a row that fails the table's row check, undoes what
  /// was staged so far and returns the abort vote.
  [[nodiscard]] Status ApplyUncommitted(TxnId txn, Staged& s) REQUIRES(mu_);

  std::string name_;
  storage::ColumnTable* table_;
  FaultInjector* injector_;
  /// Guards staging; held across the version installs and stamps so
  /// concurrent transactions through one participant serialize them. Ordered before the table's storage locks
  /// (kTxnParticipant 40 < storage.state 65) and before the version
  /// manager (45), which the table's commit paths may take. Never held
  /// while calling the injector (which may block on a hold latch).
  mutable Mutex mu_{"txn.participant.column", lock_rank::kTxnParticipant};
  std::map<TxnId, Staged> staged_ GUARDED_BY(mu_);
};

/// Write staging for an extended-storage table. Commit bulk-loads the
/// staged rows into the disk store — the transactional (non-direct)
/// write path of the extended storage. Same idempotence and
/// thread-safety contract as ColumnTableParticipant.
class ExtendedTableParticipant : public Participant {
 public:
  ExtendedTableParticipant(std::string name, extended::ExtendedTable* table,
                           FaultInjector* injector = nullptr)
      : name_(std::move(name)), table_(table), injector_(injector) {}

  const std::string& name() const override { return name_; }

  [[nodiscard]] Status StageInsert(TxnId txn, std::vector<Value> row)
      EXCLUDES(mu_);

  [[nodiscard]] Status Prepare(TxnId txn) override EXCLUDES(mu_);
  [[nodiscard]] Status Commit(TxnId txn, uint64_t commit_id) override
      EXCLUDES(mu_);
  [[nodiscard]] Status Abort(TxnId txn) override EXCLUDES(mu_);

  void SetFaultInjector(FaultInjector* injector) { injector_ = injector; }
  /// Simulates an unavailable extended store: every access errors until
  /// cleared (paper: "every access to a SAP HANA table may throw a
  /// runtime error" while the extended system is down).
  void SetUnavailable(bool value) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    unavailable_ = value;
  }
  bool unavailable() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return unavailable_;
  }

 private:
  struct Staged {
    std::vector<std::vector<Value>> inserts;
    bool prepared = false;
  };

  std::string name_;
  extended::ExtendedTable* table_;
  FaultInjector* injector_;
  /// Same level as the other participant locks: a thread works one
  /// participant at a time, so participant mutexes never nest.
  mutable Mutex mu_{"txn.participant.extended", lock_rank::kTxnParticipant};
  std::map<TxnId, Staged> staged_ GUARDED_BY(mu_);
  bool unavailable_ GUARDED_BY(mu_) = false;
};

}  // namespace hana::txn

#endif  // HANA_TXN_PARTICIPANTS_H_
