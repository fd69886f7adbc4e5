#ifndef HANA_FEDERATION_SDA_H_
#define HANA_FEDERATION_SDA_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"
#include "exec/operators.h"
#include "federation/adapter.h"
#include "plan/logical.h"

namespace hana::federation {

/// Aggregated remote statistics for one HANA statement.
struct StatementRemoteStats {
  double remote_ms = 0.0;
  size_t remote_calls = 0;
  size_t mapreduce_jobs = 0;
  size_t rows_fetched = 0;
  bool any_cache_hit = false;
  bool any_materialization = false;
  void Reset() { *this = StatementRemoteStats(); }
};

/// The Smart Data Access runtime: the registry binding remote-source
/// names to adapters, plus the execution entry point the HANA executor
/// calls for shipped subplans. It splices semijoin IN-lists into the
/// /*PUSHDOWN*/ marker and uploads relocated tables before execution.
class SdaRuntime {
 public:
  SdaRuntime() = default;

  /// Binds a remote source name (from CREATE REMOTE SOURCE) to an
  /// adapter instance. Takes ownership.
  [[nodiscard]] Status BindSource(const std::string& source_name,
                                  std::unique_ptr<Adapter> adapter)
      EXCLUDES(registry_mu_);

  [[nodiscard]] Result<Adapter*> AdapterFor(const std::string& source_name)
      const EXCLUDES(registry_mu_);
  bool HasSource(const std::string& source_name) const EXCLUDES(registry_mu_);

  /// Executes a kRemoteQuery logical node.
  [[nodiscard]] Result<storage::Table> ExecuteRemoteQuery(
      const plan::LogicalOp& rq, const exec::PushdownInList* in_list,
      const storage::Table* relocated_rows) EXCLUDES(dispatch_mu_);

  /// Runs a virtual (map-reduce) function at its source.
  [[nodiscard]] Result<storage::Table> ExecuteVirtualFunction(
      const std::string& source, const std::string& configuration)
      EXCLUDES(dispatch_mu_);

  /// Snapshot of the statement's remote statistics. Returned by value:
  /// the live struct is guarded by the dispatch mutex, so handing out a
  /// reference would invite unsynchronized reads during dispatch.
  StatementRemoteStats stats() const EXCLUDES(dispatch_mu_);
  void ResetStats() EXCLUDES(dispatch_mu_);

  /// Injects the virtual-time probes used to account concurrent
  /// dispatch regions: `now` returns the statement's total virtual
  /// time, `credit` advances it — negative values refund time.
  void SetVirtualTime(std::function<double()> now,
                      std::function<void(double)> credit)
      EXCLUDES(dispatch_mu_);

  /// Brackets a region whose remote dispatches are issued concurrently
  /// (Union Plan branches). Adapter calls stay serialized on the
  /// dispatch mutex — the simulated engines mutate shared caches — but
  /// on region end the elapsed virtual time is re-accounted from the
  /// sum of the branch latencies down to their max, as if the branches
  /// had truly overlapped. Regions nest; only the outermost refunds.
  void BeginConcurrentRegion() EXCLUDES(dispatch_mu_);
  void EndConcurrentRegion() EXCLUDES(dispatch_mu_);

  /// Serializes direct engine access that bypasses the adapter path
  /// (the platform scans extended-store tables in-process). Callers
  /// must hold this around such access when queries run in parallel.
  Mutex& dispatch_mutex() RETURN_CAPABILITY(dispatch_mu_) {
    return dispatch_mu_;
  }

  /// RAII guard for direct engine access: holds the dispatch mutex for
  /// its lifetime and, inside a concurrent region, records the access's
  /// virtual-time delta as one branch so it participates in the
  /// max-of-latencies re-accounting like adapter dispatches do.
  ///
  /// The analysis cannot model a capability acquired through a member
  /// lock of a *different* object (lock_ guards sda_->dispatch_mu_), so
  /// both special members opt out explicitly; the capability is held
  /// for the guard's whole lifetime by construction.
  class TrackedDispatch {
   public:
    explicit TrackedDispatch(SdaRuntime* sda) NO_THREAD_SAFETY_ANALYSIS
        : sda_(sda), lock_(sda->dispatch_mu_),
          before_(sda->virtual_now_ ? sda->virtual_now_() : 0.0) {}
    ~TrackedDispatch() NO_THREAD_SAFETY_ANALYSIS {
      if (sda_->virtual_now_) {
        sda_->RecordBranch(sda_->virtual_now_() - before_);
      }
    }
    TrackedDispatch(const TrackedDispatch&) = delete;
    TrackedDispatch& operator=(const TrackedDispatch&) = delete;

   private:
    SdaRuntime* sda_;
    MutexLock lock_;
    double before_;
  };

  /// Renders a Value as a SQL literal for IN-list splicing.
  static std::string SqlLiteral(const Value& v);

 private:
  /// Records one dispatched branch's virtual-time delta when inside a
  /// concurrent region.
  void RecordBranch(double delta) REQUIRES(dispatch_mu_);

  /// Looks up an adapter with registry_mu_ already held; shared by
  /// AdapterFor and the dispatch paths (which hold dispatch_mu_ and
  /// must respect the dispatch-before-registry lock order).
  Result<Adapter*> AdapterForLocked(const std::string& source_name) const
      REQUIRES(registry_mu_);

  /// Lock order: dispatch_mu_ may be held when registry_mu_ is
  /// acquired (dispatch paths resolve adapters), never the reverse.
  /// A cold scan under dispatch_mu_ submits its row-group read-ahead to
  /// the task pool under extended.store, taking TaskPool::mu_ (rank
  /// 50 -> 52 -> 90, allowed); those tasks take no lock, and the scan
  /// only ever waits for one that is already running, never runs queued
  /// tasks itself (no TryRunOneTask), so it cannot steal a branch that
  /// re-locks dispatch_mu_.
  mutable Mutex registry_mu_ ACQUIRED_AFTER(dispatch_mu_){
      "sda.registry", lock_rank::kSdaRegistry};
  std::map<std::string, std::unique_ptr<Adapter>> adapters_
      GUARDED_BY(registry_mu_);

  mutable Mutex dispatch_mu_{"sda.dispatch", lock_rank::kSdaDispatch};
  StatementRemoteStats stats_ GUARDED_BY(dispatch_mu_);
  std::function<double()> virtual_now_ GUARDED_BY(dispatch_mu_);
  std::function<void(double)> credit_ GUARDED_BY(dispatch_mu_);
  int region_depth_ GUARDED_BY(dispatch_mu_) = 0;
  std::vector<double> branch_deltas_ GUARDED_BY(dispatch_mu_);
};

}  // namespace hana::federation

#endif  // HANA_FEDERATION_SDA_H_
