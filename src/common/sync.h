#ifndef HANA_COMMON_SYNC_H_
#define HANA_COMMON_SYNC_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>

#if defined(__SANITIZE_THREAD__)
#define HANA_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HANA_TSAN 1
#endif
#endif
#ifdef HANA_TSAN
#include <sanitizer/tsan_interface.h>
#endif

/// Thread-safety annotations for Clang's -Wthread-safety static
/// analysis (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html).
/// Under Clang with HANA_LINT=ON the build promotes violations to
/// errors (-Werror=thread-safety), turning lock-discipline mistakes —
/// touching a GUARDED_BY member without its mutex, double-locking,
/// leaking a lock out of scope — into compile failures. On other
/// compilers every macro expands to nothing, so the annotated code
/// stays portable.
#if defined(__clang__) && !defined(SWIG)
#define HANA_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define HANA_THREAD_ANNOTATION_(x)  // no-op outside Clang
#endif

#define CAPABILITY(x) HANA_THREAD_ANNOTATION_(capability(x))
#define SCOPED_CAPABILITY HANA_THREAD_ANNOTATION_(scoped_lockable)
#define GUARDED_BY(x) HANA_THREAD_ANNOTATION_(guarded_by(x))
#define PT_GUARDED_BY(x) HANA_THREAD_ANNOTATION_(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) HANA_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) HANA_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))
#define REQUIRES(...) HANA_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define ACQUIRE(...) HANA_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define RELEASE(...) HANA_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) HANA_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) HANA_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define RETURN_CAPABILITY(x) HANA_THREAD_ANNOTATION_(lock_returned(x))
#define ASSERT_CAPABILITY(x) HANA_THREAD_ANNOTATION_(assert_capability(x))
#define NO_THREAD_SAFETY_ANALYSIS HANA_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace hana {

/// The DESIGN.md lock map made executable: every long-lived mutex in
/// the platform registers one of these ranks, and the runtime
/// lock-order validator (below) enforces that a thread only ever
/// acquires locks of strictly increasing rank. Lower rank = acquired
/// first. Keep this table and the DESIGN.md "Lock map" section in sync;
/// the table is the source of truth.
namespace lock_rank {
// catalog.map — Catalog::mu_: name→table map structure. Outermost:
// catalog lookups happen before any engine lock is taken.
inline constexpr int kCatalog = 10;
// esp.engine — esp::Engine::mu_: streams, queries, window state.
inline constexpr int kEspEngine = 20;
// graph.engine — graph::GraphEngine::mu_: adjacency + CSR cache.
inline constexpr int kGraphEngine = 20;
// timeseries.series — timeseries::SeriesTable mu: slot buffers and the
// sealed representation. Same level as the other engine locks: no two
// engine-level locks are ever held together (Correlation/Resample copy
// out under one lock before touching the other series).
inline constexpr int kSeriesTable = 20;
// txn.coordinator — txn::TwoPhaseCoordinator::mu_: txn table + log.
inline constexpr int kTxnCoordinator = 30;
// executor.schedule — exec PipelineExecutor::mu_: pipeline DAG state.
inline constexpr int kExecutorSchedule = 40;
// txn.participant.* — participant staging maps; held across the
// participant's local apply (storage append, adapter ship).
inline constexpr int kTxnParticipant = 40;
// mvcc.version — mvcc::VersionManager::mu_: commit-timestamp allocator,
// in-flight commit set and active-snapshot registry. Taken from the
// coordinator's commit path (under txn.coordinator) and from the
// participant's apply path (under txn.participant.*), and itself before
// any storage lock: snapshot opens resolve the read timestamp and merge
// reads the watermark before touching storage.merge / storage.state.
inline constexpr int kMvccVersion = 45;
// sda.dispatch — federation::SdaRuntime::dispatch_mu_: statement stats
// + virtual-clock hooks. Held across a whole remote dispatch, including
// the IQ engine's execution of shipped SQL. That executor stays inline
// (no pool): a nested executor would take executor.schedule (40), and a
// ParallelFor drain could steal a sibling branch that re-locks this
// mutex. Its cold scans do submit row-group read-ahead tasks (taking
// pool.queue, 90); the tasks only read and decode, taking no lock.
inline constexpr int kSdaDispatch = 50;
// extended.append — extended::ExtendedTable::append_mu_: one bulk load
// of a table at a time, held across its file writes and then over
// extended.store while the written row groups are published.
inline constexpr int kExtendedAppend = 51;
// extended.store — extended::ExtendedStore::mu_: tables, row groups,
// tombstones, buffer cache, metrics. Taken under sda.dispatch by cold
// scans, under extended.append by cold loads, alone by cold deletes; it
// queues read-ahead (pool.queue) but is never held across a scan's sink
// call, a wait on a read-ahead slot, a file read or write, or a
// WriteSet commit.
inline constexpr int kExtendedStore = 52;
// sda.registry — federation::SdaRuntime::registry_mu_: adapter map;
// ACQUIRED_AFTER(dispatch_mu_).
inline constexpr int kSdaRegistry = 55;
// platform.snapshot_cache — platform::Platform snapshot_cache_mu_: the
// statement-scoped TableReadSnapshot reuse map. Pure map lookups; never
// held while opening a snapshot (which would take mvcc.version and
// storage.state, both ranked around it).
inline constexpr int kPlatformSnapshot = 58;
// storage.merge — storage::ColumnTable merge_mu: serializes delta
// merges; held across the whole merge including its ParallelFor.
inline constexpr int kStorageMerge = 60;
// storage.state — storage::ColumnTable state_mu: column part pointers
// and delta buffers; taken inside merge_mu during merge phases.
inline constexpr int kStorageState = 65;
// txn.fault_injector — txn::FaultInjector::mu_: failure schedule;
// taken from coordinator/participant code paths.
inline constexpr int kFaultInjector = 70;
// pool.error — TaskPool ParallelFor Shared::error_mu: first-error
// slot; taken from worker lambdas that may run under engine locks.
inline constexpr int kPoolError = 80;
// pool.queue — TaskPool::mu_: the task queue. Strict leaf: no task
// submission path may require another platform lock afterwards.
inline constexpr int kPoolQueue = 90;
}  // namespace lock_rank

class Mutex;

/// Runtime lock-order validator. Compiled in when the build defines
/// HANA_LOCK_ORDER_CHECKS (the default for every build type except
/// Release — see the top-level CMakeLists). Each thread keeps a TLS
/// stack of the Mutexes it holds; acquiring a ranked Mutex whose rank
/// is not strictly greater than every ranked Mutex already held — or
/// re-acquiring any held Mutex — is a violation. The HANA_LOCK_ORDER
/// environment variable picks the response, read at violation time so
/// tests can flip it per-process:
///   off    — no checking.
///   report — (default) print a diagnostic with both lock names and
///            acquisition backtraces, count it, continue.
///   fatal  — print the diagnostic and abort().
/// Re-acquiring a held Mutex always aborts (unless off): continuing
/// would deadlock the thread on itself, which is strictly worse than
/// an abort with a backtrace.
namespace lock_order {
namespace detail {
void BeforeLock(const Mutex* mu);
void AfterLock(const Mutex* mu);
void AfterUnlock(const Mutex* mu);
void AssertHeld(const Mutex* mu);
void PushFence();
void PopFence();
}  // namespace detail

#ifdef HANA_LOCK_ORDER_CHECKS
/// Number of violations observed by this process (report mode).
uint64_t ViolationCount();
/// Resets the counter and the last-violation message (test hook).
void ResetViolations();
/// Human-readable description of the most recent violation.
std::string LastViolation();
#else
inline uint64_t ViolationCount() { return 0; }
inline void ResetViolations() {}
inline std::string LastViolation() { return {}; }
#endif

/// RAII rank fence. The task pool runs stolen tasks on threads that may
/// already hold caller locks (TryRunOneTask inside ParallelFor's drain
/// loop); a stolen task's acquisitions belong to its own logical
/// context, so the pool brackets task execution with a Fence and the
/// validator compares ranks only against locks acquired after the most
/// recent fence. Re-acquire detection still looks through fences — a
/// stolen task re-locking a mutex its host thread holds is a genuine
/// self-deadlock.
class Fence {
 public:
#ifdef HANA_LOCK_ORDER_CHECKS
  Fence() { detail::PushFence(); }
  ~Fence() { detail::PopFence(); }
#else
  Fence() {}
  ~Fence() {}  // User-provided: keeps `Fence f;` from warning as unused.
#endif
  Fence(const Fence&) = delete;
  Fence& operator=(const Fence&) = delete;
};
}  // namespace lock_order

/// The platform's mutex: std::mutex wrapped so the analysis can name it
/// as a capability. All locking in the platform goes through Mutex /
/// MutexLock — scripts/lint.sh rejects naked std::mutex / lock_guard
/// outside common/sync.{h,cc}, so every lock is visible to
/// -Wthread-safety.
///
/// Long-lived platform mutexes use the named constructor, which also
/// registers the lock with the runtime lock-order validator. The
/// default constructor creates an anonymous, unranked Mutex (ad-hoc
/// and test locks): exempt from rank ordering, still covered by
/// re-acquire detection.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  /// Named, ranked mutex; `name` must have static storage duration
  /// (pass a string literal) and `rank` comes from hana::lock_rank.
  Mutex(const char* name, int rank) : name_(name), rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;
#ifdef HANA_TSAN
  // std::mutex's destructor is trivial, so TSan never sees a mutex die,
  // and one later built at the same stack address inherits its edges.
  ~Mutex() { __tsan_mutex_destroy(&mu_, 0); }
#endif

  void Lock() ACQUIRE() {
#ifdef HANA_LOCK_ORDER_CHECKS
    lock_order::detail::BeforeLock(this);
#endif
    mu_.lock();
#ifdef HANA_LOCK_ORDER_CHECKS
    lock_order::detail::AfterLock(this);
#endif
  }
  void Unlock() RELEASE() {
#ifdef HANA_LOCK_ORDER_CHECKS
    lock_order::detail::AfterUnlock(this);
#endif
    mu_.unlock();
  }
  bool TryLock() TRY_ACQUIRE(true) {
#ifdef HANA_LOCK_ORDER_CHECKS
    // Checked before the attempt: a try-lock that *would* invert the
    // order is a code-path violation whether or not it wins the race,
    // and try-locking a mutex this thread already holds is UB.
    lock_order::detail::BeforeLock(this);
#endif
    bool acquired = mu_.try_lock();
#ifdef HANA_LOCK_ORDER_CHECKS
    if (acquired) lock_order::detail::AfterLock(this);
#endif
    return acquired;
  }

  /// Declares (to Clang's analysis) and verifies (via the runtime
  /// validator) that the calling thread holds this mutex. This is the
  /// cross-object REQUIRES: when a callee's lock is reached through a
  /// pointer (query->engine_->mu_), the static analysis cannot equate
  /// the caller's held capability with the callee's requirement, so the
  /// callee asserts it at entry instead — statically introducing the
  /// capability for its GUARDED_BY members and dynamically aborting or
  /// reporting (per HANA_LOCK_ORDER) if the lock is in fact not held.
  void AssertHeld() const ASSERT_CAPABILITY(this) {
#ifdef HANA_LOCK_ORDER_CHECKS
    lock_order::detail::AssertHeld(this);
#endif
  }

  const char* name() const { return name_; }
  int rank() const { return rank_; }

 private:
  friend class CondVar;
  std::mutex mu_;
  const char* name_ = "anon";
  int rank_ = -1;  // Unranked: exempt from ordering checks.
};

/// RAII scoped lock over Mutex, the analogue of std::lock_guard. The
/// SCOPED_CAPABILITY attribute lets the analysis treat construction as
/// acquiring the mutex and destruction as releasing it, so GUARDED_BY
/// members are accessible exactly within the guard's scope.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with Mutex. Wait() takes the Mutex (not
/// the MutexLock) so the REQUIRES annotation names the capability the
/// caller must hold; the caller supplies its own while-loop around the
/// wait, which keeps the guarded predicate check inside the annotated
/// scope instead of an opaque lambda.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks until notified, and reacquires
  /// `mu` before returning. Spurious wakeups are possible; callers loop.
  /// Ownership conceptually stays with the caller throughout, so the
  /// lock-order validator keeps the mutex on the held stack across the
  /// wait (the thread runs no code of its own while parked).
  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> inner(mu.mu_, std::adopt_lock);
    cv_.wait(inner);
    inner.release();  // Ownership stays with the caller's MutexLock.
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace hana

#endif  // HANA_COMMON_SYNC_H_
