// Tests for the runtime lock-order validator in common/sync.{h,cc}: the
// legal patterns the platform relies on — increasing chains, anonymous
// mutexes, CondVar waits, task-pool work under a held engine lock —
// produce zero violations. The intentional inversions (reports, fatal
// aborts) live in lock_order_inversion_test, which stays out of the
// ThreadSanitizer sweep: TSan reports those inversions itself. The
// suite runs with the validator compiled in (any non-Release build);
// when it is compiled out the checks become trivial skips.

#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>

#include "common/sync.h"
#include "common/task_pool.h"

namespace hana {
namespace {

#ifdef HANA_LOCK_ORDER_CHECKS
constexpr bool kValidatorOn = true;
#else
constexpr bool kValidatorOn = false;
#endif

// Every mutex below is a function-local static, so each has its own
// address for the life of the process: ThreadSanitizer never sees a
// hana::Mutex destroyed, and two tests reusing the same stack slots in
// different orders would look to it like a lock-order cycle.
class LockOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kValidatorOn) GTEST_SKIP() << "validator compiled out (Release)";
    // Report mode: count violations without aborting the test binary.
    setenv("HANA_LOCK_ORDER", "report", 1);
    lock_order::ResetViolations();
  }
  void TearDown() override { unsetenv("HANA_LOCK_ORDER"); }
};

TEST_F(LockOrderTest, IncreasingChainIsClean) {
  static Mutex low("test.low", 10);
  static Mutex mid("test.mid", 40);
  static Mutex high("test.high", 90);
  {
    MutexLock l1(low);
    MutexLock l2(mid);
    MutexLock l3(high);
  }
  // Releasing and re-walking the chain must also be clean.
  {
    MutexLock l1(low);
    MutexLock l3(high);
  }
  EXPECT_EQ(lock_order::ViolationCount(), 0u);
}

TEST_F(LockOrderTest, AnonymousMutexesAreExemptFromRankOrder) {
  static Mutex anon_a;
  static Mutex anon_b;
  static Mutex ranked("test.ranked", 50);
  MutexLock l1(ranked);
  MutexLock l2(anon_a);  // Unranked after ranked: fine.
  MutexLock l3(anon_b);
  EXPECT_EQ(lock_order::ViolationCount(), 0u);
}

TEST_F(LockOrderTest, RealRankTableChainsAreClean) {
  // The actual platform chains from DESIGN.md, spelled in lock_rank
  // constants: executor -> sda.dispatch -> sda.registry, and
  // merge -> state -> pool.
  static Mutex executor("executor.schedule", lock_rank::kExecutorSchedule);
  static Mutex dispatch("sda.dispatch", lock_rank::kSdaDispatch);
  static Mutex registry("sda.registry", lock_rank::kSdaRegistry);
  static Mutex merge("storage.merge", lock_rank::kStorageMerge);
  static Mutex state("storage.state", lock_rank::kStorageState);
  static Mutex queue("pool.queue", lock_rank::kPoolQueue);
  {
    MutexLock l1(executor);
    MutexLock l2(dispatch);
    MutexLock l3(registry);
  }
  {
    MutexLock l1(merge);
    MutexLock l2(state);
  }
  {
    MutexLock l1(merge);
    MutexLock l2(queue);
  }
  EXPECT_EQ(lock_order::ViolationCount(), 0u);
}

TEST_F(LockOrderTest, CondVarWaitKeepsTheLockOnTheHeldStack) {
  static Mutex mu("test.wait", 30);
  static Mutex later("test.later", 60);
  CondVar cv;
  bool ready = false;
  std::thread waiter([&] {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
    // Still conceptually holding rank 30; a higher rank must be clean.
    MutexLock l2(later);
  });
  {
    // Give the waiter time to park, then release it.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    MutexLock lock(mu);
    ready = true;
  }
  cv.NotifyAll();
  waiter.join();
  EXPECT_EQ(lock_order::ViolationCount(), 0u);
}

TEST_F(LockOrderTest, ParallelForUnderHeldEngineLockIsClean) {
  // The online-merge pattern: phase 2 runs a ParallelFor while the
  // caller holds storage.merge. The caller participates inline and
  // drains stolen tasks; none of it may trip the validator.
  static Mutex merge("storage.merge", lock_rank::kStorageMerge);
  MutexLock hold(merge);
  std::atomic<int> sum{0};  // atomic: relaxed test counter.
  TaskPool::Global().ParallelFor(64, [&](size_t i) {
    sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), (63 * 64) / 2);
  EXPECT_EQ(lock_order::ViolationCount(), 0u);
}

}  // namespace
}  // namespace hana
