// Tests for the runtime lock-order validator in common/sync.{h,cc}
// that acquire mutexes out of rank order on purpose: inverted-rank
// acquisition (on a spawned thread, at equal ranks, without a task
// fence) is reported and, under HANA_LOCK_ORDER=fatal, aborts;
// re-acquiring a held mutex aborts; off mode stays silent. Not in the
// concurrency label: ThreadSanitizer flags these inversions as
// potential deadlocks. The suite runs with the validator compiled in
// (any non-Release build); when it is compiled out the checks become
// trivial skips.

#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>

#include "common/sync.h"

namespace hana {
namespace {

#ifdef HANA_LOCK_ORDER_CHECKS
constexpr bool kValidatorOn = true;
#else
constexpr bool kValidatorOn = false;
#endif

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

TEST_F(LockOrderTest, InvertedRankOnSpawnedThreadIsReported) {
  Mutex low("test.low", 10);
  Mutex high("test.high", 90);
  std::thread t([&] {
    MutexLock hold_high(high);
    MutexLock hold_low(low);  // rank 10 after rank 90: inversion.
  });
  t.join();
  EXPECT_EQ(lock_order::ViolationCount(), 1u);
  std::string msg = lock_order::LastViolation();
  EXPECT_NE(msg.find("test.low"), std::string::npos) << msg;
  EXPECT_NE(msg.find("test.high"), std::string::npos) << msg;
  EXPECT_NE(msg.find("lock-order violation"), std::string::npos) << msg;
}

TEST_F(LockOrderTest, SameRankDoubleHoldIsReported) {
  // Engine-level locks share a rank precisely because no thread may
  // hold two of them at once; the validator enforces *strictly*
  // increasing ranks.
  Mutex a("test.peer_a", 20);
  Mutex b("test.peer_b", 20);
  MutexLock hold_a(a);
  MutexLock hold_b(b);
  EXPECT_EQ(lock_order::ViolationCount(), 1u);
}

TEST_F(LockOrderTest, FenceIsolatesStolenTaskRanks) {
  // A thread holding a high-rank lock that executes a fenced (stolen)
  // task may take low-rank locks inside the task: the fence marks a
  // fresh logical context, exactly what TaskPool::TryRunOneTask does.
  Mutex high("test.host", 90);
  Mutex low("test.stolen", 10);
  MutexLock hold(high);
  {
    lock_order::Fence fence;
    MutexLock inner(low);
    EXPECT_EQ(lock_order::ViolationCount(), 0u);
  }
  // Without a fence the same pattern is a violation.
  MutexLock inner(low);
  EXPECT_EQ(lock_order::ViolationCount(), 1u);
}

using LockOrderDeathTest = LockOrderTest;

TEST_F(LockOrderDeathTest, FatalModeAbortsOnInversion) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        setenv("HANA_LOCK_ORDER", "fatal", 1);
        Mutex low("test.low", 10);
        Mutex high("test.high", 90);
        MutexLock hold_high(high);
        MutexLock hold_low(low);
      },
      "lock-order violation: acquiring \"test.low\"");
}

TEST_F(LockOrderDeathTest, ReacquireAbortsEvenInReportMode) {
  // Re-acquiring a held std::mutex is a guaranteed self-deadlock, so
  // the validator aborts rather than reporting-and-hanging.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        setenv("HANA_LOCK_ORDER", "report", 1);
        Mutex mu("test.reacquire", 40);
        mu.Lock();
        mu.Lock();
      },
      "re-acquiring held mutex \"test.reacquire\"");
}

TEST_F(LockOrderTest, OffModeSilencesChecks) {
  setenv("HANA_LOCK_ORDER", "off", 1);
  Mutex low("test.low", 10);
  Mutex high("test.high", 90);
  MutexLock hold_high(high);
  MutexLock hold_low(low);
  EXPECT_EQ(lock_order::ViolationCount(), 0u);
}

}  // namespace
}  // namespace hana
