// Logical RTSJ threads: profiles, contexts, sporadic admission, deadline
// handlers.
#include <gtest/gtest.h>
#include <sys/prctl.h>

#include "rtsj/memory/memory_area.hpp"
#include "rtsj/threads/os_sched.hpp"
#include "rtsj/threads/realtime_thread.hpp"

namespace rtcf::rtsj {
namespace {

TEST(ReleaseProfileTest, FactoriesAndImplicitDeadlines) {
  const auto periodic = ReleaseProfile::periodic(
      RelativeTime::milliseconds(10), RelativeTime::microseconds(200));
  EXPECT_EQ(periodic.kind, ReleaseKind::Periodic);
  EXPECT_EQ(periodic.effective_deadline(), RelativeTime::milliseconds(10));

  const auto sporadic =
      ReleaseProfile::sporadic(RelativeTime::milliseconds(5));
  EXPECT_EQ(sporadic.effective_deadline(), RelativeTime::milliseconds(5));

  auto explicit_deadline = ReleaseProfile::periodic(
      RelativeTime::milliseconds(10));
  explicit_deadline.deadline = RelativeTime::milliseconds(3);
  EXPECT_EQ(explicit_deadline.effective_deadline(),
            RelativeTime::milliseconds(3));

  EXPECT_EQ(ReleaseProfile::aperiodic().effective_deadline(),
            RelativeTime::zero());
}

TEST(RealtimeThreadTest, RunsLogicUnderItsContext) {
  RealtimeThread thread("t", ThreadKind::Realtime, 20,
                        ReleaseProfile::aperiodic());
  ThreadKind observed{};
  std::string observed_name;
  thread.set_logic([&] {
    observed = ThreadContext::current().kind();
    observed_name = ThreadContext::current().name();
  });
  thread.run_release();
  EXPECT_EQ(observed, ThreadKind::Realtime);
  EXPECT_EQ(observed_name, "t");
  EXPECT_EQ(thread.release_count(), 1u);
}

TEST(RealtimeThreadTest, ReleaseWithoutLogicThrows) {
  RealtimeThread thread("empty", ThreadKind::Regular, 5,
                        ReleaseProfile::aperiodic());
  EXPECT_THROW(thread.run_release(), IllegalThreadStateException);
}

TEST(RealtimeThreadTest, RunWithContextCountsReleases) {
  RealtimeThread thread("ctx", ThreadKind::Realtime, 20,
                        ReleaseProfile::aperiodic());
  int runs = 0;
  thread.run_with_context([&] { ++runs; });
  thread.run_with_context([&] { ++runs; });
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(thread.release_count(), 2u);
}

TEST(RealtimeThreadTest, ContextIsRestoredAfterRelease) {
  RealtimeThread thread("restore", ThreadKind::NoHeapRealtime, 30,
                        ReleaseProfile::aperiodic(),
                        &ImmortalMemory::instance());
  thread.set_logic([] {});
  const auto* before = ThreadContext::current_or_null();
  thread.run_release();
  EXPECT_EQ(ThreadContext::current_or_null(), before);
}

TEST(RealtimeThreadTest, SporadicAdmissionEnforcesMit) {
  auto profile = ReleaseProfile::sporadic(RelativeTime::milliseconds(10));
  RealtimeThread thread("sporadic", ThreadKind::Realtime, 20, profile);
  const auto t0 = AbsoluteTime::epoch();
  EXPECT_TRUE(thread.admit_sporadic_arrival(t0));
  EXPECT_FALSE(thread.admit_sporadic_arrival(
      t0 + RelativeTime::milliseconds(5)));
  EXPECT_TRUE(thread.admit_sporadic_arrival(
      t0 + RelativeTime::milliseconds(10)));
}

TEST(RealtimeThreadTest, NonSporadicAdmitsEverything) {
  RealtimeThread thread("p", ThreadKind::Realtime, 20,
                        ReleaseProfile::periodic(RelativeTime::milliseconds(1)));
  const auto t0 = AbsoluteTime::epoch();
  EXPECT_TRUE(thread.admit_sporadic_arrival(t0));
  EXPECT_TRUE(thread.admit_sporadic_arrival(t0));
}

TEST(RealtimeThreadTest, DeadlineMissHandlerFires) {
  RealtimeThread thread("miss", ThreadKind::Realtime, 20,
                        ReleaseProfile::periodic(RelativeTime::milliseconds(1)));
  ReleaseInfo seen{};
  thread.set_deadline_miss_handler([&](const ReleaseInfo& info) {
    seen = info;
  });
  ReleaseInfo info;
  info.sequence = 3;
  info.release_time = AbsoluteTime::epoch();
  info.finish_time = AbsoluteTime::epoch() + RelativeTime::milliseconds(2);
  thread.notify_deadline_miss(info);
  EXPECT_EQ(thread.deadline_miss_count(), 1u);
  EXPECT_EQ(seen.sequence, 3u);
  EXPECT_EQ(seen.response(), RelativeTime::milliseconds(2));
}

TEST(NoHeapRealtimeThreadTest, RefusesHeapInitialArea) {
  EXPECT_THROW(NoHeapRealtimeThread("bad", 30, ReleaseProfile::aperiodic(),
                                    &HeapMemory::instance()),
               IllegalThreadStateException);
  // Default initial area for RT threads is immortal: fine.
  EXPECT_NO_THROW(
      NoHeapRealtimeThread("good", 30, ReleaseProfile::aperiodic()));
}

TEST(NoHeapRealtimeThreadTest, LogicCannotTouchHeap) {
  NoHeapRealtimeThread thread("nhrt", 30, ReleaseProfile::aperiodic());
  thread.set_logic([] {
    HeapMemory::instance().make<int>(1);  // must throw
  });
  EXPECT_THROW(thread.run_release(), MemoryAccessError);
}

TEST(RegularThreadTest, DefaultsToHeapContext) {
  RegularThread thread("reg", 5, ReleaseProfile::aperiodic());
  EXPECT_EQ(thread.kind(), ThreadKind::Regular);
  thread.set_logic([] {
    EXPECT_EQ(current_area().kind(), AreaKind::Heap);
  });
  thread.run_release();
}

TEST(PreciseTimerScopeTest, HoldsOneNanosecondThenRestoresTheSlack) {
  const auto slack = [] { return prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0); };
  const long own = slack();
  ASSERT_EQ(prctl(PR_SET_TIMERSLACK, 50'000L, 0, 0, 0), 0);
  long inside = 0;
  long after_nested = 0;
  {
    const PreciseTimerScope scope;
    inside = slack();
    {
      const PreciseTimerScope again;  // already at the floor: no-op
    }
    after_nested = slack();
  }
  const long after = slack();
  prctl(PR_SET_TIMERSLACK, own, 0, 0, 0);
  EXPECT_EQ(inside, 1);
  EXPECT_EQ(after_nested, 1) << "a nested scope must not restore 50 µs";
  EXPECT_EQ(after, 50'000);
}

}  // namespace
}  // namespace rtcf::rtsj
