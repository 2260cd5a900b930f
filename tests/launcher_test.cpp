// Wall-clock cyclic-executive launcher.
#include <gtest/gtest.h>
#include <sys/prctl.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "reconfig/mode_manager.hpp"
#include "runtime/launcher.hpp"
#include "scenario/production_scenario.hpp"

namespace rtcf::runtime {
namespace {

/// One sporadic component and nothing that releases on its own.
model::Architecture sporadic_only_architecture() {
  using namespace model;
  Architecture arch;
  auto& a = arch.add_active("OnlySporadic", ActivationKind::Sporadic);
  a.set_content_class("AuditLogImpl");
  a.add_interface({"iAudit", InterfaceRole::Server, "IAudit"});
  auto& d = arch.add_thread_domain("D", DomainType::Realtime, 20);
  arch.add_child(d, a);
  return arch;
}

/// A release-less run under a mode manager whose idle wait (poll_interval)
/// outlasts the run: left alone, the boundary hook runs at the start and
/// then only at the horizon. A wake() from another thread must make it
/// run again at once — on worker 0 when the executive is partitioned.
void expect_wake_runs_the_boundary_now(std::size_t workers) {
  using Clock = std::chrono::steady_clock;
  model::Architecture arch = sporadic_only_architecture();
  model::ModeDecl normal;
  normal.name = "Normal";
  arch.add_mode(std::move(normal));
  auto app = soleil::build_application(arch, soleil::Mode::Soleil, workers);
  app->start();
  reconfig::ModeManager mode_manager(*app);
  Launcher launcher(*app);

  std::mutex mutex;
  std::condition_variable called;
  std::vector<Clock::time_point> calls;
  Launcher::Options options;
  options.duration = rtsj::RelativeTime::seconds(1);
  options.poll_interval = rtsj::RelativeTime::seconds(1);
  options.workers = workers;
  options.mode_manager = &mode_manager;
  options.boundary_hook = [&] {
    const std::lock_guard<std::mutex> lock(mutex);
    calls.push_back(Clock::now());
    called.notify_all();
  };
  const auto wait_for_calls = [&](std::size_t n) {
    std::unique_lock<std::mutex> lock(mutex);
    called.wait_for(lock, std::chrono::seconds(5),
                    [&] { return calls.size() >= n; });
    return calls.size() >= n ? calls[n - 1] : Clock::time_point::max();
  };

  std::thread executive([&] { launcher.run(options); });
  // Two boundaries (top of the loop, then the one before the idle wait),
  // then a pause so the executive is inside its wait.
  wait_for_calls(2);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const Clock::time_point woken = Clock::now();
  launcher.wake();
  const Clock::time_point third = wait_for_calls(3);
  executive.join();

  EXPECT_LT(third - woken, std::chrono::milliseconds(50))
      << "without the wake the next boundary is the horizon, ~900 ms on";
  app->stop();
}

/// The calling thread's timer slack, in ns.
long timer_slack_ns() { return prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0); }

/// The executive thread waits with 1 ns timer slack, whatever slack its
/// creator had: the boundary hook reads it on that thread (the caller's in
/// single-core mode, worker 0's when partitioned). The caller gets its own
/// slack back when run() returns.
void expect_executive_waits_with_precise_timers(std::size_t workers) {
  constexpr long kHostSlackNs = 50'000;  // Linux's default timer slack
  const long own = timer_slack_ns();
  ASSERT_EQ(prctl(PR_SET_TIMERSLACK, kHostSlackNs, 0, 0, 0), 0);
  model::Architecture arch = sporadic_only_architecture();
  model::ModeDecl normal;
  normal.name = "Normal";
  arch.add_mode(std::move(normal));
  auto app = soleil::build_application(arch, soleil::Mode::Soleil, workers);
  app->start();
  reconfig::ModeManager mode_manager(*app);
  Launcher launcher(*app);

  std::set<long> seen;  // written by the executive, read after the join
  Launcher::Options options;
  options.duration = rtsj::RelativeTime::milliseconds(20);
  options.workers = workers;
  options.mode_manager = &mode_manager;
  options.boundary_hook = [&] { seen.insert(timer_slack_ns()); };
  launcher.run(options);
  const long after = timer_slack_ns();
  prctl(PR_SET_TIMERSLACK, own, 0, 0, 0);
  app->stop();

  EXPECT_EQ(seen, std::set<long>{1});
  EXPECT_EQ(after, kHostSlackNs);
}

TEST(LauncherTest, RunsPeriodicReleasesInRealTime) {
  const auto arch = scenario::make_production_architecture();
  auto app = soleil::build_application(arch, soleil::Mode::MergeAll);
  app->start();
  Launcher launcher(*app);
  Launcher::Options options;
  options.duration = rtsj::RelativeTime::milliseconds(120);
  launcher.run(options);

  // 10 ms period over 120 ms: around 11 releases (first at t=10ms).
  const auto& stats = launcher.stats("ProductionLine");
  EXPECT_GE(stats.releases, 8u);
  EXPECT_LE(stats.releases, 12u);
  EXPECT_EQ(stats.response_us.count(), stats.releases);
  EXPECT_EQ(stats.deadline_misses, 0u)
      << "sub-microsecond work cannot miss a 10 ms deadline";

  // The pipeline actually ran end to end.
  const auto counters = scenario::collect_counters(*app);
  EXPECT_EQ(counters.produced, stats.releases);
  EXPECT_EQ(counters.processed, stats.releases);
  EXPECT_EQ(counters.audit_records, stats.releases);
  app->stop();
}

TEST(LauncherTest, ReleaseTimesAreAnchoredNotDrifting) {
  const auto arch = scenario::make_production_architecture();
  auto app = soleil::build_application(arch, soleil::Mode::UltraMerge);
  app->start();
  Launcher launcher(*app);
  Launcher::Options options;
  options.duration = rtsj::RelativeTime::milliseconds(100);
  launcher.run(options);
  const auto& stats = launcher.stats("ProductionLine");
  // Lateness stays bounded (sleep_until + dispatch overhead); it must not
  // accumulate across releases on an idle host. Allow generous slack for
  // CI noise.
  EXPECT_LT(stats.start_lateness_us.median(), 10'000.0);
  app->stop();
}

TEST(LauncherTest, StatsForUnknownComponentThrow) {
  const auto arch = scenario::make_production_architecture();
  auto app = soleil::build_application(arch, soleil::Mode::MergeAll);
  Launcher launcher(*app);
  EXPECT_THROW((void)launcher.stats("Console"), std::invalid_argument);
}

TEST(LauncherTest, ReleaselessRunNeedsAModeManager) {
  const auto arch = sporadic_only_architecture();
  auto app = soleil::build_application(arch, soleil::Mode::MergeAll);
  // Sporadic-only assemblies are legal now (a distributed node may host
  // only bridge-fed consumers) — but they need a mode manager to drive
  // the run; a bare wall-clock run would return immediately.
  Launcher launcher(*app);
  EXPECT_THROW(launcher.run(Launcher::Options{}), std::invalid_argument);
}

TEST(LauncherTest, WakeEndsTheIdleWaitAtOnce) {
  expect_wake_runs_the_boundary_now(1);
}

TEST(LauncherTest, WakeReachesPartitionedWorkerZero) {
  expect_wake_runs_the_boundary_now(2);
}

TEST(LauncherTest, ExecutiveWaitsWithOneNanosecondTimerSlack) {
  expect_executive_waits_with_precise_timers(1);
}

TEST(LauncherTest, PartitionedWorkerWaitsWithOneNanosecondTimerSlack) {
  expect_executive_waits_with_precise_timers(2);
}

}  // namespace
}  // namespace rtcf::runtime
