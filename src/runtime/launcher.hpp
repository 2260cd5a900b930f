// Wall-clock executive launcher: single-core cyclic executive or
// partitioned multi-worker.
//
// Single-core mode (workers == 1, the default) runs an assembled
// Application in real time on the calling thread: each periodic active
// component releases on its own timeline (anchored at launch), releases and
// the activations they trigger execute run-to-completion in priority order
// at each dispatch point, and per-component response times / deadline
// misses are recorded. This is the single-threaded embedded deployment
// style (cyclic executive over a priority-ordered release queue) — a
// faithful stand-in for the paper's RTSJ-VM execution that works on a stock
// host, while the discrete-event simulator (src/sim) covers exact-virtual-
// time experiments.
//
// Partitioned mode (workers == N > 1) runs one worker OS thread per plan
// partition: every worker owns a priority-ordered release queue of the
// periodic components pinned to it and a partition view of the activation
// dispatcher, so components never migrate and per-partition execution stays
// run-to-completion. Cross-worker asynchronous bindings ride lock-free SPSC
// message buffers plus atomic activation credits — no locks anywhere on the
// steady-state path. The application must have been built with
// build_application(arch, mode, N).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "monitor/runtime_monitor.hpp"
#include "soleil/application.hpp"
#include "util/stats.hpp"

namespace rtcf::reconfig {
class ModeManager;
struct ComponentSetting;
struct StructureChange;
}  // namespace rtcf::reconfig

namespace rtcf::runtime {

/// Drives one Application in wall-clock time.
class Launcher {
 public:
  struct Options {
    /// How long to run.
    rtsj::RelativeTime duration = rtsj::RelativeTime::milliseconds(100);
    /// Number of executive workers. Must equal the application plan's
    /// partition_count; 1 selects the single-core cyclic executive.
    std::size_t workers = 1;
    /// Ask the OS for SCHED_FIFO worker priorities derived from each
    /// worker's highest-priority component (rtsj::to_os_priority). Silently
    /// degraded to SCHED_OTHER without privileges.
    bool apply_os_priorities = false;
    /// Bound on one idle wait: how long a waiting worker sleeps before it
    /// polls again for cross-worker activations (partitioned only), and
    /// the mode-manager and boundary-hook cadence of a waiting single-core
    /// executive. It bounds only waits nobody signals: wake() ends a wait
    /// at once. The cadence is exact, not stretched by the host's timer
    /// slack: every executive thread waits with 1 ns slack for the length
    /// of the run (rtsj::PreciseTimerScope).
    rtsj::RelativeTime poll_interval = rtsj::RelativeTime::microseconds(200);
    /// Drives mode transitions and live reloads (src/reconfig): every
    /// worker polls the manager at each dispatch boundary — parking there
    /// while a transition is pending, which is the quiescence point — and
    /// re-reads its own entries' release settings (enabled, period)
    /// whenever the plan epoch changes. The swap is per worker and between
    /// dispatches, so no release is lost or double-fired across a
    /// transition. Reloads additionally grow/shrink the release plan
    /// through the manager's structure hook: new periodic components enter
    /// on the run-start anchor grid (first release strictly in the
    /// future), removed ones retire with their accumulated stats intact.
    reconfig::ModeManager* mode_manager = nullptr;
    /// Called by worker 0 (or the single-core executive) at every dispatch
    /// boundary, next to the mode-manager poll and never mid-release — the
    /// distribution layer's hook for injecting remote gateway messages
    /// from an executive thread. Not called while the worker is parked at
    /// a transition rendezvous, so injections never race a swap. A thread
    /// that hands the hook work calls wake() so it runs now rather than
    /// after the idle wait.
    std::function<void()> boundary_hook;
  };

  struct ComponentStats {
    std::uint64_t releases = 0;
    std::uint64_t deadline_misses = 0;
    /// Releases skipped by the overload governor (shed or rate-limited);
    /// also counted in the component's telemetry block.
    std::uint64_t shed = 0;
    /// Response time per release: from the *scheduled* release instant to
    /// completion of the release and everything it triggered downstream
    /// (downstream on the same worker, in partitioned mode).
    util::SampleSet response_us;
    /// Release jitter: how late the release actually started, per release.
    util::SampleSet start_lateness_us;
  };

  explicit Launcher(soleil::Application& app);

  /// Runs until `options.duration` elapses (blocking). Partitioned runs
  /// finish with a final drain, so no in-flight message is left behind.
  void run(const Options& options);

  const ComponentStats& stats(const std::string& component) const;
  const std::map<std::string, ComponentStats>& all_stats() const noexcept {
    return stats_;
  }

  /// Ends the executive's current idle wait (any thread): every waiting
  /// worker runs its dispatch boundary — mode-manager poll, boundary hook,
  /// activation pump — now instead of after poll_interval. A wake that
  /// lands while a worker is busy is not lost: that worker's next idle
  /// wait returns at once. No worker consumes a wake meant for another.
  void wake();

  /// How many workers obtained a real-time OS priority in the last run
  /// (0 on hosts without the privilege — informational).
  std::size_t os_priority_grants() const noexcept {
    return os_grants_.load(std::memory_order_relaxed);
  }

 private:
  struct PeriodicEntry {
    std::string name;
    std::function<void()> release;
    rtsj::RelativeTime period;
    rtsj::RelativeTime deadline;
    int priority;
    std::size_t partition = 0;
    rtsj::AbsoluteTime next_release{};
    /// Enabled in the current operational mode (mode-managed components
    /// absent from the mode release nothing).
    bool enabled = true;
    /// Permanently retired by a live reload (component removed). Workers
    /// drop retired entries from their queues on the next epoch sync; the
    /// entry itself stays so its accumulated stats survive.
    bool retired = false;
    /// Release-timeline anchor (run start): a component re-enabled by a
    /// mode transition resumes on its original grid, strictly in the
    /// future — no catch-up burst of the releases skipped while disabled.
    /// Hot-added components anchor on the same run-start grid.
    rtsj::AbsoluteTime anchor{};
    /// Runtime-monitor slot (telemetry + contract + governor id).
    monitor::RuntimeMonitor::Entry* mon = nullptr;
    /// Cached stats slot; stats_ is a node-based map mutated only at
    /// quiescence points, so workers touch disjoint entries without
    /// synchronisation and pointers stay valid across reloads.
    ComponentStats* stats = nullptr;
  };

  void run_single(const Options& options);
  void run_partitioned(const Options& options);
  /// Re-reads one entry's mode settings (enabled, period) after a plan-
  /// epoch change; `now` realigns re-enabled entries on their anchor grid.
  void apply_mode_setting(PeriodicEntry& entry,
                          const reconfig::ComponentSetting& setting,
                          rtsj::AbsoluteTime now);
  /// Release-plan growth/shrink at a reload's quiescence point (runs on
  /// the swap-executing worker while every other worker is parked): added
  /// periodic components get a timeline on the run-start anchor grid,
  /// removed ones are retired. periodics_ is a deque, so existing entries
  /// never move and parked workers' pointers stay valid.
  void ingest_structure_change(const reconfig::StructureChange& change,
                               rtsj::AbsoluteTime start);
  /// Reconciles the entry list against the application's *current* plan
  /// at the top of every run: reloads applied inline between runs (no
  /// structure hook installed) still grow/shrink the release plan.
  void reconcile_with_plan();
  /// Appends one entry for a live periodic planned component.
  void add_entry(const soleil::PlannedComponent& pc);
  /// Rebuilds one executive's priority-ordered release queue from the
  /// (possibly reload-grown) entry list. `all` selects every partition
  /// (single-core executive).
  void rebuild_queue(std::vector<PeriodicEntry*>& mine, std::size_t worker,
                     bool all);
  /// One worker's cyclic executive over its pinned entries; also pumps the
  /// partition's activation credits while waiting.
  void worker_loop(std::size_t worker, const Options& options,
                   rtsj::AbsoluteTime start, rtsj::AbsoluteTime end);
  void dispatch_entry(PeriodicEntry& entry, std::size_t worker,
                      bool partitioned);
  /// The wake generation, read by a worker before it looks for work.
  std::uint64_t wake_generation() const noexcept {
    return wake_generation_.load(std::memory_order_acquire);
  }
  /// Idle wait: returns after `timeout`, or once wake() has moved the
  /// generation past `seen` (at once if it already has).
  void idle_wait(std::uint64_t seen, std::chrono::nanoseconds timeout);

  soleil::Application& app_;
  /// Deque: live reload appends entries while parked workers hold stable
  /// pointers to existing ones.
  std::deque<PeriodicEntry> periodics_;
  std::map<std::string, ComponentStats> stats_;
  std::atomic<std::size_t> os_grants_{0};
  /// Idle-wait eventcount. wake() bumps the generation under wake_mutex_
  /// and notifies; a worker waits only while the generation still equals
  /// the one it read before its last boundary, so a wake between that
  /// boundary and the wait ends the wait instead of being lost.
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::atomic<std::uint64_t> wake_generation_{0};
};

}  // namespace rtcf::runtime
