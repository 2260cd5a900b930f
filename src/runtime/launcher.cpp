#include "runtime/launcher.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <thread>

#include "reconfig/mode_manager.hpp"
#include "rtsj/threads/os_sched.hpp"
#include "util/assert.hpp"

namespace rtcf::runtime {

using rtsj::AbsoluteTime;
using rtsj::RelativeTime;

namespace {

/// Clears the mode manager's structure hook on every exit path (a release
/// that throws must not leave a hook referencing a dead stack frame).
struct HookGuard {
  reconfig::ModeManager* mm;
  ~HookGuard() {
    if (mm != nullptr) mm->set_structure_hook(nullptr);
  }
};

/// First grid point strictly after `now` on the anchored timeline.
AbsoluteTime align_to_grid(AbsoluteTime anchor, RelativeTime period,
                           AbsoluteTime now) {
  const std::int64_t p = period.nanos();
  const std::int64_t elapsed = (now - anchor).nanos();
  const std::int64_t k = (p <= 0 || elapsed < 0) ? 1 : elapsed / p + 1;
  return anchor +
         RelativeTime::nanoseconds(k * std::max<std::int64_t>(p, 1));
}

}  // namespace

void Launcher::add_entry(const soleil::PlannedComponent& pc) {
  PeriodicEntry entry;
  entry.name = pc.component->name();
  entry.release = app_.release_fn(entry.name);
  entry.period = pc.active->period();
  entry.deadline = pc.thread->profile().effective_deadline();
  entry.priority = pc.thread->priority();
  entry.partition = pc.partition;
  entry.mon = app_.monitor().find(entry.name);
  // emplace keeps accumulated stats when a name is re-added after an
  // earlier removal — retirement never loses recorded releases.
  stats_.emplace(entry.name, ComponentStats{});
  periodics_.push_back(std::move(entry));
  periodics_.back().stats = &stats_.at(periodics_.back().name);
}

Launcher::Launcher(soleil::Application& app) : app_(app) {
  for (const auto& pc : app.plan().components) {
    if (pc.retired || pc.active == nullptr ||
        pc.active->activation() != model::ActivationKind::Periodic) {
      continue;
    }
    add_entry(pc);
  }
  // An assembly without periodic components is legal under a mode manager
  // (a distributed node may host only sporadic consumers fed over the
  // bridge; a cluster demotion may disable every local timeline): run()
  // then serves activations until the horizon. Without a mode manager a
  // run would return immediately, which run() rejects.
}

void Launcher::reconcile_with_plan() {
  // Entries whose planned component was retired by an inter-run reload.
  for (auto& entry : periodics_) {
    if (!entry.retired &&
        app_.plan().find_component(entry.name) == nullptr) {
      entry.retired = true;
      entry.enabled = false;
    }
  }
  // Periodic components admitted by an inter-run reload.
  for (const auto& pc : app_.plan().components) {
    if (pc.retired || pc.active == nullptr ||
        pc.active->activation() != model::ActivationKind::Periodic) {
      continue;
    }
    bool known = false;
    for (const auto& entry : periodics_) {
      if (!entry.retired && entry.name == pc.component->name()) known = true;
    }
    if (!known) add_entry(pc);
  }
}

void Launcher::run(const Options& options) {
  // Reloads applied while no run was active (inline quiescence) changed
  // the plan without a structure hook; catch up before dispatching.
  reconcile_with_plan();
  RTCF_REQUIRE(!periodics_.empty() || options.mode_manager != nullptr,
               "launcher needs at least one periodic active component (or "
               "a mode manager driving a release-less assembly)");
  if (options.workers <= 1) {
    // The single-core executive waits on the caller's thread; the caller
    // gets its own timer slack back when the run ends.
    const rtsj::PreciseTimerScope precise_timers;
    run_single(options);
    return;
  }
  run_partitioned(options);
}

void Launcher::dispatch_entry(PeriodicEntry& entry, std::size_t worker,
                              bool partitioned) {
  auto& clock = rtsj::SteadyClock::instance();
  const AbsoluteTime scheduled = entry.next_release;

  // Overload-governor admission: a degraded release is skipped entirely —
  // the period still advances (drift-free timeline), and the skip is
  // counted both here and in the component's telemetry block.
  if (entry.mon != nullptr &&
      app_.monitor().admit_release(*entry.mon) !=
          monitor::OverloadGovernor::Admission::Run) {
    ++entry.stats->shed;
    entry.next_release = scheduled + entry.period;
    return;
  }

  const AbsoluteTime actual_start = clock.now();
  entry.release();
  // The component's own execution ends here; the pump below runs
  // *downstream* components' activations, which record their own
  // execution via their timing interceptors. Billing the drain to this
  // component would blame the wrong party in its WCET-budget contract.
  const AbsoluteTime release_done = clock.now();
  if (partitioned) {
    app_.pump_partition(worker);
  } else {
    app_.pump();
  }
  const AbsoluteTime finish = clock.now();

  ComponentStats& cs = *entry.stats;
  ++cs.releases;
  cs.response_us.add((finish - scheduled).to_micros());
  cs.start_lateness_us.add((actual_start - scheduled).to_micros());
  const bool missed =
      !entry.deadline.is_zero() && finish - scheduled > entry.deadline;
  if (missed) ++cs.deadline_misses;
  if (entry.mon != nullptr) {
    app_.monitor().record_release(*entry.mon, release_done - actual_start,
                                  finish - scheduled,
                                  actual_start - scheduled, missed);
  }
  entry.next_release = scheduled + entry.period;  // drift-free anchor
}

void Launcher::apply_mode_setting(PeriodicEntry& entry,
                                  const reconfig::ComponentSetting& setting,
                                  AbsoluteTime now) {
  const bool was_enabled = entry.enabled;
  if (!setting.period.is_zero() && setting.period != entry.period) {
    // The implicit deadline follows the mode's rate; an explicit deadline
    // (deadline != period) is a property of the component and stays.
    if (entry.deadline == entry.period) entry.deadline = setting.period;
    entry.period = setting.period;
    // The already-scheduled release keeps its instant; releases after it
    // use the new period (drift-free from that instant on).
  }
  entry.enabled = setting.enabled;
  if (!was_enabled && setting.enabled) {
    // Resume on the anchor grid, strictly in the future: the releases
    // skipped while disabled are gone by design, not fired as a burst.
    entry.next_release = align_to_grid(entry.anchor, entry.period, now);
  }
}

void Launcher::rebuild_queue(std::vector<PeriodicEntry*>& mine,
                             std::size_t worker, bool all) {
  mine.clear();
  for (auto& entry : periodics_) {
    if (entry.retired) continue;
    if (!all && entry.partition != worker) continue;
    mine.push_back(&entry);
  }
  std::stable_sort(mine.begin(), mine.end(),
                   [](const PeriodicEntry* a, const PeriodicEntry* b) {
                     return a->priority > b->priority;
                   });
}

void Launcher::ingest_structure_change(
    const reconfig::StructureChange& change, AbsoluteTime start) {
  const AbsoluteTime now = rtsj::SteadyClock::instance().now();
  for (const auto& name : change.removed) {
    for (auto& entry : periodics_) {
      if (entry.name == name && !entry.retired) {
        entry.retired = true;
        entry.enabled = false;
      }
    }
  }
  for (const auto& name : change.added) {
    const auto* pc = app_.plan().find_component(name);
    if (pc == nullptr || pc->active == nullptr ||
        pc->active->activation() != model::ActivationKind::Periodic) {
      continue;  // sporadic/passive additions release via activations
    }
    add_entry(*pc);
    PeriodicEntry& entry = periodics_.back();
    entry.anchor = start;
    entry.enabled = true;
    // The new timeline enters on the run-start anchor grid, strictly in
    // the future — exactly like a re-enabled component, so releases stay
    // phase-aligned with the rest of the assembly.
    entry.next_release = align_to_grid(start, entry.period, now);
  }
}

void Launcher::run_single(const Options& options) {
  auto& clock = rtsj::SteadyClock::instance();
  const AbsoluteTime start = clock.now();
  const AbsoluteTime end = start + options.duration;
  reconfig::ModeManager* mm = options.mode_manager;
  for (auto& entry : periodics_) {
    if (entry.retired) continue;
    entry.anchor = start;
    entry.enabled = true;
    entry.next_release = start + entry.period;
  }
  std::vector<PeriodicEntry*> mine;
  rebuild_queue(mine, 0, /*all=*/true);
  std::uint64_t seen_epoch = 0;
  const auto sync_mode = [&] {
    if (mm == nullptr || mm->plan_epoch() == seen_epoch) return;
    seen_epoch = mm->plan_epoch();
    // Reloads may have grown or shrunk the entry list.
    rebuild_queue(mine, 0, /*all=*/true);
    const AbsoluteTime now = clock.now();
    for (auto* entry : mine) {
      if (const auto* setting = mm->setting(entry->name)) {
        apply_mode_setting(*entry, *setting, now);
      }
    }
  };
  HookGuard hook_guard{mm};
  if (mm != nullptr) {
    mm->set_structure_hook(
        [this, start](const reconfig::StructureChange& change) {
          ingest_structure_change(change, start);
        });
    mm->begin_run(1);
  }
  sync_mode();
  const auto poll = std::chrono::nanoseconds(
      std::max<std::int64_t>(options.poll_interval.nanos(), 1));
  // With a boundary hook installed, each boundary also drains the
  // activations the hook injected (a node hosting only sporadic consumers
  // has no dispatch points of its own). Without a hook the classic
  // single-core executive is untouched: activations drain run-to-
  // completion inside dispatch_entry only.
  const auto boundary = [&] {
    if (!options.boundary_hook) return;
    options.boundary_hook();
    app_.pump();
  };

  for (;;) {
    if (mm != nullptr) {
      mm->poll(0);  // dispatch boundary: pending transitions apply here
      sync_mode();
    }
    boundary();
    // Earliest pending release across the enabled periodic components.
    AbsoluteTime next = end;
    for (const auto* entry : mine) {
      if (!entry->enabled) continue;
      next = std::min(next, entry->next_release);
    }
    if (next >= end && (mm == nullptr || clock.now() >= end)) break;

    // A transition applied while waiting invalidates `next`: resync and
    // recompute instead of dispatching against the stale plan (which
    // could fire a release before its scheduled instant).
    bool replanned = false;
    if (mm == nullptr) {
      // A past instant sleeps not at all.
      std::this_thread::sleep_for(
          std::chrono::nanoseconds((next - clock.now()).nanos()));
    } else {
      // Wait in poll_interval chunks so externally requested transitions
      // keep their dispatch-boundary latency bound even while the
      // executive is idle; wake() ends a chunk early.
      while (clock.now() < next) {
        const std::uint64_t seen = wake_generation();
        mm->poll(0);
        if (mm->plan_epoch() != seen_epoch) {
          sync_mode();
          replanned = true;
          break;
        }
        boundary();
        const auto remaining =
            std::chrono::nanoseconds((next - clock.now()).nanos());
        if (remaining.count() > 0) {
          idle_wait(seen, std::min(poll, remaining));
        }
      }
    }
    if (replanned) continue;

    // Dispatch every enabled component due at (or before) `next`, highest
    // priority first (the queue is priority-sorted); each release runs to
    // completion including its downstream activations.
    for (auto* entry : mine) {
      if (!entry->enabled || entry->next_release > next) continue;
      dispatch_entry(*entry, 0, /*partitioned=*/false);
    }
  }
  if (mm != nullptr) {
    mm->retire();
    mm->end_run();
  }
}

void Launcher::run_partitioned(const Options& options) {
  const std::size_t workers = options.workers;
  RTCF_REQUIRE(
      app_.plan().partition_count == workers,
      "Launcher workers must match the application's plan partition_count "
      "(build the application with build_application(arch, mode, workers))");
  os_grants_.store(0, std::memory_order_relaxed);

  auto& clock = rtsj::SteadyClock::instance();
  const AbsoluteTime start = clock.now();
  const AbsoluteTime end = start + options.duration;

  // Component logic may throw (area exhaustion, contract violations); the
  // single-core executive propagates those to the caller, and the
  // partitioned one must match — capture the first worker failure and
  // rethrow after the join instead of letting std::terminate fire.
  std::mutex failure_mutex;
  std::exception_ptr failure;
  HookGuard hook_guard{options.mode_manager};
  if (options.mode_manager != nullptr) {
    options.mode_manager->set_structure_hook(
        [this, start](const reconfig::StructureChange& change) {
          ingest_structure_change(change, start);
        });
    options.mode_manager->begin_run(workers);
  }
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([this, w, &options, start, end, &failure_mutex,
                          &failure] {
      const rtsj::PreciseTimerScope precise_timers;
      try {
        worker_loop(w, options, start, end);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(failure_mutex);
        if (!failure) failure = std::current_exception();
      }
      // Retire on every exit path: a worker that died mid-run must not
      // strand the others at a transition rendezvous.
      if (options.mode_manager != nullptr) options.mode_manager->retire();
    });
  }
  for (auto& t : threads) t.join();
  if (options.mode_manager != nullptr) options.mode_manager->end_run();
  if (failure) std::rethrow_exception(failure);

  // Final drain: messages pushed just before the horizon by one worker may
  // still sit in a cross-partition buffer after its consumer exited. The
  // workers are joined, so the single-threaded sweep is safe. The drain
  // runs *activations* only — per-component release/deadline-miss stats
  // and telemetry release counters are written exclusively in
  // dispatch_entry, which never executes here, so nothing is aggregated
  // twice; each drained activation is recorded exactly once by the
  // consumer's timing interceptor, same as when a worker pumps it.
  // (Regression: PartitionedLauncherTest.FinalDrainAggregatesStatsOnce.)
  app_.pump();
}

void Launcher::worker_loop(std::size_t worker, const Options& options,
                           AbsoluteTime start, AbsoluteTime end) {
  auto& clock = rtsj::SteadyClock::instance();
  reconfig::ModeManager* mm = options.mode_manager;

  // This worker's release queue: its pinned periodic components in
  // priority order.
  std::vector<PeriodicEntry*> mine;
  rebuild_queue(mine, worker, /*all=*/false);
  int top_priority = 0;
  for (const auto* entry : mine) {
    top_priority = std::max(top_priority, entry->priority);
  }
  // Sporadic components pinned here also count towards the worker's OS
  // priority even though they release via activation credits.
  for (const auto& pc : app_.plan().components) {
    if (!pc.retired && pc.partition == worker && pc.thread != nullptr) {
      top_priority = std::max(top_priority, pc.thread->priority());
    }
  }
  if (options.apply_os_priorities &&
      rtsj::try_set_current_thread_priority(top_priority)) {
    os_grants_.fetch_add(1, std::memory_order_relaxed);
  }

  for (auto* entry : mine) {
    entry->anchor = start;
    entry->enabled = true;
    entry->next_release = start + entry->period;
  }
  // Per-worker release-plan swap: each worker re-reads only its own pinned
  // entries' settings when the mode manager publishes a new plan epoch —
  // always between dispatches, never mid-release. A reload additionally
  // rebuilds the queue, adopting hot-added timelines pinned to this
  // partition and dropping retired ones.
  std::uint64_t seen_epoch = 0;
  const auto sync_mode = [&] {
    if (mm == nullptr || mm->plan_epoch() == seen_epoch) return;
    seen_epoch = mm->plan_epoch();
    rebuild_queue(mine, worker, /*all=*/false);
    const AbsoluteTime now = clock.now();
    for (auto* entry : mine) {
      if (const auto* setting = mm->setting(entry->name)) {
        apply_mode_setting(*entry, *setting, now);
      }
    }
  };
  sync_mode();

  const auto poll = std::chrono::nanoseconds(
      std::max<std::int64_t>(options.poll_interval.nanos(), 1));
  const auto boundary = [&] {
    if (worker != 0 || !options.boundary_hook) return;
    options.boundary_hook();
    app_.pump_partition(worker);
  };
  for (;;) {
    if (mm != nullptr) {
      mm->poll(worker);  // dispatch boundary: the quiescence point
      sync_mode();
    }
    boundary();
    AbsoluteTime next = end;
    for (const auto* entry : mine) {
      if (!entry->enabled) continue;
      next = std::min(next, entry->next_release);
    }

    // Wait for the next local release while serving cross-worker
    // activations destined for this partition (and transition requests).
    bool replanned = false;
    while (clock.now() < next) {
      const std::uint64_t seen = wake_generation();
      if (mm != nullptr) {
        mm->poll(worker);
        if (mm->plan_epoch() != seen_epoch) {
          sync_mode();
          replanned = true;  // release set changed; recompute `next`
          break;
        }
      }
      boundary();
      const bool moved = app_.pump_partition(worker);
      if (moved) continue;
      const auto remaining =
          std::chrono::nanoseconds((next - clock.now()).nanos());
      if (remaining.count() > 0) {
        idle_wait(seen, std::min(poll, remaining));
      }
    }
    if (replanned) continue;
    if (next >= end) break;

    for (auto* entry : mine) {
      if (!entry->enabled || entry->next_release > next) continue;
      dispatch_entry(*entry, worker, /*partitioned=*/true);
    }
  }
}

void Launcher::wake() {
  {
    const std::lock_guard<std::mutex> lock(wake_mutex_);
    wake_generation_.fetch_add(1, std::memory_order_release);
  }
  wake_cv_.notify_all();
}

void Launcher::idle_wait(std::uint64_t seen, std::chrono::nanoseconds timeout) {
  std::unique_lock<std::mutex> lock(wake_mutex_);
  wake_cv_.wait_for(lock, timeout, [&] {
    return wake_generation_.load(std::memory_order_relaxed) != seen;
  });
}

const Launcher::ComponentStats& Launcher::stats(
    const std::string& component) const {
  auto it = stats_.find(component);
  RTCF_REQUIRE(it != stats_.end(),
               "no periodic component '" + component + "'");
  return it->second;
}

}  // namespace rtcf::runtime
