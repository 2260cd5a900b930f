// Mapping from RTSJ priority bands onto host OS scheduling.
//
// The paper's testbed runs the RTSJ VM over RT-Preempt Linux, where the 28
// real-time priorities map onto SCHED_FIFO. The partitioned executive's
// worker threads do the same here: each worker asks for the SCHED_FIFO
// level corresponding to the highest-priority component pinned to it.
// Hosts without CAP_SYS_NICE (developer machines, CI containers) refuse the
// request — callers treat that as a soft failure and keep running under
// SCHED_OTHER, which only weakens latency bounds, never correctness.
//
// Timer precision does not depend on that privilege. The kernel fires a
// SCHED_FIFO thread's timers with zero slack, but lets a SCHED_OTHER
// thread's timed waits end up to its timer slack late (50 µs by default on
// Linux). Every thread that waits on the node's real-time timeline — the
// executive and the distributed node's serve thread — therefore holds a
// PreciseTimerScope, so the unprivileged fallback keeps the timer
// precision of the real-time one: releases fire at their instant and idle
// waits last what they ask for.
#pragma once

namespace rtcf::rtsj {

/// Maps an RTSJ priority onto a SCHED_FIFO priority level.
///
/// The real-time band [kMinRtPriority, kMaxRtPriority] maps linearly onto
/// [1, 28]; regular Java priorities map to 0, meaning "stay SCHED_OTHER".
int to_os_priority(int rtsj_priority) noexcept;

/// Attempts to switch the *calling* OS thread to SCHED_FIFO at the level
/// `to_os_priority(rtsj_priority)`. Returns true on success; false when the
/// priority maps to 0, the platform has no POSIX scheduling API, or the
/// process lacks the privilege (EPERM) — all non-fatal.
bool try_set_current_thread_priority(int rtsj_priority) noexcept;

/// Holds the *calling* OS thread's timer slack at 1 ns, the kernel's floor
/// (PR_SET_TIMERSLACK with 0 would restore the thread's default instead),
/// and restores the previous slack on destruction. Construct it on the
/// thread that waits; a thread's slack is its own, so each thread that
/// waits on the timeline holds its own scope. A refused request, a thread
/// that already has zero slack (SCHED_FIFO), or a platform without
/// per-thread slack leaves everything untouched — a soft failure, as with
/// try_set_current_thread_priority.
class PreciseTimerScope {
 public:
  /// Reads the current slack, then sets 1 ns.
  PreciseTimerScope() noexcept;
  /// Restores the slack read at construction (if it was changed).
  ~PreciseTimerScope();
  /// Not copyable: exactly one scope restores a given slack.
  PreciseTimerScope(const PreciseTimerScope&) = delete;
  /// Not assignable.
  PreciseTimerScope& operator=(const PreciseTimerScope&) = delete;

 private:
  /// Slack to restore, in ns; 0 when nothing was changed.
  long previous_ns_ = 0;
};

}  // namespace rtcf::rtsj
