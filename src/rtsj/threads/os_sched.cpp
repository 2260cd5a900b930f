#include "rtsj/threads/os_sched.hpp"

#include "rtsj/threads/params.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define RTCF_HAVE_PTHREAD_SCHED 1
#include <pthread.h>
#include <sched.h>
#endif

#if defined(__linux__)
#define RTCF_HAVE_TIMER_SLACK 1
#include <sys/prctl.h>
#endif

namespace rtcf::rtsj {

int to_os_priority(int rtsj_priority) noexcept {
  if (rtsj_priority < kMinRtPriority) return 0;
  if (rtsj_priority > kMaxRtPriority) rtsj_priority = kMaxRtPriority;
  return rtsj_priority - kMinRtPriority + 1;
}

bool try_set_current_thread_priority(int rtsj_priority) noexcept {
#ifdef RTCF_HAVE_PTHREAD_SCHED
  const int level = to_os_priority(rtsj_priority);
  if (level <= 0) return false;
  sched_param param{};
  param.sched_priority = level;
  return pthread_setschedparam(pthread_self(), SCHED_FIFO, &param) == 0;
#else
  (void)rtsj_priority;
  return false;
#endif
}

PreciseTimerScope::PreciseTimerScope() noexcept {
#ifdef RTCF_HAVE_TIMER_SLACK
  // -1 is an error, 0 a thread that already has no slack (real-time
  // policy) and 1 the floor: in each case there is nothing to change.
  const long previous = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  if (previous > 1 && prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0) == 0) {
    previous_ns_ = previous;
  }
#endif
}

PreciseTimerScope::~PreciseTimerScope() {
#ifdef RTCF_HAVE_TIMER_SLACK
  if (previous_ns_ > 0) {
    prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(previous_ns_), 0, 0, 0);
  }
#endif
}

}  // namespace rtcf::rtsj
