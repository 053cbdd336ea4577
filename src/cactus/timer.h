// Timer service backing Cactus's delayed event raises ("the raise operation
// also supports a delay argument, which can be used to implement time-driven
// execution") and their cancellation.
//
// Callbacks run on the timer thread with no lock held, so they may freely
// call back into schedule()/cancel(). shutdown() clears pending timers
// (cancelled timers never fire) and joins the thread; a callback already
// in flight finishes first.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <thread>

#include "common/clock.h"
#include "common/sync.h"
#include "common/thread_annotations.h"

namespace cqos::cactus {

using TimerId = std::uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

class TimerService {
 public:
  TimerService();
  ~TimerService();

  TimerService(const TimerService&) = delete;
  TimerService& operator=(const TimerService&) = delete;

  /// Run `fn` after `delay`. Returns an id usable with cancel().
  TimerId schedule(Duration delay, std::function<void()> fn);

  /// Cancel a pending timer. Returns true if it had not fired yet.
  bool cancel(TimerId id);

  void shutdown();

 private:
  struct Entry {
    TimerId id;
    std::function<void()> fn;
  };

  void loop();

  Mutex mu_;
  CondVar cv_;
  std::multimap<TimePoint, Entry> pending_ CQOS_GUARDED_BY(mu_);
  TimerId next_id_ CQOS_GUARDED_BY(mu_) = 1;
  /// When the loop wakes next on its own (max: only when notified).
  TimePoint wake_at_ CQOS_GUARDED_BY(mu_) = TimePoint::max();
  bool shutdown_ CQOS_GUARDED_BY(mu_) = false;

  // Lock hierarchy: join_mu_ is only taken with mu_ released (no inversion).
  Mutex join_mu_ CQOS_ACQUIRED_AFTER(mu_);
  bool joined_ CQOS_GUARDED_BY(join_mu_) = false;
  std::thread thread_;
};

}  // namespace cqos::cactus
