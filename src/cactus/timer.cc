#include "cactus/timer.h"

#include "common/log.h"

namespace cqos::cactus {

TimerService::TimerService() : thread_([this] { loop(); }) {}

TimerService::~TimerService() { shutdown(); }

TimerId TimerService::schedule(Duration delay, std::function<void()> fn) {
  MutexLock lk(mu_);
  if (shutdown_) return kInvalidTimer;
  TimerId id = next_id_++;
  TimePoint at = now() + delay;
  pending_.emplace(at, Entry{id, std::move(fn)});
  // The loop sleeps until wake_at_; wake it only to fire earlier.
  if (at < wake_at_) cv_.notify_one();
  return id;
}

bool TimerService::cancel(TimerId id) {
  MutexLock lk(mu_);
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (it->second.id == id) {
      pending_.erase(it);
      return true;
    }
  }
  return false;
}

void TimerService::shutdown() {
  {
    MutexLock lk(mu_);
    shutdown_ = true;
    pending_.clear();
    cv_.notify_all();
  }
  // Same drain-then-join discipline as PriorityThreadPool::shutdown: one
  // caller joins, concurrent callers block until the join completed.
  MutexLock lk(join_mu_);
  if (joined_) return;
  if (thread_.joinable()) thread_.join();
  joined_ = true;
}

void TimerService::loop() {
  for (;;) {
    Entry entry;
    bool fire = false;
    {
      MutexLock lk(mu_);
      if (shutdown_) return;
      if (pending_.empty()) {
        wake_at_ = TimePoint::max();
        cv_.wait(mu_);
      } else {
        auto first = pending_.begin();
        TimePoint deadline = first->first;
        if (now() < deadline) {
          // Re-evaluate after the wait: an earlier timer may have been
          // added or this one cancelled while we slept.
          wake_at_ = deadline;
          cv_.wait_until(mu_, deadline);
        } else {
          entry = std::move(first->second);
          pending_.erase(first);
          fire = true;
        }
      }
    }
    if (!fire) continue;
    try {
      entry.fn();
    } catch (const std::exception& e) {
      CQOS_LOG_ERROR("timer callback threw: ", e.what());
    }
  }
}

}  // namespace cqos::cactus
