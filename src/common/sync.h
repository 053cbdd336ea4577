// Synchronization primitives for the CQoS concurrency core.
//
// Everything here is a thin, *annotated* wrapper over the standard library:
// `Mutex`/`MutexLock`/`CondVar` carry the Clang thread-safety attributes
// (see common/thread_annotations.h) so `-Wthread-safety` can prove that
// every CQOS_GUARDED_BY field is only touched under its lock. The wrappers
// cost nothing over std::mutex/std::condition_variable — CondVar adopts the
// already-held native handle for the duration of a wait.
//
// Locking discipline (see DESIGN.md "Locking discipline & analysis modes"):
//   - waits are explicit `while (!predicate) cv.wait(mu)` loops in the
//     annotated function body, never predicate lambdas (the analysis does
//     not propagate capabilities into lambdas);
//   - notify_one/notify_all are called *while holding* the mutex whenever a
//     waiter's wakeup may destroy the primitive (Gate, CountdownLatch): a
//     dropped-lock notify races a waiter that observes the final state,
//     returns, and frees the condition variable out from under notify.
#pragma once

#include <condition_variable>
#include <mutex>

#include "common/clock.h"
#include "common/thread_annotations.h"

namespace cqos {

/// Annotated exclusive mutex. Prefer MutexLock for scoped acquisition; the
/// raw lock()/unlock() entry points exist for the analysis and for CondVar.
class CQOS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() CQOS_ACQUIRE() { mu_.lock(); }
  void unlock() CQOS_RELEASE() { mu_.unlock(); }
  bool try_lock() CQOS_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII scoped lock over Mutex (the analysis tracks it as a scoped
/// capability, like std::scoped_lock for plain mutexes).
class CQOS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CQOS_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() CQOS_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to Mutex. All waits require the mutex held and
/// reacquire it before returning (annotated CQOS_REQUIRES). Zero-overhead:
/// the wait adopts the caller-held native mutex and releases the guard
/// again afterwards, so no extra lock round-trips occur.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) CQOS_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // caller still owns the lock; don't unlock in ~unique_lock
  }

  std::cv_status wait_until(Mutex& mu, TimePoint deadline) CQOS_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    std::cv_status st = cv_.wait_until(lk, deadline);
    lk.release();
    return st;
  }

  std::cv_status wait_for(Mutex& mu, Duration d) CQOS_REQUIRES(mu) {
    return wait_until(mu, now() + d);
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// One-shot gate: set() releases every current and future wait().
///
/// set() notifies while holding the lock: a waiter released by the notify
/// may destroy the Gate as soon as it can observe set_ == true (the
/// PendingCalls completion path does exactly this), so notifying after
/// unlock would touch a potentially-freed condition variable.
class Gate {
 public:
  void set() {
    MutexLock lk(mu_);
    set_ = true;
    cv_.notify_all();
  }

  bool is_set() const {
    MutexLock lk(mu_);
    return set_;
  }

  void wait() {
    MutexLock lk(mu_);
    while (!set_) cv_.wait(mu_);
  }

  /// Returns false on timeout.
  bool wait_for(Duration d) { return wait_until(now() + d); }

  /// Returns false once `deadline` has passed unset (at once if it already
  /// had on entry).
  bool wait_until(TimePoint deadline) {
    MutexLock lk(mu_);
    while (!set_) {
      if (now() >= deadline) return false;
      cv_.wait_until(mu_, deadline);
    }
    return true;
  }

 private:
  mutable Mutex mu_;
  CondVar cv_;
  bool set_ CQOS_GUARDED_BY(mu_) = false;
};

/// Counts down to zero; wait() releases when it reaches zero.
///
/// count_down() notifies under the lock for the same lifetime reason as
/// Gate::set(): the thread that observes zero may immediately destroy the
/// latch (the classic "last worker frees the barrier" pattern).
class CountdownLatch {
 public:
  explicit CountdownLatch(int count) : count_(count) {}

  void count_down() {
    MutexLock lk(mu_);
    if (count_ > 0 && --count_ == 0) cv_.notify_all();
  }

  void wait() {
    MutexLock lk(mu_);
    while (count_ != 0) cv_.wait(mu_);
  }

  bool wait_for(Duration d) {
    TimePoint deadline = now() + d;
    MutexLock lk(mu_);
    while (count_ != 0) {
      if (now() >= deadline) return false;
      cv_.wait_until(mu_, deadline);
    }
    return true;
  }

 private:
  Mutex mu_;
  CondVar cv_;
  int count_ CQOS_GUARDED_BY(mu_);
};

}  // namespace cqos
