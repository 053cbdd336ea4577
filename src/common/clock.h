// Time helpers used throughout the library.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace cqos {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;
using Duration = Clock::duration;

inline TimePoint now() { return Clock::now(); }

/// Which clock a simulated component schedules against. It picks only the
/// clock and who drives the event loop (net/sim_network.h):
///
///   kReal    wall time (std::chrono::steady_clock), driven by a delivery
///            thread as the wall clock reaches each event — what every
///            in-process deployment (Cluster, tests, benches) runs on.
///   kVirtual discrete-event time (VirtualClock): nothing sleeps; the
///            caller's run_until() advances the clock straight to the next
///            event's timestamp, so simulated hours cost wall-clock seconds
///            and a run is a deterministic function of its seeds.
enum class TimeMode { kReal, kVirtual };

/// Discrete-event simulation clock. Starts at TimePoint{} (the epoch of the
/// steady clock's duration type, i.e. virtual t=0) and only moves forward
/// via advance_to(). Reads are lock-free so components may sample the
/// current virtual time from any thread without joining the scheduler's
/// lock order (the scheduler itself is the only writer).
class VirtualClock {
 public:
  TimePoint now() const {
    return TimePoint(Duration(ns_.load(std::memory_order_acquire)));
  }

  /// Monotone advance: moving to a timestamp in the virtual past is a no-op
  /// (events popped at equal timestamps keep the clock still).
  void advance_to(TimePoint t) {
    Duration::rep target = t.time_since_epoch().count();
    Duration::rep cur = ns_.load(std::memory_order_relaxed);
    while (cur < target &&
           !ns_.compare_exchange_weak(cur, target, std::memory_order_release,
                                      std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<Duration::rep> ns_{0};
};

inline Duration us(std::int64_t n) { return std::chrono::microseconds(n); }
inline Duration ms(std::int64_t n) { return std::chrono::milliseconds(n); }

inline double to_ms(Duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
inline double to_us(Duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

}  // namespace cqos
