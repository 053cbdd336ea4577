// Timeliness micro-protocols (paper §3.4): service differentiation.
//
// PrioritySched — sets the executing thread's logical priority from the
//   request priority, as early as possible on readyToInvoke, so all further
//   event processing (async raises, pool scheduling) runs at that priority.
//
// QueuedSched — queues low-priority requests while high-priority requests
//   are executing:
//     checkPriority  (readyToInvoke)   — admit or park
//     notifyWaiting  (invokeReturn, last) — when no high-priority work
//        remains, raise requestReturned asynchronously at LOW thread
//        priority (the modified raise() variant) so the wakeup does not
//        interfere with the returning high-priority reply
//     wakeupNext     (requestReturned) — release one parked request
//
// TimedSched — like QueuedSched, but releases parked low-priority requests
//   (one at a time) only when the number of high-priority requests that
//   arrived in the previous period was below a threshold. Parameters:
//   period_ms (default 50), threshold (default 8), high (priority floor
//   considered "high", default kNormalPriority+1).
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <set>

#include "micro/base.h"
#include "common/sync.h"
#include "common/thread_annotations.h"

namespace cqos::micro {

class PrioritySched : public MicroBase {
 public:
  std::string_view name() const override { return "priority_sched"; }
  void init(cactus::CompositeProtocol& proto) override;

  static std::unique_ptr<cactus::MicroProtocol> make(
      const MicroProtocolSpec& spec);
  static MicroManifest manifest();
};

class QueuedSched : public MicroBase {
 public:
  explicit QueuedSched(int high_floor) : high_floor_(high_floor) {}

  std::string_view name() const override { return "queued_sched"; }
  void init(cactus::CompositeProtocol& proto) override;

  static std::unique_ptr<cactus::MicroProtocol> make(
      const MicroProtocolSpec& spec);
  static MicroManifest manifest();

  struct State {
    Mutex mu;
    int high_active CQOS_GUARDED_BY(mu) = 0;
    std::deque<RequestPtr> low_waiting CQOS_GUARDED_BY(mu);
    std::set<std::uint64_t> counted_high CQOS_GUARDED_BY(mu);  // ids currently counted as active
  };
  static constexpr const char* kStateKey = "queued_sched.state";

 private:
  int high_floor_;
};

/// Client-side deadline stamping: writes the configured budget (relative
/// milliseconds, clock-skew safe) into pbkey::kDeadline on every new request
/// so server-side layers (the admission micro-protocol) can shed work that
/// is already late before the servant is invoked.
class Deadline : public MicroBase {
 public:
  explicit Deadline(std::int64_t budget_ms) : budget_ms_(budget_ms) {}

  std::string_view name() const override { return "deadline"; }
  void init(cactus::CompositeProtocol& proto) override;

  static std::unique_ptr<cactus::MicroProtocol> make(
      const MicroProtocolSpec& spec);
  static MicroManifest manifest();

 private:
  std::int64_t budget_ms_;
};

class TimedSched : public MicroBase {
 public:
  TimedSched(int high_floor, Duration period, int threshold)
      : high_floor_(high_floor), period_(period), threshold_(threshold) {}
  ~TimedSched() override;

  std::string_view name() const override { return "timed_sched"; }
  void init(cactus::CompositeProtocol& proto) override;
  void shutdown() override;

  static std::unique_ptr<cactus::MicroProtocol> make(
      const MicroProtocolSpec& spec);
  static MicroManifest manifest();

  struct State {
    Mutex mu;
    int high_current CQOS_GUARDED_BY(mu) = 0;  // high arrivals this period
    int high_prev CQOS_GUARDED_BY(mu) = 0;     // high arrivals previous period
    std::deque<RequestPtr> low_waiting CQOS_GUARDED_BY(mu);
  };
  static constexpr const char* kStateKey = "timed_sched.state";

 private:
  static void release_one_locked(State& state,
                                 cactus::CompositeProtocol& proto)
      CQOS_REQUIRES(state.mu);

  int high_floor_;
  Duration period_;
  int threshold_;
  cactus::CompositeProtocol* proto_ = nullptr;
  /// Shared with the tick handler, which a pool thread may still be running
  /// after a reconfiguration destroyed this object.
  std::shared_ptr<std::atomic<bool>> stopped_ =
      std::make_shared<std::atomic<bool>>(false);
};

}  // namespace cqos::micro
