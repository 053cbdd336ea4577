// Request/reply correlation for the platform runtime (platform/core), and
// the mark that lets it decide where a request runs (caller-runs dispatch,
// DESIGN.md §8): PendingCalls::call() marks its thread as a waiting caller
// around its send, and a server handler reached by that send on the same
// thread runs the dispatch right there (Runtime::on_server_message) instead
// of handing it to a worker while the caller parks. That inline dispatch is
// the one endpoint handler that blocks, and no longer than its caller's
// deadline (caller_deadline()); threads without the mark (the TCP loop
// thread, the simulator's delivery thread) always hand off to the pool.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "common/clock.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "platform/api.h"

namespace cqos::plat {

namespace detail {
/// Set while PendingCalls::call() sends: this thread blocks for the reply
/// next.
inline thread_local bool t_waiting_caller = false;
/// While PendingCalls::call() sends: that call's deadline, and whether a
/// servant it runs inline gave up waiting at it.
inline thread_local TimePoint t_caller_deadline = TimePoint::max();
inline thread_local bool t_caller_timed_out = false;
}  // namespace detail

/// The deadline of the call whose send is running on this thread, else
/// TimePoint::max(). A servant dispatched inline on its waiting caller's
/// thread blocks no longer: a remote caller would have timed out by then.
inline TimePoint caller_deadline() { return detail::t_caller_deadline; }

/// Called by such a servant when it gave up waiting at caller_deadline():
/// the call then fails with "timeout" whatever reply the servant sends, as
/// it would have against a servant on another thread. That timeout is what
/// tells a replicated client to stop using a server that cannot keep up.
inline void caller_timed_out() {
  if (detail::t_caller_deadline != TimePoint::max()) {
    detail::t_caller_timed_out = true;
  }
}

/// Tracks in-flight client calls keyed by request id. The client endpoint's
/// handler completes entries; call() blocks on the entry's gate.
class PendingCalls {
 public:
  /// One blocking request: open an entry, `send(id)` the request carrying
  /// that id (false: the transport refused it), wait for the reply, and drop
  /// the entry on every failure so a late reply is ignored. Failures are
  /// kUnreachable with error "send failed", "timeout" or the fail_all()
  /// reason. The deadline is fixed before the send; a request dispatched
  /// inline returns from the send only after its servant, so the call then
  /// returns the reply if one arrived, else a timeout at the later of the
  /// servant's end and the deadline. It is a timeout too if that servant
  /// called caller_timed_out().
  template <class Send>
  Reply call(Duration timeout, Send&& send) {
    TimePoint deadline = now() + timeout;
    auto [id, entry] = open();
    bool sent;
    bool timed_out;
    {
      struct Mark {
        explicit Mark(TimePoint d)
            : outer(std::exchange(detail::t_waiting_caller, true)),
              outer_deadline(std::exchange(detail::t_caller_deadline, d)),
              outer_timed_out(
                  std::exchange(detail::t_caller_timed_out, false)) {}
        ~Mark() {
          detail::t_waiting_caller = outer;
          detail::t_caller_deadline = outer_deadline;
          detail::t_caller_timed_out = outer_timed_out;
        }
        bool outer;
        TimePoint outer_deadline;
        bool outer_timed_out;
      } mark(deadline);
      sent = send(id);
      timed_out = detail::t_caller_timed_out;
    }
    if (!sent) return fail(id, "send failed");
    if (timed_out) return fail(id, "timeout");
    if (!entry->gate.wait_until(deadline)) return fail(id, "timeout");
    return std::move(entry->reply);
  }

  /// Complete a call; returns false if the id is unknown (late reply).
  bool complete(std::uint64_t id, Reply reply) {
    std::shared_ptr<Entry> entry;
    {
      MutexLock lk(mu_);
      auto it = calls_.find(id);
      if (it == calls_.end()) return false;
      entry = std::move(it->second);
      calls_.erase(it);
    }
    entry->reply = std::move(reply);
    entry->gate.set();
    return true;
  }

  /// Fail every in-flight call (used at shutdown).
  void fail_all(const std::string& reason) {
    std::map<std::uint64_t, std::shared_ptr<Entry>> taken;
    {
      MutexLock lk(mu_);
      taken.swap(calls_);
    }
    for (auto& [id, entry] : taken) {
      entry->reply.status = ReplyStatus::kUnreachable;
      entry->reply.error = reason;
      entry->gate.set();
    }
  }

  /// Entries open right now.
  std::size_t in_flight() const {
    MutexLock lk(mu_);
    return calls_.size();
  }

 private:
  struct Entry {
    Gate gate;
    Reply reply;
  };

  std::pair<std::uint64_t, std::shared_ptr<Entry>> open() {
    MutexLock lk(mu_);
    std::uint64_t id = next_id_++;
    auto entry = std::make_shared<Entry>();
    calls_.emplace(id, entry);
    return {id, entry};
  }

  Reply fail(std::uint64_t id, const char* error) {
    {
      MutexLock lk(mu_);
      calls_.erase(id);
    }
    Reply reply;
    reply.status = ReplyStatus::kUnreachable;
    reply.error = error;
    return reply;
  }

  mutable Mutex mu_;
  std::map<std::uint64_t, std::shared_ptr<Entry>> calls_ CQOS_GUARDED_BY(mu_);
  std::uint64_t next_id_ CQOS_GUARDED_BY(mu_) = 1;
};

}  // namespace cqos::plat
