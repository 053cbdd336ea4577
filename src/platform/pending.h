// Request/reply correlation for the platform runtime (platform/core), and
// the mark that lets it decide where a request runs (caller-runs dispatch,
// DESIGN.md §8): PendingCalls::call() marks its thread as a waiting caller
// around its send, and a server handler reached by that send on the same
// thread runs the dispatch right there (Runtime::on_server_message) instead
// of handing it to a worker. Threads without the mark (the TCP loop thread,
// the simulator's delivery thread) always hand off to the pool.
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
}  // namespace detail

/// Tracks in-flight client calls keyed by request id. The client endpoint's
/// handler completes entries; call() blocks on the entry's gate.
class PendingCalls {
 public:
  /// One blocking request: open an entry, `send(id)` the request carrying
  /// that id (false: the transport refused it), wait for the reply until
  /// the deadline, and drop the entry on every failure so a late reply is
  /// ignored. Failures are kUnreachable with error "send failed", "timeout"
  /// or the fail_all() reason. The deadline is fixed before the send; a
  /// request dispatched inline returns from the send only after its
  /// servant replied or parked the request, so the call then returns the
  /// reply if one arrived, even past the deadline, and otherwise waits for
  /// it until the deadline like any remote call.
  template <class Send>
  Reply call(Duration timeout, Send&& send) {
    TimePoint deadline = now() + timeout;
    auto [id, entry] = open();
    bool sent;
    {
      struct Mark {
        bool outer = std::exchange(detail::t_waiting_caller, true);
        ~Mark() { detail::t_waiting_caller = outer; }
      } mark;
      sent = send(id);
    }
    if (!sent) return fail(id, "send failed");
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
