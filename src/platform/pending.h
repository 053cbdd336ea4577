// Request/reply correlation table shared by both platform client runtimes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "common/sync.h"
#include "common/thread_annotations.h"
#include "platform/api.h"

namespace cqos::plat {

/// Tracks in-flight client calls keyed by request id. The client endpoint's
/// handler completes entries; callers block on the entry's gate.
class PendingCalls {
 public:
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

  /// Drop an entry after a timeout so a late reply is ignored.
  void abandon(std::uint64_t id) {
    MutexLock lk(mu_);
    calls_.erase(id);
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

 private:
  Mutex mu_;
  std::map<std::uint64_t, std::shared_ptr<Entry>> calls_ CQOS_GUARDED_BY(mu_);
  std::uint64_t next_id_ CQOS_GUARDED_BY(mu_) = 1;
};

}  // namespace cqos::plat
