#include "micro/dedup.h"

#include <optional>

namespace cqos::micro {

void mirror_outcome(Request& original, const RequestPtr& duplicate) {
  original.when_done([duplicate](Request& done) {
    duplicate->complete(done.staged_success(), done.staged_result(),
                        done.staged_error());
  });
}

cactus::Handler dedup_check_handler(std::shared_ptr<DedupState> state) {
  return [state](cactus::EventContext& ctx) {
    auto req = ctx.dyn<RequestPtr>();
    RequestPtr original;
    std::optional<DedupState::Cached> cached;
    {
      MutexLock lk(state->mu);
      if (auto hit = state->cache.find(req->id); hit != state->cache.end()) {
        cached = hit->second;
      } else if (auto [in, first] = state->inflight.emplace(req->id, req);
                 first || in->second == req) {
        return;  // first sighting, or a re-raise of our own parked request
      } else {
        original = in->second;
      }
    }
    if (cached) {
      req->complete(cached->success, std::move(cached->result),
                    std::move(cached->error));
    } else {
      // Duplicate of a request still executing: ends when the original does.
      mirror_outcome(*original, req);
    }
    ctx.halt();
  };
}

cactus::Handler dedup_store_handler(std::shared_ptr<DedupState> state) {
  return [state](cactus::EventContext& ctx) {
    auto req = ctx.dyn<RequestPtr>();
    MutexLock lk(state->mu);
    state->inflight.erase(req->id);
    if (state->cache.contains(req->id)) return;
    state->cache.emplace(req->id,
                         DedupState::Cached{req->staged_success(),
                                            req->staged_result(),
                                            req->staged_error()});
    state->cache_fifo.push_back(req->id);
    while (state->cache_fifo.size() > state->max_cache) {
      state->cache.erase(state->cache_fifo.front());
      state->cache_fifo.pop_front();
    }
  };
}

// One snapshot per bag: cache entries in FIFO (eviction) order. Merged by
// every exporter and adopted by every importer so at-most-once history
// crosses protocol boundaries (passive_rep ↔ dedup).
struct DedupSnapshot {
  std::map<std::uint64_t, DedupState::Cached> cache;
  std::deque<std::uint64_t> fifo;
};

void export_dedup_state(DedupState& state, cactus::StateBag& bag) {
  auto snap = bag.get_or_create<DedupSnapshot>(kDedupBagKey);
  MutexLock lk(state.mu);
  for (std::uint64_t id : state.cache_fifo) {
    auto it = state.cache.find(id);
    if (it == state.cache.end()) continue;
    if (snap->cache.emplace(id, it->second).second) {
      snap->fifo.push_back(id);
    }
  }
}

void import_dedup_state(const cactus::StateBag& bag, DedupState& state) {
  auto snap = bag.find<DedupSnapshot>(kDedupBagKey);
  if (snap == nullptr) return;
  MutexLock lk(state.mu);
  for (std::uint64_t id : snap->fifo) {
    auto it = snap->cache.find(id);
    if (it == snap->cache.end()) continue;
    if (state.cache.emplace(id, it->second).second) {
      state.cache_fifo.push_back(id);
    }
  }
  while (state.cache_fifo.size() > state.max_cache) {
    state.cache.erase(state.cache_fifo.front());
    state.cache_fifo.pop_front();
  }
}

void Dedup::init(cactus::CompositeProtocol& proto) {
  server_holder(proto);  // configuration check: server composites only
  state_ = proto.shared().get_or_create<DedupState>(kStateKey);
  {
    MutexLock lk(state_->mu);
    state_->max_cache = max_cache_;
  }

  bind_tracked(proto, ev::kReadyToInvoke, "dedupCheck",
               dedup_check_handler(state_), order::kDedup);
  bind_tracked(proto, ev::kInvokeReturn, "dedupStore",
               dedup_store_handler(state_), order::kStoreResult);
}

void Dedup::export_state(cactus::StateBag& bag) {
  if (state_) export_dedup_state(*state_, bag);
}

void Dedup::import_state(const cactus::StateBag& bag) {
  if (state_) import_dedup_state(bag, *state_);
}

std::unique_ptr<cactus::MicroProtocol> Dedup::make(
    const MicroProtocolSpec& spec) {
  return std::make_unique<Dedup>(
      static_cast<std::size_t>(spec.param_int("max_cache", 1024)));
}

MicroManifest Dedup::manifest() {
  return MicroManifest("dedup", Side::kServer)
      .binds(ev::kReadyToInvoke)
      .binds(ev::kInvokeReturn)
      .config("max_cache")
      .property("at-most-once");
}

}  // namespace cqos::micro
