// Server-side request deduplication (at-most-once execution).
//
// Retransmission (client retries), message duplication (chaos faults) and
// replica forwarding can all deliver the same request to a servant more than
// once. Without dedup, a duplicated deposit() is applied twice — the classic
// at-most-once violation the chaos soak harness checks for.
//
// The mechanism (request-id inflight map + bounded result cache) originated
// inside PassiveRepServer; this header factors it into shared handler
// factories so two micro-protocols compose it:
//
//   Dedup            — standalone "dedup" server micro-protocol for configs
//                      without replication (e.g. retransmit-only clients)
//   PassiveRepServer — binds the same factories under its own state key
//
// Handlers:
//   check (readyToInvoke, order::kDedup) — cache hit: answer and halt;
//       first sighting: record inflight and continue; concurrent duplicate:
//       halt, and complete it with the original's staged outcome when the
//       original completes (mirror_outcome).
//   store (invokeReturn, order::kStoreResult) — move the outcome into the
//       FIFO-bounded result cache.
#pragma once

#include <deque>
#include <map>
#include <memory>

#include "common/sync.h"
#include "common/thread_annotations.h"
#include "micro/base.h"

namespace cqos::micro {

/// Shared-data dedup state (exposed for tests).
struct DedupState {
  Mutex mu;
  struct Cached {
    bool success = false;
    Value result;
    std::string error;
  };
  std::map<std::uint64_t, Cached> cache CQOS_GUARDED_BY(mu);
  std::deque<std::uint64_t> cache_fifo CQOS_GUARDED_BY(mu);  // eviction order
  std::map<std::uint64_t, RequestPtr> inflight CQOS_GUARDED_BY(mu);
  std::size_t max_cache CQOS_GUARDED_BY(mu) = 1024;
};

/// readyToInvoke handler (bind at order::kDedup): answers duplicates from
/// the cache, parks concurrent duplicates on the in-flight original.
cactus::Handler dedup_check_handler(std::shared_ptr<DedupState> state);

/// Complete `duplicate` with `original`'s staged outcome once `original` is
/// done, on the thread that completes it; no thread waits in between.
void mirror_outcome(Request& original, const RequestPtr& duplicate);

/// invokeReturn handler (bind at order::kStoreResult): publishes the staged
/// outcome for future duplicates and evicts FIFO past `max_cache`.
cactus::Handler dedup_store_handler(std::shared_ptr<DedupState> state);

/// Reconfiguration state handoff (DESIGN.md §16). All at-most-once caches —
/// the standalone "dedup" protocol's AND PassiveRepServer's — travel under
/// ONE canonical bag key, so e.g. a passive_rep → retransmit+dedup
/// transition still answers a network duplicate of a pre-swap request from
/// the cache instead of re-executing it. export MERGES into any entry a
/// co-resident protocol already wrote; import merges into `state` and trims
/// FIFO-oldest down to state.max_cache. The in-flight map is NOT exported:
/// a swap only runs at quiescence (zero in-flight requests), so any residue
/// there belongs to abandoned (timed-out) requests.
inline constexpr const char* kDedupBagKey = "dedup.cache";
void export_dedup_state(DedupState& state, cactus::StateBag& bag);
void import_dedup_state(const cactus::StateBag& bag, DedupState& state);

/// Standalone server-side dedup micro-protocol ("dedup" in QosConfig).
/// Params: max_cache (default 1024) — result-cache bound.
class Dedup : public MicroBase {
 public:
  explicit Dedup(std::size_t max_cache) : max_cache_(max_cache) {}

  std::string_view name() const override { return "dedup"; }
  void init(cactus::CompositeProtocol& proto) override;
  void export_state(cactus::StateBag& bag) override;
  void import_state(const cactus::StateBag& bag) override;

  static std::unique_ptr<cactus::MicroProtocol> make(
      const MicroProtocolSpec& spec);
  static MicroManifest manifest();

  static constexpr const char* kStateKey = "dedup.server.state";

 private:
  std::size_t max_cache_;
  std::shared_ptr<DedupState> state_;
};

}  // namespace cqos::micro
