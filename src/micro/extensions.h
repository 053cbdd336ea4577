// Extension micro-protocols (paper §3.5): the additions the paper lists as
// natural extensions of the CQoS suite, implemented with the same event
// vocabulary as the core protocols.
//
//   Retransmit       (client) — tolerate transient network failures by
//     retrying transport-failed invocations on the same replica ("it would
//     be easy to add retransmission micro-protocols"). Application errors
//     are never retried. Composes before PassiveRep's failover: a replica
//     is only failed over after the retry budget is exhausted.
//
//   FailureDetector  (client) — periodic liveness probing of all replicas
//     ("more rigorous failure detection"): crashed replicas are marked
//     failed before an invocation has to time out on them, and recovered
//     replicas are automatically rebound.
//
//   LoadBalance      (client) — round-robin assigner across non-failed
//     replicas (the intro's load-balancing property; the paper suggests
//     extending server_status() with load information).
//
//   ClientCache      (client) — answer read-only methods from a local cache
//     with a TTL; any non-cacheable (mutating) method invalidates (the
//     intro's caching property).
//
//   RequestLog       (server) — keep a log of executed state-changing
//     requests and serve it to peers ("request logging, server recovery"):
//     a recovered replica replays the suffix it missed from a live peer.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "common/sync.h"
#include "micro/base.h"
#include "common/thread_annotations.h"

namespace cqos::micro {

/// Shared retransmit window state (exposed for tests): how many retry slots
/// each (request id, replica) pair has consumed. Request ids are minted from
/// a process-global counter (including on stub-pool reset), so a window is
/// never revived by an unrelated later call; the ledger is FIFO-bounded.
struct RetransmitState {
  Mutex mu;
  std::map<std::pair<std::uint64_t, int>, int> used CQOS_GUARDED_BY(mu);
  std::deque<std::pair<std::uint64_t, int>> fifo CQOS_GUARDED_BY(mu);
  std::size_t max_windows CQOS_GUARDED_BY(mu) = 1024;
};

/// Consume one retry slot for (request, replica). Returns the 1-based
/// attempt number consumed, or 0 once `max_retries` slots are gone. Failed
/// rebinds burn their slot too, so callers loop until 0.
int consume_retry_slot(RetransmitState& state, std::uint64_t request_id,
                       int server, int max_retries);

/// Reconfiguration state handoff (DESIGN.md §16): the window ledger travels
/// in the bag so a composition swapped in mid-stream honours retry budget
/// already spent by its predecessor instead of granting duplicated-failure
/// events a fresh budget. export merges (max of slots used per window) into
/// whatever an earlier exporter wrote; import merges the same way and trims
/// FIFO-oldest down to state.max_windows.
inline constexpr const char* kRetransmitBagKey = "retransmit.windows";
void export_retransmit_state(RetransmitState& state, cactus::StateBag& bag);
void import_retransmit_state(const cactus::StateBag& bag,
                             RetransmitState& state);

class Retransmit : public MicroBase {
 public:
  /// Parameters: retries=<n> (default 2).
  explicit Retransmit(int max_retries) : max_retries_(max_retries) {}

  std::string_view name() const override { return "retransmit"; }
  void init(cactus::CompositeProtocol& proto) override;
  void export_state(cactus::StateBag& bag) override;
  void import_state(const cactus::StateBag& bag) override;

  static std::unique_ptr<cactus::MicroProtocol> make(
      const MicroProtocolSpec& spec);
  static MicroManifest manifest();

  static constexpr const char* kStateKey = "retransmit.state";

 private:
  int max_retries_;
  std::shared_ptr<RetransmitState> state_;
};

class FailureDetector : public MicroBase {
 public:
  /// Parameters: period_ms=<n> (default 50).
  explicit FailureDetector(Duration period) : period_(period) {}
  ~FailureDetector() override;

  std::string_view name() const override { return "failure_detector"; }
  void init(cactus::CompositeProtocol& proto) override;
  void shutdown() override;

  static std::unique_ptr<cactus::MicroProtocol> make(
      const MicroProtocolSpec& spec);
  static MicroManifest manifest();

 private:
  Duration period_;
  /// Shared with the heartbeat handler, which a pool thread may still be
  /// running (mid-probe) after a reconfiguration destroyed this object.
  std::shared_ptr<std::atomic<bool>> stopped_ =
      std::make_shared<std::atomic<bool>>(false);
};

class LoadBalance : public MicroBase {
 public:
  std::string_view name() const override { return "load_balance"; }
  void init(cactus::CompositeProtocol& proto) override;

  static std::unique_ptr<cactus::MicroProtocol> make(
      const MicroProtocolSpec& spec);
  static MicroManifest manifest();

  struct State {
    Mutex mu;
    int next CQOS_GUARDED_BY(mu) = 0;
  };
  static constexpr const char* kStateKey = "load_balance.state";
};

class ClientCache : public MicroBase {
 public:
  /// Parameters: methods=<m1|m2|...> (cacheable reads), ttl_ms (default 100).
  ClientCache(std::set<std::string> cacheable, Duration ttl)
      : cacheable_(std::move(cacheable)), ttl_(ttl) {}

  std::string_view name() const override { return "client_cache"; }
  void init(cactus::CompositeProtocol& proto) override;

  static std::unique_ptr<cactus::MicroProtocol> make(
      const MicroProtocolSpec& spec);
  static MicroManifest manifest();

  struct Entry {
    Value value;
    TimePoint expires;
  };
  struct State {
    Mutex mu;
    /// key: method + encoded params.
    std::map<std::string, Entry> entries CQOS_GUARDED_BY(mu);
    std::uint64_t hits CQOS_GUARDED_BY(mu) = 0;
    std::uint64_t misses CQOS_GUARDED_BY(mu) = 0;
  };
  static constexpr const char* kStateKey = "client_cache.state";

 private:
  std::set<std::string> cacheable_;
  Duration ttl_;
};

class RequestLog : public MicroBase {
 public:
  /// Parameters: reads=<m1|m2|...> — methods that do NOT change state and
  /// are therefore not logged (default: get_balance).
  explicit RequestLog(std::set<std::string> reads) : reads_(std::move(reads)) {}

  std::string_view name() const override { return "request_log"; }
  void init(cactus::CompositeProtocol& proto) override;

  static std::unique_ptr<cactus::MicroProtocol> make(
      const MicroProtocolSpec& spec);
  static MicroManifest manifest();

  struct LoggedRequest {
    std::uint64_t id;
    std::string method;
    ValueList params;
  };
  struct State {
    Mutex mu;
    std::vector<LoggedRequest> log CQOS_GUARDED_BY(mu);
  };
  static constexpr const char* kStateKey = "request_log.state";
  static constexpr const char* kSyncControl = "log_sync";

  /// Number of logged (state-changing) requests on this server.
  static std::size_t log_size(CactusServer& server);

 private:
  std::set<std::string> reads_;
};

/// Recovery helper: fetch request-log entries from `peer` starting at
/// `from` (default: this replica's own log length — the crash-recovery
/// suffix case, valid when the local log is a prefix of the peer's) and
/// re-execute them locally through the full server-side event chain.
/// Pass `from = 0` for anti-entropy when losses are interleaved rather
/// than a suffix; that mode re-offers every logged request and REQUIRES a
/// dedup micro-protocol (passive_rep) so already-executed requests are
/// answered from the result cache instead of re-executing. Returns the
/// number of requests offered for replay. Throws on unreachable peer.
std::size_t recover_from_peer(CactusServer& server, int peer,
                              std::optional<std::size_t> from = std::nullopt);

/// Parse a '|'-separated method list parameter.
std::set<std::string> parse_method_list(const std::string& value);

}  // namespace cqos::micro
