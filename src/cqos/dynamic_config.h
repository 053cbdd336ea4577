// Dynamic customization (paper §2.3.3): matching client configurations are
// loaded at execution time rather than compiled in.
//
// The paper's Cactus/J prototype boots with the rBoot micro-protocol, which
// downloads rControl (a Java archive) over a separate TCP connection, and
// rControl then loads the configured micro-protocols dynamically. Portable
// C++ cannot load new code safely at runtime, so CQoS preserves the deployed
// behaviour instead of the mechanism: the server *advertises* its required
// client configuration as data (a serialized ConfigRevision), the client
// fetches it at startup over a control invocation and resolves each
// micro-protocol name against the in-process MicroProtocolRegistry (the
// analogue of the already-loaded class path). Updates therefore only need to
// be made at the server, exactly as in the paper's deployment story.
//
// Live reconfiguration (DESIGN.md §16) extends this: the advertisement is a
// versioned ConfigRevision held in the server composite's shared data, so a
// server that hot-swaps its stack bumps the advertised revision in place
// (update_advertised_config) and a ConfigWatcher on the client side notices
// the new revision and reconfigures to match.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "common/sync.h"
#include "common/thread_annotations.h"
#include "cqos/cactus_client.h"
#include "cqos/cactus_server.h"
#include "cqos/config.h"
#include "platform/api.h"

namespace cqos {

/// Control name under which the advertised configuration is served.
inline constexpr const char* kConfigFetchControl = "cfg_fetch";

/// Shared-data slot holding the advertisement. Lives in the server
/// composite's SharedData — NOT in any micro-protocol — so it survives a
/// live stack swap and the serving control handler (also bound outside the
/// swapped stack) always answers with the current revision.
struct AdvertisedConfig {
  Mutex mu;
  ConfigRevision current CQOS_GUARDED_BY(mu);
  bool bound CQOS_GUARDED_BY(mu) = false;  // control handler installed?
};
inline constexpr const char* kAdvertisedConfigKey = "cqos.advertised_config";

/// Advertise `rev` to bootstrapping clients (the rControl-analogue on the
/// server side). First call binds the serving control handler; later calls
/// replace the advertisement unconditionally (use update_advertised_config
/// when monotonicity must be enforced).
void advertise_config(CactusServer& server, ConfigRevision rev);

/// Replace the advertisement only if `rev.revision` is strictly greater
/// than the currently advertised revision. Returns false (leaving the
/// advertisement untouched) on a stale or duplicate revision, or when
/// nothing was ever advertised.
bool update_advertised_config(CactusServer& server, ConfigRevision rev);

/// Fetch the advertised revision from replica `replica_index` (1-based) of
/// `object_id` (the rBoot-analogue on the client side). Throws on
/// unreachable server or malformed configuration. Pre-revision servers
/// (plain QosConfig text) parse as revision 0.
ConfigRevision fetch_config_revision(plat::Platform& platform,
                                     const std::string& object_id,
                                     int replica_index, Duration timeout);

/// Convenience: fetch the configuration and install its client-side
/// micro-protocols into `client`.
void bootstrap_client(CactusClient& client, plat::Platform& platform,
                      const std::string& object_id, int replica_index,
                      Duration timeout);

/// RAII poller: re-fetches the advertised revision every `period` and runs
/// `on_change` (from the watcher thread) whenever the revision number
/// increases past the last one seen. Fetch failures are ignored (the next
/// tick retries); the callback typically calls Handle::reconfigure. The
/// destructor stops the thread and joins it.
class ConfigWatcher {
 public:
  using Callback = std::function<void(const ConfigRevision&)>;

  ConfigWatcher(plat::Platform& platform, std::string object_id,
                int replica_index, Duration period, Callback on_change);
  ~ConfigWatcher();

  ConfigWatcher(const ConfigWatcher&) = delete;
  ConfigWatcher& operator=(const ConfigWatcher&) = delete;

  /// Stop polling (idempotent; also called by the destructor).
  void stop();

  /// Highest revision number observed so far (0 before the first hit).
  std::uint64_t last_revision() const { return last_revision_.load(); }

 private:
  void run(plat::Platform& platform, std::string object_id, int replica_index,
           Duration period, Callback on_change);

  std::atomic<std::uint64_t> last_revision_{0};
  Mutex mu_;
  CondVar cv_;
  bool stopped_ CQOS_GUARDED_BY(mu_) = false;
  std::thread thread_;
};

}  // namespace cqos
