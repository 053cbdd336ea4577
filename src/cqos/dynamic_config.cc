#include "cqos/dynamic_config.h"

#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "cqos/events.h"

namespace cqos {
namespace {

std::shared_ptr<AdvertisedConfig> advertised_slot(CactusServer& server) {
  return server.protocol().shared().get_or_create<AdvertisedConfig>(
      kAdvertisedConfigKey);
}

}  // namespace

void advertise_config(CactusServer& server, ConfigRevision rev) {
  auto slot = advertised_slot(server);
  bool bind_handler = false;
  {
    MutexLock lk(slot->mu);
    slot->current = std::move(rev);
    bind_handler = !slot->bound;
    slot->bound = true;
  }
  if (!bind_handler) return;
  // Bound directly on the composite (not through a micro-protocol), so the
  // handler survives a live stack swap; it re-reads the slot per fetch so
  // update_advertised_config changes are served immediately.
  server.protocol().bind(
      ev::ctl(kConfigFetchControl), "configServer",
      [slot](cactus::EventContext& ctx) {
        auto msg = ctx.dyn<ControlMsgPtr>();
        std::string serialized;
        {
          MutexLock lk(slot->mu);
          serialized = slot->current.serialize();
        }
        msg->reply = Value(std::move(serialized));
      },
      cactus::kOrderDefault);
}

bool update_advertised_config(CactusServer& server, ConfigRevision rev) {
  auto slot = advertised_slot(server);
  MutexLock lk(slot->mu);
  if (!slot->bound || rev.revision <= slot->current.revision) return false;
  slot->current = std::move(rev);
  return true;
}

ConfigRevision fetch_config_revision(plat::Platform& platform,
                                     const std::string& object_id,
                                     int replica_index, Duration timeout) {
  auto ref =
      platform.resolve(platform.replica_name(object_id, replica_index), timeout);
  plat::Reply reply =
      ref->invoke(std::string(ev::kCtlMethodPrefix) + kConfigFetchControl, {},
                  {}, timeout);
  if (!reply.ok()) {
    throw InvocationError("config bootstrap failed: " + reply.error);
  }
  if (reply.result.is_null()) {
    throw ConfigError("server advertises no configuration for " + object_id);
  }
  return ConfigRevision::parse(reply.result.as_string());
}

void bootstrap_client(CactusClient& client, plat::Platform& platform,
                      const std::string& object_id, int replica_index,
                      Duration timeout) {
  ConfigRevision rev =
      fetch_config_revision(platform, object_id, replica_index, timeout);
  // cqos-lint: allow-reconfig-seam (bootstrap install into a bare client)
  MicroProtocolRegistry::instance().install(Side::kClient, rev.config.client,
                                            client.protocol());
}

ConfigWatcher::ConfigWatcher(plat::Platform& platform, std::string object_id,
                             int replica_index, Duration period,
                             Callback on_change)
    : thread_([this, &platform, object_id = std::move(object_id),
               replica_index, period, on_change = std::move(on_change)] {
        run(platform, object_id, replica_index, period, on_change);
      }) {}

ConfigWatcher::~ConfigWatcher() {
  stop();
  if (thread_.joinable()) thread_.join();
}

void ConfigWatcher::stop() {
  MutexLock lk(mu_);
  stopped_ = true;
  cv_.notify_all();
}

void ConfigWatcher::run(plat::Platform& platform, std::string object_id,
                        int replica_index, Duration period,
                        Callback on_change) {
  for (;;) {
    {
      MutexLock lk(mu_);
      if (stopped_) return;
      cv_.wait_until(mu_, now() + period);
      if (stopped_) return;
    }
    try {
      ConfigRevision rev =
          fetch_config_revision(platform, object_id, replica_index, period);
      if (rev.revision > last_revision_.load()) {
        last_revision_.store(rev.revision);
        if (on_change) on_change(rev);
      }
    } catch (const Error& e) {
      CQOS_LOG_DEBUG("config watcher: fetch failed (", e.what(),
                     "), retrying next tick");
    }
  }
}

}  // namespace cqos
