// CQoS skeleton: the server-side interceptor (paper §2.2, §4).
//
// Registered with the platform in place of the application servant (via the
// DSI-style generic dispatch on CORBA; as the proxy object on RMI). Every
// incoming invocation becomes an abstract Request handed to the Cactus
// server; control invocations ("__cqos.ctl.*") from peer replicas are routed
// to the Cactus server's control events.
//
// In bypass mode (no Cactus server attached) the skeleton natively invokes
// the servant — the "+CQoS skeleton" intermediate configuration of Table 1.
#pragma once

#include <memory>
#include <string>

#include "cqos/cactus_server.h"
#include "cqos/servant.h"
#include "platform/api.h"

namespace cqos {

class CqosSkeleton : public plat::ServantHandler {
 public:
  /// Full CQoS mode.
  CqosSkeleton(std::string object_id, std::shared_ptr<CactusServer> server);

  /// Bypass mode: direct native dispatch to the servant.
  CqosSkeleton(std::string object_id, std::shared_ptr<Servant> servant);

  /// Replies at once when the request is done on return from the Cactus
  /// server; otherwise the thread that completes it sends the reply.
  void handle(const std::string& method, ValueList params,
              PiggybackMap piggyback, plat::ReplyHandle reply) override;

  const std::string& object_id() const { return object_id_; }

 private:
  RequestPtr build_request(const std::string& method, ValueList params,
                           PiggybackMap piggyback) const;

  std::string object_id_;
  std::shared_ptr<CactusServer> server_;  // null in bypass mode
  std::shared_ptr<Servant> servant_;      // set in bypass mode
};

/// Plain (non-CQoS) adapter from a Servant to the platform's dispatch
/// interface — what an IDL-generated static skeleton compiles to. Used for
/// baseline deployments and infrastructure objects (e.g. the configuration
/// service) that do not need QoS interception themselves.
class DirectServantHandler : public plat::ServantHandler {
 public:
  explicit DirectServantHandler(std::shared_ptr<Servant> servant)
      : servant_(std::move(servant)) {}

  void handle(const std::string& method, ValueList params,
              PiggybackMap piggyback, plat::ReplyHandle reply) override;

 private:
  std::shared_ptr<Servant> servant_;
};

/// Register `skeleton` as replica `replica_index` (1-based) of its object
/// under the platform's CQoS naming convention, using the dynamic dispatch
/// path (DSI on CORBA). This is what the modified "startup" file does in the
/// paper's CORBA prototype.
void register_cqos_skeleton(plat::Platform& platform,
                            const std::shared_ptr<CqosSkeleton>& skeleton,
                            int replica_index);

}  // namespace cqos
