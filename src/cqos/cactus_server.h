// Cactus server (paper §2.3.2): the server-side composite protocol. The CQoS
// skeleton hands it incoming invocations via process_request(); control
// messages from peer replicas (PassiveRep forwarding, TotalOrder ordering
// info) arrive through handle_control(), which raises "ctl:<name>" events.
#pragma once

#include <memory>
#include <string>

#include "cactus/composite.h"
#include "common/clock.h"
#include "cqos/qos_interface.h"
#include "cqos/reconfig.h"

namespace cqos {

class CactusServer;

/// Control message delivered from a peer replica (or a bootstrap client).
struct ControlMsg {
  std::string control;
  ValueList args;
  /// Handlers may set a reply returned to the sending peer.
  Value reply;
};
using ControlMsgPtr = std::shared_ptr<ControlMsg>;

/// Shared-data holder through which server micro-protocols reach the Cactus
/// QoS interface and the hosting CactusServer.
struct ServerQosHolder {
  ServerQosInterface* qos = nullptr;
  CactusServer* server = nullptr;
};
inline constexpr const char* kServerQosKey = "cqos.server.holder";

class CactusServer {
 public:
  struct Options {
    cactus::CompositeProtocol::Options composite = [] {
      cactus::CompositeProtocol::Options o;
      o.name = "cactus-server";
      o.pool_threads = 4;
      return o;
    }();
    /// How long a request stays parked (total order, a scheduler) before it
    /// fails with "cqos: server-side processing timed out".
    Duration process_timeout = ms(3000);
  };

  explicit CactusServer(std::unique_ptr<ServerQosInterface> qos)
      : CactusServer(std::move(qos), Options{}) {}
  CactusServer(std::unique_ptr<ServerQosInterface> qos, Options opts);
  ~CactusServer();

  CactusServer(const CactusServer&) = delete;
  CactusServer& operator=(const CactusServer&) = delete;

  cactus::CompositeProtocol& protocol() { return proto_; }
  ServerQosInterface& qos() { return *qos_; }

  /// Convenience forward for hand-assembled composites in tests/benches —
  /// live endpoints mutate their stack through
  /// QosEndpoint::Handle::reconfigure().
  void add_micro_protocol(std::unique_ptr<cactus::MicroProtocol> mp) {
    // cqos-lint: allow-reconfig-seam (the sanctioned boot-time forward)
    proto_.add_protocol(std::move(mp));
  }

  /// The paper's Cactus invoke: raise newServerRequest and return without
  /// waiting. A request the micro-protocols parked (total order, a
  /// scheduler) is returned by whichever thread completes it, or failed at
  /// process_timeout by a timer armed for it alone; returning leaves the
  /// reconfiguration gate and raises requestReturned. The caller answers
  /// from the request's completion. Called by the skeleton for client
  /// requests and by PassiveRep for forwarded requests.
  void process_request(const RequestPtr& req);

  /// Raise the control event for an incoming "__cqos.ctl.<control>" call;
  /// returns the handler-provided reply value.
  Value handle_control(const std::string& control, ValueList args);

  void stop() { proto_.stop(); }

  /// Admission gate used by live reconfiguration (reconfig.h). Requests
  /// entering process_request() pass through it; control messages take a
  /// bounded checkpoint; the reconfigure seam (QosEndpoint::Handle) drives
  /// it through drain/swap/resume.
  QuiesceGate& reconfig_gate() { return gate_; }

 private:
  void returned(const RequestPtr& req);  // once the request is done

  cactus::CompositeProtocol proto_;
  std::unique_ptr<ServerQosInterface> qos_;
  Duration process_timeout_;
  QuiesceGate gate_;
};

}  // namespace cqos
