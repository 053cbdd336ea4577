// Cactus client (paper §2.3.2): the client-side composite protocol hosting
// the QoS micro-protocols. The CQoS stub notifies it of a new request via
// cactus_request(), which raises the newRequest event and blocks until the
// request completes (the base resultReturner or an acceptance micro-protocol
// releases it).
#pragma once

#include <memory>

#include "cactus/composite.h"
#include "common/clock.h"
#include "cqos/qos_interface.h"
#include "cqos/reconfig.h"

namespace cqos {

class CactusClient;

/// Shared-data holder through which client micro-protocols reach the Cactus
/// QoS interface (key kClientQosKey).
struct ClientQosHolder {
  ClientQosInterface* qos = nullptr;
  CactusClient* client = nullptr;
};
inline constexpr const char* kClientQosKey = "cqos.client.holder";

class CactusClient {
 public:
  struct Options {
    cactus::CompositeProtocol::Options composite = [] {
      cactus::CompositeProtocol::Options o;
      o.name = "cactus-client";
      o.pool_threads = 4;
      return o;
    }();
    /// Upper bound on one request's end-to-end completion.
    Duration request_timeout = ms(3000);
  };

  explicit CactusClient(std::unique_ptr<ClientQosInterface> qos)
      : CactusClient(std::move(qos), Options{}) {}
  CactusClient(std::unique_ptr<ClientQosInterface> qos, Options opts);
  ~CactusClient();

  CactusClient(const CactusClient&) = delete;
  CactusClient& operator=(const CactusClient&) = delete;

  cactus::CompositeProtocol& protocol() { return proto_; }
  ClientQosInterface& qos() { return *qos_; }

  /// Admission gate used by live reconfiguration (reconfig.h). Requests
  /// entering cactus_request() pass through it; the reconfigure seam
  /// (QosEndpoint::Handle) drives it through drain/swap/resume.
  QuiesceGate& reconfig_gate() { return gate_; }

  /// Install a configured micro-protocol (convenience forward for
  /// hand-assembled composites in tests/benches — live endpoints mutate
  /// their stack through QosEndpoint::Handle::reconfigure()).
  void add_micro_protocol(std::unique_ptr<cactus::MicroProtocol> mp) {
    // cqos-lint: allow-reconfig-seam (the sanctioned boot-time forward)
    proto_.add_protocol(std::move(mp));
  }

  /// Blocking: raise newRequest and wait for the request to complete. On
  /// timeout the request is completed as a failure.
  void cactus_request(const RequestPtr& req);

  void stop() { proto_.stop(); }

 private:
  cactus::CompositeProtocol proto_;
  std::unique_ptr<ClientQosInterface> qos_;
  Duration request_timeout_;
  QuiesceGate gate_;
};

}  // namespace cqos
