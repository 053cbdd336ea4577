// Cluster: end-to-end assembly of a CQoS deployment on the simulated
// network. Stands in for the paper's testbed (client and each replica on a
// separate machine of a Linux cluster).
//
// A Cluster owns the network, the platform naming service, and N replica
// hosts; each replica host runs a platform instance, the application servant
// and (depending on the interception level) a CQoS skeleton and Cactus
// server. make_client() adds a client host with its own platform instance
// and (at the full level) a Cactus client configured from the QosConfig.
//
// The `level` option reproduces the incremental configurations of Table 1:
//   kBaseline         original platform, generated stub/skeleton only
//   kStubOnly         + CQoS stub (abstract request + dynamic invocation)
//   kStubSkeleton     + CQoS skeleton (DSI dispatch, native servant call)
//   kPlusCactusServer + Cactus server (base micro-protocols)
//   kFull             + Cactus client (base micro-protocols + configured QoS)
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cqos/config.h"
#include "cqos/endpoint.h"
#include "net/fault.h"
#include "net/sim_network.h"
#include "platform/api.h"
#include "platform/corba/agent.h"
#include "platform/rmi/registry.h"

namespace cqos::sim {

enum class PlatformKind { kCorba, kRmi, kHttp };

enum class InterceptionLevel {
  kBaseline,
  kStubOnly,
  kStubSkeleton,
  kPlusCactusServer,
  kFull,
};

struct ClusterOptions {
  PlatformKind platform = PlatformKind::kRmi;
  InterceptionLevel level = InterceptionLevel::kFull;
  int num_replicas = 1;
  std::string object_id = "BankAccount";
  /// Micro-protocol stacks. client_base/server_base are appended
  /// automatically when missing. Ignored below kPlusCactusServer.
  QosConfig qos;
  /// Optional per-replica override of the server-side stack (else
  /// qos.server everywhere). Used e.g. to install service-differentiation
  /// micro-protocols only at the TotalOrder coordinator, the paper's
  /// resolution of the ordering-vs-priority conflict (§3.4).
  std::function<std::vector<MicroProtocolSpec>(int replica)> server_specs_fn;
  /// Which transport the cluster assembles on. kSim (default) keeps the
  /// deterministic simulated network; kTcp runs the same stacks over real
  /// loopback sockets (net/tcp_transport.h). Fault injection and virtual
  /// time are simulator features — faults()/crash_replica throw on TCP.
  net::TransportKind transport_kind = net::TransportKind::kSim;
  net::NetConfig net;
  /// Read when transport_kind == kTcp.
  net::TcpOptions tcp;
  /// One servant per replica.
  std::function<std::shared_ptr<Servant>()> servant_factory;
  /// Cactus runtime options.
  int pool_threads = 4;
  Duration request_timeout = ms(3000);
  /// Per-invocation transport timeout (a lost message costs this much
  /// before invokeFailure fires — lower it when testing retransmission).
  Duration invoke_timeout = ms(1000);
  /// Platform server-side dispatch threads.
  int platform_threads = 8;
  /// Non-empty: the platform dispatch pools use these traffic classes
  /// (per-class bounded WRR queues keyed off the piggybacked cq.prio, full
  /// class queues rejected immediately with a backpressure reply).
  std::vector<cactus::TrafficClass> platform_classes;
  /// Enable the testbed-emulation cost model: the platforms charge
  /// busy-wait costs calibrated to the paper's environment (Visibroker
  /// 4.1 / JDK 1.3 / 600 MHz PIII) at the mechanism points they model
  /// (marshal, DII, DSI, dispatch). Off for tests; on in the benchmarks.
  bool emulate_testbed = false;
};

class Cluster;

/// One client host: platform instance + (optionally) Cactus client + stub.
class ClientHandle {
 public:
  ~ClientHandle();

  CqosStub& stub() { return endpoint_->stub(); }
  std::shared_ptr<CqosStub> stub_ptr() { return endpoint_->stub_ptr(); }

  /// Null below kFull.
  CactusClient* cactus_client() { return endpoint_->cactus(); }
  plat::Platform& platform() { return *platform_; }
  /// The lifecycle handle: reconfigure()/config_revision()/drain()/close().
  QosEndpoint::ClientHandle& endpoint() { return *endpoint_; }

  /// Hot-swap this client's micro-protocol stack (see
  /// QosEndpoint::Handle::reconfigure).
  ReconfigReport reconfigure(std::vector<MicroProtocolSpec> specs) {
    return endpoint_->reconfigure(std::move(specs));
  }

  /// Convenience passthrough.
  Value call(const std::string& method, ValueList params) {
    return endpoint_->call(method, std::move(params));
  }

 private:
  friend class Cluster;
  ClientHandle() = default;

  std::unique_ptr<plat::Platform> platform_;
  std::unique_ptr<QosEndpoint::ClientHandle> endpoint_;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions opts);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Add a client on its own host. `client_specs_override`, when non-null,
  /// replaces the QosConfig's client-side stack for this client.
  std::unique_ptr<ClientHandle> make_client(
      CqosStub::Options stub_opts = {},
      const std::vector<MicroProtocolSpec>* client_specs_override = nullptr);

  /// Crash / recover replica i at the network level (its host stops
  /// receiving; queued messages are lost). Convenience over faults().
  void crash_replica(int i);
  void recover_replica(int i);

  /// The transport everything runs on (either kind).
  net::Transport& transport() { return *net_; }
  /// The simulated network. Throws ConfigError when the cluster runs on
  /// TCP — fault injection and the latency model are simulator features.
  net::SimNetwork& network();
  /// The network's chaos engine: scheduled fault plans, drop/duplicate/
  /// reorder rates, partitions, crashes (net/fault.h). Simulator only.
  net::FaultController& faults() { return network().faults(); }
  const ClusterOptions& options() const { return opts_; }
  Servant& servant(int i) { return *replicas_.at(static_cast<std::size_t>(i))->servant; }
  CactusServer* cactus_server(int i) {
    return replicas_.at(static_cast<std::size_t>(i))->endpoint->cactus();
  }
  /// Replica i's lifecycle handle (reconfigure/config_revision/close).
  QosEndpoint::ServerHandle& server_handle(int i) {
    return *replicas_.at(static_cast<std::size_t>(i))->endpoint;
  }

  /// Hot-swap replica i's server-side stack. `specs_fn` style overrides
  /// (ClusterOptions::server_specs_fn) stay the caller's concern: pass the
  /// exact per-replica specs.
  ReconfigReport reconfigure_server(int i,
                                    std::vector<MicroProtocolSpec> specs) {
    return server_handle(i).reconfigure(std::move(specs));
  }

  static std::string replica_host(int i) {
    return "server" + std::to_string(i);
  }

 private:
  struct Replica {
    std::string host;
    std::unique_ptr<plat::Platform> platform;
    std::shared_ptr<Servant> servant;
    std::unique_ptr<QosEndpoint::ServerHandle> endpoint;
  };

  std::unique_ptr<plat::Platform> make_platform(const std::string& host);
  std::vector<std::string> server_names(const plat::Platform& platform) const;

  ClusterOptions opts_;
  std::unique_ptr<net::Transport> net_;
  std::unique_ptr<corba::SmartAgent> agent_;
  std::unique_ptr<rmi::Registry> registry_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  int next_client_ = 0;
};

}  // namespace cqos::sim
