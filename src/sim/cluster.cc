#include "sim/cluster.h"

#include "common/error.h"
#include "micro/standard.h"
#include "platform/corba/orb.h"
#include "platform/http/http.h"
#include "platform/rmi/rmi.h"

namespace cqos::sim {
namespace {

EndpointMode endpoint_mode(InterceptionLevel level, Side side) {
  switch (level) {
    case InterceptionLevel::kBaseline:
      return EndpointMode::kStatic;
    case InterceptionLevel::kStubOnly:
      // CQoS stub over the original server-side dispatch.
      return side == Side::kClient ? EndpointMode::kBypass
                                   : EndpointMode::kStatic;
    case InterceptionLevel::kStubSkeleton:
      return EndpointMode::kBypass;
    case InterceptionLevel::kPlusCactusServer:
      // Cactus server only; the client stays a bypass stub.
      return side == Side::kClient ? EndpointMode::kBypass
                                   : EndpointMode::kFull;
    case InterceptionLevel::kFull:
      return EndpointMode::kFull;
  }
  return EndpointMode::kFull;
}

}  // namespace

Cluster::Cluster(ClusterOptions opts)
    : opts_(std::move(opts)),
      net_(net::make_transport(
          opts_.transport_kind == net::TransportKind::kTcp
              ? net::TransportConfig::real_tcp(opts_.tcp)
              : net::TransportConfig::simulated(opts_.net))) {
  micro::register_standard_micro_protocols();
  if (!opts_.servant_factory) {
    throw ConfigError("ClusterOptions.servant_factory is required");
  }
  if (opts_.transport_kind == net::TransportKind::kSim &&
      opts_.net.time_mode == TimeMode::kVirtual) {
    // The cluster's callers block on wall-clock waits (pending replies,
    // Cactus timeouts) and its platforms dispatch onto real thread pools;
    // virtual time has no scheduler driving those waits. Modeled-load
    // scenarios (sim/modeled_load.h) are the virtual-mode driver.
    throw ConfigError(
        "ClusterOptions.net.time_mode: Cluster requires TimeMode::kReal "
        "(use sim/modeled_load.h for virtual-time scenarios)");
  }

  if (opts_.platform == PlatformKind::kCorba) {
    agent_ = std::make_unique<corba::SmartAgent>(*net_, "nameserver");
  } else if (opts_.platform == PlatformKind::kRmi) {
    registry_ = std::make_unique<rmi::Registry>(*net_, "nameserver");
  }
  // kHttp needs no naming service: names are URLs resolved by convention.

  for (int i = 0; i < opts_.num_replicas; ++i) {
    auto replica = std::make_unique<Replica>();
    replica->host = replica_host(i);
    replica->platform = make_platform(replica->host);
    replica->servant = opts_.servant_factory();

    QosEndpoint::ServerBuilder builder =
        QosEndpoint::server(*replica->platform, replica->servant,
                            opts_.object_id)
            .mode(endpoint_mode(opts_.level, Side::kServer))
            .replica(i, server_names(*replica->platform));
    if (endpoint_mode(opts_.level, Side::kServer) == EndpointMode::kFull) {
      // Server-side micro-protocol stack: configured specs (server_base is
      // appended by the builder when missing).
      builder.qos(opts_.server_specs_fn ? opts_.server_specs_fn(i)
                                        : opts_.qos.server)
          .composite_name("cactus-server-" + replica->host)
          .pool_threads(opts_.pool_threads)
          .process_timeout(opts_.request_timeout);
    }
    replica->endpoint = builder.build();
    replicas_.push_back(std::move(replica));
  }
}

Cluster::~Cluster() {
  // Shut platforms down first so no new requests reach the Cactus servers,
  // then stop the composites (their handlers may still be draining).
  for (auto& replica : replicas_) {
    replica->platform->shutdown();
  }
  for (auto& replica : replicas_) {
    if (replica->endpoint) replica->endpoint->stop();
  }
}

std::unique_ptr<plat::Platform> Cluster::make_platform(
    const std::string& host) {
  if (opts_.platform == PlatformKind::kCorba) {
    corba::OrbConfig cfg;
    cfg.agent_host = "nameserver";
    cfg.server_threads = opts_.platform_threads;
    cfg.dispatch_classes = opts_.platform_classes;
    if (opts_.emulate_testbed) {
      // Calibrated to reproduce Table 1's shape: the heavier ORB runtime,
      // with DII as the largest single conversion cost.
      cfg.emu_marshal_cost = us(260);
      cfg.emu_dispatch_cost = us(260);
      cfg.emu_dii_cost = us(170);
      cfg.emu_dsi_cost = us(90);
    }
    return std::make_unique<corba::CorbaOrb>(*net_, host, cfg);
  }
  if (opts_.platform == PlatformKind::kHttp) {
    http::HttpConfig cfg;
    cfg.server_threads = opts_.platform_threads;
    cfg.dispatch_classes = opts_.platform_classes;
    return std::make_unique<http::HttpPlatform>(*net_, host, cfg);
  }
  rmi::RmiConfig cfg;
  cfg.registry_host = "nameserver";
  cfg.server_threads = opts_.platform_threads;
  cfg.dispatch_classes = opts_.platform_classes;
  if (opts_.emulate_testbed) {
    cfg.emu_call_cost = us(180);
    cfg.emu_dispatch_cost = us(180);
  }
  return std::make_unique<rmi::RmiRuntime>(*net_, host, cfg);
}

std::vector<std::string> Cluster::server_names(
    const plat::Platform& platform) const {
  // Names depend on the interception level: CQoS naming for levels with a
  // CQoS skeleton, the direct name otherwise. Naming conventions are a
  // platform property, so any instance of the same platform computes them.
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(opts_.num_replicas));
  for (int i = 0; i < opts_.num_replicas; ++i) {
    if (opts_.level == InterceptionLevel::kBaseline ||
        opts_.level == InterceptionLevel::kStubOnly) {
      names.push_back(platform.direct_name(opts_.object_id));
    } else {
      names.push_back(platform.replica_name(opts_.object_id, i + 1));
    }
  }
  return names;
}

std::unique_ptr<ClientHandle> Cluster::make_client(
    CqosStub::Options stub_opts,
    const std::vector<MicroProtocolSpec>* client_specs_override) {
  auto handle = std::unique_ptr<ClientHandle>(new ClientHandle());
  std::string host = "client" + std::to_string(next_client_++);
  handle->platform_ = make_platform(host);

  EndpointMode mode = endpoint_mode(opts_.level, Side::kClient);
  QosEndpoint::ClientBuilder builder =
      QosEndpoint::client(*handle->platform_, opts_.object_id)
          .mode(mode)
          .servers(server_names(*handle->platform_))
          .invoke_timeout(opts_.invoke_timeout)
          .priority(stub_opts.priority)
          .principal(stub_opts.principal);
  if (mode == EndpointMode::kFull) {
    builder
        .qos(client_specs_override != nullptr ? *client_specs_override
                                              : opts_.qos.client)
        .composite_name("cactus-client-" + host)
        .pool_threads(opts_.pool_threads)
        .request_timeout(opts_.request_timeout);
  }
  handle->endpoint_ = builder.build();
  return handle;
}

ClientHandle::~ClientHandle() {
  endpoint_.reset();  // stops the Cactus client first
  if (platform_) platform_->shutdown();
}

net::SimNetwork& Cluster::network() {
  net::SimNetwork* sim = net_->as_sim();
  if (sim == nullptr) {
    throw ConfigError(
        "Cluster::network(): this cluster runs on the '" + net_->kind() +
        "' transport; the simulated network (fault injection, latency "
        "model) is only available with TransportKind::kSim");
  }
  return *sim;
}

void Cluster::crash_replica(int i) {
  faults().crash_host(replica_host(i));
}

void Cluster::recover_replica(int i) {
  faults().recover_host(replica_host(i));
}

}  // namespace cqos::sim
