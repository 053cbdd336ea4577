// Fluent assembly of CQoS endpoints, returning live lifecycle handles.
//
// Building one side of a CQoS deployment used to mean threading five
// overlapping option structs (ClientQosOptions, ServerQosOptions,
// CqosStub::Options, CactusClient::Options, CactusServer::Options) through
// four constructors in the right order. QosEndpoint collapses that into one
// builder per side:
//
//   auto server = QosEndpoint::server(platform, servant, "BankAccount")
//                     .replica(0, peer_names)
//                     .qos(config.server)
//                     .process_timeout(ms(3000))
//                     .build();
//
//   auto client = QosEndpoint::client(platform, "BankAccount")
//                     .servers(peer_names)
//                     .qos(config.client)
//                     .invoke_timeout(ms(500))
//                     .build();
//   Value v = client->call("get_balance", {});
//
// build() returns a QosEndpoint::ClientHandle / ServerHandle — a live
// object owning the endpoint's lifecycle, not just its wiring:
//
//   server->reconfigure(new_config.server);   // hot-swap under traffic
//   server->config_revision();                // monotonic revision id
//   server->drain(ms(1000));                  // wait out in-flight work
//   server->close();                          // unregister + stop
//
// reconfigure() drives the quiescence protocol of DESIGN.md §16: verify the
// new composition statically, drain in-flight requests behind the
// composite's QuiesceGate, park new arrivals, swap the handler graph with
// micro-protocol state handoff (dedup caches, retransmit windows), release.
// A composition the verifier rejects never touches traffic; an install
// failure rolls back to the prior revision.
//
// Three assembly modes mirror the paper's incremental interception levels
// (Table 1):
//   kFull   — Cactus composite + installed micro-protocol stack (default)
//   kBypass — CQoS stub/skeleton without a Cactus composite
//   kStatic — what a generated static stub/skeleton compiles to (no
//             dynamic invocation / DSI, no interception)
// reconfigure() requires kFull (the other modes have no handler graph).
//
// Micro-protocol stacks are installed through the MicroProtocolRegistry;
// callers must have populated it (micro::register_standard_micro_protocols()
// or custom add() calls) before build(). The base protocols
// (client_base/server_base) are appended automatically when missing.
//
// In kFull mode build() — and every reconfigure() — runs the static
// composition verifier (cqos/verify.h) over the stack and throws
// ConfigError with every diagnostic when the side-local analysis reports
// errors. verify(false) skips the analysis for experimental stacks;
// duplicate micro-protocol names are rejected even then.
//
// Server registration with the platform naming service is the LAST step of
// ServerBuilder::build(): a build that fails verification or installation
// never leaves a dangling name behind, and ServerHandle::close()
// unregisters it again.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cqos/cactus_client.h"
#include "cqos/cactus_server.h"
#include "cqos/config.h"
#include "cqos/platform_qos.h"
#include "cqos/reconfig.h"
#include "cqos/skeleton.h"
#include "cqos/stub.h"
#include "platform/api.h"

namespace cqos {

enum class EndpointMode { kFull, kBypass, kStatic };

class QosEndpoint {
 public:
  class ClientBuilder;
  class ServerBuilder;

  /// Lifecycle owner for one built endpoint side. Thread-safe; one
  /// reconfiguration runs at a time (concurrent calls serialize).
  class Handle {
   public:
    virtual ~Handle() = default;
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

    Side side() const { return side_; }
    EndpointMode mode() const { return mode_; }

    /// Monotonic revision id of the live composition. 1 after build();
    /// each successful reconfigure() advances it (to the pushed revision
    /// for revision-carrying updates, +1 otherwise). Never decreases.
    std::uint64_t config_revision() const;

    /// The live composition (as configured — without the auto-appended
    /// base protocol).
    std::vector<MicroProtocolSpec> current_specs() const;

    /// Hot-swap the composition to `specs` (kFull only): verify, drain,
    /// park, swap with state handoff, release. Throws ConfigError when the
    /// static verifier rejects `specs` (traffic untouched, revision
    /// unchanged), TimeoutError when the drain times out (stack unchanged),
    /// and rethrows install failures after rolling back to the prior
    /// composition. Returns the swap's timing/depth report.
    ReconfigReport reconfigure(std::vector<MicroProtocolSpec> specs);

    /// Convenience: reconfigure to this side's half of `config`.
    ReconfigReport reconfigure(const QosConfig& config);

    /// Revision-gated variant for push-based updates (ConfigWatcher,
    /// config service): applies only when `rev.revision` is newer than the
    /// live revision, adopting that revision id. Returns false (no-op)
    /// otherwise.
    bool reconfigure(const ConfigRevision& rev,
                     ReconfigReport* report = nullptr);

    /// Wait until every request currently in flight has completed, without
    /// swapping anything (arrivals park meanwhile, then release). Returns
    /// false on timeout. kBypass/kStatic endpoints are trivially drained.
    bool drain(Duration timeout);

    /// Stop admitting requests and release endpoint resources (idempotent).
    /// ServerHandle additionally unregisters its platform name.
    virtual void close();

    bool closed() const;

    /// Drain/park bounds used by reconfigure() (mutable between swaps).
    ReconfigOptions reconfig_options() const;
    void set_reconfig_options(const ReconfigOptions& opts);

   protected:
    Handle(Side side, EndpointMode mode,
           std::vector<MicroProtocolSpec> specs, bool verify);

    /// Null below kFull.
    virtual cactus::CompositeProtocol* composite() = 0;
    virtual QuiesceGate* quiesce_gate() = 0;

    ReconfigReport reconfigure_impl(std::vector<MicroProtocolSpec> specs,
                                    std::uint64_t pushed_revision);

    const Side side_;
    const EndpointMode mode_;
    const bool verify_;

    /// Serializes reconfigure()/drain()/close() against each other.
    /// reconfig_mu_ is held across the whole swap; state_mu_ only guards
    /// the snapshot fields so readers never block behind a drain.
    Mutex reconfig_mu_;
    mutable Mutex state_mu_ CQOS_ACQUIRED_AFTER(reconfig_mu_);
    std::vector<MicroProtocolSpec> specs_ CQOS_GUARDED_BY(state_mu_);
    std::uint64_t revision_ CQOS_GUARDED_BY(state_mu_) = 1;
    ReconfigOptions reconfig_opts_ CQOS_GUARDED_BY(state_mu_);
    bool closed_ CQOS_GUARDED_BY(state_mu_) = false;
  };

  /// One built client side: the stub plus whatever runtime it needed.
  /// Destruction stops the Cactus client (when one exists).
  class ClientHandle final : public Handle {
   public:
    ~ClientHandle() override;

    CqosStub& stub() { return *stub_; }
    std::shared_ptr<CqosStub> stub_ptr() { return stub_; }
    /// Null below kFull.
    CactusClient* cactus() { return cactus_.get(); }

    /// Convenience passthrough.
    Value call(const std::string& method, ValueList params) {
      return stub_->call(method, std::move(params));
    }

    void close() override;

   private:
    friend class ClientBuilder;
    ClientHandle(Side side, EndpointMode mode,
                 std::vector<MicroProtocolSpec> specs, bool verify)
        : Handle(side, mode, std::move(specs), verify) {}

    cactus::CompositeProtocol* composite() override {
      return cactus_ ? &cactus_->protocol() : nullptr;
    }
    QuiesceGate* quiesce_gate() override {
      return cactus_ ? &cactus_->reconfig_gate() : nullptr;
    }

    std::shared_ptr<CactusClient> cactus_;
    std::shared_ptr<CqosStub> stub_;
  };

  /// One built server side: the skeleton is registered with the platform by
  /// build() (strictly last, after everything fallible). Destruction stops
  /// the Cactus server (when one exists); platform shutdown stays the
  /// caller's responsibility (the platform outlives the endpoint). close()
  /// additionally unregisters the platform name.
  class ServerHandle final : public Handle {
   public:
    ~ServerHandle() override;

    /// Null below kFull.
    CactusServer* cactus() { return cactus_.get(); }
    /// Null in kStatic mode (the static skeleton is not a CQoS skeleton).
    std::shared_ptr<CqosSkeleton> skeleton() { return skeleton_; }

    /// Stop the Cactus composite (idempotent; also run by the destructor).
    /// Call after the platform shut down so draining handlers finish first.
    /// Does NOT unregister the name — that is close().
    void stop();

    /// Reject new requests, unregister the platform name, stop the
    /// composite. Idempotent.
    void close() override;

    /// The platform name this endpoint registered under.
    const std::string& registered_name() const { return registered_name_; }

   private:
    friend class ServerBuilder;
    ServerHandle(Side side, EndpointMode mode,
                 std::vector<MicroProtocolSpec> specs, bool verify)
        : Handle(side, mode, std::move(specs), verify) {}

    cactus::CompositeProtocol* composite() override {
      return cactus_ ? &cactus_->protocol() : nullptr;
    }
    QuiesceGate* quiesce_gate() override {
      return cactus_ ? &cactus_->reconfig_gate() : nullptr;
    }

    std::shared_ptr<CactusServer> cactus_;
    std::shared_ptr<CqosSkeleton> skeleton_;
    plat::Platform* platform_ = nullptr;
    std::string registered_name_;
  };

  class ClientBuilder {
   public:
    ClientBuilder(plat::Platform& platform, std::string object_id);

    /// Assembly mode (default kFull).
    ClientBuilder& mode(EndpointMode m);
    /// Platform names of the server replicas, in replica order. Default:
    /// one replica under the platform's naming convention for the mode.
    ClientBuilder& servers(std::vector<std::string> names);
    /// Derive `n` replica names from the platform naming convention.
    ClientBuilder& replicas(int n);
    /// Client-side micro-protocol stack (kFull only). client_base is
    /// appended when missing.
    ClientBuilder& qos(std::vector<MicroProtocolSpec> specs);
    /// Run the static composition verifier (verify_side) on the stack before
    /// installing it, and fail build() with every diagnostic when it reports
    /// errors (default on). verify(false) is the escape hatch for
    /// experimental stacks; duplicate micro-protocol names are rejected
    /// regardless. The setting also governs reconfigure() on the handle.
    ClientBuilder& verify(bool on);

    // Transport / QoS-interface knobs (ClientQosOptions).
    ClientBuilder& invoke_timeout(Duration d);
    ClientBuilder& resolve_timeout(Duration d);
    ClientBuilder& ping_timeout(Duration d);

    // Cactus runtime knobs (CactusClient::Options).
    ClientBuilder& request_timeout(Duration d);
    ClientBuilder& composite_name(std::string name);
    ClientBuilder& pool_threads(int n);

    // Stub knobs (CqosStub::Options).
    ClientBuilder& priority(int p);
    ClientBuilder& principal(std::string who);

    std::unique_ptr<ClientHandle> build();

   private:
    plat::Platform& platform_;
    std::string object_id_;
    EndpointMode mode_ = EndpointMode::kFull;
    std::vector<std::string> servers_;
    int replicas_ = 1;
    std::vector<MicroProtocolSpec> specs_;
    ClientQosOptions qos_opts_;
    CactusClient::Options cactus_opts_;
    CqosStub::Options stub_opts_;
    bool composite_name_set_ = false;
    bool verify_ = true;
  };

  class ServerBuilder {
   public:
    ServerBuilder(plat::Platform& platform, std::shared_ptr<Servant> servant,
                  std::string object_id);

    /// Assembly mode (default kFull).
    ServerBuilder& mode(EndpointMode m);
    /// This replica's index (0-based) and the platform names of ALL
    /// replicas, in replica order (including this one's own). Default:
    /// single replica, names derived from the naming convention.
    ServerBuilder& replica(int self_index, std::vector<std::string> peers);
    /// Single replica of an `n`-replica group, names derived from the
    /// platform naming convention.
    ServerBuilder& replica_of(int self_index, int n);
    /// Server-side micro-protocol stack (kFull only). server_base is
    /// appended when missing.
    ServerBuilder& qos(std::vector<MicroProtocolSpec> specs);
    /// Run the static composition verifier (verify_side) on the stack before
    /// installing it, and fail build() with every diagnostic when it reports
    /// errors (default on). verify(false) is the escape hatch for
    /// experimental stacks; duplicate micro-protocol names are rejected
    /// regardless. The setting also governs reconfigure() on the handle.
    ServerBuilder& verify(bool on);

    // Transport / QoS-interface knobs (ServerQosOptions).
    ServerBuilder& peer_timeout(Duration d);
    ServerBuilder& resolve_timeout(Duration d);

    // Cactus runtime knobs (CactusServer::Options).
    ServerBuilder& process_timeout(Duration d);
    ServerBuilder& composite_name(std::string name);
    ServerBuilder& pool_threads(int n);

    /// Build and register with the platform (CQoS naming in kFull/kBypass,
    /// the direct name in kStatic). Registration happens strictly after
    /// every fallible step, so a failed build leaves no name behind.
    std::unique_ptr<ServerHandle> build();

   private:
    plat::Platform& platform_;
    std::shared_ptr<Servant> servant_;
    std::string object_id_;
    EndpointMode mode_ = EndpointMode::kFull;
    int self_index_ = 0;
    std::vector<std::string> peers_;
    int replicas_ = 1;
    std::vector<MicroProtocolSpec> specs_;
    ServerQosOptions qos_opts_;
    CactusServer::Options cactus_opts_;
    bool composite_name_set_ = false;
    bool verify_ = true;
  };

  static ClientBuilder client(plat::Platform& platform, std::string object_id) {
    return ClientBuilder(platform, std::move(object_id));
  }
  static ServerBuilder server(plat::Platform& platform,
                              std::shared_ptr<Servant> servant,
                              std::string object_id) {
    return ServerBuilder(platform, std::move(servant), std::move(object_id));
  }
};

}  // namespace cqos
