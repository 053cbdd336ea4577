// CORBA-like ORB.
//
// Implements the subset of CORBA the paper's prototype relies on:
//   - POA-style registration: servants are keyed by "<poa_name>/<object_id>"
//     and advertised to the smart agent (the Visibroker osagent analogue);
//   - static invocation: one-pass CDR marshal, what a generated stub does;
//   - DII: a CorbaRequest object is first populated from abstract values
//     (NVList of deep-copied Anys) and then marshaled — the two-step
//     conversion the paper identifies as the main CQoS overhead on CORBA;
//   - DSI: servants registered in kDsi mode receive their parameters through
//     an extra Any-extraction copy, modeling the dynamic skeleton interface
//     the CQoS skeleton uses.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>

#include "cactus/thread_pool.h"
#include "net/transport.h"
#include "platform/api.h"
#include "platform/corba/giop.h"
#include "platform/pending.h"

#include "common/sync.h"
#include "common/thread_annotations.h"

namespace cqos::corba {

struct OrbConfig {
  /// Host the smart agent runs on (endpoint "<host>/osagent").
  std::string agent_host = "nameserver";
  /// Worker threads for server-side request dispatch.
  int server_threads = 8;
  /// Non-empty: traffic-class dispatch (per-class bounded WRR queues,
  /// immediate backpressure reply when a class queue is full).
  std::vector<cactus::TrafficClass> dispatch_classes;
  Duration ping_timeout = ms(60);
  Duration resolve_timeout = ms(500);

  /// Testbed-emulation cost model (all zero by default). The benchmarks set
  /// these to emulate the CPU costs of the paper's environment (Visibroker
  /// 4.1 / JDK 1.3 / 600 MHz PIII); each cost is charged as a busy-wait at
  /// the exact mechanism point it models.
  Duration emu_marshal_cost{};   // client-side static marshal, per call
  Duration emu_dii_cost{};       // extra DII request-object conversion
  Duration emu_dispatch_cost{};  // server-side unmarshal + POA dispatch
  Duration emu_dsi_cost{};       // extra DSI Any-extraction
};

class CorbaOrb;

/// DII request object, modeled on org.omg.CORBA.Request. Building one copies
/// every argument into the NVList (abstract value -> Any conversion);
/// invoke() then marshals the list into a GIOP frame.
class CorbaRequest {
 public:
  CorbaRequest(CorbaOrb& orb, Ior target, std::string operation);

  /// Append an input argument (deep copy, as CORBA's Any insertion does).
  void add_in_arg(const Value& v);
  void set_service_context(const PiggybackMap& pb);

  /// Marshal and send; blocks for the reply.
  plat::Reply invoke(Duration timeout);

 private:
  struct NamedValue {
    std::string name;
    Value value;
  };

  CorbaOrb& orb_;
  Ior target_;
  std::string operation_;
  std::vector<NamedValue> nvlist_;
  PiggybackMap service_context_;
};

class CorbaObjectRef : public plat::ObjectRef {
 public:
  CorbaObjectRef(CorbaOrb& orb, Ior ior) : orb_(orb), ior_(std::move(ior)) {}

  plat::Reply invoke(const std::string& method, const ValueList& params,
                     const PiggybackMap& piggyback, Duration timeout) override;
  plat::Reply invoke_dynamic(const std::string& method,
                             const ValueList& params,
                             const PiggybackMap& piggyback,
                             Duration timeout) override;
  bool ping(Duration timeout) override;
  std::string description() const override;

  const Ior& ior() const { return ior_; }

 private:
  CorbaOrb& orb_;
  Ior ior_;
};

class CorbaOrb : public plat::Platform {
 public:
  CorbaOrb(net::Transport& network, std::string host, OrbConfig cfg = {});
  ~CorbaOrb() override;

  CorbaOrb(const CorbaOrb&) = delete;
  CorbaOrb& operator=(const CorbaOrb&) = delete;

  // --- plat::Platform -------------------------------------------------------
  std::string name() const override { return "corba"; }
  std::string replica_name(const std::string& object_id,
                           int replica) const override;
  std::string direct_name(const std::string& object_id) const override;
  std::shared_ptr<plat::ObjectRef> resolve(const std::string& name,
                                           Duration timeout) override;
  void register_servant(const std::string& name,
                        std::shared_ptr<plat::ServantHandler> handler,
                        plat::DispatchMode mode) override;
  void unregister_servant(const std::string& name) override;
  void shutdown() override;

  const std::string& host() const { return host_; }

  /// Charge an emulated CPU cost to this host: hold the host's (emulated)
  /// CPU for `d`. Implemented as sleep-under-mutex so concurrent work on the
  /// same simulated machine serializes without burning the real core.
  void emu_charge(Duration d);

 private:
  friend class CorbaRequest;
  friend class CorbaObjectRef;

  struct Registration {
    std::shared_ptr<plat::ServantHandler> handler;
    plat::DispatchMode mode;
  };

  /// Address `body` to `target`, marshal it under its pending-call id, send
  /// it and block for the correlated reply.
  plat::Reply transact(const Ior& target, RequestBody& body, Duration timeout);
  plat::Reply call_static(const Ior& target, const std::string& method,
                          const ValueList& params, const PiggybackMap& pb,
                          Duration timeout);
  bool ping_target(const Ior& target, Duration timeout);
  Ior agent_lookup(const std::string& poa_name, const std::string& object_id,
                   Duration timeout);
  bool agent_register(const std::string& poa_name, const std::string& object_id,
                      const Ior& ior, bool unregister, Duration timeout);

  // Endpoint handlers (net::Endpoint::Handler contract): decode, then
  // complete a pending call, plat::dispatch_request() or send a reply.
  void on_client_message(net::Message&& msg);
  void on_server_message(net::Message&& msg);
  void dispatch_request(std::uint64_t request_id, RequestBody body);

  net::Transport& network_;
  std::string host_;
  OrbConfig cfg_;
  std::string agent_endpoint_;

  std::shared_ptr<net::Endpoint> client_ep_;
  std::shared_ptr<net::Endpoint> server_ep_;
  plat::PendingCalls pending_;

  Mutex servants_mu_;
  std::map<std::string, Registration> servants_
      CQOS_GUARDED_BY(servants_mu_);

  cactus::PriorityThreadPool workers_;
  Mutex emu_cpu_mu_;  // serializes the emulated-CPU critical section
  std::atomic<bool> shutdown_{false};
};

}  // namespace cqos::corba
