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
// The request/reply runtime and the smart-agent client are plat::Runtime's;
// the ORB adds the GIOP codec, its naming convention, DII, DSI and their
// emulated costs.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "platform/core/runtime.h"
#include "platform/corba/giop.h"

namespace cqos::corba {

struct OrbConfig : plat::RuntimeConfig {
  /// Host the smart agent runs on (endpoint "<host>/osagent").
  std::string agent_host = "nameserver";
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
  /// A request for `operation` on the object at ORB endpoint `endpoint`
  /// under adapter key `object_key` (what an IOR carries).
  CorbaRequest(CorbaOrb& orb, std::string endpoint, std::string object_key,
               std::string operation)
      : orb_(orb),
        endpoint_(std::move(endpoint)),
        object_key_(std::move(object_key)),
        operation_(std::move(operation)) {}

  /// Append an input argument (deep copy, as CORBA's Any insertion does).
  void add_in_arg(const Value& v) {
    nvlist_.emplace_back("arg" + std::to_string(nvlist_.size()), v);
  }

  /// Marshal with `service_context` and send; blocks for the reply.
  plat::Reply invoke(const PiggybackMap& service_context, Duration timeout);

 private:
  CorbaOrb& orb_;
  std::string endpoint_;
  std::string object_key_;
  std::string operation_;
  std::vector<std::pair<std::string, Value>> nvlist_;  // (name, Any)
};

class CorbaOrb : public plat::Runtime {
 public:
  CorbaOrb(net::Transport& network, const std::string& host,
           OrbConfig cfg = {});
  ~CorbaOrb() override { shutdown(); }

  std::string name() const override { return "corba"; }
  std::string replica_name(const std::string& object_id,
                           int replica) const override {
    // Paper §4.1: POA for the i-th replica of object OID is
    // "OID_agent_poa_i"; all replicas share the object id
    // "OID_CQoS_Skeleton".
    return object_id + "_agent_poa_" + std::to_string(replica) + "/" +
           object_id + "_CQoS_Skeleton";
  }
  std::string direct_name(const std::string& object_id) const override {
    return object_id + "_poa/" + object_id;
  }
  /// Checks the "<poa>/<object-id>" form, then resolves at the agent.
  std::shared_ptr<plat::ObjectRef> resolve(const std::string& name,
                                           Duration timeout) override;
  /// Checks the "<poa>/<object-id>" form, then registers with the agent.
  void register_servant(const std::string& name,
                        std::shared_ptr<plat::ServantHandler> handler,
                        plat::DispatchMode mode) override;

 protected:
  /// Genuine DII: populate a CorbaRequest (copies each argument into the
  /// NVList), then marshal it.
  plat::Reply call_dynamic(const std::string& endpoint,
                           const std::string& target,
                           const std::string& method, const ValueList& params,
                           const PiggybackMap& pb, Duration timeout) override;
  /// DSI: the POA hands the dynamic skeleton a ServerRequest whose arguments
  /// must be extracted from Anys — an extra deep copy per parameter compared
  /// to the generated-skeleton path.
  void dsi_extract(ValueList& params) override;

 private:
  friend class CorbaRequest;

  OrbConfig cfg_;
};

}  // namespace cqos::corba
