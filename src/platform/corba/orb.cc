#include "platform/corba/orb.h"

#include "common/error.h"
#include "platform/corba/agent.h"

namespace cqos::corba {

// --- CorbaRequest -------------------------------------------------------------

plat::Reply CorbaRequest::invoke(const PiggybackMap& service_context,
                                 Duration timeout) {
  // DII: the request object is converted into the marshaled form — the
  // second conversion the paper identifies (abstract → DII → GIOP). call()
  // then charges the marshal itself.
  orb_.emu_charge(orb_.cfg_.emu_dii_cost);
  ValueList params;
  params.reserve(nvlist_.size());
  for (const auto& [name, any] : nvlist_) params.push_back(any);
  return orb_.call(endpoint_, object_key_, operation_, params,
                   service_context, timeout);
}

// --- CorbaOrb -------------------------------------------------------------------

CorbaOrb::CorbaOrb(net::Transport& network, const std::string& host,
                   OrbConfig cfg)
    : Runtime(network, host, "orb", giop_codec(), cfg,
              SmartAgent::endpoint_for_host(cfg.agent_host),
              cfg.resolve_timeout, cfg.emu_marshal_cost,
              cfg.emu_dispatch_cost),
      cfg_(std::move(cfg)) {}

plat::Reply CorbaOrb::call_dynamic(const std::string& endpoint,
                                   const std::string& target,
                                   const std::string& method,
                                   const ValueList& params,
                                   const PiggybackMap& pb, Duration timeout) {
  CorbaRequest req(*this, endpoint, target, method);
  for (const auto& p : params) req.add_in_arg(p);
  return req.invoke(pb, timeout);
}

void CorbaOrb::dsi_extract(ValueList& params) {
  emu_charge(cfg_.emu_dsi_cost);
  params = ValueList(params);  // Any extraction copy
}

std::shared_ptr<plat::ObjectRef> CorbaOrb::resolve(const std::string& name,
                                                   Duration timeout) {
  if (name.find('/') == std::string::npos) {
    throw NameNotFound("corba names are '<poa>/<object-id>': " + name);
  }
  return Runtime::resolve(name, timeout);
}

void CorbaOrb::register_servant(const std::string& name,
                                std::shared_ptr<plat::ServantHandler> handler,
                                plat::DispatchMode mode) {
  if (name.find('/') == std::string::npos) {
    throw ConfigError("corba names are '<poa>/<object-id>': " + name);
  }
  Runtime::register_servant(name, std::move(handler), mode);
}

}  // namespace cqos::corba
