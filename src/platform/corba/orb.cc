#include "platform/corba/orb.h"

#include <thread>

#include "common/error.h"
#include "common/log.h"
#include "common/priority.h"
#include "platform/corba/agent.h"
#include "platform/corba/cdr.h"

namespace cqos::corba {
namespace {
std::atomic<int> g_orb_instance{0};
}  // namespace

// --- CorbaRequest -------------------------------------------------------------

CorbaRequest::CorbaRequest(CorbaOrb& orb, Ior target, std::string operation)
    : orb_(orb), target_(std::move(target)), operation_(std::move(operation)) {}

void CorbaRequest::add_in_arg(const Value& v) {
  // Deep copy: insertion into an Any copies the value.
  nvlist_.push_back(NamedValue{"arg" + std::to_string(nvlist_.size()), v});
}

void CorbaRequest::set_service_context(const PiggybackMap& pb) {
  service_context_ = pb;
}

plat::Reply CorbaRequest::invoke(Duration timeout) {
  // DII: the request object is converted into the marshaled form — the
  // second conversion the paper identifies (abstract → DII → GIOP).
  orb_.emu_charge(orb_.cfg_.emu_marshal_cost + orb_.cfg_.emu_dii_cost);
  RequestBody body;
  body.operation = operation_;
  body.service_context = service_context_;
  body.params.reserve(nvlist_.size());
  for (const auto& nv : nvlist_) body.params.push_back(nv.value);
  return orb_.transact(target_, body, timeout);
}

// --- CorbaObjectRef -----------------------------------------------------------

plat::Reply CorbaObjectRef::invoke(const std::string& method,
                                   const ValueList& params,
                                   const PiggybackMap& piggyback,
                                   Duration timeout) {
  return orb_.call_static(ior_, method, params, piggyback, timeout);
}

plat::Reply CorbaObjectRef::invoke_dynamic(const std::string& method,
                                           const ValueList& params,
                                           const PiggybackMap& piggyback,
                                           Duration timeout) {
  // Genuine DII: populate a request object (copies each argument into the
  // NVList), then marshal it.
  CorbaRequest req(orb_, ior_, method);
  for (const auto& p : params) req.add_in_arg(p);
  req.set_service_context(piggyback);
  return req.invoke(timeout);
}

bool CorbaObjectRef::ping(Duration timeout) {
  return orb_.ping_target(ior_, timeout);
}

std::string CorbaObjectRef::description() const {
  return "corba:" + ior_.endpoint + "#" + ior_.object_key;
}

// --- CorbaOrb -------------------------------------------------------------------

CorbaOrb::CorbaOrb(net::Transport& network, std::string host, OrbConfig cfg)
    : network_(network),
      host_(std::move(host)),
      cfg_(std::move(cfg)),
      agent_endpoint_(SmartAgent::endpoint_for_host(cfg_.agent_host)),
      workers_(cfg_.server_threads, cfg_.dispatch_classes,
               host_ + "-orb-workers") {
  int instance = g_orb_instance.fetch_add(1);
  client_ep_ = network_.create_endpoint(host_ + "/orbcli" + std::to_string(instance));
  server_ep_ = network_.create_endpoint(host_ + "/orb" + std::to_string(instance));
  client_ep_->set_handler(
      [this](net::Message&& msg) { on_client_message(std::move(msg)); });
  server_ep_->set_handler(
      [this](net::Message&& msg) { on_server_message(std::move(msg)); });
}

CorbaOrb::~CorbaOrb() { shutdown(); }

void CorbaOrb::emu_charge(Duration d) {
  if (d <= Duration::zero()) return;
  MutexLock lk(emu_cpu_mu_);
  std::this_thread::sleep_for(d);
}

void CorbaOrb::shutdown() {
  if (shutdown_.exchange(true)) return;
  // close() waits out in-flight handlers, so none can submit to the pool
  // once it shuts down.
  client_ep_->close();
  server_ep_->close();
  workers_.shutdown();
  pending_.fail_all("orb shutdown");
}

std::string CorbaOrb::replica_name(const std::string& object_id,
                                   int replica) const {
  // Paper §4.1: POA for the i-th replica of object OID is "OID_agent_poa_i";
  // all replicas share the object id "OID_CQoS_Skeleton".
  return object_id + "_agent_poa_" + std::to_string(replica) + "/" +
         object_id + "_CQoS_Skeleton";
}

std::string CorbaOrb::direct_name(const std::string& object_id) const {
  return object_id + "_poa/" + object_id;
}

plat::Reply CorbaOrb::transact(const Ior& target, RequestBody& body,
                               Duration timeout) {
  body.reply_to = client_ep_->id();
  body.object_key = target.object_key;
  return pending_.call(timeout, [&](std::uint64_t id) {
    return network_.send(client_ep_->id(), target.endpoint,
                         encode_request(id, body));
  });
}

plat::Reply CorbaOrb::call_static(const Ior& target, const std::string& method,
                                  const ValueList& params,
                                  const PiggybackMap& pb, Duration timeout) {
  emu_charge(cfg_.emu_marshal_cost);
  RequestBody body;
  body.operation = method;
  body.service_context = pb;
  body.params = params;  // single marshal pass in transact()
  return transact(target, body, timeout);
}

bool CorbaOrb::ping_target(const Ior& target, Duration timeout) {
  return pending_.call(timeout, [&](std::uint64_t id) {
    ByteWriter w(48);
    begin_frame(w, MsgType::kPing, id);
    encode_cdr_string(w, client_ep_->id());
    finish_frame(w);
    return network_.send(client_ep_->id(), target.endpoint,
                         std::move(w).take());
  }).ok();
}

Ior CorbaOrb::agent_lookup(const std::string& poa_name,
                           const std::string& object_id, Duration timeout) {
  plat::Reply reply = pending_.call(timeout, [&](std::uint64_t id) {
    return network_.send(
        client_ep_->id(), agent_endpoint_,
        encode_agent_lookup(id, client_ep_->id(), poa_name, object_id));
  });
  if (reply.status == plat::ReplyStatus::kUnreachable) {
    throw TimeoutError("smart agent lookup failed: " + reply.error);
  }
  if (!reply.ok()) {
    throw NameNotFound(poa_name + "/" + object_id);
  }
  const ValueList& fields = reply.result.as_list();
  Ior ior;
  ior.endpoint = fields.at(0).as_string();
  ior.object_key = fields.at(1).as_string();
  return ior;
}

bool CorbaOrb::agent_register(const std::string& poa_name,
                              const std::string& object_id, const Ior& ior,
                              bool unregister, Duration timeout) {
  return pending_.call(timeout, [&](std::uint64_t id) {
    Bytes frame =
        unregister
            ? encode_agent_unregister(id, client_ep_->id(), poa_name, object_id)
            : encode_agent_register(id, client_ep_->id(), poa_name, object_id,
                                    ior);
    return network_.send(client_ep_->id(), agent_endpoint_, std::move(frame));
  }).ok();
}

std::shared_ptr<plat::ObjectRef> CorbaOrb::resolve(const std::string& name,
                                                   Duration timeout) {
  auto slash = name.find('/');
  if (slash == std::string::npos) {
    throw NameNotFound("corba names are '<poa>/<object-id>': " + name);
  }
  Ior ior = agent_lookup(name.substr(0, slash), name.substr(slash + 1), timeout);
  return std::make_shared<CorbaObjectRef>(*this, std::move(ior));
}

void CorbaOrb::register_servant(const std::string& name,
                                std::shared_ptr<plat::ServantHandler> handler,
                                plat::DispatchMode mode) {
  auto slash = name.find('/');
  if (slash == std::string::npos) {
    throw ConfigError("corba names are '<poa>/<object-id>': " + name);
  }
  {
    MutexLock lk(servants_mu_);
    servants_[name] = Registration{std::move(handler), mode};
  }
  Ior ior{server_ep_->id(), name};
  if (!agent_register(name.substr(0, slash), name.substr(slash + 1), ior,
                      /*unregister=*/false, cfg_.resolve_timeout)) {
    throw TimeoutError("smart agent registration failed for " + name);
  }
}

void CorbaOrb::unregister_servant(const std::string& name) {
  {
    MutexLock lk(servants_mu_);
    servants_.erase(name);
  }
  auto slash = name.find('/');
  if (slash == std::string::npos) return;
  agent_register(name.substr(0, slash), name.substr(slash + 1), {},
                 /*unregister=*/true, cfg_.resolve_timeout);
}

void CorbaOrb::on_client_message(net::Message&& msg) {
  net::PayloadRecycler recycle_payload(msg);
  try {
    ByteReader r(msg.payload);
    GiopHeader header = read_frame(r);
    plat::Reply reply;
    switch (header.type) {
      case MsgType::kReply: {
        ReplyBody body = decode_reply_body(r);
        reply.status = body.status == GiopReplyStatus::kNoException
                           ? plat::ReplyStatus::kOk
                           : plat::ReplyStatus::kAppError;
        reply.result = std::move(body.result);
        reply.error = std::move(body.error);
        reply.piggyback = std::move(body.service_context);
        break;
      }
      case MsgType::kPong:
      case MsgType::kAgentRegisterAck:
        reply.status = r.get_u8() != 0 ? plat::ReplyStatus::kOk
                                       : plat::ReplyStatus::kAppError;
        break;
      case MsgType::kAgentLookupReply: {
        Ior ior = decode_agent_lookup_reply(r);
        if (ior.valid()) {
          reply.status = plat::ReplyStatus::kOk;
          reply.result = Value(ValueList{Value(ior.endpoint), Value(ior.object_key)});
        } else {
          reply.status = plat::ReplyStatus::kAppError;
          reply.error = "not found";
        }
        break;
      }
      default:
        CQOS_LOG_WARN("orb client handler: unexpected message type");
        return;
    }
    pending_.complete(header.request_id, std::move(reply));
  } catch (const std::exception& e) {
    CQOS_LOG_ERROR("orb client handler: ", e.what());
  }
}

void CorbaOrb::on_server_message(net::Message&& msg) {
  net::PayloadRecycler recycle_payload(msg);
  try {
    ByteReader r(msg.payload);
    GiopHeader header = read_frame(r);
    if (header.type == MsgType::kPing) {
      std::string reply_to = decode_cdr_string(r);
      ByteWriter w(32);
      begin_frame(w, MsgType::kPong, header.request_id);
      w.put_u8(1);
      finish_frame(w);
      network_.send(server_ep_->id(), reply_to, std::move(w).take());
      return;
    }
    if (header.type != MsgType::kRequest) {
      CQOS_LOG_WARN("orb server handler: unexpected message type");
      return;
    }
    RequestBody body = decode_request_body(r);
    std::uint64_t id = header.request_id;
    // Classify by the piggybacked priority (service context) before a
    // worker is committed; legacy single-queue mode never rejects.
    int prio = plat::piggyback_priority(body.service_context,
                                        kNormalPriority);
    std::string reply_to = body.reply_to;
    auto res = plat::dispatch_request(
        workers_, prio, [this, id, body = std::move(body)]() mutable {
          dispatch_request(id, std::move(body));
        });
    if (res == cactus::SubmitResult::kRejected) {
      ReplyBody reply;
      reply.status = GiopReplyStatus::kUserException;
      reply.error = std::string(status::kOverloadRejected) +
                    ": orb dispatch queue full";
      reply.service_context[plat::kStatusPiggybackKey] =
          Value(plat::kStatusOverloadRejected);
      network_.send(server_ep_->id(), reply_to, encode_reply(id, reply));
    }
  } catch (const std::exception& e) {
    CQOS_LOG_ERROR("orb server handler: ", e.what());
  }
}

void CorbaOrb::dispatch_request(std::uint64_t request_id, RequestBody body) {
  Registration reg;
  {
    MutexLock lk(servants_mu_);
    auto it = servants_.find(body.object_key);
    if (it != servants_.end()) reg = it->second;
  }
  ReplyBody reply;
  if (!reg.handler) {
    reply.status = GiopReplyStatus::kSystemException;
    reply.error = "OBJECT_NOT_EXIST: " + body.object_key;
  } else {
    emu_charge(cfg_.emu_dispatch_cost +
               (reg.mode == plat::DispatchMode::kDsi ? cfg_.emu_dsi_cost
                                                     : Duration::zero()));
    ValueList params;
    if (reg.mode == plat::DispatchMode::kDsi) {
      // DSI: the POA hands the dynamic skeleton a ServerRequest whose
      // arguments must be extracted from Anys — an extra deep copy per
      // parameter compared to the generated-skeleton path.
      params = body.params;  // Any extraction copy
    } else {
      params = std::move(body.params);
    }
    plat::Reply out = reg.handler->handle(body.operation, std::move(params),
                                          std::move(body.service_context));
    switch (out.status) {
      case plat::ReplyStatus::kOk:
        reply.status = GiopReplyStatus::kNoException;
        reply.result = std::move(out.result);
        break;
      case plat::ReplyStatus::kAppError:
        reply.status = GiopReplyStatus::kUserException;
        reply.error = std::move(out.error);
        break;
      case plat::ReplyStatus::kUnreachable:
        reply.status = GiopReplyStatus::kSystemException;
        reply.error = std::move(out.error);
        break;
    }
    reply.service_context = std::move(out.piggyback);
  }
  network_.send(server_ep_->id(), body.reply_to,
                encode_reply(request_id, reply));
}

}  // namespace cqos::corba
