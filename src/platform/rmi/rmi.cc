#include "platform/rmi/rmi.h"

#include <thread>

#include "common/error.h"
#include "common/log.h"
#include "common/priority.h"
#include "platform/rmi/registry.h"

namespace cqos::rmi {
namespace {
std::atomic<int> g_rmi_instance{0};
}  // namespace

// --- RmiObjectRef --------------------------------------------------------------

plat::Reply RmiObjectRef::invoke(const std::string& method,
                                 const ValueList& params,
                                 const PiggybackMap& piggyback,
                                 Duration timeout) {
  return runtime_.call(endpoint_, name_, method, params, piggyback, timeout);
}

bool RmiObjectRef::ping(Duration timeout) {
  return runtime_.ping_endpoint(endpoint_, timeout);
}

std::string RmiObjectRef::description() const {
  return "rmi:" + endpoint_ + "#" + name_;
}

// --- RmiRuntime ----------------------------------------------------------------

RmiRuntime::RmiRuntime(net::Transport& network, std::string host, RmiConfig cfg)
    : network_(network),
      host_(std::move(host)),
      cfg_(std::move(cfg)),
      registry_endpoint_(Registry::endpoint_for_host(cfg_.registry_host)),
      workers_(cfg_.server_threads, cfg_.dispatch_classes,
               host_ + "-rmi-workers") {
  int instance = g_rmi_instance.fetch_add(1);
  client_ep_ = network_.create_endpoint(host_ + "/rmicli" + std::to_string(instance));
  server_ep_ = network_.create_endpoint(host_ + "/rmi" + std::to_string(instance));
  client_ep_->set_handler(
      [this](net::Message&& msg) { on_client_message(std::move(msg)); });
  server_ep_->set_handler(
      [this](net::Message&& msg) { on_server_message(std::move(msg)); });
}

RmiRuntime::~RmiRuntime() { shutdown(); }

void RmiRuntime::emu_charge(Duration d) {
  if (d <= Duration::zero()) return;
  MutexLock lk(emu_cpu_mu_);
  std::this_thread::sleep_for(d);
}

void RmiRuntime::shutdown() {
  if (shutdown_.exchange(true)) return;
  // close() waits out in-flight handlers, so none can submit to the pool
  // once it shuts down.
  client_ep_->close();
  server_ep_->close();
  workers_.shutdown();
  pending_.fail_all("rmi shutdown");
}

plat::Reply RmiRuntime::call(const std::string& endpoint,
                             const std::string& target,
                             const std::string& method,
                             const ValueList& params, const PiggybackMap& pb,
                             Duration timeout) {
  emu_charge(cfg_.emu_call_cost);
  CallBody body;
  body.reply_to = client_ep_->id();
  body.target = target;
  body.method = method;
  body.piggyback = pb;
  body.params = params;
  return pending_.call(timeout, [&](std::uint64_t id) {
    return network_.send(client_ep_->id(), endpoint, encode_call(id, body));
  });
}

bool RmiRuntime::ping_endpoint(const std::string& endpoint, Duration timeout) {
  return pending_.call(timeout, [&](std::uint64_t id) {
    ByteWriter w(48);
    begin_message(w, MsgType::kPing, id);
    w.put_string(client_ep_->id());
    return network_.send(client_ep_->id(), endpoint, std::move(w).take());
  }).ok();
}

bool RmiRuntime::registry_op(MsgType type, const std::string& name,
                             const std::string& target, Duration timeout,
                             std::string* resolved) {
  plat::Reply reply = pending_.call(timeout, [&](std::uint64_t id) {
    ByteWriter w(96);
    begin_message(w, type, id);
    w.put_string(client_ep_->id());
    w.put_string(name);
    if (type == MsgType::kRegBind) w.put_string(target);
    return network_.send(client_ep_->id(), registry_endpoint_,
                         std::move(w).take());
  });
  if (!reply.ok()) return false;
  if (resolved != nullptr) *resolved = reply.result.as_string();
  return true;
}

std::shared_ptr<plat::ObjectRef> RmiRuntime::resolve(const std::string& name,
                                                     Duration timeout) {
  std::string endpoint;
  if (!registry_op(MsgType::kRegLookup, name, "", timeout, &endpoint)) {
    throw NameNotFound(name);
  }
  return std::make_shared<RmiObjectRef>(*this, name, endpoint);
}

void RmiRuntime::register_servant(const std::string& name,
                                  std::shared_ptr<plat::ServantHandler> handler,
                                  plat::DispatchMode mode) {
  // RMI has no DSI/static distinction; the mode is accepted for interface
  // parity and ignored.
  (void)mode;
  {
    MutexLock lk(servants_mu_);
    servants_[name] = std::move(handler);
  }
  if (!registry_op(MsgType::kRegBind, name, server_ep_->id(),
                   cfg_.resolve_timeout, nullptr)) {
    throw TimeoutError("rmi registry bind failed for " + name);
  }
}

void RmiRuntime::unregister_servant(const std::string& name) {
  {
    MutexLock lk(servants_mu_);
    servants_.erase(name);
  }
  registry_op(MsgType::kRegUnbind, name, "", cfg_.resolve_timeout, nullptr);
}

void RmiRuntime::on_client_message(net::Message&& msg) {
  net::PayloadRecycler recycle_payload(msg);
  try {
    ByteReader r(msg.payload);
    Header h = read_header(r);
    plat::Reply reply;
    switch (h.type) {
      case MsgType::kReturn: {
        ReturnBody body = decode_return_body(r);
        reply.status = body.ok ? plat::ReplyStatus::kOk
                               : plat::ReplyStatus::kAppError;
        reply.result = std::move(body.result);
        reply.error = std::move(body.error);
        reply.piggyback = std::move(body.piggyback);
        break;
      }
      case MsgType::kPong:
      case MsgType::kRegAck:
        reply.status = r.get_u8() != 0 ? plat::ReplyStatus::kOk
                                       : plat::ReplyStatus::kAppError;
        break;
      case MsgType::kRegReply: {
        if (r.get_u8() != 0) {
          reply.status = plat::ReplyStatus::kOk;
          reply.result = Value(r.get_string());
        } else {
          reply.status = plat::ReplyStatus::kAppError;
          reply.error = "not bound";
        }
        break;
      }
      default:
        CQOS_LOG_WARN("rmi client handler: unexpected message type");
        return;
    }
    pending_.complete(h.call_id, std::move(reply));
  } catch (const std::exception& e) {
    CQOS_LOG_ERROR("rmi client handler: ", e.what());
  }
}

void RmiRuntime::on_server_message(net::Message&& msg) {
  net::PayloadRecycler recycle_payload(msg);
  try {
    ByteReader r(msg.payload);
    Header h = read_header(r);
    if (h.type == MsgType::kPing) {
      std::string reply_to = r.get_string();
      ByteWriter w(16);
      begin_message(w, MsgType::kPong, h.call_id);
      w.put_u8(1);
      network_.send(server_ep_->id(), reply_to, std::move(w).take());
      return;
    }
    if (h.type != MsgType::kCall) {
      CQOS_LOG_WARN("rmi server handler: unexpected message type");
      return;
    }
    CallBody body = decode_call_body(r);
    std::uint64_t id = h.call_id;
    // Classify before committing a worker: the piggybacked priority maps
    // the call into a traffic class of the dispatch pool (no-op in legacy
    // single-queue mode).
    int prio = plat::piggyback_priority(body.piggyback, kNormalPriority);
    std::string reply_to = body.reply_to;
    auto res = plat::dispatch_request(
        workers_, prio, [this, id, body = std::move(body)]() mutable {
          dispatch_call(id, std::move(body));
        });
    if (res == cactus::SubmitResult::kRejected) {
      // Early reject: an immediate backpressure reply instead of letting
      // the client burn its full timeout against a saturated queue.
      ReturnBody ret;
      ret.ok = false;
      ret.error = std::string(status::kOverloadRejected) +
                  ": rmi dispatch queue full";
      ret.piggyback[plat::kStatusPiggybackKey] =
          Value(plat::kStatusOverloadRejected);
      network_.send(server_ep_->id(), reply_to, encode_return(id, ret));
    }
  } catch (const std::exception& e) {
    CQOS_LOG_ERROR("rmi server handler: ", e.what());
  }
}

void RmiRuntime::dispatch_call(std::uint64_t call_id, CallBody body) {
  std::shared_ptr<plat::ServantHandler> handler;
  {
    MutexLock lk(servants_mu_);
    auto it = servants_.find(body.target);
    if (it != servants_.end()) handler = it->second;
  }
  ReturnBody ret;
  if (!handler) {
    ret.ok = false;
    ret.error = "NoSuchObjectException: " + body.target;
  } else {
    emu_charge(cfg_.emu_dispatch_cost);
    plat::Reply out = handler->handle(body.method, std::move(body.params),
                                      std::move(body.piggyback));
    if (out.ok()) {
      ret.ok = true;
      ret.result = std::move(out.result);
    } else {
      ret.ok = false;
      ret.error = std::move(out.error);
    }
    ret.piggyback = std::move(out.piggyback);
  }
  network_.send(server_ep_->id(), body.reply_to, encode_return(call_id, ret));
}

}  // namespace cqos::rmi
