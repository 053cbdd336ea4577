#include "cqos/platform_qos.h"

#include "common/error.h"
#include "common/log.h"
#include "cqos/events.h"

namespace cqos {

// --- PlatformClientQos ---------------------------------------------------------

PlatformClientQos::PlatformClientQos(plat::Platform& platform,
                                     std::string object_id,
                                     std::vector<std::string> server_names,
                                     ClientQosOptions opts)
    : platform_(platform), object_id_(std::move(object_id)), opts_(opts) {
  slots_.reserve(server_names.size());
  for (auto& name : server_names) {
    slots_.push_back(Slot{std::move(name), nullptr, ServerStatus::kUnknown});
  }
}

void PlatformClientQos::bind(int server) {
  std::string name;
  {
    MutexLock lk(mu_);
    name = slots_.at(static_cast<std::size_t>(server)).name;
  }
  // Resolve outside the lock: naming service round trip.
  std::shared_ptr<plat::ObjectRef> ref;
  try {
    ref = platform_.resolve(name, opts_.resolve_timeout);
  } catch (const Error&) {
    MutexLock lk(mu_);
    auto& slot = slots_.at(static_cast<std::size_t>(server));
    slot.ref = nullptr;
    slot.status = ServerStatus::kFailed;
    throw;
  }
  MutexLock lk(mu_);
  auto& slot = slots_.at(static_cast<std::size_t>(server));
  slot.ref = std::move(ref);
  slot.status = ServerStatus::kRunning;
}

ServerStatus PlatformClientQos::server_status(int server) {
  MutexLock lk(mu_);
  return slots_.at(static_cast<std::size_t>(server)).status;
}

ServerStatus PlatformClientQos::probe(int server) {
  std::shared_ptr<plat::ObjectRef> ref = ref_for(server);
  if (!ref) {
    try {
      bind(server);
    } catch (const Error&) {
      return ServerStatus::kFailed;  // bind() already marked it
    }
    ref = ref_for(server);
  }
  bool alive = ref && ref->ping(opts_.ping_timeout);
  MutexLock lk(mu_);
  auto& slot = slots_.at(static_cast<std::size_t>(server));
  slot.status = alive ? ServerStatus::kRunning : ServerStatus::kFailed;
  return slot.status;
}

void PlatformClientQos::mark_failed(int server) {
  MutexLock lk(mu_);
  auto& slot = slots_.at(static_cast<std::size_t>(server));
  slot.status = ServerStatus::kFailed;
}

std::shared_ptr<plat::ObjectRef> PlatformClientQos::ref_for(int server) {
  MutexLock lk(mu_);
  return slots_.at(static_cast<std::size_t>(server)).ref;
}

void PlatformClientQos::invoke_server(Request& req, Invocation& inv) {
  auto ref = ref_for(inv.server);
  if (!ref) {
    inv.success = false;
    inv.error = "server " + std::to_string(inv.server) + " not bound";
    return;
  }

  // Assemble the wire piggyback: the request's own piggyback plus the CQoS
  // bookkeeping fields.
  PiggybackMap pb = req.piggyback;
  pb[pbkey::kRequestId] = Value(static_cast<std::int64_t>(req.id));
  pb[pbkey::kPriority] = Value(static_cast<std::int64_t>(req.priority));

  plat::Reply reply =
      opts_.use_dynamic_invocation
          ? ref->invoke_dynamic(req.method, req.params(), pb,
                                opts_.invoke_timeout)
          : ref->invoke(req.method, req.params(), pb, opts_.invoke_timeout);

  switch (reply.status) {
    case plat::ReplyStatus::kOk:
      inv.success = true;
      inv.result = std::move(reply.result);
      inv.reply_piggyback = std::move(reply.piggyback);
      break;
    case plat::ReplyStatus::kAppError:
      inv.success = false;
      inv.error = std::move(reply.error);
      inv.reply_piggyback = std::move(reply.piggyback);
      break;
    case plat::ReplyStatus::kUnreachable:
      inv.success = false;
      inv.transport_failure = true;
      inv.error = "unreachable: " + reply.error;
      mark_failed(inv.server);
      break;
  }
}

std::string PlatformClientQos::description() const {
  return platform_.name() + " client qos for " + object_id_;
}

// --- PlatformServerQos ---------------------------------------------------------

PlatformServerQos::PlatformServerQos(plat::Platform& platform,
                                     std::shared_ptr<Servant> servant,
                                     std::string object_id,
                                     std::vector<std::string> peer_names,
                                     int self_index, ServerQosOptions opts)
    : platform_(platform),
      servant_(std::move(servant)),
      object_id_(std::move(object_id)),
      peer_names_(std::move(peer_names)),
      self_index_(self_index),
      opts_(opts),
      peer_refs_(peer_names_.size()) {}

void PlatformServerQos::invoke_servant(Request& req) {
  // Stage, don't finish: invokeReturn handlers may still transform the
  // result (encryption, signing) before the base returnReleaser completes
  // the request.
  try {
    Value result = servant_->dispatch(req.method, req.params());
    req.stage(true, std::move(result));
  } catch (const std::exception& e) {
    req.stage(false, Value(), e.what());
  }
}

bool PlatformServerQos::peer_call(int peer, const std::string& control,
                                  const ValueList& args, Value* reply) {
  if (peer == self_index_) return true;
  std::shared_ptr<plat::ObjectRef> ref;
  {
    MutexLock lk(mu_);
    ref = peer_refs_.at(static_cast<std::size_t>(peer));
  }
  if (!ref) {
    try {
      ref = platform_.resolve(peer_names_.at(static_cast<std::size_t>(peer)),
                              opts_.resolve_timeout);
    } catch (const Error& e) {
      CQOS_LOG_WARN("peer_send: cannot resolve peer ", peer, ": ", e.what());
      return false;
    }
    MutexLock lk(mu_);
    peer_refs_.at(static_cast<std::size_t>(peer)) = ref;
  }
  plat::Reply out =
      ref->invoke(std::string(ev::kCtlMethodPrefix) + control, args, {},
                  opts_.peer_timeout);
  if (out.ok() && reply != nullptr) *reply = std::move(out.result);
  return out.ok();
}

std::string PlatformServerQos::description() const {
  return platform_.name() + " server qos for " + object_id_ + " replica " +
         std::to_string(self_index_);
}

}  // namespace cqos
