#include "cqos/skeleton.h"

#include "common/error.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "cqos/events.h"

namespace cqos {
namespace {
metrics::Histogram& skeleton_handle_hist() {
  static metrics::Histogram& h =
      metrics::Registry::global().histogram("cqos.skeleton.handle");
  return h;
}

plat::Reply reply_of(const Request& req) {
  plat::Reply reply;
  if (req.succeeded()) {
    reply.status = plat::ReplyStatus::kOk;
    reply.result = req.result();
  } else {
    reply.status = plat::ReplyStatus::kAppError;
    reply.error = req.error();
  }
  reply.piggyback = req.reply_piggyback();
  // Echo the trace id so the reply leg is attributable client-side.
  if (req.trace_id != 0) {
    reply.piggyback[pbkey::kTraceId] =
        Value(static_cast<std::int64_t>(req.trace_id));
  }
  return reply;
}
}  // namespace

CqosSkeleton::CqosSkeleton(std::string object_id,
                           std::shared_ptr<CactusServer> server)
    : object_id_(std::move(object_id)), server_(std::move(server)) {}

CqosSkeleton::CqosSkeleton(std::string object_id,
                           std::shared_ptr<Servant> servant)
    : object_id_(std::move(object_id)), servant_(std::move(servant)) {}

RequestPtr CqosSkeleton::build_request(const std::string& method,
                                       ValueList params,
                                       PiggybackMap piggyback) const {
  auto req = std::make_shared<Request>();
  req->object_id = object_id_;
  req->method = method;
  req->set_params(std::move(params));
  auto id_it = piggyback.find(pbkey::kRequestId);
  req->id = id_it != piggyback.end()
                ? static_cast<std::uint64_t>(id_it->second.as_i64())
                : Request::next_id();
  req->priority = plat::piggyback_priority(piggyback, req->priority);
  auto trace_it = piggyback.find(pbkey::kTraceId);
  if (trace_it != piggyback.end()) {
    req->trace_id = static_cast<std::uint64_t>(trace_it->second.as_i64());
  }
  // The client stamps a *relative* budget (clock-skew safe); anchor it to
  // the arrival time so server-side layers can shed already-late work.
  auto dl_it = piggyback.find(pbkey::kDeadline);
  if (dl_it != piggyback.end()) {
    std::int64_t budget_ms = dl_it->second.as_i64();
    if (budget_ms > 0) req->deadline = now() + ms(budget_ms);
  }
  req->piggyback = std::move(piggyback);
  return req;
}

void CqosSkeleton::handle(const std::string& method, ValueList params,
                          PiggybackMap piggyback, plat::ReplyHandle reply) {
  // Replica-to-replica (and bootstrap) control path.
  if (method.starts_with(ev::kCtlMethodPrefix)) {
    plat::Reply out;
    if (!server_) {
      out.status = plat::ReplyStatus::kAppError;
      out.error = "no cactus server attached";
    } else {
      std::string control = method.substr(ev::kCtlMethodPrefix.size());
      out.status = plat::ReplyStatus::kOk;
      out.result = server_->handle_control(control, std::move(params));
    }
    return reply.send(std::move(out));
  }

  RequestPtr req = build_request(method, std::move(params), std::move(piggyback));

  {
    trace::ScopedSpan span(req->trace_id, "cqos.skeleton.handle", method,
                           &skeleton_handle_hist());
    if (server_) {
      server_->process_request(req);
    } else {
      // Bypass: native invocation of the servant.
      try {
        Value result = servant_->dispatch(req->method, req->params());
        req->complete(true, std::move(result));
      } catch (const std::exception& e) {
        req->complete(false, Value(), e.what());
      }
    }
  }

  if (!req->is_done()) {
    // Parked: the reply goes out from the request's completion.
    auto parked = std::make_shared<plat::ReplyHandle>(std::move(reply));
    req->when_done(
        [parked](Request& done) { parked->send(reply_of(done)); });
    return;
  }
  reply.send(reply_of(*req));
}

void DirectServantHandler::handle(const std::string& method, ValueList params,
                                  PiggybackMap piggyback,
                                  plat::ReplyHandle reply) {
  (void)piggyback;
  plat::Reply out;
  try {
    out.result = servant_->dispatch(method, params);
    out.status = plat::ReplyStatus::kOk;
  } catch (const std::exception& e) {
    out.status = plat::ReplyStatus::kAppError;
    out.error = e.what();
  }
  reply.send(std::move(out));
}

void register_cqos_skeleton(plat::Platform& platform,
                            const std::shared_ptr<CqosSkeleton>& skeleton,
                            int replica_index) {
  platform.register_servant(
      platform.replica_name(skeleton->object_id(), replica_index), skeleton,
      plat::DispatchMode::kDsi);
}

}  // namespace cqos
