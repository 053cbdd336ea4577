#include "cqos/cactus_server.h"

#include "common/metrics.h"
#include "common/trace.h"
#include "cqos/events.h"

namespace cqos {
namespace {

// Default drop handler: an async activation the runtime pool could not run
// (rejected or shutting down) fails its request at once rather than leave
// it parked until the timeout (composite.cc counted the drop).
cactus::CompositeProtocol::Options with_drop_handler(
    cactus::CompositeProtocol::Options o) {
  if (!o.on_async_drop) {
    o.on_async_drop = [](std::string_view event, const std::any& dyn) {
      if (const RequestPtr* req = std::any_cast<RequestPtr>(&dyn)) {
        (*req)->complete(false, Value(),
                         "cqos: server runtime dropped '" +
                             std::string(event) +
                             "' (pool rejected or shut down)");
      }
    };
  }
  return o;
}

}  // namespace

CactusServer::CactusServer(std::unique_ptr<ServerQosInterface> qos,
                           Options opts)
    : proto_(with_drop_handler(std::move(opts.composite))),
      qos_(std::move(qos)),
      process_timeout_(opts.process_timeout) {
  auto holder = proto_.shared().get_or_create<ServerQosHolder>(kServerQosKey);
  holder->qos = qos_.get();
  holder->server = this;
}

CactusServer::~CactusServer() { stop(); }

void CactusServer::process_request(const RequestPtr& req) {
  static metrics::Histogram& hist =
      metrics::Registry::global().histogram("cqos.cactus.server.process");
  // Reconfiguration gate: see cactus_client.cc. Forwarded replica requests
  // arriving during a hot-swap park here too and execute on the new stack
  // (whose dedup state was imported, preserving at-most-once).
  if (!gate_.enter()) {
    req->complete(false, Value(),
                  "cqos: server rejected during reconfiguration (gate " +
                      std::string(gate_phase_name(gate_.phase())) + ")");
    return;
  }
  {
    trace::ScopedSpan span(req->trace_id, "cqos.cactus.server.process",
                           req->method, &hist);
    proto_.raise(ev::kNewServerRequest, req);
  }
  if (req->is_done()) return returned(req);
  // Parked until another thread releases it (ordering info, a scheduler's
  // release): that thread, or the timer, completes and returns it.
  cactus::TimerId timer = proto_.timers().schedule(process_timeout_, [req] {
    req->complete(false, Value(), "cqos: server-side processing timed out");
  });
  req->when_done([this, timer](Request& done) {
    proto_.timers().cancel(timer);
    returned(done.shared_from_this());
  });
}

void CactusServer::returned(const RequestPtr& req) {
  gate_.exit();
  // The reply is (about to be) sent back to the client; let scheduling
  // micro-protocols release queued work. Runs outside the gate: with zero
  // in-flight requests a scheduler has nothing queued, so a concurrent swap
  // is safe (the activation snapshots bindings).
  proto_.raise_async(ev::kRequestReturned, req);
}

Value CactusServer::handle_control(const std::string& control,
                                   ValueList args) {
  // Controls are never blocked during draining (in-flight requests need
  // replica forwards / ordering info to complete); they only pause for the
  // brief handler-graph surgery window.
  gate_.control_checkpoint();
  auto msg = std::make_shared<ControlMsg>();
  msg->control = control;
  msg->args = std::move(args);
  proto_.raise(ev::ctl(control), msg);
  return msg->reply;
}

}  // namespace cqos
