#include "cqos/stub.h"

#include "common/error.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace cqos {
namespace {
constexpr std::size_t kMaxPooledRequests = 16;

metrics::Histogram& stub_call_hist() {
  static metrics::Histogram& h =
      metrics::Registry::global().histogram("cqos.stub.call");
  return h;
}
}  // namespace

CqosStub::CqosStub(std::shared_ptr<CactusClient> client, std::string object_id,
                   Options opts)
    : client_(std::move(client)),
      object_id_(std::move(object_id)),
      opts_(std::move(opts)) {}

CqosStub::CqosStub(std::shared_ptr<ClientQosInterface> direct,
                   std::string object_id, Options opts)
    : direct_(std::move(direct)),
      object_id_(std::move(object_id)),
      opts_(std::move(opts)) {}

RequestPtr CqosStub::acquire(const std::string& method, ValueList params) {
  {
    MutexLock lk(pool_mu_);
    for (auto it = pool_.begin(); it != pool_.end(); ++it) {
      // Only reuse structures no concurrent invocation still references.
      if (it->use_count() != 1) continue;
      RequestPtr req = std::move(*it);
      pool_.erase(it);
      // use_count() is a relaxed load: observing 1 proves exclusivity (the
      // pool held the only reference, and nobody can copy it under
      // pool_mu_) but does NOT order the dying holder's final unlocked
      // field reads before ours. A copy + drop performs an acquire-RMW on
      // the same counter, which reads-from that holder's release
      // decrement and publishes its accesses before reset() rewrites the
      // fields. (A plain acquire fence would also be correct but is
      // invisible to TSan.)
      { RequestPtr acquire_barrier = req; }
      req->reset(object_id_, method, std::move(params));
      return req;
    }
  }
  auto req = std::make_shared<Request>(object_id_, method, std::move(params));
  return req;
}

void CqosStub::release(RequestPtr req) {
  MutexLock lk(pool_mu_);
  if (pool_.size() < kMaxPooledRequests) pool_.push_back(std::move(req));
}

RequestPtr CqosStub::call_request(const std::string& method,
                                  ValueList params) {
  RequestPtr req = acquire(method, std::move(params));
  req->priority = opts_.priority;
  if (!opts_.principal.empty()) {
    req->piggyback[pbkey::kPrincipal] = Value(opts_.principal);
  }
  // Mint the per-request trace id here, at the outermost client hop; the
  // piggyback entry carries it across the wire to the skeleton.
  req->trace_id = trace::next_trace_id();
  req->piggyback[pbkey::kTraceId] =
      Value(static_cast<std::int64_t>(req->trace_id));
  trace::ScopedSpan span(req->trace_id, "cqos.stub.call", method,
                         &stub_call_hist());

  if (client_) {
    client_->cactus_request(req);
  } else {
    // Bypass mode: invoke replica 0 directly (still the dynamic invocation
    // path — the stub has already converted the call to the abstract form).
    auto inv = std::make_shared<Invocation>();
    inv->request = req;
    inv->server = 0;
    if (direct_->server_status(0) == ServerStatus::kUnknown) {
      try {
        direct_->bind(0);
      } catch (const Error& e) {
        req->complete(false, Value(), e.what());
        return req;
      }
    }
    direct_->invoke_server(*req, *inv);
    req->complete(inv->success, std::move(inv->result), std::move(inv->error));
    req->merge_reply_piggyback(inv->reply_piggyback);
  }
  return req;
}

Value CqosStub::call(const std::string& method, ValueList params) {
  RequestPtr req = call_request(method, std::move(params));
  if (!req->succeeded()) {
    std::string error = req->error();
    release(std::move(req));
    throw InvocationError(object_id_ + "." + method + ": " + error);
  }
  Value result = req->result();
  release(std::move(req));
  return result;
}

}  // namespace cqos
