// CQoS stub: the client-side interceptor (paper §2.2).
//
// Replaces the middleware-generated stub. Its application-facing surface is
// the generic call() that typed application stubs (the "generated from the
// server IDL" classes, e.g. BankAccountStub in the examples) delegate to.
// Each call builds an abstract Request, notifies the Cactus client, blocks
// until the request completes and converts the outcome back into a return
// value or exception.
//
// Two modes:
//   - full CQoS: a CactusClient processes the request (micro-protocols run);
//   - bypass: no Cactus client attached — the stub invokes replica 0
//     directly through the QoS interface. This is the "+CQoS stub" /
//     "+CQoS skeleton" intermediate configuration of Table 1.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/priority.h"
#include "cqos/cactus_client.h"
#include "cqos/request.h"

#include "common/sync.h"
#include "common/thread_annotations.h"

namespace cqos {

class CqosStub {
 public:
  struct Options {
    /// Request priority derived from client identity (paper §3.4).
    int priority = kNormalPriority;
    /// Principal asserted in the piggyback for access control.
    std::string principal;
  };

  /// Full CQoS mode.
  CqosStub(std::shared_ptr<CactusClient> client, std::string object_id,
           Options opts);
  CqosStub(std::shared_ptr<CactusClient> client, std::string object_id)
      : CqosStub(std::move(client), std::move(object_id), Options{}) {}

  /// Bypass mode: direct (dynamic) invocation of replica 0, no Cactus.
  CqosStub(std::shared_ptr<ClientQosInterface> direct, std::string object_id,
           Options opts);
  CqosStub(std::shared_ptr<ClientQosInterface> direct, std::string object_id)
      : CqosStub(std::move(direct), std::move(object_id), Options{}) {}

  /// Invoke `method`; returns the result or throws InvocationError.
  Value call(const std::string& method, ValueList params);

  /// As call(), but hands back the completed Request (advanced callers that
  /// need reply piggyback fields or failure details).
  RequestPtr call_request(const std::string& method, ValueList params);

  const std::string& object_id() const { return object_id_; }

 private:
  RequestPtr acquire(const std::string& method, ValueList params);
  void release(RequestPtr req);

  std::shared_ptr<CactusClient> client_;       // null in bypass mode
  std::shared_ptr<ClientQosInterface> direct_;  // set in bypass mode
  std::string object_id_;
  Options opts_;

  Mutex pool_mu_;
  std::vector<RequestPtr> pool_ CQOS_GUARDED_BY(pool_mu_);
};

}  // namespace cqos
