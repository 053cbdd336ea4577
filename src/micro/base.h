// Shared helpers for CQoS micro-protocols.
#pragma once

#include <any>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cactus/composite.h"
#include "common/error.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "cqos/cactus_client.h"
#include "cqos/cactus_server.h"
#include "cqos/config.h"
#include "cqos/events.h"
#include "cqos/request.h"

namespace cqos::micro {

/// Handler-binding orders used across the micro-protocol suite. Smaller runs
/// earlier; base handlers are at cactus::kOrderLast. Keeping them in one
/// place makes the composition contract (paper §3.5) auditable.
namespace order {
// newRequest / newServerRequest
// Admission runs before any per-request work (verify/decrypt) is spent on a
// request the server is about to reject.
inline constexpr int kAdmissionGate = -90;
inline constexpr int kDeadlineStamp = -85;    // client stamps cq.deadline
inline constexpr int kIntegrityVerify = -60;  // verify before decrypt
inline constexpr int kPrivacyCrypt = -50;     // decrypt before base handlers
inline constexpr int kReplicaAssign = -10;    // override base assigner

// readyToSend
inline constexpr int kPrivacyEncrypt = -50;  // encrypt first
inline constexpr int kIntegritySign = -40;   // sign the (encrypted) payload

// readyToInvoke
inline constexpr int kSetPriority = -90;
// The scheduling gate runs BEFORE order assignment: when service
// differentiation is configured at the TotalOrder coordinator (the paper's
// resolution of the ordering-vs-priority conflict, §3.4), low-priority
// requests are queued before they consume a sequence number, so the total
// order respects request priorities.
inline constexpr int kSchedGate = -85;
// Deadline shedding sits between the priority stamp and the scheduling
// gate: already-late work must not park in a scheduler queue (it would be
// shed again on release anyway) nor consume a sequence number.
inline constexpr int kDeadlineShed = -88;
inline constexpr int kOrderAssign = -80;
inline constexpr int kOrderCheck = -70;
inline constexpr int kAccessCheck = -60;
inline constexpr int kDedup = -50;

// invokeSuccess / invokeFailure
inline constexpr int kIntegrityVerifyReply = -60;
inline constexpr int kPrivacyDecryptReply = -50;
inline constexpr int kFailover = -10;  // PassiveRep primarySelector
inline constexpr int kAcceptance = 0;

// invokeReturn
inline constexpr int kStoreResult = -30;     // dedup cache fill
inline constexpr int kPrivacyEncryptReply = -20;
inline constexpr int kIntegritySignReply = -10;
inline constexpr int kForward = 10;          // PassiveRep forwarding
inline constexpr int kOrderAdvance = 50;     // TotalOrder checkNext
inline constexpr int kSchedNotify = 90;      // QueuedSched notifyWaiting

// requestReturned
// Terminal-outcome bookkeeping (scheduler/admission retire) runs before the
// wakeup handlers that depend on the updated counts.
inline constexpr int kSchedRetire = -90;
}  // namespace order

/// Base class for the micro-protocol suite: tracks every handler binding so
/// teardown is balanced by construction. Handlers MUST be registered through
/// bind_tracked() — never through CompositeProtocol::bind() directly — and
/// are then unbound automatically when the composite shuts the protocol
/// down (or when dynamic reconfiguration removes it). tools/cqos_lint
/// enforces this mechanically over src/micro/.
///
/// init()/shutdown() are serialized by the owning CompositeProtocol, so the
/// binding list needs no lock of its own.
class MicroBase : public cactus::MicroProtocol {
 public:
  void shutdown() override { unbind_all(); }

 protected:
  cactus::BindingId bind_tracked(cactus::CompositeProtocol& proto,
                                 std::string_view event,
                                 std::string handler_name,
                                 cactus::Handler handler,
                                 int order = cactus::kOrderDefault,
                                 std::any static_arg = {}) {
    bound_proto_ = &proto;
    // Observability hook: every tracked handler is timed into a per-handler
    // histogram (micro.<event>.<handler>) and, when the activation carries
    // a traced Request/Invocation, recorded as a span under its trace id —
    // the whole micro-protocol suite gets per-handler latency for free.
    std::string span_name =
        "micro." + std::string(event) + "." + handler_name;
    metrics::Histogram& hist =
        metrics::Registry::global().histogram(span_name);
    cactus::Handler timed = [inner = std::move(handler),
                             span_name = std::move(span_name),
                             &hist](cactus::EventContext& ctx) {
      trace::TraceId id = 0;
      if (const RequestPtr* req = ctx.try_dyn<RequestPtr>()) {
        id = (*req)->trace_id;
      } else if (const InvocationPtr* inv = ctx.try_dyn<InvocationPtr>()) {
        if ((*inv)->request) id = (*inv)->request->trace_id;
      }
      trace::ScopedSpan span(id, span_name, ctx.event(), &hist);
      inner(ctx);
    };
    cactus::BindingId bid =
        proto.bind(event, std::move(handler_name), std::move(timed), order,
                   std::move(static_arg));
    bound_.push_back(bid);
    return bid;
  }

  /// Unbind every tracked handler (idempotent). Subclasses that override
  /// shutdown() must call this — or MicroBase::shutdown() — themselves.
  void unbind_all() {
    if (bound_proto_ == nullptr) return;
    for (cactus::BindingId id : bound_) bound_proto_->unbind(id);
    bound_.clear();
  }

 private:
  cactus::CompositeProtocol* bound_proto_ = nullptr;
  std::vector<cactus::BindingId> bound_;
};

/// Fetch the client QoS holder; throws if the composite is not a Cactus
/// client (configuration error caught at init time).
inline ClientQosHolder& client_holder(cactus::CompositeProtocol& proto) {
  auto holder = proto.shared().get_or_create<ClientQosHolder>(kClientQosKey);
  if (holder->qos == nullptr) {
    throw ConfigError("micro-protocol requires a Cactus client composite");
  }
  return *holder;
}

inline ServerQosHolder& server_holder(cactus::CompositeProtocol& proto) {
  auto holder = proto.shared().get_or_create<ServerQosHolder>(kServerQosKey);
  if (holder->qos == nullptr) {
    throw ConfigError("micro-protocol requires a Cactus server composite");
  }
  return *holder;
}

}  // namespace cqos::micro
