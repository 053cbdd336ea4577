// Platform abstraction: the middleware-facing interface CQoS is layered on.
//
// Every concrete platform (the CORBA-like ORB in platform/corba, the
// RMI-like runtime and RMI-IIOP in platform/rmi, the HTTP-style platform in
// platform/http) implements these interfaces, all on the one request/reply
// runtime in platform/core. CQoS code never touches platform wire formats —
// only this API — which is exactly the paper's portability claim: the Cactus
// client/server are platform neutral, and only the thin interceptor glue
// differs per platform.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "common/clock.h"
#include "common/value.h"

namespace cqos::status {

// Well-known error-string markers for flow-control outcomes. They ride in
// Reply::error (and through it in InvocationError::what()), so every layer —
// platform dispatch, the admission micro-protocol, stubs and benches — can
// distinguish deliberate backpressure from a genuine failure or a timeout
// without a new wire field.
inline constexpr std::string_view kOverloadRejected = "cqos.overload-rejected";
inline constexpr std::string_view kDeadlineExceeded = "cqos.deadline-exceeded";

inline bool has_marker(std::string_view error, std::string_view marker) {
  return error.find(marker) != std::string_view::npos;
}
inline bool is_overload_rejected(std::string_view error) {
  return has_marker(error, kOverloadRejected);
}
inline bool is_deadline_exceeded(std::string_view error) {
  return has_marker(error, kDeadlineExceeded);
}

}  // namespace cqos::status

namespace cqos::plat {

/// Piggyback key carrying the request's logical priority (stamped by the
/// CQoS stub as "cq.prio"). The platform dispatchers read it — without
/// depending on the cqos layer — to classify requests into worker-pool
/// traffic classes before a worker thread is committed.
inline constexpr const char* kPriorityPiggybackKey = "cq.prio";

/// Reply-piggyback status key/value an early-rejecting dispatcher stamps
/// (same literals as cqos's pbkey::kStatus / pbstatus::kOverloadRejected —
/// duplicated here because the platform layer cannot depend on cqos).
inline constexpr const char* kStatusPiggybackKey = "cq.status";
inline constexpr const char* kStatusOverloadRejected = "overload-rejected";

/// Best-effort priority lift from a decoded request piggyback.
inline int piggyback_priority(const PiggybackMap& pb, int fallback) {
  auto it = pb.find(kPriorityPiggybackKey);
  if (it == pb.end()) return fallback;
  return static_cast<int>(it->second.as_i64());
}

enum class ReplyStatus {
  kOk,           // servant returned a result
  kAppError,     // servant (or an interposed QoS layer) raised an exception
  kUnreachable,  // no reply: crashed host, partition, timeout
};

struct Reply {
  ReplyStatus status = ReplyStatus::kUnreachable;
  Value result;
  std::string error;
  PiggybackMap piggyback;

  bool ok() const { return status == ReplyStatus::kOk; }
};

/// Client-side handle to a remote object (stub-level view).
class ObjectRef {
 public:
  virtual ~ObjectRef() = default;

  /// The platform's natural invocation path (what a generated static stub
  /// compiles to). Blocking; never throws for remote failures — they are
  /// reported in Reply.status.
  virtual Reply invoke(const std::string& method, const ValueList& params,
                       const PiggybackMap& piggyback, Duration timeout) = 0;

  /// Dynamic invocation path. On CORBA this is genuine DII: an intermediate
  /// platform request object is constructed from the abstract request (the
  /// conversion the paper identifies as the dominant CQoS overhead on
  /// CORBA). Platforms without a distinct dynamic path (RMI) forward to
  /// invoke().
  virtual Reply invoke_dynamic(const std::string& method,
                               const ValueList& params,
                               const PiggybackMap& piggyback,
                               Duration timeout) {
    return invoke(method, params, piggyback, timeout);
  }

  /// Liveness probe of the hosting server.
  virtual bool ping(Duration timeout) = 0;

  virtual std::string description() const = 0;
};

/// Where replies go: the runtime sends each to its caller (tests capture).
class ReplyOutlet {
 public:
  virtual ~ReplyOutlet() = default;
  virtual void send(std::uint64_t id, const std::string& to, Reply reply) = 0;
};

/// The one-shot answer to one dispatched request, sendable from any thread
/// after the dispatching call returned (a parked request). A handle dropped
/// unsent sends nothing, and the caller times out.
class ReplyHandle {
 public:
  ReplyHandle(std::shared_ptr<ReplyOutlet> outlet, std::uint64_t id,
              std::string to)
      : outlet_(std::move(outlet)), id_(id), to_(std::move(to)) {}
  ReplyHandle(ReplyHandle&&) = default;  // move-only
  ReplyHandle& operator=(ReplyHandle&&) = default;

  /// Hands the reply to the outlet; later calls do nothing.
  void send(Reply reply) {
    if (auto outlet = std::move(outlet_)) {
      outlet->send(id_, to_, std::move(reply));
    }
  }

 private:
  std::shared_ptr<ReplyOutlet> outlet_;
  std::uint64_t id_;
  std::string to_;
};

/// Server-side generic dispatch target. The platform calls handle() for
/// every incoming request on a registered name (DSI-style single entry
/// point; this is what makes the CQoS skeleton method-agnostic), which
/// answers through `reply`, before returning or later from another thread.
class ServantHandler {
 public:
  virtual ~ServantHandler() = default;
  virtual void handle(const std::string& method, ValueList params,
                      PiggybackMap piggyback, ReplyHandle reply) = 0;
};

/// How the server-side adapter decodes requests for a registered servant.
enum class DispatchMode {
  kStatic,  // generated-skeleton path: one-pass decode straight to values
  kDsi,     // dynamic-skeleton path: decode to Anys, then convert (CORBA)
};

class Platform {
 public:
  virtual ~Platform() = default;

  virtual std::string name() const = 0;  // "corba" | "rmi" | ...

  /// Platform-specific replica naming convention (paper §4): CORBA uses POA
  /// "<oid>_agent_poa_<i>" with object id "<oid>_CQoS_Skeleton"; RMI uses
  /// registry name "<oid>_CQoS_Skeleton_<i>". `replica` is 1-based.
  virtual std::string replica_name(const std::string& object_id,
                                   int replica) const = 0;

  /// Name for the non-replicated, non-CQoS registration of an object (the
  /// baseline configurations in Table 1).
  virtual std::string direct_name(const std::string& object_id) const = 0;

  /// Resolve a name to an object reference via the platform's naming
  /// service. Throws NameNotFound / TimeoutError.
  virtual std::shared_ptr<ObjectRef> resolve(const std::string& name,
                                             Duration timeout) = 0;

  virtual void register_servant(const std::string& name,
                                std::shared_ptr<ServantHandler> handler,
                                DispatchMode mode) = 0;

  virtual void unregister_servant(const std::string& name) = 0;

  virtual void shutdown() = 0;
};

}  // namespace cqos::plat
