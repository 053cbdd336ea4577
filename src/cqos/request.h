// Abstract request object (paper §2.2).
//
// The CQoS stub converts a method call into a Request — a platform-neutral
// representation whose parameters are a vector of Values — and the Cactus
// client/server micro-protocols manipulate it through accessor methods. The
// piggyback map carries extra CQoS parameters (request id, priority,
// principal, HMAC, ordering info) across the wire as service contexts.
//
// A Request is shared (shared_ptr) between the stub, concurrently executing
// handler instances (ActiveRep runs one invoker per replica) and late
// replies; its mutable state is guarded by an internal mutex.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/priority.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "common/value.h"

namespace cqos {

class Request;
using RequestPtr = std::shared_ptr<Request>;

/// One attempted server invocation of a request. ActiveRep creates one per
/// replica; the acceptance micro-protocols combine their outcomes.
struct Invocation {
  RequestPtr request;
  int server = 0;  // replica index, 0-based
  bool success = false;
  /// True when the failure was transport-level (crash/partition/timeout):
  /// the replica is presumed dead. False failures are application errors
  /// from a live server and must not trigger failover.
  bool transport_failure = false;
  Value result;
  std::string error;
  PiggybackMap reply_piggyback;
};
using InvocationPtr = std::shared_ptr<Invocation>;

/// Well-known piggyback keys.
namespace pbkey {
inline constexpr const char* kRequestId = "cq.id";
inline constexpr const char* kPriority = "cq.prio";
inline constexpr const char* kPrincipal = "cq.principal";
inline constexpr const char* kEncrypted = "cq.enc";
inline constexpr const char* kHmac = "cq.hmac";
/// Trace id minted by the CQoS stub; carried to the skeleton in the
/// request piggyback and echoed back in the reply piggyback so one id
/// spans stub -> micro-protocols -> skeleton -> reply.
inline constexpr const char* kTraceId = "cq.trace";
/// Remaining deadline budget in milliseconds, stamped by the client-side
/// "deadline" micro-protocol. Relative (not an absolute timestamp) so it is
/// clock-skew safe: the skeleton anchors it to the request's arrival time.
inline constexpr const char* kDeadline = "cq.deadline";
/// Reply-piggyback flow-control status ("overload-rejected",
/// "deadline-exceeded") set by the admission micro-protocol alongside the
/// cqos::status error marker, so tooling can key on a structured field.
inline constexpr const char* kStatus = "cq.status";
}  // namespace pbkey

/// Values carried under pbkey::kStatus.
namespace pbstatus {
inline constexpr const char* kOverloadRejected = "overload-rejected";
inline constexpr const char* kDeadlineExceeded = "deadline-exceeded";
}  // namespace pbstatus

class Request : public std::enable_shared_from_this<Request> {
 public:
  /// Globally unique id (stamped by the client stub, carried in piggyback).
  static std::uint64_t next_id();

  Request() = default;
  Request(std::string object_id, std::string method, ValueList params);

  // --- immutable-ish identification (set before the request enters Cactus) --
  std::uint64_t id = 0;
  /// Observability trace id (0 = untraced); minted by the client stub and
  /// lifted from pbkey::kTraceId on the server side.
  std::uint64_t trace_id = 0;
  std::string object_id;
  std::string method;
  PiggybackMap piggyback;
  int priority = kNormalPriority;

  // --- parameters + single-encode cache (DESIGN.md §10) ---------------------

  /// The parameter list. Handlers must mutate it only through set_params /
  /// set_encrypted_params so the encoded-params cache stays coherent.
  const ValueList& params() const { return params_; }

  /// Replace the parameters, invalidating the encoded-params cache.
  void set_params(ValueList params);

  /// Replace the parameters with the single-ciphertext-blob list a privacy
  /// micro-protocol produces, and prime the cache with its (trivially
  /// constructed) encoding — no Value-tree traversal, no counted encode.
  void set_encrypted_params(Bytes ciphertext);

  /// The `Value::encode_list(params())` bytes, memoized: computed at most
  /// once per parameter state and shared by every consumer (HMAC input,
  /// DES plaintext, forwarding codec). Each cache fill increments the
  /// `cqos.request.encodes` counter — the single-encode invariant's proof.
  std::shared_ptr<const Bytes> encoded_params() const;

  /// Server side: true when this request arrived via replica-to-replica
  /// forwarding (PassiveRep) rather than from a client; no reply is due.
  bool forwarded = false;

  /// Absolute completion deadline, anchored by the skeleton at arrival from
  /// the relative pbkey::kDeadline budget (default: none). The admission
  /// micro-protocol sheds requests whose deadline passed before invoke.
  TimePoint deadline{};
  bool has_deadline() const { return deadline != TimePoint{}; }

  // --- completion (guarded) -------------------------------------------------

  /// First-completion wins; later calls are ignored. Returns true when this
  /// call performed the completion.
  bool complete(bool success, Value result, std::string error = {});

  /// Server-side two-phase completion: invoke_servant() *stages* the outcome
  /// so invokeReturn handlers (reply encryption, signing, forwarding) can
  /// still transform it; the base returnReleaser then finish()es, completing
  /// the request with it. stage() after completion is a no-op.
  void stage(bool success, Value result, std::string error = {});
  void finish();

  bool staged_success() const;
  Value staged_result() const;
  std::string staged_error() const;
  void set_staged_result(Value v);

  /// One-shot named flag with an action: runs `fn` and returns true exactly
  /// once per flag name (later calls return false without running fn).
  /// Concurrent callers block until the first finishes, so post-condition
  /// state (e.g. encrypted parameters) is visible to everyone. Used by
  /// handlers that must be idempotent across concurrent ActiveRep
  /// activations of the same request.
  template <typename Fn>
  bool once(const std::string& flag, Fn&& fn) {
    MutexLock lk(flags_mu_);
    if (!flags_.insert(flag).second) return false;
    fn();
    return true;
  }
  bool has_flag(const std::string& flag) const;

  /// Block until complete() was called. Returns false on timeout.
  bool wait(Duration timeout);

  /// Run `hook` once the request is done: now if it is, else on the thread
  /// that completes it, after its locks are released. Hooks run in the
  /// order added and must not throw.
  using DoneHook = std::function<void(Request&)>;
  void when_done(DoneHook hook);

  bool is_done() const;
  bool succeeded() const;
  /// Valid only after is_done() (completion publishes them; the completing
  /// write happened-before any reader that observed done_ under mu_).
  Value result() const;
  std::string error() const;
  PiggybackMap reply_piggyback() const;
  void merge_reply_piggyback(const PiggybackMap& pb);

  // --- acceptance bookkeeping (guarded) --------------------------------------

  /// Number of replies (success or failure) the client side expects; set by
  /// the assigner micro-protocol (1, or N for ActiveRep).
  void set_expected_replies(int n);
  int expected_replies() const;

  /// Record an invocation outcome; returns counts after recording.
  struct Counts {
    int successes = 0;
    int failures = 0;
    int expected = 0;
  };
  Counts record_outcome(const Invocation& inv);
  Counts counts() const;

  /// A reply recorded as a success turned out to be bad (failed integrity
  /// check, undecryptable): move one success to the failure column before
  /// re-raising it as invokeFailure.
  void reclassify_success_as_failure();

  /// Reset for reuse from a stub request pool (ablation: the paper's
  /// "reuse of the request data structures to avoid object creation").
  void reset(std::string object_id, std::string method, ValueList params);

  // --- forwarding codec -------------------------------------------------------

  /// Encode (id, method, params, piggyback) for replica-to-replica transfer.
  ValueList encode_for_forward() const;
  static RequestPtr decode_forwarded(const std::string& object_id,
                                     const ValueList& args);

 private:
  // Lock hierarchy: flags_mu_ may be held while taking mu_ (a once()
  // callback completing the request), never the other way around.
  // encode_mu_ is a leaf: encoded_params() is called from once() callbacks
  // (flags_mu_ held) and reset() (both held); nothing is locked under it.
  mutable Mutex flags_mu_;
  mutable Mutex mu_ CQOS_ACQUIRED_AFTER(flags_mu_);
  mutable Mutex encode_mu_ CQOS_ACQUIRED_AFTER(flags_mu_, mu_);
  CondVar cv_;
  ValueList params_;
  mutable std::shared_ptr<const Bytes> encoded_cache_
      CQOS_GUARDED_BY(encode_mu_);
  std::set<std::string> flags_ CQOS_GUARDED_BY(flags_mu_);
  bool done_ CQOS_GUARDED_BY(mu_) = false;
  bool success_ CQOS_GUARDED_BY(mu_) = false;
  Value result_ CQOS_GUARDED_BY(mu_);
  std::string error_ CQOS_GUARDED_BY(mu_);
  PiggybackMap reply_pb_ CQOS_GUARDED_BY(mu_);
  std::vector<DoneHook> done_hooks_ CQOS_GUARDED_BY(mu_);
  int expected_replies_ CQOS_GUARDED_BY(mu_) = 1;
  int successes_ CQOS_GUARDED_BY(mu_) = 0;
  int failures_ CQOS_GUARDED_BY(mu_) = 0;
};

}  // namespace cqos
