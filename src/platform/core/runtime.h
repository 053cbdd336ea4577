// The one request/reply runtime under the three platforms (DESIGN.md §3,
// "One runtime, three codecs").
//
// The paper's platforms differ only in marshaling and naming (§4). So one
// core, plat::Runtime, owns everything a platform runtime does that is not
// a wire format or a name: the client and server endpoints and their
// handlers, request/reply correlation (PendingCalls), the servant table,
// the dispatch pool and the caller-runs decision, the overload-reject and
// no-such-object replies, the emulated-CPU charge and shutdown. A platform
// supplies a Codec (its wire format, as a pure decode plus four encoders)
// and its naming (Platform's replica_name/direct_name/resolve/register).
//
// The naming daemons (the RMI registry, the CORBA smart agent) share one
// NameServer: a leaf-locked name table spoken to in the platform's codec.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cactus/thread_pool.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "net/transport.h"
#include "platform/api.h"
#include "platform/pending.h"

namespace cqos::plat {

/// One decoded runtime message, whatever the codec.
struct Frame {
  enum class Kind { kRequest, kReply, kPing };
  Kind kind{};
  std::uint64_t id = 0;    // correlates a reply with its call
  std::string reply_to;    // kRequest, kPing: the caller's client endpoint
  std::string target;      // kRequest: servant key
  std::string method;      // kRequest
  PiggybackMap piggyback;  // kRequest
  ValueList params;        // kRequest
  Reply reply;             // kReply

  static Frame request(std::uint64_t id, std::string reply_to,
                       std::string target, std::string method,
                       PiggybackMap pb, ValueList params) {
    Frame f;
    f.kind = Kind::kRequest;
    f.id = id;
    f.reply_to = std::move(reply_to);
    f.target = std::move(target);
    f.method = std::move(method);
    f.piggyback = std::move(pb);
    f.params = std::move(params);
    return f;
  }
  static Frame ping(std::uint64_t id, std::string reply_to) {
    Frame f;
    f.kind = Kind::kPing;
    f.id = id;
    f.reply_to = std::move(reply_to);
    return f;
  }
  /// A kReply: kOk when `ok`, else kAppError. A pong decodes to one too.
  static Frame answer(std::uint64_t id, bool ok, Value result = {},
                      std::string error = {}, PiggybackMap pb = {}) {
    Frame f;
    f.kind = Kind::kReply;
    f.id = id;
    f.reply.status = ok ? ReplyStatus::kOk : ReplyStatus::kAppError;
    f.reply.result = std::move(result);
    f.reply.error = std::move(error);
    f.reply.piggyback = std::move(pb);
    return f;
  }
};

/// A platform's wire format. decode() is pure and throws DecodeError, and
/// nothing else, on bytes it cannot read.
class Codec {
 public:
  virtual ~Codec() = default;
  virtual Frame decode(const Bytes& bytes) const = 0;
  virtual Bytes encode_request(std::uint64_t id, const std::string& reply_to,
                               const std::string& target,
                               const std::string& method,
                               const PiggybackMap& pb,
                               const ValueList& params) const = 0;
  virtual Bytes encode_reply(std::uint64_t id, const Reply& reply) const = 0;
  virtual Bytes encode_ping(std::uint64_t id,
                            const std::string& reply_to) const = 0;
  virtual Bytes encode_pong(std::uint64_t id) const = 0;
  /// Error text of the reply to a request for an unregistered target.
  virtual std::string not_found(const std::string& target) const = 0;
};

/// Settings every runtime has; RmiConfig, OrbConfig and HttpConfig extend it.
struct RuntimeConfig {
  /// Worker threads for server-side request dispatch.
  int server_threads = 8;
  /// Non-empty: traffic-class dispatch. Requests are classified by the
  /// piggybacked cq.prio into per-class bounded WRR queues, and a full class
  /// queue is rejected at once with a backpressure reply instead of
  /// queueing toward timeout collapse.
  std::vector<cactus::TrafficClass> dispatch_classes;
};

class Runtime : public Platform {
 public:
  /// Every derived runtime's destructor calls shutdown() too, so no
  /// handler runs a virtual hook (dsi_extract) of a half-destroyed object.
  ~Runtime() override { shutdown(); }

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Naming through a NameServer (the RMI registry, the CORBA smart agent):
  /// a registered name is the servant key, bound at the name server to this
  /// runtime's server endpoint. Without a name server (HTTP) registration
  /// is local and the platform resolves names itself.
  std::shared_ptr<ObjectRef> resolve(const std::string& name,
                                     Duration timeout) override;
  void register_servant(const std::string& name,
                        std::shared_ptr<ServantHandler> handler,
                        DispatchMode mode) override;
  void unregister_servant(const std::string& name) override;
  void shutdown() override;

  /// Charge an emulated CPU cost to this host: hold the host's (emulated)
  /// CPU for `d`. Implemented as sleep-under-mutex so concurrent work on the
  /// same simulated machine serializes without burning the real core.
  void emu_charge(Duration d);

 protected:
  /// `tag` names the endpoints ("<host>/<tag>cli<k>" and "<host>/<tag><k>"),
  /// the worker pool and the runtime's error text. `name_server` is the
  /// NameServer endpoint; without one, the server endpoint is the host's
  /// well-known "<host>/<tag>". `bind_timeout` bounds register_servant's
  /// bind. `call_cost` is charged before every client call, `dispatch_cost`
  /// before every servant run (testbed emulation).
  Runtime(net::Transport& network, const std::string& host, const char* tag,
          const Codec& codec, const RuntimeConfig& cfg, std::string name_server,
          Duration bind_timeout, Duration call_cost = {},
          Duration dispatch_cost = {});

  /// Blocking call of `method` on `target` at server endpoint `endpoint`.
  Reply call(const std::string& endpoint, const std::string& target,
             const std::string& method, const ValueList& params,
             const PiggybackMap& pb, Duration timeout);
  /// Reference to `target` at `endpoint`: invoke() is call(), ping() pings
  /// the endpoint, invoke_dynamic() is call_dynamic().
  std::shared_ptr<ObjectRef> make_ref(std::string endpoint, std::string target);
  /// The dynamic invocation path; CorbaOrb overrides it with DII.
  virtual Reply call_dynamic(const std::string& endpoint,
                             const std::string& target,
                             const std::string& method,
                             const ValueList& params, const PiggybackMap& pb,
                             Duration timeout) {
    return call(endpoint, target, method, params, pb, timeout);
  }
  /// Runs on the dispatching thread before the servant of a kDsi
  /// registration. Only CorbaOrb has a dynamic skeleton; elsewhere the mode
  /// costs nothing.
  virtual void dsi_extract(ValueList& params) { (void)params; }

 private:
  class Ref;
  class Outlet;
  struct Servant {
    std::shared_ptr<ServantHandler> handler;
    DispatchMode mode = DispatchMode::kStatic;
  };

  // Endpoint handlers (net::Endpoint::Handler contract): decode, then
  // complete a pending call, dispatch a request or answer a ping.
  void on_client_message(net::Message&& msg);
  void on_server_message(net::Message&& msg);
  void dispatch(Frame request);
  /// A NameServer op: "bind", "unbind" or "lookup".
  Reply naming(const char* op, ValueList args, Duration timeout);

  /// One blocking exchange with `to`: `encode(id)` builds the frame
  /// carrying the pending-call id.
  template <class Encode>
  Reply exchange(const std::string& to, Duration timeout, Encode&& encode) {
    return pending_.call(timeout, [&](std::uint64_t id) {
      return network_.send(client_ep_->id(), to, encode(id));
    });
  }

  net::Transport& network_;
  std::string tag_;
  const Codec& codec_;
  std::string name_server_;
  Duration bind_timeout_;
  Duration call_cost_;
  Duration dispatch_cost_;

  std::shared_ptr<net::Endpoint> client_ep_;
  std::shared_ptr<net::Endpoint> server_ep_;
  std::shared_ptr<Outlet> outlet_;  // shared by every ReplyHandle
  PendingCalls pending_;

  Mutex servants_mu_;
  std::map<std::string, Servant> servants_ CQOS_GUARDED_BY(servants_mu_);

  cactus::PriorityThreadPool workers_;
  Mutex emu_cpu_mu_;  // serializes the emulated-CPU critical section
  std::atomic<bool> shutdown_{false};
};

/// A naming daemon (the RMI registry, the CORBA smart agent): a name ->
/// binding table served on one endpoint in its platform's codec, answering
/// from its handler on whichever thread delivers. An op is a request whose
/// method is "bind" (params: name, binding), "unbind" (name) or "lookup"
/// (name); a lookup's reply result is the binding.
class NameServer {
 public:
  NameServer(net::Transport& network, const std::string& endpoint,
             const Codec& codec);
  ~NameServer() { shutdown(); }

  NameServer(const NameServer&) = delete;
  NameServer& operator=(const NameServer&) = delete;

  const std::string& endpoint_id() const { return endpoint_->id(); }

  void shutdown() { endpoint_->close(); }

 private:
  void on_message(net::Message&& msg);

  net::Transport& network_;
  const Codec& codec_;
  std::shared_ptr<net::Endpoint> endpoint_;
  /// Leaf lock: released before the answer is sent.
  Mutex mu_;
  std::map<std::string, Value> table_ CQOS_GUARDED_BY(mu_);
};

}  // namespace cqos::plat
