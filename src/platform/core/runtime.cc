#include "platform/core/runtime.h"

#include <thread>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/priority.h"

namespace cqos::plat {
namespace {
std::atomic<int> g_instance{0};
}  // namespace

class Runtime::Ref : public ObjectRef {
 public:
  Ref(Runtime& runtime, std::string endpoint, std::string target)
      : runtime_(runtime),
        endpoint_(std::move(endpoint)),
        target_(std::move(target)) {}

  Reply invoke(const std::string& method, const ValueList& params,
               const PiggybackMap& piggyback, Duration timeout) override {
    return runtime_.call(endpoint_, target_, method, params, piggyback,
                         timeout);
  }
  Reply invoke_dynamic(const std::string& method, const ValueList& params,
                       const PiggybackMap& piggyback,
                       Duration timeout) override {
    return runtime_.call_dynamic(endpoint_, target_, method, params,
                                 piggyback, timeout);
  }
  bool ping(Duration timeout) override {
    return runtime_.exchange(endpoint_, timeout, [&](std::uint64_t id) {
      return runtime_.codec_.encode_ping(id, runtime_.client_ep_->id());
    }).ok();
  }
  std::string description() const override {
    return runtime_.name() + ":" + endpoint_ + "#" + target_;
  }

 private:
  Runtime& runtime_;
  std::string endpoint_;
  std::string target_;
};

// The reply path of dispatched requests, shared by their reply handles:
// close() waits out the sends in flight and makes every later one a no-op.
// Every reply passes here, from every dispatch thread, so the count is one
// atomic rather than a lock.
class Runtime::Outlet : public ReplyOutlet {
 public:
  explicit Outlet(Runtime& runtime) : runtime_(runtime) {}

  void send(std::uint64_t id, const std::string& to, Reply reply) override {
    bool closed = (state_.fetch_add(kSending) & kClosed) != 0;
    struct Sent {  // counted down even if the send throws
      std::atomic<int>& state;
      ~Sent() {
        if (state.fetch_sub(kSending) == kClosed + kSending) state.notify_all();
      }
    } sent{state_};
    if (closed) return;
    runtime_.network_.send(runtime_.server_ep_->id(), to,
                           runtime_.codec_.encode_reply(id, reply));
  }

  void close() {
    state_.fetch_or(kClosed);
    for (int s; (s = state_.load()) != kClosed;) state_.wait(s);
  }

 private:
  static constexpr int kClosed = 1;
  static constexpr int kSending = 2;  // per send in flight
  Runtime& runtime_;
  std::atomic<int> state_{0};
};

Runtime::Runtime(net::Transport& network, const std::string& host,
                 const char* tag, const Codec& codec, const RuntimeConfig& cfg,
                 std::string name_server, Duration bind_timeout,
                 Duration call_cost, Duration dispatch_cost)
    : network_(network),
      tag_(tag),
      codec_(codec),
      name_server_(std::move(name_server)),
      bind_timeout_(bind_timeout),
      call_cost_(call_cost),
      dispatch_cost_(dispatch_cost),
      outlet_(std::make_shared<Outlet>(*this)),
      workers_(cfg.server_threads, cfg.dispatch_classes,
               host + "-" + tag_ + "-workers") {
  std::string instance = std::to_string(g_instance.fetch_add(1));
  client_ep_ = network_.create_endpoint(host + "/" + tag_ + "cli" + instance);
  server_ep_ = network_.create_endpoint(
      host + "/" + tag_ + (name_server_.empty() ? "" : instance));
  client_ep_->set_handler(
      [this](net::Message&& msg) { on_client_message(std::move(msg)); });
  server_ep_->set_handler(
      [this](net::Message&& msg) { on_server_message(std::move(msg)); });
}

void Runtime::emu_charge(Duration d) {
  if (d <= Duration::zero()) return;
  MutexLock lk(emu_cpu_mu_);
  std::this_thread::sleep_for(d);
}

void Runtime::shutdown() {
  if (shutdown_.exchange(true)) return;
  // A reply sent from now on goes nowhere. close() waits out in-flight
  // handlers, so none can submit to the pool once it shuts down. Removing
  // the server endpoint frees its id for a successor on the same host.
  outlet_->close();
  client_ep_->close();
  server_ep_->close();
  network_.remove_endpoint(server_ep_->id());
  workers_.shutdown();
  pending_.fail_all(tag_ + " shutdown");
}

Reply Runtime::call(const std::string& endpoint, const std::string& target,
                    const std::string& method, const ValueList& params,
                    const PiggybackMap& pb, Duration timeout) {
  emu_charge(call_cost_);
  return exchange(endpoint, timeout, [&](std::uint64_t id) {
    return codec_.encode_request(id, client_ep_->id(), target, method, pb,
                                 params);
  });
}

Reply Runtime::naming(const char* op, ValueList args, Duration timeout) {
  return exchange(name_server_, timeout, [&](std::uint64_t id) {
    return codec_.encode_request(id, client_ep_->id(), "", op, {}, args);
  });
}

std::shared_ptr<ObjectRef> Runtime::resolve(const std::string& name,
                                            Duration timeout) {
  Reply reply = naming("lookup", {Value(name)}, timeout);
  if (reply.status == ReplyStatus::kUnreachable) {
    throw TimeoutError(tag_ + " name lookup failed: " + reply.error);
  }
  if (!reply.ok()) throw NameNotFound(name);
  return make_ref(reply.result.as_string(), name);
}

void Runtime::register_servant(const std::string& name,
                               std::shared_ptr<ServantHandler> handler,
                               DispatchMode mode) {
  {
    MutexLock lk(servants_mu_);
    servants_[name] = Servant{std::move(handler), mode};
  }
  if (name_server_.empty()) return;
  if (!naming("bind", {Value(name), Value(server_ep_->id())}, bind_timeout_)
           .ok()) {
    throw TimeoutError(tag_ + " name bind failed for " + name);
  }
}

void Runtime::unregister_servant(const std::string& name) {
  {
    MutexLock lk(servants_mu_);
    servants_.erase(name);
  }
  if (!name_server_.empty()) naming("unbind", {Value(name)}, bind_timeout_);
}

std::shared_ptr<ObjectRef> Runtime::make_ref(std::string endpoint,
                                             std::string target) {
  return std::make_shared<Ref>(*this, std::move(endpoint), std::move(target));
}

void Runtime::on_client_message(net::Message&& msg) {
  net::PayloadRecycler recycle_payload(msg);
  try {
    Frame frame = codec_.decode(msg.payload);
    if (frame.kind != Frame::Kind::kReply) {
      CQOS_LOG_WARN(tag_, " client handler: unexpected message kind");
      return;
    }
    pending_.complete(frame.id, std::move(frame.reply));
  } catch (const std::exception& e) {
    CQOS_LOG_ERROR(tag_, " client handler: ", e.what());
  }
}

// Caller-runs dispatch (DESIGN.md §8): a request delivered on its own
// waiting caller's thread (PendingCalls marks it) runs right here if the
// pool has a free slot with nothing queued; every other request goes to the
// pool. Threads without the mark (the TCP loop, the simulator's delivery
// thread) always hand off.
void Runtime::on_server_message(net::Message&& msg) {
  static metrics::Counter& inline_runs =
      metrics::Registry::global().counter("plat.dispatch.inline");
  static metrics::Counter& pooled =
      metrics::Registry::global().counter("plat.dispatch.pooled");
  net::PayloadRecycler recycle_payload(msg);
  try {
    Frame frame = codec_.decode(msg.payload);
    if (frame.kind == Frame::Kind::kPing) {
      network_.send(server_ep_->id(), frame.reply_to,
                    codec_.encode_pong(frame.id));
      return;
    }
    if (frame.kind != Frame::Kind::kRequest) {
      CQOS_LOG_WARN(tag_, " server handler: unexpected message kind");
      return;
    }
    // Classify by the piggybacked priority before a worker is committed;
    // a pool without classes never rejects.
    int prio = piggyback_priority(frame.piggyback, kNormalPriority);
    std::uint64_t id = frame.id;
    std::string reply_to = frame.reply_to;
    auto task = [this, frame = std::move(frame)]() mutable {
      dispatch(std::move(frame));
    };
    if (std::exchange(detail::t_waiting_caller, false) &&
        workers_.try_run_inline(prio, task)) {
      inline_runs.inc();
      return;
    }
    cactus::SubmitResult res = workers_.try_submit(prio, std::move(task));
    if (res == cactus::SubmitResult::kAccepted) pooled.inc();
    if (res == cactus::SubmitResult::kRejected) {
      // Early reject: an immediate backpressure reply instead of letting the
      // client burn its full timeout against a saturated queue.
      Reply reject;
      reject.status = ReplyStatus::kAppError;
      reject.error = std::string(status::kOverloadRejected) + ": " + tag_ +
                     " dispatch queue full";
      reject.piggyback[kStatusPiggybackKey] = Value(kStatusOverloadRejected);
      network_.send(server_ep_->id(), reply_to,
                    codec_.encode_reply(id, reject));
    }
  } catch (const std::exception& e) {
    CQOS_LOG_ERROR(tag_, " server handler: ", e.what());
  }
}

void Runtime::dispatch(Frame request) {
  Servant servant;
  {
    MutexLock lk(servants_mu_);
    auto it = servants_.find(request.target);
    if (it != servants_.end()) servant = it->second;
  }
  ReplyHandle reply(outlet_, request.id, std::move(request.reply_to));
  if (!servant.handler) {
    // A system-level failure where the codec has one (GIOP); an
    // application error to the caller on every platform.
    Reply out;
    out.status = ReplyStatus::kUnreachable;
    out.error = codec_.not_found(request.target);
    return reply.send(std::move(out));
  }
  emu_charge(dispatch_cost_);
  if (servant.mode == DispatchMode::kDsi) dsi_extract(request.params);
  servant.handler->handle(request.method, std::move(request.params),
                          std::move(request.piggyback), std::move(reply));
}

// --- NameServer ----------------------------------------------------------------

NameServer::NameServer(net::Transport& network, const std::string& endpoint,
                       const Codec& codec)
    : network_(network),
      codec_(codec),
      endpoint_(network.create_endpoint(endpoint)) {
  endpoint_->set_handler(
      [this](net::Message&& msg) { on_message(std::move(msg)); });
}

void NameServer::on_message(net::Message&& msg) {
  net::PayloadRecycler recycle_payload(msg);
  try {
    Frame op = codec_.decode(msg.payload);
    if (op.kind != Frame::Kind::kRequest || op.params.empty()) {
      throw DecodeError("not a naming request");
    }
    const std::string& name = op.params[0].as_string();
    Reply answer;
    answer.status = ReplyStatus::kOk;
    {
      MutexLock lk(mu_);
      if (op.method == "bind" && op.params.size() == 2) {
        table_[name] = std::move(op.params[1]);
      } else if (op.method == "unbind") {
        table_.erase(name);
      } else if (op.method != "lookup") {
        throw DecodeError("unknown naming op " + op.method);
      } else if (auto it = table_.find(name); it != table_.end()) {
        answer.result = it->second;
      } else {
        answer.status = ReplyStatus::kAppError;
        answer.error = "not bound: " + name;
      }
    }
    network_.send(endpoint_->id(), op.reply_to,
                  codec_.encode_reply(op.id, answer));
  } catch (const std::exception& e) {
    CQOS_LOG_ERROR(endpoint_->id(), ": bad naming message: ", e.what());
  }
}

}  // namespace cqos::plat
