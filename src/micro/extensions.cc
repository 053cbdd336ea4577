#include "micro/extensions.h"

#include <algorithm>
#include <sstream>

#include "common/log.h"

namespace cqos::micro {

std::set<std::string> parse_method_list(const std::string& value) {
  std::set<std::string> methods;
  std::istringstream stream(value);
  std::string item;
  while (std::getline(stream, item, '|')) {
    if (!item.empty()) methods.insert(item);
  }
  return methods;
}

// --- Retransmit ------------------------------------------------------------------

int consume_retry_slot(RetransmitState& state, std::uint64_t request_id,
                       int server, int max_retries) {
  MutexLock lk(state.mu);
  const auto key = std::make_pair(request_id, server);
  auto [it, inserted] = state.used.try_emplace(key, 0);
  if (inserted) state.fifo.push_back(key);
  while (state.fifo.size() > state.max_windows && state.fifo.front() != key) {
    state.used.erase(state.fifo.front());
    state.fifo.pop_front();
  }
  if (it->second >= max_retries) return 0;
  return ++it->second;
}

// One snapshot per bag: windows in FIFO (eviction) order, merged by taking
// the larger slots-used count so no exporter can refund budget another
// protocol instance already spent.
struct RetransmitSnapshot {
  std::map<std::pair<std::uint64_t, int>, int> used;
  std::deque<std::pair<std::uint64_t, int>> fifo;
};

void export_retransmit_state(RetransmitState& state, cactus::StateBag& bag) {
  auto snap = bag.get_or_create<RetransmitSnapshot>(kRetransmitBagKey);
  MutexLock lk(state.mu);
  for (const auto& key : state.fifo) {
    auto it = state.used.find(key);
    if (it == state.used.end()) continue;
    auto [sit, inserted] = snap->used.emplace(key, it->second);
    if (inserted) {
      snap->fifo.push_back(key);
    } else {
      sit->second = std::max(sit->second, it->second);
    }
  }
}

void import_retransmit_state(const cactus::StateBag& bag,
                             RetransmitState& state) {
  auto snap = bag.find<RetransmitSnapshot>(kRetransmitBagKey);
  if (snap == nullptr) return;
  MutexLock lk(state.mu);
  for (const auto& key : snap->fifo) {
    auto it = snap->used.find(key);
    if (it == snap->used.end()) continue;
    auto [sit, inserted] = state.used.emplace(key, it->second);
    if (inserted) {
      state.fifo.push_back(key);
    } else {
      sit->second = std::max(sit->second, it->second);
    }
  }
  while (state.fifo.size() > state.max_windows) {
    state.used.erase(state.fifo.front());
    state.fifo.pop_front();
  }
}

void Retransmit::init(cactus::CompositeProtocol& proto) {
  ClientQosHolder& holder = client_holder(proto);
  ClientQosInterface* qos = holder.qos;
  const int max_retries = max_retries_;
  state_ = proto.shared().get_or_create<RetransmitState>(kStateKey);
  auto state = state_;

  // A transport failure under message loss does not mean the replica died.
  // Re-probe replicas that earlier timeouts marked failed so the assigners
  // still consider them. This must be a liveness PING, not a mere rebind:
  // on platforms whose resolution is local (HTTP URLs), bind() succeeds
  // even for a dead host and would resurrect it for the assigners.
  bind_tracked(proto, 
      ev::kNewRequest, "optimisticReprobe",
      [qos](cactus::EventContext& ctx) {
        (void)ctx;
        for (int i = 0; i < qos->num_servers(); ++i) {
          if (qos->server_status(i) != ServerStatus::kFailed) continue;
          qos->probe(i);  // running again only if it answers a ping
        }
      },
      order::kReplicaAssign - 5);

  // Before failover (-10) and acceptance (0): a transport failure is first
  // retried on the same replica; only when the budget is exhausted does the
  // failure propagate (and PassiveRep may then fail over). Failed rebinds
  // (the naming lookup itself may be lost) consume budget and are retried
  // too. The budget authority is the shared window ledger, not a per-Request
  // flag, so it survives a live reconfiguration of the stack.
  bind_tracked(proto,
      ev::kInvokeFailure, "retransmitter",
      [qos, max_retries, state](cactus::EventContext& ctx) {
        auto inv = ctx.dyn<InvocationPtr>();
        if (!inv->transport_failure) return;
        RequestPtr req = inv->request;
        if (req->is_done()) return;
        int attempt;
        while ((attempt = consume_retry_slot(*state, req->id, inv->server,
                                             max_retries)) != 0) {
          try {
            qos->bind(inv->server);
          } catch (const Error&) {
            continue;  // lookup lost too: burn the slot, try the next one
          }
          CQOS_LOG_DEBUG("retransmit: retry ", attempt, " of request ",
                         req->id, " on replica ", inv->server);
          auto retry = std::make_shared<Invocation>();
          retry->request = req;
          retry->server = inv->server;
          ctx.protocol().raise_async(ev::kReadyToSend, retry, req->priority);
          ctx.halt();  // swallow this failure; the retry owns the outcome
          return;
        }
        // Budget exhausted: let the failure propagate.
      },
      order::kFailover - 10);
}

void Retransmit::export_state(cactus::StateBag& bag) {
  if (state_) export_retransmit_state(*state_, bag);
}

void Retransmit::import_state(const cactus::StateBag& bag) {
  if (state_) import_retransmit_state(bag, *state_);
}

std::unique_ptr<cactus::MicroProtocol> Retransmit::make(
    const MicroProtocolSpec& spec) {
  return std::make_unique<Retransmit>(
      static_cast<int>(spec.param_int("retries", 2)));
}

MicroManifest Retransmit::manifest() {
  // requires-peer-property:at-most-once — a retry may duplicate a request
  // that actually executed (the reply, not the request, was lost); the
  // server stack must be able to answer duplicates from a result cache.
  return MicroManifest("retransmit", Side::kClient)
      .binds(ev::kNewRequest)
      .binds(ev::kInvokeFailure)
      .raises(ev::kReadyToSend)
      .config("retries")
      .constraint("requires-peer-property:at-most-once");
}

// --- FailureDetector --------------------------------------------------------------

FailureDetector::~FailureDetector() = default;

void FailureDetector::init(cactus::CompositeProtocol& proto) {
  ClientQosHolder& holder = client_holder(proto);
  ClientQosInterface* qos = holder.qos;

  bind_tracked(proto, 
      "fd:tick", "heartbeat",
      [qos, stopped = stopped_, period = period_](cactus::EventContext& ctx) {
        for (int i = 0; i < qos->num_servers(); ++i) {
          ServerStatus before = qos->server_status(i);
          ServerStatus after = qos->probe(i);
          if (before != after) {
            CQOS_LOG_INFO("failure_detector: replica ", i, " is now ",
                          after == ServerStatus::kRunning ? "running"
                                                          : "failed");
          }
        }
        if (!stopped->load()) {
          ctx.protocol().raise_delayed("fd:tick", std::any(true), period);
        }
      },
      cactus::kOrderDefault);

  proto.raise_delayed("fd:tick", std::any(true), period_);
}

void FailureDetector::shutdown() {
  stopped_->store(true);
  MicroBase::shutdown();  // unbind tracked handlers
}

std::unique_ptr<cactus::MicroProtocol> FailureDetector::make(
    const MicroProtocolSpec& spec) {
  return std::make_unique<FailureDetector>(ms(spec.param_int("period_ms", 50)));
}

MicroManifest FailureDetector::manifest() {
  return MicroManifest("failure_detector", Side::kClient)
      .binds("fd:tick")
      .raises("fd:tick")
      .config("period_ms");
}

// --- LoadBalance ------------------------------------------------------------------

void LoadBalance::init(cactus::CompositeProtocol& proto) {
  ClientQosHolder& holder = client_holder(proto);
  ClientQosInterface* qos = holder.qos;
  auto state = proto.shared().get_or_create<State>(kStateKey);

  // Overrides the base assigner: rotate across the non-failed replicas.
  bind_tracked(proto, 
      ev::kNewRequest, "rrAssigner",
      [qos, state](cactus::EventContext& ctx) {
        auto req = ctx.dyn<RequestPtr>();
        int chosen = -1;
        {
          MutexLock lk(state->mu);
          const int n = qos->num_servers();
          for (int step = 0; step < n; ++step) {
            int candidate = (state->next + step) % n;
            if (qos->server_status(candidate) != ServerStatus::kFailed) {
              chosen = candidate;
              state->next = (candidate + 1) % n;
              break;
            }
          }
        }
        if (chosen < 0) {
          req->complete(false, Value(), "load_balance: all replicas failed");
          ctx.halt();
          return;
        }
        req->set_expected_replies(1);
        auto inv = std::make_shared<Invocation>();
        inv->request = req;
        inv->server = chosen;
        ctx.protocol().raise(ev::kReadyToSend, inv);
        ctx.halt();
      },
      order::kReplicaAssign);
}

std::unique_ptr<cactus::MicroProtocol> LoadBalance::make(
    const MicroProtocolSpec& spec) {
  (void)spec;
  return std::make_unique<LoadBalance>();
}

MicroManifest LoadBalance::manifest() {
  // Both replication assigners pick their own replica set; a round-robin
  // assigner composed with either would fight over kNewRequest.
  return MicroManifest("load_balance", Side::kClient)
      .binds(ev::kNewRequest)
      .raises(ev::kReadyToSend)
      .constraint("conflicts:active_rep")
      .constraint("conflicts:passive_rep");
}

// --- ClientCache ------------------------------------------------------------------

namespace {
std::string cache_key(const Request& req) {
  std::shared_ptr<const Bytes> params = req.encoded_params();
  ByteWriter w(req.method.size() + params->size() + 20);
  w.put_string(req.method);
  w.put_blob(*params);
  return std::string(reinterpret_cast<const char*>(w.data().data()),
                     w.size());
}
}  // namespace

void ClientCache::init(cactus::CompositeProtocol& proto) {
  client_holder(proto);
  auto state = proto.shared().get_or_create<State>(kStateKey);
  auto cacheable = cacheable_;
  Duration ttl = ttl_;

  // Serve fresh cache hits locally, before any assigner runs. Mutating
  // methods invalidate the whole cache (coarse but safe).
  bind_tracked(proto, 
      ev::kNewRequest, "cacheLookup",
      [state, cacheable](cactus::EventContext& ctx) {
        auto req = ctx.dyn<RequestPtr>();
        MutexLock lk(state->mu);
        if (!cacheable.contains(req->method)) {
          state->entries.clear();  // write: invalidate
          return;
        }
        auto it = state->entries.find(cache_key(*req));
        if (it != state->entries.end() && it->second.expires > now()) {
          ++state->hits;
          req->complete(true, it->second.value);
          ctx.halt();
          return;
        }
        ++state->misses;
      },
      order::kReplicaAssign - 10);

  // Fill on successful replies of cacheable methods.
  bind_tracked(proto, 
      ev::kInvokeSuccess, "cacheFill",
      [state, cacheable, ttl](cactus::EventContext& ctx) {
        auto inv = ctx.dyn<InvocationPtr>();
        if (!cacheable.contains(inv->request->method)) return;
        MutexLock lk(state->mu);
        state->entries[cache_key(*inv->request)] =
            Entry{inv->result, now() + ttl};
      },
      order::kAcceptance - 5);
}

std::unique_ptr<cactus::MicroProtocol> ClientCache::make(
    const MicroProtocolSpec& spec) {
  std::set<std::string> methods =
      parse_method_list(spec.param("methods", "get_balance"));
  if (methods.empty()) {
    throw ConfigError("client_cache: 'methods' must name at least one method");
  }
  return std::make_unique<ClientCache>(std::move(methods),
                                       ms(spec.param_int("ttl_ms", 100)));
}

MicroManifest ClientCache::manifest() {
  return MicroManifest("client_cache", Side::kClient)
      .binds(ev::kNewRequest)
      .binds(ev::kInvokeSuccess)
      .config("methods")
      .config("ttl_ms");
}

// --- RequestLog -------------------------------------------------------------------

void RequestLog::init(cactus::CompositeProtocol& proto) {
  server_holder(proto);
  auto state = proto.shared().get_or_create<State>(kStateKey);
  auto reads = reads_;

  // Log executed state-changing requests after successful execution.
  bind_tracked(proto, 
      ev::kInvokeReturn, "logAppend",
      [state, reads](cactus::EventContext& ctx) {
        auto req = ctx.dyn<RequestPtr>();
        if (!req->staged_success() || reads.contains(req->method)) return;
        MutexLock lk(state->mu);
        state->log.push_back(
            LoggedRequest{req->id, req->method, req->params()});
      },
      order::kStoreResult + 5);

  // Serve the log suffix [from, end) to a recovering peer.
  bind_tracked(proto, 
      ev::ctl(kSyncControl), "logServe",
      [state](cactus::EventContext& ctx) {
        auto msg = ctx.dyn<ControlMsgPtr>();
        auto from = static_cast<std::size_t>(msg->args.at(0).as_i64());
        ValueList out;
        MutexLock lk(state->mu);
        for (std::size_t i = from; i < state->log.size(); ++i) {
          const LoggedRequest& entry = state->log[i];
          out.push_back(Value(ValueList{
              Value(static_cast<std::int64_t>(entry.id)), Value(entry.method),
              Value(Value::encode_list(entry.params))}));
        }
        msg->reply = Value(std::move(out));
      },
      cactus::kOrderDefault);
}

std::unique_ptr<cactus::MicroProtocol> RequestLog::make(
    const MicroProtocolSpec& spec) {
  return std::make_unique<RequestLog>(
      parse_method_list(spec.param("reads", "get_balance")));
}

MicroManifest RequestLog::manifest() {
  return MicroManifest("request_log", Side::kServer)
      .binds(ev::kInvokeReturn)
      .binds(ev::ctl(kSyncControl))
      .config("reads");
}

std::size_t RequestLog::log_size(CactusServer& server) {
  auto state = server.protocol().shared().get_or_create<State>(kStateKey);
  MutexLock lk(state->mu);
  return state->log.size();
}

std::size_t recover_from_peer(CactusServer& server, int peer,
                              std::optional<std::size_t> from) {
  auto state =
      server.protocol().shared().get_or_create<RequestLog::State>(
          RequestLog::kStateKey);
  std::size_t have;
  if (from.has_value()) {
    have = *from;
  } else {
    MutexLock lk(state->mu);
    have = state->log.size();
  }

  // Ask the peer for everything we missed: the control reply carries the
  // log suffix. Each entry is replayed in log order; one that a
  // micro-protocol parks completes later, like any parked request.
  ValueList args{Value(static_cast<std::int64_t>(have))};
  ServerQosInterface& qos = server.qos();
  Value reply;
  if (!qos.peer_call(peer, RequestLog::kSyncControl, args, &reply)) {
    throw InvocationError("request_log: peer " + std::to_string(peer) +
                          " unreachable for recovery");
  }

  std::size_t replayed = 0;
  for (const Value& entry : reply.as_list()) {
    const ValueList& fields = entry.as_list();
    auto req = std::make_shared<Request>();
    req->id = static_cast<std::uint64_t>(fields.at(0).as_i64());
    req->object_id = qos.object_id();
    req->method = fields.at(1).as_string();
    req->set_params(Value::decode_list(fields.at(2).as_bytes()));
    req->forwarded = true;  // replayed requests never answer a client
    server.process_request(req);
    ++replayed;
  }
  return replayed;
}

}  // namespace cqos::micro
