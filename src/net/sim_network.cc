#include "net/sim_network.h"

#include <algorithm>

#include "common/error.h"
#include "common/log.h"
#include "net/fault.h"

namespace cqos::net {

// --- SimNetwork --------------------------------------------------------------
// (Endpoint lives in net/transport.cc — it is shared with TcpTransport.)

namespace {
std::atomic<std::uint64_t> g_next_network_id{1};
}  // namespace

SimNetwork::SimNetwork(NetConfig cfg)
    : cfg_(cfg),
      id_(g_next_network_id.fetch_add(1, std::memory_order_relaxed)) {
  sent_msgs_counter_ = &registry().counter("net.sent.msgs");
  sent_bytes_counter_ = &registry().counter("net.sent.bytes");
  refused_counter_ = &registry().counter("net.vdeliver.refused");
  gone_counter_ = &registry().counter("net.vdeliver.gone");
  // The controller's fault streams start from the NetConfig seed (tests
  // tune seeds against the drop sequences this gives).
  faults_ = std::make_unique<FaultController>(*this, cfg.seed);
  if (!virtual_mode()) {
    delivery_thread_ = std::thread([this] { delivery_loop(); });
  }
}

SimNetwork::~SimNetwork() {
  if (!delivery_thread_.joinable()) return;
  {
    MutexLock lk(wmu_);
    stopping_ = true;
    wcv_.notify_all();
  }
  delivery_thread_.join();
}

std::shared_ptr<Endpoint> SimNetwork::create_endpoint(const std::string& id) {
  MutexLock lk(mu_);
  if (endpoints_.contains(id)) throw Error("endpoint id already registered: " + id);
  auto ep = std::make_shared<Endpoint>(id, host_of(id));
  if (faults_->is_crashed(ep->host())) ep->mark_crashed();
  endpoints_.emplace(id, ep);
  generation_.fetch_add(1, std::memory_order_release);
  return ep;
}

void SimNetwork::remove_endpoint(const std::string& id) {
  std::shared_ptr<Endpoint> ep;
  {
    MutexLock lk(mu_);
    auto it = endpoints_.find(id);
    if (it == endpoints_.end()) return;
    ep = std::move(it->second);
    endpoints_.erase(it);
    generation_.fetch_add(1, std::memory_order_release);
  }
  {
    // Prune the destination entry (clamp and pending deliveries): long-lived
    // simulations with endpoint churn would otherwise grow the shard maps
    // without bound.
    ClampShard& shard = clamp_shards_[shard_of(id)];
    MutexLock lk(shard.mu);
    auto it = shard.dests.find(id);
    if (it != shard.dests.end()) {
      drop_pending(it->second, *gone_counter_);
      shard.dests.erase(it);
    }
  }
  ep->close();
}

std::size_t SimNetwork::fifo_clamp_entries() const {
  std::size_t n = 0;
  for (const ClampShard& shard : clamp_shards_) {
    MutexLock lk(shard.mu);
    n += shard.dests.size();
  }
  return n;
}

std::uint64_t SimNetwork::messages_sent() const {
  return sum_shards(&ClampShard::msgs);
}

std::uint64_t SimNetwork::bytes_sent() const {
  return sum_shards(&ClampShard::bytes);
}

std::uint64_t SimNetwork::sum_shards(std::uint64_t ClampShard::*field) const {
  std::uint64_t n = 0;
  for (const ClampShard& shard : clamp_shards_) {
    MutexLock lk(shard.mu);
    n += shard.*field;
  }
  return n;
}

SimNetwork::PairCounters& SimNetwork::pair_counters(
    const std::string& from_host, const std::string& to_host) {
  std::string key = from_host + ':' + to_host;
  PairShard& shard = pair_shards_[shard_of(key)];
  MutexLock lk(shard.mu);
  auto it = shard.pairs.find(key);
  if (it == shard.pairs.end()) {
    // Miss path: build the three dotted names once and resolve the handles
    // (registry references are stable for its lifetime, DESIGN.md §9).
    metrics::Registry& reg = registry();
    std::string stem = "net.pair." + key;
    PairCounters pc{&reg.counter(stem + ".msgs"), &reg.counter(stem + ".bytes"),
                    &reg.counter(stem + ".drops")};
    it = shard.pairs.emplace(std::move(key), pc).first;
  }
  return it->second;
}

SimNetwork::RouteLease::RouteLease(SimNetwork& net, const std::string& from,
                                   const std::string& to) {
  // Per sending thread: the few destinations it sends to. An entry is
  // current while the network's generation has not moved since it was
  // resolved; `pins` keeps an entry that a send is still using (a handler
  // run inline may send again on this thread) from being replaced.
  struct Cache {
    std::array<Route, 16> routes;
    std::size_t next_victim = 0;
  };
  thread_local Cache cache;
  const std::uint64_t gen = net.generation_.load(std::memory_order_acquire);
  Route* r = nullptr;
  for (Route& e : cache.routes) {
    if (e.network == net.id_ && e.generation == gen && e.to == to) {
      r = &e;
      break;
    }
  }
  if (r == nullptr) {
    r = &own_;
    for (std::size_t i = 0; i < cache.routes.size(); ++i) {
      Route& e = cache.routes[(cache.next_victim + i) % cache.routes.size()];
      if (e.pins != 0) continue;
      cache.next_victim = (cache.next_victim + i + 1) % cache.routes.size();
      r = &e;
      break;
    }
    r->network = net.id_;
    r->to = to;
    r->to_host = host_of(to);
    r->from.clear();
    {
      MutexLock lk(net.mu_);
      auto it = net.endpoints_.find(to);
      r->dest = it == net.endpoints_.end() ? nullptr : it->second;
      r->generation = net.generation_.load(std::memory_order_relaxed);
    }
  }
  // The sender's host and the pair's counters are kept for the last
  // sender seen. Rewriting them under a pinned entry is safe: a nested
  // send runs inside the outer send's delivery, after its last use of
  // them, and never touches `dest`.
  if (r->from.empty() || r->from != from) {
    r->from = from;
    r->from_host = host_of(from);
    r->pair = net.cfg_.pair_metrics
                  ? &net.pair_counters(r->from_host, r->to_host)
                  : nullptr;
  }
  if (r != &own_) ++r->pins;
  route_ = r;
}

SimNetwork::RouteLease::~RouteLease() {
  if (route_ != &own_) --route_->pins;
}

void SimNetwork::count_send(const Route& r, std::size_t bytes) {
  sent_msgs_counter_->inc();
  sent_bytes_counter_->inc(bytes);
  if (r.pair != nullptr) {
    r.pair->msgs->inc();
    r.pair->bytes->inc(bytes);
  }
}

void SimNetwork::count_drop(const Route& r, const char* reason) {
  registry().counter(std::string("net.drop.") + reason).inc();
  if (r.pair != nullptr) r.pair->drops->inc();
}

Duration SimNetwork::compute_latency(const std::string& from,
                                     const std::string& from_host,
                                     const std::string& to_host,
                                     std::size_t bytes) {
  Duration lat;
  if (from_host == to_host) {
    lat = cfg_.loopback_latency;
  } else {
    lat = cfg_.base_latency + cfg_.per_byte * static_cast<std::int64_t>(bytes);
  }
  if (cfg_.jitter > 0) {
    double draw;
    {
      JitterShard& shard = jitter_shards_[shard_of(from)];
      MutexLock lk(shard.mu);
      draw = shard.rngs.try_emplace(from, Rng(cfg_.seed))
                 .first->second.next_double();
    }
    double j = draw * cfg_.jitter;
    lat += std::chrono::duration_cast<Duration>(
        std::chrono::duration<double>(std::chrono::duration<double>(lat).count() * j));
  }
  return lat;
}

bool SimNetwork::send(const std::string& from, const std::string& to,
                      Bytes&& payload) {
  // The cached route holds the destination, so it stays alive through the
  // delivery below even if it is removed meanwhile.
  RouteLease lease(*this, from, to);
  const Route& route = lease.route();
  const std::string& from_host = route.from_host;
  const std::string& to_host = route.to_host;
  const std::shared_ptr<Endpoint>& dest = route.dest;
  if (!dest) {
    count_drop(route, "unknown_dest");
    return false;
  }

  bool loopback = from_host == to_host;
  FaultDecision verdict = faults_->judge(from, from_host, to_host, loopback);
  if (verdict.drop) {
    CQOS_LOG_DEBUG("net: dropped message ", from, " -> ", to, " (",
                   verdict.drop_reason, ")");
    count_drop(route, verdict.drop_reason);
    return false;
  }

  Message msg;
  msg.from = from;
  msg.to = to;
  Duration lat = compute_latency(from, from_host, to_host, payload.size());
  if (verdict.latency_factor != 1.0) {
    lat = std::chrono::duration_cast<Duration>(
        std::chrono::duration<double>(
            std::chrono::duration<double>(lat).count() *
            verdict.latency_factor));
  }
  lat += verdict.extra_latency;
  Duration dup_lat{};
  if (verdict.duplicate) {
    // Draw the copy's jitter now, outside the clamp shard, from the same
    // per-sender stream (second draw, as the shared-stream path did).
    dup_lat = compute_latency(from, from_host, to_host, payload.size());
  }
  msg.payload = std::move(payload);
  std::size_t msg_bytes = msg.payload.size();

  bool held = verdict.defer > 0;
  // The tap runs with no network lock held (it may block, and tests use
  // that to hold a send between validation and delivery), so a tapped
  // send queues in a second hold of the shard lock.
  bool tapping = !held && has_tap_.load(std::memory_order_acquire);
  bool deliver_inline = false;
  TimePoint wake = TimePoint::max();
  std::vector<Message> extra;  // duplicate copy + released reorder holds
  ClampShard& shard = clamp_shards_[shard_of(to)];
  {
    // Clamp + seq assignment is atomic per destination: senders to the same
    // destination serialize on this shard, senders to different ones don't.
    MutexLock lk(shard.mu);
    TimePoint nw = net_now();
    msg.deliver_at = nw + lat;
    // FIFO per destination: never deliver before an earlier-sent message.
    Dest& d = dest_locked(shard, dest);
    TimePoint& clamp = d.last;
    if (msg.deliver_at < clamp) msg.deliver_at = clamp;
    clamp = msg.deliver_at;
    msg.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);

    if (verdict.duplicate) {
      Message copy;
      copy.from = from;
      copy.to = to;
      copy.payload = msg.payload;  // deliberate copy: a second wire message
      copy.deliver_at = nw + dup_lat;
      if (copy.deliver_at < clamp) copy.deliver_at = clamp;
      clamp = copy.deliver_at;
      copy.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
      registry().counter("net.fault.duplicate").inc();
      extra.push_back(std::move(copy));
    }

    // Every send to the destination — including one that is itself held
    // back below — counts as releaser traffic for earlier holds. That keeps
    // the overtake bound exact: a held message is passed by at most `defer`
    // later sends, never by a chain of releases it did not count. Called
    // under the clamp shard so release bookkeeping stays atomic with the
    // (clamp, seq) assignment for this destination.
    for (Message& rel : faults_->on_send(to, msg.deliver_at)) {
      extra.push_back(std::move(rel));
    }
    if (held) {
      // Hold the message back for bounded reordering; the next `defer`
      // sends to the same destination release it.
      registry().counter("net.fault.reorder.held").inc();
      faults_->hold(to, std::move(msg), verdict.defer);
    }

    if (!tapping) deliver_inline = route_locked(d, msg, held, extra, nw, wake);

    shard.msgs += 1;
    shard.bytes += msg_bytes;
  }

  count_send(route, msg_bytes);

  if (tapping) {
    {
      MutexLock tlk(tap_mu_);
      if (tap_) tap_(msg);
    }
    MutexLock lk(shard.mu);
    deliver_inline = route_locked(dest_locked(shard, dest), msg, held, extra,
                                  net_now(), wake);
  }

  if (deliver_inline) {
    if (!dest->deliver_now(std::move(msg))) refused_counter_->inc();
  } else {
    push_wake(to, wake);
  }
  return true;
}

bool SimNetwork::route_locked(Dest& d, Message& msg, bool held,
                              std::vector<Message>& extra, TimePoint nw,
                              TimePoint& wake) {
  // In real time, a lone, already-due message with nothing for this
  // destination pending or being drained is delivered by the sending
  // thread. Everything else joins the pending queue here, under the clamp
  // shard, so a later due message cannot overtake it. Virtual time has one
  // driver, run_until, and delivers nothing inline.
  if (!held && extra.empty() && msg.deliver_at <= nw && d.pending.empty() &&
      !d.draining && !d.crashed && !virtual_mode()) {
    return true;
  }
  if (!held) add_pending(d, std::move(msg));
  for (Message& m : extra) add_pending(d, std::move(m));
  extra.clear();
  wake = arm_locked(d);
  return false;
}

void SimNetwork::set_crashed(const std::string& host, bool crashed) {
  std::vector<std::shared_ptr<Endpoint>> eps;
  {
    MutexLock lk(mu_);
    for (auto& [id, ep] : endpoints_) {
      if (ep->host() == host) eps.push_back(ep);
    }
  }
  if (crashed) registry().counter("net.crash").inc();
  // Pending deliveries are lost with the host, and nothing new queues for
  // it; mark_crashed() drops inbox messages AND makes the endpoint refuse
  // new ones, closing the race with a send() that validated crash state but
  // delivers later. Once this returns, no in-flight message can land on the
  // crashed host.
  for (auto& ep : eps) {
    {
      ClampShard& shard = clamp_shards_[shard_of(ep->id())];
      MutexLock lk(shard.mu);
      Dest& d = dest_locked(shard, ep);
      d.crashed = crashed;
      if (crashed) drop_pending(d, *refused_counter_);
    }
    crashed ? ep->mark_crashed() : ep->mark_recovered();
  }
}

void SimNetwork::deposit_swept(Message msg) {
  std::shared_ptr<Endpoint> dest;
  {
    MutexLock lk(mu_);
    auto it = endpoints_.find(msg.to);
    if (it != endpoints_.end()) dest = it->second;
  }
  if (!dest) {
    gone_counter_->inc();
    return;
  }
  registry().counter("net.fault.reorder.swept").inc();
  std::string to = msg.to;
  TimePoint wake;
  {
    ClampShard& shard = clamp_shards_[shard_of(to)];
    MutexLock lk(shard.mu);
    TimePoint nw = net_now();
    if (msg.deliver_at < nw) msg.deliver_at = nw;
    Dest& d = dest_locked(shard, dest);
    add_pending(d, std::move(msg));
    wake = arm_locked(d);
  }
  push_wake(to, wake);
}

// --- the event loop ----------------------------------------------------------

SimNetwork::Dest& SimNetwork::dest_locked(ClampShard& shard,
                                          const std::shared_ptr<Endpoint>& ep) {
  Dest& d = shard.dests[ep->id()];
  if (d.ep != ep) {
    // First use, or the id was re-registered: what is pending was for an
    // endpoint that no longer exists.
    drop_pending(d, *gone_counter_);
    d.ep = ep;
  }
  return d;
}

void SimNetwork::add_pending(Dest& d, Message&& msg) {
  if (d.crashed) {
    refused_counter_->inc();
    return;
  }
  // The clamp makes deliver_at non-decreasing per destination, so this
  // appends; only a swept reorder hold (which bypasses the clamp) can land
  // earlier. Equal timestamps keep arrival order.
  auto pos = d.pending.end();
  while (pos != d.pending.begin() &&
         std::prev(pos)->deliver_at > msg.deliver_at) {
    --pos;
  }
  d.pending.insert(pos, std::move(msg));
}

void SimNetwork::drop_pending(Dest& d, metrics::Counter& lost) {
  if (d.pending.empty()) return;
  lost.inc(d.pending.size());
  d.pending.clear();
}

TimePoint SimNetwork::arm_locked(Dest& d) {
  // While a batch is draining, the drain re-arms when it finishes.
  if (d.draining || d.pending.empty() ||
      d.pending.front().deliver_at >= d.armed_at) {
    return TimePoint::max();
  }
  return d.armed_at = d.pending.front().deliver_at;
}

void SimNetwork::push(Wake w) {
  MutexLock lk(wmu_);
  if (w.kind == Wake::kFault) {
    if (w.at >= fault_armed_at_) return;  // an earlier check is queued
    fault_armed_at_ = w.at;
  }
  w.order = worder_++;
  bool new_head = wakes_.empty() || Later{}(wakes_.top(), w);
  wakes_.push(std::move(w));
  if (new_head) wcv_.notify_one();
}

void SimNetwork::push_wake(const std::string& to, TimePoint at) {
  if (at != TimePoint::max()) push(Wake{at, 0, Wake::kDest, to, nullptr});
}

void SimNetwork::arm_fault(TimePoint at) {
  if (at != TimePoint::max()) push(Wake{at, 0, Wake::kFault, {}, nullptr});
}

bool SimNetwork::pop_due(TimePoint limit, Wake& w) {
  MutexLock lk(wmu_);
  if (wakes_.empty() || wakes_.top().at > limit) return false;
  pop_locked(w);
  return true;
}

void SimNetwork::pop_locked(Wake& w) {
  w = std::move(const_cast<Wake&>(wakes_.top()));
  wakes_.pop();
  if (w.kind == Wake::kFault && w.at == fault_armed_at_) {
    fault_armed_at_ = TimePoint::max();
  }
}

std::size_t SimNetwork::fire(Wake& w, std::vector<Message>& batch) {
  TimePoint nw = virtual_mode() ? w.at : now();
  if (w.kind == Wake::kFault) {
    // The deadline this entry was pushed for may have moved later (a hold
    // released by traffic, a plan replaced): then nothing is due, and the
    // virtual clock stays where it is.
    bool due = faults_->next_deadline() <= nw;
    if (due) {
      if (virtual_mode()) vclock_.advance_to(nw);
      faults_->advance(nw);
    }
    arm_fault(faults_->next_deadline());
    return due ? 1 : 0;
  }
  if (virtual_mode()) vclock_.advance_to(nw);
  if (w.kind == Wake::kTimer) {
    w.fn();
    return 1;
  }
  return drain(w.to, w.at, batch);
}

void SimNetwork::delivery_loop() {
  // Reused across drains: no allocation while a shard lock is held.
  std::vector<Message> batch;
  for (;;) {
    Wake w;
    {
      MutexLock lk(wmu_);
      for (;;) {
        if (stopping_) return;
        if (wakes_.empty()) {
          wcv_.wait(wmu_);
        } else if (wakes_.top().at > now()) {
          wcv_.wait_until(wmu_, wakes_.top().at);
        } else {
          break;
        }
      }
      pop_locked(w);
    }
    fire(w, batch);
  }
}

std::size_t SimNetwork::drain(const std::string& to, TimePoint woke_for,
                              std::vector<Message>& batch) {
  ClampShard& shard = clamp_shards_[shard_of(to)];
  std::shared_ptr<Endpoint> ep;
  TimePoint wake = TimePoint::max();
  {
    MutexLock lk(shard.mu);
    auto it = shard.dests.find(to);
    if (it == shard.dests.end()) return 0;  // removed since it was armed
    Dest& d = it->second;
    // Wake-ups fire in time order, so none earlier than this one is left.
    if (d.armed_at <= woke_for) d.armed_at = TimePoint::max();
    TimePoint nw = net_now();
    while (!d.pending.empty() && d.pending.front().deliver_at <= nw) {
      batch.push_back(std::move(d.pending.front()));
      d.pending.pop_front();
    }
    if (batch.empty()) {
      wake = arm_locked(d);
    } else {
      d.draining = true;
      ep = d.ep;
    }
  }
  std::size_t n = batch.size();
  // The crash and close checks happen here, at delivery time.
  for (Message& m : batch) {
    if (!ep->deliver_now(std::move(m))) refused_counter_->inc();
  }
  batch.clear();
  if (n != 0) {
    MutexLock lk(shard.mu);
    auto it = shard.dests.find(to);
    if (it == shard.dests.end()) return n;
    Dest& d = it->second;
    d.draining = false;
    // Whatever came due meanwhile gets a fresh wake-up behind the other
    // destinations already due, so one busy destination cannot starve them.
    wake = arm_locked(d);
  }
  push_wake(to, wake);
  return n;
}

// --- virtual-time driver -----------------------------------------------------

void SimNetwork::schedule_at(TimePoint at, std::function<void()> fn) {
  if (!virtual_mode()) {
    throw Error("SimNetwork::schedule_at requires TimeMode::kVirtual");
  }
  push(Wake{std::max(at, vclock_.now()), 0, Wake::kTimer, {}, std::move(fn)});
}

std::size_t SimNetwork::run_until(TimePoint t) {
  std::size_t dispatched = run(t, SIZE_MAX);
  vclock_.advance_to(t);
  return dispatched;
}

std::size_t SimNetwork::run(TimePoint limit, std::size_t horizon) {
  if (!virtual_mode()) {
    throw Error("SimNetwork::run_until requires TimeMode::kVirtual");
  }
  std::vector<Message> batch;
  std::size_t dispatched = 0;
  Wake w;
  while (dispatched < horizon && pop_due(limit, w)) {
    dispatched += fire(w, batch);
  }
  vevents_.fetch_add(dispatched, std::memory_order_relaxed);
  return dispatched;
}

void SimNetwork::set_tap(Tap tap) {
  MutexLock lk(tap_mu_);
  tap_ = std::move(tap);
  has_tap_.store(static_cast<bool>(tap_), std::memory_order_release);
}

}  // namespace cqos::net
