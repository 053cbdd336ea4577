#include "net/fault.h"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "common/error.h"
#include "common/log.h"

namespace cqos::net {

// --- FaultPlan text form -----------------------------------------------------

namespace {

std::string format_duration(Duration d) {
  auto usec = std::chrono::duration_cast<std::chrono::microseconds>(d).count();
  if (usec % 1000 == 0) return std::to_string(usec / 1000) + "ms";
  return std::to_string(usec) + "us";
}

Duration parse_duration(const std::string& tok, const char* what) {
  std::size_t pos = 0;
  while (pos < tok.size() &&
         (std::isdigit(static_cast<unsigned char>(tok[pos])) != 0)) {
    ++pos;
  }
  if (pos == 0) throw ConfigError(std::string("fault plan: bad ") + what +
                                  " '" + tok + "'");
  std::int64_t n = std::stoll(tok.substr(0, pos));
  std::string unit = tok.substr(pos);
  if (unit == "us") return us(n);
  if (unit == "ms" || unit.empty()) return ms(n);
  if (unit == "s") return ms(n * 1000);
  throw ConfigError(std::string("fault plan: bad ") + what + " unit '" + tok +
                    "' (expected us/ms/s)");
}

std::string format_rate(double r) {
  std::ostringstream os;
  os << r;
  return os.str();
}

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> toks;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) toks.push_back(tok);
  return toks;
}

}  // namespace

std::string FaultEvent::describe() const {
  std::ostringstream os;
  os << '@' << format_duration(at) << ' ';
  switch (kind) {
    case FaultKind::kCrash:
      os << "crash " << host_a;
      break;
    case FaultKind::kRecover:
      os << "recover " << host_a;
      break;
    case FaultKind::kPartition:
      os << "partition " << host_a << ' ' << host_b;
      break;
    case FaultKind::kHeal:
      os << "heal " << host_a << ' ' << host_b;
      break;
    case FaultKind::kDropRate:
      os << "drop_rate " << format_rate(rate);
      break;
    case FaultKind::kDropBurst:
      os << "drop_burst " << host_a << ' ' << host_b << ' '
         << format_duration(duration) << ' ' << format_rate(rate);
      break;
    case FaultKind::kLatencySpike:
      os << "latency_spike " << format_duration(duration) << " x"
         << format_rate(factor);
      break;
    case FaultKind::kDuplicate:
      os << "duplicate " << format_rate(rate);
      break;
    case FaultKind::kReorder:
      os << "reorder " << format_rate(rate) << " window=" << window;
      break;
  }
  return os.str();
}

FaultPlan FaultPlan::parse(std::string_view text) {
  FaultPlan plan;
  std::istringstream is{std::string(text)};
  std::string line;
  while (std::getline(is, line)) {
    auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::vector<std::string> toks = split_ws(line);
    if (toks.empty()) continue;
    if (toks[0] == "plan") {
      if (toks.size() != 2) throw ConfigError("fault plan: 'plan' needs a name");
      plan.name = toks[1];
      continue;
    }
    if (toks[0] == "seed") {
      if (toks.size() != 2) throw ConfigError("fault plan: 'seed' needs a value");
      plan.seed = std::stoull(toks[1]);
      continue;
    }
    if (toks[0][0] != '@') {
      throw ConfigError("fault plan: expected '@<offset> <event>', got '" +
                        line + "'");
    }
    FaultEvent e;
    e.at = parse_duration(toks[0].substr(1), "offset");
    if (toks.size() < 2) throw ConfigError("fault plan: missing event in '" +
                                           line + "'");
    const std::string& verb = toks[1];
    auto need = [&](std::size_t n) {
      if (toks.size() < 2 + n) {
        throw ConfigError("fault plan: '" + verb + "' needs " +
                          std::to_string(n) + " argument(s): '" + line + "'");
      }
    };
    if (verb == "crash" || verb == "recover") {
      need(1);
      e.kind = verb == "crash" ? FaultKind::kCrash : FaultKind::kRecover;
      e.host_a = toks[2];
    } else if (verb == "partition" || verb == "heal") {
      need(2);
      e.kind = verb == "partition" ? FaultKind::kPartition : FaultKind::kHeal;
      e.host_a = toks[2];
      e.host_b = toks[3];
    } else if (verb == "drop_rate") {
      need(1);
      e.kind = FaultKind::kDropRate;
      e.rate = std::stod(toks[2]);
    } else if (verb == "drop_burst") {
      need(3);
      e.kind = FaultKind::kDropBurst;
      e.host_a = toks[2];
      e.host_b = toks[3];
      e.duration = parse_duration(toks[4], "duration");
      e.rate = toks.size() > 5 ? std::stod(toks[5]) : 1.0;
    } else if (verb == "latency_spike") {
      need(2);
      e.kind = FaultKind::kLatencySpike;
      e.duration = parse_duration(toks[2], "duration");
      if (toks[3].empty() || toks[3][0] != 'x') {
        throw ConfigError("fault plan: latency_spike factor must be 'x<n>': '" +
                          line + "'");
      }
      e.factor = std::stod(toks[3].substr(1));
    } else if (verb == "duplicate") {
      need(1);
      e.kind = FaultKind::kDuplicate;
      e.rate = std::stod(toks[2]);
    } else if (verb == "reorder") {
      need(2);
      e.kind = FaultKind::kReorder;
      e.rate = std::stod(toks[2]);
      const std::string& w = toks[3];
      if (w.rfind("window=", 0) != 0) {
        throw ConfigError("fault plan: reorder needs window=<n>: '" + line +
                          "'");
      }
      e.window = std::stoi(w.substr(7));
    } else {
      throw ConfigError("fault plan: unknown event '" + verb + "'");
    }
    plan.events.push_back(std::move(e));
  }
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return plan;
}

std::string FaultPlan::serialize() const {
  std::ostringstream os;
  os << "plan " << name << '\n' << "seed " << seed << '\n';
  for (const FaultEvent& e : events) os << e.describe() << '\n';
  return os.str();
}

Duration FaultPlan::duration() const {
  return events.empty() ? Duration::zero() : events.back().at;
}

// --- FaultController ---------------------------------------------------------

FaultController::FaultController(SimNetwork& net, std::uint64_t seed)
    : net_(net), stream_seed_(seed) {}

Rng& FaultController::stream(const std::string& from) {
  return streams_.try_emplace(from, Rng(stream_seed_)).first->second;
}

void FaultController::refresh_quiescent() {
  // Expired-but-unswept bursts/spikes keep this false; that only costs the
  // fast path, never correctness (the locked path ignores expired entries).
  bool q = crashed_.empty() && partitions_.empty() && bursts_.empty() &&
           spikes_.empty() && drop_rate_ <= 0.0 && duplicate_rate_ <= 0.0 &&
           reorder_rate_ <= 0.0;
  quiescent_.store(q, std::memory_order_release);
}

std::vector<Message> FaultController::take_all_held() {
  std::vector<Message> out;
  for (auto& [to, vec] : holds_) {
    for (Held& h : vec) out.push_back(std::move(h.msg));
  }
  holds_.clear();
  holds_active_.fetch_sub(out.size(), std::memory_order_release);
  return out;
}

// --- plan execution ----------------------------------------------------------

void FaultController::run_plan(FaultPlan plan) {
  TimePoint first = TimePoint::max();
  {
    MutexLock lk(mu_);
    plan_ = std::move(plan);
    next_event_ = 0;
    plan_t0_ = net_.net_now();
    plan_active_ = !plan_.events.empty();
    if (plan_active_) first = plan_t0_ + plan_.events.front().at;
    // Restart every sender's decision stream from the plan seed: decisions
    // become a deterministic function of (plan seed, per-sender traffic).
    stream_seed_ = plan_.seed;
    streams_.clear();
    trace_.clear();
    trace_.push_back("plan " + plan_.name + " seed " +
                     std::to_string(plan_.seed));
  }
  net_.arm_fault(first);
}

bool FaultController::plan_active() const {
  MutexLock lk(mu_);
  return plan_active_;
}

bool FaultController::wait_plan_done(Duration timeout) {
  TimePoint deadline = now() + timeout;
  MutexLock lk(mu_);
  while (plan_active_) {
    if (now() >= deadline) return false;
    cv_.wait_until(mu_, deadline);
  }
  return true;
}

std::vector<std::string> FaultController::event_trace() const {
  MutexLock lk(mu_);
  return trace_;
}

// --- deadlines, pulled by the network's event loop --------------------------

TimePoint FaultController::next_deadline() const {
  MutexLock lk(mu_);
  TimePoint next = TimePoint::max();
  if (plan_active_ && next_event_ < plan_.events.size()) {
    next = plan_t0_ + plan_.events[next_event_].at;
  }
  for (const auto& [to, vec] : holds_) {
    for (const Held& h : vec) next = std::min(next, h.deadline);
  }
  return next;
}

void FaultController::advance(TimePoint nw) {
  std::vector<FaultEvent> due;
  std::vector<Message> swept;
  {
    MutexLock lk(mu_);
    while (plan_active_ && next_event_ < plan_.events.size() &&
           plan_t0_ + plan_.events[next_event_].at <= nw) {
      due.push_back(plan_.events[next_event_]);
      trace_.push_back(plan_.events[next_event_].describe());
      ++next_event_;
    }
    // Sweep expired holdbacks so reordered messages are never stranded.
    for (auto it = holds_.begin(); it != holds_.end();) {
      std::erase_if(it->second, [&](Held& h) {
        if (h.deadline > nw) return false;
        swept.push_back(std::move(h.msg));
        return true;
      });
      it = it->second.empty() ? holds_.erase(it) : std::next(it);
    }
    holds_active_.fetch_sub(swept.size(), std::memory_order_release);
  }
  for (const FaultEvent& e : due) apply_event(e);
  for (Message& m : swept) net_.deposit_swept(std::move(m));
  MutexLock lk(mu_);
  if (plan_active_ && next_event_ >= plan_.events.size()) {
    plan_active_ = false;
    cv_.notify_all();
  }
}

void FaultController::apply_event(const FaultEvent& e) {
  switch (e.kind) {
    case FaultKind::kCrash:
      crash_host(e.host_a);
      break;
    case FaultKind::kRecover:
      recover_host(e.host_a);
      break;
    case FaultKind::kPartition:
      partition(e.host_a, e.host_b);
      break;
    case FaultKind::kHeal:
      heal(e.host_a, e.host_b);
      break;
    case FaultKind::kDropRate:
      set_drop_rate(e.rate);
      break;
    case FaultKind::kDropBurst:
      drop_burst(e.host_a, e.host_b, e.duration, e.rate);
      break;
    case FaultKind::kLatencySpike:
      latency_spike(e.duration, e.factor);
      break;
    case FaultKind::kDuplicate:
      set_duplicate_rate(e.rate);
      break;
    case FaultKind::kReorder:
      set_reorder(e.rate, e.window);
      break;
  }
}

// --- immediate faults --------------------------------------------------------

void FaultController::crash_host(const std::string& host) {
  {
    MutexLock lk(mu_);
    crashed_.insert(host);
    refresh_quiescent();
  }
  // Endpoint marks are applied outside mu_ (SimNetwork takes its own lock).
  net_.set_crashed(host, true);
}

void FaultController::recover_host(const std::string& host) {
  {
    MutexLock lk(mu_);
    crashed_.erase(host);
    refresh_quiescent();
  }
  net_.set_crashed(host, false);
}

void FaultController::partition(const std::string& host_a,
                                const std::string& host_b) {
  auto pair = std::minmax(host_a, host_b);
  MutexLock lk(mu_);
  partitions_.insert({pair.first, pair.second});
  refresh_quiescent();
}

void FaultController::heal(const std::string& host_a,
                           const std::string& host_b) {
  auto pair = std::minmax(host_a, host_b);
  MutexLock lk(mu_);
  partitions_.erase({pair.first, pair.second});
  refresh_quiescent();
}

void FaultController::set_drop_rate(double p) {
  MutexLock lk(mu_);
  drop_rate_ = p;
  refresh_quiescent();
}

void FaultController::set_duplicate_rate(double p) {
  MutexLock lk(mu_);
  duplicate_rate_ = p;
  refresh_quiescent();
}

void FaultController::set_reorder(double p, int window) {
  MutexLock lk(mu_);
  reorder_rate_ = p;
  reorder_window_ = window;
  refresh_quiescent();
}

void FaultController::drop_burst(const std::string& host_a,
                                 const std::string& host_b, Duration duration,
                                 double rate) {
  MutexLock lk(mu_);
  bursts_.push_back(Burst{host_a, host_b, rate, net_.net_now() + duration});
  refresh_quiescent();
}

void FaultController::latency_spike(Duration duration, double factor,
                                    Duration extra) {
  MutexLock lk(mu_);
  spikes_.push_back(Spike{factor, extra, net_.net_now() + duration});
  refresh_quiescent();
}

void FaultController::clear_all_faults() {
  std::vector<std::string> to_recover;
  std::vector<Message> held;
  {
    MutexLock lk(mu_);
    to_recover.assign(crashed_.begin(), crashed_.end());
    crashed_.clear();
    partitions_.clear();
    drop_rate_ = 0.0;
    duplicate_rate_ = 0.0;
    reorder_rate_ = 0.0;
    reorder_window_ = 0;
    bursts_.clear();
    spikes_.clear();
    refresh_quiescent();
    held = take_all_held();
  }
  for (const std::string& host : to_recover) net_.set_crashed(host, false);
  for (Message& m : held) net_.deposit_swept(std::move(m));
}

// --- queries -----------------------------------------------------------------

bool FaultController::is_crashed(const std::string& host) const {
  MutexLock lk(mu_);
  return crashed_.contains(host);
}

double FaultController::drop_rate() const {
  MutexLock lk(mu_);
  return drop_rate_;
}

std::size_t FaultController::held_count() const {
  MutexLock lk(mu_);
  std::size_t n = 0;
  for (const auto& [to, vec] : holds_) n += vec.size();
  return n;
}

// --- send-path hooks ---------------------------------------------------------

FaultDecision FaultController::judge(const std::string& from,
                                     const std::string& from_host,
                                     const std::string& to_host,
                                     bool loopback) {
  FaultDecision d;
  // Healthy-network fast path: with no fault state at all there is nothing
  // to decide and nothing to draw, so skip the controller lock entirely —
  // this is what keeps concurrent senders from serializing here.
  if (quiescent_.load(std::memory_order_acquire)) return d;
  MutexLock lk(mu_);
  if (crashed_.contains(to_host) || crashed_.contains(from_host)) {
    d.drop = true;
    d.drop_reason = "crashed";
    return d;
  }
  if (!loopback) {
    auto pair = std::minmax(from_host, to_host);
    if (partitions_.contains({pair.first, pair.second})) {
      d.drop = true;
      d.drop_reason = "partition";
      return d;
    }
  }
  if (loopback) return d;  // loopback is exempt from lossy/wire faults

  Rng& rng = stream(from);
  TimePoint nw = net_.net_now();
  for (auto it = bursts_.begin(); it != bursts_.end();) {
    if (it->until <= nw) {
      it = bursts_.erase(it);
      continue;
    }
    bool match_a = it->a == "*" || it->a == from_host;
    bool match_b = it->b == "*" || it->b == to_host;
    // A burst between two named hosts hits both directions.
    bool match_rev = it->a != "*" && it->b != "*" && it->a == to_host &&
                     it->b == from_host;
    if ((match_a && match_b) || match_rev) {
      if (rng.next_bool(it->rate)) {
        d.drop = true;
        d.drop_reason = "burst";
        return d;
      }
    }
    ++it;
  }
  if (drop_rate_ > 0 && rng.next_bool(drop_rate_)) {
    d.drop = true;
    d.drop_reason = "random";
    return d;
  }
  for (auto it = spikes_.begin(); it != spikes_.end();) {
    if (it->until <= nw) {
      it = spikes_.erase(it);
      continue;
    }
    d.latency_factor *= it->factor;
    d.extra_latency += it->extra;
    ++it;
  }
  if (duplicate_rate_ > 0 && rng.next_bool(duplicate_rate_)) {
    d.duplicate = true;
  }
  if (reorder_rate_ > 0 && reorder_window_ > 0 &&
      rng.next_bool(reorder_rate_)) {
    d.defer = 1 + static_cast<int>(rng.next_below(
                      static_cast<std::uint64_t>(reorder_window_)));
  }
  return d;
}

void FaultController::hold(const std::string& to, Message msg, int defer) {
  TimePoint deadline;
  {
    MutexLock lk(mu_);
    deadline = net_.net_now() + max_hold_;
    holds_[to].push_back(Held{std::move(msg), defer, deadline});
    holds_active_.fetch_add(1, std::memory_order_release);
  }
  net_.arm_fault(deadline);  // the loop sweeps the hold if no send frees it
}

std::vector<Message> FaultController::on_send(const std::string& to,
                                              TimePoint deliver_at) {
  std::vector<Message> released;
  // Nothing held anywhere (the common case) — skip the controller lock.
  // A hold for `to` racing with this send is impossible: both run under
  // `to`'s clamp shard.
  if (holds_active_.load(std::memory_order_acquire) == 0) return released;
  MutexLock lk(mu_);
  auto it = holds_.find(to);
  if (it == holds_.end()) return released;
  std::erase_if(it->second, [&](Held& h) {
    if (--h.remaining > 0) return false;
    // Same deliver_at as the trigger message: the pending queue keeps equal
    // timestamps in arrival order, and the trigger is queued first, so the
    // hold is overtaken by exactly the sends that released it.
    h.msg.deliver_at = deliver_at;
    released.push_back(std::move(h.msg));
    return true;
  });
  holds_active_.fetch_sub(released.size(), std::memory_order_release);
  if (it->second.empty()) holds_.erase(it);
  return released;
}

}  // namespace cqos::net
