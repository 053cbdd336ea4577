#include "micro/timeliness.h"

namespace cqos::micro {
namespace {
constexpr int kDefaultHighFloor = kNormalPriority + 1;
}  // namespace

// --- PrioritySched ----------------------------------------------------------------

void PrioritySched::init(cactus::CompositeProtocol& proto) {
  server_holder(proto);
  // setPriority: first handler for readyToInvoke so the priority changes as
  // early as possible.
  bind_tracked(proto, 
      ev::kReadyToInvoke, "setPriority",
      [](cactus::EventContext& ctx) {
        set_thread_priority(ctx.dyn<RequestPtr>()->priority);
      },
      order::kSetPriority);
}

std::unique_ptr<cactus::MicroProtocol> PrioritySched::make(
    const MicroProtocolSpec& spec) {
  (void)spec;
  return std::make_unique<PrioritySched>();
}

MicroManifest PrioritySched::manifest() {
  return MicroManifest("priority_sched", Side::kServer)
      .binds(ev::kReadyToInvoke);
}

// --- QueuedSched ------------------------------------------------------------------

void QueuedSched::init(cactus::CompositeProtocol& proto) {
  server_holder(proto);
  auto state = proto.shared().get_or_create<State>(kStateKey);
  const int high_floor = high_floor_;

  // checkPriority: admit high-priority work (and count it); park
  // low-priority work while high-priority requests are executing.
  bind_tracked(proto, 
      ev::kReadyToInvoke, "checkPriority",
      [state, high_floor](cactus::EventContext& ctx) {
        auto req = ctx.dyn<RequestPtr>();
        MutexLock lk(state->mu);
        if (req->priority >= high_floor) {
          if (state->counted_high.insert(req->id).second) {
            ++state->high_active;
          }
          return;
        }
        if (state->high_active > 0) {
          state->low_waiting.push_back(req);
          ctx.halt();
        }
      },
      order::kSchedGate);

  // notifyWaiting: bound last to invokeReturn. Uses the modified raise()
  // that specifies a low thread priority so the wakeup never competes with
  // the thread returning the high-priority reply. This is the fast-path
  // decrement only — invokeReturn is NOT raised for every terminal outcome
  // (a pre-invoke handler may complete+halt, the invoke may throw, or the
  // server may time the request out), so retireReturned below is the
  // authoritative cleanup.
  bind_tracked(proto,
      ev::kInvokeReturn, "notifyWaiting",
      [state](cactus::EventContext& ctx) {
        auto req = ctx.dyn<RequestPtr>();
        bool wake = false;
        {
          MutexLock lk(state->mu);
          if (state->counted_high.erase(req->id) != 0) {
            --state->high_active;
          }
          wake = state->high_active == 0 && !state->low_waiting.empty();
        }
        if (wake) {
          ctx.protocol().raise_async(ev::kRequestReturned, req, kMinPriority);
        }
      },
      order::kSchedNotify);

  // retireReturned: terminal-outcome backstop. The server runtime raises
  // requestReturned for EVERY request (success, failure, halt-completed,
  // timed out), so a counted high-priority request that never reached
  // invokeReturn is still uncounted here instead of pinning high_active > 0
  // and stranding the parked low-priority queue forever. counted_high makes
  // the decrement exactly-once across both handlers.
  bind_tracked(proto,
      ev::kRequestReturned, "retireReturned",
      [state](cactus::EventContext& ctx) {
        auto req = ctx.dyn<RequestPtr>();
        MutexLock lk(state->mu);
        if (state->counted_high.erase(req->id) != 0) {
          --state->high_active;
        }
      },
      order::kSchedRetire);

  // wakeupNext: release one waiting low-priority request if still eligible,
  // then RE-ARM: while waiters remain releasable, raise another wake so one
  // lost/absorbed wake (shutdown race, dropped pool task) can never strand
  // the rest of the queue behind a single released request.
  bind_tracked(proto,
      ev::kRequestReturned, "wakeupNext",
      [state](cactus::EventContext& ctx) {
        RequestPtr next;
        bool rearm = false;
        {
          MutexLock lk(state->mu);
          while (state->high_active == 0 && !state->low_waiting.empty()) {
            next = std::move(state->low_waiting.front());
            state->low_waiting.pop_front();
            // A parked request may have timed out (server completed it
            // while it waited): releasing it would be a wasted invoke.
            if (!next->is_done()) break;
            next.reset();
          }
          rearm = next != nullptr && state->high_active == 0 &&
                  !state->low_waiting.empty();
        }
        if (next) {
          ctx.protocol().raise_async(ev::kReadyToInvoke, next, next->priority);
        }
        if (rearm) {
          ctx.protocol().raise_async(ev::kRequestReturned,
                                     ctx.dyn<RequestPtr>(), kMinPriority);
        }
      },
      cactus::kOrderDefault);
}

std::unique_ptr<cactus::MicroProtocol> QueuedSched::make(
    const MicroProtocolSpec& spec) {
  return std::make_unique<QueuedSched>(
      static_cast<int>(spec.param_int("high", kDefaultHighFloor)));
}

MicroManifest QueuedSched::manifest() {
  return MicroManifest("queued_sched", Side::kServer)
      .binds(ev::kReadyToInvoke)
      .binds(ev::kInvokeReturn)
      .binds(ev::kRequestReturned)
      .raises(ev::kRequestReturned)
      .raises(ev::kReadyToInvoke)
      .config("high")
      .constraint("conflicts:timed_sched");
}

// --- Deadline ---------------------------------------------------------------------

void Deadline::init(cactus::CompositeProtocol& proto) {
  client_holder(proto);
  const std::int64_t budget = budget_ms_;

  // stampDeadline: early on newRequest so the budget is part of the request
  // before replica assignment (forwarded copies carry it too). The stamp is
  // a RELATIVE budget; the skeleton anchors it at arrival (clock-skew safe).
  bind_tracked(proto,
      ev::kNewRequest, "stampDeadline",
      [budget](cactus::EventContext& ctx) {
        auto req = ctx.dyn<RequestPtr>();
        req->piggyback[pbkey::kDeadline] = Value(budget);
        req->deadline = now() + ms(budget);
      },
      order::kDeadlineStamp);
}

std::unique_ptr<cactus::MicroProtocol> Deadline::make(
    const MicroProtocolSpec& spec) {
  std::int64_t budget = spec.param_int("budget_ms", 1000);
  if (budget <= 0) {
    throw ConfigError("deadline: budget_ms must be positive");
  }
  return std::make_unique<Deadline>(budget);
}

MicroManifest Deadline::manifest() {
  return MicroManifest("deadline", Side::kClient)
      .binds(ev::kNewRequest)
      .writes_pb(pbkey::kDeadline)
      .config("budget_ms");
}

// --- TimedSched -------------------------------------------------------------------

TimedSched::~TimedSched() = default;

void TimedSched::release_one_locked(State& state,
                                    cactus::CompositeProtocol& proto) {
  if (state.low_waiting.empty()) return;
  RequestPtr next = std::move(state.low_waiting.front());
  state.low_waiting.pop_front();
  proto.raise_async(ev::kReadyToInvoke, next, next->priority);
}

void TimedSched::init(cactus::CompositeProtocol& proto) {
  server_holder(proto);
  proto_ = &proto;
  auto state = proto.shared().get_or_create<State>(kStateKey);
  const int high_floor = high_floor_;
  const int threshold = threshold_;

  // checkPriority: count high arrivals per period; park low requests unless
  // the system was quiet in the previous period and is quiet now.
  bind_tracked(proto, 
      ev::kReadyToInvoke, "checkPriority",
      [state, high_floor, threshold](cactus::EventContext& ctx) {
        auto req = ctx.dyn<RequestPtr>();
        MutexLock lk(state->mu);
        if (req->priority >= high_floor) {
          ++state->high_current;
          return;
        }
        if (req->has_flag("ts.released")) return;  // re-raise after release
        if (state->high_prev == 0 && state->high_current == 0 &&
            state->low_waiting.empty()) {
          return;  // idle system: no differentiation needed
        }
        state->low_waiting.push_back(req);
        ctx.halt();
      },
      order::kSchedGate);

  // Period tick: rotate the counters and release one low request when the
  // previous period was below the threshold. Release is tick-driven and one
  // at a time (paper §3.4) — low-priority throughput is rate-limited to one
  // request per period while high-priority traffic is present.
  bind_tracked(proto, 
      "ts:tick", "timedTick",
      [state, threshold, stopped = stopped_,
       period = period_](cactus::EventContext& ctx) {
        {
          MutexLock lk(state->mu);
          state->high_prev = state->high_current;
          state->high_current = 0;
          if (state->high_prev < threshold && !state->low_waiting.empty()) {
            state->low_waiting.front()->once("ts.released", [] {});
            release_one_locked(*state, ctx.protocol());
          }
        }
        if (!stopped->load()) {
          ctx.protocol().raise_delayed("ts:tick", std::any(true), period);
        }
      },
      cactus::kOrderDefault);

  proto.raise_delayed("ts:tick", std::any(true), period_);
}

void TimedSched::shutdown() {
  stopped_->store(true);
  MicroBase::shutdown();  // unbind tracked handlers
}

std::unique_ptr<cactus::MicroProtocol> TimedSched::make(
    const MicroProtocolSpec& spec) {
  return std::make_unique<TimedSched>(
      static_cast<int>(spec.param_int("high", kDefaultHighFloor)),
      ms(spec.param_int("period_ms", 50)),
      static_cast<int>(spec.param_int("threshold", 8)));
}

MicroManifest TimedSched::manifest() {
  return MicroManifest("timed_sched", Side::kServer)
      .binds(ev::kReadyToInvoke)
      .binds("ts:tick")
      .raises("ts:tick")
      .raises(ev::kReadyToInvoke)
      .config("high")
      .config("period_ms")
      .config("threshold")
      .constraint("conflicts:queued_sched");
}

}  // namespace cqos::micro
