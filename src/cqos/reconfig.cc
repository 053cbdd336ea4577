#include "cqos/reconfig.h"

#include "common/error.h"
#include "common/log.h"
#include "common/metrics.h"

namespace cqos {

std::string_view gate_phase_name(GatePhase p) {
  switch (p) {
    case GatePhase::kLive:
      return "live";
    case GatePhase::kDraining:
      return "draining";
    case GatePhase::kSwapping:
      return "swapping";
    case GatePhase::kClosed:
      return "closed";
  }
  return "?";
}

// --- QuiesceGate -------------------------------------------------------------

// The live path is one atomic word: the in-flight count (in units of kOne)
// and a not-live bit. enter() counts itself in with a CAS that fails once
// the bit is set, and exit() takes mu_ only when it leaves the gate empty
// while the bit is set. Every phase change happens under mu_ and sets or
// clears the bit there; waits recheck the word under mu_. Why no wakeup is
// lost (DESIGN.md §8): the bit and the count share one word, so an exit()
// either decrements before begin_drain() sets the bit (the drain then
// reads the lower count) or sees the bit and notifies under mu_, which it
// cannot take until the drain is waiting.

bool QuiesceGate::enter() {
  std::int64_t w = word_.load(std::memory_order_acquire);
  while ((w & kNotLive) == 0) {
    if (word_.compare_exchange_weak(w, w + kOne, std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
      return true;
    }
  }
  MutexLock lk(mu_);
  if (phase_ == GatePhase::kLive) {  // resumed since the load above
    word_.fetch_add(kOne, std::memory_order_acq_rel);
    return true;
  }
  if (phase_ == GatePhase::kClosed) return false;
  // Draining or swapping: park. Bounded queue — overflow is a visible
  // rejection, never a silent drop.
  if (parked_ >= max_parked_) {
    metrics::Registry::global().counter("cqos.reconfig.park_overflow").inc();
    return false;
  }
  ++parked_;
  if (parked_ > parked_peak_) parked_peak_ = parked_;
  TimePoint deadline = now() + park_timeout_;
  bool admitted = false;
  while (true) {
    if (phase_ == GatePhase::kLive) {
      word_.fetch_add(kOne, std::memory_order_acq_rel);
      ++released_;
      admitted = true;
      break;
    }
    if (phase_ == GatePhase::kClosed) break;
    if (now() >= deadline) {
      metrics::Registry::global().counter("cqos.reconfig.park_timeout").inc();
      break;
    }
    cv_.wait_until(mu_, deadline);
  }
  --parked_;
  cv_.notify_all();  // the drain driver may be waiting on parked_ == 0
  return admitted;
}

void QuiesceGate::exit() {
  std::int64_t prev = word_.fetch_sub(kOne, std::memory_order_acq_rel);
  if (prev == kNotLive + kOne) {
    // The last request left while the gate is not live: begin_drain() may
    // be waiting for it.
    MutexLock lk(mu_);
    cv_.notify_all();
  }
}

void QuiesceGate::control_checkpoint() {
  if ((word_.load(std::memory_order_acquire) & kNotLive) == 0) return;
  MutexLock lk(mu_);
  // Bounded: the swapping window is local surgery with zero in-flight
  // requests, so this is milliseconds. The bound guards against a wedged
  // swap thread turning a control into a hang.
  TimePoint deadline = now() + ms(10'000);
  while (phase_ == GatePhase::kSwapping && now() < deadline) {
    cv_.wait_until(mu_, deadline);
  }
}

void QuiesceGate::set_phase_locked(GatePhase p) {
  phase_ = p;
  if (p == GatePhase::kLive) {
    word_.fetch_and(~kNotLive, std::memory_order_acq_rel);
  } else {
    word_.fetch_or(kNotLive, std::memory_order_acq_rel);
  }
}

bool QuiesceGate::begin_drain(const ReconfigOptions& opts) {
  MutexLock lk(mu_);
  if (phase_ != GatePhase::kLive) {
    throw Error(std::string("QuiesceGate: begin_drain in phase ") +
                std::string(gate_phase_name(phase_)));
  }
  set_phase_locked(GatePhase::kDraining);
  parked_peak_ = 0;
  released_ = 0;
  max_parked_ = opts.max_parked;
  park_timeout_ = opts.park_timeout;
  TimePoint deadline = now() + opts.drain_timeout;
  while (inflight() > 0 && now() < deadline) {
    cv_.wait_until(mu_, deadline);
  }
  if (inflight() > 0) {
    // Abort: back to live, parked arrivals release onto the old stack.
    set_phase_locked(GatePhase::kLive);
    cv_.notify_all();
    return false;
  }
  return true;
}

void QuiesceGate::begin_swap() {
  MutexLock lk(mu_);
  if (phase_ != GatePhase::kDraining || inflight() != 0) {
    throw Error("QuiesceGate: begin_swap without a completed drain");
  }
  set_phase_locked(GatePhase::kSwapping);
}

void QuiesceGate::resume() {
  MutexLock lk(mu_);
  if (phase_ == GatePhase::kClosed) return;
  set_phase_locked(GatePhase::kLive);
  cv_.notify_all();
}

void QuiesceGate::close() {
  MutexLock lk(mu_);
  set_phase_locked(GatePhase::kClosed);
  cv_.notify_all();
}

GatePhase QuiesceGate::phase() const {
  MutexLock lk(mu_);
  return phase_;
}

int QuiesceGate::inflight() const {
  return static_cast<int>(word_.load(std::memory_order_acquire) / kOne);
}

int QuiesceGate::parked_peak() const {
  MutexLock lk(mu_);
  return parked_peak_;
}

std::uint64_t QuiesceGate::released() const {
  MutexLock lk(mu_);
  return released_;
}

// --- swap engine -------------------------------------------------------------

namespace {

// Tear a (possibly partially installed) stack out of the composite:
// quiesce, export into `bag` (when non-null), shutdown (unbinds handlers).
void teardown_stack(cactus::CompositeProtocol& proto, cactus::StateBag* bag) {
  auto outgoing = proto.extract_protocols();
  for (auto& mp : outgoing) mp->quiesce();
  if (bag != nullptr) {
    for (auto& mp : outgoing) mp->export_state(*bag);
  }
  for (auto& mp : outgoing) mp->shutdown();
}

// Install `specs` and import `bag` into the new instances. On any failure
// the partial install is torn down (no export) and the exception
// propagates.
void install_stack(cactus::CompositeProtocol& proto, Side side,
                   const std::vector<MicroProtocolSpec>& specs,
                   const cactus::StateBag& bag) {
  try {
    MicroProtocolRegistry::instance().install(side, specs, proto);
    for (const std::string& name : proto.protocol_names()) {
      if (cactus::MicroProtocol* mp = proto.find_protocol(name)) {
        mp->import_state(bag);
      }
    }
  } catch (...) {
    teardown_stack(proto, nullptr);
    throw;
  }
}

}  // namespace

void swap_stack(cactus::CompositeProtocol& proto, QuiesceGate& gate,
                Side side, const std::vector<MicroProtocolSpec>& old_specs,
                const std::vector<MicroProtocolSpec>& new_specs,
                const ReconfigOptions& opts, ReconfigReport& report) {
  TimePoint t0 = now();
  if (!gate.begin_drain(opts)) {
    metrics::Registry::global().counter("cqos.reconfig.drain_timeout").inc();
    throw TimeoutError("reconfigure: drain of in-flight requests timed out "
                       "after " +
                       std::to_string(to_ms(opts.drain_timeout)) +
                       " ms (stack unchanged)");
  }
  TimePoint t1 = now();
  report.drain_ms = to_ms(t1 - t0);
  gate.begin_swap();

  cactus::StateBag bag;
  teardown_stack(proto, &bag);
  try {
    install_stack(proto, side, new_specs, bag);
  } catch (const std::exception& e) {
    // Roll back: re-create the OLD stack from its specs (fresh instances —
    // re-initializing shut-down instances is not part of the micro-protocol
    // contract) and re-import the exported state.
    CQOS_LOG_WARN(proto.name(), ": reconfigure install failed (", e.what(),
                  "), rolling back to previous composition");
    metrics::Registry::global().counter("cqos.reconfig.rollback").inc();
    report.rolled_back = true;
    try {
      install_stack(proto, side, old_specs, bag);
    } catch (...) {
      // The old stack no longer installs either: the composite is left
      // empty. The endpoint stays up but unconfigured; the rollback
      // failure propagates.
      gate.resume();
      throw;
    }
    gate.resume();
    report.parked_peak = gate.parked_peak();
    report.swap_ms = to_ms(now() - t1);
    report.total_ms = to_ms(now() - t0);
    throw;
  }
  gate.resume();
  report.parked_peak = gate.parked_peak();
  report.released = gate.released();
  report.swap_ms = to_ms(now() - t1);
  report.total_ms = to_ms(now() - t0);
  metrics::Registry::global().counter("cqos.reconfig.swaps").inc();
}

}  // namespace cqos
