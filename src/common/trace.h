// Span-based request tracing.
//
// The CQoS stub mints one TraceId per request; it rides the abstract
// Request and crosses the wire in the piggyback/service-context map
// (pbkey::kTraceId), so the skeleton, the Cactus composites and every
// micro-protocol handler observe the SAME id for one logical request and
// can attribute their per-hop timings to it (the paper's Table 1/2 cost
// breakdown, but per request instead of per configuration).
//
// Spans are recorded into a bounded global ring buffer; recording is a
// short critical section on one mutex and is skipped entirely for
// TraceId 0 ("not traced"). Tests and tools read spans back by trace id.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/sync.h"
#include "common/thread_annotations.h"

namespace cqos::trace {

/// 0 means "untraced"; real ids start at 1.
using TraceId = std::uint64_t;

inline TraceId next_trace_id() {
  static std::atomic<TraceId> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// One timed hop of a traced request (stub call, skeleton dispatch, one
/// micro-protocol handler activation, ...).
struct Span {
  TraceId trace = 0;
  std::string name;    // e.g. "cqos.stub.call", "micro.readyToInvoke.invokeServant"
  std::string detail;  // method name, event name, ... (free-form)
  TimePoint start{};
  Duration elapsed{};
};

/// Bounded ring of completed spans. One process-wide instance; the cap
/// keeps long simulations from growing without bound (oldest spans drop).
class Tracer {
 public:
  void record(Span s) {
    if (s.trace == 0 || !enabled_.load(std::memory_order_relaxed)) return;
    MutexLock lk(mu_);
    spans_.push_back(std::move(s));
    while (spans_.size() > cap_) spans_.pop_front();
  }

  std::vector<Span> spans_for(TraceId id) const {
    MutexLock lk(mu_);
    std::vector<Span> out;
    for (const Span& s : spans_) {
      if (s.trace == id) out.push_back(s);
    }
    return out;
  }

  std::size_t size() const {
    MutexLock lk(mu_);
    return spans_.size();
  }

  void clear() {
    MutexLock lk(mu_);
    spans_.clear();
  }

  void set_capacity(std::size_t cap) {
    MutexLock lk(mu_);
    cap_ = cap == 0 ? 1 : cap;
    while (spans_.size() > cap_) spans_.pop_front();
  }

  /// Cheap global kill switch (benchmark rows that must not pay the ring
  /// buffer mutex can turn recording off).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  static Tracer& global();

 private:
  std::atomic<bool> enabled_{true};
  mutable Mutex mu_;
  std::deque<Span> spans_ CQOS_GUARDED_BY(mu_);
  std::size_t cap_ CQOS_GUARDED_BY(mu_) = 4096;
};

inline Tracer& Tracer::global() {
  static Tracer* instance = new Tracer();  // leaked: outlive all users
  return *instance;
}

/// RAII span: times its scope, then records into the global tracer and
/// (optionally) a latency histogram. Safe with TraceId 0 — the histogram
/// still sees the sample, the tracer does not. `name` and `detail` are views:
/// they must outlive the scope. A Span (and its strings) is built only when
/// the id is traced and the tracer is enabled, so the off path allocates
/// nothing.
class ScopedSpan {
 public:
  ScopedSpan(TraceId id, std::string_view name, std::string_view detail = {},
             metrics::Histogram* hist = nullptr)
      : id_(id), name_(name), detail_(detail), hist_(hist), start_(now()) {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    Duration elapsed = now() - start_;
    if (hist_ != nullptr) hist_->record(elapsed);
    if (id_ != 0 && Tracer::global().enabled()) {
      Tracer::global().record(Span{id_, std::string(name_),
                                   std::string(detail_), start_, elapsed});
    }
  }

 private:
  TraceId id_;
  std::string_view name_;
  std::string_view detail_;
  metrics::Histogram* hist_;
  TimePoint start_;
};

}  // namespace cqos::trace
