// Span-based request tracing.
//
// The CQoS stub mints one TraceId per request; it rides the abstract
// Request and crosses the wire in the piggyback/service-context map
// (pbkey::kTraceId), so the skeleton, the Cactus composites and every
// micro-protocol handler observe the SAME id for one logical request and
// can attribute their per-hop timings to it (the paper's Table 1/2 cost
// breakdown, but per request instead of per configuration).
//
// Spans are recorded into per-thread buffers of one bounded tracer, so
// concurrent requests do not serialize on a tracer lock; recording is
// skipped entirely for TraceId 0 ("not traced"). Tests and tools read
// spans back by trace id (Tracer::spans_for merges the buffers).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
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

/// Bounded store of completed spans. One process-wide instance; the cap
/// keeps long simulations from growing without bound.
///
/// Each recording thread appends to its own buffer, registered with the
/// tracer at its first span, so concurrent recorders take no common lock:
/// a record locks only its own buffer (contended by readers alone) and
/// bumps the exact span count. When the count passes the capacity, the
/// recording thread drops its own oldest span, so the cap bounds the total
/// and size() stays exact. Readers (spans_for, clear, set_capacity) walk
/// every buffer; spans_for returns one trace's spans in end-time order.
class Tracer {
 public:
  Tracer() : id_(next_tracer_id()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void record(Span s) {
    if (s.trace == 0 || !enabled_.load(std::memory_order_relaxed)) return;
    Buffer& b = local_buffer();
    MutexLock lk(b.mu);
    b.spans.push_back(std::move(s));
    if (size_.fetch_add(1, std::memory_order_relaxed) >=
        cap_.load(std::memory_order_relaxed)) {
      b.spans.pop_front();
      size_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  std::vector<Span> spans_for(TraceId id) const {
    std::vector<Span> out;
    MutexLock lk(mu_);
    for (const auto& b : buffers_) {
      MutexLock blk(b->mu);
      for (const Span& s : b->spans) {
        if (s.trace == id) out.push_back(s);
      }
    }
    std::stable_sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
      return end_of(a) < end_of(b);
    });
    return out;
  }

  std::size_t size() const { return size_.load(std::memory_order_relaxed); }

  void clear() {
    MutexLock lk(mu_);
    for (const auto& b : buffers_) {
      MutexLock blk(b->mu);
      size_.fetch_sub(b->spans.size(), std::memory_order_relaxed);
      b->spans.clear();
    }
  }

  /// Drops the oldest spans (by end time, across threads) beyond `cap`.
  void set_capacity(std::size_t cap) {
    MutexLock lk(mu_);
    cap_.store(cap == 0 ? 1 : cap, std::memory_order_relaxed);
    while (size_.load(std::memory_order_relaxed) >
           cap_.load(std::memory_order_relaxed)) {
      Buffer* oldest = nullptr;
      TimePoint oldest_end{};
      for (const auto& b : buffers_) {
        MutexLock blk(b->mu);
        if (b->spans.empty()) continue;
        if (oldest == nullptr || end_of(b->spans.front()) < oldest_end) {
          oldest = b.get();
          oldest_end = end_of(b->spans.front());
        }
      }
      if (oldest == nullptr) break;
      MutexLock blk(oldest->mu);
      if (oldest->spans.empty()) continue;
      oldest->spans.pop_front();
      size_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  /// Cheap global kill switch (benchmark rows that must not pay for span
  /// recording can turn it off).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  static Tracer& global();

 private:
  /// One recording thread's spans, oldest first.
  struct Buffer {
    std::thread::id owner;
    mutable Mutex mu;
    std::deque<Span> spans CQOS_GUARDED_BY(mu);
  };

  static std::uint64_t next_tracer_id() {
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }
  static TimePoint end_of(const Span& s) { return s.start + s.elapsed; }

  /// The calling thread's buffer, found through a thread-local cache keyed
  /// by tracer id (ids are never reused, so a destroyed tracer's entry
  /// never matches). A thread gets one buffer per tracer; a later thread
  /// with the same std::thread::id reuses a dead thread's buffer.
  Buffer& local_buffer() {
    struct Cached {
      std::uint64_t tracer = 0;
      Buffer* buffer = nullptr;
    };
    thread_local Cached cached;
    if (cached.tracer == id_) return *cached.buffer;
    const std::thread::id self = std::this_thread::get_id();
    MutexLock lk(mu_);
    Buffer* found = nullptr;
    for (const auto& b : buffers_) {
      if (b->owner == self) found = b.get();
    }
    if (found == nullptr) {
      buffers_.push_back(std::make_unique<Buffer>());
      found = buffers_.back().get();
      found->owner = self;
    }
    cached = Cached{id_, found};
    return *found;
  }

  const std::uint64_t id_;
  std::atomic<bool> enabled_{true};
  std::atomic<std::size_t> size_{0};
  std::atomic<std::size_t> cap_{4096};
  /// Guards the buffer list (never a span); taken before a buffer's lock.
  mutable Mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_ CQOS_GUARDED_BY(mu_);
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
