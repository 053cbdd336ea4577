// Request-path metrics: lock-cheap counters and fixed-bucket histograms
// collected in a named registry, snapshot-able to deterministic JSON.
//
// The paper's evaluation (§5, Tables 1–3) is an overhead accounting
// exercise — where do the microseconds go between CQoS stub,
// micro-protocols, network and skeleton. This registry is the
// machine-readable substrate for that accounting: the network layer counts
// messages/bytes/drops per host pair, MicroBase times every bound handler,
// and the bench binaries dump a snapshot next to their latency tables.
//
// Concurrency: Counter::inc and Histogram::record are wait-free relaxed
// increments into the recording thread's stripe, so concurrent recorders
// share no cache line; readers sum the stripes and totals stay exact. Only
// name->instrument resolution takes the registry mutex, so hot paths
// resolve once and cache the reference. Instruments are owned by
// the registry and never move or die before it, so cached references stay
// valid for the registry's lifetime.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/clock.h"
#include "common/sync.h"
#include "common/thread_annotations.h"

namespace cqos::metrics {

/// Stripe count of Counter and Histogram, and the calling thread's stripe.
/// Threads are assigned stripes round-robin at first use; the assignment is
/// per thread, not per instrument, which keeps the lookup a thread-local
/// read.
inline constexpr std::size_t kStripes = 8;

inline std::size_t stripe_index() {
  static std::atomic<std::size_t> next{0};
  thread_local std::size_t idx =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return idx;
}

/// Monotonic event counter. Relaxed increments: totals are exact, ordering
/// against other memory is not implied (snapshot readers only need totals).
///
/// Increments are striped across cache-line-sized slots keyed by thread, so
/// a counter hammered from several threads at once (the network send path
/// counts every message into a handful of aggregates) does not serialize
/// those threads on one cache line. value() sums the stripes — exact, since
/// every increment landed in exactly one of them. The cost is footprint
/// (kStripes cache lines per counter), which is fine for the named
/// instruments a process creates; don't mint counters per entity in
/// unbounded populations.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    stripes_[stripe_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Stripe& s : stripes_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }
  void reset() {
    for (Stripe& s : stripes_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> v{0};
  };

  std::array<Stripe, kStripes> stripes_{};
};

/// Fixed-bucket latency histogram (microseconds). Bucket upper bounds are
/// powers of two from 1 us to ~8.4 s plus an overflow bucket, so two
/// histograms recorded anywhere in the process merge bucket-by-bucket and
/// snapshots are deterministic for a given sequence of observations.
///
/// Striped like Counter: each record's three increments land in the
/// recording thread's stripe (its own cache lines), and the readers sum
/// the stripes, so totals stay exact. A request makes about a dozen
/// records (every timed handler, stub, skeleton and composite span), and
/// on one shared set of lines those made concurrent callers wait on each
/// other. Footprint: kStripes x 256 bytes per histogram.
class Histogram {
 public:
  static constexpr int kBuckets = 24;  // bound[i] = 2^i us; last = overflow

  void record_us(double us) {
    if (us < 0) us = 0;
    Stripe& s = stripes_[stripe_index()];
    s.buckets[static_cast<std::size_t>(bucket_for(us))].fetch_add(
        1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum_ns.fetch_add(static_cast<std::uint64_t>(us * 1e3),
                       std::memory_order_relaxed);
  }
  void record(Duration d) { record_us(to_us(d)); }

  /// Add `o`'s totals into this histogram (into the caller's stripe).
  void merge(const Histogram& o) {
    Stripe& s = stripes_[stripe_index()];
    for (int i = 0; i <= kBuckets; ++i) {
      s.buckets[static_cast<std::size_t>(i)].fetch_add(
          o.bucket(i), std::memory_order_relaxed);
    }
    s.count.fetch_add(o.count(), std::memory_order_relaxed);
    s.sum_ns.fetch_add(o.sum(&Stripe::sum_ns), std::memory_order_relaxed);
  }

  std::uint64_t count() const { return sum(&Stripe::count); }
  double sum_us() const {
    return static_cast<double>(sum(&Stripe::sum_ns)) / 1e3;
  }
  double mean_us() const {
    std::uint64_t n = count();
    return n == 0 ? 0 : sum_us() / static_cast<double>(n);
  }

  std::uint64_t bucket(int i) const {
    std::uint64_t total = 0;
    for (const Stripe& s : stripes_) {
      total += s.buckets[static_cast<std::size_t>(i)].load(
          std::memory_order_relaxed);
    }
    return total;
  }

  /// Upper bound of bucket i in microseconds (overflow bucket: +inf,
  /// reported as the last finite bound).
  static double bound_us(int i) {
    return static_cast<double>(std::uint64_t{1} << (i < kBuckets ? i : kBuckets - 1));
  }

  /// Bucket-interpolated percentile estimate (p in [0,100]).
  double percentile_us(double p) const;

  void reset() {
    for (Stripe& s : stripes_) {
      for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
      s.count.store(0, std::memory_order_relaxed);
      s.sum_ns.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Stripe {
    std::array<std::atomic<std::uint64_t>, kBuckets + 1> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum_ns{0};
  };

  static int bucket_for(double us) {
    for (int i = 0; i < kBuckets; ++i) {
      if (us <= bound_us(i)) return i;
    }
    return kBuckets;
  }

  std::uint64_t sum(std::atomic<std::uint64_t> Stripe::*field) const {
    std::uint64_t total = 0;
    for (const Stripe& s : stripes_) {
      total += (s.*field).load(std::memory_order_relaxed);
    }
    return total;
  }

  std::array<Stripe, kStripes> stripes_{};
};

/// Named instrument registry. Names use a dotted scheme (see DESIGN.md §9):
///   net.*   network-level counters        (net.sent.msgs, net.drop.crashed)
///   micro.* per-handler latency           (micro.readyToInvoke.invokeServant)
///   cqos.*  stub/skeleton/composite spans (cqos.stub.call)
class Registry {
 public:
  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Deterministic JSON object: {"counters":{...},"histograms":{...}} with
  /// names sorted (std::map order) so equal recorded state yields equal text.
  std::string to_json() const;

  /// Zero every instrument (references stay valid). Tests only.
  void reset();

  /// Process-wide default registry used when no explicit registry is wired.
  static Registry& global();

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      CQOS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      CQOS_GUARDED_BY(mu_);
};

}  // namespace cqos::metrics
