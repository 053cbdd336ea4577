// In-process simulated cluster network.
//
// Stands in for the paper's testbed (Linux cluster on 1 Gbit Ethernet). Hosts
// are namespaces in endpoint ids ("hostA/orb", "hostA/client0"); messages
// between endpoints are delivered after a simulated latency of
//     base + per_byte * payload_size (+ uniform jitter)
// or a smaller loopback latency for same-host traffic. Fault injection —
// host crash/recover, pairwise partitions, probabilistic drop, duplication,
// bounded reordering, latency spikes and scheduled fault plans — lives in
// the FaultController (net/fault.h) and drives the fault-tolerance tests,
// the chaos soak harness and the examples.
//
// Delivery is FIFO per sender/receiver pair (latency is deterministic per
// size; ordering is enforced with a sequence tie-break and monotone clamp).
//
// One event loop under two clocks (NetConfig::time_mode, DESIGN.md §14).
// A message that is not delivered at once waits in its destination's
// pending queue, kept next to the FIFO clamp under the same shard lock and
// sorted by (deliver_at, arrival). One heap, ordered by (timestamp, fault
// deadlines first, insertion), holds what the loop does next: a wake-up per
// destination at its pending head, timers scheduled via schedule_at, and
// the FaultController's next deadline (plan event or reorder-hold sweep).
// The send path is lock-sharded (endpoint map, per-sender jitter streams,
// per-destination shards, cached per-pair metric handles), so concurrent
// senders do not convoy on one mutex. The clock decides only who pops the
// heap and what "now" is:
//
//   kReal    (default) the wall clock. One network-owned delivery thread
//            pops each entry when the wall clock reaches it. A message that
//            is already due, with nothing earlier for its destination still
//            pending, is delivered by the sending thread itself.
//   kVirtual a VirtualClock that nothing sleeps on. run_until() advances
//            it straight to each entry's timestamp and runs the entry on
//            the calling thread; no thread is started and nothing is
//            delivered inline. 10^5..10^6 modeled endpoints simulate in
//            wall-clock seconds, fully seeded and reproducible.
//
// Delivery goes through Endpoint::deliver_now() (handler or inbox). A
// message that a crash or the endpoint refuses counts as
// net.vdeliver.refused, one whose endpoint was removed as net.vdeliver.gone.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "net/transport.h"

namespace cqos::net {

class SimNetwork : public Transport {
 public:
  explicit SimNetwork(NetConfig cfg = {});
  ~SimNetwork() override;

  // --- net::Transport --------------------------------------------------------

  /// Register a new endpoint. Id format "host/service"; the host part drives
  /// latency and crash semantics. Throws Error if the id is taken.
  std::shared_ptr<Endpoint> create_endpoint(const std::string& id) override;

  void remove_endpoint(const std::string& id) override;

  /// Send `payload` from endpoint `from` to endpoint `to`. Returns false if
  /// the message was dropped (unknown destination, crashed host, partition,
  /// or random drop) — senders cannot distinguish these, as on a real
  /// network.
  ///
  /// Takes the payload by rvalue: the buffer moves into the in-flight
  /// Message and from there into the receiver's inbox without copying
  /// (zero-copy delivery; DESIGN.md §10).
  bool send(const std::string& from, const std::string& to,
            Bytes&& payload) override;

  std::string kind() const override { return "sim"; }
  SimNetwork* as_sim() override { return this; }

  // --- fault injection -----------------------------------------------------

  /// All fault state — crashes, partitions, drop/duplicate/reorder rates,
  /// scheduled fault plans — lives in the FaultController (net/fault.h).
  FaultController& faults() { return *faults_; }
  const FaultController& faults() const { return *faults_; }

  // --- time ----------------------------------------------------------------

  TimeMode time_mode() const { return cfg_.time_mode; }
  bool virtual_mode() const { return cfg_.time_mode == TimeMode::kVirtual; }
  /// The network's notion of "now": wall clock in real mode, the
  /// VirtualClock in virtual mode. Lock-free.
  TimePoint net_now() const override {
    return virtual_mode() ? vclock_.now() : now();
  }

  // --- virtual-time driver (kVirtual only; throws Error otherwise) ---------

  /// Schedule `fn` at virtual time `at` (clamped forward to the current
  /// virtual time). Timers share the loop's heap with the destination
  /// wake-ups and fire in (timestamp, insertion) order. Used for
  /// modeled-client arrivals and test timers.
  void schedule_at(TimePoint at, std::function<void()> fn);
  void schedule_after(Duration d, std::function<void()> fn) {
    schedule_at(net_now() + d, std::move(fn));
  }

  /// Advance virtual time to `t`, running every heap entry (delivery, timer,
  /// fault-plan event, reorder-hold sweep) with timestamp <= t in order.
  /// Returns the number of events dispatched: each delivered or refused
  /// message, timer and fault advance. Single-driver: must not be called
  /// concurrently with itself.
  std::size_t run_until(TimePoint t);
  std::size_t run_for(Duration d) { return run_until(net_now() + d); }

  /// Run until the heap is empty (dispatching everything, including future
  /// fault-plan events), or until `horizon` events have been dispatched (a
  /// live-lock guard for handler chains that reschedule forever). Returns
  /// events dispatched.
  std::size_t run_until_idle(std::size_t horizon = SIZE_MAX) {
    return run(TimePoint::max(), horizon);
  }

  /// Total events dispatched by run_until/run_until_idle so far.
  std::uint64_t virtual_events() const {
    return vevents_.load(std::memory_order_relaxed);
  }

  // --- observation ----------------------------------------------------------

  /// Wire tap invoked (under no internal lock ordering guarantees) for every
  /// successfully sent message. Used by tests to assert on-the-wire
  /// properties (e.g. ciphertext only).
  using Tap = std::function<void(const Message&)>;
  void set_tap(Tap tap);

  std::uint64_t messages_sent() const override;
  std::uint64_t bytes_sent() const override;

  /// The registry this network counts into (cfg.metrics, or the process
  /// global). Drivers read fault/delivery counters from here.
  metrics::Registry& metrics_registry() const { return registry(); }

  /// Number of per-destination FIFO clamp entries currently retained
  /// (test hook: remove_endpoint must prune its entry or endpoint churn
  /// grows the map without bound).
  std::size_t fifo_clamp_entries() const;

 private:
  friend class FaultController;

  static constexpr std::size_t kShards = 16;

  /// Per-destination delivery state, guarded by the destination's clamp
  /// shard.
  struct Dest {
    /// FIFO clamp: the latest deliver_at assigned to this destination.
    TimePoint last{};
    /// The endpoint these deliveries are for, and the ones not handed over
    /// yet, sorted by (deliver_at, arrival).
    std::shared_ptr<Endpoint> ep;
    std::deque<Message> pending;
    /// Earliest wake-up queued for this destination (TimePoint::max() when
    /// none is known).
    TimePoint armed_at = TimePoint::max();
    /// A batch of `pending` is being handed to `ep`; until that is done,
    /// nothing for this destination is delivered inline.
    bool draining = false;
    /// The host is down: nothing new queues, and a crash dropped the rest.
    bool crashed = false;
  };

  /// Per-destination FIFO clamp, seq assignment and pending deliveries,
  /// sharded by destination id so senders to different destinations never
  /// contend. The shard lock is what makes (clamp, seq) assignment and the
  /// inline-or-queue decision atomic per destination.
  struct ClampShard {
    mutable Mutex mu;
    std::map<std::string, Dest> dests CQOS_GUARDED_BY(mu);
    /// Sent-message tallies striped across the shards (the shard lock is
    /// already held where they are bumped, so they cost nothing extra);
    /// messages_sent()/bytes_sent() sum them. Keeping these off shared
    /// atomics matters: they are touched by every send from every thread.
    std::uint64_t msgs CQOS_GUARDED_BY(mu) = 0;
    std::uint64_t bytes CQOS_GUARDED_BY(mu) = 0;
  };
  /// Per-sender jitter streams, sharded by sender id. Each stream is seeded
  /// with cfg.seed, so a sender's jitter sequence is a function of (seed,
  /// its own sends) only — adding senders does not perturb it, and a
  /// single-sender run reproduces the pre-sharding shared-stream sequence.
  struct JitterShard {
    Mutex mu;
    std::map<std::string, Rng> rngs CQOS_GUARDED_BY(mu);
  };
  /// Cached per-host-pair metric handles: the "net.pair.<from>:<to>.*"
  /// names are built exactly once per pair instead of three string
  /// concatenations per send under the network lock.
  struct PairCounters {
    metrics::Counter* msgs;
    metrics::Counter* bytes;
    metrics::Counter* drops;
  };
  struct PairShard {
    Mutex mu;
    std::map<std::string, PairCounters> pairs CQOS_GUARDED_BY(mu);
  };

  /// One heap entry: the FaultController's next deadline, a destination's
  /// pending head (`to`), or a timer (`fn`). Ordered by (at, fault first,
  /// order), where `order` is insertion order: equal-timestamp entries run
  /// in the order they were pushed, and a plan event taking effect at T
  /// applies before deliveries stamped T.
  struct Wake {
    enum Kind { kFault, kDest, kTimer };
    TimePoint at;
    std::uint64_t order = 0;
    Kind kind = kDest;
    std::string to;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Wake& a, const Wake& b) const {
      return std::tuple(a.at, a.kind != Wake::kFault, a.order) >
             std::tuple(b.at, b.kind != Wake::kFault, b.order);
    }
  };

  /// Crash (or recover) application: mark the host's endpoints and
  /// destination entries (the fault state itself lives in the controller).
  /// Called by FaultController with no controller lock held.
  void set_crashed(const std::string& host, bool crashed);
  /// Virtual time: pop and run heap entries due by `limit`, at most
  /// `horizon` events' worth.
  std::size_t run(TimePoint limit, std::size_t horizon);
  std::uint64_t sum_shards(std::uint64_t ClampShard::*field) const;
  /// Deposit a message released from a reorder holdback by the controller's
  /// deadline sweep (no releaser traffic arrived). Bypasses the FIFO clamp:
  /// the message is late by construction.
  void deposit_swept(Message msg);
  /// Make the loop ask the controller for due work at `at` (run_plan,
  /// hold). Wakes the delivery thread when `at` is the new earliest entry.
  void arm_fault(TimePoint at);

  /// Whether send() delivers `msg` on the sending thread (real time only);
  /// otherwise queue it (unless `held`) and `extra`, and set `wake` to the
  /// wake-up to push (TimePoint::max() for none).
  bool route_locked(Dest& d, Message& msg, bool held,
                    std::vector<Message>& extra, TimePoint nw,
                    TimePoint& wake);
  /// The destination entry for `ep` (created on first use, and reset if
  /// `ep` replaced an endpoint of the same id).
  Dest& dest_locked(ClampShard& shard, const std::shared_ptr<Endpoint>& ep)
      CQOS_REQUIRES(shard.mu);
  /// Insert into d.pending in (deliver_at, arrival) order; a crashed
  /// destination refuses the message instead.
  void add_pending(Dest& d, Message&& msg);
  /// Recycle everything d.pending holds, counting each message as `lost`.
  static void drop_pending(Dest& d, metrics::Counter& lost);
  /// The new wake-up d.pending needs for the loop to find its head (set as
  /// d.armed_at), or TimePoint::max() when none.
  static TimePoint arm_locked(Dest& d);
  void push(Wake w);
  /// Push a wake-up for `to` (none when `at` is TimePoint::max()).
  void push_wake(const std::string& to, TimePoint at);
  /// Pop the earliest heap entry if its timestamp is <= `limit`.
  bool pop_due(TimePoint limit, Wake& w);
  void pop_locked(Wake& w) CQOS_REQUIRES(wmu_);
  /// Run one popped entry; returns the events it dispatched. `batch` is
  /// scratch space, empty on entry and on return.
  std::size_t fire(Wake& w, std::vector<Message>& batch);
  /// The real-time driver: pops each entry when the wall clock reaches it.
  void delivery_loop();
  /// Deliver `to`'s due messages, moved out through `batch`; returns how
  /// many were handed to the endpoint.
  std::size_t drain(const std::string& to, TimePoint woke_for,
                    std::vector<Message>& batch);
  /// Wire-level accounting into cfg_.metrics (global registry when null):
  /// net.sent.{msgs,bytes}, net.drop.<reason>, and the per-host-pair
  /// variants net.pair.<from>:<to>.{msgs,bytes,drops}. Lock-cheap: handles
  /// resolved once per host pair, counters are wait-free.
  void count_send(const std::string& from_host, const std::string& to_host,
                  std::size_t bytes);
  void count_drop(const std::string& from_host, const std::string& to_host,
                  const char* reason);
  PairCounters& pair_counters(const std::string& from_host,
                              const std::string& to_host);
  metrics::Registry& registry() const {
    return cfg_.metrics != nullptr ? *cfg_.metrics
                                   : metrics::Registry::global();
  }

  /// Latency model: base/loopback + per-byte, plus a jitter fraction drawn
  /// from the sender's own stream.
  Duration compute_latency(const std::string& from,
                           const std::string& from_host,
                           const std::string& to_host, std::size_t bytes);

  static std::size_t shard_of(const std::string& key) {
    return std::hash<std::string>{}(key) % kShards;
  }

  // Lock hierarchy (DESIGN.md §8/§14): mu_ (endpoint map) > jitter shard >
  // clamp shard > FaultController::mu_ > tap_mu_ > Endpoint::mu_. No two
  // shard locks are ever held together; judge() takes the controller lock
  // with nothing else held, hold()/on_send() are called under the
  // destination's clamp shard (keeping per-destination release bookkeeping
  // atomic with clamp/seq assignment); deliveries take only Endpoint::mu_,
  // and run handlers with no network lock held. The metrics registry mutex
  // is a leaf of pair_counters() misses. The heap lock wmu_ is a leaf (push
  // and pop only, never held while an entry runs).
  mutable Mutex mu_;
  const NetConfig cfg_;
  std::map<std::string, std::shared_ptr<Endpoint>> endpoints_
      CQOS_GUARDED_BY(mu_);
  std::atomic<std::uint64_t> next_seq_{1};
  std::array<ClampShard, kShards> clamp_shards_;
  std::array<JitterShard, kShards> jitter_shards_;
  std::array<PairShard, kShards> pair_shards_;
  Mutex tap_mu_;
  Tap tap_ CQOS_GUARDED_BY(tap_mu_);
  std::atomic<bool> has_tap_{false};
  /// Counters resolved once at construction: count_send runs on every
  /// send, and a by-name registry lookup there is a global mutex + map walk
  /// that serializes concurrent senders.
  metrics::Counter* sent_msgs_counter_ = nullptr;
  metrics::Counter* sent_bytes_counter_ = nullptr;
  metrics::Counter* refused_counter_ = nullptr;
  metrics::Counter* gone_counter_ = nullptr;

  VirtualClock vclock_;
  std::atomic<std::uint64_t> vevents_{0};

  // The loop's heap, and the real-time thread that drives it.
  Mutex wmu_;
  CondVar wcv_;  // wakes the delivery thread for a new earliest entry
  std::priority_queue<Wake, std::vector<Wake>, Later> wakes_
      CQOS_GUARDED_BY(wmu_);
  std::uint64_t worder_ CQOS_GUARDED_BY(wmu_) = 0;
  /// Earliest fault deadline on the heap (TimePoint::max() when none).
  TimePoint fault_armed_at_ CQOS_GUARDED_BY(wmu_) = TimePoint::max();
  bool stopping_ CQOS_GUARDED_BY(wmu_) = false;
  std::thread delivery_thread_;

  std::unique_ptr<FaultController> faults_;
};

}  // namespace cqos::net
