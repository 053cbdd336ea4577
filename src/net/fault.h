// Deterministic chaos engine for the simulated network.
//
// FaultPlan is a declarative, seeded schedule of timed fault events —
// crash/recover, partition/heal, drop-rate changes, drop bursts, latency
// spikes, message duplication and bounded reordering — with a textual
// round-trippable form:
//
//     plan backup-churn
//     seed 42
//     @120ms crash server1
//     @260ms recover server1
//     @300ms partition server1 server2
//     @420ms heal server1 server2
//     @100ms drop_rate 0.15
//     @150ms drop_burst server0 client0 80ms 1.0
//     @200ms latency_spike 100ms x6
//     @210ms duplicate 0.4
//     @220ms reorder 0.5 window=4
//
// FaultController executes plans and owns ALL fault state (crashed hosts,
// partitions, drop/duplicate/reorder probabilities, timed bursts and
// spikes). SimNetwork::send() consults the controller for every message
// via judge()/hold()/on_send().
//
// Locking: SimNetwork's clamp shard > FaultController::mu_. The controller's
// mutex is near-leaf on the send path: judge() is called with no network
// lock held, hold()/on_send() under the destination's clamp shard only;
// controller mutators never hold mu_ while calling back into SimNetwork
// (crash/recover apply endpoint marks after releasing it, advance()
// deposits swept messages and run_plan()/hold() wake the network's loop
// lock-free of mu_).
//
// Per-message randomness comes from per-sender decision streams: each
// sender endpoint id owns an independent Rng seeded with the stream seed
// (NetConfig::seed, replaced by plan.seed when a plan runs), so one
// sender's drop/duplicate/reorder sequence is a function of (seed, its own
// traffic) only — adding concurrent senders does not perturb it, and a
// single-sender run reproduces the pre-split shared-stream sequence.
//
// Time: the controller runs no thread. Plan offsets and hold deadlines are
// deadlines on the network's clock; run_plan() and hold() put the earliest
// on SimNetwork's event loop, which pulls them through next_deadline()/
// advance() — on its delivery thread as the wall clock reaches them, or in
// SimNetwork::run_until() in virtual time, where chaos schedules are exact
// instead of best-effort.
//
// Bounded reordering: a deferred message is held back until `defer` (<=
// window) later messages to the same destination endpoint have been sent,
// then queued with the trigger message's deliver_at (equal timestamps keep
// arrival order, which puts it after the trigger), so it is overtaken by at most
// `window` messages. A deadline sweep (advance(), max_hold_ after the hold)
// releases stranded holds so no message is ever lost to reordering.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "net/sim_network.h"

namespace cqos::net {

enum class FaultKind {
  kCrash,         // host_a
  kRecover,       // host_a
  kPartition,     // host_a <-> host_b
  kHeal,          // host_a <-> host_b
  kDropRate,      // rate: steady-state inter-host drop probability
  kDropBurst,     // host_a -> host_b ("*" = any) dropped with `rate` for `duration`
  kLatencySpike,  // inter-host latency scaled by `factor` for `duration`
  kDuplicate,     // rate: probability a message is delivered twice
  kReorder,       // rate + window: probability a message is held back
};

struct FaultEvent {
  Duration at{};          // offset from plan start
  FaultKind kind{};
  std::string host_a;
  std::string host_b;
  double rate = 0.0;
  Duration duration{};
  double factor = 1.0;
  int window = 0;

  /// One-line textual form ("@120ms crash server1"), the same syntax
  /// FaultPlan::parse() accepts.
  std::string describe() const;
};

struct FaultPlan {
  std::string name = "plan";
  std::uint64_t seed = 1;
  /// Sorted by `at` (stable: same-offset events keep their textual order).
  std::vector<FaultEvent> events;

  /// Parse the textual form. Throws ConfigError on syntax errors. Events
  /// are sorted by offset.
  static FaultPlan parse(std::string_view text);
  /// Round-trippable textual form: parse(serialize()) == *this.
  std::string serialize() const;
  /// Offset of the last event (zero for an empty plan).
  Duration duration() const;
};

/// Per-message verdict computed by FaultController::judge() for
/// SimNetwork::send(). All fields combine: a message can be duplicated AND
/// have its latency scaled, etc.
struct FaultDecision {
  bool drop = false;
  const char* drop_reason = nullptr;  // metrics suffix ("crashed", "burst", ...)
  bool duplicate = false;
  double latency_factor = 1.0;
  Duration extra_latency{};
  int defer = 0;  // > 0: hold until `defer` later sends to the destination
};

class FaultController {
 public:
  FaultController(SimNetwork& net, std::uint64_t seed);

  FaultController(const FaultController&) = delete;
  FaultController& operator=(const FaultController&) = delete;

  // --- plan execution ------------------------------------------------------

  /// Start executing `plan`: event k fires at start + at_k on the network's
  /// clock (wall or virtual). Reseeds
  /// the per-sender decision streams with plan.seed so per-message
  /// decisions are a deterministic function of (plan seed, each sender's
  /// traffic). Replaces any plan still running.
  void run_plan(FaultPlan plan);
  bool plan_active() const;
  /// Block until the current plan has applied its last event.
  bool wait_plan_done(Duration timeout);
  /// Applied-event trace: "plan <name> seed <n>" followed by one
  /// describe() line per applied event, in order. Same plan => identical
  /// trace (offsets are the scheduled ones, never wall-clock).
  std::vector<std::string> event_trace() const;

  // --- immediate one-shot faults -------------------------------------------

  /// Crash a host: its endpoints stop receiving, queued messages are lost,
  /// traffic from/to it is dropped. Host process state is untouched (a
  /// network-level crash, as in the paper's testbed).
  void crash_host(const std::string& host);
  void recover_host(const std::string& host);
  /// Cut connectivity between two hosts (both directions).
  void partition(const std::string& host_a, const std::string& host_b);
  void heal(const std::string& host_a, const std::string& host_b);
  void set_drop_rate(double p);
  void set_duplicate_rate(double p);
  /// Each inter-host message is held back with probability `p` until up to
  /// `window` later messages to the same destination have been sent.
  void set_reorder(double p, int window);
  void drop_burst(const std::string& host_a, const std::string& host_b,
                  Duration duration, double rate = 1.0);
  void latency_spike(Duration duration, double factor,
                     Duration extra = Duration::zero());
  /// Recover every crashed host, heal every partition, zero all rates,
  /// expire bursts/spikes and flush held-back messages — the recovery tail
  /// the soak harness runs before checking invariants.
  void clear_all_faults();

  // --- queries -------------------------------------------------------------

  bool is_crashed(const std::string& host) const;
  double drop_rate() const;
  /// Messages currently held back for reordering.
  std::size_t held_count() const;

 private:
  friend class SimNetwork;

  struct Burst {
    std::string a;  // "*" = any
    std::string b;
    double rate;
    TimePoint until;
  };
  struct Spike {
    double factor;
    Duration extra;
    TimePoint until;
  };
  struct Held {
    Message msg;
    int remaining;       // sends to the destination until release
    TimePoint deadline;  // sweep release (no releaser traffic)
  };

  // Send-path hooks, called by SimNetwork::send(). judge() is called with
  // no network lock held; hold()/on_send() under the destination's clamp
  // shard (mu_ is below it in the hierarchy). `from` is the sender endpoint
  // id selecting the per-sender decision stream.
  FaultDecision judge(const std::string& from, const std::string& from_host,
                      const std::string& to_host, bool loopback);
  void hold(const std::string& to, Message msg, int defer);
  /// A message to `to` is being sent with `deliver_at`: decrement all holds
  /// for `to` and return the ones that reached zero, stamped with
  /// `deliver_at` (deposited right after the trigger keeps the overtake
  /// bound exact). Called for every send — even one that is itself held —
  /// so a held message is passed by at most `defer` <= window later sends
  /// (a duplicated send counts once: the copy rides the same decrement).
  std::vector<Message> on_send(const std::string& to, TimePoint deliver_at);

  /// Apply one plan event (called by advance() with no locks held).
  void apply_event(const FaultEvent& e);
  std::vector<Message> take_all_held();
  /// The per-sender decision stream for `from`, created on first use.
  Rng& stream(const std::string& from) CQOS_REQUIRES(mu_);
  /// Recompute `quiescent_` from the wire-fault state. Every mutation of
  /// crashed_/partitions_/rates/bursts_/spikes_ must call this before
  /// releasing mu_, or judge()'s lock-free fast path would keep using a
  /// stale answer.
  void refresh_quiescent() CQOS_REQUIRES(mu_);

  // Pull interface, called by SimNetwork's event loop (its delivery thread,
  // or run_until in virtual time).
  /// Earliest pending deadline: next unapplied plan event or earliest
  /// reorder-hold sweep; TimePoint::max() when none.
  TimePoint next_deadline() const;
  /// Apply every plan event and sweep every hold with deadline <= nw.
  /// Postcondition: next_deadline() > nw.
  void advance(TimePoint nw);

  SimNetwork& net_;
  mutable Mutex mu_;
  CondVar cv_;  // wait_plan_done()
  /// True when no wire fault can affect any send (no crashes, partitions,
  /// rates, bursts or spikes). Lets judge() — called for EVERY send —
  /// return without touching mu_, so fault bookkeeping costs nothing on
  /// the healthy-network fast path and senders do not serialize on it.
  /// A quiescent judge() also draws nothing from the per-sender streams,
  /// which is exactly what the locked path does in that state, so the
  /// decision sequences are unchanged.
  std::atomic<bool> quiescent_{true};
  /// Count of messages currently held back for reordering, mirrored outside
  /// mu_ so on_send() — also called for every send, under the destination's
  /// clamp shard — can skip the lock when nothing is held anywhere.
  /// hold() and on_send() for one destination are serialized by that
  /// destination's clamp shard, so a send that must release a hold always
  /// observes the increment.
  std::atomic<std::uint64_t> holds_active_{0};
  std::uint64_t stream_seed_ CQOS_GUARDED_BY(mu_);
  std::map<std::string, Rng> streams_ CQOS_GUARDED_BY(mu_);

  std::set<std::string> crashed_ CQOS_GUARDED_BY(mu_);
  std::set<std::pair<std::string, std::string>> partitions_
      CQOS_GUARDED_BY(mu_);  // minmax-ordered pair
  double drop_rate_ CQOS_GUARDED_BY(mu_) = 0.0;
  double duplicate_rate_ CQOS_GUARDED_BY(mu_) = 0.0;
  double reorder_rate_ CQOS_GUARDED_BY(mu_) = 0.0;
  int reorder_window_ CQOS_GUARDED_BY(mu_) = 0;
  Duration max_hold_ CQOS_GUARDED_BY(mu_) = ms(50);
  std::vector<Burst> bursts_ CQOS_GUARDED_BY(mu_);
  std::vector<Spike> spikes_ CQOS_GUARDED_BY(mu_);
  std::map<std::string, std::vector<Held>> holds_ CQOS_GUARDED_BY(mu_);

  FaultPlan plan_ CQOS_GUARDED_BY(mu_);
  bool plan_active_ CQOS_GUARDED_BY(mu_) = false;
  std::size_t next_event_ CQOS_GUARDED_BY(mu_) = 0;
  TimePoint plan_t0_ CQOS_GUARDED_BY(mu_);
  std::vector<std::string> trace_ CQOS_GUARDED_BY(mu_);
};

}  // namespace cqos::net
