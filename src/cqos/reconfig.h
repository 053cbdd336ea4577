// Live reconfiguration of a running Cactus composite (DESIGN.md §16).
//
// The paper customizes QoS at boot; this module makes the composition a
// runtime-mutable policy object, following the CORBA-CCM dynamic
// reconfiguration line (PAPERS.md). Two pieces:
//
//   QuiesceGate — the admission gate a CactusClient/CactusServer wraps
//     around its request entry points. In the live phase it only counts
//     in-flight requests, in one atomic word and with no lock. A
//     reconfiguration drives it through
//         live → draining → swapping → live
//     New arrivals during draining/swapping PARK (block, bounded queue +
//     timeout) and release onto the new stack; in-flight requests drain to
//     zero before the swap touches the handler graph. Control messages
//     (replica forwarding, ordering info) are never blocked during draining
//     — in-flight requests may need them to complete — and only pause for
//     the brief swapping window via control_checkpoint().
//
//   swap_stack() — the swap engine: drain, quiesce the outgoing
//     micro-protocols, export their invariants-bearing state into a
//     cactus::StateBag, shut them down, install the new stack through the
//     MicroProtocolRegistry, import the state, resume. Any install failure
//     rolls back by re-creating the OLD stack from its specs and
//     re-importing the bag, so the endpoint keeps serving its prior
//     revision.
//
// Static verification (cqos/verify.h) happens BEFORE the gate is touched —
// a rejected composition never perturbs traffic. See
// QosEndpoint::Handle::reconfigure() in endpoint.h for the public API.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cactus/composite.h"
#include "common/clock.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "cqos/config.h"

namespace cqos {

enum class GatePhase { kLive, kDraining, kSwapping, kClosed };

std::string_view gate_phase_name(GatePhase p);

/// Knobs for one reconfiguration. Defaults suit the soak/bench request
/// timeouts; callers with longer-running requests raise drain_timeout.
struct ReconfigOptions {
  /// Upper bound on waiting for in-flight requests to complete. On expiry
  /// the swap aborts, parked requests release onto the OLD stack, and
  /// reconfigure() throws (revision unchanged).
  Duration drain_timeout = ms(5000);
  /// Bound on the parked-arrival queue; arrivals beyond it are rejected
  /// with a visible request failure (never silently dropped).
  int max_parked = 64;
  /// Bound on how long one arrival stays parked before it is rejected.
  Duration park_timeout = ms(5000);
};

/// What one swap did — surfaced through Handle::reconfigure() and measured
/// by bench_reconfig.
struct ReconfigReport {
  std::uint64_t revision = 0;   ///< revision now live (filled by the Handle)
  double drain_ms = 0;          ///< waiting for in-flight to reach zero
  double swap_ms = 0;           ///< quiesce + export + swap + import
  double total_ms = 0;          ///< end-to-end inside the gate
  int parked_peak = 0;          ///< max arrivals parked at once
  std::uint64_t released = 0;   ///< parked arrivals released onto new stack
  bool rolled_back = false;     ///< install failed; old stack restored
};

/// Admission gate for one composite's request entry points. Thread-safe.
class QuiesceGate {
 public:
  QuiesceGate() = default;
  QuiesceGate(const QuiesceGate&) = delete;
  QuiesceGate& operator=(const QuiesceGate&) = delete;

  /// Request entry. Returns true with the in-flight count incremented (the
  /// caller MUST pair with exit()), false when the request must be failed
  /// visibly (gate closed, parked queue full, or parked past the park
  /// timeout while a swap was in progress). Park limits are those of the
  /// most recent begin_drain() (ReconfigOptions defaults otherwise).
  bool enter();

  /// Request exit — call once after a successful enter().
  void exit();

  /// Control-message checkpoint: blocks only while the gate is in the brief
  /// swapping window (bounded), so handler-graph surgery never races a
  /// control activation. Draining does NOT block controls — in-flight
  /// requests need them (replica forwards, ordering info) to complete.
  void control_checkpoint();

  // --- swap-driver side (one reconfiguring thread at a time) ---------------

  /// live → draining; waits until in-flight == 0 (opts.drain_timeout) and
  /// adopts opts' park limits for arrivals during the swap. On timeout
  /// reverts to live (parked arrivals release onto the old stack) and
  /// returns false.
  bool begin_drain(const ReconfigOptions& opts);

  /// draining → swapping (requires a successful begin_drain()).
  void begin_swap();

  /// swapping|draining → live; releases parked arrivals.
  void resume();

  /// Terminal: reject all future entries, release nothing. Parked arrivals
  /// and future enter() calls return false.
  void close();

  GatePhase phase() const;
  int inflight() const;
  /// Peak parked depth since the last begin_drain().
  int parked_peak() const;
  /// Parked arrivals released into the live phase since the last
  /// begin_drain().
  std::uint64_t released() const;

 private:
  static constexpr std::int64_t kNotLive = 1;
  static constexpr std::int64_t kOne = 2;

  /// Changes the phase and the word's not-live bit together.
  void set_phase_locked(GatePhase p) CQOS_REQUIRES(mu_);

  /// In-flight requests times kOne, plus kNotLive unless the phase is
  /// live: the whole of the live path (enter/exit take no lock).
  std::atomic<std::int64_t> word_{0};
  mutable Mutex mu_;
  CondVar cv_;
  GatePhase phase_ CQOS_GUARDED_BY(mu_) = GatePhase::kLive;
  int parked_ CQOS_GUARDED_BY(mu_) = 0;
  int parked_peak_ CQOS_GUARDED_BY(mu_) = 0;
  std::uint64_t released_ CQOS_GUARDED_BY(mu_) = 0;
  int max_parked_ CQOS_GUARDED_BY(mu_) = ReconfigOptions{}.max_parked;
  Duration park_timeout_ CQOS_GUARDED_BY(mu_) = ReconfigOptions{}.park_timeout;
};

/// Swap `proto`'s micro-protocol stack from `old_specs` to `new_specs`
/// behind `gate`. The caller has already verified `new_specs` (static
/// composition verifier) and normalized both spec lists (base protocols
/// appended). Throws on drain timeout (stack unchanged) and rethrows
/// install failures after rolling back to the old stack; fills `report`
/// either way. The gate is live again on every return path except after
/// close().
void swap_stack(cactus::CompositeProtocol& proto, QuiesceGate& gate,
                Side side, const std::vector<MicroProtocolSpec>& old_specs,
                const std::vector<MicroProtocolSpec>& new_specs,
                const ReconfigOptions& opts, ReconfigReport& report);

}  // namespace cqos
