// CompositeProtocol: the core of the Cactus framework (paper §2.3.1).
//
// A composite protocol hosts a set of micro-protocols. Each micro-protocol is
// a collection of event handlers bound to named events. Raising an event runs
// every bound handler in binding order; handlers may be bound with an explicit
// order so that base handlers run last and QoS handlers can insert themselves
// earlier or *override* base handlers by halting the activation.
//
// Supported raise modes (per the paper):
//   - synchronous: the caller runs all handlers inline and continues after
//     the last one returns;
//   - asynchronous: handlers run on the runtime's (priority) thread pool,
//     concurrently with the caller;
//   - delayed: an asynchronous raise scheduled after a delay, cancellable.
//
// Thread priority is preserved across raises: handlers execute at the
// logical priority of the raising thread unless the raise specifies one
// explicitly (the runtime change described in §3.4).
#pragma once

#include <any>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cactus/thread_pool.h"
#include "cactus/timer.h"
#include "common/clock.h"
#include "common/error.h"
#include "common/sync.h"
#include "common/thread_annotations.h"

namespace cqos::cactus {

class CompositeProtocol;

/// Binding order constants. Handlers with smaller order run earlier. Base
/// micro-protocol handlers bind at kOrderLast so QoS handlers can precede or
/// override them (paper §3.1).
inline constexpr int kOrderFirst = -100;
inline constexpr int kOrderDefault = 0;
inline constexpr int kOrderLast = 100;

/// Sentinel priority meaning "inherit the raising thread's priority".
inline constexpr int kInheritPriority = -1;

using BindingId = std::uint64_t;

/// Per-activation context handed to each handler. It refers to the raise's
/// dynamic argument and to the running binding's static argument instead of
/// copying them, so it lives only as long as the activation.
class EventContext {
 public:
  EventContext(CompositeProtocol& proto, std::string_view event,
               const std::any& dyn)
      : proto_(proto), event_(event), dyn_(dyn) {}

  CompositeProtocol& protocol() { return proto_; }
  std::string_view event() const { return event_; }

  /// Dynamic argument supplied by raise(). Typed accessor; throws TypeError
  /// if the activation's argument is not a T.
  template <typename T>
  T dyn() const {
    if (const T* p = std::any_cast<T>(&dyn_)) return *p;
    throw TypeError("event dynamic argument has unexpected type");
  }

  /// Non-throwing variant: nullptr when the argument is not a T. Used by
  /// generic instrumentation (MicroBase handler timing) that must work for
  /// any activation type.
  template <typename T>
  const T* try_dyn() const {
    return std::any_cast<T>(&dyn_);
  }

  /// Static argument supplied at bind time (set by the runtime before each
  /// handler runs).
  template <typename T>
  T static_arg() const {
    if (const T* p = std::any_cast<T>(static_arg_)) return *p;
    throw TypeError("handler static argument has unexpected type");
  }

  /// Stop executing the remaining (later-ordered) handlers of this
  /// activation. This is the override mechanism: a handler bound before a
  /// base handler halts to replace the base behaviour.
  void halt() { halted_ = true; }
  bool halted() const { return halted_; }

 private:
  friend class CompositeProtocol;
  CompositeProtocol& proto_;
  std::string_view event_;
  const std::any& dyn_;
  const std::any* static_arg_ = nullptr;
  bool halted_ = false;
};

using Handler = std::function<void(EventContext&)>;

/// Data shared between the micro-protocols of one composite protocol
/// (paper: "Cactus also supports data structures shared by micro-protocols").
/// Values are shared_ptr<T> keyed by name; first access creates the object.
class SharedData {
 public:
  template <typename T>
  std::shared_ptr<T> get_or_create(const std::string& key) {
    MutexLock lk(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      auto ptr = std::make_shared<T>();
      map_.emplace(key, ptr);
      return ptr;
    }
    auto ptr = std::any_cast<std::shared_ptr<T>>(&it->second);
    if (ptr == nullptr) throw TypeError("shared data '" + key + "' has a different type");
    return *ptr;
  }

 private:
  Mutex mu_;
  std::map<std::string, std::any> map_ CQOS_GUARDED_BY(mu_);
};

/// Typed key/value container ferrying micro-protocol state across a
/// reconfiguration (live hot-swap, DESIGN.md §16). Outgoing protocols
/// export_state() into a bag after quiescence; incoming protocols
/// import_state() from it after install. Unlike SharedData the bag is a
/// plain value — it is only touched by the single thread driving the swap,
/// so no lock.
class StateBag {
 public:
  template <typename T>
  std::shared_ptr<T> get_or_create(const std::string& key) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      auto ptr = std::make_shared<T>();
      map_.emplace(key, ptr);
      return ptr;
    }
    auto ptr = std::any_cast<std::shared_ptr<T>>(&it->second);
    if (ptr == nullptr) {
      throw TypeError("state bag '" + key + "' has a different type");
    }
    return *ptr;
  }

  /// nullptr when the key is absent (typed mismatch still throws: a swap
  /// that silently drops state would break at-most-once invariants).
  template <typename T>
  std::shared_ptr<T> find(const std::string& key) const {
    auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    auto ptr = std::any_cast<std::shared_ptr<T>>(&it->second);
    if (ptr == nullptr) {
      throw TypeError("state bag '" + key + "' has a different type");
    }
    return *ptr;
  }

  bool contains(const std::string& key) const { return map_.count(key) != 0; }
  std::size_t size() const { return map_.size(); }

 private:
  std::map<std::string, std::any> map_;
};

/// Base class for micro-protocols. A micro-protocol binds its handlers in
/// init() and may clean up in shutdown().
///
/// Reconfiguration lifecycle (all optional; defaults are no-ops): when a
/// composite's stack is hot-swapped the runtime calls, in order and with
/// zero in-flight requests guaranteed,
///   quiesce()       — cancel timers / background raises so no handler of
///                     this protocol fires after extraction;
///   export_state()  — serialize invariants-bearing state (dedup caches,
///                     retransmit windows) into the bag;
///   shutdown()      — unbind handlers as usual;
/// then, on the incoming stack, after init():
///   import_state()  — adopt the exported state.
class MicroProtocol {
 public:
  virtual ~MicroProtocol() = default;
  virtual std::string_view name() const = 0;
  virtual void init(CompositeProtocol& proto) = 0;
  virtual void shutdown() {}
  virtual void quiesce() {}
  virtual void export_state(StateBag&) {}
  virtual void import_state(const StateBag&) {}
};

class CompositeProtocol {
 public:
  struct Options {
    std::string name = "composite";
    int pool_threads = 4;
    /// When false, asynchronous raises spawn one thread per activation
    /// instead of using the pool (the unoptimized mode measured by
    /// bench_ablation_threadpool).
    bool use_thread_pool = true;
    /// Non-empty: the runtime pool runs in traffic-class mode (per-class
    /// bounded FIFO queues, weighted round robin across classes).
    std::vector<TrafficClass> pool_classes;
    /// Called when an asynchronous raise could not be enqueued (pool
    /// rejected the task or is shutting down) — the owner gets a chance to
    /// fail the activation's subject instead of leaving a caller hanging.
    std::function<void(std::string_view event, const std::any& dyn)>
        on_async_drop;
  };

  CompositeProtocol() : CompositeProtocol(Options{}) {}
  explicit CompositeProtocol(Options opts);
  ~CompositeProtocol();

  CompositeProtocol(const CompositeProtocol&) = delete;
  CompositeProtocol& operator=(const CompositeProtocol&) = delete;

  const std::string& name() const { return opts_.name; }

  // --- micro-protocol management -----------------------------------------

  /// Add and initialize a micro-protocol (init() is called immediately,
  /// matching the paper where the composite's constructor starts the
  /// configured micro-protocols). Micro-protocols may also be added later:
  /// dynamic (re)configuration.
  void add_protocol(std::unique_ptr<MicroProtocol> mp);

  /// Find an installed micro-protocol by name (nullptr if absent).
  MicroProtocol* find_protocol(std::string_view name) const;

  std::vector<std::string> protocol_names() const;

  /// Remove and return every installed micro-protocol WITHOUT stopping the
  /// pool, timers, or bindings — the reconfiguration primitive. The caller
  /// (the reconfigure seam, src/cqos/reconfig.cc) owns quiesce/export/
  /// shutdown of the extracted protocols; the composite keeps running and
  /// can host a replacement stack via add_protocol(). Must only be called
  /// with the composite externally quiesced (no in-flight activations that
  /// depend on the outgoing handlers).
  std::vector<std::unique_ptr<MicroProtocol>> extract_protocols();

  // --- event operations ----------------------------------------------------

  /// Bind `handler` to `event` with the given order and optional static
  /// argument. Returns an id for unbind(). Multiple bindings of the same
  /// handler are allowed and each executes per activation (used by
  /// ActiveRep, which binds its assigner once per replica).
  BindingId bind(std::string_view event, std::string handler_name,
                 Handler handler, int order = kOrderDefault,
                 std::any static_arg = {});

  bool unbind(BindingId id);

  /// Number of handlers currently bound to `event`.
  std::size_t binding_count(std::string_view event) const;

  /// Synchronous raise: run all handlers inline. If `priority` is not
  /// kInheritPriority the handlers run at that logical priority.
  void raise(std::string_view event, std::any dyn = {},
             int priority = kInheritPriority);

  /// Asynchronous raise: handlers run on the runtime pool at `priority`
  /// (default: the raising thread's priority).
  void raise_async(std::string_view event, std::any dyn = {},
                   int priority = kInheritPriority);

  /// Delayed asynchronous raise; cancellable until it fires.
  TimerId raise_delayed(std::string_view event, std::any dyn, Duration delay,
                        int priority = kInheritPriority);

  bool cancel_delayed(TimerId id);

  /// The timers behind raise_delayed(), for the runtime's own deadlines.
  TimerService& timers() { return timers_; }

  // --- misc ----------------------------------------------------------------

  SharedData& shared() { return shared_; }

  /// Stop timers, drain the pool, shut down micro-protocols. Idempotent.
  void stop();

 private:
  struct Binding {
    BindingId id;
    int order;
    std::uint64_t seq;  // bind order within same `order`
    std::string handler_name;
    Handler handler;
    std::any static_arg;
  };

  /// The event table: event name -> bindings sorted by (order, seq).
  /// Immutable once published. bind()/unbind() copy the current table,
  /// edit the copy and publish it (copy-on-write under mu_), so an
  /// activation reads it with no lock and keeps running on the table it
  /// started with when a handler binds or unbinds.
  struct Table {
    std::map<std::string, std::vector<std::shared_ptr<const Binding>>,
             std::less<>>
        events;
  };
  /// Pins the published table for one activation (composite.cc).
  class TableLease;

  void publish_locked(std::shared_ptr<const Table> table) CQOS_REQUIRES(mu_);
  void run_activation(std::string_view event, const std::any& dyn);

  Options opts_;
  mutable Mutex mu_;
  /// The published table (never null); current_ mirrors table_.get() for
  /// the activations' lock-free read.
  std::shared_ptr<const Table> table_ CQOS_GUARDED_BY(mu_);
  std::atomic<const Table*> current_{nullptr};
  std::map<BindingId, std::string> binding_event_
      CQOS_GUARDED_BY(mu_);  // id -> event name
  BindingId next_binding_ CQOS_GUARDED_BY(mu_) = 1;
  std::uint64_t next_seq_ CQOS_GUARDED_BY(mu_) = 1;

  std::vector<std::unique_ptr<MicroProtocol>> protocols_ CQOS_GUARDED_BY(mu_);
  SharedData shared_;

  std::unique_ptr<PriorityThreadPool> pool_;
  TimerService timers_;

  // thread-per-event mode bookkeeping. Lock hierarchy: threads_mu_ is a
  // leaf — never held while taking mu_ or calling into handlers.
  Mutex threads_mu_ CQOS_ACQUIRED_AFTER(mu_);
  std::vector<std::thread> spawned_ CQOS_GUARDED_BY(threads_mu_);
  std::atomic<bool> stopped_{false};
};

}  // namespace cqos::cactus
