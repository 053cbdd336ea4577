#include "cactus/composite.h"

#include <algorithm>
#include <array>

#include "common/log.h"
#include "common/metrics.h"
#include "common/priority.h"

namespace cqos::cactus {

namespace {

/// The event tables this thread's activations have run on, with a
/// reference each. An activation whose table is cached here reads it with
/// no lock and no reference-count write, so concurrent callers of one
/// composite share no written cache line. `pins` counts the activations
/// (nested raises) running on an entry; only an unpinned entry is
/// replaced. A cached table outlives its publication until this thread
/// replaces the entry or exits; the cached reference is what makes a
/// pointer match safe (a live table's address is never reused).
struct CachedTable {
  const void* table = nullptr;
  std::shared_ptr<const void> keep;
  int pins = 0;
};
constexpr std::size_t kCachedTables = 8;
thread_local std::array<CachedTable, kCachedTables> t_tables;
thread_local std::size_t t_next_victim = 0;

}  // namespace

class CompositeProtocol::TableLease {
 public:
  explicit TableLease(const CompositeProtocol& proto) {
    const Table* cur = proto.current_.load(std::memory_order_acquire);
    for (CachedTable& e : t_tables) {
      if (e.table == cur) {
        ++e.pins;
        entry_ = &e;
        table_ = cur;
        return;
      }
    }
    // First activation of this thread on the published table: take a
    // reference under the lock (the table may have moved on since; the
    // newer one is as good).
    std::shared_ptr<const Table> ref;
    {
      MutexLock lk(proto.mu_);
      ref = proto.table_;
    }
    table_ = ref.get();
    for (std::size_t i = 0; i < kCachedTables; ++i) {
      CachedTable& e = t_tables[(t_next_victim + i) % kCachedTables];
      if (e.pins != 0) continue;
      t_next_victim = (t_next_victim + i + 1) % kCachedTables;
      // The replaced table is released after the entry is rewritten.
      std::shared_ptr<const void> old = std::move(e.keep);
      e.table = table_;
      e.keep = std::move(ref);
      e.pins = 1;
      entry_ = &e;
      return;
    }
    own_ = std::move(ref);  // every entry pinned (deep nesting): hold it here
  }
  ~TableLease() {
    if (entry_ != nullptr) --entry_->pins;
  }
  TableLease(const TableLease&) = delete;
  TableLease& operator=(const TableLease&) = delete;

  const Table& table() const { return *table_; }

 private:
  const Table* table_ = nullptr;
  CachedTable* entry_ = nullptr;
  std::shared_ptr<const Table> own_;
};

CompositeProtocol::CompositeProtocol(Options opts)
    : opts_(std::move(opts)),
      pool_(opts_.pool_threads, opts_.pool_classes, opts_.name + "-pool") {
  MutexLock lk(mu_);
  publish_locked(std::make_shared<const Table>());
}

CompositeProtocol::~CompositeProtocol() { stop(); }

void CompositeProtocol::add_protocol(std::unique_ptr<MicroProtocol> mp) {
  MicroProtocol* raw = mp.get();
  {
    MutexLock lk(mu_);
    protocols_.push_back(std::move(mp));
  }
  // init() outside the lock: it will call bind(), which takes the lock.
  raw->init(*this);
}

MicroProtocol* CompositeProtocol::find_protocol(std::string_view name) const {
  MutexLock lk(mu_);
  for (const auto& mp : protocols_) {
    if (mp->name() == name) return mp.get();
  }
  return nullptr;
}

std::vector<std::unique_ptr<MicroProtocol>>
CompositeProtocol::extract_protocols() {
  std::vector<std::unique_ptr<MicroProtocol>> out;
  MutexLock lk(mu_);
  out.swap(protocols_);
  return out;
}

std::vector<std::string> CompositeProtocol::protocol_names() const {
  MutexLock lk(mu_);
  std::vector<std::string> names;
  names.reserve(protocols_.size());
  for (const auto& mp : protocols_) names.emplace_back(mp->name());
  return names;
}

void CompositeProtocol::publish_locked(std::shared_ptr<const Table> table) {
  current_.store(table.get(), std::memory_order_release);
  table_ = std::move(table);
}

BindingId CompositeProtocol::bind(std::string_view event,
                                  std::string handler_name, Handler handler,
                                  int order, std::any static_arg) {
  std::shared_ptr<const Table> old;
  MutexLock lk(mu_);
  auto binding = std::make_shared<const Binding>(
      Binding{next_binding_++, order, next_seq_++, std::move(handler_name),
              std::move(handler), std::move(static_arg)});
  auto table = std::make_shared<Table>(*table_);
  auto slot = table->events.find(event);
  if (slot == table->events.end()) {
    slot = table->events.try_emplace(std::string(event)).first;
  }
  auto& bindings = slot->second;
  auto pos = std::upper_bound(
      bindings.begin(), bindings.end(), binding,
      [](const auto& a, const auto& b) {
        return std::tie(a->order, a->seq) < std::tie(b->order, b->seq);
      });
  BindingId id = binding->id;
  bindings.insert(pos, std::move(binding));
  binding_event_.emplace(id, slot->first);
  old = std::move(table_);  // released after the lock, with no lock held
  publish_locked(std::move(table));
  return id;
}

bool CompositeProtocol::unbind(BindingId id) {
  std::shared_ptr<const Table> old;
  MutexLock lk(mu_);
  auto it = binding_event_.find(id);
  if (it == binding_event_.end()) return false;
  auto table = std::make_shared<Table>(*table_);
  auto slot = table->events.find(it->second);
  if (slot != table->events.end()) {
    std::erase_if(slot->second, [&](const auto& b) { return b->id == id; });
  }
  binding_event_.erase(it);
  old = std::move(table_);
  publish_locked(std::move(table));
  return true;
}

std::size_t CompositeProtocol::binding_count(std::string_view event) const {
  TableLease lease(*this);
  auto it = lease.table().events.find(event);
  return it == lease.table().events.end() ? 0 : it->second.size();
}

void CompositeProtocol::run_activation(std::string_view event,
                                       const std::any& dyn) {
  // The table is immutable, so handlers can bind/unbind during execution;
  // this activation finishes on the table it started with.
  TableLease lease(*this);
  auto it = lease.table().events.find(event);
  if (it == lease.table().events.end()) return;
  EventContext ctx(*this, event, dyn);
  for (const auto& b : it->second) {
    ctx.static_arg_ = &b->static_arg;
    try {
      b->handler(ctx);
    } catch (const std::exception& e) {
      CQOS_LOG_ERROR(opts_.name, ": handler '", b->handler_name, "' for '",
                     event, "' threw: ", e.what());
    }
    if (ctx.halted()) break;
  }
}

void CompositeProtocol::raise(std::string_view event, std::any dyn,
                              int priority) {
  // No std::string materialization: the table has transparent comparators
  // (hot path — several raises per request).
  if (priority == kInheritPriority) {
    run_activation(event, dyn);
  } else {
    PriorityGuard guard(priority);
    run_activation(event, dyn);
  }
}

void CompositeProtocol::raise_async(std::string_view event, std::any dyn,
                                    int priority) {
  if (stopped_.load()) return;
  // Zero-binding fast path: the activation would run no handlers, so skip
  // the pool handoff — one submit + thread wakeup per raise, which shows up
  // on the request return path (process_request raises kRequestReturned
  // after every request whether or not a scheduler is installed).
  if (binding_count(event) == 0) return;
  if (priority == kInheritPriority) priority = current_thread_priority();
  std::string name(event);
  // dyn is captured by copy (cheap: it usually holds a shared_ptr) so the
  // drop path below can still hand the subject to on_async_drop after the
  // task — which owns the other copy — was consumed by try_submit.
  auto task = [this, name, dyn] { run_activation(name, dyn); };
  SubmitResult r = pool_.try_submit(priority, std::move(task));
  if (r != SubmitResult::kAccepted) {
    // A silently dropped activation is how clients end up hanging until
    // their timeout: count it and let the owner fail the subject.
    metrics::Registry::global().counter("cactus.pool.async_dropped").inc();
    CQOS_LOG_WARN(opts_.name, ": async raise '", name, "' dropped (pool ",
                  r == SubmitResult::kShutdown ? "shut down" : "rejected",
                  ")");
    if (opts_.on_async_drop) opts_.on_async_drop(name, dyn);
  }
}

TimerId CompositeProtocol::raise_delayed(std::string_view event, std::any dyn,
                                         Duration delay, int priority) {
  std::string name(event);
  if (priority == kInheritPriority) priority = current_thread_priority();
  return timers_.schedule(delay, [this, name, dyn = std::move(dyn), priority] {
    PriorityGuard guard(priority);
    // Delayed raises execute handlers on the timer thread context via the
    // pool to avoid blocking the timer loop.
    raise_async(name, dyn, priority);
  });
}

bool CompositeProtocol::cancel_delayed(TimerId id) {
  return timers_.cancel(id);
}

void CompositeProtocol::stop() {
  if (stopped_.exchange(true)) return;
  timers_.shutdown();
  pool_.shutdown();
  std::vector<std::unique_ptr<MicroProtocol>> protos;
  {
    MutexLock lk(mu_);
    protos.swap(protocols_);
  }
  for (auto& mp : protos) mp->shutdown();
}

}  // namespace cqos::cactus
