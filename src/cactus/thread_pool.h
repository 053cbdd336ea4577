// Priority-ordered worker pool used by the Cactus runtime for asynchronous
// event execution.
//
// The paper notes (§5) that "use of a thread pool for event handling reduced
// overhead considerably" versus spawning a thread per event; both modes are
// implemented (the per-event mode lives in CompositeProtocol) so the
// bench_ablation_threadpool harness can quantify the difference.
//
// Each task carries a logical priority. Two scheduling modes:
//
//   legacy (no traffic classes configured): workers pop the highest-priority
//   pending task (FIFO within a priority) and run it with the thread-local
//   priority set accordingly, preserving the paper's guarantee that handlers
//   run at the priority of the raising thread unless overridden.
//
//   traffic-class (one or more TrafficClass specs): tasks are mapped to the
//   first class (descending min_priority order) whose min_priority the task
//   priority reaches; each class has its own bounded FIFO queue and workers
//   drain the queues weighted-round-robin by class weight. A full bounded
//   queue rejects at submit time (SubmitResult::kRejected) instead of
//   queueing unboundedly — the overload-protection seam the admission layer
//   and the platform dispatchers build on.
//
// Shutdown contract (drain-then-join, deterministic):
//   - every task accepted by submit()/try_submit() (kAccepted) is RUN before
//     shutdown() returns; tasks are never dropped;
//   - submit() after shutdown() began returns false (kShutdown) and the task
//     never runs;
//   - shutdown() returns only once all workers have exited, including when
//     several threads race to call it — late callers block until the join
//     completes rather than returning early;
//   - shutdown() must not be called from inside a pool task (self-join).
//
// Concurrency bound: at most num_threads() tasks run at once, counting both
// worker runs and try_run_inline() runs on outside threads (the caller-runs
// path of platform dispatch, DESIGN.md §8). A worker starts a task only
// while a slot is free, so queued work waits for a finishing task whether a
// worker or an inline caller held its slot.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/priority.h"
#include "common/sync.h"
#include "common/thread_annotations.h"

namespace cqos::metrics {
class Counter;
}  // namespace cqos::metrics

namespace cqos::cactus {

/// One scheduling class of a traffic-class pool. Tasks with
/// priority >= min_priority (and not claimed by a higher class) land in this
/// class's FIFO queue; workers visit classes weighted-round-robin, taking up
/// to `weight` tasks per visit while other classes are backlogged.
struct TrafficClass {
  std::string name;        // metrics label ("high", "best_effort", ...)
  int min_priority = 0;    // lowest task priority mapped to this class
  int weight = 1;          // WRR share while contended (>= 1)
  std::size_t max_queue = 0;  // bounded queue depth; 0 = unbounded
};

/// Outcome of try_submit. kRejected is the backpressure signal: the target
/// class queue is at max_queue and the task was NOT enqueued.
enum class SubmitResult { kAccepted, kRejected, kShutdown };

class PriorityThreadPool {
 public:
  explicit PriorityThreadPool(int num_threads, std::string name = "cactus");
  /// Traffic-class mode. Classes may be given in any order; they are kept
  /// sorted by descending min_priority and the lowest class is the
  /// catch-all for priorities below every min_priority.
  PriorityThreadPool(int num_threads, std::vector<TrafficClass> classes,
                     std::string name = "cactus");
  ~PriorityThreadPool();

  PriorityThreadPool(const PriorityThreadPool&) = delete;
  PriorityThreadPool& operator=(const PriorityThreadPool&) = delete;

  /// Enqueue a task at `priority` (larger runs first). Returns kAccepted,
  /// kRejected (traffic-class mode, target class queue full) or kShutdown.
  SubmitResult try_submit(int priority, std::function<void()> task);

  /// Compatibility wrapper: true iff the task was accepted. Callers that
  /// need to distinguish rejection from shutdown use try_submit.
  bool submit(int priority, std::function<void()> task) {
    return try_submit(priority, std::move(task)) == SubmitResult::kAccepted;
  }

  /// Run `task` on the calling thread, under a PriorityGuard at `priority`,
  /// if a worker would start it at once: nothing is queued in any class and
  /// a slot is free. The run holds that slot, so the pool's concurrency
  /// bound, its priority and class order and max_queue rejection are all
  /// kept. Returns false, leaving `task` untouched, when the task would have
  /// waited (or the pool is shutting down); the caller then try_submit()s
  /// it. When the run finishes and work was queued meanwhile, a worker is
  /// woken for the freed slot.
  template <class Task>
  bool try_run_inline(int priority, Task& task) {
    if (!enter_inline()) return false;
    struct Leave {
      PriorityThreadPool* pool;
      ~Leave() { pool->leave_inline(); }
    } leave{this};
    run_at(priority, task);
    return true;
  }

  /// Stop accepting tasks, finish everything queued, join workers. Safe to
  /// call concurrently; every caller returns only after the workers exited.
  void shutdown();

  int num_threads() const { return slots_; }

  bool class_mode() const { return !classes_.empty(); }
  /// Configured classes, descending min_priority (empty in legacy mode).
  const std::vector<TrafficClass>& classes() const { return classes_; }
  /// Index of the class a task at `priority` maps to (class mode only).
  std::size_t class_index_for(int priority) const;
  /// Current queued depth of class `idx` (class mode only; for tests/bench).
  std::size_t queue_depth(std::size_t idx) const;

 private:
  struct Item {
    int priority;
    std::uint64_t seq;  // tie-break: FIFO within a priority
    std::function<void()> task;
  };
  struct ItemLess {
    bool operator()(const Item& a, const Item& b) const {
      if (a.priority != b.priority) return a.priority < b.priority;
      return a.seq > b.seq;  // smaller seq first
    }
  };

  /// Run a task at `priority` on the calling thread; an exception is
  /// logged, not propagated.
  template <class Task>
  static void run_at(int priority, Task& task) {
    PriorityGuard guard(priority);
    try {
      task();
    } catch (const std::exception& e) {
      CQOS_LOG_ERROR("unhandled exception in pool task: ", e.what());
    }
  }

  void start_workers(int num_threads);
  void worker_loop();
  /// Claim a slot for an inline run (false: the task would wait); the
  /// matching leave_inline() frees it. Neither takes mu_ unless tasks are
  /// queued.
  bool enter_inline();
  void leave_inline();
  /// One slot, if running_ is below slots_.
  bool claim_slot();
  bool queues_empty() const CQOS_REQUIRES(mu_);
  bool pop_next(Item& out) CQOS_REQUIRES(mu_);
  void advance_wrr() CQOS_REQUIRES(mu_);

  mutable Mutex mu_;
  CondVar cv_;
  std::priority_queue<Item, std::vector<Item>, ItemLess> queue_
      CQOS_GUARDED_BY(mu_);  // legacy mode
  std::vector<std::deque<Item>> class_queues_ CQOS_GUARDED_BY(mu_);
  std::size_t wrr_idx_ CQOS_GUARDED_BY(mu_) = 0;   // class being served
  int wrr_credit_ CQOS_GUARDED_BY(mu_) = 0;        // remaining weight share
  std::uint64_t next_seq_ CQOS_GUARDED_BY(mu_) = 0;
  /// Tasks running now, on workers and inline: claimed by CAS (never past
  /// slots_), with or without mu_.
  std::atomic<int> running_{0};
  /// Tasks queued in every class; changed under mu_, read without it by
  /// the caller-runs path.
  std::atomic<std::size_t> queued_{0};
  /// Set under mu_.
  std::atomic<bool> shutdown_{false};

  // Immutable after construction.
  int slots_ = 0;  // the concurrency bound: the number of workers
  std::vector<TrafficClass> classes_;  // sorted by descending min_priority
  std::vector<metrics::Counter*> enqueued_;  // per class, global registry
  std::vector<metrics::Counter*> rejected_;

  // Lock hierarchy: join_mu_ is acquired strictly after mu_ is released —
  // shutdown() never holds both, so there is no inversion with worker_loop.
  Mutex join_mu_ CQOS_ACQUIRED_AFTER(mu_);
  bool joined_ CQOS_GUARDED_BY(join_mu_) = false;

  // Written only by the constructor; joined under join_mu_. Safe to size()
  // from any thread once construction completes.
  std::vector<std::thread> workers_;
};

}  // namespace cqos::cactus
