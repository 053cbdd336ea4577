#include "cactus/thread_pool.h"

#include <algorithm>

#include "common/metrics.h"

namespace cqos::cactus {

PriorityThreadPool::PriorityThreadPool(int num_threads, std::string name) {
  (void)name;
  start_workers(num_threads);
}

PriorityThreadPool::PriorityThreadPool(int num_threads,
                                       std::vector<TrafficClass> classes,
                                       std::string name)
    : classes_(std::move(classes)) {
  std::stable_sort(classes_.begin(), classes_.end(),
                   [](const TrafficClass& a, const TrafficClass& b) {
                     return a.min_priority > b.min_priority;
                   });
  for (auto& c : classes_) {
    if (c.weight < 1) c.weight = 1;
    std::string stem = "cactus.pool." + name + "." + c.name;
    auto& reg = metrics::Registry::global();
    enqueued_.push_back(&reg.counter(stem + ".enqueued"));
    rejected_.push_back(&reg.counter(stem + ".rejected"));
  }
  class_queues_.resize(classes_.size());
  if (!classes_.empty()) wrr_credit_ = classes_[0].weight;
  start_workers(num_threads);
}

void PriorityThreadPool::start_workers(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  slots_ = num_threads;
  workers_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

PriorityThreadPool::~PriorityThreadPool() { shutdown(); }

std::size_t PriorityThreadPool::class_index_for(int priority) const {
  // classes_ is sorted by descending min_priority: the first class whose
  // floor the priority reaches wins; the last class is the catch-all.
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    if (priority >= classes_[i].min_priority) return i;
  }
  return classes_.empty() ? 0 : classes_.size() - 1;
}

std::size_t PriorityThreadPool::queue_depth(std::size_t idx) const {
  MutexLock lk(mu_);
  if (idx >= class_queues_.size()) return 0;
  return class_queues_[idx].size();
}

SubmitResult PriorityThreadPool::try_submit(int priority,
                                            std::function<void()> task) {
  MutexLock lk(mu_);
  if (shutdown_.load(std::memory_order_relaxed)) return SubmitResult::kShutdown;
  if (classes_.empty()) {
    queue_.push(Item{priority, next_seq_++, std::move(task)});
    queued_.fetch_add(1, std::memory_order_seq_cst);
    cv_.notify_one();
    return SubmitResult::kAccepted;
  }
  std::size_t idx = class_index_for(priority);
  const TrafficClass& cls = classes_[idx];
  auto& q = class_queues_[idx];
  if (cls.max_queue != 0 && q.size() >= cls.max_queue) {
    rejected_[idx]->inc();
    return SubmitResult::kRejected;
  }
  q.push_back(Item{priority, next_seq_++, std::move(task)});
  queued_.fetch_add(1, std::memory_order_seq_cst);
  enqueued_[idx]->inc();
  cv_.notify_one();
  return SubmitResult::kAccepted;
}

// The caller-runs path takes no lock: a slot is one CAS on running_, and
// leaving takes mu_ only when tasks are queued. Why no queued task is
// stranded (DESIGN.md §8): running_ and queued_ are seq_cst, and a worker
// reads running_ after the submit that queued its task raised queued_. So
// either the leaving caller sees queued_ != 0 and wakes a worker under mu_
// (which the worker holds until it waits), or the worker sees the freed
// slot.
bool PriorityThreadPool::claim_slot() {
  int r = running_.load(std::memory_order_seq_cst);
  do {
    if (r >= slots_) return false;
  } while (!running_.compare_exchange_weak(r, r + 1,
                                           std::memory_order_seq_cst));
  return true;
}

bool PriorityThreadPool::enter_inline() {
  if (shutdown_.load(std::memory_order_acquire) ||
      queued_.load(std::memory_order_seq_cst) != 0) {
    return false;
  }
  return claim_slot();
}

void PriorityThreadPool::leave_inline() {
  running_.fetch_sub(1, std::memory_order_seq_cst);
  // A worker that found the queue non-empty while every slot was held is
  // waiting for this one.
  if (queued_.load(std::memory_order_seq_cst) != 0) {
    MutexLock lk(mu_);
    cv_.notify_one();
  }
}

void PriorityThreadPool::shutdown() {
  {
    MutexLock lk(mu_);
    shutdown_.store(true, std::memory_order_release);
    cv_.notify_all();
  }
  // One caller performs the join; concurrent callers block on join_mu_ until
  // it finishes, so shutdown() returning always means the workers exited and
  // every accepted task ran (drain-then-join determinism).
  MutexLock lk(join_mu_);
  if (joined_) return;
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  joined_ = true;
}

void PriorityThreadPool::advance_wrr() {
  wrr_idx_ = (wrr_idx_ + 1) % classes_.size();
  wrr_credit_ = classes_[wrr_idx_].weight;
}

bool PriorityThreadPool::queues_empty() const {
  if (classes_.empty()) return queue_.empty();
  return std::all_of(class_queues_.begin(), class_queues_.end(),
                     [](const std::deque<Item>& q) { return q.empty(); });
}

bool PriorityThreadPool::pop_next(Item& out) {
  if (classes_.empty()) {
    if (queue_.empty()) return false;
    // const_cast is safe: we pop immediately after moving the task out.
    out = std::move(const_cast<Item&>(queue_.top()));
    queue_.pop();
    return true;
  }
  // Weighted round robin: serve up to `weight` tasks from the current class
  // before moving on; skip empty classes so the pool stays work-conserving
  // (weights only matter while more than one class is backlogged).
  for (std::size_t scanned = 0; scanned < classes_.size(); ++scanned) {
    auto& q = class_queues_[wrr_idx_];
    if (!q.empty() && wrr_credit_ > 0) {
      out = std::move(q.front());
      q.pop_front();
      --wrr_credit_;
      if (wrr_credit_ == 0) advance_wrr();
      return true;
    }
    advance_wrr();
  }
  return false;
}

void PriorityThreadPool::worker_loop() {
  bool ran = false;
  for (;;) {
    Item item;
    {
      MutexLock lk(mu_);
      // The finished task's slot is freed in the same lock hold that looks
      // for the next task.
      if (ran) running_.fetch_sub(1, std::memory_order_seq_cst);
      for (;;) {
        if (!queues_empty() && claim_slot()) {
          pop_next(item);
          queued_.fetch_sub(1, std::memory_order_seq_cst);
          break;
        }
        if (shutdown_.load(std::memory_order_relaxed) && queues_empty()) {
          return;  // drained
        }
        cv_.wait(mu_);
      }
    }
    ran = true;
    run_at(item.priority, item.task);
  }
}

}  // namespace cqos::cactus
