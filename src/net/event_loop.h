// Minimal epoll-driven event loop for the TCP transport.
//
// One owned thread blocks in epoll_wait and dispatches three kinds of work:
//
//   fd handlers   add_fd(fd, events, handler) registers a callback invoked
//                 with the ready epoll event mask. The handler map is
//                 touched only on the loop thread — add/mod/del from other
//                 threads must go through post() (the one exception:
//                 before start(), when no loop thread exists yet).
//   posted jobs   post(fn) enqueues a closure from any thread and wakes the
//                 loop via an eventfd; jobs run on the loop thread in FIFO
//                 order. This is how the transport moves all socket I/O
//                 onto one thread instead of locking each fd.
//   the tick      an optional periodic callback (set_tick before start),
//                 driven by the epoll_wait timeout. The transport uses it
//                 to sweep connect timeouts.
//
// The loop never touches transport state itself; lifetime is the caller's
// problem — stop() joins the thread, after which no callback will ever run
// again, so destroying state the callbacks capture is safe.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <thread>

#include "common/clock.h"
#include "common/sync.h"
#include "common/thread_annotations.h"

namespace cqos::net {

class EventLoop {
 public:
  using FdHandler = std::function<void(std::uint32_t events)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Install the periodic callback. Must be called before start().
  void set_tick(Duration period, std::function<void()> fn);

  void start();
  /// Idempotent; joins the loop thread. After stop() returns no handler,
  /// job or tick will run again.
  void stop();

  /// Register `fd` with the given epoll event mask (EPOLLIN/EPOLLOUT/...).
  /// Loop thread only (or before start()).
  void add_fd(int fd, std::uint32_t events, FdHandler handler);
  void mod_fd(int fd, std::uint32_t events);
  void del_fd(int fd);

  /// Run `fn` on the loop thread. Thread-safe; wakes the loop immediately.
  /// Jobs posted after stop() are silently dropped.
  void post(std::function<void()> fn);

 private:
  void run();
  void drain_jobs();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd
  Duration tick_period_{};
  std::function<void()> tick_;
  std::map<int, FdHandler> handlers_;  // loop thread only
  std::thread thread_;

  Mutex mu_;
  std::deque<std::function<void()>> jobs_ CQOS_GUARDED_BY(mu_);
  bool stopping_ CQOS_GUARDED_BY(mu_) = false;
  bool started_ = false;
};

}  // namespace cqos::net
