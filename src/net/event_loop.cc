#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/log.h"

namespace cqos::net {

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw Error(std::string("epoll_create1: ") + std::strerror(errno));
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    throw Error(std::string("eventfd: ") + std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
}

EventLoop::~EventLoop() {
  stop();
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

void EventLoop::set_tick(Duration period, std::function<void()> fn) {
  tick_period_ = period;
  tick_ = std::move(fn);
}

void EventLoop::start() {
  if (started_) return;
  started_ = true;
  thread_ = std::thread([this] { run(); });
}

void EventLoop::stop() {
  {
    MutexLock lk(mu_);
    stopping_ = true;
  }
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  if (thread_.joinable()) thread_.join();
}

void EventLoop::add_fd(int fd, std::uint32_t events, FdHandler handler) {
  handlers_[fd] = std::move(handler);
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    handlers_.erase(fd);
    throw Error(std::string("epoll_ctl add: ") + std::strerror(errno));
  }
}

void EventLoop::mod_fd(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    CQOS_LOG_WARN("epoll_ctl mod fd=", fd, ": ", std::strerror(errno));
  }
}

void EventLoop::del_fd(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

void EventLoop::post(std::function<void()> fn) {
  {
    MutexLock lk(mu_);
    if (stopping_) return;
    jobs_.push_back(std::move(fn));
  }
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::drain_jobs() {
  // Swap out the queue so handlers that post() more work do not deadlock or
  // starve the poll — newly posted jobs run on the next iteration.
  std::deque<std::function<void()>> batch;
  {
    MutexLock lk(mu_);
    batch.swap(jobs_);
  }
  for (auto& fn : batch) fn();
}

void EventLoop::run() {
  int timeout_ms = -1;
  if (tick_) {
    auto t = std::chrono::duration_cast<std::chrono::milliseconds>(tick_period_);
    timeout_ms = static_cast<int>(t.count());
    if (timeout_ms < 1) timeout_ms = 1;
  }
  TimePoint last_tick = now();
  std::vector<epoll_event> events(64);
  for (;;) {
    {
      MutexLock lk(mu_);
      if (stopping_ && jobs_.empty()) break;
    }
    int n = ::epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      CQOS_LOG_ERROR("epoll_wait: ", std::strerror(errno));
      break;
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t count;
        while (::read(wake_fd_, &count, sizeof(count)) > 0) {
        }
        continue;
      }
      // A handler may del_fd() peers from the same batch; look each fd up
      // fresh and skip ones that vanished mid-batch.
      auto it = handlers_.find(fd);
      if (it != handlers_.end()) it->second(events[i].events);
    }
    drain_jobs();
    if (tick_ && now() - last_tick >= tick_period_) {
      last_tick = now();
      tick_();
    }
  }
}

}  // namespace cqos::net
