#include "net/transport.h"

#include "net/sim_network.h"
#include "net/tcp_transport.h"

namespace cqos::net {

// --- Endpoint ---------------------------------------------------------------

std::optional<Message> Endpoint::recv(Duration timeout) {
  TimePoint deadline = now() + timeout;
  MutexLock lk(mu_);
  for (;;) {
    if (closed()) return std::nullopt;
    if (inbox_ && !inbox_->empty()) {
      Message msg = std::move(inbox_->front());
      inbox_->pop_front();
      return msg;
    }
    if (now() >= deadline) return std::nullopt;
    cv_.wait_until(mu_, deadline);
  }
}

void Endpoint::set_handler(Handler fn) {
  MutexLock lk(mu_);
  handler_ = std::move(fn);
  if (handler_) state_.fetch_or(kHasHandler, std::memory_order_release);
}

void Endpoint::close() {
  MutexLock lk(mu_);
  state_.fetch_or(kClosed, std::memory_order_acq_rel);
  inbox_.reset();
  cv_.notify_all();
  // No call starts once kClosed is set; wait for the ones in flight. The
  // last of them sees kClosed in the word it decrements and notifies under
  // mu_, which it cannot take before this thread waits.
  while (state_.load(std::memory_order_acquire) >= kCall) cv_.wait(mu_);
  handler_ = nullptr;
}

bool Endpoint::closed() const {
  return (state_.load(std::memory_order_acquire) & kClosed) != 0;
}

bool Endpoint::deliver_now(Message msg) {
  std::uint32_t s = state_.load(std::memory_order_acquire);
  while ((s & kHasHandler) != 0 && (s & (kClosed | kCrashed)) == 0) {
    // Count the call in, in the same word close() and the crash bit
    // change, so it either starts before close() or never.
    if (state_.compare_exchange_weak(s, s + kCall, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      struct Done {
        Endpoint& ep;
        ~Done() {
          // close() may be waiting for this call. It may also have seen
          // the count reach zero and returned already: the delivering
          // transport holds a reference to the endpoint for the whole
          // call, so the lock and the condition variable are still there.
          if ((ep.state_.fetch_sub(kCall, std::memory_order_acq_rel) &
               kClosed) != 0) {
            MutexLock lk(ep.mu_);
            ep.cv_.notify_all();
          }
        }
      } done{*this};
      handler_(std::move(msg));
      return true;
    }
  }
  if ((s & (kClosed | kCrashed)) != 0) return false;  // refused
  {
    MutexLock lk(mu_);
    s = state_.load(std::memory_order_acquire);
    if ((s & (kClosed | kCrashed)) != 0) return false;
    if ((s & kHasHandler) == 0) {
      if (!inbox_) inbox_ = std::make_unique<std::deque<Message>>();
      inbox_->push_back(std::move(msg));
      cv_.notify_all();
      return true;
    }
  }
  return deliver_now(std::move(msg));  // a handler was installed meanwhile
}

void Endpoint::mark_crashed() {
  MutexLock lk(mu_);
  state_.fetch_or(kCrashed, std::memory_order_acq_rel);
  inbox_.reset();
}

void Endpoint::mark_recovered() {
  state_.fetch_and(~kCrashed, std::memory_order_acq_rel);
}

// --- Transport ---------------------------------------------------------------

std::string Transport::host_of(const std::string& endpoint_id) {
  auto pos = endpoint_id.find('/');
  return pos == std::string::npos ? endpoint_id : endpoint_id.substr(0, pos);
}

std::unique_ptr<Transport> make_transport(const TransportConfig& cfg) {
  switch (cfg.kind) {
    case TransportKind::kSim:
      return std::make_unique<SimNetwork>(cfg.sim);
    case TransportKind::kTcp:
      return std::make_unique<TcpTransport>(cfg.tcp);
  }
  return std::make_unique<SimNetwork>(cfg.sim);
}

}  // namespace cqos::net
