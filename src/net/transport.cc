#include "net/transport.h"

#include "net/sim_network.h"
#include "net/tcp_transport.h"

namespace cqos::net {

// --- Endpoint ---------------------------------------------------------------

std::optional<Message> Endpoint::recv(Duration timeout) {
  TimePoint deadline = now() + timeout;
  MutexLock lk(mu_);
  for (;;) {
    if (closed_) return std::nullopt;
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
}

void Endpoint::close() {
  MutexLock lk(mu_);
  closed_ = true;
  inbox_.reset();
  handler_ = nullptr;
  cv_.notify_all();
  while (active_ > 0) cv_.wait(mu_);
}

bool Endpoint::closed() const {
  MutexLock lk(mu_);
  return closed_;
}

bool Endpoint::deliver_now(Message msg) {
  Handler h;
  {
    MutexLock lk(mu_);
    if (closed_ || crashed_) return false;  // refused
    if (!handler_) {
      if (!inbox_) inbox_ = std::make_unique<std::deque<Message>>();
      inbox_->push_back(std::move(msg));
      cv_.notify_all();
      return true;
    }
    h = handler_;
    ++active_;
  }
  struct Done {
    Endpoint& ep;
    ~Done() {
      MutexLock lk(ep.mu_);
      // close() may be waiting for the last in-flight call.
      if (--ep.active_ == 0 && ep.closed_) ep.cv_.notify_all();
    }
  } done{*this};
  h(std::move(msg));
  return true;
}

void Endpoint::mark_crashed() {
  MutexLock lk(mu_);
  crashed_ = true;
  inbox_.reset();
}

void Endpoint::mark_recovered() {
  MutexLock lk(mu_);
  crashed_ = false;
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
