// Real-socket TCP implementation of net::Transport.
//
// One listening socket per transport instance and one epoll EventLoop
// thread that owns ALL socket I/O: application threads calling send() only
// resolve a route, encode a frame (net/framing.h), enqueue it on the
// connection's write queue and post a flush job — read(), write(),
// connect-completion and accept all happen on the loop thread, so no fd is
// ever touched from two threads.
//
// Connection state machine (after lighttpd's mod_proxy fdevent core;
// SNIPPETS.md §3):
//
//   kConnecting  non-blocking connect() in flight; the socket is armed for
//                EPOLLOUT, whose arrival means "resolved" — SO_ERROR says
//                whether into kOpen (flush queued frames) or kClosed. A
//                periodic tick sweeps connects older than connect_timeout.
//   kOpen        EPOLLIN drains the socket through a FrameDecoder; decoded
//                frames are delivered to the destination Endpoint's handler
//                on the loop thread, once mu_ is released.
//                EPOLLOUT (armed only while the write queue is non-empty)
//                flushes queued frames, tolerating partial writes.
//   kClosed      terminal: fd closed, queued frames recycled, routes that
//                pointed here forgotten. Entered on peer close, EPOLLERR/
//                EPOLLHUP, a framing protocol error (oversized/malformed
//                frame), or connect failure/timeout.
//
// Routing: a frame for endpoint "host/svc" goes to (1) the local endpoint if
// it is registered here — via a real loopback connection to our
// own listen socket when self_loopback is set, so single-process tests
// exercise the full wire path; (2) the connection a frame from that host
// last arrived on (learned route — how replies reach clients on ephemeral
// ports); (3) a connection to the address in the static peers map. No
// route means the send is dropped, exactly like an unknown destination on
// the simulator.
//
// Lock hierarchy (extends DESIGN.md §8): TcpTransport::mu_ > EventLoop::mu_
// (post while routing). Endpoint::mu_ is never taken under mu_: decoded
// frames are collected under it and delivered after it is released.
// Connection records are only mutated under mu_; epoll registration calls
// are confined to the loop thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "net/event_loop.h"
#include "net/framing.h"
#include "net/transport.h"

namespace cqos::net {

class TcpTransport : public Transport {
 public:
  explicit TcpTransport(TcpOptions cfg = {});
  ~TcpTransport() override;

  // --- net::Transport --------------------------------------------------------

  std::shared_ptr<Endpoint> create_endpoint(const std::string& id) override;
  void remove_endpoint(const std::string& id) override;

  /// Route, frame and enqueue. Returns false when the message cannot even be
  /// queued (no route, frame over max_frame_bytes, connection backpressure,
  /// connect failure). A true return means "accepted for delivery", not
  /// "delivered": a queued frame still dies with its connection.
  bool send(const std::string& from, const std::string& to,
            Bytes&& payload) override;

  std::string kind() const override { return "tcp"; }
  TcpTransport* as_tcp() override { return this; }

  std::uint64_t messages_sent() const override {
    return msgs_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_sent() const override {
    return bytes_.load(std::memory_order_relaxed);
  }

  // --- TCP-specific ----------------------------------------------------------

  /// The bound listening port (resolves TcpOptions::listen_port == 0).
  std::uint16_t listen_port() const { return listen_port_; }
  const std::string& listen_address() const { return cfg_.listen_address; }

  /// Extend the static routing table after construction: host part of an
  /// endpoint id -> "ip:port". How a client process wires in a server whose
  /// ephemeral port it learned out of band.
  void add_peer(const std::string& host, const std::string& address);

  /// Connections not yet closed (outgoing + accepted). Test hook.
  std::size_t open_connections() const;

  metrics::Registry& metrics_registry() const { return registry(); }

 private:
  struct Conn {
    explicit Conn(std::size_t max_frame_bytes) : decoder(max_frame_bytes) {}
    int fd = -1;
    enum class State { kConnecting, kOpen, kClosed };
    State state = State::kConnecting;
    /// "ip:port" key in out_conns_; empty for accepted connections.
    std::string addr;
    FrameDecoder decoder;
    /// Write queue of encoded frames; woff is the partial-write offset into
    /// the front buffer.
    std::deque<Bytes> wq;
    std::size_t wq_bytes = 0;
    std::size_t woff = 0;
    /// Epoll mask currently registered (loop thread bookkeeping to avoid
    /// redundant epoll_ctl calls). 0 = not registered yet.
    std::uint32_t armed = 0;
    TimePoint connect_started{};
  };
  using ConnPtr = std::shared_ptr<Conn>;

  /// A decoded frame awaiting delivery once mu_ is released.
  struct Delivery {
    std::shared_ptr<Endpoint> ep;
    Message msg;
  };

  // Loop-thread entry points.
  void on_accept(std::uint32_t events);
  void on_conn_event(const std::weak_ptr<Conn>& wc, std::uint32_t events);
  void conn_event_locked(const ConnPtr& c, std::uint32_t events,
                         std::vector<Delivery>* due) CQOS_REQUIRES(mu_);
  void read_conn_locked(const ConnPtr& c, std::vector<Delivery>* due)
      CQOS_REQUIRES(mu_);
  void flush_locked(const ConnPtr& c) CQOS_REQUIRES(mu_);
  void rearm_locked(const ConnPtr& c) CQOS_REQUIRES(mu_);
  void close_conn_locked(const ConnPtr& c, const char* reason)
      CQOS_REQUIRES(mu_);
  void register_conn_locked(const ConnPtr& c) CQOS_REQUIRES(mu_);
  void sweep_connect_timeouts();

  // Called under mu_ from send().
  bool enqueue_frame_locked(const std::string& from, const std::string& to,
                            bool to_is_local, Bytes&& payload,
                            std::size_t frame_len) CQOS_REQUIRES(mu_);
  ConnPtr route_locked(const std::string& to_host, bool to_is_local,
                       const char** drop_reason) CQOS_REQUIRES(mu_);
  ConnPtr connect_to_locked(const std::string& addr) CQOS_REQUIRES(mu_);
  /// Learn the frame's return route and queue it for delivery.
  void route_frame_locked(const ConnPtr& c, Frame&& f,
                          std::vector<Delivery>* due) CQOS_REQUIRES(mu_);

  void count_drop(const char* reason);
  metrics::Registry& registry() const {
    return cfg_.metrics != nullptr ? *cfg_.metrics
                                   : metrics::Registry::global();
  }

  const TcpOptions cfg_;
  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;
  std::string self_addr_;  // "listen_address:listen_port"

  mutable Mutex mu_;
  std::map<std::string, std::shared_ptr<Endpoint>> endpoints_
      CQOS_GUARDED_BY(mu_);
  std::map<std::string, std::string> peers_ CQOS_GUARDED_BY(mu_);
  /// Outgoing connections keyed by "ip:port".
  std::map<std::string, ConnPtr> out_conns_ CQOS_GUARDED_BY(mu_);
  /// Accepted (incoming) connections.
  std::vector<ConnPtr> accepted_ CQOS_GUARDED_BY(mu_);
  /// Learned return routes: host -> connection its frames arrive on.
  std::map<std::string, ConnPtr> learned_ CQOS_GUARDED_BY(mu_);

  std::atomic<std::uint64_t> next_seq_{1};
  std::atomic<std::uint64_t> msgs_{0};
  std::atomic<std::uint64_t> bytes_{0};
  metrics::Counter* sent_msgs_counter_ = nullptr;
  metrics::Counter* sent_bytes_counter_ = nullptr;
  metrics::Counter* recv_msgs_counter_ = nullptr;
  metrics::Counter* recv_bytes_counter_ = nullptr;

  // Declared last: the destructor stops the loop first, so no callback can
  // touch the fields above while they are torn down.
  EventLoop loop_;
};

}  // namespace cqos::net
