// Real-socket TCP implementation of net::Transport.
//
// One listening socket per transport instance and one epoll EventLoop
// thread that owns the socket I/O of every remote connection: application
// threads calling send() to a remote endpoint only resolve a route, encode
// a frame (net/framing.h), enqueue it on the connection's write queue and
// post a flush job — read(), write(), connect-completion and accept all
// happen on the loop thread, so no remote fd is touched from two threads.
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
//   kClosed      terminal: fd closed, queued frames freed, routes that
//                pointed here forgotten. Entered on peer close, EPOLLERR/
//                EPOLLHUP, a framing protocol error (oversized/malformed
//                frame), or connect failure/timeout.
//
// Routing: a frame for endpoint "host/svc" goes to (1) a local endpoint over
// a self pair, a loopback connection the loop thread never touches: the
// sending thread takes a free pair, writes the frame, reads it back and
// delivers it itself (DESIGN.md §15); (2) the connection a frame from that
// host last arrived on (learned route: how replies reach clients on
// ephemeral ports); (3) a connection to the address in the static peers
// map. No route drops the send, like an unknown destination on the
// simulator.
//
// Locks (extends DESIGN.md §8): TcpTransport::mu_ > EventLoop::mu_ (post
// while routing); a self pair's lock is taken alone. Endpoint::mu_ is never
// taken under either: decoded frames are delivered after both are released.
// Connection records are only mutated under mu_; epoll registration calls
// are confined to the loop thread.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
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

  /// Route, frame and enqueue, or deliver over the self pair before
  /// returning. False when the message cannot even be queued (no route,
  /// frame over max_frame_bytes, backpressure, connect or self-pair I/O
  /// failure). A true return means "accepted for delivery", not
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

  /// Connections not yet closed (outgoing, accepted, self pair). Test hook.
  std::size_t open_connections() const;

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
                            Bytes&& payload, std::size_t frame_len)
      CQOS_REQUIRES(mu_);
  ConnPtr route_locked(const std::string& to_host) CQOS_REQUIRES(mu_);
  ConnPtr connect_to_locked(const std::string& addr) CQOS_REQUIRES(mu_);
  /// Count a received frame and make the Message delivered for it.
  Message received(Frame&& f);
  /// Learn the frame's return route and queue it for delivery.
  void route_frame_locked(const ConnPtr& c, Frame&& f,
                          std::vector<Delivery>* due) CQOS_REQUIRES(mu_);

  /// One loopback connection: the connecting end is written, the accepted
  /// end read back. Its lock serialises each write with its read-back, so
  /// the accepted end only ever holds the writer's own bytes; it is never
  /// held with mu_ or while a handler runs.
  struct SelfPair {
    mutable Mutex mu;
    int out CQOS_GUARDED_BY(mu) = -1;
    int in CQOS_GUARDED_BY(mu) = -1;
    std::optional<FrameDecoder> decoder CQOS_GUARDED_BY(mu);
  };
  /// Pairs open lazily, one per concurrent local sender up to this many.
  static constexpr std::size_t kSelfPairs = 4;

  /// Write `frame` to a free self pair (opening it first if needed) and
  /// read it back; nullopt, with the drop counted, if that failed.
  std::optional<Frame> self_roundtrip(const Bytes& frame)
      CQOS_NO_THREAD_SAFETY_ANALYSIS;
  std::optional<Frame> self_roundtrip_locked(SelfPair& pair,
                                             const Bytes& frame)
      CQOS_REQUIRES(pair.mu);
  bool open_self_locked(SelfPair& pair) CQOS_REQUIRES(pair.mu);
  void close_self_locked(SelfPair& pair) CQOS_REQUIRES(pair.mu);

  void count_drop(const char* reason);
  metrics::Registry& registry() const {
    return cfg_.metrics != nullptr ? *cfg_.metrics
                                   : metrics::Registry::global();
  }

  const TcpOptions cfg_;
  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;

  mutable Mutex mu_;
  std::map<std::string, std::shared_ptr<Endpoint>> endpoints_
      CQOS_GUARDED_BY(mu_);
  /// Outgoing connections keyed by "ip:port".
  std::map<std::string, ConnPtr> out_conns_ CQOS_GUARDED_BY(mu_);
  /// Accepted (incoming) connections.
  std::vector<ConnPtr> accepted_ CQOS_GUARDED_BY(mu_);
  /// Learned return routes: host -> connection its frames arrive on.
  std::map<std::string, ConnPtr> learned_ CQOS_GUARDED_BY(mu_);

  /// Taken by try_lock in order, so concurrent local sends use separate
  /// pairs instead of sleeping on one lock.
  std::array<SelfPair, kSelfPairs> self_pairs_;

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
