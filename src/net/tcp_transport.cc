#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <utility>

#include "common/error.h"
#include "common/log.h"

namespace cqos::net {

namespace {

/// Parse "ip:port" into a sockaddr_in. Throws Error on a malformed address;
/// the port is the whole field after the last ':', digits only.
sockaddr_in parse_addr(const std::string& addr) {
  auto colon = addr.rfind(':');
  if (colon == std::string::npos) throw Error("tcp address needs ip:port, got " + addr);
  std::string ip = addr.substr(0, colon);
  int port = 0;
  const char* end = addr.data() + addr.size();
  auto [ptr, ec] = std::from_chars(addr.data() + colon + 1, end, port);
  if (ec != std::errc() || ptr != end || port < 1 || port > 65535) {
    throw Error("bad port in tcp address " + addr);
  }
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, ip.c_str(), &sa.sin_addr) != 1) {
    throw Error("bad ip in tcp address " + addr);
  }
  return sa;
}

int make_socket() {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw Error(std::string("socket: ") + std::strerror(errno));
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

TcpTransport::TcpTransport(TcpOptions cfg) : cfg_(std::move(cfg)) {
  sent_msgs_counter_ = &registry().counter("net.sent.msgs");
  sent_bytes_counter_ = &registry().counter("net.sent.bytes");
  recv_msgs_counter_ = &registry().counter("net.recv.msgs");
  recv_bytes_counter_ = &registry().counter("net.recv.bytes");

  listen_fd_ = make_socket();
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in sa = parse_addr(cfg_.listen_address + ":1");
  sa.sin_port = htons(cfg_.listen_port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    std::string err = std::strerror(errno);
    ::close(listen_fd_);
    throw Error("listen on " + cfg_.listen_address + ":" +
                std::to_string(cfg_.listen_port) + ": " + err);
  }
  socklen_t len = sizeof(sa);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&sa), &len);
  listen_port_ = ntohs(sa.sin_port);

  // The connect-timeout sweep needs a periodic wakeup; 50ms bounds how late
  // a timeout can fire without costing measurable idle CPU.
  loop_.set_tick(ms(50), [this] { sweep_connect_timeouts(); });
  loop_.add_fd(listen_fd_, EPOLLIN,
               [this](std::uint32_t ev) { on_accept(ev); });
  loop_.start();
}

TcpTransport::~TcpTransport() {
  // Join the loop thread FIRST: afterwards no handler/job/tick can run, so
  // tearing down connection records and fds below is race-free.
  loop_.stop();
  ::close(listen_fd_);
  {
    MutexLock self_lk(self_mu_);
    close_self_locked();
  }
  MutexLock lk(mu_);
  auto close_all = [](const ConnPtr& c) {
    if (c->state != Conn::State::kClosed && c->fd >= 0) ::close(c->fd);
  };
  for (auto& [addr, c] : out_conns_) close_all(c);
  for (auto& c : accepted_) close_all(c);
}

std::shared_ptr<Endpoint> TcpTransport::create_endpoint(const std::string& id) {
  MutexLock lk(mu_);
  if (endpoints_.contains(id)) {
    throw Error("endpoint id already registered: " + id);
  }
  auto ep = std::make_shared<Endpoint>(id, host_of(id));
  endpoints_.emplace(id, ep);
  return ep;
}

void TcpTransport::remove_endpoint(const std::string& id) {
  std::shared_ptr<Endpoint> ep;
  {
    MutexLock lk(mu_);
    auto it = endpoints_.find(id);
    if (it == endpoints_.end()) return;
    ep = std::move(it->second);
    endpoints_.erase(it);
  }
  ep->close();
}

std::size_t TcpTransport::open_connections() const {
  std::size_t n = 0;
  {
    MutexLock self_lk(self_mu_);
    if (self_out_ >= 0) n = 2;
  }
  MutexLock lk(mu_);
  for (const auto& [addr, c] : out_conns_) {
    if (c->state != Conn::State::kClosed) ++n;
  }
  for (const auto& c : accepted_) {
    if (c->state != Conn::State::kClosed) ++n;
  }
  return n;
}

void TcpTransport::count_drop(const char* reason) {
  registry().counter(std::string("net.drop.") + reason).inc();
}

bool TcpTransport::send(const std::string& from, const std::string& to,
                        Bytes&& payload) {
  std::size_t frame_len = frame_overhead(from, to) + payload.size();
  if (frame_len > cfg_.max_frame_bytes) {
    count_drop("oversize");
    return false;
  }
  std::shared_ptr<Endpoint> local;
  {
    MutexLock lk(mu_);
    auto ep_it = endpoints_.find(to);
    if (ep_it == endpoints_.end()) {
      return enqueue_frame_locked(from, to, std::move(payload), frame_len);
    }
    local = ep_it->second;
  }

  // A local destination: this thread moves the frame through the kernel's
  // TCP stack and back, then delivers it itself with no transport lock held.
  std::size_t payload_bytes = payload.size();
  Bytes frame = encode_frame(from, to, payload);
  BufferPool::recycle(std::move(payload));
  std::optional<Frame> f = self_roundtrip(frame);
  BufferPool::recycle(std::move(frame));
  if (!f) return false;
  msgs_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(payload_bytes, std::memory_order_relaxed);
  sent_msgs_counter_->inc();
  sent_bytes_counter_->inc(payload_bytes);
  local->deliver_now(received(std::move(*f)));
  return true;
}

std::optional<Frame> TcpTransport::self_roundtrip(const Bytes& frame) {
  MutexLock lk(self_mu_);
  if (self_out_ < 0 && !open_self_locked()) return std::nullopt;
  // Writes and reads interleave, so a frame larger than the socket buffers
  // completes too; poll() waits when the kernel has not moved bytes yet.
  std::uint8_t buf[16 * 1024];
  const char* why = nullptr;
  for (std::size_t off = 0; why == nullptr;) {
    ssize_t n = off == frame.size()
                    ? 0
                    : ::send(self_out_, frame.data() + off, frame.size() - off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0 && errno != EAGAIN && errno != EINTR) {
      why = std::strerror(errno);
      break;
    }
    off += n > 0 ? static_cast<std::size_t>(n) : 0;
    n = ::read(self_in_, buf, sizeof(buf));
    if (n > 0 && !self_decoder_->feed({buf, static_cast<std::size_t>(n)})) {
      why = "malformed frame";
    } else if (auto f = self_decoder_->next()) {
      return f;
    } else if (n == 0) {
      why = "connection closed";
    } else if (n < 0 && errno != EAGAIN && errno != EINTR) {
      why = std::strerror(errno);
    } else if (n < 0) {
      pollfd p[2] = {{self_in_, POLLIN, 0},
                     {self_out_, off < frame.size() ? POLLOUT : 0, 0}};
      if (::poll(p, 2, 5000) == 0) why = "no progress for 5 s";
    }
  }
  // An I/O or framing error leaves the pair unusable mid-frame: close it and
  // drop the frame, as a connection error does; the next local send reopens.
  CQOS_LOG_WARN("tcp self pair: ", why, "; frame dropped");
  count_drop("conn_error");
  close_self_locked();
  return std::nullopt;
}

bool TcpTransport::open_self_locked() {
  // Through a private loopback listener the loop thread never sees. The
  // accepted end must be our own connect, not a stranger that came first.
  sockaddr_in sa = parse_addr("127.0.0.1:1");
  sockaddr_in out{}, peer{};
  sa.sin_port = 0;
  socklen_t len = sizeof(sa);
  auto* addr = reinterpret_cast<sockaddr*>(&sa);
  int lfd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  self_out_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (lfd >= 0 && self_out_ >= 0 && ::bind(lfd, addr, len) == 0 &&
      ::listen(lfd, 1) == 0 && ::getsockname(lfd, addr, &len) == 0 &&
      ::connect(self_out_, addr, len) == 0 &&
      ::getsockname(self_out_, reinterpret_cast<sockaddr*>(&out), &len) == 0) {
    self_in_ = ::accept4(lfd, reinterpret_cast<sockaddr*>(&peer), &len,
                         SOCK_NONBLOCK | SOCK_CLOEXEC);
  }
  const char* why = self_in_ < 0 ? std::strerror(errno) : nullptr;
  if (lfd >= 0) ::close(lfd);
  if (why == nullptr && (peer.sin_port != out.sin_port ||
                         peer.sin_addr.s_addr != out.sin_addr.s_addr)) {
    why = "accepted a connection that is not our own";
  }
  if (why != nullptr) {
    CQOS_LOG_WARN("tcp self pair: ", why);
    count_drop("connect");
    close_self_locked();
    return false;
  }
  int one = 1;
  for (int fd : {self_in_, self_out_}) {
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  self_decoder_.emplace(cfg_.max_frame_bytes);
  return true;
}

void TcpTransport::close_self_locked() {
  for (int* fd : {&self_out_, &self_in_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

bool TcpTransport::enqueue_frame_locked(const std::string& from,
                                        const std::string& to,
                                        Bytes&& payload,
                                        std::size_t frame_len) {
  std::size_t payload_bytes = payload.size();
  ConnPtr conn = route_locked(host_of(to));
  if (!conn) {
    count_drop("noroute");
    return false;
  }
  if (conn->wq_bytes + 4 + frame_len > cfg_.max_queued_bytes) {
    count_drop("backpressure");
    return false;
  }

  Bytes frame = encode_frame(from, to, payload);
  BufferPool::recycle(std::move(payload));
  conn->wq_bytes += frame.size();
  conn->wq.push_back(std::move(frame));
  msgs_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(payload_bytes, std::memory_order_relaxed);
  sent_msgs_counter_->inc();
  sent_bytes_counter_->inc(payload_bytes);

  // All I/O happens on the loop thread; hand it the flush.
  std::weak_ptr<Conn> wc = conn;
  loop_.post([this, wc] {
    ConnPtr c = wc.lock();
    if (!c) return;
    MutexLock lk2(mu_);
    if (c->state == Conn::State::kOpen) {
      flush_locked(c);
    } else if (c->state == Conn::State::kConnecting) {
      rearm_locked(c);
    }
  });
  return true;
}

TcpTransport::ConnPtr TcpTransport::route_locked(const std::string& to_host) {
  auto learned = learned_.find(to_host);
  if (learned != learned_.end()) {
    if (learned->second->state != Conn::State::kClosed) return learned->second;
    learned_.erase(learned);
  }
  auto peer = cfg_.peers.find(to_host);
  if (peer != cfg_.peers.end()) return connect_to_locked(peer->second);
  return nullptr;
}

TcpTransport::ConnPtr TcpTransport::connect_to_locked(const std::string& addr) {
  auto it = out_conns_.find(addr);
  if (it != out_conns_.end() && it->second->state != Conn::State::kClosed) {
    return it->second;
  }

  sockaddr_in sa{};
  int fd = -1;
  try {
    sa = parse_addr(addr);
    fd = make_socket();
  } catch (const Error& e) {
    CQOS_LOG_WARN("tcp connect setup to ", addr, ": ", e.what());
    return nullptr;
  }

  auto conn = std::make_shared<Conn>(cfg_.max_frame_bytes);
  conn->fd = fd;
  conn->addr = addr;
  conn->connect_started = now();
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  if (rc == 0) {
    conn->state = Conn::State::kOpen;
  } else if (errno == EINPROGRESS) {
    conn->state = Conn::State::kConnecting;
  } else {
    CQOS_LOG_WARN("tcp connect to ", addr, ": ", std::strerror(errno));
    ::close(fd);
    return nullptr;
  }
  out_conns_[addr] = conn;

  std::weak_ptr<Conn> wc = conn;
  loop_.post([this, wc] {
    ConnPtr c = wc.lock();
    if (!c) return;
    MutexLock lk(mu_);
    if (c->state != Conn::State::kClosed) register_conn_locked(c);
  });
  return conn;
}

void TcpTransport::register_conn_locked(const ConnPtr& c) {
  if (c->armed != 0) return;  // already registered
  std::uint32_t events =
      EPOLLIN | (c->state == Conn::State::kConnecting || !c->wq.empty()
                     ? EPOLLOUT
                     : 0u);
  std::weak_ptr<Conn> wc = c;
  loop_.add_fd(c->fd, events,
               [this, wc](std::uint32_t ev) { on_conn_event(wc, ev); });
  c->armed = events;
}

void TcpTransport::rearm_locked(const ConnPtr& c) {
  if (c->armed == 0 || c->state == Conn::State::kClosed) return;
  std::uint32_t want =
      EPOLLIN | (c->state == Conn::State::kConnecting || !c->wq.empty()
                     ? EPOLLOUT
                     : 0u);
  if (want != c->armed) {
    loop_.mod_fd(c->fd, want);
    c->armed = want;
  }
}

void TcpTransport::on_accept(std::uint32_t /*events*/) {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        CQOS_LOG_WARN("accept: ", std::strerror(errno));
      }
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>(cfg_.max_frame_bytes);
    conn->fd = fd;
    conn->state = Conn::State::kOpen;
    MutexLock lk(mu_);
    accepted_.push_back(conn);
    register_conn_locked(conn);
  }
}

void TcpTransport::on_conn_event(const std::weak_ptr<Conn>& wc,
                                 std::uint32_t events) {
  ConnPtr c = wc.lock();
  if (!c) return;
  std::vector<Delivery> due;
  {
    MutexLock lk(mu_);
    conn_event_locked(c, events, &due);
  }
  // Handlers run here, on the loop thread, with mu_ released: a handler's
  // reply send() takes mu_ itself.
  for (Delivery& d : due) d.ep->deliver_now(std::move(d.msg));
}

void TcpTransport::conn_event_locked(const ConnPtr& c, std::uint32_t events,
                                     std::vector<Delivery>* due) {
  if (c->state == Conn::State::kClosed) return;

  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    close_conn_locked(c, c->state == Conn::State::kConnecting ? "connect"
                                                              : "conn_error");
    return;
  }
  if (c->state == Conn::State::kConnecting && (events & EPOLLOUT) != 0) {
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(c->fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      CQOS_LOG_WARN("tcp connect to ", c->addr, ": ", std::strerror(err));
      close_conn_locked(c, "connect");
      return;
    }
    c->state = Conn::State::kOpen;
  }
  if ((events & EPOLLIN) != 0) {
    read_conn_locked(c, due);
    if (c->state == Conn::State::kClosed) return;
  }
  if (c->state == Conn::State::kOpen) {
    flush_locked(c);
    if (c->state == Conn::State::kClosed) return;
    rearm_locked(c);
  }
}

void TcpTransport::read_conn_locked(const ConnPtr& c,
                                    std::vector<Delivery>* due) {
  std::uint8_t buf[64 * 1024];
  for (;;) {
    ssize_t n = ::read(c->fd, buf, sizeof(buf));
    if (n > 0) {
      if (!c->decoder.feed(std::span<const std::uint8_t>(
              buf, static_cast<std::size_t>(n)))) {
        // Protocol error (oversized or malformed frame): clean close — the
        // stream is unrecoverable once framing desynchronizes.
        CQOS_LOG_WARN("tcp framing error from ", c->addr.empty() ? "peer" : c->addr,
                      ": ", c->decoder.error());
        count_drop("protocol");
        close_conn_locked(c, "protocol");
        return;
      }
      while (auto f = c->decoder.next()) {
        route_frame_locked(c, std::move(*f), due);
      }
      if (n < static_cast<ssize_t>(sizeof(buf))) {
        // Short read: the socket buffer is drained (avoids one guaranteed
        // EAGAIN round-trip per wakeup).
        return;
      }
      continue;
    }
    if (n == 0) {
      close_conn_locked(c, "peer_closed");
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    CQOS_LOG_WARN("tcp read: ", std::strerror(errno));
    close_conn_locked(c, "read_error");
    return;
  }
}

Message TcpTransport::received(Frame&& f) {
  recv_msgs_counter_->inc();
  recv_bytes_counter_->inc(f.payload.size());
  return Message{std::move(f.from), std::move(f.to), std::move(f.payload),
                 now(), next_seq_.fetch_add(1, std::memory_order_relaxed)};
}

void TcpTransport::route_frame_locked(const ConnPtr& c, Frame&& f,
                                      std::vector<Delivery>* due) {
  // Learn the return route: frames from this host reach it over this
  // connection — the only way to address a client on an ephemeral port.
  learned_[host_of(f.from)] = c;

  auto it = endpoints_.find(f.to);
  Message msg = received(std::move(f));
  if (it == endpoints_.end()) {
    count_drop("unknown_dest");
    return;
  }
  due->push_back(Delivery{it->second, std::move(msg)});
}

void TcpTransport::flush_locked(const ConnPtr& c) {
  while (!c->wq.empty()) {
    Bytes& front = c->wq.front();
    ssize_t n = ::write(c->fd, front.data() + c->woff, front.size() - c->woff);
    if (n > 0) {
      c->woff += static_cast<std::size_t>(n);
      if (c->woff == front.size()) {
        c->wq_bytes -= front.size();
        BufferPool::recycle(std::move(front));
        c->wq.pop_front();
        c->woff = 0;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    CQOS_LOG_WARN("tcp write: ", std::strerror(errno));
    close_conn_locked(c, "write_error");
    return;
  }
  rearm_locked(c);
}

void TcpTransport::close_conn_locked(const ConnPtr& c, const char* reason) {
  if (c->state == Conn::State::kClosed) return;
  bool had_queued = !c->wq.empty();
  c->state = Conn::State::kClosed;
  if (c->armed != 0) {
    loop_.del_fd(c->fd);
    c->armed = 0;
  }
  ::close(c->fd);
  c->fd = -1;
  c->wq.clear();
  c->wq_bytes = 0;
  if (had_queued) count_drop(reason);
  if (!c->addr.empty()) {
    auto it = out_conns_.find(c->addr);
    if (it != out_conns_.end() && it->second == c) out_conns_.erase(it);
  }
  std::erase(accepted_, c);
  std::erase_if(learned_, [&c](const auto& kv) { return kv.second == c; });
}

void TcpTransport::sweep_connect_timeouts() {
  MutexLock lk(mu_);
  std::vector<ConnPtr> stale;
  for (const auto& [addr, c] : out_conns_) {
    if (c->state == Conn::State::kConnecting &&
        now() - c->connect_started > cfg_.connect_timeout) {
      stale.push_back(c);
    }
  }
  for (const ConnPtr& c : stale) {
    CQOS_LOG_WARN("tcp connect to ", c->addr, " timed out");
    close_conn_locked(c, "connect_timeout");
  }
}

}  // namespace cqos::net
