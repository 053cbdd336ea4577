// Transport seam: the abstract byte-moving substrate CQoS runs on.
//
// Every layer above the network — the ORB/RMI/HTTP platforms, the naming
// services, the CQoS micro-protocol compositions — talks to exactly three
// operations: register a receive endpoint, remove it, and send a payload
// from one endpoint id to another. net::Transport is that seam. Two
// implementations exist (DESIGN.md §15):
//
//   SimNetwork    (net/sim_network.h) the in-process simulated cluster:
//                 deterministic latency model, fault injection, virtual
//                 time. The CI substrate.
//   TcpTransport  (net/tcp_transport.h) real sockets: an epoll event loop,
//                 non-blocking connect/write/read state machines and
//                 length-prefixed framing, so the same stacks run across
//                 real processes.
//
// Code above the seam must not name a concrete transport (enforced by
// cqos_lint's transport-seam rule); construction goes through
// make_transport(TransportConfig), the single factory keyed by
// TransportKind. Endpoint ids are "host/service" strings on both
// transports: the host part drives latency and crash semantics on the
// simulator and connection routing on TCP.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/sync.h"
#include "common/thread_annotations.h"

namespace cqos::net {

class SimNetwork;
class TcpTransport;
class FaultController;

struct Message {
  std::string from;
  std::string to;
  Bytes payload;
  TimePoint deliver_at{};
  std::uint64_t seq = 0;
};

/// Scope guard for receive handlers: recycles the message's payload into
/// the BufferPool when the handler finishes decoding it — the last hop of
/// zero-copy delivery (DESIGN.md §10). The payload must not be referenced
/// (including via ByteReader::view spans) after the guard fires.
class PayloadRecycler {
 public:
  explicit PayloadRecycler(Message& msg) : msg_(msg) {}
  ~PayloadRecycler() { BufferPool::recycle(std::move(msg_.payload)); }
  PayloadRecycler(const PayloadRecycler&) = delete;
  PayloadRecycler& operator=(const PayloadRecycler&) = delete;

 private:
  Message& msg_;
};

/// Receiving side of one registered endpoint, shared by both transports.
/// Delivery is push: the transport hands each message over on the thread
/// that makes it due (DESIGN.md §15) — the TCP sending thread (local
/// endpoints) or event-loop thread (remote senders), the simulator's
/// sending thread or delivery thread, or its virtual-time driver.
class Endpoint {
 public:
  Endpoint(std::string id, std::string host) : id_(std::move(id)), host_(std::move(host)) {}

  const std::string& id() const { return id_; }
  const std::string& host() const { return host_; }

  /// Handler contract. The handler runs on the delivering thread with no
  /// transport lock held, possibly concurrently with itself (messages from
  /// different senders). It must not block: decode, then hand off (a pool
  /// submit, a pending-call completion, a reply send). The one exception is
  /// a platform dispatch run on its own waiting caller's thread
  /// (plat::dispatch_request, DESIGN.md §8). It may take only leaf locks and
  /// may call Transport::send() — on the simulator and to a local TCP
  /// endpoint that can run one more handler inline (e.g. a reply completing
  /// a pending call). It must never close its own endpoint (close() would
  /// wait for itself).
  /// Installed once, before traffic arrives; every message delivered while
  /// a handler is set goes to it, in both of the simulator's time modes.
  using Handler = std::function<void(Message&&)>;
  void set_handler(Handler fn);

  /// Endpoints without a handler park delivered messages in an inbox (tests
  /// reading raw endpoints). Block until one is there or `timeout` passes;
  /// nullopt on timeout or close. Virtual mode: recv(Duration::zero())
  /// drains what run_until() delivered.
  std::optional<Message> recv(Duration timeout);

  /// Refuse every further delivery and unblock recv(); returns only after
  /// every in-flight handler call has returned, so the handler's captures
  /// may be torn down afterwards. Precondition: not called from inside this
  /// endpoint's own handler.
  void close();
  bool closed() const;

 private:
  friend class SimNetwork;
  friend class TcpTransport;

  /// Deliver a due message: crash/close check, then the handler (outside
  /// the endpoint lock) or the inbox. Returns false, recycling the payload,
  /// when the message was refused.
  bool deliver_now(Message msg);
  /// Crash transitions: mark_crashed() also drops inbox messages.
  void mark_crashed();
  void mark_recovered();

  const std::string id_;
  const std::string host_;
  mutable Mutex mu_;
  CondVar cv_;
  /// Created on first use: endpoints with a handler never park a message,
  /// and an empty std::deque already allocates.
  std::unique_ptr<std::deque<Message>> inbox_ CQOS_GUARDED_BY(mu_);
  Handler handler_ CQOS_GUARDED_BY(mu_);
  /// Handler calls in flight; close() waits for zero.
  int active_ CQOS_GUARDED_BY(mu_) = 0;
  bool closed_ CQOS_GUARDED_BY(mu_) = false;
  bool crashed_ CQOS_GUARDED_BY(mu_) = false;
};

/// The abstract transport. Everything the platforms and naming services
/// need; anything transport-specific (fault injection, virtual time, the
/// listen port) lives on the concrete class, reachable via as_sim()/as_tcp()
/// for the few drivers that legitimately depend on it.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Register a new endpoint. Id format "host/service"; the host part
  /// drives latency/crash semantics (sim) or connection routing (tcp).
  /// Throws Error if the id is taken.
  virtual std::shared_ptr<Endpoint> create_endpoint(const std::string& id) = 0;

  virtual void remove_endpoint(const std::string& id) = 0;

  /// Send `payload` from endpoint `from` to endpoint `to`. Returns false if
  /// the message was dropped (unknown destination, crashed host, partition,
  /// backpressure, or random drop) — senders cannot distinguish these, as on
  /// a real network. A true return is NOT a delivery guarantee: on TCP a
  /// queued frame can still die with its connection.
  ///
  /// Takes the payload by rvalue: the buffer moves into the in-flight
  /// message without copying (zero-copy delivery; DESIGN.md §10).
  virtual bool send(const std::string& from, const std::string& to,
                    Bytes&& payload) = 0;

  /// "sim" | "tcp".
  virtual std::string kind() const = 0;

  /// The transport's notion of "now": wall clock, except for the
  /// simulator's virtual mode.
  virtual TimePoint net_now() const { return now(); }

  virtual std::uint64_t messages_sent() const = 0;
  virtual std::uint64_t bytes_sent() const = 0;

  /// Concrete-transport escape hatches for drivers that need transport-
  /// specific control (fault injection, virtual time, peer wiring). Null on
  /// every other implementation — callers must handle both outcomes.
  virtual SimNetwork* as_sim() { return nullptr; }
  virtual TcpTransport* as_tcp() { return nullptr; }

  /// Host part of an endpoint id ("hostA/orb0" -> "hostA"). Ids without a
  /// '/' are their own host.
  static std::string host_of(const std::string& endpoint_id);
};

// --- structured transport configuration --------------------------------------

/// Parameters of the simulated network (see net/sim_network.h's header
/// comment for the latency model and the two time modes).
struct NetConfig {
  /// One-way latency between distinct hosts for a zero-byte message.
  Duration base_latency = us(120);
  /// Additional latency per payload byte (models wire + serialization DMA).
  Duration per_byte = std::chrono::nanoseconds(12);
  /// Latency between endpoints on the same host.
  Duration loopback_latency = us(15);
  /// Uniform jitter fraction applied to the computed latency ([0, jitter]).
  /// Drawn from a per-sender RNG stream seeded with `seed`, so one sender's
  /// jitter sequence is independent of how many other senders exist.
  double jitter = 0.05;
  /// RNG seed for jitter/drops (deterministic tests). Every per-sender
  /// jitter stream and per-sender fault-decision stream starts from this
  /// seed, so a single-sender run reproduces the sequences the pre-sharded
  /// (one shared Rng) network produced.
  std::uint64_t seed = 42;
  /// Metrics registry for wire-level accounting (messages/bytes/drops,
  /// per host pair). Null means the process-wide global registry; tests
  /// that assert exact counter values pass their own.
  metrics::Registry* metrics = nullptr;
  /// Mint per-host-pair counters ("net.pair.<a>:<b>.*"). Disable for
  /// modeled scenarios with unbounded host populations — 10^5 modeled
  /// clients would otherwise mint three counters per (client, server) pair
  /// touched. Aggregate counters (net.sent.*, net.drop.*) stay on.
  bool pair_metrics = true;
  /// Clock the network schedules against (see net/sim_network.h). Virtual
  /// mode is single-driver oriented: one thread sends and runs the event
  /// loop.
  TimeMode time_mode = TimeMode::kReal;
};

/// Parameters of the real TCP transport (net/tcp_transport.h).
struct TcpOptions {
  /// Address the listening socket binds to.
  std::string listen_address = "127.0.0.1";
  /// Listening port; 0 picks an ephemeral port (read it back with
  /// TcpTransport::listen_port() and hand it to peers).
  std::uint16_t listen_port = 0;
  /// Static routes: host part of an endpoint id -> "ip:port" of the process
  /// hosting it. Routes are also learned dynamically — a data frame arriving
  /// on a connection teaches the receiver that the sender's host is
  /// reachable over that connection (how replies find ephemeral client
  /// ports).
  std::map<std::string, std::string> peers;
  /// Frames larger than this are refused on send and are a protocol error
  /// on receive (the connection is closed): a corrupt or hostile length
  /// prefix must not make us allocate unbounded memory.
  std::size_t max_frame_bytes = 4u << 20;
  /// Per-connection backpressure: send() fails (drop, "backpressure") once
  /// this many bytes are queued behind a slow or unconnected peer.
  std::size_t max_queued_bytes = 8u << 20;
  /// A non-blocking connect older than this is failed and its queue
  /// dropped.
  Duration connect_timeout = ms(1000);
  /// Metrics registry (null = process-wide global), same accounting names
  /// as the simulator: net.sent.*, net.drop.<reason>.
  metrics::Registry* metrics = nullptr;
};

enum class TransportKind { kSim, kTcp };

/// The one knob callers hold: which transport, with that transport's
/// parameters. Replaces the old pattern of growing NetConfig a bool per
/// feature — per-kind options live in per-kind sub-structs.
struct TransportConfig {
  TransportKind kind = TransportKind::kSim;
  NetConfig sim;   // read when kind == kSim
  TcpOptions tcp;  // read when kind == kTcp

  static TransportConfig simulated(NetConfig opts = {}) {
    TransportConfig cfg;
    cfg.kind = TransportKind::kSim;
    cfg.sim = std::move(opts);
    return cfg;
  }
  static TransportConfig real_tcp(TcpOptions opts = {}) {
    TransportConfig cfg;
    cfg.kind = TransportKind::kTcp;
    cfg.tcp = std::move(opts);
    return cfg;
  }
};

/// The single transport factory. Everything outside tests and the net/
/// library itself constructs transports here (cqos_lint: transport-seam).
std::unique_ptr<Transport> make_transport(const TransportConfig& cfg);

}  // namespace cqos::net
