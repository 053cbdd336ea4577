// Transport seam + TCP transport tests: framing (partial reads, oversized
// frames), the make_transport factory, raw TCP loopback delivery, learned
// return routes, backpressure, the existing QoS compositions running
// unchanged on a TCP-backed Cluster, and where platform dispatch runs a
// request (on its waiting caller's thread or on a pool worker).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/metrics.h"
#include "common/sync.h"
#include "cqos/cactus_server.h"
#include "cqos/events.h"
#include "cqos/request.h"
#include "cqos/skeleton.h"
#include "net/fault.h"
#include "net/framing.h"
#include "net/sim_network.h"
#include "net/tcp_transport.h"
#include "net/transport.h"
#include "platform/corba/agent.h"
#include "platform/corba/orb.h"
#include "platform/http/http.h"
#include "platform/pending.h"
#include "platform/rmi/registry.h"
#include "platform/rmi/rmi.h"
#include "sim/bank_account.h"
#include "sim/cluster.h"

namespace cqos::net {
namespace {

Bytes bytes_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

// --- framing -----------------------------------------------------------------

TEST(Framing, RoundtripSingleFrame) {
  Bytes frame = encode_frame("hostA/cli", "hostB/srv", bytes_of("hello"));
  FrameDecoder dec(1 << 20);
  ASSERT_TRUE(dec.feed(frame));
  auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->from, "hostA/cli");
  EXPECT_EQ(f->to, "hostB/srv");
  EXPECT_EQ(f->payload, bytes_of("hello"));
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_EQ(dec.pending_bytes(), 0u);
}

TEST(Framing, ByteAtATimeDelivery) {
  // The regression the decoder exists for: a TCP read can return any split
  // of the stream, down to one byte per read.
  Bytes a = encode_frame("h/x", "h/y", bytes_of("first"));
  Bytes b = encode_frame("h/y", "h/x", bytes_of("second message"));
  Bytes stream = a;
  stream.insert(stream.end(), b.begin(), b.end());

  FrameDecoder dec(1 << 20);
  int frames = 0;
  for (std::uint8_t byte : stream) {
    ASSERT_TRUE(dec.feed(std::span<const std::uint8_t>(&byte, 1)));
    while (auto f = dec.next()) {
      ++frames;
      if (frames == 1) EXPECT_EQ(f->payload, bytes_of("first"));
      if (frames == 2) EXPECT_EQ(f->payload, bytes_of("second message"));
    }
  }
  EXPECT_EQ(frames, 2);
}

TEST(Framing, ArbitrarySplitPoints) {
  Bytes frame = encode_frame("hostA/cli", "hostB/srv", bytes_of("payload!"));
  for (std::size_t split = 1; split < frame.size(); ++split) {
    FrameDecoder dec(1 << 20);
    ASSERT_TRUE(dec.feed(std::span<const std::uint8_t>(frame.data(), split)));
    EXPECT_FALSE(dec.next().has_value()) << "split=" << split;
    ASSERT_TRUE(dec.feed(std::span<const std::uint8_t>(
        frame.data() + split, frame.size() - split)));
    auto f = dec.next();
    ASSERT_TRUE(f.has_value()) << "split=" << split;
    EXPECT_EQ(f->payload, bytes_of("payload!"));
  }
}

TEST(Framing, OversizedFrameRejectedBeforeBuffering) {
  FrameDecoder dec(64);
  // A 4-byte prefix declaring a body far over the max: the decoder must
  // fail immediately, without waiting for (or buffering) the body.
  std::uint8_t prefix[4] = {0xff, 0xff, 0xff, 0x7f};
  EXPECT_FALSE(dec.feed(std::span<const std::uint8_t>(prefix, 4)));
  EXPECT_TRUE(dec.failed());
  EXPECT_NE(dec.error().find("exceeds max"), std::string::npos);
  // Poisoned: further bytes are refused.
  std::uint8_t more = 0;
  EXPECT_FALSE(dec.feed(std::span<const std::uint8_t>(&more, 1)));
}

TEST(Framing, FrameAtExactlyMaxSizeAccepted) {
  Bytes frame = encode_frame("a/b", "c/d", Bytes(100, 0x5a));
  FrameDecoder dec(frame.size() - 4);  // body length == max
  ASSERT_TRUE(dec.feed(frame));
  EXPECT_TRUE(dec.next().has_value());
}

TEST(Framing, MalformedBodyFailsDecoder) {
  // Valid length prefix, garbage body (unknown frame type).
  std::uint8_t raw[] = {3, 0, 0, 0, 0xee, 0x01, 0x02};
  FrameDecoder dec(1 << 20);
  EXPECT_FALSE(dec.feed(std::span<const std::uint8_t>(raw, sizeof(raw))));
  EXPECT_TRUE(dec.failed());
}

TEST(Framing, TruncatedStringFailsDecoder) {
  // type ok, but `from` declares more bytes than the body holds.
  std::uint8_t raw[] = {3, 0, 0, 0, 1, 0x7f, 'x'};
  FrameDecoder dec(1 << 20);
  EXPECT_FALSE(dec.feed(std::span<const std::uint8_t>(raw, sizeof(raw))));
  EXPECT_TRUE(dec.failed());
}

// --- seam / factory ----------------------------------------------------------

TEST(TransportSeam, FactoryBuildsSimByDefault) {
  auto t = make_transport(TransportConfig{});
  EXPECT_EQ(t->kind(), "sim");
  EXPECT_NE(t->as_sim(), nullptr);
  EXPECT_EQ(t->as_tcp(), nullptr);
}

TEST(TransportSeam, FactoryBuildsTcp) {
  auto t = make_transport(TransportConfig::real_tcp());
  EXPECT_EQ(t->kind(), "tcp");
  EXPECT_EQ(t->as_sim(), nullptr);
  ASSERT_NE(t->as_tcp(), nullptr);
  EXPECT_GT(t->as_tcp()->listen_port(), 0);
}

TEST(TransportSeam, HostOfSharedByBothTransports) {
  EXPECT_EQ(Transport::host_of("hostA/orb0"), "hostA");
  EXPECT_EQ(SimNetwork::host_of("hostA/orb0"), "hostA");
  EXPECT_EQ(Transport::host_of("bare"), "bare");
}

TEST(TransportSeam, SimBehavesIdenticallyThroughTheInterface) {
  NetConfig cfg;
  cfg.jitter = 0;
  cfg.base_latency = us(50);
  auto t = make_transport(TransportConfig::simulated(cfg));
  auto a = t->create_endpoint("hostA/a");
  auto b = t->create_endpoint("hostB/b");
  ASSERT_TRUE(t->send("hostA/a", "hostB/b", bytes_of("ping")));
  auto msg = b->recv(ms(500));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->from, "hostA/a");
  EXPECT_EQ(msg->payload, bytes_of("ping"));
  EXPECT_EQ(t->messages_sent(), 1u);
}

// --- TCP loopback ------------------------------------------------------------

struct TcpFixture {
  metrics::Registry registry;
  std::unique_ptr<Transport> t;

  explicit TcpFixture(TcpOptions opts = {}) {
    opts.metrics = &registry;
    t = make_transport(TransportConfig::real_tcp(opts));
  }
  TcpTransport& tcp() { return *t->as_tcp(); }
};

TEST(TcpTransport, SelfLoopbackDeliversThroughRealSockets) {
  TcpFixture fx;
  auto a = fx.t->create_endpoint("hostA/a");
  auto b = fx.t->create_endpoint("hostB/b");
  ASSERT_TRUE(fx.t->send("hostA/a", "hostB/b", bytes_of("over the wire")));
  auto msg = b->recv(ms(2000));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->from, "hostA/a");
  EXPECT_EQ(msg->to, "hostB/b");
  EXPECT_EQ(msg->payload, bytes_of("over the wire"));
  // Real socket traffic, not a direct deposit.
  EXPECT_GE(fx.tcp().open_connections(), 1u);
  EXPECT_EQ(fx.registry.counter("net.recv.msgs").value(), 1u);
}

TEST(TcpTransport, TwoTransportsTalkAndRepliesUseLearnedRoutes) {
  // "Server" transport knows nothing about the client (it is on an
  // ephemeral port); the reply must ride the learned route.
  TcpFixture server;
  auto srv = server.t->create_endpoint("server0/svc");

  TcpOptions copts;
  copts.peers["server0"] =
      "127.0.0.1:" + std::to_string(server.tcp().listen_port());
  TcpFixture client(copts);
  auto cli = client.t->create_endpoint("client0/cli");

  ASSERT_TRUE(client.t->send("client0/cli", "server0/svc", bytes_of("req")));
  auto req = srv->recv(ms(2000));
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->from, "client0/cli");

  ASSERT_TRUE(server.t->send("server0/svc", "client0/cli", bytes_of("rsp")));
  auto rsp = cli->recv(ms(2000));
  ASSERT_TRUE(rsp.has_value());
  EXPECT_EQ(rsp->payload, bytes_of("rsp"));
}

TEST(TcpTransport, NoRouteDropsAndCounts) {
  TcpFixture fx;
  auto a = fx.t->create_endpoint("hostA/a");
  EXPECT_FALSE(fx.t->send("hostA/a", "nowhere/b", bytes_of("lost")));
  EXPECT_EQ(fx.registry.counter("net.drop.noroute").value(), 1u);
  EXPECT_EQ(fx.t->messages_sent(), 0u);
}

TEST(TcpTransport, PeerPortWithStrayCharactersIsRefused) {
  TcpFixture server;
  auto srv = server.t->create_endpoint("server0/svc");
  const std::string port = std::to_string(server.tcp().listen_port());
  for (const std::string& bad : {port + "x", "+" + port, " " + port}) {
    TcpOptions copts;
    copts.peers["server0"] = "127.0.0.1:" + bad;
    TcpFixture client(copts);
    auto cli = client.t->create_endpoint("client0/cli");
    EXPECT_FALSE(client.t->send("client0/cli", "server0/svc", bytes_of("req")))
        << bad;
    EXPECT_EQ(client.registry.counter("net.drop.noroute").value(), 1u) << bad;
  }
  EXPECT_FALSE(srv->recv(ms(200)).has_value());
}

TEST(TcpTransport, ConcurrentSelfLoopbackSendersDeliverEachFrameOnceInOrder) {
  constexpr int kSenders = 4;
  constexpr std::uint32_t kFrames = 500;
  TcpFixture fx;
  auto sink = fx.t->create_endpoint("hostS/sink");
  std::mutex mu;
  std::vector<std::vector<std::uint32_t>> got(kSenders);
  sink->set_handler([&](Message&& m) {
    ByteReader r(m.payload);
    std::uint32_t sender = r.get_u32();
    std::uint32_t seq = r.get_u32();
    std::scoped_lock lk(mu);
    got.at(sender).push_back(seq);
  });
  std::vector<std::shared_ptr<Endpoint>> sources;
  for (int s = 0; s < kSenders; ++s) {
    sources.push_back(
        fx.t->create_endpoint("host" + std::to_string(s) + "/src"));
  }
  std::vector<std::thread> threads;
  for (int s = 0; s < kSenders; ++s) {
    threads.emplace_back([&fx, &sources, s] {
      for (std::uint32_t i = 0; i < kFrames; ++i) {
        ByteWriter w;
        w.put_u32(static_cast<std::uint32_t>(s));
        w.put_u32(i);
        EXPECT_TRUE(fx.t->send(sources[s]->id(), "hostS/sink",
                               std::move(w).take()));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  sink->close();
  // Delivery happens inside send(), so every frame is in by now.
  std::vector<std::uint32_t> want(kFrames);
  for (std::uint32_t i = 0; i < kFrames; ++i) want[i] = i;
  for (int s = 0; s < kSenders; ++s) EXPECT_EQ(got[s], want) << "sender " << s;
  EXPECT_EQ(fx.registry.counter("net.recv.msgs").value(), kSenders * kFrames);
}

TEST(TcpTransport, SelfLoopbackCarriesAFrameOfMaxFrameBytes) {
  TcpFixture fx;  // 4 MiB frames: more than the loopback socket buffers
  auto a = fx.t->create_endpoint("hostA/a");
  auto b = fx.t->create_endpoint("hostB/b");
  const std::size_t max_payload =
      TcpOptions{}.max_frame_bytes - frame_overhead("hostA/a", "hostB/b");
  Bytes big(max_payload);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 131 + i / 4096);
  }
  ASSERT_TRUE(fx.t->send("hostA/a", "hostB/b", Bytes(big)));
  auto msg = b->recv(ms(2000));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, big);
  // The pair survives the frame: a small one still goes through.
  ASSERT_TRUE(fx.t->send("hostA/a", "hostB/b", bytes_of("after")));
  auto next = b->recv(ms(2000));
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->payload, bytes_of("after"));
}

TEST(TcpTransport, OversizedSendRefused) {
  TcpOptions opts;
  opts.max_frame_bytes = 256;
  TcpFixture fx(opts);
  auto a = fx.t->create_endpoint("hostA/a");
  auto b = fx.t->create_endpoint("hostB/b");
  EXPECT_FALSE(fx.t->send("hostA/a", "hostB/b", Bytes(1024, 0xab)));
  EXPECT_EQ(fx.registry.counter("net.drop.oversize").value(), 1u);
}

TEST(TcpTransport, BackpressureDropsOnceQueueFills) {
  // A loopback peer that never completes a connect: a listener with a
  // backlog of 0 holds one connection, which nobody accepts. With its accept
  // queue full the kernel drops further SYNs, so the transport's connect
  // stays pending and frames pile up in its write queue until backpressure
  // trips.
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  socklen_t len = sizeof(sa);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&sa), len), 0);
  ASSERT_EQ(::listen(listener, 0), 0);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&sa), &len), 0);
  int filler = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_EQ(::connect(filler, reinterpret_cast<sockaddr*>(&sa), len), 0);
  pollfd queued{listener, POLLIN, 0};  // readable: the filler is queued
  ASSERT_EQ(::poll(&queued, 1, 2000), 1);

  TcpOptions opts;
  opts.peers["stalled"] = "127.0.0.1:" + std::to_string(ntohs(sa.sin_port));
  opts.max_queued_bytes = 4 * 1024;
  opts.connect_timeout = ms(60'000);  // keep kConnecting for the whole test
  {
    TcpFixture fx(opts);
    auto a = fx.t->create_endpoint("hostA/a");
    bool saw_drop = false;
    for (int i = 0; i < 64 && !saw_drop; ++i) {
      saw_drop = !fx.t->send("hostA/a", "stalled/b", Bytes(256, 0x11));
    }
    EXPECT_TRUE(saw_drop);
    EXPECT_GE(fx.registry.counter("net.drop.backpressure").value(), 1u);
  }
  ::close(filler);
  ::close(listener);
}

TEST(TcpTransport, EndpointIdCollisionThrows) {
  TcpFixture fx;
  auto a = fx.t->create_endpoint("hostA/a");
  EXPECT_THROW(fx.t->create_endpoint("hostA/a"), Error);
  fx.t->remove_endpoint("hostA/a");
  EXPECT_NO_THROW(fx.t->create_endpoint("hostA/a"));
}

TEST(TcpTransport, OversizedInboundFrameClosesConnection) {
  // A raw client writes a hostile length prefix straight at the listen
  // socket; the transport must close the connection (clean close, no
  // unbounded allocation) and count a protocol drop.
  TcpOptions opts;
  opts.max_frame_bytes = 1024;
  TcpFixture fx(opts);
  auto srv = fx.t->create_endpoint("server0/svc");

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(fx.tcp().listen_port());
  ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);

  std::uint8_t evil[4] = {0xff, 0xff, 0xff, 0x3f};  // ~1 GiB frame
  ASSERT_EQ(::write(fd, evil, sizeof(evil)), 4);

  // The peer closes: read() must observe EOF (or reset) within the timeout.
  char buf[16];
  ssize_t n = ::read(fd, buf, sizeof(buf));
  EXPECT_LE(n, 0);
  ::close(fd);
  EXPECT_GE(fx.registry.counter("net.drop.protocol").value(), 1u);
}

}  // namespace
TEST(TcpTransport, HandlerSendsFromTheLoopThreadWithoutDeadlock) {
  // Two transports: a frame from another transport is delivered on the
  // receiver's event-loop thread (a local one would run on the sender's).
  TcpFixture server;
  auto srv = server.t->create_endpoint("hostS/srv");
  TcpOptions copts;
  copts.peers["hostS"] =
      "127.0.0.1:" + std::to_string(server.tcp().listen_port());
  TcpFixture client(copts);
  auto cli = client.t->create_endpoint("hostC/cli");
  std::thread::id srv_thread;
  srv->set_handler([&](Message&& m) {
    srv_thread = std::this_thread::get_id();
    // An echo from the event-loop thread: send() takes the transport lock,
    // which the loop released before delivering.
    server.t->send("hostS/srv", m.from, std::move(m.payload));
  });
  Gate got;
  Bytes echoed;
  cli->set_handler([&](Message&& m) {
    echoed = std::move(m.payload);
    got.set();
  });
  ASSERT_TRUE(client.t->send("hostC/cli", "hostS/srv", bytes_of("echo me")));
  ASSERT_TRUE(got.wait_for(ms(2000)));
  cli->close();
  srv->close();
  EXPECT_EQ(echoed, bytes_of("echo me"));
  EXPECT_NE(srv_thread, std::this_thread::get_id());
}

}  // namespace cqos::net

// --- QoS compositions on a TCP-backed cluster --------------------------------

namespace cqos::sim {
namespace {

constexpr const char* kKey = "0123456789abcdef";

ClusterOptions tcp_options(PlatformKind kind) {
  ClusterOptions opts;
  opts.platform = kind;
  opts.level = InterceptionLevel::kFull;
  opts.num_replicas = 1;
  opts.transport_kind = net::TransportKind::kTcp;
  opts.servant_factory = [] { return std::make_shared<BankAccountServant>(); };
  return opts;
}

class TcpClusterBothPlatforms : public ::testing::TestWithParam<PlatformKind> {
};

TEST_P(TcpClusterBothPlatforms, RoundtripOverRealSockets) {
  Cluster cluster(tcp_options(GetParam()));
  EXPECT_EQ(cluster.transport().kind(), "tcp");
  auto client = cluster.make_client();
  BankAccountStub account(client->stub_ptr());
  account.set_balance(123456);
  account.deposit(44);
  EXPECT_EQ(account.get_balance(), 123500);
}

TEST_P(TcpClusterBothPlatforms, SecuredCompositionRunsUnchanged) {
  auto opts = tcp_options(GetParam());
  opts.qos.add(Side::kClient, "des_privacy", {{"key", kKey}})
      .add(Side::kClient, "integrity", {{"key", kKey}})
      .add(Side::kServer, "des_privacy", {{"key", kKey}})
      .add(Side::kServer, "integrity", {{"key", kKey}});
  Cluster cluster(opts);
  auto client = cluster.make_client();
  BankAccountStub account(client->stub_ptr());
  account.set_balance(987654);
  EXPECT_EQ(account.get_balance(), 987654);
}

TEST_P(TcpClusterBothPlatforms, RetransmitDedupCompositionRunsUnchanged) {
  auto opts = tcp_options(GetParam());
  opts.qos.add(Side::kClient, "retransmit", {{"retries", "4"}})
      .add(Side::kServer, "dedup");
  Cluster cluster(opts);
  auto client = cluster.make_client();
  BankAccountStub account(client->stub_ptr());
  account.set_balance(1000);
  account.deposit(500);
  account.withdraw(250);
  EXPECT_EQ(account.get_balance(), 1250);
}

TEST_P(TcpClusterBothPlatforms, TraceIdCrossesTheRealWire) {
  Cluster cluster(tcp_options(GetParam()));
  auto client = cluster.make_client();
  RequestPtr req =
      client->stub().call_request("set_balance", {Value(std::int64_t{7})});
  ASSERT_TRUE(req != nullptr);
  EXPECT_TRUE(req->succeeded());
  ASSERT_NE(req->trace_id, 0u);
  PiggybackMap reply_pb = req->reply_piggyback();
  auto it = reply_pb.find(pbkey::kTraceId);
  ASSERT_TRUE(it != reply_pb.end());
  EXPECT_EQ(static_cast<std::uint64_t>(it->second.as_i64()), req->trace_id);
}

INSTANTIATE_TEST_SUITE_P(Platforms, TcpClusterBothPlatforms,
                         ::testing::Values(PlatformKind::kRmi,
                                           PlatformKind::kCorba),
                         [](const auto& info) {
                           return info.param == PlatformKind::kRmi ? "Rmi"
                                                                   : "Corba";
                         });

// Active replication with total order on one TcpTransport: every request,
// ordering multicast and reply is delivered on its sender's thread, so
// requests that total_order parks are dispatched on client threads
// (DESIGN.md §15).
ClusterOptions replicated_tcp_options() {
  ClusterOptions opts = tcp_options(PlatformKind::kRmi);
  opts.num_replicas = 3;
  opts.qos.add(Side::kClient, "active_rep")
      .add(Side::kClient, "majority_vote")
      .add(Side::kServer, "total_order");
  return opts;
}

/// Runs `calls` deposits on each client, one thread per client, client c
/// depositing c + 1; returns the calls that threw.
int deposit_concurrently(std::vector<std::unique_ptr<ClientHandle>>& clients,
                         int calls) {
  std::atomic<int> failed{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      BankAccountStub account(clients[c]->stub_ptr());
      for (int i = 0; i < calls; ++i) {
        try {
          account.deposit(static_cast<std::int64_t>(c + 1));
        } catch (const std::exception&) {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return failed.load();
}

/// The dispatch threads of every platform runtime in the cluster.
class TcpClusterDispatchThreads : public ::testing::TestWithParam<int> {};

TEST_P(TcpClusterDispatchThreads,
       ActiveReplicationWithTotalOrderRunsConcurrentClients) {
  // Almost every request at a non-coordinator replica parks for its
  // ordering info. Six clients park more requests at one replica than it
  // has dispatch threads: a parked request that held its thread would
  // leave none for the ordering info that releases them, and every call
  // would time out.
  ClusterOptions opts = replicated_tcp_options();
  opts.platform_threads = GetParam();
  Cluster cluster(opts);
  std::vector<std::unique_ptr<ClientHandle>> clients;
  for (int i = 0; i < 6; ++i) clients.push_back(cluster.make_client());
  constexpr int kCalls = 150;
  TimePoint start = now();
  EXPECT_EQ(deposit_concurrently(clients, kCalls), 0);
  EXPECT_LT(now() - start, ms(20000));

  // Client c deposits c + 1 per call. A replica that a client stopped
  // using (a call to it timed out) may lag; every other one applies all
  // deposits in the same order.
  const std::int64_t want = kCalls * (1 + 2 + 3 + 4 + 5 + 6);
  int in_use = 0;
  for (int r = 0; r < 3; ++r) {
    bool dropped = false;
    for (auto& c : clients) {
      dropped = dropped || c->cactus_client()->qos().server_status(r) ==
                               ServerStatus::kFailed;
    }
    if (dropped) continue;
    ++in_use;
    auto& servant = static_cast<BankAccountServant&>(cluster.servant(r));
    TimePoint until = now() + ms(5000);
    while (servant.balance() != want && now() < until) {
      std::this_thread::sleep_for(ms(10));
    }
    EXPECT_EQ(servant.balance(), want) << "replica " << r;
  }
  EXPECT_GE(in_use, 2);
}

INSTANTIATE_TEST_SUITE_P(PlatformThreads, TcpClusterDispatchThreads,
                         ::testing::Values(1, 2, 8),
                         [](const auto& info) {
                           return std::to_string(info.param);
                         });

TEST(TcpCluster, ReplicaThatMissesOrderedRequestsIsDroppedNotWaitedOn) {
  // Client 0 stops sending to replica 2, so replica 2 receives ordering
  // info for requests it never sees: its execute sequence stops at the
  // first gap and every later request parks there. Client 1 must see
  // those calls fail at its own invoke timeout, as against a replica on
  // another thread, and stop using replica 2. Run inline, each of them
  // used to hold a client pool thread for the 3 s processing timeout and
  // end in an application error, which drops no replica.
  Cluster cluster(replicated_tcp_options());
  std::vector<std::unique_ptr<ClientHandle>> clients;
  clients.push_back(cluster.make_client());
  clients.push_back(cluster.make_client());
  EXPECT_EQ(deposit_concurrently(clients, 2), 0);
  clients[0]->cactus_client()->qos().mark_failed(2);

  TimePoint start = now();
  EXPECT_EQ(deposit_concurrently(clients, 40), 0);
  EXPECT_LT(now() - start, ms(8000));
  EXPECT_EQ(clients[1]->cactus_client()->qos().server_status(2),
            ServerStatus::kFailed);
}

TEST(TcpCluster, SimOnlyAccessorsThrowOnTcp) {
  Cluster cluster(tcp_options(PlatformKind::kRmi));
  EXPECT_THROW(cluster.network(), ConfigError);
  EXPECT_THROW(cluster.faults(), ConfigError);
  EXPECT_THROW(cluster.crash_replica(0), ConfigError);
}

TEST(TcpCluster, SimClusterStillExposesNetworkAndFaults) {
  ClusterOptions opts;
  opts.servant_factory = [] { return std::make_shared<BankAccountServant>(); };
  Cluster cluster(opts);
  EXPECT_EQ(cluster.transport().kind(), "sim");
  EXPECT_NO_THROW(cluster.network());
  EXPECT_NO_THROW(cluster.faults());
}

// --- push delivery: naming services and thread inventory ---------------------

class NullServant : public plat::ServantHandler {
 public:
  void handle(const std::string&, ValueList, PiggybackMap,
              plat::ReplyHandle out) override {
    plat::Reply reply;
    reply.status = plat::ReplyStatus::kOk;
    out.send(std::move(reply));
  }
};

TEST(PushDelivery, NamingServicesTakeConcurrentBindsAndLookups) {
  // Zero latency: every registry/agent handler runs on its caller's thread,
  // so the binding tables are reached from several threads at once.
  net::NetConfig cfg;
  cfg.base_latency = Duration::zero();
  cfg.per_byte = Duration::zero();
  cfg.loopback_latency = Duration::zero();
  cfg.jitter = 0;
  net::SimNetwork net(cfg);
  rmi::Registry registry(net, "nameserver");
  corba::SmartAgent agent(net, "nameserver");

  constexpr int kThreads = 4;
  constexpr int kNames = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&net, &failures, t] {
      rmi::RmiConfig rcfg;
      rcfg.server_threads = 1;
      rmi::RmiRuntime rmi(net, "rmihost" + std::to_string(t), rcfg);
      corba::OrbConfig ocfg;
      ocfg.server_threads = 1;
      corba::CorbaOrb orb(net, "orbhost" + std::to_string(t), ocfg);
      auto servant = std::make_shared<NullServant>();
      for (int i = 0; i < kNames; ++i) {
        std::string name = "obj" + std::to_string(t) + "_" + std::to_string(i);
        try {
          rmi.register_servant(name, servant, plat::DispatchMode::kStatic);
          orb.register_servant("poa/" + name, servant,
                               plat::DispatchMode::kStatic);
          rmi.resolve(name, ms(500));
          orb.resolve("poa/" + name, ms(500));
          if (i % 5 == 0) {
            rmi.unregister_servant(name);
            orb.unregister_servant("poa/" + name);
          }
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

/// Threads in this process. A thread may stay listed for a moment after
/// join() returned, so read until the count holds still.
int thread_count() {
  auto read = [] {
    int n = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
      ++n;
    }
    return n;
  };
  int n = read();
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(ms(2));
    int again = read();
    if (again == n) break;
    n = again;
  }
  return n;
}

TEST(PushDelivery, PlatformsAndNamingServicesStartNoReceiveThreads) {
  // A sanitizer runtime may start a helper thread at the first thread
  // creation; get that done before the first count.
  std::thread([] {}).join();
  for (PlatformKind kind :
       {PlatformKind::kRmi, PlatformKind::kCorba, PlatformKind::kHttp}) {
    const int before = thread_count();
    ClusterOptions opts;
    opts.platform = kind;
    opts.level = InterceptionLevel::kBaseline;  // no Cactus composites
    opts.num_replicas = 1;
    opts.platform_threads = 2;
    opts.servant_factory = [] {
      return std::make_shared<BankAccountServant>();
    };
    Cluster cluster(opts);
    auto client = cluster.make_client();
    BankAccountStub account(client->stub_ptr());
    account.set_balance(5);
    EXPECT_EQ(account.get_balance(), 5);
    // The simulator owns one thread (its delivery thread); each platform
    // runtime (replica and client) owns only its dispatch pool. Runtimes,
    // registry and agent start no receive threads.
    EXPECT_EQ(thread_count() - before, 1 + 2 * opts.platform_threads)
        << "platform " << static_cast<int>(kind);
  }
}

TEST(SimNetworkThreads, RealTimeRunsOneThreadVirtualNone) {
  std::thread([] {}).join();  // see above: a sanitizer helper starts first
  const int before = thread_count();
  {
    net::NetConfig cfg;
    cfg.time_mode = TimeMode::kVirtual;
    net::SimNetwork net(cfg);
    net.faults().run_plan(net::FaultPlan::parse("@10ms crash hostB\n"));
    EXPECT_EQ(thread_count() - before, 0);
  }
  net::SimNetwork net;
  net.faults().run_plan(net::FaultPlan::parse("@10ms crash hostB\n"));
  EXPECT_EQ(thread_count() - before, 1);
}

// --- caller-runs dispatch ------------------------------------------------------

TEST(PendingCalls, EveryOutcomeLeavesTheTableEmpty) {
  plat::PendingCalls pending;
  plat::Reply ok;
  ok.status = plat::ReplyStatus::kOk;
  ok.result = Value(std::int64_t{7});

  plat::Reply r = pending.call(ms(500), [&](std::uint64_t) {
    EXPECT_TRUE(plat::detail::t_waiting_caller);
    return false;
  });
  EXPECT_EQ(r.status, plat::ReplyStatus::kUnreachable);
  EXPECT_EQ(r.error, "send failed");
  EXPECT_EQ(pending.in_flight(), 0u);

  std::uint64_t timed_out = 0;
  r = pending.call(ms(10), [&](std::uint64_t id) {
    EXPECT_EQ(pending.in_flight(), 1u);
    timed_out = id;
    return true;
  });
  EXPECT_EQ(r.error, "timeout");
  EXPECT_EQ(pending.in_flight(), 0u);
  EXPECT_FALSE(pending.complete(timed_out, ok));  // late reply: ignored

  // Completed during the send, as an inline dispatch does.
  r = pending.call(ms(500), [&](std::uint64_t id) {
    return pending.complete(id, ok);
  });
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.result.as_i64(), 7);
  EXPECT_EQ(pending.in_flight(), 0u);

  // Completed by another thread while the caller waits.
  std::thread completer;
  r = pending.call(ms(2000), [&](std::uint64_t id) {
    completer = std::thread([&pending, &ok, id] {
      std::this_thread::sleep_for(ms(5));
      pending.complete(id, ok);
    });
    return true;
  });
  completer.join();
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(pending.in_flight(), 0u);
  EXPECT_FALSE(plat::detail::t_waiting_caller);
}

net::NetConfig zero_latency() {
  net::NetConfig cfg;
  cfg.base_latency = Duration::zero();
  cfg.per_byte = Duration::zero();
  cfg.loopback_latency = Duration::zero();
  cfg.jitter = 0;
  return cfg;
}

/// Records the thread each call runs on, then runs `body` (if set).
class ThreadProbeServant : public plat::ServantHandler {
 public:
  explicit ThreadProbeServant(std::function<plat::Reply()> body = {})
      : body_(std::move(body)) {}

  void handle(const std::string&, ValueList, PiggybackMap,
              plat::ReplyHandle out) override {
    {
      std::scoped_lock lk(mu_);
      threads_.push_back(std::this_thread::get_id());
    }
    plat::Reply reply;
    reply.status = plat::ReplyStatus::kOk;
    out.send(body_ ? body_() : std::move(reply));
  }

  std::vector<std::thread::id> threads() const {
    std::scoped_lock lk(mu_);
    return threads_;
  }

 private:
  std::function<plat::Reply()> body_;
  mutable std::mutex mu_;
  std::vector<std::thread::id> threads_;
};

std::unique_ptr<plat::Platform> make_runtime(PlatformKind kind,
                                             net::Transport& net,
                                             const std::string& host,
                                             int server_threads) {
  switch (kind) {
    case PlatformKind::kRmi: {
      rmi::RmiConfig cfg;
      cfg.server_threads = server_threads;
      return std::make_unique<rmi::RmiRuntime>(net, host, cfg);
    }
    case PlatformKind::kCorba: {
      corba::OrbConfig cfg;
      cfg.server_threads = server_threads;
      return std::make_unique<corba::CorbaOrb>(net, host, cfg);
    }
    case PlatformKind::kHttp: {
      http::HttpConfig cfg;
      cfg.server_threads = server_threads;
      return std::make_unique<http::HttpPlatform>(net, host, cfg);
    }
  }
  return nullptr;
}

const char* kind_name(PlatformKind kind) {
  switch (kind) {
    case PlatformKind::kRmi:
      return "rmi";
    case PlatformKind::kCorba:
      return "corba";
    case PlatformKind::kHttp:
      return "http";
  }
  return "?";
}

/// Register `servant` as object `obj` on `server` and resolve it from
/// `client`.
std::shared_ptr<plat::ObjectRef> publish(
    PlatformKind kind, plat::Platform& server, const std::string& server_host,
    plat::Platform& client, const std::string& obj,
    std::shared_ptr<plat::ServantHandler> servant) {
  std::string registered = kind == PlatformKind::kCorba ? "poa/" + obj : obj;
  server.register_servant(registered, std::move(servant),
                          plat::DispatchMode::kStatic);
  std::string resolved = kind == PlatformKind::kHttp
                             ? "http://" + server_host + "/" + obj
                             : registered;
  return client.resolve(resolved, ms(5000));
}

/// One network with both naming services, and a server and a client
/// runtime of one platform kind.
struct DispatchFixture {
  std::unique_ptr<net::Transport> net;
  rmi::Registry registry;
  corba::SmartAgent agent;
  std::unique_ptr<plat::Platform> server;
  std::unique_ptr<plat::Platform> client;

  DispatchFixture(PlatformKind kind, const net::TransportConfig& cfg,
                  int server_threads)
      : net(net::make_transport(cfg)),
        registry(*net, "nameserver"),
        agent(*net, "nameserver"),
        server(make_runtime(kind, *net, "srv", server_threads)),
        client(make_runtime(kind, *net, "cli", 2)) {}
  DispatchFixture(PlatformKind kind, net::NetConfig cfg, int server_threads)
      : DispatchFixture(kind, net::TransportConfig::simulated(cfg),
                        server_threads) {}
};

constexpr PlatformKind kAllPlatforms[] = {
    PlatformKind::kRmi, PlatformKind::kCorba, PlatformKind::kHttp};

std::uint64_t dispatch_count(const char* which) {
  return metrics::Registry::global()
      .counter(std::string("plat.dispatch.") + which)
      .value();
}

/// One call from the test thread: its servant runs right there, inline.
void expect_call_runs_on_callers_thread(const net::TransportConfig& cfg) {
  for (PlatformKind kind : kAllPlatforms) {
    DispatchFixture fx(kind, cfg, 2);
    auto servant = std::make_shared<ThreadProbeServant>();
    auto ref = publish(kind, *fx.server, "srv", *fx.client, "obj", servant);
    std::uint64_t inline_before = dispatch_count("inline");
    std::uint64_t pooled_before = dispatch_count("pooled");
    EXPECT_TRUE(ref->invoke("m", {}, {}, ms(2000)).ok()) << kind_name(kind);
    EXPECT_EQ(servant->threads(),
              std::vector<std::thread::id>{std::this_thread::get_id()})
        << kind_name(kind);
    EXPECT_EQ(dispatch_count("inline") - inline_before, 1u) << kind_name(kind);
    EXPECT_EQ(dispatch_count("pooled") - pooled_before, 0u) << kind_name(kind);
  }
}

TEST(CallerRunsDispatch, ZeroLatencyCallRunsTheServantOnTheCallersThread) {
  expect_call_runs_on_callers_thread(
      net::TransportConfig::simulated(zero_latency()));
}

// TCP self-loopback delivers on the sending thread after the frame crossed
// the kernel's TCP stack, so the call crosses no thread either.
TEST(CallerRunsDispatch, TcpSelfLoopbackCallRunsTheServantOnTheCallersThread) {
  expect_call_runs_on_callers_thread(net::TransportConfig::real_tcp());
}

TEST(CallerRunsDispatch, DefaultLatencyCallRunsTheServantOnAWorker) {
  for (PlatformKind kind : kAllPlatforms) {
    DispatchFixture fx(kind, net::NetConfig{}, 2);
    auto servant = std::make_shared<ThreadProbeServant>();
    auto ref = publish(kind, *fx.server, "srv", *fx.client, "obj", servant);
    std::uint64_t inline_before = dispatch_count("inline");
    EXPECT_TRUE(ref->invoke("m", {}, {}, ms(2000)).ok()) << kind_name(kind);
    auto threads = servant->threads();
    ASSERT_EQ(threads.size(), 1u) << kind_name(kind);
    EXPECT_NE(threads[0], std::this_thread::get_id()) << kind_name(kind);
    EXPECT_EQ(dispatch_count("inline") - inline_before, 0u) << kind_name(kind);
  }
}

TEST(CallerRunsDispatch, RequestFindingTheOnlySlotHeldQueuesForTheWorker) {
  for (PlatformKind kind : kAllPlatforms) {
    DispatchFixture fx(kind, zero_latency(), /*server_threads=*/1);
    Gate entered, release;
    std::atomic<int> calls{0};
    auto servant = std::make_shared<ThreadProbeServant>([&] {
      if (calls.fetch_add(1) == 0) {
        entered.set();
        release.wait();
      }
      plat::Reply reply;
      reply.status = plat::ReplyStatus::kOk;
      return reply;
    });
    auto ref = publish(kind, *fx.server, "srv", *fx.client, "obj", servant);
    std::thread::id first_caller, second_caller;
    std::thread first([&] {
      first_caller = std::this_thread::get_id();
      EXPECT_TRUE(ref->invoke("m", {}, {}, ms(20000)).ok());
    });
    ASSERT_TRUE(entered.wait_for(ms(10000))) << kind_name(kind);
    std::uint64_t pooled_before = dispatch_count("pooled");
    std::thread second([&] {
      second_caller = std::this_thread::get_id();
      EXPECT_TRUE(ref->invoke("m", {}, {}, ms(20000)).ok());
    });
    // The second request finds the slot held inline: it is queued, and no
    // worker may start it while the first still runs.
    TimePoint give_up = now() + ms(10000);
    while (dispatch_count("pooled") == pooled_before && now() < give_up) {
      std::this_thread::sleep_for(ms(1));
    }
    EXPECT_EQ(dispatch_count("pooled") - pooled_before, 1u) << kind_name(kind);
    EXPECT_EQ(servant->threads().size(), 1u) << kind_name(kind);
    release.set();
    first.join();
    second.join();
    auto threads = servant->threads();
    ASSERT_EQ(threads.size(), 2u) << kind_name(kind);
    EXPECT_EQ(threads[0], first_caller) << kind_name(kind);
    EXPECT_NE(threads[1], first_caller) << kind_name(kind);
    EXPECT_NE(threads[1], second_caller) << kind_name(kind);
  }
}

TEST(CallerRunsDispatch, DroppedReplyTimesOutAtItsDeadline) {
  DispatchFixture fx(PlatformKind::kRmi, zero_latency(), 2);
  auto servant = std::make_shared<ThreadProbeServant>();
  auto ref = publish(PlatformKind::kRmi, *fx.server, "srv", *fx.client, "obj",
                     servant);
  // Drop everything sent to host cli: the reply, not the request.
  net::FaultController& faults = fx.net->as_sim()->faults();
  faults.run_plan(net::FaultPlan::parse(
      "plan drop-replies\nseed 1\n@0ms drop_burst * cli 60000ms 1.0\n"));
  ASSERT_TRUE(faults.wait_plan_done(ms(2000)));
  TimePoint start = now();
  plat::Reply reply = ref->invoke("m", {}, {}, ms(50));
  Duration took = now() - start;
  EXPECT_EQ(reply.status, plat::ReplyStatus::kUnreachable);
  EXPECT_EQ(reply.error, "timeout");
  EXPECT_GE(took, ms(50));
  EXPECT_LT(took, ms(5000));
  // The servant did run, inline, before the reply was lost.
  EXPECT_EQ(servant->threads(),
            std::vector<std::thread::id>{std::this_thread::get_id()});
}

TEST(CallerRunsDispatch, InlineServantPastTheDeadlineStillReturnsItsReply) {
  DispatchFixture fx(PlatformKind::kRmi, zero_latency(), 2);
  auto servant = std::make_shared<ThreadProbeServant>([] {
    std::this_thread::sleep_for(ms(80));
    plat::Reply reply;
    reply.status = plat::ReplyStatus::kOk;
    return reply;
  });
  auto ref = publish(PlatformKind::kRmi, *fx.server, "srv", *fx.client, "obj",
                     servant);
  // The caller runs its own request, so it cannot return before the
  // servant; a reply that arrives by then is returned even past the
  // deadline.
  TimePoint start = now();
  plat::Reply reply = ref->invoke("m", {}, {}, ms(10));
  EXPECT_GE(now() - start, ms(80));
  EXPECT_TRUE(reply.ok());
}

void expect_callback_into_callers_host_completes(
    const net::TransportConfig& cfg) {
  for (PlatformKind kind : kAllPlatforms) {
    auto net = net::make_transport(cfg);
    rmi::Registry registry(*net, "nameserver");
    corba::SmartAgent agent(*net, "nameserver");
    // One slot each: the callback must not need a second one.
    auto a = make_runtime(kind, *net, "hostA", 1);
    auto b = make_runtime(kind, *net, "hostB", 1);
    auto inner = std::make_shared<ThreadProbeServant>([] {
      plat::Reply reply;
      reply.status = plat::ReplyStatus::kOk;
      reply.result = Value(std::int64_t{42});
      return reply;
    });
    auto inner_ref = publish(kind, *a, "hostA", *b, "inner", inner);
    auto outer = std::make_shared<ThreadProbeServant>([&] {
      return inner_ref->invoke("m", {}, {}, ms(2000));
    });
    auto outer_ref = publish(kind, *b, "hostB", *a, "outer", outer);
    plat::Reply reply = outer_ref->invoke("m", {}, {}, ms(5000));
    ASSERT_TRUE(reply.ok()) << kind_name(kind) << ": " << reply.error;
    EXPECT_EQ(reply.result.as_i64(), 42) << kind_name(kind);
    const auto me = std::this_thread::get_id();
    EXPECT_EQ(outer->threads(), std::vector<std::thread::id>{me})
        << kind_name(kind);
    EXPECT_EQ(inner->threads(), std::vector<std::thread::id>{me})
        << kind_name(kind);
  }
}

TEST(CallerRunsDispatch, ServantCallingBackIntoTheCallersHostCompletes) {
  expect_callback_into_callers_host_completes(
      net::TransportConfig::simulated(zero_latency()));
}

TEST(CallerRunsDispatch, TcpServantCallingBackIntoTheCallersHostCompletes) {
  expect_callback_into_callers_host_completes(net::TransportConfig::real_tcp());
}

// --- parked requests -------------------------------------------------------------

/// Keeps the reply handle of every request it is given, unsent: each
/// request parks until the test answers it.
class ParkingServant : public plat::ServantHandler {
 public:
  void handle(const std::string&, ValueList, PiggybackMap,
              plat::ReplyHandle out) override {
    std::scoped_lock lk(mu_);
    parked_.push_back(std::move(out));
  }

  std::vector<plat::ReplyHandle> take() {
    std::scoped_lock lk(mu_);
    return std::move(parked_);
  }

 private:
  std::mutex mu_;
  std::vector<plat::ReplyHandle> parked_;
};

plat::Reply ok_reply(std::int64_t result) {
  plat::Reply reply;
  reply.status = plat::ReplyStatus::kOk;
  reply.result = Value(result);
  return reply;
}

TEST(ParkedReply, InlineCallerWaitsForAReplySentFromAnotherThread) {
  for (PlatformKind kind : kAllPlatforms) {
    DispatchFixture fx(kind, zero_latency(), /*server_threads=*/1);
    auto servant = std::make_shared<ParkingServant>();
    auto ref = publish(kind, *fx.server, "srv", *fx.client, "obj", servant);
    std::uint64_t inline_before = dispatch_count("inline");
    std::thread answer([&] {
      std::vector<plat::ReplyHandle> parked;
      for (TimePoint until = now() + ms(10000);
           parked.empty() && now() < until; parked = servant->take()) {
        std::this_thread::sleep_for(ms(1));
      }
      ASSERT_EQ(parked.size(), 1u);
      parked[0].send(ok_reply(42));
      parked[0].send(ok_reply(43));  // one-shot: ignored
    });
    plat::Reply reply = ref->invoke("m", {}, {}, ms(10000));
    answer.join();
    ASSERT_TRUE(reply.ok()) << kind_name(kind) << ": " << reply.error;
    EXPECT_EQ(reply.result.as_i64(), 42) << kind_name(kind);
    EXPECT_EQ(dispatch_count("inline") - inline_before, 1u) << kind_name(kind);
  }
}

TEST(ParkedReply, HandleThatOutlivesItsRuntimeSendsNothing) {
  for (PlatformKind kind : kAllPlatforms) {
    DispatchFixture fx(kind, zero_latency(), /*server_threads=*/1);
    auto servant = std::make_shared<ParkingServant>();
    auto ref = publish(kind, *fx.server, "srv", *fx.client, "obj", servant);
    // The inline caller returns from its send once the request parked,
    // and times out at its own deadline.
    TimePoint start = now();
    plat::Reply reply = ref->invoke("m", {}, {}, ms(50));
    EXPECT_EQ(reply.error, "timeout") << kind_name(kind);
    EXPECT_GE(now() - start, ms(50)) << kind_name(kind);
    std::vector<plat::ReplyHandle> parked = servant->take();
    ASSERT_EQ(parked.size(), 1u) << kind_name(kind);

    fx.server.reset();  // shut down and destroyed
    std::uint64_t sent = fx.net->messages_sent();
    parked[0].send(ok_reply(1));
    EXPECT_EQ(fx.net->messages_sent(), sent) << kind_name(kind);
  }
}

/// One replica, no peers; its servant answers 7.
class LoneServerQos : public ServerQosInterface {
 public:
  int num_servers() const override { return 1; }
  int replica_index() const override { return 0; }
  const std::string& object_id() const override { return object_id_; }
  void invoke_servant(Request& req) override { req.stage(true, Value(7)); }
  bool peer_call(int, const std::string&, const ValueList&, Value*) override {
    return false;
  }
  std::string description() const override { return "lone"; }

 private:
  std::string object_id_ = "Bank";
};

TEST(ParkedReply, ProcessTimeoutAfterRuntimeShutdownSendsNothing) {
  // No micro-protocol completes the request, so it parks until the Cactus
  // server's processing timeout, which fires after its runtime is gone.
  DispatchFixture fx(PlatformKind::kRmi, zero_latency(), /*server_threads=*/1);
  CactusServer::Options opts;
  opts.process_timeout = ms(150);
  auto server =
      std::make_shared<CactusServer>(std::make_unique<LoneServerQos>(), opts);
  std::atomic<int> returned{0};
  server->protocol().bind(
      ev::kRequestReturned, "probe",
      [&](cactus::EventContext&) { returned.fetch_add(1); },
      cactus::kOrderDefault);
  auto skeleton = std::make_shared<CqosSkeleton>("Bank", server);
  auto ref = publish(PlatformKind::kRmi, *fx.server, "srv", *fx.client, "obj",
                     skeleton);
  TimePoint start = now();
  plat::Reply reply = ref->invoke("get_balance", {}, {}, ms(30));
  EXPECT_EQ(reply.error, "timeout");
  EXPECT_LT(now() - start, ms(150));
  EXPECT_EQ(returned.load(), 0);

  fx.server.reset();
  std::uint64_t sent = fx.net->messages_sent();
  for (TimePoint until = now() + ms(10000);
       returned.load() == 0 && now() < until;) {
    std::this_thread::sleep_for(ms(5));
  }
  EXPECT_EQ(returned.load(), 1);
  EXPECT_EQ(fx.net->messages_sent(), sent);
}

}  // namespace
}  // namespace cqos::sim
