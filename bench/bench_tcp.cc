// bench_tcp: the real-socket transport's cost, measured where it matters.
//
// Rows (BENCH_tcp.json, schema validated by tools/bench_smoke.sh):
//
//   tcp / loopback-raw         raw ping-pong round trip through one
//                              TcpTransport in self-loopback mode: every
//                              message is framed, written to a real kernel
//                              socket aimed at our own listen port, read
//                              back by the epoll loop and decoded.
//   tcp / multiproc-raw        the same ping-pong against an echo server in
//                              a forked process — two event loops, two real
//                              sockets, learned-route replies.
//   sim / sim-raw              the same ping-pong on the real-time
//                              SimNetwork with the bench latency model
//                              (~100 us one-way). Calibration row: the gap
//                              between this and loopback-raw is how far the
//                              simulator's latency model sits from a real
//                              kernel loopback.
//   tcp / loopback-rmi-secured the full stack — RMI platform, marshalling,
//                              des_privacy + integrity micro-protocols — on
//                              a Cluster running transport_kind=kTcp, i.e.
//                              the paper's secured composition over real
//                              sockets.
//
// mean_ms is milliseconds per round trip (raw rows) or per set+get pair
// (the cluster row), best measured repetition, same convention as every
// other bench. The CI tcp-smoke job gates these rows against
// bench/baseline/BENCH_tcp.json via tools/bench_compare.py.
//
// Process layout: the echo child is forked FIRST, before any transport or
// thread exists in this process, exactly like tests/tcp_smoke.cc — forking
// after the epoll loop thread starts would leave the child with a dead
// event loop.
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>

#include "bench/harness.h"
#include "micro/standard.h"
#include "net/tcp_transport.h"
#include "net/transport.h"

namespace cqos::bench {
namespace {

constexpr const char* kKey = "0123456789abcdef";
constexpr std::size_t kPayloadBytes = 64;

/// Echo loop: bounce every message back to its sender until the endpoint
/// closes. On TCP the reply rides the learned route (the connection the
/// request arrived on), so this works for remote clients on ephemeral
/// ports too.
void echo_until_closed(net::Transport& net,
                       const std::shared_ptr<net::Endpoint>& ep) {
  for (;;) {
    auto msg = ep->recv(ms(100));
    if (msg) {
      net.send(ep->id(), msg->from, std::move(msg->payload));
    } else if (ep->closed()) {
      return;
    }
  }
}

/// One ping-pong round trip workload: send kPayloadBytes to `to`, wait for
/// the echo. Warmup + best-of-reps, same shape as run_pairs().
PairStats pingpong(net::Transport& net, const std::string& from,
                   const std::string& to, int pairs, int reps = 5) {
  auto ep = net.create_endpoint(from);
  auto roundtrip = [&]() -> bool {
    if (!net.send(from, to, Bytes(kPayloadBytes, 0x42))) return false;
    return ep->recv(ms(2000)).has_value();
  };
  for (int i = 0; i < bench_warmup(); ++i) {
    if (!roundtrip()) {
      std::fprintf(stderr, "bench_tcp: warmup round trip %s -> %s lost\n",
                   from.c_str(), to.c_str());
      std::exit(1);
    }
  }
  double best = 0;
  LatencyRecorder best_lat;
  for (int rep = 0; rep < reps; ++rep) {
    LatencyRecorder lat;
    for (int i = 0; i < pairs; ++i) {
      TimePoint t0 = now();
      if (!roundtrip()) {
        std::fprintf(stderr, "bench_tcp: round trip %s -> %s lost\n",
                     from.c_str(), to.c_str());
        std::exit(1);
      }
      lat.add(to_ms(now() - t0));
    }
    if (rep == 0 || lat.mean() < best) {
      best = lat.mean();
      best_lat = lat;
    }
  }
  net.remove_endpoint(from);
  PairStats stats;
  stats.set_get_ms = best;
  stats.one_call_ms = best / 2.0;
  stats.p50_ms = best_lat.percentile(50);
  stats.p99_ms = best_lat.percentile(99);
  stats.cov_pct = best_lat.cov_pct();
  return stats;
}

/// Raw round trip through one TcpTransport's self pair: both endpoints are
/// local, but every frame crosses a real kernel socket.
PairStats run_loopback_raw(int pairs) {
  auto net = net::make_transport(net::TransportConfig::real_tcp());
  auto echo_ep = net->create_endpoint("loop0/echo");
  std::thread echo([&] { echo_until_closed(*net, echo_ep); });
  PairStats stats = pingpong(*net, "loop0/cli", "loop0/echo", pairs);
  echo_ep->close();
  echo.join();
  return stats;
}

/// The identical workload on the real-time simulator with the bench
/// latency model — the calibration reference for loopback-raw.
PairStats run_sim_raw(int pairs) {
  auto net = net::make_transport(net::TransportConfig::simulated(bench_net()));
  auto echo_ep = net->create_endpoint("srv0/echo");
  std::thread echo([&] { echo_until_closed(*net, echo_ep); });
  PairStats stats = pingpong(*net, "cli0/bench", "srv0/echo", pairs);
  echo_ep->close();
  echo.join();
  return stats;
}

/// Raw round trip against the forked echo server: two transports, two
/// processes, request routed by the static peers map and the reply by the
/// learned route.
PairStats run_multiproc_raw(std::uint16_t port, int pairs) {
  net::TcpOptions topts;
  topts.peers["echosrv"] = "127.0.0.1:" + std::to_string(port);
  auto net = net::make_transport(net::TransportConfig::real_tcp(topts));
  return pingpong(*net, "bench0/cli", "echosrv/echo", pairs);
}

/// The paper's secured composition (des_privacy + integrity, both sides)
/// on an RMI cluster whose transport is real TCP.
PairStats run_rmi_secured(int pairs) {
  sim::ClusterOptions opts;
  opts.platform = sim::PlatformKind::kRmi;
  opts.level = sim::InterceptionLevel::kFull;
  opts.num_replicas = 1;
  opts.transport_kind = net::TransportKind::kTcp;
  opts.servant_factory = [] {
    return std::make_shared<sim::BankAccountServant>();
  };
  opts.qos.add(Side::kClient, "des_privacy", {{"key", kKey}})
      .add(Side::kClient, "integrity", {{"key", kKey}})
      .add(Side::kServer, "des_privacy", {{"key", kKey}})
      .add(Side::kServer, "integrity", {{"key", kKey}});
  sim::Cluster cluster(opts);
  auto client = cluster.make_client();
  return run_pairs(*client, pairs);
}

/// Child process: echo server on an ephemeral port. Writes the port down
/// port_fd, echoes until the parent closes stop_fd.
int run_echo_server(int port_fd, int stop_fd) {
  net::TcpOptions topts;
  auto net = net::make_transport(net::TransportConfig::real_tcp(topts));
  auto ep = net->create_endpoint("echosrv/echo");

  std::string line = std::to_string(net->as_tcp()->listen_port()) + "\n";
  if (::write(port_fd, line.data(), line.size()) !=
      static_cast<ssize_t>(line.size())) {
    return 2;
  }
  ::close(port_fd);

  for (;;) {
    auto msg = ep->recv(ms(100));
    if (msg) {
      net->send(ep->id(), msg->from, std::move(msg->payload));
      continue;
    }
    char b;
    ssize_t r = ::read(stop_fd, &b, 1);  // O_NONBLOCK: -1/EAGAIN = keep going
    if (r == 0) return 0;                // EOF: parent is done
  }
}

int run() {
  // Fork the echo child before this process grows any threads.
  int port_pipe[2];
  int stop_pipe[2];
  if (::pipe(port_pipe) != 0 || ::pipe(stop_pipe) != 0) {
    std::perror("pipe");
    return 1;
  }
  // The child polls stop_pipe between echoes; reads must not block.
  ::fcntl(stop_pipe[0], F_SETFL, O_NONBLOCK);
  pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (pid == 0) {
    ::close(port_pipe[0]);
    ::close(stop_pipe[1]);
    std::_Exit(run_echo_server(port_pipe[1], stop_pipe[0]));
  }
  ::close(port_pipe[1]);
  ::close(stop_pipe[0]);

  char buf[16] = {};
  if (::read(port_pipe[0], buf, sizeof(buf) - 1) <= 0) {
    std::fprintf(stderr, "bench_tcp: no port from echo server process\n");
    ::close(stop_pipe[1]);
    ::waitpid(pid, nullptr, 0);
    return 1;
  }
  ::close(port_pipe[0]);
  auto port = static_cast<std::uint16_t>(std::atoi(buf));

  micro::register_standard_micro_protocols();
  global_warmup();
  const int pairs = bench_pairs();
  std::printf("bench_tcp: real-socket transport, %d round trips per row\n",
              pairs);

  PairStats loopback = run_loopback_raw(pairs);
  std::printf("  tcp loopback-raw:         %.6f ms/rt (p99 %.6f)\n",
              loopback.set_get_ms, loopback.p99_ms);
  PairStats simraw = run_sim_raw(pairs);
  std::printf("  sim sim-raw:              %.6f ms/rt (p99 %.6f)\n",
              simraw.set_get_ms, simraw.p99_ms);
  PairStats multiproc = run_multiproc_raw(port, pairs);
  std::printf("  tcp multiproc-raw:        %.6f ms/rt (p99 %.6f)\n",
              multiproc.set_get_ms, multiproc.p99_ms);
  PairStats secured = run_rmi_secured(pairs);
  std::printf("  tcp loopback-rmi-secured: %.6f ms/pair (p99 %.6f)\n",
              secured.set_get_ms, secured.p99_ms);

  // Stop and reap the echo child before writing the report.
  ::close(stop_pipe[1]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
    std::fprintf(stderr, "bench_tcp: echo server exited abnormally\n");
    return 1;
  }

  JsonReport report("tcp", pairs);
  report.add_pair_row("tcp", "loopback-raw", 1, loopback);
  report.add_pair_row("sim", "sim-raw", 1, simraw);
  report.add_pair_row("tcp", "multiproc-raw", 1, multiproc);
  report.add_pair_row("tcp", "loopback-rmi-secured", 1, secured);
  return report.write() ? 0 : 1;
}

}  // namespace
}  // namespace cqos::bench

int main() { return cqos::bench::run(); }
