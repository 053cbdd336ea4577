// bench_scale: virtual-time scale + real-time send-path contention.
//
// Virtual rows drive the discrete-event SimNetwork with the modeled-client
// load driver (sim/modeled_load.h): a 100,000-modeled-client zipf flash
// crowd and a rolling-partition sweep, each hundreds of thousands of
// simulated deliveries. `mean_ms` is WALL-CLOCK MILLISECONDS PER SIMULATED
// EVENT — the cost of simulating, which is what the scale-smoke CI gate
// (tools/bench_compare.py, 25% tolerance) protects. The zipf scenario runs
// twice at the same seed and the run fails loudly unless both runs dispatch
// identical event counts and delivery digests (the determinism claim).
//
// Real-time rows measure raw send()-path throughput under sender
// concurrency: `contend-1` (single sender) and `contend-4` (4 senders, each
// to its own destination). mean_ms is wall milliseconds per send.
//
// Exported counters (validated by tools/bench_smoke.sh):
//   scale.clients     modeled clients in the zipf scenario
//   scale.events      events dispatched by run 1 of the zipf scenario
//   scale.runs_match  1 iff both zipf runs were bit-identical
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/sync.h"
#include "sim/modeled_load.h"

namespace cqos::bench {
namespace {

sim::ModeledStats run_zipf(std::uint64_t seed) {
  // Local registry: a 100k-client run mints per-host-pair counters for
  // every (client, server) pair it touches, which must not land in the
  // global snapshot JsonReport::write() embeds in BENCH_scale.json.
  metrics::Registry reg;
  net::NetConfig cfg;
  cfg.time_mode = TimeMode::kVirtual;
  cfg.jitter = 0.05;
  cfg.seed = 4242;
  cfg.metrics = &reg;
  cfg.pair_metrics = false;  // 100k clients would mint a counter per pair
  // cqos-lint: allow-transport-construction (virtual-time scenario: simulator-specific API)
  net::SimNetwork net(cfg);
  sim::ModeledOptions opts;
  opts.clients = 100000;
  opts.servers = 32;
  opts.zipf_s = 1.1;
  opts.arrival_rate_hz = 250000;
  opts.duration = std::chrono::seconds(2);
  opts.flash_crowd = true;
  opts.flash_start = ms(600);
  opts.flash_len = ms(600);
  opts.flash_multiplier = 4.0;
  opts.seed = seed;
  return sim::run_modeled(net, opts);
}

sim::ModeledStats run_rolling(std::uint64_t seed) {
  metrics::Registry reg;
  net::NetConfig cfg;
  cfg.time_mode = TimeMode::kVirtual;
  cfg.seed = 4242;
  cfg.metrics = &reg;
  cfg.pair_metrics = false;
  // cqos-lint: allow-transport-construction (virtual-time scenario: simulator-specific API)
  net::SimNetwork net(cfg);
  sim::ModeledOptions opts;
  opts.clients = 100000;
  opts.servers = 16;
  opts.zipf_s = 0.9;
  opts.arrival_rate_hz = 150000;
  opts.duration = std::chrono::seconds(2);
  opts.rolling_partition = true;
  opts.partition_period = ms(120);
  opts.forward_rate = 0.2;
  opts.seed = seed;
  return sim::run_modeled(net, opts);
}

/// Real-time send-path throughput: `senders` threads each blasting
/// `per_sender` sends at their own destination endpoint. Returns wall ms
/// per send (best of `reps`).
double contention_run(int senders, int per_sender, int reps) {
  double best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    net::NetConfig cfg;
    cfg.jitter = 0.05;
    cfg.seed = 99;
    // cqos-lint: allow-transport-construction (send-path bench: measures the simulator itself)
    net::SimNetwork net(cfg);
    std::vector<std::shared_ptr<net::Endpoint>> eps;
    for (int s = 0; s < senders; ++s) {
      eps.push_back(net.create_endpoint("dst" + std::to_string(s) + "/svc"));
    }
    Gate gate;
    std::vector<std::thread> threads;
    for (int s = 0; s < senders; ++s) {
      threads.emplace_back([&, s] {
        std::string from = "src" + std::to_string(s) + "/cli";
        std::string to = "dst" + std::to_string(s) + "/svc";
        gate.wait();
        for (int i = 0; i < per_sender; ++i) {
          net.send(from, to, Bytes(64, 0x42));
        }
      });
    }
    TimePoint t0 = now();
    gate.set();
    for (auto& t : threads) t.join();
    double per_send =
        to_ms(now() - t0) / (static_cast<double>(senders) * per_sender);
    if (rep == 0 || per_send < best) best = per_send;
  }
  return best;
}

int run() {
  std::printf("bench_scale: virtual-time scale + send-path contention\n");
  metrics::Registry& reg = metrics::Registry::global();

  // --- virtual: 100k-client zipf flash crowd, twice at the same seed ------
  sim::ModeledStats z1 = run_zipf(7);
  sim::ModeledStats z2 = run_zipf(7);
  bool match = z1.events == z2.events && z1.order_digest == z2.order_digest &&
               z1.delivered == z2.delivered;
  std::printf(
      "  zipf-flash 100k clients: %llu events, %llu delivered, %.1f ms wall "
      "(run2: %.1f ms) %s\n",
      static_cast<unsigned long long>(z1.events),
      static_cast<unsigned long long>(z1.delivered), z1.wall_ms, z2.wall_ms,
      match ? "[runs identical]" : "[RUNS DIVERGED]");
  auto viol = z1.check();
  for (const auto& v : viol) std::printf("  INVARIANT: %s\n", v.c_str());
  reg.counter("scale.clients").inc(100000);
  reg.counter("scale.events").inc(z1.events);
  if (match) reg.counter("scale.runs_match").inc();

  // --- virtual: rolling partition sweep -----------------------------------
  sim::ModeledStats r1 = run_rolling(9);
  sim::ModeledStats r2 = run_rolling(9);
  if (r2.wall_ms < r1.wall_ms) r1.wall_ms = r2.wall_ms;
  std::printf(
      "  rolling-partition 100k clients: %llu events, %llu delivered, %llu "
      "cut, %.1f ms wall\n",
      static_cast<unsigned long long>(r1.events),
      static_cast<unsigned long long>(r1.delivered),
      static_cast<unsigned long long>(r1.send_drops), r1.wall_ms);
  auto rviol = r1.check();
  for (const auto& v : rviol) std::printf("  INVARIANT: %s\n", v.c_str());

  // --- real time: send-path contention ------------------------------------
  const int per_sender = 30000;
  double c1 = contention_run(1, per_sender, 5);
  double c4 = contention_run(4, per_sender, 5);
  std::printf("  contention: 1-sender %.6f ms/send, 4-sender %.6f\n", c1,
              c4);

  JsonReport report("scale", bench_pairs());
  auto add = [&](const char* label, int servers, double mean_ms,
                 const char* cls) {
    JsonRow row;
    row.platform = "SimNetwork";
    row.label = label;
    row.servers = servers;
    row.mean_ms = mean_ms;
    row.cls = cls;
    report.add_row(row);
  };
  // Wall-per-event from the faster of the two (identical) runs: same
  // best-of convention as the contention rows, less scheduler noise in the
  // committed baseline.
  double zipf_wall = z1.wall_ms < z2.wall_ms ? z1.wall_ms : z2.wall_ms;
  add("virtual-zipf-flash-100k", 32,
      z1.events ? zipf_wall / static_cast<double>(z1.events) : 0, "virtual");
  add("virtual-rolling-partition-100k", 16,
      r1.events ? r1.wall_ms / static_cast<double>(r1.events) : 0, "virtual");
  add("contend-1", 1, c1, "real");
  add("contend-4", 4, c4, "real");
  bool wrote = report.write();

  // Hard failures: the determinism and 30s-wall acceptance criteria.
  if (!match) {
    std::fprintf(stderr, "bench_scale: FAIL — same-seed runs diverged\n");
    return 1;
  }
  if (!viol.empty() || !rviol.empty()) {
    std::fprintf(stderr, "bench_scale: FAIL — invariant violations\n");
    return 1;
  }
  if (z1.wall_ms > 30000.0) {
    std::fprintf(stderr,
                 "bench_scale: FAIL — 100k-client zipf run took %.0f ms "
                 "(budget 30000)\n",
                 z1.wall_ms);
    return 1;
  }
  return wrote ? 0 : 1;
}

}  // namespace
}  // namespace cqos::bench

int main() { return cqos::bench::run(); }
