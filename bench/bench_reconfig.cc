// Live-reconfiguration benchmark: what does a hot-swap cost, and what does
// it do to traffic that is in flight while the handler graph changes?
//
// One single-replica deployment (retransmit client / dedup server), three
// measured rows, all swapping the SAME client endpoint (ping-ponging the
// retransmit micro-protocol in and out) so the rows compare like for like:
//
//   idle-swap        — Handle::reconfigure() end-to-end time with no
//                      traffic: the floor of the quiescence protocol
//                      (drain of an empty gate + teardown + state export +
//                      install + import + release).
//   loaded-swap      — the same swap while four closed-loop threads hammer
//                      the endpoint: the drain now waits out real
//                      in-flight round trips and concurrent arrivals park
//                      against the QuiesceGate.
//   call-during-swap — the caller-observed price: per-call latency of the
//                      hammer traffic across the swapping windows (parked
//                      calls pay the park, the rest the ordinary path).
//
// The acceptance claim (ISSUE 10): swaps are cheap enough to run under
// load — zero dropped or double-applied requests (the soak matrix proves
// that; this bench reports the latency price) — and parked arrivals
// actually release: cqos.reconfig.released.total must be > 0 in the
// metrics snapshot (validated by tools/bench_smoke.sh).
//
// Emits BENCH_reconfig.json.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/metrics.h"
#include "common/sync.h"
#include "micro/standard.h"

namespace cqos::bench {
namespace {

constexpr int kHammerThreads = 4;

sim::ClusterOptions deployment() {
  sim::ClusterOptions opts;
  opts.platform = sim::PlatformKind::kRmi;
  opts.level = sim::InterceptionLevel::kFull;
  opts.num_replicas = 1;
  opts.net = bench_net();
  opts.servant_factory = [] {
    return std::make_shared<sim::BankAccountServant>();
  };
  opts.qos.add(Side::kClient, "retransmit", {{"retries", "4"}})
      .add(Side::kServer, "dedup");
  return opts;
}

/// The two client compositions the bench ping-pongs between: retransmit in,
/// retransmit out (the server keeps dedup, so at-most-once always holds).
std::vector<MicroProtocolSpec> client_specs(int k) {
  if (k % 2 == 0) return {};
  return {{"retransmit", {{"retries", "4"}}}};
}

void record_report(const ReconfigReport& report) {
  auto& reg = metrics::Registry::global();
  reg.counter("cqos.reconfig.released.total")
      .inc(static_cast<std::uint64_t>(report.released));
  reg.counter("cqos.reconfig.parked_peak.total")
      .inc(static_cast<std::uint64_t>(report.parked_peak));
}

/// `gap_ms` > 0 lets hammer traffic interleave between consecutive swaps.
LatencyRecorder swap_loop(QosEndpoint::Handle& handle, int swaps,
                          int gap_ms) {
  LatencyRecorder lat;
  for (int k = 0; k < swaps; ++k) {
    ReconfigReport report = handle.reconfigure(client_specs(k));
    lat.add(report.total_ms);
    record_report(report);
    if (gap_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(gap_ms));
    }
  }
  return lat;
}

PairStats to_stats(const LatencyRecorder& lat) {
  PairStats stats;
  stats.set_get_ms = lat.mean();
  stats.p50_ms = lat.percentile(50);
  stats.p99_ms = lat.percentile(99);
  stats.cov_pct = lat.cov_pct();
  return stats;
}

struct HammerTally {
  Mutex mu;
  LatencyRecorder lat;
  long failed = 0;
};

}  // namespace
}  // namespace cqos::bench

int main() {
  using namespace cqos;
  using namespace cqos::bench;

  micro::register_standard_micro_protocols();
  global_warmup();

  const int swaps = std::max(8, bench_pairs() / 2);
  JsonReport report("reconfig", swaps);

  // --- idle-swap -------------------------------------------------------------
  {
    sim::Cluster cluster(deployment());
    auto client = cluster.make_client();
    // Touch the endpoint once so lazy wiring is done before measuring.
    sim::BankAccountStub account(client->stub_ptr());
    account.set_balance(0);
    PairStats stats =
        to_stats(swap_loop(client->endpoint(), swaps, /*gap_ms=*/0));
    report.add_pair_row("sim", "idle-swap", 1, stats);
    std::printf("idle-swap        mean %8.3f ms  p99 %8.3f ms  (%d swaps)\n",
                stats.set_get_ms, stats.p99_ms, swaps);
  }

  // --- loaded-swap + call-during-swap ----------------------------------------
  {
    sim::Cluster cluster(deployment());
    CqosStub::Options stub_opts;
    auto client = cluster.make_client(stub_opts);
    sim::BankAccountStub warm(client->stub_ptr());
    warm.set_balance(0);

    HammerTally tally;
    std::atomic<bool> done{false};
    std::vector<std::thread> hammers;
    for (int h = 0; h < kHammerThreads; ++h) {
      hammers.emplace_back([&, h] {
        sim::BankAccountStub account(client->stub_ptr());
        std::int64_t amount = (h + 1) * 1'000'000;
        while (!done.load(std::memory_order_relaxed)) {
          TimePoint t0 = now();
          try {
            account.deposit(++amount);
            double ms_taken = to_ms(now() - t0);
            MutexLock lk(tally.mu);
            tally.lat.add(ms_taken);
          } catch (const Error&) {
            MutexLock lk(tally.mu);
            ++tally.failed;
          }
        }
      });
    }

    PairStats loaded =
        to_stats(swap_loop(client->endpoint(), swaps, /*gap_ms=*/3));
    done.store(true);
    for (auto& t : hammers) t.join();
    report.add_pair_row("sim", "loaded-swap", 1, loaded);

    PairStats calls;
    long failed = 0;
    {
      MutexLock lk(tally.mu);
      calls = to_stats(tally.lat);
      failed = tally.failed;
    }
    report.add_pair_row("sim", "call-during-swap", 1, calls);

    std::printf(
        "loaded-swap      mean %8.3f ms  p99 %8.3f ms  (%d swaps, "
        "%d hammer threads, %ld failed calls)\n",
        loaded.set_get_ms, loaded.p99_ms, swaps, kHammerThreads, failed);
    std::printf("call-during-swap mean %8.3f ms  p99 %8.3f ms\n",
                calls.set_get_ms, calls.p99_ms);
  }

  auto& reg = metrics::Registry::global();
  std::printf("swaps %llu, released %llu parked arrivals (peak sum %llu)\n",
              static_cast<unsigned long long>(
                  reg.counter("cqos.reconfig.swaps").value()),
              static_cast<unsigned long long>(
                  reg.counter("cqos.reconfig.released.total").value()),
              static_cast<unsigned long long>(
                  reg.counter("cqos.reconfig.parked_peak.total").value()));

  return report.write() ? 0 : 1;
}
