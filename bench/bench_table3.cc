// Table 3 reproduction: TimedSched service differentiation.
//
// "For these tests, we statically designated some clients as high priority
// and others as low priority." Rows: TimedSched alone (1 server), +Active
// Rep (3), +Vote, +Total, Active+Total — average response time per client
// class, both platforms.
//
// Expected shape (paper Table 3): high-priority clients see response times
// close to the unloaded Table 2 numbers; low-priority clients roughly 2x
// the high-priority time in every configuration.
#include <algorithm>
#include <thread>

#include "bench/harness.h"

namespace cqos::bench {
namespace {

struct Config {
  const char* label;
  int servers;
  QosConfig qos;
};

const MicroProtocolSpec kTimedSchedSpec{
    "timed_sched", {{"period_ms", "3"}, {"threshold", "8"}}};

QosConfig with_timed_sched(QosConfig qos) {
  qos.server.push_back(kTimedSchedSpec);
  return qos;
}

/// Servant with an emulated service time: differentiation is only
/// observable when requests actually contend for execution. (Sleep, not
/// spin: the service time belongs to the simulated server machine, not to
/// this process's CPU.)
class BusyServant : public Servant {
 public:
  explicit BusyServant(Duration service_time) : service_time_(service_time) {}
  Value dispatch(const std::string& method, const ValueList& params) override {
    std::this_thread::sleep_for(service_time_);
    if (method == "set_balance") {
      balance_.store(params.at(0).as_i64());
      return Value(true);
    }
    return Value(balance_.load());
  }

 private:
  Duration service_time_;
  std::atomic<std::int64_t> balance_{0};
};

std::vector<Config> table3_configs() {
  std::vector<Config> configs;
  configs.push_back({"TimedSched", 1, with_timed_sched({})});
  {
    QosConfig qos;
    qos.add(Side::kClient, "active_rep");
    configs.push_back({"+ Active Rep", 3, with_timed_sched(qos)});
  }
  {
    QosConfig qos;
    qos.add(Side::kClient, "active_rep").add(Side::kClient, "majority_vote");
    configs.push_back({"+ Vote", 3, with_timed_sched(qos)});
  }
  {
    QosConfig qos;
    qos.add(Side::kClient, "active_rep")
        .add(Side::kClient, "majority_vote")
        .add(Side::kServer, "total_order");
    configs.push_back({"+ Total", 3, with_timed_sched(qos)});
  }
  {
    QosConfig qos;
    qos.add(Side::kClient, "active_rep")
        .add(Side::kClient, "first_success")
        .add(Side::kServer, "total_order");
    configs.push_back({"Active+Total", 3, with_timed_sched(qos)});
  }
  return configs;
}

struct ClassStats {
  double high_ms = 0;
  double low_ms = 0;
  // Per-call percentiles of the pair times (pair / 2, like the means).
  double high_p50_ms = 0, high_p99_ms = 0;
  double low_p50_ms = 0, low_p99_ms = 0;
  double high_cov_pct = 0, low_cov_pct = 0;
};

/// Two high-priority and two low-priority clients issue get/set pairs
/// concurrently; report the mean pair time per class.
ClassStats run_config(sim::PlatformKind kind, const Config& config,
                      int pairs) {
  sim::ClusterOptions opts;
  opts.platform = kind;
  opts.level = sim::InterceptionLevel::kFull;
  opts.num_replicas = config.servers;
  opts.qos = config.qos;
  opts.net = bench_net();
  opts.emulate_testbed = true;
  opts.request_timeout = ms(10000);
  opts.servant_factory = [] {
    return std::make_shared<BusyServant>(us(1200));
  };
  // Paper §3.4: when combined with TotalOrder, install the service
  // differentiation micro-protocol only at the coordinator so the order
  // assignment respects priorities (and backups never park ordered work).
  bool has_total = false;
  for (const auto& spec : config.qos.server) {
    if (spec.name == "total_order") has_total = true;
  }
  if (has_total) {
    std::vector<MicroProtocolSpec> base;
    for (const auto& spec : config.qos.server) {
      if (spec.name != "timed_sched") base.push_back(spec);
    }
    opts.server_specs_fn = [base](int replica) {
      std::vector<MicroProtocolSpec> specs = base;
      if (replica == 0) specs.push_back(kTimedSchedSpec);
      return specs;
    };
  }
  sim::Cluster cluster(opts);

  constexpr int kPerClass = 2;
  struct Worker {
    std::unique_ptr<sim::ClientHandle> client;
    LatencyRecorder recorder;
    bool high = false;
  };
  std::vector<Worker> workers;
  for (int i = 0; i < 2 * kPerClass; ++i) {
    Worker worker;
    worker.high = i < kPerClass;
    CqosStub::Options stub_opts;
    stub_opts.priority = worker.high ? 9 : 2;
    worker.client = cluster.make_client(stub_opts);
    workers.push_back(std::move(worker));
  }

  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  for (auto& worker : workers) {
    threads.emplace_back([&worker, &errors, pairs] {
      sim::BankAccountStub account(worker.client->stub_ptr());
      // Unmeasured warmup, split across the concurrent workers.
      int warm = std::max(1, bench_warmup() / (2 * kPerClass));
      for (int i = 0; i < warm; ++i) {
        try {
          account.set_balance(0);
          (void)account.get_balance();
        } catch (const Error&) {
        }
      }
      for (int i = 0; i < pairs; ++i) {
        TimePoint t0 = now();
        try {
          // All clients write the SAME value: without total order the
          // replicas' interleavings differ, and divergent reads would
          // (correctly) defeat majority voting.
          account.set_balance(0);
          (void)account.get_balance();
          worker.recorder.add(to_ms(now() - t0));
        } catch (const Error&) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  if (errors.load() > 0) {
    std::printf("  (%d calls failed)\n", errors.load());
  }

  LatencyRecorder high, low;
  for (auto& worker : workers) {
    (worker.high ? high : low).merge(worker.recorder);
  }
  ClassStats stats;
  stats.high_ms = high.mean() / 2.0;  // per call
  stats.low_ms = low.mean() / 2.0;
  stats.high_p50_ms = high.percentile(50) / 2.0;
  stats.high_p99_ms = high.percentile(99) / 2.0;
  stats.low_p50_ms = low.percentile(50) / 2.0;
  stats.low_p99_ms = low.percentile(99) / 2.0;
  stats.high_cov_pct = high.cov_pct();
  stats.low_cov_pct = low.cov_pct();
  return stats;
}

void run_platform(sim::PlatformKind kind, int pairs, JsonReport& report) {
  std::printf(
      "\nTable 3 — %s (avg response time per call, ms; %d pairs per client,\n"
      "2 high-priority + 2 low-priority clients)\n",
      platform_label(kind), pairs);
  std::printf("%-16s %8s %14s %14s %8s\n", "Configuration", "servers",
              "high priority", "low priority", "ratio");
  for (const Config& config : table3_configs()) {
    ClassStats stats = run_config(kind, config, pairs);
    std::printf("%-16s %8d %14.3f %14.3f %7.2fx\n", config.label,
                config.servers, stats.high_ms, stats.low_ms,
                stats.high_ms > 0 ? stats.low_ms / stats.high_ms : 0.0);
    report.add_row(JsonRow{platform_label(kind), config.label, config.servers,
                           stats.high_ms, stats.high_p50_ms, stats.high_p99_ms,
                           stats.high_cov_pct, "high"});
    report.add_row(JsonRow{platform_label(kind), config.label, config.servers,
                           stats.low_ms, stats.low_p50_ms, stats.low_p99_ms,
                           stats.low_cov_pct, "low"});
  }
}

}  // namespace
}  // namespace cqos::bench

int main() {
  using namespace cqos::bench;
  global_warmup();
  int pairs = std::max(50, bench_pairs() / 4);
  JsonReport report(3, pairs);
  std::printf("CQoS bench: Table 3 — TimedSched service differentiation\n");
  run_platform(cqos::sim::PlatformKind::kCorba, pairs, report);
  run_platform(cqos::sim::PlatformKind::kRmi, pairs, report);
  report.write();
  std::printf(
      "\nShape checks vs the paper: low-priority response ≈ 2x high in every\n"
      "configuration; high-priority times track the unloaded Table 2 rows.\n");
  return 0;
}
