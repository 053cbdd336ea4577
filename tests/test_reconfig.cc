// Live reconfiguration tests (DESIGN.md §16): the QuiesceGate state
// machine, micro-protocol state handoff (dedup caches, retransmit
// windows), revision plumbing (ConfigRevision, config service, advertised
// config, endpoint handles), rollback on rejected/failed swaps, the
// registration-last naming contract, and the reconfiguring chaos-soak
// matrix (every soak config hot-swapped to every other under faults).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cactus/composite.h"
#include "common/clock.h"
#include "common/error.h"
#include "common/sync.h"
#include "cqos/config.h"
#include "cqos/config_service.h"
#include "cqos/dynamic_config.h"
#include "cqos/endpoint.h"
#include "cqos/reconfig.h"
#include "micro/dedup.h"
#include "micro/extensions.h"
#include "micro/standard.h"
#include "net/sim_network.h"
#include "platform/rmi/registry.h"
#include "platform/rmi/rmi.h"
#include "sim/bank_account.h"
#include "sim/cluster.h"
#include "soak/soak.h"

namespace cqos {
namespace {

void sleep_ms(int n) {
  std::this_thread::sleep_for(std::chrono::milliseconds(n));
}

// --- QuiesceGate state machine ----------------------------------------------

TEST(QuiesceGate, LiveGateCountsInflight) {
  QuiesceGate gate;
  EXPECT_EQ(gate.phase(), GatePhase::kLive);
  ASSERT_TRUE(gate.enter());
  ASSERT_TRUE(gate.enter());
  EXPECT_EQ(gate.inflight(), 2);
  gate.exit();
  gate.exit();
  EXPECT_EQ(gate.inflight(), 0);
}

TEST(QuiesceGate, DrainSwapResumeRoundTrip) {
  QuiesceGate gate;
  ASSERT_TRUE(gate.begin_drain(ReconfigOptions{}));
  EXPECT_EQ(gate.phase(), GatePhase::kDraining);
  gate.begin_swap();
  EXPECT_EQ(gate.phase(), GatePhase::kSwapping);
  gate.resume();
  EXPECT_EQ(gate.phase(), GatePhase::kLive);
}

TEST(QuiesceGate, ArrivalParksDuringSwapAndReleasesOnResume) {
  QuiesceGate gate;
  ASSERT_TRUE(gate.begin_drain(ReconfigOptions{}));
  std::atomic<int> entered{-1};
  std::thread arrival([&] {
    entered.store(gate.enter() ? 1 : 0);
    if (entered.load() == 1) gate.exit();
  });
  // Wait until the arrival is actually parked before swapping.
  for (int i = 0; i < 2000 && gate.parked_peak() == 0; ++i) sleep_ms(1);
  ASSERT_EQ(gate.parked_peak(), 1);
  gate.begin_swap();
  gate.resume();
  arrival.join();
  EXPECT_EQ(entered.load(), 1);
  EXPECT_EQ(gate.released(), 1u);
  EXPECT_EQ(gate.inflight(), 0);
}

// Requests enter and exit on the live path (no lock) while a driver
// drains, swaps and resumes over and over: no swap starts with a request
// inside the gate, no request runs during a swap, and every drain sees the
// last exit promptly (a missed wakeup would sit out the drain timeout).
TEST(QuiesceGate, DrainRacingEnterExitNeverSwapsWithARequestInside) {
  QuiesceGate gate;
  constexpr int kRequesters = 4, kSwaps = 200;
  std::atomic<int> inside{0};
  std::atomic<bool> swapping{false};
  std::atomic<bool> done{false};
  std::atomic<int> overlaps{0};
  std::atomic<long> admitted{0};
  std::vector<std::thread> requesters;
  for (int t = 0; t < kRequesters; ++t) {
    requesters.emplace_back([&] {
      while (!done.load()) {
        if (!gate.enter()) continue;
        inside.fetch_add(1);
        if (swapping.load()) overlaps.fetch_add(1);
        admitted.fetch_add(1);
        inside.fetch_sub(1);
        gate.exit();
        std::this_thread::yield();
      }
    });
  }
  ReconfigOptions opts;
  opts.drain_timeout = ms(10000);
  opts.max_parked = kRequesters;
  opts.park_timeout = ms(20000);
  Duration slowest{};
  for (int i = 0; i < kSwaps; ++i) {
    TimePoint t0 = now();
    if (!gate.begin_drain(opts)) {
      ADD_FAILURE() << "drain " << i << " timed out";
      break;
    }
    slowest = std::max(slowest, now() - t0);
    try {
      gate.begin_swap();  // throws if a request got in after the drain
    } catch (const Error&) {
      overlaps.fetch_add(1);
      gate.resume();
      continue;
    }
    swapping.store(true);
    if (inside.load() != 0 || gate.inflight() != 0) overlaps.fetch_add(1);
    std::this_thread::yield();
    swapping.store(false);
    gate.resume();
  }
  done.store(true);
  for (auto& t : requesters) t.join();
  EXPECT_EQ(overlaps.load(), 0);
  EXPECT_GT(admitted.load(), 0);
  EXPECT_EQ(gate.inflight(), 0);
  EXPECT_LT(slowest, ms(5000));
}

TEST(QuiesceGate, ParkedQueueOverflowRejectsVisibly) {
  QuiesceGate gate;
  ReconfigOptions opts;
  opts.max_parked = 0;  // no parking capacity at all
  ASSERT_TRUE(gate.begin_drain(opts));
  EXPECT_FALSE(gate.enter());  // rejected, not silently dropped
  gate.begin_swap();
  gate.resume();
}

TEST(QuiesceGate, ParkTimeoutRejectsWhileSwapDrags) {
  QuiesceGate gate;
  ReconfigOptions opts;
  opts.park_timeout = ms(50);
  ASSERT_TRUE(gate.begin_drain(opts));
  gate.begin_swap();
  std::atomic<int> entered{-1};
  std::thread arrival([&] { entered.store(gate.enter() ? 1 : 0); });
  arrival.join();  // must come back on its own via the park timeout
  EXPECT_EQ(entered.load(), 0);
  gate.resume();
}

TEST(QuiesceGate, DrainTimeoutRevertsToLive) {
  QuiesceGate gate;
  ASSERT_TRUE(gate.enter());  // held in flight for the whole drain
  ReconfigOptions opts;
  opts.drain_timeout = ms(50);
  EXPECT_FALSE(gate.begin_drain(opts));
  EXPECT_EQ(gate.phase(), GatePhase::kLive);
  gate.exit();
  EXPECT_TRUE(gate.enter());  // still admitting
  gate.exit();
}

TEST(QuiesceGate, ClosedGateRejectsEverything) {
  QuiesceGate gate;
  gate.close();
  EXPECT_EQ(gate.phase(), GatePhase::kClosed);
  EXPECT_FALSE(gate.enter());
}

TEST(QuiesceGate, ControlCheckpointBlocksOnlyDuringSwap) {
  QuiesceGate gate;
  ASSERT_TRUE(gate.begin_drain(ReconfigOptions{}));
  gate.control_checkpoint();  // draining must NOT block controls
  gate.begin_swap();
  std::atomic<bool> passed{false};
  std::thread control([&] {
    gate.control_checkpoint();
    passed.store(true);
  });
  sleep_ms(50);
  EXPECT_FALSE(passed.load());  // parked at the swapping window
  gate.resume();
  control.join();
  EXPECT_TRUE(passed.load());
}

// --- state handoff: dedup cache ---------------------------------------------

micro::DedupState::Cached cached(int amount) {
  micro::DedupState::Cached c;
  c.success = true;
  c.result = Value(amount);
  return c;
}

void seed_dedup(micro::DedupState& state, std::uint64_t id, int amount) {
  MutexLock lk(state.mu);
  state.cache.emplace(id, cached(amount));
  state.cache_fifo.push_back(id);
}

TEST(StateHandoff, DedupCacheSurvivesExportImport) {
  micro::DedupState from;
  seed_dedup(from, 1, 100);
  seed_dedup(from, 2, 200);

  cactus::StateBag bag;
  micro::export_dedup_state(from, bag);
  EXPECT_TRUE(bag.contains(micro::kDedupBagKey));

  micro::DedupState to;
  micro::import_dedup_state(bag, to);
  MutexLock lk(to.mu);
  ASSERT_EQ(to.cache.size(), 2u);
  EXPECT_TRUE(to.cache.at(1).success);
  EXPECT_EQ(to.cache.at(2).result.as_i64(), 200);
}

TEST(StateHandoff, DedupExportMergesTwoProtocolsIntoOneBagEntry) {
  // "dedup" and PassiveRepServer export under the SAME canonical key; a
  // second exporter must merge, not clobber.
  micro::DedupState a, b;
  seed_dedup(a, 1, 100);
  seed_dedup(b, 2, 200);

  cactus::StateBag bag;
  micro::export_dedup_state(a, bag);
  micro::export_dedup_state(b, bag);

  micro::DedupState to;
  micro::import_dedup_state(bag, to);
  MutexLock lk(to.mu);
  EXPECT_EQ(to.cache.size(), 2u);
}

TEST(StateHandoff, DedupImportTrimsFifoOldestToCapacity) {
  micro::DedupState from;
  seed_dedup(from, 1, 100);
  seed_dedup(from, 2, 200);
  seed_dedup(from, 3, 300);

  cactus::StateBag bag;
  micro::export_dedup_state(from, bag);

  micro::DedupState to;
  {
    MutexLock lk(to.mu);
    to.max_cache = 2;
  }
  micro::import_dedup_state(bag, to);
  MutexLock lk(to.mu);
  ASSERT_EQ(to.cache.size(), 2u);
  EXPECT_EQ(to.cache.count(1), 0u);  // FIFO-oldest evicted
  EXPECT_EQ(to.cache.count(2), 1u);
  EXPECT_EQ(to.cache.count(3), 1u);
}

TEST(StateHandoff, DedupInflightMapIsNotExported) {
  // A swap runs at quiescence; in-flight residue belongs to abandoned
  // requests and must not travel.
  micro::DedupState from;
  seed_dedup(from, 1, 100);
  {
    MutexLock lk(from.mu);
    from.inflight.emplace(7, nullptr);
  }
  cactus::StateBag bag;
  micro::export_dedup_state(from, bag);

  micro::DedupState to;
  micro::import_dedup_state(bag, to);
  MutexLock lk(to.mu);
  EXPECT_EQ(to.cache.size(), 1u);
  EXPECT_TRUE(to.inflight.empty());
}

// --- state handoff: retransmit windows --------------------------------------

TEST(StateHandoff, RetrySlotsCountUpThenExhaust) {
  micro::RetransmitState state;
  EXPECT_EQ(micro::consume_retry_slot(state, 42, 0, 2), 1);
  EXPECT_EQ(micro::consume_retry_slot(state, 42, 0, 2), 2);
  EXPECT_EQ(micro::consume_retry_slot(state, 42, 0, 2), 0);  // exhausted
}

TEST(StateHandoff, RetryBudgetIsPerReplica) {
  micro::RetransmitState state;
  EXPECT_EQ(micro::consume_retry_slot(state, 42, 0, 1), 1);
  EXPECT_EQ(micro::consume_retry_slot(state, 42, 0, 1), 0);
  EXPECT_EQ(micro::consume_retry_slot(state, 42, 1, 1), 1);  // other replica
}

TEST(StateHandoff, RetryBudgetSurvivesExportImport) {
  // The reconfiguration acceptance property: a swap must not refund retry
  // budget a request already spent.
  micro::RetransmitState from;
  EXPECT_EQ(micro::consume_retry_slot(from, 42, 0, 2), 1);

  cactus::StateBag bag;
  micro::export_retransmit_state(from, bag);
  micro::RetransmitState to;
  micro::import_retransmit_state(bag, to);

  EXPECT_EQ(micro::consume_retry_slot(to, 42, 0, 2), 2);  // continues, not 1
  EXPECT_EQ(micro::consume_retry_slot(to, 42, 0, 2), 0);
  // A fresh request id starts a fresh window.
  EXPECT_EQ(micro::consume_retry_slot(to, 43, 0, 2), 1);
}

TEST(StateHandoff, RetransmitExportMergesByMaxSlotsUsed) {
  micro::RetransmitState a, b;
  EXPECT_EQ(micro::consume_retry_slot(a, 42, 0, 8), 1);
  EXPECT_EQ(micro::consume_retry_slot(b, 42, 0, 8), 1);
  EXPECT_EQ(micro::consume_retry_slot(b, 42, 0, 8), 2);

  cactus::StateBag bag;
  micro::export_retransmit_state(a, bag);  // 1 slot used
  micro::export_retransmit_state(b, bag);  // 2 slots used -> max wins

  micro::RetransmitState to;
  micro::import_retransmit_state(bag, to);
  EXPECT_EQ(micro::consume_retry_slot(to, 42, 0, 8), 3);
}

TEST(StateHandoff, RetransmitWindowFifoIsBounded) {
  micro::RetransmitState state;
  {
    MutexLock lk(state.mu);
    state.max_windows = 2;
  }
  EXPECT_EQ(micro::consume_retry_slot(state, 1, 0, 8), 1);
  EXPECT_EQ(micro::consume_retry_slot(state, 2, 0, 8), 1);
  EXPECT_EQ(micro::consume_retry_slot(state, 3, 0, 8), 1);  // evicts id 1
  MutexLock lk(state.mu);
  EXPECT_LE(state.used.size(), 2u);
  EXPECT_EQ(state.used.count({1, 0}), 0u);
}

// --- ConfigRevision ----------------------------------------------------------

TEST(ConfigRevisionTest, RoundTripsRevisionAndProvenance) {
  ConfigRevision rev;
  rev.revision = 42;
  rev.provenance = "unit-test";
  rev.config.add(Side::kClient, "retransmit", {{"retries", "3"}});

  ConfigRevision back = ConfigRevision::parse(rev.serialize());
  EXPECT_EQ(back.revision, 42u);
  EXPECT_EQ(back.provenance, "unit-test");
  ASSERT_EQ(back.config.client.size(), 1u);
  EXPECT_EQ(back.config.client[0].name, "retransmit");
  EXPECT_EQ(back.config.client[0].param("retries"), "3");
}

TEST(ConfigRevisionTest, BareConfigTextParsesAsRevisionZero) {
  QosConfig cfg;
  cfg.add(Side::kServer, "dedup");
  ConfigRevision rev = ConfigRevision::parse(cfg.serialize());
  EXPECT_EQ(rev.revision, 0u);
  EXPECT_TRUE(rev.provenance.empty());
  ASSERT_EQ(rev.config.server.size(), 1u);
  EXPECT_EQ(rev.config.server[0].name, "dedup");
}

TEST(ConfigRevisionTest, HeadersAreCommentsToLegacyParsers) {
  ConfigRevision rev;
  rev.revision = 7;
  rev.config.add(Side::kClient, "retransmit");
  QosConfig legacy = QosConfig::parse(rev.serialize());
  ASSERT_EQ(legacy.client.size(), 1u);
  EXPECT_EQ(legacy.client[0].name, "retransmit");
}

TEST(ConfigRevisionTest, MalformedRevisionHeaderThrows) {
  EXPECT_THROW(ConfigRevision::parse("# revision: banana\n"), ConfigError);
}

// --- config service revision monotonicity ------------------------------------

std::uint64_t service_revision(ConfigServiceServant& svc) {
  Value text = svc.dispatch("get", {Value("alice"), Value("bank")});
  return ConfigRevision::parse(text.as_string()).revision;
}

TEST(ConfigServiceRevision, PutBumpsAndVersionedPutJumpsNeverBackwards) {
  ConfigServiceServant svc;
  QosConfig cfg;
  cfg.add(Side::kClient, "retransmit");

  svc.dispatch("put", {Value("alice"), Value("bank"), Value(cfg.serialize())});
  EXPECT_EQ(service_revision(svc), 1u);

  svc.dispatch("put", {Value("alice"), Value("bank"), Value(cfg.serialize())});
  EXPECT_EQ(service_revision(svc), 2u);

  ConfigRevision pushed;
  pushed.revision = 10;
  pushed.config = cfg;
  svc.dispatch("put",
               {Value("alice"), Value("bank"), Value(pushed.serialize())});
  EXPECT_EQ(service_revision(svc), 10u);  // jumps forward

  svc.dispatch("put", {Value("alice"), Value("bank"), Value(cfg.serialize())});
  EXPECT_EQ(service_revision(svc), 11u);

  pushed.revision = 5;  // stale push cannot move it backwards
  svc.dispatch("put",
               {Value("alice"), Value("bank"), Value(pushed.serialize())});
  EXPECT_EQ(service_revision(svc), 12u);
}

// --- endpoint handles on a live cluster --------------------------------------

sim::ClusterOptions small_cluster_options(int replicas = 1) {
  sim::ClusterOptions opts;
  opts.platform = sim::PlatformKind::kRmi;
  opts.level = sim::InterceptionLevel::kFull;
  opts.num_replicas = replicas;
  opts.net.base_latency = us(80);
  opts.net.jitter = 0;
  opts.servant_factory = [] {
    return std::make_shared<sim::BankAccountServant>();
  };
  opts.qos.add(Side::kClient, "retransmit", {{"retries", "4"}})
      .add(Side::kServer, "dedup");
  return opts;
}

TEST(EndpointRevision, ReconfigureAdvancesMonotonically) {
  sim::Cluster cluster(small_cluster_options());
  auto client = cluster.make_client();
  QosEndpoint::ClientHandle& handle = client->endpoint();
  EXPECT_EQ(handle.config_revision(), 1u);

  ReconfigReport report =
      handle.reconfigure(std::vector<MicroProtocolSpec>{{"retransmit"}});
  EXPECT_EQ(report.revision, 2u);
  EXPECT_EQ(handle.config_revision(), 2u);
  EXPECT_FALSE(report.rolled_back);

  // A revision-gated push applies only when strictly newer, and adopts the
  // pushed revision id.
  ConfigRevision push;
  push.revision = 10;
  push.config.add(Side::kClient, "retransmit", {{"retries", "2"}});
  EXPECT_TRUE(handle.reconfigure(push));
  EXPECT_EQ(handle.config_revision(), 10u);

  push.revision = 5;  // stale: no-op
  EXPECT_FALSE(handle.reconfigure(push));
  EXPECT_EQ(handle.config_revision(), 10u);
  ASSERT_EQ(handle.current_specs().size(), 1u);
  EXPECT_EQ(handle.current_specs()[0].param("retries"), "2");

  // The endpoint still serves after all of that.
  sim::BankAccountStub account(client->stub_ptr());
  account.set_balance(5);
  EXPECT_EQ(account.get_balance(), 5);
}

TEST(EndpointRevision, VerifierRejectedReconfigureLeavesTrafficUntouched) {
  sim::Cluster cluster(small_cluster_options());
  auto client = cluster.make_client();
  sim::BankAccountStub account(client->stub_ptr());
  account.set_balance(7);

  // Side-local conflict: the verifier rejects before the gate is touched.
  try {
    client->endpoint().reconfigure(
        std::vector<MicroProtocolSpec>{{"passive_rep"}, {"active_rep"}});
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("failed composition verification"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(client->endpoint().config_revision(), 1u);
  ASSERT_EQ(client->endpoint().current_specs().size(), 1u);
  EXPECT_EQ(client->endpoint().current_specs()[0].name, "retransmit");
  EXPECT_EQ(account.get_balance(), 7);
}

TEST(EndpointRevision, InstallFailureRollsBackToPriorComposition) {
  sim::Cluster cluster(small_cluster_options());
  auto client = cluster.make_client();
  sim::BankAccountStub account(client->stub_ptr());
  account.set_balance(9);

  // "zz" is not valid hex: passes the manifest-level verifier, throws from
  // the factory at install time — the rollback path, not the reject path.
  EXPECT_THROW(cluster.server_handle(0).reconfigure(
                   std::vector<MicroProtocolSpec>{
                       {"des_privacy", {{"key", "zz"}}}, {"dedup"}}),
               ConfigError);
  EXPECT_EQ(cluster.server_handle(0).config_revision(), 1u);
  ASSERT_EQ(cluster.server_handle(0).current_specs().size(), 1u);
  EXPECT_EQ(cluster.server_handle(0).current_specs()[0].name, "dedup");

  // The rolled-back server still serves its prior revision.
  EXPECT_EQ(account.get_balance(), 9);
  account.deposit(100);
  EXPECT_EQ(account.get_balance(), 109);
}

TEST(EndpointRevision, ServerSwapKeepsServingWithAtMostOnceIntact) {
  sim::Cluster cluster(small_cluster_options());
  auto client = cluster.make_client();
  sim::BankAccountStub account(client->stub_ptr());
  account.set_balance(0);
  account.deposit(11);
  account.deposit(22);

  ReconfigReport report = cluster.reconfigure_server(
      0, {{"admission", {{"max_pending", "256"}}}, {"dedup"}});
  EXPECT_EQ(report.revision, 2u);
  EXPECT_FALSE(report.rolled_back);

  account.deposit(33);
  EXPECT_EQ(account.get_balance(), 66);

  auto& servant =
      dynamic_cast<sim::BankAccountServant&>(cluster.servant(0));
  std::vector<std::int64_t> log = servant.deposit_log();
  std::set<std::int64_t> unique(log.begin(), log.end());
  EXPECT_EQ(unique.size(), log.size()) << "a deposit was applied twice";
  EXPECT_EQ(log.size(), 3u);
}

// --- advertised config + watcher ---------------------------------------------

ConfigRevision advertised_revision(std::uint64_t n) {
  ConfigRevision rev;
  rev.revision = n;
  rev.provenance = "test-advertiser";
  rev.config.add(Side::kClient, "retransmit", {{"retries", "4"}});
  return rev;
}

TEST(AdvertisedConfigTest, UpdateIsRevisionGated) {
  sim::Cluster cluster(small_cluster_options(2));
  advertise_config(*cluster.cactus_server(0), advertised_revision(1));

  EXPECT_FALSE(update_advertised_config(*cluster.cactus_server(0),
                                        advertised_revision(1)));  // duplicate
  EXPECT_TRUE(update_advertised_config(*cluster.cactus_server(0),
                                       advertised_revision(2)));
  EXPECT_FALSE(update_advertised_config(*cluster.cactus_server(0),
                                        advertised_revision(2)));  // stale now
  // Nothing was ever advertised on replica 1.
  EXPECT_FALSE(update_advertised_config(*cluster.cactus_server(1),
                                        advertised_revision(9)));

  auto client = cluster.make_client();
  ConfigRevision fetched = fetch_config_revision(
      client->platform(), cluster.options().object_id, 1, ms(500));
  EXPECT_EQ(fetched.revision, 2u);
  EXPECT_EQ(fetched.provenance, "test-advertiser");
}

TEST(AdvertisedConfigTest, WatcherSeesPushedRevision) {
  sim::Cluster cluster(small_cluster_options());
  advertise_config(*cluster.cactus_server(0), advertised_revision(1));
  auto client = cluster.make_client();

  CountdownLatch saw_push(1);
  ConfigWatcher watcher(client->platform(), cluster.options().object_id, 1,
                        ms(25), [&](const ConfigRevision& rev) {
                          if (rev.revision >= 2) saw_push.count_down();
                        });
  ASSERT_TRUE(update_advertised_config(*cluster.cactus_server(0),
                                       advertised_revision(2)));
  saw_push.wait();
  EXPECT_GE(watcher.last_revision(), 2u);
  watcher.stop();
}

// --- registration-last naming contract ---------------------------------------

class NamingContractTest : public ::testing::Test {
 protected:
  NamingContractTest()
      : net_(net::NetConfig{}),
        registry_(net_, "nameserver"),
        server_platform_(net_, "server0", rmi_config()),
        client_platform_(net_, "client0", rmi_config()) {
    micro::register_standard_micro_protocols();
  }

  static rmi::RmiConfig rmi_config() {
    rmi::RmiConfig cfg;
    cfg.registry_host = "nameserver";
    return cfg;
  }

  bool resolvable(const std::string& name) {
    try {
      client_platform_.resolve(name, ms(200));
      return true;
    } catch (const Error&) {
      return false;
    }
  }

  net::SimNetwork net_;
  rmi::Registry registry_;
  rmi::RmiRuntime server_platform_;
  rmi::RmiRuntime client_platform_;
};

TEST_F(NamingContractTest, FailedBuildsLeaveNoNameBehind) {
  auto servant = std::make_shared<sim::BankAccountServant>();

  // Learn the registered name from a good build, then free it again.
  std::string name;
  {
    auto good = QosEndpoint::server(server_platform_, servant, "BankAccount")
                    .qos({{"dedup"}})
                    .build();
    name = good->registered_name();
    ASSERT_TRUE(resolvable(name));
    good->close();
  }
  EXPECT_FALSE(resolvable(name)) << "close() must unregister " << name;

  // A build the verifier rejects never registers.
  EXPECT_THROW(QosEndpoint::server(server_platform_, servant, "BankAccount")
                   .qos({{"access_control"}})  // missing required 'allow'
                   .build(),
               ConfigError);
  EXPECT_FALSE(resolvable(name));

  // A build that passes verification but fails at install time (bad hex
  // key throws from the factory) never registers either: registration is
  // strictly the last step.
  EXPECT_THROW(QosEndpoint::server(server_platform_, servant, "BankAccount")
                   .qos({{"des_privacy", {{"key", "zz"}}}})
                   .build(),
               ConfigError);
  EXPECT_FALSE(resolvable(name));

  // The name is still free for the next good build.
  auto again = QosEndpoint::server(server_platform_, servant, "BankAccount")
                   .qos({{"dedup"}})
                   .build();
  EXPECT_EQ(again->registered_name(), name);
  EXPECT_TRUE(resolvable(name));
  again->close();
  EXPECT_FALSE(resolvable(name));
}

// --- reconfiguring chaos soak ------------------------------------------------

soak::SoakOptions reconfig_soak_options(int every,
                                        std::vector<std::string> cycle,
                                        bool start_plain = false) {
  soak::SoakOptions opts;
  opts.reconfigure_every = every;
  opts.reconfig_cycle = std::move(cycle);
  opts.start_plain = start_plain;
  return opts;
}

/// Every ordered pair of soak configs, hot-swapped mid-run under the
/// latency-quake profile (sound for all four compositions, total-order
/// included). One PASS here means: zero invariant violations while the
/// whole cluster — replicas first, then clients — swaps stacks under load.
using ConfigPair = std::pair<std::string, std::string>;

class ReconfigMatrix : public ::testing::TestWithParam<ConfigPair> {};

TEST_P(ReconfigMatrix, SwapUnderLatencyQuakeHoldsInvariants) {
  const auto& [from, to] = GetParam();
  soak::SoakOutcome out = soak::run_soak(
      from, "latency-quake", /*seed=*/1,
      reconfig_soak_options(10, {to, from}));
  EXPECT_TRUE(out.ok()) << out.summary() << "\nrepro: " << out.repro();
  EXPECT_GT(out.acked, 0);
}

std::vector<ConfigPair> all_config_pairs() {
  std::vector<ConfigPair> pairs;
  for (const std::string& from : soak::soak_configs()) {
    for (const std::string& to : soak::soak_configs()) {
      if (from != to) pairs.emplace_back(from, to);
    }
  }
  return pairs;
}

std::string pair_name(const ::testing::TestParamInfo<ConfigPair>& info) {
  std::string n = info.param.first + "_to_" + info.param.second;
  std::replace(n.begin(), n.end(), '-', '_');
  return n;
}

INSTANTIATE_TEST_SUITE_P(AllPairs, ReconfigMatrix,
                         ::testing::ValuesIn(all_config_pairs()), pair_name);

TEST(ReconfigSoak, PlainToSecuredUnderDuplicateFlood) {
  // The paper's plain → customized transition: serve with base-only stacks,
  // hot-swap the security composition in under live traffic, then survive
  // a duplicate flood across further swaps.
  soak::SoakOutcome out = soak::run_soak(
      "retransmit-dedup", "dup-flood", /*seed=*/1,
      reconfig_soak_options(8, {"secured-passive", "retransmit-dedup"},
                            /*start_plain=*/true));
  EXPECT_TRUE(out.ok()) << out.summary() << "\nrepro: " << out.repro();
}

TEST(ReconfigSoak, MixedMayhemAcrossThreeCompositions) {
  soak::SoakOutcome out = soak::run_soak(
      "retransmit-dedup", "mixed-mayhem", /*seed=*/2,
      reconfig_soak_options(
          10, {"passive-rep", "secured-passive", "retransmit-dedup"}));
  EXPECT_TRUE(out.ok()) << out.summary() << "\nrepro: " << out.repro();
}

TEST(ReconfigSoak, TotalOrderSelfCycleUnderDuplicateFlood) {
  soak::SoakOutcome out = soak::run_soak("active-total", "dup-flood",
                                         /*seed=*/3,
                                         reconfig_soak_options(12, {}));
  EXPECT_TRUE(out.ok()) << out.summary() << "\nrepro: " << out.repro();
}

}  // namespace
}  // namespace cqos
