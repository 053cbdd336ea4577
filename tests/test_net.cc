#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/sync.h"
#include "net/fault.h"
#include "net/sim_network.h"

namespace cqos::net {
namespace {

NetConfig fast_config() {
  NetConfig cfg;
  cfg.base_latency = us(200);
  cfg.per_byte = std::chrono::nanoseconds(10);
  cfg.loopback_latency = us(20);
  cfg.jitter = 0;
  return cfg;
}

TEST(SimNetwork, DeliversAfterLatency) {
  SimNetwork net(fast_config());
  auto a = net.create_endpoint("hostA/x");
  auto b = net.create_endpoint("hostB/y");
  TimePoint before = now();
  ASSERT_TRUE(net.send("hostA/x", "hostB/y", Bytes{1, 2, 3}));
  auto msg = b->recv(ms(1000));
  ASSERT_TRUE(msg.has_value());
  EXPECT_GE(now() - before, us(200));
  EXPECT_EQ(msg->payload, (Bytes{1, 2, 3}));
  EXPECT_EQ(msg->from, "hostA/x");
  (void)a;
}

TEST(SimNetwork, RecvTimesOutWhenSilent) {
  SimNetwork net(fast_config());
  auto a = net.create_endpoint("hostA/x");
  TimePoint before = now();
  EXPECT_FALSE(a->recv(ms(30)).has_value());
  EXPECT_GE(now() - before, ms(30));
}

TEST(SimNetwork, FifoPerDestination) {
  SimNetwork net(fast_config());
  auto a = net.create_endpoint("hostA/x");
  auto b = net.create_endpoint("hostB/y");
  (void)a;
  // A large message (slower) then a tiny one: delivery must stay FIFO.
  net.send("hostA/x", "hostB/y", Bytes(4096, 1));
  net.send("hostA/x", "hostB/y", Bytes{2});
  auto first = b->recv(ms(1000));
  auto second = b->recv(ms(1000));
  ASSERT_TRUE(first && second);
  EXPECT_EQ(first->payload.size(), 4096u);
  EXPECT_EQ(second->payload.size(), 1u);
}

TEST(SimNetwork, UnknownDestinationDropped) {
  SimNetwork net(fast_config());
  net.create_endpoint("hostA/x");
  EXPECT_FALSE(net.send("hostA/x", "nowhere/z", Bytes{1}));
}

TEST(SimNetwork, DuplicateEndpointIdRejected) {
  SimNetwork net(fast_config());
  net.create_endpoint("hostA/x");
  EXPECT_THROW(net.create_endpoint("hostA/x"), Error);
}

TEST(SimNetwork, RemoveEndpointClosesIt) {
  SimNetwork net(fast_config());
  auto a = net.create_endpoint("hostA/x");
  net.remove_endpoint("hostA/x");
  EXPECT_TRUE(a->closed());
  EXPECT_FALSE(a->recv(ms(10)).has_value());
  // The id can be reused afterwards.
  auto again = net.create_endpoint("hostA/x");
  EXPECT_FALSE(again->closed());
}

TEST(SimNetwork, CrashedHostDropsTraffic) {
  SimNetwork net(fast_config());
  auto a = net.create_endpoint("hostA/x");
  auto b = net.create_endpoint("hostB/y");
  (void)a;
  net.faults().crash_host("hostB");
  EXPECT_TRUE(net.faults().is_crashed("hostB"));
  EXPECT_FALSE(net.send("hostA/x", "hostB/y", Bytes{1}));
  EXPECT_FALSE(b->recv(ms(20)).has_value());
  // Crashed hosts cannot send either.
  EXPECT_FALSE(net.send("hostB/y", "hostA/x", Bytes{1}));
}

TEST(SimNetwork, CrashLosesQueuedMessages) {
  SimNetwork net(fast_config());
  auto a = net.create_endpoint("hostA/x");
  auto b = net.create_endpoint("hostB/y");
  (void)a;
  net.send("hostA/x", "hostB/y", Bytes{1});  // in flight
  net.faults().crash_host("hostB");
  EXPECT_FALSE(b->recv(ms(50)).has_value());
}

// A crash takes the in-flight message off its destination's pending queue,
// and that loss is counted as in virtual time.
TEST(SimNetwork, RealTimeCrashCountsThePendingMessageItDrops) {
  metrics::Registry reg;
  NetConfig cfg = fast_config();
  cfg.base_latency = ms(200);
  cfg.metrics = &reg;
  SimNetwork net(cfg);
  net.create_endpoint("hostA/x");
  auto b = net.create_endpoint("hostB/y");
  ASSERT_TRUE(net.send("hostA/x", "hostB/y", Bytes{1}));  // in flight
  net.faults().crash_host("hostB");
  net.faults().recover_host("hostB");
  EXPECT_FALSE(b->recv(ms(400)).has_value());
  EXPECT_EQ(reg.counter("net.vdeliver.refused").value(), 1u);
}

// Regression for the deposit-after-crash race: send() validates crash state
// under mu_ but deposits after releasing it, so a crash_host() sneaking into
// that window used to land a message on an already-crashed host. The tap runs
// exactly inside the window, which lets the test hold the sender there
// deterministically.
TEST(SimNetwork, DepositAfterCrashRefused) {
  SimNetwork net(fast_config());
  net.create_endpoint("hostA/x");
  auto b = net.create_endpoint("hostB/y");
  Gate in_window, resume;
  net.set_tap([&](const Message&) {
    in_window.set();
    resume.wait();
  });
  std::thread sender([&] {
    EXPECT_TRUE(net.send("hostA/x", "hostB/y", Bytes{7}));
  });
  ASSERT_TRUE(in_window.wait_for(ms(5000)));  // validated, not yet deposited
  net.faults().crash_host("hostB");  // guarantees no later delivery
  resume.set();
  sender.join();
  EXPECT_FALSE(b->recv(ms(50)).has_value());
}

// Chaos variant of the same race: many senders hammer a host that crashes
// mid-storm. Once crash_host() returns, nothing may arrive — not even sends
// that had already passed validation.
TEST(SimNetwork, CrashStormNeverDeliversAfterCrash) {
  NetConfig cfg = fast_config();
  cfg.base_latency = us(20);
  SimNetwork net(cfg);
  auto b = net.create_endpoint("hostB/y");
  constexpr int kSenders = 4;
  std::atomic<bool> stop{false};
  std::vector<std::thread> senders;
  for (int i = 0; i < kSenders; ++i) {
    net.create_endpoint("hostA/s" + std::to_string(i));
    senders.emplace_back([&net, i, &stop] {
      std::string from = "hostA/s" + std::to_string(i);
      while (!stop.load()) net.send(from, "hostB/y", Bytes{1});
    });
  }
  while (!b->recv(ms(1000)).has_value()) {
  }  // storm is flowing
  net.faults().crash_host("hostB");
  EXPECT_FALSE(b->recv(ms(100)).has_value());
  stop.store(true);
  for (auto& t : senders) t.join();
  EXPECT_FALSE(b->recv(ms(50)).has_value());
}

// Regression for the FIFO-clamp leak: remove_endpoint must drop the
// per-destination clamp entry, or endpoint churn grows the map forever.
TEST(SimNetwork, RemoveEndpointPrunesFifoClamp) {
  SimNetwork net(fast_config());
  net.create_endpoint("hostA/x");
  for (int i = 0; i < 10; ++i) {
    std::string id = "hostB/y" + std::to_string(i);
    auto ep = net.create_endpoint(id);
    ASSERT_TRUE(net.send("hostA/x", id, Bytes{1}));
    ASSERT_TRUE(ep->recv(ms(1000)).has_value());
    net.remove_endpoint(id);
  }
  EXPECT_EQ(net.fifo_clamp_entries(), 0u);
}

TEST(SimNetwork, MetricsCountSendsAndDrops) {
  metrics::Registry reg;
  NetConfig cfg = fast_config();
  cfg.metrics = &reg;
  SimNetwork net(cfg);
  net.create_endpoint("hostA/x");
  auto b = net.create_endpoint("hostB/y");
  ASSERT_TRUE(net.send("hostA/x", "hostB/y", Bytes(10, 0)));
  ASSERT_TRUE(net.send("hostA/x", "hostB/y", Bytes(5, 0)));
  ASSERT_TRUE(b->recv(ms(1000)).has_value());
  ASSERT_TRUE(b->recv(ms(1000)).has_value());
  EXPECT_FALSE(net.send("hostA/x", "nowhere/z", Bytes{1}));
  net.faults().partition("hostA", "hostB");
  EXPECT_FALSE(net.send("hostA/x", "hostB/y", Bytes{1}));

  EXPECT_EQ(reg.counter("net.sent.msgs").value(), 2u);
  EXPECT_EQ(reg.counter("net.sent.bytes").value(), 15u);
  EXPECT_EQ(reg.counter("net.pair.hostA:hostB.msgs").value(), 2u);
  EXPECT_EQ(reg.counter("net.pair.hostA:hostB.bytes").value(), 15u);
  EXPECT_EQ(reg.counter("net.drop.unknown_dest").value(), 1u);
  EXPECT_EQ(reg.counter("net.drop.partition").value(), 1u);
  EXPECT_EQ(reg.counter("net.pair.hostA:hostB.drops").value(), 1u);
}

TEST(SimNetwork, RecoveredHostReceivesAgain) {
  SimNetwork net(fast_config());
  auto a = net.create_endpoint("hostA/x");
  auto b = net.create_endpoint("hostB/y");
  (void)a;
  net.faults().crash_host("hostB");
  net.faults().recover_host("hostB");
  EXPECT_FALSE(net.faults().is_crashed("hostB"));
  ASSERT_TRUE(net.send("hostA/x", "hostB/y", Bytes{7}));
  auto msg = b->recv(ms(1000));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, Bytes{7});
}

TEST(SimNetwork, PartitionBlocksBothDirectionsUntilHealed) {
  SimNetwork net(fast_config());
  auto a = net.create_endpoint("hostA/x");
  auto b = net.create_endpoint("hostB/y");
  net.faults().partition("hostA", "hostB");
  EXPECT_FALSE(net.send("hostA/x", "hostB/y", Bytes{1}));
  EXPECT_FALSE(net.send("hostB/y", "hostA/x", Bytes{1}));
  net.faults().heal("hostA", "hostB");
  EXPECT_TRUE(net.send("hostA/x", "hostB/y", Bytes{1}));
  EXPECT_TRUE(b->recv(ms(1000)).has_value());
  (void)a;
}

TEST(SimNetwork, DropRateLosesRoughlyThatFraction) {
  NetConfig cfg = fast_config();
  cfg.seed = 7;
  SimNetwork net(cfg);
  net.faults().set_drop_rate(0.5);
  net.create_endpoint("hostA/x");
  net.create_endpoint("hostB/y");
  int delivered = 0;
  for (int i = 0; i < 400; ++i) {
    if (net.send("hostA/x", "hostB/y", Bytes{1})) ++delivered;
  }
  EXPECT_GT(delivered, 120);
  EXPECT_LT(delivered, 280);
}

TEST(SimNetwork, LoopbackFasterThanRemote) {
  SimNetwork net(fast_config());
  auto a = net.create_endpoint("hostA/x");
  auto local = net.create_endpoint("hostA/y");
  auto remote = net.create_endpoint("hostB/y");
  (void)a;
  // Wall-clock timings on a busy machine are noisy; compare the minimum
  // over several samples, which tracks the simulated latency floor.
  auto min_latency = [&](const std::string& to,
                         const std::shared_ptr<Endpoint>& sink) -> Duration {
    Duration best = ms(1000);
    for (int i = 0; i < 20; ++i) {
      TimePoint before = now();
      net.send("hostA/x", to, Bytes{1});
      EXPECT_TRUE(sink->recv(ms(1000)).has_value());
      best = std::min(best, now() - before);
    }
    return best;
  };
  Duration loopback = min_latency("hostA/y", local);
  Duration inter_host = min_latency("hostB/y", remote);
  EXPECT_LT(loopback, inter_host);
}

TEST(SimNetwork, TapObservesPayloads) {
  SimNetwork net(fast_config());
  net.create_endpoint("hostA/x");
  auto b = net.create_endpoint("hostB/y");
  std::atomic<int> tapped{0};
  net.set_tap([&](const Message& m) {
    EXPECT_EQ(m.to, "hostB/y");
    tapped.fetch_add(1);
  });
  net.send("hostA/x", "hostB/y", Bytes{1});
  ASSERT_TRUE(b->recv(ms(1000)).has_value());
  EXPECT_EQ(tapped.load(), 1);
}

TEST(SimNetwork, CountersAdvance) {
  SimNetwork net(fast_config());
  net.create_endpoint("hostA/x");
  net.create_endpoint("hostB/y");
  net.send("hostA/x", "hostB/y", Bytes(10, 0));
  net.send("hostA/x", "hostB/y", Bytes(5, 0));
  EXPECT_EQ(net.messages_sent(), 2u);
  EXPECT_EQ(net.bytes_sent(), 15u);
}

TEST(SimNetwork, HostOfParsesPrefix) {
  EXPECT_EQ(SimNetwork::host_of("alpha/orb0"), "alpha");
  EXPECT_EQ(SimNetwork::host_of("bare"), "bare");
}

TEST(SimNetwork, ConcurrentSendersAllDeliver) {
  SimNetwork net(fast_config());
  auto sink = net.create_endpoint("sinkhost/in");
  constexpr int kSenders = 4, kEach = 50;
  std::vector<std::thread> threads;
  for (int s = 0; s < kSenders; ++s) {
    net.create_endpoint("src" + std::to_string(s) + "/out");
    threads.emplace_back([&net, s] {
      for (int i = 0; i < kEach; ++i) {
        net.send("src" + std::to_string(s) + "/out", "sinkhost/in", Bytes{1});
      }
    });
  }
  for (auto& t : threads) t.join();
  int received = 0;
  while (sink->recv(ms(200)).has_value()) ++received;
  EXPECT_EQ(received, kSenders * kEach);
}

// --- RNG stream split regressions --------------------------------------------
// Jitter and fault decisions each come from per-sender streams seeded with
// NetConfig::seed. These pin the single-sender sequences to the pre-split
// shared-Rng behaviour (one Rng(seed) consumed in traffic order) and verify
// sender independence — the property the split buys.

TEST(SimNetworkRngSplit, SingleSenderDropSequenceMatchesSeededRng) {
  constexpr std::uint64_t kSeed = 7;
  constexpr double kDrop = 0.5;
  constexpr int kSends = 200;
  NetConfig cfg = fast_config();
  cfg.seed = kSeed;
  SimNetwork net(cfg);
  net.faults().set_drop_rate(kDrop);
  auto dst = net.create_endpoint("hostB/y");
  std::vector<bool> got;
  for (int i = 0; i < kSends; ++i) {
    got.push_back(net.send("hostA/x", "hostB/y", Bytes{1}));
  }
  // Pre-split reference: one shared Rng(seed), one next_bool(drop) per
  // inter-host message.
  Rng ref(kSeed);
  std::vector<bool> want;
  for (int i = 0; i < kSends; ++i) want.push_back(!ref.next_bool(kDrop));
  EXPECT_EQ(got, want);
  (void)dst;
}

TEST(SimNetworkRngSplit, SingleSenderJitterSequenceMatchesSeededRng) {
  constexpr std::uint64_t kSeed = 13;
  constexpr int kSends = 50;
  NetConfig cfg;
  cfg.seed = kSeed;
  cfg.jitter = 0.25;
  cfg.time_mode = TimeMode::kVirtual;  // deliver_at is exact virtual latency
  SimNetwork net(cfg);
  auto dst = net.create_endpoint("hostB/y");
  std::vector<TimePoint> stamps;
  net.set_tap([&](const Message& m) { stamps.push_back(m.deliver_at); });
  for (int i = 0; i < kSends; ++i) {
    ASSERT_TRUE(net.send("hostA/x", "hostB/y", Bytes(16, 0)));
  }
  ASSERT_EQ(stamps.size(), static_cast<std::size_t>(kSends));
  // Pre-split reference: one shared Rng(seed), one next_double per message.
  Rng ref(kSeed);
  Duration base = cfg.base_latency + cfg.per_byte * 16;
  for (int i = 0; i < kSends; ++i) {
    double j = ref.next_double() * cfg.jitter;
    Duration want = base + std::chrono::duration_cast<Duration>(
                               std::chrono::duration<double>(
                                   std::chrono::duration<double>(base).count() * j));
    // Sent at virtual t=0 with no clamp interference beyond monotonicity;
    // jitter >= 0 keeps the sequence non-decreasing only per coincidence,
    // so compare against the unclamped expectation via max-so-far.
    TimePoint unclamped = TimePoint{} + want;
    TimePoint expect = i == 0 ? unclamped : std::max(stamps[i - 1], unclamped);
    EXPECT_EQ(stamps[i], expect) << "jitter draw " << i << " diverged";
  }
  (void)dst;
}

TEST(SimNetworkRngSplit, SenderSequencesIndependentOfOtherSenders) {
  constexpr std::uint64_t kSeed = 21;
  constexpr double kDrop = 0.4;
  constexpr int kSends = 120;
  auto run = [&](bool with_b) {
    NetConfig cfg = fast_config();
    cfg.seed = kSeed;
    SimNetwork net(cfg);
    net.faults().set_drop_rate(kDrop);
    auto dst = net.create_endpoint("hostC/z");
    std::vector<bool> a_outcomes;
    for (int i = 0; i < kSends; ++i) {
      if (with_b) {
        // Interleave another sender's traffic; pre-split this shifted A's
        // draws, post-split it must not.
        net.send("hostB/other", "hostC/z", Bytes{2});
      }
      a_outcomes.push_back(net.send("hostA/x", "hostC/z", Bytes{1}));
    }
    (void)dst;
    return a_outcomes;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(SimNetworkRngSplit, PairCountersSurviveEndpointChurn) {
  // The cached per-pair metric handles must keep counting across endpoint
  // remove/recreate cycles (handles cache counters, not endpoints).
  metrics::Registry reg;
  NetConfig cfg = fast_config();
  cfg.metrics = &reg;
  SimNetwork net(cfg);
  for (int round = 0; round < 3; ++round) {
    auto ep = net.create_endpoint("hostB/y");
    ASSERT_TRUE(net.send("hostA/x", "hostB/y", Bytes{1, 2}));
    ASSERT_TRUE(ep->recv(ms(1000)).has_value());
    net.remove_endpoint("hostB/y");
    EXPECT_FALSE(net.send("hostA/x", "hostB/y", Bytes{3}));
  }
  EXPECT_EQ(reg.counter("net.pair.hostA:hostB.msgs").value(), 3u);
  EXPECT_EQ(reg.counter("net.pair.hostA:hostB.bytes").value(), 6u);
  EXPECT_EQ(reg.counter("net.pair.hostA:hostB.drops").value(), 3u);
  EXPECT_EQ(reg.counter("net.drop.unknown_dest").value(), 3u);
}

// --- push delivery -----------------------------------------------------------

NetConfig zero_latency_config() {
  NetConfig cfg;
  cfg.base_latency = Duration::zero();
  cfg.per_byte = Duration::zero();
  cfg.loopback_latency = Duration::zero();
  cfg.jitter = 0;
  return cfg;
}

/// Parks the simulator's delivery thread inside a handler until released,
/// so queued deliveries stay queued for as long as a test needs.
class DeliveryThreadBlocker {
 public:
  DeliveryThreadBlocker(SimNetwork& net, const std::string& from)
      : ep_(net.create_endpoint("blocker/b")) {
    ep_->set_handler([this](Message&&) {
      entered_.set();
      release_.wait();
    });
    // Remote (delayed) message: the delivery thread runs the handler.
    EXPECT_TRUE(net.send(from, "blocker/b", Bytes{0}));
    EXPECT_TRUE(entered_.wait_for(ms(2000))) << "delivery thread never ran";
  }
  ~DeliveryThreadBlocker() {
    release();
    ep_->close();  // waits for the handler to return
  }
  void release() { release_.set(); }

 private:
  std::shared_ptr<Endpoint> ep_;
  Gate entered_;
  Gate release_;
};

TEST(PushDelivery, CloseWaitsForRunningHandlerAndNoneStartsAfter) {
  SimNetwork net(zero_latency_config());
  auto a = net.create_endpoint("hostA/x");
  auto b = net.create_endpoint("hostB/y");
  Gate entered;
  Gate release;
  std::atomic<int> calls{0};
  b->set_handler([&](Message&&) {
    calls.fetch_add(1);
    entered.set();
    release.wait();
  });
  std::thread sender([&] { net.send("hostA/x", "hostB/y", Bytes{1}); });
  if (!entered.wait_for(ms(2000))) {
    sender.join();
    FAIL() << "handler never ran";
  }

  std::atomic<bool> close_returned{false};
  std::thread closer([&] {
    b->close();
    close_returned.store(true);
  });
  std::this_thread::sleep_for(ms(50));
  EXPECT_FALSE(close_returned.load()) << "close() returned mid-handler";
  release.set();
  closer.join();
  sender.join();
  EXPECT_TRUE(close_returned.load());

  for (int i = 0; i < 5; ++i) net.send("hostA/x", "hostB/y", Bytes{2});
  std::this_thread::sleep_for(ms(20));
  EXPECT_EQ(calls.load(), 1);
  (void)a;
}

TEST(PushDelivery, DueMessageRunsOnSenderThreadDelayedOneOnDeliveryThread) {
  {
    SimNetwork net(zero_latency_config());
    auto a = net.create_endpoint("hostA/x");
    auto b = net.create_endpoint("hostB/y");
    std::thread::id ran_on;
    b->set_handler([&](Message&&) { ran_on = std::this_thread::get_id(); });
    ASSERT_TRUE(net.send("hostA/x", "hostB/y", Bytes{1}));
    // Delivered before send() returned, on this thread.
    EXPECT_EQ(ran_on, std::this_thread::get_id());
    (void)a;
  }
  {
    SimNetwork net(fast_config());
    auto a = net.create_endpoint("hostA/x");
    auto b = net.create_endpoint("hostB/y");
    Gate done;
    std::thread::id ran_on;
    TimePoint due{};
    TimePoint ran_at{};
    b->set_handler([&](Message&& m) {
      ran_on = std::this_thread::get_id();
      ran_at = now();
      due = m.deliver_at;
      done.set();
    });
    ASSERT_TRUE(net.send("hostA/x", "hostB/y", Bytes{1}));
    ASSERT_TRUE(done.wait_for(ms(2000)));
    b->close();
    EXPECT_NE(ran_on, std::this_thread::get_id());
    EXPECT_GE(ran_at, due);
    (void)a;
  }
}

TEST(PushDelivery, DueMessageDoesNotOvertakeQueuedEarlierOne) {
  // Remote traffic is delayed, same-host traffic is due at once.
  NetConfig cfg = zero_latency_config();
  cfg.base_latency = us(200);
  SimNetwork net(cfg);
  auto remote = net.create_endpoint("hostA/x");
  auto local = net.create_endpoint("hostB/z");
  auto b = net.create_endpoint("hostB/y");
  Mutex mu;
  std::vector<int> order;
  b->set_handler([&](Message&& m) {
    MutexLock lk(mu);
    order.push_back(m.payload.at(0));
  });

  DeliveryThreadBlocker blocker(net, "hostA/x");
  ASSERT_TRUE(net.send("hostA/x", "hostB/y", Bytes{1}));  // queued
  std::this_thread::sleep_for(ms(2));  // now due, still queued
  ASSERT_TRUE(net.send("hostB/z", "hostB/y", Bytes{2}));  // due at once
  {
    MutexLock lk(mu);
    EXPECT_TRUE(order.empty()) << "the later message overtook the queued one";
  }
  blocker.release();
  for (int i = 0; i < 200; ++i) {
    {
      MutexLock lk(mu);
      if (order.size() == 2) break;
    }
    std::this_thread::sleep_for(ms(5));
  }
  b->close();
  MutexLock lk(mu);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  (void)remote;
  (void)local;
}

TEST(PushDelivery, CrashedHostHandlerNeverCalled) {
  NetConfig cfg = zero_latency_config();
  cfg.base_latency = us(200);
  SimNetwork net(cfg);
  auto a = net.create_endpoint("hostA/x");
  auto b = net.create_endpoint("hostB/y");
  std::atomic<int> calls{0};
  b->set_handler([&](Message&&) { calls.fetch_add(1); });

  // Crashed at send time: refused.
  net.faults().crash_host("hostB");
  EXPECT_FALSE(net.send("hostA/x", "hostB/y", Bytes{1}));
  net.faults().recover_host("hostB");

  // In flight across a crash: refused at delivery time, even though the
  // host recovered before the message came due.
  {
    DeliveryThreadBlocker blocker(net, "hostA/x");
    ASSERT_TRUE(net.send("hostA/x", "hostB/y", Bytes{2}));
    net.faults().crash_host("hostB");
    net.faults().recover_host("hostB");
  }
  std::this_thread::sleep_for(ms(20));
  EXPECT_EQ(calls.load(), 0);

  // After recovery, new traffic is delivered again.
  ASSERT_TRUE(net.send("hostA/x", "hostB/y", Bytes{3}));
  for (int i = 0; i < 200 && calls.load() == 0; ++i) {
    std::this_thread::sleep_for(ms(5));
  }
  b->close();
  EXPECT_EQ(calls.load(), 1);
  (void)a;
}

// Senders deliver inline (no endpoint lock) while the endpoint closes:
// once close() has returned, no handler call is running or starts.
TEST(PushDelivery, CloseRacingInlineDeliveriesWaitsForEveryCall) {
  for (int round = 0; round < 20; ++round) {
    SimNetwork net(zero_latency_config());
    auto b = net.create_endpoint("hostB/y");
    std::atomic<bool> close_returned{false};
    std::atomic<int> late{0};
    std::atomic<int> calls{0};
    b->set_handler([&](Message&&) {
      if (close_returned.load()) late.fetch_add(1);
      calls.fetch_add(1);
      TimePoint until = now() + us(20);
      while (now() < until) {
      }
      if (close_returned.load()) late.fetch_add(1);
    });
    std::atomic<bool> stop{false};
    std::vector<std::thread> senders;
    for (int t = 0; t < 3; ++t) {
      senders.emplace_back([&, t] {
        std::string from = "hostA/s" + std::to_string(t);
        while (!stop.load()) net.send(from, "hostB/y", Bytes{1});
      });
    }
    while (calls.load() < 50) std::this_thread::yield();
    b->close();
    close_returned.store(true);
    std::this_thread::sleep_for(ms(2));
    stop.store(true);
    for (auto& th : senders) th.join();
    EXPECT_EQ(late.load(), 0) << "round " << round;
    EXPECT_TRUE(b->closed());
  }
}

// A send resolves its route from a per-thread cache; creating or removing
// an endpoint invalidates it. A send after remove_endpoint() counts as
// unknown_dest, and a send after the id is re-created reaches the new one.
TEST(PushDelivery, CachedRouteFollowsRemoveAndReplace) {
  metrics::Registry reg;
  NetConfig cfg = zero_latency_config();
  cfg.metrics = &reg;
  SimNetwork net(cfg);
  std::atomic<int> old_calls{0};
  std::atomic<int> new_calls{0};
  auto old_ep = net.create_endpoint("hostB/y");
  old_ep->set_handler([&](Message&&) { old_calls.fetch_add(1); });
  ASSERT_TRUE(net.send("hostA/x", "hostB/y", Bytes{1}));  // route cached
  ASSERT_TRUE(net.send("hostA/x", "hostB/y", Bytes{2}));
  EXPECT_EQ(old_calls.load(), 2);

  net.remove_endpoint("hostB/y");
  EXPECT_FALSE(net.send("hostA/x", "hostB/y", Bytes{3}));
  EXPECT_EQ(reg.counter("net.drop.unknown_dest").value(), 1u);
  EXPECT_EQ(reg.counter("net.pair.hostA:hostB.drops").value(), 1u);

  auto new_ep = net.create_endpoint("hostB/y");
  new_ep->set_handler([&](Message&&) { new_calls.fetch_add(1); });
  EXPECT_TRUE(net.send("hostA/x", "hostB/y", Bytes{4}));
  EXPECT_EQ(new_calls.load(), 1);
  EXPECT_EQ(old_calls.load(), 2);
  EXPECT_EQ(reg.counter("net.sent.msgs").value(), 3u);
  EXPECT_EQ(reg.counter("net.pair.hostA:hostB.msgs").value(), 3u);

  // Another thread's cache resolves on its own.
  std::thread other(
      [&] { EXPECT_TRUE(net.send("hostA/z", "hostB/y", Bytes{5})); });
  other.join();
  EXPECT_EQ(new_calls.load(), 2);
  net.remove_endpoint("hostB/y");
}

TEST(PushDelivery, RemovedEndpointTakesItsPendingDeliveriesWithIt) {
  NetConfig cfg = zero_latency_config();
  cfg.base_latency = us(200);
  SimNetwork net(cfg);
  auto a = net.create_endpoint("hostA/x");
  std::atomic<int> old_calls{0};
  std::atomic<int> new_calls{0};
  {
    DeliveryThreadBlocker blocker(net, "hostA/x");
    auto old_ep = net.create_endpoint("hostB/y");
    old_ep->set_handler([&](Message&&) { old_calls.fetch_add(1); });
    ASSERT_TRUE(net.send("hostA/x", "hostB/y", Bytes{1}));  // pending
    net.remove_endpoint("hostB/y");
    // Same id, new endpoint: what was pending for the old one is gone.
    auto new_ep = net.create_endpoint("hostB/y");
    new_ep->set_handler([&](Message&&) { new_calls.fetch_add(1); });
  }
  ASSERT_TRUE(net.send("hostA/x", "hostB/y", Bytes{2}));
  for (int i = 0; i < 200 && new_calls.load() == 0; ++i) {
    std::this_thread::sleep_for(ms(5));
  }
  std::this_thread::sleep_for(ms(5));
  net.remove_endpoint("hostB/y");
  EXPECT_EQ(old_calls.load(), 0);
  EXPECT_EQ(new_calls.load(), 1);
  (void)a;
}

}  // namespace
}  // namespace cqos::net
