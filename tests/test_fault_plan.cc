// FaultPlan / FaultController unit tests: plan text round-trip, scheduling
// determinism, duplication delivery, and the bounded-reordering contract.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/error.h"
#include "net/fault.h"
#include "net/sim_network.h"

namespace cqos::net {
namespace {

NetConfig quiet_config(std::uint64_t seed = 42) {
  NetConfig cfg;
  cfg.jitter = 0.0;
  cfg.seed = seed;
  return cfg;
}

constexpr const char* kPlanText =
    "plan backup-churn\n"
    "seed 42\n"
    "@100ms drop_rate 0.15\n"
    "@120ms crash server1\n"
    "@150ms drop_burst server0 client0 80ms 1\n"
    "@200ms latency_spike 100ms x6\n"
    "@210ms duplicate 0.4\n"
    "@220ms reorder 0.5 window=4\n"
    "@260ms recover server1\n"
    "@300ms partition server1 server2\n"
    "@420ms heal server1 server2\n";

TEST(FaultPlan, ParseSerializeRoundTrip) {
  FaultPlan plan = FaultPlan::parse(kPlanText);
  EXPECT_EQ(plan.name, "backup-churn");
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.events.size(), 9u);
  EXPECT_EQ(plan.duration(), ms(420));

  // serialize() emits the same syntax parse() accepts, and the round trip
  // is a fixed point.
  FaultPlan again = FaultPlan::parse(plan.serialize());
  EXPECT_EQ(plan.serialize(), again.serialize());
}

TEST(FaultPlan, EventsSortedByOffsetStably) {
  FaultPlan plan = FaultPlan::parse(
      "plan p\nseed 1\n@50ms crash b\n@10ms crash a\n@50ms recover b\n");
  ASSERT_EQ(plan.events.size(), 3u);
  EXPECT_EQ(plan.events[0].host_a, "a");
  EXPECT_EQ(plan.events[1].kind, FaultKind::kCrash);  // textual order kept
  EXPECT_EQ(plan.events[2].kind, FaultKind::kRecover);
}

TEST(FaultPlan, ParseRejectsGarbage) {
  EXPECT_THROW(FaultPlan::parse("plan p\n@10ms explode host\n"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("plan p\n@abc crash host\n"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("plan p\n@10ms crash\n"), ConfigError);
}

TEST(FaultPlan, SchedulingIsDeterministic) {
  FaultPlan plan = FaultPlan::parse(kPlanText);
  std::vector<std::string> traces[2];
  for (int run = 0; run < 2; ++run) {
    SimNetwork net(quiet_config());
    net.faults().run_plan(plan);
    ASSERT_TRUE(net.faults().wait_plan_done(ms(5000)));
    traces[run] = net.faults().event_trace();
  }
  ASSERT_FALSE(traces[0].empty());
  EXPECT_EQ(traces[0], traces[1]);
  // The trace is the applied plan: header plus one line per event.
  EXPECT_EQ(traces[0].size(), 1 + FaultPlan::parse(kPlanText).events.size());
}

TEST(FaultController, PlanEventsActuallyApply) {
  SimNetwork net(quiet_config());
  FaultPlan plan = FaultPlan::parse(
      "plan apply\nseed 7\n@0ms crash hostB\n@60ms drop_rate 0.5\n");
  net.faults().run_plan(plan);
  ASSERT_TRUE(net.faults().wait_plan_done(ms(5000)));
  EXPECT_TRUE(net.faults().is_crashed("hostB"));
  EXPECT_DOUBLE_EQ(net.faults().drop_rate(), 0.5);

  net.faults().clear_all_faults();
  EXPECT_FALSE(net.faults().is_crashed("hostB"));
  EXPECT_DOUBLE_EQ(net.faults().drop_rate(), 0.0);
}

TEST(FaultController, DuplicateRateDeliversTwice) {
  SimNetwork net(quiet_config());
  net.create_endpoint("hostA/x");
  auto rx = net.create_endpoint("hostB/y");
  net.faults().set_duplicate_rate(1.0);

  constexpr int kMsgs = 20;
  for (int i = 0; i < kMsgs; ++i) {
    ASSERT_TRUE(net.send("hostA/x", "hostB/y", Bytes(1, static_cast<std::uint8_t>(i))));
  }
  std::map<int, int> copies;
  for (int i = 0; i < 2 * kMsgs; ++i) {
    auto msg = rx->recv(ms(1000));
    ASSERT_TRUE(msg.has_value()) << "only " << i << " deliveries";
    copies[msg->payload.at(0)]++;
  }
  EXPECT_FALSE(rx->recv(ms(20)).has_value());  // exactly twice, no more
  for (const auto& [id, n] : copies) EXPECT_EQ(n, 2) << "message " << id;
}

/// The bounded-reordering contract: a held-back message is overtaken by AT
/// MOST `window` later-sent messages, reordering does happen at rate 0.5,
/// and nothing is lost (the deadline sweep releases stranded holds).
TEST(FaultController, ReorderingIsBoundedByWindow) {
  constexpr int kWindow = 3;
  constexpr int kMsgs = 150;
  SimNetwork net(quiet_config(7));
  net.create_endpoint("hostA/x");
  auto rx = net.create_endpoint("hostB/y");
  net.faults().set_reorder(0.5, kWindow);

  for (int i = 0; i < kMsgs; ++i) {
    ASSERT_TRUE(net.send("hostA/x", "hostB/y", Bytes(1, static_cast<std::uint8_t>(i))));
  }
  std::vector<int> received;
  for (int i = 0; i < kMsgs; ++i) {
    auto msg = rx->recv(ms(1000));
    ASSERT_TRUE(msg.has_value()) << "lost after " << i << " deliveries";
    received.push_back(msg->payload.at(0));
  }

  int max_overtakes = 0;
  int total_inversions = 0;
  for (std::size_t p = 0; p < received.size(); ++p) {
    int overtakes = 0;  // later-sent messages delivered before this one
    for (std::size_t q = 0; q < p; ++q) {
      if (received[q] > received[p]) ++overtakes;
    }
    total_inversions += overtakes;
    max_overtakes = std::max(max_overtakes, overtakes);
  }
  EXPECT_GT(total_inversions, 0) << "rate 0.5 produced no reordering";
  EXPECT_LE(max_overtakes, kWindow);
}

// With no later traffic to release it, a held message is swept by the
// network's delivery thread once the hold expires (50 ms).
TEST(FaultController, RealTimeHoldIsSweptWithoutReleasingTraffic) {
  metrics::Registry reg;
  NetConfig cfg = quiet_config();
  cfg.metrics = &reg;
  SimNetwork net(cfg);
  net.create_endpoint("hostA/x");
  auto rx = net.create_endpoint("hostB/y");
  net.faults().set_reorder(1.0, 1);

  TimePoint sent = now();
  ASSERT_TRUE(net.send("hostA/x", "hostB/y", Bytes(1, 0)));
  EXPECT_EQ(net.faults().held_count(), 1u);
  auto msg = rx->recv(ms(2000));
  ASSERT_TRUE(msg.has_value());
  EXPECT_GE(now() - sent, ms(50));
  EXPECT_EQ(net.faults().held_count(), 0u);
  EXPECT_EQ(reg.counter("net.fault.reorder.swept").value(), 1u);
}

TEST(FaultController, ClearAllFaultsFlushesHeldMessages) {
  SimNetwork net(quiet_config());
  net.create_endpoint("hostA/x");
  auto rx = net.create_endpoint("hostB/y");
  net.faults().set_reorder(1.0, 8);  // everything is held back

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(net.send("hostA/x", "hostB/y", Bytes(1, 0)));
  }
  EXPECT_GT(net.faults().held_count(), 0u);
  net.faults().clear_all_faults();
  EXPECT_EQ(net.faults().held_count(), 0u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(rx->recv(ms(1000)).has_value()) << "flushed message " << i;
  }
}

}  // namespace
}  // namespace cqos::net
