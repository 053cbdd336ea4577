// Concurrency stress and edge-case tests across the runtime substrates.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "cactus/composite.h"
#include "common/sync.h"
#include "cqos/request.h"
#include "net/sim_network.h"
#include "platform/corba/agent.h"
#include "platform/corba/orb.h"
#include "sim/bank_account.h"
#include "sim/cluster.h"

namespace cqos {
namespace {

TEST(CactusStress, ConcurrentAsyncRaisesAllExecute) {
  cactus::CompositeProtocol proto;
  std::atomic<int> count{0};
  proto.bind("tick", "counter",
             [&](cactus::EventContext&) { count.fetch_add(1); });
  constexpr int kThreads = 4, kRaises = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRaises; ++i) proto.raise_async("tick");
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < 400 && count.load() < kThreads * kRaises; ++i) {
    std::this_thread::sleep_for(ms(5));
  }
  EXPECT_EQ(count.load(), kThreads * kRaises);
}

TEST(CactusStress, BindUnbindChurnDuringRaises) {
  cactus::CompositeProtocol proto;
  std::atomic<bool> stop{false};
  std::atomic<int> executions{0};
  proto.bind("ev", "stable",
             [&](cactus::EventContext&) { executions.fetch_add(1); });

  std::thread churn([&] {
    while (!stop.load()) {
      cactus::BindingId id =
          proto.bind("ev", "transient", [](cactus::EventContext&) {});
      proto.unbind(id);
    }
  });
  std::thread raiser([&] {
    for (int i = 0; i < 2000; ++i) proto.raise("ev");
  });
  raiser.join();
  stop.store(true);
  churn.join();
  // The stable handler ran for every synchronous raise; no crashes or lost
  // activations despite concurrent binding churn.
  EXPECT_EQ(executions.load(), 2000);
}

TEST(CactusStress, SharedDataConcurrentCreateYieldsOneObject) {
  cactus::CompositeProtocol proto;
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<int>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      seen[static_cast<std::size_t>(t)] =
          proto.shared().get_or_create<int>("key");
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)].get(), seen[0].get());
  }
}

TEST(RequestStress, IdsUniqueAcrossThreads) {
  constexpr int kThreads = 4, kEach = 500;
  std::vector<std::vector<std::uint64_t>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kEach; ++i) {
        ids[static_cast<std::size_t>(t)].push_back(Request::next_id());
      }
    });
  }
  for (auto& t : threads) t.join();
  std::set<std::uint64_t> all;
  for (const auto& batch : ids) all.insert(batch.begin(), batch.end());
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads * kEach));
}

TEST(NetStress, FifoHoldsUnderJitter) {
  net::NetConfig cfg;
  cfg.base_latency = us(100);
  cfg.jitter = 0.5;  // aggressive jitter: the per-destination clamp must hold
  cfg.seed = 99;
  net::SimNetwork net(cfg);
  net.create_endpoint("a/x");
  auto sink = net.create_endpoint("b/y");
  constexpr int kMessages = 200;
  for (int i = 0; i < kMessages; ++i) {
    ByteWriter w;
    w.put_u32(static_cast<std::uint32_t>(i));
    net.send("a/x", "b/y", std::move(w).take());
  }
  for (int i = 0; i < kMessages; ++i) {
    auto msg = sink->recv(ms(1000));
    ASSERT_TRUE(msg.has_value()) << "lost message " << i;
    ByteReader r(msg->payload);
    EXPECT_EQ(r.get_u32(), static_cast<std::uint32_t>(i));
  }
}

TEST(AgentEdge, ReRegistrationOverwrites) {
  net::SimNetwork net;
  corba::SmartAgent agent(net, "nameserver");
  corba::CorbaOrb orb_a(net, "hostA");
  corba::CorbaOrb orb_b(net, "hostB");

  class Probe : public plat::ServantHandler {
   public:
    explicit Probe(std::string tag) : tag_(std::move(tag)) {}
    void handle(const std::string&, ValueList, PiggybackMap,
                plat::ReplyHandle out) override {
      plat::Reply reply;
      reply.status = plat::ReplyStatus::kOk;
      reply.result = Value(tag_);
      out.send(std::move(reply));
    }

   private:
    std::string tag_;
  };

  orb_a.register_servant("poa/Obj", std::make_shared<Probe>("A"),
                         plat::DispatchMode::kStatic);
  auto ref1 = orb_b.resolve("poa/Obj", ms(500));
  EXPECT_EQ(ref1->invoke("who", {}, {}, ms(500)).result.as_string(), "A");

  // The object migrates to host B: re-registration overwrites the IOR.
  orb_b.register_servant("poa/Obj", std::make_shared<Probe>("B"),
                         plat::DispatchMode::kStatic);
  auto ref2 = orb_b.resolve("poa/Obj", ms(500));
  EXPECT_EQ(ref2->invoke("who", {}, {}, ms(500)).result.as_string(), "B");

  orb_a.shutdown();
  orb_b.shutdown();
}

TEST(StubStress, ConcurrentCallsThroughOneStubWithPool) {
  sim::ClusterOptions opts;
  opts.platform = sim::PlatformKind::kRmi;
  opts.net.jitter = 0;
  opts.servant_factory = [] {
    return std::make_shared<sim::BankAccountServant>();
  };
  sim::Cluster cluster(opts);
  CqosStub::Options stub_opts;
  auto client = cluster.make_client(stub_opts);

  constexpr int kThreads = 4, kCalls = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      sim::BankAccountStub account(client->stub_ptr());
      for (int i = 0; i < kCalls; ++i) {
        try {
          account.deposit(1);
        } catch (const Error&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(static_cast<sim::BankAccountServant&>(cluster.servant(0)).balance(),
            kThreads * kCalls);
}

TEST(ClusterEdge, ManySequentialClustersDoNotLeakEndpoints) {
  // Endpoint ids embed a per-process instance counter; building several
  // clusters on fresh networks must never collide or deadlock.
  for (int round = 0; round < 5; ++round) {
    sim::ClusterOptions opts;
    opts.platform = round % 2 == 0 ? sim::PlatformKind::kRmi
                                   : sim::PlatformKind::kCorba;
    opts.net.jitter = 0;
    opts.servant_factory = [] {
      return std::make_shared<sim::BankAccountServant>();
    };
    sim::Cluster cluster(opts);
    auto client = cluster.make_client();
    sim::BankAccountStub account(client->stub_ptr());
    account.set_balance(round);
    EXPECT_EQ(account.get_balance(), round);
  }
}

}  // namespace
}  // namespace cqos
