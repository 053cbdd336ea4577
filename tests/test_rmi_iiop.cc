// RMI-IIOP tests (paper §4.2): RMI semantics over the CORBA transport, with
// CQoS interception via the CORBA mechanisms, interoperable with plain
// CORBA clients.
#include <gtest/gtest.h>

#include "cqos/cactus_client.h"
#include "cqos/cactus_server.h"
#include "cqos/config.h"
#include "cqos/platform_qos.h"
#include "cqos/skeleton.h"
#include "cqos/stub.h"
#include "micro/standard.h"
#include "net/sim_network.h"
#include "platform/corba/agent.h"
#include "platform/rmi/rmi_iiop.h"
#include "sim/bank_account.h"

namespace cqos {
namespace {

struct IiopFixture {
  net::SimNetwork net;
  corba::SmartAgent agent;
  rmi::RmiIiopRuntime server_platform;
  rmi::RmiIiopRuntime client_platform;
  std::shared_ptr<sim::BankAccountServant> servant;

  IiopFixture()
      : net([] {
          net::NetConfig cfg;
          cfg.base_latency = us(60);
          cfg.jitter = 0;
          return cfg;
        }()),
        agent(net, "nameserver"),
        server_platform(net, "server0"),
        client_platform(net, "client0"),
        servant(std::make_shared<sim::BankAccountServant>()) {
    micro::register_standard_micro_protocols();
  }
};

TEST(RmiIiop, NamingConventionUsesFixedPoa) {
  net::SimNetwork net;
  corba::SmartAgent agent(net, "nameserver");
  rmi::RmiIiopRuntime runtime(net, "h");
  EXPECT_EQ(runtime.name(), "rmi-iiop");
  EXPECT_EQ(runtime.replica_name("Bank", 2),
            "rmi_iiop_poa/Bank_CQoS_Skeleton_2");
  EXPECT_EQ(runtime.direct_name("Bank"), "rmi_iiop_poa/Bank");
}

TEST(RmiIiop, FullCqosStackWorksOverIiop) {
  IiopFixture fix;

  // Server side: Cactus server + CQoS skeleton registered under the
  // RMI-IIOP naming convention, DSI dispatch (the CORBA mechanism).
  auto server_qos = std::make_unique<PlatformServerQos>(
      fix.server_platform, fix.servant, "Bank",
      std::vector<std::string>{fix.server_platform.replica_name("Bank", 1)},
      0);
  auto cactus_server = std::make_shared<CactusServer>(std::move(server_qos));
  QosConfig qos;
  qos.add(Side::kServer, "integrity").add(Side::kServer, "server_base");
  MicroProtocolRegistry::instance().install(Side::kServer, qos.server,
                                            cactus_server->protocol());
  auto skeleton = std::make_shared<CqosSkeleton>("Bank", cactus_server);
  register_cqos_skeleton(fix.server_platform, skeleton, 1);

  // Client side: CQoS stub for CORBA over the RMI-IIOP platform.
  auto client_qos = std::make_unique<PlatformClientQos>(
      fix.client_platform, "Bank",
      std::vector<std::string>{fix.client_platform.replica_name("Bank", 1)});
  auto cactus_client = std::make_shared<CactusClient>(std::move(client_qos));
  QosConfig client_cfg;
  client_cfg.add(Side::kClient, "integrity")
      .add(Side::kClient, "client_base");
  MicroProtocolRegistry::instance().install(Side::kClient, client_cfg.client,
                                            cactus_client->protocol());
  auto stub = std::make_shared<CqosStub>(cactus_client, "Bank");

  sim::BankAccountStub account(stub);
  account.set_balance(4242);
  EXPECT_EQ(account.get_balance(), 4242);

  cactus_client->stop();
  cactus_server->stop();
  fix.client_platform.shutdown();
  fix.server_platform.shutdown();
}

TEST(RmiIiop, PlainCorbaClientInteroperates) {
  IiopFixture fix;

  // An RMI-IIOP server registered directly (no CQoS) ...
  class StaticSkeleton : public plat::ServantHandler {
   public:
    explicit StaticSkeleton(std::shared_ptr<Servant> servant)
        : servant_(std::move(servant)) {}
    void handle(const std::string& method, ValueList params, PiggybackMap,
                plat::ReplyHandle out) override {
      plat::Reply reply;
      try {
        reply.result = servant_->dispatch(method, params);
        reply.status = plat::ReplyStatus::kOk;
      } catch (const std::exception& e) {
        reply.status = plat::ReplyStatus::kAppError;
        reply.error = e.what();
      }
      out.send(std::move(reply));
    }

   private:
    std::shared_ptr<Servant> servant_;
  };
  fix.server_platform.register_servant(
      fix.server_platform.direct_name("Bank"),
      std::make_shared<StaticSkeleton>(fix.servant),
      plat::DispatchMode::kStatic);

  // ... is reachable from a PLAIN CORBA ORB on another host: both speak
  // GIOP and share the smart agent, so the CORBA client resolves the
  // RMI-IIOP POA/object-id directly.
  corba::CorbaOrb corba_client(fix.net, "corbaclient");
  auto ref = corba_client.resolve("rmi_iiop_poa/Bank", ms(500));
  plat::Reply reply = ref->invoke("set_balance", {Value(7)}, {}, ms(500));
  ASSERT_TRUE(reply.ok());
  plat::Reply balance = ref->invoke("get_balance", {}, {}, ms(500));
  ASSERT_TRUE(balance.ok());
  EXPECT_EQ(balance.result.as_i64(), 7);

  corba_client.shutdown();
  fix.client_platform.shutdown();
  fix.server_platform.shutdown();
}

TEST(RmiIiop, DynamicInvocationUsesDiiPath) {
  IiopFixture fix;
  fix.server_platform.register_servant(
      fix.server_platform.direct_name("Echo"),
      std::make_shared<CqosSkeleton>("Echo", fix.servant),
      plat::DispatchMode::kDsi);
  auto ref =
      fix.client_platform.resolve(fix.client_platform.direct_name("Echo"),
                                  ms(500));
  // Both paths work and agree — the dynamic one is CORBA DII underneath.
  plat::Reply s = ref->invoke("get_balance", {}, {}, ms(500));
  plat::Reply d = ref->invoke_dynamic("get_balance", {}, {}, ms(500));
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(s.result, d.result);
  fix.client_platform.shutdown();
  fix.server_platform.shutdown();
}

}  // namespace
}  // namespace cqos
