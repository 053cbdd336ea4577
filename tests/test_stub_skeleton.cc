// Direct unit tests of the CQoS stub and skeleton (without a Cluster):
// bypass modes, control routing, piggyback handling, request pooling.
#include <gtest/gtest.h>

#include "common/error.h"
#include "cqos/cactus_server.h"
#include "cqos/events.h"
#include "cqos/platform_qos.h"
#include "cqos/skeleton.h"
#include "cqos/stub.h"
#include "micro/server_base.h"
#include "sim/bank_account.h"

namespace cqos {
namespace {

/// The reply `handler` sends before it returns (kUnreachable if none).
plat::Reply serve(plat::ServantHandler& handler, const std::string& method,
                  ValueList params, PiggybackMap pb) {
  struct Capture : plat::ReplyOutlet {
    plat::Reply reply;
    void send(std::uint64_t, const std::string&, plat::Reply r) override {
      reply = std::move(r);
    }
  };
  auto capture = std::make_shared<Capture>();
  handler.handle(method, std::move(params), std::move(pb),
                 plat::ReplyHandle(capture, 0, ""));
  return std::move(capture->reply);
}

/// In-process ClientQosInterface: no platform, no network — routes directly
/// to a servant handler, records invocation traffic.
class LoopbackClientQos : public ClientQosInterface {
 public:
  explicit LoopbackClientQos(std::shared_ptr<plat::ServantHandler> handler)
      : handler_(std::move(handler)) {}

  int num_servers() const override { return 1; }
  void bind(int) override { bound_ = true; }
  ServerStatus server_status(int) override {
    return bound_ ? ServerStatus::kRunning : ServerStatus::kUnknown;
  }
  ServerStatus probe(int) override { return ServerStatus::kRunning; }
  void mark_failed(int) override {}

  void invoke_server(Request& req, Invocation& inv) override {
    ++invocations_;
    PiggybackMap pb = req.piggyback;
    pb[pbkey::kRequestId] = Value(static_cast<std::int64_t>(req.id));
    pb[pbkey::kPriority] = Value(static_cast<std::int64_t>(req.priority));
    last_piggyback_ = pb;
    plat::Reply reply = serve(*handler_, req.method, req.params(), pb);
    inv.success = reply.ok();
    inv.result = std::move(reply.result);
    inv.error = std::move(reply.error);
    inv.reply_piggyback = std::move(reply.piggyback);
  }

  std::string description() const override { return "loopback"; }

  int invocations() const { return invocations_; }
  const PiggybackMap& last_piggyback() const { return last_piggyback_; }

 private:
  std::shared_ptr<plat::ServantHandler> handler_;
  bool bound_ = false;
  int invocations_ = 0;
  PiggybackMap last_piggyback_;
};

class LoopbackServerQos : public ServerQosInterface {
 public:
  explicit LoopbackServerQos(std::shared_ptr<Servant> servant)
      : servant_(std::move(servant)) {}
  int num_servers() const override { return 1; }
  int replica_index() const override { return 0; }
  const std::string& object_id() const override { return object_id_; }
  void invoke_servant(Request& req) override {
    try {
      req.stage(true, servant_->dispatch(req.method, req.params()));
    } catch (const std::exception& e) {
      req.stage(false, Value(), e.what());
    }
  }
  bool peer_call(int, const std::string&, const ValueList&, Value*) override {
    return false;  // no peers in loopback
  }
  std::string description() const override { return "loopback-server"; }

 private:
  std::shared_ptr<Servant> servant_;
  std::string object_id_ = "Bank";
};

std::shared_ptr<CactusServer> make_server(std::shared_ptr<Servant> servant) {
  auto server = std::make_shared<CactusServer>(
      std::make_unique<LoopbackServerQos>(std::move(servant)));
  server->add_micro_protocol(std::make_unique<micro::ServerBase>());
  return server;
}

TEST(SkeletonUnit, FullModeDispatchesThroughCactusServer) {
  auto servant = std::make_shared<sim::BankAccountServant>(100);
  CqosSkeleton skeleton("Bank", make_server(servant));
  plat::Reply reply = serve(skeleton, "get_balance", {}, {});
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.result.as_i64(), 100);
}

TEST(SkeletonUnit, BypassModeCallsServantNatively) {
  auto servant = std::make_shared<sim::BankAccountServant>(5);
  CqosSkeleton skeleton("Bank", servant);
  plat::Reply reply = serve(skeleton, "deposit", {Value(7)}, {});
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(servant->balance(), 12);
}

TEST(SkeletonUnit, ServantExceptionBecomesAppError) {
  auto servant = std::make_shared<sim::BankAccountServant>(0);
  CqosSkeleton skeleton("Bank", make_server(servant));
  plat::Reply reply = serve(skeleton, "withdraw", {Value(10)}, {});
  EXPECT_EQ(reply.status, plat::ReplyStatus::kAppError);
  EXPECT_NE(reply.error.find("insufficient funds"), std::string::npos);
}

TEST(SkeletonUnit, PiggybackIdAndPriorityAdopted) {
  auto servant = std::make_shared<sim::BankAccountServant>(0);
  auto server = make_server(servant);
  // Observe the request the Cactus server sees.
  std::uint64_t seen_id = 0;
  int seen_priority = -1;
  server->protocol().bind(
      ev::kNewServerRequest, "probe",
      [&](cactus::EventContext& ctx) {
        auto req = ctx.dyn<RequestPtr>();
        seen_id = req->id;
        seen_priority = req->priority;
      },
      cactus::kOrderFirst);
  CqosSkeleton skeleton("Bank", server);
  PiggybackMap pb{{pbkey::kRequestId, Value(std::int64_t{777})},
                  {pbkey::kPriority, Value(9)}};
  serve(skeleton, "get_balance", {}, pb);
  EXPECT_EQ(seen_id, 777u);
  EXPECT_EQ(seen_priority, 9);
}

TEST(SkeletonUnit, ControlMethodRoutedToControlEvent) {
  auto servant = std::make_shared<sim::BankAccountServant>(0);
  auto server = make_server(servant);
  server->protocol().bind(
      ev::ctl("echo"), "echoer",
      [](cactus::EventContext& ctx) {
        auto msg = ctx.dyn<ControlMsgPtr>();
        msg->reply = msg->args.at(0);
      },
      cactus::kOrderDefault);
  CqosSkeleton skeleton("Bank", server);
  plat::Reply reply = serve(
      skeleton, std::string(ev::kCtlMethodPrefix) + "echo", {Value("ping")}, {});
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.result.as_string(), "ping");
}

TEST(SkeletonUnit, ControlWithoutCactusServerIsError) {
  auto servant = std::make_shared<sim::BankAccountServant>(0);
  CqosSkeleton skeleton("Bank", servant);  // bypass mode
  plat::Reply reply = serve(
      skeleton, std::string(ev::kCtlMethodPrefix) + "echo", {}, {});
  EXPECT_EQ(reply.status, plat::ReplyStatus::kAppError);
}

TEST(StubUnit, BypassModeInvokesDirectly) {
  auto servant = std::make_shared<sim::BankAccountServant>(50);
  auto skeleton = std::make_shared<CqosSkeleton>("Bank", servant);
  auto qos = std::make_shared<LoopbackClientQos>(skeleton);
  CqosStub stub(std::static_pointer_cast<ClientQosInterface>(qos), "Bank");
  EXPECT_EQ(stub.call("get_balance", {}).as_i64(), 50);
  EXPECT_EQ(qos->invocations(), 1);
}

TEST(StubUnit, PrincipalAndPriorityEnterPiggyback) {
  auto servant = std::make_shared<sim::BankAccountServant>(0);
  auto skeleton = std::make_shared<CqosSkeleton>("Bank", servant);
  auto qos = std::make_shared<LoopbackClientQos>(skeleton);
  CqosStub::Options opts;
  opts.principal = "alice";
  opts.priority = 8;
  CqosStub stub(std::static_pointer_cast<ClientQosInterface>(qos), "Bank",
                opts);
  stub.call("get_balance", {});
  EXPECT_EQ(qos->last_piggyback().at(pbkey::kPrincipal), Value("alice"));
  EXPECT_EQ(qos->last_piggyback().at(pbkey::kPriority).as_i64(), 8);
}

TEST(StubUnit, FailureBecomesInvocationErrorWithContext) {
  auto servant = std::make_shared<sim::BankAccountServant>(0);
  auto skeleton = std::make_shared<CqosSkeleton>("Bank", servant);
  auto qos = std::make_shared<LoopbackClientQos>(skeleton);
  CqosStub stub(std::static_pointer_cast<ClientQosInterface>(qos), "Bank");
  try {
    stub.call("withdraw", {Value(1)});
    FAIL() << "expected InvocationError";
  } catch (const InvocationError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("Bank.withdraw"), std::string::npos);
    EXPECT_NE(what.find("insufficient funds"), std::string::npos);
  }
}

TEST(StubUnit, RequestPoolReusesStructures) {
  auto servant = std::make_shared<sim::BankAccountServant>(0);
  auto skeleton = std::make_shared<CqosSkeleton>("Bank", servant);
  auto qos = std::make_shared<LoopbackClientQos>(skeleton);
  CqosStub::Options opts;
  CqosStub stub(std::static_pointer_cast<ClientQosInterface>(qos), "Bank",
                opts);
  // Sequential calls through the pool stay correct and independent.
  for (int i = 0; i < 20; ++i) {
    stub.call("set_balance", {Value(i)});
    EXPECT_EQ(stub.call("get_balance", {}).as_i64(), i);
  }
}

TEST(StubUnit, CallRequestExposesReplyPiggyback) {
  class PbServant : public plat::ServantHandler {
   public:
    void handle(const std::string&, ValueList, PiggybackMap,
                plat::ReplyHandle out) override {
      plat::Reply reply;
      reply.status = plat::ReplyStatus::kOk;
      reply.result = Value(1);
      reply.piggyback = {{"server.note", Value("hi")}};
      out.send(std::move(reply));
    }
  };
  auto qos = std::make_shared<LoopbackClientQos>(std::make_shared<PbServant>());
  CqosStub stub(std::static_pointer_cast<ClientQosInterface>(qos), "Bank");
  RequestPtr req = stub.call_request("anything", {});
  EXPECT_TRUE(req->succeeded());
  EXPECT_EQ(req->reply_piggyback().at("server.note"), Value("hi"));
}

}  // namespace
}  // namespace cqos
