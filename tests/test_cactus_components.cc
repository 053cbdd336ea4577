// Direct unit tests of CactusClient / CactusServer: blocking semantics,
// timeout paths, control dispatch, and micro-protocol wiring guards.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "cqos/cactus_client.h"
#include "cqos/cactus_server.h"
#include "cqos/events.h"
#include "micro/acceptance.h"
#include "micro/base.h"
#include "micro/client_base.h"
#include "micro/dedup.h"
#include "micro/server_base.h"
#include "micro/total_order.h"
#include "sim/bank_account.h"

namespace cqos {
namespace {

/// Client interface whose behaviour is scripted per test.
class ScriptedClientQos : public ClientQosInterface {
 public:
  std::function<void(Request&, Invocation&)> on_invoke =
      [](Request&, Invocation& inv) {
        inv.success = true;
        inv.result = Value(1);
      };

  int num_servers() const override { return servers; }
  void bind(int) override {}
  ServerStatus server_status(int) override { return ServerStatus::kRunning; }
  ServerStatus probe(int) override { return ServerStatus::kRunning; }
  void mark_failed(int) override {}
  void invoke_server(Request& req, Invocation& inv) override {
    on_invoke(req, inv);
  }
  std::string description() const override { return "scripted"; }

  int servers = 1;
};

class NullServerQos : public ServerQosInterface {
 public:
  int num_servers() const override { return 1; }
  int replica_index() const override { return 0; }
  const std::string& object_id() const override { return object_id_; }
  void invoke_servant(Request& req) override { req.stage(true, Value(7)); }
  bool peer_call(int, const std::string&, const ValueList&, Value*) override {
    return true;
  }
  std::string description() const override { return "null"; }

 private:
  std::string object_id_ = "Obj";
};

TEST(CactusClientUnit, RequestCompletesThroughBaseChain) {
  CactusClient client(std::make_unique<ScriptedClientQos>());
  client.add_micro_protocol(std::make_unique<micro::ClientBase>());
  auto req = std::make_shared<Request>("Obj", "m", ValueList{});
  client.cactus_request(req);
  EXPECT_TRUE(req->succeeded());
  EXPECT_EQ(req->result(), Value(1));
}

TEST(MajorityVoteUnit, TallyCountsRepliesItHasSeen) {
  // Every replica records its outcome on the request before its reply
  // reaches the vote, so the request's counts can already read 3/3 while
  // the tally holds one value. The vote must count replies itself.
  auto qos = std::make_unique<ScriptedClientQos>();
  qos->servers = 3;
  CactusClient client(std::move(qos));
  client.add_micro_protocol(std::make_unique<micro::MajorityVote>());
  auto req = std::make_shared<Request>("Obj", "m", ValueList{});
  req->set_expected_replies(3);
  std::vector<InvocationPtr> replies;
  for (int i = 0; i < 3; ++i) {
    auto inv = std::make_shared<Invocation>();
    inv->request = req;
    inv->server = i;
    inv->success = true;
    inv->result = Value(42);
    req->record_outcome(*inv);
    replies.push_back(inv);
  }
  for (const InvocationPtr& inv : replies) {
    client.protocol().raise(ev::kInvokeSuccess, inv);
  }
  ASSERT_TRUE(req->is_done());
  EXPECT_TRUE(req->succeeded()) << req->error();
  EXPECT_EQ(req->result(), Value(42));
}

TEST(CactusClientUnit, TimesOutWhenNothingCompletesTheRequest) {
  CactusClient::Options opts;
  opts.request_timeout = ms(80);
  // No micro-protocols at all: newRequest has no handlers, nothing will
  // ever complete the request — the client must fail it at the deadline.
  CactusClient client(std::make_unique<ScriptedClientQos>(), opts);
  auto req = std::make_shared<Request>("Obj", "m", ValueList{});
  TimePoint before = now();
  client.cactus_request(req);
  EXPECT_TRUE(req->is_done());
  EXPECT_FALSE(req->succeeded());
  EXPECT_NE(req->error().find("timed out"), std::string::npos);
  EXPECT_GE(now() - before, ms(80));
}

TEST(CactusClientUnit, SlowInterfaceStillWithinTimeoutSucceeds) {
  CactusClient::Options opts;
  opts.request_timeout = ms(2000);
  auto qos = std::make_unique<ScriptedClientQos>();
  qos->on_invoke = [](Request&, Invocation& inv) {
    std::this_thread::sleep_for(ms(50));
    inv.success = true;
    inv.result = Value("slow-ok");
  };
  CactusClient client(std::move(qos), opts);
  client.add_micro_protocol(std::make_unique<micro::ClientBase>());
  auto req = std::make_shared<Request>("Obj", "m", ValueList{});
  client.cactus_request(req);
  EXPECT_TRUE(req->succeeded());
  EXPECT_EQ(req->result(), Value("slow-ok"));
}

TEST(CactusClientUnit, AppErrorPropagatesAsFailure) {
  auto qos = std::make_unique<ScriptedClientQos>();
  qos->on_invoke = [](Request&, Invocation& inv) {
    inv.success = false;
    inv.error = "servant said no";
  };
  CactusClient client(std::move(qos));
  client.add_micro_protocol(std::make_unique<micro::ClientBase>());
  auto req = std::make_shared<Request>("Obj", "m", ValueList{});
  client.cactus_request(req);
  EXPECT_FALSE(req->succeeded());
  EXPECT_EQ(req->error(), "servant said no");
}

TEST(CactusServerUnit, ProcessRequestStagesAndFinishes) {
  CactusServer server(std::make_unique<NullServerQos>());
  server.add_micro_protocol(std::make_unique<micro::ServerBase>());
  auto req = std::make_shared<Request>("Obj", "m", ValueList{});
  server.process_request(req);
  EXPECT_TRUE(req->succeeded());
  EXPECT_EQ(req->result(), Value(7));
}

TEST(CactusServerUnit, TimesOutWhenNoBaseInstalled) {
  CactusServer::Options opts;
  opts.process_timeout = ms(80);
  CactusServer server(std::make_unique<NullServerQos>(), opts);
  auto req = std::make_shared<Request>("Obj", "m", ValueList{});
  TimePoint start = now();
  server.process_request(req);
  // Parked: process_request returned at once, and the timer fails it.
  EXPECT_LT(now() - start, ms(80));
  ASSERT_TRUE(req->wait(ms(5000)));
  EXPECT_FALSE(req->succeeded());
  EXPECT_NE(req->error().find("timed out"), std::string::npos);
}

/// Server interface whose servant answers the number of calls so far.
class CountingServerQos : public NullServerQos {
 public:
  void invoke_servant(Request& req) override {
    req.stage(true, Value(calls.fetch_add(1) + 1));
  }
  std::atomic<int> calls{0};
};

/// A server on a one-thread composite pool with `protocols` above the base.
std::unique_ptr<CactusServer> one_slot_server(
    CountingServerQos*& qos_out,
    std::vector<std::unique_ptr<cactus::MicroProtocol>> protocols) {
  CactusServer::Options opts;
  opts.composite.pool_threads = 1;
  auto qos = std::make_unique<CountingServerQos>();
  qos_out = qos.get();
  auto server = std::make_unique<CactusServer>(std::move(qos), opts);
  server->add_micro_protocol(std::make_unique<micro::ServerBase>());
  for (auto& mp : protocols) server->add_micro_protocol(std::move(mp));
  return server;
}

/// Two deliveries of one request: the duplicate arrives while the
/// original is parked.
std::pair<RequestPtr, RequestPtr> original_and_duplicate() {
  auto original = std::make_shared<Request>("Obj", "m", ValueList{});
  auto duplicate = std::make_shared<Request>("Obj", "m", ValueList{});
  duplicate->id = original->id;
  return {original, duplicate};
}

TEST(CactusServerUnit, DuplicateOfARequestAwaitingItsOrderEndsWithItsOutcome) {
  CountingServerQos* qos = nullptr;
  std::vector<std::unique_ptr<cactus::MicroProtocol>> mps;
  mps.push_back(std::make_unique<micro::TotalOrder>(/*coordinator=*/1));
  auto server = one_slot_server(qos, std::move(mps));
  auto [original, duplicate] = original_and_duplicate();
  server->process_request(original);
  server->process_request(duplicate);
  EXPECT_FALSE(original->is_done());
  EXPECT_FALSE(duplicate->is_done());

  // The ordering info releases the original on the one pool thread.
  server->handle_control(
      micro::TotalOrder::kOrderControl,
      {Value(static_cast<std::int64_t>(original->id)), Value(1)});
  ASSERT_TRUE(duplicate->wait(ms(5000)));
  ASSERT_TRUE(original->wait(ms(5000)));
  EXPECT_TRUE(duplicate->succeeded());
  EXPECT_EQ(duplicate->result(), original->result());
  EXPECT_EQ(qos->calls.load(), 1);
}

TEST(CactusServerUnit, DuplicateOfAParkedRequestEndsWithItsOutcome) {
  CountingServerQos* qos = nullptr;
  std::vector<std::unique_ptr<cactus::MicroProtocol>> mps;
  mps.push_back(std::make_unique<micro::Dedup>(16));
  auto server = one_slot_server(qos, std::move(mps));
  // Parks each request once, after the dedup check, as a scheduler would.
  std::mutex mu;
  RequestPtr held;
  server->protocol().bind(
      ev::kReadyToInvoke, "parkOnce",
      [&](cactus::EventContext& ctx) {
        auto req = ctx.dyn<RequestPtr>();
        if (!req->once("parked", [] {})) return;
        std::scoped_lock lk(mu);
        held = req;
        ctx.halt();
      },
      micro::order::kDedup + 1);
  auto [original, duplicate] = original_and_duplicate();
  server->process_request(original);
  server->process_request(duplicate);
  EXPECT_FALSE(original->is_done());
  EXPECT_FALSE(duplicate->is_done());

  RequestPtr release;
  {
    std::scoped_lock lk(mu);
    release = std::move(held);
  }
  ASSERT_EQ(release, original);
  server->protocol().raise_async(ev::kReadyToInvoke, release);
  ASSERT_TRUE(duplicate->wait(ms(5000)));
  ASSERT_TRUE(original->wait(ms(5000)));
  EXPECT_TRUE(duplicate->succeeded());
  EXPECT_EQ(duplicate->result(), original->result());
  EXPECT_EQ(qos->calls.load(), 1);
}

TEST(CactusServerUnit, ControlWithoutHandlerReturnsNull) {
  CactusServer server(std::make_unique<NullServerQos>());
  Value reply = server.handle_control("nobody", {Value(1)});
  EXPECT_TRUE(reply.is_null());
}

TEST(CactusServerUnit, RequestReturnedRaisedAfterCompletion) {
  CactusServer server(std::make_unique<NullServerQos>());
  server.add_micro_protocol(std::make_unique<micro::ServerBase>());
  std::atomic<int> returned{0};
  server.protocol().bind(
      ev::kRequestReturned, "probe",
      [&](cactus::EventContext&) { returned.fetch_add(1); },
      cactus::kOrderDefault);
  auto req = std::make_shared<Request>("Obj", "m", ValueList{});
  server.process_request(req);
  for (int i = 0; i < 200 && returned.load() == 0; ++i) {
    std::this_thread::sleep_for(ms(5));
  }
  EXPECT_EQ(returned.load(), 1);
}

TEST(MicroProtocolGuards, ClientProtocolRejectsServerComposite) {
  // Installing a client-side micro-protocol into a composite that is not a
  // Cactus client must fail loudly at init time, not corrupt state later.
  cactus::CompositeProtocol bare;
  micro::ClientBase base;
  EXPECT_THROW(base.init(bare), ConfigError);
}

TEST(MicroProtocolGuards, ServerProtocolRejectsClientComposite) {
  CactusClient client(std::make_unique<ScriptedClientQos>());
  micro::ServerBase base;
  EXPECT_THROW(base.init(client.protocol()), ConfigError);
}

TEST(CactusClientUnit, ConcurrentRequestsThroughOneClient) {
  auto qos = std::make_unique<ScriptedClientQos>();
  qos->on_invoke = [](Request& req, Invocation& inv) {
    inv.success = true;
    inv.result = Value(req.params().at(0).as_i64() * 2);
  };
  CactusClient client(std::move(qos));
  client.add_micro_protocol(std::make_unique<micro::ClientBase>());

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<int> wrong{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        auto req = std::make_shared<Request>(
            "Obj", "m", ValueList{Value(t * 100 + i)});
        client.cactus_request(req);
        if (!req->succeeded() ||
            req->result().as_i64() != (t * 100 + i) * 2) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
}

}  // namespace
}  // namespace cqos
