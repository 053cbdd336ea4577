// Overload-protection tests: traffic-class thread pool (WRR + bounded
// queues), the admission micro-protocol, deadline propagation, and the
// priority-path bugfix sweep (QueuedSched terminal-outcome accounting,
// wakeup re-arm, surfaced async-raise drops).
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cactus/composite.h"
#include "cactus/thread_pool.h"
#include "common/error.h"
#include "common/metrics.h"
#include "cqos/cactus_server.h"
#include "cqos/events.h"
#include "micro/timeliness.h"
#include "net/fault.h"
#include "platform/api.h"
#include "sim/cluster.h"

namespace cqos {
namespace {

using cactus::PriorityThreadPool;
using cactus::SubmitResult;
using cactus::TrafficClass;

/// Blocks pool workers until released; lets a test fill queues
/// deterministically while every worker is parked inside a task.
class Gate {
 public:
  void release() {
    std::scoped_lock lk(mu_);
    open_ = true;
    cv_.notify_all();
  }
  void wait() {
    entered_.store(true);
    std::unique_lock lk(mu_);
    cv_.wait(lk, [this] { return open_; });
  }
  /// Spin until a worker is actually parked inside wait() — a gate task
  /// still sitting in the queue would count against the queue bound.
  void await_entered() {
    while (!entered_.load()) std::this_thread::sleep_for(ms(1));
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  std::atomic<bool> entered_{false};
};

// --- PriorityThreadPool traffic classes ------------------------------------------

TEST(ThreadPoolClassMode, ClassMappingSortsAndCatchesAll) {
  // Given out of order: the pool must sort descending min_priority and use
  // the lowest class as the catch-all for priorities below every floor.
  PriorityThreadPool pool(1,
                          {TrafficClass{"low", 3, 1, 0},
                           TrafficClass{"high", 7, 4, 0}},
                          "map-test");
  ASSERT_EQ(pool.classes().size(), 2u);
  EXPECT_EQ(pool.classes()[0].name, "high");
  EXPECT_EQ(pool.classes()[1].name, "low");
  EXPECT_EQ(pool.class_index_for(9), 0u);
  EXPECT_EQ(pool.class_index_for(7), 0u);
  EXPECT_EQ(pool.class_index_for(5), 1u);
  EXPECT_EQ(pool.class_index_for(0), 1u);  // below all floors: catch-all
  pool.shutdown();
}

TEST(ThreadPoolClassMode, BoundedQueueRejectsWhenFull) {
  PriorityThreadPool pool(1, {TrafficClass{"only", 0, 1, 2}}, "bound-test");
  Gate gate;
  ASSERT_EQ(pool.try_submit(5, [&gate] { gate.wait(); }),
            SubmitResult::kAccepted);
  gate.await_entered();
  // The single worker is parked in the gate task; fill the queue to its
  // bound, then expect the backpressure signal — not silent queueing.
  EXPECT_EQ(pool.try_submit(5, [] {}), SubmitResult::kAccepted);
  EXPECT_EQ(pool.try_submit(5, [] {}), SubmitResult::kAccepted);
  EXPECT_EQ(pool.queue_depth(0), 2u);
  EXPECT_EQ(pool.try_submit(5, [] {}), SubmitResult::kRejected);
  gate.release();
  pool.shutdown();  // drain-then-join: both accepted tasks still ran
  EXPECT_EQ(pool.queue_depth(0), 0u);
}

TEST(ThreadPoolClassMode, WrrInterleavesBackloggedClasses) {
  PriorityThreadPool pool(1,
                          {TrafficClass{"high", 5, 2, 0},
                           TrafficClass{"low", 0, 1, 0}},
                          "wrr-test");
  Gate gate;
  std::mutex order_mu;
  std::vector<char> order;
  ASSERT_EQ(pool.try_submit(9, [&gate] { gate.wait(); }),
            SubmitResult::kAccepted);
  gate.await_entered();
  auto record = [&order_mu, &order](char tag) {
    std::scoped_lock lk(order_mu);
    order.push_back(tag);
  };
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(pool.try_submit(9, [record] { record('H'); }),
              SubmitResult::kAccepted);
    ASSERT_EQ(pool.try_submit(1, [record] { record('L'); }),
              SubmitResult::kAccepted);
  }
  gate.release();
  pool.shutdown();

  ASSERT_EQ(order.size(), 8u);
  std::size_t last_high = 0, first_low = order.size();
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] == 'H') last_high = i;
    if (order[i] == 'L' && i < first_low) first_low = i;
  }
  // Weight 2:1 — the high class drains at 2/3 of the service rate, so all
  // four highs complete within the first six slots...
  EXPECT_LE(last_high, 5u);
  // ...but WRR is not strict priority: a low task runs before the last high.
  EXPECT_LT(first_low, last_high);
}

TEST(ThreadPoolClassMode, PriorityOrderWithinAClass) {
  // One class queue runs its highest priority first, FIFO within a
  // priority — the paper's priority guarantee holds inside every class.
  PriorityThreadPool pool(1, {TrafficClass{"only", 0, 1, 0}}, "order-test");
  Gate gate;
  std::mutex order_mu;
  std::vector<std::pair<int, int>> order;  // (priority, submit index)
  ASSERT_EQ(pool.try_submit(5, [&gate] { gate.wait(); }),
            SubmitResult::kAccepted);
  gate.await_entered();
  const int prios[] = {3, 9, 5, 5, 5};
  for (int i = 0; i < 5; ++i) {
    int prio = prios[i];
    EXPECT_EQ(pool.try_submit(prio,
                              [&order_mu, &order, prio, i] {
                                std::scoped_lock lk(order_mu);
                                order.emplace_back(prio, i);
                              }),
              SubmitResult::kAccepted);
  }
  gate.release();
  pool.shutdown();
  EXPECT_EQ(order, (std::vector<std::pair<int, int>>{
                       {9, 1}, {5, 2}, {5, 3}, {5, 4}, {3, 0}}));
}

TEST(ThreadPoolClassMode, LegacyModeWithoutClassesUnchanged) {
  PriorityThreadPool pool(2, {}, "legacy-test");
  EXPECT_EQ(pool.classes().size(), 1u);  // the implicit catch-all class
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    // The implicit class has no bound: submit accepts until shutdown.
    EXPECT_EQ(pool.try_submit(i % 10, [&ran] { ran.fetch_add(1); }),
              SubmitResult::kAccepted);
  }
  pool.shutdown();
  EXPECT_EQ(ran.load(), 16);
  EXPECT_EQ(pool.try_submit(5, [] {}), SubmitResult::kShutdown);
}

TEST(ThreadPoolClassMode, PoolWithoutClassesRegistersNoSeries) {
  // The implicit class keeps no counters, so it adds nothing to a metrics
  // snapshot; a configured class of the same pool name would.
  {
    PriorityThreadPool pool(1, {}, "seriesless-test");
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(pool.try_submit(i, [] {}), SubmitResult::kAccepted);
    }
    pool.shutdown();
  }
  std::string snapshot = metrics::Registry::global().to_json();
  EXPECT_EQ(snapshot.find("cactus.pool.seriesless-test."), std::string::npos);

  PriorityThreadPool classed(1, {TrafficClass{"only", 0, 1, 0}},
                             "seriesful-test");
  EXPECT_EQ(classed.try_submit(1, [] {}), SubmitResult::kAccepted);
  classed.shutdown();
  snapshot = metrics::Registry::global().to_json();
  EXPECT_NE(snapshot.find("cactus.pool.seriesful-test.only.enqueued"),
            std::string::npos);
}

TEST(ThreadPoolClassMode, SubmitAfterShutdownReportsShutdownNotReject) {
  PriorityThreadPool pool(1, {TrafficClass{"only", 0, 1, 1}}, "shut-test");
  pool.shutdown();
  // kShutdown and kRejected must stay distinguishable: the caller retries
  // or sheds on rejection but must fail fast on shutdown.
  EXPECT_EQ(pool.try_submit(5, [] {}), SubmitResult::kShutdown);
}

// --- Surfaced async-raise drops (bugfix: silent submit() failure) ----------------

TEST(CompositeAsyncDrop, DropHandlerInvokedWhenPoolRejects) {
  cactus::CompositeProtocol::Options opts;
  opts.name = "drop-test";
  opts.pool_threads = 1;
  opts.pool_classes = {TrafficClass{"only", 0, 1, 1}};
  std::atomic<int> dropped{0};
  opts.on_async_drop = [&dropped](std::string_view event, const std::any&) {
    EXPECT_EQ(event, "ev");
    dropped.fetch_add(1);
  };
  cactus::CompositeProtocol proto(std::move(opts));

  Gate gate;
  std::atomic<int> ran{0};
  proto.bind("block", "block", [&gate](cactus::EventContext&) { gate.wait(); });
  proto.bind("ev", "count", [&ran](cactus::EventContext&) { ran.fetch_add(1); });
  std::uint64_t before =
      metrics::Registry::global().counter("cactus.pool.async_dropped").value();

  proto.raise_async("block");  // occupies the single worker
  gate.await_entered();
  proto.raise_async("ev");     // queued (depth 1/1)
  proto.raise_async("ev");               // queue full: must be surfaced
  EXPECT_EQ(dropped.load(), 1);
  EXPECT_EQ(
      metrics::Registry::global().counter("cactus.pool.async_dropped").value(),
      before + 1);
  gate.release();
  proto.stop();
  EXPECT_EQ(ran.load(), 1);
}

class NullServerQos : public ServerQosInterface {
 public:
  int num_servers() const override { return 1; }
  int replica_index() const override { return 0; }
  const std::string& object_id() const override { return object_id_; }
  void invoke_servant(Request& req) override { req.stage(true, Value(1)); }
  bool peer_call(int, const std::string&, const ValueList&, Value*) override {
    return true;
  }
  std::string description() const override { return "null"; }

 private:
  std::string object_id_ = "Obj";
};

TEST(CompositeAsyncDrop, CactusServerDefaultHandlerFailsTheRequest) {
  CactusServer::Options opts;
  opts.composite.name = "drop-server";
  opts.composite.pool_threads = 1;
  opts.composite.pool_classes = {TrafficClass{"only", 0, 1, 1}};
  CactusServer server(std::make_unique<NullServerQos>(), opts);

  Gate gate;
  server.protocol().bind("block", "block",
                         [&gate](cactus::EventContext&) { gate.wait(); });
  // Events with zero bindings never reach the pool (fast path), so the
  // filler and the to-be-dropped raise both need a handler bound.
  server.protocol().bind("filler", "noop", [](cactus::EventContext&) {});
  server.protocol().bind(ev::kRequestReturned, "noop",
                         [](cactus::EventContext&) {});
  server.protocol().raise_async("block");
  gate.await_entered();
  server.protocol().raise_async("filler");  // queued (depth 1/1)

  auto req = std::make_shared<Request>("Obj", "m", ValueList{});
  server.protocol().raise_async(ev::kRequestReturned, req);
  gate.release();
  // The default drop handler completes the request with a failure instead of
  // leaving whoever waits on it to hang until a timeout.
  EXPECT_TRUE(req->is_done());
  EXPECT_FALSE(req->succeeded());
  EXPECT_NE(req->error().find("dropped"), std::string::npos);
}

// --- QueuedSched wakeup re-arm (bugfix: one wake released one waiter) ------------

TEST(QueuedSchedRearm, SingleReturnReleasesAllEligibleWaiters) {
  cactus::CompositeProtocol::Options proto_opts;
  proto_opts.name = "rearm-test";
  proto_opts.pool_threads = 2;
  cactus::CompositeProtocol proto(std::move(proto_opts));
  NullServerQos qos;
  proto.shared().get_or_create<ServerQosHolder>(kServerQosKey)->qos = &qos;
  proto.add_protocol(std::make_unique<micro::QueuedSched>(6));

  // Counts requests that make it PAST the scheduling gate (a halted/parked
  // activation never reaches kOrderDefault handlers).
  std::atomic<int> released{0};
  proto.bind(ev::kReadyToInvoke, "countReleased",
             [&released](cactus::EventContext&) { released.fetch_add(1); });

  auto high = std::make_shared<Request>("Obj", "m", ValueList{});
  high->priority = 9;
  proto.raise(ev::kReadyToInvoke, high);  // counted as active high
  EXPECT_EQ(released.load(), 1);

  std::vector<RequestPtr> lows;
  for (int i = 0; i < 3; ++i) {
    auto low = std::make_shared<Request>("Obj", "m", ValueList{});
    low->priority = 2;
    proto.raise(ev::kReadyToInvoke, low);  // parked behind the active high
    lows.push_back(low);
  }
  EXPECT_EQ(released.load(), 1);

  // ONE terminal notification for the high request. The parked requests
  // never "return" themselves (they are never invoked here), so without the
  // re-arm only the first waiter would ever be released.
  proto.raise(ev::kInvokeReturn, high);
  TimePoint deadline = now() + ms(2000);
  while (released.load() < 4 && now() < deadline) {
    std::this_thread::sleep_for(ms(5));
  }
  EXPECT_EQ(released.load(), 4);  // high + all three waiters
  proto.stop();
}

// --- End-to-end scenarios on the simulated cluster -------------------------------

/// Servant that burns a fixed service time per call and records entries.
class SlowServant : public Servant {
 public:
  explicit SlowServant(Duration service_time) : service_time_(service_time) {}

  Value dispatch(const std::string& method, const ValueList& params) override {
    {
      std::scoped_lock lk(mu_);
      entries_.push_back(params.empty() ? Value() : params[0]);
    }
    std::this_thread::sleep_for(service_time_);
    (void)method;
    return Value(true);
  }

  std::size_t entry_count() const {
    std::scoped_lock lk(mu_);
    return entries_.size();
  }

 private:
  Duration service_time_;
  mutable std::mutex mu_;
  std::vector<Value> entries_;
};

sim::ClusterOptions overload_options(std::shared_ptr<Servant> servant) {
  sim::ClusterOptions opts;
  opts.platform = sim::PlatformKind::kRmi;
  opts.level = sim::InterceptionLevel::kFull;
  opts.num_replicas = 1;
  opts.net.base_latency = us(50);
  opts.net.jitter = 0;
  opts.request_timeout = ms(8000);
  opts.servant_factory = [servant] { return servant; };
  return opts;
}

// Regression for the high_active leak: a COUNTED high-priority request whose
// terminal outcome bypasses invokeReturn (here: access_control denies it at
// readyToInvoke, after QueuedSched already counted it) must still be retired.
// Pre-fix, high_active stayed pinned at 1 and every later low-priority
// request parked until the 3 s server-side processing timeout.
TEST(QueuedSchedRegression, DeniedHighRequestDoesNotStrandLowQueue) {
  auto servant = std::make_shared<SlowServant>(ms(5));
  auto opts = overload_options(servant);
  opts.qos.add(Side::kServer, "queued_sched")
      .add(Side::kServer, "access_control", {{"allow", "alice:*"}});
  sim::Cluster cluster(opts);

  CqosStub::Options mallory;
  mallory.priority = 9;
  mallory.principal = "mallory";
  auto high_client = cluster.make_client(mallory);
  CqosStub::Options alice;
  alice.priority = 2;
  alice.principal = "alice";
  auto low_client = cluster.make_client(alice);

  // The denied high request: counted by the scheduling gate, then completed
  // + halted by the access check — invokeReturn never fires for it.
  EXPECT_THROW(high_client->call("work", {Value("denied")}), InvocationError);

  TimePoint before = now();
  low_client->call("work", {Value("low")});
  // Post-fix the low request is admitted immediately; pre-fix it parked
  // until the server's process timeout (3000 ms).
  EXPECT_LT(now() - before, ms(2500));
  EXPECT_EQ(servant->entry_count(), 1u);  // the denied call never ran
}

// Deadline propagation round trip: the client-side "deadline" protocol
// stamps a relative budget, the skeleton anchors it at arrival, and the
// admission protocol sheds the request when it is released after expiry —
// a fast, marked failure instead of an 8 s client timeout.
TEST(DeadlinePropagation, ParkedRequestShedWhenReleasedAfterDeadline) {
  auto servant = std::make_shared<SlowServant>(ms(300));
  auto opts = overload_options(servant);
  opts.qos.add(Side::kServer, "queued_sched")
      .add(Side::kServer, "admission");
  sim::Cluster cluster(opts);

  CqosStub::Options high;
  high.priority = 9;
  auto high_client = cluster.make_client(high);
  CqosStub::Options low;
  low.priority = 2;
  auto low_client = cluster.make_client(low);
  std::vector<MicroProtocolSpec> low_specs{
      {"deadline", {{"budget_ms", "100"}}}};
  auto deadline_client = cluster.make_client(low, &low_specs);

  std::thread high_thread(
      [&] { high_client->call("work", {Value("high")}); });
  std::this_thread::sleep_for(ms(60));  // high is executing (300 ms)

  // Arrives with ~100 ms of budget, parks behind the high request, and is
  // already late when QueuedSched releases it at ~240 ms later.
  TimePoint before = now();
  try {
    deadline_client->call("work", {Value("late")});
    FAIL() << "expected the request to be shed";
  } catch (const InvocationError& e) {
    EXPECT_TRUE(status::is_deadline_exceeded(e.what())) << e.what();
  }
  EXPECT_LT(now() - before, ms(2000));
  high_thread.join();
  EXPECT_EQ(servant->entry_count(), 1u);  // the late call was never invoked
  std::ignore = low_client;
}

// Admission control rejects (not times out) low-priority overflow while a
// seeded latency spike inflates network delays, and keeps the high-priority
// reserve available.
TEST(Admission, RejectsLowOverflowImmediatelyUnderLatencySpike) {
  auto servant = std::make_shared<SlowServant>(ms(250));
  auto opts = overload_options(servant);
  opts.net.base_latency = us(200);
  opts.qos.add(Side::kServer, "admission",
               {{"max_pending", "2"}, {"reserve", "1"}});
  sim::Cluster cluster(opts);
  cluster.faults().run_plan(
      net::FaultPlan::parse("plan spike\n@0ms latency_spike 600ms x10\n"));

  CqosStub::Options low;
  low.priority = 2;
  auto low_a = cluster.make_client(low);
  auto low_b = cluster.make_client(low);
  CqosStub::Options high;
  high.priority = 9;
  auto high_client = cluster.make_client(high);

  std::uint64_t rejected_before = metrics::Registry::global()
                                      .counter("cqos.admission.rejected.low")
                                      .value();

  // Low capacity is max_pending - reserve = 1: the first low occupies it.
  std::thread first_low(
      [&] { low_a->call("work", {Value("low-a")}); });
  std::this_thread::sleep_for(ms(80));

  TimePoint before = now();
  try {
    low_b->call("work", {Value("low-b")});
    FAIL() << "expected overload rejection";
  } catch (const InvocationError& e) {
    EXPECT_TRUE(status::is_overload_rejected(e.what())) << e.what();
  }
  // Rejection is immediate backpressure, far below any timeout.
  EXPECT_LT(now() - before, ms(1000));
  EXPECT_GT(metrics::Registry::global()
                .counter("cqos.admission.rejected.low")
                .value(),
            rejected_before);

  // The reserve keeps high-priority admission open while a low is pending.
  high_client->call("work", {Value("high")});
  first_low.join();
  EXPECT_EQ(servant->entry_count(), 2u);  // low-a and high; low-b shed
}

// Platform dispatch seam: a full bounded class queue bounces the request at
// the transport layer before a worker thread or the Cactus runtime is
// committed, and the client sees the distinguishable backpressure marker.
TEST(PlatformClasses, DispatchQueueFullRejectsBeforeDispatch) {
  auto servant = std::make_shared<SlowServant>(ms(300));
  auto opts = overload_options(servant);
  opts.platform_threads = 1;
  opts.platform_classes = {TrafficClass{"high", 6, 4, 0},
                           TrafficClass{"low", 0, 1, 1}};
  sim::Cluster cluster(opts);

  CqosStub::Options low;
  low.priority = 2;
  auto low_a = cluster.make_client(low);
  auto low_b = cluster.make_client(low);
  auto low_c = cluster.make_client(low);

  std::thread t1([&] { low_a->call("work", {Value("a")}); });
  std::this_thread::sleep_for(ms(80));  // a occupies the single worker
  std::thread t2([&] { low_b->call("work", {Value("b")}); });
  std::this_thread::sleep_for(ms(80));  // b fills the low queue (depth 1)

  TimePoint before = now();
  try {
    low_c->call("work", {Value("c")});
    FAIL() << "expected dispatch-queue rejection";
  } catch (const InvocationError& e) {
    EXPECT_TRUE(status::is_overload_rejected(e.what())) << e.what();
  }
  EXPECT_LT(now() - before, ms(1000));

  t1.join();
  t2.join();
  EXPECT_EQ(servant->entry_count(), 2u);  // a and b ran; c was bounced
}

}  // namespace
}  // namespace cqos
