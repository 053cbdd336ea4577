#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "cactus/composite.h"
#include "common/priority.h"
#include "common/sync.h"

namespace cqos::cactus {
namespace {

TEST(Composite, SyncRaiseRunsHandlersInOrder) {
  CompositeProtocol proto;
  std::vector<int> trace;
  proto.bind("ev", "second", [&](EventContext&) { trace.push_back(2); }, 10);
  proto.bind("ev", "first", [&](EventContext&) { trace.push_back(1); }, -10);
  proto.bind("ev", "third", [&](EventContext&) { trace.push_back(3); },
             kOrderLast);
  proto.raise("ev");
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
}

TEST(Composite, SameOrderRunsInBindSequence) {
  CompositeProtocol proto;
  std::vector<int> trace;
  proto.bind("ev", "a", [&](EventContext&) { trace.push_back(1); }, 0);
  proto.bind("ev", "b", [&](EventContext&) { trace.push_back(2); }, 0);
  proto.bind("ev", "c", [&](EventContext&) { trace.push_back(3); }, 0);
  proto.raise("ev");
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
}

TEST(Composite, HaltStopsLaterHandlers) {
  CompositeProtocol proto;
  std::vector<int> trace;
  proto.bind("ev", "early", [&](EventContext& ctx) {
    trace.push_back(1);
    ctx.halt();
  }, -10);
  proto.bind("ev", "base", [&](EventContext&) { trace.push_back(2); },
             kOrderLast);
  proto.raise("ev");
  EXPECT_EQ(trace, (std::vector<int>{1}));
}

TEST(Composite, DynamicArgumentIsDelivered) {
  CompositeProtocol proto;
  int seen = 0;
  proto.bind("ev", "h", [&](EventContext& ctx) { seen = ctx.dyn<int>(); });
  proto.raise("ev", 42);
  EXPECT_EQ(seen, 42);
}

TEST(Composite, WrongDynTypeThrowsTypeError) {
  CompositeProtocol proto;
  bool threw = false;
  proto.bind("ev", "h", [&](EventContext& ctx) {
    try {
      (void)ctx.dyn<std::string>();
    } catch (const TypeError&) {
      threw = true;
    }
  });
  proto.raise("ev", 42);
  EXPECT_TRUE(threw);
}

TEST(Composite, StaticArgumentPerBinding) {
  CompositeProtocol proto;
  std::vector<int> seen;
  auto handler = [&](EventContext& ctx) {
    seen.push_back(ctx.static_arg<int>());
  };
  proto.bind("ev", "h", handler, 0, std::any(7));
  proto.bind("ev", "h", handler, 0, std::any(8));
  proto.raise("ev");
  EXPECT_EQ(seen, (std::vector<int>{7, 8}));
}

TEST(Composite, MultipleBindingsOfSameHandlerEachExecute) {
  CompositeProtocol proto;
  int count = 0;
  auto handler = [&](EventContext&) { ++count; };
  for (int i = 0; i < 5; ++i) proto.bind("ev", "h", handler);
  proto.raise("ev");
  EXPECT_EQ(count, 5);
}

TEST(Composite, UnbindRemovesHandler) {
  CompositeProtocol proto;
  int count = 0;
  BindingId id = proto.bind("ev", "h", [&](EventContext&) { ++count; });
  proto.raise("ev");
  EXPECT_TRUE(proto.unbind(id));
  EXPECT_FALSE(proto.unbind(id));  // second unbind is a no-op
  proto.raise("ev");
  EXPECT_EQ(count, 1);
  EXPECT_EQ(proto.binding_count("ev"), 0u);
}

// An activation runs on the event table it started with: a handler that
// unbinds a later handler, or binds a new one, changes the next activation
// only.
TEST(Composite, ActivationFinishesOnItsSnapshot) {
  CompositeProtocol proto;
  std::vector<std::string> ran;
  BindingId second = 0;
  bool edited = false;
  proto.bind("ev", "first", [&](EventContext& ctx) {
    ran.push_back("first");
    if (edited) return;
    edited = true;
    ctx.protocol().unbind(second);
    ctx.protocol().bind(
        "ev", "third", [&](EventContext&) { ran.push_back("third"); },
        kOrderLast);
  }, kOrderFirst);
  second = proto.bind("ev", "second",
                      [&](EventContext&) { ran.push_back("second"); });
  proto.raise("ev");
  EXPECT_EQ(ran, (std::vector<std::string>{"first", "second"}));
  ran.clear();
  proto.raise("ev");
  EXPECT_EQ(ran, (std::vector<std::string>{"first", "third"}));
}

// Activations on several threads race bind/unbind on another: once
// unbind() has returned, no activation that starts afterwards runs the
// unbound handler, and one bound before an activation starts runs in it.
TEST(Composite, UnbindDuringConcurrentActivationsIsFinal) {
  CompositeProtocol proto;
  constexpr int kRaisers = 4, kRounds = 200;
  std::atomic<int> round{0};  // bumped once a round's unbind has returned
  std::atomic<bool> done{false};
  std::atomic<int> stale{0};
  std::atomic<int> missed{0};
  std::atomic<long> activations{0};
  // The handler carries the round it was bound in; an activation passes the
  // round that had finished before it started.
  auto bind_round = [&](int r) {
    return proto.bind("ev", "h", [&](EventContext& ctx) {
      if (ctx.static_arg<int>() < ctx.dyn<int>()) stale.fetch_add(1);
    }, kOrderDefault, r);
  };
  proto.bind("ev", "counter", [&](EventContext& ctx) {
    (void)ctx;
    activations.fetch_add(1);
  }, kOrderLast);
  std::vector<std::thread> raisers;
  for (int t = 0; t < kRaisers; ++t) {
    raisers.emplace_back([&] {
      while (!done.load()) {
        int finished = round.load();
        proto.raise("ev", finished);
      }
    });
  }
  for (int r = 0; r < kRounds; ++r) {
    BindingId id = bind_round(r);
    // Bound before this activation starts: it must run here.
    int seen = 0;
    BindingId probe = proto.bind("probe", "p", [&](EventContext&) { ++seen; });
    proto.raise("probe");
    if (seen != 1) missed.fetch_add(1);
    proto.unbind(probe);
    std::this_thread::yield();
    EXPECT_TRUE(proto.unbind(id));
    round.store(r + 1);
  }
  done.store(true);
  for (auto& t : raisers) t.join();
  EXPECT_EQ(stale.load(), 0);
  EXPECT_EQ(missed.load(), 0);
  EXPECT_GT(activations.load(), 0);
  EXPECT_EQ(proto.binding_count("ev"), 1u);
  EXPECT_EQ(proto.binding_count("probe"), 0u);
}

TEST(Composite, RaiseWithNoHandlersIsNoop) {
  CompositeProtocol proto;
  proto.raise("nobody-home", 1);
  SUCCEED();
}

TEST(Composite, HandlerExceptionDoesNotStopOthers) {
  CompositeProtocol proto;
  int after = 0;
  proto.bind("ev", "boom",
             [](EventContext&) { throw Error("intentional"); }, -1);
  proto.bind("ev", "after", [&](EventContext&) { ++after; }, 1);
  proto.raise("ev");
  EXPECT_EQ(after, 1);
}

TEST(Composite, HandlerCanBindDuringActivation) {
  CompositeProtocol proto;
  int second_event = 0;
  proto.bind("ev", "binder", [&](EventContext& ctx) {
    ctx.protocol().bind("ev2", "late",
                        [&](EventContext&) { ++second_event; });
  });
  proto.raise("ev");
  proto.raise("ev2");
  EXPECT_EQ(second_event, 1);
}

TEST(Composite, AsyncRaiseRunsConcurrently) {
  CompositeProtocol proto;
  Gate started, release;
  std::atomic<int> done{0};
  proto.bind("ev", "h", [&](EventContext&) {
    started.set();
    release.wait();
    done.fetch_add(1);
  });
  proto.raise_async("ev");
  ASSERT_TRUE(started.wait_for(ms(2000)));
  EXPECT_EQ(done.load(), 0);  // caller was not blocked
  release.set();
  for (int i = 0; i < 200 && done.load() == 0; ++i) {
    std::this_thread::sleep_for(ms(5));
  }
  EXPECT_EQ(done.load(), 1);
}

TEST(Composite, AsyncPreservesRaisersPriority) {
  CompositeProtocol proto;
  Gate ran;
  std::atomic<int> observed{-1};
  proto.bind("ev", "h", [&](EventContext&) {
    observed.store(current_thread_priority());
    ran.set();
  });
  {
    PriorityGuard guard(9);
    proto.raise_async("ev");
  }
  ASSERT_TRUE(ran.wait_for(ms(2000)));
  EXPECT_EQ(observed.load(), 9);
}

TEST(Composite, AsyncExplicitPriorityOverrides) {
  CompositeProtocol proto;
  Gate ran;
  std::atomic<int> observed{-1};
  proto.bind("ev", "h", [&](EventContext&) {
    observed.store(current_thread_priority());
    ran.set();
  });
  proto.raise_async("ev", {}, 2);
  ASSERT_TRUE(ran.wait_for(ms(2000)));
  EXPECT_EQ(observed.load(), 2);
}

TEST(Composite, SyncExplicitPriorityAppliesAndRestores) {
  CompositeProtocol proto;
  int during = -1;
  proto.bind("ev", "h", [&](EventContext&) {
    during = current_thread_priority();
  });
  int before = current_thread_priority();
  proto.raise("ev", {}, 8);
  EXPECT_EQ(during, 8);
  EXPECT_EQ(current_thread_priority(), before);
}

TEST(Composite, DelayedRaiseFires) {
  CompositeProtocol proto;
  Gate fired;
  proto.bind("ev", "h", [&](EventContext&) { fired.set(); });
  proto.raise_delayed("ev", {}, ms(30));
  EXPECT_FALSE(fired.is_set());
  EXPECT_TRUE(fired.wait_for(ms(2000)));
}

TEST(Composite, DelayedRaiseCancellable) {
  CompositeProtocol proto;
  std::atomic<int> fired{0};
  proto.bind("ev", "h", [&](EventContext&) { fired.fetch_add(1); });
  TimerId id = proto.raise_delayed("ev", {}, ms(80));
  EXPECT_TRUE(proto.cancel_delayed(id));
  EXPECT_FALSE(proto.cancel_delayed(id));  // already cancelled
  std::this_thread::sleep_for(ms(150));
  EXPECT_EQ(fired.load(), 0);
}

TEST(Composite, SharedDataSameKeySameObject) {
  CompositeProtocol proto;
  auto a = proto.shared().get_or_create<int>("counter");
  auto b = proto.shared().get_or_create<int>("counter");
  *a = 5;
  EXPECT_EQ(*b, 5);
  EXPECT_EQ(a.get(), b.get());
}

TEST(Composite, SharedDataTypeMismatchThrows) {
  CompositeProtocol proto;
  proto.shared().get_or_create<int>("k");
  EXPECT_THROW(proto.shared().get_or_create<double>("k"), TypeError);
}

TEST(Composite, StopIsIdempotentAndDropsAsyncWork) {
  CompositeProtocol proto;
  proto.bind("ev", "h", [](EventContext&) {});
  proto.stop();
  proto.stop();
  proto.raise_async("ev");  // dropped, no crash
  SUCCEED();
}

TEST(Composite, ThreadPerEventModeStillWorks) {
  CompositeProtocol::Options opts;
  opts.use_thread_pool = false;
  CompositeProtocol proto(opts);
  CountdownLatch latch(8);
  proto.bind("ev", "h", [&](EventContext&) { latch.count_down(); });
  for (int i = 0; i < 8; ++i) proto.raise_async("ev");
  EXPECT_TRUE(latch.wait_for(ms(2000)));
  proto.stop();
}

TEST(Composite, MicroProtocolLifecycle) {
  class Probe : public MicroProtocol {
   public:
    explicit Probe(int* shutdowns) : shutdowns_(shutdowns) {}
    std::string_view name() const override { return "probe"; }
    void init(CompositeProtocol& proto) override {
      proto.bind("ev", "probe", [](EventContext&) {});
    }
    void shutdown() override { ++*shutdowns_; }

   private:
    int* shutdowns_;
  };

  int shutdowns = 0;
  CompositeProtocol proto;
  proto.add_protocol(std::make_unique<Probe>(&shutdowns));
  EXPECT_NE(proto.find_protocol("probe"), nullptr);
  EXPECT_EQ(proto.find_protocol("nope"), nullptr);
  EXPECT_EQ(proto.binding_count("ev"), 1u);
  EXPECT_EQ(proto.protocol_names(), std::vector<std::string>{"probe"});
  proto.stop();
  EXPECT_EQ(shutdowns, 1);
}

TEST(PriorityPool, HigherPriorityRunsFirst) {
  PriorityThreadPool pool(1);
  Gate block, seeded;
  std::vector<int> order;
  std::mutex mu;
  // Occupy the single worker so subsequent tasks queue up.
  pool.submit(kNormalPriority, [&] {
    seeded.set();
    block.wait();
  });
  ASSERT_TRUE(seeded.wait_for(ms(2000)));
  CountdownLatch latch(3);
  for (int prio : {3, 9, 5}) {
    pool.submit(prio, [&, prio] {
      std::scoped_lock lk(mu);
      order.push_back(prio);
      latch.count_down();
    });
  }
  block.set();
  ASSERT_TRUE(latch.wait_for(ms(2000)));
  EXPECT_EQ(order, (std::vector<int>{9, 5, 3}));
}

TEST(PriorityPool, FifoWithinPriority) {
  PriorityThreadPool pool(1);
  Gate block, seeded;
  std::vector<int> order;
  std::mutex mu;
  pool.submit(kNormalPriority, [&] {
    seeded.set();
    block.wait();
  });
  ASSERT_TRUE(seeded.wait_for(ms(2000)));
  CountdownLatch latch(4);
  for (int i = 0; i < 4; ++i) {
    pool.submit(kNormalPriority, [&, i] {
      std::scoped_lock lk(mu);
      order.push_back(i);
      latch.count_down();
    });
  }
  block.set();
  ASSERT_TRUE(latch.wait_for(ms(2000)));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(PriorityPool, InlineAndPooledRunsShareTheConcurrencyBound) {
  constexpr int kSlots = 3;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 300;
  PriorityThreadPool pool(kSlots, "inline-bound");
  std::atomic<int> active{0};
  std::atomic<int> peak{0};
  std::atomic<int> ran{0};
  std::atomic<int> inline_runs{0};
  auto task = [&] {
    int now_active = active.fetch_add(1) + 1;
    int seen = peak.load();
    while (now_active > seen && !peak.compare_exchange_weak(seen, now_active)) {
    }
    std::this_thread::yield();
    active.fetch_sub(1);
    ran.fetch_add(1);
  };
  // Half the threads submit; the other half run every task inline,
  // retrying while the pool refuses (a busy slot set or a queue). Once the
  // submitters stop, the queue drains and every inline attempt can succeed.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        int prio = 1 + (t + i) % 9;
        if (t % 2 == 0) {
          while (!pool.try_run_inline(prio, task)) std::this_thread::yield();
          inline_runs.fetch_add(1);
        } else {
          ASSERT_TRUE(pool.submit(prio, task));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  pool.shutdown();
  EXPECT_EQ(ran.load(), kThreads * kPerThread);
  EXPECT_EQ(inline_runs.load(), kThreads / 2 * kPerThread);
  EXPECT_LE(peak.load(), kSlots);
}

// Inline runs and submits race on a 2-slot pool, in short rounds with no
// shutdown to flush the queue. In each round two callers try to run a long
// task inline while two others submit short ones once something runs: a
// worker woken by a submit often finds both slots held inline and waits.
// The bound holds, and every round's tasks all run, because leaving an
// inline run wakes a worker when tasks are queued (a stranded task keeps
// `ran` short until the round's deadline).
TEST(PriorityPool, InlineRunsRacingSubmitsStrandNoTask) {
  constexpr int kSlots = 2;
  constexpr int kRounds = 200;
  PriorityThreadPool pool(kSlots, "inline-race");
  std::atomic<int> active{0};
  std::atomic<int> peak{0};
  std::atomic<int> ran{0};
  std::atomic<int> inline_runs{0};
  auto run_for = [&](Duration d) {
    int now_active = active.fetch_add(1) + 1;
    int seen = peak.load();
    while (now_active > seen && !peak.compare_exchange_weak(seen, now_active)) {
    }
    TimePoint until = now() + d;
    while (now() < until) {
    }
    active.fetch_sub(1);
    ran.fetch_add(1);
  };
  auto long_task = [&] { run_for(us(300)); };
  auto short_task = [&] { run_for(us(1)); };
  int expected = 0;
  int stranded_rounds = 0;
  for (int round = 0; round < kRounds && stranded_rounds == 0; ++round) {
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&] {
        if (pool.try_run_inline(kNormalPriority, long_task)) {
          inline_runs.fetch_add(1);
        } else {
          EXPECT_EQ(pool.try_submit(kNormalPriority, long_task),
                    SubmitResult::kAccepted);
        }
      });
      threads.emplace_back([&] {
        TimePoint give_up = now() + ms(5);
        while (active.load() == 0 && now() < give_up) {
        }
        EXPECT_EQ(pool.try_submit(kNormalPriority, short_task),
                  SubmitResult::kAccepted);
      });
    }
    for (auto& th : threads) th.join();
    expected += 4;
    TimePoint deadline = now() + ms(2000);
    while (ran.load() < expected && now() < deadline) {
      std::this_thread::sleep_for(us(100));
    }
    if (ran.load() < expected) ++stranded_rounds;
  }
  EXPECT_EQ(stranded_rounds, 0);
  EXPECT_GT(inline_runs.load(), 0);
  EXPECT_LE(peak.load(), kSlots);
}

TEST(PriorityPool, InlineRunHoldsItsSlotAndQueuedWorkKeepsPriorityOrder) {
  PriorityThreadPool pool(1, "inline-order");
  Gate entered, release;
  std::thread holder([&] {
    auto hold = [&] {
      EXPECT_EQ(current_thread_priority(), 7);
      entered.set();
      release.wait();
    };
    EXPECT_TRUE(pool.try_run_inline(7, hold));
  });
  ASSERT_TRUE(entered.wait_for(ms(10000)));
  // The only slot is held inline: another inline run is refused, and
  // submitted work waits for the slot instead of starting on the worker.
  bool ran_inline = false;
  auto never = [&] { ran_inline = true; };
  EXPECT_FALSE(pool.try_run_inline(kNormalPriority, never));
  EXPECT_FALSE(ran_inline);
  std::vector<int> order;
  std::mutex mu;
  CountdownLatch latch(3);
  for (int prio : {3, 9, 5}) {
    pool.submit(prio, [&, prio] {
      std::scoped_lock lk(mu);
      order.push_back(prio);
      latch.count_down();
    });
  }
  std::this_thread::sleep_for(ms(20));
  {
    std::scoped_lock lk(mu);
    EXPECT_TRUE(order.empty());
  }
  // Finishing the inline run hands the freed slot to the worker.
  release.set();
  holder.join();
  ASSERT_TRUE(latch.wait_for(ms(10000)));
  EXPECT_EQ(order, (std::vector<int>{9, 5, 3}));
}

TEST(PriorityPool, SubmitAfterShutdownRejected) {
  PriorityThreadPool pool(2);
  pool.shutdown();
  EXPECT_FALSE(pool.submit(5, [] {}));
  bool ran = false;
  auto task = [&] { ran = true; };
  EXPECT_FALSE(pool.try_run_inline(5, task));
  EXPECT_FALSE(ran);
}

TEST(Timer, ScheduleAndCancel) {
  TimerService timers;
  std::atomic<int> fired{0};
  TimerId keep = timers.schedule(ms(20), [&] { fired.fetch_add(1); });
  TimerId cancel = timers.schedule(ms(20), [&] { fired.fetch_add(100); });
  EXPECT_NE(keep, kInvalidTimer);
  EXPECT_TRUE(timers.cancel(cancel));
  std::this_thread::sleep_for(ms(120));
  EXPECT_EQ(fired.load(), 1);
}

TEST(Timer, EarlierTimerAddedLaterStillFiresFirst) {
  TimerService timers;
  std::vector<int> order;
  std::mutex mu;
  CountdownLatch latch(2);
  timers.schedule(ms(80), [&] {
    std::scoped_lock lk(mu);
    order.push_back(2);
    latch.count_down();
  });
  timers.schedule(ms(10), [&] {
    std::scoped_lock lk(mu);
    order.push_back(1);
    latch.count_down();
  });
  ASSERT_TRUE(latch.wait_for(ms(2000)));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace cqos::cactus
