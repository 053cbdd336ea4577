// Stress tests for the synchronization primitives (common/sync.h) and the
// PriorityThreadPool shutdown contract. These exist to give TSan and the
// thread-safety-annotation build something real to chew on: hundreds of
// threads hammering Gate / CountdownLatch / the pool, plus the specific
// lifetime hazard the primitives guard against (a wakened waiter
// destroying the primitive while the setter is still inside it — which is
// why Gate/CountdownLatch notify while holding the mutex).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "cactus/thread_pool.h"
#include "common/clock.h"
#include "common/sync.h"

namespace cqos {
namespace {

using cactus::SubmitResult;

// Sized so the whole file stays well under the 120 s ctest timeout even
// under TSan (~10-20x slowdown).
constexpr int kManyThreads = 200;
constexpr int kRounds = 50;

TEST(SyncStress, GateManyWaitersOneSetter) {
  for (int round = 0; round < kRounds; ++round) {
    Gate gate;
    std::atomic<int> woke{0};
    std::vector<std::thread> waiters;
    waiters.reserve(16);
    for (int i = 0; i < 16; ++i) {
      waiters.emplace_back([&] {
        gate.wait();
        woke.fetch_add(1, std::memory_order_relaxed);
      });
    }
    gate.set();
    for (auto& t : waiters) t.join();
    EXPECT_EQ(woke.load(), 16);
    EXPECT_TRUE(gate.is_set());
  }
}

// The use-after-free shape: the waiter owns the Gate and destroys it as
// soon as wait_for() returns. Because set() notifies under the lock, the
// setter has fully left the Gate before the waiter can observe set_ and
// return. TSan validates the ordering.
TEST(SyncStress, GateDestroyedByWaiterAfterSet) {
  for (int round = 0; round < kRounds * 4; ++round) {
    auto gate = std::make_unique<Gate>();
    CountdownLatch started(1);
    std::thread waiter([&] {
      started.count_down();
      ASSERT_TRUE(gate->wait_for(std::chrono::seconds(10)));
      gate.reset();  // destroy while the setter may still be returning
    });
    started.wait();
    gate->set();
    waiter.join();
    EXPECT_EQ(gate, nullptr);
  }
}

TEST(SyncStress, GateWaitForTimesOutWhenNeverSet) {
  Gate gate;
  EXPECT_FALSE(gate.wait_for(std::chrono::milliseconds(10)));
  EXPECT_FALSE(gate.is_set());
}

TEST(SyncStress, CountdownLatchManyCounters) {
  CountdownLatch latch(kManyThreads);
  std::atomic<int> after{0};
  std::vector<std::thread> threads;
  threads.reserve(kManyThreads + 8);
  // 8 waiters, kManyThreads counters, all racing.
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      latch.wait();
      after.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (int i = 0; i < kManyThreads; ++i) {
    threads.emplace_back([&] { latch.count_down(); });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(after.load(), 8);
  // Extra count_down()s must be harmless (saturating at zero).
  latch.count_down();
  EXPECT_TRUE(latch.wait_for(std::chrono::milliseconds(1)));
}

TEST(SyncStress, CountdownLatchWaiterDestroysAfterLastCount) {
  for (int round = 0; round < kRounds * 4; ++round) {
    auto latch = std::make_unique<CountdownLatch>(1);
    std::thread waiter([&] {
      latch->wait();
      latch.reset();  // destroy immediately after release
    });
    std::this_thread::yield();
    latch->count_down();
    waiter.join();
  }
}

TEST(SyncStress, ThreadPoolManySubmittersAllTasksRun) {
  cactus::PriorityThreadPool pool(8, {}, "stress");
  std::atomic<int> ran{0};
  std::atomic<int> accepted{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kManyThreads);
  for (int i = 0; i < kManyThreads; ++i) {
    submitters.emplace_back([&, i] {
      for (int j = 0; j < 20; ++j) {
        if (pool.try_submit(i % 5, [&] {
              ran.fetch_add(1, std::memory_order_relaxed);
            }) == SubmitResult::kAccepted) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  pool.shutdown();
  // Drain-then-join: every accepted task ran before shutdown() returned.
  EXPECT_EQ(ran.load(), accepted.load());
  EXPECT_EQ(accepted.load(), kManyThreads * 20);
}

TEST(SyncStress, ThreadPoolShutdownDrainsPendingQueue) {
  for (int round = 0; round < 20; ++round) {
    cactus::PriorityThreadPool pool(2, {}, "drain");
    std::atomic<int> ran{0};
    constexpr int kTasks = 500;
    int submitted = 0;
    for (int i = 0; i < kTasks; ++i) {
      if (pool.try_submit(i % 3, [&] {
            ran.fetch_add(1, std::memory_order_relaxed);
          }) == SubmitResult::kAccepted) {
        ++submitted;
      }
    }
    ASSERT_EQ(submitted, kTasks);  // nothing raced shutdown yet
    pool.shutdown();
    EXPECT_EQ(ran.load(), kTasks) << "shutdown() dropped queued tasks";
  }
}

TEST(SyncStress, ThreadPoolConcurrentShutdownAllCallersBlockUntilJoined) {
  for (int round = 0; round < 20; ++round) {
    auto pool = std::make_unique<cactus::PriorityThreadPool>(
        4, std::vector<cactus::TrafficClass>{}, "race");
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i) {
      ASSERT_EQ(pool->try_submit(
                    0, [&] { ran.fetch_add(1, std::memory_order_relaxed); }),
                SubmitResult::kAccepted);
    }
    CountdownLatch go(1);
    std::vector<std::thread> closers;
    for (int i = 0; i < 8; ++i) {
      closers.emplace_back([&] {
        go.wait();
        pool->shutdown();
        // Deterministic contract: by the time ANY shutdown() caller
        // returns, every accepted task has run and workers have exited.
        EXPECT_EQ(ran.load(), 100);
      });
    }
    go.count_down();
    for (auto& t : closers) t.join();
    // A closed pool refuses work as shut down, not as rejected.
    EXPECT_EQ(pool->try_submit(0, [] {}), SubmitResult::kShutdown);
    pool.reset();
  }
}

TEST(SyncStress, ThreadPoolSubmitRacingShutdownNeverLosesAcceptedTask) {
  for (int round = 0; round < 40; ++round) {
    cactus::PriorityThreadPool pool(3, {}, "race2");
    std::atomic<int> ran{0};
    std::atomic<int> accepted{0};
    CountdownLatch go(1);
    std::vector<std::thread> submitters;
    for (int i = 0; i < 6; ++i) {
      submitters.emplace_back([&] {
        go.wait();
        for (int j = 0; j < 50; ++j) {
          SubmitResult r = pool.try_submit(
              1, [&] { ran.fetch_add(1, std::memory_order_relaxed); });
          if (r == SubmitResult::kAccepted) {
            accepted.fetch_add(1, std::memory_order_relaxed);
          } else {
            EXPECT_EQ(r, SubmitResult::kShutdown);
          }
        }
      });
    }
    std::thread closer([&] {
      go.wait();
      pool.shutdown();
    });
    go.count_down();
    for (auto& t : submitters) t.join();
    closer.join();
    pool.shutdown();  // idempotent
    EXPECT_EQ(ran.load(), accepted.load());
  }
}

TEST(SyncStress, CondVarProducerConsumerHandoff) {
  Mutex mu;
  CondVar cv;
  int value = 0;        // guarded by mu
  bool has_value = false;
  std::atomic<long> sum{0};
  constexpr int kItems = 2000;

  std::thread consumer([&] {
    for (int i = 0; i < kItems; ++i) {
      MutexLock lk(mu);
      while (!has_value) cv.wait(mu);
      sum.fetch_add(value, std::memory_order_relaxed);
      has_value = false;
      cv.notify_one();
    }
  });
  std::thread producer([&] {
    for (int i = 1; i <= kItems; ++i) {
      MutexLock lk(mu);
      while (has_value) cv.wait(mu);
      value = i;
      has_value = true;
      cv.notify_one();
    }
  });
  producer.join();
  consumer.join();
  EXPECT_EQ(sum.load(), static_cast<long>(kItems) * (kItems + 1) / 2);
}

}  // namespace
}  // namespace cqos
