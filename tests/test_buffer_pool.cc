// BufferPool tests: free-list recycling semantics, retention caps,
// cross-thread recycle, and a concurrent stress designed to
// run under TSan (tools/sanitize.sh tsan) — the pool is thread-local by
// design, so the only shared state the stress exercises is the hand-off of
// whole buffers between threads (the moved-payload path in SimNetwork).
#include <gtest/gtest.h>

#include <mutex>
#include <thread>
#include <vector>

#include "common/buffer_pool.h"

namespace cqos {
namespace {

/// Every test starts and ends with an empty thread cache.
class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override { BufferPool::clear_thread_cache(); }
  void TearDown() override { BufferPool::clear_thread_cache(); }
};

TEST_F(BufferPoolTest, AcquireReturnsEmptyBufferWithRequestedCapacity) {
  Bytes b = BufferPool::acquire(100);
  EXPECT_TRUE(b.empty());
  EXPECT_GE(b.capacity(), 100u);
}

TEST_F(BufferPoolTest, RecycledBufferKeepsItsCapacity) {
  Bytes b = BufferPool::acquire();
  b.resize(4096, 0xab);
  const std::size_t cap = b.capacity();
  BufferPool::recycle(std::move(b));
  ASSERT_EQ(BufferPool::thread_cache_size(), 1u);

  Bytes again = BufferPool::acquire();
  EXPECT_TRUE(again.empty());          // cleared, no stale bytes
  EXPECT_GE(again.capacity(), cap);    // but the allocation survived
  EXPECT_EQ(BufferPool::thread_cache_size(), 0u);
}

TEST_F(BufferPoolTest, FreeListDepthIsCapped) {
  for (std::size_t i = 0; i < BufferPool::kMaxFreeList + 8; ++i) {
    Bytes b;
    b.resize(64);
    BufferPool::recycle(std::move(b));
  }
  EXPECT_LE(BufferPool::thread_cache_size(), BufferPool::kMaxFreeList);
}

TEST_F(BufferPoolTest, OversizedBuffersAreNotRetained) {
  Bytes big;
  big.resize(BufferPool::kMaxRetainedCapacity + 1);
  BufferPool::recycle(std::move(big));
  EXPECT_EQ(BufferPool::thread_cache_size(), 0u);
}

TEST_F(BufferPoolTest, EmptyAndMovedFromBuffersAreDroppedCheaply) {
  Bytes moved_from;
  BufferPool::recycle(std::move(moved_from));
  EXPECT_EQ(BufferPool::thread_cache_size(), 0u);
}

TEST_F(BufferPoolTest, CrossThreadRecycleFeedsTheRecyclingThread) {
  Bytes b = BufferPool::acquire();
  b.resize(2048);
  std::size_t other_cache = 0;
  std::thread t([&, buf = std::move(b)]() mutable {
    BufferPool::clear_thread_cache();
    BufferPool::recycle(std::move(buf));
    other_cache = BufferPool::thread_cache_size();
    BufferPool::clear_thread_cache();
  });
  t.join();
  EXPECT_EQ(other_cache, 1u);              // receiver's pool got it
  EXPECT_EQ(BufferPool::thread_cache_size(), 0u);  // not ours
}

// Concurrent stress: each thread runs acquire/fill/recycle cycles against
// its own pool while trading whole buffers with the other threads through a
// locked exchange slot — the same ownership hand-off a moved network payload
// makes. Run under TSan this proves the pool needs no synchronization beyond
// the hand-off itself.
TEST_F(BufferPoolTest, ConcurrentAcquireRecycleStress) {
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;

  std::mutex mu;
  std::vector<Bytes> exchange;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      BufferPool::clear_thread_cache();
      for (int i = 0; i < kIters; ++i) {
        Bytes b = BufferPool::acquire(64 + static_cast<std::size_t>(i % 512));
        b.push_back(static_cast<std::uint8_t>(t));
        b.push_back(static_cast<std::uint8_t>(i));
        if (i % 3 == 0) {
          // Ship the buffer to whichever thread picks it up next.
          std::lock_guard<std::mutex> lk(mu);
          exchange.push_back(std::move(b));
        } else {
          BufferPool::recycle(std::move(b));
        }
        if (i % 5 == 0) {
          Bytes incoming;
          {
            std::lock_guard<std::mutex> lk(mu);
            if (!exchange.empty()) {
              incoming = std::move(exchange.back());
              exchange.pop_back();
            }
          }
          BufferPool::recycle(std::move(incoming));
        }
      }
      EXPECT_LE(BufferPool::thread_cache_size(), BufferPool::kMaxFreeList);
      BufferPool::clear_thread_cache();
    });
  }
  for (auto& th : threads) th.join();
}

}  // namespace
}  // namespace cqos
