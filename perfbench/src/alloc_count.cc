// Counting replacement of the global operator new, linked into the benchmark
// binary only; the library's array and nothrow forms forward to it. Counting
// is off unless a traced run switches it on, so the end-to-end runs pay one
// relaxed load per allocation. Counts go to cache-line-separated stripes so
// concurrent callers do not share a line.
#include "alloc_count.h"

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

constexpr std::size_t kStripes = 16;

struct alignas(64) Stripe {
  std::atomic<std::uint64_t> n{0};
};

std::atomic<bool> g_counting{false};
std::array<Stripe, kStripes> g_stripes;

Stripe& my_stripe() {
  static std::atomic<std::size_t> next{0};
  thread_local std::size_t idx =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return g_stripes[idx];
}

void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    my_stripe().n.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}

}  // namespace

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t allocations() {
  std::uint64_t total = 0;
  for (const Stripe& s : g_stripes) {
    total += s.n.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace perfbench

void* operator new(std::size_t n) {
  if (void* p = perfbench::counted_alloc(n)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
