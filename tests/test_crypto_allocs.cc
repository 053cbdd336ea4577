// Exact heap-allocation counts on the per-byte security path and on the
// tracer's off path. This binary replaces the global operator new with a
// counting one, so it stands alone: the counts are deterministic, and a
// change that adds one allocation to DES-CBC, HMAC or an untraced span
// fails here in every build, sanitizers included.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "common/trace.h"
#include "crypto/des.h"
#include "crypto/sha256.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

// Not inlined, like the base operator delete below: GCC's
// -Wmismatched-new-delete otherwise pairs malloc with operator delete (or
// operator new with free) across the inlined bodies and warns.
[[gnu::noinline]] void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

template <typename F>
std::uint64_t allocations_in(F&& f) {
  const std::uint64_t before = g_allocations.load();
  f();
  return g_allocations.load() - before;
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}

namespace cqos::crypto {
namespace {

const Bytes kKey{0x13, 0x34, 0x57, 0x79, 0x9b, 0xbc, 0xdf, 0xf1};
const Bytes kIv{0, 1, 2, 3, 4, 5, 6, 7};

// Each test first runs the operation once: the per-key caches fill on a
// key's first use on a thread, and only the steady state is counted.

TEST(CryptoAllocs, DesCbcEncryptAllocatesOnlyItsOutput) {
  const Bytes plain(1037, 0x5a);
  (void)des_cbc_encrypt(kKey, kIv, plain);
  Bytes cipher;
  EXPECT_EQ(allocations_in([&] { cipher = des_cbc_encrypt(kKey, kIv, plain); }),
            1u);
  EXPECT_EQ(cipher.size(), 1040u);
}

TEST(CryptoAllocs, DesCbcDecryptAllocatesOnlyItsOutput) {
  const Bytes cipher = des_cbc_encrypt(kKey, kIv, Bytes(1037, 0x5a));
  (void)des_cbc_decrypt(kKey, kIv, cipher);
  Bytes plain;
  EXPECT_EQ(
      allocations_in([&] { plain = des_cbc_decrypt(kKey, kIv, cipher); }), 1u);
  EXPECT_EQ(plain, Bytes(1037, 0x5a));
}

TEST(CryptoAllocs, HmacWithSeenKeyAllocatesNothing) {
  const Bytes mac_key{'k', 'e', 'y', ' ', 'k', 'e', 'y', '!'};
  const Bytes data(1060, 0xa5);
  const Sha256Digest first = hmac_sha256(mac_key, data);
  Sha256Digest again{};
  EXPECT_EQ(allocations_in([&] { again = hmac_sha256(mac_key, data); }), 0u);
  EXPECT_EQ(again, first);
}

}  // namespace
}  // namespace cqos::crypto

namespace cqos::trace {
namespace {

// Names longer than any small-string buffer, so building a Span from them
// would allocate.
const std::string kName = "test.span.name.longer.than.a.small.string";
const std::string kDetail = "a span detail that is also longer than that";

TEST(TraceAllocs, SpanScopeAllocatesOnlyWhenRecorded) {
  Tracer& tracer = Tracer::global();
  const bool was_enabled = tracer.enabled();
  tracer.set_enabled(false);
  EXPECT_EQ(allocations_in([&] { ScopedSpan span(7, kName, kDetail); }), 0u);
  tracer.set_enabled(true);
  EXPECT_EQ(allocations_in([&] { ScopedSpan span(0, kName, kDetail); }), 0u);
  // Control: a recorded span does allocate, so the counter sees spans.
  EXPECT_GT(allocations_in([&] { ScopedSpan span(7, kName, kDetail); }), 0u);
  tracer.set_enabled(was_enabled);
}

}  // namespace
}  // namespace cqos::trace
