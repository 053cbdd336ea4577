#include "common/buffer_pool.h"

#include "common/metrics.h"

namespace cqos {
namespace {

struct FreeList {
  std::vector<Bytes> bufs;
};

FreeList& tls_free_list() {
  thread_local FreeList fl;
  return fl;
}

metrics::Counter& hit_counter() {
  static metrics::Counter& c =
      metrics::Registry::global().counter("cqos.pool.hit");
  return c;
}
metrics::Counter& miss_counter() {
  static metrics::Counter& c =
      metrics::Registry::global().counter("cqos.pool.miss");
  return c;
}
metrics::Counter& recycle_counter() {
  static metrics::Counter& c =
      metrics::Registry::global().counter("cqos.pool.recycle");
  return c;
}
metrics::Counter& discard_counter() {
  static metrics::Counter& c =
      metrics::Registry::global().counter("cqos.pool.discard");
  return c;
}

}  // namespace

Bytes BufferPool::acquire(std::size_t reserve) {
  auto& fl = tls_free_list();
  if (!fl.bufs.empty()) {
    Bytes b = std::move(fl.bufs.back());
    fl.bufs.pop_back();
    hit_counter().inc();
    if (b.capacity() < reserve) b.reserve(reserve);
    return b;
  }
  miss_counter().inc();
  Bytes b;
  if (reserve > 0) b.reserve(reserve);
  return b;
}

void BufferPool::recycle(Bytes&& b) {
  // Moved-from and never-allocated vectors carry no capacity worth keeping.
  if (b.capacity() == 0) return;
  auto& fl = tls_free_list();
  if (b.capacity() > kMaxRetainedCapacity || fl.bufs.size() >= kMaxFreeList) {
    discard_counter().inc();
    Bytes dead = std::move(b);  // free here, explicitly
    return;
  }
  b.clear();
  fl.bufs.push_back(std::move(b));
  recycle_counter().inc();
}

void BufferPool::clear_thread_cache() { tls_free_list().bufs.clear(); }

std::size_t BufferPool::thread_cache_size() {
  return tls_free_list().bufs.size();
}

}  // namespace cqos
