// Thread-local free-list of Bytes buffers backing the marshaling hot path.
//
// The paper's §5 overhead accounting blames marshaling for most of the CQoS
// stub/skeleton cost; a large slice of that in this reproduction was
// allocator traffic — every ByteWriter grew a fresh vector and every
// network hop dropped one. BufferPool recycles those vectors: acquire()
// hands out a cleared buffer with its old capacity intact, recycle() puts
// it back on the calling thread's free list. Buffers may be recycled on a
// different thread than they were acquired on (the receiver of a moved
// network payload recycles into its own pool); there is no cross-thread
// sharing of a live buffer, so no synchronization is needed.
//
// Ownership discipline (DESIGN.md §10): a pooled buffer has exactly one
// owner at a time — the ByteWriter that acquired it, then whoever take()
// moved it to, then the network message, then the receiver. Recycling is
// an optimization, never a correctness requirement: only the hops a
// delivered call crosses recycle (ByteWriter, the receive handlers'
// PayloadRecycler, the TCP frame queue); drop, crash and teardown paths
// let their buffers die.
//
// The pool is always on. It stays because it is measured to pay: with it
// off, a perfbench call allocated 5% more on plain-rmi-inproc and 8% more
// on secured-corba-1k, which is over that workload's CI bound (DESIGN.md
// §10, "Why the pool stays").
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cqos {

using Bytes = std::vector<std::uint8_t>;

class BufferPool {
 public:
  /// Per-thread free-list depth; beyond this, recycled buffers are freed.
  static constexpr std::size_t kMaxFreeList = 32;
  /// Buffers with more capacity than this are never retained (a single
  /// pathological payload must not pin megabytes per thread).
  static constexpr std::size_t kMaxRetainedCapacity = 256 * 1024;

  /// A cleared buffer with at least its previous capacity; reserves
  /// `reserve` if the recycled capacity (or a fresh vector) is smaller.
  static Bytes acquire(std::size_t reserve = 0);

  /// Return a buffer to the calling thread's free list. Safe (and useful)
  /// to call with a moved-from or empty vector: those are dropped cheaply.
  static void recycle(Bytes&& b);

  /// Drop the calling thread's free list (tests; also bounds memory when a
  /// long-lived thread goes idle).
  static void clear_thread_cache();
  static std::size_t thread_cache_size();
};

}  // namespace cqos
