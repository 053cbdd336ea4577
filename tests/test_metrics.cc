// Unit tests for the metrics registry (counters, histograms, JSON snapshot)
// and the span tracer underpinning request-path observability.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"

namespace cqos::metrics {
namespace {

TEST(Counter, ConcurrentIncrementsAreExact) {
  Counter c;
  constexpr int kThreads = 8, kEach = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kEach; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kEach);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Histogram, BucketBoundsArePowersOfTwo) {
  EXPECT_DOUBLE_EQ(Histogram::bound_us(0), 1.0);
  EXPECT_DOUBLE_EQ(Histogram::bound_us(1), 2.0);
  EXPECT_DOUBLE_EQ(Histogram::bound_us(10), 1024.0);
}

TEST(Histogram, RecordCountsAndMean) {
  Histogram h;
  h.record_us(100);
  h.record_us(300);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.mean_us(), 200.0);
  // 100 us lands in the bucket with bound 128 (2^7), 300 in 512 (2^9).
  EXPECT_EQ(h.bucket(7), 1u);
  EXPECT_EQ(h.bucket(9), 1u);
}

TEST(Histogram, OverflowBucketCatchesHugeSamples) {
  Histogram h;
  h.record_us(1e12);  // way past the last finite bound
  EXPECT_EQ(h.bucket(Histogram::kBuckets), 1u);
  EXPECT_EQ(h.count(), 1u);
}

TEST(Histogram, MergeAddsBucketByBucket) {
  Histogram a, b;
  a.record_us(10);
  a.record_us(10);
  b.record_us(10);
  b.record_us(5000);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.sum_us(), 10 + 10 + 10 + 5000);
  EXPECT_EQ(a.bucket(4), 3u);  // 10 us -> bound 16 = 2^4
}

TEST(Histogram, PercentileIsMonotoneAndBounded) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record_us(i);
  double p50 = h.percentile_us(50);
  double p90 = h.percentile_us(90);
  double p99 = h.percentile_us(99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // Bucket interpolation is coarse (power-of-two buckets) but the median of
  // 1..1000 must land within its bucket [256, 512] and p99 within [512, 1024].
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 512.0);
  EXPECT_LE(p99, 1024.0);
  EXPECT_DOUBLE_EQ(Histogram().percentile_us(50), 0.0);
}

TEST(Histogram, ConcurrentRecordsKeepExactCount) {
  Histogram h;
  constexpr int kThreads = 8, kEach = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kEach; ++i) h.record_us(t * 100 + 1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kEach);
}

// Records land in the recording thread's stripe; every reader sums the
// stripes. 8 threads start together and each records its own value (its
// own bucket), so a lost or misread stripe shows as a wrong count, bucket
// or sum.
TEST(Histogram, ConcurrentRecordsKeepExactTotals) {
  Histogram h;
  constexpr int kThreads = 8, kEach = 20000;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, &ready, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      // 2^t us lands in bucket t.
      for (int i = 0; i < kEach; ++i) h.record_us(double(1 << t));
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), std::uint64_t{kThreads} * kEach);
  double sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(h.bucket(t), std::uint64_t{kEach}) << "bucket " << t;
    sum += double(1 << t) * kEach;
  }
  EXPECT_DOUBLE_EQ(h.sum_us(), sum);
  Histogram merged;
  merged.merge(h);
  EXPECT_EQ(merged.count(), h.count());
  EXPECT_EQ(merged.bucket(kThreads - 1), std::uint64_t{kEach});
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket(0), 0u);
}

TEST(Registry, ReturnsStableReferences) {
  Registry reg;
  Counter& c1 = reg.counter("a.b");
  // Creating many more instruments must not invalidate c1.
  for (int i = 0; i < 100; ++i) {
    reg.counter("x." + std::to_string(i));
    reg.histogram("y." + std::to_string(i));
  }
  Counter& c2 = reg.counter("a.b");
  EXPECT_EQ(&c1, &c2);
  c1.inc(3);
  EXPECT_EQ(c2.value(), 3u);
}

TEST(Registry, SnapshotIsDeterministic) {
  // Two registries fed identical observations in different creation order
  // serialize identically (std::map iteration sorts names).
  Registry a, b;
  a.counter("one").inc(1);
  a.counter("two").inc(2);
  a.histogram("h").record_us(100);
  b.histogram("h").record_us(100);
  b.counter("two").inc(2);
  b.counter("one").inc(1);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_NE(a.to_json().find("\"counters\""), std::string::npos);
  EXPECT_NE(a.to_json().find("\"histograms\""), std::string::npos);
  EXPECT_NE(a.to_json().find("\"one\":1"), std::string::npos);
}

TEST(Registry, ResetZeroesEverything) {
  Registry reg;
  Counter& c = reg.counter("c");
  Histogram& h = reg.histogram("h");
  c.inc(5);
  h.record_us(10);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
}

TEST(Tracer, RingBufferIsBounded) {
  trace::Tracer tracer;
  tracer.set_capacity(4);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    tracer.record(trace::Span{i, "s", "", now(), us(1)});
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_TRUE(tracer.spans_for(1).empty());    // evicted
  EXPECT_EQ(tracer.spans_for(10).size(), 1u);  // newest kept
}

// Each thread records into its own buffer; spans_for merges them in end
// order, the capacity bounds the total across threads and size() is exact.
TEST(Tracer, PerThreadBuffersMergeAndStayBounded) {
  trace::Tracer tracer;
  constexpr int kThreads = 4, kEach = 500;
  tracer.set_capacity(kThreads * kEach);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < kEach; ++i) {
        tracer.record(trace::Span{std::uint64_t(1 + i % 2), "s",
                                  std::to_string(t), now(), us(1)});
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(tracer.size(), std::size_t{kThreads} * kEach);
  std::vector<trace::Span> odd = tracer.spans_for(1);
  ASSERT_EQ(odd.size(), std::size_t{kThreads} * kEach / 2);
  for (std::size_t i = 1; i < odd.size(); ++i) {
    EXPECT_LE(odd[i - 1].start + odd[i - 1].elapsed,
              odd[i].start + odd[i].elapsed);
  }
  // Past the cap, each recorder drops its own oldest span.
  std::thread extra([&tracer] {
    for (int i = 0; i < 100; ++i) {
      tracer.record(trace::Span{3, "s", "", now(), us(1)});
    }
  });
  extra.join();
  EXPECT_EQ(tracer.size(), std::size_t{kThreads} * kEach);
  tracer.set_capacity(10);
  EXPECT_EQ(tracer.size(), 10u);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_TRUE(tracer.spans_for(1).empty());
}

TEST(Tracer, UntracedAndDisabledSpansAreSkipped) {
  trace::Tracer tracer;
  tracer.record(trace::Span{0, "untraced", "", now(), us(1)});
  EXPECT_EQ(tracer.size(), 0u);
  tracer.set_enabled(false);
  tracer.record(trace::Span{7, "disabled", "", now(), us(1)});
  EXPECT_EQ(tracer.size(), 0u);
  tracer.set_enabled(true);
  tracer.record(trace::Span{7, "s", "", now(), us(1)});
  EXPECT_EQ(tracer.size(), 1u);
}

TEST(Tracer, ScopedSpanRecordsHistogramAndSpan) {
  trace::Tracer& tracer = trace::Tracer::global();
  tracer.clear();
  Histogram hist;
  trace::TraceId id = trace::next_trace_id();
  {
    trace::ScopedSpan span(id, "test.span", "detail", &hist);
  }
  EXPECT_EQ(hist.count(), 1u);
  auto spans = tracer.spans_for(id);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "test.span");
  EXPECT_EQ(spans[0].detail, "detail");
  {
    // TraceId 0: histogram still sees the sample, the tracer does not.
    trace::ScopedSpan span(0, "test.untraced", "", &hist);
  }
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_TRUE(tracer.spans_for(0).empty());
}

}  // namespace
}  // namespace cqos::metrics
