#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

std::int64_t union_ns(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  std::int64_t total = 0;
  std::int64_t cur_start = 0;
  std::int64_t cur_end = 0;
  bool open = false;
  for (const Interval& iv : intervals) {
    if (open && iv.start <= cur_end) {
      cur_end = std::max(cur_end, iv.end);
      continue;
    }
    if (open) total += cur_end - cur_start;
    cur_start = iv.start;
    cur_end = iv.end;
    open = true;
  }
  if (open) total += cur_end - cur_start;
  return total;
}

std::vector<std::int64_t> self_times(const std::vector<Interval>& spans) {
  std::vector<std::int64_t> out(spans.size());
  std::vector<Interval> inside;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Interval& a = spans[i];
    const std::int64_t len_a = a.end - a.start;
    inside.clear();
    for (std::size_t j = 0; j < spans.size(); ++j) {
      const Interval& b = spans[j];
      if (j == i || b.start < a.start || b.end > a.end) continue;
      const std::int64_t len_b = b.end - b.start;
      if (len_b < len_a || j < i) inside.push_back(b);
    }
    out[i] = len_a - union_ns(inside);
  }
  return out;
}

std::string layer_of(const std::string& span_name) {
  if (span_name == "cqos.stub.call") return "cqos.stub";
  if (span_name == "cqos.cactus.client.request") return "cactus.client";
  if (span_name == "cqos.skeleton.handle") return "cqos.skeleton";
  if (span_name == "cqos.cactus.server.process") return "cactus.server";
  if (span_name == "micro.readyToSend.syncInvoker") return "platform.gap";
  // Per-replica handler instances ("actAssigner[2]") fold into one layer.
  std::size_t bracket = span_name.find('[');
  return bracket == std::string::npos ? span_name
                                      : span_name.substr(0, bracket);
}

CallLayers attribute_call(const std::vector<cqos::trace::Span>& spans) {
  std::vector<Interval> intervals;
  intervals.reserve(spans.size());
  for (const cqos::trace::Span& s : spans) {
    const std::int64_t start =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            s.start.time_since_epoch())
            .count();
    const std::int64_t len =
        std::chrono::duration_cast<std::chrono::nanoseconds>(s.elapsed)
            .count();
    intervals.push_back({start, start + len});
  }
  std::vector<std::int64_t> self = self_times(intervals);
  CallLayers out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out.self_ns[layer_of(spans[i].name)] += self[i];
    if (spans[i].name == "cqos.stub.call") {
      out.root_ns = intervals[i].end - intervals[i].start;
    }
  }
  return out;
}

namespace {

int check(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "span self-test FAILED: %s\n", what);
  return ok ? 0 : 1;
}

cqos::trace::Span span(const char* name, std::int64_t start_ns,
                       std::int64_t end_ns) {
  cqos::trace::Span s;
  s.trace = 1;
  s.name = name;
  s.start = cqos::TimePoint(std::chrono::nanoseconds(start_ns));
  s.elapsed = std::chrono::nanoseconds(end_ns - start_ns);
  return s;
}

}  // namespace

int span_self_test() {
  int failed = 0;
  failed += check(union_ns({{0, 10}, {5, 20}, {30, 40}}) == 30,
                  "union of overlapping and disjoint intervals");
  failed += check(union_ns({{0, 100}, {10, 20}}) == 100,
                  "union of nested intervals");
  failed += check(union_ns({}) == 0, "union of nothing");

  // Recording order is inner-first, as scopes record when they end.
  failed += check(self_times({{20, 30}, {10, 40}, {50, 90}, {0, 100}}) ==
                      std::vector<std::int64_t>{10, 20, 40, 30},
                  "nested spans: A[0,100] > B[10,40] > C[20,30], D[50,90]");
  // Two concurrent children overlap on [40,60]: the parent loses the union
  // (70), not the sum (90).
  failed += check(self_times({{10, 60}, {40, 80}, {0, 100}}) ==
                      std::vector<std::int64_t>{50, 40, 30},
                  "overlapping concurrent children");
  // Three replica branches, each with a server span, all inside one call.
  failed += check(
      self_times({{12, 18}, {22, 35}, {30, 45}, {10, 20}, {20, 40},
                  {25, 50}, {0, 60}}) ==
          std::vector<std::int64_t>{6, 13, 15, 4, 7, 10, 20},
      "replica branches with overlapping server spans");
  failed += check(self_times({{0, 50}, {0, 50}}) ==
                      std::vector<std::int64_t>{50, 0},
                  "equal intervals: the later-recorded span is the parent");
  failed += check(self_times({{90, 120}, {0, 100}}) ==
                      std::vector<std::int64_t>{30, 100},
                  "a straggler crossing the parent's end is not contained");

  CallLayers call = attribute_call({
      span("micro.newServerRequest.getParameters", 30, 35),
      span("micro.readyToInvoke.invokeServant", 36, 46),
      span("cqos.cactus.server.process", 28, 50),
      span("cqos.skeleton.handle", 25, 52),
      span("micro.newRequest.actAssigner[0]", 5, 8),
      span("micro.readyToSend.syncInvoker", 10, 70),
      span("micro.newRequest.actAssigner[1]", 8, 9),
      span("cqos.cactus.client.request", 3, 80),
      span("cqos.stub.call", 0, 90),
  });
  failed += check(call.root_ns == 90, "root span duration");
  failed += check(call.self_ns["cqos.stub"] == 13, "stub self-time");
  failed += check(call.self_ns["cactus.client"] == 77 - 4 - 60,
                  "cactus client self-time");
  failed += check(call.self_ns["micro.newRequest.actAssigner"] == 4,
                  "per-replica handler instances fold into one layer");
  failed += check(call.self_ns["platform.gap"] == 60 - 27,
                  "platform gap is the invoker minus the server spans");
  failed += check(call.self_ns["cqos.skeleton"] == 5, "skeleton self-time");
  failed += check(call.self_ns["cactus.server"] == 22 - 15,
                  "cactus server self-time");
  std::int64_t sum = 0;
  for (const auto& [layer, ns] : call.self_ns) sum += ns;
  failed += check(sum == 90, "self-times of a span tree add up to its root");
  return failed;
}

}  // namespace perfbench
