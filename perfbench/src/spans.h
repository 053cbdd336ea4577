// Per-layer self-time from the spans the program records.
//
// The program's spans carry a trace id, a name, a start and a duration, but
// no parent link. Client and server run in one process on one steady clock,
// so nesting is recovered from the intervals alone: span B is contained in
// span A when A's interval covers B's. Of two spans with the same interval
// the one recorded later contains the other (a scope ends, and records,
// after the scopes inside it). A span's self-time is its duration minus the
// length of the union of the intervals of the spans it contains; the union,
// not the sum, so that concurrent children (the replicas of one call) are
// not subtracted twice.
//
// Without parent links a concurrent span that merely falls inside another
// branch's interval (replica 1's server spans inside replica 0's invoker)
// is counted as that branch's child. That shifts time between the branches
// of one call, never between calls.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/trace.h"

namespace perfbench {

struct Interval {
  std::int64_t start = 0;  // ns on the process's steady clock
  std::int64_t end = 0;
};

/// Length of the union of `intervals`.
std::int64_t union_ns(std::vector<Interval> intervals);

/// Self-time of each interval, in input (recording) order.
std::vector<std::int64_t> self_times(const std::vector<Interval>& spans);

/// The benchmark's layer for a recorded span name:
///   cqos.stub.call                -> cqos.stub
///   cqos.cactus.client.request    -> cactus.client
///   cqos.skeleton.handle          -> cqos.skeleton
///   cqos.cactus.server.process    -> cactus.server
///   micro.readyToSend.syncInvoker -> platform.gap (its self-time is the
///       marshal, dispatch queues, transport and hand-offs of the call
///       that no server-side span covers)
///   micro.<event>.<handler>[i]    -> micro.<event>.<handler>
std::string layer_of(const std::string& span_name);

/// One call's spans, attributed.
struct CallLayers {
  /// Self-time per layer, summed over that layer's spans in the call (three
  /// skeleton spans on a three-replica call add up to one value).
  std::map<std::string, std::int64_t> self_ns;
  /// Duration of the call's cqos.stub.call span; -1 when it is missing,
  /// i.e. the call was cut by the edge of the traced window.
  std::int64_t root_ns = -1;
};

CallLayers attribute_call(const std::vector<cqos::trace::Span>& spans);

/// Checks of the arithmetic above on hand-built spans. Returns the number
/// of failed checks and prints each failure to stderr.
int span_self_test();

}  // namespace perfbench
