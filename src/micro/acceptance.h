// Acceptance micro-protocols (paper §3.2): when is a replicated request
// complete and which reply is returned?
//
// ClientBase's resultReturner implements the default (first reply, success
// or failure — the sensible policy for the non-replicated case). These two
// micro-protocols bind before it on invokeSuccess/invokeFailure:
//
//   FirstSuccess — returns the first successful execution; failures are
//                  swallowed until every replica has failed.
//   MajorityVote — returns the value agreed by a majority of the non-failed
//                  replicas; fails when no majority is possible.
#pragma once

#include <map>
#include <mutex>
#include <vector>

#include "micro/base.h"
#include "common/sync.h"
#include "common/thread_annotations.h"

namespace cqos::micro {

class FirstSuccess : public MicroBase {
 public:
  std::string_view name() const override { return "first_success"; }
  void init(cactus::CompositeProtocol& proto) override;

  static std::unique_ptr<cactus::MicroProtocol> make(
      const MicroProtocolSpec& spec);
  static MicroManifest manifest();
};

class MajorityVote : public MicroBase {
 public:
  std::string_view name() const override { return "majority_vote"; }
  void init(cactus::CompositeProtocol& proto) override;

  static std::unique_ptr<cactus::MicroProtocol> make(
      const MicroProtocolSpec& spec);
  static MicroManifest manifest();

  /// One request's replies as seen by the vote, counted under State::mu.
  struct Tally {
    std::vector<Value> values;  // successful reply values
    int replies = 0;            // successes + failures evaluated
    int failures = 0;
  };
  /// Per-request tallies, shared between the success and failure handlers.
  struct State {
    Mutex mu;
    std::map<std::uint64_t, Tally> tallies CQOS_GUARDED_BY(mu);
  };
  static constexpr const char* kStateKey = "majority_vote.state";
};

}  // namespace cqos::micro
