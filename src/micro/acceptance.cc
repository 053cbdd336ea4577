#include "micro/acceptance.h"

#include <algorithm>

namespace cqos::micro {

// --- FirstSuccess --------------------------------------------------------------

void FirstSuccess::init(cactus::CompositeProtocol& proto) {
  client_holder(proto);  // validate composite kind

  // Successes fall through to the base resultReturner (first reply wins —
  // which is now guaranteed to be a success). Failures are swallowed until
  // they are all that is left.
  bind_tracked(proto, 
      ev::kInvokeFailure, "firstSuccessFilter",
      [](cactus::EventContext& ctx) {
        auto inv = ctx.dyn<InvocationPtr>();
        Request::Counts counts = inv->request->counts();
        if (counts.failures < counts.expected) {
          ctx.halt();  // other replicas may still succeed
        }
        // else: every reply was a failure; let the base report this one.
      },
      order::kAcceptance);
}

std::unique_ptr<cactus::MicroProtocol> FirstSuccess::make(
    const MicroProtocolSpec& spec) {
  (void)spec;
  return std::make_unique<FirstSuccess>();
}

MicroManifest FirstSuccess::manifest() {
  return MicroManifest("first_success", Side::kClient)
      .binds(ev::kInvokeFailure)
      .constraint("requires:active_rep")
      .constraint("conflicts:majority_vote");
}

// --- MajorityVote --------------------------------------------------------------

void MajorityVote::init(cactus::CompositeProtocol& proto) {
  client_holder(proto);
  auto state = proto.shared().get_or_create<State>(kStateKey);

  // A request completes with value v once a majority of the expected
  // replicas returned v, or fails once a majority has become impossible.
  auto evaluate = [state](cactus::EventContext& ctx) {
    auto inv = ctx.dyn<InvocationPtr>();
    RequestPtr req = inv->request;
    // Only `expected` comes from the request. Its success/failure counts
    // run ahead of the tally (every replier records its outcome before it
    // reaches this handler), so replies seen are counted here, under mu.
    const int expected = req->expected_replies();
    const int majority = expected / 2 + 1;

    MutexLock lk(state->mu);
    if (req->is_done()) {  // e.g. timed out — drop the tally, ignore reply
      state->tallies.erase(req->id);
      ctx.halt();
      return;
    }
    Tally& tally = state->tallies[req->id];
    ++tally.replies;
    if (inv->success) {
      tally.values.push_back(inv->result);
    } else {
      ++tally.failures;
    }

    // Best-supported value so far.
    int best = 0;
    const Value* best_value = nullptr;
    for (const Value& candidate : tally.values) {
      int votes = static_cast<int>(std::count(
          tally.values.begin(), tally.values.end(), candidate));
      if (votes > best) {
        best = votes;
        best_value = &candidate;
      }
    }

    if (best >= majority) {
      if (req->complete(true, *best_value)) {
        req->merge_reply_piggyback(inv->reply_piggyback);
      }
      state->tallies.erase(req->id);
      ctx.halt();
      return;
    }

    const int outstanding = expected - tally.replies;
    if (best + outstanding < majority) {
      req->complete(false, Value(),
                    "majority_vote: no majority among replies (" +
                        std::to_string(tally.failures) + "/" +
                        std::to_string(expected) + " failed)");
      state->tallies.erase(req->id);
    }
    // In all remaining cases: wait for more replies. The base resultReturner
    // must never complete the request under majority voting.
    ctx.halt();
  };

  bind_tracked(proto, ev::kInvokeSuccess, "majorityVote", evaluate, order::kAcceptance);
  bind_tracked(proto, ev::kInvokeFailure, "majorityVote", evaluate, order::kAcceptance);
}

std::unique_ptr<cactus::MicroProtocol> MajorityVote::make(
    const MicroProtocolSpec& spec) {
  (void)spec;
  return std::make_unique<MajorityVote>();
}

MicroManifest MajorityVote::manifest() {
  return MicroManifest("majority_vote", Side::kClient)
      .binds(ev::kInvokeSuccess)
      .binds(ev::kInvokeFailure)
      .constraint("requires:active_rep")
      .constraint("conflicts:first_success");
}

}  // namespace cqos::micro
