#include "micro/total_order.h"

#include <algorithm>
#include <thread>

#include "common/log.h"
#include "micro/dedup.h"

namespace cqos::micro {
namespace {

// A peer that is mid-reconfigure blocks its control checkpoint for the
// swap window, so one peer_send can time out without the peer being gone.
// Losing ordering info stalls that replica's execute sequence permanently
// (every later seq parks behind the gap), so the multicast retries across
// the window. Safe: orderInfo is idempotent.
constexpr int kMulticastAttempts = 6;

}  // namespace

void TotalOrder::init(cactus::CompositeProtocol& proto) {
  ServerQosHolder& holder = server_holder(proto);
  ServerQosInterface* qos = holder.qos;
  state_ = proto.shared().get_or_create<State>(kStateKey);
  auto state = state_;
  const bool is_coordinator = qos->replica_index() == coordinator_;

  struct MulticastJob {
    std::uint64_t request_id;
    std::uint64_t seq;
    int peer;
    int attempt = 0;
  };

  // assignOrder (coordinator only): allocate the sequence number on first
  // sight of a request and multicast it to the other replicas.
  if (is_coordinator) {
    bind_tracked(proto, 
        ev::kReadyToInvoke, "assignOrder",
        [state, qos](cactus::EventContext& ctx) {
          auto req = ctx.dyn<RequestPtr>();
          std::uint64_t seq = 0;
          {
            MutexLock lk(state->mu);
            auto it = state->order.find(req->id);
            if (it != state->order.end()) return;  // re-raise of parked req
            seq = state->next_seq_to_assign++;
            state->order.emplace(req->id, seq);
          }
          for (int peer = 0; peer < qos->num_servers(); ++peer) {
            if (peer == qos->replica_index()) continue;
            ctx.protocol().raise_async("to:multicast",
                                       MulticastJob{req->id, seq, peer});
          }
        },
        order::kOrderAssign);

    bind_tracked(proto, 
        "to:multicast", "orderMulticast",
        [qos](cactus::EventContext& ctx) {
          auto job = ctx.dyn<MulticastJob>();
          ValueList args{Value(static_cast<std::int64_t>(job.request_id)),
                         Value(static_cast<std::int64_t>(job.seq))};
          if (qos->peer_send(job.peer, kOrderControl, args)) return;
          if (job.attempt + 1 < kMulticastAttempts) {
            std::this_thread::sleep_for(ms(100 * (job.attempt + 1)));
            ctx.protocol().raise_async(
                "to:multicast", MulticastJob{job.request_id, job.seq,
                                             job.peer, job.attempt + 1});
            return;
          }
          CQOS_LOG_WARN("total_order: ordering multicast to replica ",
                        job.peer, " failed after ", kMulticastAttempts,
                        " attempts");
        },
        cactus::kOrderDefault);
  }

  // checkOrder (all replicas): only the request whose turn has come may
  // proceed; everything else parks. Duplicate deliveries (client
  // retransmits, chaos duplication faults) are recognised here instead of
  // being silently dropped or parked on a turn that already passed:
  //   - duplicate of an EXECUTED request (seq < next_seq_to_execute) falls
  //     through so the dedup micro-protocol (order::kDedup, later in this
  //     chain) answers it from the result cache;
  //   - duplicate of a QUEUED request (same id already parked / awaiting
  //     ordering info under a different RequestPtr) halts and ends with the
  //     original's staged outcome when the original completes, dedup-style.
  bind_tracked(proto,
      ev::kReadyToInvoke, "checkOrder",
      [state](cactus::EventContext& ctx) {
        auto req = ctx.dyn<RequestPtr>();
        RequestPtr original;
        {
          MutexLock lk(state->mu);
          auto it = state->order.find(req->id);
          if (it == state->order.end()) {
            // Ordering info not here yet (non-coordinator raced the control
            // message). Park by id; the control handler re-raises.
            auto [waiting, inserted] =
                state->awaiting_info.emplace(req->id, req);
            if (inserted || waiting->second == req) {
              ctx.halt();
              return;
            }
            original = waiting->second;
          } else if (it->second < state->next_seq_to_execute) {
            return;  // already executed: fall through to the dedup cache
          } else if (it->second != state->next_seq_to_execute) {
            auto [parked, inserted] = state->parked.emplace(it->second, req);
            if (inserted || parked->second == req) {
              ctx.halt();
              return;
            }
            original = parked->second;
          } else {
            return;  // its turn: fall through to execution
          }
        }
        mirror_outcome(*original, req);
        ctx.halt();
      },
      order::kOrderCheck);

  // checkNext (all replicas): advance and release the successor.
  bind_tracked(proto, 
      ev::kInvokeReturn, "checkNext",
      [state](cactus::EventContext& ctx) {
        auto req = ctx.dyn<RequestPtr>();
        RequestPtr next;
        {
          MutexLock lk(state->mu);
          auto it = state->order.find(req->id);
          if (it == state->order.end()) return;  // not an ordered request
          if (it->second != state->next_seq_to_execute) return;  // stale
          ++state->next_seq_to_execute;
          auto parked = state->parked.find(state->next_seq_to_execute);
          if (parked != state->parked.end()) {
            next = std::move(parked->second);
            state->parked.erase(parked);
          }
        }
        if (next) {
          ctx.protocol().raise_async(ev::kReadyToInvoke, next,
                                     next->priority);
        }
      },
      order::kOrderAdvance);

  // Ordering info from the coordinator.
  bind_tracked(proto, 
      ev::ctl(kOrderControl), "orderInfo",
      [state](cactus::EventContext& ctx) {
        auto msg = ctx.dyn<ControlMsgPtr>();
        auto request_id = static_cast<std::uint64_t>(msg->args.at(0).as_i64());
        auto seq = static_cast<std::uint64_t>(msg->args.at(1).as_i64());
        RequestPtr release;
        {
          MutexLock lk(state->mu);
          state->order.emplace(request_id, seq);
          auto it = state->awaiting_info.find(request_id);
          if (it != state->awaiting_info.end()) {
            release = std::move(it->second);
            state->awaiting_info.erase(it);
          }
        }
        if (release) {
          // Re-raise: checkOrder now finds the seq and either executes or
          // parks by sequence number.
          ctx.protocol().raise_async(ev::kReadyToInvoke, release,
                                     release->priority);
        }
        msg->reply = Value(true);
      },
      cactus::kOrderDefault);
}

// The bag snapshot of the ordering state. Merged with max() on the
// counters: two co-resident total_order instances share one State, so the
// second exporter sees its own work already recorded.
struct TotalOrderSnapshot {
  std::uint64_t next_seq_to_assign = 1;
  std::uint64_t next_seq_to_execute = 1;
  std::map<std::uint64_t, std::uint64_t> order;
};

void TotalOrder::export_state(cactus::StateBag& bag) {
  if (!state_) return;
  auto snap = bag.get_or_create<TotalOrderSnapshot>(kBagKey);
  MutexLock lk(state_->mu);
  snap->next_seq_to_assign =
      std::max(snap->next_seq_to_assign, state_->next_seq_to_assign);
  snap->next_seq_to_execute =
      std::max(snap->next_seq_to_execute, state_->next_seq_to_execute);
  for (const auto& [id, seq] : state_->order) snap->order.emplace(id, seq);
}

void TotalOrder::import_state(const cactus::StateBag& bag) {
  if (!state_) return;
  auto snap = bag.find<TotalOrderSnapshot>(kBagKey);
  if (snap == nullptr) return;
  MutexLock lk(state_->mu);
  state_->next_seq_to_assign =
      std::max(state_->next_seq_to_assign, snap->next_seq_to_assign);
  state_->next_seq_to_execute =
      std::max(state_->next_seq_to_execute, snap->next_seq_to_execute);
  for (const auto& [id, seq] : snap->order) state_->order.emplace(id, seq);
}

std::unique_ptr<cactus::MicroProtocol> TotalOrder::make(
    const MicroProtocolSpec& spec) {
  return std::make_unique<TotalOrder>(
      static_cast<int>(spec.param_int("coordinator", 0)));
}

MicroManifest TotalOrder::manifest() {
  // requires-peer:active_rep — ordering is only meaningful when every
  // replica sees every request, which active replication provides.
  return MicroManifest("total_order", Side::kServer)
      .binds(ev::kReadyToInvoke)
      .binds("to:multicast")
      .binds(ev::kInvokeReturn)
      .binds(ev::ctl(kOrderControl))
      .raises("to:multicast")
      .raises(ev::kReadyToInvoke)
      .config("coordinator")
      .constraint("requires-peer:active_rep")
      .property("total-order");
}

}  // namespace cqos::micro
